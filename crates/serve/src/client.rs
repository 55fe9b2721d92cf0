//! A minimal blocking HTTP client for the session protocol — used by the
//! CLI tests, the crash/replay differential, and `serve_bench`. The
//! client keeps its TCP connection alive across requests (HTTP/1.1
//! keep-alive) and falls back to a fresh connection when the server has
//! closed the cached one — the server is free to drop parked connections
//! at any time (idle timeout, per-connection request cap, drain). It
//! falls back only when the server closed the connection before any byte
//! of the response arrived: once a response has started, the server has
//! read the request and may have applied it, so a resend could apply an
//! answer twice.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use muse_obs::{Json, Rng};

/// The floor for the `503` retry backoff, in milliseconds.
const RETRY_FLOOR_MS: u64 = 50;

/// A client bound to one server address.
pub struct Client {
    addr: String,
    /// How many times a `503` is retried (with backoff) before it is
    /// surfaced. Zero means every `503` is returned to the caller.
    pub retries: u32,
    /// The cap on the per-attempt `503` backoff, in milliseconds. The
    /// server's `Retry-After` header (seconds) is honored up to this cap;
    /// without a header the backoff is the [`RETRY_FLOOR_MS`] floor.
    pub retry_cap_ms: u64,
    /// Jitter source for the retry backoff — desynchronizes clients that
    /// were all shed by the same degraded server.
    jitter: Mutex<Rng>,
    /// The cached keep-alive connection, if the last exchange left one.
    conn: Mutex<Option<TcpStream>>,
}

impl Client {
    /// A client for `addr` (e.g. `127.0.0.1:7654`) retrying `503`s a few
    /// times.
    pub fn new(addr: impl Into<String>) -> Client {
        let addr = addr.into();
        // Seed the jitter from the address so two clients hitting different
        // servers do not march in lockstep; determinism per-address keeps
        // test runs reproducible.
        let seed = addr.bytes().fold(0xC11E_4751u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
        });
        Client {
            addr,
            retries: 20,
            retry_cap_ms: 250,
            jitter: Mutex::new(Rng::new(seed)),
            conn: Mutex::new(None),
        }
    }

    /// Issue one request; returns `(status, body)`. `503` responses are
    /// retried up to `self.retries` times, sleeping a jittered backoff that
    /// honors the server's `Retry-After` header (capped at
    /// [`Client::retry_cap_ms`]) — the server's documented backpressure
    /// contract.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<(u16, Json), String> {
        let mut attempt = 0u32;
        loop {
            match self.request_once(method, path, body) {
                Ok((503, _, retry_after)) if attempt < self.retries => {
                    attempt += 1;
                    thread::sleep(Duration::from_millis(self.backoff_ms(retry_after)));
                }
                Ok((status, body, _)) => return Ok((status, body)),
                Err(e) => return Err(e),
            }
        }
    }

    /// The sleep before the next `503` retry: the server's `Retry-After`
    /// (seconds), clamped to `[RETRY_FLOOR_MS, retry_cap_ms]`, then jittered
    /// down to somewhere in `[base/2, base]`.
    fn backoff_ms(&self, retry_after_secs: Option<u64>) -> u64 {
        let cap = self.retry_cap_ms.max(RETRY_FLOOR_MS);
        let base = match retry_after_secs {
            Some(secs) => secs.saturating_mul(1000).clamp(RETRY_FLOOR_MS, cap),
            None => RETRY_FLOOR_MS,
        };
        let jitter = self
            .jitter
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .below(base / 2 + 1);
        base / 2 + jitter
    }

    pub(crate) fn request_once(
        &self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<(u16, Json, Option<u64>), String> {
        let bytes = encode_request(method, path, &self.addr, body);

        // First try the cached keep-alive connection. A close before any
        // response byte is the normal stale-connection race — the server
        // dropped the parked connection without reading our bytes, so the
        // request was never processed and a retry on a fresh connection is
        // safe. Anything else is surfaced: a started response means the
        // server read the request, and a timeout leaves it unknown whether
        // the server applied it.
        let cached = self.take_cached();
        if let Some(mut stream) = cached {
            match exchange(&mut stream, &bytes) {
                Ok((status, body, close, retry_after)) => {
                    if !close {
                        self.cache(stream);
                    }
                    return Ok((status, body, retry_after));
                }
                Err(e) if e.is_stale_connection() => {} // fall through to a fresh one
                Err(e) => return Err(format!("{method} {path}: {}", e.error)),
            }
        }

        let mut stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(60)));
        match exchange(&mut stream, &bytes) {
            Ok((status, body, close, retry_after)) => {
                if !close {
                    self.cache(stream);
                }
                Ok((status, body, retry_after))
            }
            Err(e) => Err(format!("{method} {path}: {}", e.error)),
        }
    }

    fn take_cached(&self) -> Option<TcpStream> {
        self.conn.lock().unwrap_or_else(|e| e.into_inner()).take()
    }

    fn cache(&self, stream: TcpStream) {
        *self.conn.lock().unwrap_or_else(|e| e.into_inner()) = Some(stream);
    }

    /// `POST /sessions`; returns the response body (`session`, `status`,
    /// maybe `question`). Non-200 statuses become errors.
    pub fn create_session(&self, cfg: &Json) -> Result<Json, String> {
        self.expect_200("POST", "/sessions", Some(cfg))
    }

    /// `GET /sessions/{id}/question`.
    pub fn question(&self, id: u64) -> Result<Json, String> {
        self.expect_200("GET", &format!("/sessions/{id}/question"), None)
    }

    /// `POST /sessions/{id}/answer`.
    pub fn answer(&self, id: u64, answer: &Json) -> Result<Json, String> {
        self.expect_200("POST", &format!("/sessions/{id}/answer"), Some(answer))
    }

    /// `GET /sessions/{id}/report`.
    pub fn report(&self, id: u64) -> Result<Json, String> {
        self.expect_200("GET", &format!("/sessions/{id}/report"), None)
    }

    /// `GET /metrics`.
    pub fn metrics(&self) -> Result<Json, String> {
        self.expect_200("GET", "/metrics", None)
    }

    /// `GET /healthz`.
    pub fn healthz(&self) -> Result<Json, String> {
        self.expect_200("GET", "/healthz", None)
    }

    /// `POST /admin/shutdown` — begins the drain.
    pub fn shutdown(&self) -> Result<Json, String> {
        self.expect_200("POST", "/admin/shutdown", None)
    }

    fn expect_200(&self, method: &str, path: &str, body: Option<&Json>) -> Result<Json, String> {
        let (status, body) = self.request(method, path, body)?;
        if status == 200 {
            Ok(body)
        } else {
            Err(format!("{method} {path}: HTTP {status}: {}", body.render()))
        }
    }
}

/// Poll `GET /healthz` until the server answers or `timeout` elapses.
/// Spawned-server tests call this instead of sleeping.
pub fn wait_ready(addr: &str, timeout: Duration) -> Result<(), String> {
    let client = Client {
        addr: addr.to_owned(),
        retries: 0,
        retry_cap_ms: 250,
        jitter: Mutex::new(Rng::new(0xC11E_4751)),
        conn: Mutex::new(None),
    };
    let deadline = Instant::now() + timeout;
    loop {
        match client.request_once("GET", "/healthz", None) {
            Ok((200, _, _)) => return Ok(()),
            Ok((status, _, _)) => return Err(format!("healthz returned HTTP {status}")),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("server not ready after {timeout:?}: {e}"));
                }
                thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

fn encode_request(method: &str, path: &str, addr: &str, body: Option<&Json>) -> Vec<u8> {
    let payload = body.map(|j| j.render()).unwrap_or_default();
    format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{payload}",
        payload.len(),
    )
    .into_bytes()
}

fn protocol(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A failed [`exchange`].
#[derive(Debug)]
struct ExchangeError {
    error: io::Error,
    /// Whether any byte of the response had arrived before the failure.
    response_started: bool,
}

impl ExchangeError {
    /// The server closed the connection before answering at all: it never
    /// read the request, so sending it again cannot apply it twice.
    fn is_stale_connection(&self) -> bool {
        !self.response_started
            && matches!(
                self.error.kind(),
                io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::BrokenPipe
            )
    }
}

/// Write one request and read one response off `stream`. Returns
/// `(status, body, close, retry_after)` where `close` reports whether the
/// server ended keep-alive (explicitly, or implicitly by omitting
/// `Content-Length`) and `retry_after` is the `Retry-After` header in
/// seconds, if present. Transport failures keep their original
/// `io::ErrorKind`; malformed responses are `InvalidData`.
fn exchange(
    stream: &mut TcpStream,
    request: &[u8],
) -> Result<(u16, Json, bool, Option<u64>), ExchangeError> {
    let mut data = Vec::new();
    read_response(stream, request, &mut data).map_err(|error| ExchangeError {
        error,
        response_started: !data.is_empty(),
    })
}

/// The body of [`exchange`]; every response byte read lands in `data`.
fn read_response(
    stream: &mut TcpStream,
    request: &[u8],
    data: &mut Vec<u8>,
) -> io::Result<(u16, Json, bool, Option<u64>)> {
    stream.write_all(request)?;
    stream.flush()?;

    // Read the head incrementally: under keep-alive we must not read past
    // this response (there is no EOF delimiter any more).
    let mut buf = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = data.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a full response head",
            ));
        }
        data.extend_from_slice(&buf[..n]);
    };

    let head = std::str::from_utf8(&data[..head_end])
        .map_err(|_| protocol("response head is not UTF-8"))?;
    let (status, content_length, mut close, retry_after) = parse_head(head)?;

    let body_start = head_end + 4;
    let body = match content_length {
        Some(len) => {
            while data.len() < body_start + len {
                let n = stream.read(&mut buf)?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-body",
                    ));
                }
                data.extend_from_slice(&buf[..n]);
            }
            &data[body_start..body_start + len]
        }
        None => {
            // No length: the body runs to EOF, which also ends keep-alive.
            close = true;
            let mut rest = data.split_off(body_start);
            stream.read_to_end(&mut rest)?;
            data.extend_from_slice(&rest);
            &data[body_start..]
        }
    };
    let text = std::str::from_utf8(body).map_err(|_| protocol("response body is not UTF-8"))?;
    let json = if text.trim().is_empty() {
        Json::obj(Vec::new())
    } else {
        Json::parse(text).map_err(|e| protocol(format!("bad response body: {e}")))?
    };
    Ok((status, json, close, retry_after))
}

/// Parse a response head into `(status, content_length, close, retry_after)`.
fn parse_head(head: &str) -> io::Result<(u16, Option<usize>, bool, Option<u64>)> {
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| protocol(format!("bad status line `{status_line}`")))?;
    let mut content_length = None;
    let mut close = status_line.starts_with("HTTP/1.0");
    let mut retry_after = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(
                value
                    .trim()
                    .parse()
                    .map_err(|_| protocol("bad Content-Length"))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            let value = value.trim();
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        } else if name.eq_ignore_ascii_case("retry-after") {
            // Advisory only — a malformed value falls back to the floor.
            retry_after = value.trim().parse().ok();
        }
    }
    Ok((status, content_length, close, retry_after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_head() {
        let (status, len, close, retry_after) =
            parse_head("HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 13\r\nConnection: close")
                .unwrap();
        assert_eq!(status, 503);
        assert_eq!(len, Some(13));
        assert!(close);
        assert_eq!(retry_after, Some(1));

        let (status, len, close, retry_after) =
            parse_head("HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive").unwrap();
        assert_eq!(status, 200);
        assert_eq!(len, Some(2));
        assert!(!close);
        assert_eq!(retry_after, None);
    }

    #[test]
    fn malformed_retry_after_is_ignored() {
        let (status, _, _, retry_after) = parse_head(
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: soon\r\nContent-Length: 0",
        )
        .unwrap();
        assert_eq!(status, 503);
        assert_eq!(retry_after, None);
    }

    /// The backoff honors `Retry-After` but stays within
    /// `[RETRY_FLOOR_MS/2, retry_cap_ms]` whatever the server claims.
    #[test]
    fn backoff_is_capped_and_jittered() {
        let client = Client::new("127.0.0.1:1");
        for _ in 0..64 {
            // No header: the floor applies.
            let ms = client.backoff_ms(None);
            assert!((RETRY_FLOOR_MS / 2..=RETRY_FLOOR_MS).contains(&ms), "{ms}");
            // Header of 1s: capped at retry_cap_ms (250), jittered down.
            let ms = client.backoff_ms(Some(1));
            assert!((125..=250).contains(&ms), "{ms}");
            // Absurd header: still capped.
            let ms = client.backoff_ms(Some(3600));
            assert!((125..=250).contains(&ms), "{ms}");
        }
        // The jitter actually varies.
        let samples: Vec<u64> = (0..32).map(|_| client.backoff_ms(Some(1))).collect();
        assert!(samples.iter().any(|&s| s != samples[0]), "no jitter");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_head("not http").is_err());
        assert!(parse_head("HTTP/1.1 abc").is_err());
        assert!(parse_head("HTTP/1.1 200 OK\r\nContent-Length: x").is_err());
    }

    /// A loopback exchange: the client reads exactly one keep-alive
    /// response and reports the connection reusable.
    #[test]
    fn exchange_reads_one_keepalive_response() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = peer.read(&mut buf).unwrap();
            peer.write_all(
                b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\nConnection: keep-alive\r\n\r\n{\"ok\":true}",
            )
            .unwrap();
            // Keep the socket open so the client cannot rely on EOF.
            std::thread::sleep(Duration::from_millis(100));
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let request = encode_request("GET", "/healthz", "test", None);
        let (status, body, close, _) = exchange(&mut stream, &request).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.get("ok"), Some(&Json::Bool(true)));
        assert!(!close, "keep-alive response must leave the conn reusable");
        server.join().unwrap();
    }

    /// The server answers one request, then closes the kept-alive
    /// connection without reading the next: the client resends that
    /// request on a fresh connection.
    #[test]
    fn a_request_the_server_never_read_moves_to_a_fresh_connection() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for stream in listener.incoming().take(2) {
                let mut peer = stream.unwrap();
                let mut buf = [0u8; 4096];
                let _ = peer.read(&mut buf).unwrap();
                peer.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                    .unwrap();
            }
        });
        let client = Client::new(addr.to_string());
        assert_eq!(client.request("GET", "/healthz", None).unwrap().0, 200);
        assert_eq!(client.request("GET", "/healthz", None).unwrap().0, 200);
        server.join().unwrap();
    }

    /// The server answers one request, then closes part-way through the
    /// response to the next. It has read that request and may have
    /// applied it, so the client must fail instead of sending it again.
    #[test]
    fn a_started_response_is_never_resent() {
        use std::net::TcpListener;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut connections = 0;
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    connections += 1;
                    let mut peer = stream.unwrap();
                    let mut buf = [0u8; 4096];
                    let _ = peer.read(&mut buf).unwrap();
                    if connections > 1 {
                        // A resent request: answer it, so a client that
                        // resends sees success.
                        peer.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                            .unwrap();
                        continue;
                    }
                    peer.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                        .unwrap();
                    let _ = peer.read(&mut buf).unwrap();
                    peer.write_all(b"HTTP/1.1 200 OK\r\nContent-Le").unwrap();
                }
                connections
            })
        };
        let client = Client::new(addr.to_string());
        assert_eq!(client.request("GET", "/healthz", None).unwrap().0, 200);
        let answer = Json::obj(vec![("kind", Json::str("join"))]);
        let second = client.request("POST", "/sessions/1/answer", Some(&answer));
        assert!(second.is_err(), "{second:?}");
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        assert_eq!(server.join().unwrap(), 1, "the request went out twice");
    }
}
