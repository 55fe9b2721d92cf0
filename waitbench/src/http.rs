//! A minimal keep-alive HTTP/1.1 client that times each round trip to the
//! last response byte. Bodies come back as text, so callers decode JSON
//! outside the timed span (the bundled `muse_serve::Client` parses inside
//! its exchange).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How many `503`s one request waits out before it counts as failed.
const MAX_RETRIES: u32 = 100;

/// One completed exchange.
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Response body text.
    pub body: String,
    /// From the first byte sent to the last byte received, across any
    /// `503` retries and their back-off.
    pub rtt: Duration,
}

/// One client connection (reopened transparently when the server closes
/// it between requests).
pub struct Conn {
    addr: String,
    stream: Option<TcpStream>,
    /// `503`s waited out and retried, over the connection's life.
    pub retries: u64,
}

impl Conn {
    /// A connection to `addr`; nothing is opened until the first request.
    pub fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_owned(),
            stream: None,
            retries: 0,
        }
    }

    /// Send one request and wait for its response. A `503` is retried
    /// after its `Retry-After` (clamped to 50–250 ms); any other status is
    /// returned to the caller.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> Result<Reply, String> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        let t0 = Instant::now();
        let mut attempts = 0;
        loop {
            let (status, text, retry_after) = self
                .exchange(request.as_bytes())
                .map_err(|e| format!("{method} {path}: {e}"))?;
            if status == 503 && attempts < MAX_RETRIES {
                attempts += 1;
                self.retries += 1;
                let wait = retry_after.map_or(50, |s| s.saturating_mul(1000).clamp(50, 250));
                std::thread::sleep(Duration::from_millis(wait));
                continue;
            }
            return Ok(Reply {
                status,
                body: text,
                rtt: t0.elapsed(),
            });
        }
    }

    /// One exchange. A reused connection that fails before any response
    /// byte arrives was closed by the server while idle; the request was
    /// never read, so it is resent once on a fresh connection.
    fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, String, Option<u64>)> {
        if let Some(mut stream) = self.stream.take() {
            match read_reply(&mut stream, request) {
                Ok((status, body, retry_after, keep)) => {
                    if keep {
                        self.stream = Some(stream);
                    }
                    return Ok((status, body, retry_after));
                }
                Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
                Err(_) => {}
            }
        }
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let (status, body, retry_after, keep) = read_reply(&mut stream, request)?;
        if keep {
            self.stream = Some(stream);
        }
        Ok((status, body, retry_after))
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

/// Write `request` and read exactly one response: `(status, body,
/// retry_after_secs, keep_alive)`.
fn read_reply(
    stream: &mut TcpStream,
    request: &[u8],
) -> io::Result<(u16, String, Option<u64>, bool)> {
    stream.write_all(request)?;
    let mut data = Vec::with_capacity(8192);
    let mut buf = [0u8; 16384];
    let head_end = loop {
        if let Some(pos) = data.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "closed before a response head",
            ));
        }
        data.extend_from_slice(&buf[..n]);
    };
    let head = std::str::from_utf8(&data[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = None;
    let mut keep = true;
    let mut retry_after = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse::<usize>().map_err(|_| bad("bad length"))?);
        } else if name.eq_ignore_ascii_case("connection") {
            keep = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("retry-after") {
            retry_after = value.parse().ok();
        }
    }
    let length = length.ok_or_else(|| bad("response without Content-Length"))?;
    let start = head_end + 4;
    while data.len() < start + length {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(bad("closed mid-body"));
        }
        data.extend_from_slice(&buf[..n]);
    }
    let body = String::from_utf8(data[start..start + length].to_vec())
        .map_err(|_| bad("non-UTF-8 body"))?;
    Ok((status, body, retry_after, keep))
}
