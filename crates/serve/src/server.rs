//! The session server: a bounded accept loop over the `muse-par` worker
//! pool, persistent (keep-alive) connections with a dedicated idle poller,
//! WAL-backed session durability with periodic snapshots and compaction,
//! a process-wide probe/example memo shared across sessions, and a
//! graceful drain.
//!
//! Threading model: `run` dedicates one pool item to the accept loop, one
//! to the connection poller, and `threads` items to request workers, all
//! inside one `muse_par::try_scope_map` call — workers are panic-isolated
//! exactly like chase units. A worker handles *one* request per dequeue,
//! then parks the connection and writes a byte to the poller's wake
//! socket. The poller blocks in `poll(2)` on the wake socket and every
//! parked socket, with the nearest idle deadline as its timeout: a socket
//! that turns readable goes back to the ready queue as soon as its bytes
//! arrive (or is dropped on EOF), and one past its deadline is closed. An
//! idle keep-alive connection therefore costs no thread and no periodic
//! wake-up, and `serve.accepts` tracks connections, not requests.
//!
//! Hot-path cost model (the quadratic-resume fix):
//! - every `snapshot_every` accepted answers the session's rendered state
//!   is snapshotted into the WAL, so a restart restores sessions whose
//!   snapshot is current in O(1) and replays the rest once;
//! - identical deterministic probes across sessions hit the process-wide
//!   [`ProbeCache`] (`serve.cache_hits` / `serve.cache_misses`), so N
//!   identical-config sessions pay for each wizard question once;
//! - identical configs share one [`SessionCtx`](crate::store::SessionCtx)
//!   via [`CtxCache`];
//! - each session's `StepMemo` (next to its delta store) resumes every
//!   step from the last design-unit boundary, so an answer replays at most
//!   its own design unit instead of the whole answer log.
//!
//! Storage failure narrows the service instead of killing it: a failed
//! WAL append flips the server [`Health::Degraded`] — mutating endpoints
//! shed with `503 + Retry-After` while reads (`question`, `report`,
//! `/metrics`, `/healthz`) keep serving from memory — and a dedicated
//! recovery-probe pool item re-attempts an append under jittered backoff,
//! walking `Degraded → Recovering → Healthy` on two consecutive
//! successes. Sessions whose `step` panics repeatedly are quarantined
//! (see [`SessionStatus::Quarantined`]) so a poisoned replay can't burn a
//! worker per retry.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use muse_obs::{faultpoints, Json, Metrics, Rng};
use muse_wizard::ProbeCache;

use crate::hist::Hist;
use crate::http::{self, Request};
use crate::oracle::Intentions;
use crate::poll;
use crate::proto;
use crate::store::{CtxCache, SessionCfg, SessionStatus, Store};
use crate::wal::Wal;

/// Server knobs, the `muse serve` flags.
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Request worker threads (the accept loop and the connection poller
    /// each get their own).
    pub threads: usize,
    /// Max resident sessions; creates beyond it are shed with 503.
    pub max_sessions: usize,
    /// Max resident connections (accepted and not yet closed — under
    /// keep-alive a connection outlives many requests); excess is shed
    /// with 503.
    pub max_connections: usize,
    /// Answer-log path; `None` runs without durability.
    pub wal: Option<PathBuf>,
    /// Drop a parked keep-alive connection after this long without a new
    /// request.
    pub idle_timeout_ms: u64,
    /// Close a connection after this many requests (bounds how long one
    /// client can monopolize a connection slot).
    pub max_conn_requests: usize,
    /// Snapshot a session's rendered state into the WAL every this many
    /// accepted answers (and always at `done`). 0 disables snapshots.
    pub snapshot_every: usize,
    /// Compact the WAL (dropping superseded snapshots) once it exceeds
    /// this many bytes; afterwards the threshold doubles from the
    /// compacted size so compaction cost stays amortized-constant.
    pub wal_compact_bytes: u64,
    /// Capacity of the cross-session probe/example memo. 0 disables it.
    pub probe_cache_cap: usize,
    /// Quarantine a session after this many consecutive `step` panics
    /// (0 disables quarantine).
    pub panic_quarantine: u32,
    /// Base interval of the degraded-mode recovery probe, in ms. Each
    /// failed probe doubles the wait (jittered, capped at 16x base).
    pub recovery_probe_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 4,
            max_sessions: 1024,
            max_connections: 256,
            wal: None,
            idle_timeout_ms: 5000,
            max_conn_requests: 1000,
            snapshot_every: 8,
            wal_compact_bytes: 1 << 20,
            probe_cache_cap: 1024,
            panic_quarantine: 3,
            recovery_probe_ms: 200,
        }
    }
}

/// The storage-health state machine. `Healthy` is the only state that
/// accepts mutations; the other two shed them with `503 + Retry-After`
/// while reads keep serving from memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// WAL appends are succeeding (or no WAL is configured).
    Healthy,
    /// A WAL append failed; mutations shed until the recovery probe
    /// succeeds.
    Degraded,
    /// One recovery probe landed; one more restores `Healthy`. Mutations
    /// still shed — the extra probe is hysteresis against a flapping disk.
    Recovering,
}

impl Health {
    /// The `/healthz` wire name.
    pub fn name(self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Recovering => "recovering",
        }
    }

    fn from_u8(v: u8) -> Health {
        match v {
            1 => Health::Degraded,
            2 => Health::Recovering,
            _ => Health::Healthy,
        }
    }
}

/// A typed routing failure, rendered as `{"error": …}` with its status.
struct ApiError {
    status: u16,
    message: String,
    retry_after: bool,
    /// Marks a quarantined-session failure: the body carries
    /// `"quarantined": true` so clients can tell a poisoned session from
    /// a transient 500 and stop retrying.
    quarantined: bool,
}

impl ApiError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        ApiError {
            status,
            message: message.into(),
            retry_after: false,
            quarantined: false,
        }
    }

    fn unavailable(message: impl Into<String>) -> Self {
        ApiError {
            status: 503,
            message: message.into(),
            retry_after: true,
            quarantined: false,
        }
    }

    fn quarantined(reason: &str) -> Self {
        ApiError {
            status: 500,
            message: format!("session quarantined: {reason}"),
            retry_after: false,
            quarantined: true,
        }
    }
}

type ApiResult = Result<(u16, Json), ApiError>;

/// One live connection between requests.
struct ConnState {
    conn: http::Conn,
    /// Requests served on this connection so far.
    served: usize,
    /// When the connection was last parked (for the idle timeout).
    parked_at: Instant,
}

/// Everything the accept loop, poller, and workers share.
struct ConnShared {
    /// Connections with a request ready (or presumed imminent: fresh
    /// accepts land here too — the first request follows the connect).
    ready: Mutex<VecDeque<ConnState>>,
    available: Condvar,
    /// Connections idle between requests, owned by the poller.
    parked: Mutex<Vec<ConnState>>,
    /// The poller's end of the wake pair: it waits on this next to the
    /// parked sockets.
    wake_rx: UnixStream,
    /// The end [`ConnShared::wake`] writes to.
    wake_tx: UnixStream,
    accept_done: AtomicBool,
    poller_done: AtomicBool,
    in_flight: AtomicUsize,
    /// Accepted and not yet closed (the `max_connections` gauge).
    conn_count: AtomicUsize,
}

impl ConnShared {
    fn new() -> io::Result<ConnShared> {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        Ok(ConnShared {
            ready: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            parked: Mutex::new(Vec::new()),
            wake_rx,
            wake_tx,
            accept_done: AtomicBool::new(false),
            poller_done: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            conn_count: AtomicUsize::new(0),
        })
    }

    /// End the poller's current wait. A full socket buffer already holds
    /// an unread wake, so a failed write loses nothing.
    fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Empty the wake socket so the next wait blocks until a new wake.
    fn drain_wakes(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n == buf.len()) {}
    }
}

/// A bound (and, with a WAL, replayed) session server.
pub struct Server {
    cfg: ServerConfig,
    listener: TcpListener,
    store: Store,
    wal: Option<Wal>,
    metrics: Metrics,
    handle_hist: Hist,
    shutdown: AtomicBool,
    probe_cache: ProbeCache,
    ctx_cache: CtxCache,
    /// WAL size that triggers the next compaction.
    next_compact: AtomicU64,
    /// The storage [`Health`] state (`Health::from_u8` encoding).
    health: AtomicU8,
}

impl Server {
    /// Bind the listener, open the WAL, and replay every logged session to
    /// its pre-crash state (restoring from a current snapshot where one
    /// exists). Returns before accepting any connection, so callers can
    /// read [`Server::local_addr`] first.
    pub fn bind(cfg: ServerConfig, metrics: Metrics) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
        let store = Store::new(cfg.max_sessions);
        let ctx_cache = CtxCache::new(8);
        let probe_cache = ProbeCache::new(cfg.probe_cache_cap)
            .with_metric_keys("serve.cache_hits", "serve.cache_misses");
        let wal = match &cfg.wal {
            Some(path) => {
                let (wal, records, salvage) =
                    Wal::open(path).map_err(|e| format!("wal {}: {e}", path.display()))?;
                if !salvage.is_clean() {
                    metrics.add("serve.wal_salvaged_frames", salvage.salvaged_frames);
                    metrics.add("serve.wal_quarantined_bytes", salvage.quarantined_bytes);
                    eprintln!(
                        "serve: wal salvage on {}: {} frame(s) recovered past corruption, \
                         {} byte(s) quarantined",
                        path.display(),
                        salvage.salvaged_frames,
                        salvage.quarantined_bytes
                    );
                }
                let t0 = Instant::now();
                let probes = (cfg.probe_cache_cap > 0).then_some(&probe_cache);
                replay(&store, &metrics, &ctx_cache, probes, records)?;
                metrics.timer("serve.replay_time").record(t0.elapsed());
                Some(wal)
            }
            None => None,
        };
        let next_compact = cfg
            .wal_compact_bytes
            .max(wal.as_ref().map_or(0, |w| 2 * w.len()));
        Ok(Server {
            cfg,
            listener,
            store,
            wal,
            metrics,
            handle_hist: Hist::new(),
            shutdown: AtomicBool::new(false),
            probe_cache,
            ctx_cache,
            next_compact: AtomicU64::new(next_compact),
            health: AtomicU8::new(0),
        })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The server's metrics sink.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The session store (tests and the bench introspect it directly).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The cross-session probe memo, when enabled.
    fn probes(&self) -> Option<&ProbeCache> {
        (self.cfg.probe_cache_cap > 0).then_some(&self.probe_cache)
    }

    /// Current storage health.
    pub fn health(&self) -> Health {
        Health::from_u8(self.health.load(Ordering::Acquire))
    }

    /// Move the health state machine, logging and counting once per edge
    /// (never per request — a storm of failing appends is one
    /// transition).
    fn set_health(&self, to: Health) {
        let from = self.health.swap(to as u8, Ordering::AcqRel);
        if from != to as u8 {
            self.metrics.incr("serve.health_transitions");
            eprintln!(
                "serve: health {} -> {}",
                Health::from_u8(from).name(),
                to.name()
            );
        }
    }

    /// Shed mutations while storage is degraded or still proving itself.
    fn shed_if_degraded(&self) -> Result<(), ApiError> {
        if self.wal.is_some() && self.health() != Health::Healthy {
            self.metrics.incr("serve.degraded_sheds");
            return Err(ApiError::unavailable(
                "storage degraded; mutation shed (retry after recovery)",
            ));
        }
        Ok(())
    }

    /// Serve until `POST /admin/shutdown`: accept, handle, park, repeat.
    /// Drains on shutdown — parked connections with a request already in
    /// flight are answered (with `Connection: close`) before workers exit;
    /// idle ones are dropped.
    pub fn run(&self) -> Result<(), String> {
        let shared = ConnShared::new().map_err(|e| format!("poller wake socket: {e}"))?;
        let workers = self.cfg.threads.max(1);

        let results =
            muse_par::try_scope_map(workers + 3, workers + 3, &self.metrics, |i| match i {
                0 => self.accept_loop(&shared),
                1 => self.poller_loop(&shared),
                2 => self.recovery_loop(&shared),
                _ => self.worker_loop(&shared),
            });
        let panics = results.iter().filter(|r| r.is_err()).count();
        if panics > 0 {
            return Err(format!("{panics} server thread(s) panicked"));
        }
        Ok(())
    }

    fn accept_loop(&self, shared: &ConnShared) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        // The drain wake-up (or a late client); stop
                        // accepting. Ready and in-flight requests still
                        // drain.
                        break;
                    }
                    self.metrics.incr("serve.accepts");
                    let injected = muse_fault::point(faultpoints::SERVE_ACCEPT).is_some();
                    let resident = shared.conn_count.load(Ordering::Relaxed);
                    if injected || resident >= self.cfg.max_connections {
                        self.metrics.incr("serve.rejects");
                        // Drain the request before answering: closing with
                        // unread input makes TCP reset the connection and
                        // discard our 503. The timeout bounds how long a
                        // slow client can stall the accept loop.
                        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
                        let mut conn = http::Conn::new(stream);
                        let _ = http::read_request(&mut conn);
                        let _ = conn
                            .stream()
                            .set_write_timeout(Some(Duration::from_secs(2)));
                        let _ = http::respond(
                            conn.stream_mut(),
                            503,
                            &[("Retry-After", "1".to_owned())],
                            &Json::obj(vec![(
                                "error",
                                Json::str(if injected {
                                    "injected serve.accept fault"
                                } else {
                                    "connection limit reached"
                                }),
                            )]),
                            true,
                        );
                        continue;
                    }
                    shared.conn_count.fetch_add(1, Ordering::Relaxed);
                    lock(&shared.ready).push_back(ConnState {
                        conn: http::Conn::new(stream),
                        served: 0,
                        parked_at: Instant::now(),
                    });
                    shared.available.notify_one();
                }
                Err(_) if self.shutdown.load(Ordering::Acquire) => break,
                Err(_) => {
                    self.metrics.incr("serve.accept_errors");
                }
            }
        }
        shared.accept_done.store(true, Ordering::Release);
        shared.available.notify_all();
        // The poller may be waiting out a long idle deadline: the drain
        // must not.
        shared.wake();
    }

    /// Watch parked connections. Each pass blocks in `poll(2)` on the wake
    /// socket and every parked socket until a socket turns readable, a
    /// worker parks another connection, the accept loop exits, or the
    /// nearest idle deadline passes. Readable sockets are peeked: data
    /// promotes the connection to the ready queue, EOF drops it. The rest
    /// only check their idle deadline. During a drain the wait does not
    /// block: parked connections with pending data are promoted so their
    /// last request gets an answer, and the rest are dropped.
    fn poller_loop(&self, shared: &ConnShared) {
        let idle_timeout = Duration::from_millis(self.cfg.idle_timeout_ms);
        loop {
            let batch: Vec<ConnState> = std::mem::take(&mut *lock(&shared.parked));
            let timeout = if self.shutdown.load(Ordering::Acquire)
                || batch.iter().any(|s| s.conn.has_buffered())
            {
                Some(Duration::ZERO)
            } else {
                // With nothing parked, block until a wake.
                batch
                    .iter()
                    .map(|s| idle_timeout.saturating_sub(s.parked_at.elapsed()))
                    .min()
            };
            let fds: Vec<_> = std::iter::once(shared.wake_rx.as_fd())
                .chain(batch.iter().map(|s| s.conn.stream().as_fd()))
                .collect();
            let ready = poll::wait_readable(&fds, timeout).unwrap_or_else(|_| {
                // Peek every socket this pass instead.
                self.metrics.incr("serve.poll_errors");
                vec![true; fds.len()]
            });
            if ready.first() == Some(&true) {
                shared.drain_wakes();
            }
            let draining = self.shutdown.load(Ordering::Acquire);
            let mut keep = Vec::new();
            let mut promoted = 0usize;
            for (state, ready) in batch.into_iter().zip(ready.into_iter().skip(1)) {
                let readable = if state.conn.has_buffered() {
                    // A pipelined request is already in the carry buffer.
                    Ok(1)
                } else if ready {
                    let stream = state.conn.stream();
                    let _ = stream.set_nonblocking(true);
                    let mut byte = [0u8; 1];
                    let r = stream.peek(&mut byte);
                    let _ = stream.set_nonblocking(false);
                    r
                } else {
                    Err(io::ErrorKind::WouldBlock.into())
                };
                match readable {
                    Ok(0) => {
                        // Peer closed between requests: the clean end of a
                        // keep-alive exchange.
                        shared.conn_count.fetch_sub(1, Ordering::Relaxed);
                    }
                    Ok(_) => {
                        lock(&shared.ready).push_back(state);
                        promoted += 1;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if draining || state.parked_at.elapsed() >= idle_timeout {
                            self.metrics.incr("serve.idle_closes");
                            shared.conn_count.fetch_sub(1, Ordering::Relaxed);
                        } else {
                            keep.push(state);
                        }
                    }
                    Err(_) => {
                        self.metrics.incr("serve.transport_errors");
                        shared.conn_count.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
            let parked_left = {
                let mut parked = lock(&shared.parked);
                parked.extend(keep);
                parked.len()
            };
            if promoted > 0 {
                shared.available.notify_all();
            }
            // Once the accept loop is done the server is draining: workers
            // only close connections (never re-park), so an empty parked
            // list stays empty.
            if shared.accept_done.load(Ordering::Acquire) && parked_left == 0 {
                break;
            }
        }
        shared.poller_done.store(true, Ordering::Release);
        shared.available.notify_all();
    }

    /// The degraded-mode recovery probe: while the server is not
    /// `Healthy`, periodically append a `{"rec":"noop"}` record to the
    /// WAL under jittered exponential backoff. One success moves
    /// `Degraded → Recovering`; a second consecutive success restores
    /// `Healthy` (hysteresis against a flapping disk); any failure drops
    /// back to `Degraded` and doubles the wait (capped at 16x base).
    /// Noop records are skipped by replay and dropped by compaction.
    fn recovery_loop(&self, shared: &ConnShared) {
        let Some(wal) = &self.wal else {
            return; // no storage, nothing to recover
        };
        let base = self.cfg.recovery_probe_ms.max(10);
        let mut rng = Rng::new(0x5EC0_4E2C ^ base);
        let mut backoff = base;
        let mut consecutive_ok = 0u32;
        let done = |shared: &ConnShared| {
            shared.accept_done.load(Ordering::Acquire) && shared.poller_done.load(Ordering::Acquire)
        };
        // Sleep in small slices so a drain never waits out a long backoff.
        let nap = |ms: u64, shared: &ConnShared| {
            let mut left = ms;
            while left > 0 && !done(shared) {
                let slice = left.min(25);
                std::thread::sleep(Duration::from_millis(slice));
                left -= slice;
            }
        };
        while !done(shared) {
            if self.health() == Health::Healthy {
                consecutive_ok = 0;
                backoff = base;
                nap(25, shared);
                continue;
            }
            // Jitter in [backoff/2, backoff]: concurrent restarting
            // servers must not probe a shared, struggling disk in phase.
            let wait = backoff / 2 + rng.below(backoff / 2 + 1);
            nap(wait, shared);
            if done(shared) || self.health() == Health::Healthy {
                continue;
            }
            self.metrics.incr("serve.recovery_probes");
            match wal.append(&Json::obj(vec![("rec", Json::str("noop"))])) {
                Ok(_) => {
                    consecutive_ok += 1;
                    backoff = base;
                    if consecutive_ok >= 2 {
                        self.metrics.incr("serve.recoveries");
                        self.set_health(Health::Healthy);
                        consecutive_ok = 0;
                    } else {
                        self.set_health(Health::Recovering);
                    }
                }
                Err(_) => {
                    consecutive_ok = 0;
                    self.set_health(Health::Degraded);
                    backoff = (backoff * 2).min(base * 16);
                }
            }
        }
    }

    fn worker_loop(&self, shared: &ConnShared) {
        loop {
            let next = {
                let mut q = lock(&shared.ready);
                loop {
                    if let Some(state) = q.pop_front() {
                        shared.in_flight.fetch_add(1, Ordering::Relaxed);
                        break Some(state);
                    }
                    if shared.accept_done.load(Ordering::Acquire)
                        && shared.poller_done.load(Ordering::Acquire)
                    {
                        break None;
                    }
                    // The timeout is belt-and-braces against a missed
                    // notify during shutdown.
                    let (guard, _) = shared
                        .available
                        .wait_timeout(q, Duration::from_millis(50))
                        .unwrap_or_else(|e| e.into_inner());
                    q = guard;
                }
            };
            let Some(mut state) = next else {
                break;
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| self.handle_one(&mut state)));
            let keep = match outcome {
                Ok(keep) => keep,
                Err(_) => {
                    self.metrics.incr("serve.panics");
                    let _ = http::respond(
                        state.conn.stream_mut(),
                        500,
                        &[],
                        &Json::obj(vec![("error", Json::str("request handler panicked"))]),
                        true,
                    );
                    false
                }
            };
            shared.in_flight.fetch_sub(1, Ordering::Relaxed);
            if keep && !self.shutdown.load(Ordering::Acquire) {
                state.parked_at = Instant::now();
                if state.conn.has_buffered() {
                    // A pipelined request is already waiting: go straight
                    // back to the ready queue.
                    lock(&shared.ready).push_back(state);
                    shared.available.notify_one();
                } else {
                    lock(&shared.parked).push(state);
                    shared.wake();
                }
            } else {
                shared.conn_count.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Serve one request off a connection. Returns whether the connection
    /// should be kept (parked) for the next request.
    fn handle_one(&self, state: &mut ConnState) -> bool {
        let _ = state
            .conn
            .stream()
            .set_read_timeout(Some(Duration::from_secs(10)));
        let _ = state
            .conn
            .stream()
            .set_write_timeout(Some(Duration::from_secs(10)));
        let request = match http::read_request(&mut state.conn) {
            Ok(Some(r)) => r,
            Ok(None) => return false, // clean close between requests
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                self.metrics.incr("serve.bad_requests");
                let _ = http::respond(
                    state.conn.stream_mut(),
                    400,
                    &[],
                    &Json::obj(vec![("error", Json::str(e.to_string()))]),
                    true,
                );
                return false;
            }
            Err(_) => {
                self.metrics.incr("serve.transport_errors");
                return false;
            }
        };
        // Timing starts after the read: the histogram measures request
        // handling, not time spent waiting for a keep-alive client to
        // send its next request.
        let t0 = Instant::now();
        self.metrics.incr("serve.requests");
        state.served += 1;
        if state.served > 1 {
            self.metrics.incr("serve.keepalive_reuses");
        }
        self.metrics
            .add("serve.bytes_in", request.bytes_read as u64);

        let (status, headers, body) = if muse_fault::point(faultpoints::SERVE_HANDLE).is_some() {
            (
                503,
                vec![("Retry-After", "1".to_owned())],
                Json::obj(vec![("error", Json::str("injected serve.handle fault"))]),
            )
        } else {
            match self.route(&request) {
                Ok((status, body)) => (status, Vec::new(), body),
                Err(e) => {
                    let mut headers = Vec::new();
                    if e.retry_after {
                        headers.push(("Retry-After", "1".to_owned()));
                    }
                    let mut fields = vec![("error", Json::str(e.message))];
                    if e.quarantined {
                        fields.push(("quarantined", Json::Bool(true)));
                    }
                    (e.status, headers, Json::obj(fields))
                }
            }
        };
        // Decided after routing so the /admin/shutdown response itself
        // carries `Connection: close`.
        let close = !request.keep_alive
            || state.served >= self.cfg.max_conn_requests
            || self.shutdown.load(Ordering::Acquire);
        if let Ok(n) = http::respond(state.conn.stream_mut(), status, &headers, &body, close) {
            self.metrics.add("serve.bytes_out", n as u64);
        }
        let elapsed = t0.elapsed();
        self.handle_hist.record(elapsed);
        self.metrics.timer("serve.handle_time").record(elapsed);
        !close
    }

    fn route(&self, request: &Request) -> ApiResult {
        let segments = request.segments();
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => Ok((
                200,
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("state", Json::str(self.health().name())),
                    (
                        "draining",
                        Json::Bool(self.shutdown.load(Ordering::Acquire)),
                    ),
                ]),
            )),
            ("GET", ["metrics"]) => Ok((200, self.metrics_json())),
            ("POST", ["admin", "shutdown"]) => self.initiate_shutdown(),
            ("POST", ["sessions"]) => {
                self.shed_if_degraded()?;
                self.create_session(&request.body)
            }
            ("GET", ["sessions", id, "question"]) => self.session_question(parse_id(id)?),
            ("POST", ["sessions", id, "answer"]) => {
                self.shed_if_degraded()?;
                self.session_answer(parse_id(id)?, &request.body)
            }
            ("GET", ["sessions", id, "report"]) => self.session_report(parse_id(id)?),
            (_, ["healthz" | "metrics"]) | (_, ["admin", "shutdown"]) | (_, ["sessions", ..]) => {
                Err(ApiError::new(405, "method not allowed for this path"))
            }
            _ => Err(ApiError::new(404, format!("no route for {}", request.path))),
        }
    }

    fn metrics_json(&self) -> Json {
        Json::obj(vec![
            (
                "serve",
                Json::obj(vec![
                    ("sessions", Json::Int(self.store.len() as i64)),
                    (
                        "open_sessions",
                        Json::Int(self.store.open_sessions() as i64),
                    ),
                    (
                        "probe_cache_entries",
                        Json::Int(self.probe_cache.len() as i64),
                    ),
                    ("handle", self.handle_hist.to_json()),
                ]),
            ),
            ("metrics", self.metrics.snapshot().to_json()),
        ])
    }

    fn initiate_shutdown(&self) -> ApiResult {
        self.shutdown.store(true, Ordering::Release);
        // Wake the accept loop so it observes the flag: connect once to
        // ourselves. Failure is fine — any later connection wakes it too.
        if let Ok(addr) = self.listener.local_addr() {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
        Ok((200, Json::obj(vec![("draining", Json::Bool(true))])))
    }

    fn wal_append(&self, record: &Json) -> Result<(), ApiError> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        match wal.append(record) {
            Ok(bytes) => {
                self.metrics.incr("serve.wal_records");
                self.metrics.add("serve.wal_bytes", bytes);
                Ok(())
            }
            Err(e) => {
                // The disk just failed under us: degrade so every further
                // mutation sheds up front, and shed this one. The caller
                // rolls its in-memory state back, so nothing
                // unacknowledged survives.
                self.metrics.incr("serve.wal_errors");
                self.set_health(Health::Degraded);
                Err(ApiError::unavailable(format!(
                    "answer log append failed: {e}"
                )))
            }
        }
    }

    /// Snapshot the session's rendered state into the WAL when due: at
    /// creation, every `snapshot_every` accepted answers, and always at
    /// `done`. Snapshot failures are non-fatal — a lost snapshot costs
    /// replay time on the next restart, never an acknowledged answer.
    fn maybe_snapshot(&self, entry: &crate::store::SessionEntry) {
        let Some(wal) = &self.wal else {
            return;
        };
        if self.cfg.snapshot_every == 0 {
            return;
        }
        let (state, payload) = match &entry.status {
            SessionStatus::Open { question, .. } => {
                if !entry.answers.len().is_multiple_of(self.cfg.snapshot_every) {
                    return;
                }
                ("open", question.clone())
            }
            SessionStatus::Done { report } => ("done", report.clone()),
            SessionStatus::Failed { .. } | SessionStatus::Quarantined { .. } => return,
        };
        let record = Json::obj(vec![
            ("rec", Json::str("snapshot")),
            ("session", Json::Int(entry.id as i64)),
            ("answers", Json::Int(entry.answers.len() as i64)),
            ("state", Json::str(state)),
            ("payload", payload),
            // Materialized incremental-chase state: a restart restores it
            // warm, so the post-restore replay rederives instead of
            // re-chasing. Optional on read — old WALs lack it.
            ("delta", entry.delta.export_json()),
        ]);
        match wal.append(&record) {
            Ok(bytes) => {
                self.metrics.incr("serve.snapshots");
                self.metrics.incr("serve.wal_records");
                self.metrics.add("serve.wal_bytes", bytes);
                self.maybe_compact(wal);
            }
            Err(_) => {
                // Non-fatal for the request (the answer was already
                // durable) but the disk is clearly failing: degrade.
                self.metrics.incr("serve.snapshot_errors");
                self.set_health(Health::Degraded);
            }
        }
    }

    /// Compact the WAL (drop superseded snapshots) once it crosses the
    /// size threshold; the threshold then doubles from the compacted size
    /// so total compaction work stays linear in bytes written.
    fn maybe_compact(&self, wal: &Wal) {
        if wal.len() < self.next_compact.load(Ordering::Relaxed) {
            return;
        }
        match wal.compact(compact_records) {
            Ok(new_len) => {
                self.metrics.incr("serve.wal_compactions");
                self.next_compact.store(
                    self.cfg.wal_compact_bytes.max(2 * new_len),
                    Ordering::Relaxed,
                );
            }
            Err(_) => {
                self.metrics.incr("serve.wal_errors");
            }
        }
    }

    /// Run `entry.advance` under panic isolation and the
    /// `serve.session.step` fault point. The outer `Err` is a fully-built
    /// response (step panicked, or the session is already quarantined);
    /// the inner result is the organic wizard outcome for the caller to
    /// interpret (`BadAnswer` vs hard failure).
    ///
    /// A panic counts toward the session's quarantine threshold
    /// (`panic_quarantine` consecutive panics poison it); a successful
    /// step resets the count.
    fn step_entry(
        &self,
        entry: &mut crate::store::SessionEntry,
    ) -> Result<Result<muse_wizard::Step, muse_wizard::WizardError>, ApiError> {
        if let SessionStatus::Quarantined { reason } = &entry.status {
            return Err(ApiError::quarantined(reason));
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // A `panic` fault here unwinds into this catch; non-panic
            // kinds are no-ops (the server has no truncation path of its
            // own — budgets live inside the step).
            let _ = muse_fault::point(faultpoints::SERVE_SESSION_STEP);
            entry.advance(&self.metrics, self.probes())
        }));
        match outcome {
            Ok(result) => {
                if result.is_ok() {
                    entry.panics = 0;
                }
                Ok(result)
            }
            Err(_) => {
                self.metrics.incr("serve.step_panics");
                entry.panics += 1;
                let threshold = self.cfg.panic_quarantine;
                if threshold > 0 && entry.panics >= threshold {
                    let reason = format!(
                        "step panicked {} time(s) in a row (threshold {threshold})",
                        entry.panics
                    );
                    if matches!(entry.status, SessionStatus::Open { .. }) {
                        self.store.note_closed();
                    }
                    entry.status = SessionStatus::Quarantined {
                        reason: reason.clone(),
                    };
                    self.metrics.incr("serve.sessions_quarantined");
                    Err(ApiError::quarantined(&reason))
                } else {
                    Err(ApiError::new(
                        500,
                        format!("session step panicked (attempt {})", entry.panics),
                    ))
                }
            }
        }
    }

    fn create_session(&self, body: &[u8]) -> ApiResult {
        let text =
            std::str::from_utf8(body).map_err(|_| ApiError::new(400, "body is not UTF-8"))?;
        let parsed =
            Json::parse(text).map_err(|e| ApiError::new(400, format!("bad JSON body: {e}")))?;
        let cfg = SessionCfg::from_json(&parsed).map_err(|e| ApiError::new(400, e))?;
        let ctx = self
            .ctx_cache
            .get_or_build(&cfg, &self.metrics)
            .map_err(|e| ApiError::new(400, e))?;
        let strategy = cfg.strategy;

        let entry_arc = self.store.insert(cfg, ctx).map_err(ApiError::unavailable)?;
        let mut entry = entry_arc.lock().unwrap_or_else(|e| e.into_inner());
        self.metrics.incr("serve.sessions_created");
        if let Err(e) = self.wal_append(&Json::obj(vec![
            ("rec", Json::str("create")),
            ("session", Json::Int(entry.id as i64)),
            ("cfg", entry.cfg.to_json()),
        ])) {
            // Never acknowledged, never logged: the session must not
            // linger in memory either, or a restart would forget it while
            // clients still see its id.
            let id = entry.id;
            drop(entry);
            self.store.remove(id);
            return Err(e);
        }

        let step = self
            .step_entry(&mut entry)?
            .map_err(|e| self.session_failed(&mut entry, e))?;
        self.maybe_snapshot(&entry);

        if let Some(strategy) = strategy {
            // Oracle mode: answer every question server-side, logging each
            // answer exactly like a client would have.
            let intentions = Intentions::for_strategy(&entry.ctx, strategy)
                .map_err(|e| ApiError::new(500, e))?;
            let mut step = step;
            loop {
                let question = match &step {
                    muse_wizard::Step::Done(_) => break,
                    muse_wizard::Step::Ask { question, .. } => question,
                };
                let answer = intentions
                    .answer(&entry.ctx, question)
                    .map_err(|e| self.session_failed(&mut entry, e))?;
                self.wal_append(&Json::obj(vec![
                    ("rec", Json::str("answer")),
                    ("session", Json::Int(entry.id as i64)),
                    ("answer", proto::answer_to_json(&answer)),
                ]))?;
                entry.answers.push(answer);
                self.metrics.incr("serve.answers");
                step = self
                    .step_entry(&mut entry)?
                    .map_err(|e| self.session_failed(&mut entry, e))?;
                self.maybe_snapshot(&entry);
            }
        }

        let mut fields = vec![("session", Json::Int(entry.id as i64))];
        match &entry.status {
            SessionStatus::Open { question, .. } => {
                self.store.note_opened();
                fields.push(("status", Json::str("open")));
                fields.push(("question", question.clone()));
            }
            SessionStatus::Done { .. } => {
                self.metrics.incr("serve.sessions_completed");
                fields.push(("status", Json::str("done")));
            }
            SessionStatus::Failed { error } => {
                return Err(ApiError::new(500, format!("wizard failed: {error}")));
            }
            SessionStatus::Quarantined { reason } => {
                return Err(ApiError::quarantined(reason));
            }
        }
        Ok((200, Json::obj(fields)))
    }

    /// Record a wizard hard failure on the session and build the 500.
    fn session_failed(
        &self,
        entry: &mut crate::store::SessionEntry,
        e: muse_wizard::WizardError,
    ) -> ApiError {
        self.metrics.incr("serve.session_failures");
        if matches!(entry.status, SessionStatus::Open { .. }) {
            self.store.note_closed();
        }
        entry.status = SessionStatus::Failed {
            error: e.to_string(),
        };
        ApiError::new(500, format!("wizard failed: {e}"))
    }

    fn session_question(&self, id: u64) -> ApiResult {
        let entry = self
            .store
            .get(id)
            .ok_or_else(|| ApiError::new(404, format!("no session {id}")))?;
        let entry = entry.lock().unwrap_or_else(|e| e.into_inner());
        match &entry.status {
            SessionStatus::Open { question, .. } => Ok((
                200,
                Json::obj(vec![
                    ("session", Json::Int(id as i64)),
                    ("status", Json::str("open")),
                    ("question", question.clone()),
                ]),
            )),
            SessionStatus::Done { .. } => Ok((
                200,
                Json::obj(vec![
                    ("session", Json::Int(id as i64)),
                    ("status", Json::str("done")),
                ]),
            )),
            SessionStatus::Failed { error } => {
                Err(ApiError::new(500, format!("wizard failed: {error}")))
            }
            SessionStatus::Quarantined { reason } => Err(ApiError::quarantined(reason)),
        }
    }

    fn session_answer(&self, id: u64, body: &[u8]) -> ApiResult {
        let text =
            std::str::from_utf8(body).map_err(|_| ApiError::new(400, "body is not UTF-8"))?;
        let parsed =
            Json::parse(text).map_err(|e| ApiError::new(400, format!("bad JSON body: {e}")))?;
        let answer = proto::answer_from_json(&parsed).map_err(|e| ApiError::new(400, e))?;

        let entry = self
            .store
            .get(id)
            .ok_or_else(|| ApiError::new(404, format!("no session {id}")))?;
        let mut entry = entry.lock().unwrap_or_else(|e| e.into_inner());
        match &entry.status {
            SessionStatus::Open { .. } => {}
            SessionStatus::Done { .. } => {
                return Err(ApiError::new(409, "session is already complete"));
            }
            SessionStatus::Failed { error } => {
                return Err(ApiError::new(500, format!("wizard failed: {error}")));
            }
            SessionStatus::Quarantined { reason } => {
                return Err(ApiError::quarantined(reason));
            }
        }

        // Validate by stepping with the candidate answer appended; only an
        // accepted answer reaches the WAL.
        entry.answers.push(answer.clone());
        match self.step_entry(&mut entry) {
            Ok(Ok(_)) => {}
            Ok(Err(muse_wizard::WizardError::BadAnswer(msg))) => {
                entry.answers.pop();
                // Restore the cached question (state is derived, so this
                // cannot fail differently than before).
                let _ = self.step_entry(&mut entry);
                return Err(ApiError::new(400, format!("rejected answer: {msg}")));
            }
            Ok(Err(e)) => {
                entry.answers.pop();
                return Err(self.session_failed(&mut entry, e));
            }
            Err(api) => {
                // The step panicked (or the session is quarantined): the
                // candidate answer was never accepted.
                entry.answers.pop();
                return Err(api);
            }
        }
        if let Err(e) = self.wal_append(&Json::obj(vec![
            ("rec", Json::str("answer")),
            ("session", Json::Int(id as i64)),
            ("answer", proto::answer_to_json(&answer)),
        ])) {
            // Un-acknowledged answers must not survive in memory either:
            // a restart would forget them, forking the session's history.
            entry.answers.pop();
            let _ = self.step_entry(&mut entry);
            return Err(e);
        }
        self.metrics.incr("serve.answers");
        self.maybe_snapshot(&entry);

        let mut fields = vec![
            ("session", Json::Int(id as i64)),
            ("accepted", Json::Bool(true)),
        ];
        match &entry.status {
            SessionStatus::Open { question, .. } => {
                fields.push(("status", Json::str("open")));
                fields.push(("question", question.clone()));
            }
            SessionStatus::Done { .. } => {
                self.store.note_closed();
                self.metrics.incr("serve.sessions_completed");
                fields.push(("status", Json::str("done")));
            }
            SessionStatus::Failed { error } => {
                return Err(ApiError::new(500, format!("wizard failed: {error}")));
            }
            SessionStatus::Quarantined { reason } => {
                return Err(ApiError::quarantined(reason));
            }
        }
        Ok((200, Json::obj(fields)))
    }

    fn session_report(&self, id: u64) -> ApiResult {
        let entry = self
            .store
            .get(id)
            .ok_or_else(|| ApiError::new(404, format!("no session {id}")))?;
        let entry = entry.lock().unwrap_or_else(|e| e.into_inner());
        match &entry.status {
            SessionStatus::Done { report } => Ok((
                200,
                Json::obj(vec![
                    ("session", Json::Int(id as i64)),
                    ("status", Json::str("done")),
                    ("answers", Json::Int(entry.answers.len() as i64)),
                    ("result", report.clone()),
                ]),
            )),
            SessionStatus::Open { seq, .. } => Err(ApiError::new(
                409,
                format!("session still open at question {seq}"),
            )),
            SessionStatus::Failed { error } => {
                Err(ApiError::new(500, format!("wizard failed: {error}")))
            }
            SessionStatus::Quarantined { reason } => Err(ApiError::quarantined(reason)),
        }
    }
}

fn parse_id(segment: &str) -> Result<u64, ApiError> {
    segment
        .parse()
        .map_err(|_| ApiError::new(400, format!("bad session id `{segment}`")))
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The compaction rewrite: keep every create and answer record (they are
/// the session history) and, per session, only the *latest* snapshot —
/// earlier ones are superseded. Recovery-probe `noop` records carry no
/// state and are dropped. Order is preserved, so a kept snapshot still
/// follows its session's create record.
fn compact_records(records: Vec<Json>) -> Vec<Json> {
    use std::collections::HashMap;
    let mut last_snapshot: HashMap<i64, usize> = HashMap::new();
    for (i, rec) in records.iter().enumerate() {
        if rec.get("rec").and_then(Json::as_str) == Some("snapshot") {
            if let Some(id) = rec.get("session").and_then(Json::as_int) {
                last_snapshot.insert(id, i);
            }
        }
    }
    records
        .into_iter()
        .enumerate()
        .filter(|(i, rec)| match rec.get("rec").and_then(Json::as_str) {
            Some("noop") => false,
            Some("snapshot") => rec
                .get("session")
                .and_then(Json::as_int)
                .is_some_and(|id| last_snapshot.get(&id) == Some(i)),
            _ => true,
        })
        .map(|(_, rec)| rec)
        .collect()
}

/// Rebuild every logged session: group records by id, reconstruct each
/// context from its create record (shared through the context cache),
/// push its answers, and bring it to its pre-crash state. A session whose
/// latest snapshot covers exactly its recorded answers is restored from
/// the snapshot payload without running the wizard at all
/// (`serve.snapshot_restores`); the rest advance once
/// (`serve.replays`) — with the probe memo warm from earlier restores,
/// replayed probes are cheap. Unknown or malformed create/answer records
/// fail the bind — a server must not silently drop acknowledged answers;
/// malformed *snapshot* records are skipped (they are an optimization,
/// not history).
fn replay(
    store: &Store,
    metrics: &Metrics,
    ctx_cache: &CtxCache,
    probes: Option<&ProbeCache>,
    records: Vec<Json>,
) -> Result<(), String> {
    let mut snapshots: std::collections::HashMap<u64, (usize, String, Json)> =
        std::collections::HashMap::new();
    let mut deltas: std::collections::HashMap<u64, Json> = std::collections::HashMap::new();
    for (n, record) in records.into_iter().enumerate() {
        let kind = record
            .get("rec")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("wal record {n}: missing `rec`"))?;
        if kind == "noop" {
            // A recovery-probe heartbeat: proves the disk wrote, carries
            // no session state.
            continue;
        }
        let id = record
            .get("session")
            .and_then(Json::as_int)
            .filter(|i| *i > 0)
            .ok_or_else(|| format!("wal record {n}: missing `session`"))? as u64;
        match kind {
            "create" => {
                let cfg_json = record
                    .get("cfg")
                    .ok_or_else(|| format!("wal record {n}: create without `cfg`"))?;
                let cfg =
                    SessionCfg::from_json(cfg_json).map_err(|e| format!("wal record {n}: {e}"))?;
                let ctx = ctx_cache
                    .get_or_build(&cfg, metrics)
                    .map_err(|e| format!("wal record {n}: {e}"))?;
                store.insert_replayed(id, cfg, ctx);
            }
            "answer" => {
                let answer_json = record
                    .get("answer")
                    .ok_or_else(|| format!("wal record {n}: answer without `answer`"))?;
                let answer = proto::answer_from_json(answer_json)
                    .map_err(|e| format!("wal record {n}: {e}"))?;
                let entry = store
                    .get(id)
                    .ok_or_else(|| format!("wal record {n}: answer for unknown session {id}"))?;
                entry
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .answers
                    .push(answer);
            }
            "snapshot" => {
                let answers = record
                    .get("answers")
                    .and_then(Json::as_int)
                    .filter(|a| *a >= 0);
                let state = record.get("state").and_then(Json::as_str);
                let payload = record.get("payload");
                if let (Some(answers), Some(state), Some(payload)) = (answers, state, payload) {
                    // Later snapshots supersede earlier ones.
                    snapshots.insert(id, (answers as usize, state.to_owned(), payload.clone()));
                }
                // The delta blob is useful even when the snapshot itself is
                // stale (answers arrived after it): the store diffs against
                // whatever state it holds, so a warm restore only speeds up
                // the replay chase — it can never change its output.
                if let Some(d) = record.get("delta") {
                    deltas.insert(id, d.clone());
                }
            }
            other => return Err(format!("wal record {n}: unknown kind `{other}`")),
        }
    }
    for entry in store.all() {
        let mut entry = entry.lock().unwrap_or_else(|e| e.into_inner());
        // Restore the materialized incremental-chase state first, so a
        // session that must replay (stale snapshot) chases warm. Malformed
        // blobs are rejected wholesale by `import_json` — the store stays
        // empty and the replay simply chases from scratch.
        if let Some(d) = deltas.get(&entry.id) {
            if entry.delta.import_json(d) {
                metrics.incr("serve.delta_restores");
            }
        }
        let snap = snapshots
            .get(&entry.id)
            .filter(|(answers, _, _)| *answers == entry.answers.len());
        match snap {
            Some((answers, state, payload)) if state == "open" => {
                metrics.incr("serve.snapshot_restores");
                entry.status = SessionStatus::Open {
                    seq: *answers,
                    question: payload.clone(),
                };
                store.note_opened();
            }
            Some((_, state, payload)) if state == "done" => {
                metrics.incr("serve.snapshot_restores");
                entry.status = SessionStatus::Done {
                    report: payload.clone(),
                };
            }
            _ => {
                // No current snapshot (answers arrived after the last one,
                // or an unknown state tag): one full advance, panic
                // isolated — one poisoned session must not take down the
                // bind, it gets quarantined instead.
                metrics.incr("serve.replays");
                let outcome = catch_unwind(AssertUnwindSafe(|| entry.advance(metrics, probes)));
                match outcome {
                    Ok(Ok(muse_wizard::Step::Ask { .. })) => store.note_opened(),
                    Ok(Ok(muse_wizard::Step::Done(_))) => {}
                    Ok(Err(e)) => {
                        metrics.incr("serve.session_failures");
                        entry.status = SessionStatus::Failed {
                            error: e.to_string(),
                        };
                    }
                    Err(_) => {
                        metrics.incr("serve.step_panics");
                        metrics.incr("serve.sessions_quarantined");
                        entry.panics += 1;
                        entry.status = SessionStatus::Quarantined {
                            reason: "step panicked during WAL replay".to_owned(),
                        };
                    }
                }
            }
        }
    }
    Ok(())
}
