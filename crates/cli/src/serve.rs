//! `muse serve` — the session server (see `crates/serve`).

use muse_obs::Metrics;
use muse_serve::{Server, ServerConfig};

struct Options {
    host: String,
    port: u16,
    cfg: ServerConfig,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        host: "127.0.0.1".to_owned(),
        port: 7654,
        cfg: ServerConfig::default(),
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--host" => opts.host = value("--host")?,
            "--port" => {
                opts.port = value("--port")?
                    .parse()
                    .map_err(|_| "--port needs a number in 0..=65535".to_owned())?;
            }
            "--threads" => {
                let n: usize = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads needs a number".to_owned())?;
                opts.cfg.threads = muse_par::resolve_threads(Some(n));
            }
            "--max-sessions" => {
                opts.cfg.max_sessions = value("--max-sessions")?
                    .parse()
                    .map_err(|_| "--max-sessions needs a number".to_owned())?;
            }
            "--max-connections" => {
                opts.cfg.max_connections = value("--max-connections")?
                    .parse()
                    .map_err(|_| "--max-connections needs a number".to_owned())?;
            }
            "--wal" => opts.cfg.wal = Some(value("--wal")?.into()),
            "--snapshot-every" => {
                opts.cfg.snapshot_every = value("--snapshot-every")?
                    .parse()
                    .map_err(|_| "--snapshot-every needs a number (0 disables)".to_owned())?;
            }
            "--wal-compact-bytes" => {
                opts.cfg.wal_compact_bytes = value("--wal-compact-bytes")?
                    .parse()
                    .map_err(|_| "--wal-compact-bytes needs a number".to_owned())?;
            }
            "--idle-timeout-ms" => {
                opts.cfg.idle_timeout_ms = value("--idle-timeout-ms")?
                    .parse()
                    .map_err(|_| "--idle-timeout-ms needs a number".to_owned())?;
            }
            "--conn-requests" => {
                opts.cfg.max_conn_requests = value("--conn-requests")?
                    .parse()
                    .map_err(|_| "--conn-requests needs a number".to_owned())?;
            }
            "--probe-cache" => {
                opts.cfg.probe_cache_cap = value("--probe-cache")?
                    .parse()
                    .map_err(|_| "--probe-cache needs a number (0 disables)".to_owned())?;
            }
            "--panic-quarantine" => {
                opts.cfg.panic_quarantine = value("--panic-quarantine")?
                    .parse()
                    .map_err(|_| "--panic-quarantine needs a number (0 disables)".to_owned())?;
            }
            "--recovery-probe-ms" => {
                let ms: u64 = value("--recovery-probe-ms")?
                    .parse()
                    .map_err(|_| "--recovery-probe-ms needs a number".to_owned())?;
                if ms == 0 {
                    return Err("--recovery-probe-ms must be at least 1".to_owned());
                }
                opts.cfg.recovery_probe_ms = ms;
            }
            other => return Err(format!("unknown flag `{other}` for muse serve")),
        }
        i += 1;
    }
    opts.cfg.addr = format!("{}:{}", opts.host, opts.port);
    Ok(opts)
}

pub fn run(args: &[String]) -> i32 {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("muse serve: {e}");
            eprintln!(
                "usage: muse serve [--host H] [--port P] [--threads N] \
                 [--max-sessions N] [--max-connections N] [--wal FILE] \
                 [--snapshot-every N] [--wal-compact-bytes N] \
                 [--idle-timeout-ms N] [--conn-requests N] \
                 [--probe-cache N] [--panic-quarantine N] \
                 [--recovery-probe-ms N]"
            );
            return 2;
        }
    };
    let wal_note = opts
        .cfg
        .wal
        .as_ref()
        .map_or("no wal (sessions are not durable)".to_owned(), |p| {
            format!("wal {}", p.display())
        });
    let server = match Server::bind(opts.cfg, Metrics::enabled()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("muse serve: {e}");
            return 1;
        }
    };
    let Ok(addr) = server.local_addr() else {
        eprintln!("muse serve: cannot read bound address");
        return 1;
    };
    let replayed = server.store().len();
    // Tests spawn `muse serve` with piped (block-buffered) stdout, wait for
    // the listen line, and may close the pipe afterwards: write + flush
    // explicitly and never panic on a broken stdout.
    use std::io::Write as _;
    let mut out = std::io::stdout();
    let _ = writeln!(
        out,
        "listening on {addr} ({wal_note}, {replayed} session(s) replayed)"
    );
    let _ = out.flush();
    match server.run() {
        Ok(()) => {
            let _ = writeln!(out, "drained after /admin/shutdown");
            0
        }
        Err(e) => {
            eprintln!("muse serve: {e}");
            1
        }
    }
}
