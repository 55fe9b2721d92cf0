//! A blocking readiness wait over several sockets at once — `poll(2)`,
//! which std does not expose. This module holds the workspace's only
//! `unsafe` block; the connection poller is its only caller.

use std::io;
use std::os::fd::{AsRawFd, BorrowedFd};
use std::os::raw::{c_int, c_short};
use std::time::Duration;

/// `nfds_t`: `unsigned long` in glibc and musl, `unsigned int` on the BSDs
/// and macOS.
#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

/// `struct pollfd`, laid out as in `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// Readable, which includes a peer's EOF. `POLLHUP`, `POLLERR` and
/// `POLLNVAL` come back in `revents` without being asked for.
const POLLIN: c_short = 0x001;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Block until at least one of `fds` is ready to read (data, EOF or a
/// socket error) or `timeout` passes; `None` waits without a limit. Returns
/// one flag per descriptor, in order. The timeout rounds up to whole
/// milliseconds, so the wait never ends before it. An interrupted wait
/// (`EINTR`) returns with nothing ready; any other failure is the
/// `poll(2)` error.
pub(crate) fn wait_readable(
    fds: &[BorrowedFd<'_>],
    timeout: Option<Duration>,
) -> io::Result<Vec<bool>> {
    let mut pollfds: Vec<PollFd> = fds
        .iter()
        .map(|fd| PollFd {
            fd: fd.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let timeout_ms = match timeout {
        None => -1,
        Some(t) => c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX),
    };
    // SAFETY: `pollfds` is a live, exclusively borrowed allocation of
    // exactly `pollfds.len()` `#[repr(C)]` pollfd records, so the kernel
    // reads and writes only inside it; every descriptor is borrowed from an
    // open socket for the duration of the call, and poll(2) reports a bad
    // one as POLLNVAL rather than touching it.
    let n = unsafe { poll(pollfds.as_mut_ptr(), pollfds.len() as NfdsT, timeout_ms) };
    if n < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(vec![false; fds.len()]);
        }
        return Err(err);
    }
    Ok(pollfds.iter().map(|p| p.revents != 0).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn an_empty_socket_is_not_ready_when_the_timeout_passes() {
        let (a, _b) = UnixStream::pair().unwrap();
        let t = Instant::now();
        let ready = wait_readable(&[a.as_fd()], Some(Duration::from_millis(20))).unwrap();
        assert_eq!(ready, vec![false]);
        assert!(
            t.elapsed() >= Duration::from_millis(20),
            "{:?}",
            t.elapsed()
        );
    }

    #[test]
    fn a_written_byte_makes_the_socket_ready_at_once() {
        let (a, mut b) = UnixStream::pair().unwrap();
        let (idle, _peer) = UnixStream::pair().unwrap();
        b.write_all(&[1]).unwrap();
        let t = Instant::now();
        let ready =
            wait_readable(&[idle.as_fd(), a.as_fd()], Some(Duration::from_secs(5))).unwrap();
        assert_eq!(ready, vec![false, true]);
        assert!(t.elapsed() < Duration::from_secs(1), "{:?}", t.elapsed());
    }

    #[test]
    fn a_closed_peer_makes_the_socket_ready() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(b);
        let t = Instant::now();
        let ready = wait_readable(&[a.as_fd()], None).unwrap();
        assert_eq!(ready, vec![true]);
        assert!(t.elapsed() < Duration::from_secs(1), "{:?}", t.elapsed());
    }
}
