//! A std-only `poll(2)` shim.
//!
//! The workspace is offline and vendored — no `libc` crate, no `mio`, no
//! tokio. But std already links the C runtime, so the readiness syscall
//! the event loop needs is one `extern "C"` declaration away, exactly the
//! way `c1pd` binds `signal(2)` for graceful shutdown. Only the Linux
//! (and, incidentally, any LP64 unix) ABI is bound: `struct pollfd` is
//! `{ int fd; short events; short revents; }` and `nfds_t` is
//! `unsigned long`.
//!
//! Non-unix hosts get a stub that always fails, so the crate still
//! builds there; the event loop, and with it `c1pd`, serves on unix
//! only (`c1pd` exits 2 elsewhere).

use std::io;

/// Readable readiness (data, EOF, or a pending accept).
pub const POLLIN: i16 = 0x001;
/// Writable readiness (the send buffer has room again).
pub const POLLOUT: i16 = 0x004;
/// Error condition (revents only).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (revents only).
pub const POLLHUP: i16 = 0x010;
/// Invalid fd (revents only) — a bookkeeping bug, not a peer action.
pub const POLLNVAL: i16 = 0x020;

/// One `struct pollfd`, ABI-compatible with the C definition.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The file descriptor to watch (negative = ignore this slot).
    pub fd: i32,
    /// Requested events ([`POLLIN`] | [`POLLOUT`]).
    pub events: i16,
    /// Returned events (filled by the kernel).
    pub revents: i16,
}

impl PollFd {
    /// A slot watching `fd` for `events`.
    pub fn new(fd: i32, events: i16) -> PollFd {
        PollFd { fd, events, revents: 0 }
    }

    /// Did the kernel report any of `mask` (or an error/hangup, which is
    /// always actionable)?
    pub fn ready(&self, mask: i16) -> bool {
        self.revents & (mask | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

#[cfg(unix)]
extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

/// Blocks until at least one slot is ready or `timeout_ms` elapses.
/// Returns the number of ready slots (0 on timeout). `EINTR` — e.g. the
/// SIGTERM that is the whole reason the loop polls — reads as a timeout,
/// so the caller re-checks its stop flag and carries on.
#[cfg(unix)]
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
    if rc >= 0 {
        return Ok(rc as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        return Ok(0);
    }
    Err(err)
}

/// Non-unix stub: always fails (there is no server to fall back to).
#[cfg(not(unix))]
pub fn poll_fds(_fds: &mut [PollFd], _timeout_ms: i32) -> io::Result<usize> {
    Err(io::Error::new(io::ErrorKind::Unsupported, "poll(2) shim requires a unix host"))
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn reports_readable_after_a_write_and_times_out_before() {
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0, "nothing written yet");
        assert!(!fds[0].ready(POLLIN));
        a.write_all(b"x").unwrap();
        assert_eq!(poll_fds(&mut fds, 1000).unwrap(), 1);
        assert!(fds[0].ready(POLLIN));
        let mut buf = [0u8; 1];
        (&b).read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"x");
    }

    #[test]
    fn reports_hangup_as_ready() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        drop(a);
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 1000).unwrap(), 1);
        assert!(fds[0].ready(POLLIN), "EOF/hangup must wake a reader");
    }
}
