//! Minimal FFI surface for the readiness engine: `poll(2)` plus the
//! `RLIMIT_NOFILE` pair, wrapped in safe functions.
//!
//! The workspace stays `deny(unsafe_code)` everywhere except this
//! scoped `sys` module, which declares a handful of libc prototypes
//! directly (the workspace takes no external dependencies, so there is
//! no `libc` crate to lean on), and the one call into the corpus CRC's
//! PCLMULQDQ fold.
//! Everything exported from this module is safe.

mod sys {
    #![allow(unsafe_code)]

    /// `struct pollfd` from `<poll.h>`. The layout (int fd, short
    /// events, short revents) is identical on every unix libc.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    /// Readable data (or a hangup flagged together with it).
    pub const POLLIN: i16 = 0x001;
    /// Error / hangup / invalid-fd conditions `poll` may report in
    /// `revents` even when not requested in `events`.
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }

    /// `RLIMIT_NOFILE` differs between the BSD and Linux numbering.
    const RLIMIT_NOFILE: i32 = if cfg!(any(
        target_os = "macos",
        target_os = "ios",
        target_os = "freebsd"
    )) {
        8
    } else {
        7
    };

    extern "C" {
        // `nfds_t` is `unsigned long` on the platforms this engine
        // targets; `usize` has the same width and ABI class there.
        fn poll(fds: *mut PollFd, nfds: usize, timeout: i32) -> i32;
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }

    /// Polls the given descriptors, retrying on `EINTR`. Returns how
    /// many entries have a non-zero `revents`.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        loop {
            // SAFETY: `fds` is a valid, exclusively borrowed slice of
            // `#[repr(C)]` pollfd records and the kernel writes only
            // inside its `fds.len()` entries.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len(), timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// Raises the soft `RLIMIT_NOFILE` toward `want` (capped at the
    /// hard limit) and returns the soft limit now in effect.
    pub fn raise_nofile_limit(want: u64) -> u64 {
        let mut lim = RLimit { cur: 0, max: 0 };
        // SAFETY: plain out-parameter call; `lim` lives across it.
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return 0;
        }
        if lim.cur >= want {
            return lim.cur;
        }
        let raised = RLimit {
            cur: want.min(lim.max),
            max: lim.max,
        };
        // SAFETY: passes a valid, initialised rlimit by const pointer.
        if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } == 0 {
            raised.cur
        } else {
            lim.cur
        }
    }
}

pub(crate) use sys::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL};

/// Best-effort raise of the open-file-descriptor soft limit toward
/// `want`, returning the limit actually in effect afterwards.
///
/// The readiness engine registers one descriptor per connected session,
/// so holding thousands of idle sessions needs more than the common
/// 1024-descriptor default. Callers check the returned value and scale
/// their session target down when the hard limit refuses.
pub fn raise_nofile_limit(want: u64) -> u64 {
    sys::raise_nofile_limit(want)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;

    #[test]
    fn poll_reports_readable_pipe_end() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();

        let mut fds = [PollFd {
            fd: server.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        // Nothing written yet: a short poll must time out clean.
        assert_eq!(poll_fds(&mut fds, 10).unwrap(), 0);

        client.write_all(b"x").unwrap();
        client.flush().unwrap();
        let ready = poll_fds(&mut fds, 1000).unwrap();
        assert_eq!(ready, 1);
        assert_ne!(fds[0].revents & POLLIN, 0);
    }

    #[test]
    fn poll_flags_hangup_or_error() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        drop(client);

        let mut fds = [PollFd {
            fd: server.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        let ready = poll_fds(&mut fds, 1000).unwrap();
        assert_eq!(ready, 1);
        assert_ne!(fds[0].revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL), 0);
    }

    #[test]
    fn nofile_limit_is_reported() {
        let now = raise_nofile_limit(64);
        assert!(now >= 64, "soft nofile limit unexpectedly tiny: {now}");
    }
}
