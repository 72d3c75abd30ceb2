//! A minimal std-only readiness wrapper around `poll(2)`.
//!
//! The transport (`crate::reactor`) needs exactly three OS facilities
//! that `std` does not expose directly: level-triggered readiness over
//! a set of sockets, a way to wake a sleeping reactor from another
//! thread, and (for backpressure tests) a small send buffer. All three
//! live here behind a ~40-line FFI surface onto libc symbols that `std`
//! already links — no new dependency, no new crate. This module is why
//! the crate is unix-only.

use std::io;
use std::os::fd::RawFd;
use std::os::unix::net::UnixStream;

/// Readable / acceptable.
pub const POLLIN: i16 = 0x001;
/// Writable (or a completed nonblocking connect).
pub const POLLOUT: i16 = 0x004;
/// Error condition (reported by the kernel even when not requested).
pub const POLLERR: i16 = 0x008;
/// Peer hung up.
pub const POLLHUP: i16 = 0x010;
/// Invalid fd (reported, never requested).
pub const POLLNVAL: i16 = 0x020;

/// Mirrors `struct pollfd` from `<poll.h>`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

impl PollFd {
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd { fd, events, revents: 0 }
    }

    /// Any readiness (or error/hup — both mean "attend to this fd").
    pub fn ready(&self) -> bool {
        self.revents != 0
    }

    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
    }

    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: std::ffi::c_int) -> std::ffi::c_int;
    fn setsockopt(
        fd: std::ffi::c_int,
        level: std::ffi::c_int,
        optname: std::ffi::c_int,
        optval: *const std::ffi::c_void,
        optlen: u32,
    ) -> std::ffi::c_int;
}

/// Block until at least one fd is ready or `timeout_ms` elapses
/// (`0` = return immediately, negative = wait forever). Returns the
/// number of ready fds; `EINTR` is absorbed as `Ok(0)` so callers just
/// loop.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    // SAFETY: `PollFd` is `repr(C)` and layout-identical to `struct
    // pollfd`; the slice pointer/length pair describes exactly the
    // memory the kernel may write `revents` into.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

#[cfg(target_os = "linux")]
const SOL_SOCKET: std::ffi::c_int = 1;
#[cfg(target_os = "linux")]
const SO_SNDBUF: std::ffi::c_int = 7;
#[cfg(target_os = "linux")]
const SO_RCVBUF: std::ffi::c_int = 8;
#[cfg(not(target_os = "linux"))]
const SOL_SOCKET: std::ffi::c_int = 0xffff;
#[cfg(not(target_os = "linux"))]
const SO_SNDBUF: std::ffi::c_int = 0x1001;
#[cfg(not(target_os = "linux"))]
const SO_RCVBUF: std::ffi::c_int = 0x1002;

fn set_buf_opt(fd: RawFd, opt: std::ffi::c_int, bytes: usize) -> io::Result<()> {
    let val: std::ffi::c_int = bytes.min(std::ffi::c_int::MAX as usize) as std::ffi::c_int;
    // SAFETY: `optval` points at a live c_int of the advertised length
    // for the duration of the call.
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            opt,
            &val as *const std::ffi::c_int as *const std::ffi::c_void,
            std::mem::size_of::<std::ffi::c_int>() as u32,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Set `SO_SNDBUF` on a socket (the kernel clamps and may double the
/// value). Used to make kernel-buffer backpressure arrive early enough
/// for the bounded-queue shedding policy to be observable in tests.
pub fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    set_buf_opt(fd, SO_SNDBUF, bytes)
}

/// Set `SO_RCVBUF` (same clamping rules). Setting it on a listener
/// before connections arrive makes accepted sockets inherit the small
/// window — how the backpressure smoke test's throttling proxy keeps
/// the kernel from absorbing the stall it is trying to create.
pub fn set_recv_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    set_buf_opt(fd, SO_RCVBUF, bytes)
}

/// Cross-thread reactor wakeup: a nonblocking `UnixStream` pair. The
/// read end sits in the poll set; [`Waker::wake`] writes one byte. A
/// full pipe means a wakeup is already pending, so `WouldBlock` is
/// success.
pub struct Waker {
    tx: UnixStream,
}

/// The pollable read end owned by the reactor.
pub struct WakeReceiver {
    rx: UnixStream,
}

impl Waker {
    pub fn pair() -> io::Result<(Waker, WakeReceiver)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker { tx }, WakeReceiver { rx }))
    }

    /// Wake the reactor (idempotent while a wakeup is pending).
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1u8]);
    }
}

impl WakeReceiver {
    pub fn raw_fd(&self) -> RawFd {
        use std::os::fd::AsRawFd;
        self.rx.as_raw_fd()
    }

    /// Drain all pending wakeup bytes.
    pub fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn poll_reports_readability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut a = TcpStream::connect(addr).unwrap();
        let (mut b, _) = listener.accept().unwrap();

        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        // Nothing written yet: a zero-timeout poll reports no readiness.
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0);
        assert!(!fds[0].readable());

        a.write_all(b"x").unwrap();
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 1000).unwrap(), 1);
        assert!(fds[0].readable());
        let mut byte = [0u8; 1];
        b.read_exact(&mut byte).unwrap();
        assert_eq!(&byte, b"x");
    }

    #[test]
    fn waker_wakes_a_poll() {
        let (waker, rx) = Waker::pair().unwrap();
        let mut fds = [PollFd::new(rx.raw_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0, "no wake pending");
        waker.wake();
        waker.wake(); // coalesces, never blocks
        let mut fds = [PollFd::new(rx.raw_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 1000).unwrap(), 1);
        rx.drain();
        let mut fds = [PollFd::new(rx.raw_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0, "drained");
    }

    #[test]
    fn send_buffer_can_be_shrunk() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let s = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        set_send_buffer(s.as_raw_fd(), 4096).expect("setsockopt");
    }
}
