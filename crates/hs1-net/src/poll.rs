//! Minimal std-only readiness primitives: `epoll(7)` and `poll(2)`.
//!
//! The crate needs a few OS facilities that `std` does not expose
//! directly: level-triggered readiness over a set of sockets, a way to
//! interrupt a thread blocked in `poll(2)`, and (for backpressure tests)
//! small socket buffers. All of them live here behind a small FFI
//! surface onto libc symbols that `std` already links — no new
//! dependency, no new crate. This module is the only place in the crate
//! allowed `unsafe` code, and why the crate is Linux-only.
//!
//! The reactor (`crate::reactor`) waits on an `Epoll` whose interest set
//! the kernel keeps between waits, so a turn registers nothing and walks
//! only the sockets that are ready. [`poll_fds`] serves the callers that
//! wait on a few sockets once: the HTTP responder, with a `Waker` to
//! stop it, and load generators.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;

/// Readable / acceptable.
pub const POLLIN: i16 = 0x001;
/// Error condition (reported by the kernel even when not requested).
pub(crate) const POLLERR: i16 = 0x008;
/// Peer hung up.
pub(crate) const POLLHUP: i16 = 0x010;
/// Invalid fd (reported, never requested).
pub(crate) const POLLNVAL: i16 = 0x020;

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

    /// Readable, or an error or hang-up to attend to.
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

/// Mirrors `struct epoll_event` from `<sys/epoll.h>`, which is packed on
/// x86-64 only.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub(crate) struct EpollEvent {
    events: u32,
    data: u64,
}

/// Readable / acceptable.
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writable (or a completed nonblocking connect).
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported).
const EPOLLERR: u32 = 0x008;
/// Peer hung up (always reported).
const EPOLLHUP: u32 = 0x010;

const EPOLL_CLOEXEC: std::ffi::c_int = 0o2_000_000;
const EPOLL_CTL_ADD: std::ffi::c_int = 1;
const EPOLL_CTL_DEL: std::ffi::c_int = 2;
const EPOLL_CTL_MOD: std::ffi::c_int = 3;

impl EpollEvent {
    /// The token the fd was registered with.
    pub(crate) fn token(&self) -> u64 {
        self.data
    }

    /// Readable, or an error or hang-up to attend to.
    pub(crate) fn readable(&self) -> bool {
        self.events & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0
    }

    /// Writable, or an error or hang-up to attend to.
    pub(crate) fn writable(&self) -> bool {
        self.events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int)
        -> std::ffi::c_int;
    fn epoll_create1(flags: std::ffi::c_int) -> std::ffi::c_int;
    fn epoll_ctl(
        epfd: std::ffi::c_int,
        op: std::ffi::c_int,
        fd: std::ffi::c_int,
        event: *mut EpollEvent,
    ) -> std::ffi::c_int;
    fn epoll_wait(
        epfd: std::ffi::c_int,
        events: *mut EpollEvent,
        maxevents: std::ffi::c_int,
        timeout: std::ffi::c_int,
    ) -> std::ffi::c_int;
    fn setsockopt(
        fd: std::ffi::c_int,
        level: std::ffi::c_int,
        optname: std::ffi::c_int,
        optval: *const std::ffi::c_void,
        optlen: u32,
    ) -> std::ffi::c_int;
}

/// `Ok(rc)` for a non-negative libc return code, the OS error otherwise.
fn check(rc: std::ffi::c_int) -> io::Result<usize> {
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(rc as usize)
}

/// A level-triggered `epoll(7)` instance: an interest set the kernel
/// keeps, each fd registered under a caller-chosen `u64` token.
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: `epoll_create1` takes no pointers; a non-negative return
        // is a fresh fd that nothing else owns.
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: see above; `OwnedFd` becomes its only owner.
        Ok(Epoll { fd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) } })
    }

    fn ctl(&self, op: std::ffi::c_int, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut event = EpollEvent { events: interest, data: token };
        // SAFETY: `event` is a live `struct epoll_event` for the duration
        // of the call (the kernel ignores it for `EPOLL_CTL_DEL`).
        check(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut event) }).map(drop)
    }

    /// Watch `fd` for `interest` (plus errors and hang-ups), reported
    /// under `token`.
    pub(crate) fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replace the interest `fd` was registered with.
    pub(crate) fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stop watching `fd`. Call before the fd closes: the kernel drops a
    /// closed fd's registration only once no duplicate of it is left.
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block until an fd is ready or `timeout_ms` elapses (`0` = return
    /// at once, negative = forever) and fill the front of `events`.
    /// Returns how many were filled; `EINTR` is absorbed as `Ok(0)`.
    pub(crate) fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let max = events.len().min(std::ffi::c_int::MAX as usize) as std::ffi::c_int;
        // SAFETY: the pointer/length pair describes exactly the
        // `repr(C)` events the kernel may write, and `max` ≤ their count.
        let rc = unsafe { epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), max, timeout_ms) };
        match check(rc) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            res => res,
        }
    }
}

/// Block until at least one fd is ready or `timeout_ms` elapses
/// (`0` = return immediately, negative = wait forever). Returns the
/// number of ready fds; `EINTR` is absorbed as `Ok(0)` so callers just
/// loop.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    // SAFETY: `PollFd` is `repr(C)` and layout-identical to `struct
    // pollfd`; the slice pointer/length pair describes exactly the
    // memory the kernel may write `revents` into.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
    match check(rc) {
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
        res => res,
    }
}

const SOL_SOCKET: std::ffi::c_int = 1;
const SO_SNDBUF: std::ffi::c_int = 7;
const SO_RCVBUF: std::ffi::c_int = 8;

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
    check(rc).map(drop)
}

/// Set `SO_SNDBUF` on a socket (the kernel clamps and may double the
/// value). Used to make kernel-buffer backpressure arrive early enough
/// for the bounded-queue shedding policy to be observable in tests.
pub(crate) fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    set_buf_opt(fd, SO_SNDBUF, bytes)
}

/// Set `SO_RCVBUF` (same clamping rules). Setting it on a listener
/// before connections arrive makes accepted sockets inherit the small
/// window — how the backpressure smoke test's throttling proxy keeps
/// the kernel from absorbing the stall it is trying to create.
pub fn set_recv_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    set_buf_opt(fd, SO_RCVBUF, bytes)
}

/// Cross-thread wakeup: a nonblocking `UnixStream` pair. The read end
/// sits in the waiting thread's `poll(2)` set; [`Waker::wake`] writes one
/// byte. A full pipe means a wakeup is already pending, so `WouldBlock`
/// is success.
pub(crate) struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// The waker and the read end to poll.
    pub(crate) fn pair() -> io::Result<(Waker, UnixStream)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker { tx }, rx))
    }

    /// Wake the waiting thread (idempotent while a wakeup is pending).
    pub(crate) fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1u8]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    /// The interest set persists between waits: an fd is reported under
    /// its token while it is ready (level-triggered), `modify` adds and
    /// clears `EPOLLOUT`, and after `delete` it is never reported again.
    #[test]
    fn epoll_reports_ready_fds_under_their_tokens() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut b, _) = listener.accept().unwrap();
        let epoll = Epoll::new().unwrap();
        let mut events = [EpollEvent::default(); 4];
        epoll.add(b.as_raw_fd(), 7, EPOLLIN).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "nothing written yet");

        a.write_all(b"x").unwrap();
        for _ in 0..2 {
            assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1, "reported until read");
            assert_eq!(events[0].token(), 7);
            assert!(events[0].readable() && !events[0].writable());
        }
        let mut byte = [0u8; 1];
        b.read_exact(&mut byte).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "drained");

        // An idle socket with room in its send buffer is writable.
        epoll.modify(b.as_raw_fd(), 7, EPOLLIN | EPOLLOUT).unwrap();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        assert!(events[0].writable() && !events[0].readable());
        epoll.modify(b.as_raw_fd(), 7, EPOLLIN).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "EPOLLOUT cleared");

        epoll.delete(b.as_raw_fd()).unwrap();
        a.write_all(b"y").unwrap();
        assert_eq!(epoll.wait(&mut events, 50).unwrap(), 0, "deleted");
    }

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
        let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0, "no wake pending");
        waker.wake();
        waker.wake(); // coalesces, never blocks
        let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 1000).unwrap(), 1);
    }

    #[test]
    fn send_buffer_can_be_shrunk() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let s = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        set_send_buffer(s.as_raw_fd(), 4096).expect("setsockopt");
    }
}
