//! Loopback ports for the crate's socket tests, which run side by side
//! on the threads of one test process.

use std::net::TcpListener;
use std::sync::Mutex;

/// Reserve `n` contiguous free loopback ports and return the base.
///
/// The ports come from below the kernel's ephemeral range, which every
/// `bind(:0)` probe and the local end of every dial draw from, so a
/// reserved port is not handed to a socket of a test running beside
/// this one. One cursor per process never hands a port out twice; it
/// starts at an offset taken from the process id, which keeps two test
/// processes apart. A run holding a port somebody else has bound is
/// skipped.
pub(crate) fn free_base_port(n: u16) -> u16 {
    /// Linux's default `ip_local_port_range` starts at 32768.
    const RANGE: std::ops::Range<u16> = 10_000..30_000;
    static NEXT: Mutex<u16> = Mutex::new(0);
    let mut next = NEXT.lock().expect("port cursor");
    if *next == 0 {
        *next = RANGE.start + (std::process::id() % 190) as u16 * 100;
    }
    while *next + n <= RANGE.end {
        let base = *next;
        *next += n;
        if (0..n).all(|i| TcpListener::bind(("127.0.0.1", base + i)).is_ok()) {
            return base;
        }
    }
    panic!("could not find {n} contiguous free loopback ports below {}", RANGE.end);
}
