//! A tiny HTTP/1.0 introspection responder for live nodes.
//!
//! Serves exactly two read-only endpoints from a running
//! [`crate::node::NodeRunner`]:
//!
//! * `GET /metrics` — Prometheus text exposition of the node's current
//!   `MetricsSnapshot` (rendered on demand by a caller-supplied closure,
//!   so every scrape sees fresh counters).
//! * `GET /status` — a small JSON document (current view, chain head,
//!   per-peer queue gauges, reconnect counts) refreshed by the node loop
//!   and served as-is.
//!
//! The responder is deliberately minimal: HTTP/1.0, `Connection: close`,
//! one short-lived blocking handler per accepted connection, a request
//! head bounded in bytes and in time. It rides the [`crate::poll`]
//! primitives — a nonblocking listener plus a [`crate::poll::Waker`] in
//! one `poll(2)` set — so shutdown is prompt and the accept thread never
//! spins.
//! Introspection is a *pure observer* of the node: handlers read shared
//! strings and call a snapshot closure; nothing feeds back into consensus.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::poll::{poll_fds, PollFd, Waker, POLLIN};

/// How long a client has, from accept, to send its whole request head.
/// Handlers run on the accept thread, so this bounds how long one client
/// can keep every other scrape, and the server's drop, waiting.
const HEAD_DEADLINE: Duration = Duration::from_millis(500);

/// Renders the `/metrics` body on demand.
pub(crate) type MetricsFn = Arc<dyn Fn() -> String + Send + Sync>;

/// The `/status` body, refreshed by the node loop between requests.
pub(crate) type StatusCell = Arc<Mutex<String>>;

/// The recorder `/metrics` renders, shared with the node that feeds it.
pub(crate) type Recorder = Arc<Mutex<hs1_obs::RecordingObserver>>;

/// A running introspection responder (stops and joins on drop).
pub(crate) struct HttpServer {
    port: u16,
    waker: Waker,
    thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `host:port` (`port` 0 picks an ephemeral port) and serve
    /// until drop. `metrics` renders `/metrics`; `status` holds the
    /// current `/status` body.
    pub(crate) fn serve(
        host: &str,
        port: u16,
        metrics: MetricsFn,
        status: StatusCell,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind((host, port))?;
        let port = listener.local_addr()?.port();
        listener.set_nonblocking(true)?;
        let (waker, wake_rx) = Waker::pair()?;
        let thread =
            std::thread::Builder::new().name(format!("hs1-http-{port}")).spawn(move || {
                loop {
                    let mut fds = [
                        PollFd::new(listener.as_raw_fd(), POLLIN),
                        PollFd::new(wake_rx.as_raw_fd(), POLLIN),
                    ];
                    let _ = poll_fds(&mut fds, -1);
                    if fds[1].readable() {
                        // The only wake source is Drop: stop serving.
                        return;
                    }
                    // Drain the accept backlog; connections are handled
                    // inline — introspection traffic is a handful of
                    // short scrapes, not a workload.
                    while let Ok((conn, _)) = listener.accept() {
                        handle(conn, &metrics, &status);
                    }
                }
            })?;
        Ok(HttpServer { port, waker, thread: Some(thread) })
    }

    /// The bound port (useful with an ephemeral bind).
    pub(crate) fn port(&self) -> u16 {
        self.port
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Read the request head (bounded), route, respond, close.
fn handle(mut conn: TcpStream, metrics: &MetricsFn, status: &StatusCell) {
    let deadline = Instant::now() + HEAD_DEADLINE;
    let _ = conn.set_write_timeout(Some(Duration::from_secs(2)));
    // Accepted from a nonblocking listener: the connection inherits
    // nonblocking on some platforms — undo it so the timeouts govern.
    let _ = conn.set_nonblocking(false);

    let mut buf = [0u8; 4096];
    let mut len = 0usize;
    // Read until the header terminator, the cap, EOF, or the deadline.
    // GET requests have no body, so the head is all there is to read.
    // Each read may wait only for what is left of the one deadline, so a
    // client dripping bytes cannot stretch it read by read.
    while len < buf.len() && !buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
        let left = deadline.saturating_duration_since(Instant::now());
        // A zero timeout is refused by `set_read_timeout`: the time is up.
        if left.is_zero() || conn.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match conn.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => len += n,
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let mut parts = head.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));

    let (code, content_type, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain", "method not allowed\n".to_string())
    } else {
        match path {
            "/metrics" => ("200 OK", "text/plain; version=0.0.4", metrics()),
            "/status" => {
                ("200 OK", "application/json", status.lock().expect("status lock").clone())
            }
            _ => {
                ("404 Not Found", "text/plain", "not found: try /metrics or /status\n".to_string())
            }
        }
    };
    let _ = write!(
        conn,
        "HTTP/1.0 {code}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = conn.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(port: u16, path: &str) -> String {
        let mut conn = TcpStream::connect(("127.0.0.1", port)).unwrap();
        write!(conn, "GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        out
    }

    fn server() -> HttpServer {
        let status = Arc::new(Mutex::new("{\"view\":7}".to_string()));
        HttpServer::serve(
            "127.0.0.1",
            0,
            Arc::new(|| "# TYPE hs1_up gauge\nhs1_up 1\n".to_string()),
            status,
        )
        .unwrap()
    }

    #[test]
    fn serves_metrics_and_status() {
        let srv = server();
        let metrics = get(srv.port(), "/metrics");
        assert!(metrics.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(metrics.contains("Content-Type: text/plain; version=0.0.4"));
        assert!(metrics.ends_with("hs1_up 1\n"));
        let status = get(srv.port(), "/status");
        assert!(status.contains("application/json"));
        assert!(status.ends_with("{\"view\":7}"));
    }

    #[test]
    fn unknown_paths_404_and_non_get_405() {
        let srv = server();
        assert!(get(srv.port(), "/nope").starts_with("HTTP/1.0 404"));
        let mut conn = TcpStream::connect(("127.0.0.1", srv.port())).unwrap();
        write!(conn, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.0 405"));
    }

    /// A client that sends its head one byte every 100 ms for 5 s is cut
    /// off when the head deadline runs out, not when the drip ends, so the
    /// accept thread is free again and the server's drop returns at once.
    #[test]
    fn a_dripping_client_cannot_hold_the_server() {
        let srv = server();
        let mut conn = TcpStream::connect(("127.0.0.1", srv.port())).unwrap();
        let started = Instant::now();
        let mut drip = conn.try_clone().unwrap();
        let dripper = std::thread::spawn(move || {
            for _ in 0..50 {
                if drip.write_all(b"G").is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            let _ = drip.shutdown(std::net::Shutdown::Write);
        });
        // The server closes the connection once it gives up on the head
        // (its 405 may be lost to a reset: the drip leaves bytes unread).
        let _ = conn.read_to_end(&mut Vec::new());
        let held = started.elapsed();
        assert!(held < Duration::from_millis(1500), "the server held the client for {held:?}");
        let t0 = Instant::now();
        drop(srv);
        assert!(t0.elapsed() < Duration::from_millis(1500), "drop waited {:?}", t0.elapsed());
        drop(conn);
        dripper.join().unwrap();
    }

    #[test]
    fn status_updates_are_visible_and_drop_stops_the_server() {
        let status = Arc::new(Mutex::new("old".to_string()));
        let srv = HttpServer::serve("127.0.0.1", 0, Arc::new(String::new), status.clone()).unwrap();
        let port = srv.port();
        *status.lock().unwrap() = "new".to_string();
        assert!(get(port, "/status").ends_with("new"));
        drop(srv); // joins the accept thread
        assert!(
            TcpStream::connect(("127.0.0.1", port)).is_err() || {
                // The OS may still accept briefly; a request must at least
                // get no response once the thread is gone.
                let mut conn = TcpStream::connect(("127.0.0.1", port)).unwrap();
                let _ = write!(conn, "GET /status HTTP/1.0\r\n\r\n");
                let mut out = String::new();
                let _ = conn.read_to_string(&mut out);
                out.is_empty()
            }
        );
    }
}
