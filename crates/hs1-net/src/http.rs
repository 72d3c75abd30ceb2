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
//! one short-lived blocking handler per accepted connection, bounded
//! request reads. It rides the same [`crate::poll`] primitives as the
//! reactor — a nonblocking listener plus a [`crate::poll::Waker`] in one
//! `poll(2)` set — so shutdown is prompt and the accept thread never
//! spins. Introspection is a *pure observer* of the node: handlers read
//! shared strings and call a snapshot closure; nothing feeds back into
//! consensus.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::poll::{poll_fds, PollFd, Waker, POLLIN};

/// Renders the `/metrics` body on demand.
pub type MetricsFn = Arc<dyn Fn() -> String + Send + Sync>;

/// The `/status` body, refreshed by the node loop between requests.
pub type StatusCell = Arc<Mutex<String>>;

/// A running introspection responder (stops and joins on drop).
pub struct HttpServer {
    port: u16,
    waker: Waker,
    thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `host:port` (`port` 0 picks an ephemeral port) and serve
    /// until drop. `metrics` renders `/metrics`; `status` holds the
    /// current `/status` body.
    pub fn serve(
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
                        PollFd::new(wake_rx.raw_fd(), POLLIN),
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
    pub fn port(&self) -> u16 {
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
    let _ = conn.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = conn.set_write_timeout(Some(Duration::from_secs(2)));
    // Accepted from a nonblocking listener: the connection inherits
    // nonblocking on some platforms — undo it so the timeouts govern.
    let _ = conn.set_nonblocking(false);

    let mut buf = [0u8; 4096];
    let mut len = 0usize;
    // Read until the header terminator, the cap, EOF, or timeout. GET
    // requests have no body, so the head is all there is to read.
    while len < buf.len() && !buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
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
