//! A minimal, dependency-free HTTP/1.1 ops server: the surface a stock
//! Prometheus scraper, a load balancer's health check, or a curious
//! operator with `curl` talks to. Mounted by `bda-served --http <port>`
//! (and by the app tier in tests) next to the bda-net protocol port.
//!
//! Routes (all `GET`, one response per connection, `Connection: close`):
//!
//! | path            | body                                            |
//! |-----------------|-------------------------------------------------|
//! | `/metrics`      | Prometheus text format from the [`MetricsHub`]  |
//! | `/healthz`      | `200 ok` while the process serves                |
//! | `/readyz`       | `200 ready`, or `503` + detail when the health  |
//! |                 | source reports tripped circuit breakers          |
//! | `/progress`     | JSON of in-flight queries ([`crate::progress`]) |
//! | `/traces/<id>`  | Chrome-trace JSON of a traced query in the log  |
//! | `/flight`       | the flight recorder's current ring, as text     |
//! | `/queries`      | JSON of the recent query-profile log            |
//! | `/queries/slow` | the retained profiles flagged slow              |
//!
//! This is deliberately *not* a general HTTP server: GET only, no
//! keep-alive, no TLS, bounded header reads. That keeps `bda-obs` at
//! zero dependencies while speaking enough HTTP/1.1 for Prometheus and
//! curl — the same "own the few hundred lines" trade bda-net makes for
//! its framed protocol.
//!
//! Health is a callback ([`HealthSource`]) rather than a registry
//! reference because obs sits *below* the federation in the crate DAG;
//! the federation wires its circuit-breaker board in at mount time.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::flight;
use crate::metrics::MetricsHub;

/// Point-in-time health as reported by whoever mounted the server
/// (typically the federation's circuit-breaker board).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Health {
    /// Liveness: the process is up and serving.
    pub healthy: bool,
    /// Readiness: dependencies (providers, breakers) are usable.
    pub ready: bool,
    /// Human detail, e.g. `breakers: rel=closed la=open`.
    pub detail: String,
}

impl Default for Health {
    fn default() -> Self {
        Health {
            healthy: true,
            ready: true,
            detail: "ok".to_string(),
        }
    }
}

/// Callback producing the current [`Health`].
pub type HealthSource = Arc<dyn Fn() -> Health + Send + Sync>;

/// What the ops server serves beyond the process-global stores (progress
/// tracker, query log, flight recorder), which every route reads
/// directly. `Default` is a fresh metrics hub and an
/// always-healthy source.
#[derive(Clone)]
pub struct OpsOptions {
    /// The hub `/metrics` renders.
    pub metrics: MetricsHub,
    /// The health source `/healthz` and `/readyz` consult.
    pub health: HealthSource,
    /// Fixed worker threads answering requests (min 1).
    pub workers: usize,
    /// Accepted connections waiting for a worker before the server
    /// starts answering `503` instead of queueing (min 1).
    pub backlog: usize,
}

impl Default for OpsOptions {
    fn default() -> Self {
        OpsOptions {
            metrics: MetricsHub::new(),
            health: Arc::new(Health::default),
            workers: 4,
            backlog: 64,
        }
    }
}

/// A running ops server; dropping it (or calling [`OpsHandle::shutdown`])
/// stops the accept loop.
pub struct OpsHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl OpsHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a self-connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
        // The accept loop dropped its queue sender on exit, so the
        // workers drain whatever was admitted and then hang up.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for OpsHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Bind `bind` (e.g. `127.0.0.1:0`) and serve the ops routes until the
/// returned handle shuts down.
///
/// Concurrency is bounded: a fixed pool of [`OpsOptions::workers`]
/// threads answers requests from a queue of at most
/// [`OpsOptions::backlog`] accepted connections. When the queue is full
/// the accept loop answers `503` inline and closes — an overload of
/// scrapes can never spawn unbounded threads or stall the serving port.
pub fn serve_ops(bind: &str, options: OpsOptions) -> std::io::Result<OpsHandle> {
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_accept = Arc::clone(&stop);
    let (queue, jobs) = std::sync::mpsc::sync_channel::<TcpStream>(options.backlog.max(1));
    let jobs = Arc::new(std::sync::Mutex::new(jobs));
    let workers = (0..options.workers.max(1))
        .map(|i| {
            let jobs = Arc::clone(&jobs);
            let options = options.clone();
            std::thread::Builder::new()
                .name(format!("bda-ops-{i}"))
                .spawn(move || loop {
                    // Hold the receiver lock only to dequeue, not to serve.
                    let job = jobs.lock().expect("ops queue poisoned").recv();
                    match job {
                        Ok(stream) => {
                            let _ = handle_connection(stream, &options);
                        }
                        Err(_) => return, // queue closed: shutdown
                    }
                })
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    let join = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if stop_accept.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            use std::sync::mpsc::TrySendError;
            if let Err(err) = queue.try_send(stream) {
                match err {
                    TrySendError::Full(stream) => {
                        // Shed: a one-line refusal beats an unbounded
                        // thread or a reader parked behind a full queue.
                        let _ = respond(
                            stream,
                            "503 Service Unavailable",
                            "text/plain; charset=utf-8",
                            "ops server overloaded\n",
                        );
                    }
                    TrySendError::Disconnected(_) => break,
                }
            }
        }
    });
    Ok(OpsHandle {
        addr,
        stop,
        join: Some(join),
        workers,
    })
}

/// Longest request head (request line + headers) we will read.
const MAX_HEAD_BYTES: u64 = 8 * 1024;

fn handle_connection(stream: TcpStream, options: &OpsOptions) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream.try_clone()?).take(MAX_HEAD_BYTES);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers until the blank line; we need none of them.
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        route(path, options)
    };
    respond(stream, status, content_type, &body)
}

fn route(path: &str, options: &OpsOptions) -> (&'static str, &'static str, String) {
    const TEXT: &str = "text/plain; charset=utf-8";
    const PROM: &str = "text/plain; version=0.0.4; charset=utf-8";
    const JSON: &str = "application/json";
    // No route takes a parameter; a query string is ignored.
    let path = path.split_once('?').map_or(path, |(p, _)| p);
    match path {
        "/metrics" => {
            // The depth gauge is sampled at scrape time rather than
            // maintained on the hot path — the scrape is the only reader.
            options
                .metrics
                .gauge(
                    "bda_profile_log_depth",
                    "query profiles retained in the in-memory log",
                )
                .set(crate::profile::global_log().len() as f64);
            ("200 OK", PROM, options.metrics.render())
        }
        "/healthz" => {
            let h = (options.health)();
            if h.healthy {
                ("200 OK", TEXT, "ok\n".to_string())
            } else {
                ("503 Service Unavailable", TEXT, format!("{}\n", h.detail))
            }
        }
        "/readyz" => {
            let h = (options.health)();
            if h.ready {
                ("200 OK", TEXT, format!("ready: {}\n", h.detail))
            } else {
                ("503 Service Unavailable", TEXT, format!("{}\n", h.detail))
            }
        }
        "/progress" => ("200 OK", JSON, crate::progress::global().render_json()),
        "/flight" => ("200 OK", TEXT, flight::global().render()),
        "/queries" => ("200 OK", JSON, crate::profile::global_log().render_json()),
        "/queries/slow" => (
            "200 OK",
            JSON,
            crate::profile::global_log().render_slow_json(),
        ),
        _ => match path.strip_prefix("/traces/").and_then(parse_trace_id) {
            Some(id) => match crate::profile::global_log().chrome_json(id) {
                Some(json) => ("200 OK", JSON, json),
                None => (
                    "404 Not Found",
                    TEXT,
                    format!("no retained trace {id:#018x}\n"),
                ),
            },
            None => ("404 Not Found", TEXT, "not found\n".to_string()),
        },
    }
}

/// Trace ids render as `0x…` in `/progress`; accept that form and plain
/// decimal.
fn parse_trace_id(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn respond(
    mut stream: TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// One GET against a running ops server; returns (status line, body).
    pub(crate) fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        let status = head.lines().next().unwrap_or("").to_string();
        (status, body.to_string())
    }

    #[test]
    fn metrics_health_and_404_routes() {
        let options = OpsOptions::default();
        options.metrics.counter("ops_test_total", "test").inc();
        let h = serve_ops("127.0.0.1:0", options).expect("bind");
        let (status, body) = http_get(h.addr(), "/metrics");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("ops_test_total 1"), "{body}");
        let (status, body) = http_get(h.addr(), "/healthz");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "ok\n");
        let (status, _) = http_get(h.addr(), "/nope");
        assert_eq!(status, "HTTP/1.1 404 Not Found");
        h.shutdown();
    }

    #[test]
    fn profiling_routes_serve_the_global_log() {
        let profile = crate::profile::QueryProfile {
            trace_id: 0x51097,
            wall_ns: 1234,
            slow: false,
            ops: vec![],
            sites: vec![],
        };
        crate::profile::global_log().push(profile, None);
        let h = serve_ops("127.0.0.1:0", OpsOptions::default()).expect("bind");
        let (status, body) = http_get(h.addr(), "/queries");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(
            body.contains("\"trace_id\":\"0x0000000000051097\""),
            "{body}"
        );
        let (status, body) = http_get(h.addr(), "/queries/slow");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.starts_with("{\"queries\":["), "{body}");
        h.shutdown();
    }

    #[test]
    fn readyz_follows_the_health_source() {
        let ready = Arc::new(Mutex::new(true));
        let source = Arc::clone(&ready);
        let options = OpsOptions {
            health: Arc::new(move || Health {
                healthy: true,
                ready: *source.lock().unwrap(),
                detail: "breakers: rel=closed".into(),
            }),
            ..OpsOptions::default()
        };
        let h = serve_ops("127.0.0.1:0", options).expect("bind");
        let (status, body) = http_get(h.addr(), "/readyz");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("breakers: rel=closed"), "{body}");
        *ready.lock().unwrap() = false;
        let (status, _) = http_get(h.addr(), "/readyz");
        assert_eq!(status, "HTTP/1.1 503 Service Unavailable");
        h.shutdown();
    }

    #[test]
    fn progress_route_serves_the_global_tracker() {
        let h = serve_ops("127.0.0.1:0", OpsOptions::default()).expect("bind");
        // A label no other test registers: the tracker is process-wide.
        let handle = crate::progress::global().start("observed-by-http-test", 0x1234);
        handle.iteration(2, 8, Some(0.25), Some(10));
        let (status, body) = http_get(h.addr(), "/progress");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(
            body.contains("\"label\":\"observed-by-http-test\""),
            "{body}"
        );
        assert!(body.contains("\"iteration\":2"), "{body}");
        handle.finish();
        h.shutdown();
    }

    #[test]
    fn traces_route_serves_the_query_logs_chrome_json() {
        let t = crate::Tracer::with_trace_id(0xBEEF);
        t.start(None, || "query".into(), "app").finish();
        let trace = t.finish();
        let profile = crate::profile::QueryProfile::from_trace(&trace).unwrap();
        crate::profile::global_log().push(profile, Some(trace));
        let h = serve_ops("127.0.0.1:0", OpsOptions::default()).expect("bind");
        let (status, body) = http_get(h.addr(), "/traces/0xbeef");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.starts_with('[') && body.ends_with(']'), "{body}");
        assert!(body.contains("\"query\""), "{body}");
        // Decimal form of the same id works too.
        let (status, _) = http_get(h.addr(), &format!("/traces/{}", 0xBEEFu64));
        assert_eq!(status, "HTTP/1.1 200 OK");
        let (status, _) = http_get(h.addr(), "/traces/999999999");
        assert_eq!(status, "HTTP/1.1 404 Not Found");
        h.shutdown();
    }

    #[test]
    fn overload_is_shed_with_503_not_unbounded_threads() {
        // One worker, queue of one. A stalled client pins the worker
        // (the read timeout is seconds away); the next connection fills
        // the queue; everything beyond that must get an inline 503.
        let options = OpsOptions {
            workers: 1,
            backlog: 1,
            ..OpsOptions::default()
        };
        let h = serve_ops("127.0.0.1:0", options).expect("bind");
        // Pin the worker first, then fill the queue slot: the pause in
        // between lets the worker dequeue stall1 before stall2 arrives,
        // otherwise stall2's shed 503 frees the slot for the probe.
        let stall1 = TcpStream::connect(h.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        let stall2 = TcpStream::connect(h.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        // Later connections are refused promptly rather than queued
        // behind the stalled ones.
        let deadline = std::time::Instant::now() + Duration::from_secs(4);
        let mut shed = false;
        while !shed && std::time::Instant::now() < deadline {
            let mut probe = TcpStream::connect(h.addr()).unwrap();
            write!(probe, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut raw = String::new();
            let _ = probe.read_to_string(&mut raw);
            shed = raw.starts_with("HTTP/1.1 503") && raw.contains("overloaded");
        }
        assert!(shed, "overload never produced an inline 503");
        drop(stall1);
        drop(stall2);
        h.shutdown();
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let h = serve_ops("127.0.0.1:0", OpsOptions::default()).expect("bind");
        let mut stream = TcpStream::connect(h.addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
        h.shutdown();
    }
}
