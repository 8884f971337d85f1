//! The server side: wrap any `Provider` behind a TCP listener speaking
//! the framed protocol. One OS thread accepts; one thread per
//! connection serves requests until the peer hangs up or the server
//! shuts down. (The sharded event-loop alternative lives in
//! `bda-reactor`; both cores mount the same [`RequestHandler`], so
//! request semantics and observability are identical.)
//!
//! Observability (see DESIGN.md, "Observability"):
//!
//! * Every server keeps a [`MetricsHub`] — request counts, errors,
//!   latency histogram, wire bytes — rendered in Prometheus text format
//!   by a [`Request::Metrics`] message (the `GET /metrics` of this
//!   protocol).
//! * A [`Request::Traced`] wrapper makes the server record spans
//!   (`serve:<kind>` plus the engine's per-operator spans) and return
//!   them in [`Response::Traced`], so the client can stitch one
//!   cross-process timeline. A traced push forwards the trace to the
//!   peer server, whose spans flow back the same way.
//! * [`ServeOptions::log`] emits one structured line per request (kind,
//!   duration, bytes, outcome) to stderr or a file.
//!
//! For chaos testing, [`serve_with_faults`] injects seeded transport
//! faults *below* the protocol: responses are dropped (connection closed
//! without a reply) or truncated mid-frame, which clients must survive
//! via their retry-and-redial machinery.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use bda_core::Provider;
use bda_durability::{DurableProvider, RecoveryReport};
use bda_obs::MetricsHub;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::frame::read_message;
use crate::handler::{RequestHandler, PUSH_TIMEOUT};

pub use crate::handler::LogSink;

/// How long a connection handler blocks in a read before re-checking the
/// shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// A running provider server; dropping it shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics: MetricsHub,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    durable: Option<Arc<DurableProvider>>,
}

/// Seeded transport-level fault injection for a server (chaos testing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaults {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Probability a response is dropped: the connection closes without a
    /// reply, which the client sees as an EOF / reset.
    pub drop_rate: f64,
    /// Probability a response is truncated mid-frame before the
    /// connection closes — the client's frame reader must error cleanly.
    pub truncate_rate: f64,
}

impl NetFaults {
    /// Drop and truncate responses, each at rate `p`, seeded.
    pub fn new(seed: u64, p: f64) -> NetFaults {
        NetFaults {
            seed,
            drop_rate: p,
            truncate_rate: p,
        }
    }
}

/// Server configuration beyond the bind address.
#[derive(Clone, Default)]
pub struct ServeOptions {
    /// Transport-level fault injection (chaos testing).
    pub faults: Option<NetFaults>,
    /// Per-request structured logging: one `key=value` line per request.
    pub log: Option<LogSink>,
    /// Share an existing metrics hub instead of creating a fresh one —
    /// the HTTP ops server (`bda-served --http`) passes the same hub so
    /// `GET /metrics` scrapes this server's request metrics.
    pub metrics: Option<MetricsHub>,
    /// Make the served engine durable: recover prior state from this
    /// data directory before binding, then WAL every acknowledged
    /// mutation (staged fragment outputs excepted: the durability layer
    /// classifies them by name). Disk-fault injection rides in
    /// [`bda_durability::Options::faults`].
    pub durability: Option<bda_durability::Options>,
}

/// The shared fault stream: one RNG across all of a server's connections
/// so the injected sequence is a function of the seed and the global
/// response order.
struct FaultState {
    faults: NetFaults,
    rng: Mutex<StdRng>,
}

/// What the fault hook decided for one response.
enum FaultAction {
    Deliver,
    Drop,
    Truncate,
}

impl FaultState {
    fn decide(&self) -> FaultAction {
        let mut rng = self.rng.lock().expect("fault rng poisoned");
        if self.faults.drop_rate > 0.0 && rng.gen_bool(self.faults.drop_rate) {
            return FaultAction::Drop;
        }
        if self.faults.truncate_rate > 0.0 && rng.gen_bool(self.faults.truncate_rate) {
            return FaultAction::Truncate;
        }
        FaultAction::Deliver
    }
}

/// Serve `engine` on `bind` (e.g. `"127.0.0.1:0"` for an ephemeral
/// port). Returns once the listener is bound; requests are handled on
/// background threads.
pub fn serve(engine: Arc<dyn Provider>, bind: &str) -> std::io::Result<ServerHandle> {
    serve_with(engine, bind, ServeOptions::default())
}

/// [`serve`] with transport-level fault injection — responses are
/// dropped or truncated per the seeded [`NetFaults`] stream.
pub fn serve_with_faults(
    engine: Arc<dyn Provider>,
    bind: &str,
    faults: NetFaults,
) -> std::io::Result<ServerHandle> {
    serve_with(
        engine,
        bind,
        ServeOptions {
            faults: Some(faults),
            ..ServeOptions::default()
        },
    )
}

/// [`serve_with_faults`] plus a durable engine: recovers from the
/// durability options' data directory, then injects *both* transport
/// faults and the disk faults carried in `durability.faults` — the full
/// chaos surface a provider must survive.
pub fn serve_durable_with_faults(
    engine: Arc<dyn Provider>,
    bind: &str,
    faults: NetFaults,
    durability: bda_durability::Options,
) -> std::io::Result<ServerHandle> {
    serve_with(
        engine,
        bind,
        ServeOptions {
            faults: Some(faults),
            durability: Some(durability),
            ..ServeOptions::default()
        },
    )
}

/// [`serve`] with full [`ServeOptions`].
pub fn serve_with(
    engine: Arc<dyn Provider>,
    bind: &str,
    opts: ServeOptions,
) -> std::io::Result<ServerHandle> {
    let faults = opts.faults.map(|faults| {
        Arc::new(FaultState {
            rng: Mutex::new(StdRng::seed_from_u64(faults.seed)),
            faults,
        })
    });
    // Recovery happens before the listener binds: a durable server is
    // only reachable once it serves its recovered catalog.
    let mut durable = None;
    let engine: Arc<dyn Provider> = match opts.durability {
        Some(durability) => {
            let p =
                Arc::new(DurableProvider::open(engine, durability).map_err(std::io::Error::other)?);
            durable = Some(Arc::clone(&p));
            p
        }
        None => engine,
    };
    let handler = Arc::new(RequestHandler::new(
        engine,
        opts.metrics.unwrap_or_default(),
        opts.log,
    )?);
    let metrics = handler.metrics();
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let accept_shutdown = Arc::clone(&shutdown);
    let accept_thread = std::thread::Builder::new()
        .name(format!("bda-served-{}", handler.engine().name()))
        .spawn(move || accept_loop(listener, handler, accept_shutdown, faults))?;
    Ok(ServerHandle {
        addr,
        metrics,
        shutdown,
        accept_thread: Some(accept_thread),
        durable,
    })
}

impl ServerHandle {
    /// The bound address (resolves the port when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics hub (shared: the same cells the connection
    /// handlers update). An HTTP ops server can render it directly.
    pub fn metrics(&self) -> MetricsHub {
        self.metrics.clone()
    }

    /// The durable wrapper, when the server was started with
    /// [`ServeOptions::durability`] — gives access to change streams,
    /// `snapshot_now`, and staged-dataset inspection.
    pub fn durable(&self) -> Option<&Arc<DurableProvider>> {
        self.durable.as_ref()
    }

    /// What recovery found when the server (re)started, when durable.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.durable.as_ref().map(|d| d.report())
    }

    /// Stop accepting, wake the accept thread, and join it. Connection
    /// handlers notice the flag within [`POLL_INTERVAL`] and exit.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Self-connect to unblock the accept() call.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    handler: Arc<RequestHandler>,
    shutdown: Arc<AtomicBool>,
    faults: Option<Arc<FaultState>>,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        let conn = match listener.accept() {
            Ok((conn, _)) => conn,
            Err(_) => continue,
        };
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let conn_handler = Arc::clone(&handler);
        let conn_shutdown = Arc::clone(&shutdown);
        let conn_faults = faults.clone();
        if let Ok(h) = std::thread::Builder::new()
            .name("bda-served-conn".to_string())
            .spawn(move || handle_connection(conn, conn_handler, conn_shutdown, conn_faults))
        {
            handlers.push(h);
        }
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
}

fn handle_connection(
    mut conn: TcpStream,
    handler: Arc<RequestHandler>,
    shutdown: Arc<AtomicBool>,
    faults: Option<Arc<FaultState>>,
) {
    let _ = conn.set_nodelay(true);
    let peer = conn
        .peer_addr()
        .map_or_else(|_| "-".to_string(), |a| a.ip().to_string());
    while !shutdown.load(Ordering::SeqCst) {
        // Idle phase: peek (non-consuming) with a short timeout so the
        // shutdown flag is observed promptly and a timeout can never
        // desynchronize a half-read message.
        if conn.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
            return;
        }
        match conn.peek(&mut [0u8; 1]) {
            Ok(0) => return, // peer closed
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => return,
        }
        // Data ready: read the whole message with the generous timeout.
        if conn.set_read_timeout(Some(PUSH_TIMEOUT)).is_err() {
            return;
        }
        let (kind, payload, req_bytes) = match read_message(&mut conn) {
            Ok(got) => got,
            // Peer hung up, stalled, or sent garbage: close.
            Err(_) => return,
        };
        let wire = handler.handle_frame_from(kind, &payload, req_bytes, &peer);
        match faults.as_ref().map(|f| f.decide()) {
            Some(FaultAction::Drop) => return, // close without replying
            Some(FaultAction::Truncate) => {
                // Put only half the framed reply on the wire, then
                // close: a mid-frame disconnect.
                let half = &wire[..wire.len() / 2];
                let _ = conn.write_all(half).and_then(|_| conn.flush());
                return;
            }
            Some(FaultAction::Deliver) | None => {}
        }
        if conn.write_all(&wire).and_then(|_| conn.flush()).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_message;
    use crate::proto::{Request, Response};
    use bda_core::ReferenceProvider;

    #[test]
    fn pipelined_requests_work_on_the_blocking_server_too() {
        // The thread-per-connection core answers tagged requests serially
        // but correctly: same handler, so a pipelining client can talk to
        // either serving core.
        let engine = Arc::new(ReferenceProvider::new("ref"));
        let server = serve(engine, "127.0.0.1:0").unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        let req = Request::Pipelined {
            tag: 99,
            inner: Box::new(Request::Hello),
        };
        let (kind, payload) = crate::proto::encode_request(&req);
        write_message(&mut conn, kind, &payload).unwrap();
        Write::flush(&mut conn).unwrap();
        let (rkind, rpayload, _) = read_message(&mut conn).unwrap();
        match crate::proto::decode_response(rkind, &rpayload).unwrap() {
            Response::Pipelined { tag, inner } => {
                assert_eq!(tag, 99);
                assert!(matches!(*inner, Response::Hello { .. }));
            }
            other => panic!("expected pipelined hello, got {other:?}"),
        }
    }
}
