//! The protocol-to-engine request handler, factored out of the
//! thread-per-connection server so *any* serving core can mount it: the
//! classic blocking server in [`crate::server`] and the sharded
//! event-loop reactor (`bda-reactor`) both drive the same
//! [`RequestHandler`], so request semantics, metrics, and structured
//! logging are identical regardless of how connections are scheduled.
//!
//! A handler owns the engine, the metrics hub, and the optional request
//! log. [`RequestHandler::handle_frame`] is the whole contract: decode a
//! framed message, execute it, observe it, and return the response —
//! errors become [`Response::Error`], never panics or I/O. A serving
//! core calls [`RequestHandler::handle_frame_from`] instead, which hands
//! back the reply already framed: it is encoded once, and the metrics
//! charge the length of exactly those bytes.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use bda_core::Provider;
use bda_obs::{scope, Counter, Histogram, MetricsHub, Tracer};

use crate::frame::{read_message, write_message, HEADER_LEN, MAX_FRAME_PAYLOAD};
use crate::proto::{
    absorb_traced, decode_request, decode_response, encode_request, encode_response, trace_wrapped,
    CatalogEntry, Request, Response,
};
use crate::Result;

/// Timeout for the outbound connection a push opens to a peer.
pub(crate) const PUSH_TIMEOUT: Duration = Duration::from_secs(30);

/// Where the per-request log lines go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogSink {
    /// Write to the server process's stderr.
    Stderr,
    /// Append to the file at this path (created if absent).
    File(PathBuf),
}

/// Everything needed to answer protocol requests against one engine:
/// the engine itself, the metrics registry every handled request is
/// charged to, and the optional structured request log.
pub struct RequestHandler {
    engine: Arc<dyn Provider>,
    metrics: MetricsHub,
    log: Option<Mutex<Box<dyn Write + Send>>>,
    /// The series every request charges, resolved on the first request.
    common: OnceLock<CommonSeries>,
    /// `bda_net_requests_total{kind}` per [`Kind`], resolved on that
    /// kind's first request.
    requests: [OnceLock<Counter>; KINDS],
    /// `bda_net_request_errors_total{kind}` per [`Kind`], resolved on
    /// that kind's first error.
    errors: [OnceLock<Counter>; KINDS],
}

/// What a request asks for, as metrics and log lines label it; a kind
/// is also the slot of its cached per-kind series.
#[derive(Clone, Copy)]
enum Kind {
    Hello,
    Execute,
    ExecutePush,
    Store,
    Remove,
    BuildIndex,
    IndexInfo,
    Catalog,
    Metrics,
    /// A request that did not decode.
    Malformed,
}

/// How many [`Kind`]s there are.
const KINDS: usize = Kind::Malformed as usize + 1;

impl Kind {
    /// The short label used in metrics and log lines.
    fn label(self) -> &'static str {
        match self {
            Kind::Hello => "hello",
            Kind::Execute => "execute",
            Kind::ExecutePush => "execute-push",
            Kind::Store => "store",
            Kind::Remove => "remove",
            Kind::BuildIndex => "build-index",
            Kind::IndexInfo => "index-info",
            Kind::Catalog => "catalog",
            Kind::Metrics => "metrics",
            Kind::Malformed => "malformed",
        }
    }
}

/// What [`RequestHandler::observe`] records about one handled request
/// besides its byte counts and outcome.
struct Handled {
    kind: Kind,
    traced: bool,
    /// The trace id the request carried, if traced.
    query: Option<u64>,
    /// Decode plus execute; encoding the reply is not included.
    dur: Duration,
}

/// Handles on the unlabeled-by-kind request series.
struct CommonSeries {
    duration: Histogram,
    received: Counter,
    sent: Counter,
}

impl RequestHandler {
    /// Build a handler over `engine`. `log`, when given, emits one
    /// structured `key=value` line per request.
    pub fn new(
        engine: Arc<dyn Provider>,
        metrics: MetricsHub,
        log: Option<LogSink>,
    ) -> std::io::Result<RequestHandler> {
        let log: Option<Mutex<Box<dyn Write + Send>>> = match log {
            None => None,
            Some(LogSink::Stderr) => Some(Mutex::new(Box::new(std::io::stderr()))),
            Some(LogSink::File(path)) => {
                let f = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?;
                Some(Mutex::new(Box::new(f)))
            }
        };
        Ok(RequestHandler {
            engine,
            metrics,
            log,
            common: OnceLock::new(),
            requests: std::array::from_fn(|_| OnceLock::new()),
            errors: std::array::from_fn(|_| OnceLock::new()),
        })
    }

    /// The engine this handler serves.
    pub fn engine(&self) -> &Arc<dyn Provider> {
        &self.engine
    }

    /// The metrics hub requests are charged to (shared cells).
    pub fn metrics(&self) -> MetricsHub {
        self.metrics.clone()
    }

    /// Decode one framed message (`kind`, `payload`, already-counted
    /// `req_bytes` off the wire), execute it, charge metrics and the
    /// request log, and return the reply. Malformed or failing requests
    /// become [`Response::Error`]; this never panics on network bytes.
    pub fn handle_frame(&self, kind: u8, payload: &[u8], req_bytes: u64) -> Response {
        let (handled, response) = self.dispatch(kind, payload);
        let resp_bytes = framed_size(encode_response(&response).1.len());
        self.observe(&handled, &response, "-", req_bytes, resp_bytes);
        response
    }

    /// [`RequestHandler::handle_frame`] for a request from `peer` (the
    /// connection's address), which the request log and the flight
    /// recorder's error records name. Returns the reply framed for the
    /// wire ([`frame_response`]); the sent-bytes metric and the log's
    /// `resp_bytes` are its length.
    pub fn handle_frame_from(
        &self,
        kind: u8,
        payload: &[u8],
        req_bytes: u64,
        peer: &str,
    ) -> Vec<u8> {
        let (handled, response) = self.dispatch(kind, payload);
        let wire = frame_response(&response);
        self.observe(&handled, &response, peer, req_bytes, wire.len() as u64);
        wire
    }

    /// Decode and execute one message, timing it.
    fn dispatch(&self, kind: u8, payload: &[u8]) -> (Handled, Response) {
        let started = std::time::Instant::now();
        let (kind, traced, query, response) = match decode_request(kind, payload) {
            Ok(req) => {
                let (kind, traced, query) =
                    (request_kind(&req), is_traced(&req), trace_id_of(&req));
                let resp = self
                    .handle_request(req)
                    .unwrap_or_else(|e| Response::from_error(&e));
                (kind, traced, query, resp)
            }
            Err(e) => (Kind::Malformed, false, None, Response::from_error(&e)),
        };
        let handled = Handled {
            kind,
            traced,
            query,
            dur: started.elapsed(),
        };
        (handled, response)
    }

    /// Charge one handled request, whose reply is `resp_bytes` on the
    /// wire, to the metrics registry and the log.
    fn observe(
        &self,
        handled: &Handled,
        resp: &Response,
        peer: &str,
        req_bytes: u64,
        resp_bytes: u64,
    ) {
        let m = &self.metrics;
        let &Handled {
            kind,
            traced,
            query,
            dur,
        } = handled;
        let outcome = response_outcome(resp);
        let labeled = |cache: &[OnceLock<Counter>; KINDS], family: &str, help: &str| {
            cache[kind as usize]
                .get_or_init(|| m.counter_labeled(family, &[("kind", kind.label())], help))
                .inc()
        };
        labeled(
            &self.requests,
            "bda_net_requests_total",
            "Requests handled, by kind.",
        );
        if outcome == "error" {
            labeled(
                &self.errors,
                "bda_net_request_errors_total",
                "Requests answered with an error, by kind.",
            );
            bda_obs::flight::global().record(self.engine.name(), || {
                format!(
                    "request kind={} peer={peer} answered with an error",
                    kind.label()
                )
            });
        }
        let common = self.common.get_or_init(|| {
            let wire = |direction| {
                m.counter_labeled(
                    "bda_net_wire_bytes_total",
                    &[("direction", direction)],
                    "Framed bytes moved over this server's connections.",
                )
            };
            CommonSeries {
                duration: m.histogram(
                    "bda_net_request_duration_seconds",
                    "Wall time to handle one request.",
                ),
                received: wire("received"),
                sent: wire("sent"),
            }
        });
        common.duration.observe_ns(dur.as_nanos() as u64);
        common.received.add(req_bytes);
        common.sent.add(resp_bytes);
        if let Some(log) = &self.log {
            let mut w = log.lock().expect("request log poisoned");
            let query = match query {
                Some(id) => format!("{id:#018x}"),
                None => "-".to_string(),
            };
            let _ = writeln!(
                w,
                "server={} kind={} traced={} peer={} query={} dur_us={} req_bytes={} resp_bytes={} outcome={}",
                self.engine.name(),
                kind.label(),
                traced,
                peer,
                query,
                dur.as_micros(),
                req_bytes,
                resp_bytes,
                outcome,
            )
            .and_then(|_| w.flush());
        }
    }

    /// Execute a decoded request. It is taken by value so a store moves
    /// its dataset into the engine rather than copying it.
    fn handle_request(&self, req: Request) -> Result<Response> {
        let engine = self.engine.as_ref();
        Ok(match req {
            Request::Hello => Response::Hello {
                name: engine.name().to_string(),
                capabilities: engine.capabilities(),
            },
            Request::Execute { plan } => Response::DataSet(engine.execute(&plan)?),
            Request::ExecutePush {
                dest_addr,
                dest_name,
                plan,
            } => {
                let out = engine.execute(&plan)?;
                let bytes = push_to_peer(&dest_addr, &dest_name, out)?;
                Response::Pushed { bytes }
            }
            Request::Store { name, data } => {
                engine.store(&name, data)?;
                Response::Ack
            }
            Request::Remove { name } => {
                engine.remove(&name);
                Response::Ack
            }
            Request::BuildIndex { name, column, kind } => {
                engine.build_index(&name, &column, kind)?;
                Response::Ack
            }
            Request::IndexInfo { name } => {
                // One `column kind fingerprint` line per index; plain
                // text so old clients (which never send 0x14) need no
                // new response kind.
                let mut out = String::new();
                for spec in engine.index_specs(&name) {
                    let fp = engine
                        .index_fingerprint(&name, &spec.column)
                        .unwrap_or_default();
                    out.push_str(&format!("{} {} {fp:016x}\n", spec.column, spec.kind.name()));
                }
                Response::Text(out)
            }
            Request::Catalog => Response::Catalog(
                engine
                    .catalog()
                    .into_iter()
                    .map(|(name, schema)| CatalogEntry {
                        rows: engine.row_count_of(&name).map(|n| n as u64),
                        name,
                        schema,
                    })
                    .collect(),
            ),
            Request::Metrics => Response::Text(self.metrics.render()),
            Request::Traced { trace_id, inner } => {
                // The same dispatch as untraced, under a `serve:<kind>`
                // span installed as the scope: the engine's per-operator
                // spans and a push's peer spans nest under it. The client
                // does the stitching: spans go back rootless (in this
                // server's own id/clock space) and the client remaps,
                // anchors, and parents them. Errors still travel inside
                // `Traced` so the spans survive the failure.
                let tracer = Tracer::with_trace_id(trace_id);
                let label = request_kind(&inner).label();
                let mut serve = tracer.start(None, || format!("serve:{label}"), engine.name());
                let resp = {
                    let _scope = scope::install(&tracer, engine.name(), serve.id());
                    self.handle_request(*inner)
                        .unwrap_or_else(|e| Response::from_error(&e))
                };
                match &resp {
                    Response::DataSet(ds) => serve.set_rows(ds.num_rows()),
                    Response::Pushed { bytes } => serve.set_bytes(*bytes),
                    _ => {}
                }
                serve.finish();
                Response::Traced {
                    spans: tracer.take_spans(),
                    inner: Box::new(resp),
                }
            }
            Request::Pipelined { tag, inner } => {
                // The tag echoes back around whatever the inner request
                // produced — including errors, so a pipelining client can
                // always match a failure to the right in-flight call.
                let resp = self
                    .handle_request(*inner)
                    .unwrap_or_else(|e| Response::from_error(&e));
                Response::Pipelined {
                    tag,
                    inner: Box::new(resp),
                }
            }
        })
    }
}

/// The kind of a request; wrappers are labelled by the work they carry.
fn request_kind(req: &Request) -> Kind {
    match req {
        Request::Hello => Kind::Hello,
        Request::Execute { .. } => Kind::Execute,
        Request::ExecutePush { .. } => Kind::ExecutePush,
        Request::Store { .. } => Kind::Store,
        Request::Remove { .. } => Kind::Remove,
        Request::BuildIndex { .. } => Kind::BuildIndex,
        Request::IndexInfo { .. } => Kind::IndexInfo,
        Request::Catalog => Kind::Catalog,
        Request::Metrics => Kind::Metrics,
        Request::Traced { inner, .. } => request_kind(inner),
        Request::Pipelined { inner, .. } => request_kind(inner),
    }
}

/// Whether a trace rides along with this request (looks through the
/// `Pipelined` wrapper).
fn is_traced(req: &Request) -> bool {
    match req {
        Request::Traced { .. } => true,
        Request::Pipelined { inner, .. } => is_traced(inner),
        _ => false,
    }
}

/// The trace id a request carries, when traced (looks through the
/// wrappers) — the `query=` key log lines and profiles join on.
fn trace_id_of(req: &Request) -> Option<u64> {
    match req {
        Request::Traced { trace_id, .. } => Some(*trace_id),
        Request::Pipelined { inner, .. } => trace_id_of(inner),
        _ => None,
    }
}

/// Wire size of a `len`-byte payload after framing (header per frame).
pub(crate) fn framed_size(len: usize) -> u64 {
    let frames = len.div_ceil(MAX_FRAME_PAYLOAD).max(1);
    (len + frames * HEADER_LEN) as u64
}

/// Encode a response and frame it: the bytes a serving core writes to
/// the connection for this reply.
pub fn frame_response(resp: &Response) -> Vec<u8> {
    let (kind, payload) = encode_response(resp);
    let mut wire = Vec::with_capacity(framed_size(payload.len()) as usize);
    write_message(&mut wire, kind, &payload).expect("vec write is infallible");
    wire
}

/// The log/metrics outcome of a response (looks through the wrappers).
fn response_outcome(resp: &Response) -> &'static str {
    match resp {
        Response::Error { .. } => "error",
        Response::Traced { inner, .. } => response_outcome(inner),
        Response::Pipelined { inner, .. } => response_outcome(inner),
        _ => "ok",
    }
}

/// The direct server-to-server hop: open a connection to the peer and
/// store the dataset there, bypassing the application tier entirely.
/// Returns the framed bytes sent to the peer. Under a trace scope (a
/// traced push request) the store travels as [`Request::Traced`], so the
/// *peer's* spans come back and land under the scope's parent.
fn push_to_peer(dest_addr: &str, dest_name: &str, data: bda_storage::DataSet) -> Result<u64> {
    use bda_core::CoreError;
    let net = |e: std::io::Error| CoreError::Net(format!("push to {dest_addr}: {e}"));
    let addrs: Vec<SocketAddr> = std::net::ToSocketAddrs::to_socket_addrs(dest_addr)
        .map_err(net)?
        .collect();
    let addr = addrs
        .first()
        .ok_or_else(|| CoreError::Net(format!("no address for peer {dest_addr}")))?;
    let mut conn = TcpStream::connect_timeout(addr, PUSH_TIMEOUT).map_err(net)?;
    conn.set_nodelay(true).map_err(net)?;
    conn.set_read_timeout(Some(PUSH_TIMEOUT)).map_err(net)?;
    conn.set_write_timeout(Some(PUSH_TIMEOUT)).map_err(net)?;
    let store = Request::Store {
        name: dest_name.to_string(),
        data,
    };
    let scope = scope::snapshot();
    let (kind, payload) = trace_wrapped(encode_request(&store), scope.as_ref());
    let anchor = scope.as_ref().map_or(0, |s| s.tracer.now_ns());
    let sent = write_message(&mut conn, kind, &payload).map_err(net)?;
    conn.flush().map_err(net)?;
    let (rkind, rpayload, _) =
        read_message(&mut conn).map_err(|e| CoreError::Net(format!("push to {dest_addr}: {e}")))?;
    let resp = decode_response(rkind, &rpayload)?;
    match absorb_traced(resp, scope.as_ref(), anchor) {
        Response::Ack => Ok(sent),
        Response::Error { msg, transient } if transient => Err(CoreError::transient(
            CoreError::Net(format!("peer {dest_addr}: {msg}")),
        )),
        Response::Error { msg, .. } => Err(CoreError::Remote {
            addr: dest_addr.to_string(),
            msg,
        }),
        other => Err(CoreError::Net(format!(
            "unexpected push response: {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::ReferenceProvider;

    #[test]
    fn series_appear_on_first_use_and_count_every_request() {
        let hub = MetricsHub::new();
        let handler =
            RequestHandler::new(Arc::new(ReferenceProvider::new("ref")), hub.clone(), None)
                .unwrap();
        assert!(
            !hub.render().contains("bda_net"),
            "no series before a request"
        );
        let (kind, payload) = encode_request(&Request::Hello);
        for _ in 0..2 {
            handler.handle_frame(kind, &payload, 10);
        }
        let text = hub.render();
        assert!(
            text.contains("bda_net_requests_total{kind=\"hello\"} 2"),
            "{text}"
        );
        assert!(text.contains("bda_net_wire_bytes_total{direction=\"received\"} 20"));
        assert!(
            text.contains("bda_net_request_duration_seconds_count 2"),
            "{text}"
        );
        assert!(!text.contains("kind=\"store\""), "{text}");
        assert!(!text.contains("bda_net_request_errors_total"), "{text}");
        handler.handle_frame(0xEE, &[], 6);
        let text = hub.render();
        assert!(
            text.contains("bda_net_requests_total{kind=\"malformed\"} 1"),
            "{text}"
        );
        assert!(text.contains("bda_net_request_errors_total{kind=\"malformed\"} 1"));
        assert!(text.contains("bda_net_wire_bytes_total{direction=\"received\"} 26"));
    }
}
