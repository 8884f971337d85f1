//! The request/response protocol carried inside frames.
//!
//! Payloads reuse the existing wire codecs end to end: plans travel as
//! `bda_core::codec` expression trees (`BDAP` magic) and datasets as
//! `bda_storage::wire` blocks (`BDA1` magic), each embedded with a `u32`
//! length prefix. Every payload is written and read through
//! [`bda_storage::wire`]'s [`Writer`]/[`Reader`] pair, and decoding is
//! fully checked: malformed input — these bytes arrive off a socket — is
//! a [`CoreError::Storage`] wrapping a corrupt-data error.
//!
//! A [`Response::Traced`] carries the server's spans as one block, laid
//! out as (all integers little-endian):
//!
//! ```text
//! u32 span_count
//! per span:
//!   u64 id
//!   u8  has_parent, [u64 parent]
//!   u32 name_len,  name bytes (UTF-8)
//!   u32 site_len,  site bytes (UTF-8)
//!   u64 start_ns, u64 end_ns
//!   u8  has_rows,  [u64 rows]
//!   u8  has_bytes, [u64 bytes]
//!   u32 event_count
//!   per event: u64 at_ns, u32 label_len, label bytes
//! ```

use bda_core::codec::{decode_plan, encode_plan};
use bda_core::{CapabilitySet, CoreError, OpKind, Plan};
use bda_obs::{Span, SpanEvent};
use bda_storage::wire::{decode_dataset, decode_schema, encode_dataset, encode_schema};
use bda_storage::wire::{Reader, Writer};
use bda_storage::{DataSet, IndexKind, Schema, StorageError};

use crate::Result;

/// One entry of a remote catalog listing.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogEntry {
    /// Dataset name.
    pub name: String,
    /// Dataset schema.
    pub schema: Schema,
    /// Row count, when the engine tracks statistics.
    pub rows: Option<u64>,
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Identify the server: reply with name and capabilities.
    Hello,
    /// Execute a shipped plan tree; reply with the result dataset.
    Execute {
        /// The plan, whose scans resolve in the server's catalog.
        plan: Plan,
    },
    /// Execute a plan and push the result to a *peer* server, storing it
    /// there under `dest_name` — the direct server-to-server transfer of
    /// desideratum 4. The reply reports the pushed payload size.
    ExecutePush {
        /// `host:port` of the peer server to push to.
        dest_addr: String,
        /// Name the peer stores the result under.
        dest_name: String,
        /// The plan to execute.
        plan: Plan,
    },
    /// Ingest a dataset.
    Store {
        /// Name to store under.
        name: String,
        /// The dataset.
        data: DataSet,
    },
    /// Drop a dataset if present.
    Remove {
        /// Name to drop.
        name: String,
    },
    /// Build (or rebuild) a secondary index on a dataset column.
    BuildIndex {
        /// Dataset to index.
        name: String,
        /// Column to index.
        column: String,
        /// Hash or sorted, as [`bda_storage::IndexKind`] wire bytes.
        kind: bda_storage::IndexKind,
    },
    /// List the secondary indexes on a dataset. The reply is
    /// [`Response::Text`] with one `column kind fingerprint` line per
    /// index (fingerprints in lowercase hex), so recovery tests can
    /// compare a post-crash rebuild against a from-scratch build without
    /// shipping index bytes.
    IndexInfo {
        /// Dataset to describe.
        name: String,
    },
    /// List the server's datasets with schemas and row counts.
    Catalog,
    /// Fetch the server's metrics registry rendered in Prometheus text
    /// exposition format (the `GET /metrics` of this protocol).
    Metrics,
    /// A request attached to a distributed trace: the server handles
    /// `inner` while recording spans, and wraps its reply in
    /// [`Response::Traced`] carrying them back. The client parents them
    /// itself, so only the trace id travels.
    ///
    /// Wrappers nest in one order, each at most once: `Pipelined` ⊃
    /// `Traced` ⊃ a plain request. Decoding refuses any other
    /// arrangement.
    Traced {
        /// Trace id every server-side span belongs to.
        trace_id: u64,
        /// The request to handle.
        inner: Box<Request>,
    },
    /// A tagged request on a pipelined connection: the client may have
    /// many of these in flight on one socket, and the server matches its
    /// reply by echoing `tag` in [`Response::Pipelined`]. Replies to
    /// tagged requests may arrive in any order; `Pipelined` is always
    /// the outermost wrapper. The thread-per-connection server also
    /// understands it (serially), so a pipelining client works against
    /// either serving core.
    Pipelined {
        /// Client-chosen correlation tag, echoed back verbatim.
        tag: u64,
        /// The request to handle.
        inner: Box<Request>,
    },
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Server identity: name plus natively supported operators.
    Hello {
        /// Provider name.
        name: String,
        /// Operator capability set.
        capabilities: CapabilitySet,
    },
    /// A result dataset.
    DataSet(DataSet),
    /// Success without a payload.
    Ack,
    /// A push completed; `bytes` is the framed payload size that went to
    /// the peer.
    Pushed {
        /// Wire bytes sent server-to-server.
        bytes: u64,
    },
    /// Catalog listing.
    Catalog(Vec<CatalogEntry>),
    /// A plain-text payload (the Prometheus rendering of
    /// [`Request::Metrics`]).
    Text(String),
    /// The reply to a [`Request::Traced`]: the inner response plus the
    /// spans the server recorded while producing it, in the server's own
    /// clock and id space (the client remaps and anchors them). Response
    /// wrappers nest `Pipelined` ⊃ `Traced` ⊃ a plain reply.
    Traced {
        /// Server-side spans.
        spans: Vec<bda_obs::Span>,
        /// The wrapped reply.
        inner: Box<Response>,
    },
    /// The reply to a [`Request::Pipelined`]: the inner response tagged
    /// with the request's correlation tag so the client can match it to
    /// the right in-flight request regardless of arrival order.
    Pipelined {
        /// The request's tag, echoed verbatim.
        tag: u64,
        /// The wrapped reply.
        inner: Box<Response>,
    },
    /// The request failed server-side; the display string of the error
    /// plus whether the server considers it transient (safe to retry).
    Error {
        /// Display string of the server-side error.
        msg: String,
        /// `CoreError::is_transient()` as judged server-side.
        transient: bool,
    },
}

impl Response {
    /// An error response carrying `e`'s display string and transience.
    pub fn from_error(e: &CoreError) -> Response {
        Response::Error {
            msg: e.to_string(),
            transient: e.is_transient(),
        }
    }
}

// Message kinds (the frame `kind` byte). Requests are < 0x80.
const K_HELLO: u8 = 0x01;
const K_EXECUTE: u8 = 0x02;
const K_EXECUTE_PUSH: u8 = 0x04;
const K_STORE: u8 = 0x05;
const K_REMOVE: u8 = 0x06;
const K_CATALOG: u8 = 0x07;
const K_METRICS: u8 = 0x08;
const K_TRACED: u8 = 0x10;
const K_PIPELINED: u8 = 0x11;
const K_BUILD_INDEX: u8 = 0x13;
const K_INDEX_INFO: u8 = 0x14;
const K_R_HELLO: u8 = 0x81;
const K_R_DATASET: u8 = 0x82;
const K_R_ACK: u8 = 0x83;
const K_R_PUSHED: u8 = 0x84;
const K_R_CATALOG: u8 = 0x85;
const K_R_TEXT: u8 = 0x86;
const K_R_TRACED: u8 = 0x87;
const K_R_PIPELINED: u8 = 0x88;
const K_R_ERROR: u8 = 0xFF;

fn corrupt(msg: String) -> CoreError {
    StorageError::Corrupt(msg).into()
}

/// Encode a request as `(frame kind, payload)`.
pub fn encode_request(req: &Request) -> (u8, Vec<u8>) {
    let mut w = Writer::new();
    let kind = match req {
        Request::Hello => K_HELLO,
        Request::Execute { plan } => {
            w.block(&encode_plan(plan));
            K_EXECUTE
        }
        Request::ExecutePush {
            dest_addr,
            dest_name,
            plan,
        } => {
            w.str(dest_addr);
            w.str(dest_name);
            w.block(&encode_plan(plan));
            K_EXECUTE_PUSH
        }
        Request::Store { name, data } => {
            w.str(name);
            w.block(&encode_dataset(data));
            K_STORE
        }
        Request::Remove { name } => {
            w.str(name);
            K_REMOVE
        }
        Request::BuildIndex { name, column, kind } => {
            w.str(name);
            w.str(column);
            w.u8(kind.as_u8());
            K_BUILD_INDEX
        }
        Request::IndexInfo { name } => {
            w.str(name);
            K_INDEX_INFO
        }
        Request::Catalog => K_CATALOG,
        Request::Metrics => K_METRICS,
        Request::Traced { trace_id, inner } => {
            let (k, p) = encode_request(inner);
            return wrap(K_TRACED, |w| w.u64(*trace_id), k, &p);
        }
        Request::Pipelined { tag, inner } => {
            let (k, p) = encode_request(inner);
            return wrap(K_PIPELINED, |w| w.u64(*tag), k, &p);
        }
    };
    (kind, w.into_vec())
}

/// The layout every wrapper shares: the wrapper's own fields (`head`),
/// then the inner message's kind byte and its payload as a block.
fn wrap(kind: u8, head: impl FnOnce(&mut Writer), inner_kind: u8, inner: &[u8]) -> (u8, Vec<u8>) {
    let mut w = Writer::with_capacity(inner.len() + 32);
    head(&mut w);
    w.u8(inner_kind);
    w.block(inner);
    (kind, w.into_vec())
}

/// Cheap peek at a [`Request::Pipelined`] wrapper: `(tag, inner kind)`
/// without decoding the inner payload (which may embed a large dataset).
/// The reactor's event loop uses this to classify and tag a request
/// before any expensive decoding — and to address a shed reply — while
/// full decoding happens on an executor worker. `None` when `kind` is
/// not a pipelined request or the prefix is malformed.
pub fn peek_pipelined(kind: u8, payload: &[u8]) -> Option<(u64, u8)> {
    if kind != K_PIPELINED {
        return None;
    }
    let mut r = Reader::new(payload);
    Some((r.u64("pipeline tag").ok()?, r.u8("pipelined inner").ok()?))
}

/// Whether `kind` is the [`Request::Pipelined`] frame kind.
pub fn is_pipelined_kind(kind: u8) -> bool {
    kind == K_PIPELINED
}

/// The outbound half of trace propagation: an encoded plain request
/// travels as [`Request::Traced`] when the caller runs under a trace
/// `scope`; anything else (untraced, or already wrapped) goes as is.
pub(crate) fn trace_wrapped(
    (kind, payload): (u8, Vec<u8>),
    scope: Option<&bda_obs::scope::Snapshot>,
) -> (u8, Vec<u8>) {
    match scope {
        Some(s) if request_rank(kind) == 0 => {
            wrap(K_TRACED, |w| w.u64(s.tracer.trace_id()), kind, &payload)
        }
        _ => (kind, payload),
    }
}

/// The inbound half: unwrap a [`Response::Traced`], hanging its spans
/// under `scope`'s current parent, shifted to start at `anchor_ns` on the
/// scope's clock. Other replies pass through.
pub(crate) fn absorb_traced(
    resp: Response,
    scope: Option<&bda_obs::scope::Snapshot>,
    anchor_ns: u64,
) -> Response {
    match resp {
        Response::Traced { spans, inner } => {
            if let Some(s) = scope {
                s.tracer.absorb_remote(spans, s.parent, anchor_ns);
            }
            *inner
        }
        other => other,
    }
}

/// Raw request kind bytes, for serving cores that must classify a
/// message *before* decoding it (the reactor's admission control reads
/// one byte to pick a priority queue; full decoding happens later on an
/// executor worker).
pub mod kind {
    pub const HELLO: u8 = super::K_HELLO;
    pub const EXECUTE: u8 = super::K_EXECUTE;
    pub const EXECUTE_PUSH: u8 = super::K_EXECUTE_PUSH;
    pub const STORE: u8 = super::K_STORE;
    pub const REMOVE: u8 = super::K_REMOVE;
    pub const CATALOG: u8 = super::K_CATALOG;
    pub const METRICS: u8 = super::K_METRICS;
    pub const TRACED: u8 = super::K_TRACED;
    pub const PIPELINED: u8 = super::K_PIPELINED;
    pub const BUILD_INDEX: u8 = super::K_BUILD_INDEX;
    pub const INDEX_INFO: u8 = super::K_INDEX_INFO;
}

/// A request kind's place in the wrapper order `Pipelined` ⊃ `Traced` ⊃
/// plain (plain = 0).
fn request_rank(kind: u8) -> u8 {
    match kind {
        K_PIPELINED => 2,
        K_TRACED => 1,
        _ => 0,
    }
}

/// A response kind's place in the wrapper order `Pipelined` ⊃ `Traced` ⊃
/// plain (plain = 0).
fn response_rank(kind: u8) -> u8 {
    match kind {
        K_R_PIPELINED => 2,
        K_R_TRACED => 1,
        _ => 0,
    }
}

/// Read the `inner kind | block` tail of a wrapper of kind `outer` and
/// decode the inner message. The inner kind must rank strictly below
/// `outer`, so each wrapper appears at most once and in order — which
/// also caps how deep a crafted frame can make the decoder recurse.
fn read_wrapped<T>(
    r: &mut Reader<'_>,
    outer: u8,
    rank: fn(u8) -> u8,
    what: &str,
    decode: fn(u8, &[u8]) -> Result<T>,
) -> Result<Box<T>> {
    let inner_kind = r.u8(what)?;
    if rank(inner_kind) >= rank(outer) {
        return Err(corrupt(format!(
            "{what}: kind {inner_kind:#04x} breaks the wrapper order"
        )));
    }
    Ok(Box::new(decode(inner_kind, r.block(what)?)?))
}

/// Decode a request from a frame kind and payload.
pub fn decode_request(kind: u8, payload: &[u8]) -> Result<Request> {
    let mut r = Reader::new(payload);
    let req = match kind {
        K_HELLO => Request::Hello,
        K_EXECUTE => Request::Execute {
            plan: decode_plan(r.block("execute plan")?)?,
        },
        K_EXECUTE_PUSH => Request::ExecutePush {
            dest_addr: r.string("push dest addr")?,
            dest_name: r.string("push dest name")?,
            plan: decode_plan(r.block("push plan")?)?,
        },
        K_STORE => Request::Store {
            name: r.string("store name")?,
            data: decode_dataset(r.block("store dataset")?)?,
        },
        K_REMOVE => Request::Remove {
            name: r.string("remove name")?,
        },
        K_BUILD_INDEX => Request::BuildIndex {
            name: r.string("build-index name")?,
            column: r.string("build-index column")?,
            kind: r.tag(&IndexKind::ALL, "build-index kind")?,
        },
        K_INDEX_INFO => Request::IndexInfo {
            name: r.string("index-info name")?,
        },
        K_CATALOG => Request::Catalog,
        K_METRICS => Request::Metrics,
        K_TRACED => Request::Traced {
            trace_id: r.u64("trace id")?,
            inner: read_wrapped(&mut r, kind, request_rank, "traced inner", decode_request)?,
        },
        K_PIPELINED => Request::Pipelined {
            tag: r.u64("pipeline tag")?,
            inner: read_wrapped(
                &mut r,
                kind,
                request_rank,
                "pipelined inner",
                decode_request,
            )?,
        },
        other => return Err(corrupt(format!("unknown request kind {other:#04x}"))),
    };
    r.finish("request payload")?;
    Ok(req)
}

fn encode_spans(spans: &[Span], w: &mut Writer) {
    w.list(spans, |w, s| {
        w.u64(s.id);
        w.opt(s.parent, Writer::u64);
        w.str(&s.name);
        w.str(&s.site);
        w.u64(s.start_ns);
        w.u64(s.end_ns);
        w.opt(s.rows, Writer::u64);
        w.opt(s.bytes, Writer::u64);
        w.list(&s.events, |w, e| {
            w.u64(e.at_ns);
            w.str(&e.label);
        });
    });
}

fn decode_spans(r: &mut Reader<'_>) -> bda_storage::Result<Vec<Span>> {
    // A span is at least 39 bytes: id, two timestamps, three option flags
    // and three length prefixes; an event at least its timestamp and
    // label prefix.
    r.list(39, "span count", |r| {
        Ok(Span {
            id: r.u64("span id")?,
            parent: r.opt("span parent", |r| r.u64("span parent"))?,
            name: r.string("span name")?,
            site: r.string("span site")?,
            start_ns: r.u64("span start")?,
            end_ns: r.u64("span end")?,
            rows: r.opt("span rows", |r| r.u64("span rows"))?,
            bytes: r.opt("span bytes", |r| r.u64("span bytes"))?,
            events: r.list(12, "span events", |r| {
                Ok(SpanEvent {
                    at_ns: r.u64("event time")?,
                    label: r.string("event label")?,
                })
            })?,
        })
    })
}

/// Encode a response as `(frame kind, payload)`.
pub fn encode_response(resp: &Response) -> (u8, Vec<u8>) {
    let mut w = Writer::new();
    let kind = match resp {
        Response::Hello { name, capabilities } => {
            w.str(name);
            let ops: Vec<OpKind> = capabilities.iter().collect();
            w.list(&ops, |w, op| w.str(op.name()));
            K_R_HELLO
        }
        Response::DataSet(ds) => {
            w.block(&encode_dataset(ds));
            K_R_DATASET
        }
        Response::Ack => K_R_ACK,
        Response::Pushed { bytes } => {
            w.u64(*bytes);
            K_R_PUSHED
        }
        Response::Catalog(entries) => {
            w.list(entries, |w, e| {
                w.str(&e.name);
                let mut schema = Writer::new();
                encode_schema(&e.schema, &mut schema);
                w.block(&schema.into_vec());
                w.opt(e.rows, Writer::u64);
            });
            K_R_CATALOG
        }
        Response::Text(text) => {
            w.str(text);
            K_R_TEXT
        }
        Response::Traced { spans, inner } => {
            let mut block = Writer::new();
            encode_spans(spans, &mut block);
            let (k, p) = encode_response(inner);
            return wrap(K_R_TRACED, |w| w.block(&block.into_vec()), k, &p);
        }
        Response::Pipelined { tag, inner } => {
            let (k, p) = encode_response(inner);
            return wrap(K_R_PIPELINED, |w| w.u64(*tag), k, &p);
        }
        Response::Error { msg, transient } => {
            w.u8(u8::from(*transient));
            w.str(msg);
            K_R_ERROR
        }
    };
    (kind, w.into_vec())
}

/// Decode a response from a frame kind and payload.
pub fn decode_response(kind: u8, payload: &[u8]) -> Result<Response> {
    let mut r = Reader::new(payload);
    let resp = match kind {
        K_R_HELLO => {
            let name = r.string("hello name")?;
            let ops = r.list(4, "hello op count", |r| {
                let op_name = r.string("hello op")?;
                OpKind::ALL
                    .iter()
                    .copied()
                    .find(|k| k.name() == op_name)
                    .ok_or_else(|| corrupt(format!("unknown operator `{op_name}`")))
            })?;
            Response::Hello {
                name,
                capabilities: CapabilitySet::from_ops(&ops),
            }
        }
        K_R_DATASET => Response::DataSet(decode_dataset(r.block("result dataset")?)?),
        K_R_ACK => Response::Ack,
        K_R_PUSHED => Response::Pushed {
            bytes: r.u64("pushed bytes")?,
        },
        // An entry is at least a name prefix, a schema block prefix and
        // a rows flag.
        K_R_CATALOG => Response::Catalog(r.list(9, "catalog count", |r| {
            Ok::<_, StorageError>(CatalogEntry {
                name: r.string("catalog name")?,
                schema: r.within("catalog schema", decode_schema)?,
                rows: r.opt("catalog rows", |r| r.u64("catalog rows"))?,
            })
        })?),
        K_R_TEXT => Response::Text(r.string("text payload")?),
        K_R_TRACED => Response::Traced {
            spans: r.within("traced spans", decode_spans)?,
            inner: read_wrapped(&mut r, kind, response_rank, "traced inner", decode_response)?,
        },
        K_R_PIPELINED => Response::Pipelined {
            tag: r.u64("pipeline tag")?,
            inner: read_wrapped(
                &mut r,
                kind,
                response_rank,
                "pipelined inner",
                decode_response,
            )?,
        },
        K_R_ERROR => Response::Error {
            transient: r.tag(&[false, true], "error transient flag")?,
            msg: r.string("error message")?,
        },
        other => return Err(corrupt(format!("unknown response kind {other:#04x}"))),
    };
    r.finish("response payload")?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_storage::Column;

    fn sample_dataset() -> DataSet {
        DataSet::from_columns(vec![
            ("k", Column::from(vec![1i64, 2, 3])),
            ("v", Column::from(vec![0.5f64, 1.5, 2.5])),
        ])
        .unwrap()
    }

    fn request_round_trip(req: Request) {
        let (kind, payload) = encode_request(&req);
        assert_eq!(decode_request(kind, &payload).unwrap(), req);
    }

    fn response_round_trip(resp: Response) {
        let (kind, payload) = encode_response(&resp);
        assert_eq!(decode_response(kind, &payload).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        let ds = sample_dataset();
        let plan = Plan::scan("t", ds.schema().clone()).limit(2);
        request_round_trip(Request::Hello);
        request_round_trip(Request::Execute { plan: plan.clone() });
        request_round_trip(Request::ExecutePush {
            dest_addr: "127.0.0.1:7401".into(),
            dest_name: "__bda_frag_0".into(),
            plan,
        });
        request_round_trip(Request::Store {
            name: "t".into(),
            data: ds,
        });
        request_round_trip(Request::Remove { name: "t".into() });
        request_round_trip(Request::Catalog);
        request_round_trip(Request::Metrics);
        request_round_trip(Request::BuildIndex {
            name: "t".into(),
            column: "k".into(),
            kind: bda_storage::IndexKind::Hash,
        });
        request_round_trip(Request::BuildIndex {
            name: "t".into(),
            column: "v".into(),
            kind: bda_storage::IndexKind::Sorted,
        });
        request_round_trip(Request::IndexInfo { name: "t".into() });
        // A bad index-kind byte is corruption, not a silent default.
        let (kind, mut payload) = encode_request(&Request::BuildIndex {
            name: "t".into(),
            column: "k".into(),
            kind: bda_storage::IndexKind::Hash,
        });
        *payload.last_mut().unwrap() = 0xEE;
        assert!(decode_request(kind, &payload).is_err());
    }

    #[test]
    fn traced_messages_round_trip() {
        let ds = sample_dataset();
        let plan = Plan::scan("t", ds.schema().clone()).limit(2);
        request_round_trip(Request::Traced {
            trace_id: 0xDEAD_BEEF,
            inner: Box::new(Request::Execute { plan }),
        });
        response_round_trip(Response::Text("# HELP x y\nx 1\n".into()));
        response_round_trip(Response::Traced {
            spans: vec![bda_obs::Span {
                id: 1,
                parent: None,
                name: "serve:execute".into(),
                site: "rel".into(),
                start_ns: 10,
                end_ns: 500,
                rows: Some(3),
                bytes: None,
                events: vec![bda_obs::SpanEvent {
                    at_ns: 20,
                    label: "decoded".into(),
                }],
            }],
            inner: Box::new(Response::DataSet(ds)),
        });
    }

    #[test]
    fn traced_spans_reject_truncation_garbage_and_hostile_counts() {
        let span = |id, parent| bda_obs::Span {
            id,
            parent,
            name: "op:join".into(),
            site: "rel".into(),
            start_ns: 10,
            end_ns: 4_000,
            rows: Some(12),
            bytes: None,
            events: vec![bda_obs::SpanEvent {
                at_ns: 100,
                label: "retry:1".into(),
            }],
        };
        let (kind, payload) = encode_response(&Response::Traced {
            spans: vec![span(1, None), span(2, Some(1))],
            inner: Box::new(Response::Ack),
        });
        for cut in 0..payload.len() {
            assert!(decode_response(kind, &payload[..cut]).is_err(), "cut {cut}");
        }
        let mut extended = payload.clone();
        extended.push(0);
        assert!(decode_response(kind, &extended).is_err());
        // Layout: u32 block length, u32 span count, u64 id, then the
        // parent option flag of span 1.
        let mut bad_flag = payload.clone();
        bad_flag[4 + 4 + 8] = 7;
        assert!(decode_response(kind, &bad_flag).is_err());
        // A count the block cannot hold fails before any allocation.
        let mut hostile = payload;
        hostile[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_response(kind, &hostile).unwrap_err().to_string();
        assert!(err.contains("implausible length"), "{err}");
    }

    #[test]
    fn pipelined_messages_round_trip() {
        let ds = sample_dataset();
        let plan = Plan::scan("t", ds.schema().clone()).limit(2);
        request_round_trip(Request::Pipelined {
            tag: 0xABCD_EF01_2345_6789,
            inner: Box::new(Request::Execute { plan }),
        });
        response_round_trip(Response::Pipelined {
            tag: 42,
            inner: Box::new(Response::DataSet(ds)),
        });
        response_round_trip(Response::Pipelined {
            tag: u64::MAX,
            inner: Box::new(Response::Error {
                msg: "server overloaded".into(),
                transient: true,
            }),
        });
    }

    #[test]
    fn wrappers_nest_only_in_order_and_at_most_once() {
        // `wrap(w, …)` in wrapper order: Traced 0 < Pipelined 1, for
        // requests and responses alike. A pair decodes exactly when the
        // outer one comes later in that order.
        let wrap = |w: usize, inner: Request| match w {
            0 => Request::Traced {
                trace_id: 0xBDA,
                inner: Box::new(inner),
            },
            _ => Request::Pipelined {
                tag: 9,
                inner: Box::new(inner),
            },
        };
        for outer in 0..2 {
            for inner in 0..2 {
                let req = wrap(outer, wrap(inner, Request::Catalog));
                let (kind, payload) = encode_request(&req);
                assert_eq!(
                    decode_request(kind, &payload).is_ok(),
                    outer > inner,
                    "{req:?}"
                );
            }
        }
        request_round_trip(wrap(1, wrap(0, Request::Catalog)));

        let wrap = |w: usize, inner: Response| match w {
            0 => Response::Traced {
                spans: vec![],
                inner: Box::new(inner),
            },
            _ => Response::Pipelined {
                tag: 9,
                inner: Box::new(inner),
            },
        };
        for outer in 0..2 {
            for inner in 0..2 {
                let resp = wrap(outer, wrap(inner, Response::Ack));
                let (kind, payload) = encode_response(&resp);
                let ok = decode_response(kind, &payload).is_ok();
                assert_eq!(ok, outer > inner, "{resp:?}");
            }
        }
    }

    #[test]
    fn peek_pipelined_reads_tag_and_inner_kind_without_decoding() {
        let (kind, payload) = encode_request(&Request::Pipelined {
            tag: 0xFEED,
            inner: Box::new(Request::Store {
                name: "t".into(),
                data: sample_dataset(),
            }),
        });
        assert!(is_pipelined_kind(kind));
        let (tag, inner_kind) = peek_pipelined(kind, &payload).unwrap();
        assert_eq!(tag, 0xFEED);
        assert_eq!(inner_kind, super::K_STORE);
        // Not pipelined, or too short: no peek.
        let (kind, payload) = encode_request(&Request::Catalog);
        assert!(peek_pipelined(kind, &payload).is_none());
        assert!(peek_pipelined(super::K_PIPELINED, &[0; 8]).is_none());
    }

    #[test]
    fn responses_round_trip() {
        let ds = sample_dataset();
        response_round_trip(Response::Hello {
            name: "rel".into(),
            capabilities: CapabilitySet::all_base(),
        });
        response_round_trip(Response::DataSet(ds.clone()));
        response_round_trip(Response::Ack);
        response_round_trip(Response::Pushed { bytes: 1234 });
        response_round_trip(Response::Catalog(vec![
            CatalogEntry {
                name: "t".into(),
                schema: ds.schema().clone(),
                rows: Some(3),
            },
            CatalogEntry {
                name: "u".into(),
                schema: ds.schema().clone(),
                rows: None,
            },
        ]));
        response_round_trip(Response::Error {
            msg: "boom".into(),
            transient: false,
        });
        response_round_trip(Response::Error {
            msg: "socket hiccup".into(),
            transient: true,
        });
    }

    #[test]
    fn unknown_kinds_are_errors() {
        // 0x03, 0x09 and 0x12 were retired request kinds: refused, not
        // aliased.
        for kind in [0x03, 0x09, 0x12, 0x7E] {
            let err = decode_request(kind, &[]).unwrap_err().to_string();
            assert!(err.contains("unknown request kind"), "{err}");
        }
        assert!(decode_response(0x20, &[]).is_err());
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let (kind, mut payload) = encode_request(&Request::Remove { name: "t".into() });
        payload.push(0);
        assert!(decode_request(kind, &payload).is_err());
    }

    #[test]
    fn truncation_never_panics() {
        let (kind, payload) = encode_request(&Request::Store {
            name: "t".into(),
            data: sample_dataset(),
        });
        for cut in 0..payload.len() {
            assert!(decode_request(kind, &payload[..cut]).is_err(), "cut {cut}");
        }
    }
}
