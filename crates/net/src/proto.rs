//! The request/response protocol carried inside frames.
//!
//! Payloads reuse the existing wire codecs end to end: plans travel as
//! `bda_core::codec` expression trees (`BDAP` magic) and datasets as
//! `bda_storage::wire` blocks (`BDA1` magic), each embedded with a `u32`
//! length prefix. Strings are `u32` length + UTF-8, matching
//! [`bda_storage::wire::Reader::string`]. Decoding is fully checked and
//! returns [`CoreError`] on malformed input — these bytes arrive off a
//! socket.

use bytes::{BufMut, BytesMut};

use bda_core::codec::{decode_plan, encode_plan};
use bda_core::{CapabilitySet, CoreError, OpKind, Plan};
use bda_storage::wire::{decode_dataset, encode_dataset, Reader};
use bda_storage::{DataSet, Schema};

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
    /// `Tenant` ⊃ `Traced` ⊃ a plain request. Decoding refuses any
    /// other arrangement.
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
    /// A request tagged with the tenant identity it should be charged
    /// to. Servers that meter usage attribute this request's cost to
    /// `tenant` instead of the connection's peer address (the default
    /// for untagged requests, preserving old↔new compatibility).
    ///
    /// `Tenant` sits between `Pipelined` and `Traced` in the wrapper
    /// order. The reply is the inner request's reply — there is no
    /// tenant response wrapper to echo.
    Tenant {
        /// Tenant identity the request is charged to.
        tenant: String,
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
const K_TENANT: u8 = 0x12;
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

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_block(buf: &mut BytesMut, block: &[u8]) {
    buf.put_u32_le(block.len() as u32);
    buf.put_slice(block);
}

fn read_block<'a>(r: &mut Reader<'a>, what: &str) -> Result<&'a [u8]> {
    let n = r.u32(what)?;
    let n = r.checked_len(n, what)?;
    Ok(r.bytes(n, what)?)
}

fn read_plan(r: &mut Reader<'_>, what: &str) -> Result<Plan> {
    decode_plan(read_block(r, what)?)
}

fn read_dataset(r: &mut Reader<'_>, what: &str) -> Result<DataSet> {
    Ok(decode_dataset(read_block(r, what)?)?)
}

fn corrupt(msg: impl Into<String>) -> CoreError {
    CoreError::Corrupt(msg.into())
}

/// Reject trailing garbage so framing bugs surface as errors.
fn finish(r: &Reader<'_>, what: &str) -> Result<()> {
    if r.remaining() != 0 {
        return Err(corrupt(format!(
            "{} trailing bytes after {what} payload",
            r.remaining()
        )));
    }
    Ok(())
}

/// Encode a request as `(frame kind, payload)`.
pub fn encode_request(req: &Request) -> (u8, Vec<u8>) {
    let mut buf = BytesMut::new();
    let kind = match req {
        Request::Hello => K_HELLO,
        Request::Execute { plan } => {
            put_block(&mut buf, &encode_plan(plan));
            K_EXECUTE
        }
        Request::ExecutePush {
            dest_addr,
            dest_name,
            plan,
        } => {
            put_string(&mut buf, dest_addr);
            put_string(&mut buf, dest_name);
            put_block(&mut buf, &encode_plan(plan));
            K_EXECUTE_PUSH
        }
        Request::Store { name, data } => {
            put_string(&mut buf, name);
            put_block(&mut buf, &encode_dataset(data));
            K_STORE
        }
        Request::Remove { name } => {
            put_string(&mut buf, name);
            K_REMOVE
        }
        Request::BuildIndex { name, column, kind } => {
            put_string(&mut buf, name);
            put_string(&mut buf, column);
            buf.put_u8(kind.as_u8());
            K_BUILD_INDEX
        }
        Request::IndexInfo { name } => {
            put_string(&mut buf, name);
            K_INDEX_INFO
        }
        Request::Catalog => K_CATALOG,
        Request::Metrics => K_METRICS,
        Request::Traced { trace_id, inner } => {
            let (inner_kind, inner_payload) = encode_request(inner);
            return encode_traced_wrapped(*trace_id, inner_kind, &inner_payload);
        }
        Request::Pipelined { tag, inner } => {
            buf.put_u64_le(*tag);
            let (inner_kind, inner_payload) = encode_request(inner);
            buf.put_u8(inner_kind);
            put_block(&mut buf, &inner_payload);
            K_PIPELINED
        }
        Request::Tenant { tenant, inner } => {
            put_string(&mut buf, tenant);
            let (inner_kind, inner_payload) = encode_request(inner);
            buf.put_u8(inner_kind);
            put_block(&mut buf, &inner_payload);
            K_TENANT
        }
    };
    (kind, buf.to_vec())
}

/// Cheap peek at a [`Request::Pipelined`] wrapper: `(tag, inner kind)`
/// without decoding the inner payload (which may embed a large dataset).
/// The reactor's event loop uses this to classify and tag a request
/// before any expensive decoding — and to address a shed reply — while
/// full decoding happens on an executor worker. `None` when `kind` is
/// not a pipelined request or the prefix is malformed.
pub fn peek_pipelined(kind: u8, payload: &[u8]) -> Option<(u64, u8)> {
    if kind != K_PIPELINED || payload.len() < 9 {
        return None;
    }
    let tag = u64::from_le_bytes(payload[..8].try_into().expect("8-byte prefix"));
    Some((tag, payload[8]))
}

/// Whether `kind` is the [`Request::Pipelined`] frame kind.
pub fn is_pipelined_kind(kind: u8) -> bool {
    kind == K_PIPELINED
}

/// Encode a [`Request::Tenant`] wrapper around an *already-encoded*
/// request, so a client tagging every outgoing message never clones the
/// inner payload (which may embed a large dataset).
pub fn encode_tenant_wrapped(tenant: &str, inner_kind: u8, inner_payload: &[u8]) -> (u8, Vec<u8>) {
    let mut buf = BytesMut::new();
    put_string(&mut buf, tenant);
    buf.put_u8(inner_kind);
    put_block(&mut buf, inner_payload);
    (K_TENANT, buf.to_vec())
}

/// Encode a [`Request::Traced`] wrapper around an *already-encoded*
/// request (see [`encode_tenant_wrapped`]).
fn encode_traced_wrapped(trace_id: u64, inner_kind: u8, inner_payload: &[u8]) -> (u8, Vec<u8>) {
    let mut buf = BytesMut::new();
    buf.put_u64_le(trace_id);
    buf.put_u8(inner_kind);
    put_block(&mut buf, inner_payload);
    (K_TRACED, buf.to_vec())
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
            encode_traced_wrapped(s.tracer.trace_id(), kind, &payload)
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

/// What a cheap prefix scan of a request frame reveals: the pipelining
/// tag (when the outermost wrapper is [`Request::Pipelined`] and its
/// prefix is well formed), the innermost *classification* kind looking
/// through `Pipelined` and `Tenant` wrappers, and the tenant tag when
/// one is present.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramePeek {
    /// Pipelining correlation tag, when the frame is a well-formed
    /// pipelined wrapper.
    pub tag: Option<u64>,
    /// The request kind after looking through `Pipelined` and `Tenant`
    /// wrappers — what admission control should classify on. Falls back
    /// to the outermost kind when a wrapper prefix is malformed (full
    /// decoding later reports the error in order).
    pub kind: u8,
    /// Tenant identity, when the frame carries a tenant tag with a
    /// well-formed UTF-8 prefix.
    pub tenant: Option<String>,
}

/// Cheap peek at a request frame's wrappers without decoding the inner
/// payload (which may embed a large dataset). The reactor's event loop
/// uses this to classify, tag, and *attribute* a request before any
/// expensive decoding — and to address a shed reply — while full
/// decoding happens on an executor worker. Malformed wrapper prefixes
/// degrade gracefully: the peek stops looking through and reports what
/// it has, and the decode on the worker produces the error reply.
pub fn peek_frame(kind: u8, payload: &[u8]) -> FramePeek {
    let mut peek = FramePeek {
        tag: None,
        kind,
        tenant: None,
    };
    let mut payload = payload;
    if kind == K_PIPELINED {
        // Layout: tag u64 | inner kind u8 | u32 block len | inner payload.
        let Some((tag, inner_kind)) = peek_pipelined(kind, payload) else {
            return peek;
        };
        if payload.len() < 13 {
            return peek;
        }
        peek.tag = Some(tag);
        peek.kind = inner_kind;
        let len = u32::from_le_bytes(payload[9..13].try_into().expect("4-byte len")) as usize;
        let Some(inner) = 13usize
            .checked_add(len)
            .and_then(|end| payload.get(13..end))
        else {
            return peek;
        };
        payload = inner;
    }
    if peek.kind == K_TENANT {
        // Layout: u32 len | UTF-8 tenant | inner kind u8 | …
        if payload.len() < 4 {
            return peek;
        }
        let len = u32::from_le_bytes(payload[..4].try_into().expect("4-byte len")) as usize;
        let Some(raw) = payload.get(4..4 + len) else {
            return peek;
        };
        let Ok(tenant) = std::str::from_utf8(raw) else {
            return peek;
        };
        let Some(&inner_kind) = payload.get(4 + len) else {
            return peek;
        };
        peek.tenant = Some(tenant.to_string());
        peek.kind = inner_kind;
    }
    peek
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
    pub const TENANT: u8 = super::K_TENANT;
    pub const BUILD_INDEX: u8 = super::K_BUILD_INDEX;
    pub const INDEX_INFO: u8 = super::K_INDEX_INFO;
}

/// A request kind's place in the wrapper order `Pipelined` ⊃ `Tenant` ⊃
/// `Traced` ⊃ plain (plain = 0).
fn request_rank(kind: u8) -> u8 {
    match kind {
        K_PIPELINED => 3,
        K_TENANT => 2,
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

/// Read the `inner kind | block` tail of a wrapper of kind `outer`. The
/// inner kind must rank strictly below `outer`, so each wrapper appears
/// at most once and in order — which also caps how deep a crafted frame
/// can make the decoder recurse.
fn read_wrapped<'a>(
    r: &mut Reader<'a>,
    outer: u8,
    rank: fn(u8) -> u8,
    what: &str,
) -> Result<(u8, &'a [u8])> {
    let inner_kind = r.u8(what)?;
    if rank(inner_kind) >= rank(outer) {
        return Err(corrupt(format!(
            "{what}: kind {inner_kind:#04x} breaks the wrapper order"
        )));
    }
    Ok((inner_kind, read_block(r, what)?))
}

/// Decode a request from a frame kind and payload.
pub fn decode_request(kind: u8, payload: &[u8]) -> Result<Request> {
    let mut r = Reader::new(payload);
    let req = match kind {
        K_HELLO => Request::Hello,
        K_EXECUTE => Request::Execute {
            plan: read_plan(&mut r, "execute plan")?,
        },
        K_EXECUTE_PUSH => Request::ExecutePush {
            dest_addr: r.string("push dest addr")?,
            dest_name: r.string("push dest name")?,
            plan: read_plan(&mut r, "push plan")?,
        },
        K_STORE => Request::Store {
            name: r.string("store name")?,
            data: read_dataset(&mut r, "store dataset")?,
        },
        K_REMOVE => Request::Remove {
            name: r.string("remove name")?,
        },
        K_BUILD_INDEX => {
            let name = r.string("build-index name")?;
            let column = r.string("build-index column")?;
            let kind_byte = r.u8("build-index kind")?;
            let kind = bda_storage::IndexKind::from_u8(kind_byte)
                .ok_or_else(|| corrupt(format!("bad index kind {kind_byte}")))?;
            Request::BuildIndex { name, column, kind }
        }
        K_INDEX_INFO => Request::IndexInfo {
            name: r.string("index-info name")?,
        },
        K_CATALOG => Request::Catalog,
        K_METRICS => Request::Metrics,
        K_TRACED => {
            let trace_id = r.u64("trace id")?;
            let (k, p) = read_wrapped(&mut r, kind, request_rank, "traced inner")?;
            Request::Traced {
                trace_id,
                inner: Box::new(decode_request(k, p)?),
            }
        }
        K_PIPELINED => {
            let tag = r.u64("pipeline tag")?;
            let (k, p) = read_wrapped(&mut r, kind, request_rank, "pipelined inner")?;
            Request::Pipelined {
                tag,
                inner: Box::new(decode_request(k, p)?),
            }
        }
        K_TENANT => {
            let tenant = r.string("tenant id")?;
            let (k, p) = read_wrapped(&mut r, kind, request_rank, "tenant inner")?;
            Request::Tenant {
                tenant,
                inner: Box::new(decode_request(k, p)?),
            }
        }
        other => return Err(corrupt(format!("unknown request kind {other:#04x}"))),
    };
    finish(&r, "request")?;
    Ok(req)
}

/// Encode a response as `(frame kind, payload)`.
pub fn encode_response(resp: &Response) -> (u8, Vec<u8>) {
    let mut buf = BytesMut::new();
    let kind = match resp {
        Response::Hello { name, capabilities } => {
            put_string(&mut buf, name);
            let ops: Vec<OpKind> = capabilities.iter().collect();
            buf.put_u32_le(ops.len() as u32);
            for op in ops {
                put_string(&mut buf, op.name());
            }
            K_R_HELLO
        }
        Response::DataSet(ds) => {
            put_block(&mut buf, &encode_dataset(ds));
            K_R_DATASET
        }
        Response::Ack => K_R_ACK,
        Response::Pushed { bytes } => {
            buf.put_u64_le(*bytes);
            K_R_PUSHED
        }
        Response::Catalog(entries) => {
            buf.put_u32_le(entries.len() as u32);
            for e in entries {
                put_string(&mut buf, &e.name);
                let mut sbuf = BytesMut::new();
                bda_storage::wire::encode_schema(&e.schema, &mut sbuf);
                put_block(&mut buf, &sbuf);
                match e.rows {
                    Some(n) => {
                        buf.put_u8(1);
                        buf.put_u64_le(n);
                    }
                    None => buf.put_u8(0),
                }
            }
            K_R_CATALOG
        }
        Response::Text(text) => {
            put_string(&mut buf, text);
            K_R_TEXT
        }
        Response::Traced { spans, inner } => {
            put_block(&mut buf, &bda_obs::wire::encode_spans(spans));
            let (inner_kind, inner_payload) = encode_response(inner);
            buf.put_u8(inner_kind);
            put_block(&mut buf, &inner_payload);
            K_R_TRACED
        }
        Response::Pipelined { tag, inner } => {
            buf.put_u64_le(*tag);
            let (inner_kind, inner_payload) = encode_response(inner);
            buf.put_u8(inner_kind);
            put_block(&mut buf, &inner_payload);
            K_R_PIPELINED
        }
        Response::Error { msg, transient } => {
            buf.put_u8(u8::from(*transient));
            put_string(&mut buf, msg);
            K_R_ERROR
        }
    };
    (kind, buf.to_vec())
}

/// Decode a response from a frame kind and payload.
pub fn decode_response(kind: u8, payload: &[u8]) -> Result<Response> {
    let mut r = Reader::new(payload);
    let resp = match kind {
        K_R_HELLO => {
            let name = r.string("hello name")?;
            let n = r.u32("hello op count")?;
            let n = r.checked_len(n, "hello op count")?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                let op_name = r.string("hello op")?;
                let op = OpKind::ALL
                    .iter()
                    .copied()
                    .find(|k| k.name() == op_name)
                    .ok_or_else(|| corrupt(format!("unknown operator `{op_name}`")))?;
                ops.push(op);
            }
            Response::Hello {
                name,
                capabilities: CapabilitySet::from_ops(&ops),
            }
        }
        K_R_DATASET => Response::DataSet(read_dataset(&mut r, "result dataset")?),
        K_R_ACK => Response::Ack,
        K_R_PUSHED => Response::Pushed {
            bytes: r.u64("pushed bytes")?,
        },
        K_R_CATALOG => {
            let n = r.u32("catalog count")?;
            let n = r.checked_len(n, "catalog count")?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let name = r.string("catalog name")?;
                let sblock = read_block(&mut r, "catalog schema")?;
                let mut sr = Reader::new(sblock);
                let schema = bda_storage::wire::decode_schema(&mut sr)?;
                let rows = match r.u8("catalog rows flag")? {
                    0 => None,
                    1 => Some(r.u64("catalog rows")?),
                    other => return Err(corrupt(format!("bad rows flag {other}"))),
                };
                entries.push(CatalogEntry { name, schema, rows });
            }
            Response::Catalog(entries)
        }
        K_R_TEXT => Response::Text(r.string("text payload")?),
        K_R_TRACED => {
            let span_block = read_block(&mut r, "traced spans")?;
            let spans = bda_obs::wire::decode_spans(span_block)
                .map_err(|e| corrupt(format!("traced spans: {e}")))?;
            let (k, p) = read_wrapped(&mut r, kind, response_rank, "traced inner")?;
            Response::Traced {
                spans,
                inner: Box::new(decode_response(k, p)?),
            }
        }
        K_R_PIPELINED => {
            let tag = r.u64("pipeline tag")?;
            let (k, p) = read_wrapped(&mut r, kind, response_rank, "pipelined inner")?;
            Response::Pipelined {
                tag,
                inner: Box::new(decode_response(k, p)?),
            }
        }
        K_R_ERROR => {
            let transient = match r.u8("error transient flag")? {
                0 => false,
                1 => true,
                other => return Err(corrupt(format!("bad transient flag {other}"))),
            };
            Response::Error {
                msg: r.string("error message")?,
                transient,
            }
        }
        other => return Err(corrupt(format!("unknown response kind {other:#04x}"))),
    };
    finish(&r, "response")?;
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
        // `wrap(w, …)` in wrapper order: Traced 0 < Tenant 1 < Pipelined 2
        // (responses: Traced < Pipelined). A pair decodes exactly when the
        // outer one comes later in that order.
        let wrap = |w: usize, inner: Request| match w {
            0 => Request::Traced {
                trace_id: 0xBDA,
                inner: Box::new(inner),
            },
            1 => Request::Tenant {
                tenant: "acme".into(),
                inner: Box::new(inner),
            },
            _ => Request::Pipelined {
                tag: 9,
                inner: Box::new(inner),
            },
        };
        for outer in 0..3 {
            for inner in 0..3 {
                let req = wrap(outer, wrap(inner, Request::Catalog));
                let (kind, payload) = encode_request(&req);
                assert_eq!(
                    decode_request(kind, &payload).is_ok(),
                    outer > inner,
                    "{req:?}"
                );
            }
        }
        request_round_trip(wrap(2, wrap(1, wrap(0, Request::Catalog))));

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
    fn tenant_truncation_never_panics() {
        let (kind, payload) = encode_request(&Request::Tenant {
            tenant: "acme".into(),
            inner: Box::new(Request::Store {
                name: "t".into(),
                data: sample_dataset(),
            }),
        });
        for cut in 0..payload.len() {
            assert!(decode_request(kind, &payload[..cut]).is_err(), "cut {cut}");
            // The peek must also survive every truncation.
            let _ = peek_frame(kind, &payload[..cut]);
        }
    }

    #[test]
    fn peek_frame_sees_through_wrappers() {
        // Plain request: nothing but the kind.
        let (kind, payload) = encode_request(&Request::Catalog);
        let peek = peek_frame(kind, &payload);
        assert_eq!(
            peek,
            FramePeek {
                tag: None,
                kind: super::K_CATALOG,
                tenant: None
            }
        );

        // Tenant-tagged request.
        let (kind, payload) = encode_request(&Request::Tenant {
            tenant: "acme".into(),
            inner: Box::new(Request::Store {
                name: "t".into(),
                data: sample_dataset(),
            }),
        });
        let peek = peek_frame(kind, &payload);
        assert_eq!(peek.tag, None);
        assert_eq!(peek.kind, super::K_STORE);
        assert_eq!(peek.tenant.as_deref(), Some("acme"));

        // Pipelined{Tenant{Traced{Execute}}}: tag, tenant, and the
        // classification kind is the traced wrapper (ops-visible as a
        // traced request, same as peek_pipelined reported before).
        let ds = sample_dataset();
        let plan = Plan::scan("t", ds.schema().clone()).limit(2);
        let (kind, payload) = encode_request(&Request::Pipelined {
            tag: 0xFEED,
            inner: Box::new(Request::Tenant {
                tenant: "acme".into(),
                inner: Box::new(Request::Traced {
                    trace_id: 7,
                    inner: Box::new(Request::Execute { plan }),
                }),
            }),
        });
        let peek = peek_frame(kind, &payload);
        assert_eq!(peek.tag, Some(0xFEED));
        assert_eq!(peek.kind, super::K_TRACED);
        assert_eq!(peek.tenant.as_deref(), Some("acme"));

        // Malformed pipelined prefix: graceful fallback to the outer kind.
        let peek = peek_frame(super::K_PIPELINED, &[0; 8]);
        assert_eq!(
            peek,
            FramePeek {
                tag: None,
                kind: super::K_PIPELINED,
                tenant: None
            }
        );
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
        // 0x03 and 0x09 were retired request kinds: refused, not aliased.
        for kind in [0x03, 0x09, 0x7E] {
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
