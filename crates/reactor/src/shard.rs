//! One event-loop shard: a poller, the connections assigned to it, and
//! the non-blocking read/parse/admit and write/flush state machines.
//!
//! A shard never executes a request and never blocks on a peer. It
//! reads whatever bytes are ready, runs the incremental frame parser
//! ([`bda_net::frame::parse_message`]) over its buffer, classifies each
//! complete message by peeking one byte, and hands it to admission. CPU
//! work happens on executor workers; finished responses come back
//! through the shard's completion queue and are flushed as the socket
//! accepts them. The expensive thing a slow or hostile client can pin
//! is therefore a buffer, never a thread.
//!
//! Per-connection discipline:
//!
//! * **Pipelining** — tagged requests complete out of order; untagged
//!   requests get a sequence number at parse time and their responses
//!   are *released in arrival order* (out-of-order completions park in
//!   a BTreeMap), so a classic request/response client sees exactly the
//!   blocking server's behavior.
//! * **Backpressure** — at `max_inflight` admitted requests the shard
//!   stops parsing (bytes stay buffered) and drops read interest;
//!   completions re-arm it. A client that pipelines too deep is paced,
//!   not disconnected.
//! * **Slow-loris reaping** — a connection sitting on an *incomplete*
//!   message with no new bytes for `stall_timeout` is closed. Idle
//!   connections between messages are never reaped (pooled clients park
//!   connections deliberately).
//! * **Shedding** — when admission refuses, the shard immediately
//!   queues a transient error reply (tag echoed for pipelined requests,
//!   sequence slot taken for untagged ones) so the client's retry and
//!   circuit-breaker machinery engages at once.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bda_net::frame::parse_message;
use bda_net::handler::frame_response;
use bda_net::proto::{peek_pipelined, Response};
use bda_net::MAX_MESSAGE_BYTES;
use bda_obs::MetricsHub;
use polling::{Event, Poller};

use crate::admission::{classify, Admission, Job};

/// How long a shard sleeps in `wait` with nothing to do; bounds how
/// stale the stall-reaper can be.
const TICK: Duration = Duration::from_millis(250);

/// Most bytes read from one connection per wakeup, for fairness across
/// a shard's connections (level-triggered polling re-reports the rest).
const READ_BUDGET: usize = 256 * 1024;

/// A finished response on its way back to the connection.
pub(crate) struct Completion {
    /// Shard-local connection key.
    pub conn: u64,
    /// The untagged release slot, `None` for tagged responses.
    pub seq: Option<u64>,
    /// Fully framed wire bytes.
    pub wire: Vec<u8>,
}

/// The shard's cross-thread surface: the acceptor pushes connections,
/// executor workers push completions, everyone notifies the poller.
pub(crate) struct ShardShared {
    pub poller: Arc<Poller>,
    pub incoming: Mutex<Vec<TcpStream>>,
    pub completions: Mutex<Vec<Completion>>,
}

impl ShardShared {
    pub fn new() -> std::io::Result<ShardShared> {
        Ok(ShardShared {
            poller: Arc::new(Poller::new()?),
            incoming: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
        })
    }
}

/// Tuning knobs the server resolves from [`crate::ReactorOptions`].
#[derive(Clone, Copy)]
pub(crate) struct ShardConfig {
    pub max_inflight: usize,
    pub stall_timeout: Duration,
}

struct Conn {
    stream: TcpStream,
    peer: IpAddr,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// How much of `wbuf` is already on the wire.
    woff: usize,
    inflight: usize,
    /// Next sequence number handed to an untagged request.
    next_seq: u64,
    /// Next sequence number allowed onto the wire.
    next_release: u64,
    /// Out-of-order untagged responses awaiting their release slot.
    parked: BTreeMap<u64, Vec<u8>>,
    /// Last time bytes arrived; drives the mid-message stall reaper.
    last_bytes: Instant,
    /// Current poller interest, to skip redundant `modify` calls.
    interest: (bool, bool),
}

impl Conn {
    fn wants(&self, cfg: &ShardConfig) -> (bool, bool) {
        let readable = self.inflight < cfg.max_inflight;
        let writable = self.woff < self.wbuf.len();
        (readable, writable)
    }

    /// Queue framed bytes, honoring the untagged in-order release rule.
    fn deliver(&mut self, seq: Option<u64>, wire: Vec<u8>) {
        match seq {
            None => self.wbuf.extend_from_slice(&wire),
            Some(s) => {
                self.parked.insert(s, wire);
                while let Some(w) = self.parked.remove(&self.next_release) {
                    self.wbuf.extend_from_slice(&w);
                    self.next_release += 1;
                }
            }
        }
    }

    /// Write queued bytes until the socket pushes back. `Err` means the
    /// connection is broken.
    fn flush(&mut self) -> std::io::Result<()> {
        while self.woff < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.woff..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer stopped reading",
                    ))
                }
                Ok(n) => self.woff += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.woff == self.wbuf.len() {
            self.wbuf.clear();
            self.woff = 0;
        }
        Ok(())
    }
}

/// Everything a running shard needs, bundled to keep the thread entry
/// point readable.
pub(crate) struct ShardCtx {
    pub index: usize,
    pub shared: Arc<ShardShared>,
    pub admission: Arc<Admission>,
    pub config: ShardConfig,
    pub metrics: MetricsHub,
    pub live_connections: Arc<AtomicUsize>,
    pub shutdown: Arc<AtomicBool>,
}

/// The shard thread body: loops until shutdown, then closes everything.
pub(crate) fn run(ctx: ShardCtx) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_key: u64 = 0;
    let mut events: Vec<Event> = Vec::new();
    let mut dead: Vec<u64> = Vec::new();
    while !ctx.shutdown.load(Ordering::SeqCst) {
        events.clear();
        let _ = ctx.shared.poller.wait(&mut events, Some(TICK));

        // Adopt connections the acceptor assigned to this shard.
        let fresh: Vec<TcpStream> =
            std::mem::take(&mut *ctx.shared.incoming.lock().expect("incoming poisoned"));
        for stream in fresh {
            let key = next_key;
            next_key += 1;
            if adopt(&ctx, &mut conns, key, stream).is_err() {
                ctx.live_connections.fetch_sub(1, Ordering::SeqCst);
            }
        }

        // Route finished responses back onto their connections.
        let done: Vec<Completion> =
            std::mem::take(&mut *ctx.shared.completions.lock().expect("completions poisoned"));
        for c in done {
            // The connection may have died while its request executed.
            let Some(conn) = conns.get_mut(&c.conn) else {
                continue;
            };
            conn.inflight = conn.inflight.saturating_sub(1);
            conn.deliver(c.seq, c.wire);
            // Capacity freed: buffered bytes may hold parseable
            // messages that were blocked on the inflight cap.
            if drain_rbuf(&ctx, c.conn, conn).is_err() || conn.flush().is_err() {
                dead.push(c.conn);
            }
        }

        // Socket readiness.
        for ev in &events {
            let key = ev.key as u64;
            let Some(conn) = conns.get_mut(&key) else {
                continue;
            };
            let mut broken = false;
            if ev.readable {
                broken = !read_ready(&ctx, key, conn);
            }
            if !broken && ev.writable && conn.flush().is_err() {
                broken = true;
            }
            if broken {
                dead.push(key);
            }
        }

        // Reap mid-message stalls (slow loris): an incomplete message
        // and no bytes for the stall window. Idle connections (empty
        // read buffer) and backpressured ones (inflight work) live on.
        for (key, conn) in conns.iter() {
            if conn.inflight == 0
                && !conn.rbuf.is_empty()
                && conn.last_bytes.elapsed() > ctx.config.stall_timeout
            {
                dead.push(*key);
                ctx.metrics
                    .counter(
                        "bda_reactor_stalled_connections_total",
                        "Connections reaped mid-message by the stall deadline.",
                    )
                    .inc();
            }
        }

        // Close broken connections and refresh interest on the rest.
        dead.sort_unstable();
        dead.dedup();
        for key in dead.drain(..) {
            if let Some(conn) = conns.remove(&key) {
                let _ = ctx.shared.poller.delete(&conn.stream);
                ctx.live_connections.fetch_sub(1, Ordering::SeqCst);
            }
        }
        for (key, conn) in conns.iter_mut() {
            let want = conn.wants(&ctx.config);
            if want != conn.interest {
                let ev = Event {
                    key: *key as usize,
                    readable: want.0,
                    writable: want.1,
                };
                if ctx.shared.poller.modify(&conn.stream, ev).is_ok() {
                    conn.interest = want;
                }
            }
        }
    }
    for (_, conn) in conns.drain() {
        let _ = ctx.shared.poller.delete(&conn.stream);
        ctx.live_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

fn adopt(
    ctx: &ShardCtx,
    conns: &mut HashMap<u64, Conn>,
    key: u64,
    stream: TcpStream,
) -> std::io::Result<()> {
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)?;
    let peer = stream
        .peer_addr()
        .map(|a| a.ip())
        .unwrap_or(IpAddr::V4(Ipv4Addr::UNSPECIFIED));
    ctx.shared
        .poller
        .add(&stream, Event::readable(key as usize))?;
    conns.insert(
        key,
        Conn {
            stream,
            peer,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            woff: 0,
            inflight: 0,
            next_seq: 0,
            next_release: 0,
            parked: BTreeMap::new(),
            last_bytes: Instant::now(),
            interest: (true, false),
        },
    );
    ctx.metrics
        .counter(
            "bda_reactor_connections_total",
            "Connections adopted by reactor shards.",
        )
        .inc();
    Ok(())
}

/// Read whatever is ready (bounded per wakeup), then parse and admit.
/// Returns `false` when the connection must close.
fn read_ready(ctx: &ShardCtx, key: u64, conn: &mut Conn) -> bool {
    let mut scratch = [0u8; 16 * 1024];
    let mut taken = 0usize;
    loop {
        if taken >= READ_BUDGET {
            break; // stay fair: the poller will re-report the rest
        }
        match conn.stream.read(&mut scratch) {
            Ok(0) => return false, // peer closed
            Ok(n) => {
                conn.rbuf.extend_from_slice(&scratch[..n]);
                conn.last_bytes = Instant::now();
                taken += n;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    drain_rbuf(ctx, key, conn).is_ok()
}

/// Parse complete messages out of the read buffer and admit them, up to
/// the inflight cap. `Err` means protocol damage: close the connection
/// (a framed stream cannot be resynchronized).
fn drain_rbuf(ctx: &ShardCtx, key: u64, conn: &mut Conn) -> Result<(), ()> {
    let mut consumed = 0usize;
    let outcome = loop {
        if conn.inflight >= ctx.config.max_inflight {
            break Ok(());
        }
        match parse_message(&conn.rbuf[consumed..], MAX_MESSAGE_BYTES) {
            Ok(None) => break Ok(()),
            Ok(Some((kind, payload, used))) => {
                consumed += used;
                admit(ctx, key, conn, kind, payload, used as u64);
            }
            Err(_) => {
                ctx.metrics
                    .counter(
                        "bda_reactor_protocol_errors_total",
                        "Connections dropped for unparseable framing.",
                    )
                    .inc();
                break Err(());
            }
        }
    };
    if consumed > 0 {
        conn.rbuf.drain(..consumed);
    }
    outcome
}

/// Classify, tag, and offer one parsed message to admission; on refusal
/// queue the transient shed reply immediately.
fn admit(ctx: &ShardCtx, key: u64, conn: &mut Conn, kind: u8, payload: Vec<u8>, req_bytes: u64) {
    let (seq, tag, class_kind) = match peek_pipelined(kind, &payload) {
        Some((tag, inner)) => (None, Some(tag), inner),
        None => {
            let s = conn.next_seq;
            conn.next_seq += 1;
            (Some(s), None, kind)
        }
    };
    let priority = classify(class_kind);
    let job = Job {
        shard: ctx.index,
        conn: key,
        seq,
        kind,
        payload,
        req_bytes,
        tenant: conn.peer.to_string(),
        priority,
        admitted_at: Instant::now(),
    };
    match ctx.admission.submit(job) {
        Ok(()) => conn.inflight += 1,
        Err(job) => {
            ctx.metrics
                .counter_labeled(
                    "bda_reactor_shed_total",
                    &[("class", priority.label()), ("reason", "queue-full")],
                    "Requests refused admission and answered with a transient error.",
                )
                .inc();
            let inner = Response::Error {
                msg: "server overloaded (queue-full): retry with backoff".to_string(),
                transient: true,
            };
            let resp = match tag {
                Some(tag) => Response::Pipelined {
                    tag,
                    inner: Box::new(inner),
                },
                None => inner,
            };
            conn.deliver(job.seq, frame_response(&resp));
            let _ = conn.flush();
        }
    }
}
