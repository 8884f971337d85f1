//! The traced pass: per-layer numbers taken purely from outside, by
//! timing calls into each crate's public functions.
//!
//! Three kinds of metric come out of it (the README lists which is which):
//!
//! * **op-stage** metrics replay *this workload's own operation* — its
//!   plan, its request frames, its answer — stage by stage against
//!   in-process engines holding the same tables, and against the real
//!   child for the round trip;
//! * **fixed-input probes** time one layer on one named input taken from
//!   the workload generators at the same seed, whatever workload is
//!   running, so every timing metric is really measured in every run;
//! * the **recovery drill** (`run::recovery_drill`, shared with the
//!   untraced run) gives the fsync and record counts per store.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bda_core::codec::{decode_plan, encode_plan};
use bda_core::{infer_schema, CapabilitySet, CoreError, Plan, Provider};
use bda_durability::record::{encode_op, WalOp};
use bda_durability::{DiskFaults, DurableProvider, FsyncPolicy};
use bda_federation::optimize::optimize_with_stats;
use bda_federation::{executor, Federation, Planner};
use bda_linalg::LinAlgEngine;
use bda_net::frame::{parse_message, read_message, write_message};
use bda_net::proto::{decode_request, decode_response, encode_request, encode_response};
use bda_net::{
    PipelinedClient, RemoteProvider, Request, RequestHandler, Response, MAX_MESSAGE_BYTES,
};
use bda_obs::MetricsHub;
use bda_reactor::{classify, Admission, AdmissionConfig, ReactorOptions};
use bda_relational::RelationalEngine;
use bda_storage::wire::{decode_dataset, encode_dataset};
use bda_storage::{DataSet, IndexSpec, Schema, SecondaryIndex};

use crate::fleet::{self, ServerSpec, WorkDir};
use crate::run::{self, Checker, Drill, Live, Oracle, Settings, Tally, Window};
use crate::stats;
use crate::trace::{self, Recorder};
use crate::workloads::{self, Kind, OpStream, QueryOp, Scale, Table};

/// Per-layer metrics, in print order: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("lang.parse_us", "us"),
    ("core.infer_schema_us", "us"),
    ("core.codec.encode_plan_us", "us"),
    ("core.codec.decode_plan_us", "us"),
    ("core.codec.plan_bytes", "bytes"),
    ("federation.optimize_us", "us"),
    ("federation.place_us", "us"),
    ("federation.self_us", "us"),
    ("federation.iterate_round_us", "us"),
    ("federation.fragments_per_op", "count"),
    ("federation.messages_per_op", "count"),
    ("federation.retries_per_op", "count"),
    ("net.proto.encode_request_us", "us"),
    ("net.proto.decode_request_us", "us"),
    ("net.proto.encode_response_us", "us"),
    ("net.proto.decode_response_us", "us"),
    ("net.frame.write_us", "us"),
    ("net.frame.parse_us", "us"),
    ("net.handler.handle_frame_us", "us"),
    ("net.client.roundtrip_us", "us"),
    ("net.server.overhead_us", "us"),
    ("net.push_mib_s", "MiB/s"),
    ("reactor.overhead_us", "us"),
    ("reactor.pipelined_roundtrip_us", "us"),
    ("reactor.admission.submit_next_ns", "ns"),
    ("storage.wire.encode_mib_s", "MiB/s"),
    ("storage.wire.decode_mib_s", "MiB/s"),
    ("storage.wire.dense_encode_mib_s", "MiB/s"),
    ("storage.wire.dense_decode_mib_s", "MiB/s"),
    ("storage.wire.result_bytes", "bytes"),
    ("storage.index.build_rows_s", "1/s"),
    ("engine.execute_us", "us"),
    ("relational.execute_us", "us"),
    ("relational.scan_filter_rows_s", "1/s"),
    ("relational.hash_join_rows_s", "1/s"),
    ("relational.aggregate_rows_s", "1/s"),
    ("relational.index_lookup_us", "us"),
    ("relational.store_rows_s", "1/s"),
    ("linalg.execute_us", "us"),
    ("linalg.matmul_gflops", "GFLOP/s"),
    ("linalg.matvec_us", "us"),
    ("linalg.values_to_matrix_us", "us"),
    ("durability.record.encode_mib_s", "MiB/s"),
    ("durability.crc.mib_s", "MiB/s"),
    ("durability.wal.append_us", "us"),
    ("durability.wal.append_fsync_us", "us"),
    ("durability.provider.store_us", "us"),
    ("durability.provider.store_nofsync_us", "us"),
    ("durability.fsyncs_per_store", "count"),
    ("durability.wal_records_per_store", "count"),
    ("durability.snapshots_in_window", "count"),
    ("durability.snapshot.write_mib_s", "MiB/s"),
    ("durability.snapshot.load_mib_s", "MiB/s"),
    ("durability.replay_mib_s", "MiB/s"),
    ("obs.traced_overhead_frac", "fraction"),
    ("client.latency_p95_ms", "ms"),
    ("client.latency_p99_ms", "ms"),
    ("fleet.cpu_ms_per_op", "ms"),
    ("bench.trace_overhead_frac", "fraction"),
    ("bench.unattributed_frac", "fraction"),
];

pub struct Traced {
    pub metrics: Vec<(&'static str, f64)>,
    pub tally: Tally,
    pub notes: Vec<String>,
    /// The recovery drill's end-to-end half, for a run that reports both.
    pub drill: Drill,
}

const MIB: f64 = 1024.0 * 1024.0;

/// Median wall time of `f` in µs: at least five calls, then as many as
/// fit the budget, at most `MAX_CALLS`. Fast stages reach the cap (well
/// over 200 calls); a 40 ms engine run gets a handful, and says so.
struct Timing {
    us: f64,
    calls: usize,
}

const MIN_CALLS: usize = 5;
const MAX_CALLS: usize = 1000;

fn time_calls<T>(budget: Duration, mut f: impl FnMut() -> T) -> Timing {
    time_prepared(budget, || (), |()| f())
}

/// [`time_calls`] with an untimed `prepare` step before every call (an
/// input the call consumes, such as the dataset a `store` takes).
fn time_prepared<I, T>(
    budget: Duration,
    mut prepare: impl FnMut() -> I,
    mut f: impl FnMut(I) -> T,
) -> Timing {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MAX_CALLS && (samples.len() < MIN_CALLS || started.elapsed() < budget) {
        let input = prepare();
        let t = Instant::now();
        black_box(f(black_box(input)));
        samples.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Timing {
        us: stats::median(&samples),
        calls: samples.len(),
    }
}

fn mib_per_s(bytes: usize, us: f64) -> f64 {
    bytes as f64 / MIB / (us / 1e6)
}

fn per_s(items: usize, us: f64) -> f64 {
    items as f64 / (us / 1e6)
}

/// One provider call the federation made while running a traced op.
#[derive(Clone)]
struct Call {
    provider: String,
    request: Request,
}

/// Decorator around every registered provider: a span per call (so the
/// federation's self time is its wall minus these) and a log of the
/// requests those calls put on the wire (so they can be replayed).
struct TimedProvider {
    inner: Arc<dyn Provider>,
    rec: Recorder,
    calls: Arc<Mutex<Vec<Call>>>,
}

impl TimedProvider {
    fn timed<T>(&self, what: &str, request: Request, f: impl FnOnce() -> T) -> T {
        self.calls.lock().expect("call log poisoned").push(Call {
            provider: self.inner.name().to_string(),
            request,
        });
        self.rec
            .span(&format!("provider.{what}@{}", self.inner.name()), f)
    }
}

impl Provider for TimedProvider {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn capabilities(&self) -> CapabilitySet {
        self.inner.capabilities()
    }
    fn catalog(&self) -> Vec<(String, Schema)> {
        self.timed("catalog", Request::Catalog, || self.inner.catalog())
    }
    fn execute(&self, plan: &Plan) -> Result<DataSet, CoreError> {
        self.timed("execute", Request::Execute { plan: plan.clone() }, || {
            self.inner.execute(plan)
        })
    }
    fn store(&self, name: &str, data: DataSet) -> Result<(), CoreError> {
        let request = Request::Store {
            name: name.to_string(),
            data: data.clone(),
        };
        self.timed("store", request, || self.inner.store(name, data))
    }
    fn remove(&self, name: &str) {
        let request = Request::Remove {
            name: name.to_string(),
        };
        self.timed("remove", request, || self.inner.remove(name))
    }
    fn schema_of(&self, name: &str) -> Option<Schema> {
        self.timed("schema_of", Request::Catalog, || self.inner.schema_of(name))
    }
    fn row_count_of(&self, name: &str) -> Option<usize> {
        self.timed("row_count_of", Request::Catalog, || {
            self.inner.row_count_of(name)
        })
    }
    fn table_stats(&self, name: &str) -> Option<bda_storage::TableStats> {
        self.inner.table_stats(name)
    }
    fn index_specs(&self, dataset: &str) -> Vec<IndexSpec> {
        let request = Request::IndexInfo {
            name: dataset.to_string(),
        };
        self.timed("index_specs", request, || self.inner.index_specs(dataset))
    }
    fn endpoint(&self) -> Option<String> {
        self.inner.endpoint()
    }
    fn execute_push(
        &self,
        plan: &Plan,
        peer_addr: &str,
        dest_name: &str,
    ) -> Option<Result<u64, CoreError>> {
        let request = Request::ExecutePush {
            dest_addr: peer_addr.to_string(),
            dest_name: dest_name.to_string(),
            plan: plan.clone(),
        };
        self.timed("execute_push", request, || {
            self.inner.execute_push(plan, peer_addr, dest_name)
        })
    }
    fn wire_bytes(&self) -> (u64, u64) {
        self.inner.wire_bytes()
    }
}

/// In-process twins of the fleet's servers: the same engines holding the
/// same tables, a `RequestHandler` over each, and each mounted on both
/// serving cores so the two are compared on identical work.
struct Twin {
    name: String,
    engine: Arc<dyn Provider>,
    handler: RequestHandler,
    classic: bda_net::ServerHandle,
    reactor: bda_reactor::ReactorHandle,
    /// Address of the real child this twin mirrors.
    real_addr: String,
}

fn new_engine(spec: &ServerSpec) -> Arc<dyn Provider> {
    match spec.engine {
        "linalg" => Arc::new(LinAlgEngine::new(spec.name)),
        _ => Arc::new(RelationalEngine::new(spec.name)),
    }
}

fn load(engine: &dyn Provider, tables: &[Table], server: &str) -> Result<(), String> {
    for t in tables.iter().filter(|t| t.server == server) {
        engine
            .store(&t.name, t.data.clone())
            .map_err(|e| format!("twin load `{}`: {e}", t.name))?;
        if let Some((column, kind)) = t.index {
            engine
                .build_index(&t.name, column, kind)
                .map_err(|e| format!("twin index `{}`: {e}", t.name))?;
        }
    }
    Ok(())
}

fn twins(live: &Live, tables: &[Table], work: &WorkDir) -> Result<Vec<Twin>, String> {
    let io = |e: std::io::Error| format!("in-process server: {e}");
    live.kind
        .fleet()
        .iter()
        .zip(&live.servers)
        .map(|(spec, server)| {
            let mut engine = new_engine(spec);
            if spec.durable_reactor {
                // The real child logs before it acknowledges; so must its twin.
                let options = bda_durability::Options::new(work.subdir("twin-wal")?);
                engine = Arc::new(
                    DurableProvider::open(engine, options).map_err(|e| format!("twin wal: {e}"))?,
                );
            }
            load(engine.as_ref(), tables, spec.name)?;
            Ok(Twin {
                name: spec.name.to_string(),
                handler: RequestHandler::new(Arc::clone(&engine), MetricsHub::new(), None)
                    .map_err(io)?,
                classic: bda_net::serve(Arc::clone(&engine), "127.0.0.1:0").map_err(io)?,
                reactor: bda_reactor::serve_reactor(
                    Arc::clone(&engine),
                    "127.0.0.1:0",
                    ReactorOptions::default(),
                )
                .map_err(io)?,
                engine,
                real_addr: server.addr.clone(),
            })
        })
        .collect()
}

/// Stage medians of one op, summed over the requests it issued.
#[derive(Default)]
struct Stages {
    encode_request: f64,
    decode_request: f64,
    encode_response: f64,
    decode_response: f64,
    frame_write: f64,
    frame_parse: f64,
    engine: f64,
    handle_frame: f64,
    roundtrip: f64,
    classic_overhead: f64,
    reactor_overhead: f64,
    result_bytes: f64,
    requests: usize,
    fewest_calls: usize,
}

impl Stages {
    /// Time on the op's blocking path that a named stage accounts for.
    fn attributed_us(&self) -> f64 {
        self.encode_request
            + self.frame_write
            + self.frame_parse
            + self.handle_frame
            + self.encode_response
            + self.decode_response
    }
}

/// One framed request/response exchange over a raw socket: what a
/// serving core adds around `handle_frame`, with no client-side codec.
fn raw_roundtrip(conn: &mut TcpStream, kind: u8, payload: &[u8]) -> Result<(), String> {
    write_message(conn, kind, payload)
        .and_then(|_| conn.flush())
        .map_err(|e| format!("raw write: {e}"))?;
    read_message(conn)
        .map(|_| ())
        .map_err(|e| format!("raw read: {e}"))
}

fn connect_raw(addr: std::net::SocketAddr) -> Result<TcpStream, String> {
    let conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(conn)
}

/// Replay the requests of one op stage by stage. Requests of the same
/// shape (same server, kind and size — the 24 rounds of an iteration) are
/// replayed once and counted as many times as they occurred.
fn replay(
    calls: &[Call],
    twins: &[Twin],
    live: &Live,
    budget: Duration,
    rec: &Recorder,
) -> Result<Stages, String> {
    // (first call of the shape, its kind byte, its payload length, count)
    let mut groups: Vec<(Call, u8, usize, usize)> = Vec::new();
    for call in calls {
        let (kind, payload) = encode_request(&call.request);
        match groups.iter_mut().find(|(c, k, len, _)| {
            c.provider == call.provider && *k == kind && *len == payload.len()
        }) {
            Some(group) => group.3 += 1,
            None => groups.push((call.clone(), kind, payload.len(), 1)),
        }
    }
    let mut s = Stages::default();
    let mut fewest_calls = usize::MAX;
    let mut cursor = rec.now_ns();
    for (call, _, _, count) in &groups {
        let twin = twins
            .iter()
            .find(|t| t.name == call.provider)
            .ok_or_else(|| format!("no twin for `{}`", call.provider))?;
        let remote = live.remote(&call.provider)?;
        // A push replayed in-process must land on the in-process peer.
        let local_request = match &call.request {
            Request::ExecutePush {
                dest_addr,
                dest_name,
                plan,
            } => Request::ExecutePush {
                dest_addr: twins
                    .iter()
                    .find(|t| &t.real_addr == dest_addr)
                    .map_or_else(|| dest_addr.clone(), |t| t.classic.addr().to_string()),
                dest_name: dest_name.clone(),
                plan: plan.clone(),
            },
            other => other.clone(),
        };
        let n = *count as f64;
        // A replayed stage becomes a span carrying its median (times the
        // number of same-shaped requests), laid end to end.
        let mut stage = |name: &str, t: Timing| -> f64 {
            fewest_calls = fewest_calls.min(t.calls);
            let ns = (t.us * n * 1e3) as u64;
            rec.record(&format!("{name}@{}", call.provider), cursor, ns);
            cursor += ns;
            t.us * n
        };
        let (kind, payload) = encode_request(&local_request);
        let mut frame = Vec::new();
        let req_bytes = write_message(&mut frame, kind, &payload).map_err(|e| e.to_string())?;
        let response = twin.handler.handle_frame(kind, &payload, req_bytes);
        if let Response::Error { msg, .. } = &response {
            return Err(format!(
                "replayed request failed on the twin of `{}`: {msg}",
                call.provider
            ));
        }
        let (rkind, rpayload) = encode_response(&response);
        let mut rframe = Vec::new();
        write_message(&mut rframe, rkind, &rpayload).map_err(|e| e.to_string())?;

        s.encode_request += stage(
            "net.proto.encode_request",
            time_calls(budget, || encode_request(&local_request)),
        );
        s.frame_write += stage(
            "net.frame.write",
            time_calls(budget, || {
                let mut out = Vec::with_capacity(frame.len() + rframe.len());
                let _ = write_message(&mut out, kind, &payload);
                let _ = write_message(&mut out, rkind, &rpayload);
                out
            }),
        );
        s.frame_parse += stage(
            "net.frame.parse",
            time_calls(budget, || {
                (
                    parse_message(&frame, MAX_MESSAGE_BYTES).map(|m| m.is_some()),
                    parse_message(&rframe, MAX_MESSAGE_BYTES).map(|m| m.is_some()),
                )
            }),
        );
        s.decode_request += stage(
            "net.proto.decode_request",
            time_calls(budget, || decode_request(kind, &payload).is_ok()),
        );
        let engine_time = match &local_request {
            Request::Execute { plan } | Request::ExecutePush { plan, .. } => {
                time_calls(budget, || twin.engine.execute(plan).is_ok())
            }
            Request::Store { name, data } => time_prepared(
                budget,
                || data.clone(),
                |data| twin.engine.store(name, data).is_ok(),
            ),
            Request::Remove { name } => time_calls(budget, || twin.engine.remove(name)),
            _ => time_calls(budget, || twin.engine.catalog().len()),
        };
        s.engine += stage("engine.execute", engine_time);
        s.encode_response += stage(
            "net.proto.encode_response",
            time_calls(budget, || encode_response(&response)),
        );
        s.decode_response += stage(
            "net.proto.decode_response",
            time_calls(budget, || decode_response(rkind, &rpayload).is_ok()),
        );
        s.handle_frame += stage(
            "net.handler.handle_frame",
            time_calls(budget, || {
                twin.handler.handle_frame(kind, &payload, req_bytes)
            }),
        );
        // What each serving core adds around the handler: the same frame
        // over a loopback socket minus the bare handler, the three timed
        // back to back so that drift cancels in the per-round difference.
        let mut classic = connect_raw(twin.classic.addr())?;
        let mut reactor = connect_raw(twin.reactor.addr())?;
        raw_roundtrip(&mut classic, kind, &payload)?;
        raw_roundtrip(&mut reactor, kind, &payload)?;
        let (mut over_classic, mut over_reactor) = (Vec::new(), Vec::new());
        let started = Instant::now();
        while over_classic.len() < MAX_CALLS
            && (over_classic.len() < MIN_CALLS || started.elapsed() < budget * 3)
        {
            let t0 = Instant::now();
            black_box(twin.handler.handle_frame(kind, &payload, req_bytes));
            let t1 = Instant::now();
            raw_roundtrip(&mut classic, kind, &payload)?;
            let t2 = Instant::now();
            raw_roundtrip(&mut reactor, kind, &payload)?;
            let t3 = Instant::now();
            let us = |d: Duration| d.as_nanos() as f64 / 1e3;
            over_classic.push(us(t2 - t1) - us(t1 - t0));
            over_reactor.push(us(t3 - t2) - us(t1 - t0));
        }
        s.classic_overhead += stats::median(&over_classic) * n;
        s.reactor_overhead += stats::median(&over_reactor) * n;
        s.roundtrip += stage(
            "net.client.roundtrip",
            time_calls(budget, || remote.request(&call.request).is_ok()),
        );
        if matches!(response, Response::DataSet(_)) {
            s.result_bytes += rpayload.len() as f64 * n;
        }
        s.requests += count;
    }
    s.fewest_calls = fewest_calls;
    Ok(s)
}

/// One traced op through the federation, taken apart the way `run_plan`
/// puts it together: parse, optimize, place, execute.
struct OpTrace {
    wall_us: f64,
    parse_us: f64,
    optimize_us: f64,
    place_us: f64,
    federation_self_us: f64,
    fragments: f64,
    messages: f64,
    retries: f64,
    plan: Plan,
    calls: Vec<Call>,
}

/// What a traced op runs against.
struct TraceCtx<'a> {
    kind: Kind,
    fed: &'a Federation,
    schemas: &'a HashMap<String, Schema>,
    rec: &'a Recorder,
    calls: &'a Arc<Mutex<Vec<Call>>>,
}

fn traced_query(
    ctx: &TraceCtx<'_>,
    op: &QueryOp,
    checker: &mut Checker<'_>,
    tally: &mut Tally,
) -> Result<OpTrace, String> {
    let (rec, calls) = (ctx.rec, ctx.calls);
    calls.lock().expect("call log poisoned").clear();
    let first_span = rec.len();
    let started = Instant::now();
    let outcome = rec.span("op", || -> Result<_, String> {
        let plan = rec.span("lang.parse", || {
            workloads::build_plan(ctx.kind, op, ctx.schemas)
        })?;
        let opts = run::exec_options(ctx.kind);
        let registry = ctx.fed.registry();
        let (optimized, _) = rec.span("federation.optimize", || {
            optimize_with_stats(&plan, opts.optimizer, &|name| registry.table_stats(name))
        });
        let placement = rec
            .span("federation.place", || {
                Planner::new(registry)
                    .with_workers(opts.workers)
                    .with_stats(opts.optimizer.use_stats)
                    .place(&optimized)
            })
            .map_err(|e| format!("place: {e}"))?;
        let (answer, metrics) = rec
            .span("federation.execute", || {
                executor::execute_placement(registry, &placement, &opts)
            })
            .map_err(|e| format!("execute: {e}"))?;
        Ok((plan, answer, metrics))
    });
    let wall_us = started.elapsed().as_nanos() as f64 / 1e3;
    tally.attempted += 1;
    let (plan, answer, metrics) = match outcome {
        Ok(parts) => parts,
        Err(e) => {
            tally.failed += 1;
            tally.first_problem.get_or_insert(e.clone());
            return Err(e);
        }
    };
    if let Err(e) = checker.check(op, &answer) {
        tally.wrong += 1;
        tally.first_problem.get_or_insert(e);
    }
    let spans = rec.spans_since(first_span);
    let selfs = trace::self_times(&spans);
    let total = |prefix: &str, values: &dyn Fn(usize) -> u64| -> f64 {
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name.starts_with(prefix))
            .map(|(i, _)| values(i) as f64 / 1e3)
            .sum()
    };
    let duration = |i: usize| spans[i].duration_ns();
    let self_time = |i: usize| selfs[i];
    Ok(OpTrace {
        wall_us,
        parse_us: total("lang.parse", &duration),
        optimize_us: total("federation.optimize", &duration),
        place_us: total("federation.place", &duration),
        federation_self_us: total("federation.", &self_time),
        fragments: metrics.fragments as f64,
        messages: metrics.messages as f64,
        retries: metrics.retries as f64,
        plan,
        calls: calls.lock().expect("call log poisoned").clone(),
    })
}

/// The traced pass against a live, loaded fleet.
pub fn traced_pass(
    kind: Kind,
    settings: &Settings,
    live: Live,
    tables: &[Table],
    oracle: &Oracle,
    work: &WorkDir,
) -> Result<Traced, String> {
    let rec = Recorder::new();
    let mut notes = Vec::new();
    let mut tally = Tally::default();
    let mut out: HashMap<&'static str, f64> = HashMap::new();
    let budget = Duration::from_secs_f64(settings.seconds * 0.006);
    let pool = workloads::store_pool(settings.seed, settings.scale);
    let durable_remote = (kind == Kind::IngestMixed)
        .then(|| live.remote("rel"))
        .transpose()?;
    let scrape = |remote: Option<&Arc<RemoteProvider>>| -> String {
        remote
            .and_then(|r| r.metrics_text().ok())
            .unwrap_or_default()
    };

    // 1. An untraced one-client loop: the latency the traced loop and the
    //    stage sums are compared with. (`point_lookup`'s gated metric uses
    //    two clients; a share of *its* latency is queueing, not stages.)
    let metrics_before = scrape(durable_remote);
    let cpu_before = live.cpu_ms()?;
    let window = Window::starting_after(settings.warmup() / 2, settings.seconds * 0.25);
    let untraced = if kind == Kind::IngestMixed {
        serial_stores(live.remote("rel")?.as_ref(), &pool, window)
    } else {
        let fed = live.federation();
        let mut checker = Checker::new(oracle);
        let stream = OpStream::new(kind, settings.seed, 0, settings.scale);
        run::query_client(kind, &fed, &live.schemas, stream, &mut checker, window)
    };
    let cpu_ms = live.cpu_ms()? - cpu_before;
    let snapshots = fleet::metric_value(&scrape(durable_remote), "bda_durability_snapshots_total")
        - fleet::metric_value(&metrics_before, "bda_durability_snapshots_total");
    let base = stats::window_stats(&untraced.samples, window.nanos(), 1);
    out.insert("client.latency_p95_ms", base.p95_ms);
    out.insert("client.latency_p99_ms", base.p99_ms);
    out.insert(
        "fleet.cpu_ms_per_op",
        cpu_ms / untraced.attempted.max(1) as f64,
    );
    out.insert("durability.snapshots_in_window", snapshots);
    let untraced_us = base.p50_ms * 1e3;
    tally.absorb(untraced);

    // 2. Traced ops: the same loop with a span around every call into a layer.
    let calls = Arc::new(Mutex::new(Vec::new()));
    let timed = live.remotes.iter().map(|r| {
        Arc::new(TimedProvider {
            inner: Arc::clone(r) as Arc<dyn Provider>,
            rec: rec.clone(),
            calls: Arc::clone(&calls),
        }) as Arc<dyn Provider>
    });
    let fed = run::federation_over(kind, timed);
    let ctx = TraceCtx {
        kind,
        fed: &fed,
        schemas: &live.schemas,
        rec: &rec,
        calls: &calls,
    };
    let mut checker = Checker::new(oracle);
    let mut stream = OpStream::new(kind, settings.seed, 0, settings.scale);
    let mut traces: Vec<OpTrace> = Vec::new();
    let until = Instant::now() + Duration::from_secs_f64(settings.seconds * 0.15);
    while traces.len() < MIN_CALLS || Instant::now() < until {
        rec.set_op(traces.len() as u64);
        let op = stream.next_op();
        match traced_query(&ctx, &op, &mut checker, &mut tally) {
            Ok(t) => traces.push(t),
            Err(e) => return Err(format!("traced op failed: {e}")),
        }
    }
    let med =
        |f: &dyn Fn(&OpTrace) -> f64| stats::median(&traces.iter().map(f).collect::<Vec<_>>());
    let last = traces.last().expect("at least one traced op");
    out.insert("lang.parse_us", med(&|t| t.parse_us));
    out.insert("federation.optimize_us", med(&|t| t.optimize_us));
    out.insert("federation.place_us", med(&|t| t.place_us));
    out.insert("federation.self_us", med(&|t| t.federation_self_us));
    out.insert("federation.fragments_per_op", last.fragments);
    out.insert("federation.messages_per_op", last.messages);
    out.insert("federation.retries_per_op", last.retries);
    let mut traced_us = med(&|t| t.wall_us);

    // On `ingest_mixed` the primary op is the store, which never enters
    // the federation: the queries above fill the plan-level metrics, and
    // a traced depth-1 store loop gives the request-level chain.
    let mut primary_calls = last.calls.clone();
    if kind == Kind::IngestMixed {
        let remote = TimedProvider {
            inner: Arc::clone(live.remote("rel")?) as Arc<dyn Provider>,
            rec: rec.clone(),
            calls: Arc::clone(&calls),
        };
        let mut walls = Vec::new();
        for i in 0..(MIN_CALLS as u64 * 4) {
            calls.lock().expect("call log poisoned").clear();
            rec.set_op(traces.len() as u64 + i);
            let (name, data) = (
                workloads::store_name(i),
                pool[i as usize % pool.len()].clone(),
            );
            let started = Instant::now();
            let stored = rec.span("op", || remote.store(&name, data));
            walls.push(started.elapsed().as_nanos() as f64 / 1e3);
            tally.attempted += 1;
            if let Err(e) = stored {
                tally.failed += 1;
                tally
                    .first_problem
                    .get_or_insert(format!("traced store: {e}"));
            }
        }
        traced_us = stats::median(&walls);
        primary_calls = calls.lock().expect("call log poisoned").clone();
    }

    // 3. Plan-level stages of this workload's own plan.
    let shipped = primary_calls
        .iter()
        .chain(&last.calls)
        .filter_map(|c| match &c.request {
            Request::Execute { plan } | Request::ExecutePush { plan, .. } => Some(plan.clone()),
            _ => None,
        })
        .max_by_key(|p| encode_plan(p).len())
        .unwrap_or_else(|| last.plan.clone());
    let plan_bytes = encode_plan(&shipped);
    out.insert(
        "core.infer_schema_us",
        time_calls(budget, || infer_schema(&last.plan).is_ok()).us,
    );
    out.insert(
        "core.codec.encode_plan_us",
        time_calls(budget, || encode_plan(&shipped)).us,
    );
    out.insert(
        "core.codec.decode_plan_us",
        time_calls(budget, || decode_plan(&plan_bytes).is_ok()).us,
    );
    out.insert("core.codec.plan_bytes", plan_bytes.len() as f64);

    // 4. Request-level stage replay of this workload's own op.
    let twins = twins(&live, tables, work)?;
    let stages = rec.span("replay", || {
        replay(&primary_calls, &twins, &live, budget, &rec)
    })?;
    out.insert("net.proto.encode_request_us", stages.encode_request);
    out.insert("net.proto.decode_request_us", stages.decode_request);
    out.insert("net.proto.encode_response_us", stages.encode_response);
    out.insert("net.proto.decode_response_us", stages.decode_response);
    out.insert("net.frame.write_us", stages.frame_write);
    out.insert("net.frame.parse_us", stages.frame_parse);
    out.insert("net.handler.handle_frame_us", stages.handle_frame);
    out.insert("net.client.roundtrip_us", stages.roundtrip);
    out.insert("net.server.overhead_us", stages.classic_overhead);
    out.insert("reactor.overhead_us", stages.reactor_overhead);
    out.insert("storage.wire.result_bytes", stages.result_bytes);
    out.insert("engine.execute_us", stages.engine);
    let client_side = if kind == Kind::IngestMixed {
        0.0
    } else {
        out["lang.parse_us"] + out["federation.self_us"]
    };
    let attributed = client_side + stages.attributed_us();
    out.insert("bench.trace_overhead_frac", traced_us / untraced_us - 1.0);
    out.insert("bench.unattributed_frac", 1.0 - attributed / untraced_us);
    notes.push(format!(
        "traced pass: untraced one-client p50 {:.3} us over {} ops, traced p50 {:.3} us over {} ops; \
         the op issues {} requests; blocking-path stages sum to {:.3} us (engine {:.3} us); \
         slowest replayed stage got {} calls",
        untraced_us,
        base.count,
        traced_us,
        traces.len(),
        stages.requests,
        attributed,
        stages.engine,
        stages.fewest_calls,
    ));
    drop(twins);

    // 5. Fixed-input probes and the recovery drill (the same in every workload's run).
    fixed_probes(settings, budget, work, &mut out, &mut notes)?;
    drop(live);
    let drill = run::recovery_drill(settings, work, &mut tally, &mut notes)?;
    out.insert("durability.fsyncs_per_store", drill.fsyncs_per_store);
    out.insert(
        "durability.wal_records_per_store",
        drill.wal_records_per_store,
    );

    let path = settings.out.join(format!("trace-{}.json", kind.name()));
    rec.write_chrome(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    notes.push(format!("{} spans written to {}", rec.len(), path.display()));

    let metrics = PER_LAYER
        .iter()
        .map(|(name, _)| {
            out.get(name)
                .map(|v| (*name, *v))
                .ok_or_else(|| format!("traced pass produced no `{name}`"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Traced {
        metrics,
        tally,
        notes,
        drill,
    })
}

/// Depth-1 stores over one `RemoteProvider` connection until the window closes.
fn serial_stores(remote: &RemoteProvider, pool: &[DataSet], window: Window) -> Tally {
    let mut tally = Tally::default();
    let mut i = 0u64;
    while Instant::now() < window.close {
        let data = pool[i as usize % pool.len()].clone();
        let started = Instant::now();
        let outcome = remote.store(&workloads::store_name(i), data);
        let done = Instant::now();
        tally.attempted += 1;
        match outcome {
            Ok(()) => tally.samples.extend(window.sample(started, done)),
            Err(e) => {
                tally.failed += 1;
                tally.first_problem.get_or_insert(format!("store: {e}"));
            }
        }
        i += 1;
    }
    tally
}

fn parse(text: &str, schemas: &HashMap<String, Schema>) -> Result<Plan, String> {
    bda_lang::parse_query(text, schemas).map_err(|e| format!("parse `{text}`: {e}"))
}

/// One layer, one named input, the same in every workload's traced run.
fn fixed_probes(
    settings: &Settings,
    budget: Duration,
    work: &WorkDir,
    out: &mut HashMap<&'static str, f64>,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let (seed, scale) = (settings.seed, settings.scale);
    let core_err = |e: CoreError| e.to_string();

    // storage: the wire codec on a stored row chunk and on a dense
    // operand; the hash-index build on `events`.
    let pool = workloads::store_pool(seed, scale);
    let rows_bytes = encode_dataset(&pool[0]);
    out.insert(
        "storage.wire.encode_mib_s",
        mib_per_s(
            rows_bytes.len(),
            time_calls(budget, || encode_dataset(&pool[0])).us,
        ),
    );
    out.insert(
        "storage.wire.decode_mib_s",
        mib_per_s(
            rows_bytes.len(),
            time_calls(budget, || decode_dataset(&rows_bytes).is_ok()).us,
        ),
    );
    let cross = workloads::cross_tables(seed, scale);
    let dense_bytes = encode_dataset(&cross[0].data);
    out.insert(
        "storage.wire.dense_encode_mib_s",
        mib_per_s(
            dense_bytes.len(),
            time_calls(budget, || encode_dataset(&cross[0].data)).us,
        ),
    );
    out.insert(
        "storage.wire.dense_decode_mib_s",
        mib_per_s(
            dense_bytes.len(),
            time_calls(budget, || decode_dataset(&dense_bytes).is_ok()).us,
        ),
    );
    let events = workloads::events_table(seed, scale);
    let (column, index_kind) = events.index.expect("events is indexed");
    let spec = IndexSpec {
        column: column.to_string(),
        kind: index_kind,
    };
    let build = time_calls(budget, || {
        SecondaryIndex::build(&events.data, spec.clone()).is_ok()
    });
    out.insert(
        "storage.index.build_rows_s",
        per_s(events.data.num_rows(), build.us),
    );

    // relational: the star join and its single-operator pieces, the
    // indexed lookup, and a raw store (zone maps included).
    let star = workloads::star_tables(seed, scale);
    let star_schemas = workloads::schemas_of(&star);
    let rel = RelationalEngine::new("rel");
    load(&rel, &star, "rel")?;
    load(&rel, std::slice::from_ref(&events), "rel")?;
    let sales_rows = star[0].data.num_rows();
    let run = |text: &str, schemas: &HashMap<String, Schema>| -> Result<Timing, String> {
        let plan = parse(text, schemas)?;
        rel.execute(&plan).map_err(core_err)?;
        Ok(time_calls(budget, || rel.execute(&plan).is_ok()))
    };
    let whole = run(&workloads::star_query(0), &star_schemas)?;
    out.insert("relational.execute_us", whole.us);
    out.insert(
        "relational.scan_filter_rows_s",
        per_s(
            sales_rows,
            run("scan sales | where quantity >= 5", &star_schemas)?.us,
        ),
    );
    out.insert(
        "relational.hash_join_rows_s",
        per_s(
            sales_rows,
            run(
                "scan sales | join (scan customers) on customer_id = customer_id",
                &star_schemas,
            )?
            .us,
        ),
    );
    out.insert(
        "relational.aggregate_rows_s",
        per_s(
            sales_rows,
            run(
                "scan sales | groupby store_id: sum(amount) as total, count(*) as n",
                &star_schemas,
            )?
            .us,
        ),
    );
    let events_schemas = workloads::schemas_of(std::slice::from_ref(&events));
    let mut keys = OpStream::new(Kind::PointLookup, seed, 0, scale);
    out.insert(
        "relational.index_lookup_us",
        run(&keys.next_op().text, &events_schemas)?.us,
    );
    let stored = time_prepared(
        budget,
        || star[0].data.clone(),
        |data| rel.store("sales_copy", data).is_ok(),
    );
    out.insert("relational.store_rows_s", per_s(sales_rows, stored.us));
    notes.push(format!(
        "relational.execute_us is the median of {} in-process runs of star_join's first variant",
        whole.calls
    ));

    // linalg: the cross_engine matmul, and one iterate_power round with
    // its state inlined as `Values` (and that literal alone).
    let la = LinAlgEngine::new("la");
    load(&la, &cross, "la")?;
    let cross_schemas = workloads::schemas_of(&cross);
    let matmul = parse("scan a | matmul (scan b)", &cross_schemas)?;
    la.execute(&matmul).map_err(core_err)?;
    let mm = time_calls(budget, || la.execute(&matmul).is_ok());
    let n = scale.matrix_side() as f64;
    out.insert("linalg.execute_us", mm.us);
    out.insert("linalg.matmul_gflops", 2.0 * n * n * n / (mm.us * 1e3));
    let iterate = workloads::iterate_tables(seed, scale);
    let iterate_schemas = workloads::schemas_of(&iterate);
    load(&la, &iterate, "la")?;
    let la: Arc<dyn Provider> = Arc::new(la);
    let round_calls = Arc::new(Mutex::new(Vec::new()));
    let fed = run::federation_over(
        Kind::IteratePower,
        std::iter::once(Arc::new(TimedProvider {
            inner: Arc::clone(&la),
            rec: Recorder::new(),
            calls: Arc::clone(&round_calls),
        }) as Arc<dyn Provider>),
    );
    let iterate_plan = workloads::iterate_plan(&iterate_schemas)?;
    fed.run(&iterate_plan).map_err(core_err)?;
    let round = round_calls
        .lock()
        .expect("call log poisoned")
        .iter()
        .rev()
        .find_map(|c| match &c.request {
            Request::Execute { plan } => Some(plan.clone()),
            _ => None,
        })
        .ok_or("the iterate plan shipped no round")?;
    out.insert(
        "linalg.matvec_us",
        time_calls(budget, || la.execute(&round).is_ok()).us,
    );
    let literal = find_values(&round).ok_or("the shipped round inlines no Values literal")?;
    out.insert(
        "linalg.values_to_matrix_us",
        time_calls(budget, || la.execute(&literal).is_ok()).us,
    );
    let whole = time_calls(budget, || fed.run(&iterate_plan).is_ok());
    out.insert(
        "federation.iterate_round_us",
        whole.us / Scale::ITERATE_ROUNDS as f64,
    );

    // net: payload rate of a direct server-to-server push (a bare scan of
    // `a`, so no compute hides in it) between two in-process servers.
    let io = |e: std::io::Error| e.to_string();
    let rel_peer: Arc<dyn Provider> = Arc::new(RelationalEngine::new("peer"));
    let la_server = bda_net::serve(Arc::clone(&la), "127.0.0.1:0").map_err(io)?;
    let peer_server = bda_net::serve(rel_peer, "127.0.0.1:0").map_err(io)?;
    let la_remote = RemoteProvider::connect(la_server.addr().to_string()).map_err(core_err)?;
    let scan_a = parse("scan a", &cross_schemas)?;
    let peer_addr = peer_server.addr().to_string();
    let pushed_bytes = la_remote
        .execute_push(&scan_a, &peer_addr, "pushed")
        .ok_or("remote providers push")?
        .map_err(core_err)?;
    let push = time_calls(budget, || {
        la_remote
            .execute_push(&scan_a, &peer_addr, "pushed")
            .map(|r| r.is_ok())
    });
    out.insert("net.push_mib_s", mib_per_s(pushed_bytes as usize, push.us));

    // reactor: per-request time with eight lookups in flight on one
    // pipelined connection, and the admission queue's submit+claim.
    let rel: Arc<dyn Provider> = Arc::new(rel);
    let reactor =
        bda_reactor::serve_reactor(Arc::clone(&rel), "127.0.0.1:0", ReactorOptions::default())
            .map_err(io)?;
    let client = PipelinedClient::connect(&reactor.addr().to_string()).map_err(core_err)?;
    let lookup = Request::Execute {
        plan: parse(&keys.next_op().text, &events_schemas)?,
    };
    let burst = time_calls(budget, || {
        let pending: Vec<_> = (0..Scale::PIPELINE_DEPTH)
            .filter_map(|_| client.send(&lookup).ok())
            .collect();
        pending
            .into_iter()
            .filter_map(|p| p.wait(run::OP_TIMEOUT).ok())
            .count()
    });
    out.insert(
        "reactor.pipelined_roundtrip_us",
        burst.us / Scale::PIPELINE_DEPTH as f64,
    );
    let admission = Admission::new(AdmissionConfig::default());
    let (kind_byte, payload) = encode_request(&lookup);
    let admit = time_prepared(
        budget,
        || bda_reactor::admission::Job {
            shard: 0,
            conn: 1,
            seq: None,
            kind: kind_byte,
            payload: payload.clone(),
            req_bytes: payload.len() as u64,
            tenant: "bench".to_string(),
            priority: classify(kind_byte),
            admitted_at: Instant::now(),
        },
        |job| admission.submit(job).is_ok() && admission.next().is_some(),
    );
    out.insert("reactor.admission.submit_next_ns", admit.us * 1e3);
    drop(client);
    drop(reactor);

    // obs: a live tracer against none, on the in-process point lookup.
    let mut local = Federation::new();
    local.register(Arc::clone(&rel));
    let lookup_plan = parse(&keys.next_op().text, &events_schemas)?;
    let plain = time_calls(budget, || local.run(&lookup_plan).is_ok());
    let traced = time_calls(budget, || {
        local
            .run_traced(&lookup_plan, &bda_obs::Tracer::new(seed))
            .is_ok()
    });
    out.insert("obs.traced_overhead_frac", traced.us / plain.us - 1.0);

    durability_probes(&pool, budget, work, out)
}

/// The first `Values` literal in a plan, as a plan of its own.
fn find_values(plan: &Plan) -> Option<Plan> {
    if matches!(plan, Plan::Values { .. }) {
        return Some(plan.clone());
    }
    plan.children().into_iter().find_map(find_values)
}

/// The write path taken apart: record encode, CRC, append without and
/// with fsync, the whole durable store under both policies, snapshot
/// write and load, and log replay.
fn durability_probes(
    pool: &[DataSet],
    budget: Duration,
    work: &WorkDir,
    out: &mut HashMap<&'static str, f64>,
) -> Result<(), String> {
    let dur = |e: CoreError| e.to_string();
    let op = |i: usize| WalOp::Store {
        name: workloads::store_name(i as u64),
        data: pool[i % pool.len()].clone(),
    };
    let record = encode_op(&op(0));
    out.insert(
        "durability.record.encode_mib_s",
        mib_per_s(
            record.len(),
            time_prepared(budget, || op(0), |op| encode_op(&op)).us,
        ),
    );
    out.insert(
        "durability.crc.mib_s",
        mib_per_s(
            record.len(),
            time_calls(budget, || bda_durability::crc::crc32(&record)).us,
        ),
    );
    let mut replay_dir = None;
    for (metric, policy) in [
        ("durability.wal.append_us", FsyncPolicy::Never),
        ("durability.wal.append_fsync_us", FsyncPolicy::Always),
    ] {
        let dir = work.subdir(metric)?;
        let replayed = bda_durability::wal::replay_dir(&dir).map_err(dur)?;
        let mut wal = bda_durability::wal::Wal::open(
            &dir,
            &replayed,
            policy,
            DiskFaults::default(),
            MetricsHub::new(),
        )
        .map_err(dur)?;
        let mut i = 0;
        let t = time_prepared(
            budget,
            || {
                i += 1;
                op(i)
            },
            |op| wal.append(&op).is_ok(),
        );
        out.insert(metric, t.us);
        replay_dir.get_or_insert(dir);
    }
    let dir = replay_dir.expect("the append probe ran");
    let log_bytes: u64 = std::fs::read_dir(&dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    let replay = time_calls(budget, || {
        bda_durability::wal::replay_dir(&dir).map(|r| r.records.len())
    });
    out.insert(
        "durability.replay_mib_s",
        mib_per_s(log_bytes as usize, replay.us),
    );

    for (metric, policy) in [
        ("durability.provider.store_nofsync_us", FsyncPolicy::Never),
        ("durability.provider.store_us", FsyncPolicy::Always),
    ] {
        let options = bda_durability::Options::new(work.subdir(metric)?).with_fsync(policy);
        let engine: Arc<dyn Provider> = Arc::new(RelationalEngine::new("probe"));
        let durable = DurableProvider::open(engine, options).map_err(dur)?;
        let mut i = 0u64;
        let t = time_prepared(
            budget,
            || {
                i += 1;
                (
                    workloads::store_name(i),
                    pool[i as usize % pool.len()].clone(),
                )
            },
            |(name, data)| durable.store(&name, data).is_ok(),
        );
        out.insert(metric, t.us);
    }

    let catalog: Vec<(String, DataSet)> = (0..32)
        .map(|i| {
            (
                workloads::store_name(i),
                pool[i as usize % pool.len()].clone(),
            )
        })
        .collect();
    let snap_dir = work.subdir("snapshot-probe")?;
    let mut seq = 0;
    let mut snap_bytes = 0u64;
    let written = time_calls(budget, || {
        seq += 1;
        snap_bytes = bda_durability::snapshot::write_snapshot(
            &snap_dir,
            seq,
            &catalog,
            &[],
            &DiskFaults::default(),
        )
        .unwrap_or(0);
    });
    if snap_bytes == 0 {
        return Err("snapshot probe wrote nothing".into());
    }
    out.insert(
        "durability.snapshot.write_mib_s",
        mib_per_s(snap_bytes as usize, written.us),
    );
    let loaded = time_calls(budget, || {
        bda_durability::snapshot::load_latest(&snap_dir).map(|s| s.is_some())
    });
    out.insert(
        "durability.snapshot.load_mib_s",
        mib_per_s(snap_bytes as usize, loaded.us),
    );
    Ok(())
}
