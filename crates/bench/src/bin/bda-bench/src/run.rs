//! The untraced run: spawn the fleet, load it over the wire, warm up,
//! drive the closed-loop measured window, verify every answer, and turn
//! the samples into the end-to-end metrics.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bda_core::reference;
use bda_core::{Plan, Provider};
use bda_federation::{ExecOptions, Federation, TransferMode};
use bda_net::{PipelinedClient, RemoteProvider, Request, Response, HEADER_LEN, MAX_FRAME_PAYLOAD};
use bda_storage::{DataSet, Row, Schema};

use crate::fleet::{self, Server, WorkDir};
use crate::stats::{self, Sample, WindowStats};
use crate::verify::{self, Fingerprint};
use crate::workloads::{self, Kind, OpStream, QueryOp, Scale, Table};

/// An operation slower than this counts as failed, whatever it returned.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);
/// The measured window is cut into this many slices.
pub const SLICES: usize = 4;
/// Fleet set-ups per run; `setup_s` is their median.
pub const SETUP_CYCLES: usize = 5;
/// Lookups per client whose answers are also checked against the
/// reference evaluator (every lookup is checked against the generated row).
const LOOKUP_REFERENCE_SAMPLES: usize = 16;

#[derive(Debug, Clone)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub out: PathBuf,
}

impl Settings {
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64(if self.scale.smoke { 0.25 } else { 1.0 })
    }
}

/// A spawned, loaded fleet and the application tier's view of it.
pub struct Live {
    pub kind: Kind,
    pub servers: Vec<Server>,
    pub remotes: Vec<Arc<RemoteProvider>>,
    pub schemas: HashMap<String, Schema>,
}

impl Live {
    pub fn remote(&self, name: &str) -> Result<&Arc<RemoteProvider>, String> {
        self.remotes
            .iter()
            .find(|r| r.name() == name)
            .ok_or_else(|| format!("no server named `{name}` in the fleet"))
    }

    /// The application tier: one `Federation` over the fleet's remotes.
    /// `cross_engine` moves intermediates server-to-server over TCP; the
    /// other fleets have one server, where the mode is moot.
    pub fn federation(&self) -> Federation {
        federation_over(
            self.kind,
            self.remotes
                .iter()
                .map(|r| Arc::clone(r) as Arc<dyn Provider>),
        )
    }

    /// Bytes the application tier put on or took off the wire so far.
    pub fn client_wire_bytes(&self) -> u64 {
        self.remotes
            .iter()
            .map(|r| {
                let (sent, received) = r.wire_bytes();
                sent + received
            })
            .sum()
    }

    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        self.servers.iter().map(Server::peak_rss_mib).sum()
    }

    pub fn cpu_ms(&self) -> Result<f64, String> {
        self.servers.iter().map(Server::cpu_ms).sum()
    }
}

/// Default execution options (read after every `BDA_*` variable is gone),
/// except that `cross_engine` moves intermediates server-to-server.
pub fn exec_options(kind: Kind) -> ExecOptions {
    let mut opts = ExecOptions::default();
    if kind == Kind::CrossEngine {
        opts.transfer = TransferMode::RemoteTcp;
    }
    opts
}

pub fn federation_over(
    kind: Kind,
    providers: impl Iterator<Item = Arc<dyn Provider>>,
) -> Federation {
    let mut fed = Federation::new();
    for p in providers {
        fed.register(p);
    }
    *fed.options_mut() = exec_options(kind);
    fed
}

/// Spawn, load over the wire, build indexes, and wait until every
/// server's catalog shows every dataset and index. Returns the fleet and
/// the seconds that took.
pub fn bring_up(
    kind: Kind,
    tables: &[Table],
    work: &WorkDir,
    cycle: usize,
) -> Result<(Live, f64), String> {
    let payloads: Vec<DataSet> = tables.iter().map(|t| t.data.clone()).collect();
    let started = Instant::now();
    let mut servers = Vec::new();
    let mut data_dir = None;
    for spec in kind.fleet() {
        if spec.durable_reactor {
            data_dir = Some(work.subdir(&format!("wal-{cycle}"))?);
        }
        servers.push(Server::spawn(&spec, data_dir.as_deref())?);
    }
    let remotes = servers
        .iter()
        .map(|s| RemoteProvider::connect(s.addr.clone()).map(Arc::new))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect to fleet: {e}"))?;
    let mut live = Live {
        kind,
        servers,
        remotes,
        schemas: HashMap::new(),
    };
    for (t, data) in tables.iter().zip(payloads) {
        let remote = live.remote(t.server)?;
        remote
            .store(&t.name, data)
            .map_err(|e| format!("load `{}`: {e}", t.name))?;
        if let Some((column, index)) = t.index {
            remote
                .build_index(&t.name, column, index)
                .map_err(|e| format!("index `{}.{column}`: {e}", t.name))?;
        }
    }
    let deadline = Instant::now() + OP_TIMEOUT;
    while !catalog_complete(&live, tables)? {
        if Instant::now() > deadline {
            return Err("catalog never showed every dataset and index".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let setup_s = started.elapsed().as_secs_f64();
    live.schemas = workloads::schemas_of(tables);
    Ok((live, setup_s))
}

fn catalog_complete(live: &Live, tables: &[Table]) -> Result<bool, String> {
    for t in tables {
        let remote = live.remote(t.server)?;
        let entries = remote
            .catalog_entries()
            .map_err(|e| format!("catalog: {e}"))?;
        let Some(entry) = entries.iter().find(|e| e.name == t.name) else {
            return Ok(false);
        };
        if entry.rows.is_some_and(|n| n as usize != t.data.num_rows()) {
            return Ok(false);
        }
        if let Some((column, _)) = t.index {
            if !remote
                .index_specs(&t.name)
                .iter()
                .any(|s| s.column == column)
            {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// What every answer is held against.
pub struct Oracle {
    kind: Kind,
    /// `events` rows by key, for the lookup workloads.
    events: HashMap<i64, Row>,
    /// The reference evaluator's answer to each distinct plan shape.
    reference: Vec<DataSet>,
    /// All generated inputs, for reference evaluation of sampled lookups.
    inputs: HashMap<String, DataSet>,
    schemas: HashMap<String, Schema>,
}

impl Oracle {
    pub fn build(kind: Kind, tables: &[Table]) -> Result<Oracle, String> {
        let inputs: HashMap<String, DataSet> = tables
            .iter()
            .map(|t| (t.name.clone(), t.data.clone()))
            .collect();
        let schemas = workloads::schemas_of(tables);
        let mut events = HashMap::new();
        if let Some(t) = tables.iter().find(|t| t.name == "events") {
            for row in t.data.rows().map_err(|e| e.to_string())? {
                let k = row.get(0).as_int().map_err(|e| e.to_string())?;
                events.insert(k, row);
            }
        }
        let mut reference = Vec::new();
        for variant in 0..OpStream::variants(kind) {
            let plan = variant_plan(kind, variant, &schemas)?;
            reference.push(
                reference::evaluate(&plan, &inputs)
                    .map_err(|e| format!("reference evaluation of variant {variant}: {e}"))?,
            );
        }
        Ok(Oracle {
            kind,
            events,
            reference,
            inputs,
            schemas,
        })
    }
}

/// The plan of a workload's `variant`-th distinct shape.
pub fn variant_plan(
    kind: Kind,
    variant: usize,
    schemas: &HashMap<String, Schema>,
) -> Result<Plan, String> {
    let text = match kind {
        Kind::StarJoin => workloads::star_query(variant),
        Kind::CrossEngine => workloads::cross_query(variant),
        _ => String::new(),
    };
    let op = QueryOp {
        text,
        variant,
        key: None,
    };
    workloads::build_plan(kind, &op, schemas)
}

/// One client's answer checking state.
pub struct Checker<'a> {
    oracle: &'a Oracle,
    first: Vec<Option<Fingerprint>>,
    sampled: Vec<(QueryOp, DataSet)>,
}

impl<'a> Checker<'a> {
    pub fn new(oracle: &'a Oracle) -> Checker<'a> {
        Checker {
            oracle,
            first: vec![None; oracle.reference.len()],
            sampled: Vec::new(),
        }
    }

    /// `Ok` when `answer` is right for `op`.
    pub fn check(&mut self, op: &QueryOp, answer: &DataSet) -> Result<(), String> {
        if let Some(k) = op.key {
            let rows = answer.rows().map_err(|e| e.to_string())?;
            let want: Vec<&Row> = self.oracle.events.get(&k).into_iter().collect();
            if rows.iter().collect::<Vec<_>>() != want {
                return Err(format!(
                    "lookup k = {k} returned {rows:?}, generated data has {want:?}"
                ));
            }
            if self.sampled.len() < LOOKUP_REFERENCE_SAMPLES {
                self.sampled.push((op.clone(), answer.clone()));
            }
            return Ok(());
        }
        let got = verify::fingerprint(answer)?;
        match self.first[op.variant] {
            Some(first) if first == got => Ok(()),
            Some(first) => Err(format!(
                "variant {} answered {got:?} after first answering {first:?}",
                op.variant
            )),
            None => {
                verify::same_bag_approx(answer, &self.oracle.reference[op.variant]).map_err(
                    |e| {
                        format!(
                            "variant {} differs from the reference evaluator: {e}",
                            op.variant
                        )
                    },
                )?;
                self.first[op.variant] = Some(got);
                Ok(())
            }
        }
    }

    /// Hold the sampled lookups against the reference evaluator too.
    pub fn check_samples(&self) -> Result<usize, String> {
        for (op, answer) in &self.sampled {
            let plan = workloads::build_plan(self.oracle.kind, op, &self.oracle.schemas)?;
            let want = reference::evaluate(&plan, &self.oracle.inputs)
                .map_err(|e| format!("reference evaluation of `{}`: {e}", op.text))?;
            verify::same_bag_approx(answer, &want)
                .map_err(|e| format!("`{}` differs from the reference evaluator: {e}", op.text))?;
        }
        Ok(self.sampled.len())
    }
}

/// What one connection did over warm-up and window.
#[derive(Debug, Default)]
pub struct Tally {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// Errors, sheds and timeouts surfaced to the caller.
    pub failed: u64,
    /// Answers that arrived and were wrong.
    pub wrong: u64,
    pub first_problem: Option<String>,
}

impl Tally {
    fn problem(&mut self, what: String) {
        self.first_problem.get_or_insert(what);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        if self.first_problem.is_none() {
            self.first_problem = other.first_problem;
        }
    }
}

/// When the window opens and closes; ops completing before `open` are
/// warm-up and leave no sample.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub open: Instant,
    pub close: Instant,
}

impl Window {
    pub fn starting_after(warmup: Duration, seconds: f64) -> Window {
        let open = Instant::now() + warmup;
        Window {
            open,
            close: open + Duration::from_secs_f64(seconds),
        }
    }

    pub fn sample(&self, started: Instant, done: Instant) -> Option<Sample> {
        (done >= self.open).then(|| Sample {
            done_ns: (done - self.open).as_nanos() as u64,
            latency_ns: (done - started).as_nanos() as u64,
        })
    }

    pub fn nanos(&self) -> u64 {
        (self.close - self.open).as_nanos() as u64
    }
}

/// One closed-loop query client: build the plan from source, run it
/// through the federation, check the answer, repeat until the window closes.
pub fn query_client(
    kind: Kind,
    fed: &Federation,
    schemas: &HashMap<String, Schema>,
    mut stream: OpStream,
    checker: &mut Checker<'_>,
    window: Window,
) -> Tally {
    let mut tally = Tally::default();
    while Instant::now() < window.close {
        let op = stream.next_op();
        let started = Instant::now();
        let outcome = workloads::build_plan(kind, &op, schemas)
            .and_then(|plan| fed.run(&plan).map_err(|e| e.to_string()));
        let done = Instant::now();
        tally.attempted += 1;
        match outcome {
            Err(e) => {
                tally.failed += 1;
                tally.problem(format!("`{}` failed: {e}", op.text));
            }
            Ok(_) if done - started > OP_TIMEOUT => {
                tally.failed += 1;
                tally.problem(format!("`{}` took longer than {OP_TIMEOUT:?}", op.text));
            }
            Ok((answer, _)) => match checker.check(&op, &answer) {
                Ok(()) => tally.samples.extend(window.sample(started, done)),
                Err(e) => {
                    tally.wrong += 1;
                    tally.problem(e);
                }
            },
        }
    }
    tally
}

/// Framed size of a message with a `payload_len`-byte payload.
pub fn framed_len(payload_len: usize) -> u64 {
    let frames = payload_len.div_ceil(MAX_FRAME_PAYLOAD).max(1);
    (payload_len + frames * HEADER_LEN) as u64
}

/// Exact client-side wire bytes of one pipelined `Store` and its `Ack`
/// (tags are fixed-width, so every store of a same-sized dataset under a
/// same-length name costs the same).
pub fn pipelined_store_wire_bytes(name: &str, data: &DataSet) -> u64 {
    let (_, req) = bda_net::proto::encode_request(&Request::Pipelined {
        tag: 1,
        inner: Box::new(Request::Store {
            name: name.to_string(),
            data: data.clone(),
        }),
    });
    let (_, resp) = bda_net::proto::encode_response(&Response::Pipelined {
        tag: 1,
        inner: Box::new(Response::Ack),
    });
    framed_len(req.len()) + framed_len(resp.len())
}

/// The ingest writer: one pipelined connection, closed loop with
/// `PIPELINE_DEPTH` stores outstanding over rotating names. Returns the
/// tally and, per name slot, the pool index of the last acknowledged store.
pub fn ingest_writer(
    addr: &str,
    pool: &[DataSet],
    window: Window,
    max_stores: Option<u64>,
) -> (Tally, Vec<Option<usize>>) {
    let mut tally = Tally::default();
    let mut acked = vec![None; Scale::STORE_NAMES];
    let client = match PipelinedClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.attempted = 1;
            tally.failed = 1;
            tally.problem(format!("writer connect: {e}"));
            return (tally, acked);
        }
    };
    let mut in_flight = VecDeque::new();
    let mut next = 0u64;
    let more = |next: u64| match max_stores {
        Some(n) => next < n,
        None => Instant::now() < window.close,
    };
    loop {
        while in_flight.len() < Scale::PIPELINE_DEPTH && more(next) {
            let slot = (next % Scale::STORE_NAMES as u64) as usize;
            let pick = (next % pool.len() as u64) as usize;
            let started = Instant::now();
            tally.attempted += 1;
            match client.send(&Request::Store {
                name: workloads::store_name(next),
                data: pool[pick].clone(),
            }) {
                Ok(pending) => in_flight.push_back((pending, started, slot, pick)),
                Err(e) => {
                    tally.failed += 1;
                    tally.problem(format!("store send: {e}"));
                }
            }
            next += 1;
        }
        let Some((pending, started, slot, pick)) = in_flight.pop_front() else {
            break;
        };
        match pending.wait(OP_TIMEOUT) {
            Ok(Response::Ack) => {
                acked[slot] = Some(pick);
                tally.samples.extend(window.sample(started, Instant::now()));
            }
            Ok(other) => {
                tally.failed += 1;
                tally.problem(format!("store answered {other:?}"));
            }
            Err(e) => {
                tally.failed += 1;
                tally.problem(format!("store failed: {e}"));
            }
        }
    }
    (tally, acked)
}

/// Read back every acknowledged name and compare row count and checksum
/// with the pool dataset that was stored there. Returns names checked.
pub fn check_acked(
    remote: &RemoteProvider,
    pool: &[DataSet],
    acked: &[Option<usize>],
) -> Result<usize, String> {
    let prints = pool
        .iter()
        .map(verify::fingerprint)
        .collect::<Result<Vec<_>, _>>()?;
    let schema = pool[0].schema().clone();
    let mut checked = 0;
    for (slot, pick) in acked.iter().enumerate() {
        let Some(pick) = pick else { continue };
        let name = workloads::store_name(slot as u64);
        let got = remote
            .execute(&Plan::scan(&name, schema.clone()))
            .map_err(|e| format!("read back `{name}`: {e}"))?;
        if verify::fingerprint(&got)? != prints[*pick] {
            return Err(format!(
                "acknowledged dataset `{name}` does not hold what was stored"
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Everything the untraced run measured.
pub struct Measured {
    pub live: Live,
    pub primary: WindowStats,
    pub reads: WindowStats,
    pub tally: Tally,
    pub setup_s: f64,
    pub peak_rss_mib: f64,
    pub wire_bytes_per_op: f64,
    pub cpu_ms_per_op: f64,
    pub notes: Vec<String>,
}

/// Set the fleet up `SETUP_CYCLES` times (median is `setup_s`; the last
/// one is kept), then run warm-up and window against it.
pub fn measure(
    kind: Kind,
    settings: &Settings,
    tables: &[Table],
    oracle: &Oracle,
    work: &WorkDir,
) -> Result<Measured, String> {
    let mut setups = Vec::new();
    let mut live = None;
    for cycle in 0..SETUP_CYCLES {
        drop(live.take());
        let (l, s) = bring_up(kind, tables, work, cycle)?;
        setups.push(s);
        live = Some(l);
    }
    let live = live.expect("at least one set-up cycle");
    let mut m = drive(kind, settings, live, oracle, stats::median(&setups))?;
    m.notes.push(format!("setup_s cycles: {setups:?}"));
    Ok(m)
}

/// Warm-up plus measured window against a loaded fleet that took
/// `setup_s` to bring up.
fn drive(
    kind: Kind,
    settings: &Settings,
    live: Live,
    oracle: &Oracle,
    setup_s: f64,
) -> Result<Measured, String> {
    let fed = live.federation();
    let pool = workloads::store_pool(settings.seed, settings.scale);
    let clients = kind.query_clients();
    let mut checkers: Vec<Checker> = (0..clients).map(|_| Checker::new(oracle)).collect();
    let store_wire = pipelined_store_wire_bytes(&workloads::store_name(0), &pool[0]);
    let wire_before = live.client_wire_bytes();
    let cpu_before = live.cpu_ms()?;
    let window = Window::starting_after(settings.warmup(), settings.seconds);

    let (reads, writes, acked) = std::thread::scope(|scope| {
        let handles: Vec<_> = checkers
            .iter_mut()
            .enumerate()
            .map(|(c, checker)| {
                let stream = OpStream::new(kind, settings.seed, c, settings.scale);
                let (fed, schemas) = (&fed, &live.schemas);
                scope.spawn(move || query_client(kind, fed, schemas, stream, checker, window))
            })
            .collect();
        let writer = (kind == Kind::IngestMixed).then(|| {
            let (addr, pool) = (live.servers[0].addr.as_str(), &pool);
            scope.spawn(move || ingest_writer(addr, pool, window, None))
        });
        let mut reads = Tally::default();
        for h in handles {
            reads.absorb(h.join().expect("query client panicked"));
        }
        let (writes, acked) = match writer {
            Some(w) => {
                let (t, a) = w.join().expect("ingest writer panicked");
                (Some(t), a)
            }
            None => (None, Vec::new()),
        };
        (reads, writes, acked)
    });
    let wire_reads = live.client_wire_bytes() - wire_before;
    let cpu = live.cpu_ms()? - cpu_before;
    let peak_rss_mib = live.peak_rss_mib()?;

    let mut notes = Vec::new();
    let read_stats = stats::window_stats(&reads.samples, window.nanos(), SLICES);
    let mut tally = Tally::default();
    let read_ops = reads.attempted;
    tally.absorb(reads);
    // The primary operation is the store on `ingest_mixed` and the query
    // everywhere else; wire bytes per op are the primary connection's.
    let (primary, wire_bytes_per_op) = match writes {
        Some(writes) => {
            let primary = stats::window_stats(&writes.samples, window.nanos(), SLICES);
            tally.absorb(writes);
            (primary, store_wire as f64)
        }
        None => (
            read_stats.clone(),
            wire_reads as f64 / read_ops.max(1) as f64,
        ),
    };

    for checker in &checkers {
        match checker.check_samples() {
            Ok(n) if n > 0 => notes.push(format!(
                "{n} sampled lookups also match the reference evaluator"
            )),
            Ok(_) => {}
            Err(e) => {
                tally.wrong += 1;
                tally.problem(e);
            }
        }
    }
    if kind == Kind::IngestMixed {
        match check_acked(live.remote("rel")?, &pool, &acked) {
            Ok(n) => notes.push(format!(
                "{n} acknowledged names read back with the stored row count and checksum"
            )),
            Err(e) => {
                tally.wrong += 1;
                tally.problem(e);
            }
        }
    }
    let ops = tally.attempted.max(1) as f64;
    Ok(Measured {
        live,
        primary,
        reads: read_stats,
        setup_s,
        peak_rss_mib,
        wire_bytes_per_op,
        cpu_ms_per_op: cpu / ops,
        tally,
        notes,
    })
}

/// Kill/restart cycles of the recovery drill; `recovery_s` is their median.
const DRILL_RESTARTS: usize = 5;

/// What the recovery drill measured.
pub struct Drill {
    /// SIGKILL to the restarted server listening, median of the cycles.
    pub recovery_s: f64,
    /// The server's `bda_durability_wal_bytes_total` delta over the bytes
    /// the caller asked to keep.
    pub wal_bytes_per_user_byte: f64,
    pub fsyncs_per_store: f64,
    pub wal_records_per_store: f64,
}

/// The recovery drill, the same in every workload's run: a fresh durable
/// server takes `recovery_stores` pipelined stores (below the snapshot
/// threshold, so recovery is pure log replay); then, `DRILL_RESTARTS`
/// times over the same directory: SIGKILL, restart, wait for the listener,
/// read back every acknowledged name. A recovered server leaves the log as
/// it found it, so every cycle replays the same records.
pub fn recovery_drill(
    settings: &Settings,
    work: &WorkDir,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) -> Result<Drill, String> {
    let spec = Kind::IngestMixed.fleet().remove(0);
    let pool = workloads::store_pool(settings.seed, settings.scale);
    let stores = settings.scale.recovery_stores() as u64;
    let dir = work.subdir("drill")?;
    let mut server = Server::spawn(&spec, Some(&dir))?;
    let connect = |server: &Server| {
        RemoteProvider::connect(server.addr.clone()).map_err(|e| format!("connect to drill: {e}"))
    };
    let remote = connect(&server)?;
    let before = remote.metrics_text().map_err(|e| e.to_string())?;
    // The window never closes a store-count-bounded writer.
    let window = Window::starting_after(Duration::ZERO, 3600.0);
    let (writes, acked) = ingest_writer(&server.addr, &pool, window, Some(stores));
    let after = remote.metrics_text().map_err(|e| e.to_string())?;
    drop(remote);
    let delta = |name: &str| fleet::metric_value(&after, name) - fleet::metric_value(&before, name);
    let acked_stores = (writes.attempted - writes.failed) as f64;
    let user_bytes = acked_stores * workloads::store_user_bytes(settings.scale) as f64;
    tally.absorb(Tally {
        samples: Vec::new(),
        ..writes
    });

    let mut recoveries = Vec::new();
    let mut recovered = 0;
    for _ in 0..DRILL_RESTARTS {
        let killed = Instant::now();
        server.kill();
        server = Server::spawn(&spec, Some(&dir))?;
        recoveries.push(killed.elapsed().as_secs_f64());
        match check_acked(&connect(&server)?, &pool, &acked) {
            Ok(n) => recovered = n,
            Err(e) => {
                tally.wrong += 1;
                tally.problem(e);
            }
        }
    }
    notes.push(format!(
        "recovery drill: {recovered} acknowledged names read back after each of {DRILL_RESTARTS} \
         SIGKILL/restart cycles, which took {recoveries:.4?} s"
    ));
    Ok(Drill {
        recovery_s: stats::median(&recoveries),
        wal_bytes_per_user_byte: delta("bda_durability_wal_bytes_total") / user_bytes,
        fsyncs_per_store: delta("bda_durability_fsyncs_total") / acked_stores,
        wal_records_per_store: delta("bda_durability_wal_records_total") / acked_stores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_linalg::LinAlgEngine;
    use bda_relational::RelationalEngine;

    const SMOKE: Scale = Scale { smoke: true };

    /// One `cross_engine` op over in-process servers:
    /// (client wire bytes, fragments, messages, plan bytes, answer rows).
    fn one_cross_engine_op() -> (u64, usize, usize, usize, usize) {
        let tables = workloads::cross_tables(42, SMOKE);
        let la: Arc<dyn Provider> = Arc::new(LinAlgEngine::new("la"));
        let rel: Arc<dyn Provider> = Arc::new(RelationalEngine::new("rel"));
        for t in &tables {
            let engine = if t.server == "la" { &la } else { &rel };
            engine.store(&t.name, t.data.clone()).unwrap();
        }
        let servers = [
            bda_net::serve(la, "127.0.0.1:0").unwrap(),
            bda_net::serve(rel, "127.0.0.1:0").unwrap(),
        ];
        let remotes: Vec<Arc<RemoteProvider>> = servers
            .iter()
            .map(|s| Arc::new(RemoteProvider::connect(s.addr().to_string()).unwrap()))
            .collect();
        let wire = || -> u64 {
            remotes
                .iter()
                .map(|r| {
                    let (sent, received) = r.wire_bytes();
                    sent + received
                })
                .sum()
        };
        let fed = federation_over(
            Kind::CrossEngine,
            remotes.iter().map(|r| Arc::clone(r) as Arc<dyn Provider>),
        );
        let schemas = workloads::schemas_of(&tables);
        let plan = variant_plan(Kind::CrossEngine, 0, &schemas).unwrap();
        let before = wire();
        let (answer, m) = fed.run(&plan).unwrap();
        (
            wire() - before,
            m.fragments,
            m.messages,
            m.plan_bytes,
            answer.num_rows(),
        )
    }

    #[test]
    fn exact_count_metrics_are_equal_on_two_in_process_runs() {
        let (first, second) = (one_cross_engine_op(), one_cross_engine_op());
        assert_eq!(first, second);
        let (wire, fragments, _, plan_bytes, rows) = first;
        assert_eq!(fragments, 2, "matmul on la, join on rel");
        assert_eq!(rows, SMOKE.matrix_side());
        // The intermediate (side^2 cells of 8 bytes) moved server to
        // server: the application tier saw plans and the answer only.
        let intermediate = (SMOKE.matrix_side() * SMOKE.matrix_side() * 8) as u64;
        assert!(
            wire < intermediate,
            "{wire} client bytes for a {intermediate}-byte intermediate"
        );
        assert!(plan_bytes > 0);
    }

    #[test]
    fn framed_length_counts_one_header_per_frame() {
        assert_eq!(framed_len(0), HEADER_LEN as u64);
        assert_eq!(framed_len(10), (10 + HEADER_LEN) as u64);
        assert_eq!(
            framed_len(MAX_FRAME_PAYLOAD),
            (MAX_FRAME_PAYLOAD + HEADER_LEN) as u64
        );
        assert_eq!(
            framed_len(MAX_FRAME_PAYLOAD + 1),
            (MAX_FRAME_PAYLOAD + 1 + 2 * HEADER_LEN) as u64
        );
        // And it agrees with what the framing layer really writes.
        let pool = workloads::store_pool(42, SMOKE);
        let (kind, payload) = bda_net::proto::encode_request(&Request::Store {
            name: "x".into(),
            data: pool[0].clone(),
        });
        let mut wire = Vec::new();
        let written = bda_net::frame::write_message(&mut wire, kind, &payload).unwrap();
        assert_eq!(written, framed_len(payload.len()));
    }

    #[test]
    fn checker_accepts_right_answers_and_rejects_wrong_ones() {
        let tables = workloads::tables(Kind::PointLookup, 42, SMOKE);
        let oracle = Oracle::build(Kind::PointLookup, &tables).unwrap();
        let mut checker = Checker::new(&oracle);
        let rel = RelationalEngine::new("rel");
        rel.store("events", tables[0].data.clone()).unwrap();
        let schemas = workloads::schemas_of(&tables);
        let mut stream = OpStream::new(Kind::PointLookup, 42, 0, SMOKE);
        let (mut hits, mut misses) = (0, 0);
        for _ in 0..300 {
            let op = stream.next_op();
            let plan = workloads::build_plan(Kind::PointLookup, &op, &schemas).unwrap();
            let answer = rel.execute(&plan).unwrap();
            checker.check(&op, &answer).unwrap();
            if answer.num_rows() == 0 {
                misses += 1;
            } else {
                hits += 1;
            }
        }
        assert!(hits > 250 && misses > 0, "{hits} hits, {misses} misses");
        assert_eq!(checker.check_samples().unwrap(), LOOKUP_REFERENCE_SAMPLES);
        // The row of one key offered as the answer to another is wrong.
        let (a, b) = (stream.next_op(), stream.next_op());
        let plan = workloads::build_plan(Kind::PointLookup, &a, &schemas).unwrap();
        assert!(checker.check(&b, &rel.execute(&plan).unwrap()).is_err());
    }
}
