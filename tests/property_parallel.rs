//! Differential and determinism properties for partition-parallel
//! execution: every seeded random plan must produce the same bag of rows
//! whether the federation runs it sequentially or with 2, 4, or 7
//! workers, always agreeing with the reference evaluator. A
//! maximally parallel run repeated with the same seed must be
//! byte-identical after canonical ordering, with identical metrics. F8
//! counts how many independent fragments the pool keeps in flight at
//! once.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

use proptest::prelude::*;

use bda::core::reference::evaluate;
use bda::core::{col, lit, AggExpr, AggFunc, Expr, JoinType, Plan, Provider};
use bda::federation::{ExecOptions, Federation, Metrics};
use bda::linalg::LinAlgEngine;
use bda::relational::RelationalEngine;
use bda::storage::wire::encode_dataset;
use bda::storage::{Column, DataSet, DataType, Field, Row, Schema, Value};
use bda::workloads::random_matrix;

/// Every worker count the differential property sweeps: sequential, the
/// even splits, and a prime that never divides the partition count.
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 7];

// ---------------------------------------------------------------------------
// generators (same shape as tests/property_equivalence.rs)
// ---------------------------------------------------------------------------

fn t_schema() -> Schema {
    Schema::new(vec![
        Field::value("k", DataType::Int64),
        Field::value("v", DataType::Float64),
        Field::value("s", DataType::Utf8),
    ])
    .unwrap()
}

prop_compose! {
    fn arb_row()(
        k in prop_oneof![2 => (-5i64..5).prop_map(Value::Int), 1 => Just(Value::Null)],
        v in prop_oneof![2 => (-10i32..10).prop_map(|x| Value::Float(x as f64 / 2.0)), 1 => Just(Value::Null)],
        s in prop_oneof![2 => "[a-c]{1,2}".prop_map(Value::from), 1 => Just(Value::Null)],
    ) -> Row {
        Row(vec![k, v, s])
    }
}

prop_compose! {
    fn arb_table()(rows in prop::collection::vec(arb_row(), 0..25)) -> DataSet {
        DataSet::from_rows(t_schema(), &rows).unwrap()
    }
}

/// Random boolean predicates over the `t` schema.
fn arb_pred() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-5i64..5).prop_map(|c| col("k").gt(lit(c))),
        (-5i64..5).prop_map(|c| col("k").le(lit(c))),
        (-10i32..10).prop_map(|c| col("v").lt(lit(c as f64 / 2.0))),
        "[a-c]".prop_map(|c| col("s").eq(lit(c.as_str()))),
        Just(col("k").is_null()),
        Just(col("v").is_null().not()),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
    })
}

/// Random schema-preserving pipelines, weighted toward the operators the
/// parallel planner rewrites (joins) so most cases exercise the
/// partitioned kernels, not just the identity path. `Limit` is excluded:
/// it picks an arbitrary subset, which is exactly the nondeterminism this
/// suite exists to rule out everywhere else.
fn arb_pipeline() -> impl Strategy<Value = Plan> {
    let scan = Just(Plan::scan("t", t_schema()));
    scan.prop_recursive(4, 16, 2, |inner| {
        prop_oneof![
            2 => (inner.clone(), arb_pred()).prop_map(|(p, e)| p.select(e)),
            1 => inner.clone().prop_map(|p| p.distinct()),
            1 => inner.clone().prop_map(|p| p.sort_by(vec!["k", "s"])),
            2 => (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            3 => (inner.clone(), inner.clone()).prop_map(|(a, b)| a.join_as(
                b,
                vec![("k", "k")],
                JoinType::Semi
            )),
            2 => (inner.clone(), inner.clone()).prop_map(|(a, b)| a.join_as(
                b,
                vec![("k", "k")],
                JoinType::Anti
            )),
            1 => inner.clone().prop_map(|p| p.project(vec![
                ("k", col("k")),
                ("v", col("v")),
                ("s", col("s"))
            ])),
        ]
    })
}

// ---------------------------------------------------------------------------
// harness
// ---------------------------------------------------------------------------

fn federation_with(ds: &DataSet) -> Federation {
    let rel = RelationalEngine::new("rel");
    rel.store("t", ds.clone()).unwrap();
    let mut fed = Federation::new();
    fed.register(std::sync::Arc::new(rel));
    fed
}

fn oracle_src(ds: &DataSet) -> HashMap<String, DataSet> {
    let mut m = HashMap::new();
    m.insert("t".to_string(), ds.clone());
    m
}

/// Run `plan` through the federation with an explicit worker count —
/// never via `BDA_WORKERS`, so tests stay isolated under a parallel test
/// runner.
fn run_with_workers(fed: &Federation, plan: &Plan, workers: usize) -> (DataSet, Metrics) {
    let opts = ExecOptions {
        workers,
        ..Default::default()
    };
    fed.run_with(plan, &opts)
        .unwrap_or_else(|e| panic!("workers={workers} failed on plan:\n{plan}\n{e}"))
}

/// Canonical bytes: sort rows into a total order, then encode. Two runs
/// that produce the same bag yield identical bytes.
fn canonical_bytes(ds: &DataSet) -> Vec<u8> {
    let rows = ds.sorted_rows().unwrap();
    encode_dataset(&DataSet::from_rows(ds.schema().clone(), &rows).unwrap())
}

/// The deterministic slice of [`Metrics`]: fragments, messages, plan
/// bytes, real wire bytes, total transfer bytes, and the per-transfer
/// `(from, to, bytes)` list — everything except wall-clock style
/// measurements. Two identical runs must agree on all of it.
type MetricsFingerprint = (
    usize,
    usize,
    usize,
    u64,
    usize,
    Vec<(String, String, usize)>,
);

fn metrics_fingerprint(m: &Metrics) -> MetricsFingerprint {
    (
        m.fragments,
        m.messages,
        m.plan_bytes,
        m.real_wire_bytes,
        m.transfers.iter().map(|t| t.bytes).sum(),
        m.transfers
            .iter()
            .map(|t| (t.from.clone(), t.to.clone(), t.bytes))
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The core differential property: for every random plan and table,
    /// the result bag is invariant across the whole worker sweep and
    /// matches the sequential reference evaluator.
    #[test]
    fn parallel_execution_matches_reference(ds in arb_table(), plan in arb_pipeline()) {
        let fed = federation_with(&ds);
        let expected = evaluate(&plan, &oracle_src(&ds)).unwrap();
        for workers in WORKER_SWEEP {
            let (out, _) = run_with_workers(&fed, &plan, workers);
            prop_assert_eq!(out.schema(), expected.schema());
            prop_assert!(
                out.same_bag(&expected).unwrap(),
                "workers={} disagrees with reference on plan:\n{}", workers, plan
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Grouped aggregation — the other partitioned relational kernel —
    /// agrees with the reference across the worker sweep.
    #[test]
    fn parallel_grouped_aggregation_matches_reference(ds in arb_table()) {
        let plan = Plan::scan("t", t_schema()).aggregate(
            vec!["s"],
            vec![
                AggExpr::new(AggFunc::Sum, col("v"), "sv"),
                AggExpr::count_star("n"),
            ],
        );
        let fed = federation_with(&ds);
        let expected = evaluate(&plan, &oracle_src(&ds)).unwrap();
        for workers in WORKER_SWEEP {
            let (out, _) = run_with_workers(&fed, &plan, workers);
            prop_assert!(
                out.same_bag(&expected).unwrap(),
                "workers={} disagrees on grouped aggregation", workers
            );
        }
    }

    /// Determinism under maximum parallelism: the same plan run twice at
    /// 7 workers yields byte-identical canonical encodings and identical
    /// deterministic metrics — scheduling order must never leak into
    /// results or accounting.
    #[test]
    fn maximum_parallelism_is_deterministic(ds in arb_table(), plan in arb_pipeline()) {
        let fed = federation_with(&ds);
        let (out_a, m_a) = run_with_workers(&fed, &plan, 7);
        let (out_b, m_b) = run_with_workers(&fed, &plan, 7);
        prop_assert_eq!(
            canonical_bytes(&out_a),
            canonical_bytes(&out_b),
            "two identical runs differ on plan:\n{}", plan
        );
        prop_assert_eq!(out_a.num_rows(), out_b.num_rows());
        prop_assert_eq!(
            metrics_fingerprint(&m_a),
            metrics_fingerprint(&m_b),
            "metrics diverged between identical runs on plan:\n{}", plan
        );
        // And the parallel run's canonical bytes match the sequential
        // ones. (Metrics legitimately differ from sequential: partitioned
        // kernels return one chunk per partition, so transfers are
        // chunked differently — only the *rows* must agree across modes;
        // metrics must agree across reruns.)
        let (seq, _) = run_with_workers(&fed, &plan, 1);
        prop_assert_eq!(canonical_bytes(&seq), canonical_bytes(&out_a));
    }
}

// ---------------------------------------------------------------------------
// F8: independent fragments overlap
// ---------------------------------------------------------------------------

/// Calls currently inside any [`SlowProvider`] of one federation, and
/// the most there have ever been at once.
struct InFlight {
    now: Mutex<usize>,
    arrived: Condvar,
    peak: AtomicUsize,
    /// How many overlapping calls a held call waits for before it runs.
    expect: usize,
    /// Every thread a call ran on.
    threads: Mutex<HashSet<ThreadId>>,
}

impl InFlight {
    fn new(expect: usize) -> Arc<InFlight> {
        Arc::new(InFlight {
            now: Mutex::new(0),
            arrived: Condvar::new(),
            peak: AtomicUsize::new(0),
            expect,
            threads: Mutex::new(HashSet::new()),
        })
    }
}

/// A provider wrapper standing in for a remote engine whose requests
/// cost real service time: every data-plane call is held until
/// `expect` calls are in flight together (or a generous timeout passes,
/// which is all a sequential scheduler ever gets), and the overlap is
/// counted. Control-plane calls (catalog, capabilities) stay free so
/// planning is unaffected.
struct SlowProvider {
    inner: Arc<dyn Provider>,
    in_flight: Arc<InFlight>,
}

impl SlowProvider {
    fn hold<R>(&self, call: impl FnOnce() -> R) -> R {
        let f = &self.in_flight;
        f.threads.lock().unwrap().insert(thread::current().id());
        let mut now = f.now.lock().unwrap();
        *now += 1;
        f.peak.fetch_max(*now, Ordering::SeqCst);
        f.arrived.notify_all();
        let (now, _) = f
            .arrived
            .wait_timeout_while(now, Duration::from_secs(5), |n| *n < f.expect)
            .unwrap();
        drop(now);
        let out = call();
        *f.now.lock().unwrap() -= 1;
        out
    }
}

impl Provider for SlowProvider {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn capabilities(&self) -> bda::core::CapabilitySet {
        self.inner.capabilities()
    }
    fn catalog(&self) -> Vec<(String, Schema)> {
        self.inner.catalog()
    }
    fn execute(&self, plan: &Plan) -> bda::core::Result<DataSet> {
        self.hold(|| self.inner.execute(plan))
    }
    fn store(&self, name: &str, data: DataSet) -> bda::core::Result<()> {
        self.hold(|| self.inner.store(name, data))
    }
    fn remove(&self, name: &str) {
        self.inner.remove(name)
    }
}

/// Four *independent* matmul branches, each pinned to its own slow linalg
/// site (`la1..la4` hold disjoint `a{i}`/`b{i}` pairs), unioned and
/// joined against a lookup on `rel`. Sequential dispatch visits the slow
/// sites one at a time; the parallel scheduler overlaps them.
fn slow_sites_federation(n: usize, in_flight: &Arc<InFlight>) -> (Federation, Plan) {
    let mut fed = Federation::new();
    for i in 1..=4usize {
        let la = LinAlgEngine::new(format!("la{i}"));
        la.store(&format!("a{i}"), random_matrix(n, n, i as u64))
            .unwrap();
        la.store(&format!("b{i}"), random_matrix(n, n, 10 + i as u64))
            .unwrap();
        fed.register(Arc::new(SlowProvider {
            inner: Arc::new(la),
            in_flight: Arc::clone(in_flight),
        }));
    }
    let rel = RelationalEngine::new("rel");
    rel.store(
        "lookup",
        DataSet::from_columns(vec![
            ("row", Column::from((0..n as i64).collect::<Vec<i64>>())),
            (
                "weight",
                Column::from((0..n).map(|i| 1.0 + i as f64).collect::<Vec<f64>>()),
            ),
        ])
        .unwrap(),
    )
    .unwrap();
    fed.register(Arc::new(rel));

    let reg = fed.registry();
    let branch = |i: usize| {
        let a = format!("a{i}");
        let b = format!("b{i}");
        Plan::UntagDims {
            input: Plan::scan(&a, reg.schema_of(&a).unwrap())
                .matmul(Plan::scan(&b, reg.schema_of(&b).unwrap()))
                .boxed(),
        }
    };
    let plan = branch(1)
        .union(branch(2))
        .union(branch(3))
        .union(branch(4))
        .join(
            Plan::scan("lookup", reg.schema_of("lookup").unwrap()),
            vec![("row", "row")],
        )
        .aggregate(
            vec![],
            vec![
                AggExpr::new(AggFunc::Sum, col("v"), "total"),
                AggExpr::count_star("cells"),
            ],
        );
    (fed, plan)
}

/// F8: with four workers all four slow sites are busy at once; with one
/// worker they are visited one at a time. The answer is the same either
/// way (the float sum up to summation order).
#[test]
fn independent_fragments_overlap_on_the_worker_pool() {
    let mut answers = Vec::new();
    for (workers, want_peak) in [(1, 1), (4, 4)] {
        let in_flight = InFlight::new(want_peak);
        let (fed, plan) = slow_sites_federation(16, &in_flight);
        let (out, _) = run_with_workers(&fed, &plan, workers);
        assert_eq!(
            in_flight.peak.load(Ordering::SeqCst),
            want_peak,
            "workers={workers}: slow-site calls in flight at once"
        );
        answers.push(out.rows().unwrap().remove(0));
    }
    let (seq, par) = (&answers[0], &answers[1]);
    assert_eq!(seq.get(1), par.get(1), "cell counts must agree");
    let (a, b) = (
        seq.get(0).as_float().unwrap(),
        par.get(0).as_float().unwrap(),
    );
    assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()), "{a} vs {b}");
}

/// At one worker the scheduler spawns no thread: every fragment's provider
/// calls run on the caller's thread. At four, the independent fragments
/// run on pool threads.
#[test]
fn one_worker_runs_every_fragment_on_the_calling_thread() {
    let caller = thread::current().id();
    for (workers, expect) in [(1, 1), (4, 4)] {
        let in_flight = InFlight::new(expect);
        let (fed, plan) = slow_sites_federation(4, &in_flight);
        run_with_workers(&fed, &plan, workers);
        let threads = in_flight.threads.lock().unwrap();
        let inline = threads.iter().all(|t| *t == caller);
        assert_eq!(inline, workers == 1, "workers={workers}: {threads:?}");
    }
}

/// Degenerate partition shapes that property shrinking rarely lands on
/// exactly: empty inputs, a single row, and total key skew (every row in
/// one hash partition, the rest empty), under hash-split joins and
/// aggregates and a block-split cross join.
#[test]
fn degenerate_partition_shapes_survive_the_sweep() {
    let empty = DataSet::from_rows(t_schema(), &[]).unwrap();
    let single = DataSet::from_rows(
        t_schema(),
        &[Row(vec![
            Value::Int(3),
            Value::Float(1.5),
            Value::from("a"),
        ])],
    )
    .unwrap();
    let skewed = DataSet::from_rows(
        t_schema(),
        &(0..64)
            .map(|i| {
                Row(vec![
                    Value::Int(7),
                    Value::Float(i as f64),
                    Value::from("z"),
                ])
            })
            .collect::<Vec<_>>(),
    )
    .unwrap();
    for (label, ds) in [("empty", empty), ("single", single), ("skewed", skewed)] {
        let fed = federation_with(&ds);
        let scan = Plan::scan("t", t_schema());
        let plans = [
            scan.clone().join(scan.clone(), vec![("k", "k")]),
            scan.clone()
                .aggregate(vec!["k"], vec![AggExpr::new(AggFunc::Sum, col("v"), "sv")]),
            scan.clone().join(scan, vec![]),
        ];
        for plan in &plans {
            let expected = evaluate(plan, &oracle_src(&ds)).unwrap();
            for workers in WORKER_SWEEP {
                let (out, _) = run_with_workers(&fed, plan, workers);
                assert!(
                    out.same_bag(&expected).unwrap(),
                    "{label} table, workers={workers} disagrees on plan:\n{plan}"
                );
            }
        }
    }
}

/// Each partitioned operator's `partition:{i}` spans nest directly under
/// its own `op:<op>` span at four workers — the shape EXPLAIN ANALYZE's
/// parallelism table reads per operator class — and at one worker the operator runs unsplit, with no partition span.
#[test]
fn fused_operators_trace_their_partitions_under_their_own_span() {
    use bda::array::ArrayEngine;
    use bda::core::{pool, BinOp};
    use bda::obs::{scope, Tracer};
    use bda::storage::dataset::matrix_dataset;

    let rel = RelationalEngine::new("rel");
    let rows: Vec<Row> = (0..40)
        .map(|i| {
            Row(vec![
                Value::Int(i % 6),
                Value::Float(i as f64),
                Value::from("a"),
            ])
        })
        .collect();
    rel.store("t", DataSet::from_rows(t_schema(), &rows).unwrap())
        .unwrap();
    let la = LinAlgEngine::new("la");
    let arr = ArrayEngine::new("arr");
    let m = matrix_dataset(8, 8, (0..64).map(f64::from).collect()).unwrap();
    la.store("m", m.clone()).unwrap();
    arr.store("m", m.clone()).unwrap();

    let t = || Plan::scan("t", t_schema());
    let mm = || Plan::scan("m", m.schema().clone());
    let cases: [(&dyn Provider, Plan, &str); 4] = [
        (&la, mm().matmul(mm()), "op:matmul"),
        (&rel, t().join(t(), vec![("k", "k")]), "op:join"),
        (
            &rel,
            t().aggregate(vec!["k"], vec![AggExpr::new(AggFunc::Sum, col("v"), "sv")]),
            "op:aggregate",
        ),
        (&arr, mm().elemwise(BinOp::Add, mm()), "op:elemwise"),
    ];
    for (engine, plan, op) in cases {
        for workers in [1, 4] {
            let tracer = Tracer::new(0x6);
            {
                let _scope = scope::install(&tracer, engine.name(), None);
                pool::with_workers(workers, || engine.execute(&plan)).unwrap();
            }
            let trace = tracer.finish();
            assert!(
                trace.spans.iter().all(|s| s.name != "op:merge"),
                "{op} workers={workers}: {:?}",
                trace.spans
            );
            let parent_name =
                |id: Option<u64>| id.and_then(|id| trace.span(id)).map(|s| s.name.as_str());
            let parts: Vec<_> = trace
                .spans
                .iter()
                .filter(|s| s.name.starts_with("partition:"))
                .collect();
            if workers == 1 {
                assert!(parts.is_empty(), "{op}: {:?}", trace.spans);
                continue;
            }
            assert!(parts.len() > 1, "{op}: {:?}", trace.spans);
            for p in parts {
                assert_eq!(parent_name(p.parent), Some(op), "{}", p.name);
            }
        }
    }
}

/// The NDV cap is visible end to end: a join on a two-valued key at four
/// workers runs at `parts=2` in EXPLAIN and shows two `partition:` spans
/// in EXPLAIN ANALYZE; with statistics off the worker count stands, at
/// `parts=4` and four spans.
#[test]
fn ndv_cap_shows_in_explain_and_in_partition_spans() {
    let rows: Vec<Row> = (0..40)
        .map(|i| {
            Row(vec![
                Value::Int(i % 2),
                Value::Float(i as f64),
                Value::from("a"),
            ])
        })
        .collect();
    let mut fed = federation_with(&DataSet::from_rows(t_schema(), &rows).unwrap());
    let scan = Plan::scan("t", t_schema());
    let plan = scan.clone().join(scan, vec![("k", "k")]);
    fed.options_mut().workers = 4;
    for (stats, parts) in [(true, 2), (false, 4)] {
        fed.options_mut().optimizer.use_stats = stats;
        let explain = fed.explain(&plan).unwrap();
        assert!(
            explain.contains(&format!(") parts={parts}\n")),
            "stats={stats}: {explain}"
        );
        let analyze = fed.explain_analyze(&plan, 0x7).unwrap();
        let spans = analyze
            .lines()
            .filter(|l| l.trim_start().starts_with("partition:"))
            .count();
        assert_eq!(spans, parts, "stats={stats}: {analyze}");
    }
}
