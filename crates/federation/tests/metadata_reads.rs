//! How much provider metadata placement reads, and how the catalog memo
//! it reads from stays right.
//!
//! Against a remote provider every metadata call (`catalog`, `schema_of`,
//! `row_count_of`) is a full `Catalog` request, so these pins are the
//! planner's round trips. A cold placement reads each provider's catalog
//! once; the registry keeps what it read, so a warm one reads none. Row
//! counts are asked for only when there is a real choice of site, and an
//! open-circuit provider is never dialed while an available one holds the
//! data. Data stored or moved out of band is found again: a dataset no
//! memoized catalog lists makes placement re-read them all, and a query
//! that fails on a site that no longer holds its data fails over or is
//! placed again.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use bda_core::reference::evaluate;
use bda_core::{col, lit, AggExpr, AggFunc, CapabilitySet, CoreError, OpKind, Plan, Provider};
use bda_federation::{
    BreakerConfig, FaultConfig, FaultyProvider, Federation, MaskedProvider, Planner,
    RecoveryPolicy, Registry,
};
use bda_linalg::LinAlgEngine;
use bda_relational::RelationalEngine;
use bda_storage::dataset::matrix_dataset;
use bda_storage::{Column, DataSet, Schema, TableStats};
use parking_lot::Mutex;

/// Metadata calls one provider answered.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Reads {
    catalog: usize,
    schema_of: usize,
    row_count_of: usize,
    table_stats: usize,
}

/// A provider decorator that counts metadata calls and forwards the rest.
struct Counting {
    inner: Arc<dyn Provider>,
    reads: Mutex<Reads>,
}

impl Counting {
    fn wrap(inner: impl Provider + 'static) -> Arc<Counting> {
        Arc::new(Counting {
            inner: Arc::new(inner),
            reads: Mutex::new(Reads::default()),
        })
    }

    /// The calls counted since the last `take`.
    fn take(&self) -> Reads {
        std::mem::take(&mut *self.reads.lock())
    }

    fn count(&self, f: impl FnOnce(&mut Reads)) {
        f(&mut self.reads.lock());
    }
}

impl Provider for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capabilities(&self) -> CapabilitySet {
        self.inner.capabilities()
    }

    fn catalog(&self) -> Vec<(String, Schema)> {
        self.count(|r| r.catalog += 1);
        self.inner.catalog()
    }

    fn execute(&self, plan: &Plan) -> Result<DataSet, CoreError> {
        self.inner.execute(plan)
    }

    fn store(&self, name: &str, data: DataSet) -> Result<(), CoreError> {
        self.inner.store(name, data)
    }

    fn remove(&self, name: &str) {
        self.inner.remove(name)
    }

    fn schema_of(&self, name: &str) -> Option<Schema> {
        self.count(|r| r.schema_of += 1);
        self.inner.schema_of(name)
    }

    fn row_count_of(&self, name: &str) -> Option<usize> {
        self.count(|r| r.row_count_of += 1);
        self.inner.row_count_of(name)
    }

    fn table_stats(&self, name: &str) -> Option<TableStats> {
        self.count(|r| r.table_stats += 1);
        self.inner.table_stats(name)
    }
}

fn table(columns: Vec<(&str, Column)>) -> DataSet {
    DataSet::from_columns(columns).unwrap()
}

/// `rel` holds a retail star (`sales`, `customers`, `products`) and the
/// `lookup` table; `la` holds the matrices `a` and `b`.
fn fleet() -> (Federation, Arc<Counting>, Arc<Counting>) {
    let rel = RelationalEngine::new("rel");
    let stored = [
        (
            "sales",
            table(vec![
                ("customer_id", Column::from(vec![0i64, 1, 1, 2])),
                ("product_id", Column::from(vec![1i64, 0, 1, 1])),
                ("amount", Column::from(vec![5.0f64, 2.5, 1.0, 4.0])),
            ]),
        ),
        (
            "customers",
            table(vec![
                ("customer_id", Column::from(vec![0i64, 1, 2])),
                ("region", Column::from(vec!["north", "south", "north"])),
            ]),
        ),
        (
            "products",
            table(vec![
                ("product_id", Column::from(vec![0i64, 1])),
                ("category", Column::from(vec!["tools", "toys"])),
            ]),
        ),
        (
            "lookup",
            table(vec![
                ("row", Column::from(vec![0i64, 1])),
                ("weight", Column::from(vec![0.5f64, 2.0])),
            ]),
        ),
    ];
    for (name, data) in stored {
        rel.store(name, data).unwrap();
    }
    let la = LinAlgEngine::new("la");
    la.store("a", matrix_dataset(2, 2, vec![1., 2., 3., 4.]).unwrap())
        .unwrap();
    la.store("b", matrix_dataset(2, 2, vec![5., 6., 7., 8.]).unwrap())
        .unwrap();
    let (rel, la) = (Counting::wrap(rel), Counting::wrap(la));
    let mut fed = Federation::new();
    fed.register(rel.clone());
    fed.register(la.clone());
    (fed, rel, la)
}

fn scan(fed: &Federation, name: &str) -> Plan {
    Plan::scan(name, fed.registry().schema_of(name).unwrap())
}

/// Run `plan` end to end and return what it read of each provider's
/// metadata.
fn reads_of_one_run(fed: &Federation, plan: &Plan, providers: &[&Counting]) -> Vec<Reads> {
    for p in providers {
        p.take();
    }
    fed.run(plan).unwrap();
    providers.iter().map(|p| p.take()).collect()
}

/// One catalog per provider, no row counts, no per-dataset schema lookups.
fn assert_one_catalog_read(reads: &[Reads], what: &str) {
    for r in reads {
        assert_eq!(r.catalog, 1, "{what}: {reads:?}");
        assert_eq!(r.schema_of, 0, "{what}: {reads:?}");
        assert_eq!(r.row_count_of, 0, "{what}: {reads:?}");
    }
}

#[test]
fn a_select_over_a_scan_reads_each_catalog_once() {
    let (fed, rel, la) = fleet();
    let plan = scan(&fed, "sales").select(col("amount").gt(lit(2.0)));
    let reads = reads_of_one_run(&fed, &plan, &[&rel, &la]);
    assert_one_catalog_read(&reads, "select over scan");
}

#[test]
fn a_star_join_reads_each_catalog_once() {
    let (fed, rel, la) = fleet();
    let plan = scan(&fed, "sales")
        .select(col("amount").gt(lit(1.5)))
        .join(
            scan(&fed, "customers"),
            vec![("customer_id", "customer_id")],
        )
        .join(scan(&fed, "products"), vec![("product_id", "product_id")])
        .aggregate(
            vec!["region", "category"],
            vec![AggExpr::new(AggFunc::Sum, col("amount"), "revenue")],
        );
    let reads = reads_of_one_run(&fed, &plan, &[&rel, &la]);
    assert_one_catalog_read(&reads, "star join");
}

#[test]
fn the_cross_engine_plan_reads_each_catalog_once() {
    let (fed, rel, la) = fleet();
    let plan = Plan::UntagDims {
        input: scan(&fed, "a").matmul(scan(&fed, "b")).boxed(),
    }
    .join(scan(&fed, "lookup"), vec![("row", "row")])
    .project(vec![
        ("row", col("row")),
        ("vw", col("v").mul(col("weight"))),
    ])
    .aggregate(
        vec!["row"],
        vec![AggExpr::new(AggFunc::Sum, col("vw"), "s")],
    );
    let reads = reads_of_one_run(&fed, &plan, &[&rel, &la]);
    assert_one_catalog_read(&reads, "cross_engine");
}

#[test]
fn app_driven_iteration_reads_the_catalog_once() {
    let la = LinAlgEngine::new("la");
    la.store("m", matrix_dataset(2, 2, vec![0.5, 0., 0., 0.5]).unwrap())
        .unwrap();
    let la = Counting::wrap(MaskedProvider::new(Arc::new(la), vec![OpKind::Iterate]));
    let mut fed = Federation::new();
    fed.register(la.clone());
    let schema = fed.registry().schema_of("m").unwrap();
    let plan = Plan::Iterate {
        init: Plan::scan("m", schema.clone()).boxed(),
        body: Plan::IterState {
            schema: schema.clone(),
        }
        .matmul(Plan::scan("m", schema))
        .boxed(),
        max_iters: 3,
        epsilon: None,
    };
    la.take();
    let (_, metrics) = fed.run(&plan).unwrap();
    let rounds = metrics.client_driven_iterations;
    assert_eq!(rounds, 3, "{metrics}");
    // `init` reads it; every round is placed from the memo.
    let reads = la.take();
    assert_eq!(reads.catalog, 1, "{reads:?}");
    assert_eq!(reads.schema_of, 0, "{reads:?}");
    assert_eq!(reads.row_count_of, 0, "{reads:?}");
}

#[test]
fn placement_never_dials_an_open_circuit_provider_a_replica_can_stand_in_for() {
    let replica = |name: &str| {
        let la = LinAlgEngine::new(name);
        la.store("m", matrix_dataset(2, 2, vec![1., 0., 0., 1.]).unwrap())
            .unwrap();
        Counting::wrap(la)
    };
    let (la1, la2) = (replica("la1"), replica("la2"));
    // Long cooldown so the open breaker cannot half-open mid-test.
    let mut registry = Registry::with_breaker_config(BreakerConfig {
        failure_threshold: 3,
        cooldown: Duration::from_secs(3600),
    });
    registry.register(la1.clone());
    registry.register(la2.clone());
    let schema = registry.schema_of("m").unwrap();
    let plan = Plan::scan("m", schema.clone()).matmul(Plan::scan("m", schema));
    for _ in 0..registry.health().config().failure_threshold {
        registry.health().record_failure("la1");
    }
    la1.take();
    let placement = Planner::new(&registry).place(&plan).unwrap();
    assert_eq!(placement.fragments.len(), 1, "{placement:?}");
    assert_eq!(placement.root().site, "la2", "{placement:?}");
    assert_eq!(
        la1.take(),
        Reads::default(),
        "the open provider is not dialed"
    );
}

#[test]
fn a_second_run_of_the_same_plan_reads_no_catalog() {
    let (fed, rel, la) = fleet();
    let plan = scan(&fed, "sales")
        .join(
            scan(&fed, "customers"),
            vec![("customer_id", "customer_id")],
        )
        .aggregate(
            vec!["region"],
            vec![AggExpr::new(AggFunc::Sum, col("amount"), "revenue")],
        );
    assert_one_catalog_read(&reads_of_one_run(&fed, &plan, &[&rel, &la]), "cold");
    // Table statistics are asked of providers directly (a remote one
    // keeps none); everything placement reads is memoized.
    for r in reads_of_one_run(&fed, &plan, &[&rel, &la]) {
        assert_eq!(
            (r.catalog, r.schema_of, r.row_count_of),
            (0, 0, 0),
            "warm: {r:?}"
        );
    }
}

#[test]
fn an_empty_catalog_is_read_once_per_placement_and_never_kept() {
    let (mut fed, rel, la) = fleet();
    let empty = Counting::wrap(RelationalEngine::new("empty"));
    fed.register(empty.clone());
    let plan = scan(&fed, "sales")
        .join(
            scan(&fed, "customers"),
            vec![("customer_id", "customer_id")],
        )
        .join(scan(&fed, "products"), vec![("product_id", "product_id")]);
    let cold = reads_of_one_run(&fed, &plan, &[&rel, &la, &empty]);
    assert_one_catalog_read(&cold, "cold");
    // A remote provider answers a transport error with an empty catalog:
    // it is asked again on the next op, never trusted as empty.
    let warm = reads_of_one_run(&fed, &plan, &[&rel, &la, &empty]);
    assert_eq!(
        warm.iter().map(|r| r.catalog).collect::<Vec<_>>(),
        [0, 0, 1]
    );
}

#[test]
fn a_dataset_stored_out_of_band_is_found_with_one_refresh() {
    let (fed, rel, la) = fleet();
    fed.run(&scan(&fed, "lookup")).unwrap();
    let c = matrix_dataset(2, 2, vec![1., 1., 1., 1.]).unwrap();
    la.store("c", c.clone()).unwrap();
    let plan = scan(&fed, "a").matmul(Plan::scan("c", c.schema().clone()));
    let sources = HashMap::from([
        (
            "a".to_string(),
            matrix_dataset(2, 2, vec![1., 2., 3., 4.]).unwrap(),
        ),
        ("c".to_string(), c),
    ]);
    let expected = evaluate(&plan, &sources).unwrap();
    for p in [&rel, &la] {
        p.take();
    }
    let (out, metrics) = fed.run(&plan).unwrap();
    assert!(out.same_bag(&expected).unwrap(), "{:?}", out.sorted_rows());
    assert_eq!(metrics.failovers, 0, "found at placement, not by failing");
    assert_one_catalog_read(&[rel.take(), la.take()], "one refresh");
}

/// Two relational providers; `t` is stored on the first, and the second
/// holds another table (an empty catalog is never memoized).
fn pair() -> (Federation, Arc<Counting>, Arc<Counting>, DataSet) {
    let t = table(vec![
        ("k", Column::from(vec![1i64, 2, 3, 4])),
        ("v", Column::from(vec![0.5f64, 1.5, 2.5, 3.5])),
    ]);
    let (r1, r2) = (
        Counting::wrap(RelationalEngine::new("r1")),
        Counting::wrap(RelationalEngine::new("r2")),
    );
    r1.store("t", t.clone()).unwrap();
    r2.store("u", table(vec![("k", Column::from(vec![0i64]))]))
        .unwrap();
    let mut fed = Federation::new();
    fed.register(r1.clone());
    fed.register(r2.clone());
    (fed, r1, r2, t)
}

/// A plan over `t` and its answer from the reference evaluator.
fn over_t(t: &DataSet) -> (Plan, DataSet) {
    let plan = Plan::scan("t", t.schema().clone())
        .select(col("k").gt(lit(1i64)))
        .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, col("v"), "s")]);
    let expected = evaluate(&plan, &HashMap::from([("t".to_string(), t.clone())])).unwrap();
    (plan, expected)
}

#[test]
fn a_dataset_moved_out_of_band_gives_the_reference_answer() {
    for recovery in [RecoveryPolicy::default(), RecoveryPolicy::disabled()] {
        let (mut fed, r1, r2, t) = pair();
        fed.options_mut().recovery = recovery;
        let (plan, expected) = over_t(&t);
        fed.run(&plan).unwrap();
        r2.store("t", t.clone()).unwrap();
        r1.remove("t");

        let tracer = bda_obs::Tracer::new(0x5ca1e + u64::from(recovery.enabled));
        let dump = std::env::temp_dir().join(format!("bda-flight-{:016x}.log", tracer.trace_id()));
        let _ = std::fs::remove_file(&dump);
        let (out, metrics) = fed.run_traced(&plan, &tracer).unwrap();
        assert!(out.same_bag(&expected).unwrap(), "{recovery:?}");
        let replans = tracer
            .finish()
            .spans
            .iter()
            .flat_map(|s| &s.events)
            .filter(|e| e.label == "replan:stale-catalog")
            .count();
        if recovery.enabled {
            // Failover reads the other catalog and finds the table.
            assert_eq!((metrics.failovers, replans), (1, 0), "{metrics}");
        } else {
            // No failover: the stale placement is noticed and redone.
            assert_eq!((metrics.failovers, replans), (0, 1), "{metrics}");
            assert!(bda_obs::flight::global()
                .snapshot()
                .iter()
                .any(|r| r.label.starts_with("replan:stale-catalog")));
        }
        assert!(!dump.exists(), "a query that succeeded dumps nothing");
        // Either way the memo now says where `t` lives.
        let (out, _) = fed.run(&plan).unwrap();
        assert!(out.same_bag(&expected).unwrap());
    }
}

#[test]
fn a_dataset_absent_everywhere_is_an_unknown_dataset() {
    let (fed, _r1, _r2, t) = pair();
    let (plan, _) = over_t(&t);
    fed.run(&plan).unwrap();
    let absent = Plan::scan("nowhere", t.schema().clone());
    match fed.run(&absent) {
        Err(CoreError::UnknownDataset(name)) => assert_eq!(name, "nowhere"),
        other => panic!("expected an unknown dataset, got {other:?}"),
    }
}

#[test]
fn a_permanent_failure_whose_holders_did_not_move_is_surfaced_not_rerun() {
    let t = table(vec![("k", Column::from(vec![1i64, 2]))]);
    let rel = RelationalEngine::new("rel");
    rel.store("t", t.clone()).unwrap();
    // Works for one call, then refuses every call for good.
    let faulty = Arc::new(FaultyProvider::new(
        Arc::new(rel),
        FaultConfig::crash_after(1),
    ));
    let mut fed = Federation::new();
    fed.register(faulty.clone());
    let plan = Plan::scan("t", t.schema().clone()).limit(1);
    fed.run(&plan).unwrap();
    let err = fed.run(&plan).unwrap_err();
    assert!(err.to_string().contains("injected crash"), "{err}");
    assert_eq!(faulty.calls(), 2, "the failed query ran once");
}

#[test]
fn queries_racing_out_of_band_moves_get_the_reference_answer() {
    const ROUNDS: usize = 200;
    const QUERIES_PER_ROUND: usize = 4;
    let (fed, r1, r2, t) = pair();
    let (plan, expected) = over_t(&t);
    // One change per round, so `t` is always held by a site other than
    // one that just lost it: a store on one side, then, the next round,
    // the remove from the other. A query that starts in a round ends in
    // it, so it races at most one change.
    let start = Barrier::new(3);
    let end = Barrier::new(3);
    let wrong = parking_lot::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for round in 0..ROUNDS {
                    start.wait();
                    for _ in 0..QUERIES_PER_ROUND {
                        match fed.run(&plan) {
                            Ok((out, _)) if out.same_bag(&expected).unwrap() => {}
                            other => wrong.lock().push(format!("round {round}: {other:?}")),
                        }
                    }
                    end.wait();
                }
            });
        }
        s.spawn(|| {
            for round in 0..ROUNDS {
                let (from, to) = if round % 4 < 2 {
                    (&r1, &r2)
                } else {
                    (&r2, &r1)
                };
                start.wait();
                if round % 2 == 0 {
                    to.store("t", t.clone()).unwrap();
                } else {
                    from.remove("t");
                }
                end.wait();
            }
        });
    });
    let wrong = wrong.into_inner();
    assert!(
        wrong.is_empty(),
        "{} wrong answers: {wrong:#?}",
        wrong.len()
    );
}
