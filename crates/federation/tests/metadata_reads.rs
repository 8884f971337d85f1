//! How much provider metadata one placement reads.
//!
//! Against a remote provider every metadata call (`catalog`, `schema_of`,
//! `row_count_of`) is a full `Catalog` request, so these pins are the
//! planner's round trips. Placement reads each provider's catalog once,
//! asks for row counts only when there is a real choice of site, and
//! never dials an open-circuit provider while an available one holds the
//! data.

use std::sync::Arc;
use std::time::Duration;

use bda_core::{col, lit, AggExpr, AggFunc, CapabilitySet, CoreError, OpKind, Plan, Provider};
use bda_federation::{BreakerConfig, Federation, MaskedProvider, Planner, Registry};
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
fn app_driven_iteration_reads_the_catalog_once_per_round_and_once_for_init() {
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
    let reads = la.take();
    assert_eq!(reads.catalog, rounds + 1, "{reads:?}");
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
