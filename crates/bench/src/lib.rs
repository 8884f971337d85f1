//! # `bda-bench`: support for the standalone measurement binaries
//!
//! The repository's benchmark is `bda-bench` (its own package under
//! `src/bin/bda-bench/`, declared by the root `BENCHMARK.json`). This crate
//! keeps the three binaries that check what that harness does not:
//! `overhead_guard` (the disabled-hook budget and trace completeness),
//! `trace_export` (a Chrome-trace artifact) and `saturation` (1 k
//! connections against the reactor core). Every paper claim is asserted
//! by a test under the repository's `tests/`; EXPERIMENTS.md names them.

use bda_core::{Plan, Provider};
use bda_federation::Federation;
use bda_relational::RelationalEngine;
use bda_workloads::random_matrix;

/// The cross-engine join⋈matmul federation used by the observability
/// measurements: matmul on `la`, join on `rel`, no faults.
pub fn observed_federation(n: usize) -> (Federation, Plan) {
    use bda_storage::{Column, DataSet};
    let la = bda_linalg::LinAlgEngine::new("la");
    la.store("a", random_matrix(n, n, 1)).unwrap();
    la.store("b", random_matrix(n, n, 2)).unwrap();
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
    let mut fed = Federation::new();
    fed.register(std::sync::Arc::new(la));
    fed.register(std::sync::Arc::new(rel));
    let reg = fed.registry();
    let plan = bda_lang::Query::scan("a", reg.schema_of("a").unwrap())
        .matmul(bda_lang::Query::scan("b", reg.schema_of("b").unwrap()))
        .untag_dims()
        .join(
            bda_lang::Query::scan("lookup", reg.schema_of("lookup").unwrap()),
            vec![("row", "row")],
        )
        .plan()
        .clone();
    (fed, plan)
}
