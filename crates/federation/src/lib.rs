//! # `bda-federation`: the multi-server framework
//!
//! The organizing framework the paper calls for: providers register their
//! catalogs and capabilities ([`registry`]), logical plans are optimized
//! ([`mod@optimize`]) — including intent *recognition* so specialized servers
//! see `MatMul` as `MatMul` (desideratum 3) — then fragmented across sites
//! ([`planner`], falling back to intent *lowering* where no specialist
//! exists, desideratum 2) and executed with intermediates flowing
//! directly server-to-server or, for the baseline, through the
//! application tier ([`executor`], desideratum 4). Each fragment ships
//! to its site as one whole expression tree, never one call per
//! operator. Every fragment DAG runs through one dependency scheduler,
//! and every provider call through one retry/breaker ladder. All byte
//! and message counts come from the real wire codec ([`metrics`]).

pub mod executor;
pub mod explain;
pub mod fault;
pub mod metrics;
pub mod optimize;
pub mod planner;
pub mod registry;

pub use executor::{run_plan, run_plan_traced, ExecOptions, RecoveryPolicy, TransferMode};
pub use explain::render_analyze;
pub use fault::{
    disk_faults_from_env, fault_seed_from_env, DiskFaults, FaultConfig, FaultyProvider,
    FAULT_SEED_ENV,
};
pub use metrics::{Metrics, TransferRecord};
pub use optimize::{optimize, Law, OptimizerConfig};
pub use planner::{Fragment, Placement, Planner, APP_SITE, FRAG_PREFIX};
pub use registry::{
    translatability, BreakerConfig, BreakerState, HealthBoard, MaskedProvider, Registry,
    Translation,
};

use std::sync::Arc;

use bda_core::{CoreError, Plan, Provider};
use bda_storage::DataSet;

/// The top-level façade: a registry plus execution options.
///
/// ```
/// use bda_federation::Federation;
/// use bda_relational::RelationalEngine;
/// use bda_core::{Plan, col, lit, Provider};
/// use bda_storage::{Column, DataSet};
/// use std::sync::Arc;
///
/// let rel = RelationalEngine::new("rel");
/// rel.store("t", DataSet::from_columns(vec![
///     ("k", Column::from(vec![1i64, 2, 3])),
/// ]).unwrap()).unwrap();
///
/// let mut fed = Federation::new();
/// fed.register(Arc::new(rel));
/// let plan = Plan::scan("t", fed.registry().schema_of("t").unwrap())
///     .select(col("k").gt(lit(1i64)));
/// let (result, metrics) = fed.run(&plan).unwrap();
/// assert_eq!(result.num_rows(), 2);
/// assert_eq!(metrics.fragments, 1);
/// ```
#[derive(Default)]
pub struct Federation {
    registry: Registry,
    options: ExecOptions,
}

impl Federation {
    /// An empty federation with default options.
    pub fn new() -> Federation {
        Federation {
            registry: Registry::new(),
            options: ExecOptions::default(),
        }
    }

    /// Register a back-end provider.
    pub fn register(&mut self, p: Arc<dyn Provider>) {
        self.registry.register(p);
    }

    /// The registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Current execution options (mutable).
    pub fn options_mut(&mut self) -> &mut ExecOptions {
        &mut self.options
    }

    /// Run a plan with the current options.
    pub fn run(&self, plan: &Plan) -> Result<(DataSet, Metrics), CoreError> {
        self.run_with(plan, &self.options)
    }

    /// Run a plan with explicit options.
    pub fn run_with(
        &self,
        plan: &Plan,
        options: &ExecOptions,
    ) -> Result<(DataSet, Metrics), CoreError> {
        run_plan(&self.registry, plan, options)
    }

    /// Run a plan recording spans into `tracer` (pass
    /// [`bda_obs::Tracer::disabled`] for the untraced fast path). When
    /// the tracer is enabled, the finished trace's profile is distilled,
    /// and the profile and trace go into one entry of the global query
    /// log (`GET /queries`, `GET /traces/<id>`). A query the log flags slow (wall > p99 × k)
    /// outlives the log's churn and gets a stamp in the flight recorder.
    pub fn run_traced(
        &self,
        plan: &Plan,
        tracer: &bda_obs::Tracer,
    ) -> Result<(DataSet, Metrics), CoreError> {
        let result = run_plan_traced(&self.registry, plan, &self.options, tracer, None);
        if tracer.is_enabled() {
            let trace = tracer.finish();
            let trace_id = trace.trace_id;
            if let Some(profile) = bda_obs::profile::QueryProfile::from_trace(&trace) {
                let wall_ms = profile.wall_ns as f64 / 1e6;
                let outcome = bda_obs::profile::global_log().push(profile, Some(trace));
                if outcome.slow {
                    bda_obs::flight::global().record("app", || {
                        format!(
                            "slow-query trace={trace_id:#018x} wall_ms={wall_ms:.3} p99_ms={:.3}",
                            outcome.p99_ns.unwrap_or(0) as f64 / 1e6
                        )
                    });
                }
            }
        }
        result
    }

    /// The current [`Health`](bda_obs::Health) of this federation for the
    /// HTTP `/healthz` and `/readyz` endpoints: ready while no provider's
    /// circuit breaker is open, with a per-provider detail line.
    pub fn health(&self) -> bda_obs::Health {
        health_of(&self.registry)
    }

    /// Mount the observability HTTP server for this federation's
    /// registry: `/readyz` follows the registry's circuit breakers and
    /// `/metrics` serves `hub`. The registry's health board is shared
    /// via `Arc`, so breaker trips after mounting are visible.
    pub fn serve_ops(
        &self,
        bind: &str,
        hub: bda_obs::MetricsHub,
    ) -> std::io::Result<bda_obs::OpsHandle> {
        let registry = self.registry.clone();
        bda_obs::serve_ops(
            bind,
            bda_obs::OpsOptions {
                metrics: hub,
                health: Arc::new(move || health_of(&registry)),
                ..bda_obs::OpsOptions::default()
            },
        )
    }
}

/// [`bda_obs::Health`] from a registry's circuit-breaker board: live
/// always (the process is answering), ready while no breaker is open.
pub fn health_of(registry: &Registry) -> bda_obs::Health {
    let snapshot = registry.health().snapshot();
    let open: Vec<&str> = snapshot
        .iter()
        .filter(|(_, s)| *s == BreakerState::Open)
        .map(|(n, _)| n.as_str())
        .collect();
    let detail = if snapshot.is_empty() {
        "breakers: none tracked".to_string()
    } else {
        format!(
            "breakers: {}",
            snapshot
                .iter()
                .map(|(n, s)| format!("{n}={}", s.name()))
                .collect::<Vec<_>>()
                .join(" ")
        )
    };
    bda_obs::Health {
        healthy: true,
        ready: open.is_empty(),
        detail,
    }
}

impl Federation {
    /// `EXPLAIN ANALYZE`: run the plan with tracing enabled and render
    /// the recorded span tree — per-node wall time, rows, bytes, and the
    /// provider that executed each operator — plus the run's metrics.
    /// The trace id comes from `seed`.
    pub fn explain_analyze(&self, plan: &Plan, seed: u64) -> Result<String, CoreError> {
        let tracer = bda_obs::Tracer::new(seed);
        let (_, metrics) = self.run_traced(plan, &tracer)?;
        Ok(explain::render_analyze(&tracer.finish(), &metrics))
    }

    /// Explain how a plan would execute: the optimized plan, the fragment
    /// placement, and per-fragment details — without running anything.
    /// With `options.workers > 1`, a fragment header that runs
    /// partitioned ends in ` parts=N`, its partition width. With
    /// statistics enabled (the default), fragments disproved by table
    /// statistics show up as empty `values` leaves and a hash-keyed
    /// fragment's width is capped at its keys' distinct-value estimate.
    /// When an aggregation law rewrote the plan, one `laws:` line before
    /// the optimized plan names each law that fired.
    pub fn explain(&self, plan: &Plan) -> Result<String, CoreError> {
        let (optimized, placement, _) =
            executor::plan_and_place(&self.registry, plan, &self.options)?;
        let mut out = String::new();
        if optimized.pruned > 0 {
            out.push_str(&format!(
                "== pruning ==\n{} fragment(s) eliminated by table statistics\n",
                optimized.pruned
            ));
        }
        if !optimized.laws.is_empty() {
            out.push_str(&executor::laws_line(&optimized.laws));
            out.push('\n');
        }
        out.push_str("== optimized plan ==\n");
        out.push_str(&optimized.plan.to_string());
        out.push_str("\n== placement ==\n");
        for f in &placement.fragments {
            out.push_str(&format!(
                "fragment #{} @ {} -> {} ({} nodes, schema {})",
                f.id,
                f.site,
                f.dest_site,
                f.plan.node_count(),
                f.schema
            ));
            if f.parts > 1 {
                out.push_str(&format!(" parts={}", f.parts));
            }
            out.push('\n');
            for line in f.plan.to_string().lines() {
                out.push_str(&format!("    {line}\n"));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::{col, lit, Provider};
    use bda_linalg::LinAlgEngine;
    use bda_relational::RelationalEngine;
    use bda_storage::{Column, DataSet};

    #[test]
    fn explain_shows_placement() {
        let rel = RelationalEngine::new("rel");
        rel.store(
            "a_rows",
            bda_storage::dataset::matrix_dataset(2, 2, vec![1., 2., 3., 4.])
                .unwrap()
                .normalized_rows()
                .unwrap(),
        )
        .unwrap();
        let la = LinAlgEngine::new("la");
        la.store(
            "b",
            bda_storage::dataset::matrix_dataset(2, 2, vec![1., 0., 0., 1.]).unwrap(),
        )
        .unwrap();
        let mut fed = Federation::new();
        fed.register(Arc::new(rel));
        fed.register(Arc::new(la));
        let plan =
            Plan::scan("a_rows", fed.registry().schema_of("a_rows").unwrap()).matmul(Plan::scan(
                "b",
                fed.registry()
                    .provider("la")
                    .unwrap()
                    .schema_of("b")
                    .unwrap(),
            ));
        let s = fed.explain(&plan).unwrap();
        assert!(s.contains("optimized plan"), "{s}");
        assert!(s.contains("@ rel -> la"), "{s}");
        assert!(s.contains("@ la -> app"), "{s}");
        assert!(s.contains("matmul"), "{s}");
    }

    #[test]
    fn explain_analyze_names_executing_providers() {
        let rel = RelationalEngine::new("rel");
        rel.store(
            "a_rows",
            bda_storage::dataset::matrix_dataset(2, 2, vec![1., 2., 3., 4.])
                .unwrap()
                .normalized_rows()
                .unwrap(),
        )
        .unwrap();
        let la = LinAlgEngine::new("la");
        la.store(
            "b",
            bda_storage::dataset::matrix_dataset(2, 2, vec![1., 0., 0., 1.]).unwrap(),
        )
        .unwrap();
        let mut fed = Federation::new();
        fed.register(Arc::new(rel));
        fed.register(Arc::new(la));
        let plan =
            Plan::scan("a_rows", fed.registry().schema_of("a_rows").unwrap()).matmul(Plan::scan(
                "b",
                fed.registry()
                    .provider("la")
                    .unwrap()
                    .schema_of("b")
                    .unwrap(),
            ));
        let s = fed.explain_analyze(&plan, 42).unwrap();
        assert!(s.contains("query @ app"), "{s}");
        assert!(s.contains("fragment:0 @ rel"), "{s}");
        assert!(s.contains("op:matmul @ la"), "{s}"); // the operator names its engine
        assert!(s.contains("transfer:"), "{s}");
        assert!(s.contains("rows="), "{s}");
        assert!(s.contains("== metrics =="), "{s}");
    }

    #[test]
    fn explain_shows_partition_widths_under_parallel_options() {
        let rel = RelationalEngine::new("rel");
        rel.store(
            "t",
            DataSet::from_columns(vec![
                ("k", Column::from(vec![1i64, 2])),
                ("v", Column::from(vec![1.0f64, 2.0])),
            ])
            .unwrap(),
        )
        .unwrap();
        let mut fed = Federation::new();
        fed.register(Arc::new(rel));
        let scan = Plan::scan("t", fed.registry().schema_of("t").unwrap());
        let plan = scan.clone().join(scan, vec![("k", "k")]);
        fed.options_mut().workers = 1;
        let sequential = fed.explain(&plan).unwrap();
        assert!(!sequential.contains("parts="), "{sequential}");
        fed.options_mut().workers = 4;
        // Statistics on (the default): `k` has two distinct values, so
        // the width is capped at two partitions.
        fed.options_mut().optimizer.use_stats = true;
        let parallel = fed.explain(&plan).unwrap();
        assert!(parallel.contains(") parts=2\n"), "{parallel}");
        // Statistics off: the static worker count stands.
        fed.options_mut().optimizer.use_stats = false;
        let plain = fed.explain(&plan).unwrap();
        assert!(plain.contains(") parts=4\n"), "{plain}");
        // The plan lines are the same at every width.
        let plan_lines = |s: &str| {
            let lines = s.lines().filter(|l| l.starts_with("    "));
            lines.map(str::to_string).collect::<Vec<_>>()
        };
        assert_eq!(plan_lines(&plain), plan_lines(&sequential));
    }

    #[test]
    fn explain_reflects_optimization() {
        let rel = RelationalEngine::new("rel");
        rel.store(
            "t",
            DataSet::from_columns(vec![("k", Column::from(vec![1i64]))]).unwrap(),
        )
        .unwrap();
        let mut fed = Federation::new();
        fed.register(Arc::new(rel));
        // A `select true` must have been folded away by the optimizer.
        let plan = Plan::scan("t", fed.registry().schema_of("t").unwrap())
            .select(lit(1i64).lt(lit(2i64)))
            .select(col("k").gt(lit(0i64)));
        let s = fed.explain(&plan).unwrap();
        assert!(!s.contains("(1 < 2)"), "constant select not folded:\n{s}");
    }
}
