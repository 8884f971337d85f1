//! Site assignment and plan fragmentation.
//!
//! The planner turns one logical plan into a DAG of **fragments**, each
//! pinned to a provider that can execute its whole subtree natively. A
//! fragment boundary is exactly a server-to-server transfer; desideratum 4
//! says those transfers should flow directly between servers rather than
//! through the application tier, and the executor honours (or, for the
//! baseline, deliberately violates) that.
//!
//! Algorithm:
//!
//! 1. **Pre-lowering**: any intent operator with no native provider in the
//!    registry is rewritten by its canonical lowering (desideratum 2 —
//!    translatability as a planning fallback).
//! 2. **Candidate analysis** (bottom-up): the set of providers able to run
//!    each subtree in one piece, considering capabilities and data
//!    locality.
//! 3. **Assignment & cutting** (top-down): where a subtree has candidates
//!    it stays whole at the preferred site, else the one holding the
//!    most scanned rows; where it has none, the node executes at a site
//!    chosen from its operator's supporters (those that also support
//!    each child's top operator, when any do) and each child becomes its
//!    own fragment, shipped in.
//!
//! `Iterate` nodes that no single provider can host become **app-driven**
//! fragments (site [`APP_SITE`]): the executor itself drives the loop,
//! shipping loop state every iteration — the expensive baseline that
//! experiment F4 compares against server-side iteration.

use bda_core::infer::infer_schema;
use bda_core::lower::lower_node;
use bda_core::{CoreError, Plan};
use bda_storage::Schema;

use crate::registry::Registry;

/// Result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// The pseudo-site representing the application tier.
pub const APP_SITE: &str = "__app";

/// Prefix of staged intermediate dataset names.
pub const FRAG_PREFIX: &str = "__bda_frag_";

/// One executable fragment.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// Fragment id; also names its staged output (`__bda_frag_{id}`).
    pub id: usize,
    /// Provider that executes it, or [`APP_SITE`] for app-driven loops.
    pub site: String,
    /// The plan; its scans may reference staged outputs of earlier
    /// fragments.
    pub plan: Plan,
    /// Output schema.
    pub schema: Schema,
    /// Site that consumes the output ("app" for the root fragment).
    pub dest_site: String,
    /// Ids of fragments whose outputs this fragment scans.
    pub inputs: Vec<usize>,
    /// Partition width the fragment runs at: the executor pins
    /// [`bda_core::pool::workers`] to it, and the engine splits the
    /// fragment's joins, grouped aggregates, matmuls and elementwise
    /// operators that many ways. `1` runs every kernel sequentially.
    pub parts: usize,
}

/// A fragmented plan: `fragments` is in dependency order; the last entry
/// is the root whose output goes back to the application.
#[derive(Debug, Clone)]
pub struct Placement {
    /// All fragments, dependencies before dependents.
    pub fragments: Vec<Fragment>,
}

impl Placement {
    /// The root fragment (executes last).
    pub fn root(&self) -> &Fragment {
        self.fragments.last().expect("placement has a root")
    }

    /// Names of the distinct sites involved.
    pub fn sites(&self) -> Vec<String> {
        let mut out: Vec<String> = self.fragments.iter().map(|f| f.site.clone()).collect();
        out.sort();
        out.dedup();
        out
    }
}

/// The planner.
pub struct Planner<'a> {
    registry: &'a Registry,
    workers: usize,
    /// Consult provider table statistics (column NDV estimates) when
    /// choosing a fragment's partition width. Off by default so the bare
    /// planner stays byte-identical to the pre-statistics one.
    use_stats: bool,
}

impl<'a> Planner<'a> {
    /// A planner over the given registry.
    pub fn new(registry: &'a Registry) -> Planner<'a> {
        Planner {
            registry,
            workers: 1,
            use_stats: false,
        }
    }

    /// Cap a fragment's partition width at its hash keys' distinct value
    /// estimate (partitions beyond the NDV sit empty). With `false`, or
    /// when some hash key has no estimate, the worker count stands.
    pub fn with_stats(mut self, on: bool) -> Planner<'a> {
        self.use_stats = on;
        self
    }

    /// Plan for `n` partition-parallel workers: with `n > 1`, each
    /// provider fragment with a join, grouped aggregate, matmul or
    /// elementwise operator gets a partition width ([`Fragment::parts`])
    /// of up to `n`, shown as `parts=N` in EXPLAIN. The plan itself is
    /// unchanged; the engine reads the width from the worker pool.
    pub fn with_workers(mut self, n: usize) -> Planner<'a> {
        self.workers = n.max(1);
        self
    }

    /// Fragment a plan.
    pub fn place(&self, plan: &Plan) -> Result<Placement> {
        let prepared = self.pre_lower(plan)?;
        let mut fragments = Vec::new();
        let mut counter = 0usize;
        let (root_plan, root_site) = self.assign(&prepared, None, &mut fragments, &mut counter)?;
        let schema = infer_schema(&root_plan)?;
        let inputs = staged_inputs(&root_plan);
        fragments.push(Fragment {
            id: counter,
            site: root_site,
            plan: root_plan,
            schema,
            dest_site: "app".to_string(),
            inputs,
            parts: 1,
        });
        // Fix dest sites: each fragment's destination is the site of the
        // fragment that consumes it.
        let consumers: Vec<(usize, String)> = fragments
            .iter()
            .flat_map(|f| {
                f.inputs
                    .iter()
                    .map(|&i| (i, f.site.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (input_id, consumer_site) in consumers {
            if let Some(f) = fragments.iter_mut().find(|f| f.id == input_id) {
                f.dest_site = consumer_site;
            }
        }
        for f in &mut fragments {
            f.parts = self.parts_of(f);
        }
        Ok(Placement { fragments })
    }

    /// The partition width of a fragment: 1 at one worker, at the app
    /// site, or when the fragment has no join, grouped aggregate, matmul or elementwise
    /// operator. Otherwise the worker count — capped, for a fragment
    /// whose hot operators are all hash-keyed and all have a key NDV
    /// estimate, at the largest estimate.
    fn parts_of(&self, f: &Fragment) -> usize {
        if self.workers <= 1 || f.site == APP_SITE {
            return 1;
        }
        // `Some(max)` while every hash key seen has an estimate; `None`
        // once one has none or a block-split operator appears.
        let mut cap = Some(0usize);
        let mut hot = false;
        let mut stack = vec![&f.plan];
        while let Some(node) = stack.pop() {
            let estimate = match node {
                Plan::Join {
                    left, right, on, ..
                } => {
                    hot = true;
                    // Both sides co-partition on the first key pair; the
                    // richer side's NDV bounds the useful width.
                    on.first().and_then(|(l, r)| {
                        match (self.ndv_of(left, l), self.ndv_of(right, r)) {
                            (Some(a), Some(b)) => Some(a.max(b)),
                            (one, other) => one.or(other),
                        }
                    })
                }
                Plan::Aggregate {
                    input, group_by, ..
                } if !group_by.is_empty() => {
                    hot = true;
                    self.ndv_of(input, &group_by[0])
                }
                Plan::MatMul { .. } | Plan::ElemWise { .. } => {
                    hot = true;
                    None
                }
                _ => Some(0),
            };
            cap = cap.zip(estimate).map(|(a, b)| a.max(b));
            stack.extend(node.children());
        }
        match (hot, cap) {
            (false, _) => 1,
            (true, Some(n)) => self.workers.min(n.max(1)),
            (true, None) => self.workers,
        }
    }

    /// The distinct-value estimate for `key` over the base datasets a
    /// subtree scans, from whichever provider publishes table statistics
    /// for one of them. `None` when stats are off for this planner, the
    /// subtree scans only staged intermediates, or no holder has an
    /// estimate — the caller then keeps the static partition count.
    fn ndv_of(&self, input: &Plan, key: &str) -> Option<usize> {
        if !self.use_stats {
            return None;
        }
        input.scanned_datasets().iter().find_map(|d| {
            self.registry
                .table_stats(d)
                .and_then(|s| s.column(key).map(|z| z.distinct))
        })
    }

    /// Rewrite intent operators that no registered provider supports.
    fn pre_lower(&self, plan: &Plan) -> Result<Plan> {
        let children: Vec<Plan> = plan
            .children()
            .iter()
            .map(|c| self.pre_lower(c))
            .collect::<Result<_>>()?;
        let rebuilt = plan.with_children(children);
        let kind = rebuilt.op_kind();
        if kind.is_intent() && self.registry.supporters_of(kind).is_empty() {
            let lowered = lower_node(&rebuilt)?.ok_or_else(|| {
                CoreError::Lower(format!(
                    "intent op {} has no provider and no lowering",
                    kind.name()
                ))
            })?;
            // The lowering may itself contain intent ops (it does not
            // today, but be safe) — recurse.
            return self.pre_lower(&lowered);
        }
        Ok(rebuilt)
    }

    /// Candidate sites able to run the whole subtree in one fragment.
    ///
    /// Providers whose circuit breaker is open are skipped, so placement
    /// routes around sites that recently failed — unless *every* holder
    /// or supporter is open-circuit, in which case the full set is used
    /// (placing on a suspect provider doubles as the half-open probe and
    /// beats failing the query outright).
    fn candidates(&self, plan: &Plan) -> Vec<String> {
        match plan {
            Plan::Scan { dataset, .. } => {
                let available = self.registry.available_locations_of(dataset);
                if available.is_empty() {
                    self.registry.locations_of(dataset)
                } else {
                    available
                }
            }
            _ => {
                let mut cands = self.healthy_supporters(plan.op_kind());
                for c in plan.children() {
                    let child = self.candidates(c);
                    cands.retain(|s| child.contains(s));
                }
                cands
            }
        }
    }

    /// Supporters of `op`, preferring those with a closed breaker.
    fn healthy_supporters(&self, op: bda_core::OpKind) -> Vec<String> {
        let available = self.registry.available_supporters_of(op);
        if available.is_empty() {
            self.registry.supporters_of(op)
        } else {
            available
        }
    }

    /// Pick an execution site, preferring `preferred`, then the site
    /// holding the most scanned rows, then registration order.
    fn pick(&self, cands: &[String], preferred: Option<&str>, plan: &Plan) -> String {
        if let Some(p) = preferred {
            if cands.iter().any(|c| c == p) {
                return p.to_string();
            }
        }
        let scanned = plan.scanned_datasets();
        let mut best: Option<(usize, &String)> = None;
        for c in cands {
            let rows: usize = self
                .registry
                .provider(c)
                .ok()
                .map(|p| {
                    scanned
                        .iter()
                        .filter_map(|d| p.row_count_of(d))
                        .sum::<usize>()
                })
                .unwrap_or(0);
            let better = match best {
                Some((r, _)) => rows > r,
                None => true,
            };
            if better {
                best = Some((rows, c));
            }
        }
        best.map(|(_, c)| c.clone())
            .unwrap_or_else(|| cands[0].clone())
    }

    fn assign(
        &self,
        plan: &Plan,
        preferred: Option<&str>,
        fragments: &mut Vec<Fragment>,
        counter: &mut usize,
    ) -> Result<(Plan, String)> {
        let cands = self.candidates(plan);
        if !cands.is_empty() {
            let site = self.pick(&cands, preferred, plan);
            return Ok((plan.clone(), site));
        }
        // No single site can host the subtree: handle the node itself.
        if let Plan::Scan { dataset, .. } = plan {
            // A scan with no candidates means the dataset exists nowhere.
            return Err(CoreError::UnknownDataset(dataset.clone()));
        }
        if let Plan::Iterate { .. } = plan {
            // Cutting through a loop body is unsound (the state is
            // loop-carried); fall back to app-driven iteration.
            return Ok((plan.clone(), APP_SITE.to_string()));
        }
        let supporters = self.healthy_supporters(plan.op_kind());
        if supporters.is_empty() {
            return Err(CoreError::Unsupported {
                provider: "<federation>".into(),
                op: format!(
                    "{} (no provider supports it and it has no lowering)",
                    plan.op_kind().name()
                ),
            });
        }
        // Prefer a site that could run each child's top operator: one
        // that cannot is likely unable to read that child's output (a
        // linear-algebra engine handed a table). Capabilities are local,
        // so this costs no request; with no such site, any supporter will
        // do.
        let fitting: Vec<String> = supporters
            .iter()
            .filter(|s| {
                plan.children()
                    .iter()
                    .all(|c| self.registry.supporters_of(c.op_kind()).contains(s))
            })
            .cloned()
            .collect();
        let pool = if fitting.is_empty() {
            &supporters
        } else {
            &fitting
        };
        let site = self.pick(pool, preferred, plan);
        let mut new_children = Vec::new();
        for child in plan.children() {
            let (child_plan, child_site) = self.assign(child, Some(&site), fragments, counter)?;
            if child_site == site {
                new_children.push(child_plan);
            } else {
                // Cut: the child becomes its own fragment; the parent
                // scans its staged output.
                let schema = infer_schema(&child_plan)?;
                let id = *counter;
                *counter += 1;
                let inputs = staged_inputs(&child_plan);
                fragments.push(Fragment {
                    id,
                    site: child_site,
                    plan: child_plan,
                    schema: schema.clone(),
                    dest_site: site.clone(), // refined in `place`
                    inputs,
                    parts: 1, // set in `place`
                });
                new_children.push(Plan::Scan {
                    dataset: format!("{FRAG_PREFIX}{id}"),
                    schema,
                });
            }
        }
        Ok((plan.with_children(new_children), site))
    }
}

/// Fragment ids referenced by staged scans in a plan.
fn staged_inputs(plan: &Plan) -> Vec<usize> {
    plan.scanned_datasets()
        .iter()
        .filter_map(|d| d.strip_prefix(FRAG_PREFIX).and_then(|s| s.parse().ok()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::{col, lit, Provider};
    use bda_linalg::LinAlgEngine;
    use bda_relational::RelationalEngine;
    use bda_storage::dataset::matrix_dataset;
    use bda_storage::{Column, DataSet};
    use std::sync::Arc;

    fn registry() -> Registry {
        let rel = RelationalEngine::new("rel");
        rel.store(
            "sales",
            DataSet::from_columns(vec![
                ("k", Column::from(vec![1i64, 2])),
                ("v", Column::from(vec![1.0f64, 2.0])),
            ])
            .unwrap(),
        )
        .unwrap();
        rel.store(
            "m_rows",
            matrix_dataset(2, 2, vec![1., 2., 3., 4.]).unwrap(),
        )
        .unwrap();
        let la = LinAlgEngine::new("la");
        la.store("m", matrix_dataset(2, 2, vec![1., 0., 0., 1.]).unwrap())
            .unwrap();
        let mut r = Registry::new();
        r.register(Arc::new(rel));
        r.register(Arc::new(la));
        r
    }

    #[test]
    fn single_site_plan_is_one_fragment() {
        let r = registry();
        let plan = Plan::scan("sales", r.schema_of("sales").unwrap()).select(col("v").gt(lit(1.0)));
        let placement = Planner::new(&r).place(&plan).unwrap();
        assert_eq!(placement.fragments.len(), 1);
        assert_eq!(placement.root().site, "rel");
        assert_eq!(placement.root().dest_site, "app");
    }

    #[test]
    fn cross_engine_matmul_fragments() {
        let r = registry();
        // Left matrix lives (as rows) on the relational engine; right on
        // the linalg engine; matmul is only native on linalg.
        let plan = Plan::scan("m_rows", r.schema_of("m_rows").unwrap()).matmul(Plan::scan(
            "m",
            r.provider("la").unwrap().schema_of("m").unwrap(),
        ));
        let placement = Planner::new(&r).place(&plan).unwrap();
        assert_eq!(placement.fragments.len(), 2, "{placement:?}");
        let shipped = &placement.fragments[0];
        assert_eq!(shipped.site, "rel");
        assert_eq!(shipped.dest_site, "la");
        assert_eq!(placement.root().site, "la");
        // The root scans the staged fragment.
        assert!(placement
            .root()
            .plan
            .scanned_datasets()
            .iter()
            .any(|d| d.starts_with(FRAG_PREFIX)));
    }

    #[test]
    fn unplaceable_iterate_goes_to_app() {
        // Registry with only linalg: no Iterate support anywhere.
        let mut r = Registry::new();
        let la = LinAlgEngine::new("la");
        la.store("m", matrix_dataset(2, 2, vec![1., 0., 0., 1.]).unwrap())
            .unwrap();
        r.register(Arc::new(la));
        let schema = r.provider("la").unwrap().schema_of("m").unwrap();
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
        let placement = Planner::new(&r).place(&plan).unwrap();
        assert_eq!(placement.root().site, APP_SITE);
    }

    #[test]
    fn pre_lowering_kicks_in_without_specialists() {
        // Only the relational engine: matmul must be pre-lowered.
        let mut r = Registry::new();
        let rel = RelationalEngine::new("rel");
        rel.store(
            "m_rows",
            matrix_dataset(2, 2, vec![1., 2., 3., 4.]).unwrap(),
        )
        .unwrap();
        r.register(Arc::new(rel));
        let schema = r.schema_of("m_rows").unwrap();
        let plan = Plan::scan("m_rows", schema.clone()).matmul(Plan::scan("m_rows", schema));
        let placement = Planner::new(&r).place(&plan).unwrap();
        assert_eq!(placement.fragments.len(), 1);
        assert!(placement.root().plan.op_kinds().iter().all(|k| k.is_base()));
    }

    #[test]
    fn placement_skips_open_circuit_providers() {
        // Two linalg replicas both hold `m`; trip one's breaker and the
        // planner must place on the other.
        let la1 = LinAlgEngine::new("la1");
        la1.store("m", matrix_dataset(2, 2, vec![1., 0., 0., 1.]).unwrap())
            .unwrap();
        let la2 = LinAlgEngine::new("la2");
        la2.store("m", matrix_dataset(2, 2, vec![1., 0., 0., 1.]).unwrap())
            .unwrap();
        // Long cooldown so an open breaker cannot half-open mid-test.
        let mut r = Registry::with_breaker_config(crate::registry::BreakerConfig {
            failure_threshold: 3,
            cooldown: std::time::Duration::from_secs(3600),
        });
        r.register(Arc::new(la1));
        r.register(Arc::new(la2));
        let schema = r.schema_of("m").unwrap();
        let plan = Plan::scan("m", schema.clone()).matmul(Plan::scan("m", schema));

        let before = Planner::new(&r).place(&plan).unwrap();
        assert_eq!(before.root().site, "la1", "registration order wins");

        let threshold = r.health().config().failure_threshold;
        for _ in 0..threshold {
            r.health().record_failure("la1");
        }
        let after = Planner::new(&r).place(&plan).unwrap();
        assert_eq!(after.root().site, "la2", "open circuit is skipped");

        // With every holder open-circuit, placement still succeeds (the
        // suspect provider becomes the half-open probe).
        for _ in 0..threshold {
            r.health().record_failure("la2");
        }
        assert!(Planner::new(&r).place(&plan).is_ok());
    }

    #[test]
    fn parallel_planner_sets_a_width_and_leaves_the_plan_alone() {
        let r = registry();
        let schema = r.schema_of("sales").unwrap();
        let scan = Plan::scan("sales", schema);
        let plan = scan
            .clone()
            .join(scan.clone(), vec![("k", "k")])
            .aggregate(vec!["k"], vec![bda_core::AggExpr::count_star("n")]);

        let seq = Planner::new(&r).place(&plan).unwrap();
        assert_eq!(seq.root().parts, 1, "workers=1");
        let par = Planner::new(&r).with_workers(4).place(&plan).unwrap();
        assert_eq!(par.root().parts, 4, "the worker count is the width");
        assert_eq!(par.root().plan, seq.root().plan, "no plan node is added");

        // Nothing to partition: a filter runs at a width of one.
        let cold = scan.select(col("v").gt(lit(1.0)));
        let placed = Planner::new(&r).with_workers(4).place(&cold).unwrap();
        assert_eq!(placed.root().parts, 1);
    }

    #[test]
    fn stats_cap_hash_partitions_at_key_cardinality() {
        let r = registry();
        let schema = r.schema_of("sales").unwrap();
        let scan = Plan::scan("sales", schema);
        // `k` holds two distinct values, so four-way hash partitioning
        // would leave half the partitions empty.
        let plan = scan
            .clone()
            .join(scan, vec![("k", "k")])
            .aggregate(vec!["k"], vec![bda_core::AggExpr::count_star("n")]);
        let plain = Planner::new(&r).with_workers(4).place(&plan).unwrap();
        assert_eq!(plain.root().parts, 4);
        let capped = Planner::new(&r)
            .with_workers(4)
            .with_stats(true)
            .place(&plan)
            .unwrap();
        assert_eq!(capped.root().parts, 2, "NDV caps the width");
    }

    #[test]
    fn block_split_operators_and_the_app_site_are_not_capped_by_stats() {
        // A matmul splits row bands, not keys: no NDV bounds its width,
        // and the relational fragment that only scans runs at one.
        let r = registry();
        let plan = Plan::scan("m_rows", r.schema_of("m_rows").unwrap()).matmul(Plan::scan(
            "m",
            r.provider("la").unwrap().schema_of("m").unwrap(),
        ));
        let placement = Planner::new(&r)
            .with_workers(4)
            .with_stats(true)
            .place(&plan)
            .unwrap();
        assert_eq!(placement.fragments[0].site, "rel");
        assert_eq!(placement.fragments[0].parts, 1);
        assert_eq!(placement.root().parts, 4);

        // An app-driven loop runs on the app tier at a width of one.
        let mut r = Registry::new();
        let la = LinAlgEngine::new("la");
        la.store("m", matrix_dataset(2, 2, vec![1., 0., 0., 1.]).unwrap())
            .unwrap();
        r.register(Arc::new(la));
        let schema = r.provider("la").unwrap().schema_of("m").unwrap();
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
        let placement = Planner::new(&r).with_workers(4).place(&plan).unwrap();
        assert_eq!(placement.root().site, APP_SITE);
        assert_eq!(placement.root().parts, 1);
    }

    #[test]
    fn a_cut_never_hands_linalg_a_table() {
        // The `cross_engine` shape, unoptimized: linalg supports the root
        // `Aggregate` and holds the most scanned rows, but its child is a
        // projection of a join, which only rel can produce or read.
        let la = LinAlgEngine::new("la");
        la.store("a", matrix_dataset(2, 2, vec![1., 2., 3., 4.]).unwrap())
            .unwrap();
        la.store("b", matrix_dataset(2, 2, vec![5., 6., 7., 8.]).unwrap())
            .unwrap();
        let rel = RelationalEngine::new("rel");
        rel.store(
            "lookup",
            DataSet::from_columns(vec![
                ("row", Column::from(vec![0i64, 1])),
                ("weight", Column::from(vec![0.5f64, 2.0])),
            ])
            .unwrap(),
        )
        .unwrap();
        let mut r = Registry::new();
        r.register(Arc::new(la));
        r.register(Arc::new(rel));
        assert!(r
            .supporters_of(bda_core::OpKind::Aggregate)
            .contains(&"la".to_string()));
        let scan = |name: &str| Plan::scan(name, r.schema_of(name).unwrap());
        let plan = Plan::UntagDims {
            input: scan("a").matmul(scan("b")).boxed(),
        }
        .join(scan("lookup"), vec![("row", "row")])
        .project(vec![
            ("row", col("row")),
            ("vw", col("v").mul(col("weight"))),
        ])
        .aggregate(
            vec!["row"],
            vec![bda_core::AggExpr::new(
                bda_core::AggFunc::Sum,
                col("vw"),
                "s",
            )],
        );
        let placement = Planner::new(&r).place(&plan).unwrap();
        for f in &placement.fragments {
            if f.plan.op_kinds().contains(&bda_core::OpKind::MatMul) {
                assert_eq!(f.site, "la", "{placement:?}");
                assert_eq!(f.plan.op_kind(), bda_core::OpKind::MatMul, "{placement:?}");
            } else {
                assert_eq!(f.site, "rel", "{placement:?}");
            }
        }
        assert_eq!(placement.root().site, "rel");
    }

    #[test]
    fn missing_dataset_is_an_error() {
        let r = registry();
        let plan = Plan::scan(
            "nope",
            bda_storage::Schema::new(vec![bda_storage::Field::value(
                "x",
                bda_storage::DataType::Int64,
            )])
            .unwrap(),
        );
        // A scan with no location has no candidates and Scan has
        // supporters, but its children (none) — scanning proceeds to cut
        // with zero candidates at the leaf...
        let res = Planner::new(&r).place(&plan);
        assert!(res.is_err(), "{res:?}");
    }
}
