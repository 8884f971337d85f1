//! The logical optimizer.
//!
//! Algebra-level rewrites that run before site assignment:
//!
//! * **constant folding** of literal-only scalar subexpressions,
//! * **select merging** (adjacent filters AND together),
//! * **predicate pushdown** through project / rename / union / distinct /
//!   sort / dice / retagging and into join sides,
//! * **identity-project pruning**,
//! * **intent recognition** ([`bda_core::recognize`]) so lowered shapes
//!   regain their intent operators before providers are chosen
//!   (desideratum 3).
//!
//! Every pass is semantics-preserving; the crate's property tests compare
//! optimized and unoptimized plans on the reference evaluator.

use std::cell::Cell;
use std::collections::HashMap;

use bda_core::eval::eval_row;
use bda_core::infer::infer_schema;
use bda_core::pruning::{analyze, may_match_all};
use bda_core::{lit, Expr, JoinType, Plan};
use bda_storage::{Row, Schema, TableStats};

/// Which passes to run (all on by default; the ablation bench toggles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerConfig {
    /// Fold literal-only expressions.
    pub fold_constants: bool,
    /// Merge and push down filters.
    pub pushdown: bool,
    /// Remove identity projections.
    pub prune_projects: bool,
    /// Run intent recognition.
    pub recognize_intents: bool,
    /// Consult table statistics to eliminate fragments whose zone maps
    /// disprove a selection. Defaults to [`bda_core::stats_from_env`].
    pub use_stats: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            fold_constants: true,
            pushdown: true,
            prune_projects: true,
            recognize_intents: true,
            use_stats: bda_core::stats_from_env(),
        }
    }
}

impl OptimizerConfig {
    /// Everything off — the ablation baseline.
    pub fn disabled() -> OptimizerConfig {
        OptimizerConfig {
            fold_constants: false,
            pushdown: false,
            prune_projects: false,
            recognize_intents: false,
            use_stats: false,
        }
    }
}

/// Optimize a plan under the given configuration, without table
/// statistics (equivalent to [`optimize_with_stats`] with a source that
/// knows nothing).
pub fn optimize(plan: &Plan, config: OptimizerConfig) -> Plan {
    optimize_with_stats(plan, config, &|_| None).0
}

/// Optimize a plan, consulting `stats` (dataset name → table statistics)
/// for fragment elimination when `config.use_stats` is on: a selection
/// directly over a scan whose merged zone maps disprove one conjunct is
/// replaced by an empty `Values` — the whole fragment (and any transfer
/// it implied) disappears from the plan. Returns the optimized plan and
/// how many fragments were eliminated.
///
/// The same error-faithfulness gate as scan-time pruning applies:
/// elimination only happens when `bda_core::pruning::analyze` proves the
/// whole predicate total over the scan schema.
pub fn optimize_with_stats(
    plan: &Plan,
    config: OptimizerConfig,
    stats: &dyn Fn(&str) -> Option<TableStats>,
) -> (Plan, usize) {
    let mut cur = plan.clone();
    if config.recognize_intents {
        cur = bda_core::recognize::recognize_all(&cur);
    }
    let pruned = Cell::new(0usize);
    // Iterate the rewrite passes to a (bounded) fixpoint.
    for _ in 0..8 {
        let mut next = cur.clone();
        if config.fold_constants {
            next = fold_constants(&next);
        }
        if config.pushdown {
            next = next.transform_up(&pushdown_step);
        }
        if config.prune_projects {
            next = next.transform_up(&prune_project_step);
        }
        if config.use_stats {
            next = next.transform_up(&|node| prune_fragment_step(node, stats, &pruned));
        }
        if next == cur {
            break;
        }
        cur = next;
    }
    (cur, pruned.get())
}

/// Replace `select(scan(t), p)` by an empty `Values` when `t`'s table
/// statistics disprove `p`.
fn prune_fragment_step(
    node: Plan,
    stats: &dyn Fn(&str) -> Option<TableStats>,
    pruned: &Cell<usize>,
) -> Plan {
    let Plan::Select { input, predicate } = &node else {
        return node;
    };
    let Plan::Scan { dataset, schema } = input.as_ref() else {
        return node;
    };
    let Some(tests) = analyze(predicate, schema) else {
        return node;
    };
    let table = stats(dataset);
    let zone_of = |name: &str| table.as_ref().and_then(|t| t.column(name));
    // Guard against stale statistics claiming fewer rows than exist:
    // only a disproof over the *whole* table eliminates the fragment.
    if may_match_all(&tests, zone_of) {
        return node;
    }
    pruned.set(pruned.get() + 1);
    Plan::Values {
        schema: schema.clone(),
        rows: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

/// Fold literal-only subexpressions in every expression of the plan.
pub fn fold_constants(plan: &Plan) -> Plan {
    plan.transform_up(&|node| match node {
        Plan::Select { input, predicate } => {
            let p = fold_expr(&predicate);
            // `select true` is the identity.
            if p == lit(true) {
                *input
            } else {
                Plan::Select {
                    input,
                    predicate: p,
                }
            }
        }
        Plan::Project { input, exprs } => Plan::Project {
            input,
            exprs: exprs
                .into_iter()
                .map(|(n, e)| {
                    let folded = fold_expr(&e);
                    (n, folded)
                })
                .collect(),
        },
        other => other,
    })
}

/// Fold one expression bottom-up: any subtree without column references
/// that evaluates without error becomes a literal.
pub fn fold_expr(e: &Expr) -> Expr {
    let folded = map_expr_children(e, &|c| fold_expr(c));
    if matches!(folded, Expr::Literal(_) | Expr::Column(_)) {
        return folded;
    }
    if folded.referenced_columns().is_empty() {
        if let Ok(v) = eval_row(&folded, &Schema::empty(), &Row::new()) {
            return Expr::Literal(v);
        }
    }
    folded
}

fn map_expr_children(e: &Expr, f: &impl Fn(&Expr) -> Expr) -> Expr {
    match e {
        Expr::Column(_) | Expr::Literal(_) => e.clone(),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(f(left)),
            right: Box::new(f(right)),
        },
        Expr::Unary { op, input } => Expr::Unary {
            op: *op,
            input: Box::new(f(input)),
        },
        Expr::Cast { input, to } => Expr::Cast {
            input: Box::new(f(input)),
            to: *to,
        },
        Expr::Coalesce(args) => Expr::Coalesce(args.iter().map(f).collect()),
        Expr::Case {
            branches,
            otherwise,
        } => Expr::Case {
            branches: branches.iter().map(|(w, t)| (f(w), f(t))).collect(),
            otherwise: otherwise.as_ref().map(|e| Box::new(f(e))),
        },
    }
}

// ---------------------------------------------------------------------------
// Predicate pushdown
// ---------------------------------------------------------------------------

/// Substitute column references by expressions (pushing a predicate
/// through a projection).
fn subst(e: &Expr, map: &HashMap<String, Expr>) -> Expr {
    match e {
        Expr::Column(name) => map
            .get(name)
            .cloned()
            .unwrap_or_else(|| Expr::Column(name.clone())),
        other => map_expr_children(other, &|c| subst(c, map)),
    }
}

/// One bottom-up pushdown step applied at a `Select` node.
fn pushdown_step(node: Plan) -> Plan {
    let Plan::Select { input, predicate } = node else {
        return node;
    };
    match *input {
        // select(select(x, p), q) => select(x, p AND q)
        Plan::Select {
            input: inner,
            predicate: p,
        } => Plan::Select {
            input: inner,
            predicate: p.and(predicate),
        },
        // select(project(x, es), p) => project(select(x, p[es]), es)
        Plan::Project {
            input: inner,
            exprs,
        } => {
            let map: HashMap<String, Expr> =
                exprs.iter().map(|(n, e)| (n.clone(), e.clone())).collect();
            let pushed = subst(&predicate, &map);
            Plan::Project {
                input: Plan::Select {
                    input: inner,
                    predicate: pushed,
                }
                .boxed(),
                exprs,
            }
        }
        // select(rename(x, m), p) => rename(select(x, p[m⁻¹]), m)
        Plan::Rename {
            input: inner,
            mapping,
        } => {
            let map: HashMap<String, Expr> = mapping
                .iter()
                .map(|(old, new)| (new.clone(), Expr::Column(old.clone())))
                .collect();
            let pushed = subst(&predicate, &map);
            Plan::Rename {
                input: Plan::Select {
                    input: inner,
                    predicate: pushed,
                }
                .boxed(),
                mapping,
            }
        }
        // select(union(a, b), p) => union(select(a, p), select(b, p))
        Plan::Union { left, right } => Plan::Union {
            left: Plan::Select {
                input: left,
                predicate: predicate.clone(),
            }
            .boxed(),
            right: Plan::Select {
                input: right,
                predicate,
            }
            .boxed(),
        },
        // Filters commute with distinct, sort, dice and retagging.
        Plan::Distinct { input: inner } => Plan::Distinct {
            input: Plan::Select {
                input: inner,
                predicate,
            }
            .boxed(),
        },
        Plan::Sort { input: inner, keys } => Plan::Sort {
            input: Plan::Select {
                input: inner,
                predicate,
            }
            .boxed(),
            keys,
        },
        Plan::Dice {
            input: inner,
            ranges,
        } => Plan::Dice {
            input: Plan::Select {
                input: inner,
                predicate,
            }
            .boxed(),
            ranges,
        },
        Plan::UntagDims { input: inner } => Plan::UntagDims {
            input: Plan::Select {
                input: inner,
                predicate,
            }
            .boxed(),
        },
        Plan::TagDims { input: inner, dims } => Plan::TagDims {
            input: Plan::Select {
                input: inner,
                predicate,
            }
            .boxed(),
            dims,
        },
        // select(join(l, r), p): route conjuncts that mention only one
        // side's columns to that side.
        Plan::Join {
            left,
            right,
            on,
            join_type,
            suffix,
        } => push_into_join(predicate, *left, *right, on, join_type, suffix),
        other => Plan::Select {
            input: other.boxed(),
            predicate,
        },
    }
}

fn push_into_join(
    predicate: Expr,
    left: Plan,
    right: Plan,
    on: Vec<(String, String)>,
    join_type: JoinType,
    suffix: String,
) -> Plan {
    let rebuild = |l: Plan, r: Plan| Plan::Join {
        left: l.boxed(),
        right: r.boxed(),
        on: on.clone(),
        join_type,
        suffix: suffix.clone(),
    };
    let (Ok(ls), Ok(rs)) = (infer_schema(&left), infer_schema(&right)) else {
        return Plan::Select {
            input: rebuild(left, right).boxed(),
            predicate,
        };
    };
    // Output-name provenance. Left names are never suffixed; right names
    // are suffixed when they collide with a left name.
    let left_names: Vec<String> = ls.names().iter().map(|s| s.to_string()).collect();
    let mut right_out_to_orig: HashMap<String, String> = HashMap::new();
    for f in rs.fields() {
        let out = if left_names.contains(&f.name) {
            format!("{}{}", f.name, suffix)
        } else {
            f.name.clone()
        };
        right_out_to_orig.insert(out, f.name.clone());
    }

    let mut to_left: Vec<Expr> = Vec::new();
    let mut to_right: Vec<Expr> = Vec::new();
    let mut keep: Vec<Expr> = Vec::new();
    for conjunct in predicate.conjuncts() {
        let refs = conjunct.referenced_columns();
        let all_left = refs.iter().all(|c| left_names.contains(c));
        let all_right = refs
            .iter()
            .all(|c| right_out_to_orig.contains_key(c) && !left_names.contains(c));
        // Inner and Semi/Anti joins allow pushing to the left; pushing
        // into the right side is only safe for Inner (Left join would
        // change padding, Semi/Anti would change match sets — actually
        // Semi/Anti right-side predicates are not expressible here since
        // right columns are not in the output).
        if all_left {
            to_left.push(conjunct.clone());
        } else if all_right && join_type == JoinType::Inner {
            let renamed = conjunct.rename_columns(&|n| {
                right_out_to_orig
                    .get(n)
                    .cloned()
                    .unwrap_or_else(|| n.to_string())
            });
            to_right.push(renamed);
        } else {
            keep.push(conjunct.clone());
        }
    }
    // Left-join left-side pushdown is safe only for Inner/Semi/Anti: a
    // filter on left columns commutes with Left join too (padding rows
    // come from surviving left rows). It is safe for all types here
    // because the predicate references only left columns.
    let new_left = if to_left.is_empty() {
        left
    } else {
        Plan::Select {
            input: left.boxed(),
            predicate: Expr::and_all(to_left),
        }
    };
    let new_right = if to_right.is_empty() {
        right
    } else {
        Plan::Select {
            input: right.boxed(),
            predicate: Expr::and_all(to_right),
        }
    };
    let joined = rebuild(new_left, new_right);
    if keep.is_empty() {
        joined
    } else {
        Plan::Select {
            input: joined.boxed(),
            predicate: Expr::and_all(keep),
        }
    }
}

// ---------------------------------------------------------------------------
// Project pruning
// ---------------------------------------------------------------------------

/// Remove projections that are exact identities of their input schema.
fn prune_project_step(node: Plan) -> Plan {
    let Plan::Project { input, exprs } = &node else {
        return node;
    };
    let Ok(in_schema) = infer_schema(input) else {
        return node;
    };
    if exprs.len() != in_schema.len() {
        return node;
    }
    let identity = exprs
        .iter()
        .zip(in_schema.fields())
        .all(|((n, e), f)| n == &f.name && matches!(e, Expr::Column(c) if c == &f.name));
    if identity {
        (**input).clone()
    } else {
        node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::reference::evaluate;
    use bda_core::{col, AggExpr, AggFunc, OpKind};
    use bda_storage::{Column, DataSet};
    use std::collections::HashMap as StdHashMap;

    fn t_schema() -> Schema {
        DataSet::from_columns(vec![
            ("k", Column::from(vec![1i64])),
            ("v", Column::from(vec![1.0f64])),
        ])
        .unwrap()
        .schema()
        .clone()
    }

    fn src() -> StdHashMap<String, DataSet> {
        let mut m = StdHashMap::new();
        m.insert(
            "t".to_string(),
            DataSet::from_columns(vec![
                ("k", Column::from(vec![1i64, 2, 3, 4])),
                ("v", Column::from(vec![1.0f64, -1.0, 2.0, -2.0])),
            ])
            .unwrap(),
        );
        m
    }

    fn assert_equivalent(plan: &Plan) {
        let optimized = optimize(plan, OptimizerConfig::default());
        let a = evaluate(plan, &src()).unwrap();
        let b = evaluate(&optimized, &src()).unwrap();
        assert!(
            a.same_bag(&b).unwrap(),
            "optimizer changed semantics.\noriginal:\n{plan}\noptimized:\n{optimized}"
        );
    }

    #[test]
    fn constant_folding() {
        let e = lit(1i64).add(lit(2i64)).mul(col("k"));
        let f = fold_expr(&e);
        assert_eq!(f, Expr::Literal(bda_storage::Value::Int(3)).mul(col("k")));
        // Division by zero folds to null (total semantics).
        let e = lit(1i64).div(lit(0i64));
        assert_eq!(fold_expr(&e), Expr::Literal(bda_storage::Value::Null));
    }

    #[test]
    fn select_true_removed() {
        let p = Plan::scan("t", t_schema()).select(lit(1i64).lt(lit(2i64)));
        let o = optimize(&p, OptimizerConfig::default());
        assert_eq!(o, Plan::scan("t", t_schema()));
    }

    #[test]
    fn pushdown_through_project() {
        let p = Plan::scan("t", t_schema())
            .project(vec![("kk", col("k").mul(lit(2i64)))])
            .select(col("kk").gt(lit(4i64)));
        let o = optimize(&p, OptimizerConfig::default());
        // Select must now sit below the project.
        match &o {
            Plan::Project { input, .. } => {
                assert!(matches!(input.as_ref(), Plan::Select { .. }), "{o}")
            }
            other => panic!("expected project at root, got {other}"),
        }
        assert_equivalent(&p);
    }

    #[test]
    fn pushdown_splits_join_conjuncts() {
        let t = Plan::scan("t", t_schema());
        let p = t
            .clone()
            .join(t, vec![("k", "k")])
            .select(col("k").gt(lit(1i64)).and(col("v_r").lt(lit(0.0))));
        let o = optimize(&p, OptimizerConfig::default());
        // Both sides should have gained a filter; no residual select.
        match &o {
            Plan::Join { left, right, .. } => {
                assert!(matches!(left.as_ref(), Plan::Select { .. }), "{o}");
                assert!(matches!(right.as_ref(), Plan::Select { .. }), "{o}");
            }
            other => panic!("expected join at root, got {other}"),
        }
        assert_equivalent(&p);
    }

    #[test]
    fn left_join_right_side_not_pushed() {
        let t = Plan::scan("t", t_schema());
        let p = t
            .clone()
            .join_as(t, vec![("k", "k")], JoinType::Left)
            .select(col("v_r").is_null());
        let o = optimize(&p, OptimizerConfig::default());
        // The predicate must stay above the left join.
        assert!(matches!(o, Plan::Select { .. }), "{o}");
        assert_equivalent(&p);
    }

    #[test]
    fn pushdown_through_union_and_distinct() {
        let t = Plan::scan("t", t_schema());
        let p = t.clone().union(t).distinct().select(col("k").eq(lit(2i64)));
        assert_equivalent(&p);
        let o = optimize(&p, OptimizerConfig::default());
        // Root should be distinct over union of selects.
        assert_eq!(o.op_kind(), OpKind::Distinct, "{o}");
    }

    #[test]
    fn identity_project_pruned() {
        let p = Plan::scan("t", t_schema()).project(vec![("k", col("k")), ("v", col("v"))]);
        let o = optimize(&p, OptimizerConfig::default());
        assert_eq!(o, Plan::scan("t", t_schema()));
        // A reordering projection is NOT an identity.
        let p = Plan::scan("t", t_schema()).project(vec![("v", col("v")), ("k", col("k"))]);
        let o = optimize(&p, OptimizerConfig::default());
        assert_eq!(o.op_kind(), OpKind::Project);
    }

    #[test]
    fn recognition_restores_matmul() {
        let m = bda_storage::dataset::matrix_dataset(2, 2, vec![1., 2., 3., 4.]).unwrap();
        let plan = Plan::scan("m", m.schema().clone()).matmul(Plan::scan("m", m.schema().clone()));
        let lowered = bda_core::lower::lower_all(&plan).unwrap();
        let o = optimize(&lowered, OptimizerConfig::default());
        assert!(o.op_kinds().contains(&OpKind::MatMul), "{o}");
        let off = optimize(
            &lowered,
            OptimizerConfig {
                recognize_intents: false,
                ..OptimizerConfig::default()
            },
        );
        assert!(!off.op_kinds().contains(&OpKind::MatMul));
    }

    #[test]
    fn disabled_config_is_identity() {
        let p = Plan::scan("t", t_schema())
            .select(lit(true))
            .aggregate(vec!["k"], vec![AggExpr::new(AggFunc::Sum, col("v"), "s")]);
        assert_eq!(optimize(&p, OptimizerConfig::disabled()), p);
    }

    #[test]
    fn pushdown_through_retagging_and_dice() {
        let m =
            bda_storage::dataset::matrix_dataset(4, 4, (0..16).map(f64::from).collect()).unwrap();
        let mut src = StdHashMap::new();
        src.insert("m".to_string(), m.clone());
        let p = Plan::Dice {
            input: Plan::scan("m", m.schema().clone()).boxed(),
            ranges: vec![("row".into(), 0, 3)],
        }
        .select(col("v").gt(lit(5.0)));
        let o = optimize(&p, OptimizerConfig::default());
        // The filter must sit below the dice after pushdown.
        assert_eq!(o.op_kind(), OpKind::Dice, "{o}");
        let a = evaluate(&p, &src).unwrap();
        let b = evaluate(&o, &src).unwrap();
        assert!(a.same_bag(&b).unwrap());
    }

    #[test]
    fn folding_inside_case_branches() {
        let e = Expr::Case {
            branches: vec![(lit(2i64).gt(lit(1i64)), lit(10i64).mul(lit(10i64)))],
            otherwise: Some(Box::new(col("k"))),
        };
        let f = fold_expr(&e);
        // Whole CASE folds: condition is the constant true and the branch
        // a constant, so the expression itself has no column refs... it
        // does reference k in `otherwise`, so only subtrees fold.
        match f {
            Expr::Case { branches, .. } => {
                assert_eq!(
                    branches[0],
                    (
                        Expr::Literal(bda_storage::Value::Bool(true)),
                        Expr::Literal(bda_storage::Value::Int(100))
                    )
                );
            }
            other => panic!("expected case, got {other}"),
        }
    }

    #[test]
    fn semi_join_left_pushdown() {
        let t = Plan::scan("t", t_schema());
        let p = t
            .clone()
            .join_as(t, vec![("k", "k")], JoinType::Semi)
            .select(col("v").gt(lit(0.0)));
        let o = optimize(&p, OptimizerConfig::default());
        // Predicate references left columns only: pushed into the left.
        match &o {
            Plan::Join {
                left, join_type, ..
            } => {
                assert_eq!(*join_type, JoinType::Semi);
                assert!(matches!(left.as_ref(), Plan::Select { .. }), "{o}");
            }
            other => panic!("expected join, got {other}"),
        }
        assert_equivalent(&p);
    }

    #[test]
    fn stats_disprove_selection_fragment() {
        let stats_of = |name: &str| (name == "t").then(|| TableStats::of(&src()["t"]).unwrap());
        let cfg = OptimizerConfig {
            use_stats: true,
            ..OptimizerConfig::default()
        };
        // k ranges 1..=4; k > 100 is disproved by the merged zone map.
        let p = Plan::scan("t", t_schema()).select(col("k").gt(lit(100i64)));
        let (o, n) = optimize_with_stats(&p, cfg, &stats_of);
        assert_eq!(n, 1);
        assert!(
            matches!(&o, Plan::Values { rows, .. } if rows.is_empty()),
            "{o}"
        );
        // A satisfiable predicate is untouched.
        let p2 = Plan::scan("t", t_schema()).select(col("k").gt(lit(2i64)));
        let (o2, n2) = optimize_with_stats(&p2, cfg, &stats_of);
        assert_eq!(n2, 0);
        assert_eq!(o2, p2);
        // No statistics for the table: nothing is eliminated.
        let (o3, n3) = optimize_with_stats(&p, cfg, &|_| None);
        assert_eq!(n3, 0);
        assert_eq!(o3, p);
        // use_stats off: identical plan even with statistics available.
        let off = OptimizerConfig {
            use_stats: false,
            ..cfg
        };
        assert_eq!(optimize_with_stats(&p, off, &stats_of).1, 0);
    }

    #[test]
    fn random_pipelines_preserved() {
        // A handful of structurally diverse plans, all checked against the
        // reference evaluator.
        let t = || Plan::scan("t", t_schema());
        let plans = vec![
            t().select(col("v").gt(lit(0.0)))
                .select(col("k").lt(lit(4i64)))
                .sort_by(vec!["k"])
                .limit(2),
            t().rename(vec![("k", "key")])
                .select(col("key").modulo(lit(2i64)).eq(lit(0i64))),
            t().union(t().select(col("v").lt(lit(0.0))))
                .select(col("k").gt(lit(1i64).add(lit(1i64)))),
            t().join_as(t(), vec![("k", "k")], JoinType::Semi)
                .select(col("v").gt(lit(-10.0))),
            t().aggregate(vec!["k"], vec![AggExpr::new(AggFunc::Avg, col("v"), "m")])
                .select(col("m").is_null().not()),
        ];
        for p in &plans {
            assert_equivalent(p);
        }
    }
}
