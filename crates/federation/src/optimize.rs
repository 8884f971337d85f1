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
//!   (desideratum 3),
//! * two **aggregation laws** ([`Law`]), run with pushdown: an aggregate
//!   grouped only by dimensions moves below `UntagDims` (L0), and a sum
//!   over an inner equi-join is pre-aggregated on one side (L1).
//!
//! Every pass is semantics-preserving; the crate's property tests compare
//! optimized and unoptimized plans on the reference evaluator. L1 sums
//! in a different order and rounds products differently, so it is
//! confined to Float64 sums over linear-algebra subtrees, which every
//! engine already matches to the oracle only up to rounding.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use bda_core::eval::{eval_row, infer_expr};
use bda_core::infer::infer_schema;
use bda_core::pruning::{analyze, may_match_all};
use bda_core::{lit, AggExpr, AggFunc, BinOp, Expr, JoinType, OpKind, Plan};
use bda_storage::{DataType, Row, Schema, TableStats};

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
/// statistics.
pub fn optimize(plan: &Plan, config: OptimizerConfig) -> Plan {
    optimize_report(plan, config, &|_| None).plan
}

/// [`optimize_report`] without the list of laws: the optimized plan and
/// how many fragments table statistics eliminated. A compatibility shim
/// for the benchmark harness (`crates/bench/src/bin/bda-bench`), which
/// calls it; delete it with the next change to that harness, which
/// should call [`optimize_report`] instead.
pub fn optimize_with_stats(
    plan: &Plan,
    config: OptimizerConfig,
    stats: &dyn Fn(&str) -> Option<TableStats>,
) -> (Plan, usize) {
    let o = optimize_report(plan, config, stats);
    (o.plan, o.pruned)
}

/// An algebraic law the optimizer applied; EXPLAIN names each one that
/// fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Law {
    /// L0: `γ_{D; A}(untag(X)) = untag(γ_{D; A}(X))` when every grouping
    /// column is a dimension of `X`. Exact: the aggregate reads the same
    /// rows in the same order.
    AggregateBelowUntag,
    /// L1, eager aggregation through an inner equi-join:
    /// `γ_{k; Σ f(M)·g(L)}(M ⋈_k L) = γ_{k; Σ S·g(L)}(γ_{k; S = Σ f(M)}(M) ⋈_k L)`,
    /// with a projection between aggregate and join folded into the
    /// aggregate first, and `count(*)` as a sum of pre-counts. Only a
    /// grouped aggregate is rewritten: a global one keeps its one group
    /// over an empty join. Exact over the reals; in floating point it
    /// regroups the sum, so it fires only on Float64 sums whose `M`
    /// contains a `MatMul` or `ElemWise`.
    EagerAggregation,
}

impl Law {
    /// How EXPLAIN names the law.
    pub fn name(self) -> &'static str {
        match self {
            Law::AggregateBelowUntag => "L0 aggregate below untag",
            Law::EagerAggregation => "L1 eager aggregation through a join",
        }
    }
}

/// The outcome of [`optimize_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct Optimized {
    /// The optimized plan.
    pub plan: Plan,
    /// Fragments eliminated by table statistics.
    pub pruned: usize,
    /// The laws that fired, in the order they first fired.
    pub laws: Vec<Law>,
}

/// Optimize a plan, consulting `stats` (dataset name → table statistics)
/// for fragment elimination when `config.use_stats` is on: a selection
/// directly over a scan whose merged zone maps disprove one conjunct is
/// replaced by an empty `Values` — the whole fragment (and any transfer
/// it implied) disappears from the plan. Reports how many fragments were
/// eliminated and which aggregation laws fired.
///
/// The same error-faithfulness gate as scan-time pruning applies:
/// elimination only happens when `bda_core::pruning::analyze` proves the
/// whole predicate total over the scan schema.
pub fn optimize_report(
    plan: &Plan,
    config: OptimizerConfig,
    stats: &dyn Fn(&str) -> Option<TableStats>,
) -> Optimized {
    let mut cur = plan.clone();
    if config.recognize_intents {
        cur = bda_core::recognize::recognize_all(&cur);
    }
    let pruned = Cell::new(0usize);
    let laws = RefCell::new(Vec::new());
    // Iterate the rewrite passes to a (bounded) fixpoint.
    for _ in 0..8 {
        let mut next = cur.clone();
        if config.fold_constants {
            next = fold_constants(&next);
        }
        if config.pushdown {
            next = next.transform_up(&|node| aggregate_step(pushdown_step(node), &laws));
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
    Optimized {
        plan: cur,
        pruned: pruned.get(),
        laws: laws.into_inner(),
    }
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
// Aggregation laws
// ---------------------------------------------------------------------------

/// Try L0, then L1, at an `Aggregate`; record the law that fired.
fn aggregate_step(node: Plan, laws: &RefCell<Vec<Law>>) -> Plan {
    let Plan::Aggregate {
        input,
        group_by,
        aggs,
    } = &node
    else {
        return node;
    };
    let fired = match input.as_ref() {
        Plan::UntagDims { input } => {
            aggregate_below_untag(input, group_by, aggs).map(|p| (p, Law::AggregateBelowUntag))
        }
        _ => eager_aggregation(input, group_by, aggs).map(|p| (p, Law::EagerAggregation)),
    };
    let Some((plan, law)) = fired else {
        return node;
    };
    // A rewrite must keep the output schema; one that does not is dropped.
    if infer_schema(&plan).ok() != infer_schema(&node).ok() {
        return node;
    }
    let mut laws = laws.borrow_mut();
    if !laws.contains(&law) {
        laws.push(law);
    }
    plan
}

/// L0: `γ_{D; A}(untag(X))` → `untag(γ_{D; A}(X))` when every grouping
/// column is a dimension of `X`.
fn aggregate_below_untag(input: &Plan, group_by: &[String], aggs: &[AggExpr]) -> Option<Plan> {
    let schema = infer_schema(input).ok()?;
    let by_dims = group_by
        .iter()
        .all(|g| schema.field(g).is_ok_and(|f| f.is_dimension()));
    by_dims.then(|| Plan::UntagDims {
        input: Plan::Aggregate {
            input: Box::new(input.clone()),
            group_by: group_by.to_vec(),
            aggs: aggs.to_vec(),
        }
        .boxed(),
    })
}

/// L1: pre-aggregate the side of an inner equi-join that holds the
/// linear algebra. `input` is the join, or a projection over it that is
/// folded into the aggregate's arguments. Returns `None` when any side
/// condition fails (see [`Law::EagerAggregation`]); also when that side
/// is already an aggregate, so the law fires once.
fn eager_aggregation(input: &Plan, group_by: &[String], aggs: &[AggExpr]) -> Option<Plan> {
    // Fold a projection: arguments read the join's columns, and each
    // grouping column must pass through under its own name.
    let (join, aggs) = match input {
        Plan::Project { input, exprs } => {
            let map: HashMap<String, Expr> = exprs.iter().cloned().collect();
            let passes = group_by
                .iter()
                .all(|g| matches!(map.get(g), Some(Expr::Column(c)) if c == g));
            if !passes {
                return None;
            }
            let folded = aggs
                .iter()
                .map(|a| AggExpr {
                    arg: a.arg.as_ref().map(|e| subst(e, &map)),
                    ..a.clone()
                })
                .collect();
            (input.as_ref(), folded)
        }
        _ => (input, aggs.to_vec()),
    };
    let Plan::Join {
        left,
        right,
        on,
        join_type: JoinType::Inner,
        suffix,
    } = join
    else {
        return None;
    };
    let linear = |p: &Plan| {
        p.op_kinds()
            .iter()
            .any(|k| matches!(k, OpKind::MatMul | OpKind::ElemWise))
    };
    // M is the side with the linear algebra (the left when both have it).
    let m_left = if linear(left) {
        true
    } else if linear(right) {
        false
    } else {
        return None;
    };
    let (m, l) = if m_left { (left, right) } else { (right, left) };
    let mut bare = m.as_ref();
    if let Plan::UntagDims { input } = bare {
        bare = input;
    }
    // A global aggregate keeps its one group over an empty join, where
    // `count(*)` is 0 but a sum of no pre-counts is null: only grouped
    // aggregates are rewritten.
    if on.is_empty() || group_by.is_empty() || matches!(bare, Plan::Aggregate { .. }) {
        return None;
    }
    let (ls, rs) = (infer_schema(left).ok()?, infer_schema(right).ok()?);
    let joined = infer_schema(join).ok()?;
    let (m_schema, l_schema) = if m_left { (&ls, &rs) } else { (&rs, &ls) };
    // Each joined column's origin: (from M?, its name on its side).
    let origin = join_origins(&ls, &rs, suffix, m_left)?;
    let side_of = |e: &Expr, from_m: bool| {
        e.referenced_columns()
            .iter()
            .all(|c| origin.get(c).is_some_and(|(mside, _)| *mside == from_m))
    };
    let to_side = |e: &Expr| e.rename_columns(&|c| origin[c].1.clone());

    // Split every aggregate into its M part (pre-aggregated as `S`) and
    // the L factor `g` the outer sum keeps (`Σ S · g`; none: `Σ S`).
    let mut pre = Vec::with_capacity(aggs.len());
    let mut factors: Vec<Option<Expr>> = Vec::with_capacity(aggs.len());
    for a in &aggs {
        let (f, factor) = match (a.func, &a.arg) {
            (AggFunc::Count, None) => {
                pre.push(AggExpr::count_star(a.name.clone()));
                factors.push(None);
                continue;
            }
            (AggFunc::Sum, Some(e)) if side_of(e, true) => (e, None),
            (
                AggFunc::Sum,
                Some(Expr::Binary {
                    op: BinOp::Mul,
                    left: x,
                    right: y,
                }),
            ) => {
                if side_of(x, true) && side_of(y, false) {
                    (x.as_ref(), Some(y.as_ref().clone()))
                } else if side_of(y, true) && side_of(x, false) {
                    (y.as_ref(), Some(x.as_ref().clone()))
                } else {
                    return None;
                }
            }
            _ => return None,
        };
        let f = to_side(f);
        let float = |e: &Expr, s: &Schema| infer_expr(e, s).ok() == Some(Some(DataType::Float64));
        if !float(&f, m_schema) || !float(a.arg.as_ref()?, &joined) {
            return None;
        }
        pre.push(AggExpr::new(AggFunc::Sum, f, a.name.clone()));
        factors.push(factor);
    }

    // M groups by its join keys plus the grouping columns it owns.
    let mut pre_group: Vec<String> = on
        .iter()
        .map(|(lk, rk)| if m_left { lk } else { rk }.clone())
        .collect();
    for g in group_by {
        match origin.get(g) {
            Some((true, name)) if !pre_group.contains(name) => pre_group.push(name.clone()),
            Some(_) => {}
            None => return None,
        }
    }
    if pre.iter().any(|a| pre_group.contains(&a.name)) {
        return None;
    }
    let pre_agg = Plan::Aggregate {
        input: m.clone(),
        group_by: pre_group,
        aggs: pre,
    };
    let p_schema = infer_schema(&pre_agg).ok()?;
    let (new_left, new_right, new_ls, new_rs) = if m_left {
        (pre_agg, l.as_ref().clone(), &p_schema, l_schema)
    } else {
        (l.as_ref().clone(), pre_agg, l_schema, &p_schema)
    };
    // Names in the new join: L's columns may lose or gain a suffix, so
    // translate through each column's origin.
    let new_name: HashMap<(bool, String), String> = join_origins(new_ls, new_rs, suffix, m_left)?
        .into_iter()
        .map(|(out, from)| (from, out))
        .collect();
    let rename = |e: &Expr| {
        e.rename_columns(&|c| {
            origin
                .get(c)
                .and_then(|from| new_name.get(from))
                .cloned()
                .unwrap_or_else(|| c.to_string())
        })
    };
    if group_by
        .iter()
        .any(|g| rename(&Expr::Column(g.clone())) != Expr::Column(g.clone()))
    {
        return None;
    }
    let outer = aggs
        .iter()
        .zip(factors)
        .map(|(a, factor)| {
            let s = Expr::Column(new_name.get(&(true, a.name.clone()))?.clone());
            // Float multiplication commutes exactly, so `g · S` may be
            // written `S · g`.
            let arg = match factor {
                Some(g) => s.mul(rename(&g)),
                None => s,
            };
            Some(AggExpr::new(AggFunc::Sum, arg, a.name.clone()))
        })
        .collect::<Option<_>>()?;
    Some(Plan::Aggregate {
        input: Plan::Join {
            left: new_left.boxed(),
            right: new_right.boxed(),
            on: on.clone(),
            join_type: JoinType::Inner,
            suffix: suffix.clone(),
        }
        .boxed(),
        group_by: group_by.to_vec(),
        aggs: outer,
    })
}

/// Each output column of `left ⋈ right` (a right name that clashes with
/// an earlier column gains the suffix, as [`Schema::join`] does) mapped
/// to its origin: whether it comes from M (the left side when `m_left`)
/// and its name on that side. `None` when a suffixed name clashes again,
/// which [`Schema::join`] refuses too.
fn join_origins(
    left: &Schema,
    right: &Schema,
    suffix: &str,
    m_left: bool,
) -> Option<HashMap<String, (bool, String)>> {
    let mut out: HashMap<String, (bool, String)> = left
        .names()
        .iter()
        .map(|n| (n.to_string(), (m_left, n.to_string())))
        .collect();
    for n in right.names() {
        let mut name = n.to_string();
        if out.contains_key(&name) {
            name.push_str(suffix);
        }
        if out.insert(name, (!m_left, n.to_string())).is_some() {
            return None;
        }
    }
    Some(out)
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
