//! Property-based equivalence: random data and random plans must agree
//! across (a) the reference oracle, (b) the relational and array
//! engines, (c) the optimizer, and (d) the wire codec.

use std::collections::HashMap;

use proptest::prelude::*;

use bda::array::ArrayEngine;
use bda::core::codec::{decode_plan, encode_plan};
use bda::core::reference::evaluate;
use bda::core::{col, lit, AggExpr, AggFunc, CoreError, Expr, JoinType, Plan, Provider};
use bda::federation::{optimize, OptimizerConfig};
use bda::relational::RelationalEngine;
use bda::storage::wire::{decode_dataset, encode_dataset};
use bda::storage::{DataSet, DataType, Field, Row, Schema, Value};

// ---------------------------------------------------------------------------
// generators
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

/// [`arb_table`], with the empty table drawn often enough that global
/// aggregates over no rows are exercised on every run.
fn arb_table_or_empty() -> impl Strategy<Value = DataSet> {
    prop_oneof![
        1 => Just(DataSet::from_rows(t_schema(), &[]).unwrap()),
        4 => arb_table(),
    ]
}

/// Put an aggregate's output columns back in `t`'s `(k, v, s)` order.
fn as_t(p: Plan) -> Plan {
    p.project(vec![("k", col("k")), ("v", col("v")), ("s", col("s"))])
}

/// Random boolean predicates over the `t` schema.
fn arb_pred() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-5i64..5).prop_map(|c| col("k").gt(lit(c))),
        (-5i64..5).prop_map(|c| col("k").le(lit(c))),
        (-10i32..10).prop_map(|c| col("v").lt(lit(c as f64 / 2.0))),
        "[a-c]".prop_map(|c| col("s").eq(lit(c.as_str()))),
        // Every comparison shape on the null-bearing columns: SQL
        // three-valued logic makes null-vs-literal the easiest place
        // for an engine and the reference to quietly disagree.
        (-5i64..5).prop_map(|c| col("k").eq(lit(c))),
        (-5i64..5).prop_map(|c| col("k").ge(lit(c))),
        (-10i32..10).prop_map(|c| col("v").ge(lit(c as f64 / 2.0))),
        "[a-c]".prop_map(|c| col("s").le(lit(c.as_str()))),
        Just(col("k").is_null()),
        Just(col("v").is_null().not()),
        Just(col("s").is_null()),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
    })
}

/// Random single-input relational pipelines over the `t` schema.
///
/// Every generated plan preserves the schema (so stages compose freely).
fn arb_pipeline() -> impl Strategy<Value = Plan> {
    let scan = Just(Plan::scan("t", t_schema()));
    scan.prop_recursive(4, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), arb_pred()).prop_map(|(p, e)| p.select(e)),
            inner.clone().prop_map(|p| p.distinct()),
            inner.clone().prop_map(|p| p.sort_by(vec!["k", "s"])),
            (inner.clone(), 0usize..10).prop_map(|(p, n)| p.limit(n)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.join_as(
                b,
                vec![("k", "k")],
                JoinType::Semi
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.join_as(
                b,
                vec![("k", "k")],
                JoinType::Anti
            )),
            inner.clone().prop_map(as_t),
            // Aggregates reshaped back into `t`'s schema: grouped (keys
            // may be null) and global (one row even over no input).
            // Sums of halves are exact, so row order cannot perturb them.
            inner.clone().prop_map(|p| as_t(p.aggregate(
                vec!["k", "s"],
                vec![AggExpr::new(AggFunc::Sum, col("v"), "v")]
            ))),
            inner.clone().prop_map(|p| as_t(p.aggregate(
                vec!["s"],
                vec![
                    AggExpr::count_star("k"),
                    AggExpr::new(AggFunc::Max, col("v"), "v")
                ]
            ))),
            inner.clone().prop_map(|p| p.aggregate(
                vec![],
                vec![
                    AggExpr::count_star("k"),
                    AggExpr::new(AggFunc::Sum, col("v"), "v"),
                    AggExpr::new(AggFunc::Min, col("s"), "s")
                ]
            )),
        ]
    })
}

/// The engines under test, each holding `ds` as `t`.
fn engines_with(ds: &DataSet) -> [Box<dyn Provider>; 2] {
    let engines: [Box<dyn Provider>; 2] = [
        Box::new(RelationalEngine::new("rel")),
        Box::new(ArrayEngine::new("arr")),
    ];
    for e in &engines {
        e.store("t", ds.clone()).unwrap();
    }
    engines
}

fn oracle_src(ds: &DataSet) -> HashMap<String, DataSet> {
    let mut m = HashMap::new();
    m.insert("t".to_string(), ds.clone());
    m
}

/// Bag comparison that tolerates Limit's nondeterminism: when the plan
/// contains a Limit, only row *counts* are compared.
fn compatible(plan: &Plan, a: &DataSet, b: &DataSet) -> bool {
    let has_limit = plan.op_kinds().contains(&bda::core::OpKind::Limit);
    if has_limit {
        a.num_rows() == b.num_rows()
    } else {
        a.same_bag(b).unwrap()
    }
}

// ---------------------------------------------------------------------------
// properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An engine whose capabilities cover the plan matches the
    /// reference; one that does not refuses it as `Unsupported`.
    #[test]
    fn engines_match_reference_or_refuse(ds in arb_table_or_empty(), plan in arb_pipeline()) {
        let oracle = evaluate(&plan, &oracle_src(&ds)).unwrap();
        for engine in engines_with(&ds) {
            let name = engine.name().to_string();
            if engine.capabilities().supports_plan(&plan) {
                let ours = engine.execute(&plan).unwrap();
                prop_assert_eq!(ours.schema(), oracle.schema());
                prop_assert!(compatible(&plan, &ours, &oracle), "{}: plan:\n{}", name, plan);
            } else {
                let err = engine.execute(&plan).unwrap_err();
                prop_assert!(
                    matches!(err, CoreError::Unsupported { .. }),
                    "{}: {} for plan:\n{}", name, err, plan
                );
            }
        }
    }

    #[test]
    fn optimizer_preserves_semantics(ds in arb_table(), plan in arb_pipeline()) {
        let optimized = optimize(&plan, OptimizerConfig::default());
        let a = evaluate(&plan, &oracle_src(&ds)).unwrap();
        let b = evaluate(&optimized, &oracle_src(&ds)).unwrap();
        prop_assert!(
            compatible(&plan, &a, &b),
            "plan:\n{}\noptimized:\n{}", plan, optimized
        );
    }

    #[test]
    fn plans_roundtrip_the_wire(plan in arb_pipeline()) {
        let bytes = encode_plan(&plan);
        let back = decode_plan(&bytes).unwrap();
        prop_assert_eq!(back, plan);
    }

    #[test]
    fn datasets_roundtrip_the_wire(ds in arb_table()) {
        let bytes = encode_dataset(&ds);
        let back = decode_dataset(&bytes).unwrap();
        prop_assert!(back.same_bag(&ds).unwrap());
        prop_assert_eq!(back.schema(), ds.schema());
    }

    #[test]
    fn predicate_filter_is_subset(ds in arb_table(), pred in arb_pred()) {
        let plan = Plan::scan("t", t_schema()).select(pred);
        let out = evaluate(&plan, &oracle_src(&ds)).unwrap();
        prop_assert!(out.num_rows() <= ds.num_rows());
        // Filtering twice with the same predicate is idempotent.
        let twice = evaluate(
            &out_plan_again(&plan),
            &oracle_src(&ds),
        ).unwrap();
        prop_assert!(out.same_bag(&twice).unwrap());
    }

    #[test]
    fn aggregate_count_matches_row_count(ds in arb_table()) {
        let plan = Plan::scan("t", t_schema())
            .aggregate(vec![], vec![AggExpr::count_star("n")]);
        let out = evaluate(&plan, &oracle_src(&ds)).unwrap();
        let n = out.rows().unwrap()[0].get(0).as_int().unwrap();
        prop_assert_eq!(n as usize, ds.num_rows());
    }

    #[test]
    fn grouped_sums_total_to_global_sum(ds in arb_table()) {
        let grouped = Plan::scan("t", t_schema())
            .aggregate(vec!["s"], vec![AggExpr::new(AggFunc::Sum, col("v"), "sv")])
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, col("sv"), "total")]);
        let global = Plan::scan("t", t_schema())
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, col("v"), "total")]);
        let a = evaluate(&grouped, &oracle_src(&ds)).unwrap();
        let b = evaluate(&global, &oracle_src(&ds)).unwrap();
        let va = a.rows().unwrap()[0].get(0).clone();
        let vb = b.rows().unwrap()[0].get(0).clone();
        match (va, vb) {
            (Value::Float(x), Value::Float(y)) => prop_assert!((x - y).abs() < 1e-9),
            (x, y) => prop_assert_eq!(x, y),
        }
    }

    #[test]
    fn union_distinct_is_set_union(a in arb_table(), b in arb_table()) {
        let plan = Plan::scan("a", t_schema())
            .union(Plan::scan("b", t_schema()))
            .distinct();
        let mut src = HashMap::new();
        src.insert("a".to_string(), a.clone());
        src.insert("b".to_string(), b.clone());
        let out = evaluate(&plan, &src).unwrap();
        // |A ∪ B| <= |distinct A| + |distinct B|
        let da = evaluate(&Plan::scan("a", t_schema()).distinct(), &src).unwrap();
        let db = evaluate(&Plan::scan("b", t_schema()).distinct(), &src).unwrap();
        prop_assert!(out.num_rows() <= da.num_rows() + db.num_rows());
        prop_assert!(out.num_rows() >= da.num_rows().max(db.num_rows()));
    }
}

fn out_plan_again(plan: &Plan) -> Plan {
    if let Plan::Select { input, predicate } = plan {
        Plan::Select {
            input: Plan::Select {
                input: input.clone(),
                predicate: predicate.clone(),
            }
            .boxed(),
            predicate: predicate.clone(),
        }
    } else {
        plan.clone()
    }
}
