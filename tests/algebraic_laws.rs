//! The optimizer's aggregation laws, each tested on its own against the
//! reference evaluator, and the linear-algebra engine's native
//! `Aggregate`, tested against the same oracle.
//!
//! * **L1** (eager aggregation through an inner equi-join) regroups float
//!   sums, so its rewrites are compared up to rounding;
//! * **L0** (an aggregate grouped by dimensions commutes with `untag`)
//!   must give the very same rows, bit for bit;
//! * plans outside the laws' side conditions must come out of the
//!   optimizer with no law fired. Every rewrite a law makes is recorded,
//!   so an empty record means the plan is what the other passes alone
//!   make of it.

use std::collections::HashMap;
use std::sync::Arc;

use bda::core::pool;
use bda::core::reference::evaluate;
use bda::core::{col, AggExpr, AggFunc, BinOp, Plan, Provider};
use bda::federation::optimize::{optimize_report, Optimized};
use bda::federation::{Federation, Law, OptimizerConfig};
use bda::lang::parse_query;
use bda::linalg::LinAlgEngine;
use bda::relational::RelationalEngine;
use bda::storage::dataset::matrix_dataset;
use bda::storage::{Column, DataSet, DataType, Field, Row, Schema, Value};

/// A 2-D array over `[lo, hi)` per axis with dims `(d0, d1)` and one
/// value `v` of `dtype`; `cells` lists the present cells.
fn array(
    dims: (&str, &str),
    lo: [i64; 2],
    hi: [i64; 2],
    dtype: DataType,
    cells: &[((i64, i64), Value)],
) -> DataSet {
    let schema = Schema::new(vec![
        Field::dimension_bounded(dims.0, lo[0], hi[0]),
        Field::dimension_bounded(dims.1, lo[1], hi[1]),
        Field::value("v", dtype),
    ])
    .unwrap();
    let rows: Vec<Row> = cells
        .iter()
        .map(|((i, j), v)| Row(vec![Value::Int(*i), Value::Int(*j), v.clone()]))
        .collect();
    DataSet::from_rows(schema, &rows).unwrap()
}

fn f(x: f64) -> Value {
    Value::Float(x)
}

/// Floats within 1e-9 (NaN matches NaN), everything else equal, as bags.
fn approx_same(a: &DataSet, b: &DataSet) -> bool {
    let (x, y) = (a.sorted_rows().unwrap(), b.sorted_rows().unwrap());
    x.len() == y.len()
        && x.iter().zip(&y).all(|(rx, ry)| {
            rx.0.len() == ry.0.len()
                && rx.0.iter().zip(&ry.0).all(|(vx, vy)| match (vx, vy) {
                    (Value::Float(p), Value::Float(q)) => {
                        (p.is_nan() && q.is_nan()) || (p - q).abs() < 1e-9
                    }
                    _ => vx == vy,
                })
        })
}

/// Rows with floats compared by their bits.
fn bits(ds: &DataSet) -> Vec<Vec<String>> {
    ds.rows()
        .unwrap()
        .iter()
        .map(|r| {
            r.0.iter()
                .map(|v| match v {
                    Value::Float(x) => format!("f{:016x}", x.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect()
}

fn optimized(plan: &Plan) -> Optimized {
    optimize_report(plan, OptimizerConfig::default(), &|_| None)
}

fn scan(name: &str, src: &HashMap<String, DataSet>) -> Plan {
    Plan::scan(name, src[name].schema().clone())
}

fn untag(input: Plan) -> Plan {
    Plan::UntagDims {
        input: input.boxed(),
    }
}

// ---------------------------------------------------------------------------
// L1
// ---------------------------------------------------------------------------

/// Two sparse float arrays with nulls (their product `ew` has null and
/// absent cells), a key table `w` with duplicate, dangling and null keys
/// and a null weight, a table `w2` whose names clash with the array's,
/// and an array with no cells.
fn l1_source() -> HashMap<String, DataSet> {
    let cells = |vals: &[(i64, i64, Value)]| -> Vec<((i64, i64), Value)> {
        vals.iter().map(|(i, j, v)| ((*i, *j), v.clone())).collect()
    };
    let a = array(
        ("i", "j"),
        [0, 0],
        [3, 3],
        DataType::Float64,
        &cells(&[
            (0, 0, f(1.5)),
            (0, 1, f(-2.0)),
            (0, 2, Value::Null),
            (1, 0, f(0.25)),
            (1, 1, Value::Null),
            (2, 0, f(3.0)),
            (2, 2, f(-0.5)),
        ]),
    );
    let b = array(
        ("i", "j"),
        [0, 0],
        [3, 3],
        DataType::Float64,
        &cells(&[
            (0, 0, f(2.0)),
            (0, 1, f(4.0)),
            (0, 2, f(1.0)),
            (1, 0, Value::Null),
            (1, 1, f(8.0)),
            (2, 2, f(6.0)),
        ]),
    );
    let empty = array(("i", "j"), [0, 0], [3, 3], DataType::Float64, &[]);
    let w = DataSet::from_rows(
        Schema::new(vec![
            Field::value("k", DataType::Int64),
            Field::value("weight", DataType::Float64),
        ])
        .unwrap(),
        &[
            Row(vec![Value::Int(0), f(2.0)]),
            Row(vec![Value::Int(0), f(3.0)]),
            Row(vec![Value::Int(1), Value::Null]),
            Row(vec![Value::Null, f(5.0)]),
            Row(vec![Value::Int(2), f(-1.5)]),
            Row(vec![Value::Int(7), f(1.0)]),
        ],
    )
    .unwrap();
    let w2 = DataSet::from_rows(
        Schema::new(vec![
            Field::value("i", DataType::Int64),
            Field::value("v", DataType::Float64),
        ])
        .unwrap(),
        &[
            Row(vec![Value::Int(0), f(0.5)]),
            Row(vec![Value::Int(2), f(4.0)]),
            Row(vec![Value::Int(2), Value::Null]),
        ],
    )
    .unwrap();
    [("a", a), ("b", b), ("empty", empty), ("w", w), ("w2", w2)]
        .into_iter()
        .map(|(n, d)| (n.to_string(), d))
        .collect()
}

fn sum(arg: bda::core::Expr, name: &str) -> AggExpr {
    AggExpr::new(AggFunc::Sum, arg, name)
}

/// Each plan fires L1 alone (its `M` has no `untag`, so L0 cannot
/// follow), and the rewrite agrees with the original on the oracle.
#[test]
fn l1_eager_aggregation_matches_the_reference() {
    let src = l1_source();
    let ew = |l: &str| scan(l, &src).elemwise(BinOp::Mul, scan("b", &src));
    let w = || scan("w", &src);
    let plans = vec![
        // Factored, through a projection that the law folds.
        ew("a")
            .join(w(), vec![("i", "k")])
            .project(vec![("i", col("i")), ("vw", col("v").mul(col("weight")))])
            .aggregate(vec!["i"], vec![sum(col("vw"), "s")]),
        // Unfactored: no L-side factor.
        ew("a")
            .join(w(), vec![("i", "k")])
            .aggregate(vec!["i"], vec![sum(col("v"), "s")]),
        // count(*) beside a factored sum, grouped by an L column too.
        ew("a").join(w(), vec![("i", "k")]).aggregate(
            vec!["i", "weight"],
            vec![
                sum(col("v").mul(col("weight")), "s"),
                AggExpr::count_star("n"),
            ],
        ),
        // M on the right, its factor on the right of the product.
        w().join(ew("a"), vec![("k", "i")])
            .aggregate(vec!["k"], vec![sum(col("weight").mul(col("v")), "s")]),
        // L's names clash with M's (`i_r`, `v_r` in the join); after the
        // rewrite `v` no longer clashes.
        ew("a")
            .join(scan("w2", &src), vec![("i", "i")])
            .aggregate(vec!["i"], vec![sum(col("v").mul(col("v_r")), "s")]),
        // Empty M.
        ew("empty")
            .join(w(), vec![("i", "k")])
            .aggregate(vec!["i"], vec![sum(col("v").mul(col("weight")), "s")]),
    ];
    for plan in &plans {
        let o = optimized(plan);
        assert_eq!(
            o.laws,
            vec![Law::EagerAggregation],
            "{plan}\n=>\n{}",
            o.plan
        );
        let want = evaluate(plan, &src).unwrap();
        let got = evaluate(&o.plan, &src).unwrap();
        assert!(
            approx_same(&got, &want),
            "{plan}\n=>\n{}\ngot {:?}\nwant {:?}",
            o.plan,
            got.sorted_rows(),
            want.sorted_rows()
        );
    }
}

/// Where L1's rewrite would change the answer or its names, it does not
/// fire, and the optimized plan still agrees with the oracle: a global
/// `count(*)` over an empty join is one row of 0 (a sum of no pre-counts
/// would be null), a global sum keeps its one group too, and an
/// aggregate named like L's suffixed key would clash in the rebuilt join.
#[test]
fn l1_leaves_global_aggregates_and_clashing_names_alone() {
    let src = l1_source();
    let ew = |l: &str| scan(l, &src).elemwise(BinOp::Mul, scan("b", &src));
    let w = || scan("w", &src);
    let global_count = ew("empty")
        .join(w(), vec![("i", "k")])
        .aggregate(Vec::<&str>::new(), vec![AggExpr::count_star("n")]);
    let want = evaluate(&global_count, &src).unwrap();
    assert_eq!(want.sorted_rows().unwrap(), vec![Row(vec![Value::Int(0)])]);
    let plans = vec![
        global_count,
        // Global, over a join with matches and over an empty one.
        ew("a").join(w(), vec![("i", "k")]).aggregate(
            Vec::<&str>::new(),
            vec![
                sum(col("v").mul(col("weight")), "s"),
                AggExpr::count_star("n"),
            ],
        ),
        ew("empty")
            .join(w(), vec![("i", "k")])
            .aggregate(Vec::<&str>::new(), vec![sum(col("v"), "s")]),
        // The pre-aggregate's output `(i, i_r)` meets L's `i`, whose
        // suffixed name is `i_r` again.
        ew("a")
            .join(scan("w2", &src), vec![("i", "i")])
            .aggregate(vec!["i"], vec![sum(col("v").mul(col("v_r")), "i_r")]),
    ];
    for plan in &plans {
        let o = optimized(plan);
        assert!(o.laws.is_empty(), "{plan}\n=>\n{}", o.plan);
        let want = evaluate(plan, &src).unwrap();
        let got = evaluate(&o.plan, &src).unwrap();
        assert!(
            approx_same(&got, &want),
            "{plan}\n=>\n{}\ngot {:?}\nwant {:?}",
            o.plan,
            got.sorted_rows(),
            want.sorted_rows()
        );
    }
}

/// The rewritten `cross_engine` shape: the pre-aggregate sits directly on
/// the product (L1 then L0), the projection is gone, and the outer sum
/// multiplies the pre-sum by the weight.
#[test]
fn cross_engine_shape_factors_onto_the_product() {
    let m = matrix_dataset(3, 3, (0..9).map(f64::from).collect()).unwrap();
    let schemas: HashMap<String, Schema> = [
        ("a", m.schema().clone()),
        ("b", m.schema().clone()),
        (
            "lookup",
            Schema::new(vec![
                Field::value("row", DataType::Int64),
                Field::value("weight", DataType::Float64),
            ])
            .unwrap(),
        ),
    ]
    .into_iter()
    .map(|(n, s)| (n.to_string(), s))
    .collect();
    let plan = parse_query(
        "scan a | matmul (scan b) | untag | join (scan lookup) on row = row \
         | select row, v * weight as vw | groupby row: sum(vw) as s",
        &schemas,
    )
    .unwrap();
    let o = optimized(&plan);
    assert_eq!(
        o.laws,
        vec![Law::EagerAggregation, Law::AggregateBelowUntag]
    );
    let expected = Plan::Aggregate {
        input: untag(
            Plan::scan("a", m.schema().clone())
                .matmul(Plan::scan("b", m.schema().clone()))
                .aggregate(vec!["row"], vec![sum(col("v"), "s")]),
        )
        .join(
            Plan::scan("lookup", schemas["lookup"].clone()),
            vec![("row", "row")],
        )
        .boxed(),
        group_by: vec!["row".into()],
        aggs: vec![sum(col("s").mul(col("weight")), "s")],
    };
    assert_eq!(o.plan, expected, "{}", o.plan);
}

// ---------------------------------------------------------------------------
// L0
// ---------------------------------------------------------------------------

#[test]
fn l0_aggregate_below_untag_is_bit_exact() {
    let x = array(
        ("i", "j"),
        [2, -1],
        [5, 3],
        DataType::Float64,
        &[
            ((2, -1), f(0.1)),
            ((2, 0), f(0.2)),
            ((2, 2), f(-0.0)),
            ((3, 1), f(f64::NAN)),
            ((3, 2), Value::Null),
            ((4, -1), f(1e16)),
            ((4, 0), f(1.0)),
            ((4, 1), f(-1e16)),
        ],
    );
    let src: HashMap<String, DataSet> = [("x".to_string(), x)].into_iter().collect();
    let aggs = || {
        vec![
            sum(col("v"), "s"),
            AggExpr::count_star("n"),
            AggExpr::new(AggFunc::Avg, col("v"), "m"),
            AggExpr::new(AggFunc::Min, col("v"), "lo"),
        ]
    };
    for group_by in [vec!["i"], vec!["j"], vec!["j", "i"], vec![]] {
        let plan = untag(scan("x", &src)).aggregate(group_by.clone(), aggs());
        let o = optimized(&plan);
        assert_eq!(o.laws, vec![Law::AggregateBelowUntag], "{group_by:?}");
        assert!(matches!(o.plan, Plan::UntagDims { .. }), "{}", o.plan);
        let want = evaluate(&plan, &src).unwrap();
        let got = evaluate(&o.plan, &src).unwrap();
        assert_eq!(got.schema(), want.schema());
        assert_eq!(bits(&got), bits(&want), "{group_by:?}");
    }
}

// ---------------------------------------------------------------------------
// The linear-algebra engine's Aggregate
// ---------------------------------------------------------------------------

/// A dense matrix with dims `row`, `col` over a box at `lo`.
fn shifted(lo: [i64; 2], rows: usize, cols: usize, data: &[f64]) -> DataSet {
    let hi = [lo[0] + rows as i64, lo[1] + cols as i64];
    let cells: Vec<((i64, i64), Value)> = (0..rows * cols)
        .map(|n| {
            let (i, j) = ((n / cols) as i64 + lo[0], (n % cols) as i64 + lo[1]);
            ((i, j), f(data[n]))
        })
        .collect();
    array(("row", "col"), lo, hi, DataType::Float64, &cells)
}

#[test]
fn linalg_aggregate_matches_the_reference() {
    let seq = |n: usize, scale: f64| -> Vec<f64> {
        (0..n)
            .map(|k| ((k * 7 + 3) % 11) as f64 * scale - 2.0)
            .collect()
    };
    let mut nan = seq(12, 0.37);
    nan[5] = f64::NAN;
    let zeros: Vec<f64> = (0..12)
        .map(|k| if k % 3 == 0 { 0.0 } else { -0.0 })
        .collect();
    let sparse = array(
        ("row", "col"),
        [0, 0],
        [3, 4],
        DataType::Float64,
        &[((0, 1), f(2.5)), ((1, 3), Value::Null), ((2, 0), f(-1.0))],
    );
    let src: HashMap<String, DataSet> = [
        ("dense", matrix_dataset(3, 4, seq(12, 0.25)).unwrap()),
        ("dense_t", matrix_dataset(4, 3, seq(12, 0.5)).unwrap()),
        ("nan", matrix_dataset(3, 4, nan).unwrap()),
        ("zeros", matrix_dataset(4, 3, zeros).unwrap()),
        ("sa", shifted([2, 3], 3, 4, &seq(12, 0.125))),
        ("sb", shifted([3, -1], 4, 2, &seq(8, 0.75))),
        ("sparse", sparse),
    ]
    .into_iter()
    .map(|(n, d)| (n.to_string(), d))
    .collect();
    let engine = LinAlgEngine::new("la");
    for (name, data) in &src {
        engine.store(name, data.clone()).unwrap();
    }
    let scan = |n: &str| Plan::scan(n, engine.schema_of(n).unwrap());
    let inputs = vec![
        scan("dense"),
        scan("nan"),
        scan("zeros"),
        scan("sa"),
        scan("sparse"),
        scan("dense").matmul(scan("dense_t")),
        scan("nan").matmul(scan("zeros")),
        scan("zeros").matmul(scan("nan")),
        scan("sa").matmul(scan("sb")),
    ];
    for input in inputs {
        let dims: Vec<String> = bda::core::infer_schema(&input)
            .unwrap()
            .dimensions()
            .iter()
            .map(|d| d.name.clone())
            .collect();
        let groupings = [vec![dims[0].as_str()], vec![dims[1].as_str()], vec![]];
        for group_by in groupings {
            let plans = [
                input
                    .clone()
                    .aggregate(group_by.clone(), vec![sum(col("v"), "s")]),
                // Two sums of the value, and (the shared kernel) a max.
                input.clone().aggregate(
                    group_by.clone(),
                    vec![sum(col("v"), "s"), sum(col("v"), "t")],
                ),
                input.clone().aggregate(
                    group_by.clone(),
                    vec![AggExpr::new(AggFunc::Max, col("v"), "m")],
                ),
            ];
            for plan in plans {
                let want = evaluate(&plan, &src).unwrap();
                let one = pool::with_workers(1, || engine.execute(&plan)).unwrap();
                let four = pool::with_workers(4, || engine.execute(&plan)).unwrap();
                assert_eq!(one.schema(), want.schema(), "{plan}");
                assert!(
                    approx_same(&one, &want),
                    "{plan}\ngot {:?}\nwant {:?}",
                    one.sorted_rows(),
                    want.sorted_rows()
                );
                assert_eq!(bits(&one), bits(&four), "{plan}: width changed bits");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Where no law may fire
// ---------------------------------------------------------------------------

#[test]
fn no_law_fires_outside_its_side_conditions() {
    let src = l1_source();
    let ints = array(
        ("i", "j"),
        [0, 0],
        [2, 2],
        DataType::Int64,
        &[((0, 0), Value::Int(3)), ((1, 1), Value::Int(-4))],
    );
    let int_ew = Plan::scan("ints", ints.schema().clone())
        .elemwise(BinOp::Mul, Plan::scan("ints", ints.schema().clone()));
    let w = || scan("w", &src);
    let t = DataSet::from_columns(vec![
        ("k", Column::from(vec![0i64, 1])),
        ("v", Column::from(vec![1.5f64, 2.5])),
    ])
    .unwrap();
    let star_schemas: HashMap<String, Schema> = [
        (
            "sales",
            vec![
                ("customer_id", DataType::Int64),
                ("product_id", DataType::Int64),
                ("quantity", DataType::Int64),
                ("amount", DataType::Float64),
            ],
        ),
        (
            "customers",
            vec![("customer_id", DataType::Int64), ("region", DataType::Utf8)],
        ),
        (
            "products",
            vec![
                ("product_id", DataType::Int64),
                ("category", DataType::Utf8),
            ],
        ),
    ]
    .into_iter()
    .map(|(n, fields)| {
        let fields = fields
            .into_iter()
            .map(|(f, t)| Field::value(f, t))
            .collect();
        (n.to_string(), Schema::new(fields).unwrap())
    })
    .collect();
    let star = parse_query(
        "scan sales | where quantity >= 2 \
         | join (scan customers) on customer_id = customer_id \
         | join (scan products) on product_id = product_id \
         | groupby region, category: sum(amount) as total, count(*) as n",
        &star_schemas,
    )
    .unwrap();
    let plans = vec![
        // Int64 sums, whole and as a factor.
        int_ew
            .clone()
            .join(w(), vec![("i", "k")])
            .aggregate(vec!["i"], vec![sum(col("v"), "s")]),
        int_ew
            .join(w(), vec![("i", "k")])
            .aggregate(vec!["i"], vec![sum(col("v").mul(col("weight")), "s")]),
        // A relational-only M.
        Plan::scan("t", t.schema().clone())
            .join(w(), vec![("k", "k")])
            .aggregate(vec!["k"], vec![sum(col("v").mul(col("weight")), "s")]),
        // A sum that is not a product of one factor per side.
        scan("a", &src)
            .elemwise(BinOp::Mul, scan("b", &src))
            .join(w(), vec![("i", "k")])
            .aggregate(vec!["i"], vec![sum(col("v").add(col("weight")), "s")]),
        // An aggregate L1 cannot split.
        scan("a", &src)
            .elemwise(BinOp::Mul, scan("b", &src))
            .join(w(), vec![("i", "k")])
            .aggregate(vec!["i"], vec![AggExpr::new(AggFunc::Max, col("v"), "m")]),
        // Grouped by a value column after untag: not L0.
        untag(scan("a", &src)).aggregate(vec!["v"], vec![AggExpr::count_star("n")]),
        star,
    ];
    for plan in &plans {
        let o = optimized(plan);
        assert!(o.laws.is_empty(), "{plan}\n=>\n{}", o.plan);
    }
}

// ---------------------------------------------------------------------------
// EXPLAIN
// ---------------------------------------------------------------------------

/// EXPLAIN names the laws that fired in one line before the optimized
/// plan; the product's row sums run on `la` and only they move to `rel`.
#[test]
fn explain_names_the_laws_that_fired() {
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
    let mut fed = Federation::new();
    fed.register(Arc::new(la));
    fed.register(Arc::new(rel));
    fed.options_mut().workers = 1;
    fed.options_mut().optimizer.use_stats = false;
    let lookup = |name: &str| fed.registry().schema_of(name).ok();
    let plan = parse_query(
        "scan a | matmul (scan b) | untag | join (scan lookup) on row = row \
         | select row, v * weight as vw | groupby row: sum(vw) as s",
        &lookup,
    )
    .unwrap();
    let explain = fed.explain(&plan).unwrap();
    let golden = "\
laws: L1 eager aggregation through a join, L0 aggregate below untag
== optimized plan ==
aggregate by row -> sum((s * weight)) as s
  inner join on row = row
    untag_dims
      aggregate by row -> sum(v) as s
        matmul
          scan a
          scan b
    scan lookup

== placement ==
fragment #0 @ la -> rel (4 nodes, schema ([row]=0..2, s: f64))
    aggregate by row -> sum(v) as s
      matmul
        scan a
        scan b
fragment #1 @ rel -> app (5 nodes, schema (row: i64, s: f64))
    aggregate by row -> sum((s * weight)) as s
      inner join on row = row
        untag_dims
          scan __bda_frag_0
        scan lookup
";
    assert_eq!(explain, golden, "{explain}");
    // A traced run records the same line on its `optimize` span.
    let analyze = fed.explain_analyze(&plan, 7).unwrap();
    assert!(
        analyze.contains("optimize @ app")
            && analyze
                .contains("- laws: L1 eager aggregation through a join, L0 aggregate below untag")
            && analyze.contains("op:aggregate @ la"),
        "{analyze}"
    );
}
