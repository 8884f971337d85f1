//! Property-based tests on the array algebra: lowering equivalence,
//! algebraic identities, and engine-vs-oracle agreement on random sparse
//! arrays (array engine) and random dense matrices (linear-algebra engine).

use std::collections::HashMap;

use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use proptest::test_runner::TestRng;

use bda::array::ArrayEngine;
use bda::core::infer::infer_schema;
use bda::core::lower::lower_all;
use bda::core::pool;
use bda::core::reference::evaluate;
use bda::core::{col, AggExpr, AggFunc, BinOp, OpKind, Plan, Provider};
use bda::linalg::LinAlgEngine;
use bda::storage::dataset::matrix_dataset;
use bda::storage::{DataSet, DataType, Field, Row, Schema, Value};

const N: i64 = 4;

fn array_schema() -> Schema {
    Schema::new(vec![
        Field::dimension_bounded("i", 0, N),
        Field::dimension_bounded("j", 0, N),
        Field::value("v", DataType::Float64),
    ])
    .unwrap()
}

prop_compose! {
    /// A sparse 2-D array with unique coordinates (the array invariant).
    fn arb_array()(cells in prop::collection::btree_map(
        (0..N, 0..N),
        prop_oneof![4 => (-8i32..8).prop_map(|x| Some(x as f64 / 2.0)), 1 => Just(None)],
        0..(N * N) as usize,
    )) -> DataSet {
        let rows: Vec<Row> = cells
            .into_iter()
            .map(|((i, j), v)| Row(vec![
                Value::Int(i),
                Value::Int(j),
                v.map(Value::Float).unwrap_or(Value::Null),
            ]))
            .collect();
        DataSet::from_rows(array_schema(), &rows).unwrap()
    }
}

fn src(pairs: &[(&str, &DataSet)]) -> HashMap<String, DataSet> {
    pairs
        .iter()
        .map(|(n, d)| (n.to_string(), (*d).clone()))
        .collect()
}

fn approx_same(a: &DataSet, b: &DataSet) -> bool {
    let x = a.sorted_rows().unwrap();
    let y = b.sorted_rows().unwrap();
    x.len() == y.len()
        && x.iter().zip(&y).all(|(rx, ry)| {
            rx.0.iter().zip(&ry.0).all(|(vx, vy)| match (vx, vy) {
                (Value::Float(fx), Value::Float(fy)) => (fx - fy).abs() < 1e-9,
                _ => vx == vy,
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_lowering_equivalent_on_random_arrays(a in arb_array(), b in arb_array()) {
        let plan = Plan::scan("a", array_schema())
            .matmul(Plan::scan("b", array_schema()));
        let data = src(&[("a", &a), ("b", &b)]);
        let native = evaluate(&plan, &data).unwrap();
        let lowered = evaluate(&lower_all(&plan).unwrap(), &data).unwrap();
        prop_assert!(approx_same(&native, &lowered));
    }

    #[test]
    fn elemwise_lowering_equivalent(a in arb_array(), b in arb_array()) {
        for op in [BinOp::Add, BinOp::Mul] {
            let plan = Plan::scan("a", array_schema())
                .elemwise(op, Plan::scan("b", array_schema()));
            let data = src(&[("a", &a), ("b", &b)]);
            let native = evaluate(&plan, &data).unwrap();
            let lowered = evaluate(&lower_all(&plan).unwrap(), &data).unwrap();
            prop_assert!(approx_same(&native, &lowered), "op {:?}", op);
        }
    }

    #[test]
    fn window_lowering_equivalent(a in arb_array(), r in 0i64..2) {
        let plan = Plan::Window {
            input: Plan::scan("a", array_schema()).boxed(),
            radii: vec![("i".into(), r), ("j".into(), 1)],
            aggs: vec![
                AggExpr::new(AggFunc::Sum, col("v"), "s"),
                AggExpr::count_star("n"),
            ],
        };
        let data = src(&[("a", &a)]);
        let native = evaluate(&plan, &data).unwrap();
        let lowered = evaluate(&lower_all(&plan).unwrap(), &data).unwrap();
        prop_assert!(approx_same(&native, &lowered));
    }

    #[test]
    fn array_engine_matches_oracle(a in arb_array(), r in 0i64..2) {
        let engine = ArrayEngine::new("arr");
        engine.store("a", a.clone()).unwrap();
        let schema = engine.schema_of("a").unwrap();
        let plans = vec![
            Plan::Dice {
                input: Plan::scan("a", schema.clone()).boxed(),
                ranges: vec![("i".into(), 0, 2)],
            },
            Plan::SliceAt {
                input: Plan::scan("a", schema.clone()).boxed(),
                dim: "i".into(),
                index: 1,
            },
            Plan::Permute {
                input: Plan::scan("a", schema.clone()).boxed(),
                order: vec!["j".into(), "i".into()],
            },
            Plan::Window {
                input: Plan::scan("a", schema.clone()).boxed(),
                radii: vec![("i".into(), r), ("j".into(), 0)],
                aggs: vec![AggExpr::new(AggFunc::Max, col("v"), "m")],
            },
            Plan::Fill {
                input: Plan::scan("a", schema.clone()).boxed(),
                fill: Value::Float(0.0),
            },
        ];
        let data = src(&[("a", &a)]);
        for plan in plans {
            let ours = engine.execute(&plan).unwrap();
            let oracle = evaluate(&plan, &data).unwrap();
            prop_assert!(
                approx_same(&ours.normalized_rows().unwrap(), &oracle.normalized_rows().unwrap()),
                "plan:\n{}", plan
            );
        }
    }

    #[test]
    fn permute_is_an_involution(a in arb_array()) {
        let once = Plan::Permute {
            input: Plan::scan("a", array_schema()).boxed(),
            order: vec!["j".into(), "i".into()],
        };
        let twice = Plan::Permute {
            input: once.clone().boxed(),
            order: vec!["i".into(), "j".into()],
        };
        let data = src(&[("a", &a)]);
        let back = evaluate(&twice, &data).unwrap();
        prop_assert!(back.same_bag(&a).unwrap());
    }

    #[test]
    fn dice_then_fill_has_exact_volume(a in arb_array(), lo in 0i64..3) {
        let hi = (lo + 2).min(N);
        let plan = Plan::Fill {
            input: Plan::Dice {
                input: Plan::scan("a", array_schema()).boxed(),
                ranges: vec![("i".into(), lo, hi)],
            }
            .boxed(),
            fill: Value::Float(0.0),
        };
        let data = src(&[("a", &a)]);
        let out = evaluate(&plan, &data).unwrap();
        prop_assert_eq!(out.num_rows() as i64, (hi - lo) * N);
    }

    #[test]
    fn tag_untag_roundtrip(a in arb_array()) {
        let plan = Plan::TagDims {
            input: Plan::UntagDims {
                input: Plan::scan("a", array_schema()).boxed(),
            }
            .boxed(),
            dims: vec![("i".into(), Some((0, N))), ("j".into(), Some((0, N)))],
        };
        let data = src(&[("a", &a)]);
        let out = evaluate(&plan, &data).unwrap();
        prop_assert!(out.same_bag(&a).unwrap());
        prop_assert_eq!(out.schema(), a.schema());
    }

    #[test]
    fn matmul_identity_law(a in arb_array()) {
        // A × I = Fill₀(A) on the dense view (absent cells read as 0).
        let identity_rows: Vec<Row> = (0..N)
            .map(|i| Row(vec![Value::Int(i), Value::Int(i), Value::Float(1.0)]))
            .collect();
        let identity = DataSet::from_rows(array_schema(), &identity_rows).unwrap();
        let plan = Plan::scan("a", array_schema())
            .matmul(Plan::scan("id", array_schema()));
        let data = src(&[("a", &a), ("id", &identity)]);
        let out = evaluate(&plan, &data).unwrap();
        // Every present, non-null cell of `a` must appear unchanged.
        for row in a.rows().unwrap() {
            if row.get(2).is_null() {
                continue;
            }
            let expect = row.get(2).as_float().unwrap();
            let found = out.rows().unwrap().iter().any(|r| {
                r.get(0) == row.get(0)
                    && r.get(1) == row.get(1)
                    && (r.get(2).as_float().unwrap() - expect).abs() < 1e-12
            });
            prop_assert!(found || expect == 0.0, "cell {} lost", row);
        }
    }
}

// ---------------------------------------------------------------------------
// The linear-algebra engine against the oracle: random dense matrices, random
// plans over scan/matmul/elemwise/permute/dice (diced operands shift the box
// origins), run both at one worker and split into 1–4 row bands.

/// Side of every stored matrix.
const M: usize = 5;

fn arb_matrix() -> impl Strategy<Value = DataSet> {
    prop::collection::vec(
        (-8i32..8).prop_map(|x| f64::from(x) / 4.0),
        M * M..M * M + 1,
    )
    .prop_map(|data| matrix_dataset(M, M, data).unwrap())
}

/// The bounded dimensions of `plan`'s output, in order.
fn dims_of(plan: &Plan) -> Vec<(String, (i64, i64))> {
    infer_schema(plan)
        .unwrap()
        .dimensions()
        .iter()
        .map(|f| (f.name.clone(), f.extent().unwrap()))
        .collect()
}

/// A random non-empty sub-range of `[lo, hi)`.
fn sub_range(rng: &mut TestRng, (lo, hi): (i64, i64)) -> (i64, i64) {
    let start = lo + rng.below((hi - lo) as u64) as i64;
    (start, start + 1 + rng.below((hi - start) as u64) as i64)
}

/// `Dice` over a random non-empty subset of `plan`'s dimensions.
fn dice(rng: &mut TestRng, plan: Plan) -> Plan {
    let dims = dims_of(&plan);
    let keep = 1 + rng.below(3) as usize; // 1: first dim, 2: second, 3: both
    let ranges = dims
        .into_iter()
        .enumerate()
        .filter(|(d, _)| keep & (1 << d) != 0)
        .map(|(_, (name, extent))| {
            let (lo, hi) = sub_range(rng, extent);
            (name, lo, hi)
        })
        .collect();
    Plan::Dice {
        input: plan.boxed(),
        ranges,
    }
}

fn transpose(plan: Plan) -> Plan {
    let dims = dims_of(&plan);
    Plan::Permute {
        input: plan.boxed(),
        order: vec![dims[1].0.clone(), dims[0].0.clone()],
    }
}

/// The same plan over other stored matrices: same dimensions and boxes.
fn rebase(plan: &Plan) -> Plan {
    plan.transform_up(&|p| match p {
        Plan::Scan { dataset, schema } => {
            let next = match dataset.as_str() {
                "a" => "b",
                "b" => "c",
                _ => "a",
            };
            Plan::scan(next, schema)
        }
        other => other,
    })
}

fn gen_matrix_plan(rng: &mut TestRng, depth: u32) -> Plan {
    let schema = matrix_dataset(M, M, vec![0.0; M * M])
        .unwrap()
        .schema()
        .clone();
    let scan = Plan::scan(["a", "b", "c"][rng.below(3) as usize], schema);
    if depth == 0 {
        return scan;
    }
    match rng.below(5) {
        0 => scan,
        1 => {
            let inner = gen_matrix_plan(rng, depth - 1);
            dice(rng, inner)
        }
        2 => transpose(gen_matrix_plan(rng, depth - 1)),
        3 => {
            let left = gen_matrix_plan(rng, depth - 1);
            let mut right = rebase(&left);
            if rng.below(2) == 0 {
                right = dice(rng, right);
            }
            let left = if rng.below(2) == 0 {
                dice(rng, left)
            } else {
                left
            };
            let op = [BinOp::Add, BinOp::Sub, BinOp::Mul][rng.below(3) as usize];
            left.elemwise(op, right)
        }
        _ => {
            // The right operand's first axis must span the left's second.
            let left = gen_matrix_plan(rng, depth - 1);
            let (k0, k1) = dims_of(&left)[1].1;
            let (j0, j1) = sub_range(rng, (0, M as i64));
            let right = if rng.below(2) == 0 {
                Plan::Dice {
                    input: scan.boxed(),
                    ranges: vec![("row".into(), k0, k1), ("col".into(), j0, j1)],
                }
            } else {
                transpose(Plan::Dice {
                    input: scan.boxed(),
                    ranges: vec![("col".into(), k0, k1), ("row".into(), j0, j1)],
                })
            };
            left.matmul(right)
        }
    }
}

fn arb_matrix_plan() -> impl Strategy<Value = Plan> {
    FnStrategy::new(|rng: &mut TestRng| gen_matrix_plan(rng, 3))
}

/// The oracle's reading of `plan` under the linear-algebra convention that
/// an absent cell reads as `0.0`: an elemwise result over partly overlapping
/// boxes holds only the overlap, so wherever another operator consumes one,
/// it is zero-filled over its box first. A root result is compared as is.
fn zero_filled_operands(plan: &Plan) -> Plan {
    let filled = plan.transform_up(&|p| match p {
        Plan::ElemWise { .. } => Plan::Fill {
            input: p.boxed(),
            fill: Value::Float(0.0),
        },
        other => other,
    });
    match filled {
        Plan::Fill { input, .. } if matches!(plan, Plan::ElemWise { .. }) => *input,
        other => other,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn linalg_engine_matches_oracle(
        a in arb_matrix(),
        b in arb_matrix(),
        c in arb_matrix(),
        plan in arb_matrix_plan(),
        parts in 1usize..5,
    ) {
        let engine = LinAlgEngine::new("la");
        for (name, m) in [("a", &a), ("b", &b), ("c", &c)] {
            engine.store(name, m.clone()).unwrap();
        }
        let data = src(&[("a", &a), ("b", &b), ("c", &c)]);
        let oracle = evaluate(&zero_filled_operands(&plan), &data).unwrap();
        let plain = pool::with_workers(1, || engine.execute(&plan)).unwrap();
        prop_assert!(approx_same(&plain, &oracle), "plan:\n{}", plan);
        // Every matmul and elemwise split into `parts` row bands.
        let split = pool::with_workers(parts, || engine.execute(&plan)).unwrap();
        prop_assert!(approx_same(&split, &oracle), "parts={} plan:\n{}", parts, plan);
    }
}

/// A [`gen_matrix_plan`] plan with no `MatMul` (the array engine has no
/// matmul kernel): dice, permute and elemwise only.
fn arb_matmul_free_plan() -> impl Strategy<Value = Plan> {
    FnStrategy::new(|rng: &mut TestRng| loop {
        let plan = gen_matrix_plan(rng, 3);
        if !plan.op_kinds().contains(&OpKind::MatMul) {
            return plan;
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The array engine over the same dice/permute/elemwise plans, whose
    /// elemwise operands may cover different boxes. Absent cells stay
    /// absent on this engine, so the oracle runs the plan unmodified.
    #[test]
    fn array_engine_matches_oracle_on_matrix_plans(
        a in arb_matrix(),
        b in arb_matrix(),
        c in arb_matrix(),
        plan in arb_matmul_free_plan(),
        parts in 1usize..5,
    ) {
        let engine = ArrayEngine::new("arr");
        for (name, m) in [("a", &a), ("b", &b), ("c", &c)] {
            engine.store(name, m.clone()).unwrap();
        }
        let oracle = evaluate(&plan, &src(&[("a", &a), ("b", &b), ("c", &c)])).unwrap();
        let plain = pool::with_workers(1, || engine.execute(&plan)).unwrap();
        prop_assert!(approx_same(&plain, &oracle), "plan:\n{}", plan);
        let split = pool::with_workers(parts, || engine.execute(&plan)).unwrap();
        prop_assert!(approx_same(&split, &oracle), "parts={} plan:\n{}", parts, plan);
    }
}
