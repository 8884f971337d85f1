//! The four desiderata of the paper, as executable assertions.
//!
//! 1. Coverage   — the algebra spans relational and array operations.
//! 2. Translatability — every operator reaches some back end.
//! 3. Intent preservation — matmul stays recognizable as matmul.
//! 4. Server interoperation — intermediates move server-to-server.
//!
//! Plus the two framework claims built on them: expression trees ship
//! whole (F3) and algebraic pushdown cuts cross-server bytes (F5).

use std::sync::Arc;

use bda::core::lower::lower_all;
use bda::core::recognize::recognize_all;
use bda::core::{col, lit, AggExpr, AggFunc, OpKind, Plan, Provider};
use bda::federation::{
    translatability, ExecOptions, Federation, Metrics, OptimizerConfig, Planner, Registry,
    TransferMode, Translation,
};
use bda::linalg::LinAlgEngine;
use bda::relational::RelationalEngine;
use bda::workloads::{random_matrix, star_schema, StarSpec};

fn standard() -> Federation {
    bda_bench_setup()
}

// Small local re-implementation of the standard federation (the bench
// crate is not a dependency of the facade's tests).
fn bda_bench_setup() -> Federation {
    use bda::array::ArrayEngine;
    use bda::graph::GraphEngine;
    use bda::workloads::{
        random_graph, sensor_array, star_schema, GraphSpec, SensorSpec, StarSpec,
    };

    let rel = RelationalEngine::new("rel");
    let (sales, customers, products, stores) = star_schema(StarSpec {
        sales: 300,
        customers: 30,
        products: 10,
        stores: 4,
        seed: 1,
    });
    rel.store("sales", sales).unwrap();
    rel.store("customers", customers).unwrap();
    rel.store("products", products).unwrap();
    rel.store("stores", stores).unwrap();

    let arr = ArrayEngine::new("arr");
    arr.store(
        "sensors",
        sensor_array(SensorSpec {
            sensors: 4,
            ticks: 16,
            missing: 0.0,
            seed: 1,
        }),
    )
    .unwrap();

    let la = LinAlgEngine::new("la");
    la.store("a", random_matrix(6, 6, 7)).unwrap();
    la.store("b", random_matrix(6, 6, 8)).unwrap();

    let graph = GraphEngine::new("graph");
    let (_, edges) = random_graph(GraphSpec {
        vertices: 20,
        edges: 60,
        seed: 1,
    });
    graph.store("edges", edges).unwrap();

    let mut fed = Federation::new();
    fed.register(Arc::new(rel));
    fed.register(Arc::new(arr));
    fed.register(Arc::new(la));
    fed.register(Arc::new(graph));
    fed
}

#[test]
fn d1_coverage_spans_relational_and_array_operations() {
    // The operator taxonomy includes the standard relational core...
    for op in [
        OpKind::Select,
        OpKind::Project,
        OpKind::Join,
        OpKind::Aggregate,
        OpKind::Union,
        OpKind::Distinct,
        OpKind::Sort,
    ] {
        assert!(OpKind::ALL.contains(&op));
    }
    // ...and the standard array operations with dimension awareness.
    for op in [
        OpKind::Dice,
        OpKind::SliceAt,
        OpKind::Permute,
        OpKind::Window,
        OpKind::Fill,
        OpKind::TagDims,
        OpKind::UntagDims,
        OpKind::MatMul,
        OpKind::ElemWise,
    ] {
        assert!(OpKind::ALL.contains(&op));
    }
    // And the combined federation executes all of them somewhere.
    let fed = standard();
    let caps = fed.registry().combined_capabilities();
    for op in OpKind::ALL {
        let reachable = caps.supports(op)
            || matches!(
                translatability(fed.registry())
                    .into_iter()
                    .find(|(o, _)| *o == op)
                    .unwrap()
                    .1,
                Translation::ViaLowering(_)
            );
        assert!(reachable, "{op:?} unreachable");
    }
}

#[test]
fn d2_every_operator_translates() {
    let fed = standard();
    for (op, t) in translatability(fed.registry()) {
        assert_ne!(t, Translation::No, "{op:?} untranslatable");
    }
    // Even a federation of ONLY the relational engine covers everything
    // via lowering — the paper's "or a combination of such systems".
    let mut rel_only = Registry::new();
    rel_only.register(fed.registry().provider("rel").unwrap());
    for (op, t) in translatability(&rel_only) {
        assert_ne!(t, Translation::No, "{op:?} untranslatable on rel alone");
    }
}

#[test]
fn d3_matmul_survives_lowering_roundtrip() {
    let fed = standard();
    let reg = fed.registry();
    let a = reg.provider("la").unwrap().schema_of("a").unwrap();
    let b = reg.provider("la").unwrap().schema_of("b").unwrap();
    let intent = Plan::scan("a", a).matmul(Plan::scan("b", b));

    // Lower (what a naive middle tier would hand the federation)...
    let lowered = lower_all(&intent).unwrap();
    assert!(!lowered.op_kinds().contains(&OpKind::MatMul));
    // ...recognition restores the intent...
    let recognized = recognize_all(&lowered);
    assert!(recognized.op_kinds().contains(&OpKind::MatMul));
    // ...and the planner consequently routes it to the linalg engine.
    let placement = Planner::new(reg).place(&recognized).unwrap();
    assert_eq!(placement.root().site, "la");
    // The recognized plan computes the same thing as the lowered one.
    let (out_lowered, _) = fed
        .run_with(
            &lowered,
            &ExecOptions {
                optimizer: bda::federation::OptimizerConfig {
                    recognize_intents: false,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
    let (out_intent, _) = fed.run(&intent).unwrap();
    let x = out_intent.sorted_rows().unwrap();
    let y = out_lowered.sorted_rows().unwrap();
    assert_eq!(x.len(), y.len());
    for (rx, ry) in x.iter().zip(&y) {
        for (vx, vy) in rx.0.iter().zip(&ry.0) {
            match (vx, vy) {
                (bda::storage::Value::Float(a), bda::storage::Value::Float(b)) => {
                    assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()))
                }
                _ => assert_eq!(vx, vy),
            }
        }
    }
}

#[test]
fn d4_direct_transfers_bypass_the_app_tier() {
    let n = 16;
    let rel = RelationalEngine::new("rel");
    rel.store("a_rows", random_matrix(n, n, 7).normalized_rows().unwrap())
        .unwrap();
    let la = LinAlgEngine::new("la");
    la.store("b", random_matrix(n, n, 8)).unwrap();
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
    let (_, direct) = fed.run(&plan).unwrap();
    let (_, routed) = fed
        .run_with(
            &plan,
            &ExecOptions {
                transfer: TransferMode::AppRouted,
                ..Default::default()
            },
        )
        .unwrap();
    // The plan genuinely spans servers...
    assert!(direct.fragments >= 2);
    assert!(direct.data_bytes() > 0);
    // ...direct mode never touches the app tier with intermediates...
    assert_eq!(direct.app_tier_bytes(), 0);
    // ...while the baseline pushes every intermediate byte through it.
    let intermediates: usize = routed
        .transfers
        .iter()
        .filter(|t| t.to != "app")
        .map(|t| t.bytes)
        .sum();
    assert_eq!(routed.app_tier_bytes(), intermediates);
    assert!(routed.messages > direct.messages);
}

/// F3: a k-operator pipeline ships as one expression tree, not k calls.
/// The optimizer is off so the shipped tree keeps all k selects: it grows
/// with k while the conversation stays one fragment and the same number
/// of messages.
#[test]
fn f3_operator_chains_ship_as_one_fragment() {
    let fed = standard();
    let schema = fed.registry().schema_of("sales").unwrap();
    let opts = ExecOptions {
        optimizer: OptimizerConfig::disabled(),
        ..Default::default()
    };
    let mut runs = Vec::new();
    for k in [1usize, 4, 16] {
        let mut plan = Plan::scan("sales", schema.clone());
        for i in 0..k {
            plan = plan.select(col("amount").gt(lit(-(i as f64))));
        }
        let (out, m) = fed.run_with(&plan, &opts).unwrap();
        assert_eq!(m.fragments, 1, "k={k}: {m}");
        runs.push((out, m));
    }
    let (first, m1) = &runs[0];
    for (out, m) in &runs[1..] {
        assert_eq!(m.messages, m1.messages, "messages must not grow with k");
        assert!(m.plan_bytes > m1.plan_bytes, "the whole tree ships");
        assert!(out.same_bag(first).unwrap());
    }
}

/// F5: pushing a selective predicate below the fragment boundary shrinks
/// what moves between the two sites of a `sales ⋈ customers` join,
/// without changing the answer.
#[test]
fn f5_pushdown_ships_fewer_bytes_between_sites() {
    let (sales, customers, ..) = star_schema(StarSpec {
        sales: 2_000,
        customers: 400,
        ..StarSpec::default()
    });
    let rel1 = RelationalEngine::new("rel1");
    rel1.store("sales", sales).unwrap();
    let rel2 = RelationalEngine::new("rel2");
    rel2.store("customers", customers).unwrap();
    let mut fed = Federation::new();
    fed.register(Arc::new(rel1));
    fed.register(Arc::new(rel2));
    let reg = fed.registry();
    // Customer ids are uniform, so this keeps about a tenth of them.
    let plan = Plan::scan("sales", reg.schema_of("sales").unwrap())
        .join(
            Plan::scan("customers", reg.schema_of("customers").unwrap()),
            vec![("customer_id", "customer_id")],
        )
        .select(col("customer_id_r").lt(lit(40i64)))
        .aggregate(
            vec!["region"],
            vec![AggExpr::new(AggFunc::Sum, col("amount"), "total")],
        );
    let (optimized, m_opt) = fed.run(&plan).unwrap();
    let (naive, m_naive) = fed
        .run_with(
            &plan,
            &ExecOptions {
                optimizer: OptimizerConfig::disabled(),
                ..Default::default()
            },
        )
        .unwrap();
    let shipped = |m: &Metrics| -> usize {
        m.transfers
            .iter()
            .filter(|t| t.to != "app")
            .map(|t| t.bytes)
            .sum()
    };
    assert!(shipped(&m_naive) > 0, "the join must span both sites");
    assert!(
        shipped(&m_opt) < shipped(&m_naive),
        "pushdown must ship fewer bytes: {} vs {}",
        shipped(&m_opt),
        shipped(&m_naive)
    );
    assert!(optimized.same_bag(&naive).unwrap());
}

#[test]
fn linq_properties_hold() {
    // Expression trees ship whole; results are plain collections.
    let fed = standard();
    let plan = Plan::scan("sales", fed.registry().schema_of("sales").unwrap())
        .select(bda::core::col("amount").gt(bda::core::lit(100.0)))
        .limit(5);
    let bytes = bda::core::codec::encode_plan(&plan);
    let decoded = bda::core::codec::decode_plan(&bytes).unwrap();
    assert_eq!(decoded, plan);
    let (out, metrics) = fed.run(&plan).unwrap();
    // Result is a materialized client-side collection (no cursor): simply
    // iterate it.
    assert!(out.rows().unwrap().len() <= 5);
    assert!(metrics.plan_bytes > 0, "plans ship as byte trees");
}
