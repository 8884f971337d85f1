//! End-to-end federation scenarios across all four engines, driven
//! through the BDL surface language and the fluent builder.

use std::sync::Arc;

use bda::array::ArrayEngine;
use bda::core::{col, lit, AggExpr, AggFunc, OpKind, Plan, Provider, ReferenceProvider};
use bda::federation::{ExecOptions, Federation, OptimizerConfig, Planner, TransferMode};
use bda::graph::GraphEngine;
use bda::lang::{parse_query, Query};
use bda::linalg::LinAlgEngine;
use bda::relational::RelationalEngine;
use bda::storage::{DataSet, Value};
use bda::workloads::{
    random_graph, random_matrix, sensor_array, star_schema, GraphSpec, SensorSpec, StarSpec,
};

const STAR: StarSpec = StarSpec {
    sales: 1_000,
    customers: 100,
    products: 20,
    stores: 5,
    seed: 2,
};

/// Load the four star-schema tables into `p`.
fn store_star(p: &dyn Provider) {
    let (sales, customers, products, stores) = star_schema(STAR);
    p.store("sales", sales).unwrap();
    p.store("customers", customers).unwrap();
    p.store("products", products).unwrap();
    p.store("stores", stores).unwrap();
}

fn federation() -> Federation {
    let rel = RelationalEngine::new("rel");
    store_star(&rel);

    let arr = ArrayEngine::new("arr");
    arr.store(
        "sensors",
        sensor_array(SensorSpec {
            sensors: 8,
            ticks: 64,
            missing: 0.1,
            seed: 2,
        }),
    )
    .unwrap();

    let la = LinAlgEngine::new("la");
    la.store("a", random_matrix(12, 12, 3)).unwrap();
    la.store("b", random_matrix(12, 12, 4)).unwrap();

    let graph = GraphEngine::new("graph");
    let (_, edges) = random_graph(GraphSpec {
        vertices: 60,
        edges: 240,
        seed: 2,
    });
    graph.store("edges", edges).unwrap();

    let mut fed = Federation::new();
    fed.register(Arc::new(rel));
    fed.register(Arc::new(arr));
    fed.register(Arc::new(la));
    fed.register(Arc::new(graph));
    fed
}

fn bdl(fed: &Federation, program: &str) -> bda::storage::DataSet {
    let lookup = |name: &str| fed.registry().schema_of(name).ok();
    let plan = parse_query(program, &lookup).unwrap_or_else(|e| panic!("{}", e.render(program)));
    fed.run(&plan).expect("federated run").0
}

#[test]
fn star_schema_rollup_via_bdl() {
    let fed = federation();
    let out = bdl(
        &fed,
        "scan sales \
         | join (scan customers) on customer_id = customer_id \
         | join (scan products) on product_id = product_id \
         | groupby region, category: sum(amount) as revenue, count(*) as n \
         | orderby revenue desc",
    );
    assert!(out.num_rows() > 0);
    assert_eq!(
        out.schema().names(),
        vec!["region", "category", "revenue", "n"]
    );
    // Revenue column is sorted descending.
    let revenues: Vec<f64> = out
        .rows()
        .unwrap()
        .iter()
        .map(|r| r.get(2).as_float().unwrap())
        .collect();
    assert!(revenues.windows(2).all(|w| w[0] >= w[1]));
}

/// T3 (portability): one BDL program runs unchanged against swapped back
/// ends — the relational engine, the reference evaluator, and a second
/// relational engine under another name — and returns the same bag.
#[test]
fn t3_one_program_same_bag_on_swapped_back_ends() {
    const PROGRAM: &str = "scan sales \
        | join (scan customers) on customer_id = customer_id \
        | where amount > 100.0 \
        | groupby region: sum(amount) as total, count(*) as n \
        | orderby region";
    let expected = bdl(&federation(), PROGRAM);
    assert!(expected.num_rows() > 0);
    let swapped: [Arc<dyn Provider>; 2] = [
        Arc::new(ReferenceProvider::new("ref")),
        Arc::new(RelationalEngine::new("other_rel")),
    ];
    for p in swapped {
        store_star(p.as_ref());
        let name = p.name().to_string();
        let mut fed = Federation::new();
        fed.register(p);
        let out = bdl(&fed, PROGRAM);
        assert!(same_bag_up_to_rounding(&out, &expected), "{name} disagrees");
    }
}

/// Bag equality up to float rounding: a sum's last bits depend on the
/// order it adds in, which differs between engines (and between a
/// partitioned and a sequential aggregate under `BDA_WORKERS > 1`).
fn same_bag_up_to_rounding(a: &DataSet, b: &DataSet) -> bool {
    let (x, y) = (a.sorted_rows().unwrap(), b.sorted_rows().unwrap());
    a.schema() == b.schema()
        && x.len() == y.len()
        && x.iter().zip(&y).all(|(rx, ry)| {
            rx.0.iter().zip(&ry.0).all(|(vx, vy)| match (vx, vy) {
                (Value::Float(fx), Value::Float(fy)) => (fx - fy).abs() <= 1e-9 * fx.abs().max(1.0),
                _ => vx == vy,
            })
        })
}

/// T4 (fused model): the same question asked array-style (dice on the
/// time dimension, aggregate by sensor) and table-style (untag, where,
/// groupby) gives the same bag once the array answer is untagged. Both
/// run on the array engine, where the data lives; only the array form
/// keeps its output dimension-tagged.
#[test]
fn t4_array_and_table_formulations_agree() {
    let fed = federation();
    let reg = fed.registry();
    let sensors = reg.schema_of("sensors").unwrap();
    let half = sensors.field("t").unwrap().extent().unwrap().1 / 2;
    let mean = || vec![AggExpr::new(AggFunc::Avg, col("reading"), "mean")];
    let array_form = Plan::Dice {
        input: Plan::scan("sensors", sensors.clone()).boxed(),
        ranges: vec![("t".into(), 0, half)],
    }
    .aggregate(vec!["sensor"], mean());
    let table_form = Plan::UntagDims {
        input: Plan::scan("sensors", sensors).boxed(),
    }
    .select(col("t").ge(lit(0i64)).and(col("t").lt(lit(half))))
    .aggregate(vec!["sensor"], mean());

    let (a, _) = fed.run(&array_form).unwrap();
    let (b, _) = fed.run(&table_form).unwrap();
    assert_eq!(a.num_rows(), 8, "one mean per sensor");
    assert_eq!(a.schema().ndims(), 1, "array form keeps `sensor` tagged");
    assert_eq!(b.schema().ndims(), 0, "table form is a plain relation");
    let a_flat = DataSet::new(a.schema().untagged(), a.chunks().to_vec())
        .normalized_rows()
        .unwrap();
    assert!(a_flat.same_bag(&b.normalized_rows().unwrap()).unwrap());

    let site = |plan: &Plan| Planner::new(reg).place(plan).unwrap().root().site.clone();
    assert_eq!(site(&array_form), "arr");
    assert_eq!(site(&table_form), "arr");
}

#[test]
fn array_smoothing_on_the_array_engine() {
    let fed = federation();
    let out = bdl(
        &fed,
        "scan sensors \
         | dice t 0 32 \
         | window sensor 0, t 2: avg(reading) as smooth, count(*) as support \
         | groupby sensor: max(smooth) as peak",
    );
    assert_eq!(out.num_rows(), 8);
    // Peaks are plausible sensor readings.
    for r in out.rows().unwrap() {
        let peak = r.get(1).as_float().unwrap();
        assert!((0.0..40.0).contains(&peak), "{peak}");
    }
}

#[test]
fn cross_engine_pipeline_array_to_relational() {
    let fed = federation();
    // Array reduction feeding a relational join — the planner must cut.
    let q = Query::scan("sensors", fed.registry().schema_of("sensors").unwrap())
        .group_by(
            vec!["sensor"],
            vec![AggExpr::new(AggFunc::Avg, col("reading"), "mean")],
        )
        .untag_dims()
        .rename(vec![("sensor", "store_id")])
        .join(
            Query::scan("stores", fed.registry().schema_of("stores").unwrap()),
            vec![("store_id", "store_id")],
        );
    let (out, metrics) = fed.run(q.plan()).unwrap();
    assert!(out.num_rows() > 0);
    assert!(metrics.fragments >= 2, "must span engines: {metrics}");
    assert_eq!(metrics.app_tier_bytes(), 0, "direct transfers by default");
}

#[test]
fn graph_and_relational_combine() {
    let fed = federation();
    // Degrees from the graph engine, top-10 via relational sort/limit.
    let out = bdl(
        &fed,
        "scan edges | degrees | orderby degree desc, vertex | limit 10",
    );
    assert_eq!(out.num_rows(), 10);
    let degrees: Vec<i64> = out
        .rows()
        .unwrap()
        .iter()
        .map(|r| r.get(1).as_int().unwrap())
        .collect();
    assert!(degrees.windows(2).all(|w| w[0] >= w[1]));
}

#[test]
fn matmul_chain_stays_on_linalg() {
    let fed = federation();
    let a = fed
        .registry()
        .provider("la")
        .unwrap()
        .schema_of("a")
        .unwrap();
    let b = fed
        .registry()
        .provider("la")
        .unwrap()
        .schema_of("b")
        .unwrap();
    let q = Query::scan("a", a)
        .matmul(Query::scan("b", b.clone()))
        .matmul(Query::scan("b", b));
    let (out, metrics) = fed.run(q.plan()).unwrap();
    assert_eq!(out.num_rows(), 12 * 12);
    assert_eq!(metrics.fragments, 1, "whole chain on one engine");
}

#[test]
fn transfer_modes_agree_on_results() {
    let fed = federation();
    let q = Query::scan("sensors", fed.registry().schema_of("sensors").unwrap())
        .group_by(
            vec!["sensor"],
            vec![AggExpr::new(AggFunc::Sum, col("reading"), "total")],
        )
        .untag_dims()
        .rename(vec![("sensor", "store_id")])
        .join(
            Query::scan("stores", fed.registry().schema_of("stores").unwrap()),
            vec![("store_id", "store_id")],
        );
    let (direct, m_direct) = fed.run(q.plan()).unwrap();
    let (routed, m_routed) = fed
        .run_with(
            q.plan(),
            &ExecOptions {
                transfer: TransferMode::AppRouted,
                ..Default::default()
            },
        )
        .unwrap();
    assert!(direct.same_bag(&routed).unwrap());
    assert!(m_routed.app_tier_bytes() > m_direct.app_tier_bytes());
}

#[test]
fn optimizer_does_not_change_federated_results() {
    let fed = federation();
    let lookup = |name: &str| fed.registry().schema_of(name).ok();
    let programs = [
        "scan sales | where amount > 100.0 and quantity < 5 \
         | join (scan customers) on customer_id = customer_id \
         | groupby segment: avg(amount) as m",
        "scan sensors | untag | where t % 2 = 0 \
         | groupby sensor: count(*) as n",
        "scan edges | pagerank 0.85 40 1e-8 | orderby rank desc | limit 5",
    ];
    for program in programs {
        let plan = parse_query(program, &lookup).unwrap();
        let (a, _) = fed.run(&plan).unwrap();
        let (b, _) = fed
            .run_with(
                &plan,
                &ExecOptions {
                    optimizer: OptimizerConfig::disabled(),
                    ..Default::default()
                },
            )
            .unwrap();
        // Limit-bearing plans: compare counts only.
        if plan.op_kinds().contains(&OpKind::Limit) {
            assert_eq!(a.num_rows(), b.num_rows(), "{program}");
        } else {
            assert!(a.same_bag(&b).unwrap(), "{program}");
        }
    }
}

#[test]
fn three_server_pipeline() {
    // Array reduction (arr) ⋈ graph analytics (graph), joined on the
    // relational engine: three providers cooperate on one plan.
    let fed = federation();
    let q = Query::scan("sensors", fed.registry().schema_of("sensors").unwrap())
        .group_by(
            vec!["sensor"],
            vec![AggExpr::new(AggFunc::Avg, col("reading"), "mean")],
        )
        .untag_dims()
        .rename(vec![("sensor", "vertex")])
        .join(
            Query::scan("edges", fed.registry().schema_of("edges").unwrap())
                .page_rank(0.85, 30, 1e-6),
            vec![("vertex", "vertex")],
        )
        .order_by_desc("rank")
        .take(5);
    let (out, metrics) = fed.run(q.plan()).unwrap();
    assert_eq!(out.num_rows(), 5);
    assert!(metrics.fragments >= 3, "three sites expected: {metrics}");
    assert_eq!(metrics.app_tier_bytes(), 0, "all hops direct");
    // Fragment sites must include all three engines.
    let placement = bda::federation::Planner::new(fed.registry())
        .place(&bda::federation::optimize(
            q.plan(),
            bda::federation::OptimizerConfig::default(),
        ))
        .unwrap();
    let sites = placement.sites();
    for s in ["arr", "graph", "rel"] {
        assert!(sites.contains(&s.to_string()), "missing {s} in {sites:?}");
    }
}

#[test]
fn bfs_federated_with_relational_postprocessing() {
    let fed = federation();
    let lookup = |name: &str| fed.registry().schema_of(name).ok();
    let plan = parse_query(
        "scan edges | bfs 0 | groupby level: count(*) as frontier | orderby level",
        &lookup,
    )
    .unwrap();
    let (out, metrics) = fed.run(&plan).unwrap();
    assert!(metrics.fragments >= 2);
    // Level 0 has exactly the source.
    let rows = out.rows().unwrap();
    assert_eq!(rows[0].get(0).as_int().unwrap(), 0);
    assert_eq!(rows[0].get(1).as_int().unwrap(), 1);
    // Frontier sizes sum to the reachable-set size.
    let total: i64 = rows.iter().map(|r| r.get(1).as_int().unwrap()).sum();
    assert!(total > 1);
}

#[test]
fn errors_surface_cleanly() {
    let fed = federation();
    let lookup = |name: &str| fed.registry().schema_of(name).ok();
    // Unknown dataset at parse time.
    assert!(parse_query("scan missing", &lookup).is_err());
    // Type error at parse/bind time.
    assert!(parse_query("scan customers | where region > 3", &lookup).is_err());
    // Planner error for a plan over data that exists nowhere.
    let bogus = bda::core::Plan::scan(
        "ghost",
        bda::storage::Schema::new(vec![bda::storage::Field::value(
            "x",
            bda::storage::DataType::Int64,
        )])
        .unwrap(),
    );
    assert!(fed.run(&bogus).is_err());
}
