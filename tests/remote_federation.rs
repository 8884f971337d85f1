//! Acceptance test for `bda-net`: a federation whose providers live in
//! **separate server processes** (well, separate threads behind real
//! loopback TCP sockets — the wire path is identical to separate
//! processes, which is how the `bda-served` binary runs them).
//!
//! Two servers answer a single cross-server plan that joins relational
//! data against a matrix product, with `TransferMode::RemoteTcp` making
//! the intermediate hop a *direct server-to-server* transfer.

use std::collections::HashMap;
use std::sync::Arc;

use bda::core::reference::evaluate;
use bda::core::{col, lit, Provider};
use bda::federation::{ExecOptions, Federation, OptimizerConfig, TransferMode};
use bda::lang::{parse_query, Query};
use bda::linalg::LinAlgEngine;
use bda::relational::RelationalEngine;
use bda::storage::{Column, DataSet};
use bda::workloads::random_matrix;
use bda_net::{serve, RemoteProvider, ServerHandle};

fn lookup_table() -> DataSet {
    DataSet::from_columns(vec![
        ("row", Column::from((0i64..8).collect::<Vec<i64>>())),
        (
            "weight",
            Column::from((0..8).map(|i| 1.0 + i as f64).collect::<Vec<f64>>()),
        ),
    ])
    .unwrap()
}

/// Two engines, each behind its own TCP server on 127.0.0.1.
fn remote_federation() -> (Federation, Vec<ServerHandle>) {
    let la = LinAlgEngine::new("la");
    la.store("a", random_matrix(8, 8, 1)).unwrap();
    la.store("b", random_matrix(8, 8, 2)).unwrap();

    let rel = RelationalEngine::new("rel");
    rel.store("lookup", lookup_table()).unwrap();

    let server_la = serve(Arc::new(la), "127.0.0.1:0").unwrap();
    let server_rel = serve(Arc::new(rel), "127.0.0.1:0").unwrap();

    let mut fed = Federation::new();
    fed.register(Arc::new(
        RemoteProvider::connect(server_la.addr().to_string()).unwrap(),
    ));
    fed.register(Arc::new(
        RemoteProvider::connect(server_rel.addr().to_string()).unwrap(),
    ));
    (fed, vec![server_la, server_rel])
}

/// `bda_net_requests_total{kind="catalog"}` as the server reports it,
/// read over a connection of its own (Hello and Metrics requests only).
fn catalog_requests(server: &ServerHandle) -> u64 {
    let text = RemoteProvider::connect(server.addr().to_string())
        .unwrap()
        .metrics_text()
        .unwrap();
    text.lines()
        .find_map(|l| l.strip_prefix("bda_net_requests_total{kind=\"catalog\"} "))
        .map_or(0, |n| n.trim().parse().unwrap())
}

/// The cross-server plan: matmul on the linalg server, join on the
/// relational server.
fn join_matmul_plan(fed: &Federation) -> bda::core::Plan {
    let a = fed.registry().schema_of("a").unwrap();
    let b = fed.registry().schema_of("b").unwrap();
    let lookup = fed.registry().schema_of("lookup").unwrap();
    Query::scan("a", a)
        .matmul(Query::scan("b", b))
        .untag_dims()
        .join(Query::scan("lookup", lookup), vec![("row", "row")])
        .plan()
        .clone()
}

/// The bench's `cross_engine` shape: the product, joined to `lookup`,
/// weighted and summed per row.
fn cross_engine_plan(fed: &Federation) -> bda::core::Plan {
    let lookup = |name: &str| fed.registry().schema_of(name).ok();
    parse_query(
        "scan a | matmul (scan b) | untag | join (scan lookup) on row = row \
         | select row, v * weight as vw | groupby row: sum(vw) as s",
        &lookup,
    )
    .unwrap()
}

/// The in-process oracle for the same data.
fn oracle() -> HashMap<String, DataSet> {
    let mut src = HashMap::new();
    src.insert("a".to_string(), random_matrix(8, 8, 1));
    src.insert("b".to_string(), random_matrix(8, 8, 2));
    src.insert("lookup".to_string(), lookup_table());
    src
}

#[test]
fn cross_server_join_matmul_over_tcp_matches_reference() {
    let (fed, _servers) = remote_federation();
    let plan = join_matmul_plan(&fed);

    let (out, metrics) = fed
        .run_with(
            &plan,
            &ExecOptions {
                transfer: TransferMode::RemoteTcp,
                ..Default::default()
            },
        )
        .expect("federated run over TCP");

    let expected = evaluate(&plan, &oracle()).expect("reference evaluation");
    assert!(
        out.same_bag(&expected).unwrap(),
        "remote result disagrees with the reference evaluator"
    );
    assert_eq!(out.num_rows(), 8 * 8, "full 8x8 product joined");

    assert!(
        metrics.fragments >= 2,
        "plan must span both servers: {metrics}"
    );
    // The matmul result travelled server-to-server on a real socket.
    assert!(
        metrics.real_wire_bytes > 0,
        "expected nonzero real wire bytes: {metrics}"
    );
}

/// Floats within 1e-9 of the oracle's, as bags.
fn approx_same(got: &DataSet, want: &DataSet) -> bool {
    let (x, y) = (got.sorted_rows().unwrap(), want.sorted_rows().unwrap());
    x.len() == y.len()
        && x.iter().zip(&y).all(|(rx, ry)| {
            rx.0.iter()
                .zip(&ry.0)
                .all(|(vx, vy)| match (vx.as_float(), vy.as_float()) {
                    (Ok(p), Ok(q)) => (p - q).abs() < 1e-9,
                    _ => vx == vy,
                })
        })
}

#[test]
fn cross_engine_pushes_row_sums_not_the_product() {
    let (mut fed, servers) = remote_federation();
    fed.options_mut().transfer = TransferMode::RemoteTcp;
    // One partition per fragment on the client. This fixes only the
    // client's placement width: the servers still partition at their own
    // `BDA_WORKERS` (see the byte pin below).
    fed.options_mut().workers = 1;
    let plan = cross_engine_plan(&fed);
    let expected = evaluate(&plan, &oracle()).unwrap();

    let tracer = bda::obs::Tracer::new(11);
    let (out, metrics) = fed.run_traced(&plan, &tracer).unwrap();
    assert!(approx_same(&out, &expected), "{:?}", out.sorted_rows());
    assert_eq!(out.num_rows(), 8);
    assert_eq!(metrics.degraded_transfers, 0, "{metrics}");
    assert_eq!(metrics.fragments, 2, "{metrics}");
    // The product's 8 row sums are what leaves `la`; the 64-cell
    // product is never formed.
    let trace = tracer.finish();
    let on_la: Vec<_> = trace
        .spans_named("op:aggregate")
        .into_iter()
        .filter(|s| s.site == "la")
        .collect();
    assert_eq!(on_la.len(), 1, "{:#?}", trace.spans);
    assert_eq!(on_la[0].rows, Some(8));
    assert!(trace.spans_named("op:matmul").is_empty());
    let pushed: Vec<_> = metrics
        .transfers
        .iter()
        .filter(|t| t.from == "la" && t.to == "rel")
        .collect();
    assert_eq!(pushed.len(), 1, "{metrics}");

    // A warm op's client traffic (plans and the answer; the push is
    // server to server), pinned exactly.
    let clients: Vec<_> = ["la", "rel"]
        .iter()
        .map(|n| fed.registry().provider(n).unwrap())
        .collect();
    let wire = || -> u64 {
        clients
            .iter()
            .map(|p| {
                let (sent, received) = p.wire_bytes();
                sent + received
            })
            .sum()
    };
    let warm_op = || {
        let before = wire();
        let (warm, _) = fed.run(&plan).unwrap();
        assert!(approx_same(&warm, &expected));
        wire() - before
    };
    let warm = warm_op();
    // A warm op is placed from the registry's catalog memo: it reads no
    // server's metadata.
    let before = servers.iter().map(catalog_requests).collect::<Vec<_>>();
    assert_eq!(warm_op(), warm, "client bytes repeat op to op");
    for (server, before) in servers.iter().zip(before) {
        assert_eq!(
            catalog_requests(server) - before,
            0,
            "catalog requests one warm op sends to {}",
            server.addr()
        );
    }
    // A server partitions at its own `BDA_WORKERS`, which changes the
    // answer's chunking, so the figure is pinned at the default width.
    if bda::core::pool::workers_from_env() == 1 {
        assert_eq!(warm, 620, "client bytes of one warm op");
    }

    // Unoptimized, linalg could host the root aggregate; placement must
    // still keep every relational operator on `rel`.
    let (out, metrics) = fed
        .run_with(
            &plan,
            &ExecOptions {
                transfer: TransferMode::RemoteTcp,
                optimizer: OptimizerConfig::disabled(),
                ..Default::default()
            },
        )
        .unwrap();
    assert!(approx_same(&out, &expected));
    assert_eq!(metrics.degraded_transfers, 0, "{metrics}");
}

#[test]
fn remote_tcp_matches_direct_mode_on_the_same_servers() {
    let (fed, _servers) = remote_federation();
    let plan = join_matmul_plan(&fed);

    let (tcp, m_tcp) = fed
        .run_with(
            &plan,
            &ExecOptions {
                transfer: TransferMode::RemoteTcp,
                ..Default::default()
            },
        )
        .unwrap();
    // Direct mode still works against remote providers: the intermediate
    // comes back to the app tier's client and is re-stored at the
    // destination (two hops on the wire instead of one).
    let (direct, m_direct) = fed
        .run_with(
            &plan,
            &ExecOptions {
                transfer: TransferMode::Direct,
                ..Default::default()
            },
        )
        .unwrap();
    assert!(tcp.same_bag(&direct).unwrap());
    // Both modes move real bytes (the providers are remote either way),
    // and only RemoteTcp records a push.
    assert!(m_tcp.real_wire_bytes > 0, "{m_tcp}");
    assert!(m_direct.real_wire_bytes > 0, "{m_direct}");
}

#[test]
fn remote_capabilities_and_catalog_drive_placement() {
    let (fed, _servers) = remote_federation();
    // The registry learned each server's catalog over the wire.
    assert!(fed.registry().schema_of("a").is_ok());
    assert!(fed.registry().schema_of("lookup").is_ok());
    let la = fed.registry().provider("la").unwrap();
    let rel = fed.registry().provider("rel").unwrap();
    assert!(la.capabilities().supports(bda::core::OpKind::MatMul));
    assert!(rel.capabilities().supports(bda::core::OpKind::Join));
    // Remote providers expose their endpoint for direct transfers.
    assert!(la.endpoint().is_some());
    assert!(rel.endpoint().is_some());
}

#[test]
fn servers_shut_down_cleanly_after_queries() {
    let (fed, mut servers) = remote_federation();
    let plan = join_matmul_plan(&fed);
    fed.run_with(
        &plan,
        &ExecOptions {
            transfer: TransferMode::RemoteTcp,
            ..Default::default()
        },
    )
    .unwrap();
    for s in &mut servers {
        s.shutdown();
    }
    // After shutdown the federation's requests fail with errors, not hangs.
    assert!(fed
        .run_with(
            &plan,
            &ExecOptions {
                transfer: TransferMode::RemoteTcp,
                ..Default::default()
            },
        )
        .is_err());
}

#[test]
fn wire_bytes_are_charged_once_per_run() {
    // Regression guard for the `real_wire_bytes` invariant (see
    // `bda_federation::metrics`): the executor charges *deltas* of the
    // providers' cumulative transport counters, never the absolute
    // values. If that ever regressed to absolute counters, a second run
    // over the same connections would re-count the first run's bytes.
    let (fed, _servers) = remote_federation();
    let plan = join_matmul_plan(&fed);
    let opts = ExecOptions {
        transfer: TransferMode::Direct,
        ..Default::default()
    };

    let (_, m1) = fed.run_with(&plan, &opts).unwrap();

    let la = fed.registry().provider("la").unwrap();
    let rel = fed.registry().provider("rel").unwrap();
    let total = |p: &Arc<dyn Provider>| {
        let (sent, received) = p.wire_bytes();
        sent + received
    };
    let before = total(&la) + total(&rel);
    let (_, m2) = fed.run_with(&plan, &opts).unwrap();
    let delta = total(&la) + total(&rel) - before;

    assert!(m1.real_wire_bytes > 0, "{m1}");
    // Identical traffic both times: charging absolutes instead of
    // deltas would roughly double the second figure.
    assert_eq!(
        m1.real_wire_bytes, m2.real_wire_bytes,
        "second run must not re-count the first run's bytes"
    );
    // Every charged byte really crossed the app tier's sockets during
    // *this* run (the counters may additionally move for uncharged
    // planning traffic, hence <=).
    assert!(
        m2.real_wire_bytes <= delta,
        "charged {} wire bytes but the transports only moved {delta}",
        m2.real_wire_bytes
    );
}

#[test]
fn traced_tcp_run_reassembles_one_cross_process_trace() {
    // The acceptance bar for bda-obs: one federated query over real
    // sockets yields a *single* trace whose spans cover the app tier and
    // both server processes, stitched into one tree.
    let (mut fed, _servers) = remote_federation();
    fed.options_mut().transfer = TransferMode::RemoteTcp;
    let plan = join_matmul_plan(&fed);

    let tracer = bda::obs::Tracer::new(42);
    let (out, metrics) = fed.run_traced(&plan, &tracer).unwrap();
    assert_eq!(out.num_rows(), 8 * 8);
    assert!(metrics.real_wire_bytes > 0, "{metrics}");

    let trace = tracer.finish();
    assert_eq!(trace.dropped, 0);

    // All three processes appear in the one trace.
    let sites = trace.sites();
    for site in ["app", "la", "rel"] {
        assert!(sites.iter().any(|s| s == site), "missing {site}: {sites:?}");
    }

    // Exactly one root: the app-tier query span.
    let roots: Vec<_> = trace.spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "{roots:?}");
    assert_eq!(roots[0].name, "query");
    assert_eq!(roots[0].site, "app");

    // Server-side spans were absorbed: each remote fragment shows a
    // `serve:` span, and the operators ran where the planner placed them.
    assert!(
        !trace.spans_named("serve:").is_empty(),
        "no server-side spans absorbed: {:#?}",
        trace.spans
    );
    let matmuls = trace.spans_named("op:matmul");
    assert!(
        matmuls.iter().any(|s| s.site == "la"),
        "matmul should execute on la: {matmuls:?}"
    );
    let joins = trace.spans_named("op:join");
    assert!(
        joins.iter().any(|s| s.site == "rel"),
        "join should execute on rel: {joins:?}"
    );

    // Every non-root span's parent exists: the remote id spaces were
    // remapped into the client's without dangling references.
    for s in &trace.spans {
        if let Some(p) = s.parent {
            assert!(trace.span(p).is_some(), "dangling parent in {s:?}");
        }
    }
}

/// A decorator with no tracing code: it forwards only what the trait
/// requires, `execute` among it.
struct ExecuteOnly(RelationalEngine);

impl Provider for ExecuteOnly {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn capabilities(&self) -> bda::core::CapabilitySet {
        self.0.capabilities()
    }
    fn catalog(&self) -> Vec<(String, bda::storage::Schema)> {
        self.0.catalog()
    }
    fn execute(&self, plan: &bda::core::Plan) -> Result<DataSet, bda::core::CoreError> {
        self.0.execute(plan)
    }
    fn store(&self, name: &str, data: DataSet) -> Result<(), bda::core::CoreError> {
        self.0.store(name, data)
    }
    fn remove(&self, name: &str) {
        self.0.remove(name)
    }
}

#[test]
fn tracing_survives_a_decorator_that_only_forwards_execute() {
    let wrapped = || {
        let rel = RelationalEngine::new("rel");
        rel.store("lookup", lookup_table()).unwrap();
        Arc::new(ExecuteOnly(rel))
    };
    let analyze = |provider: Arc<dyn Provider>| {
        let mut fed = Federation::new();
        fed.register(provider);
        fed.options_mut().workers = 1;
        let lookup = fed.registry().schema_of("lookup").unwrap();
        let plan = Query::scan("lookup", lookup).filter(col("weight").gt(lit(2.0)));
        fed.explain_analyze(plan.plan(), 7).unwrap()
    };

    // In process: the inner engine's operators nest under the fragment.
    let report = analyze(wrapped());
    assert!(report.contains("\n  fragment:0 @ rel"), "{report}");
    assert!(report.contains("\n    op:select @ rel"), "{report}");
    assert!(report.contains("\n      op:scan @ rel"), "{report}");

    // Behind a server: under the fragment, the server's `serve:` span.
    let server = serve(wrapped(), "127.0.0.1:0").unwrap();
    let remote = RemoteProvider::connect(server.addr().to_string()).unwrap();
    let report = analyze(Arc::new(remote));
    assert!(report.contains("\n    serve:execute @ rel"), "{report}");
    assert!(report.contains("\n      op:select @ rel"), "{report}");
    assert!(report.contains("\n        op:scan @ rel"), "{report}");
}

#[test]
fn explain_analyze_works_across_real_sockets() {
    let (mut fed, _servers) = remote_federation();
    fed.options_mut().transfer = TransferMode::RemoteTcp;
    let plan = join_matmul_plan(&fed);
    let report = fed.explain_analyze(&plan, 7).unwrap();
    assert!(report.contains("query @ app"), "{report}");
    assert!(report.contains("op:matmul @ la"), "{report}");
    assert!(report.contains("op:join @ rel"), "{report}");
    assert!(report.contains("serve:execute"), "{report}");
    assert!(report.contains("== metrics =="), "{report}");
}
