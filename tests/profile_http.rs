//! Acceptance test for the query profiler: a traced federated query
//! leaves a profile in the process-global query log, the log is served
//! over plain HTTP (`/queries`, `/queries/slow`), every traced query the
//! log lists has its trace served from the same entry (`/traces/<id>`),
//! and a query the log flags slow keeps profile and trace past the log's
//! churn plus a stamp in the flight recorder. The retired measured-cost
//! book stays retired: no `/calibration` route, no cost-book metric series.
//!
//! One test function: the profiler's state is process-global, so the
//! phases run sequentially instead of racing each other from parallel
//! `#[test]`s.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use bda::core::{CoreError, Plan, Provider};
use bda::federation::Federation;
use bda::lang::Query;
use bda::relational::RelationalEngine;
use bda::storage::{Column, DataSet, Schema};
use bda_obs::profile::{OpProfile, QueryProfile};

/// Minimal HTTP GET over loopback; returns (status line, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut conn = std::net::TcpStream::connect(addr).expect("connect to ops endpoint");
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: bda\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    let status = raw.lines().next().unwrap_or_default().to_string();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// A correct-but-late provider: guarantees a wall time far beyond any
/// plausible p99 of the fast synthetic history, so the slow flag fires
/// deterministically.
struct LaggyProvider {
    inner: RelationalEngine,
    delay: Duration,
}

impl Provider for LaggyProvider {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capabilities(&self) -> bda::core::CapabilitySet {
        self.inner.capabilities()
    }

    fn catalog(&self) -> Vec<(String, Schema)> {
        self.inner.catalog()
    }

    fn execute(&self, plan: &Plan) -> Result<DataSet, CoreError> {
        std::thread::sleep(self.delay);
        self.inner.execute(plan)
    }

    fn store(&self, name: &str, data: DataSet) -> Result<(), CoreError> {
        self.inner.store(name, data)
    }

    fn remove(&self, name: &str) {
        self.inner.remove(name)
    }

    fn row_count_of(&self, name: &str) -> Option<usize> {
        self.inner.row_count_of(name)
    }
}

fn table(n: i64) -> DataSet {
    DataSet::from_columns(vec![
        ("k", Column::from((0..n).collect::<Vec<i64>>())),
        (
            "v",
            Column::from((0..n).map(|i| i as f64).collect::<Vec<f64>>()),
        ),
    ])
    .unwrap()
}

#[test]
fn profiles_are_served_over_http_and_slow_queries_are_retained() {
    let rel = RelationalEngine::new("rel");
    rel.store("t", table(64)).unwrap();
    let laggy = LaggyProvider {
        inner: RelationalEngine::new("laggy"),
        delay: Duration::from_millis(25),
    };
    laggy.store("big", table(64)).unwrap();
    let mut fed = Federation::new();
    fed.register(Arc::new(rel));
    fed.register(Arc::new(laggy));
    let ops = fed
        .serve_ops("127.0.0.1:0", bda_obs::MetricsHub::new())
        .expect("ops endpoint binds");

    // Phase 1: a traced query shows up in /queries; nothing serves a
    // cost book.
    let schema = fed.registry().schema_of("t").unwrap();
    let q = Query::scan("t", schema);
    let tracer = bda::obs::Tracer::new(0x0B5);
    let trace_id = tracer.trace_id();
    fed.run_traced(q.plan(), &tracer).expect("traced query");

    let (status, body) = http_get(ops.addr(), "/queries");
    assert!(status.contains("200"), "{status}");
    let id_key = format!("\"trace_id\":\"{trace_id:#018x}\"");
    assert!(body.contains(&id_key), "profile not served: {body}");
    assert!(body.contains("\"ops\""), "{body}");
    assert!(body.contains("\"class\":\"scan\""), "{body}");

    let (status, _) = http_get(ops.addr(), "/calibration");
    assert!(status.contains("404"), "/calibration is retired: {status}");
    let (status, metrics) = http_get(ops.addr(), "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(!metrics.contains("costbook"), "{metrics}");

    // Phase 2: seed the wall-time history with a burst of fast
    // synthetic profiles (50 us each), so p99 settles far below the
    // laggy provider's 25 ms and the next heavy query is flagged.
    for i in 0..300u64 {
        bda_obs::profile::global_log().push(
            QueryProfile {
                trace_id: 0x1000 + i,
                wall_ns: 50_000,
                slow: false,
                ops: vec![OpProfile {
                    class: "select".into(),
                    count: 1,
                    rows: 64,
                    bytes: 0,
                    wall_ns: 50_000,
                }],
                sites: Vec::new(),
            },
            None,
        );
    }

    let schema = fed.registry().schema_of("big").unwrap();
    let heavy = Query::scan("big", schema);
    let heavy_tracer = bda::obs::Tracer::new(0x510);
    let heavy_id = heavy_tracer.trace_id();
    fed.run_traced(heavy.plan(), &heavy_tracer)
        .expect("heavy query");

    let (status, slow_doc) = http_get(ops.addr(), "/queries/slow");
    assert!(status.contains("200"), "{status}");
    let heavy_key = format!("\"trace_id\":\"{heavy_id:#018x}\"");
    assert!(
        slow_doc.contains(&heavy_key),
        "heavy query missing from /queries/slow: {slow_doc}"
    );
    assert!(slow_doc.contains("\"slow\":true"), "{slow_doc}");
    assert!(
        !slow_doc.contains(&id_key),
        "the fast query must not be flagged slow: {slow_doc}"
    );

    // Churn the log past its capacity with traced queries: the slow
    // query keeps its profile and its trace, and every churn query the
    // log still lists has its trace served too.
    let fast_schema = fed.registry().schema_of("t").unwrap();
    let churn_ids: Vec<u64> = (0..(bda_obs::profile::DEFAULT_QUERIES_KEPT + 16) as u64)
        .map(|i| {
            let churn = Query::scan("t", fast_schema.clone());
            let tracer = bda::obs::Tracer::new(0x2000 + i);
            fed.run_traced(churn.plan(), &tracer).expect("churn query");
            tracer.trace_id()
        })
        .collect();
    let (_, slow_doc) = http_get(ops.addr(), "/queries/slow");
    assert!(
        slow_doc.contains(&heavy_key),
        "slow profile evicted by churn: {slow_doc}"
    );
    let (status, trace_json) = http_get(ops.addr(), &format!("/traces/{heavy_id:#018x}"));
    assert!(
        status.contains("200"),
        "slow trace evicted: {status} {trace_json}"
    );
    assert!(trace_json.contains("\"ph\":\"X\""), "{trace_json}");
    let (_, listed) = http_get(ops.addr(), "/queries");
    let listed_ids: Vec<u64> = churn_ids
        .into_iter()
        .filter(|id| listed.contains(&format!("\"trace_id\":\"{id:#018x}\"")))
        .collect();
    assert!(
        listed_ids.len() >= bda_obs::profile::DEFAULT_QUERIES_KEPT,
        "only {} churn queries listed: {listed}",
        listed_ids.len()
    );
    for id in listed_ids {
        let (status, body) = http_get(ops.addr(), &format!("/traces/{id:#018x}"));
        assert!(
            status.contains("200"),
            "/queries lists {id:#018x} but its trace is gone: {status} {body}"
        );
    }

    // And the flight recorder carries the slow-query stamp.
    let (status, flight) = http_get(ops.addr(), "/flight");
    assert!(status.contains("200"), "{status}");
    let stamp = format!("slow-query trace={heavy_id:#018x}");
    assert!(flight.contains(&stamp), "no flight stamp: {flight}");
}
