//! Acceptance test for fault-tolerant federated execution (ROADMAP:
//! robustness): a cross-server join+matmul plan completes *correctly* —
//! verified against the reference evaluator — while one provider fails
//! transiently at p = 0.3 and another is crashed outright, exercising
//! per-fragment retry and failover onto a replica. The same plan with
//! recovery disabled fails.
//!
//! Fault injection is seeded: set `BDA_FAULT_SEED` (the chaos CI job
//! sweeps a seed matrix) to replay a specific fault stream; the default
//! seed is used otherwise.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bda::core::reference::evaluate;
use bda::core::{Plan, Provider};
use bda::federation::{
    fault_seed_from_env, BreakerState, ExecOptions, FaultConfig, FaultyProvider, Federation,
    RecoveryPolicy, TransferMode,
};
use bda::lang::Query;
use bda::linalg::LinAlgEngine;
use bda::relational::RelationalEngine;
use bda::storage::{Column, DataSet};
use bda::workloads::random_matrix;
use bda_net::{RemoteOptions, RemoteProvider, RetryPolicy};
use bda_reactor::{serve_reactor, ReactorHandle, ReactorOptions};

const DEFAULT_SEED: u64 = 0xBDA;

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

/// The chaos federation: `la1` (first registered, so the planner pins the
/// matmul there) is crashed from the start; `la2` is its healthy replica;
/// `rel` fails transiently at p = 0.3 (with one guaranteed failure so
/// every seed exercises a retry). `with_replica: false` drops `la2`,
/// leaving failover nowhere to go.
fn chaos_federation(with_replica: bool) -> Federation {
    let seed = fault_seed_from_env(DEFAULT_SEED);
    let la1 = LinAlgEngine::new("la1");
    la1.store("a", random_matrix(8, 8, 1)).unwrap();
    la1.store("b", random_matrix(8, 8, 2)).unwrap();
    let la2 = LinAlgEngine::new("la2");
    la2.store("a", random_matrix(8, 8, 1)).unwrap();
    la2.store("b", random_matrix(8, 8, 2)).unwrap();
    let rel = RelationalEngine::new("rel");
    rel.store("lookup", lookup_table()).unwrap();

    let mut fed = Federation::new();
    fed.register(Arc::new(FaultyProvider::new(
        Arc::new(la1),
        FaultConfig::crash_after(0),
    )));
    if with_replica {
        fed.register(Arc::new(la2));
    }
    fed.register(Arc::new(FaultyProvider::new(
        Arc::new(rel),
        FaultConfig {
            seed,
            execute_error_rate: 0.3,
            store_error_rate: 0.3,
            fail_first: 1,
            ..FaultConfig::default()
        },
    )));
    fed
}

/// Matmul on a linalg server, join on the relational server.
fn join_matmul_plan(fed: &Federation) -> Plan {
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

fn oracle() -> HashMap<String, DataSet> {
    let mut src = HashMap::new();
    src.insert("a".to_string(), random_matrix(8, 8, 1));
    src.insert("b".to_string(), random_matrix(8, 8, 2));
    src.insert("lookup".to_string(), lookup_table());
    src
}

/// Generous retry budget: at p = 0.3 per call, six attempts make an
/// unrecovered stage vanishingly unlikely for any seed in the CI matrix.
fn recovering_options() -> ExecOptions {
    ExecOptions {
        recovery: RecoveryPolicy {
            enabled: true,
            max_attempts: 6,
            backoff: Duration::from_millis(1),
            failover: true,
        },
        ..Default::default()
    }
}

/// Enabled when `BDA_TRACE` is set (the chaos CI job sets it): the same
/// run then records a full trace, letting the test assert that recovery
/// shows up as span events, not just counters. `FaultyProvider` draws
/// its fault stream from a shared counter, so tracing never perturbs
/// which calls fail.
fn chaos_tracer() -> bda::obs::Tracer {
    if std::env::var("BDA_TRACE").is_ok_and(|v| !v.is_empty() && v != "0") {
        bda::obs::Tracer::new(DEFAULT_SEED)
    } else {
        bda::obs::Tracer::disabled()
    }
}

#[test]
fn plan_completes_correctly_under_faults_via_retry_and_failover() {
    let mut fed = chaos_federation(true);
    *fed.options_mut() = recovering_options();
    let plan = join_matmul_plan(&fed);
    let tracer = chaos_tracer();
    let (out, metrics) = fed
        .run_traced(&plan, &tracer)
        .expect("recovery completes the plan despite a crash and p=0.3 transients");

    let expected = evaluate(&plan, &oracle()).expect("reference evaluation");
    assert!(
        out.same_bag(&expected).unwrap(),
        "recovered result disagrees with the reference evaluator"
    );
    assert!(
        metrics.retries > 0,
        "rel's transients force retries: {metrics}"
    );
    assert!(
        metrics.failovers > 0,
        "la1's crash forces failover: {metrics}"
    );

    // Nothing staged survives the run, on any provider.
    for p in fed.registry().providers() {
        for (name, _) in p.catalog() {
            assert!(
                !name.starts_with("__bda_frag_"),
                "staged intermediate `{name}` leaked on `{}`",
                p.name()
            );
        }
    }

    // Under BDA_TRACE, the recovery story is auditable from the trace
    // alone: every counted retry/failover left a span event behind.
    if tracer.is_enabled() {
        let trace = tracer.finish();
        let events: Vec<&str> = trace
            .spans
            .iter()
            .flat_map(|s| s.events.iter().map(|e| e.label.as_str()))
            .collect();
        assert!(
            events.iter().any(|l| l.starts_with("retry:")),
            "retries counted but no retry events recorded: {events:?}"
        );
        assert!(
            events.iter().any(|l| l.starts_with("failover:")),
            "failovers counted but no failover events recorded: {events:?}"
        );
        assert!(
            !trace.spans_named("fragment:").is_empty(),
            "traced chaos run recorded no fragment spans"
        );
    }
}

#[test]
fn chaos_under_parallel_workers_still_converges() {
    // The same crash + p = 0.3 chaos, but dispatched by the parallel
    // scheduler with 4 workers and partition-parallel kernels: recovery
    // semantics must hold per sub-fragment, and the answer must still be
    // the reference evaluator's.
    let mut fed = chaos_federation(true);
    *fed.options_mut() = ExecOptions {
        workers: 4,
        ..recovering_options()
    };
    let plan = join_matmul_plan(&fed);
    let (out, metrics) = fed
        .run(&plan)
        .expect("parallel recovery completes the plan despite a crash and p=0.3 transients");

    let expected = evaluate(&plan, &oracle()).expect("reference evaluation");
    assert!(
        out.same_bag(&expected).unwrap(),
        "parallel recovered result disagrees with the reference evaluator"
    );
    assert!(
        metrics.failovers > 0,
        "la1's crash forces failover under parallel dispatch: {metrics}"
    );

    // Staged intermediates are cleaned up on every provider here too.
    for p in fed.registry().providers() {
        for (name, _) in p.catalog() {
            assert!(
                !name.starts_with("__bda_frag_"),
                "staged intermediate `{name}` leaked on `{}`",
                p.name()
            );
        }
    }
}

#[test]
fn same_faults_without_recovery_fail() {
    let fed = chaos_federation(true);
    let plan = join_matmul_plan(&fed);
    let opts = ExecOptions {
        recovery: RecoveryPolicy::disabled(),
        ..Default::default()
    };
    let err = fed.run_with(&plan, &opts).unwrap_err();
    // The crash is deterministic and seed-independent, so the failure is
    // too; without retry/failover it aborts the plan.
    assert!(err.to_string().contains("injected"), "{err}");
}

#[test]
fn failover_needs_somewhere_to_go() {
    // Without the replica, retry still works but the crashed matmul site
    // has no stand-in: the plan fails even with recovery on.
    let fed = chaos_federation(false);
    let plan = join_matmul_plan(&fed);
    let err = fed.run_with(&plan, &recovering_options()).unwrap_err();
    assert!(err.to_string().contains("injected crash"), "{err}");
}

#[test]
fn permanent_failure_leaves_a_flight_recorder_dump() {
    // The crash flight recorder is always on: when a query fails
    // permanently, the executor dumps the recent-event ring to
    // `$BDA_FLIGHT_DIR` and the dump names the fragment and provider
    // that sank the query — a post-mortem without any tracing enabled.
    let dir = std::env::temp_dir().join(format!("bda-flight-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("BDA_FLIGHT_DIR", &dir);

    let fed = chaos_federation(false);
    let plan = join_matmul_plan(&fed);
    let err = fed.run_with(&plan, &recovering_options()).unwrap_err();
    assert!(err.to_string().contains("injected crash"), "{err}");

    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("bda-flight-"))
        .collect();
    assert!(!dumps.is_empty(), "no flight dump written to {dir:?}");
    let text = dumps
        .iter()
        .map(|d| std::fs::read_to_string(d.path()).unwrap())
        .collect::<String>();
    assert!(
        text.contains("fragment:") && text.contains("@la1"),
        "dump does not name the failing fragment and provider:\n{text}"
    );
    assert!(
        text.contains("failed permanently"),
        "dump does not record the permanent failure:\n{text}"
    );
    // The error itself points at the dump when its variant carries a
    // message; either way the file exists for the operator.
    if let Some(at) = err.to_string().find("flight:") {
        let rest = &err.to_string()[at + "flight:".len()..];
        let path = rest.split(']').next().unwrap().to_string();
        assert!(
            std::path::Path::new(&path).exists(),
            "error references a missing dump: {path}"
        );
    }

    std::env::remove_var("BDA_FLIGHT_DIR");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Chaos parity against the reactor serving core
//
// The same fault plan as `chaos_federation`, but every provider now lives
// behind a real loopback TCP socket served by `serve_reactor` — the sharded
// event-loop core — instead of running in-process. Retry, failover, and
// circuit-breaker semantics are the executor's contract with *providers*;
// changing the serving core underneath must not change any of it.
// ---------------------------------------------------------------------------

/// A `RemoteProvider` whose transport does NOT retry: every transient
/// error surfaces to the federation executor, so the executor's own
/// retry accounting stays comparable with the in-process chaos tests.
fn connect_no_transport_retry(addr: String) -> RemoteProvider {
    RemoteProvider::connect_with(
        addr,
        RemoteOptions {
            retry: RetryPolicy {
                attempts: 1,
                initial_backoff: Duration::from_millis(1),
            },
            ..RemoteOptions::default()
        },
    )
    .expect("connect to reactor server")
}

/// The chaos federation of [`chaos_federation`], rebuilt multi-process:
/// each (possibly faulty) engine sits behind its own reactor server and
/// registers through a `RemoteProvider`. The handles keep the servers
/// alive for the duration of the test.
fn reactor_chaos_federation(with_replica: bool) -> (Federation, Vec<ReactorHandle>) {
    let seed = fault_seed_from_env(DEFAULT_SEED);
    let la1 = LinAlgEngine::new("la1");
    la1.store("a", random_matrix(8, 8, 1)).unwrap();
    la1.store("b", random_matrix(8, 8, 2)).unwrap();
    let la2 = LinAlgEngine::new("la2");
    la2.store("a", random_matrix(8, 8, 1)).unwrap();
    la2.store("b", random_matrix(8, 8, 2)).unwrap();
    let rel = RelationalEngine::new("rel");
    rel.store("lookup", lookup_table()).unwrap();

    let mut servers = Vec::new();
    let mut fed = Federation::new();
    let crashed: Arc<dyn Provider> = Arc::new(FaultyProvider::new(
        Arc::new(la1),
        FaultConfig::crash_after(0),
    ));
    let s = serve_reactor(crashed, "127.0.0.1:0", ReactorOptions::default()).unwrap();
    fed.register(Arc::new(connect_no_transport_retry(s.addr().to_string())));
    servers.push(s);
    if with_replica {
        let s = serve_reactor(Arc::new(la2), "127.0.0.1:0", ReactorOptions::default()).unwrap();
        fed.register(Arc::new(connect_no_transport_retry(s.addr().to_string())));
        servers.push(s);
    }
    let flaky: Arc<dyn Provider> = Arc::new(FaultyProvider::new(
        Arc::new(rel),
        FaultConfig {
            seed,
            execute_error_rate: 0.3,
            store_error_rate: 0.3,
            fail_first: 1,
            ..FaultConfig::default()
        },
    ));
    let s = serve_reactor(flaky, "127.0.0.1:0", ReactorOptions::default()).unwrap();
    fed.register(Arc::new(connect_no_transport_retry(s.addr().to_string())));
    servers.push(s);
    (fed, servers)
}

#[test]
fn chaos_over_reactor_servers_recovers_via_retry_and_failover() {
    let (mut fed, _servers) = reactor_chaos_federation(true);
    *fed.options_mut() = ExecOptions {
        // Server-to-server pushes route intermediates through the reactor
        // cores directly, so shedding/transients on *that* path are
        // exercised too.
        transfer: TransferMode::RemoteTcp,
        ..recovering_options()
    };
    let plan = join_matmul_plan(&fed);
    let (out, metrics) = fed
        .run(&plan)
        .expect("recovery completes the plan over reactor-served providers");

    let expected = evaluate(&plan, &oracle()).expect("reference evaluation");
    assert!(
        out.same_bag(&expected).unwrap(),
        "recovered remote result disagrees with the reference evaluator"
    );
    assert!(
        metrics.retries > 0,
        "rel's transients must surface over the wire and force retries: {metrics}"
    );
    assert!(
        metrics.failovers > 0,
        "la1's crash must force failover onto la2 over the wire: {metrics}"
    );

    // Cleanup parity: nothing staged survives on any *server* either.
    for p in fed.registry().providers() {
        for (name, _) in p.catalog() {
            assert!(
                !name.starts_with("__bda_frag_"),
                "staged intermediate `{name}` leaked on reactor-served `{}`",
                p.name()
            );
        }
    }
}

#[test]
fn chaos_over_reactor_servers_without_replica_fails_the_same_way() {
    let (fed, _servers) = reactor_chaos_federation(false);
    let plan = join_matmul_plan(&fed);
    let err = fed.run_with(&plan, &recovering_options()).unwrap_err();
    // The crash message crosses the wire intact: same failure mode, same
    // diagnosis as the in-process run.
    assert!(err.to_string().contains("injected crash"), "{err}");
}

#[test]
fn breaker_trips_on_a_crashed_reactor_site_exactly_as_in_process() {
    // Only the crashed site holds the data: every run fails permanently,
    // feeding the same per-provider breaker the in-process executor uses.
    let (fed, _servers) = reactor_chaos_federation(false);
    let plan = join_matmul_plan(&fed);
    let threshold = fed.registry().health().config().failure_threshold;

    let mut runs = 0;
    while fed.registry().health().state("la1") != BreakerState::Open {
        runs += 1;
        assert!(
            runs <= threshold + 2,
            "breaker failed to trip after {runs} failing runs"
        );
        let err = fed.run_with(&plan, &recovering_options()).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
    }
    assert_eq!(fed.registry().health().state("la1"), BreakerState::Open);
    assert!(
        fed.registry().health().trips() >= 1,
        "trip counter must record the open"
    );
    // An open breaker rejects placement outright — the next run still
    // fails (no eligible site), without needing la1 to answer at all.
    assert!(fed.run_with(&plan, &recovering_options()).is_err());
}
