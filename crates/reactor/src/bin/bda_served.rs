//! `bda-served`: serve one BDA engine over TCP.
//!
//! ```text
//! bda-served --engine relational --name rel --listen 127.0.0.1:7401
//! ```
//!
//! Engines: `relational`, `array`, `linalg`, `graph`, `reference`.
//! Data arrives over the wire: the application (or a peer server
//! executing a push) issues `Store` requests, exactly like any other
//! provider interaction. `--demo` preloads a small sales table and a
//! 2x3 matrix so the README quick-start has something to query.
//! `--log <path|stderr>` emits one structured line per request (kind,
//! duration, bytes, outcome); a `Metrics` request returns the server's
//! Prometheus-format registry either way.
//!
//! `--http <port>` additionally mounts the plain-HTTP observability
//! endpoint on `127.0.0.1:<port>` (`0` picks an ephemeral port):
//! `GET /metrics` renders the same registry the protocol serves, plus
//! `/healthz`, `/readyz`, `/progress`, `/flight`, `/traces/<id>`,
//! `/queries`, and `/queries/slow` — see README, "Operating
//! bda-served". When `BDA_PROFILE_DIR` is set (or, failing
//! that, when `--data-dir` is given — `<dir>/profiles` is used), the
//! query-profile log behind `/queries` persists as JSONL and is
//! recovered on restart.
//!
//! `--reactor` swaps the thread-per-connection core for the sharded
//! event-loop core in `bda-reactor`: epoll readiness, request
//! pipelining, admission control with priority queues, and load
//! shedding. Same protocol, same request semantics, same metrics; in
//! this mode `/readyz` reports 503 while the admission queues are
//! saturated. `--shards`, `--workers`, `--queue`, `--max-conns`, and
//! `--max-inflight` tune it (0 = derive).
//!
//! `--data-dir <dir>` makes the served engine durable: prior state is
//! recovered (newest snapshot + WAL tail) before the listener binds,
//! every acknowledged mutation is write-ahead-logged, and a background
//! thread compacts the log into snapshots. `--fsync always|never`
//! picks the append sync policy (default `always`: acknowledged writes
//! survive power loss, not just `kill -9`). While recovery replays,
//! `/readyz` reports 503 with a `recovering` detail.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use bda_durability::{DurableProvider, FsyncPolicy};

use bda_array::ArrayEngine;
use bda_core::{Provider, ReferenceProvider};
use bda_graph::GraphEngine;
use bda_linalg::LinAlgEngine;
use bda_relational::RelationalEngine;
use bda_storage::dataset::matrix_dataset;
use bda_storage::{Column, DataSet};

struct Args {
    engine: String,
    name: String,
    listen: String,
    demo: bool,
    log: Option<bda_net::LogSink>,
    http: Option<u16>,
    data_dir: Option<String>,
    fsync: FsyncPolicy,
    reactor: bool,
    shards: usize,
    workers: usize,
    queue: usize,
    max_conns: usize,
    max_inflight: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut engine = String::from("reference");
    let mut name = None;
    let mut listen = String::from("127.0.0.1:7401");
    let mut demo = false;
    let mut log = None;
    let mut http = None;
    let mut data_dir = None;
    let mut fsync = FsyncPolicy::Always;
    let mut reactor = false;
    let mut shards = 0usize;
    let mut workers = 0usize;
    let mut queue = 0usize;
    let mut max_conns = 0usize;
    let mut max_inflight = 0usize;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("missing value after {what}"))
        };
        match arg.as_str() {
            "--engine" => engine = value("--engine")?,
            "--name" => name = Some(value("--name")?),
            "--listen" => listen = value("--listen")?,
            "--demo" => demo = true,
            "--log" => {
                log = Some(match value("--log")?.as_str() {
                    "stderr" | "-" => bda_net::LogSink::Stderr,
                    path => bda_net::LogSink::File(path.into()),
                })
            }
            "--http" => {
                let raw = value("--http")?;
                http = Some(
                    raw.parse::<u16>()
                        .map_err(|_| format!("--http wants a port number, got `{raw}`"))?,
                );
            }
            "--data-dir" => data_dir = Some(value("--data-dir")?),
            "--fsync" => {
                let raw = value("--fsync")?;
                fsync = FsyncPolicy::parse(&raw)
                    .ok_or_else(|| format!("--fsync wants `always` or `never`, got `{raw}`"))?;
            }
            "--reactor" => reactor = true,
            "--shards" | "--workers" | "--queue" | "--max-conns" | "--max-inflight" => {
                let raw = value(&arg)?;
                let n = raw
                    .parse::<usize>()
                    .map_err(|_| format!("{arg} wants a number, got `{raw}`"))?;
                match arg.as_str() {
                    "--shards" => shards = n,
                    "--workers" => workers = n,
                    "--queue" => queue = n,
                    "--max-conns" => max_conns = n,
                    _ => max_inflight = n,
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: bda-served [--engine relational|array|linalg|graph|reference]\n\
                     \x20                 [--name NAME] [--listen HOST:PORT] [--demo]\n\
                     \x20                 [--log PATH|stderr] [--http PORT]\n\
                     \x20                 [--data-dir DIR] [--fsync always|never] [--reactor]\n\
                     \x20                 [--shards N] [--workers N] [--queue N]\n\
                     \x20                 [--max-conns N] [--max-inflight N]\n\
                     \n\
                     --log writes one structured line per request (kind, duration,\n\
                     bytes, outcome) to the given file, or to stderr.\n\
                     --http mounts the observability HTTP endpoint (/metrics,\n\
                     /healthz, /readyz, /progress, /flight, /traces/<id>,\n\
                     /queries, /queries/slow) on 127.0.0.1:PORT;\n\
                     port 0 picks an ephemeral port. The query-profile log\n\
                     persists under BDA_PROFILE_DIR (or <data-dir>/profiles)\n\
                     and is recovered on restart.\n\
                     --data-dir makes the engine durable: prior state is recovered\n\
                     from DIR before the listener binds, acknowledged mutations are\n\
                     write-ahead-logged there, and snapshots compact the log.\n\
                     --fsync picks the WAL sync policy: `always` (default; acked\n\
                     writes survive power loss) or `never` (page cache only:\n\
                     survives kill -9, not power loss).\n\
                     --reactor serves on the sharded event-loop core (pipelining,\n\
                     admission control, load shedding); the remaining flags tune\n\
                     its shards, executor workers, per-class admission queue\n\
                     capacity, connection cap, and per-connection in-flight\n\
                     window (0 = derive a default)."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let name = name.unwrap_or_else(|| engine.clone());
    Ok(Args {
        engine,
        name,
        listen,
        demo,
        log,
        http,
        data_dir,
        fsync,
        reactor,
        shards,
        workers,
        queue,
        max_conns,
        max_inflight,
    })
}

fn build_engine(kind: &str, name: &str) -> Result<Arc<dyn Provider>, String> {
    Ok(match kind {
        "relational" => Arc::new(RelationalEngine::new(name)),
        "array" => Arc::new(ArrayEngine::new(name)),
        "linalg" => Arc::new(LinAlgEngine::new(name)),
        "graph" => Arc::new(GraphEngine::new(name)),
        "reference" => Arc::new(ReferenceProvider::new(name)),
        other => return Err(format!("unknown engine `{other}`")),
    })
}

/// Preload demo datasets. Engines are picky about shapes (the linalg
/// engine only stores 2-D arrays), so each dataset is offered
/// best-effort and skipped where the engine declines it.
fn demo_data(engine: &dyn Provider) -> Result<(), bda_core::CoreError> {
    let table = DataSet::from_columns(vec![
        ("k", Column::from(vec![1i64, 2, 3, 4])),
        ("v", Column::from(vec![10.0f64, 20.0, 30.0, 40.0])),
    ])?;
    let matrix = matrix_dataset(2, 3, vec![1., 2., 3., 4., 5., 6.])?;
    let mut stored = 0;
    for (name, ds) in [("sales", table), ("m", matrix)] {
        match engine.store(name, ds) {
            Ok(()) => stored += 1,
            Err(e) => eprintln!("bda-served: demo dataset `{name}` skipped: {e}"),
        }
    }
    if stored == 0 {
        return Err(bda_core::CoreError::Plan(
            "no demo dataset fits this engine".into(),
        ));
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bda-served: {e}");
            std::process::exit(2);
        }
    };
    let engine = match build_engine(&args.engine, &args.name) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("bda-served: {e}");
            std::process::exit(2);
        }
    };
    // The query-profile log persists under an explicit BDA_PROFILE_DIR,
    // or under `<data-dir>/profiles` when the engine is durable. Setting
    // the env var before the log's first touch routes both cases through
    // the global log's own initialisation, so profiles recorded by a
    // previous process are served again after restart.
    let profile_dir = std::env::var(bda_obs::profile::PROFILE_DIR_ENV)
        .ok()
        .filter(|d| !d.trim().is_empty())
        .or_else(|| {
            args.data_dir.as_ref().map(|d| {
                std::path::Path::new(d)
                    .join("profiles")
                    .display()
                    .to_string()
            })
        });
    if let Some(dir) = profile_dir {
        std::env::set_var(bda_obs::profile::PROFILE_DIR_ENV, &dir);
        let recovered = bda_obs::profile::global_log().len();
        println!("bda-served: profile log persists to {dir} ({recovered} profiles recovered)");
    }

    // One hub for everything: request counters, durability WAL/replay
    // metrics, and the ops endpoint all share these cells.
    let metrics = bda_obs::MetricsHub::new();

    // Readiness is gated twice: not ready until recovery has replayed
    // (durable mode), then delegated to the serving core's own health
    // (the reactor reports saturation) once it is up.
    let replay_done = Arc::new(AtomicBool::new(args.data_dir.is_none()));
    let serving_health: Arc<Mutex<Option<bda_obs::HealthSource>>> = Arc::new(Mutex::new(None));
    let gated_health: bda_obs::HealthSource = {
        let replay_done = Arc::clone(&replay_done);
        let serving_health = Arc::clone(&serving_health);
        Arc::new(move || {
            if !replay_done.load(Ordering::SeqCst) {
                return bda_obs::Health {
                    healthy: true,
                    ready: false,
                    detail: "recovering: replaying snapshot + wal".into(),
                };
            }
            match &*serving_health.lock().expect("health lock poisoned") {
                Some(h) => h(),
                None => bda_obs::Health::default(),
            }
        })
    };

    // Mount the ops endpoint over whichever core is serving; the shared
    // metrics hub means `GET /metrics` scrapes the same request counters
    // the protocol updates. The handle must outlive the serve loop or
    // the endpoint shuts down on drop.
    let mount_ops = |port: u16, metrics: bda_obs::MetricsHub, health: bda_obs::HealthSource| {
        let options = bda_obs::OpsOptions {
            metrics,
            health,
            ..bda_obs::OpsOptions::default()
        };
        match bda_obs::serve_ops(&format!("127.0.0.1:{port}"), options) {
            Ok(h) => {
                println!("bda-served: ops endpoint on {}", h.addr());
                h
            }
            Err(e) => {
                eprintln!("bda-served: ops bind 127.0.0.1:{port}: {e}");
                std::process::exit(1);
            }
        }
    };

    // Durable mode mounts the ops endpoint *before* recovery so
    // `/readyz` observably holds 503 while the replay runs.
    let mut ops = None;
    if args.data_dir.is_some() {
        if let Some(port) = args.http {
            ops = Some(mount_ops(port, metrics.clone(), gated_health.clone()));
        }
    }

    let mut durable: Option<Arc<DurableProvider>> = None;
    let engine: Arc<dyn Provider> = match &args.data_dir {
        Some(dir) => {
            let options = bda_durability::Options::new(dir)
                .with_fsync(args.fsync)
                .with_metrics(metrics.clone());
            match DurableProvider::open(engine, options) {
                Ok(p) => {
                    let p = Arc::new(p);
                    let r = p.report();
                    println!(
                        "bda-served: recovered {} datasets (snapshot seq {}, {} wal records, \
                         torn tail truncated: {}) from {dir} in {} ms",
                        r.datasets.len(),
                        r.snapshot_seq,
                        r.wal_records_replayed,
                        r.torn_tail_truncated,
                        r.elapsed.as_millis()
                    );
                    durable = Some(Arc::clone(&p));
                    p
                }
                Err(e) => {
                    eprintln!("bda-served: recovery from {dir}: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => engine,
    };
    replay_done.store(true, Ordering::SeqCst);
    // Keep the durable wrapper (and its snapshotter thread) alive for
    // the life of the process.
    let _durable = durable;

    if args.demo {
        // Stored through the durable wrapper when one is mounted, so
        // demo data survives restarts like any other ingest.
        if let Err(e) = demo_data(engine.as_ref()) {
            eprintln!("bda-served: demo data: {e}");
            std::process::exit(1);
        }
    }
    if args.reactor {
        let mut admission = bda_reactor::AdmissionConfig::default();
        if args.queue > 0 {
            admission.queue_capacity = args.queue;
        }
        let mut opts = bda_reactor::ReactorOptions {
            shards: args.shards,
            workers: args.workers,
            admission,
            log: args.log.clone(),
            metrics: Some(metrics.clone()),
            ..bda_reactor::ReactorOptions::default()
        };
        if args.max_conns > 0 {
            opts.max_connections = args.max_conns;
        }
        if args.max_inflight > 0 {
            opts.max_inflight_per_conn = args.max_inflight;
        }
        let server = match bda_reactor::serve_reactor(Arc::clone(&engine), &args.listen, opts) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("bda-served: bind {}: {e}", args.listen);
                std::process::exit(1);
            }
        };
        println!(
            "bda-served: `{}` ({}) listening on {} [reactor]",
            args.name,
            args.engine,
            server.addr()
        );
        *serving_health.lock().expect("health lock poisoned") = Some(server.health_source());
        let _ops = ops.take().or_else(|| {
            args.http
                .map(|port| mount_ops(port, server.metrics(), gated_health))
        });
        loop {
            std::thread::park();
        }
    }
    let opts = bda_net::ServeOptions {
        log: args.log.clone(),
        metrics: Some(metrics.clone()),
        ..bda_net::ServeOptions::default()
    };
    let server = match bda_net::serve_with(Arc::clone(&engine), &args.listen, opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bda-served: bind {}: {e}", args.listen);
            std::process::exit(1);
        }
    };
    println!(
        "bda-served: `{}` ({}) listening on {}",
        args.name,
        args.engine,
        server.addr()
    );
    let _ops = ops.take().or_else(|| {
        args.http
            .map(|port| mount_ops(port, server.metrics(), gated_health))
    });
    // Serve until killed.
    loop {
        std::thread::park();
    }
}
