//! Serving-core saturation bench: a thousand concurrent connections
//! against the reactor, with the thread-per-connection server as the
//! baseline and a deliberate overload phase proving the shed-not-hang
//! contract.
//!
//! Four phases (all client-side measured with `bda_obs::Histogram`, so
//! the reported p50/p99/p999 use the same bucket math as the server):
//!
//! * `baseline_threads` — the classic `serve()` core, 64 connections.
//! * `reactor_1k` — `serve_reactor` with ~1k open connections, every
//!   round writing one request on *each* connection before reading any
//!   reply, so admission really sees ~1k in-flight requests. Must
//!   complete with **zero protocol errors and zero sheds**.
//! * `reactor_pipelined` — a few [`PipelinedClient`]s at depth 32: the
//!   single-connection pipelining throughput story.
//! * `reactor_overload` — the same flood into a deliberately tiny
//!   admission queue: every request must still get *an answer* (shed
//!   replies are transient errors, never silence), and the server must
//!   answer promptly once the flood stops.
//!
//! ```text
//! cargo run --release -p bda-bench --bin saturation -- --out BENCH_serving.json
//! cargo run --release -p bda-bench --bin saturation -- --addr 127.0.0.1:7341
//! ```
//!
//! With `--addr`, only the 1k-connection phase runs, against an already
//! running `bda-served --reactor` (the CI smoke job does this); the
//! process exits nonzero on any protocol error or hung request.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bda_core::{col, lit, Plan, Provider};
use bda_net::frame::{read_message, write_message, FrameError};
use bda_net::proto::{decode_response, encode_request};
use bda_net::{serve, PipelinedClient, RemoteProvider, Request, Response};
use bda_obs::Histogram;
use bda_reactor::{serve_reactor, AdmissionConfig, ReactorOptions};
use bda_relational::RelationalEngine;
use bda_storage::{Column, DataSet};

/// Per-phase tallies; everything the JSON report needs.
#[derive(Default)]
struct Tally {
    ok: AtomicU64,
    shed: AtomicU64,
    app_errors: AtomicU64,
    protocol_errors: AtomicU64,
    hangs: AtomicU64,
}

struct PhaseReport {
    name: &'static str,
    connections: usize,
    requests: u64,
    ok: u64,
    shed: u64,
    app_errors: u64,
    protocol_errors: u64,
    hangs: u64,
    elapsed_s: f64,
    qps: f64,
    p50_s: f64,
    p99_s: f64,
    p999_s: f64,
}

impl PhaseReport {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"connections\": {}, \"requests\": {}, \"ok\": {}, ",
                "\"shed\": {}, \"app_errors\": {}, \"protocol_errors\": {}, ",
                "\"hangs\": {}, \"elapsed_s\": {:.3}, \"qps\": {:.0}, ",
                "\"p50_s\": {:.6}, \"p99_s\": {:.6}, \"p999_s\": {:.6}}}"
            ),
            self.connections,
            self.requests,
            self.ok,
            self.shed,
            self.app_errors,
            self.protocol_errors,
            self.hangs,
            self.elapsed_s,
            self.qps,
            self.p50_s,
            self.p99_s,
            self.p999_s,
        )
    }
}

/// The benchmark workload: a selective filter over a small table —
/// enough work to touch the engine, small enough that the serving core
/// dominates.
fn demo_table() -> DataSet {
    let n = 256i64;
    DataSet::from_columns(vec![
        ("k", Column::from((0..n).collect::<Vec<i64>>())),
        (
            "v",
            Column::from((0..n).map(|i| (i % 10) as f64).collect::<Vec<f64>>()),
        ),
    ])
    .unwrap()
}

fn classify(
    result: Result<(u8, Vec<u8>, u64), FrameError>,
    tally: &Tally,
    lat: &Histogram,
    s: f64,
) {
    match result {
        Ok((kind, payload, _)) => match decode_response(kind, &payload) {
            Ok(Response::DataSet(_)) | Ok(Response::Catalog(_)) | Ok(Response::Hello { .. }) => {
                tally.ok.fetch_add(1, Ordering::Relaxed);
                lat.observe_s(s);
            }
            Ok(Response::Error {
                transient: true, ..
            }) => {
                // The reactor's load shedding: a prompt transient error.
                tally.shed.fetch_add(1, Ordering::Relaxed);
                lat.observe_s(s);
            }
            Ok(_) => {
                tally.app_errors.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
        },
        Err(FrameError::Io(e))
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            tally.hangs.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => {
            tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Drive `conns` connections split over `threads` OS threads for
/// `rounds` rounds. Each round writes the request on every connection
/// the thread owns *before* reading any response, so in-flight load
/// approaches the full connection count.
fn closed_loop(
    name: &'static str,
    addr: &str,
    conns: usize,
    threads: usize,
    rounds: usize,
    plan: &Plan,
) -> PhaseReport {
    let (kind, payload) = encode_request(&Request::Execute { plan: plan.clone() });
    let mut wire = Vec::new();
    write_message(&mut wire, kind, &payload).unwrap();
    let wire = Arc::new(wire);
    let tally = Arc::new(Tally::default());
    let lat = Histogram::new();

    let per_thread = conns.div_ceil(threads);
    let started = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let addr = addr.to_string();
            let wire = Arc::clone(&wire);
            let tally = Arc::clone(&tally);
            let lat = lat.clone();
            let own = per_thread.min(conns - (t * per_thread).min(conns));
            std::thread::Builder::new()
                .name(format!("sat-client-{t}"))
                .spawn(move || {
                    let mut sockets = Vec::with_capacity(own);
                    for _ in 0..own {
                        let s = TcpStream::connect(&addr).expect("connect");
                        s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
                        s.set_nodelay(true).ok();
                        sockets.push(s);
                    }
                    for _ in 0..rounds {
                        let round_start = Instant::now();
                        for s in &mut sockets {
                            if s.write_all(&wire).is_err() {
                                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        for s in &mut sockets {
                            classify(
                                read_message(s),
                                &tally,
                                &lat,
                                round_start.elapsed().as_secs_f64(),
                            );
                        }
                    }
                })
                .unwrap()
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = started.elapsed().as_secs_f64();

    let requests = (conns * rounds) as u64;
    PhaseReport {
        name,
        connections: conns,
        requests,
        ok: tally.ok.load(Ordering::Relaxed),
        shed: tally.shed.load(Ordering::Relaxed),
        app_errors: tally.app_errors.load(Ordering::Relaxed),
        protocol_errors: tally.protocol_errors.load(Ordering::Relaxed),
        hangs: tally.hangs.load(Ordering::Relaxed),
        elapsed_s: elapsed,
        qps: requests as f64 / elapsed.max(1e-9),
        p50_s: lat.p50().unwrap_or(0.0),
        p99_s: lat.p99().unwrap_or(0.0),
        p999_s: lat.p999().unwrap_or(0.0),
    }
}

/// A few pipelined clients, each keeping `depth` requests in flight on
/// one connection — the single-socket throughput story.
fn pipelined_phase(
    addr: &str,
    clients: usize,
    depth: usize,
    rounds: usize,
    plan: &Plan,
) -> PhaseReport {
    let tally = Arc::new(Tally::default());
    let lat = Histogram::new();
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let addr = addr.to_string();
            let plan = plan.clone();
            let tally = Arc::clone(&tally);
            let lat = lat.clone();
            std::thread::spawn(move || {
                let client = PipelinedClient::connect(&addr).expect("pipelined connect");
                for _ in 0..rounds {
                    let batch_start = Instant::now();
                    let pending: Vec<_> = (0..depth)
                        .map(|_| {
                            client
                                .send(&Request::Execute { plan: plan.clone() })
                                .unwrap()
                        })
                        .collect();
                    for p in pending {
                        match p.wait(Duration::from_secs(60)) {
                            Ok(Response::DataSet(_)) => {
                                tally.ok.fetch_add(1, Ordering::Relaxed);
                                lat.observe_s(batch_start.elapsed().as_secs_f64());
                            }
                            Ok(Response::Error {
                                transient: true, ..
                            }) => {
                                tally.shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(_) => {
                                tally.app_errors.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                tally.hangs.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = started.elapsed().as_secs_f64();
    let requests = (clients * depth * rounds) as u64;
    PhaseReport {
        name: "reactor_pipelined",
        connections: clients,
        requests,
        ok: tally.ok.load(Ordering::Relaxed),
        shed: tally.shed.load(Ordering::Relaxed),
        app_errors: tally.app_errors.load(Ordering::Relaxed),
        protocol_errors: tally.protocol_errors.load(Ordering::Relaxed),
        hangs: tally.hangs.load(Ordering::Relaxed),
        elapsed_s: elapsed,
        qps: requests as f64 / elapsed.max(1e-9),
        p50_s: lat.p50().unwrap_or(0.0),
        p99_s: lat.p99().unwrap_or(0.0),
        p999_s: lat.p999().unwrap_or(0.0),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: saturation [--conns N] [--rounds N] [--out PATH] [--addr HOST:PORT]\n\
         \n\
         Without --addr: full in-process suite (baseline, reactor 1k,\n\
         pipelined, overload), report written to --out (default\n\
         BENCH_serving.json). With --addr: the 1k-connection phase only,\n\
         against a running `bda-served --reactor`; exits nonzero on any\n\
         protocol error or hang."
    );
    std::process::exit(2)
}

fn main() {
    let mut conns = 1024usize;
    let mut rounds = 8usize;
    let mut out = String::from("BENCH_serving.json");
    let mut addr: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--conns" => conns = val().parse().unwrap_or_else(|_| usage()),
            "--rounds" => rounds = val().parse().unwrap_or_else(|_| usage()),
            "--out" => out = val(),
            "--addr" => addr = Some(val()),
            _ => usage(),
        }
    }
    let threads = 32.min(conns.max(1));

    let mut phases: Vec<PhaseReport> = Vec::new();
    let mut post_flood_s = None;
    let mut failed_scrape = false;

    if let Some(addr) = addr {
        // External mode: the serving smoke against a live `--reactor`.
        let remote = RemoteProvider::connect(addr.clone()).expect("connect to bda-served");
        let schema = remote
            .schema_of("sales")
            .expect("bda-served --demo publishes `sales`");
        let plan = Plan::scan("sales", schema).select(col("v").gt(lit(15.0)));
        phases.push(closed_loop(
            "reactor_external",
            &addr,
            conns,
            threads,
            rounds,
            &plan,
        ));
    } else {
        let engine = Arc::new(RelationalEngine::new("bench"));
        engine.store("sales", demo_table()).unwrap();
        let plan = Plan::scan("sales", demo_table().schema().clone()).select(col("v").gt(lit(5.0)));

        // Baseline: the thread-per-connection core at a thread count it
        // can sustain (it spawns one OS thread per socket).
        let baseline = serve(Arc::clone(&engine) as Arc<dyn Provider>, "127.0.0.1:0").unwrap();
        phases.push(closed_loop(
            "baseline_threads",
            &baseline.addr().to_string(),
            64.min(conns),
            threads,
            rounds * 2,
            &plan,
        ));
        drop(baseline);

        // Reactor, provisioned for the full flood: nothing may shed.
        let roomy = ReactorOptions {
            admission: AdmissionConfig {
                queue_capacity: 4 * conns.max(256),
            },
            max_connections: 4 * conns.max(256),
            ..ReactorOptions::default()
        };
        let mut reactor = serve_reactor(
            Arc::clone(&engine) as Arc<dyn Provider>,
            "127.0.0.1:0",
            roomy,
        )
        .unwrap();
        phases.push(closed_loop(
            "reactor_1k",
            &reactor.addr().to_string(),
            conns,
            threads,
            rounds,
            &plan,
        ));
        phases.push(pipelined_phase(
            &reactor.addr().to_string(),
            8,
            32,
            rounds,
            &plan,
        ));
        reactor.shutdown();

        // Overload: a deliberately tiny queue under the same flood. The
        // contract is shed-not-hang: every request answers (ok or a
        // prompt transient error), and the server stays responsive.
        let tiny = ReactorOptions {
            admission: AdmissionConfig { queue_capacity: 16 },
            max_connections: 4 * conns.max(256),
            ..ReactorOptions::default()
        };
        let overload_server = serve_reactor(
            Arc::clone(&engine) as Arc<dyn Provider>,
            "127.0.0.1:0",
            tiny,
        )
        .unwrap();
        let overload = closed_loop(
            "reactor_overload",
            &overload_server.addr().to_string(),
            conns,
            threads,
            rounds.min(4),
            &plan,
        );
        // After the flood: one clean request must answer promptly.
        let t = Instant::now();
        let remote = RemoteProvider::connect(overload_server.addr().to_string()).unwrap();
        remote.execute(&plan).expect("post-flood request succeeds");
        post_flood_s = Some(t.elapsed().as_secs_f64());

        // Every shed the clients counted must also appear in the
        // class/reason-labeled shed counter the operators see.
        if overload.shed > 0 {
            let scrape = overload_server.metrics().render();
            let labeled = scrape.contains("bda_reactor_shed_total{class=\"")
                && scrape.contains("reason=\"queue-full\"");
            if !labeled {
                eprintln!(
                    "FAIL reactor_overload: sheds happened but \
                     bda_reactor_shed_total{{class,reason}} is missing from /metrics"
                );
                failed_scrape = true;
            }
        }
        phases.push(overload);
    }

    // ---- verdicts ----
    let mut failed = failed_scrape;
    for p in &phases {
        println!(
            "{:>18}: {} conns, {} reqs in {:.2}s = {:.0} qps  p50 {:.1}us p99 {:.1}us p999 {:.1}us  (ok {}, shed {}, app-err {}, proto-err {}, hangs {})",
            p.name,
            p.connections,
            p.requests,
            p.elapsed_s,
            p.qps,
            p.p50_s * 1e6,
            p.p99_s * 1e6,
            p.p999_s * 1e6,
            p.ok,
            p.shed,
            p.app_errors,
            p.protocol_errors,
            p.hangs
        );
        if p.protocol_errors > 0 || p.hangs > 0 || p.app_errors > 0 {
            eprintln!(
                "FAIL {}: protocol errors / hangs / app errors under load",
                p.name
            );
            failed = true;
        }
        match p.name {
            "reactor_1k" if p.shed > 0 => {
                eprintln!(
                    "FAIL reactor_1k: shed {} requests with a roomy queue",
                    p.shed
                );
                failed = true;
            }
            "reactor_overload" => {
                if p.shed == 0 {
                    eprintln!(
                        "FAIL reactor_overload: tiny queue never shed — admission not engaged"
                    );
                    failed = true;
                }
                if p.ok == 0 {
                    eprintln!("FAIL reactor_overload: nothing succeeded under overload");
                    failed = true;
                }
            }
            _ => {}
        }
    }
    if let Some(s) = post_flood_s {
        println!("     post-flood request: {:.1}ms", s * 1e3);
        if s > 5.0 {
            eprintln!("FAIL: post-flood request took {s:.1}s — the server did not recover");
            failed = true;
        }
    }

    // ---- report ----
    let mut json = String::from("{\n  \"bench\": \"serving-saturation\",\n");
    json.push_str(&format!("  \"target_connections\": {conns},\n"));
    json.push_str(&format!("  \"client_threads\": {threads},\n"));
    json.push_str("  \"phases\": {\n");
    for (i, p) in phases.iter().enumerate() {
        json.push_str(&format!("    \"{}\": {}", p.name, p.json()));
        json.push_str(if i + 1 < phases.len() { ",\n" } else { "\n" });
    }
    json.push_str("  }");
    if let Some(s) = post_flood_s {
        json.push_str(&format!(",\n  \"post_flood_request_s\": {s:.6}"));
    }
    json.push_str("\n}\n");
    std::fs::write(&out, &json).expect("write report");
    println!("wrote {out}");

    if failed {
        std::process::exit(1);
    }
}
