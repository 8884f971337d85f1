//! Acceptance test for persistent query profiles at the *process*
//! level: an in-process traced federated query writes its profile to
//! the JSONL log under `BDA_PROFILE_DIR`; a real `bda-served` process
//! launched over the same directory — once on the blocking core, once on
//! `--reactor` — recovers it on startup and serves it back over
//! `GET /queries`. That is the restart contract: what the profiler
//! learned survives the process that learned it. Neither core serves a
//! measured-cost book (`/calibration` is 404, no cost-book metric series).

use std::io::{BufRead, Read, Write};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bda_core::{Plan, Provider};
use bda_federation::Federation;
use bda_relational::RelationalEngine;
use bda_storage::{Column, DataSet};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bda-profile-served-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Served(Child);

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Launch `bda-served --http 0` with `BDA_PROFILE_DIR` pointing at
/// `dir`; returns the process, the ops-endpoint address, and the
/// profile-recovery banner line.
fn launch(dir: &std::path::Path, reactor: bool) -> (Served, String, String) {
    let mut args = vec![
        "--engine",
        "reference",
        "--name",
        "prof",
        "--listen",
        "127.0.0.1:0",
        "--http",
        "0",
    ];
    if reactor {
        args.push("--reactor");
    }
    let mut child = Command::new(env!("CARGO_BIN_EXE_bda-served"))
        .args(&args)
        .env("BDA_PROFILE_DIR", dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn bda-served");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let mut banner = String::new();
    let ops_addr = loop {
        let line = lines
            .next()
            .expect("server prints its banners")
            .expect("readable banner");
        if line.contains("profile log persists to ") {
            banner = line.clone();
        }
        if let Some(rest) = line.rsplit("ops endpoint on ").next() {
            if line.contains("ops endpoint on ") {
                break rest.trim().to_string();
            }
        }
    };
    (Served(child), ops_addr, banner)
}

/// Minimal HTTP GET over loopback; returns (status line, body).
fn http_get(addr: &str, path: &str) -> (String, String) {
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

#[test]
fn profiles_persist_across_restart_on_both_serving_cores() {
    let dir = tmp_dir();
    // Route this process's global query log at the directory *before*
    // its first touch — exactly what bda-served does at startup.
    std::env::set_var(bda_obs::profile::PROFILE_DIR_ENV, &dir);

    let rel = RelationalEngine::new("rel");
    rel.store(
        "t",
        DataSet::from_columns(vec![
            ("k", Column::from(vec![1i64, 2, 3])),
            ("v", Column::from(vec![1.0f64, 2.0, 3.0])),
        ])
        .unwrap(),
    )
    .unwrap();
    let mut fed = Federation::new();
    fed.register(Arc::new(rel));
    let schema = fed.registry().schema_of("t").unwrap();
    let plan = Plan::scan("t", schema);
    let tracer = bda_obs::Tracer::new(0xCAFE);
    let trace_id = tracer.trace_id();
    fed.run_traced(&plan, &tracer).expect("traced query");

    let jsonl = std::fs::read_to_string(dir.join("profiles.jsonl")).expect("profile log written");
    let id_key = format!("\"trace_id\":\"{trace_id:#018x}\"");
    assert!(jsonl.contains(&id_key), "{jsonl}");

    // A fresh process over the same directory — each serving core in
    // turn — recovers the profile and serves it over HTTP.
    for reactor in [false, true] {
        let (server, ops_addr, banner) = launch(&dir, reactor);
        assert!(
            banner.contains("profiles recovered") && !banner.contains("(0 profiles"),
            "recovery banner (reactor={reactor}): {banner}"
        );
        let (status, body) = http_get(&ops_addr, "/queries");
        assert!(status.contains("200"), "{status} (reactor={reactor})");
        assert!(
            body.contains(&id_key),
            "recovered profile not served (reactor={reactor}): {body}"
        );
        let (status, _) = http_get(&ops_addr, "/calibration");
        assert!(status.contains("404"), "{status} (reactor={reactor})");
        let (status, metrics) = http_get(&ops_addr, "/metrics");
        assert!(status.contains("200"), "{status} (reactor={reactor})");
        assert!(
            !metrics.contains("costbook"),
            "retired series listed (reactor={reactor}): {metrics}"
        );
        drop(server);
    }
}
