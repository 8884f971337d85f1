//! Acceptance test for the durability subsystem at the *process* level:
//! a real `bda-served --data-dir` process is killed with SIGKILL while
//! ingest traffic is in flight, restarted over the same directory, and
//! must come back with every store it acknowledged — the
//! never-ack-then-lose contract, enforced against an actual `kill -9`
//! rather than a simulated crash.

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bda_core::{Plan, Provider};
use bda_net::RemoteProvider;
use bda_storage::{Column, DataSet};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bda-durable-served-{}-{}",
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

/// Launch `bda-served --data-dir` and wait for the listener banner.
/// Returns the process, its protocol address, the "recovered …" banner
/// line, and (with `http`) the ops-endpoint address.
fn launch_durable(
    dir: &std::path::Path,
    fsync: &str,
    http: bool,
) -> (Served, String, String, Option<String>) {
    launch_durable_engine(dir, fsync, http, "reference")
}

/// [`launch_durable`] with an explicit engine (the index-recovery test
/// needs `relational`, the only engine with secondary indexes).
fn launch_durable_engine(
    dir: &std::path::Path,
    fsync: &str,
    http: bool,
    engine: &str,
) -> (Served, String, String, Option<String>) {
    let dir = dir.to_string_lossy().to_string();
    let mut args = vec![
        "--engine",
        engine,
        "--name",
        "dur",
        "--listen",
        "127.0.0.1:0",
        "--data-dir",
        &dir,
        "--fsync",
        fsync,
    ];
    if http {
        args.extend(["--http", "0"]);
    }
    let mut child = Command::new(env!("CARGO_BIN_EXE_bda-served"))
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn bda-served");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let mut recovered = String::new();
    let mut ops_addr = None;
    let addr = loop {
        let line = lines
            .next()
            .expect("server prints a listener banner")
            .expect("readable banner");
        if line.contains("recovered") {
            recovered = line.clone();
        } else if line.contains("ops endpoint on ") {
            ops_addr = Some(
                line.rsplit("ops endpoint on ")
                    .next()
                    .unwrap()
                    .trim()
                    .into(),
            );
        }
        if line.contains("listening on ") {
            break line
                .rsplit("listening on ")
                .next()
                .expect("banner names the address")
                .split_whitespace()
                .next()
                .expect("address precedes any core tag")
                .to_string();
        }
    };
    if http && ops_addr.is_none() {
        // The ops banner may follow the listener banner in non-durable
        // ordering; read one more line for it.
        let line = lines.next().expect("ops banner").expect("readable");
        ops_addr = line.contains("ops endpoint on ").then(|| {
            line.rsplit("ops endpoint on ")
                .next()
                .unwrap()
                .trim()
                .into()
        });
    }
    (Served(child), addr, recovered, ops_addr)
}

fn dataset(i: i64) -> DataSet {
    DataSet::from_columns(vec![
        ("k", Column::from(vec![i, i + 1, i + 2])),
        ("v", Column::from(vec![i as f64, 2.0 * i as f64, 0.5])),
    ])
    .unwrap()
}

/// Assert `name` on the server holds exactly `dataset(i)`.
fn assert_recovered(remote: &RemoteProvider, name: &str, i: i64) {
    let schema = remote
        .schema_of(name)
        .unwrap_or_else(|| panic!("acked dataset `{name}` missing after recovery"));
    let out = remote.execute(&Plan::scan(name, schema)).unwrap();
    assert!(
        out.same_bag(&dataset(i)).unwrap(),
        "recovered `{name}` does not match what was acknowledged"
    );
}

#[test]
fn kill_nine_mid_ingest_then_restart_recovers_every_acked_store() {
    let dir = tmp_dir();

    // Phase 1: fresh server, a settled prefix of acknowledged stores,
    // then SIGKILL while a writer hammers it.
    let acked_hot: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let (server, addr, recovered, _) = launch_durable(&dir, "always", false);
        assert!(recovered.contains("recovered 0 datasets"), "{recovered}");
        let remote = RemoteProvider::connect(addr.clone()).expect("connect");
        for i in 0..10i64 {
            remote.store(&format!("seed{i}"), dataset(i)).unwrap();
        }

        let writer = {
            let acked = Arc::clone(&acked_hot);
            std::thread::spawn(move || {
                let remote = match RemoteProvider::connect(addr) {
                    Ok(r) => r,
                    Err(_) => return,
                };
                for i in 100..10_000i64 {
                    match remote.store(&format!("hot{i}"), dataset(i)) {
                        Ok(()) => acked.lock().unwrap().push(i),
                        Err(_) => return, // the server died under us
                    }
                }
            })
        };
        // Let some mid-flight ingest land, then kill -9.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let mut server = server;
        server.0.kill().expect("SIGKILL bda-served");
        server.0.wait().expect("reap");
        writer.join().unwrap();
    }

    // Phase 2: restart over the same directory. Every acknowledged
    // store — settled prefix and mid-flight — must be back.
    let acked_hot = acked_hot.lock().unwrap().clone();
    let (_server, addr, recovered, _) = launch_durable(&dir, "always", false);
    assert!(
        recovered.contains("recovered") && !recovered.contains("recovered 0 datasets"),
        "restart must report recovered datasets: {recovered}"
    );
    let remote = RemoteProvider::connect(addr).expect("connect after restart");
    let catalog: Vec<String> = remote.catalog().into_iter().map(|(n, _)| n).collect();
    assert!(
        catalog.len() >= 10 + acked_hot.len(),
        "catalog has {} entries, expected at least {} ({} acked mid-flight)",
        catalog.len(),
        10 + acked_hot.len(),
        acked_hot.len()
    );
    for i in 0..10i64 {
        assert_recovered(&remote, &format!("seed{i}"), i);
    }
    for &i in &acked_hot {
        assert_recovered(&remote, &format!("hot{i}"), i);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn kill_nine_rebuilds_indexes_byte_for_byte() {
    // Secondary indexes built before a SIGKILL must come back after
    // restart *identical* to a from-scratch build over the same data —
    // the WAL logs the spec, recovery rebuilds, and the deterministic
    // fingerprint is the byte-for-byte witness.
    use bda_storage::IndexKind;
    let dir = tmp_dir();
    let data = DataSet::from_columns(vec![
        ("k", Column::from(vec![5i64, 2, 9, 2, 5, 7])),
        ("v", Column::from(vec![1.5f64, -2.0, 0.0, 3.25, -2.0, 8.0])),
    ])
    .unwrap();
    {
        let (server, addr, _, _) = launch_durable_engine(&dir, "always", false, "relational");
        let remote = RemoteProvider::connect(addr).expect("connect");
        remote.store("t", data.clone()).unwrap();
        remote.build_index("t", "k", IndexKind::Hash).unwrap();
        remote.build_index("t", "v", IndexKind::Sorted).unwrap();
        // Both indexes are visible and fingerprinted before the crash.
        assert_eq!(remote.index_specs("t").len(), 2);
        let mut server = server;
        server.0.kill().expect("SIGKILL bda-served");
        server.0.wait().expect("reap");
    }

    // A from-scratch build on a *fresh* server over the same data: the
    // oracle fingerprints the recovered indexes must reproduce.
    let (want_k, want_v) = {
        let oracle_dir = tmp_dir();
        let (_server, addr, _, _) =
            launch_durable_engine(&oracle_dir, "always", false, "relational");
        let remote = RemoteProvider::connect(addr).expect("connect oracle");
        remote.store("t", data).unwrap();
        remote.build_index("t", "k", IndexKind::Hash).unwrap();
        remote.build_index("t", "v", IndexKind::Sorted).unwrap();
        let fps = (
            remote.index_fingerprint("t", "k").unwrap(),
            remote.index_fingerprint("t", "v").unwrap(),
        );
        std::fs::remove_dir_all(&oracle_dir).unwrap();
        fps
    };

    // Restart over the crashed directory: specs and fingerprints match
    // the from-scratch build exactly.
    let (_server, addr, recovered, _) = launch_durable_engine(&dir, "always", false, "relational");
    assert!(recovered.contains("recovered"), "{recovered}");
    let remote = RemoteProvider::connect(addr).expect("connect after restart");
    let mut specs = remote.index_specs("t");
    specs.sort_by(|a, b| a.column.cmp(&b.column));
    assert_eq!(specs.len(), 2, "both index specs must survive kill -9");
    assert_eq!(
        (specs[0].column.as_str(), specs[0].kind),
        ("k", IndexKind::Hash)
    );
    assert_eq!(
        (specs[1].column.as_str(), specs[1].kind),
        ("v", IndexKind::Sorted)
    );
    assert_eq!(remote.index_fingerprint("t", "k"), Some(want_k));
    assert_eq!(remote.index_fingerprint("t", "v"), Some(want_v));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fsync_never_still_survives_process_kill() {
    // `--fsync never` trades power-loss safety for throughput, but a
    // plain process kill must still lose nothing: the bytes are in the
    // OS page cache, not the process.
    let dir = tmp_dir();
    {
        let (server, addr, _, _) = launch_durable(&dir, "never", false);
        let remote = RemoteProvider::connect(addr).expect("connect");
        for i in 0..5i64 {
            remote.store(&format!("t{i}"), dataset(i)).unwrap();
        }
        let mut server = server;
        server.0.kill().expect("SIGKILL");
        server.0.wait().expect("reap");
    }
    let (_server, addr, recovered, _) = launch_durable(&dir, "never", false);
    assert!(recovered.contains("5 wal records"), "{recovered}");
    let remote = RemoteProvider::connect(addr).expect("connect after restart");
    for i in 0..5i64 {
        assert_recovered(&remote, &format!("t{i}"), i);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn durable_server_exposes_wal_metrics_and_readiness() {
    use std::io::{Read, Write};
    let dir = tmp_dir();
    let (_server, addr, _, ops_addr) = launch_durable(&dir, "always", true);
    let ops_addr = ops_addr.expect("--http announces the ops address");
    let remote = RemoteProvider::connect(addr).expect("connect");
    remote.store("t", dataset(1)).unwrap();

    let http_get = |path: &str| -> (String, String) {
        let mut conn = std::net::TcpStream::connect(&ops_addr).expect("connect ops");
        conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: {ops_addr}\r\n\r\n").as_bytes())
            .unwrap();
        let mut raw = String::new();
        conn.read_to_string(&mut raw).unwrap();
        let status = raw.lines().next().unwrap_or_default().to_string();
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    };

    // Replay finished long ago: ready, and the WAL counters are live on
    // the shared hub.
    let (status, _) = http_get("/readyz");
    assert!(status.contains("200"), "{status}");
    let (status, metrics) = http_get("/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(
        metrics.contains("bda_durability_wal_records_total 1"),
        "{metrics}"
    );
    assert!(metrics.contains("bda_durability_fsyncs_total"), "{metrics}");
    std::fs::remove_dir_all(&dir).unwrap();
}
