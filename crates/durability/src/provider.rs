//! [`DurableProvider`]: a [`Provider`] decorator that makes every
//! acknowledged mutation crash-safe.
//!
//! ## Commit protocol
//!
//! `store`/`remove` take the WAL lock, apply to the wrapped engine (so
//! shape validation happens before anything touches disk), append a WAL
//! record and fsync per policy, publish the change delta, and only then
//! release the lock and return. Engine apply, log order, and change
//! streams therefore always agree on which of two racing mutations won,
//! and the acknowledgement the caller sees implies the record is
//! durable: *never ack-then-lose*. The failure window is the converse —
//! a mutation that reached memory but whose append failed is reported
//! as an error (or, for `remove`, rescued by an immediate snapshot),
//! may still be present until restart, and may become durable at the
//! next snapshot; that is at-least-once, which the idempotent record
//! design (full-dataset stores, plain removes) makes harmless on
//! replay.
//!
//! ## Recovery sequence (on [`DurableProvider::open`])
//!
//! 1. Load the newest snapshot (checksums verified; corruption is a
//!    loud, refusing error — see [`crate::snapshot`]).
//! 2. Replay the WAL in sequence order over it, truncating a torn
//!    final record, refusing interior corruption (see [`crate::wal`]).
//! 3. Open the log for appending at the next sequence number.
//!
//! The report of what happened — and per-dataset `recovery:{name}`
//! spans when a tracer is supplied — comes back in
//! [`RecoveryReport`].
//!
//! ## Ephemeral names
//!
//! Datasets whose name starts with the configured ephemeral prefix
//! (the federation's staged-fragment prefix by default) are never
//! logged or snapshotted: they are scratch space for in-flight queries.
//! The background thread garbage-collects any that outlive their TTL —
//! the leak path is a query that died permanently between staging and
//! cleanup.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bda_core::{CapabilitySet, CoreError, Plan, Provider};
use bda_obs::{MetricsHub, Tracer};
use bda_storage::{DataSet, IndexKind, Schema};

use crate::changes::{ChangeHub, ChangeStream, Delta};
use crate::record::{self, WalOp};
use crate::snapshot;
use crate::wal::{self, Wal};
use crate::{Options, Result};

/// What recovery found and did, for logs, tests, and the readiness gate.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Sequence number the loaded snapshot covered (0: none found).
    pub snapshot_seq: u64,
    /// Datasets restored from the snapshot.
    pub snapshot_datasets: usize,
    /// WAL records replayed over the snapshot.
    pub wal_records_replayed: usize,
    /// Whether a torn final record was truncated away.
    pub torn_tail_truncated: bool,
    /// Names now present in the durable catalog, sorted.
    pub datasets: Vec<String>,
    /// Wall time the whole recovery took.
    pub elapsed: Duration,
}

struct Shared {
    inner: Arc<dyn Provider>,
    options: Options,
    metrics: MetricsHub,
    changes: ChangeHub,
    /// Orders commits: engine apply, appends, delta publication,
    /// rotation.
    wal: Mutex<Wal>,
    /// Serializes whole snapshot cycles (background thread + public
    /// API). Without it, two concurrent cycles could interleave so that
    /// one deletes a segment whose records are covered only by the
    /// other's snapshot — which may not be on disk yet. Never acquired
    /// while holding the WAL lock.
    snapshots: Mutex<()>,
    /// WAL bytes appended since the last snapshot (the snapshot trigger).
    bytes_since_snapshot: AtomicU64,
    /// Live ephemeral names and when they appeared, for TTL GC.
    staged: Mutex<HashMap<String, Instant>>,
}

impl Shared {
    fn is_ephemeral(&self, name: &str) -> bool {
        name.starts_with(&self.options.ephemeral_prefix)
    }

    /// The durable (non-ephemeral) catalog, read back through the engine.
    fn durable_catalog(&self) -> Result<Vec<(String, DataSet)>> {
        let mut out = Vec::new();
        for (name, schema) in self.inner.catalog() {
            if self.is_ephemeral(&name) {
                continue;
            }
            let data = self.inner.execute(&Plan::scan(&name, schema))?;
            out.push((name, data));
        }
        Ok(out)
    }

    /// Compact the WAL into a snapshot and drop covered segments.
    fn snapshot_now(&self) -> Result<u64> {
        // One snapshot cycle at a time: rotate, read, write, and drop
        // must see a consistent segment layout end to end.
        let _cycle = self.snapshots.lock().expect("snapshot lock poisoned");
        // Rotation is the cut point: everything at or below `covered`
        // will be represented by the snapshot. The WAL lock is released
        // while the catalog is read and written out — concurrent commits
        // land in the new segment, and because records are idempotent
        // full-dataset ops, replaying them over a snapshot that already
        // includes their effects converges.
        let (covered, new_index) = self.wal.lock().expect("wal lock poisoned").rotate()?;
        let datasets = self.durable_catalog()?;
        // Index *specs* ride along in the snapshot trailer so recovery
        // can rebuild without replaying the original BuildIndex record
        // (which the rotation above just retired).
        let mut indexes = Vec::new();
        for (name, _) in &datasets {
            for spec in self.inner.index_specs(name) {
                indexes.push((name.clone(), spec));
            }
        }
        let bytes = snapshot::write_snapshot(
            &self.options.snapshot_dir(),
            covered,
            &datasets,
            &indexes,
            &self.options.faults,
        )?;
        snapshot::prune(&self.options.snapshot_dir(), self.options.keep_snapshots)?;
        // Drop only below the index recorded at *our* rotation — the
        // current index may already belong to a later cycle.
        self.wal
            .lock()
            .expect("wal lock poisoned")
            .drop_segments_below(new_index)?;
        self.bytes_since_snapshot.store(0, Ordering::Relaxed);
        self.metrics
            .counter("bda_durability_snapshots_total", "Snapshots written.")
            .inc();
        self.metrics
            .counter(
                "bda_durability_snapshot_bytes_total",
                "Bytes written into snapshot files.",
            )
            .add(bytes);
        Ok(covered)
    }

    /// Drop ephemeral datasets older than the staged TTL. Returns the
    /// names collected.
    fn gc_staged(&self) -> Vec<String> {
        let ttl = self.options.staged_ttl;
        let expired: Vec<String> = {
            let staged = self.staged.lock().expect("staged lock poisoned");
            staged
                .iter()
                .filter(|(_, born)| born.elapsed() >= ttl)
                .map(|(name, _)| name.clone())
                .collect()
        };
        for name in &expired {
            self.inner.remove(name);
            self.staged
                .lock()
                .expect("staged lock poisoned")
                .remove(name);
            self.metrics
                .counter(
                    "bda_durability_staged_gc_total",
                    "Leaked staged datasets garbage-collected.",
                )
                .inc();
        }
        expired
    }
}

/// The durable decorator. Construct with [`DurableProvider::open`];
/// dropping it stops the background snapshotter (flushing nothing —
/// every acknowledged mutation is already on disk).
pub struct DurableProvider {
    shared: Arc<Shared>,
    report: RecoveryReport,
    stop: Sender<()>,
    snapshotter: Option<JoinHandle<()>>,
}

impl DurableProvider {
    /// Recover state from `options.dir` into `inner`, then wrap it so
    /// every later mutation is logged. `tracer` (optional) receives one
    /// `recovery:{dataset}` span per restored dataset plus a parent
    /// `recovery` span.
    pub fn open(inner: Arc<dyn Provider>, options: Options) -> Result<DurableProvider> {
        DurableProvider::open_traced(inner, options, &Tracer::disabled())
    }

    /// [`DurableProvider::open`] with recovery spans.
    pub fn open_traced(
        inner: Arc<dyn Provider>,
        options: Options,
        tracer: &Tracer,
    ) -> Result<DurableProvider> {
        let started = Instant::now();
        let metrics = options.metrics.clone().unwrap_or_default();
        let site = inner.name().to_string();
        let mut root = tracer.start(None, || "recovery".to_string(), &site);

        // 1. Snapshot.
        let snap = snapshot::load_latest(&options.snapshot_dir())?;
        let (snapshot_seq, snapshot_datasets) = match &snap {
            Some(s) => (s.covered_seq, s.datasets.len()),
            None => (0, 0),
        };
        if let Some(s) = snap {
            for (name, data) in s.datasets {
                let mut span = tracer.start(root.id(), || format!("recovery:{name}"), &site);
                span.set_rows(data.num_rows());
                inner.store(&name, data)?;
                span.finish();
            }
            // Rebuild snapshotted index specs from the recovered data;
            // the bytes are deterministic, so this matches the
            // pre-crash index exactly.
            for (name, spec) in s.indexes {
                inner.build_index(&name, &spec.column, spec.kind)?;
            }
        }

        // 2. WAL replay.
        let mut replayed = wal::replay_dir(&options.wal_dir())?;
        // A snapshot proves sequences up to covered_seq were committed,
        // even if the WAL tail no longer shows them (e.g. the log
        // directory was lost while snapshots survived) — never let the
        // writer re-issue a sequence number a snapshot already covers.
        replayed.next_seq = replayed.next_seq.max(snapshot_seq + 1);
        let wal_records_replayed = replayed.records.len();
        for (_, op) in std::mem::take(&mut replayed.records) {
            let mut span = tracer.start(root.id(), || format!("recovery:{}", op.name()), &site);
            match op {
                WalOp::Store { name, data } => {
                    span.set_rows(data.num_rows());
                    inner.store(&name, data)?;
                }
                WalOp::Remove { name } => inner.remove(&name),
                WalOp::BuildIndex { name, column, kind } => {
                    inner.build_index(&name, &column, kind)?;
                }
            }
            span.finish();
        }

        // 3. Open for appending.
        let wal = Wal::open(
            &options.wal_dir(),
            &replayed,
            options.fsync,
            options.faults,
            metrics.clone(),
        )?;

        let elapsed = started.elapsed();
        metrics
            .histogram(
                "bda_durability_replay_seconds",
                "Recovery (snapshot load + WAL replay) wall time.",
            )
            .observe_s(elapsed.as_secs_f64());
        metrics
            .counter(
                "bda_durability_replayed_records_total",
                "WAL records applied during recovery.",
            )
            .add(wal_records_replayed as u64);
        root.event(|| {
            format!(
                "snapshot seq {snapshot_seq} ({snapshot_datasets} datasets), \
                 {wal_records_replayed} wal records, torn tail: {}",
                replayed.torn_tail
            )
        });
        root.finish();

        let report = RecoveryReport {
            snapshot_seq,
            snapshot_datasets,
            wal_records_replayed,
            torn_tail_truncated: replayed.torn_tail,
            datasets: {
                let mut names: Vec<String> = inner.catalog().into_iter().map(|(n, _)| n).collect();
                names.sort();
                names
            },
            elapsed,
        };

        let shared = Arc::new(Shared {
            inner,
            options,
            metrics,
            changes: ChangeHub::new(),
            wal: Mutex::new(wal),
            snapshots: Mutex::new(()),
            bytes_since_snapshot: AtomicU64::new(0),
            staged: Mutex::new(HashMap::new()),
        });
        let (stop, stop_rx) = channel();
        let snapshotter = Some(spawn_snapshotter(Arc::clone(&shared), stop_rx));
        Ok(DurableProvider {
            shared,
            report,
            stop,
            snapshotter,
        })
    }

    /// What recovery found and did.
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Subscribe to committed changes of one dataset.
    pub fn subscribe(&self, dataset: &str) -> ChangeStream {
        self.shared.changes.subscribe(dataset)
    }

    /// Subscribe to every committed change.
    pub fn subscribe_all(&self) -> ChangeStream {
        self.shared.changes.subscribe_all()
    }

    /// Force a snapshot + WAL truncation now (the background thread does
    /// this on its own when the log outgrows the configured threshold).
    /// Returns the covered sequence number.
    pub fn snapshot_now(&self) -> Result<u64> {
        self.shared.snapshot_now()
    }

    /// Force a staged-dataset GC sweep now; returns collected names.
    pub fn gc_staged_now(&self) -> Vec<String> {
        self.shared.gc_staged()
    }

    /// Ephemeral names currently staged (tests assert leak-freedom).
    pub fn staged_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shared
            .staged
            .lock()
            .expect("staged lock poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &Arc<dyn Provider> {
        &self.shared.inner
    }
}

impl Drop for DurableProvider {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(handle) = self.snapshotter.take() {
            let _ = handle.join();
        }
    }
}

fn spawn_snapshotter(shared: Arc<Shared>, stop: Receiver<()>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("bda-snapshotter".into())
        .spawn(move || loop {
            match stop.recv_timeout(shared.options.snapshot_interval) {
                Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => {}
            }
            shared.gc_staged();
            let due = shared.bytes_since_snapshot.load(Ordering::Relaxed)
                >= shared.options.snapshot_every_bytes;
            if due {
                if let Err(e) = shared.snapshot_now() {
                    // A failed snapshot loses nothing (the WAL still has
                    // everything); count it and keep serving.
                    shared
                        .metrics
                        .counter_labeled(
                            "bda_durability_snapshot_errors_total",
                            &[("error", &e.to_string())],
                            "Background snapshot attempts that failed.",
                        )
                        .inc();
                }
            }
        })
        .expect("spawn snapshotter thread")
}

impl Provider for DurableProvider {
    fn name(&self) -> &str {
        self.shared.inner.name()
    }

    fn capabilities(&self) -> CapabilitySet {
        self.shared.inner.capabilities()
    }

    fn catalog(&self) -> Vec<(String, Schema)> {
        self.shared.inner.catalog()
    }

    fn execute(&self, plan: &Plan) -> Result<DataSet> {
        self.shared.inner.execute(plan)
    }

    fn store(&self, name: &str, data: DataSet) -> Result<()> {
        if self.shared.is_ephemeral(name) {
            // Scratch space for in-flight queries: engine-only, tracked
            // for TTL GC, never logged.
            self.shared.inner.store(name, data)?;
            self.shared
                .staged
                .lock()
                .expect("staged lock poisoned")
                .insert(name.to_string(), Instant::now());
            return Ok(());
        }
        // Engine apply, WAL append, and delta publication all happen
        // under the WAL lock: the lock order *is* the commit order, so
        // live state, the log, and change streams can never disagree
        // about which of two racing stores won. Apply still precedes
        // append (shape validation — an engine that refuses the dataset
        // must not leave a log record); the ack below implies the
        // record is on disk. The record is encoded first, so the engine
        // takes the dataset itself rather than a copy.
        let payload = record::encode_store(name, &data);
        let mut wal = self.shared.wal.lock().expect("wal lock poisoned");
        self.shared.inner.store(name, data)?;
        let (seq, bytes) = wal.append_payload(&payload)?;
        self.shared
            .bytes_since_snapshot
            .fetch_add(bytes, Ordering::Relaxed);
        self.shared.changes.publish_with(|| {
            let op = record::decode_op(&payload).expect("a record this store just encoded");
            Delta::from_op(seq, op)
        });
        Ok(())
    }

    fn remove(&self, name: &str) {
        if self.shared.is_ephemeral(name) {
            self.shared.inner.remove(name);
            self.shared
                .staged
                .lock()
                .expect("staged lock poisoned")
                .remove(name);
            return;
        }
        let op = WalOp::Remove {
            name: name.to_string(),
        };
        let append_failed = {
            // Engine apply under the WAL lock, like store: apply order
            // must match commit order.
            let mut wal = self.shared.wal.lock().expect("wal lock poisoned");
            self.shared.inner.remove(name);
            match wal.append(&op) {
                Ok((seq, bytes)) => {
                    self.shared
                        .bytes_since_snapshot
                        .fetch_add(bytes, Ordering::Relaxed);
                    self.shared.changes.publish_with(|| Delta::from_op(seq, op));
                    false
                }
                Err(_) => {
                    // `remove` has no error channel (trait signature),
                    // and the engine-side delete already happened — live
                    // clients observe the dataset gone. Count the miss
                    // so operators see it.
                    self.shared
                        .metrics
                        .counter(
                            "bda_durability_unlogged_removes_total",
                            "Removes whose WAL append failed (made durable by a rescue snapshot).",
                        )
                        .inc();
                    true
                }
            }
        };
        if append_failed {
            // Make the unlogged delete durable *now* instead of waiting
            // for the next scheduled snapshot: until one lands, a crash
            // would resurrect a dataset clients already saw removed.
            if let Err(e) = self.shared.snapshot_now() {
                self.shared
                    .metrics
                    .counter_labeled(
                        "bda_durability_snapshot_errors_total",
                        &[("error", &e.to_string())],
                        "Background snapshot attempts that failed.",
                    )
                    .inc();
            }
        }
    }

    fn serializes_stores(&self) -> bool {
        // Durable stores and removals apply under the WAL lock.
        true
    }

    fn schema_of(&self, name: &str) -> Option<Schema> {
        self.shared.inner.schema_of(name)
    }

    fn table_stats(&self, name: &str) -> Option<bda_storage::TableStats> {
        self.shared.inner.table_stats(name)
    }

    fn build_index(&self, dataset: &str, column: &str, kind: IndexKind) -> Result<()> {
        if self.shared.is_ephemeral(dataset) {
            return self.shared.inner.build_index(dataset, column, kind);
        }
        // Same commit protocol as `store`: apply under the WAL lock,
        // then log the spec (not the bytes — replay rebuilds). No delta:
        // change streams carry data, and an index changes none.
        let mut wal = self.shared.wal.lock().expect("wal lock poisoned");
        self.shared.inner.build_index(dataset, column, kind)?;
        let op = WalOp::BuildIndex {
            name: dataset.to_string(),
            column: column.to_string(),
            kind,
        };
        let (_, bytes) = wal.append(&op)?;
        self.shared
            .bytes_since_snapshot
            .fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }

    fn index_specs(&self, dataset: &str) -> Vec<bda_storage::IndexSpec> {
        self.shared.inner.index_specs(dataset)
    }

    fn index_fingerprint(&self, dataset: &str, column: &str) -> Option<u64> {
        self.shared.inner.index_fingerprint(dataset, column)
    }

    fn row_count_of(&self, name: &str) -> Option<usize> {
        self.shared.inner.row_count_of(name)
    }

    fn endpoint(&self) -> Option<String> {
        self.shared.inner.endpoint()
    }

    fn execute_push(&self, plan: &Plan, peer_addr: &str, dest_name: &str) -> Option<Result<u64>> {
        self.shared.inner.execute_push(plan, peer_addr, dest_name)
    }

    fn wire_bytes(&self) -> (u64, u64) {
        self.shared.inner.wire_bytes()
    }
}

/// Convenience for tests and tools: a `CoreError::Durability` check.
pub fn is_durability_error(e: &CoreError) -> bool {
    matches!(e, CoreError::Durability(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::DiskFaults;
    use bda_core::ReferenceProvider;
    use bda_storage::Column;
    use std::path::PathBuf;

    fn tmp() -> PathBuf {
        std::env::temp_dir().join(format!(
            "bda-durable-test-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ))
    }

    fn ds(k: i64) -> DataSet {
        DataSet::from_columns(vec![("k", Column::from(vec![k, k + 10]))]).unwrap()
    }

    fn open(dir: &std::path::Path) -> DurableProvider {
        DurableProvider::open(Arc::new(ReferenceProvider::new("p")), Options::new(dir)).unwrap()
    }

    #[test]
    fn mutations_survive_reopen() {
        let dir = tmp();
        {
            let p = open(&dir);
            p.store("a", ds(1)).unwrap();
            p.store("b", ds(2)).unwrap();
            p.store("a", ds(3)).unwrap(); // replace
            p.remove("b");
        }
        let p = open(&dir);
        assert_eq!(p.report().wal_records_replayed, 4);
        assert_eq!(p.report().datasets, ["a"]);
        let got = p
            .execute(&Plan::scan("a", p.schema_of("a").unwrap()))
            .unwrap();
        assert!(got.same_bag(&ds(3)).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn indexes_survive_reopen_via_wal_and_snapshot() {
        use bda_relational::RelationalEngine;
        let dir = tmp();
        let data = DataSet::from_columns(vec![
            ("k", Column::from(vec![3i64, 1, 2, 1, 3])),
            ("v", Column::from(vec![0.5f64, -1.0, 2.5, 0.0, 9.0])),
        ])
        .unwrap();
        // From-scratch build on an identical engine: the fingerprint the
        // recovered index must reproduce.
        let oracle = RelationalEngine::new("oracle");
        oracle.store("t", data.clone()).unwrap();
        oracle.build_index("t", "k", IndexKind::Hash).unwrap();
        oracle.build_index("t", "v", IndexKind::Sorted).unwrap();
        let want_k = oracle.index_fingerprint("t", "k").unwrap();
        let want_v = oracle.index_fingerprint("t", "v").unwrap();

        let reopen = |dir: &std::path::Path| {
            DurableProvider::open(Arc::new(RelationalEngine::new("p")), Options::new(dir)).unwrap()
        };
        {
            let p = reopen(&dir);
            p.store("t", data.clone()).unwrap();
            p.build_index("t", "k", IndexKind::Hash).unwrap();
            p.build_index("t", "v", IndexKind::Sorted).unwrap();
        }
        // WAL-replay path: the BuildIndex records rebuild both indexes.
        {
            let p = reopen(&dir);
            let mut specs = p.index_specs("t");
            specs.sort_by(|a, b| a.column.cmp(&b.column));
            assert_eq!(specs.len(), 2, "both specs must survive replay");
            assert_eq!(p.index_fingerprint("t", "k"), Some(want_k));
            assert_eq!(p.index_fingerprint("t", "v"), Some(want_v));
            // Compact: specs must move into the snapshot trailer.
            p.snapshot_now().unwrap();
        }
        // Snapshot path: the WAL was compacted away, so the trailer is
        // the only record of the specs.
        let p = reopen(&dir);
        assert_eq!(p.report().wal_records_replayed, 0);
        assert_eq!(p.index_fingerprint("t", "k"), Some(want_k));
        assert_eq!(p.index_fingerprint("t", "v"), Some(want_v));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_compacts_and_recovery_uses_it() {
        let dir = tmp();
        {
            let p = open(&dir);
            for i in 0..5 {
                p.store(&format!("d{i}"), ds(i)).unwrap();
            }
            let covered = p.snapshot_now().unwrap();
            assert_eq!(covered, 5);
            p.store("after", ds(99)).unwrap(); // lands in the WAL tail
        }
        let p = open(&dir);
        assert_eq!(p.report().snapshot_seq, 5);
        assert_eq!(p.report().snapshot_datasets, 5);
        assert_eq!(p.report().wal_records_replayed, 1, "only the tail replays");
        assert_eq!(p.report().datasets.len(), 6);
        // Compact the recovered state: the next cold start reads the
        // snapshot plus an empty tail and still sees every dataset.
        assert_eq!(p.snapshot_now().unwrap(), 6);
        drop(p);
        let p = open(&dir);
        assert_eq!(p.report().snapshot_seq, 6);
        assert_eq!(p.report().wal_records_replayed, 0);
        assert_eq!(p.report().datasets.len(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequence_survives_snapshot_then_reopen_then_ingest() {
        // snapshot -> restart -> ingest -> restart: the empty WAL tail
        // after a snapshot must not reset the sequence, or the second
        // restart refuses on a sequence jump and later snapshots sort
        // below the pre-restart one.
        let dir = tmp();
        {
            let p = open(&dir);
            p.store("a", ds(1)).unwrap();
            p.store("b", ds(2)).unwrap();
            assert_eq!(p.snapshot_now().unwrap(), 2);
        }
        {
            let p = open(&dir);
            assert_eq!(p.report().snapshot_seq, 2);
            p.store("c", ds(3)).unwrap();
        }
        let p = open(&dir);
        assert_eq!(p.report().wal_records_replayed, 1);
        assert_eq!(p.report().datasets, ["a", "b", "c"]);
        // A fresh snapshot covers a *higher* sequence than the old one,
        // so load_latest keeps picking the newest state.
        assert_eq!(p.snapshot_now().unwrap(), 3);
        drop(p);
        let p = open(&dir);
        assert_eq!(p.report().snapshot_seq, 3);
        assert_eq!(p.report().datasets, ["a", "b", "c"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_remove_append_is_rescued_by_immediate_snapshot() {
        let dir = tmp();
        let mut options = Options::new(dir.clone());
        options.faults = DiskFaults {
            append_fail_after: Some(1),
            ..DiskFaults::default()
        };
        {
            let p = DurableProvider::open(Arc::new(ReferenceProvider::new("p")), options).unwrap();
            p.store("gone", ds(1)).unwrap(); // spends the append budget
            p.remove("gone"); // WAL append fails -> rescue snapshot
        }
        // Without the rescue, recovery replays the store and resurrects
        // a dataset live clients already observed removed.
        let p = open(&dir);
        assert!(
            p.report().datasets.is_empty(),
            "unlogged remove survives restart: {:?}",
            p.report().datasets
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ephemeral_names_skip_the_log_and_snapshots() {
        let dir = tmp();
        {
            let p = open(&dir);
            p.store("real", ds(1)).unwrap();
            p.store("__bda_frag_q1_s0.p3", ds(2)).unwrap();
            assert_eq!(p.staged_names(), ["__bda_frag_q1_s0.p3"]);
            p.snapshot_now().unwrap();
        }
        let p = open(&dir);
        assert_eq!(
            p.report().datasets,
            ["real"],
            "staged fragment neither logged nor snapshotted"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn staged_ttl_gc_collects_leaks() {
        let dir = tmp();
        let mut options = Options::new(dir.clone());
        options.staged_ttl = Duration::from_millis(0);
        let p = DurableProvider::open(Arc::new(ReferenceProvider::new("p")), options).unwrap();
        p.store("__bda_frag_dead.p0", ds(1)).unwrap();
        assert_eq!(p.gc_staged_now(), ["__bda_frag_dead.p0"]);
        assert!(p.staged_names().is_empty());
        assert!(p.catalog().is_empty(), "engine-side copy collected too");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn change_stream_sees_commit_order_only_for_committed_ops() {
        let dir = tmp();
        let p = open(&dir);
        let stream = p.subscribe_all();
        let one = p.subscribe("t");
        p.store("t", ds(1)).unwrap();
        p.store("u", ds(2)).unwrap();
        p.remove("t");
        p.store("__bda_frag_x", ds(3)).unwrap(); // ephemeral: no delta
        let seqs: Vec<u64> = stream.drain().iter().map(|d| d.seq).collect();
        assert_eq!(seqs, [1, 2, 3]);
        let t_only: Vec<u64> = one.drain().iter().map(|d| d.seq).collect();
        assert_eq!(t_only, [1, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_append_is_not_acked() {
        let dir = tmp();
        let mut options = Options::new(dir.clone());
        options.faults = DiskFaults {
            append_fail_after: Some(1),
            ..DiskFaults::default()
        };
        {
            let p = DurableProvider::open(Arc::new(ReferenceProvider::new("p")), options).unwrap();
            p.store("ok", ds(1)).unwrap();
            let err = p.store("lost", ds(2)).unwrap_err();
            assert!(is_durability_error(&err), "{err}");
        }
        // Only the acknowledged mutation survives.
        let p = open(&dir);
        assert_eq!(p.report().datasets, ["ok"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_append_fault_then_reopen_keeps_acked_prefix() {
        let dir = tmp();
        let mut options = Options::new(dir.clone());
        options.faults = DiskFaults::torn_tail_from_seed(7);
        let torn_at = options.faults.torn_append_at.unwrap();
        {
            let p = DurableProvider::open(Arc::new(ReferenceProvider::new("p")), options).unwrap();
            let mut acked = 0;
            for i in 0..torn_at + 2 {
                if p.store(&format!("d{i}"), ds(i as i64)).is_ok() {
                    acked += 1;
                }
            }
            assert_eq!(acked as u64, torn_at - 1, "everything before the tear acks");
        }
        let p = open(&dir);
        assert!(p.report().torn_tail_truncated);
        assert_eq!(p.report().datasets.len() as u64, torn_at - 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
