//! Fault injection: a decorator that makes any [`Provider`] misbehave on
//! demand, driven by a seeded deterministic RNG.
//!
//! [`FaultyProvider`] is how every recovery path in the executor is
//! exercised in-process: transient execute/store failures at a
//! configurable rate, latency spikes, a hard crash after N calls (the
//! provider never answers again), and corrupt direct-push outcomes. The
//! same seed always injects the same fault sequence, so recovery tests
//! and the fault-recovery experiment are reproducible bit for bit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bda_core::{CapabilitySet, CoreError, Plan, Provider};
use bda_storage::{DataSet, IndexKind, IndexSpec, Schema, TableStats};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

// Disk faults (torn WAL appends, ENOSPC-style refusals, truncated
// snapshots) live in `bda-durability`; re-exported here so chaos tests
// configure the whole fault surface — provider, transport, disk — from
// one module, all keyed off the same seed.
pub use bda_durability::DiskFaults;

/// Environment variable the chaos CI job sets to sweep fault seeds.
pub const FAULT_SEED_ENV: &str = "BDA_FAULT_SEED";

/// The seed to drive fault injection with: `BDA_FAULT_SEED` when set (and
/// parseable as `u64`), otherwise `default`.
pub fn fault_seed_from_env(default: u64) -> u64 {
    std::env::var(FAULT_SEED_ENV)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

/// The disk-fault plan for the current chaos seed: `BDA_FAULT_SEED`
/// (else `default`) picks deterministically among the three disk
/// failure modes via [`DiskFaults::plan_from_seed`].
pub fn disk_faults_from_env(default: u64) -> DiskFaults {
    DiskFaults::plan_from_seed(fault_seed_from_env(default))
}

/// What to inject, and how often.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Probability that an `execute`/`execute_push` call fails with a
    /// transient error.
    pub execute_error_rate: f64,
    /// Probability that a `store` call fails with a transient error.
    pub store_error_rate: f64,
    /// The first `fail_first` faultable calls fail transiently no matter
    /// what the RNG says — a deterministic way to guarantee retries.
    pub fail_first: u64,
    /// After this many faultable calls the provider "crashes": every
    /// subsequent call fails permanently.
    pub crash_after: Option<u64>,
    /// Probability that a call stalls for [`FaultConfig::latency`] first.
    pub latency_rate: f64,
    /// The injected latency spike.
    pub latency: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0xBDA,
            execute_error_rate: 0.0,
            store_error_rate: 0.0,
            fail_first: 0,
            crash_after: None,
            latency_rate: 0.0,
            latency: Duration::ZERO,
        }
    }
}

impl FaultConfig {
    /// Transient execute/store failures at rate `p`, seeded.
    pub fn transient(seed: u64, p: f64) -> FaultConfig {
        FaultConfig {
            seed,
            execute_error_rate: p,
            store_error_rate: p,
            ..FaultConfig::default()
        }
    }

    /// A provider that works for `n` calls, then crashes permanently.
    pub fn crash_after(n: u64) -> FaultConfig {
        FaultConfig {
            crash_after: Some(n),
            ..FaultConfig::default()
        }
    }
}

/// Wraps any provider and injects faults per a [`FaultConfig`].
///
/// `catalog`, `schema_of`, `row_count_of`, the statistics and index
/// calls (`table_stats`, `index_specs`, `index_fingerprint`,
/// `build_index`) and `remove` pass through unfaulted: they model the
/// control plane (and cleanup), which planning and the executor's
/// recovery paths must be able to rely on even while the data plane
/// misbehaves — so a chaos run plans exactly like the clean run it is
/// compared with. Only the data plane (`execute`, `store`, pushes) is
/// faulted, and a crashed provider refuses all of it.
pub struct FaultyProvider {
    inner: Arc<dyn Provider>,
    config: FaultConfig,
    rng: Mutex<StdRng>,
    calls: AtomicU64,
    injected: AtomicU64,
}

impl FaultyProvider {
    /// Wrap `inner` with the given fault plan.
    pub fn new(inner: Arc<dyn Provider>, config: FaultConfig) -> FaultyProvider {
        FaultyProvider {
            inner,
            rng: Mutex::new(StdRng::seed_from_u64(config.seed)),
            config,
            calls: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Faultable calls observed so far (execute + store + push).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Faults injected so far (transient errors + crash refusals).
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Has the crash-after-N point been passed?
    pub fn crashed(&self) -> bool {
        matches!(self.config.crash_after, Some(n) if self.calls() > n)
    }

    /// Decide the fate of one faultable call: `Err` for an injected
    /// fault, `Ok(())` to let it through (after any latency spike).
    fn faultable(&self, error_rate: f64, what: &str) -> Result<()> {
        let n = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(limit) = self.config.crash_after {
            if n > limit {
                self.injected.fetch_add(1, Ordering::Relaxed);
                // A crash is permanent: retrying this provider is futile.
                return Err(CoreError::Plan(format!(
                    "injected crash: `{}` is down (call {n} > {limit})",
                    self.inner.name()
                )));
            }
        }
        let (spike, fail) = {
            let mut rng = self.rng.lock();
            let spike = self.config.latency_rate > 0.0 && rng.gen_bool(self.config.latency_rate);
            let fail =
                n <= self.config.fail_first || (error_rate > 0.0 && rng.gen_bool(error_rate));
            (spike, fail)
        };
        if spike {
            std::thread::sleep(self.config.latency);
        }
        if fail {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(CoreError::transient(CoreError::Net(format!(
                "injected transient {what} failure at `{}` (call {n})",
                self.inner.name()
            ))));
        }
        Ok(())
    }
}

impl Provider for FaultyProvider {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capabilities(&self) -> CapabilitySet {
        self.inner.capabilities()
    }

    fn catalog(&self) -> Vec<(String, Schema)> {
        self.inner.catalog()
    }

    fn execute(&self, plan: &Plan) -> Result<DataSet> {
        self.faultable(self.config.execute_error_rate, "execute")?;
        self.inner.execute(plan)
    }

    fn store(&self, name: &str, data: DataSet) -> Result<()> {
        self.faultable(self.config.store_error_rate, "store")?;
        self.inner.store(name, data)
    }

    fn remove(&self, name: &str) {
        self.inner.remove(name)
    }

    fn row_count_of(&self, name: &str) -> Option<usize> {
        self.inner.row_count_of(name)
    }

    fn table_stats(&self, name: &str) -> Option<TableStats> {
        self.inner.table_stats(name)
    }

    fn build_index(&self, dataset: &str, column: &str, kind: IndexKind) -> Result<()> {
        self.inner.build_index(dataset, column, kind)
    }

    fn index_specs(&self, dataset: &str) -> Vec<IndexSpec> {
        self.inner.index_specs(dataset)
    }

    fn index_fingerprint(&self, dataset: &str, column: &str) -> Option<u64> {
        self.inner.index_fingerprint(dataset, column)
    }

    fn endpoint(&self) -> Option<String> {
        self.inner.endpoint()
    }

    fn execute_push(&self, plan: &Plan, peer_addr: &str, dest_name: &str) -> Option<Result<u64>> {
        // A corrupt push: the call is charged and the error is transient,
        // mirroring a dropped/garbled peer transfer on a live provider.
        if let Err(e) = self.faultable(self.config.execute_error_rate, "push") {
            return Some(Err(e));
        }
        self.inner.execute_push(plan, peer_addr, dest_name)
    }

    fn wire_bytes(&self) -> (u64, u64) {
        self.inner.wire_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::ReferenceProvider;
    use bda_storage::Column;

    fn inner() -> Arc<dyn Provider> {
        let p = ReferenceProvider::new("ref");
        p.store(
            "t",
            DataSet::from_columns(vec![("k", Column::from(vec![1i64, 2, 3]))]).unwrap(),
        )
        .unwrap();
        Arc::new(p)
    }

    fn scan(p: &dyn Provider) -> Plan {
        Plan::scan("t", p.schema_of("t").unwrap())
    }

    #[test]
    fn zero_rates_are_transparent() {
        let f = FaultyProvider::new(inner(), FaultConfig::default());
        let out = f.execute(&scan(&f)).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(f.injected_faults(), 0);
        assert_eq!(f.calls(), 1);
    }

    #[test]
    fn fault_stream_is_deterministic() {
        let outcomes = |seed| -> Vec<bool> {
            let f = FaultyProvider::new(inner(), FaultConfig::transient(seed, 0.5));
            (0..32).map(|_| f.execute(&scan(&f)).is_ok()).collect()
        };
        assert_eq!(outcomes(7), outcomes(7));
        assert_ne!(outcomes(7), outcomes(8), "different seeds differ");
    }

    #[test]
    fn injected_errors_are_transient() {
        let f = FaultyProvider::new(
            inner(),
            FaultConfig {
                fail_first: 1,
                ..FaultConfig::default()
            },
        );
        let err = f.execute(&scan(&f)).unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert!(err.to_string().contains("injected transient"), "{err}");
        // After the deterministic failure the provider works again.
        assert!(f.execute(&scan(&f)).is_ok());
    }

    #[test]
    fn crash_after_n_is_permanent() {
        let f = FaultyProvider::new(inner(), FaultConfig::crash_after(2));
        assert!(f.execute(&scan(&f)).is_ok());
        assert!(f.execute(&scan(&f)).is_ok());
        // Call 3 onwards: dead, permanently.
        for _ in 0..3 {
            let err = f.execute(&scan(&f)).unwrap_err();
            assert!(!err.is_transient(), "{err}");
            assert!(err.to_string().contains("injected crash"), "{err}");
        }
        assert!(f.crashed());
        // A crashed provider refuses stores too ...
        let ds = DataSet::from_columns(vec![("k", Column::from(vec![1i64]))]).unwrap();
        assert!(f.store("u", ds).is_err());
        // ... but the control plane still answers (catalog is metadata).
        assert_eq!(f.catalog().len(), 1);
    }

    #[test]
    fn statistics_and_indexes_reach_the_planner_unfaulted() {
        use crate::Federation;
        use bda_core::{col, lit};
        use bda_relational::RelationalEngine;
        let engine = Arc::new(RelationalEngine::new("rel"));
        let k: Vec<i64> = (0..64).collect();
        let g: Vec<i64> = k.iter().map(|k| k % 2).collect();
        let t = DataSet::from_columns(vec![("k", Column::from(k)), ("g", Column::from(g))]);
        engine.store("t", t.unwrap()).unwrap();
        engine.build_index("t", "k", IndexKind::Hash).unwrap();
        let wrapped = Arc::new(FaultyProvider::new(engine.clone(), FaultConfig::default()));
        let federation = |p: Arc<dyn Provider>| {
            let mut fed = Federation::new();
            fed.register(p);
            fed.options_mut().workers = 4;
            fed
        };
        let (bare, faulty) = (federation(engine.clone()), federation(wrapped.clone()));
        let stats = |fed: &Federation| format!("{:?}", fed.registry().table_stats("t"));
        assert!(bare.registry().table_stats("t").is_some());
        assert_eq!(stats(&faulty), stats(&bare));
        let specs = |fed: &Federation| fed.registry().provider("rel").unwrap().index_specs("t");
        assert_eq!(specs(&faulty), specs(&bare));
        assert_eq!(
            wrapped.index_fingerprint("t", "k"),
            engine.index_fingerprint("t", "k")
        );
        // Zone maps disprove the first plan's filter; the NDV of `g` caps
        // the second plan's partition width at two.
        let scan = Plan::scan("t", engine.schema_of("t").unwrap());
        for (plan, decision) in [
            (
                scan.clone().select(col("k").gt(lit(1000i64))),
                "== pruning ==",
            ),
            (scan.clone().join(scan, vec![("g", "g")]), "parts=2"),
        ] {
            let want = bare.explain(&plan).unwrap();
            assert!(want.contains(decision), "{want}");
            assert_eq!(faulty.explain(&plan).unwrap(), want);
        }
    }

    #[test]
    fn disk_fault_plan_is_seed_deterministic() {
        std::env::remove_var(FAULT_SEED_ENV);
        assert_eq!(disk_faults_from_env(7), DiskFaults::plan_from_seed(7));
    }

    #[test]
    fn durable_scratch_prefix_matches_staging_prefix() {
        // The durability layer excludes staged fragments from WAL and
        // snapshots by name prefix; if the planner's staging prefix ever
        // drifts, staged intermediates would silently become durable.
        assert_eq!(
            bda_durability::DEFAULT_EPHEMERAL_PREFIX,
            crate::planner::FRAG_PREFIX
        );
    }

    #[test]
    fn seed_env_override() {
        // Avoid polluting other tests: set, read, restore.
        std::env::set_var(FAULT_SEED_ENV, "1234");
        assert_eq!(fault_seed_from_env(1), 1234);
        std::env::set_var(FAULT_SEED_ENV, "not a number");
        assert_eq!(fault_seed_from_env(1), 1);
        std::env::remove_var(FAULT_SEED_ENV);
        assert_eq!(fault_seed_from_env(1), 1);
    }
}
