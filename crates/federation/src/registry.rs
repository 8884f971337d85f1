//! The provider registry: who exists, what they can do, where data
//! lives — and, for fault tolerance, who is currently *healthy*.
//!
//! Where data lives comes from a catalog memo that lives as long as the
//! registry and is shared by its clones: for each provider, the dataset
//! names its last [`Provider::catalog`] read listed. Planning answers
//! "who holds `d`?" from it without a round trip. The memo is repaired by
//! what goes wrong, not by an epoch: an entry is dropped when a call to
//! that provider fails or a provider registers under its name, a read
//! that comes back empty is never kept, and the planner and executor
//! re-read catalogs when a dataset is listed nowhere, when failover looks
//! for a new site and when a query placed from the memo fails for good.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bda_core::{CapabilitySet, CoreError, OpKind, Plan, Provider};
use bda_storage::Schema;

use parking_lot::Mutex;

/// Result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Circuit-breaker tuning for the per-provider health tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker rejects traffic before allowing one
    /// half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(250),
        }
    }
}

/// Snapshot of one provider's breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow normally.
    Closed,
    /// Tripped: the provider is skipped during placement and failover.
    Open,
    /// Probing: one request is allowed through; its outcome decides
    /// whether the breaker closes again or re-opens.
    HalfOpen,
}

#[derive(Debug)]
struct BreakerEntry {
    consecutive_failures: u32,
    state: BreakerState,
    opened_at: Instant,
}

impl BreakerEntry {
    fn new() -> BreakerEntry {
        BreakerEntry {
            consecutive_failures: 0,
            state: BreakerState::Closed,
            opened_at: Instant::now(),
        }
    }
}

/// Shared per-provider health: a consecutive-failure circuit breaker with
/// half-open probing. Cloning a [`Registry`] shares its board, so every
/// handle to the same federation sees the same health picture.
#[derive(Debug)]
pub struct HealthBoard {
    config: BreakerConfig,
    entries: Mutex<HashMap<String, BreakerEntry>>,
    trips: AtomicUsize,
}

impl Default for HealthBoard {
    fn default() -> Self {
        HealthBoard::new(BreakerConfig::default())
    }
}

impl HealthBoard {
    /// An empty board with the given breaker tuning.
    pub fn new(config: BreakerConfig) -> HealthBoard {
        HealthBoard {
            config,
            entries: Mutex::new(HashMap::new()),
            trips: AtomicUsize::new(0),
        }
    }

    /// The breaker tuning in effect.
    pub fn config(&self) -> BreakerConfig {
        self.config
    }

    /// Record a successful call to `provider`: resets the failure streak
    /// and closes a half-open breaker.
    pub fn record_success(&self, provider: &str) {
        let mut entries = self.entries.lock();
        let e = entries
            .entry(provider.to_string())
            .or_insert_with(BreakerEntry::new);
        e.consecutive_failures = 0;
        e.state = BreakerState::Closed;
    }

    /// Record a failed call to `provider`. Returns `true` when this
    /// failure tripped the breaker open (either the failure streak
    /// reached the threshold, or a half-open probe failed).
    pub fn record_failure(&self, provider: &str) -> bool {
        let mut entries = self.entries.lock();
        let e = entries
            .entry(provider.to_string())
            .or_insert_with(BreakerEntry::new);
        e.consecutive_failures += 1;
        let trip = match e.state {
            BreakerState::Closed => e.consecutive_failures >= self.config.failure_threshold,
            BreakerState::HalfOpen => true, // failed probe re-opens
            BreakerState::Open => false,
        };
        if trip {
            e.state = BreakerState::Open;
            e.opened_at = Instant::now();
            self.trips.fetch_add(1, Ordering::Relaxed);
        }
        trip
    }

    /// May `provider` receive traffic right now? `Closed` and `HalfOpen`
    /// breakers admit requests; an `Open` breaker rejects them until its
    /// cooldown elapses, at which point it transitions to `HalfOpen` and
    /// admits exactly the probing request path.
    pub fn is_available(&self, provider: &str) -> bool {
        let mut entries = self.entries.lock();
        let Some(e) = entries.get_mut(provider) else {
            return true; // never failed
        };
        match e.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if e.opened_at.elapsed() >= self.config.cooldown {
                    e.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Current breaker state of `provider`.
    pub fn state(&self, provider: &str) -> BreakerState {
        self.entries
            .lock()
            .get(provider)
            .map(|e| e.state)
            .unwrap_or(BreakerState::Closed)
    }

    /// Total breaker trips since the board was created.
    pub fn trips(&self) -> usize {
        self.trips.load(Ordering::Relaxed)
    }

    /// Every tracked provider and its breaker state, sorted by name.
    /// Providers that never failed have no entry (implicitly `Closed`);
    /// the HTTP `/readyz` endpoint renders this as its detail line.
    pub fn snapshot(&self) -> Vec<(String, BreakerState)> {
        let entries = self.entries.lock();
        let mut out: Vec<(String, BreakerState)> = entries
            .iter()
            .map(|(name, e)| (name.clone(), e.state))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

impl BreakerState {
    /// Lower-case name for operator-facing rendering (`/readyz`).
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// The dataset names each provider's catalog listed when last read, by
/// provider name.
type CatalogMemo = Mutex<HashMap<String, Arc<HashSet<String>>>>;

/// A shared, ordered collection of providers.
#[derive(Clone)]
pub struct Registry {
    providers: Vec<Arc<dyn Provider>>,
    health: Arc<HealthBoard>,
    catalogs: Arc<CatalogMemo>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_breaker_config(BreakerConfig::default())
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// An empty registry with explicit circuit-breaker tuning.
    pub fn with_breaker_config(config: BreakerConfig) -> Registry {
        Registry {
            providers: Vec::new(),
            health: Arc::new(HealthBoard::new(config)),
            catalogs: Arc::default(),
        }
    }

    /// The shared per-provider health board.
    pub fn health(&self) -> &HealthBoard {
        &self.health
    }

    /// Register a provider (order matters only for tie-breaking). A
    /// memoized catalog under the same name is dropped.
    pub fn register(&mut self, p: Arc<dyn Provider>) {
        self.forget_catalog(p.name());
        self.providers.push(p);
    }

    /// The dataset names `provider`'s catalog listed when last read, if
    /// the memo has them.
    pub(crate) fn memoized_catalog(&self, provider: &str) -> Option<Arc<HashSet<String>>> {
        self.catalogs.lock().get(provider).cloned()
    }

    /// Read `provider`'s catalog now and memoize the names it lists. An
    /// empty read drops the entry instead: a remote provider answers a
    /// transport error with an empty catalog, so the next lookup reads
    /// again rather than trusting it.
    pub(crate) fn read_catalog(&self, provider: &dyn Provider) -> Arc<HashSet<String>> {
        // The read may be a round trip: never hold the lock across it.
        let names: HashSet<String> = provider.catalog().into_iter().map(|(n, _)| n).collect();
        let names = Arc::new(names);
        let mut memo = self.catalogs.lock();
        if names.is_empty() {
            memo.remove(provider.name());
        } else {
            memo.insert(provider.name().to_string(), Arc::clone(&names));
        }
        names
    }

    /// Drop `provider`'s memoized catalog; the next lookup reads it again.
    pub(crate) fn forget_catalog(&self, provider: &str) {
        self.catalogs.lock().remove(provider);
    }

    /// All providers, in registration order.
    pub fn providers(&self) -> &[Arc<dyn Provider>] {
        &self.providers
    }

    /// Provider by name.
    pub fn provider(&self, name: &str) -> Result<Arc<dyn Provider>> {
        self.providers
            .iter()
            .find(|p| p.name() == name)
            .cloned()
            .ok_or_else(|| CoreError::Plan(format!("unknown provider `{name}`")))
    }

    /// Schema of a dataset wherever it lives first.
    pub fn schema_of(&self, dataset: &str) -> Result<Schema> {
        self.providers
            .iter()
            .find_map(|p| p.schema_of(dataset))
            .ok_or_else(|| CoreError::UnknownDataset(dataset.to_string()))
    }

    /// Names of providers that support an operator kind natively.
    pub fn supporters_of(&self, op: OpKind) -> Vec<String> {
        self.providers
            .iter()
            .filter(|p| p.capabilities().supports(op))
            .map(|p| p.name().to_string())
            .collect()
    }

    /// Like [`Registry::supporters_of`], restricted to providers whose
    /// circuit breaker currently admits traffic.
    pub fn available_supporters_of(&self, op: OpKind) -> Vec<String> {
        self.supporters_of(op)
            .into_iter()
            .filter(|n| self.health.is_available(n))
            .collect()
    }

    /// Table statistics for a dataset from the first provider that both
    /// holds it and keeps statistics. A provider that does not hold the
    /// dataset has no statistics for it, so no catalog is read.
    pub fn table_stats(&self, dataset: &str) -> Option<bda_storage::TableStats> {
        self.providers.iter().find_map(|p| p.table_stats(dataset))
    }

    /// The union of all capability sets.
    pub fn combined_capabilities(&self) -> CapabilitySet {
        let mut set = CapabilitySet::new();
        for p in &self.providers {
            for op in p.capabilities().iter() {
                set = set.with(op);
            }
        }
        set
    }
}

/// How an operator can reach a back end (the T1/T2 coverage report entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Translation {
    /// At least one provider executes it natively.
    Native(Vec<String>),
    /// No native provider, but lowering rewrites it into operators that
    /// are (recursively) all translatable.
    ViaLowering(Vec<OpKind>),
    /// Untranslatable in this federation.
    No,
}

/// Classify how each operator kind reaches the registered back ends.
///
/// This is experiment T1/T2: desideratum 2 requires that no operator maps
/// to [`Translation::No`] in a complete federation.
pub fn translatability(registry: &Registry) -> Vec<(OpKind, Translation)> {
    OpKind::ALL
        .iter()
        .map(|&op| (op, classify(registry, op)))
        .collect()
}

fn classify(registry: &Registry, op: OpKind) -> Translation {
    let native = registry.supporters_of(op);
    if !native.is_empty() {
        return Translation::Native(native);
    }
    if let Some(target_ops) = lowering_target_ops(op) {
        // Lowering succeeds if every operator it produces is translatable
        // (all lowering targets are base ops, so one level suffices).
        if target_ops
            .iter()
            .all(|k| !registry.supporters_of(*k).is_empty())
        {
            return Translation::ViaLowering(target_ops);
        }
    }
    Translation::No
}

/// The set of base operator kinds a canonical lowering of `op` produces
/// (`None` when `op` is base and has no lowering).
pub fn lowering_target_ops(op: OpKind) -> Option<Vec<OpKind>> {
    use bda_core::lower::lower_node;
    let probe = probe_plan(op)?;
    let lowered = lower_node(&probe).ok()??;
    let mut kinds: Vec<OpKind> = lowered
        .op_kinds()
        .into_iter()
        .filter(|k| *k != OpKind::Scan && *k != OpKind::Values)
        .collect();
    kinds.sort();
    kinds.dedup();
    Some(kinds)
}

/// A minimal well-typed plan with `op` at the root, used to probe the
/// lowering rules.
fn probe_plan(op: OpKind) -> Option<Plan> {
    use bda_core::infer::edge_schema;
    use bda_core::{AggExpr, AggFunc, GraphOp};
    use bda_storage::{DataType, Field};

    let matrix = || {
        Plan::scan(
            "__probe_m",
            Schema::new(vec![
                Field::dimension_bounded("i", 0, 2),
                Field::dimension_bounded("j", 0, 2),
                Field::value("v", DataType::Float64),
            ])
            .expect("static schema"),
        )
    };
    let edges = || Plan::scan("__probe_e", edge_schema());
    Some(match op {
        OpKind::MatMul => matrix().matmul(matrix()),
        OpKind::ElemWise => matrix().elemwise(bda_core::BinOp::Add, matrix()),
        OpKind::Window => Plan::Window {
            input: matrix().boxed(),
            radii: vec![("i".into(), 1), ("j".into(), 1)],
            aggs: vec![AggExpr::new(AggFunc::Sum, bda_core::col("v"), "s")],
        },
        OpKind::Fill => Plan::Fill {
            input: matrix().boxed(),
            fill: bda_storage::Value::Float(0.0),
        },
        OpKind::SliceAt => Plan::SliceAt {
            input: matrix().boxed(),
            dim: "i".into(),
            index: 0,
        },
        OpKind::Permute => Plan::Permute {
            input: matrix().boxed(),
            order: vec!["j".into(), "i".into()],
        },
        OpKind::PageRank => Plan::Graph(GraphOp::PageRank {
            edges: edges().boxed(),
            damping: 0.85,
            max_iters: 10,
            epsilon: 1e-6,
        }),
        OpKind::ConnectedComponents => Plan::Graph(GraphOp::ConnectedComponents {
            edges: edges().boxed(),
            max_iters: 10,
        }),
        OpKind::TriangleCount => Plan::Graph(GraphOp::TriangleCount {
            edges: edges().boxed(),
        }),
        OpKind::Degrees => Plan::Graph(GraphOp::Degrees {
            edges: edges().boxed(),
        }),
        OpKind::BfsLevels => Plan::Graph(GraphOp::BfsLevels {
            edges: edges().boxed(),
            source: 0,
        }),
        _ => return None,
    })
}

/// A provider wrapper that hides some of the inner provider's
/// capabilities: a weaker back end than any real engine. Masking
/// `Iterate`, for instance, forces the federation into client-driven loops
/// (`tests/iteration.rs` compares them with server-side iteration).
pub struct MaskedProvider {
    inner: Arc<dyn Provider>,
    removed: Vec<OpKind>,
}

impl MaskedProvider {
    /// Wrap `inner`, hiding the `removed` capabilities.
    pub fn new(inner: Arc<dyn Provider>, removed: Vec<OpKind>) -> MaskedProvider {
        MaskedProvider { inner, removed }
    }

    /// Refuse a plan that uses a hidden capability, as a provider without
    /// it would.
    fn check(&self, plan: &Plan) -> Result<()> {
        self.capabilities().check(self.name(), plan)
    }
}

impl Provider for MaskedProvider {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capabilities(&self) -> CapabilitySet {
        let mut caps = self.inner.capabilities();
        for op in &self.removed {
            caps = caps.without(*op);
        }
        caps
    }

    fn catalog(&self) -> Vec<(String, Schema)> {
        self.inner.catalog()
    }

    fn execute(&self, plan: &Plan) -> Result<bda_storage::DataSet> {
        self.check(plan)?;
        self.inner.execute(plan)
    }

    fn store(&self, name: &str, data: bda_storage::DataSet) -> Result<()> {
        self.inner.store(name, data)
    }

    fn remove(&self, name: &str) {
        self.inner.remove(name)
    }

    fn row_count_of(&self, name: &str) -> Option<usize> {
        self.inner.row_count_of(name)
    }

    fn table_stats(&self, name: &str) -> Option<bda_storage::TableStats> {
        self.inner.table_stats(name)
    }

    fn build_index(&self, dataset: &str, column: &str, kind: bda_storage::IndexKind) -> Result<()> {
        self.inner.build_index(dataset, column, kind)
    }

    fn index_specs(&self, dataset: &str) -> Vec<bda_storage::IndexSpec> {
        self.inner.index_specs(dataset)
    }

    fn index_fingerprint(&self, dataset: &str, column: &str) -> Option<u64> {
        self.inner.index_fingerprint(dataset, column)
    }

    fn endpoint(&self) -> Option<String> {
        self.inner.endpoint()
    }

    fn execute_push(&self, plan: &Plan, peer_addr: &str, dest_name: &str) -> Option<Result<u64>> {
        self.check(plan).ok()?;
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
    use bda_storage::DataSet;

    fn registry() -> Registry {
        let mut r = Registry::new();
        let p = ReferenceProvider::new("ref");
        p.store(
            "t",
            DataSet::from_columns(vec![("k", Column::from(vec![1i64]))]).unwrap(),
        )
        .unwrap();
        r.register(Arc::new(p));
        r
    }

    #[test]
    fn provider_and_schema_lookup() {
        let r = registry();
        assert!(r.provider("ref").is_ok());
        assert!(r.provider("nope").is_err());
        assert!(r.schema_of("t").is_ok());
        assert!(r.schema_of("absent").is_err());
    }

    #[test]
    fn reference_provider_covers_everything() {
        let r = registry();
        for (op, t) in translatability(&r) {
            assert!(
                matches!(t, Translation::Native(_)),
                "{op:?} should be native on the reference provider"
            );
        }
    }

    #[test]
    fn empty_registry_translates_nothing() {
        let r = Registry::new();
        for (op, t) in translatability(&r) {
            assert_eq!(t, Translation::No, "{op:?}");
        }
    }

    #[test]
    fn masked_provider_hides_capabilities() {
        let inner = Arc::new(ReferenceProvider::new("ref"));
        inner
            .store(
                "t",
                DataSet::from_columns(vec![("k", Column::from(vec![1i64]))]).unwrap(),
            )
            .unwrap();
        let masked = MaskedProvider::new(inner, vec![OpKind::Iterate, OpKind::Distinct]);
        assert!(!masked.capabilities().supports(OpKind::Iterate));
        assert!(masked.capabilities().supports(OpKind::Select));
        let plan = Plan::scan("t", masked.schema_of("t").unwrap()).distinct();
        assert!(matches!(
            masked.execute(&plan),
            Err(CoreError::Unsupported { .. })
        ));
        let ok = Plan::scan("t", masked.schema_of("t").unwrap());
        assert_eq!(masked.execute(&ok).unwrap().num_rows(), 1);
    }

    #[test]
    fn breaker_trips_after_consecutive_failures() {
        let board = HealthBoard::new(BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(3600),
        });
        assert!(board.is_available("p"));
        assert!(!board.record_failure("p"));
        assert!(!board.record_failure("p"));
        assert!(board.is_available("p"), "still closed below threshold");
        assert!(board.record_failure("p"), "third failure trips");
        assert_eq!(board.state("p"), BreakerState::Open);
        assert!(!board.is_available("p"), "open circuit rejects traffic");
        assert_eq!(board.trips(), 1);
    }

    #[test]
    fn snapshot_lists_tracked_breakers_sorted() {
        let board = HealthBoard::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(3600),
        });
        assert!(board.snapshot().is_empty(), "no entries before any call");
        board.record_success("zeta");
        board.record_failure("alpha");
        assert_eq!(
            board.snapshot(),
            vec![
                ("alpha".to_string(), BreakerState::Open),
                ("zeta".to_string(), BreakerState::Closed),
            ]
        );
        assert_eq!(BreakerState::HalfOpen.name(), "half-open");
    }

    #[test]
    fn success_resets_failure_streak() {
        let board = HealthBoard::default();
        board.record_failure("p");
        board.record_failure("p");
        board.record_success("p");
        assert!(!board.record_failure("p"), "streak restarted");
        assert_eq!(board.state("p"), BreakerState::Closed);
    }

    #[test]
    fn open_breaker_half_opens_after_cooldown() {
        let board = HealthBoard::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::ZERO,
        });
        assert!(board.record_failure("p"));
        // Zero cooldown: the very next availability check admits a probe.
        assert!(board.is_available("p"));
        assert_eq!(board.state("p"), BreakerState::HalfOpen);
        // A failed probe re-opens (and counts as a trip) ...
        assert!(board.record_failure("p"));
        assert_eq!(board.trips(), 2);
        // ... and a successful probe closes for good.
        assert!(board.is_available("p"));
        board.record_success("p");
        assert_eq!(board.state("p"), BreakerState::Closed);
    }

    #[test]
    fn availability_filters_supporter_lookups() {
        let r = registry(); // holds "ref" with dataset "t"
        assert_eq!(r.available_supporters_of(OpKind::Select), vec!["ref"]);
        let threshold = r.health().config().failure_threshold;
        for _ in 0..threshold {
            r.health().record_failure("ref");
        }
        assert!(r.available_supporters_of(OpKind::Select).is_empty());
        // The raw lookup ignores health (capability truth is static).
        assert_eq!(r.supporters_of(OpKind::Select), vec!["ref"]);
    }

    #[test]
    fn cloned_registries_share_the_health_board() {
        let r = registry();
        let clone = r.clone();
        let threshold = r.health().config().failure_threshold;
        for _ in 0..threshold {
            clone.health().record_failure("ref");
        }
        assert_eq!(r.health().state("ref"), BreakerState::Open);
    }

    #[test]
    fn clones_share_the_catalog_memo_and_register_drops_an_entry() {
        let mut r = registry();
        let p = r.provider("ref").unwrap();
        r.read_catalog(p.as_ref());
        let clone = r.clone();
        assert!(clone.memoized_catalog("ref").unwrap().contains("t"));
        // A provider registered under the same name is read afresh.
        r.register(Arc::new(ReferenceProvider::new("ref")));
        assert!(clone.memoized_catalog("ref").is_none());
        // An empty read is not kept.
        assert!(r.read_catalog(r.providers()[1].as_ref()).is_empty());
        assert!(r.memoized_catalog("ref").is_none());
        r.read_catalog(p.as_ref());
        clone.forget_catalog("ref");
        assert!(r.memoized_catalog("ref").is_none());
    }

    #[test]
    fn lowering_targets_are_base_ops() {
        for op in OpKind::ALL {
            if let Some(targets) = lowering_target_ops(op) {
                assert!(op.is_intent(), "{op:?} lowered but is not intent");
                assert!(
                    targets.iter().all(|k| k.is_base()),
                    "{op:?} lowering targets contain intent ops: {targets:?}"
                );
            }
        }
        // Every intent op must have a lowering (translatability!).
        for op in OpKind::ALL.iter().filter(|k| k.is_intent()) {
            assert!(lowering_target_ops(*op).is_some(), "{op:?} has no lowering");
        }
    }
}
