//! The provider model: what it means to be a back-end server.
//!
//! A [`Provider`] is the paper's "LINQ Provider" analogue: it advertises a
//! catalog of datasets and a [`CapabilitySet`] of algebra operators it can
//! execute natively, accepts whole plan trees, and returns materialized
//! collections. The federation layer composes providers; nothing in this
//! trait assumes a particular engine technology.

use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt;

use bda_storage::{DataSet, IndexKind, IndexSpec, Schema, TableStats};

use crate::engine::Datasets;
use crate::error::CoreError;
use crate::plan::{OpKind, Plan};

/// Result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// The set of operator kinds a provider executes natively.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CapabilitySet {
    ops: BTreeSet<OpKind>,
}

impl CapabilitySet {
    /// The empty capability set.
    pub fn new() -> CapabilitySet {
        CapabilitySet::default()
    }

    /// Build from a list of kinds.
    pub fn from_ops(ops: &[OpKind]) -> CapabilitySet {
        CapabilitySet {
            ops: ops.iter().copied().collect(),
        }
    }

    /// Every base (non-intent) operator — the common relational/array core.
    pub fn all_base() -> CapabilitySet {
        CapabilitySet {
            ops: OpKind::ALL
                .iter()
                .copied()
                .filter(|k| k.is_base())
                .collect(),
        }
    }

    /// Every operator, intent included.
    pub fn all() -> CapabilitySet {
        CapabilitySet {
            ops: OpKind::ALL.iter().copied().collect(),
        }
    }

    /// Add a capability.
    pub fn with(mut self, op: OpKind) -> CapabilitySet {
        self.ops.insert(op);
        self
    }

    /// Remove a capability.
    pub fn without(mut self, op: OpKind) -> CapabilitySet {
        self.ops.remove(&op);
        self
    }

    /// Does this set include `op`?
    pub fn supports(&self, op: OpKind) -> bool {
        self.ops.contains(&op)
    }

    /// Does this set cover every node of `plan`?
    pub fn supports_plan(&self, plan: &Plan) -> bool {
        plan.op_kinds().iter().all(|k| self.supports(*k))
    }

    /// Refuse `plan` unless this set covers every node of it: the
    /// `Unsupported` error names `provider` and every missing kind.
    pub fn check(&self, provider: &str, plan: &Plan) -> Result<()> {
        let mut missing: Vec<OpKind> = plan
            .op_kinds()
            .into_iter()
            .filter(|k| !self.supports(*k))
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        missing.sort();
        missing.dedup();
        Err(CoreError::Unsupported {
            provider: provider.to_string(),
            op: missing
                .iter()
                .map(|k| k.name())
                .collect::<Vec<_>>()
                .join(", "),
        })
    }

    /// Iterate over the kinds.
    pub fn iter(&self) -> impl Iterator<Item = OpKind> + '_ {
        self.ops.iter().copied()
    }

    /// Number of supported kinds.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no kinds are supported.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl fmt::Display for CapabilitySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.ops.iter().map(|k| k.name()).collect();
        write!(f, "{{{}}}", names.join(", "))
    }
}

/// A back-end server: catalog + capabilities + plan execution.
///
/// `execute` and `store` take `&self`: providers are shared across threads
/// by the parallel executor and the serving cores, so implementations use
/// interior mutability for their catalogs.
///
/// Tracing is not part of the contract. A traced caller installs the
/// ambient [`bda_obs::scope`] around a plain `execute`/`execute_push`;
/// engines open their per-operator spans through it ([`trace_op`]) and
/// the network client forwards it over the wire. A decorator forwards
/// `execute` and the trace follows on its own.
pub trait Provider: Send + Sync {
    /// Stable provider name (used for site annotations and metrics).
    fn name(&self) -> &str;

    /// Operators this provider executes natively.
    fn capabilities(&self) -> CapabilitySet;

    /// The datasets this provider holds, with their schemas.
    fn catalog(&self) -> Vec<(String, Schema)>;

    /// Execute a plan tree whose scans all resolve in this provider's
    /// catalog, returning a materialized collection (no cursors).
    fn execute(&self, plan: &Plan) -> Result<DataSet>;

    /// Ingest a dataset (used for loading and for direct server-to-server
    /// transfer of intermediate results — desideratum 4).
    fn store(&self, name: &str, data: DataSet) -> Result<()>;

    /// Drop a dataset if present (cleanup of shipped intermediates).
    fn remove(&self, name: &str);

    /// Whether [`Provider::store`] and [`Provider::remove`] apply one at
    /// a time (a durable engine commits them under its WAL lock), so
    /// concurrent stores only queue inside the provider. A serving core
    /// then keeps a worker off bulk work for reads.
    fn serializes_stores(&self) -> bool {
        false
    }

    /// Schema of a named dataset, if present.
    fn schema_of(&self, name: &str) -> Option<Schema> {
        self.catalog()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// Row count of a named dataset, if known. Drives the federation's
    /// data-locality heuristic; `None` means "no statistics".
    fn row_count_of(&self, name: &str) -> Option<usize> {
        let _ = name;
        None
    }

    /// Table-level statistics (row count, per-column zone maps and NDV
    /// estimates) for a named dataset. `None` means the provider keeps
    /// no statistics; planners must fall back to [`Provider::row_count_of`]
    /// or heuristics.
    fn table_stats(&self, name: &str) -> Option<TableStats> {
        let _ = name;
        None
    }

    /// Build (or rebuild) a secondary index of `kind` on `column` of the
    /// named dataset. Providers without index support return an error;
    /// callers treat that as "lower onto a scan instead".
    fn build_index(&self, dataset: &str, column: &str, kind: IndexKind) -> Result<()> {
        Err(CoreError::Unsupported {
            provider: self.name().to_string(),
            op: format!("secondary indexes ({} on {dataset}.{column})", kind.name()),
        })
    }

    /// The secondary indexes currently built on a named dataset.
    fn index_specs(&self, dataset: &str) -> Vec<IndexSpec> {
        let _ = dataset;
        Vec::new()
    }

    /// A deterministic fingerprint of the index on `dataset.column`, if
    /// one exists. Two indexes over identical data built by identical
    /// specs fingerprint identically — the recovery tests compare a
    /// post-crash rebuild against a from-scratch build through this.
    fn index_fingerprint(&self, dataset: &str, column: &str) -> Option<u64> {
        let _ = (dataset, column);
        None
    }

    /// Network address (`host:port`) at which this provider's server can
    /// be reached by *other providers*, or `None` for in-process
    /// providers. A `Some` endpoint enables direct server-to-server
    /// intermediate transfer (desideratum 4) over a real transport.
    fn endpoint(&self) -> Option<String> {
        None
    }

    /// Execute `plan` and push the result directly to the peer provider
    /// listening at `peer_addr`, storing it there under `dest_name` —
    /// without the bytes ever touching the application tier. Returns
    /// `None` when this provider has no transport (in-process providers);
    /// `Some(Ok(bytes))` with the pushed payload size on success.
    fn execute_push(&self, plan: &Plan, peer_addr: &str, dest_name: &str) -> Option<Result<u64>> {
        let _ = (plan, peer_addr, dest_name);
        None
    }

    /// Cumulative real transport traffic `(sent, received)` in bytes for
    /// requests issued through this provider. Zero for in-process
    /// providers; remote providers count actual framed wire bytes.
    fn wire_bytes(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Evaluate one plan node under an `op:{kind}` span of the ambient
/// [`bda_obs::scope`], recording its output cardinality on success. Every
/// engine's recursive executor (and the reference evaluator) wraps each
/// node in this; with no scope installed it is one thread-local check
/// and `eval` runs bare. `eval` may hand back a borrowed dataset (a
/// stored table read in place).
pub fn trace_op<T: Borrow<DataSet>>(plan: &Plan, eval: impl FnOnce() -> Result<T>) -> Result<T> {
    let mut node = bda_obs::scope::enter(|| format!("op:{}", plan.op_kind().name()));
    let out = eval();
    if let (Some(n), Ok(ds)) = (node.as_mut(), &out) {
        n.rows(ds.borrow().num_rows());
    }
    out
}

/// A provider backed by the reference evaluator: supports the entire
/// algebra (intent operators included) at oracle speed. Useful in tests,
/// as the portability baseline, and as the federation's fallback site.
pub struct ReferenceProvider {
    name: String,
    data: Datasets,
}

impl ReferenceProvider {
    /// An empty reference provider with the given name.
    pub fn new(name: impl Into<String>) -> ReferenceProvider {
        ReferenceProvider {
            name: name.into(),
            data: Datasets::new(),
        }
    }
}

impl Provider for ReferenceProvider {
    fn name(&self) -> &str {
        &self.name
    }

    fn capabilities(&self) -> CapabilitySet {
        CapabilitySet::all()
    }

    fn catalog(&self) -> Vec<(String, Schema)> {
        self.data.catalog()
    }

    fn execute(&self, plan: &Plan) -> Result<DataSet> {
        crate::reference::evaluate(plan, &*self.data.read())
    }

    fn store(&self, name: &str, data: DataSet) -> Result<()> {
        self.data.insert(name, data);
        Ok(())
    }

    fn remove(&self, name: &str) {
        self.data.remove(name);
    }

    fn row_count_of(&self, name: &str) -> Option<usize> {
        self.data.row_count_of(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use bda_storage::Column;

    #[test]
    fn capability_set_operations() {
        let base = CapabilitySet::all_base();
        assert!(base.supports(OpKind::Join));
        assert!(!base.supports(OpKind::MatMul));
        let with_mm = base.clone().with(OpKind::MatMul);
        assert!(with_mm.supports(OpKind::MatMul));
        let without_join = with_mm.without(OpKind::Join);
        assert!(!without_join.supports(OpKind::Join));
        assert!(CapabilitySet::all().len() == OpKind::ALL.len());
        assert!(CapabilitySet::new().is_empty());
    }

    #[test]
    fn supports_plan_and_check() {
        let schema = bda_storage::Schema::new(vec![bda_storage::Field::value(
            "k",
            bda_storage::DataType::Int64,
        )])
        .unwrap();
        let plan = Plan::scan("t", schema.clone()).select(col("k").gt(lit(0i64)));
        let caps = CapabilitySet::from_ops(&[OpKind::Scan, OpKind::Select]);
        assert!(caps.supports_plan(&plan));
        assert!(caps.check("p", &plan).is_ok());
        let bigger = plan
            .distinct()
            .union(Plan::scan("t", schema).distinct().limit(1));
        assert!(!caps.supports_plan(&bigger));
        // Every missing kind once, in kind order, joined by ", ".
        match caps.check("p", &bigger) {
            Err(CoreError::Unsupported { provider, op }) => {
                assert_eq!(provider, "p");
                assert_eq!(op, "union, distinct, limit");
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn reference_provider_end_to_end() {
        let p = ReferenceProvider::new("ref");
        let ds = DataSet::from_columns(vec![("k", Column::from(vec![1i64, 2, 3]))]).unwrap();
        p.store("t", ds.clone()).unwrap();
        assert_eq!(p.catalog().len(), 1);
        assert_eq!(p.schema_of("t"), Some(ds.schema().clone()));
        let plan = Plan::scan("t", ds.schema().clone()).select(col("k").gt(lit(1i64)));
        let out = p.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 2);
        p.remove("t");
        assert!(p.catalog().is_empty());
        assert!(p.execute(&plan).is_err());
    }

    #[test]
    fn display_capabilities() {
        let caps = CapabilitySet::from_ops(&[OpKind::MatMul, OpKind::Scan]);
        let s = caps.to_string();
        assert!(s.contains("matmul") && s.contains("scan"), "{s}");
    }
}
