//! # `bda-relational`: "RelStore", the relational back-end Provider
//!
//! A columnar relational engine playing the role of the SQL-server-class
//! LINQ Provider from the paper. It executes the base relational algebra
//! (scan/filter/project/join/aggregate/set ops/sort/limit) plus generic
//! control iteration, with vectorized expression evaluation, hash joins
//! and hash aggregation. It has **no** native array or graph intent
//! operators — those reach it only in lowered form, which is exactly what
//! experiments F1/F4 exercise.

pub mod exec;
pub mod join;
pub mod meta;
pub mod parallel;
pub mod sort;

use bda_core::{CapabilitySet, CoreError, OpKind, Plan, Provider};
use bda_storage::{DataSet, IndexKind, IndexSpec, Schema, TableStats};
use meta::Table;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Every stored table by name; the executor reads rows and metadata from
/// this one map.
pub type Tables = BTreeMap<String, Arc<Table>>;

/// The relational engine.
pub struct RelationalEngine {
    name: String,
    /// One lock over one map: a table's rows and metadata are swapped
    /// together, and one read guard held across `execute` gives every
    /// scan of the plan the same snapshot.
    tables: RwLock<Tables>,
    /// Gates *use* of statistics at query time (metadata is always
    /// maintained, so flipping this is purely a planner/executor switch
    /// — the knob the differential harness and F11 ablation turn).
    stats_enabled: AtomicBool,
}

impl RelationalEngine {
    /// An empty engine named `name`.
    pub fn new(name: impl Into<String>) -> RelationalEngine {
        RelationalEngine {
            name: name.into(),
            tables: RwLock::new(BTreeMap::new()),
            stats_enabled: AtomicBool::new(bda_core::stats_from_env()),
        }
    }

    /// Enable or disable statistics-driven execution (zone-map pruning
    /// and index lowering) for this engine.
    pub fn set_stats_enabled(&self, on: bool) {
        self.stats_enabled.store(on, Ordering::Relaxed);
    }

    /// Is statistics-driven execution on?
    pub fn stats_enabled(&self) -> bool {
        self.stats_enabled.load(Ordering::Relaxed)
    }

    /// Build a new value for `name` from its current entry, outside the
    /// lock, and swap it in only if the entry is still the one `build`
    /// read; otherwise build again. So no writer installs metadata made
    /// from rows that another writer has since replaced.
    fn replace(
        &self,
        name: &str,
        mut build: impl FnMut(Option<&Table>) -> Result<Table, CoreError>,
    ) -> Result<(), CoreError> {
        loop {
            // Holding `seen` keeps its address from being reused by a
            // newer entry, so equal pointers mean the same value.
            let seen = self.get(name);
            let next = Arc::new(build(seen.as_deref())?);
            let mut tables = self.tables.write();
            if tables.get(name).map(Arc::as_ptr) == seen.as_ref().map(Arc::as_ptr) {
                tables.insert(name.to_string(), next);
                return Ok(());
            }
        }
    }

    /// One stored table, if present.
    fn get(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.read().get(name).cloned()
    }

    /// The capability set of every relational engine instance.
    pub fn static_capabilities() -> CapabilitySet {
        CapabilitySet::from_ops(&[
            OpKind::Scan,
            OpKind::Values,
            OpKind::Range,
            OpKind::IterState,
            OpKind::Select,
            OpKind::Project,
            OpKind::Join,
            OpKind::Aggregate,
            OpKind::Union,
            OpKind::Distinct,
            OpKind::Sort,
            OpKind::Limit,
            OpKind::Rename,
            OpKind::Dice,
            OpKind::TagDims,
            OpKind::UntagDims,
            OpKind::Iterate,
        ])
    }

    /// Look up a table (cloned snapshot).
    pub fn table(&self, name: &str) -> Option<DataSet> {
        self.get(name).map(|t| (*t.data).clone())
    }
}

impl Provider for RelationalEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn capabilities(&self) -> CapabilitySet {
        Self::static_capabilities()
    }

    fn catalog(&self) -> Vec<(String, Schema)> {
        self.tables
            .read()
            .iter()
            .map(|(n, t)| (n.clone(), t.data.schema().clone()))
            .collect()
    }

    fn execute(&self, plan: &Plan) -> Result<DataSet, CoreError> {
        self.capabilities().check(&self.name, plan)?;
        exec::execute(plan, &self.tables.read(), self.stats_enabled(), None)
    }

    fn store(&self, name: &str, data: DataSet) -> Result<(), CoreError> {
        // Load-time statistics: recompute the table's metadata on every
        // store, carrying existing index specs across the re-store.
        let data = Arc::new(data);
        self.replace(name, |seen| {
            let specs = seen.map(|t| t.meta.specs()).unwrap_or_default();
            Ok(Table::new(Arc::clone(&data), &specs)?)
        })
    }

    fn remove(&self, name: &str) {
        self.tables.write().remove(name);
    }

    fn table_stats(&self, name: &str) -> Option<TableStats> {
        self.get(name).map(|t| t.meta.stats.clone())
    }

    fn build_index(&self, dataset: &str, column: &str, kind: IndexKind) -> Result<(), CoreError> {
        self.replace(dataset, |seen| {
            let seen = seen.ok_or_else(|| CoreError::UnknownDataset(dataset.to_string()))?;
            seen.data.schema().index_of(column)?;
            let mut specs = seen.meta.specs();
            specs.retain(|s| s.column != column);
            specs.push(IndexSpec {
                column: column.to_string(),
                kind,
            });
            Ok(Table::new(Arc::clone(&seen.data), &specs)?)
        })
    }

    fn index_specs(&self, dataset: &str) -> Vec<IndexSpec> {
        self.get(dataset)
            .map(|t| t.meta.specs())
            .unwrap_or_default()
    }

    fn index_fingerprint(&self, dataset: &str, column: &str) -> Option<u64> {
        self.get(dataset)?
            .meta
            .indexes
            .get(column)
            .map(|i| i.fingerprint())
    }

    fn row_count_of(&self, name: &str) -> Option<usize> {
        self.get(name).map(|t| t.data.num_rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::{col, lit};
    use bda_storage::Column;

    fn engine_with_sales() -> RelationalEngine {
        let e = RelationalEngine::new("rel");
        let ds = DataSet::from_columns(vec![
            ("region", Column::from(vec!["w", "e", "w"])),
            ("amount", Column::from(vec![10i64, 20, 30])),
        ])
        .unwrap();
        e.store("sales", ds).unwrap();
        e
    }

    #[test]
    fn provider_basics() {
        let e = engine_with_sales();
        assert_eq!(e.name(), "rel");
        assert_eq!(e.catalog().len(), 1);
        assert!(e.capabilities().supports(OpKind::Join));
        assert!(!e.capabilities().supports(OpKind::MatMul));
    }

    #[test]
    fn executes_supported_plans() {
        let e = engine_with_sales();
        let schema = e.schema_of("sales").unwrap();
        let plan = Plan::scan("sales", schema).select(col("amount").gt(lit(15i64)));
        let out = e.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn rejects_intent_ops() {
        let e = engine_with_sales();
        let m = bda_storage::dataset::matrix_dataset(2, 2, vec![1., 2., 3., 4.]).unwrap();
        e.store("m", m.clone()).unwrap();
        let plan = Plan::scan("m", m.schema().clone()).matmul(Plan::scan("m", m.schema().clone()));
        let err = e.execute(&plan).unwrap_err();
        assert!(matches!(err, CoreError::Unsupported { .. }), "{err}");
    }

    #[test]
    fn table_stats_follow_store_and_remove() {
        let e = engine_with_sales();
        let stats = e.table_stats("sales").unwrap();
        assert_eq!(stats.row_count, 3);
        assert_eq!(
            stats.column("amount").unwrap().max,
            Some(bda_storage::Value::Int(30))
        );
        e.remove("sales");
        assert!(e.table_stats("sales").is_none());
    }

    #[test]
    fn build_index_survives_restore_and_fingerprints_deterministically() {
        let e = engine_with_sales();
        e.build_index("sales", "amount", IndexKind::Sorted).unwrap();
        assert_eq!(e.index_specs("sales").len(), 1);
        let before = e.index_fingerprint("sales", "amount").unwrap();
        // Re-storing the same data rebuilds the index to the same shape.
        let ds = e.table("sales").unwrap();
        e.store("sales", ds).unwrap();
        assert_eq!(e.index_fingerprint("sales", "amount"), Some(before));
        // Unknown dataset / column are loud.
        assert!(e.build_index("nope", "amount", IndexKind::Hash).is_err());
        assert!(e.build_index("sales", "nope", IndexKind::Hash).is_err());
        assert!(e.index_fingerprint("sales", "region").is_none());
    }

    #[test]
    fn pruned_execution_matches_plain_execution() {
        let e = engine_with_sales();
        // Multi-chunk table so zone maps have something to skip.
        let mut ds = DataSet::from_columns(vec![("k", Column::from(vec![1i64, 2, 3]))]).unwrap();
        let hi = DataSet::from_columns(vec![("k", Column::from(vec![100i64, 200]))]).unwrap();
        ds.push_chunk(hi.chunks()[0].clone());
        e.store("t", ds).unwrap();
        let plan = Plan::scan("t", e.schema_of("t").unwrap()).select(col("k").gt(lit(50i64)));
        e.set_stats_enabled(true);
        let pruned = e.execute(&plan).unwrap();
        e.set_stats_enabled(false);
        let plain = e.execute(&plan).unwrap();
        assert_eq!(
            pruned.normalized_rows().unwrap(),
            plain.normalized_rows().unwrap()
        );
        assert_eq!(pruned.num_rows(), 2);
        // Index path agrees too.
        e.set_stats_enabled(true);
        e.build_index("t", "k", IndexKind::Hash).unwrap();
        let eq_plan = Plan::scan("t", e.schema_of("t").unwrap()).select(col("k").eq(lit(200i64)));
        assert_eq!(e.execute(&eq_plan).unwrap().num_rows(), 1);
    }

    #[test]
    fn store_overwrites_and_remove_drops() {
        let e = engine_with_sales();
        let small = DataSet::from_columns(vec![("region", Column::from(vec!["x"]))]).unwrap();
        e.store("sales", small.clone()).unwrap();
        assert_eq!(e.table("sales").unwrap().num_rows(), 1);
        e.remove("sales");
        assert!(e.table("sales").is_none());
    }
}
