//! Load-time table metadata: zone maps, table statistics, and secondary
//! indexes, computed when a table is stored and consulted at scan time.
//!
//! The engine keeps one [`TableMeta`] per table, recomputed on every
//! `store` (the paper's "load-time statistics": a table mutation is the
//! one moment the engine sees every row anyway). Because the executor's
//! recursive `execute` signature takes only the plan and the table map,
//! metadata reaches the `Select` fast path the same way tracing scopes
//! do — through a thread-local installed by the engine around each
//! query ([`install`] / [`lookup`]), so untraced callers and other
//! engines pay one thread-local check and nothing else.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use bda_storage::stats::{self, ChunkStats};
use bda_storage::{DataSet, IndexSpec, SecondaryIndex, StorageError, TableStats};

/// Everything the statistics layer knows about one stored table.
pub struct TableMeta {
    /// Whole-table statistics (row count, merged per-column zone maps).
    pub stats: TableStats,
    /// Per-chunk zone maps, aligned with the dataset's chunk list.
    pub chunks: Vec<ChunkStats>,
    /// Secondary indexes, keyed by column name (at most one per column).
    pub indexes: BTreeMap<String, SecondaryIndex>,
}

impl TableMeta {
    /// Summarize `ds` and build the indexes `specs` ask for. Index specs
    /// naming columns the dataset no longer has are dropped silently —
    /// a re-store with a narrower schema must not fail the store.
    pub fn compute(ds: &DataSet, specs: &[IndexSpec]) -> Result<TableMeta, StorageError> {
        let (chunks, stats) = stats::summarize(ds)?;
        let schema = ds.schema();
        let mut indexes = BTreeMap::new();
        for spec in specs {
            if schema.index_of(&spec.column).is_err() {
                continue;
            }
            let idx = SecondaryIndex::build(ds, spec.clone())?;
            indexes.insert(spec.column.clone(), idx);
        }
        Ok(TableMeta {
            stats,
            chunks,
            indexes,
        })
    }

    /// The specs of the indexes currently built.
    pub fn specs(&self) -> Vec<IndexSpec> {
        self.indexes.values().map(|i| i.spec().clone()).collect()
    }
}

/// A snapshot of every table's metadata, shared cheaply across queries.
pub type MetaMap = Arc<BTreeMap<String, Arc<TableMeta>>>;

thread_local! {
    static METAS: RefCell<Option<MetaMap>> = const { RefCell::new(None) };
}

/// The installed metadata snapshot; dropping restores the previous one
/// (queries nest when an engine executes inside another's callback).
pub struct Installed {
    prev: Option<MetaMap>,
}

impl Drop for Installed {
    fn drop(&mut self) {
        METAS.with(|m| *m.borrow_mut() = self.prev.take());
    }
}

/// Install a metadata snapshot for the current thread until the guard
/// drops.
pub fn install(metas: MetaMap) -> Installed {
    METAS.with(|m| Installed {
        prev: m.borrow_mut().replace(metas),
    })
}

/// The installed metadata for one table, if any.
pub fn lookup(table: &str) -> Option<Arc<TableMeta>> {
    METAS.with(|m| m.borrow().as_ref().and_then(|map| map.get(table).cloned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_storage::{Column, IndexKind, Value};

    fn ds() -> DataSet {
        let mut d = DataSet::from_columns(vec![
            ("k", Column::from(vec![1i64, 2, 3])),
            ("v", Column::from(vec![1.0f64, 2.0, 3.0])),
        ])
        .unwrap();
        let extra = DataSet::from_columns(vec![
            ("k", Column::from(vec![10i64, 20])),
            ("v", Column::from(vec![10.0f64, 20.0])),
        ])
        .unwrap();
        d.push_chunk(extra.chunks()[0].clone());
        d
    }

    #[test]
    fn compute_covers_chunks_stats_and_indexes() {
        let spec = IndexSpec {
            column: "k".into(),
            kind: IndexKind::Hash,
        };
        let gone = IndexSpec {
            column: "nope".into(),
            kind: IndexKind::Sorted,
        };
        let meta = TableMeta::compute(&ds(), &[spec, gone]).unwrap();
        assert_eq!(meta.chunks.len(), 2);
        assert_eq!(meta.stats.row_count, 5);
        assert_eq!(meta.stats.column("k").unwrap().max, Some(Value::Int(20)));
        assert_eq!(meta.chunks[0].columns[0].max, Some(Value::Int(3)));
        assert_eq!(meta.indexes.len(), 1, "unknown-column spec dropped");
        assert_eq!(meta.specs().len(), 1);
    }

    #[test]
    fn install_scopes_nest_and_restore() {
        assert!(lookup("t").is_none());
        let meta = Arc::new(TableMeta::compute(&ds(), &[]).unwrap());
        let outer: MetaMap = Arc::new([("t".to_string(), meta)].into_iter().collect());
        {
            let _g = install(Arc::clone(&outer));
            assert!(lookup("t").is_some());
            {
                let _inner = install(Arc::new(BTreeMap::new()));
                assert!(lookup("t").is_none(), "inner snapshot shadows");
            }
            assert!(lookup("t").is_some(), "outer snapshot restored");
        }
        assert!(lookup("t").is_none());
    }
}
