//! Stored tables: the rows plus their load-time metadata — zone maps,
//! table statistics and secondary indexes — in one [`Table`] value.
//!
//! The metadata is computed when a table is stored (the paper's
//! "load-time statistics": a table mutation is the one moment the engine
//! sees every row anyway) and never changes afterwards: a store or index
//! build makes a new `Table` and swaps it in whole. Whoever holds a
//! `Table` therefore holds metadata that describes exactly its rows, and
//! the executor reads both from the one map it is handed.

use std::collections::BTreeMap;
use std::sync::Arc;

use bda_storage::stats::{self, ChunkStats};
use bda_storage::{DataSet, IndexSpec, SecondaryIndex, StorageError, TableStats};

/// One stored table: its rows and what the statistics layer knows about
/// exactly those rows.
pub struct Table {
    /// The rows, shared with every value later built from them (an index
    /// build keeps the rows and replaces only the metadata).
    pub(crate) data: Arc<DataSet>,
    /// Zone maps, statistics and indexes of `data`.
    pub(crate) meta: TableMeta,
}

impl Table {
    /// Summarize `data` and build the indexes `specs` ask for.
    pub fn new(data: Arc<DataSet>, specs: &[IndexSpec]) -> Result<Table, StorageError> {
        let meta = TableMeta::compute(&data, specs)?;
        Ok(Table { data, meta })
    }
}

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
}
