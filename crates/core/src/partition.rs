//! Splitting a dataset into partitions for parallel execution.
//!
//! A [`Partitioner`] describes *how* rows are routed to partitions; the
//! split itself is a pure function of the data and the partitioner, so
//! the same input always produces the same partitions regardless of how
//! many workers later consume them. That property is what makes
//! partition-parallel kernels deterministic.
//!
//! Two strategies cover the engines' needs:
//!
//! - **hash**: route each row by a deterministic hash of one or more key
//!   columns. Co-partitions join inputs and disjointly partitions
//!   group-by keys. Rows whose key is entirely null go to partition 0
//!   (they still have to appear in e.g. left-join output).
//! - **block**: contiguous row blocks, ignoring values entirely. Used
//!   for dense array/matrix row-band splitting and cross joins.
//!
//! Empty partitions are legal output: a skewed or tiny input may leave
//! some of the `parts` datasets empty, and downstream kernels must cope
//! (the regression tests in this module pin that down).

use std::hash::{Hash, Hasher};

use bda_storage::{Chunk, Column, DataSet, Value};

use crate::error::CoreError;
use crate::keys;
use crate::Result;

/// A deterministic routing of rows to `parts` partitions.
#[derive(Debug, Clone, PartialEq)]
pub enum Partitioner {
    /// Hash of the named key columns, modulo `parts`.
    Hash {
        /// Key column names (all must exist in the schema).
        keys: Vec<String>,
        /// Number of partitions (>= 1).
        parts: usize,
    },
    /// Contiguous row blocks of near-equal size.
    Block {
        /// Number of partitions (>= 1).
        parts: usize,
    },
}

/// Deterministic hash of a slice of values. Uses `DefaultHasher` with
/// its fixed default keys, so the routing is stable across processes —
/// required for byte-identical results under different worker counts.
pub fn hash_values(values: &[&Value]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

impl Partitioner {
    /// Hash partitioner over several key columns (join co-partitioning).
    pub fn hash_keys(keys: &[&str], parts: usize) -> Partitioner {
        Partitioner::Hash {
            keys: keys.iter().map(|k| k.to_string()).collect(),
            parts,
        }
    }

    /// Block partitioner: contiguous row bands.
    pub fn block(parts: usize) -> Partitioner {
        Partitioner::Block { parts }
    }

    /// The number of partitions this partitioner produces.
    pub fn parts(&self) -> usize {
        match self {
            Partitioner::Hash { parts, .. } | Partitioner::Block { parts } => *parts,
        }
    }

    /// Split `ds` into exactly `parts` datasets (some possibly empty).
    ///
    /// The result depends only on the input data and the partitioner —
    /// never on worker counts or scheduling — and multi-chunk inputs are
    /// folded through [`DataSet::to_rows_chunk`] first, so chunk layout
    /// does not affect routing either. Each partition keeps its rows in
    /// input order.
    pub fn split(&self, ds: &DataSet) -> Result<Vec<DataSet>> {
        let parts = self.parts();
        if parts == 0 {
            return Err(CoreError::Plan(
                "partitioner needs at least 1 partition".into(),
            ));
        }
        let schema = ds.schema();
        let chunk = ds.to_rows_chunk()?;

        if parts == 1 {
            let out = DataSet::new(schema.clone(), vec![Chunk::Rows(chunk.into_owned())]);
            return Ok(vec![out]);
        }

        let n = chunk.len();
        let route: Vec<usize> = match self {
            Partitioner::Hash { keys, .. } => {
                let cols: Vec<&Column> = keys
                    .iter()
                    .map(|k| {
                        schema.index_of(k).map(|j| chunk.column(j)).map_err(|_| {
                            CoreError::Plan(format!("hash partitioner: unknown key column `{k}`"))
                        })
                    })
                    .collect::<Result<_>>()?;
                let nulls = |i| cols.iter().all(|c| !c.is_valid(i));
                keys::hash_rows(&cols, n)
                    .into_iter()
                    .enumerate()
                    .map(|(i, h)| {
                        if nulls(i) {
                            0
                        } else {
                            (h % parts as u64) as usize
                        }
                    })
                    .collect()
            }
            Partitioner::Block { .. } => bands(n, parts)
                .into_iter()
                .enumerate()
                .flat_map(|(b, (start, end))| std::iter::repeat_n(b, end - start))
                .collect(),
        };

        let mut members: Vec<Vec<usize>> = vec![Vec::new(); parts];
        for (i, b) in route.into_iter().enumerate() {
            members[b].push(i);
        }
        Ok(members
            .iter()
            .map(|rows| {
                let mut part = chunk.take(rows);
                part.normalize();
                DataSet::new(schema.clone(), vec![Chunk::Rows(part)])
            })
            .collect())
    }
}

/// `parts` near-equal contiguous bands `[start, end)` covering `0..len`:
/// the first `len % parts` bands are one longer. Bands may be empty when
/// `parts > len`; callers that want no empty band clamp `parts` first.
pub fn bands(len: usize, parts: usize) -> Vec<(usize, usize)> {
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for b in 0..parts {
        let end = start + base + usize::from(b < extra);
        out.push((start, end));
        start = end;
    }
    out
}

/// Concatenate partition outputs back into one dataset, one chunk per
/// non-empty partition, preserving partition order. The inverse of a
/// split for bag semantics (row order follows partition order).
pub fn merge_partitions(schema: bda_storage::Schema, parts: Vec<DataSet>) -> Result<DataSet> {
    let mut out = DataSet::empty(schema);
    for p in parts {
        let chunk = p.into_rows_chunk()?;
        if !chunk.is_empty() {
            out.push_chunk(Chunk::Rows(chunk));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_storage::{DataType, Field, Row, RowsChunk, Schema};

    fn kv_schema() -> Schema {
        Schema::new(vec![
            Field::value("k", DataType::Int64),
            Field::value("v", DataType::Float64),
        ])
        .unwrap()
    }

    fn kv_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row(vec![
                    Value::Int((i % 5) as i64),
                    Value::Float(i as f64 * 0.5),
                ])
            })
            .collect()
    }

    fn dataset(rows: &[Row]) -> DataSet {
        DataSet::from_rows(kv_schema(), rows).unwrap()
    }

    fn total_rows(parts: &[DataSet]) -> usize {
        parts.iter().map(|p| p.num_rows()).sum()
    }

    #[test]
    fn hash_split_is_exhaustive_and_deterministic() {
        let ds = dataset(&kv_rows(57));
        let p = Partitioner::hash_keys(&["k"], 4);
        let a = p.split(&ds).unwrap();
        let b = p.split(&ds).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(total_rows(&a), 57);
        for (x, y) in a.iter().zip(&b) {
            assert!(x.same_bag(y).unwrap());
        }
        // Same key always lands in the same bucket.
        for part in &a {
            let chunk = part.to_rows_chunk().unwrap();
            for i in 0..chunk.len() {
                let row = chunk.row(i);
                let expect = (hash_values(&[row.get(0)]) % 4) as usize;
                let actual = a.iter().position(|q| std::ptr::eq(q, part)).unwrap();
                assert_eq!(actual, expect);
            }
        }
    }

    #[test]
    fn empty_input_yields_all_empty_partitions() {
        let ds = dataset(&[]);
        for p in [Partitioner::hash_keys(&["k"], 3), Partitioner::block(3)] {
            let parts = p.split(&ds).unwrap();
            assert_eq!(parts.len(), 3);
            assert_eq!(total_rows(&parts), 0);
        }
    }

    #[test]
    fn singleton_input_leaves_empty_partitions() {
        let ds = dataset(&kv_rows(1));
        let parts = Partitioner::hash_keys(&["k"], 7).split(&ds).unwrap();
        assert_eq!(parts.len(), 7);
        assert_eq!(total_rows(&parts), 1);
        assert_eq!(parts.iter().filter(|p| p.num_rows() == 0).count(), 6);
    }

    #[test]
    fn all_equal_keys_skew_into_one_partition() {
        let rows: Vec<Row> = (0..20)
            .map(|i| Row(vec![Value::Int(42), Value::Float(i as f64)]))
            .collect();
        let ds = dataset(&rows);
        let parts = Partitioner::hash_keys(&["k"], 4).split(&ds).unwrap();
        assert_eq!(total_rows(&parts), 20);
        assert_eq!(
            parts.iter().filter(|p| p.num_rows() == 20).count(),
            1,
            "all-equal keys must all land in exactly one partition"
        );
    }

    #[test]
    fn null_keys_go_to_partition_zero() {
        let rows = vec![
            Row(vec![Value::Null, Value::Float(1.0)]),
            Row(vec![Value::Int(1), Value::Float(2.0)]),
            Row(vec![Value::Null, Value::Float(3.0)]),
        ];
        let parts = Partitioner::hash_keys(&["k"], 3)
            .split(&dataset(&rows))
            .unwrap();
        assert_eq!(total_rows(&parts), 3);
        let p0 = parts[0].to_rows_chunk().unwrap();
        let nulls_in_p0 = (0..p0.len())
            .filter(|&i| p0.row(i).get(0).is_null())
            .count();
        assert_eq!(nulls_in_p0, 2);
    }

    #[test]
    fn partitions_track_nulls_only_where_they_hold_one() {
        // As if each partition's rows had been pushed one at a time: a
        // column keeps its validity bitmap only in the partitions that
        // received one of its nulls.
        let rows = vec![
            Row(vec![Value::Int(1), Value::Null]),
            Row(vec![Value::Int(2), Value::Float(2.0)]),
            Row(vec![Value::Int(3), Value::Float(3.0)]),
        ];
        let parts = Partitioner::block(3).split(&dataset(&rows)).unwrap();
        let tracked: Vec<bool> = parts
            .iter()
            .map(|p| p.to_rows_chunk().unwrap().column(1).validity().is_some())
            .collect();
        assert_eq!(tracked, vec![true, false, false]);
    }

    #[test]
    fn block_split_preserves_order_and_balances() {
        let ds = dataset(&kv_rows(10));
        let parts = Partitioner::block(3).split(&ds).unwrap();
        let sizes: Vec<usize> = parts.iter().map(|p| p.num_rows()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        let merged = merge_partitions(kv_schema(), parts).unwrap();
        let chunk = merged.to_rows_chunk().unwrap();
        let rows: Vec<Row> = (0..chunk.len()).map(|i| chunk.row(i)).collect();
        assert_eq!(rows, kv_rows(10));
    }

    #[test]
    fn multi_chunk_input_routes_identically_to_single_chunk() {
        let rows = kv_rows(30);
        let single = dataset(&rows);
        let mut multi = DataSet::empty(kv_schema());
        for half in rows.chunks(11) {
            let mut c = RowsChunk::empty(&kv_schema());
            for r in half {
                c.push_row(r).unwrap();
            }
            multi.push_chunk(Chunk::Rows(c));
        }
        let p = Partitioner::hash_keys(&["k"], 4);
        let a = p.split(&single).unwrap();
        let b = p.split(&multi).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!(x.same_bag(y).unwrap());
        }
    }

    #[test]
    fn zero_parts_is_an_error_and_unknown_key_is_an_error() {
        let ds = dataset(&kv_rows(3));
        assert!(Partitioner::hash_keys(&["k"], 0).split(&ds).is_err());
        assert!(Partitioner::hash_keys(&["nope"], 2).split(&ds).is_err());
    }

    #[test]
    fn multi_key_hash_co_partitions() {
        let ds = dataset(&kv_rows(25));
        let parts = Partitioner::hash_keys(&["k", "v"], 5).split(&ds).unwrap();
        assert_eq!(total_rows(&parts), 25);
        // Identical (k, v) pairs land together: re-split a partition and
        // its rows stay put.
        for (i, part) in parts.iter().enumerate() {
            let again = Partitioner::hash_keys(&["k", "v"], 5).split(part).unwrap();
            assert_eq!(again[i].num_rows(), part.num_rows());
        }
    }
}
