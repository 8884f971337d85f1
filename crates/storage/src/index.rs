//! Secondary indexes over relational columns: hash (point lookups) and
//! sorted (point + range lookups).
//!
//! An index maps column values to row positions in the dataset's
//! *flattened* row order (the order [`DataSet::to_rows_chunk`]
//! produces: chunk concatenation). Null slots are excluded — a
//! comparison against a non-null literal can never select a null row,
//! and those are the only predicates indexes serve.
//!
//! The contract is **completeness only**: a lookup returns every
//! position that could satisfy the predicate; the caller re-evaluates
//! the full predicate on the candidates. Both representations order
//! values by [`Value::total_cmp`] — the same total order the expression
//! engine compares with — so range cuts agree with execution exactly,
//! NaN included.
//!
//! [`SecondaryIndex::fingerprint`] is a deterministic digest of the
//! canonical (value, position) mapping, hashed with the fixed-key
//! [`DefaultHasher`]: two builds over the same data — in different
//! processes, before and after crash recovery — produce the same
//! fingerprint byte-for-byte.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::dataset::DataSet;
use crate::error::StorageError;
use crate::stats::CmpOp;
use crate::value::Value;
use crate::Result;

/// The two index shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Value -> positions hash table; serves equality only.
    Hash,
    /// (value, position) pairs sorted by `total_cmp`; serves equality
    /// and ranges.
    Sorted,
}

impl IndexKind {
    /// Every kind, indexed by its wire byte.
    pub const ALL: [IndexKind; 2] = [IndexKind::Hash, IndexKind::Sorted];

    /// Stable wire byte.
    pub fn as_u8(self) -> u8 {
        match self {
            IndexKind::Hash => 0,
            IndexKind::Sorted => 1,
        }
    }

    /// Inverse of [`IndexKind::as_u8`].
    pub fn from_u8(b: u8) -> Option<IndexKind> {
        IndexKind::ALL.get(b as usize).copied()
    }

    /// Human-readable name (`hash` / `sorted`).
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::Hash => "hash",
            IndexKind::Sorted => "sorted",
        }
    }

    /// Inverse of [`IndexKind::name`].
    pub fn parse(s: &str) -> Option<IndexKind> {
        match s {
            "hash" => Some(IndexKind::Hash),
            "sorted" => Some(IndexKind::Sorted),
            _ => None,
        }
    }
}

/// What to build: which column, which shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSpec {
    /// The indexed column's field name.
    pub column: String,
    /// Hash or sorted.
    pub kind: IndexKind,
}

/// A built secondary index.
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    spec: IndexSpec,
    rows: usize,
    hash: Option<HashMap<Value, Vec<u32>>>,
    sorted: Option<Vec<(Value, u32)>>,
}

impl SecondaryIndex {
    /// Build over the dataset's flattened row order.
    pub fn build(ds: &DataSet, spec: IndexSpec) -> Result<SecondaryIndex> {
        let col = ds.collect_column(&spec.column)?;
        if col.len() > u32::MAX as usize {
            return Err(StorageError::Invalid(format!(
                "cannot index {} rows (position overflow)",
                col.len()
            )));
        }
        let mut index = SecondaryIndex {
            spec,
            rows: col.len(),
            hash: None,
            sorted: None,
        };
        match index.spec.kind {
            IndexKind::Hash => {
                let mut table: HashMap<Value, Vec<u32>> = HashMap::new();
                for (i, v) in col.iter().enumerate() {
                    if !v.is_null() {
                        table.entry(v).or_default().push(i as u32);
                    }
                }
                index.hash = Some(table);
            }
            IndexKind::Sorted => {
                let mut entries: Vec<(Value, u32)> = col
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| !v.is_null())
                    .map(|(i, v)| (v, i as u32))
                    .collect();
                entries.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                index.sorted = Some(entries);
            }
        }
        Ok(index)
    }

    /// The spec this index was built from.
    pub fn spec(&self) -> &IndexSpec {
        &self.spec
    }

    /// Candidate positions for `column OP lit` (non-null `lit`), sorted
    /// ascending, or `None` when this index shape cannot serve the
    /// operator (the caller falls back to scanning).
    pub fn lookup(&self, op: CmpOp, lit: &Value) -> Option<Vec<u32>> {
        debug_assert!(!lit.is_null(), "index lookups take non-null literals");
        if let Some(table) = &self.hash {
            if op != CmpOp::Eq {
                return None;
            }
            let mut out = table.get(lit).cloned().unwrap_or_default();
            out.sort_unstable();
            return Some(out);
        }
        let entries = self.sorted.as_ref()?;
        let lower = entries.partition_point(|(v, _)| v.total_cmp(lit) == Ordering::Less);
        let upper = entries.partition_point(|(v, _)| v.total_cmp(lit) != Ordering::Greater);
        let range = match op {
            CmpOp::Eq => lower..upper,
            CmpOp::Lt => 0..lower,
            CmpOp::Le => 0..upper,
            CmpOp::Gt => upper..entries.len(),
            CmpOp::Ge => lower..entries.len(),
            CmpOp::Ne => return None,
        };
        let mut out: Vec<u32> = entries[range].iter().map(|(_, i)| *i).collect();
        out.sort_unstable();
        Some(out)
    }

    /// Deterministic digest of the canonical (value, position) mapping
    /// plus column name and kind. Equal across processes for equal
    /// builds; any divergence in the rebuilt index changes it.
    pub fn fingerprint(&self) -> u64 {
        let mut entries: Vec<(Value, u32)> = match (&self.hash, &self.sorted) {
            (Some(table), _) => table
                .iter()
                .flat_map(|(v, ps)| ps.iter().map(move |p| (v.clone(), *p)))
                .collect(),
            (_, Some(sorted)) => sorted.clone(),
            _ => Vec::new(),
        };
        entries.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut h = DefaultHasher::new();
        self.spec.kind.as_u8().hash(&mut h);
        self.spec.column.hash(&mut h);
        (self.rows as u64).hash(&mut h);
        for (v, p) in &entries {
            v.hash(&mut h);
            p.hash(&mut h);
        }
        h.finish()
    }
}

/// Append a spec's wire form: `[u8 kind][u32 LE len][column UTF-8]`.
pub fn encode_spec(spec: &IndexSpec, buf: &mut Vec<u8>) {
    buf.push(spec.kind.as_u8());
    buf.extend_from_slice(&(spec.column.len() as u32).to_le_bytes());
    buf.extend_from_slice(spec.column.as_bytes());
}

/// Decode one spec from the front of `bytes`; returns the spec and the
/// number of bytes consumed.
pub fn decode_spec(bytes: &[u8]) -> Result<(IndexSpec, usize)> {
    let truncated = || StorageError::Invalid("truncated index spec".into());
    let kind_byte = *bytes.first().ok_or_else(truncated)?;
    let kind = IndexKind::from_u8(kind_byte)
        .ok_or_else(|| StorageError::Invalid(format!("unknown index kind {kind_byte}")))?;
    if bytes.len() < 5 {
        return Err(truncated());
    }
    let len = u32::from_le_bytes(bytes[1..5].try_into().expect("4 bytes")) as usize;
    let end = 5usize.checked_add(len).ok_or_else(truncated)?;
    if bytes.len() < end {
        return Err(truncated());
    }
    let column = std::str::from_utf8(&bytes[5..end])
        .map_err(|e| StorageError::Invalid(format!("index spec column not UTF-8: {e}")))?
        .to_string();
    Ok((IndexSpec { column, kind }, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::types::DataType;

    fn table() -> DataSet {
        let k = Column::from_values(
            DataType::Int64,
            &[
                Value::Int(5),
                Value::Int(2),
                Value::Null,
                Value::Int(5),
                Value::Int(9),
            ],
        )
        .unwrap();
        DataSet::from_columns(vec![("k", k)]).unwrap()
    }

    #[test]
    fn hash_index_point_lookup() {
        let idx = SecondaryIndex::build(
            &table(),
            IndexSpec {
                column: "k".into(),
                kind: IndexKind::Hash,
            },
        )
        .unwrap();
        assert_eq!(idx.lookup(CmpOp::Eq, &Value::Int(5)), Some(vec![0, 3]));
        assert_eq!(idx.lookup(CmpOp::Eq, &Value::Int(7)), Some(vec![]));
        // Int/Float grouping equality: 5.0 finds the Int(5) rows.
        assert_eq!(idx.lookup(CmpOp::Eq, &Value::Float(5.0)), Some(vec![0, 3]));
        assert_eq!(
            idx.lookup(CmpOp::Gt, &Value::Int(0)),
            None,
            "hash has no ranges"
        );
    }

    #[test]
    fn sorted_index_ranges() {
        let idx = SecondaryIndex::build(
            &table(),
            IndexSpec {
                column: "k".into(),
                kind: IndexKind::Sorted,
            },
        )
        .unwrap();
        assert_eq!(idx.lookup(CmpOp::Eq, &Value::Int(5)), Some(vec![0, 3]));
        assert_eq!(idx.lookup(CmpOp::Lt, &Value::Int(5)), Some(vec![1]));
        assert_eq!(idx.lookup(CmpOp::Le, &Value::Int(5)), Some(vec![0, 1, 3]));
        assert_eq!(idx.lookup(CmpOp::Gt, &Value::Int(5)), Some(vec![4]));
        assert_eq!(idx.lookup(CmpOp::Ge, &Value::Int(5)), Some(vec![0, 3, 4]));
        assert_eq!(idx.lookup(CmpOp::Ne, &Value::Int(5)), None, "Ne falls back");
        // Null row (position 2) never appears.
        for op in [CmpOp::Le, CmpOp::Ge] {
            assert!(!idx.lookup(op, &Value::Int(100)).unwrap().contains(&2));
            assert!(!idx.lookup(op, &Value::Int(-100)).unwrap().contains(&2));
        }
    }

    #[test]
    fn index_spans_chunks_in_flattened_order() {
        let mut ds = table();
        let extra = DataSet::from_columns(vec![("k", Column::from(vec![2i64]))]).unwrap();
        ds.push_chunk(extra.chunks()[0].clone());
        let idx = SecondaryIndex::build(
            &ds,
            IndexSpec {
                column: "k".into(),
                kind: IndexKind::Sorted,
            },
        )
        .unwrap();
        assert_eq!(idx.lookup(CmpOp::Eq, &Value::Int(2)), Some(vec![1, 5]));
    }

    #[test]
    fn fingerprints_equal_across_kinds_of_build_not_kinds() {
        let spec = |kind| IndexSpec {
            column: "k".into(),
            kind,
        };
        let a = SecondaryIndex::build(&table(), spec(IndexKind::Hash)).unwrap();
        let b = SecondaryIndex::build(&table(), spec(IndexKind::Hash)).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = SecondaryIndex::build(&table(), spec(IndexKind::Sorted)).unwrap();
        assert_ne!(
            a.fingerprint(),
            c.fingerprint(),
            "kind is part of the digest"
        );
        let mut bigger = table();
        bigger.push_chunk(table().chunks()[0].clone());
        let d = SecondaryIndex::build(&bigger, spec(IndexKind::Hash)).unwrap();
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn unknown_column_is_an_error() {
        let err = SecondaryIndex::build(
            &table(),
            IndexSpec {
                column: "nope".into(),
                kind: IndexKind::Hash,
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn spec_codec_round_trips_and_rejects_garbage() {
        let spec = IndexSpec {
            column: "col_x".into(),
            kind: IndexKind::Sorted,
        };
        let mut buf = Vec::new();
        encode_spec(&spec, &mut buf);
        let (back, used) = decode_spec(&buf).unwrap();
        assert_eq!(back, spec);
        assert_eq!(used, buf.len());
        assert!(decode_spec(&[]).is_err());
        assert!(decode_spec(&[9, 0, 0, 0, 0]).is_err(), "unknown kind");
        assert!(decode_spec(&buf[..buf.len() - 1]).is_err(), "truncated");
    }
}
