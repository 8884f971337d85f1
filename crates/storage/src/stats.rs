//! Load-time statistics: per-column zone maps and table-level stats.
//!
//! A [`ZoneMap`] summarizes one column of one chunk — min/max over the
//! non-null values (ordered by [`Value::total_cmp`], the *same* total
//! order the expression engine compares with, which is what makes prune
//! decisions sound), the null count, and a distinct-count estimate from
//! a deterministic KMV sketch. [`ChunkStats`] is one zone map per
//! column; [`TableStats`] is the whole-table roll-up (row count plus a
//! merged zone map per column) that providers expose through
//! `Provider::table_stats`.
//!
//! The decision logic lives here too ([`ZoneMap::may_match_cmp`]):
//! given a comparison against a non-null literal, can *any* row in the
//! zone satisfy it? The contract is completeness, never precision — a
//! `true` answer may be wrong (the caller re-evaluates the predicate),
//! a `false` answer must be provably right. NaN needs no special case:
//! `total_cmp` sorts it after every other float, so a chunk containing
//! NaN simply has NaN as its max, and the engine's own comparisons use
//! the identical order.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::bitmap::Bitmap;
use crate::chunk::Chunk;
use crate::column::Column;
use crate::dataset::DataSet;
use crate::value::Value;
use crate::Result;

/// Comparison operators a zone map can reason about. Consumers map
/// their expression-level operators onto these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator with its operands swapped (`lit OP col` as
    /// `col OP lit`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// Number of minimum hashes the KMV distinct sketch keeps.
const KMV_K: usize = 64;

/// A deterministic k-minimum-values distinct-count sketch. Hashing
/// uses [`DefaultHasher`] with its fixed default keys, so the same
/// values produce the same sketch in every process — rebuilt statistics
/// after recovery match the originals exactly.
///
/// The sketch is the set of the `KMV_K` smallest distinct hashes seen,
/// so folding hashes in one at a time, merging sketches of disjoint
/// parts, and trimming their union all give the same set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NdvSketch {
    /// Distinct hashes, ascending; at most `KMV_K` of them.
    hashes: Vec<u64>,
}

impl NdvSketch {
    /// An empty sketch.
    pub fn new() -> NdvSketch {
        NdvSketch::default()
    }

    /// Fold one (non-null) value in.
    pub fn insert(&mut self, v: &Value) {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        self.insert_hash(h.finish());
    }

    /// Fold one value's hash in. A full sketch rejects a hash no
    /// smaller than its largest before touching the set.
    fn insert_hash(&mut self, h: u64) {
        if self.hashes.len() >= KMV_K && self.hashes.last().is_some_and(|&top| h >= top) {
            return;
        }
        if let Err(at) = self.hashes.binary_search(&h) {
            self.hashes.insert(at, h);
            self.hashes.truncate(KMV_K);
        }
    }

    /// Merge another sketch in (union of the underlying sets).
    pub fn merge(&mut self, other: &NdvSketch) {
        for &h in &other.hashes {
            self.insert_hash(h);
        }
    }

    /// Estimated distinct count. Exact below the sketch capacity.
    pub fn estimate(&self) -> usize {
        if self.hashes.len() < KMV_K {
            return self.hashes.len();
        }
        let kth = *self.hashes.last().expect("non-empty") as f64;
        if kth <= 0.0 {
            return self.hashes.len();
        }
        (((KMV_K - 1) as f64) * (u64::MAX as f64 / kth)) as usize
    }
}

/// Min/max/null-count/distinct summary of one column (of a chunk or a
/// whole table). `min`/`max` are `None` exactly when the column has no
/// non-null values.
#[derive(Debug, Clone)]
pub struct ZoneMap {
    /// Smallest non-null value under [`Value::total_cmp`].
    pub min: Option<Value>,
    /// Largest non-null value under [`Value::total_cmp`].
    pub max: Option<Value>,
    /// Number of null slots.
    pub null_count: usize,
    /// Total number of slots (valid + null).
    pub len: usize,
    /// Estimated count of distinct non-null values.
    pub distinct: usize,
}

impl ZoneMap {
    /// Summarize a column exactly.
    pub fn of(col: &Column) -> ZoneMap {
        let mut b = ZoneBuilder::new();
        b.observe_column(col);
        b.finish().0
    }

    /// Number of non-null slots.
    pub fn non_null(&self) -> usize {
        self.len - self.null_count
    }

    /// Could any row in this zone make `column OP lit` evaluate to SQL
    /// `true`? `lit` must be non-null (a null literal never compares
    /// true; callers filter that case out before asking). A `false`
    /// answer proves the chunk can be skipped.
    pub fn may_match_cmp(&self, op: CmpOp, lit: &Value) -> bool {
        debug_assert!(!lit.is_null(), "zone checks take non-null literals");
        let (Some(min), Some(max)) = (&self.min, &self.max) else {
            // Every slot is null: no comparison ever yields true.
            return false;
        };
        match op {
            CmpOp::Eq => {
                min.total_cmp(lit) != Ordering::Greater && max.total_cmp(lit) != Ordering::Less
            }
            CmpOp::Ne => {
                // Disproved only when every non-null value equals lit.
                !(min.total_cmp(lit) == Ordering::Equal && max.total_cmp(lit) == Ordering::Equal)
            }
            CmpOp::Lt => min.total_cmp(lit) == Ordering::Less,
            CmpOp::Le => min.total_cmp(lit) != Ordering::Greater,
            CmpOp::Gt => max.total_cmp(lit) == Ordering::Greater,
            CmpOp::Ge => max.total_cmp(lit) != Ordering::Less,
        }
    }

    /// Could any row satisfy `column IS NULL`?
    pub fn may_match_is_null(&self) -> bool {
        self.null_count > 0
    }

    /// Could any row satisfy `NOT (column IS NULL)`?
    pub fn may_match_not_null(&self) -> bool {
        self.non_null() > 0
    }
}

/// Incremental builder shared by chunk- and table-level statistics:
/// a chunk's zone map folds its columns in ([`ZoneBuilder::observe_column`]),
/// a table's zone map merges its chunks' ([`ZoneBuilder::merge`]). Both
/// give what folding every value in order would: min/max keep the
/// first-seen value on ties.
pub struct ZoneBuilder {
    min: Option<Value>,
    max: Option<Value>,
    null_count: usize,
    len: usize,
    sketch: NdvSketch,
}

impl ZoneBuilder {
    /// An empty builder.
    pub fn new() -> ZoneBuilder {
        ZoneBuilder {
            min: None,
            max: None,
            null_count: 0,
            len: 0,
            sketch: NdvSketch::new(),
        }
    }

    /// Fold every value of a column in, over its typed slice: extremes
    /// stay native until one `Value` each is built at the end, and each
    /// value is hashed with exactly the bytes [`Value`]'s `Hash` feeds,
    /// so the sketch equals a value-at-a-time fold's.
    pub fn observe_column(&mut self, col: &Column) {
        let valid = col.validity();
        let sketch = &mut self.sketch;
        let extremes = match col {
            Column::Int64(d, _) => fold_typed(d, valid, sketch, i64::cmp, |v, h| {
                1u8.hash(h);
                (*v as f64).to_bits().hash(h);
            })
            .map(|(lo, hi)| (Value::Int(*lo), Value::Int(*hi))),
            Column::Float64(d, _) => fold_typed(d, valid, sketch, f64::total_cmp, |v, h| {
                1u8.hash(h);
                v.to_bits().hash(h);
            })
            .map(|(lo, hi)| (Value::Float(*lo), Value::Float(*hi))),
            Column::Bool(d, _) => fold_typed(d, valid, sketch, bool::cmp, |v, h| {
                2u8.hash(h);
                v.hash(h);
            })
            .map(|(lo, hi)| (Value::Bool(*lo), Value::Bool(*hi))),
            Column::Utf8(d, _) => fold_typed(d, valid, sketch, String::cmp, |v, h| {
                3u8.hash(h);
                v.as_str().hash(h);
            })
            .map(|(lo, hi)| (Value::Str(lo.clone()), Value::Str(hi.clone()))),
        };
        self.len += col.len();
        self.null_count += col.null_count();
        if let Some((lo, hi)) = extremes {
            self.fold_extremes(lo, hi);
        }
    }

    /// Merge a zone summarized separately (another chunk of the same
    /// column) in, as if its values had been folded in after ours.
    pub fn merge(&mut self, zone: &ZoneMap, sketch: &NdvSketch) {
        self.len += zone.len;
        self.null_count += zone.null_count;
        if let (Some(lo), Some(hi)) = (&zone.min, &zone.max) {
            self.fold_extremes(lo.clone(), hi.clone());
        }
        self.sketch.merge(sketch);
    }

    /// Keep the smaller min and the larger max; ties keep ours, the
    /// first seen.
    fn fold_extremes(&mut self, lo: Value, hi: Value) {
        if self
            .min
            .as_ref()
            .is_none_or(|m| lo.total_cmp(m) == Ordering::Less)
        {
            self.min = Some(lo);
        }
        if self
            .max
            .as_ref()
            .is_none_or(|m| hi.total_cmp(m) == Ordering::Greater)
        {
            self.max = Some(hi);
        }
    }

    /// Finish into the zone map and the sketch that fed its distinct
    /// estimate (callers merging across chunks keep the sketch).
    pub fn finish(self) -> (ZoneMap, NdvSketch) {
        let distinct = self.sketch.estimate();
        (
            ZoneMap {
                min: self.min,
                max: self.max,
                null_count: self.null_count,
                len: self.len,
                distinct,
            },
            self.sketch,
        )
    }
}

impl Default for ZoneBuilder {
    fn default() -> Self {
        ZoneBuilder::new()
    }
}

/// One typed pass over a column's valid slots: hash each into `sketch`
/// and return the first-seen smallest and largest under `cmp`.
fn fold_typed<'a, T>(
    data: &'a [T],
    valid: Option<&Bitmap>,
    sketch: &mut NdvSketch,
    cmp: impl Fn(&T, &T) -> Ordering,
    hash: impl Fn(&T, &mut DefaultHasher),
) -> Option<(&'a T, &'a T)> {
    let mut extremes: Option<(&T, &T)> = None;
    for (i, v) in data.iter().enumerate() {
        if valid.is_some_and(|bm| !bm.get(i)) {
            continue;
        }
        let mut h = DefaultHasher::new();
        hash(v, &mut h);
        sketch.insert_hash(h.finish());
        extremes = Some(match extremes {
            None => (v, v),
            Some((lo, hi)) => (
                if cmp(v, lo) == Ordering::Less { v } else { lo },
                if cmp(v, hi) == Ordering::Greater {
                    v
                } else {
                    hi
                },
            ),
        });
    }
    extremes
}

/// One zone map per column of a chunk, in schema order.
#[derive(Debug, Clone)]
pub struct ChunkStats {
    /// Zone maps, aligned with the chunk's columns.
    pub columns: Vec<ZoneMap>,
}

/// Whole-table statistics: row count plus a merged zone map per column.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Total logical rows.
    pub row_count: usize,
    /// `(field name, merged zone map)` in schema order.
    pub columns: Vec<(String, ZoneMap)>,
}

impl TableStats {
    /// Compute from a dataset (dense chunks are viewed as rows): the
    /// merge of its chunks' statistics, see [`summarize`].
    pub fn of(ds: &DataSet) -> Result<TableStats> {
        Ok(summarize(ds)?.1)
    }

    /// The merged zone map for a named column.
    pub fn column(&self, name: &str) -> Option<&ZoneMap> {
        self.columns.iter().find(|(n, _)| n == name).map(|(_, z)| z)
    }
}

/// Per-chunk statistics and the table statistics merged from them, in
/// one pass over the data. Zone maps form a commutative monoid (min,
/// max, counts, sketch union), so the table's are the fold of the
/// chunks'; a dense chunk is viewed as rows once.
pub fn summarize(ds: &DataSet) -> Result<(Vec<ChunkStats>, TableStats)> {
    let schema = ds.schema();
    let mut table: Vec<ZoneBuilder> = (0..schema.len()).map(|_| ZoneBuilder::new()).collect();
    let mut chunks = Vec::with_capacity(ds.chunks().len());
    for chunk in ds.chunks() {
        let converted;
        let rows = match chunk {
            Chunk::Rows(rc) => rc,
            dense => {
                converted = dense.to_rows(schema)?;
                &converted
            }
        };
        let columns = table
            .iter_mut()
            .zip(rows.columns())
            .map(|(merged, col)| {
                let mut b = ZoneBuilder::new();
                b.observe_column(col);
                let (zone, sketch) = b.finish();
                merged.merge(&zone, &sketch);
                zone
            })
            .collect();
        chunks.push(ChunkStats { columns });
    }
    let stats = TableStats {
        row_count: ds.num_rows(),
        columns: schema
            .fields()
            .iter()
            .zip(table)
            .map(|(f, b)| (f.name.clone(), b.finish().0))
            .collect(),
    };
    Ok((chunks, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn zone(vals: Vec<Option<f64>>) -> ZoneMap {
        let vals: Vec<Value> = vals
            .into_iter()
            .map(|v| v.map(Value::Float).unwrap_or(Value::Null))
            .collect();
        let col = Column::from_values(DataType::Float64, &vals).unwrap();
        ZoneMap::of(&col)
    }

    #[test]
    fn zone_map_tracks_min_max_nulls() {
        let z = zone(vec![Some(3.0), None, Some(-1.5), Some(2.0)]);
        assert_eq!(z.min, Some(Value::Float(-1.5)));
        assert_eq!(z.max, Some(Value::Float(3.0)));
        assert_eq!(z.null_count, 1);
        assert_eq!(z.len, 4);
        assert_eq!(z.distinct, 3);
    }

    #[test]
    fn all_null_zone_disproves_every_comparison() {
        let z = zone(vec![None, None]);
        assert!(z.min.is_none() && z.max.is_none());
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert!(!z.may_match_cmp(op, &Value::Float(0.0)), "{op:?}");
        }
        assert!(z.may_match_is_null());
        assert!(!z.may_match_not_null());
    }

    #[test]
    fn empty_zone_disproves_everything() {
        let z = zone(vec![]);
        assert_eq!(z.len, 0);
        assert!(!z.may_match_cmp(CmpOp::Eq, &Value::Float(0.0)));
        assert!(!z.may_match_is_null());
        assert!(!z.may_match_not_null());
    }

    #[test]
    fn nan_sorts_into_the_max_slot() {
        let z = zone(vec![Some(1.0), Some(f64::NAN)]);
        assert!(matches!(z.max, Some(Value::Float(v)) if v.is_nan()));
        // NaN > lit under total_cmp, so Gt anything stays satisfiable —
        // matching the engine, which also compares via total_cmp.
        assert!(z.may_match_cmp(CmpOp::Gt, &Value::Float(1e300)));
    }

    #[test]
    fn comparison_pruning_decisions() {
        let z = zone(vec![Some(10.0), Some(20.0)]);
        let v = Value::Float;
        assert!(z.may_match_cmp(CmpOp::Eq, &v(15.0)));
        assert!(!z.may_match_cmp(CmpOp::Eq, &v(9.0)));
        assert!(!z.may_match_cmp(CmpOp::Eq, &v(21.0)));
        assert!(z.may_match_cmp(CmpOp::Lt, &v(10.5)));
        assert!(!z.may_match_cmp(CmpOp::Lt, &v(10.0)));
        assert!(z.may_match_cmp(CmpOp::Le, &v(10.0)));
        assert!(!z.may_match_cmp(CmpOp::Le, &v(9.9)));
        assert!(z.may_match_cmp(CmpOp::Gt, &v(19.9)));
        assert!(!z.may_match_cmp(CmpOp::Gt, &v(20.0)));
        assert!(z.may_match_cmp(CmpOp::Ge, &v(20.0)));
        assert!(!z.may_match_cmp(CmpOp::Ge, &v(20.1)));
        assert!(z.may_match_cmp(CmpOp::Ne, &v(15.0)));
    }

    #[test]
    fn ne_disproved_only_when_constant() {
        let constant = zone(vec![Some(7.0), Some(7.0), None]);
        assert!(!constant.may_match_cmp(CmpOp::Ne, &Value::Float(7.0)));
        assert!(constant.may_match_cmp(CmpOp::Ne, &Value::Float(8.0)));
        let varied = zone(vec![Some(7.0), Some(8.0)]);
        assert!(varied.may_match_cmp(CmpOp::Ne, &Value::Float(7.0)));
    }

    #[test]
    fn cross_type_numeric_zones() {
        let col = Column::from(vec![2i64, 5, 9]);
        let z = ZoneMap::of(&col);
        // Int zone vs float literal: total_cmp compares numerically.
        assert!(z.may_match_cmp(CmpOp::Gt, &Value::Float(8.5)));
        assert!(!z.may_match_cmp(CmpOp::Gt, &Value::Float(9.0)));
        assert!(!z.may_match_cmp(CmpOp::Lt, &Value::Float(2.0)));
    }

    #[test]
    fn ndv_sketch_exact_when_small_deterministic_always() {
        let mut a = NdvSketch::new();
        let mut b = NdvSketch::new();
        for i in 0..40i64 {
            a.insert(&Value::Int(i));
            b.insert(&Value::Int(i));
        }
        assert_eq!(a.estimate(), 40);
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn ndv_sketch_estimates_within_tolerance() {
        let mut s = NdvSketch::new();
        for i in 0..10_000i64 {
            s.insert(&Value::Int(i));
            s.insert(&Value::Int(i)); // duplicates must not inflate
        }
        let est = s.estimate() as f64;
        assert!(
            (est - 10_000.0).abs() / 10_000.0 < 0.5,
            "estimate {est} too far from 10000"
        );
    }

    #[test]
    fn typed_fold_hashes_as_values_do() {
        let columns = [
            Column::from(vec![i64::MIN, -1, 0, 3, i64::MAX]),
            Column::from(vec![-0.0, 0.0, f64::NAN, -f64::NAN, f64::INFINITY, 3.0]),
            Column::from(vec![true, false, true]),
            Column::from(vec!["", "a", "ab", "a"]),
            Column::from_values(DataType::Int64, &[Value::Null, Value::Int(9)]).unwrap(),
        ];
        for col in columns {
            let mut typed = ZoneBuilder::new();
            typed.observe_column(&col);
            let mut by_value = NdvSketch::new();
            for v in col.iter().filter(|v| !v.is_null()) {
                by_value.insert(&v);
            }
            assert_eq!(typed.finish().1, by_value, "{col:?}");
        }
    }

    #[test]
    fn full_sketch_rejects_large_hashes_without_changing_the_set() {
        let mut s = NdvSketch::new();
        for i in 0..1_000i64 {
            s.insert(&Value::Int(i));
        }
        let before = s.clone();
        let top = *s.hashes.last().unwrap();
        s.insert_hash(top);
        s.insert_hash(u64::MAX);
        assert_eq!(s, before);
        s.insert_hash(0);
        assert_eq!(s.hashes.len(), KMV_K);
        assert!(s.hashes.contains(&0) && !s.hashes.contains(&top));
    }

    #[test]
    fn ndv_merge_matches_union() {
        let mut a = NdvSketch::new();
        let mut b = NdvSketch::new();
        let mut whole = NdvSketch::new();
        for i in 0..500i64 {
            if i % 2 == 0 {
                a.insert(&Value::Int(i));
            } else {
                b.insert(&Value::Int(i));
            }
            whole.insert(&Value::Int(i));
        }
        a.merge(&b);
        assert_eq!(a.estimate(), whole.estimate());
    }

    #[test]
    fn table_stats_roll_up() {
        let floats = |vals: &[Value]| Column::from_values(DataType::Float64, vals).unwrap();
        let mut ds = DataSet::from_columns(vec![
            ("k", Column::from(vec![1i64, 2, 3])),
            (
                "v",
                floats(&[Value::Float(1.0), Value::Null, Value::Float(3.0)]),
            ),
        ])
        .unwrap();
        let more = DataSet::from_columns(vec![
            ("k", Column::from(vec![10i64, 20])),
            ("v", floats(&[Value::Float(-5.0), Value::Null])),
        ])
        .unwrap();
        ds.push_chunk(more.chunks()[0].clone());
        let stats = TableStats::of(&ds).unwrap();
        assert_eq!(stats.row_count, 5);
        let k = stats.column("k").unwrap();
        assert_eq!(k.min, Some(Value::Int(1)));
        assert_eq!(k.max, Some(Value::Int(20)));
        assert_eq!(k.null_count, 0);
        assert_eq!(k.distinct, 5);
        let v = stats.column("v").unwrap();
        assert_eq!(v.min, Some(Value::Float(-5.0)));
        assert_eq!(v.max, Some(Value::Float(3.0)));
        assert_eq!(v.null_count, 2);
        assert!(stats.column("missing").is_none());
    }

    #[test]
    fn chunk_stats_align_with_columns() {
        let ds = DataSet::from_columns(vec![
            ("k", Column::from(vec![1i64, 2])),
            ("s", Column::from(vec!["a", "b"])),
        ])
        .unwrap();
        let (chunks, _) = summarize(&ds).unwrap();
        let cs = &chunks[0];
        assert_eq!(cs.columns.len(), 2);
        assert_eq!(cs.columns[1].min, Some(Value::from("a")));
        assert_eq!(cs.columns[1].max, Some(Value::from("b")));
    }
}
