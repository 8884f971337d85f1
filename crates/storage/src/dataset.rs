//! `DataSet`: a schema plus chunks — the collection type that flows between
//! clients and servers.
//!
//! The paper stresses that "the result of a query is a collection in the
//! client environment. There is not the awkwardness of cursors." `DataSet`
//! is that collection: fully materialized, layout-flexible, directly
//! iterable.

use std::borrow::Cow;

use crate::chunk::{Chunk, RowsChunk};
use crate::column::Column;
use crate::dense::{DenseChunk, DimBox};
use crate::error::StorageError;
use crate::row::Row;
use crate::schema::Schema;
use crate::types::DataType;
use crate::value::Value;
use crate::Result;

/// A dataset: a dimension-tagged schema and the chunks that hold its data.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSet {
    schema: Schema,
    chunks: Vec<Chunk>,
}

impl DataSet {
    /// A dataset with no rows.
    pub fn empty(schema: Schema) -> DataSet {
        DataSet {
            schema,
            chunks: Vec::new(),
        }
    }

    /// Assemble from parts (chunks are trusted to match the schema; the
    /// conversion methods re-validate on access).
    pub fn new(schema: Schema, chunks: Vec<Chunk>) -> DataSet {
        DataSet { schema, chunks }
    }

    /// Build from materialized rows, validating types against the schema.
    pub fn from_rows(schema: Schema, rows: &[Row]) -> Result<DataSet> {
        let mut chunk = RowsChunk::empty(&schema);
        for r in rows {
            chunk.push_row(r)?;
        }
        Ok(DataSet {
            schema,
            chunks: vec![Chunk::Rows(chunk)],
        })
    }

    /// Build a relation (no dimensions) from named columns.
    pub fn from_columns(fields: Vec<(&str, Column)>) -> Result<DataSet> {
        let schema = Schema::new(
            fields
                .iter()
                .map(|(n, c)| crate::schema::Field::value(*n, c.dtype()))
                .collect(),
        )?;
        let chunk = RowsChunk::new(fields.into_iter().map(|(_, c)| c).collect())?;
        Ok(DataSet {
            schema,
            chunks: vec![Chunk::Rows(chunk)],
        })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The chunks.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Append a chunk.
    pub fn push_chunk(&mut self, chunk: Chunk) {
        self.chunks.push(chunk);
    }

    /// Total number of logical rows/cells.
    pub fn num_rows(&self) -> usize {
        self.chunks.iter().map(Chunk::len).sum()
    }

    /// True when the dataset holds no rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    /// Materialize every row (dense chunks are exploded to coordinate rows).
    pub fn rows(&self) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(self.num_rows());
        for c in &self.chunks {
            out.extend(c.materialize(&self.schema)?);
        }
        Ok(out)
    }

    /// The dataset as one coordinate-list chunk. A dataset that already
    /// is one rows chunk of the schema's types is borrowed in place; any
    /// other is concatenated once into a new chunk.
    pub fn to_rows_chunk(&self) -> Result<Cow<'_, RowsChunk>> {
        if let [Chunk::Rows(r)] = self.chunks.as_slice() {
            let dtypes = r.columns().iter().map(Column::dtype);
            if self.schema.fields().iter().map(|f| f.dtype).eq(dtypes) {
                return Ok(Cow::Borrowed(r));
            }
        }
        let mut acc = RowsChunk::empty(&self.schema);
        for c in &self.chunks {
            acc.extend(&*c.to_rows(&self.schema)?)?;
        }
        Ok(Cow::Owned(acc))
    }

    /// The dataset as one coordinate-list chunk, consuming it: a dataset
    /// that is one rows chunk of the schema's types is moved out as is;
    /// any other is concatenated once, as [`DataSet::to_rows_chunk`] does.
    pub fn into_rows_chunk(mut self) -> Result<RowsChunk> {
        if let Cow::Owned(acc) = self.to_rows_chunk()? {
            return Ok(acc);
        }
        match self.chunks.pop() {
            Some(Chunk::Rows(r)) => Ok(r),
            _ => unreachable!("to_rows_chunk borrows only a lone rows chunk"),
        }
    }

    /// A dataset identical to `self` but in a single coordinate-list chunk.
    pub fn normalized_rows(&self) -> Result<DataSet> {
        Ok(DataSet {
            schema: self.schema.clone(),
            chunks: vec![Chunk::Rows(self.to_rows_chunk()?.into_owned())],
        })
    }

    /// The dataset's one dense chunk, when the dataset already is what
    /// [`DataSet::to_dense`] builds: a single [`DenseChunk`] over the
    /// schema's box whose value columns have the schema's value types.
    /// Such a dataset needs no densifying.
    pub fn dense_in_place(&self) -> Option<&DenseChunk> {
        let [Chunk::Dense(d)] = self.chunks.as_slice() else {
            return None;
        };
        let vals = self.schema.values();
        let typed = d.columns().len() == vals.len()
            && d.columns()
                .iter()
                .zip(&vals)
                .all(|(c, f)| c.dtype() == f.dtype);
        (typed && self.bounding_box().ok().as_ref() == Some(d.bounds())).then_some(d)
    }

    /// Densify into a single dense chunk covering the schema's dimension
    /// extents (all dimensions must be bounded).
    ///
    /// Already-dense data ([`DataSet::dense_in_place`]) is returned as is;
    /// anything else (rows, tile grids, offset boxes) is rebuilt cell by
    /// cell through coordinate rows, which validates every coordinate and
    /// value type.
    pub fn to_dense(&self) -> Result<DataSet> {
        if self.dense_in_place().is_some() {
            return Ok(self.clone());
        }
        let bounds = self.bounding_box()?;
        let rows = self.to_rows_chunk()?;
        let dense = DenseChunk::from_rows(&self.schema, &rows, bounds)?;
        Ok(DataSet {
            schema: self.schema.clone(),
            chunks: vec![Chunk::Dense(dense)],
        })
    }

    /// Densify into a **grid** of dense chunks with side length
    /// `chunk_side` per dimension (the last tile on each axis may be
    /// shorter). This is the array-store layout: operations with
    /// coordinate bounds can prune whole tiles by box intersection.
    pub fn to_dense_grid(&self, chunk_side: usize) -> Result<DataSet> {
        if chunk_side == 0 {
            return Err(StorageError::Invalid("chunk_side must be positive".into()));
        }
        let bounds = self.bounding_box()?;
        let ndims = bounds.ndims();
        // Tile counts per axis.
        let tiles: Vec<usize> = (0..ndims)
            .map(|d| bounds.extent(d).div_ceil(chunk_side))
            .collect();
        let ntiles: usize = tiles.iter().product();
        // Bucket rows by tile.
        let rows = self.to_rows_chunk()?;
        let dim_positions: Vec<usize> = self
            .schema
            .fields()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_dimension())
            .map(|(i, _)| i)
            .collect();
        let mut buckets: Vec<RowsChunk> = (0..ntiles)
            .map(|_| RowsChunk::empty(&self.schema))
            .collect();
        for r in 0..rows.len() {
            let mut tile = 0usize;
            for (d, &p) in dim_positions.iter().enumerate() {
                let c = match rows.column(p).get(r) {
                    Value::Int(c) => c,
                    other => {
                        return Err(StorageError::NotDense(format!(
                            "non-integer coordinate {other}"
                        )))
                    }
                };
                if c < bounds.lo[d] || c >= bounds.hi[d] {
                    return Err(StorageError::NotDense(format!(
                        "coordinate {c} outside extent on axis {d}"
                    )));
                }
                let t = ((c - bounds.lo[d]) as usize) / chunk_side;
                tile = tile * tiles[d] + t;
            }
            buckets[tile].push_row(&rows.row(r))?;
        }
        // Build one dense chunk per non-empty tile (empty tiles are
        // simply absent — that is the pruning invariant).
        let mut chunks = Vec::new();
        for (tile, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            // Decompose the tile index back into per-axis tile coords.
            let mut rem = tile;
            let mut lo = vec![0i64; ndims];
            let mut hi = vec![0i64; ndims];
            for d in (0..ndims).rev() {
                let t = rem % tiles[d];
                rem /= tiles[d];
                lo[d] = bounds.lo[d] + (t * chunk_side) as i64;
                hi[d] = (lo[d] + chunk_side as i64).min(bounds.hi[d]);
            }
            let tile_box = DimBox::new(lo, hi)?;
            chunks.push(Chunk::Dense(DenseChunk::from_rows(
                &self.schema,
                &bucket,
                tile_box,
            )?));
        }
        Ok(DataSet {
            schema: self.schema.clone(),
            chunks,
        })
    }

    /// The box spanned by the schema's (bounded) dimension extents.
    pub fn bounding_box(&self) -> Result<DimBox> {
        if self.schema.ndims() == 0 {
            return Err(StorageError::NotDense("dataset has no dimensions".into()));
        }
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        for d in self.schema.dimensions() {
            match d.extent() {
                Some((l, h)) => {
                    lo.push(l);
                    hi.push(h);
                }
                None => {
                    return Err(StorageError::NotDense(format!(
                        "dimension `{}` is unbounded",
                        d.name
                    )))
                }
            }
        }
        DimBox::new(lo, hi)
    }

    /// Concatenate the named column across all chunks (coordinate view).
    pub fn collect_column(&self, name: &str) -> Result<Column> {
        let idx = self.schema.index_of(name)?;
        let mut acc = Column::new_empty(self.schema.field_at(idx).dtype);
        for c in &self.chunks {
            acc.extend(c.to_rows(&self.schema)?.column(idx))?;
        }
        Ok(acc)
    }

    /// Rows sorted lexicographically — the canonical form for equality.
    pub fn sorted_rows(&self) -> Result<Vec<Row>> {
        let mut rows = self.rows()?;
        rows.sort_by(|a, b| a.total_cmp(b));
        Ok(rows)
    }

    /// Bag equality: same schema field names/types/roles and the same
    /// multiset of rows, regardless of row order or physical layout.
    pub fn same_bag(&self, other: &DataSet) -> Result<bool> {
        if self.schema != other.schema {
            return Ok(false);
        }
        Ok(self.sorted_rows()? == other.sorted_rows()?)
    }

    /// Approximate in-memory size in bytes, used by the federation cost
    /// model. Matches the wire codec's cost model closely enough for
    /// planning (8 bytes per numeric slot, string lengths, bitmap words).
    pub fn estimated_bytes(&self) -> usize {
        let mut total = 0usize;
        for c in &self.chunks {
            total += match c {
                Chunk::Rows(r) => r.columns().iter().map(column_bytes).sum::<usize>(),
                Chunk::Dense(d) => {
                    d.columns().iter().map(column_bytes).sum::<usize>()
                        + d.present().map(|bm| bm.len() / 8).unwrap_or(0)
                }
            };
        }
        total
    }

    /// Pretty-print up to `limit` rows as an ASCII table.
    pub fn show(&self, limit: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.schema));
        match self.rows() {
            Ok(rows) => {
                for r in rows.iter().take(limit) {
                    out.push_str(&format!("{r}\n"));
                }
                if rows.len() > limit {
                    out.push_str(&format!("... ({} rows total)\n", rows.len()));
                }
            }
            Err(e) => out.push_str(&format!("<error materializing rows: {e}>\n")),
        }
        out
    }
}

fn column_bytes(c: &Column) -> usize {
    match c {
        Column::Int64(d, v) => d.len() * 8 + v.as_ref().map(|b| b.len() / 8).unwrap_or(0),
        Column::Float64(d, v) => d.len() * 8 + v.as_ref().map(|b| b.len() / 8).unwrap_or(0),
        Column::Bool(d, v) => d.len() + v.as_ref().map(|b| b.len() / 8).unwrap_or(0),
        Column::Utf8(d, v) => {
            d.iter().map(|s| s.len() + 4).sum::<usize>()
                + v.as_ref().map(|b| b.len() / 8).unwrap_or(0)
        }
    }
}

/// Helper: build a single-column `f64` matrix dataset with dimensions
/// `row` in `[0, nrows)` and `col` in `[0, ncols)` from row-major data.
/// Used pervasively by the linear-algebra paths and tests.
pub fn matrix_dataset(nrows: usize, ncols: usize, data: Vec<f64>) -> Result<DataSet> {
    if data.len() != nrows * ncols {
        return Err(StorageError::LengthMismatch {
            expected: nrows * ncols,
            actual: data.len(),
            context: "matrix_dataset".into(),
        });
    }
    let schema = Schema::new(vec![
        crate::schema::Field::dimension_bounded("row", 0, nrows as i64),
        crate::schema::Field::dimension_bounded("col", 0, ncols as i64),
        crate::schema::Field::value("v", DataType::Float64),
    ])?;
    let bounds = DimBox::new(vec![0, 0], vec![nrows as i64, ncols as i64])?;
    let dense = DenseChunk::new(bounds, vec![Column::from(data)], None)?;
    Ok(DataSet::new(schema, vec![Chunk::Dense(dense)]))
}

/// Helper: extract a 2-D float dataset back into `(nrows, ncols, row-major
/// data)`. Absent cells and nulls read as 0.0 (linear-algebra convention).
pub fn dataset_matrix(ds: &DataSet) -> Result<(usize, usize, Vec<f64>)> {
    if ds.schema().ndims() != 2 {
        return Err(StorageError::DimensionError(format!(
            "expected 2-D dataset, got {} dims",
            ds.schema().ndims()
        )));
    }
    let vals = ds.schema().values();
    if vals.len() != 1 || vals[0].dtype != DataType::Float64 {
        return Err(StorageError::DimensionError(
            "expected exactly one f64 value attribute".into(),
        ));
    }
    let bounds = ds.bounding_box()?;
    let (nrows, ncols) = (bounds.extent(0), bounds.extent(1));
    let mut data = vec![0.0f64; nrows * ncols];
    let dense_ds = ds.to_dense()?;
    if let Some(Chunk::Dense(d)) = dense_ds.chunks().first() {
        let col = d.columns()[0].clone();
        for (idx, slot) in data.iter_mut().enumerate() {
            if d.is_present(idx) {
                if let Value::Float(v) = col.get(idx) {
                    *slot = v;
                }
            }
        }
    }
    Ok((nrows, ncols, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn rel() -> DataSet {
        DataSet::from_columns(vec![
            ("k", Column::from(vec![1i64, 2, 3])),
            ("name", Column::from(vec!["a", "b", "c"])),
        ])
        .unwrap()
    }

    #[test]
    fn from_columns_and_counts() {
        let ds = rel();
        assert_eq!(ds.num_rows(), 3);
        assert!(!ds.is_empty());
        assert!(ds.schema().is_relation());
    }

    #[test]
    fn rows_materialization() {
        let ds = rel();
        let rows = ds.rows().unwrap();
        assert_eq!(rows[0], Row(vec![Value::Int(1), Value::from("a")]));
    }

    #[test]
    fn bag_equality_ignores_order_and_layout() {
        let a = DataSet::from_columns(vec![("k", Column::from(vec![1i64, 2]))]).unwrap();
        let b = DataSet::from_columns(vec![("k", Column::from(vec![2i64, 1]))]).unwrap();
        assert!(a.same_bag(&b).unwrap());
        let c = DataSet::from_columns(vec![("k", Column::from(vec![1i64, 1]))]).unwrap();
        assert!(!a.same_bag(&c).unwrap());
    }

    #[test]
    fn bag_equality_checks_schema() {
        let a = DataSet::from_columns(vec![("k", Column::from(vec![1i64]))]).unwrap();
        let b = DataSet::from_columns(vec![("j", Column::from(vec![1i64]))]).unwrap();
        assert!(!a.same_bag(&b).unwrap());
    }

    #[test]
    fn matrix_roundtrip() {
        let ds = matrix_dataset(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(ds.num_rows(), 6);
        let (r, c, data) = dataset_matrix(&ds).unwrap();
        assert_eq!((r, c), (2, 3));
        assert_eq!(data, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn dense_and_rows_views_agree() {
        let ds = matrix_dataset(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let as_rows = ds.normalized_rows().unwrap();
        assert!(ds.same_bag(&as_rows).unwrap());
        let back_dense = as_rows.to_dense().unwrap();
        assert!(ds.same_bag(&back_dense).unwrap());
    }

    #[test]
    fn bounding_box_requires_bounds() {
        let schema = Schema::new(vec![
            Field::dimension("i"),
            Field::value("v", DataType::Int64),
        ])
        .unwrap();
        let ds = DataSet::empty(schema);
        assert!(matches!(ds.bounding_box(), Err(StorageError::NotDense(_))));
        assert!(rel().bounding_box().is_err());
    }

    #[test]
    fn to_rows_chunk_borrows_one_rows_chunk_and_concatenates_the_rest() {
        let one = rel();
        let Cow::Borrowed(r) = one.to_rows_chunk().unwrap() else {
            panic!("a one-rows-chunk dataset must be borrowed");
        };
        let Chunk::Rows(stored) = &one.chunks()[0] else {
            unreachable!()
        };
        assert!(std::ptr::eq(r, stored));
        let mut two = rel();
        two.push_chunk(rel().chunks()[0].clone());
        let Cow::Owned(cat) = two.to_rows_chunk().unwrap() else {
            panic!("two chunks must be concatenated");
        };
        assert_eq!(cat.len(), 6);
        assert_eq!(cat.row(3), one.rows().unwrap()[0]);
        let dense = matrix_dataset(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(matches!(dense.to_rows_chunk().unwrap(), Cow::Owned(_)));
        // A rows chunk whose types disagree with the schema is not
        // borrowed: the concatenating path refuses it.
        let mistyped = DataSet::new(
            Schema::new(vec![Field::value("k", DataType::Utf8)]).unwrap(),
            vec![Chunk::Rows(
                RowsChunk::new(vec![Column::from(vec![1i64])]).unwrap(),
            )],
        );
        assert!(mistyped.to_rows_chunk().is_err());
    }

    #[test]
    fn into_rows_chunk_moves_one_rows_chunk_and_concatenates_the_rest() {
        let one = rel();
        let buffer = one
            .to_rows_chunk()
            .unwrap()
            .column(0)
            .i64_data()
            .unwrap()
            .as_ptr();
        let moved = one.into_rows_chunk().unwrap();
        assert_eq!(moved.column(0).i64_data().unwrap().as_ptr(), buffer);
        let mut two = rel();
        two.push_chunk(rel().chunks()[0].clone());
        let expected = two.to_rows_chunk().unwrap().into_owned();
        let cat = two.into_rows_chunk().unwrap();
        assert_eq!(cat.len(), 6);
        assert_eq!(cat, expected);
        let dense = matrix_dataset(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(dense.into_rows_chunk().unwrap().len(), 4);
    }

    #[test]
    fn collect_column_spans_chunks() {
        let mut ds = rel();
        let extra = rel();
        ds.push_chunk(extra.chunks()[0].clone());
        let col = ds.collect_column("k").unwrap();
        assert_eq!(col.len(), 6);
    }

    #[test]
    fn estimated_bytes_positive_and_monotone() {
        let small = rel();
        let mut big = rel();
        big.push_chunk(small.chunks()[0].clone());
        assert!(small.estimated_bytes() > 0);
        assert!(big.estimated_bytes() > small.estimated_bytes());
    }

    #[test]
    fn show_truncates() {
        let s = rel().show(2);
        assert!(s.contains("(3 rows total)"), "{s}");
    }

    #[test]
    fn dataset_matrix_validates_shape() {
        let ds = rel();
        assert!(dataset_matrix(&ds).is_err());
    }

    #[test]
    fn dense_grid_partitions_without_loss() {
        let ds = matrix_dataset(5, 7, (0..35).map(|i| i as f64).collect()).unwrap();
        let grid = ds.to_dense_grid(3).unwrap();
        // ceil(5/3) * ceil(7/3) = 2 * 3 = 6 fully-populated tiles.
        assert_eq!(grid.chunks().len(), 6);
        assert!(grid.same_bag(&ds).unwrap());
        // Tile boxes partition the bounding box.
        let vol: usize = grid
            .chunks()
            .iter()
            .map(|c| match c {
                Chunk::Dense(d) => d.bounds().volume(),
                _ => panic!("grid must be dense"),
            })
            .sum();
        assert_eq!(vol, 35);
    }

    #[test]
    fn dense_grid_drops_empty_tiles() {
        let schema = Schema::new(vec![
            Field::dimension_bounded("i", 0, 100),
            Field::value("v", DataType::Int64),
        ])
        .unwrap();
        // Only two populated cells, far apart.
        let ds = DataSet::from_rows(
            schema,
            &[
                Row(vec![Value::Int(1), Value::Int(10)]),
                Row(vec![Value::Int(95), Value::Int(20)]),
            ],
        )
        .unwrap();
        let grid = ds.to_dense_grid(10).unwrap();
        assert_eq!(grid.chunks().len(), 2, "8 empty tiles pruned at build");
        assert!(grid.same_bag(&ds).unwrap());
    }

    #[test]
    fn dense_grid_validates() {
        let ds = matrix_dataset(2, 2, vec![0.0; 4]).unwrap();
        assert!(ds.to_dense_grid(0).is_err());
        assert!(rel().to_dense_grid(4).is_err(), "relations have no box");
    }
}
