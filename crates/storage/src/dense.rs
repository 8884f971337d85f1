//! Dense array chunks: the layout native to array and linear-algebra engines.

use crate::bitmap::Bitmap;
use crate::chunk::RowsChunk;
use crate::column::Column;
use crate::error::StorageError;
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;

/// A hyper-rectangular region of dimension space: `[lo[d], hi[d])` per axis.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DimBox {
    /// Inclusive lower bound per dimension.
    pub lo: Vec<i64>,
    /// Exclusive upper bound per dimension.
    pub hi: Vec<i64>,
}

impl DimBox {
    /// Build a box; every axis must be non-empty.
    pub fn new(lo: Vec<i64>, hi: Vec<i64>) -> Result<DimBox> {
        if lo.len() != hi.len() {
            return Err(StorageError::DimensionError(format!(
                "box rank mismatch: {} vs {}",
                lo.len(),
                hi.len()
            )));
        }
        for d in 0..lo.len() {
            if lo[d] >= hi[d] {
                return Err(StorageError::DimensionError(format!(
                    "box axis {d} empty: [{}, {})",
                    lo[d], hi[d]
                )));
            }
        }
        Ok(DimBox { lo, hi })
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.lo.len()
    }

    /// Side length of axis `d`.
    pub fn extent(&self, d: usize) -> usize {
        (self.hi[d] - self.lo[d]) as usize
    }

    /// Total number of cells.
    pub fn volume(&self) -> usize {
        (0..self.ndims()).map(|d| self.extent(d)).product()
    }

    /// True when `coords` lies inside the box.
    pub fn contains(&self, coords: &[i64]) -> bool {
        coords.len() == self.ndims()
            && coords
                .iter()
                .enumerate()
                .all(|(d, &c)| c >= self.lo[d] && c < self.hi[d])
    }

    /// Row-major linear offset of `coords` within the box.
    #[allow(clippy::needless_range_loop)]
    pub fn linearize(&self, coords: &[i64]) -> usize {
        debug_assert!(self.contains(coords), "{coords:?} outside {self:?}");
        let mut idx = 0usize;
        for d in 0..self.ndims() {
            idx = idx * self.extent(d) + (coords[d] - self.lo[d]) as usize;
        }
        idx
    }

    /// Inverse of [`DimBox::linearize`].
    pub fn delinearize(&self, mut idx: usize) -> Vec<i64> {
        let mut coords = vec![0i64; self.ndims()];
        for d in (0..self.ndims()).rev() {
            let e = self.extent(d);
            coords[d] = self.lo[d] + (idx % e) as i64;
            idx /= e;
        }
        coords
    }

    /// Intersection with another box, or `None` if disjoint.
    pub fn intersect(&self, other: &DimBox) -> Option<DimBox> {
        if self.ndims() != other.ndims() {
            return None;
        }
        let lo: Vec<i64> = self
            .lo
            .iter()
            .zip(&other.lo)
            .map(|(&a, &b)| a.max(b))
            .collect();
        let hi: Vec<i64> = self
            .hi
            .iter()
            .zip(&other.hi)
            .map(|(&a, &b)| a.min(b))
            .collect();
        if lo.iter().zip(&hi).all(|(&l, &h)| l < h) {
            Some(DimBox { lo, hi })
        } else {
            None
        }
    }

    /// Iterate all coordinates in row-major order.
    pub fn iter_coords(&self) -> impl Iterator<Item = Vec<i64>> + '_ {
        (0..self.volume()).map(move |i| self.delinearize(i))
    }
}

/// A dense chunk: a [`DimBox`] plus one value column per value attribute,
/// each of length `box.volume()`, laid out row-major.
///
/// The optional `present` bitmap marks which cells exist (sparse arrays
/// stored densely); `None` means every cell is present.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseChunk {
    bounds: DimBox,
    columns: Vec<Column>,
    present: Option<Bitmap>,
}

impl DenseChunk {
    /// Build and validate a dense chunk.
    pub fn new(
        bounds: DimBox,
        columns: Vec<Column>,
        present: Option<Bitmap>,
    ) -> Result<DenseChunk> {
        let vol = bounds.volume();
        for (i, c) in columns.iter().enumerate() {
            if c.len() != vol {
                return Err(StorageError::LengthMismatch {
                    expected: vol,
                    actual: c.len(),
                    context: format!("DenseChunk value column {i}"),
                });
            }
        }
        if let Some(bm) = &present {
            if bm.len() != vol {
                return Err(StorageError::LengthMismatch {
                    expected: vol,
                    actual: bm.len(),
                    context: "DenseChunk present bitmap".into(),
                });
            }
        }
        Ok(DenseChunk {
            bounds,
            columns,
            present,
        })
    }

    /// The chunk's box.
    pub fn bounds(&self) -> &DimBox {
        &self.bounds
    }

    /// The value columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The presence bitmap, if sparse.
    pub fn present(&self) -> Option<&Bitmap> {
        self.present.as_ref()
    }

    /// True when the cell at linear offset `idx` is present.
    pub fn is_present(&self, idx: usize) -> bool {
        match &self.present {
            Some(bm) => bm.get(idx),
            None => idx < self.bounds.volume(),
        }
    }

    /// Number of present cells.
    pub fn present_count(&self) -> usize {
        match &self.present {
            Some(bm) => bm.count_ones(),
            None => self.bounds.volume(),
        }
    }

    /// Convert to coordinate-list layout under `schema`: one row per
    /// present cell, in row-major order.
    ///
    /// `schema`'s dimension fields (in order) map to the box axes; its
    /// value fields map to the chunk's value columns, each of which must
    /// have its field's type. Coordinates come from an odometer over the
    /// box and each value column is one filter by the presence bitmap.
    pub fn to_rows(&self, schema: &Schema) -> Result<RowsChunk> {
        let dims = schema.dimensions();
        let vals = schema.values();
        if dims.len() != self.bounds.ndims() {
            return Err(StorageError::DimensionError(format!(
                "schema has {} dims, chunk box has {}",
                dims.len(),
                self.bounds.ndims()
            )));
        }
        if vals.len() != self.columns.len() {
            return Err(StorageError::LengthMismatch {
                expected: vals.len(),
                actual: self.columns.len(),
                context: "DenseChunk::to_rows value columns".into(),
            });
        }
        if let Some((f, c)) = vals
            .iter()
            .zip(&self.columns)
            .find(|(f, c)| f.dtype != c.dtype())
        {
            return Err(StorageError::TypeMismatch {
                expected: f.dtype,
                actual: c.dtype(),
                context: format!("DenseChunk::to_rows value column `{}`", f.name),
            });
        }
        let b = &self.bounds;
        let n = self.present_count();
        let mut coords: Vec<Vec<i64>> = (0..b.ndims()).map(|_| Vec::with_capacity(n)).collect();
        let mut at = b.lo.clone();
        for idx in 0..b.volume() {
            if self.is_present(idx) {
                for (axis, &c) in coords.iter_mut().zip(&at) {
                    axis.push(c);
                }
            }
            for d in (0..b.ndims()).rev() {
                at[d] += 1;
                if at[d] < b.hi[d] {
                    break;
                }
                at[d] = b.lo[d];
            }
        }
        let mask: Option<Vec<bool>> = self.present.as_ref().map(|bm| bm.iter().collect());
        let mut coords = coords.into_iter();
        let mut values = self.columns.iter().map(|c| {
            let mut kept = match &mask {
                Some(m) => c.filter(m),
                None => c.clone(),
            };
            kept.normalize();
            kept
        });
        let out = schema
            .fields()
            .iter()
            .map(|f| {
                if f.is_dimension() {
                    Column::from(coords.next().expect("one coordinate column per axis"))
                } else {
                    values.next().expect("one value column per value field")
                }
            })
            .collect();
        RowsChunk::new(out)
    }

    /// Densify a coordinate-list chunk into a dense chunk over `bounds`.
    ///
    /// Rows whose coordinates fall outside `bounds` are an error; duplicate
    /// coordinates keep the last write. Cells not covered by any row are
    /// absent (tracked in the presence bitmap).
    pub fn from_rows(schema: &Schema, rows: &RowsChunk, bounds: DimBox) -> Result<DenseChunk> {
        let dim_positions: Vec<usize> = schema
            .fields()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_dimension())
            .map(|(i, _)| i)
            .collect();
        let val_positions: Vec<usize> = schema
            .fields()
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.is_dimension())
            .map(|(i, _)| i)
            .collect();
        if dim_positions.len() != bounds.ndims() {
            return Err(StorageError::DimensionError(format!(
                "schema has {} dims, target box has {}",
                dim_positions.len(),
                bounds.ndims()
            )));
        }
        let vol = bounds.volume();
        let mut columns: Vec<Column> = val_positions
            .iter()
            .map(|&p| Column::nulls(schema.field_at(p).dtype, vol))
            .collect();
        let mut present = Bitmap::filled(vol, false);
        let mut coords = vec![0i64; bounds.ndims()];
        for r in 0..rows.len() {
            for (d, &p) in dim_positions.iter().enumerate() {
                coords[d] = match rows.column(p).get(r) {
                    Value::Int(c) => c,
                    other => {
                        return Err(StorageError::NotDense(format!(
                            "non-integer coordinate {other} in row {r}"
                        )))
                    }
                };
            }
            if !bounds.contains(&coords) {
                return Err(StorageError::NotDense(format!(
                    "coordinates {coords:?} outside target box"
                )));
            }
            let idx = bounds.linearize(&coords);
            present.set(idx, true);
            for (v, &p) in val_positions.iter().enumerate() {
                set_slot(&mut columns[v], idx, &rows.column(p).get(r))?;
            }
        }
        let present = if present.all_set() {
            None
        } else {
            Some(present)
        };
        DenseChunk::new(bounds, columns, present)
    }

    /// Read the value columns of the cell at `coords` as a row
    /// (values only, no coordinates). Returns `None` for absent cells.
    pub fn cell(&self, coords: &[i64]) -> Option<Row> {
        if !self.bounds.contains(coords) {
            return None;
        }
        let idx = self.bounds.linearize(coords);
        if !self.is_present(idx) {
            return None;
        }
        Some(Row(self.columns.iter().map(|c| c.get(idx)).collect()))
    }
}

/// Overwrite slot `idx` of a column that was pre-sized with nulls.
fn set_slot(col: &mut Column, idx: usize, v: &Value) -> Result<()> {
    // Columns built by `Column::nulls` always carry a validity bitmap.
    match (col, v) {
        (Column::Int64(d, bm), Value::Int(x)) => {
            d[idx] = *x;
            if let Some(bm) = bm {
                bm.set(idx, true);
            }
        }
        (Column::Float64(d, bm), Value::Float(x)) => {
            d[idx] = *x;
            if let Some(bm) = bm {
                bm.set(idx, true);
            }
        }
        (Column::Bool(d, bm), Value::Bool(x)) => {
            d[idx] = *x;
            if let Some(bm) = bm {
                bm.set(idx, true);
            }
        }
        (Column::Utf8(d, bm), Value::Str(x)) => {
            d[idx] = x.clone();
            if let Some(bm) = bm {
                bm.set(idx, true);
            }
        }
        (col, Value::Null) => {
            let dt = col.dtype();
            match col {
                Column::Int64(_, Some(bm))
                | Column::Float64(_, Some(bm))
                | Column::Bool(_, Some(bm))
                | Column::Utf8(_, Some(bm)) => bm.set(idx, false),
                _ => {
                    return Err(StorageError::Invalid(format!(
                        "cannot null slot of non-nullable {dt} column"
                    )))
                }
            }
        }
        (col, v) => {
            return Err(StorageError::TypeMismatch {
                expected: col.dtype(),
                actual: v.dtype().unwrap_or(crate::types::DataType::Utf8),
                context: "DenseChunk::from_rows".into(),
            })
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::rows_chunk_of;
    use crate::schema::Field;
    use crate::types::DataType;

    fn box2() -> DimBox {
        DimBox::new(vec![0, 10], vec![2, 13]).unwrap() // 2 x 3
    }

    #[test]
    fn box_geometry() {
        let b = box2();
        assert_eq!(b.ndims(), 2);
        assert_eq!(b.volume(), 6);
        assert!(b.contains(&[1, 12]));
        assert!(!b.contains(&[2, 10]));
        assert!(!b.contains(&[0, 13]));
    }

    #[test]
    fn linearize_roundtrip() {
        let b = box2();
        for idx in 0..b.volume() {
            let c = b.delinearize(idx);
            assert_eq!(b.linearize(&c), idx, "coords {c:?}");
        }
        // Row-major: second axis varies fastest.
        assert_eq!(b.linearize(&[0, 10]), 0);
        assert_eq!(b.linearize(&[0, 11]), 1);
        assert_eq!(b.linearize(&[1, 10]), 3);
    }

    #[test]
    fn intersect_boxes() {
        let a = DimBox::new(vec![0], vec![10]).unwrap();
        let b = DimBox::new(vec![5], vec![15]).unwrap();
        assert_eq!(
            a.intersect(&b),
            Some(DimBox::new(vec![5], vec![10]).unwrap())
        );
        let c = DimBox::new(vec![10], vec![12]).unwrap();
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn invalid_boxes_rejected() {
        assert!(DimBox::new(vec![0], vec![0]).is_err());
        assert!(DimBox::new(vec![0, 0], vec![1]).is_err());
    }

    fn schema2d() -> Schema {
        Schema::new(vec![
            Field::dimension_bounded("i", 0, 2),
            Field::dimension_bounded("j", 10, 13),
            Field::value("v", DataType::Float64),
        ])
        .unwrap()
    }

    #[test]
    fn dense_rows_roundtrip() {
        let s = schema2d();
        let rows = rows_chunk_of(
            &s,
            &[
                vec![Value::Int(0), Value::Int(10), Value::Float(1.0)],
                vec![Value::Int(1), Value::Int(12), Value::Float(2.0)],
            ],
        )
        .unwrap();
        let dense = DenseChunk::from_rows(&s, &rows, box2()).unwrap();
        assert_eq!(dense.present_count(), 2);
        assert_eq!(dense.cell(&[1, 12]), Some(Row(vec![Value::Float(2.0)])));
        assert_eq!(dense.cell(&[0, 11]), None);
        let back = dense.to_rows(&s).unwrap();
        let mut got: Vec<Row> = back.rows().collect();
        got.sort_by(|a, b| a.total_cmp(b));
        let mut want: Vec<Row> = rows.rows().collect();
        want.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(got, want);
    }

    #[test]
    fn from_rows_rejects_out_of_box() {
        let s = schema2d();
        let rows = rows_chunk_of(
            &s,
            &[vec![Value::Int(5), Value::Int(10), Value::Float(1.0)]],
        )
        .unwrap();
        assert!(matches!(
            DenseChunk::from_rows(&s, &rows, box2()),
            Err(StorageError::NotDense(_))
        ));
    }

    #[test]
    fn fully_present_drops_bitmap() {
        let s = Schema::new(vec![
            Field::dimension_bounded("i", 0, 2),
            Field::value("v", DataType::Int64),
        ])
        .unwrap();
        let rows = rows_chunk_of(
            &s,
            &[
                vec![Value::Int(0), Value::Int(7)],
                vec![Value::Int(1), Value::Int(8)],
            ],
        )
        .unwrap();
        let dense =
            DenseChunk::from_rows(&s, &rows, DimBox::new(vec![0], vec![2]).unwrap()).unwrap();
        assert!(dense.present().is_none());
        assert_eq!(dense.present_count(), 2);
    }

    #[test]
    fn null_values_in_cells() {
        let s = Schema::new(vec![
            Field::dimension_bounded("i", 0, 2),
            Field::value("v", DataType::Int64),
        ])
        .unwrap();
        let rows = rows_chunk_of(
            &s,
            &[
                vec![Value::Int(0), Value::Null],
                vec![Value::Int(1), Value::Int(8)],
            ],
        )
        .unwrap();
        let dense =
            DenseChunk::from_rows(&s, &rows, DimBox::new(vec![0], vec![2]).unwrap()).unwrap();
        assert_eq!(dense.cell(&[0]), Some(Row(vec![Value::Null])));
    }
}
