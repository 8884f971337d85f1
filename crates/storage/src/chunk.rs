//! Chunks: the physical batches a dataset is made of.

use std::borrow::Cow;

use crate::column::Column;
use crate::dense::DenseChunk;
use crate::error::StorageError;
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;

/// A columnar batch in coordinate-list layout: one column per schema field
/// (dimension fields are explicit `Int64` coordinate columns).
#[derive(Debug, Clone, PartialEq)]
pub struct RowsChunk {
    columns: Vec<Column>,
    len: usize,
}

impl RowsChunk {
    /// Build from columns, validating equal lengths.
    pub fn new(columns: Vec<Column>) -> Result<RowsChunk> {
        let len = columns.first().map(Column::len).unwrap_or(0);
        for (i, c) in columns.iter().enumerate() {
            if c.len() != len {
                return Err(StorageError::LengthMismatch {
                    expected: len,
                    actual: c.len(),
                    context: format!("RowsChunk column {i}"),
                });
            }
        }
        Ok(RowsChunk { columns, len })
    }

    /// An empty chunk matching `schema`'s field types.
    pub fn empty(schema: &Schema) -> RowsChunk {
        RowsChunk {
            columns: schema
                .fields()
                .iter()
                .map(|f| Column::new_empty(f.dtype))
                .collect(),
            len: 0,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column at position `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Row {
        Row(self.columns.iter().map(|c| c.get(i)).collect())
    }

    /// Iterate over rows.
    pub fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.len).map(move |i| self.row(i))
    }

    /// Append a row of scalars (must match column types).
    pub fn push_row(&mut self, row: &Row) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(StorageError::LengthMismatch {
                expected: self.columns.len(),
                actual: row.len(),
                context: "RowsChunk::push_row".into(),
            });
        }
        for (c, v) in self.columns.iter_mut().zip(&row.0) {
            c.push(v)?;
        }
        self.len += 1;
        Ok(())
    }

    /// Keep rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> RowsChunk {
        let columns: Vec<Column> = self.columns.iter().map(|c| c.filter(mask)).collect();
        let len = mask.iter().filter(|&&m| m).count();
        RowsChunk { columns, len }
    }

    /// Gather rows at `indices`.
    pub fn take(&self, indices: &[usize]) -> RowsChunk {
        RowsChunk {
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
            len: indices.len(),
        }
    }

    /// Drop every all-valid validity bitmap ([`Column::normalize`]), so
    /// a column tracks nulls only when it holds one — as if its rows had
    /// been pushed one at a time.
    pub fn normalize(&mut self) {
        self.columns.iter_mut().for_each(Column::normalize);
    }

    /// Concatenate another chunk (same column types) onto this one.
    pub fn extend(&mut self, other: &RowsChunk) -> Result<()> {
        if self.columns.len() != other.columns.len() {
            return Err(StorageError::LengthMismatch {
                expected: self.columns.len(),
                actual: other.columns.len(),
                context: "RowsChunk::extend arity".into(),
            });
        }
        for (a, b) in self.columns.iter_mut().zip(&other.columns) {
            a.extend(b)?;
        }
        self.len += other.len;
        Ok(())
    }
}

/// A physical batch: either coordinate-list rows or a dense array box.
#[derive(Debug, Clone, PartialEq)]
pub enum Chunk {
    /// Columnar coordinate-list layout.
    Rows(RowsChunk),
    /// Dense box layout (see [`DenseChunk`]).
    Dense(DenseChunk),
}

impl Chunk {
    /// Number of *logical cells/rows* in the chunk. For dense chunks this
    /// counts only valid (present) cells.
    pub fn len(&self) -> usize {
        match self {
            Chunk::Rows(r) => r.len(),
            Chunk::Dense(d) => d.present_count(),
        }
    }

    /// True when no rows/cells are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Convert to coordinate-list layout under the given schema.
    ///
    /// A rows chunk is borrowed as is. For dense chunks this enumerates
    /// present cells in row-major order, producing explicit dimension
    /// columns.
    pub fn to_rows(&self, schema: &Schema) -> Result<Cow<'_, RowsChunk>> {
        match self {
            Chunk::Rows(r) => Ok(Cow::Borrowed(r)),
            Chunk::Dense(d) => d.to_rows(schema).map(Cow::Owned),
        }
    }

    /// Materialized rows (convenience for tests / reference evaluator).
    pub fn materialize(&self, schema: &Schema) -> Result<Vec<Row>> {
        Ok(self.to_rows(schema)?.rows().collect())
    }
}

/// Build a one-chunk list of rows from scalar literals (test helper used
/// across the workspace, hence public).
pub fn rows_chunk_of(schema: &Schema, rows: &[Vec<Value>]) -> Result<RowsChunk> {
    let mut chunk = RowsChunk::empty(schema);
    for r in rows {
        chunk.push_row(&Row(r.clone()))?;
    }
    Ok(chunk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::types::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::value("k", DataType::Int64),
            Field::value("name", DataType::Utf8),
        ])
        .unwrap()
    }

    #[test]
    fn new_validates_lengths() {
        let err =
            RowsChunk::new(vec![Column::from(vec![1i64, 2]), Column::from(vec!["a"])]).unwrap_err();
        assert!(matches!(err, StorageError::LengthMismatch { .. }));
    }

    #[test]
    fn push_and_materialize() {
        let s = schema();
        let c = rows_chunk_of(
            &s,
            &[
                vec![Value::Int(1), Value::from("a")],
                vec![Value::Int(2), Value::Null],
            ],
        )
        .unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.row(1), Row(vec![Value::Int(2), Value::Null]));
        let all: Vec<Row> = c.rows().collect();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn push_row_arity_check() {
        let s = schema();
        let mut c = RowsChunk::empty(&s);
        assert!(c.push_row(&Row(vec![Value::Int(1)])).is_err());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn filter_take_extend() {
        let s = schema();
        let c = rows_chunk_of(
            &s,
            &[
                vec![Value::Int(1), Value::from("a")],
                vec![Value::Int(2), Value::from("b")],
                vec![Value::Int(3), Value::from("c")],
            ],
        )
        .unwrap();
        let f = c.filter(&[true, false, true]);
        assert_eq!(f.len(), 2);
        assert_eq!(f.row(1).get(0), &Value::Int(3));
        let t = c.take(&[2, 2]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(0).get(1), &Value::from("c"));
        let mut e = c.clone();
        e.extend(&f).unwrap();
        assert_eq!(e.len(), 5);
    }

    #[test]
    fn chunk_enum_len() {
        let s = schema();
        let c = rows_chunk_of(&s, &[vec![Value::Int(1), Value::from("a")]]).unwrap();
        let chunk = Chunk::Rows(c);
        assert_eq!(chunk.len(), 1);
        assert!(!chunk.is_empty());
        assert_eq!(chunk.materialize(&s).unwrap().len(), 1);
    }
}
