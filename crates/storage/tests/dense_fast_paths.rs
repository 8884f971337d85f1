//! Property tests for the dense fast paths: `DenseChunk::to_rows` reads
//! value columns whole instead of cell by cell, and `DataSet::to_dense`
//! returns already-dense data as it is. Both must agree with the per-cell
//! definitions they replace, and type mismatches must still be refused.

use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use proptest::test_runner::TestRng;

use bda_storage::{
    Bitmap, Chunk, Column, DataSet, DataType, DenseChunk, DimBox, Field, Row, Schema, Value,
};

/// One cell's value attributes: an `f64`, an `i64` and a string, each
/// possibly null.
type Cell = (Option<f64>, Option<i64>, Option<String>);

#[derive(Debug, Clone)]
struct Case {
    bounds: DimBox,
    cells: Vec<Cell>,
    present: Option<Vec<bool>>,
    values_first: bool,
}

impl Case {
    fn schema_with(&self, f_type: DataType) -> Schema {
        let dims = (0..self.bounds.ndims()).map(|d| {
            Field::dimension_bounded(format!("d{d}"), self.bounds.lo[d], self.bounds.hi[d])
        });
        let vals = [
            Field::value("f", f_type),
            Field::value("i", DataType::Int64),
            Field::value("s", DataType::Utf8),
        ];
        let fields = if self.values_first {
            vals.into_iter().chain(dims).collect()
        } else {
            dims.chain(vals).collect()
        };
        Schema::new(fields).unwrap()
    }

    fn schema(&self) -> Schema {
        self.schema_with(DataType::Float64)
    }

    fn chunk(&self) -> DenseChunk {
        let column = |dtype: DataType, pick: &dyn Fn(&Cell) -> Value| {
            let values: Vec<Value> = self.cells.iter().map(pick).collect();
            Column::from_values(dtype, &values).unwrap()
        };
        let columns = vec![
            column(DataType::Float64, &|c| {
                c.0.map_or(Value::Null, Value::Float)
            }),
            column(DataType::Int64, &|c| c.1.map_or(Value::Null, Value::Int)),
            column(DataType::Utf8, &|c| {
                c.2.clone().map_or(Value::Null, Value::Str)
            }),
        ];
        let present = self.present.as_deref().map(Bitmap::from_bools);
        DenseChunk::new(self.bounds.clone(), columns, present).unwrap()
    }

    fn is_present(&self, idx: usize) -> bool {
        self.present.as_ref().is_none_or(|p| p[idx])
    }

    fn dataset(&self) -> DataSet {
        DataSet::new(self.schema(), vec![Chunk::Dense(self.chunk())])
    }
}

/// A random 1-3-D case: origins in `[-5, 5)`, sides of 1-3 cells, a
/// presence bitmap half the time, and one null in five value slots.
fn arb_case() -> impl Strategy<Value = Case> {
    FnStrategy::new(|rng: &mut TestRng| {
        let ndims = 1 + rng.below(3) as usize;
        let lo: Vec<i64> = (0..ndims).map(|_| rng.below(10) as i64 - 5).collect();
        let hi = lo.iter().map(|&l| l + 1 + rng.below(3) as i64).collect();
        let bounds = DimBox::new(lo, hi).unwrap();
        let vol = bounds.volume();
        let maybe = |rng: &mut TestRng| rng.below(5) != 0;
        let cells = (0..vol)
            .map(|_| {
                let f = maybe(rng).then(|| (rng.below(200) as f64 - 100.0) / 4.0);
                let i = maybe(rng).then(|| rng.below(100) as i64 - 50);
                let s = maybe(rng).then(|| "abc"[..rng.below(4) as usize].to_string());
                (f, i, s)
            })
            .collect();
        let present = (rng.below(2) == 0).then(|| (0..vol).map(|_| rng.below(2) == 0).collect());
        Case {
            bounds,
            cells,
            present,
            values_first: rng.below(2) == 0,
        }
    })
}

/// The definition `to_rows` must keep: present cells in row-major order,
/// each row the cell's coordinates and values in schema order.
fn per_cell_rows(case: &Case) -> Vec<Row> {
    let chunk = case.chunk();
    let schema = case.schema();
    let mut out = Vec::new();
    for (idx, coords) in case.bounds.iter_coords().enumerate() {
        if !case.is_present(idx) {
            continue;
        }
        let (mut coords, mut vals) = (coords.into_iter(), chunk.columns().iter());
        out.push(Row(schema
            .fields()
            .iter()
            .map(|f| match f.is_dimension() {
                true => Value::Int(coords.next().unwrap()),
                false => vals.next().unwrap().get(idx),
            })
            .collect()));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn to_rows_matches_the_per_cell_enumeration(case in arb_case()) {
        let rows = case.chunk().to_rows(&case.schema()).unwrap();
        prop_assert_eq!(rows.rows().collect::<Vec<_>>(), per_cell_rows(&case));
        let schema = case.schema();
        for (pos, field) in schema.fields().iter().enumerate() {
            let col = rows.column(pos);
            prop_assert_eq!(col.dtype(), field.dtype);
            let has_null = col.iter().any(|v| v.is_null());
            prop_assert_eq!(col.validity().is_some(), has_null, "field {}", &field.name);
        }
    }

    #[test]
    fn to_dense_of_dense_data_is_bag_equal_to_densified_rows(case in arb_case()) {
        let ds = case.dataset();
        prop_assert!(ds.dense_in_place().is_some());
        let fast = ds.to_dense().unwrap();
        let rows = DataSet::new(case.schema(), vec![Chunk::Rows(ds.to_rows_chunk().unwrap().into_owned())]);
        let slow = rows.to_dense().unwrap();
        prop_assert!(fast.same_bag(&slow).unwrap());
        prop_assert!(fast.same_bag(&ds).unwrap());
    }

    #[test]
    fn mistyped_dense_columns_still_error(case in arb_case()) {
        // Refused whatever the cells hold, absent and null ones included.
        let schema = case.schema_with(DataType::Int64);
        let chunk = case.chunk();
        prop_assert!(chunk.to_rows(&schema).is_err());
        let ds = DataSet::new(schema, vec![Chunk::Dense(chunk)]);
        prop_assert!(ds.dense_in_place().is_none());
        prop_assert!(ds.to_dense().is_err());
    }
}

#[test]
fn offset_and_tiled_layouts_are_rebuilt() {
    let schema = Schema::new(vec![
        Field::dimension_bounded("i", 0, 4),
        Field::value("v", DataType::Float64),
    ])
    .unwrap();
    let tile = |lo: i64| {
        let bounds = DimBox::new(vec![lo], vec![lo + 2]).unwrap();
        Chunk::Dense(DenseChunk::new(bounds, vec![Column::from(vec![1.0, 2.0])], None).unwrap())
    };
    // A box inside the schema's box, and a grid of two tiles, both densify
    // to one chunk over the schema's box.
    for chunks in [vec![tile(1)], vec![tile(0), tile(2)]] {
        let ds = DataSet::new(schema.clone(), chunks);
        assert!(ds.dense_in_place().is_none());
        let dense = ds.to_dense().unwrap();
        match dense.chunks() {
            [Chunk::Dense(d)] => assert_eq!(d.bounds(), &DimBox::new(vec![0], vec![4]).unwrap()),
            other => panic!("expected one dense chunk, got {other:?}"),
        }
        assert!(dense.same_bag(&ds).unwrap());
    }
    // A box that overhangs the schema's box is refused, as before.
    let ds = DataSet::new(schema, vec![tile(3)]);
    assert!(ds.to_dense().is_err());
}
