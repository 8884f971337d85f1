//! `engine::select` filters each chunk in place, skipping the chunks a
//! skip set marks. Its output must be byte-identical — validity bitmaps
//! included — to concatenating the chunks it reads into one chunk and
//! filtering that, the way `Select` ran before it read chunks in place.
//! Tables mix rows chunks (with and without validity bitmaps), empty
//! chunks and dense chunks, with nulls in every value column and NaN
//! among the floats.

use proptest::prelude::*;

use bda_core::engine::{select, truth_mask};
use bda_core::eval::eval_chunk;
use bda_core::{col, lit, Expr};
use bda_storage::wire::encode_dataset;
use bda_storage::{
    Bitmap, Chunk, Column, DataSet, DataType, DenseChunk, DimBox, Field, Row, RowsChunk, Schema,
    Value,
};

const SIDE: i64 = 8;

fn schema() -> Schema {
    Schema::new(vec![
        Field::dimension_bounded("i", 0, SIDE),
        Field::dimension_bounded("j", 0, SIDE),
        Field::value("x", DataType::Float64),
        Field::value("s", DataType::Utf8),
        Field::value("b", DataType::Bool),
    ])
    .unwrap()
}

/// One cell's values, nulls and NaN included.
fn arb_values() -> impl Strategy<Value = (Value, Value, Value)> {
    (
        prop_oneof![
            3 => (-4i32..4).prop_map(|x| Value::Float(x as f64 / 2.0)),
            1 => Just(Value::Float(f64::NAN)),
            1 => Just(Value::Null),
        ],
        prop_oneof![3 => "[ab]".prop_map(Value::from), 1 => Just(Value::Null)],
        prop_oneof![3 => any::<bool>().prop_map(Value::Bool), 1 => Just(Value::Null)],
    )
}

/// How one chunk holds its cells.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// Rows pushed one at a time (a bitmap only where a null was pushed).
    Rows,
    /// Rows whose every column carries a validity bitmap.
    Tracked,
    /// A dense box over the cells' bounding box (empty: a rows chunk).
    Dense,
}

fn arb_layout() -> impl Strategy<Value = Layout> {
    prop_oneof![
        Just(Layout::Rows),
        Just(Layout::Tracked),
        Just(Layout::Dense)
    ]
}

fn tracked(c: &Column) -> Column {
    let all = || Some(Bitmap::filled(c.len(), true));
    match c.clone() {
        Column::Int64(d, v) => Column::Int64(d, v.or_else(all)),
        Column::Float64(d, v) => Column::Float64(d, v.or_else(all)),
        Column::Bool(d, v) => Column::Bool(d, v.or_else(all)),
        Column::Utf8(d, v) => Column::Utf8(d, v.or_else(all)),
    }
}

fn chunk_of(rows: &[Row], layout: Layout) -> Chunk {
    let schema = schema();
    let chunk = DataSet::from_rows(schema.clone(), rows)
        .unwrap()
        .to_rows_chunk()
        .unwrap()
        .into_owned();
    match layout {
        Layout::Dense if !rows.is_empty() => {
            let coord = |d: usize| rows.iter().map(move |r| r.get(d).as_int().unwrap());
            let lo: Vec<i64> = (0..2).map(|d| coord(d).min().unwrap()).collect();
            let hi: Vec<i64> = (0..2).map(|d| coord(d).max().unwrap() + 1).collect();
            let bounds = DimBox::new(lo, hi).unwrap();
            Chunk::Dense(DenseChunk::from_rows(&schema, &chunk, bounds).unwrap())
        }
        Layout::Tracked => {
            Chunk::Rows(RowsChunk::new(chunk.columns().iter().map(tracked).collect()).unwrap())
        }
        _ => Chunk::Rows(chunk),
    }
}

/// A table of distinct cells cut into chunks of random sizes and
/// layouts; a chunk may be empty.
fn arb_table() -> impl Strategy<Value = DataSet> {
    (
        prop::collection::btree_map((0..SIDE, 0..SIDE), arb_values(), 0..40),
        prop::collection::vec((0usize..12, arb_layout()), 1..6),
    )
        .prop_map(|(cells, cuts)| {
            let rows: Vec<Row> = cells
                .into_iter()
                .map(|((i, j), (x, s, b))| Row(vec![Value::Int(i), Value::Int(j), x, s, b]))
                .collect();
            let mut ds = DataSet::empty(schema());
            let mut rest = rows.as_slice();
            for (n, layout) in cuts {
                let (now, later) = rest.split_at(n.min(rest.len()));
                ds.push_chunk(chunk_of(now, layout));
                rest = later;
            }
            ds.push_chunk(chunk_of(rest, Layout::Rows));
            ds
        })
}

fn arb_pred() -> impl Strategy<Value = Expr> {
    let f = (-4i32..4).prop_map(|x| x as f64 / 2.0);
    prop_oneof![
        f.clone().prop_map(|v| col("x").gt(lit(v))),
        Just(col("s").eq(lit("a"))),
        Just(col("b")),
        Just(col("x").is_null()),
        Just(col("s").is_null().not()),
        (0..SIDE, f).prop_map(|(i, v)| col("i").lt(lit(i)).and(col("x").le(lit(v)))),
    ]
}

/// The chunks `skip` does not mark, concatenated, then filtered.
fn concatenate_then_filter(ds: &DataSet, pred: &Expr, skip: &[bool]) -> DataSet {
    let schema = ds.schema();
    let mut all = RowsChunk::empty(schema);
    for (ci, ch) in ds.chunks().iter().enumerate() {
        if !skip.get(ci).copied().unwrap_or(false) {
            all.extend(&ch.to_rows(schema).unwrap()).unwrap();
        }
    }
    let mask = truth_mask(&eval_chunk(pred, schema, &all).unwrap()).unwrap();
    DataSet::new(schema.clone(), vec![Chunk::Rows(all.filter(&mask))])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn per_chunk_select_matches_concatenate_then_filter(
        ds in arb_table(),
        pred in arb_pred(),
        skip in prop::collection::vec(any::<bool>(), 0..8),
    ) {
        for skip in [&[][..], &skip[..]] {
            let ours = select(&ds, &pred, skip, ds.schema().clone()).unwrap();
            let oracle = concatenate_then_filter(&ds, &pred, skip);
            prop_assert_eq!(encode_dataset(&ours), encode_dataset(&oracle), "skip {:?}", skip);
        }
    }
}
