//! Property test for the load-time statistics: the typed one-pass fold
//! (`stats::summarize`, which `TableStats::of` and the relational
//! engine's table metadata use) must give exactly what folding every
//! cell as a `Value`, chunk by chunk and then over the whole table,
//! gives. Exactly means bit for bit: min and max compared by variant and
//! bits (so `-0.0` vs `0.0` and NaN payloads count), and `distinct` from
//! a KMV sketch that hashes each `Value` as the engine always has.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use proptest::test_runner::TestRng;

use bda_storage::stats::{summarize, ZoneMap};
use bda_storage::{
    Bitmap, Chunk, Column, DataSet, DataType, DenseChunk, DimBox, Field, RowsChunk, Schema,
    TableStats, Value,
};

/// The sketch capacity the engine uses.
const KMV_K: usize = 64;

/// The value-at-a-time fold: every cell as a `Value`, min/max replaced
/// only on a strict `total_cmp` improvement, every non-null value's
/// `Value` hash into a k-minimum-values set trimmed after each insert.
#[derive(Default)]
struct Fold {
    min: Option<Value>,
    max: Option<Value>,
    null_count: usize,
    len: usize,
    hashes: BTreeSet<u64>,
}

impl Fold {
    fn observe(&mut self, v: &Value) {
        self.len += 1;
        if v.is_null() {
            self.null_count += 1;
            return;
        }
        match &self.min {
            Some(m) if m.total_cmp(v) != Ordering::Greater => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if m.total_cmp(v) != Ordering::Less => {}
            _ => self.max = Some(v.clone()),
        }
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        self.hashes.insert(h.finish());
        if self.hashes.len() > KMV_K {
            let largest = *self.hashes.iter().next_back().unwrap();
            self.hashes.remove(&largest);
        }
    }

    fn distinct(&self) -> usize {
        if self.hashes.len() < KMV_K {
            return self.hashes.len();
        }
        let kth = *self.hashes.iter().next_back().unwrap() as f64;
        if kth <= 0.0 {
            return self.hashes.len();
        }
        (((KMV_K - 1) as f64) * (u64::MAX as f64 / kth)) as usize
    }
}

/// A min/max rendered so that only bit-identical values compare equal.
fn exact(v: &Option<Value>) -> String {
    match v {
        Some(Value::Float(f)) => format!("Float({:#018x})", f.to_bits()),
        other => format!("{other:?}"),
    }
}

fn check(got: &ZoneMap, want: &Fold, what: &str) {
    prop_assert_eq!(exact(&got.min), exact(&want.min), "min of {}", what);
    prop_assert_eq!(exact(&got.max), exact(&want.max), "max of {}", what);
    prop_assert_eq!(got.null_count, want.null_count, "null_count of {}", what);
    prop_assert_eq!(got.len, want.len, "len of {}", what);
    prop_assert_eq!(got.distinct, want.distinct(), "distinct of {}", what);
}

/// Compare `summarize` and `TableStats::of` against the value fold.
fn assert_identical(ds: &DataSet) {
    let schema = ds.schema();
    let (chunks, table) = summarize(ds).unwrap();
    prop_assert_eq!(chunks.len(), ds.chunks().len());
    let mut whole: Vec<Fold> = (0..schema.len()).map(|_| Fold::default()).collect();
    for (c, (chunk, stats)) in ds.chunks().iter().zip(&chunks).enumerate() {
        let rows = chunk.to_rows(schema).unwrap();
        prop_assert_eq!(stats.columns.len(), schema.len());
        for (i, col) in rows.columns().iter().enumerate() {
            let mut part = Fold::default();
            for v in col.iter() {
                part.observe(&v);
                whole[i].observe(&v);
            }
            check(&stats.columns[i], &part, &format!("chunk {c} column {i}"));
        }
    }
    for stats in [&table, &TableStats::of(ds).unwrap()] {
        prop_assert_eq!(stats.row_count, ds.num_rows());
        for (i, field) in schema.fields().iter().enumerate() {
            prop_assert_eq!(&stats.columns[i].0, &field.name);
            check(&stats.columns[i].1, &whole[i], &format!("table column {i}"));
        }
    }
}

/// Special cells mixed into the random ones, so the edges of the orders
/// and of the hash feed show up in small tables.
const SPECIAL_F64: [f64; 8] = [
    0.0,
    -0.0,
    f64::NAN,
    -f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE,
    -1.5,
];
const SPECIAL_I64: [i64; 5] = [i64::MIN, i64::MAX, 0, -1, 1 << 53];

/// How a column's cells are drawn: `spread` picks the value range (a
/// few values repeat, many overflow the sketch), `nulls` the share of
/// null slots in percent.
#[derive(Debug, Clone, Copy)]
struct Draw {
    spread: u64,
    nulls: u64,
}

impl Draw {
    fn random(rng: &mut TestRng) -> Draw {
        Draw {
            spread: [3, 40, 5_000][rng.below(3) as usize],
            nulls: [0, 0, 10, 60, 100][rng.below(5) as usize],
        }
    }

    fn cell(self, rng: &mut TestRng, dtype: DataType) -> Value {
        if rng.below(100) < self.nulls {
            return Value::Null;
        }
        let special = rng.below(8) == 0;
        let n = rng.below(self.spread);
        match dtype {
            DataType::Int64 if special => Value::Int(SPECIAL_I64[n as usize % 5]),
            DataType::Int64 => Value::Int(n as i64 - (self.spread / 2) as i64),
            DataType::Float64 if special => Value::Float(SPECIAL_F64[n as usize % 8]),
            DataType::Float64 => Value::Float((n as f64 - (self.spread / 2) as f64) / 4.0),
            DataType::Bool => Value::Bool(n.is_multiple_of(2)),
            DataType::Utf8 if special => Value::Str(String::new()),
            DataType::Utf8 => Value::Str(format!("s{n}")),
        }
    }

    fn column(self, rng: &mut TestRng, dtype: DataType, len: usize) -> Column {
        let values: Vec<Value> = (0..len).map(|_| self.cell(rng, dtype)).collect();
        Column::from_values(dtype, &values).unwrap()
    }
}

const DTYPES: [DataType; 4] = [
    DataType::Int64,
    DataType::Float64,
    DataType::Bool,
    DataType::Utf8,
];

/// A coordinate-list table of all four dtypes over 1-5 chunks of 0-300
/// rows each, columns in a random order.
fn arb_rows_table() -> impl Strategy<Value = DataSet> {
    FnStrategy::new(|rng: &mut TestRng| {
        let mut dtypes = DTYPES.to_vec();
        dtypes.rotate_left(rng.below(4) as usize);
        let schema = Schema::new(
            dtypes
                .iter()
                .enumerate()
                .map(|(i, &t)| Field::value(format!("c{i}"), t))
                .collect(),
        )
        .unwrap();
        let draws: Vec<Draw> = dtypes.iter().map(|_| Draw::random(rng)).collect();
        let chunks = (0..1 + rng.below(5))
            .map(|_| {
                let len = rng.below(301) as usize;
                let columns = dtypes
                    .iter()
                    .zip(&draws)
                    .map(|(&t, d)| d.column(rng, t, len))
                    .collect();
                Chunk::Rows(RowsChunk::new(columns).unwrap())
            })
            .collect();
        DataSet::new(schema, chunks)
    })
}

/// A 2-D array `(i, j) -> (v: f64, n: i64, s: utf8, b: bool)` stored as
/// 1-4 dense tiles along `i`, each with a presence bitmap half the time,
/// and now and then a coordinate-list chunk of cells beside them.
fn arb_dense_table() -> impl Strategy<Value = DataSet> {
    FnStrategy::new(|rng: &mut TestRng| {
        let tiles = 1 + rng.below(4) as i64;
        let (rows, cols) = (1 + rng.below(12) as i64, 1 + rng.below(12) as i64);
        let values = [
            DataType::Float64,
            DataType::Int64,
            DataType::Utf8,
            DataType::Bool,
        ];
        let mut fields = vec![
            Field::dimension_bounded("i", 0, tiles * rows),
            Field::dimension_bounded("j", 0, cols),
        ];
        fields.extend(
            values
                .iter()
                .enumerate()
                .map(|(k, &t)| Field::value(format!("v{k}"), t)),
        );
        let schema = Schema::new(fields).unwrap();
        let draws: Vec<Draw> = values.iter().map(|_| Draw::random(rng)).collect();
        let mut chunks = Vec::new();
        for t in 0..tiles {
            let bounds = DimBox::new(vec![t * rows, 0], vec![(t + 1) * rows, cols]).unwrap();
            let vol = bounds.volume();
            let columns = values
                .iter()
                .zip(&draws)
                .map(|(&ty, d)| d.column(rng, ty, vol))
                .collect();
            let present = (rng.below(2) == 0).then(|| {
                Bitmap::from_bools(&(0..vol).map(|_| rng.below(3) != 0).collect::<Vec<_>>())
            });
            chunks.push(Chunk::Dense(
                DenseChunk::new(bounds, columns, present).unwrap(),
            ));
        }
        if rng.below(3) == 0 {
            let len = rng.below(20) as usize;
            let mut columns = vec![
                Draw {
                    spread: (tiles * rows) as u64,
                    nulls: 0,
                }
                .column(rng, DataType::Int64, len),
                Draw {
                    spread: cols as u64,
                    nulls: 0,
                }
                .column(rng, DataType::Int64, len),
            ];
            columns.extend(
                values
                    .iter()
                    .zip(&draws)
                    .map(|(&ty, d)| d.column(rng, ty, len)),
            );
            chunks.push(Chunk::Rows(RowsChunk::new(columns).unwrap()));
        }
        DataSet::new(schema, chunks)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn rows_tables_match_the_value_fold(ds in arb_rows_table()) {
        assert_identical(&ds);
    }

    #[test]
    fn dense_tables_match_the_value_fold(ds in arb_dense_table()) {
        assert_identical(&ds);
    }
}

#[test]
fn one_dense_matrix_matches_the_value_fold() {
    // The shape a linalg product lands in when it is pushed into the
    // relational engine: one fully present dense box.
    let n = 64i64;
    let schema = Schema::new(vec![
        Field::dimension_bounded("i", 0, n),
        Field::dimension_bounded("j", 0, n),
        Field::value("v", DataType::Float64),
    ])
    .unwrap();
    let bounds = DimBox::new(vec![0, 0], vec![n, n]).unwrap();
    let v: Vec<f64> = (0..n * n)
        .map(|k| ((k * 7919) % 1013) as f64 / 8.0 - 60.0)
        .collect();
    let chunk = DenseChunk::new(bounds, vec![Column::from(v)], None).unwrap();
    assert_identical(&DataSet::new(schema, vec![Chunk::Dense(chunk)]));
}
