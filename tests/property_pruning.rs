//! Differential pruning-correctness: statistics-driven skipping must be
//! invisible in results. For every seeded random chunked table (nulls,
//! NaN, empty chunks included) and random predicate, a select executes
//! three ways — statistics off, zone maps on, zone maps plus secondary
//! indexes — and every mode must produce the same bag of rows as the
//! sequential reference evaluator. A second suite pins the load-time
//! statistics themselves: after any sequence of store/remove/re-store,
//! each column's zone map reports min/max/null-count *exactly*. F11
//! counts what skipping saves on a point query over key-clustered chunks.

use std::collections::HashMap;

use proptest::prelude::*;

use bda::core::reference::evaluate;
use bda::core::{col, lit, Expr, Plan, Provider};
use bda::obs::{scope, Tracer};
use bda::relational::RelationalEngine;
use bda::storage::stats::ZoneMap;
use bda::storage::{Column, DataSet, DataType, Field, IndexKind, Row, Schema, Value};

fn t_schema() -> Schema {
    Schema::new(vec![
        Field::value("k", DataType::Int64),
        Field::value("v", DataType::Float64),
        Field::value("s", DataType::Utf8),
    ])
    .unwrap()
}

// ---------------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------------

prop_compose! {
    /// Rows with nulls in every column and NaN in the float column — the
    /// values where a pruning order and an evaluation order most easily
    /// disagree.
    fn arb_row()(
        k in prop_oneof![3 => (-6i64..6).prop_map(Value::Int), 1 => Just(Value::Null)],
        v in prop_oneof![
            3 => (-8i32..8).prop_map(|x| Value::Float(x as f64 / 2.0)),
            1 => Just(Value::Float(f64::NAN)),
            1 => Just(Value::Null),
        ],
        s in prop_oneof![3 => "[a-c]{1,2}".prop_map(Value::from), 1 => Just(Value::Null)],
    ) -> Row {
        Row(vec![k, v, s])
    }
}

/// A table assembled from several independently generated chunks (some
/// possibly empty), so zone maps summarize genuinely different ranges
/// and the skipping decision has real choices to make.
fn arb_chunked_table() -> impl Strategy<Value = DataSet> {
    prop::collection::vec(prop::collection::vec(arb_row(), 0..12), 1..5).prop_map(|chunks| {
        let mut it = chunks.into_iter();
        let mut ds = DataSet::from_rows(t_schema(), &it.next().unwrap()).unwrap();
        for rows in it {
            let extra = DataSet::from_rows(t_schema(), &rows).unwrap();
            ds.push_chunk(extra.chunks()[0].clone());
        }
        ds
    })
}

/// Random predicates: mostly shapes the pruning analyzer recognizes
/// (comparisons against literals, null tests, conjunctions), mixed with
/// disjunctions and negations it must *refuse* — the bypass path is as
/// much under test as the skipping path.
fn arb_pred() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-6i64..6).prop_map(|c| col("k").eq(lit(c))),
        (-6i64..6).prop_map(|c| col("k").gt(lit(c))),
        (-6i64..6).prop_map(|c| col("k").le(lit(c))),
        (-8i32..8).prop_map(|c| col("v").lt(lit(c as f64 / 2.0))),
        (-8i32..8).prop_map(|c| col("v").ge(lit(c as f64 / 2.0))),
        "[a-c]".prop_map(|c| col("s").eq(lit(c.as_str()))),
        Just(col("k").is_null()),
        Just(col("v").is_null().not()),
        Just(col("s").is_null()),
    ];
    leaf.prop_recursive(3, 10, 2, |inner| {
        prop_oneof![
            3 => (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            1 => (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            1 => inner.prop_map(|a| a.not()),
        ]
    })
}

// ---------------------------------------------------------------------------
// harness
// ---------------------------------------------------------------------------

/// Execute `plan` on a fresh engine holding `ds`, with statistics on or
/// off and optionally with both secondary indexes built.
fn run_mode(ds: &DataSet, plan: &Plan, stats: bool, indexes: bool) -> DataSet {
    let e = RelationalEngine::new("rel");
    e.store("t", ds.clone()).unwrap();
    e.set_stats_enabled(stats);
    if indexes {
        e.build_index("t", "k", IndexKind::Hash).unwrap();
        e.build_index("t", "v", IndexKind::Sorted).unwrap();
    }
    e.execute(plan)
        .unwrap_or_else(|err| panic!("stats={stats} indexes={indexes} failed:\n{plan}\n{err}"))
}

fn oracle_src(ds: &DataSet) -> HashMap<String, DataSet> {
    let mut m = HashMap::new();
    m.insert("t".to_string(), ds.clone());
    m
}

/// `Option<Value>` equality under the stats total order (plain `==`
/// would call NaN unequal to itself).
fn value_eq(a: &Option<Value>, b: &Option<Value>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => a.total_cmp(b) == std::cmp::Ordering::Equal,
        _ => false,
    }
}

/// Assert the engine's published zone map for every column of `name`
/// matches an exact recomputation from the live table.
fn assert_stats_exact(e: &RelationalEngine, name: &str) {
    let Some(ds) = e.table(name) else {
        assert!(
            e.table_stats(name).is_none(),
            "stats outlived table `{name}`"
        );
        return;
    };
    let stats = e.table_stats(name).expect("stored table has stats");
    assert_eq!(stats.row_count, ds.num_rows(), "row count drifted");
    let rows = ds.to_rows_chunk().unwrap();
    for (i, field) in ds.schema().fields().iter().enumerate() {
        let zone = stats
            .column(field.name.as_str())
            .unwrap_or_else(|| panic!("no zone map for `{}`", field.name.as_str()));
        let want = ZoneMap::of(rows.column(i));
        assert!(
            value_eq(&zone.min, &want.min),
            "min drifted on `{}`: {:?} vs {:?}",
            field.name.as_str(),
            zone.min,
            want.min
        );
        assert!(
            value_eq(&zone.max, &want.max),
            "max drifted on `{}`: {:?} vs {:?}",
            field.name.as_str(),
            zone.max,
            want.max
        );
        assert_eq!(zone.null_count, want.null_count, "null count drifted");
        assert_eq!(zone.len, want.len, "length drifted");
    }
}

// ---------------------------------------------------------------------------
// the differential suite
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The core property: stats off, zone maps on, and zone maps plus
    /// indexes all produce the reference evaluator's bag, for every
    /// random chunked table and predicate.
    #[test]
    fn pruning_modes_agree_with_reference(ds in arb_chunked_table(), pred in arb_pred()) {
        let plan = Plan::scan("t", t_schema()).select(pred);
        let expected = evaluate(&plan, &oracle_src(&ds)).unwrap();
        for (stats, indexes) in [(false, false), (true, false), (true, true)] {
            let out = run_mode(&ds, &plan, stats, indexes);
            prop_assert_eq!(out.schema(), expected.schema());
            prop_assert!(
                out.same_bag(&expected).unwrap(),
                "stats={} indexes={} disagrees with reference on plan:\n{}",
                stats, indexes, plan
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Zone-map maintenance: a random sequence of stores, re-stores, and
    /// removes keeps min/max/null-count exact after every step.
    #[test]
    fn load_time_statistics_stay_exact(
        tables in prop::collection::vec(arb_chunked_table(), 1..4),
        removes in prop::collection::vec(any::<bool>(), 1..4),
    ) {
        let e = RelationalEngine::new("rel");
        for (i, ds) in tables.iter().enumerate() {
            let name = format!("t{}", i % 2); // re-store t0/t1 repeatedly
            e.store(&name, ds.clone()).unwrap();
            assert_stats_exact(&e, &name);
            if removes.get(i).copied().unwrap_or(false) {
                e.remove(&name);
                assert_stats_exact(&e, &name);
            }
        }
    }

    /// Ordered output too: with a deterministic sort appended, pruned
    /// and unpruned execution are row-for-row identical, not just
    /// bag-equal.
    #[test]
    fn pruned_sorted_output_is_row_identical(ds in arb_chunked_table(), pred in arb_pred()) {
        let plan = Plan::scan("t", t_schema()).select(pred).sort_by(vec!["k", "v", "s"]);
        let plain = run_mode(&ds, &plan, false, false);
        let pruned = run_mode(&ds, &plan, true, true);
        // Compare row sequences under the total order: plain `==` would
        // call NaN unequal to itself, and byte encodings can differ in
        // empty-column representation without the rows differing.
        let rows_of =
            |out: &DataSet| out.to_rows_chunk().unwrap().rows().collect::<Vec<_>>();
        let (a, b) = (rows_of(&plain), rows_of(&pruned));
        prop_assert_eq!(a.len(), b.len(), "row counts diverged on plan:\n{}", plan);
        for (ra, rb) in a.iter().zip(&b) {
            let same = ra.0.len() == rb.0.len()
                && ra.0.iter().zip(&rb.0).all(|(x, y)| {
                    x.total_cmp(y) == std::cmp::Ordering::Equal
                });
            prop_assert!(same, "row order diverged on plan:\n{}\n{:?} vs {:?}", plan, ra, rb);
        }
    }
}

// ---------------------------------------------------------------------------
// pinned edge cases shrinking rarely lands on exactly
// ---------------------------------------------------------------------------

#[test]
fn nan_empty_chunk_and_all_null_zone_maps_are_exact() {
    let e = RelationalEngine::new("rel");

    // All-NaN float column: NaN is a *value* (not null) under the total
    // order, so min = max = NaN and null_count = 0.
    let nan = DataSet::from_columns(vec![(
        "v",
        Column::from_values(
            DataType::Float64,
            &[Value::Float(f64::NAN), Value::Float(f64::NAN)],
        )
        .unwrap(),
    )])
    .unwrap();
    e.store("nan", nan).unwrap();
    assert_stats_exact(&e, "nan");
    let z = e.table_stats("nan").unwrap();
    let z = z.column("v").unwrap();
    assert_eq!(z.null_count, 0);
    assert!(matches!(z.min, Some(Value::Float(f)) if f.is_nan()));

    // Empty chunks around a populated one: stats must not count them.
    let mut ds = DataSet::from_rows(t_schema(), &[]).unwrap();
    let mid = DataSet::from_rows(
        t_schema(),
        &[Row(vec![Value::Int(7), Value::Null, Value::from("b")])],
    )
    .unwrap();
    ds.push_chunk(mid.chunks()[0].clone());
    ds.push_chunk(DataSet::from_rows(t_schema(), &[]).unwrap().chunks()[0].clone());
    e.store("gappy", ds).unwrap();
    assert_stats_exact(&e, "gappy");
    let stats = e.table_stats("gappy").unwrap();
    assert_eq!(stats.row_count, 1);

    // All-null column: no min/max, full null count — and a comparison
    // against it prunes everything without changing the (empty) answer.
    let nulls = DataSet::from_rows(
        t_schema(),
        &(0..5)
            .map(|_| Row(vec![Value::Null; 3]))
            .collect::<Vec<_>>(),
    )
    .unwrap();
    e.store("nulls", nulls.clone()).unwrap();
    assert_stats_exact(&e, "nulls");
    let stats = e.table_stats("nulls").unwrap();
    let z = stats.column("k").unwrap();
    assert!(z.min.is_none() && z.max.is_none());
    assert_eq!(z.null_count, 5);
    let plan = Plan::scan("nulls", t_schema()).select(col("k").gt(lit(0i64)));
    e.set_stats_enabled(true);
    assert_eq!(e.execute(&plan).unwrap().num_rows(), 0);
    e.set_stats_enabled(false);
    assert_eq!(e.execute(&plan).unwrap().num_rows(), 0);
}

/// The pruning decisions a traced execute recorded on its spans: the
/// per-query record, unaffected by other tests in this binary.
fn traced_prune_events(e: &RelationalEngine, plan: &Plan) -> (DataSet, Vec<String>) {
    let tracer = Tracer::new(0xF11);
    let out = {
        let _scope = scope::install(&tracer, e.name(), None);
        e.execute(plan).unwrap()
    };
    let events = tracer
        .finish()
        .spans
        .into_iter()
        .flat_map(|s| s.events)
        .map(|ev| ev.label)
        .filter(|l| l.starts_with("pruning:"))
        .collect();
    (out, events)
}

/// F11: on a key-clustered table (256 chunks × 4096 rows, chunk `c`
/// holding keys `c*4096 .. (c+1)*4096`), a point query's zone maps
/// disprove every chunk but one, and with a hash index on the key the
/// index serves the lookup instead. Every mode returns the one row.
#[test]
fn point_query_on_clustered_keys_touches_one_chunk() {
    const CHUNKS: usize = 256;
    const CHUNK_ROWS: usize = 4096;
    let chunk = |c: usize| {
        let base = (c * CHUNK_ROWS) as i64;
        let keys: Vec<i64> = (0..CHUNK_ROWS as i64).map(|i| base + i).collect();
        let vals: Vec<f64> = keys.iter().map(|k| (*k % 97) as f64 * 0.5).collect();
        DataSet::from_columns(vec![("k", Column::from(keys)), ("v", Column::from(vals))]).unwrap()
    };
    let mut table = chunk(0);
    for c in 1..CHUNKS {
        table.push_chunk(chunk(c).chunks()[0].clone());
    }
    let rows = table.num_rows();
    let e = RelationalEngine::new("rel");
    e.store("t", table).unwrap();

    let target = ((CHUNKS / 2) * CHUNK_ROWS + 17) as i64;
    let plan = Plan::scan("t", e.schema_of("t").unwrap()).select(col("k").eq(lit(target)));

    e.set_stats_enabled(false);
    let (plain, events) = traced_prune_events(&e, &plan);
    assert!(
        events.is_empty(),
        "stats off must scan everything: {events:?}"
    );
    assert_eq!(plain.num_rows(), 1);

    e.set_stats_enabled(true);
    let (zoned, events) = traced_prune_events(&e, &plan);
    assert_eq!(
        events,
        [format!(
            "pruning: zone-map t chunks {}/{CHUNKS}",
            CHUNKS - 1
        )]
    );
    assert!(zoned.same_bag(&plain).unwrap());

    e.build_index("t", "k", IndexKind::Hash).unwrap();
    let (indexed, events) = traced_prune_events(&e, &plan);
    assert_eq!(
        events,
        [format!("pruning: index t.k (hash) candidates 1/{rows}")]
    );
    assert!(indexed.same_bag(&plain).unwrap());
}

#[test]
fn nan_comparisons_agree_between_pruned_and_plain_paths() {
    // A table whose only float values are NaN and one finite value, in
    // separate chunks: if the zone order and the evaluator disagreed on
    // where NaN sorts, a range predicate would skip the wrong chunk.
    let mut ds = DataSet::from_rows(
        t_schema(),
        &[Row(vec![
            Value::Int(1),
            Value::Float(f64::NAN),
            Value::from("a"),
        ])],
    )
    .unwrap();
    let lo = DataSet::from_rows(
        t_schema(),
        &[Row(vec![
            Value::Int(2),
            Value::Float(-1.0),
            Value::from("b"),
        ])],
    )
    .unwrap();
    ds.push_chunk(lo.chunks()[0].clone());
    for pred in [
        col("v").gt(lit(0.0f64)),
        col("v").le(lit(0.0f64)),
        col("v").ge(lit(f64::NAN)),
        col("v").lt(lit(f64::NAN)),
    ] {
        let plan = Plan::scan("t", t_schema()).select(pred);
        let plain = run_mode(&ds, &plan, false, false);
        let zoned = run_mode(&ds, &plan, true, false);
        let indexed = run_mode(&ds, &plan, true, true);
        assert!(
            plain.same_bag(&zoned).unwrap() && plain.same_bag(&indexed).unwrap(),
            "NaN predicate diverged between modes on plan:\n{plan}"
        );
    }
}
