//! Concurrent writers against one stored table: after every race, what
//! the engine answers and reports must describe the rows it holds.
//!
//! Three races run, each for many rounds on a key-clustered table whose
//! versions share one shape (same chunk count, same row count) but hold
//! disjoint keys: `build_index` against `store`, `store` against
//! `store`, and `store` against `remove`. After each round, with no
//! writer running, the engine's query answers, `table_stats`,
//! `index_specs` (each index's fingerprint) and the pruning decision its
//! `Select` records must all agree with what `e.table("t")` holds, the
//! answers checked against the reference evaluator. Failures are
//! collected over all rounds, so a failing run reports how often the
//! race broke the table, not just that it did.

use std::collections::HashMap;
use std::sync::Barrier;

use bda_core::reference::evaluate;
use bda_core::{col, lit, Expr, Plan, Provider};
use bda_obs::{scope, Tracer};
use bda_relational::RelationalEngine;
use bda_storage::stats::ZoneMap;
use bda_storage::{Column, DataSet, IndexKind, SecondaryIndex, Value};

const CHUNKS: usize = 8;
const CHUNK_ROWS: usize = 256;
const ROUNDS: usize = 200;

/// Base keys of three table versions with one shape and disjoint keys.
const A: i64 = 0;
const B: i64 = 100_000;
const C: i64 = 200_000;

/// `CHUNKS` chunks; chunk `c` holds keys `base + c * CHUNK_ROWS ..` in
/// order, so each chunk's zone map covers a range no other chunk does.
fn version(base: i64) -> DataSet {
    let chunk = |c: usize| {
        let lo = base + (c * CHUNK_ROWS) as i64;
        let keys: Vec<i64> = (lo..lo + CHUNK_ROWS as i64).collect();
        let vals: Vec<f64> = keys.iter().map(|k| *k as f64 / 2.0).collect();
        DataSet::from_columns(vec![("k", Column::from(keys)), ("v", Column::from(vals))]).unwrap()
    };
    let mut ds = chunk(0);
    for c in 1..CHUNKS {
        ds.push_chunk(chunk(c).chunks()[0].clone());
    }
    ds
}

/// Predicates over keys of every version, each flagged when it is an
/// equality (which a hash index serves) rather than a range (which only
/// zone maps serve).
fn predicates() -> Vec<(Expr, bool)> {
    let mut preds = Vec::new();
    for base in [A, B, C] {
        preds.push((col("k").eq(lit(base + 3 * CHUNK_ROWS as i64 + 17)), true));
        preds.push((col("k").ge(lit(base + 6 * CHUNK_ROWS as i64)), false));
    }
    preds
}

/// The output and the pruning events of one traced `execute`.
fn traced(e: &RelationalEngine, plan: &Plan) -> (DataSet, Vec<String>) {
    let tracer = Tracer::new(7);
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

/// Every way `e`'s reports about table `t` disagree with its rows.
fn inconsistencies(e: &RelationalEngine) -> Vec<String> {
    let mut bad = Vec::new();
    let Some(data) = e.table("t") else {
        if e.table_stats("t").is_some() {
            bad.push("stats outlived the table".to_string());
        }
        if !e.index_specs("t").is_empty() {
            bad.push("index specs outlived the table".to_string());
        }
        return bad;
    };
    let rows = data.to_rows_chunk().unwrap();
    match e.table_stats("t") {
        None => bad.push("stored table has no stats".to_string()),
        Some(stats) => {
            if stats.row_count != data.num_rows() {
                bad.push(format!("stats count {} rows", stats.row_count));
            }
            for (i, name) in ["k", "v"].into_iter().enumerate() {
                let (got, want) = (stats.column(name), ZoneMap::of(rows.column(i)));
                if got.map(|z| (&z.min, &z.max)) != Some((&want.min, &want.max)) {
                    bad.push(format!(
                        "zone map of `{name}` is {got:?}, rows give {want:?}"
                    ));
                }
            }
        }
    }
    let specs = e.index_specs("t");
    for spec in &specs {
        let want = SecondaryIndex::build(&data, spec.clone())
            .unwrap()
            .fingerprint();
        if e.index_fingerprint("t", &spec.column) != Some(want) {
            bad.push(format!(
                "index on `{}` was built from other rows",
                spec.column
            ));
        }
    }
    let hash_on_k = specs.iter().any(|s| s.column == "k");
    let oracle = HashMap::from([("t".to_string(), data.clone())]);
    for (pred, eq) in predicates() {
        let plan = Plan::scan("t", data.schema().clone()).select(pred.clone());
        let (out, events) = traced(e, &plan);
        let want = evaluate(&plan, &oracle).unwrap();
        if out.rows().unwrap() != want.rows().unwrap() {
            bad.push(format!(
                "`{pred}` returned {} rows, the reference {}",
                out.num_rows(),
                want.num_rows()
            ));
        }
        // Keys are contiguous per chunk, so a chunk with no matching row
        // is exactly one its zone map disproves.
        let matches = |ch: &bda_storage::Chunk| {
            let one = DataSet::new(data.schema().clone(), vec![ch.clone()]);
            let plan = Plan::scan("c", data.schema().clone()).select(pred.clone());
            evaluate(&plan, &HashMap::from([("c".to_string(), one)]))
                .unwrap()
                .num_rows()
        };
        let expected: Vec<String> = if eq && hash_on_k {
            vec![format!(
                "pruning: index t.k (hash) candidates {}/{}",
                want.num_rows(),
                data.num_rows()
            )]
        } else {
            let pruned = data.chunks().iter().filter(|ch| matches(ch) == 0).count();
            (pruned > 0)
                .then(|| {
                    format!(
                        "pruning: zone-map t chunks {pruned}/{}",
                        data.chunks().len()
                    )
                })
                .into_iter()
                .collect()
        };
        if events != expected {
            bad.push(format!(
                "`{pred}` recorded {events:?}, rows call for {expected:?}"
            ));
        }
    }
    bad
}

/// Run `ROUNDS` rounds: `setup` brings the engine to a known state, then
/// `left` and `right` race from a common start. Panics with the share of
/// rounds that left the table inconsistent, or when `settled` rejects
/// the final state.
fn race(
    name: &str,
    setup: impl Fn(&RelationalEngine),
    left: impl Fn(&RelationalEngine) + Sync,
    right: impl Fn(&RelationalEngine) + Sync,
    settled: impl Fn(&RelationalEngine) -> Result<(), String>,
) {
    let e = RelationalEngine::new("rel");
    e.set_stats_enabled(true);
    let mut failed = Vec::new();
    for round in 0..ROUNDS {
        setup(&e);
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                left(&e);
            });
            start.wait();
            right(&e);
        });
        let mut bad = inconsistencies(&e);
        bad.extend(settled(&e).err());
        if !bad.is_empty() {
            failed.push(format!("round {round}: {}", bad.join("; ")));
        }
    }
    assert!(
        failed.is_empty(),
        "{name}: {} of {ROUNDS} rounds inconsistent; first: {}",
        failed.len(),
        failed[0]
    );
}

fn holds(e: &RelationalEngine, bases: &[i64]) -> Result<i64, String> {
    let data = e.table("t").ok_or("table missing")?;
    let first = data.to_rows_chunk().unwrap().column(0).get(0);
    bases
        .iter()
        .copied()
        .find(|b| first == Value::Int(*b))
        .ok_or_else(|| format!("table holds rows starting at {first:?}"))
}

#[test]
fn build_index_racing_store_indexes_the_stored_rows() {
    race(
        "build_index | store",
        |e| {
            e.remove("t");
            e.store("t", version(A)).unwrap();
        },
        |e| e.build_index("t", "k", IndexKind::Hash).unwrap(),
        |e| e.store("t", version(B)).unwrap(),
        // Either order ends with B's rows and an index on `k`.
        |e| {
            holds(e, &[B])?;
            match e.index_specs("t").as_slice() {
                [s] if s.column == "k" => Ok(()),
                other => Err(format!("index specs {other:?}")),
            }
        },
    );
}

#[test]
fn racing_stores_keep_one_version_whole() {
    race(
        "store | store",
        |e| {
            e.store("t", version(C)).unwrap();
            e.build_index("t", "k", IndexKind::Hash).unwrap();
        },
        |e| e.store("t", version(A)).unwrap(),
        |e| e.store("t", version(B)).unwrap(),
        // The index spec carries across both re-stores.
        |e| {
            holds(e, &[A, B])?;
            (e.index_specs("t").len() == 1)
                .then_some(())
                .ok_or_else(|| "index spec lost".to_string())
        },
    );
}

#[test]
fn store_racing_remove_leaves_the_table_whole_or_gone() {
    race(
        "store | remove",
        |e| {
            e.store("t", version(A)).unwrap();
            e.build_index("t", "k", IndexKind::Hash).unwrap();
        },
        |e| e.store("t", version(B)).unwrap(),
        |e| e.remove("t"),
        |e| match e.table("t") {
            None => Ok(()),
            Some(_) => holds(e, &[B]).map(|_| ()),
        },
    );
}
