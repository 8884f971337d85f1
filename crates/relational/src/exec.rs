//! Plan execution: dispatch, plus the operators only this engine has.
//!
//! Leaves and the scalar relational core (select / project / aggregate /
//! union / distinct / limit) are the shared [`bda_core::engine`] kernels;
//! this module adds statistics-driven selection, joins, sort, dimension
//! retagging and `Dice` over the coordinate list, and control iteration.
//! `Join` and grouped `Aggregate` run partition-parallel at the pool's
//! width ([`pool::workers`]); see [`crate::parallel`].
//!
//! The executor is handed the engine's [`Tables`]: each stored table's
//! rows together with the zone maps and indexes built from exactly
//! those rows. A `Select` directly over a `Scan` reads the stored chunks
//! in place and, when statistics are on, consults that table's metadata.

use bda_core::convergence::converged;
use bda_core::engine;
use bda_core::eval::eval_chunk;
use bda_core::infer::infer_schema;
use bda_core::provider::trace_op;
use bda_core::{pool, CoreError, Plan};
use bda_storage::{Chunk, DataSet, RowsChunk, Schema, Value};

use crate::meta::TableMeta;
use crate::parallel::{partitioned_aggregate, partitioned_hash_join};
use crate::sort::sort_exec;
use crate::Tables;

/// Result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Execute a plan against the engine's tables; `stats` lets a selection
/// over a stored table use that table's zone maps and indexes.
pub fn execute(
    plan: &Plan,
    tables: &Tables,
    stats: bool,
    state: Option<&DataSet>,
) -> Result<DataSet> {
    trace_op(plan, || execute_node(plan, tables, stats, state))
}

fn execute_node(
    plan: &Plan,
    tables: &Tables,
    stats: bool,
    state: Option<&DataSet>,
) -> Result<DataSet> {
    let out_schema = infer_schema(plan)?;
    match plan {
        Plan::Scan { dataset, schema } => {
            engine::scan(tables.get(dataset).map(|t| &*t.data), dataset, schema).cloned()
        }
        Plan::Values { schema, rows } => engine::values(schema, rows),
        Plan::Range { lo, hi, .. } => engine::range(*lo, *hi, out_schema),
        Plan::IterState { .. } => state
            .cloned()
            .ok_or_else(|| CoreError::Plan("iter_state outside of iterate".into())),
        Plan::Select { input, predicate } => match &**input {
            // A selection directly over a stored table filters the stored
            // chunks in place, consulting the table's metadata.
            Plan::Scan { dataset, schema } => {
                let table = tables.get(dataset);
                let ds = trace_op(input, || {
                    engine::scan(table.map(|t| &*t.data), dataset, schema)
                })?;
                let meta = table.filter(|_| stats).map(|t| &t.meta);
                stored_select(dataset, ds, meta, predicate, out_schema)
            }
            _ => engine::select(
                &execute(input, tables, stats, state)?,
                predicate,
                &[],
                out_schema,
            ),
        },
        Plan::Project { input, exprs } => {
            engine::project(&execute(input, tables, stats, state)?, exprs, out_schema)
        }
        Plan::Join {
            left,
            right,
            on,
            join_type,
            ..
        } => {
            let l = execute(left, tables, stats, state)?;
            let r = execute(right, tables, stats, state)?;
            partitioned_hash_join(&l, &r, on, *join_type, pool::workers(), out_schema)
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => partitioned_aggregate(
            &execute(input, tables, stats, state)?,
            group_by,
            aggs,
            pool::workers(),
            out_schema,
        ),
        Plan::Union { left, right } => engine::union(
            &execute(left, tables, stats, state)?,
            &execute(right, tables, stats, state)?,
            out_schema,
        ),
        Plan::Distinct { input } => {
            engine::distinct(&execute(input, tables, stats, state)?, out_schema)
        }
        Plan::Sort { input, keys } => {
            let in_ds = execute(input, tables, stats, state)?;
            sort_exec(&in_ds, keys, out_schema)
        }
        Plan::Limit { input, skip, fetch } => engine::limit(
            &execute(input, tables, stats, state)?,
            *skip,
            *fetch,
            out_schema,
        ),
        Plan::Rename { input, .. } | Plan::UntagDims { input } => {
            let chunk = execute(input, tables, stats, state)?.into_rows_chunk()?;
            Ok(DataSet::new(out_schema, vec![Chunk::Rows(chunk)]))
        }
        Plan::TagDims { input, .. } => {
            let chunk = execute(input, tables, stats, state)?.into_rows_chunk()?;
            validate_dims(&out_schema, &chunk)?;
            Ok(DataSet::new(out_schema, vec![Chunk::Rows(chunk)]))
        }
        Plan::Dice { input, ranges } => {
            let in_ds = execute(input, tables, stats, state)?;
            let in_schema = in_ds.schema();
            let chunk = in_ds.to_rows_chunk()?;
            let mut mask = vec![true; chunk.len()];
            for (d, lo, hi) in ranges {
                let idx = in_schema.index_of(d)?;
                let col = chunk.column(idx);
                for (i, keep) in mask.iter_mut().enumerate() {
                    if *keep {
                        *keep = match col.get(i) {
                            Value::Int(c) => c >= *lo && c < *hi,
                            _ => false,
                        };
                    }
                }
            }
            Ok(DataSet::new(
                out_schema,
                vec![Chunk::Rows(chunk.filter(&mask))],
            ))
        }
        Plan::Iterate {
            init,
            body,
            max_iters,
            epsilon,
        } => {
            let mut cur = execute(init, tables, stats, state)?;
            for _ in 0..*max_iters {
                let next = execute(body, tables, stats, Some(&cur))?;
                let done = converged(&cur, &next, *epsilon)?;
                cur = next;
                if done {
                    break;
                }
            }
            Ok(cur)
        }
        other => Err(CoreError::Unsupported {
            provider: "relational".into(),
            op: other.op_kind().name().into(),
        }),
    }
}

/// Selection over a stored table `ds`. With metadata, serve the
/// predicate from a secondary index when one covers a comparison
/// conjunct, else skip the chunks whose zone maps disprove a conjunct;
/// every other chunk is filtered in place by [`engine::select`].
///
/// Soundness: `pruning::analyze` only recognizes predicates it can
/// prove total over the schema (so skipping rows cannot suppress an
/// evaluation error), zone maps and the evaluator share one total
/// order, and index candidates are re-filtered with the full predicate
/// (indexes promise completeness, not exactness). Candidate positions
/// are re-sorted ascending so output *order* matches the plain filter
/// path exactly, not just the output bag. `meta` was built from exactly
/// `ds`'s rows, so its chunk list and row positions line up with them.
fn stored_select(
    dataset: &str,
    ds: &DataSet,
    meta: Option<&TableMeta>,
    predicate: &bda_core::Expr,
    out_schema: Schema,
) -> Result<DataSet> {
    use bda_core::pruning::{analyze, may_match_all, Test};

    let schema = ds.schema();
    let Some((meta, tests)) = meta.zip(analyze(predicate, schema)) else {
        return engine::select(ds, predicate, &[], out_schema);
    };

    // Index path: the first comparison conjunct a built index can serve.
    for t in &tests {
        let Test::Cmp { column, op, lit } = t else {
            continue;
        };
        let Some(idx) = meta.indexes.get(column.as_str()) else {
            continue;
        };
        let Some(mut positions) = idx.lookup(*op, lit) else {
            continue;
        };
        positions.sort_unstable();
        // Gather only from the chunks that hold a candidate position —
        // the whole point of the index is to never touch the rest.
        let candidate_count = positions.len();
        let mut candidates = RowsChunk::empty(schema);
        let mut remaining = positions.iter().map(|&p| p as usize).peekable();
        let mut base = 0usize;
        for ch in ds.chunks() {
            let end = base + ch.len();
            let mut local = Vec::new();
            while let Some(&p) = remaining.peek() {
                if p >= end {
                    break;
                }
                local.push(p - base);
                remaining.next();
            }
            if !local.is_empty() {
                candidates.extend(&ch.to_rows(schema)?.take(&local))?;
            }
            base = end;
        }
        let mask = engine::truth_mask(&eval_chunk(predicate, schema, &candidates)?)?;
        let filtered = candidates.filter(&mask);
        prune_event(|| {
            format!(
                "pruning: index {dataset}.{column} ({}) candidates {}/{}",
                idx.spec().kind.name(),
                candidate_count,
                ds.num_rows()
            )
        });
        return Ok(DataSet::new(out_schema, vec![Chunk::Rows(filtered)]));
    }

    // Zone-map path: skip chunks where some conjunct cannot hold.
    let skip: Vec<bool> = meta
        .chunks
        .iter()
        .map(|cs| {
            !may_match_all(&tests, |name: &str| {
                schema.index_of(name).ok().and_then(|i| cs.columns.get(i))
            })
        })
        .collect();
    let out = engine::select(ds, predicate, &skip, out_schema)?;
    let pruned = skip.iter().filter(|&&s| s).count();
    if pruned > 0 {
        let considered = skip.len();
        prune_event(|| format!("pruning: zone-map {dataset} chunks {pruned}/{considered}"));
    }
    Ok(out)
}

/// Attach a pruning decision to the enclosing operator span (the
/// `== pruning ==` EXPLAIN ANALYZE section aggregates these). Inert
/// when untraced: the label closure never runs.
fn prune_event(label: impl FnOnce() -> String) {
    if let Some(s) = bda_obs::scope::snapshot() {
        s.tracer.event(s.parent, label);
    }
}

/// Validate dimension columns against the schema's declared roles/extents.
fn validate_dims(schema: &Schema, chunk: &RowsChunk) -> Result<()> {
    for (i, f) in schema.fields().iter().enumerate() {
        if !f.is_dimension() {
            continue;
        }
        let col = chunk.column(i);
        if col.null_count() > 0 {
            return Err(CoreError::Plan(format!(
                "null coordinate in dimension `{}`",
                f.name
            )));
        }
        let data = col
            .i64_data()
            .map_err(|_| CoreError::Plan(format!("dimension `{}` is not i64", f.name)))?;
        if let Some((lo, hi)) = f.extent() {
            if let Some(&bad) = data.iter().find(|&&c| c < lo || c >= hi) {
                return Err(CoreError::Plan(format!(
                    "coordinate {bad} of dimension `{}` outside extent [{lo}, {hi})",
                    f.name
                )));
            }
        }
    }
    Ok(())
}

/// Materialized-row helper shared by the equivalence tests in this crate.
#[cfg(test)]
pub(crate) fn rows_of(ds: &DataSet) -> Vec<bda_storage::Row> {
    ds.sorted_rows().expect("materialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::Table;
    use bda_core::reference::evaluate;
    use bda_core::{col, lit, AggExpr, AggFunc};
    use bda_storage::{Column, Row};
    use std::collections::HashMap;
    use std::sync::Arc;

    fn stored(name: &str, ds: DataSet) -> Tables {
        let table = Table::new(Arc::new(ds), &[]).unwrap();
        Tables::from([(name.to_string(), Arc::new(table))])
    }

    fn tables() -> Tables {
        stored(
            "t",
            DataSet::from_columns(vec![
                ("k", Column::from(vec![3i64, 1, 2, 1])),
                ("v", Column::from(vec![1.5f64, -2.0, 0.0, 8.0])),
                ("s", Column::from(vec!["c", "a", "b", "a"])),
            ])
            .unwrap(),
        )
    }

    fn as_hashmap(t: &Tables) -> HashMap<String, DataSet> {
        t.iter()
            .map(|(k, v)| (k.clone(), (*v.data).clone()))
            .collect()
    }

    /// Runs `plan` with statistics off and on (the plain and the
    /// stored-table `Select` paths) against the reference evaluator.
    fn check_against_reference(plan: &Plan) {
        let t = tables();
        let oracle = evaluate(plan, &as_hashmap(&t)).expect("reference execution");
        for stats in [false, true] {
            let ours = execute(plan, &t, stats, None).expect("engine execution");
            assert_eq!(ours.schema(), oracle.schema());
            assert_eq!(
                rows_of(&ours),
                rows_of(&oracle),
                "stats {stats}, plan:\n{plan}"
            );
        }
    }

    fn scan_t() -> Plan {
        Plan::scan("t", tables()["t"].data.schema().clone())
    }

    #[test]
    fn select_matches_reference() {
        check_against_reference(&scan_t().select(col("v").gt(lit(0.0))));
        check_against_reference(&scan_t().select(col("s").eq(lit("a")).or(col("k").eq(lit(3i64)))));
    }

    #[test]
    fn project_matches_reference() {
        check_against_reference(&scan_t().project(vec![
            ("kk", col("k").mul(lit(2i64))),
            ("vv", col("v").add(col("k"))),
        ]));
    }

    #[test]
    fn aggregate_matches_reference() {
        check_against_reference(&scan_t().aggregate(
            vec!["s"],
            vec![
                AggExpr::new(AggFunc::Sum, col("v"), "sv"),
                AggExpr::new(AggFunc::Min, col("k"), "mn"),
                AggExpr::new(AggFunc::Avg, col("k"), "av"),
                AggExpr::count_star("n"),
            ],
        ));
        check_against_reference(&scan_t().aggregate(vec![], vec![AggExpr::count_star("n")]));
    }

    #[test]
    fn sort_distinct_limit_match_reference() {
        check_against_reference(&scan_t().sort_by(vec!["k", "s"]).limit(3));
        check_against_reference(&scan_t().project(vec![("s", col("s"))]).distinct());
        check_against_reference(&Plan::Limit {
            input: scan_t().sort_by(vec!["k"]).boxed(),
            skip: 1,
            fetch: Some(2),
        });
    }

    #[test]
    fn union_and_rename_match_reference() {
        check_against_reference(&scan_t().union(scan_t()).rename(vec![("v", "val")]));
    }

    #[test]
    fn iterate_runs() {
        let schema = Schema::new(vec![bda_storage::Field::value(
            "x",
            bda_storage::DataType::Float64,
        )])
        .unwrap();
        let p = Plan::Iterate {
            init: Plan::Values {
                schema: schema.clone(),
                rows: vec![Row(vec![Value::Float(8.0)])],
            }
            .boxed(),
            body: Plan::IterState { schema }
                .project(vec![("x", col("x").div(lit(2.0)))])
                .boxed(),
            max_iters: 3,
            epsilon: None,
        };
        let out = execute(&p, &Tables::new(), true, None).unwrap();
        let x = out.rows().unwrap()[0].get(0).as_float().unwrap();
        assert_eq!(x, 1.0);
    }

    #[test]
    fn dice_filters_coordinates() {
        let m =
            bda_storage::dataset::matrix_dataset(4, 4, (0..16).map(f64::from).collect()).unwrap();
        let p = Plan::Dice {
            input: Plan::scan("m", m.schema().clone()).boxed(),
            ranges: vec![("row".into(), 1, 3), ("col".into(), 0, 2)],
        };
        let out = execute(&p, &stored("m", m), true, None).unwrap();
        assert_eq!(out.num_rows(), 4);
    }
}
