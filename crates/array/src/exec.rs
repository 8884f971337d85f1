//! Plan dispatch for the array engine.
//!
//! Dimension-aware operators route to the dense kernels in
//! [`crate::dense_ops`]; the scalar relational core (select / project /
//! aggregate / union / distinct / limit) runs over the coordinate-list
//! view. Joins, sorts, matmul, graph ops and iteration are rejected —
//! they belong to other providers.

use std::collections::{BTreeMap, HashMap};

use bda_core::agg::{Accumulator, AggExpr};
use bda_core::eval::{eval_chunk, infer_expr};
use bda_core::infer::infer_schema;
use bda_core::provider::trace_op;
use bda_core::{CoreError, Plan};
use bda_storage::{Chunk, Column, DataSet, Row, RowsChunk, Value};

use crate::dense_ops;

/// Result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Execute a plan against the engine's array map.
pub fn execute(plan: &Plan, arrays: &BTreeMap<String, DataSet>) -> Result<DataSet> {
    trace_op(plan, || execute_node(plan, arrays))
}

fn execute_node(plan: &Plan, arrays: &BTreeMap<String, DataSet>) -> Result<DataSet> {
    let out_schema = infer_schema(plan)?;
    match plan {
        Plan::Scan { dataset, schema } => {
            let ds = arrays
                .get(dataset)
                .ok_or_else(|| CoreError::UnknownDataset(dataset.clone()))?;
            if ds.schema() != schema {
                return Err(CoreError::Plan(format!(
                    "scan `{dataset}`: bound schema {} does not match stored schema {}",
                    schema,
                    ds.schema()
                )));
            }
            Ok(ds.clone())
        }
        Plan::Values { schema, rows } => {
            DataSet::from_rows(schema.clone(), rows).map_err(Into::into)
        }
        Plan::Range { lo, hi, .. } => {
            let col = Column::from((*lo..*hi).collect::<Vec<i64>>());
            let chunk = RowsChunk::new(vec![col])?;
            Ok(DataSet::new(out_schema, vec![Chunk::Rows(chunk)]))
        }
        // --- native dense operators ---------------------------------------
        Plan::Dice { input, ranges } => {
            let in_ds = execute(input, arrays)?;
            // Grid-stored arrays get box pruning: tiles outside the target
            // range are skipped entirely.
            let all_dense = !in_ds.chunks().is_empty()
                && in_ds.chunks().iter().all(|c| matches!(c, Chunk::Dense(_)));
            if all_dense && in_ds.chunks().len() > 1 {
                let (out, _, _) = dense_ops::dice_pruned(&in_ds, &out_schema)?;
                Ok(out)
            } else {
                dense_ops::dice_dense(&in_ds, ranges, out_schema)
            }
        }
        Plan::SliceAt { input, dim, index } => {
            let in_ds = execute(input, arrays)?;
            dense_ops::slice_dense(&in_ds, dim, *index, out_schema)
        }
        Plan::Permute { input, order } => {
            let in_ds = execute(input, arrays)?;
            dense_ops::permute_dense(&in_ds, order, out_schema)
        }
        Plan::Window { input, radii, aggs } => {
            let in_ds = execute(input, arrays)?;
            dense_ops::window_dense(&in_ds, radii, aggs, out_schema)
        }
        Plan::Fill { input, fill } => {
            let in_ds = execute(input, arrays)?;
            dense_ops::fill_dense(&in_ds, fill, out_schema)
        }
        Plan::ElemWise { op, left, right } => {
            let l = execute(left, arrays)?;
            let r = execute(right, arrays)?;
            dense_ops::elemwise_dense(*op, &l, &r, out_schema)
        }
        // A bare Exchange is a planner marker with bag-identity
        // semantics; the band split happens in the Merge(op(..)) arm.
        Plan::Exchange { input, .. } => execute(input, arrays),
        Plan::Merge { input } => match input.as_ref() {
            Plan::ElemWise { op, left, right }
                if matches!(
                    (left.as_ref(), right.as_ref()),
                    (Plan::Exchange { .. }, Plan::Exchange { .. })
                ) =>
            {
                let (
                    Plan::Exchange {
                        input: li, parts, ..
                    },
                    Plan::Exchange { input: ri, .. },
                ) = (left.as_ref(), right.as_ref())
                else {
                    unreachable!("guarded by matches!");
                };
                let l = execute(li, arrays)?;
                let r = execute(ri, arrays)?;
                dense_ops::elemwise_dense_partitioned(*op, &l, &r, *parts, out_schema)
            }
            _ => execute(input, arrays),
        },
        // --- scalar relational core over the coordinate view --------------
        Plan::Select { input, predicate } => {
            let in_ds = execute(input, arrays)?;
            let in_schema = in_ds.schema().clone();
            let chunk = in_ds.to_rows_chunk()?;
            let mask_col = eval_chunk(predicate, &in_schema, &chunk)?;
            let data = mask_col
                .bool_data()
                .map_err(|e| CoreError::Plan(format!("predicate not bool: {e}")))?;
            let mask: Vec<bool> = match mask_col.validity() {
                None => data.to_vec(),
                Some(bm) => data
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| b && bm.get(i))
                    .collect(),
            };
            Ok(DataSet::new(
                out_schema,
                vec![Chunk::Rows(chunk.filter(&mask))],
            ))
        }
        Plan::Project { input, exprs } => {
            let in_ds = execute(input, arrays)?;
            let in_schema = in_ds.schema().clone();
            let chunk = in_ds.to_rows_chunk()?;
            let mut cols = Vec::with_capacity(exprs.len());
            for (i, (_, e)) in exprs.iter().enumerate() {
                let c = eval_chunk(e, &in_schema, &chunk)?;
                let want = out_schema.field_at(i).dtype;
                cols.push(if c.dtype() == want { c } else { c.cast(want) });
            }
            Ok(DataSet::new(
                out_schema,
                vec![Chunk::Rows(RowsChunk::new(cols)?)],
            ))
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let in_ds = execute(input, arrays)?;
            aggregate_fallback(&in_ds, group_by, aggs, out_schema)
        }
        Plan::Union { left, right } => {
            let l = execute(left, arrays)?;
            let r = execute(right, arrays)?;
            let mut chunk = l.to_rows_chunk()?;
            chunk.extend(&r.to_rows_chunk()?)?;
            Ok(DataSet::new(out_schema, vec![Chunk::Rows(chunk)]))
        }
        Plan::Distinct { input } => {
            let in_ds = execute(input, arrays)?;
            let chunk = in_ds.to_rows_chunk()?;
            let mut seen = std::collections::HashSet::with_capacity(chunk.len());
            let mut keep = Vec::new();
            for i in 0..chunk.len() {
                if seen.insert(chunk.row(i)) {
                    keep.push(i);
                }
            }
            Ok(DataSet::new(
                out_schema,
                vec![Chunk::Rows(chunk.take(&keep))],
            ))
        }
        Plan::Limit { input, skip, fetch } => {
            let in_ds = execute(input, arrays)?;
            let chunk = in_ds.to_rows_chunk()?;
            let n = chunk.len();
            let start = (*skip).min(n);
            let end = match fetch {
                Some(f) => (start + f).min(n),
                None => n,
            };
            let idx: Vec<usize> = (start..end).collect();
            Ok(DataSet::new(
                out_schema,
                vec![Chunk::Rows(chunk.take(&idx))],
            ))
        }
        Plan::Rename { input, .. } | Plan::UntagDims { input } | Plan::TagDims { input, .. } => {
            let in_ds = execute(input, arrays)?;
            let chunk = in_ds.to_rows_chunk()?;
            // Re-densify under the new schema when bounded (validates
            // coordinates as a side effect).
            let ds = DataSet::new(out_schema.clone(), vec![Chunk::Rows(chunk)]);
            if out_schema.ndims() > 0 && out_schema.is_bounded() {
                ds.to_dense().map_err(Into::into)
            } else {
                Ok(ds)
            }
        }
        other => Err(CoreError::Unsupported {
            provider: "array".into(),
            op: other.op_kind().name().into(),
        }),
    }
}

/// Row-hash aggregation (the array engine's relational ops are serviceable,
/// not fast — mirroring how array stores treat non-array workloads).
fn aggregate_fallback(
    input: &DataSet,
    group_by: &[String],
    aggs: &[AggExpr],
    out_schema: bda_storage::Schema,
) -> Result<DataSet> {
    let in_schema = input.schema().clone();
    let chunk = input.to_rows_chunk()?;
    let key_idx: Vec<usize> = group_by
        .iter()
        .map(|g| in_schema.index_of(g))
        .collect::<std::result::Result<_, bda_storage::StorageError>>()?;
    let mut arg_cols: Vec<Option<Column>> = Vec::new();
    let mut arg_types = Vec::new();
    for a in aggs {
        match &a.arg {
            Some(e) => {
                arg_types.push(infer_expr(e, &in_schema)?);
                arg_cols.push(Some(eval_chunk(e, &in_schema, &chunk)?));
            }
            None => {
                arg_types.push(None);
                arg_cols.push(None);
            }
        }
    }
    let mut groups: HashMap<Row, Vec<Accumulator>> = HashMap::new();
    let mut order = Vec::new();
    for i in 0..chunk.len() {
        let key = Row(key_idx.iter().map(|&k| chunk.column(k).get(i)).collect());
        let accs = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            aggs.iter()
                .zip(&arg_types)
                .map(|(a, t)| Accumulator::new(a.func, *t))
                .collect()
        });
        for (acc, arg) in accs.iter_mut().zip(&arg_cols) {
            let v = match arg {
                Some(c) => c.get(i),
                None => Value::Bool(true),
            };
            acc.update(&v)?;
        }
    }
    if group_by.is_empty() && groups.is_empty() {
        let accs = aggs
            .iter()
            .zip(&arg_types)
            .map(|(a, t)| Accumulator::new(a.func, *t))
            .collect();
        groups.insert(Row::new(), accs);
        order.push(Row::new());
    }
    let mut cols: Vec<Column> = out_schema
        .fields()
        .iter()
        .map(|f| Column::new_empty(f.dtype))
        .collect();
    for key in &order {
        for (ci, v) in key.0.iter().enumerate() {
            cols[ci].push(v).map_err(CoreError::from)?;
        }
        for (ai, acc) in groups[key].iter().enumerate() {
            let ci = group_by.len() + ai;
            let v = acc.finish();
            let v = match (&v, out_schema.field_at(ci).dtype) {
                (Value::Int(x), bda_storage::DataType::Float64) => Value::Float(*x as f64),
                _ => v,
            };
            cols[ci].push(&v).map_err(CoreError::from)?;
        }
    }
    let chunk = RowsChunk::new(cols).map_err(CoreError::from)?;
    Ok(DataSet::new(out_schema, vec![Chunk::Rows(chunk)]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::reference::evaluate;
    use bda_core::{col, lit, AggFunc};
    use bda_storage::dataset::matrix_dataset;
    use std::collections::HashMap as StdHashMap;

    fn arrays() -> BTreeMap<String, DataSet> {
        let mut m = BTreeMap::new();
        m.insert(
            "m".to_string(),
            matrix_dataset(4, 4, (0..16).map(|i| i as f64).collect()).unwrap(),
        );
        m
    }

    fn check(plan: &Plan) {
        let a = arrays();
        let ours = execute(plan, &a).expect("array engine");
        let oracle_src: StdHashMap<String, DataSet> =
            a.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        let oracle = evaluate(plan, &oracle_src).expect("reference");
        assert_eq!(ours.schema(), oracle.schema());
        assert!(
            ours.same_bag(&oracle).unwrap(),
            "mismatch for plan:\n{plan}\nours:\n{}oracle:\n{}",
            ours.show(30),
            oracle.show(30)
        );
    }

    fn scan_m() -> Plan {
        Plan::scan("m", arrays()["m"].schema().clone())
    }

    #[test]
    fn array_pipeline_matches_reference() {
        let plan = Plan::Window {
            input: Plan::Dice {
                input: scan_m().boxed(),
                ranges: vec![("row".into(), 0, 3)],
            }
            .boxed(),
            radii: vec![("row".into(), 1), ("col".into(), 1)],
            aggs: vec![bda_core::AggExpr::new(AggFunc::Sum, col("v"), "s")],
        };
        check(&plan);
    }

    #[test]
    fn select_project_on_cells_matches_reference() {
        let plan = scan_m()
            .select(col("v").gt(lit(5.0)))
            .project(vec![("row", col("row")), ("vv", col("v").mul(lit(2.0)))]);
        check(&plan);
    }

    #[test]
    fn dim_reduction_via_aggregate_matches_reference() {
        let plan = scan_m().aggregate(
            vec!["row"],
            vec![bda_core::AggExpr::new(AggFunc::Sum, col("v"), "rowsum")],
        );
        check(&plan);
    }

    #[test]
    fn retagging_redensifies() {
        let a = arrays();
        let plan = Plan::TagDims {
            input: Plan::UntagDims {
                input: scan_m().boxed(),
            }
            .boxed(),
            dims: vec![("row".into(), Some((0, 4))), ("col".into(), Some((0, 4)))],
        };
        let out = execute(&plan, &a).unwrap();
        assert!(matches!(out.chunks()[0], Chunk::Dense(_)));
    }

    #[test]
    fn union_distinct_limit_match_reference() {
        check(&scan_m().union(scan_m()));
        check(
            &Plan::UntagDims {
                input: scan_m().boxed(),
            }
            .project(vec![("r", col("row"))])
            .distinct(),
        );
        // Note: limit over an unordered bag is nondeterministic in
        // principle; both implementations enumerate dense cells in
        // row-major order, so compare counts only.
        let a = arrays();
        let out = execute(&scan_m().limit(5), &a).unwrap();
        assert_eq!(out.num_rows(), 5);
    }

    #[test]
    fn unsupported_ops_rejected() {
        let a = arrays();
        let err = execute(&scan_m().sort_by(vec!["row"]), &a).unwrap_err();
        assert!(matches!(err, CoreError::Unsupported { .. }));
    }
}
