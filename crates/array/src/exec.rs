//! Plan dispatch for the array engine.
//!
//! Dimension-aware operators route to the dense kernels in
//! [`crate::dense_ops`]; leaves and the scalar relational core (select /
//! project / aggregate / union / distinct / limit) are the shared
//! [`bda_core::engine`] kernels over the coordinate-list view. Only the
//! retagging arm is the engine's own: it re-densifies under the new
//! schema. Joins, sorts, matmul, graph ops and iteration are rejected —
//! they belong to other providers.

use std::collections::BTreeMap;

use bda_core::engine;
use bda_core::infer::infer_schema;
use bda_core::provider::trace_op;
use bda_core::{pool, CoreError, Plan};
use bda_storage::{Chunk, DataSet};

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
            engine::scan(arrays.get(dataset), dataset, schema).cloned()
        }
        Plan::Values { schema, rows } => engine::values(schema, rows),
        Plan::Range { lo, hi, .. } => engine::range(*lo, *hi, out_schema),
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
            // Band-split at the pool's width; the `partition:{i}` spans
            // nest under this operator's `op:elemwise`.
            dense_ops::elemwise_dense_partitioned(*op, &l, &r, pool::workers(), out_schema)
        }
        // --- scalar relational core over the coordinate view --------------
        Plan::Select { input, predicate } => {
            engine::select(&execute(input, arrays)?, predicate, &[], out_schema)
        }
        Plan::Project { input, exprs } => {
            engine::project(&execute(input, arrays)?, exprs, out_schema)
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => engine::aggregate(&execute(input, arrays)?, group_by, aggs, out_schema),
        Plan::Union { left, right } => engine::union(
            &execute(left, arrays)?,
            &execute(right, arrays)?,
            out_schema,
        ),
        Plan::Distinct { input } => engine::distinct(&execute(input, arrays)?, out_schema),
        Plan::Limit { input, skip, fetch } => {
            engine::limit(&execute(input, arrays)?, *skip, *fetch, out_schema)
        }
        Plan::Rename { input, .. } | Plan::UntagDims { input } | Plan::TagDims { input, .. } => {
            let chunk = execute(input, arrays)?.into_rows_chunk()?;
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
