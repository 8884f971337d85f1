//! Partition-parallel relational kernels.
//!
//! The engine's `Join` and grouped `Aggregate` arms call these with the
//! pool's width ([`pool::workers`]). At a width of one they run the
//! sequential kernel: no split, no copy, no partition span. Wider, they
//! route rows with the deterministic [`Partitioner`], run the
//! per-partition kernel on the worker pool, and concatenate the outputs
//! **in partition order**. The output is a pure function of the input
//! and the width, so results are bag-identical across widths and
//! byte-identical at a fixed width.
//!
//! The partitions run through [`pool::run_partitions`], which records a
//! `partition:{i}` span each under the operator's own `op:` span, so
//! `EXPLAIN ANALYZE` shows the parallel fan-out per operator.

use bda_core::engine::aggregate;
use bda_core::partition::{merge_partitions, Partitioner};
use bda_core::{pool, AggExpr, JoinType};
use bda_storage::{DataSet, Schema};

use crate::exec::Result;
use crate::join::hash_join;

/// Run per-partition kernels as traced partitions and concatenate the
/// outputs in partition order.
fn run_partitioned(
    out_schema: Schema,
    tasks: Vec<impl FnOnce() -> Result<DataSet> + Send>,
) -> Result<DataSet> {
    let outs = pool::run_partitions(tasks, |out: &Result<DataSet>| {
        out.as_ref().ok().map(DataSet::num_rows)
    });
    merge_partitions(out_schema, outs.into_iter().collect::<Result<Vec<_>>>()?)
}

/// Hash-partitioned join: co-partition both sides on the join keys,
/// join each bucket independently, concatenate. With `parts <= 1` this
/// is the sequential [`hash_join`].
///
/// With an empty `on` list (cross join) the left side is block-split and
/// the right side broadcast — correct for every join type because row
/// matching is local to each left row.
pub fn partitioned_hash_join(
    left: &DataSet,
    right: &DataSet,
    on: &[(String, String)],
    join_type: JoinType,
    parts: usize,
    out_schema: Schema,
) -> Result<DataSet> {
    if parts <= 1 {
        return hash_join(left, right, on, join_type, out_schema);
    }
    let (l_parts, r_parts): (Vec<DataSet>, Vec<DataSet>) = if on.is_empty() {
        let l = Partitioner::block(parts).split(left)?;
        let r = vec![right.clone(); parts];
        (l, r)
    } else {
        let l_keys: Vec<&str> = on.iter().map(|(l, _)| l.as_str()).collect();
        let r_keys: Vec<&str> = on.iter().map(|(_, r)| r.as_str()).collect();
        let l = Partitioner::hash_keys(&l_keys, parts).split(left)?;
        let r = Partitioner::hash_keys(&r_keys, parts).split(right)?;
        (l, r)
    };
    let tasks: Vec<_> = l_parts
        .into_iter()
        .zip(r_parts)
        .map(|(l, r)| {
            let schema = out_schema.clone();
            move || hash_join(&l, &r, on, join_type, schema)
        })
        .collect();
    run_partitioned(out_schema, tasks)
}

/// Hash-partitioned grouped aggregation: partition on the group keys (so
/// each group lives wholly inside one partition), aggregate each
/// partition independently, concatenate. No partial-aggregate merge is
/// needed because groups never straddle partitions. With `parts <= 1`,
/// or no group keys (a global aggregate), this is the sequential
/// [`aggregate`].
pub fn partitioned_aggregate(
    input: &DataSet,
    group_by: &[String],
    aggs: &[AggExpr],
    parts: usize,
    out_schema: Schema,
) -> Result<DataSet> {
    if parts <= 1 || group_by.is_empty() {
        return aggregate(input, group_by, aggs, out_schema);
    }
    let keys: Vec<&str> = group_by.iter().map(String::as_str).collect();
    let in_parts = Partitioner::hash_keys(&keys, parts).split(input)?;
    let tasks: Vec<_> = in_parts
        .into_iter()
        .map(|p| {
            let schema = out_schema.clone();
            move || aggregate(&p, group_by, aggs, schema)
        })
        .collect();
    run_partitioned(out_schema, tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::agg::AggFunc;
    use bda_core::{col, pool};
    use bda_storage::{DataType, Field, Row, Value};

    fn schema(names: &[&str]) -> Schema {
        Schema::new(
            names
                .iter()
                .map(|n| Field::value(*n, DataType::Int64))
                .collect(),
        )
        .unwrap()
    }

    fn table(s: &Schema, rows: &[Vec<i64>]) -> DataSet {
        let rows: Vec<Row> = rows
            .iter()
            .map(|r| Row(r.iter().map(|&v| Value::Int(v)).collect()))
            .collect();
        DataSet::from_rows(s.clone(), &rows).unwrap()
    }

    fn join_schemas() -> (Schema, Schema, Schema) {
        let l = schema(&["k", "a"]);
        let r = schema(&["j", "b"]);
        let out = l.join(&r, "_r").unwrap();
        (l, r, out)
    }

    #[test]
    fn partitioned_join_matches_sequential_for_all_types_and_parts() {
        let (ls, rs, out) = join_schemas();
        let left = table(
            &ls,
            &[[1, 10], [2, 20], [3, 30], [2, 21], [9, 90]].map(Vec::from),
        );
        let right = table(
            &rs,
            &[[2, 200], [3, 300], [2, 201], [7, 700]].map(Vec::from),
        );
        let on = vec![("k".to_string(), "j".to_string())];
        for jt in [
            JoinType::Inner,
            JoinType::Left,
            JoinType::Semi,
            JoinType::Anti,
        ] {
            let out_schema = match jt {
                JoinType::Inner | JoinType::Left => out.clone(),
                JoinType::Semi | JoinType::Anti => ls.clone(),
            };
            let seq = hash_join(&left, &right, &on, jt, out_schema.clone()).unwrap();
            for parts in [1, 2, 3, 8] {
                for workers in [1, 4] {
                    let par = pool::with_workers(workers, || {
                        partitioned_hash_join(&left, &right, &on, jt, parts, out_schema.clone())
                    })
                    .unwrap();
                    assert!(
                        seq.same_bag(&par).unwrap(),
                        "join_type={jt:?} parts={parts} workers={workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn partitioned_cross_join_matches_sequential() {
        let (ls, rs, out) = join_schemas();
        let left = table(&ls, &[[1, 10], [2, 20], [3, 30]].map(Vec::from));
        let right = table(&rs, &[[7, 70], [8, 80]].map(Vec::from));
        let seq = hash_join(&left, &right, &[], JoinType::Inner, out.clone()).unwrap();
        let par = partitioned_hash_join(&left, &right, &[], JoinType::Inner, 2, out).unwrap();
        assert!(seq.same_bag(&par).unwrap());
    }

    #[test]
    fn empty_inputs_and_more_parts_than_rows() {
        let (ls, rs, out) = join_schemas();
        let on = vec![("k".to_string(), "j".to_string())];
        let empty_l = table(&ls, &[]);
        let one_r = table(&rs, &[[1, 100]].map(Vec::from));
        let res =
            partitioned_hash_join(&empty_l, &one_r, &on, JoinType::Inner, 6, out.clone()).unwrap();
        assert_eq!(res.num_rows(), 0);
        // Left join on an empty right side still pads every left row.
        let one_l = table(&ls, &[[1, 10]].map(Vec::from));
        let empty_r = table(&rs, &[]);
        let res = partitioned_hash_join(&one_l, &empty_r, &on, JoinType::Left, 6, out).unwrap();
        assert_eq!(res.num_rows(), 1);
    }

    #[test]
    fn skewed_all_equal_keys_still_join_correctly() {
        let (ls, rs, out) = join_schemas();
        let left = table(&ls, &(0..12).map(|i| vec![5, i]).collect::<Vec<_>>());
        let right = table(&rs, &(0..3).map(|i| vec![5, 100 + i]).collect::<Vec<_>>());
        let on = vec![("k".to_string(), "j".to_string())];
        let seq = hash_join(&left, &right, &on, JoinType::Inner, out.clone()).unwrap();
        let par = partitioned_hash_join(&left, &right, &on, JoinType::Inner, 4, out).unwrap();
        assert_eq!(par.num_rows(), 36);
        assert!(seq.same_bag(&par).unwrap());
    }

    #[test]
    fn null_join_keys_survive_left_join_partitioning() {
        let ls = schema(&["k", "a"]);
        let rs = schema(&["j", "b"]);
        let out = ls.join(&rs, "_r").unwrap();
        let left = DataSet::from_rows(
            ls.clone(),
            &[
                Row(vec![Value::Null, Value::Int(1)]),
                Row(vec![Value::Int(2), Value::Int(2)]),
            ],
        )
        .unwrap();
        let right = table(&rs, &[[2, 200]].map(Vec::from));
        let on = vec![("k".to_string(), "j".to_string())];
        let seq = hash_join(&left, &right, &on, JoinType::Left, out.clone()).unwrap();
        let par = partitioned_hash_join(&left, &right, &on, JoinType::Left, 3, out).unwrap();
        // The null-key row must appear (padded), not be dropped.
        assert_eq!(par.num_rows(), 2);
        assert!(seq.same_bag(&par).unwrap());
    }

    #[test]
    fn partitioned_aggregate_matches_sequential() {
        let s = schema(&["g", "v"]);
        let input = table(&s, &(0..40).map(|i| vec![i % 7, i]).collect::<Vec<_>>());
        let group_by = vec!["g".to_string()];
        let aggs = vec![AggExpr::new(AggFunc::Sum, col("v"), "s")];
        let out_schema = Schema::new(vec![
            Field::value("g", DataType::Int64),
            Field::value("s", DataType::Int64),
        ])
        .unwrap();
        let seq = aggregate(&input, &group_by, &aggs, out_schema.clone()).unwrap();
        for parts in [1, 3, 5, 11] {
            let par = pool::with_workers(4, || {
                partitioned_aggregate(&input, &group_by, &aggs, parts, out_schema.clone())
            })
            .unwrap();
            assert!(seq.same_bag(&par).unwrap(), "parts={parts}");
        }
    }

    #[test]
    fn output_is_identical_regardless_of_worker_count() {
        let (ls, rs, out) = join_schemas();
        let left = table(&ls, &(0..30).map(|i| vec![i % 6, i]).collect::<Vec<_>>());
        let right = table(
            &rs,
            &(0..12).map(|i| vec![i % 6, i * 10]).collect::<Vec<_>>(),
        );
        let on = vec![("k".to_string(), "j".to_string())];
        let runs: Vec<DataSet> = [1, 2, 7]
            .iter()
            .map(|&w| {
                pool::with_workers(w, || {
                    partitioned_hash_join(&left, &right, &on, JoinType::Inner, 4, out.clone())
                })
                .unwrap()
            })
            .collect();
        // Not just bag-equal: chunk-for-chunk, row-for-row identical.
        let base = runs[0].to_rows_chunk().unwrap();
        for run in &runs[1..] {
            let c = run.to_rows_chunk().unwrap();
            assert_eq!(c.len(), base.len());
            for i in 0..c.len() {
                assert_eq!(c.row(i), base.row(i));
            }
        }
    }
}
