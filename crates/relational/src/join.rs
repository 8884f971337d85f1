//! Join algorithms: hash join (default) and sort-merge join (kept for the
//! ablation benchmark — both satisfy the same contract).

use std::collections::HashMap;

use bda_core::{CoreError, JoinType};
#[cfg(test)]
use bda_storage::Value;
use bda_storage::{Chunk, Column, DataSet, Row, RowsChunk, Schema};

use crate::exec::Result;

/// Extract the key row at `i` from the given key columns, or `None` if any
/// key is null (null-rejecting join equality).
fn key_at(cols: &[&Column], i: usize) -> Option<Row> {
    let mut vals = Vec::with_capacity(cols.len());
    for c in cols {
        let v = c.get(i);
        if v.is_null() {
            return None;
        }
        // Normalize numeric keys to float bits via grouping hash: Value's
        // Hash/Eq already unify Int/Float, so store as-is.
        vals.push(v);
    }
    Some(Row(vals))
}

/// Hash equi-join. Builds on the right input, probes with the left.
/// With an empty `on` list this degrades to a cross join.
pub fn hash_join(
    left: &DataSet,
    right: &DataSet,
    on: &[(String, String)],
    join_type: JoinType,
    out_schema: Schema,
) -> Result<DataSet> {
    let ls = left.schema().clone();
    let rs = right.schema().clone();
    let l_chunk = left.to_rows_chunk()?;
    let r_chunk = right.to_rows_chunk()?;
    let l_cols: Vec<&Column> = on
        .iter()
        .map(|(a, _)| Ok(l_chunk.column(ls.index_of(a)?)))
        .collect::<std::result::Result<_, bda_storage::StorageError>>()?;
    let r_cols: Vec<&Column> = on
        .iter()
        .map(|(_, b)| Ok(r_chunk.column(rs.index_of(b)?)))
        .collect::<std::result::Result<_, bda_storage::StorageError>>()?;

    // Statistics-driven build-side choice (inner joins only): the hash
    // table is the expensive part, so build it on the smaller input and
    // probe with the larger. Pairs are re-sorted into the canonical
    // left-major order afterwards, so the result is byte-identical to
    // the build-on-right path — bag *and* order.
    if join_type == JoinType::Inner && !on.is_empty() && l_chunk.len() < r_chunk.len() {
        let mut table: HashMap<Row, Vec<usize>> = HashMap::new();
        for i in 0..l_chunk.len() {
            if let Some(k) = key_at(&l_cols, i) {
                table.entry(k).or_default().push(i);
            }
        }
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for j in 0..r_chunk.len() {
            if let Some(idxs) = key_at(&r_cols, j).and_then(|k| table.get(&k)) {
                for &i in idxs {
                    pairs.push((i, j));
                }
            }
        }
        pairs.sort_unstable();
        let (l_take, r_take) = pairs.into_iter().unzip();
        return assemble(
            &l_chunk,
            &r_chunk,
            &rs,
            join_type,
            out_schema,
            l_take,
            r_take,
            Vec::new(),
        );
    }

    // Build side: right.
    let mut table: HashMap<Row, Vec<usize>> = HashMap::new();
    if on.is_empty() {
        // Cross join: every right row under the unit key.
        table.insert(Row::new(), (0..r_chunk.len()).collect());
    } else {
        for i in 0..r_chunk.len() {
            if let Some(k) = key_at(&r_cols, i) {
                table.entry(k).or_default().push(i);
            }
        }
    }

    let mut l_take: Vec<usize> = Vec::new();
    let mut r_take: Vec<usize> = Vec::new(); // parallel to l_take (inner/left matches)
    let mut l_unmatched: Vec<usize> = Vec::new();
    let empty_key = Row::new();
    for i in 0..l_chunk.len() {
        let key = if on.is_empty() {
            Some(empty_key.clone())
        } else {
            key_at(&l_cols, i)
        };
        let matches = key.as_ref().and_then(|k| table.get(k));
        match join_type {
            JoinType::Inner | JoinType::Left => match matches {
                Some(idxs) if !idxs.is_empty() => {
                    for &j in idxs {
                        l_take.push(i);
                        r_take.push(j);
                    }
                }
                _ => {
                    if join_type == JoinType::Left {
                        l_unmatched.push(i);
                    }
                }
            },
            JoinType::Semi => {
                if matches.map(|m| !m.is_empty()).unwrap_or(false) {
                    l_take.push(i);
                }
            }
            JoinType::Anti => {
                if !matches.map(|m| !m.is_empty()).unwrap_or(false) {
                    l_take.push(i);
                }
            }
        }
    }

    assemble(
        &l_chunk,
        &r_chunk,
        &rs,
        join_type,
        out_schema,
        l_take,
        r_take,
        l_unmatched,
    )
}

/// Sort-merge equi-join on a single key pair (inner only); results are
/// identical to [`hash_join`]. No plan path calls it: engines join by
/// hash. It is the tree's one sort-merge join, the algorithm the S3
/// row of PAPER.md names, and a unit test holds it to `hash_join`.
pub fn merge_join(
    left: &DataSet,
    right: &DataSet,
    on: &(String, String),
    out_schema: Schema,
) -> Result<DataSet> {
    let ls = left.schema().clone();
    let rs = right.schema().clone();
    let l_chunk = left.to_rows_chunk()?;
    let r_chunk = right.to_rows_chunk()?;
    let lk = l_chunk.column(ls.index_of(&on.0)?);
    let rk = r_chunk.column(rs.index_of(&on.1)?);

    // Sort row indices by key, nulls dropped (null-rejecting equality).
    let mut li: Vec<usize> = (0..l_chunk.len()).filter(|&i| lk.is_valid(i)).collect();
    let mut ri: Vec<usize> = (0..r_chunk.len()).filter(|&i| rk.is_valid(i)).collect();
    li.sort_by(|&a, &b| lk.get(a).total_cmp(&lk.get(b)));
    ri.sort_by(|&a, &b| rk.get(a).total_cmp(&rk.get(b)));

    let mut l_take = Vec::new();
    let mut r_take = Vec::new();
    let (mut x, mut y) = (0usize, 0usize);
    while x < li.len() && y < ri.len() {
        let ord = lk.get(li[x]).total_cmp(&rk.get(ri[y]));
        match ord {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                // Find the equal runs on both sides, emit the product.
                let key = lk.get(li[x]);
                let x_end = (x..li.len())
                    .find(|&i| lk.get(li[i]).total_cmp(&key) != std::cmp::Ordering::Equal)
                    .unwrap_or(li.len());
                let y_end = (y..ri.len())
                    .find(|&i| rk.get(ri[i]).total_cmp(&key) != std::cmp::Ordering::Equal)
                    .unwrap_or(ri.len());
                for &a in &li[x..x_end] {
                    for &b in &ri[y..y_end] {
                        l_take.push(a);
                        r_take.push(b);
                    }
                }
                x = x_end;
                y = y_end;
            }
        }
    }
    assemble(
        &l_chunk,
        &r_chunk,
        &rs,
        JoinType::Inner,
        out_schema,
        l_take,
        r_take,
        Vec::new(),
    )
}

/// Build the output chunk from gather lists.
#[allow(clippy::too_many_arguments)]
fn assemble(
    l_chunk: &RowsChunk,
    r_chunk: &RowsChunk,
    rs: &Schema,
    join_type: JoinType,
    out_schema: Schema,
    l_take: Vec<usize>,
    r_take: Vec<usize>,
    l_unmatched: Vec<usize>,
) -> Result<DataSet> {
    let mut cols: Vec<Column> = Vec::with_capacity(out_schema.len());
    match join_type {
        JoinType::Semi | JoinType::Anti => {
            for c in l_chunk.columns() {
                cols.push(c.take(&l_take));
            }
        }
        JoinType::Inner => {
            for c in l_chunk.columns() {
                cols.push(c.take(&l_take));
            }
            for c in r_chunk.columns() {
                cols.push(c.take(&r_take));
            }
        }
        JoinType::Left => {
            // Matched pairs first, then unmatched left rows null-padded.
            for c in l_chunk.columns() {
                let mut out = c.take(&l_take);
                out.extend(&c.take(&l_unmatched)).map_err(CoreError::from)?;
                cols.push(out);
            }
            for (fi, c) in r_chunk.columns().iter().enumerate() {
                let mut out = c.take(&r_take);
                let nulls = Column::nulls(rs.field_at(fi).dtype, l_unmatched.len());
                out.extend(&nulls).map_err(CoreError::from)?;
                cols.push(out);
            }
        }
    }
    let chunk = RowsChunk::new(cols).map_err(CoreError::from)?;
    Ok(DataSet::new(out_schema, vec![Chunk::Rows(chunk)]))
}

/// Pick representative key values for test assertions.
#[cfg(test)]
fn keys(ds: &DataSet, col_idx: usize) -> Vec<Value> {
    ds.sorted_rows()
        .unwrap()
        .iter()
        .map(|r| r.get(col_idx).clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::infer_schema;
    use bda_core::Plan;
    use bda_storage::Column;

    fn left() -> DataSet {
        DataSet::from_columns(vec![
            ("k", Column::from(vec![1i64, 2, 2, 5])),
            ("l", Column::from(vec!["a", "b", "c", "d"])),
        ])
        .unwrap()
    }

    fn right() -> DataSet {
        let mut ds = DataSet::from_columns(vec![
            ("k", Column::from(vec![2i64, 2, 3])),
            ("r", Column::from(vec![10i64, 20, 30])),
        ])
        .unwrap();
        // Add a null-keyed row (must never match).
        let extra = DataSet::from_rows(
            ds.schema().clone(),
            &[Row(vec![Value::Null, Value::Int(99)])],
        )
        .unwrap();
        ds.push_chunk(extra.chunks()[0].clone());
        ds
    }

    fn out_schema(jt: JoinType) -> Schema {
        let plan = Plan::scan("l", left().schema().clone()).join_as(
            Plan::scan("r", right().schema().clone()),
            vec![("k", "k")],
            jt,
        );
        infer_schema(&plan).unwrap()
    }

    #[test]
    fn inner_join_multiplicity() {
        let out = hash_join(
            &left(),
            &right(),
            &[("k".into(), "k".into())],
            JoinType::Inner,
            out_schema(JoinType::Inner),
        )
        .unwrap();
        // k=2 on the left matches two right rows, twice.
        assert_eq!(out.num_rows(), 4);
    }

    #[test]
    fn left_join_pads_nulls() {
        let out = hash_join(
            &left(),
            &right(),
            &[("k".into(), "k".into())],
            JoinType::Left,
            out_schema(JoinType::Left),
        )
        .unwrap();
        assert_eq!(out.num_rows(), 6); // 4 matches + rows k=1 and k=5
        let rows = out.sorted_rows().unwrap();
        let padded: Vec<&Row> = rows.iter().filter(|r| r.get(2).is_null()).collect();
        assert_eq!(padded.len(), 2);
    }

    #[test]
    fn semi_and_anti_partition_left() {
        let semi = hash_join(
            &left(),
            &right(),
            &[("k".into(), "k".into())],
            JoinType::Semi,
            out_schema(JoinType::Semi),
        )
        .unwrap();
        let anti = hash_join(
            &left(),
            &right(),
            &[("k".into(), "k".into())],
            JoinType::Anti,
            out_schema(JoinType::Anti),
        )
        .unwrap();
        assert_eq!(semi.num_rows() + anti.num_rows(), left().num_rows());
        assert_eq!(keys(&semi, 0), vec![Value::Int(2), Value::Int(2)]);
        assert_eq!(keys(&anti, 0), vec![Value::Int(1), Value::Int(5)]);
    }

    #[test]
    fn cross_join_on_empty_keys() {
        let out = hash_join(
            &left(),
            &right(),
            &[],
            JoinType::Inner,
            out_schema(JoinType::Inner),
        )
        .unwrap();
        assert_eq!(out.num_rows(), left().num_rows() * right().num_rows());
    }

    #[test]
    fn join_inputs_spanning_multiple_chunks_match_contiguous() {
        // The shape a partitioned producer hands downstream: the same
        // rows as `left()` but split across three chunks with an empty
        // chunk in the middle. Join results must not depend on layout.
        let mut l = DataSet::from_columns(vec![
            ("k", Column::from(vec![1i64, 2])),
            ("l", Column::from(vec!["a", "b"])),
        ])
        .unwrap();
        let empty = DataSet::from_rows(l.schema().clone(), &[]).unwrap();
        for ch in empty.chunks() {
            l.push_chunk(ch.clone());
        }
        let tail = DataSet::from_columns(vec![
            ("k", Column::from(vec![2i64, 5])),
            ("l", Column::from(vec!["c", "d"])),
        ])
        .unwrap();
        l.push_chunk(tail.chunks()[0].clone());
        assert!(l.same_bag(&left()).unwrap());
        for jt in [
            JoinType::Inner,
            JoinType::Left,
            JoinType::Semi,
            JoinType::Anti,
        ] {
            let split = hash_join(
                &l,
                &right(),
                &[("k".into(), "k".into())],
                jt,
                out_schema(jt),
            )
            .unwrap();
            let contiguous = hash_join(
                &left(),
                &right(),
                &[("k".into(), "k".into())],
                jt,
                out_schema(jt),
            )
            .unwrap();
            assert!(
                split.same_bag(&contiguous).unwrap(),
                "{jt:?} join changed under multi-chunk layout"
            );
        }
    }

    #[test]
    fn empty_sides_of_every_join_type() {
        let empty = DataSet::from_rows(left().schema().clone(), &[]).unwrap();
        let empty_r = DataSet::from_rows(right().schema().clone(), &[]).unwrap();
        let on = [("k".to_string(), "k".to_string())];
        for jt in [
            JoinType::Inner,
            JoinType::Left,
            JoinType::Semi,
            JoinType::Anti,
        ] {
            // Empty left: nothing to probe with, whatever the type.
            let out = hash_join(&empty, &right(), &on, jt, out_schema(jt)).unwrap();
            assert_eq!(out.num_rows(), 0, "{jt:?} with empty left");
        }
        // Empty right: inner/semi drop everything, left pads everything,
        // anti keeps everything.
        for (jt, expect) in [
            (JoinType::Inner, 0),
            (JoinType::Left, left().num_rows()),
            (JoinType::Semi, 0),
            (JoinType::Anti, left().num_rows()),
        ] {
            let out = hash_join(&left(), &empty_r, &on, jt, out_schema(jt)).unwrap();
            assert_eq!(out.num_rows(), expect, "{jt:?} with empty right");
        }
    }

    #[test]
    fn all_equal_key_skew_emits_the_full_product() {
        // Every row in one hash bucket — the worst skew a hash
        // partitioner can see: one partition holds everything, the rest
        // are empty. The bucket must still emit the full product.
        let n = 32usize;
        let skew = |tag: &str| {
            DataSet::from_columns(vec![
                ("k", Column::from(vec![7i64; n])),
                (tag, Column::from((0..n as i64).collect::<Vec<i64>>())),
            ])
            .unwrap()
        };
        let l = skew("l");
        let r = skew("r");
        let plan = Plan::scan("l", l.schema().clone()).join_as(
            Plan::scan("r", r.schema().clone()),
            vec![("k", "k")],
            JoinType::Inner,
        );
        let schema = infer_schema(&plan).unwrap();
        let out = hash_join(&l, &r, &[("k".into(), "k".into())], JoinType::Inner, schema).unwrap();
        assert_eq!(out.num_rows(), n * n);
    }

    #[test]
    fn merge_join_agrees_with_hash_join() {
        let on = ("k".to_string(), "k".to_string());
        let h = hash_join(
            &left(),
            &right(),
            std::slice::from_ref(&on),
            JoinType::Inner,
            out_schema(JoinType::Inner),
        )
        .unwrap();
        let m = merge_join(&left(), &right(), &on, out_schema(JoinType::Inner)).unwrap();
        assert!(h.same_bag(&m).unwrap());
    }
}
