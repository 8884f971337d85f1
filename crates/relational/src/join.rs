//! Join algorithms: the hash join every plan path runs, and a
//! sort-merge join (inner, single key) that a unit test holds to it.

use bda_core::keys::{has_null, hash_rows, rows_eq, KeyChains};
use bda_core::{CoreError, JoinType};
use bda_storage::{Chunk, Column, DataSet, RowsChunk, Schema};
#[cfg(test)]
use bda_storage::{Row, Value};

use crate::exec::Result;

/// Index the rows of `cols` (all of length `len`) by key hash, leaving
/// out rows with a null key (null-rejecting join equality). Each chain
/// lists its rows in ascending order. A null never equals a non-null
/// under [`rows_eq`], so probe rows need no null check of their own.
fn build(cols: &[&Column], len: usize) -> KeyChains {
    let mut chains = KeyChains::default();
    for (i, h) in hash_rows(cols, len).into_iter().enumerate() {
        if !has_null(cols, i) {
            chains.push(h, i);
        }
    }
    chains
}

/// Hash equi-join over typed keys. Builds on the right input and probes
/// with the left, so the output is left-major: each left row's matches
/// in right-row order. With an empty `on` list this degrades to a cross
/// join (every row has the same empty key).
pub fn hash_join(
    left: &DataSet,
    right: &DataSet,
    on: &[(String, String)],
    join_type: JoinType,
    out_schema: Schema,
) -> Result<DataSet> {
    let ls = left.schema();
    let rs = right.schema();
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
        let table = build(&l_cols, l_chunk.len());
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (j, h) in hash_rows(&r_cols, r_chunk.len()).into_iter().enumerate() {
            for i in table.chain(h) {
                if rows_eq(&l_cols, i, &r_cols, j) {
                    pairs.push((i, j));
                }
            }
        }
        pairs.sort_unstable();
        let (l_take, r_take): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
        return assemble(&l_chunk, &r_chunk, join_type, out_schema, &l_take, &r_take);
    }

    // Build side: right.
    let table = build(&r_cols, r_chunk.len());
    let mut l_take: Vec<usize> = Vec::with_capacity(l_chunk.len());
    let mut r_take: Vec<usize> = Vec::with_capacity(l_chunk.len()); // inner/left matches
    let mut l_unmatched: Vec<usize> = Vec::new();
    for (i, h) in hash_rows(&l_cols, l_chunk.len()).into_iter().enumerate() {
        let mut matches = table.chain(h).filter(|&j| rows_eq(&l_cols, i, &r_cols, j));
        match join_type {
            JoinType::Inner | JoinType::Left => {
                let before = r_take.len();
                for j in matches {
                    l_take.push(i);
                    r_take.push(j);
                }
                if join_type == JoinType::Left && r_take.len() == before {
                    l_unmatched.push(i);
                }
            }
            JoinType::Semi => {
                if matches.next().is_some() {
                    l_take.push(i);
                }
            }
            JoinType::Anti => {
                if matches.next().is_none() {
                    l_take.push(i);
                }
            }
        }
    }

    // Matched pairs first, then the unmatched left rows.
    l_take.append(&mut l_unmatched);
    assemble(&l_chunk, &r_chunk, join_type, out_schema, &l_take, &r_take)
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
    let ls = left.schema();
    let rs = right.schema();
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
        JoinType::Inner,
        out_schema,
        &l_take,
        &r_take,
    )
}

/// Build the output chunk: the left rows at `l_take`, beside (inner and
/// left joins) the right rows at `r_take`. A left join's `l_take` ends
/// with its unmatched rows, which `r_take` is too short to reach: their
/// right columns are nulls.
fn assemble(
    l_chunk: &RowsChunk,
    r_chunk: &RowsChunk,
    join_type: JoinType,
    out_schema: Schema,
    l_take: &[usize],
    r_take: &[usize],
) -> Result<DataSet> {
    let mut cols: Vec<Column> = l_chunk.columns().iter().map(|c| c.take(l_take)).collect();
    if matches!(join_type, JoinType::Inner | JoinType::Left) {
        for c in r_chunk.columns() {
            let mut out = c.take(r_take);
            if join_type == JoinType::Left {
                let nulls = Column::nulls(c.dtype(), l_take.len() - r_take.len());
                out.extend(&nulls).map_err(CoreError::from)?;
            }
            cols.push(out);
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
