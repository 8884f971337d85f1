//! The engine substrate: what every engine shares with the others.
//!
//! A provider advertises a catalog and accepts a tree (desideratum 2);
//! how it *holds* its datasets and how it runs the operators it has in
//! common with other engines is the same everywhere, so it lives here
//! once:
//!
//! * [`Datasets`] — the named-dataset map behind an engine's catalog (the
//!   relational engine keeps each table beside its metadata instead);
//! * the leaf kernels [`scan`], [`values`] and [`range`];
//! * the scalar relational core over the coordinate-list view —
//!   [`select`], [`project`], [`union`], [`limit`], [`distinct`] and
//!   [`aggregate`] — which the relational and array engines both run.
//!
//! Engines call these from their own `match` arms; anything an engine
//! does differently (statistics-driven selection, dense kernels,
//! densifying ingest) stays in that engine. The reference evaluator does
//! **not** call these kernels: it is the oracle they are tested against.
//! The traced partition runner lives beside the worker pool
//! ([`crate::pool::run_partitions`]).

use std::collections::BTreeMap;
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

use bda_storage::{Chunk, Column, DataSet, DataType, Row, RowsChunk, Schema, Value};

use crate::agg::{Accumulator, AggExpr};
use crate::error::CoreError;
use crate::eval::{eval_chunk, infer_expr};
use crate::expr::Expr;
use crate::keys;
use crate::Result;

/// An engine's named datasets. An engine that holds one [`Datasets::read`]
/// guard across a whole `execute` gives every scan of the plan the same
/// snapshot.
#[derive(Default)]
pub struct Datasets(RwLock<BTreeMap<String, DataSet>>);

impl Datasets {
    /// An empty map.
    pub fn new() -> Datasets {
        Datasets::default()
    }

    /// A shared read guard over the map. A panic while the lock was held
    /// does not poison it: every writer leaves the map consistent.
    pub fn read(&self) -> RwLockReadGuard<'_, BTreeMap<String, DataSet>> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Every dataset's name and schema, in name order.
    pub fn catalog(&self) -> Vec<(String, Schema)> {
        self.read()
            .iter()
            .map(|(n, ds)| (n.clone(), ds.schema().clone()))
            .collect()
    }

    /// Store `data` under `name`, replacing any previous dataset.
    pub fn insert(&self, name: &str, data: DataSet) {
        let mut map = self.0.write().unwrap_or_else(PoisonError::into_inner);
        map.insert(name.to_string(), data);
    }

    /// Drop `name` if present.
    pub fn remove(&self, name: &str) {
        let mut map = self.0.write().unwrap_or_else(PoisonError::into_inner);
        map.remove(name);
    }

    /// Row count of `name`, if present.
    pub fn row_count_of(&self, name: &str) -> Option<usize> {
        self.read().get(name).map(|ds| ds.num_rows())
    }
}

/// `Scan`: the dataset stored as `dataset`, borrowed in place, refused
/// when the plan was bound against a different schema than the one
/// stored.
pub fn scan<'a>(
    stored: Option<&'a DataSet>,
    dataset: &str,
    schema: &Schema,
) -> Result<&'a DataSet> {
    let ds = stored.ok_or_else(|| CoreError::UnknownDataset(dataset.to_string()))?;
    if ds.schema() != schema {
        return Err(CoreError::Plan(format!(
            "scan `{dataset}`: bound schema {} does not match stored schema {}",
            schema,
            ds.schema()
        )));
    }
    Ok(ds)
}

/// `Values`: an inline literal relation.
pub fn values(schema: &Schema, rows: &[Row]) -> Result<DataSet> {
    DataSet::from_rows(schema.clone(), rows).map_err(Into::into)
}

/// `Range`: the integers `[lo, hi)`. The buffer is reserved fallibly, so
/// a range too large to hold is a plan error, not an aborted process.
pub fn range(lo: i64, hi: i64, out_schema: Schema) -> Result<DataSet> {
    let len = usize::try_from(hi.abs_diff(lo)).unwrap_or(usize::MAX);
    let mut data: Vec<i64> = Vec::new();
    data.try_reserve_exact(len)
        .map_err(|e| CoreError::Plan(format!("range [{lo}, {hi}) of {len} rows: {e}")))?;
    data.extend(lo..hi);
    let chunk = RowsChunk::new(vec![Column::from(data)])?;
    Ok(DataSet::new(out_schema, vec![Chunk::Rows(chunk)]))
}

/// `Select`: evaluate the predicate column-at-a-time over each chunk in
/// place and keep the rows where it is a valid `true`. A chunk whose
/// `skip` entry is `true` is never read (zone maps proved none of its
/// rows can match); a `skip` shorter than the chunk list reads the rest.
/// The kept rows form one chunk, exactly as if the read chunks had been
/// concatenated and then filtered.
pub fn select(
    input: &DataSet,
    predicate: &Expr,
    skip: &[bool],
    out_schema: Schema,
) -> Result<DataSet> {
    let schema = input.schema();
    let mut out: Option<RowsChunk> = None;
    for (ci, chunk) in input.chunks().iter().enumerate() {
        if skip.get(ci) == Some(&true) {
            continue;
        }
        let rows = chunk.to_rows(schema)?;
        let mask = truth_mask(&eval_chunk(predicate, schema, &rows)?)?;
        let kept = rows.filter(&mask);
        // The first read chunk's rows move in; later ones are appended.
        match &mut out {
            Some(out) => out.extend(&kept)?,
            None => out = Some(kept),
        }
    }
    let out = out.unwrap_or_else(|| RowsChunk::empty(schema));
    Ok(DataSet::new(out_schema, vec![Chunk::Rows(out)]))
}

/// A boolean column interpreted as a filter mask: `true` where the slot is
/// a valid `true`.
pub fn truth_mask(col: &Column) -> Result<Vec<bool>> {
    let data = col
        .bool_data()
        .map_err(|e| CoreError::Plan(format!("predicate did not yield bool: {e}")))?;
    Ok(match col.validity() {
        None => data.to_vec(),
        Some(bm) => data
            .iter()
            .enumerate()
            .map(|(i, &b)| b && bm.get(i))
            .collect(),
    })
}

/// `Project`: evaluate each expression column-at-a-time.
pub fn project(input: &DataSet, exprs: &[(String, Expr)], out_schema: Schema) -> Result<DataSet> {
    let in_schema = input.schema().clone();
    let chunk = input.to_rows_chunk()?;
    let mut cols = Vec::with_capacity(exprs.len());
    for (i, (_, e)) in exprs.iter().enumerate() {
        let c = eval_chunk(e, &in_schema, &chunk)?;
        cols.push(cast_to(c, out_schema.field_at(i).dtype));
    }
    Ok(DataSet::new(
        out_schema,
        vec![Chunk::Rows(RowsChunk::new(cols)?)],
    ))
}

/// Cast a column when projection inference widened the type (e.g. int
/// expression stored into a float column); identity otherwise.
fn cast_to(c: Column, to: DataType) -> Column {
    if c.dtype() == to {
        c
    } else {
        c.cast(to)
    }
}

/// `Union`: bag union, left rows first.
pub fn union(left: &DataSet, right: &DataSet, out_schema: Schema) -> Result<DataSet> {
    let mut chunk = left.to_rows_chunk()?.into_owned();
    chunk.extend(&*right.to_rows_chunk()?)?;
    Ok(DataSet::new(out_schema, vec![Chunk::Rows(chunk)]))
}

/// `Limit`: skip `skip` rows, then keep at most `fetch`.
pub fn limit(
    input: &DataSet,
    skip: usize,
    fetch: Option<usize>,
    out_schema: Schema,
) -> Result<DataSet> {
    let chunk = input.to_rows_chunk()?;
    let n = chunk.len();
    let start = skip.min(n);
    let end = match fetch {
        Some(f) => (start + f).min(n),
        None => n,
    };
    let indices: Vec<usize> = (start..end).collect();
    Ok(DataSet::new(
        out_schema,
        vec![Chunk::Rows(chunk.take(&indices))],
    ))
}

/// `Distinct`: duplicate elimination preserving first-occurrence order.
pub fn distinct(input: &DataSet, out_schema: Schema) -> Result<DataSet> {
    let chunk = input.to_rows_chunk()?;
    let cols: Vec<&Column> = chunk.columns().iter().collect();
    let groups = keys::group_rows(&cols, chunk.len());
    Ok(DataSet::new(
        out_schema,
        vec![Chunk::Rows(chunk.take(&groups.firsts))],
    ))
}

/// `Aggregate`: hash aggregation over typed group keys. Groups are
/// numbered in first-seen order and each folds its rows in row order;
/// aggregate arguments are evaluated column-at-a-time before grouping.
/// A global aggregate over no rows yields its one row of empty states.
pub fn aggregate(
    input: &DataSet,
    group_by: &[String],
    aggs: &[AggExpr],
    out_schema: Schema,
) -> Result<DataSet> {
    let in_schema = input.schema();
    let chunk = input.to_rows_chunk()?;

    let key_cols: Vec<&Column> = group_by
        .iter()
        .map(|g| Ok(chunk.column(in_schema.index_of(g)?)))
        .collect::<std::result::Result<_, bda_storage::StorageError>>()?;

    // Evaluate aggregate arguments once, vectorized.
    let mut arg_cols: Vec<Option<Column>> = Vec::with_capacity(aggs.len());
    let mut arg_types = Vec::with_capacity(aggs.len());
    for a in aggs {
        match &a.arg {
            Some(e) => {
                arg_types.push(infer_expr(e, in_schema)?);
                arg_cols.push(Some(eval_chunk(e, in_schema, &chunk)?));
            }
            None => {
                arg_types.push(None);
                arg_cols.push(None);
            }
        }
    }

    let mut groups = keys::group_rows(&key_cols, chunk.len());
    // A global aggregate over no rows still has its one group.
    if group_by.is_empty() && groups.firsts.is_empty() {
        groups.firsts.push(0);
    }
    let mut states: Vec<Vec<Accumulator>> = groups
        .firsts
        .iter()
        .map(|_| {
            aggs.iter()
                .zip(&arg_types)
                .map(|(a, t)| Accumulator::new(a.func, *t))
                .collect()
        })
        .collect();
    for (i, &g) in groups.ids.iter().enumerate() {
        for (acc, arg) in states[g].iter_mut().zip(&arg_cols) {
            let v = match arg {
                Some(c) => c.get(i),
                None => Value::Bool(true), // count(*) marker
            };
            acc.update(&v)?;
        }
    }

    // Key columns gather each group's first row; a column keeps a
    // validity bitmap only when a key in it is null.
    let mut cols: Vec<Column> = key_cols
        .iter()
        .map(|c| {
            let mut out = c.take(&groups.firsts);
            out.normalize();
            out
        })
        .collect();
    for ai in 0..aggs.len() {
        let ci = group_by.len() + ai;
        let dtype = out_schema.field_at(ci).dtype;
        let mut col = Column::new_empty(dtype);
        for accs in &states {
            col.push(&widen(accs[ai].finish(), dtype))
                .map_err(CoreError::from)?;
        }
        cols.push(col);
    }
    let chunk = RowsChunk::new(cols).map_err(CoreError::from)?;
    Ok(DataSet::new(out_schema, vec![Chunk::Rows(chunk)]))
}

fn widen(v: Value, to: DataType) -> Value {
    match (&v, to) {
        (Value::Int(x), DataType::Float64) => Value::Float(*x as f64),
        _ => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::expr::col;
    use crate::infer::infer_schema;
    use crate::plan::Plan;
    use bda_storage::Field;

    fn input() -> DataSet {
        DataSet::from_columns(vec![
            ("g", Column::from(vec!["a", "b", "a", "a"])),
            ("x", Column::from(vec![1i64, 2, 3, 4])),
        ])
        .unwrap()
    }

    fn run(group_by: &[&str], aggs: Vec<AggExpr>) -> DataSet {
        let ds = input();
        let plan = Plan::scan("t", ds.schema().clone()).aggregate(group_by.to_vec(), aggs.clone());
        let schema = infer_schema(&plan).unwrap();
        aggregate(
            &ds,
            &group_by.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            &aggs,
            schema,
        )
        .unwrap()
    }

    #[test]
    fn datasets_catalog_is_name_ordered_and_tracks_insert_and_remove() {
        let d = Datasets::new();
        d.insert("z", input());
        d.insert("a", input());
        let names: Vec<String> = d.catalog().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "z"]);
        assert_eq!(d.row_count_of("z"), Some(4));
        d.remove("z");
        assert_eq!(d.row_count_of("z"), None);
        assert_eq!(d.catalog().len(), 1);
    }

    #[test]
    fn scan_refuses_unknown_datasets_and_stale_schemas() {
        let d = Datasets::new();
        d.insert("t", input());
        let stored = input().schema().clone();
        let map = d.read();
        assert_eq!(scan(map.get("t"), "t", &stored).unwrap().num_rows(), 4);
        assert!(matches!(
            scan(map.get("nope"), "nope", &stored),
            Err(CoreError::UnknownDataset(_))
        ));
        let other = Schema::new(vec![Field::value("g", DataType::Utf8)]).unwrap();
        let err = scan(map.get("t"), "t", &other).unwrap_err();
        assert!(
            err.to_string().contains("does not match stored schema"),
            "{err}"
        );
    }

    #[test]
    fn range_too_large_to_hold_is_a_plan_error() {
        let schema = infer_schema(&Plan::Range {
            name: "i".into(),
            lo: 0,
            hi: i64::MAX,
        })
        .unwrap();
        let err = range(0, i64::MAX, schema).unwrap_err();
        assert!(matches!(err, CoreError::Plan(_)), "{err}");
        assert!(err.to_string().contains("range [0, "), "{err}");
        let small = infer_schema(&Plan::Range {
            name: "i".into(),
            lo: -2,
            hi: 3,
        })
        .unwrap();
        assert_eq!(range(-2, 3, small).unwrap().num_rows(), 5);
    }

    #[test]
    fn grouped_sums() {
        let out = run(&["g"], vec![AggExpr::new(AggFunc::Sum, col("x"), "s")]);
        let rows = out.sorted_rows().unwrap();
        assert_eq!(rows[0], Row(vec![Value::from("a"), Value::Int(8)]));
        assert_eq!(rows[1], Row(vec![Value::from("b"), Value::Int(2)]));
    }

    #[test]
    fn expression_arguments() {
        let out = run(
            &[],
            vec![AggExpr::new(AggFunc::Max, col("x").mul(col("x")), "maxsq")],
        );
        assert_eq!(out.rows().unwrap(), vec![Row(vec![Value::Int(16)])]);
    }

    #[test]
    fn avg_widens_to_float() {
        let out = run(&["g"], vec![AggExpr::new(AggFunc::Avg, col("x"), "a")]);
        let rows = out.sorted_rows().unwrap();
        assert_eq!(rows[0].get(1), &Value::Float(8.0 / 3.0));
    }

    #[test]
    fn null_group_keys_form_a_group() {
        let ds = DataSet::from_rows(
            input().schema().clone(),
            &[
                Row(vec![Value::Null, Value::Int(1)]),
                Row(vec![Value::Null, Value::Int(2)]),
                Row(vec![Value::from("a"), Value::Int(3)]),
            ],
        )
        .unwrap();
        let plan = Plan::scan("t", ds.schema().clone())
            .aggregate(vec!["g"], vec![AggExpr::count_star("n")]);
        let schema = infer_schema(&plan).unwrap();
        let out = aggregate(&ds, &["g".to_string()], &[AggExpr::count_star("n")], schema).unwrap();
        let rows = out.sorted_rows().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], Row(vec![Value::Null, Value::Int(2)]));
    }

    #[test]
    fn group_keys_track_nulls_only_when_they_hold_one() {
        // A key column whose bitmap marks every slot valid (what a filter
        // leaves behind) comes out without one, as pushed keys would.
        let keys = Column::Int64(vec![1, 2, 1], Some(bda_storage::Bitmap::filled(3, true)));
        let ds = DataSet::from_columns(vec![("g", keys)]).unwrap();
        let aggs = [AggExpr::count_star("n")];
        let plan = Plan::scan("t", ds.schema().clone()).aggregate(vec!["g"], aggs.to_vec());
        let schema = infer_schema(&plan).unwrap();
        let out = aggregate(&ds, &["g".to_string()], &aggs, schema).unwrap();
        let chunk = out.to_rows_chunk().unwrap();
        assert!(chunk.column(0).validity().is_none());
        assert_eq!(chunk.column(1).i64_data().unwrap(), &[2, 1]);
    }

    #[test]
    fn truth_mask_handles_nulls() {
        let c = Column::from_values(
            DataType::Bool,
            &[Value::Bool(true), Value::Null, Value::Bool(false)],
        )
        .unwrap();
        assert_eq!(truth_mask(&c).unwrap(), vec![true, false, false]);
    }

    #[test]
    fn distinct_keeps_first_occurrence() {
        let ds = DataSet::from_columns(vec![("k", Column::from(vec![3i64, 1, 3, 1, 2]))]).unwrap();
        let out = distinct(&ds, ds.schema().clone()).unwrap();
        let ks: Vec<Value> = out
            .rows()
            .unwrap()
            .iter()
            .map(|r| r.get(0).clone())
            .collect();
        assert_eq!(ks, vec![Value::Int(3), Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn distinct_handles_nulls_and_floats() {
        let ds = DataSet::from_rows(
            Schema::new(vec![Field::value("x", DataType::Float64)]).unwrap(),
            &[
                Row(vec![Value::Null]),
                Row(vec![Value::Float(1.0)]),
                Row(vec![Value::Null]),
                Row(vec![Value::Float(1.0)]),
            ],
        )
        .unwrap();
        let out = distinct(&ds, ds.schema().clone()).unwrap();
        assert_eq!(out.num_rows(), 2);
    }
}
