//! The reference evaluator: a deliberately simple row-at-a-time
//! interpreter that **defines** the algebra's dynamic semantics.
//!
//! Engines are free to be clever (columnar kernels, hash joins, dense
//! arrays, CSR graphs); the reference evaluator is the oracle they are
//! property-tested against. It favours obviousness over speed everywhere.

use std::collections::{BTreeMap, HashMap};

use bda_storage::{DataSet, DataType, Row, Schema, Value};

use crate::agg::{Accumulator, AggExpr};
use crate::convergence::converged;
use crate::error::CoreError;
use crate::eval::eval_row;
use crate::infer::infer_schema;
use crate::plan::{GraphOp, JoinType, Plan};
use crate::provider::trace_op;

/// Result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Where `Scan` leaves find their data.
pub trait DataSource {
    /// Fetch a dataset by name.
    fn dataset(&self, name: &str) -> Result<DataSet>;
}

impl DataSource for HashMap<String, DataSet> {
    fn dataset(&self, name: &str) -> Result<DataSet> {
        self.get(name)
            .cloned()
            .ok_or_else(|| CoreError::UnknownDataset(name.to_string()))
    }
}

/// The map behind an engine's [`crate::engine::Datasets`] read guard.
impl DataSource for BTreeMap<String, DataSet> {
    fn dataset(&self, name: &str) -> Result<DataSet> {
        self.get(name)
            .cloned()
            .ok_or_else(|| CoreError::UnknownDataset(name.to_string()))
    }
}

/// A source with no datasets (for plans with no scans).
pub struct EmptySource;

impl DataSource for EmptySource {
    fn dataset(&self, name: &str) -> Result<DataSet> {
        Err(CoreError::UnknownDataset(name.to_string()))
    }
}

/// Evaluate a plan against a data source. Under an installed
/// [`bda_obs::scope`] every plan node records an `op:{kind}` span, as in
/// the engines; the result never depends on it.
pub fn evaluate(plan: &Plan, src: &dyn DataSource) -> Result<DataSet> {
    eval_plan(plan, src, None)
}

/// Evaluate one node under its `op:{kind}` span (inert when untraced).
fn eval_plan(plan: &Plan, src: &dyn DataSource, state: Option<&DataSet>) -> Result<DataSet> {
    trace_op(plan, || eval_node(plan, src, state))
}

fn eval_node(plan: &Plan, src: &dyn DataSource, state: Option<&DataSet>) -> Result<DataSet> {
    let out_schema = infer_schema(plan)?;
    match plan {
        Plan::Scan { dataset, schema } => {
            let ds = src.dataset(dataset)?;
            if ds.schema() != schema {
                return Err(CoreError::Plan(format!(
                    "scan `{dataset}`: bound schema {} does not match stored schema {}",
                    schema,
                    ds.schema()
                )));
            }
            Ok(ds)
        }
        Plan::Values { schema, rows } => {
            DataSet::from_rows(schema.clone(), rows).map_err(Into::into)
        }
        Plan::Range { lo, hi, .. } => {
            // Reserved fallibly: a range too large to hold is a plan
            // error, not an aborted process.
            let len = usize::try_from(hi.abs_diff(*lo)).unwrap_or(usize::MAX);
            let mut rows: Vec<Row> = Vec::new();
            rows.try_reserve_exact(len)
                .map_err(|e| CoreError::Plan(format!("range [{lo}, {hi}) of {len} rows: {e}")))?;
            rows.extend((*lo..*hi).map(|i| Row(vec![Value::Int(i)])));
            DataSet::from_rows(out_schema, &rows).map_err(Into::into)
        }
        Plan::IterState { .. } => state
            .cloned()
            .ok_or_else(|| CoreError::Plan("iter_state outside of iterate".into())),
        Plan::Select { input, predicate } => {
            let in_ds = eval_plan(input, src, state)?;
            let in_schema = in_ds.schema().clone();
            let mut rows = Vec::new();
            for r in in_ds.rows()? {
                if eval_row(predicate, &in_schema, &r)? == Value::Bool(true) {
                    rows.push(r);
                }
            }
            DataSet::from_rows(out_schema, &rows).map_err(Into::into)
        }
        Plan::Project { input, exprs } => {
            let in_ds = eval_plan(input, src, state)?;
            let in_schema = in_ds.schema().clone();
            let mut rows = Vec::new();
            for r in in_ds.rows()? {
                let mut vals = Vec::with_capacity(exprs.len());
                for (i, (_, e)) in exprs.iter().enumerate() {
                    let v = eval_row(e, &in_schema, &r)?;
                    vals.push(widen(v, out_schema.field_at(i).dtype));
                }
                rows.push(Row(vals));
            }
            DataSet::from_rows(out_schema, &rows).map_err(Into::into)
        }
        Plan::Join {
            left,
            right,
            on,
            join_type,
            ..
        } => {
            let l = eval_plan(left, src, state)?;
            let r = eval_plan(right, src, state)?;
            join_rows(&l, &r, on, *join_type, out_schema)
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let in_ds = eval_plan(input, src, state)?;
            aggregate_rows(&in_ds, group_by, aggs, out_schema)
        }
        Plan::Union { left, right } => {
            let mut l = eval_plan(left, src, state)?.rows()?;
            let r = eval_plan(right, src, state)?.rows()?;
            l.extend(r);
            DataSet::from_rows(out_schema, &l).map_err(Into::into)
        }
        Plan::Distinct { input } => {
            let in_ds = eval_plan(input, src, state)?;
            let mut seen: Vec<Row> = Vec::new();
            let mut set = std::collections::HashSet::new();
            for r in in_ds.rows()? {
                if set.insert(r.clone()) {
                    seen.push(r);
                }
            }
            DataSet::from_rows(out_schema, &seen).map_err(Into::into)
        }
        Plan::Sort { input, keys } => {
            let in_ds = eval_plan(input, src, state)?;
            let schema = in_ds.schema().clone();
            let mut rows = in_ds.rows()?;
            let key_idx: Vec<(usize, bool)> = keys
                .iter()
                .map(|(k, d)| Ok((schema.index_of(k)?, *d)))
                .collect::<std::result::Result<_, bda_storage::StorageError>>()?;
            rows.sort_by(|a, b| {
                for &(i, desc) in &key_idx {
                    let ord = a.get(i).total_cmp(b.get(i));
                    let ord = if desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            DataSet::from_rows(out_schema, &rows).map_err(Into::into)
        }
        Plan::Limit { input, skip, fetch } => {
            let rows = eval_plan(input, src, state)?.rows()?;
            let it = rows.into_iter().skip(*skip);
            let rows: Vec<Row> = match fetch {
                Some(n) => it.take(*n).collect(),
                None => it.collect(),
            };
            DataSet::from_rows(out_schema, &rows).map_err(Into::into)
        }
        Plan::Rename { input, .. } | Plan::TagDims { input, .. } | Plan::UntagDims { input } => {
            let in_ds = eval_plan(input, src, state)?;
            let rows = in_ds.rows()?;
            if let Plan::TagDims { .. } = plan {
                validate_dim_rows(&out_schema, &rows)?;
            }
            DataSet::from_rows(out_schema, &rows).map_err(Into::into)
        }
        Plan::Dice { input, ranges } => {
            let in_ds = eval_plan(input, src, state)?;
            let schema = in_ds.schema().clone();
            let idx: Vec<(usize, i64, i64)> = ranges
                .iter()
                .map(|(d, lo, hi)| Ok((schema.index_of(d)?, *lo, *hi)))
                .collect::<std::result::Result<_, bda_storage::StorageError>>()?;
            let mut rows = Vec::new();
            for r in in_ds.rows()? {
                let keep = idx.iter().all(|&(i, lo, hi)| match r.get(i) {
                    Value::Int(c) => *c >= lo && *c < hi,
                    _ => false,
                });
                if keep {
                    rows.push(r);
                }
            }
            DataSet::from_rows(out_schema, &rows).map_err(Into::into)
        }
        Plan::SliceAt { input, dim, index } => {
            let in_ds = eval_plan(input, src, state)?;
            let schema = in_ds.schema().clone();
            let di = schema.index_of(dim)?;
            let keep: Vec<usize> = (0..schema.len()).filter(|&i| i != di).collect();
            let mut rows = Vec::new();
            for r in in_ds.rows()? {
                if r.get(di) == &Value::Int(*index) {
                    rows.push(r.project(&keep));
                }
            }
            DataSet::from_rows(out_schema, &rows).map_err(Into::into)
        }
        Plan::Permute { input, .. } => {
            let in_ds = eval_plan(input, src, state)?;
            let schema = in_ds.schema().clone();
            let order: Vec<usize> = out_schema
                .fields()
                .iter()
                .map(|f| schema.index_of(&f.name))
                .collect::<std::result::Result<_, bda_storage::StorageError>>()?;
            let rows: Vec<Row> = in_ds.rows()?.iter().map(|r| r.project(&order)).collect();
            DataSet::from_rows(out_schema, &rows).map_err(Into::into)
        }
        Plan::Window { input, radii, aggs } => {
            let in_ds = eval_plan(input, src, state)?;
            window_rows(&in_ds, radii, aggs, out_schema)
        }
        Plan::Fill { input, fill } => {
            let in_ds = eval_plan(input, src, state)?;
            fill_rows(&in_ds, fill, out_schema)
        }
        Plan::MatMul { left, right } => {
            let l = eval_plan(left, src, state)?;
            let r = eval_plan(right, src, state)?;
            matmul_rows(&l, &r, out_schema)
        }
        Plan::ElemWise { op, left, right } => {
            let l = eval_plan(left, src, state)?;
            let r = eval_plan(right, src, state)?;
            elemwise_rows(*op, &l, &r, out_schema)
        }
        Plan::Graph(g) => {
            let edges = eval_plan(g.edges(), src, state)?;
            graph_op(g, &edges, out_schema)
        }
        Plan::Iterate {
            init,
            body,
            max_iters,
            epsilon,
        } => {
            // Bounded iteration: convergence is an early exit; reaching the
            // bound returns the last state (it does not error), so an
            // engine may always run exactly `max_iters` steps if it has no
            // cheap convergence test.
            let mut cur = eval_plan(init, src, state)?;
            for _ in 0..*max_iters {
                let next = eval_plan(body, src, Some(&cur))?;
                let done = converged(&cur, &next, *epsilon)?;
                cur = next;
                if done {
                    break;
                }
            }
            Ok(cur)
        }
    }
}

/// Widen ints to floats when the output column is float (projection may
/// infer f64 for a mixed int/float expression).
fn widen(v: Value, to: DataType) -> Value {
    match (&v, to) {
        (Value::Int(x), DataType::Float64) => Value::Float(*x as f64),
        _ => v,
    }
}

fn validate_dim_rows(schema: &Schema, rows: &[Row]) -> Result<()> {
    for (i, f) in schema.fields().iter().enumerate() {
        if !f.is_dimension() {
            continue;
        }
        for r in rows {
            match r.get(i) {
                Value::Int(c) => {
                    if let Some((lo, hi)) = f.extent() {
                        if *c < lo || *c >= hi {
                            return Err(CoreError::Plan(format!(
                                "coordinate {c} of dimension `{}` outside extent [{lo}, {hi})",
                                f.name
                            )));
                        }
                    }
                }
                Value::Null => {
                    return Err(CoreError::Plan(format!(
                        "null coordinate in dimension `{}`",
                        f.name
                    )))
                }
                other => {
                    return Err(CoreError::Plan(format!(
                        "non-integer coordinate {other} in dimension `{}`",
                        f.name
                    )))
                }
            }
        }
    }
    Ok(())
}

fn join_rows(
    l: &DataSet,
    r: &DataSet,
    on: &[(String, String)],
    join_type: JoinType,
    out_schema: Schema,
) -> Result<DataSet> {
    let ls = l.schema().clone();
    let rs = r.schema().clone();
    let l_idx: Vec<usize> = on
        .iter()
        .map(|(a, _)| ls.index_of(a))
        .collect::<std::result::Result<_, bda_storage::StorageError>>()?;
    let r_idx: Vec<usize> = on
        .iter()
        .map(|(_, b)| rs.index_of(b))
        .collect::<std::result::Result<_, bda_storage::StorageError>>()?;
    let l_rows = l.rows()?;
    let r_rows = r.rows()?;
    // Null-rejecting key equality: any null key fails to match.
    let keys_match = |a: &Row, b: &Row| -> bool {
        l_idx.iter().zip(&r_idx).all(|(&li, &ri)| {
            let (x, y) = (a.get(li), b.get(ri));
            !x.is_null() && !y.is_null() && x.grouping_eq(y)
        })
    };
    let mut out = Vec::new();
    match join_type {
        JoinType::Inner => {
            for a in &l_rows {
                for b in &r_rows {
                    if keys_match(a, b) {
                        out.push(a.concat(b));
                    }
                }
            }
        }
        JoinType::Left => {
            for a in &l_rows {
                let mut matched = false;
                for b in &r_rows {
                    if keys_match(a, b) {
                        out.push(a.concat(b));
                        matched = true;
                    }
                }
                if !matched {
                    out.push(a.concat(&Row(vec![Value::Null; rs.len()])));
                }
            }
        }
        JoinType::Semi => {
            for a in &l_rows {
                if r_rows.iter().any(|b| keys_match(a, b)) {
                    out.push(a.clone());
                }
            }
        }
        JoinType::Anti => {
            for a in &l_rows {
                if !r_rows.iter().any(|b| keys_match(a, b)) {
                    out.push(a.clone());
                }
            }
        }
    }
    DataSet::from_rows(out_schema, &out).map_err(Into::into)
}

fn aggregate_rows(
    input: &DataSet,
    group_by: &[String],
    aggs: &[AggExpr],
    out_schema: Schema,
) -> Result<DataSet> {
    let schema = input.schema().clone();
    let key_idx: Vec<usize> = group_by
        .iter()
        .map(|g| schema.index_of(g))
        .collect::<std::result::Result<_, bda_storage::StorageError>>()?;
    let arg_types: Vec<Option<DataType>> = aggs
        .iter()
        .map(|a| match &a.arg {
            Some(e) => crate::eval::infer_expr(e, &schema),
            None => Ok(None),
        })
        .collect::<Result<_>>()?;

    let mut groups: HashMap<Row, Vec<Accumulator>> = HashMap::new();
    let mut order: Vec<Row> = Vec::new();
    for r in input.rows()? {
        let key = r.project(&key_idx);
        let accs = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            aggs.iter()
                .zip(&arg_types)
                .map(|(a, t)| Accumulator::new(a.func, *t))
                .collect()
        });
        for (acc, a) in accs.iter_mut().zip(aggs) {
            let v = match &a.arg {
                Some(e) => eval_row(e, &schema, &r)?,
                None => Value::Bool(true), // count(*) marker
            };
            acc.update(&v)?;
        }
    }
    // Global aggregate over empty input still yields one row.
    if group_by.is_empty() && groups.is_empty() {
        let accs: Vec<Accumulator> = aggs
            .iter()
            .zip(&arg_types)
            .map(|(a, t)| Accumulator::new(a.func, *t))
            .collect();
        groups.insert(Row::new(), accs);
        order.push(Row::new());
    }
    let mut out = Vec::with_capacity(groups.len());
    for key in order {
        let accs = &groups[&key];
        let mut vals = key.0.clone();
        for (i, acc) in accs.iter().enumerate() {
            let v = acc.finish();
            vals.push(widen(v, out_schema.field_at(key_idx.len() + i).dtype));
        }
        out.push(Row(vals));
    }
    DataSet::from_rows(out_schema, &out).map_err(Into::into)
}

fn window_rows(
    input: &DataSet,
    radii: &[(String, i64)],
    aggs: &[AggExpr],
    out_schema: Schema,
) -> Result<DataSet> {
    let schema = input.schema().clone();
    let dim_idx: Vec<usize> = schema
        .fields()
        .iter()
        .enumerate()
        .filter(|(_, f)| f.is_dimension())
        .map(|(i, _)| i)
        .collect();
    // radius per dimension, in schema dimension order.
    let radius: Vec<i64> = dim_idx
        .iter()
        .map(|&i| {
            let name = &schema.field_at(i).name;
            radii
                .iter()
                .find(|(d, _)| d == name)
                .map(|(_, r)| *r)
                .expect("validated by infer")
        })
        .collect();
    let rows = input.rows()?;
    let coords: Vec<Vec<i64>> = rows
        .iter()
        .map(|r| {
            dim_idx
                .iter()
                .map(|&i| match r.get(i) {
                    Value::Int(c) => Ok(*c),
                    other => Err(CoreError::Plan(format!(
                        "non-integer coordinate {other} in window input"
                    ))),
                })
                .collect()
        })
        .collect::<Result<_>>()?;
    let arg_types: Vec<Option<DataType>> = aggs
        .iter()
        .map(|a| match &a.arg {
            Some(e) => crate::eval::infer_expr(e, &schema),
            None => Ok(None),
        })
        .collect::<Result<_>>()?;

    let mut out = Vec::with_capacity(rows.len());
    for (i, r) in rows.iter().enumerate() {
        let mut accs: Vec<Accumulator> = aggs
            .iter()
            .zip(&arg_types)
            .map(|(a, t)| Accumulator::new(a.func, *t))
            .collect();
        for (j, other) in rows.iter().enumerate() {
            let inside = coords[i]
                .iter()
                .zip(&coords[j])
                .zip(&radius)
                .all(|((&a, &b), &rad)| (a - b).abs() <= rad);
            if !inside {
                continue;
            }
            for (acc, a) in accs.iter_mut().zip(aggs) {
                let v = match &a.arg {
                    Some(e) => eval_row(e, &schema, other)?,
                    None => Value::Bool(true),
                };
                acc.update(&v)?;
            }
        }
        let mut vals: Vec<Value> = dim_idx.iter().map(|&d| r.get(d).clone()).collect();
        for (k, acc) in accs.iter().enumerate() {
            vals.push(widen(
                acc.finish(),
                out_schema.field_at(dim_idx.len() + k).dtype,
            ));
        }
        out.push(Row(vals));
    }
    DataSet::from_rows(out_schema, &out).map_err(Into::into)
}

fn fill_rows(input: &DataSet, fill: &Value, out_schema: Schema) -> Result<DataSet> {
    let schema = input.schema().clone();
    let bounds = input.bounding_box()?;
    let dim_idx: Vec<usize> = schema
        .fields()
        .iter()
        .enumerate()
        .filter(|(_, f)| f.is_dimension())
        .map(|(i, _)| i)
        .collect();
    let val_idx: Vec<usize> = schema
        .fields()
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.is_dimension())
        .map(|(i, _)| i)
        .collect();
    // Last row per coordinate wins (array semantics; matches DenseChunk).
    let mut cells: HashMap<Vec<i64>, Row> = HashMap::new();
    for r in input.rows()? {
        let coords: Vec<i64> = dim_idx
            .iter()
            .map(|&i| match r.get(i) {
                Value::Int(c) => Ok(*c),
                other => Err(CoreError::Plan(format!(
                    "non-integer coordinate {other} in fill input"
                ))),
            })
            .collect::<Result<_>>()?;
        if !bounds.contains(&coords) {
            return Err(CoreError::Plan(format!(
                "fill: coordinates {coords:?} outside declared extents"
            )));
        }
        cells.insert(coords, r);
    }
    let mut out = Vec::with_capacity(bounds.volume());
    for coords in bounds.iter_coords() {
        match cells.get(&coords) {
            Some(r) => {
                // Re-emit in schema order (dims then values as stored).
                out.push(r.clone());
            }
            None => {
                let mut vals = vec![Value::Null; schema.len()];
                for (d, &i) in dim_idx.iter().enumerate() {
                    vals[i] = Value::Int(coords[d]);
                }
                for &i in &val_idx {
                    vals[i] = fill.cast(schema.field_at(i).dtype);
                }
                out.push(Row(vals));
            }
        }
    }
    DataSet::from_rows(out_schema, &out).map_err(Into::into)
}

fn matmul_rows(l: &DataSet, r: &DataSet, out_schema: Schema) -> Result<DataSet> {
    // Inputs validated as 2-D single-numeric-value by infer.
    let cell = |ds: &DataSet| -> Result<Vec<(i64, i64, f64)>> {
        let schema = ds.schema().clone();
        let dims: Vec<usize> = schema
            .fields()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_dimension())
            .map(|(i, _)| i)
            .collect();
        let val = schema
            .fields()
            .iter()
            .position(|f| !f.is_dimension())
            .expect("validated");
        let mut out = Vec::new();
        for row in ds.rows()? {
            let (a, b) = (row.get(dims[0]), row.get(dims[1]));
            let v = row.get(val);
            if v.is_null() {
                continue; // null cells contribute nothing
            }
            out.push((
                a.as_int().map_err(CoreError::from)?,
                b.as_int().map_err(CoreError::from)?,
                v.as_float().map_err(CoreError::from)?,
            ));
        }
        Ok(out)
    };
    let lc = cell(l)?;
    let rc = cell(r)?;
    let mut by_k: HashMap<i64, Vec<(i64, f64)>> = HashMap::new();
    for &(k, j, v) in &rc {
        by_k.entry(k).or_default().push((j, v));
    }
    let mut acc: HashMap<(i64, i64), f64> = HashMap::new();
    for &(i, k, lv) in &lc {
        if let Some(cols) = by_k.get(&k) {
            for &(j, rv) in cols {
                *acc.entry((i, j)).or_insert(0.0) += lv * rv;
            }
        }
    }
    let mut keys: Vec<(i64, i64)> = acc.keys().copied().collect();
    keys.sort_unstable();
    let rows: Vec<Row> = keys
        .into_iter()
        .map(|(i, j)| {
            Row(vec![
                Value::Int(i),
                Value::Int(j),
                Value::Float(acc[&(i, j)]),
            ])
        })
        .collect();
    DataSet::from_rows(out_schema, &rows).map_err(Into::into)
}

fn elemwise_rows(
    op: crate::expr::BinOp,
    l: &DataSet,
    r: &DataSet,
    out_schema: Schema,
) -> Result<DataSet> {
    let index = |ds: &DataSet| -> Result<HashMap<Vec<i64>, Value>> {
        let schema = ds.schema().clone();
        let dims: Vec<usize> = schema
            .fields()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_dimension())
            .map(|(i, _)| i)
            .collect();
        let val = schema
            .fields()
            .iter()
            .position(|f| !f.is_dimension())
            .expect("validated");
        let mut out = HashMap::new();
        for row in ds.rows()? {
            let coords: Vec<i64> = dims
                .iter()
                .map(|&i| row.get(i).as_int().map_err(CoreError::from))
                .collect::<Result<_>>()?;
            out.insert(coords, row.get(val).clone());
        }
        Ok(out)
    };
    let li = index(l)?;
    let ri = index(r)?;
    let out_val_t = out_schema.values()[0].dtype;
    let mut keys: Vec<&Vec<i64>> = li.keys().filter(|k| ri.contains_key(*k)).collect();
    keys.sort_unstable();
    let mut rows = Vec::with_capacity(keys.len());
    for k in keys {
        let v = crate::eval::binary_scalar(op, &li[k], &ri[k])?;
        let mut vals: Vec<Value> = k.iter().map(|&c| Value::Int(c)).collect();
        vals.push(widen(v, out_val_t));
        rows.push(Row(vals));
    }
    DataSet::from_rows(out_schema, &rows).map_err(Into::into)
}

// ---------------------------------------------------------------------------
// Graph semantics
// ---------------------------------------------------------------------------

/// Distinct edges plus the sorted vertex set of a graph input.
pub type EdgeList = (Vec<(i64, i64)>, Vec<i64>);

/// Extract the distinct edge list and vertex set from an edges dataset.
pub fn edge_list(edges: &DataSet) -> Result<EdgeList> {
    let schema = edges.schema().clone();
    let si = schema.index_of("src")?;
    let di = schema.index_of("dst")?;
    let mut es = Vec::new();
    for r in edges.rows()? {
        let (s, d) = (r.get(si), r.get(di));
        if s.is_null() || d.is_null() {
            continue; // null endpoints are not edges
        }
        es.push((
            s.as_int().map_err(CoreError::from)?,
            d.as_int().map_err(CoreError::from)?,
        ));
    }
    es.sort_unstable();
    es.dedup();
    let mut vs: Vec<i64> = es.iter().flat_map(|&(s, d)| [s, d]).collect();
    vs.sort_unstable();
    vs.dedup();
    Ok((es, vs))
}

fn graph_op(g: &GraphOp, edges: &DataSet, out_schema: Schema) -> Result<DataSet> {
    let (es, vs) = edge_list(edges)?;
    let rows: Vec<Row> = match g {
        GraphOp::PageRank {
            damping,
            max_iters,
            epsilon,
            ..
        } => {
            let ranks = pagerank_semantics(&es, &vs, *damping, *max_iters, *epsilon);
            vs.iter()
                .zip(ranks)
                .map(|(&v, r)| Row(vec![Value::Int(v), Value::Float(r)]))
                .collect()
        }
        GraphOp::ConnectedComponents { max_iters, .. } => {
            let comp = components_semantics(&es, &vs, *max_iters);
            vs.iter()
                .zip(comp)
                .map(|(&v, c)| Row(vec![Value::Int(v), Value::Int(c)]))
                .collect()
        }
        GraphOp::TriangleCount { .. } => {
            let n = triangles_semantics(&es);
            vec![Row(vec![Value::Int(n)])]
        }
        GraphOp::Degrees { .. } => {
            let mut deg: HashMap<i64, i64> = vs.iter().map(|&v| (v, 0)).collect();
            for &(s, _) in &es {
                *deg.get_mut(&s).expect("src in vertex set") += 1;
            }
            vs.iter()
                .map(|&v| Row(vec![Value::Int(v), Value::Int(deg[&v])]))
                .collect()
        }
        GraphOp::BfsLevels { source, .. } => bfs_semantics(&es, &vs, *source)
            .into_iter()
            .map(|(v, l)| Row(vec![Value::Int(v), Value::Int(l)]))
            .collect(),
    };
    DataSet::from_rows(out_schema, &rows).map_err(Into::into)
}

/// Defining semantics of PageRank on the **distinct** edge set:
/// `rank'(v) = (1-d)/N + d * Σ_{(u,v) ∈ E} rank(u) / outdeg(u)`,
/// iterated from the uniform vector until the L1 change drops below
/// `epsilon` or `max_iters` is reached (whichever first; the last iterate
/// is returned either way). Dangling mass is not redistributed — workloads
/// should avoid dangling vertices if a probability vector is desired.
pub fn pagerank_semantics(
    es: &[(i64, i64)],
    vs: &[i64],
    damping: f64,
    max_iters: usize,
    epsilon: f64,
) -> Vec<f64> {
    let n = vs.len();
    if n == 0 {
        return Vec::new();
    }
    let vidx: HashMap<i64, usize> = vs.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut outdeg = vec![0usize; n];
    for &(s, _) in es {
        outdeg[vidx[&s]] += 1;
    }
    let mut rank = vec![1.0 / n as f64; n];
    for _ in 0..max_iters {
        let mut next = vec![(1.0 - damping) / n as f64; n];
        for &(s, d) in es {
            let si = vidx[&s];
            next[vidx[&d]] += damping * rank[si] / outdeg[si] as f64;
        }
        let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        rank = next;
        if delta < epsilon {
            break;
        }
    }
    rank
}

/// Defining semantics of connected components (undirected view): Jacobi
/// label propagation to the minimum vertex id — bounded iteration, early
/// exit on fixpoint, last state returned at the bound.
pub fn components_semantics(es: &[(i64, i64)], vs: &[i64], max_iters: usize) -> Vec<i64> {
    let vidx: HashMap<i64, usize> = vs.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut label: Vec<i64> = vs.to_vec();
    for _ in 0..max_iters.max(1) {
        let mut changed = false;
        let mut next = label.clone();
        for &(s, d) in es {
            let (si, di) = (vidx[&s], vidx[&d]);
            if label[si] < next[di] {
                next[di] = label[si];
                changed = true;
            }
            if label[di] < next[si] {
                next[si] = label[di];
                changed = true;
            }
        }
        label = next;
        if !changed {
            break;
        }
    }
    label
}

/// Defining semantics of BFS levels: shortest hop count from `source` on
/// the distinct edge set; only reachable vertices appear (the source is
/// reachable at level 0 iff it occurs in the graph).
pub fn bfs_semantics(es: &[(i64, i64)], vs: &[i64], source: i64) -> Vec<(i64, i64)> {
    if !vs.contains(&source) {
        return Vec::new();
    }
    let mut adj: HashMap<i64, Vec<i64>> = HashMap::new();
    for &(s, d) in es {
        adj.entry(s).or_default().push(d);
    }
    let mut level: HashMap<i64, i64> = HashMap::new();
    level.insert(source, 0);
    let mut frontier = vec![source];
    let mut depth = 0i64;
    while !frontier.is_empty() {
        depth += 1;
        let mut next = Vec::new();
        for u in &frontier {
            if let Some(ns) = adj.get(u) {
                for &v in ns {
                    level.entry(v).or_insert_with(|| {
                        next.push(v);
                        depth
                    });
                }
            }
        }
        frontier = next;
    }
    let mut out: Vec<(i64, i64)> = level.into_iter().collect();
    out.sort_unstable();
    out
}

/// Defining semantics of the directed triangle count on the distinct edge
/// set: the number of vertex triples forming a 3-cycle
/// `a → b → c → a` (each cycle counted once).
pub fn triangles_semantics(es: &[(i64, i64)]) -> i64 {
    let set: std::collections::HashSet<(i64, i64)> = es.iter().copied().collect();
    let mut by_src: HashMap<i64, Vec<i64>> = HashMap::new();
    for &(s, d) in es {
        by_src.entry(s).or_default().push(d);
    }
    let mut count = 0i64;
    for &(a, b) in es {
        if let Some(cs) = by_src.get(&b) {
            for &c in cs {
                if set.contains(&(c, a)) {
                    count += 1;
                }
            }
        }
    }
    // Each 3-cycle is found three times (once per starting edge).
    count / 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggExpr, AggFunc};
    use crate::expr::{col, lit};
    use crate::infer::edge_schema;
    use bda_storage::{Column, Field};

    fn src_with(name: &str, ds: DataSet) -> HashMap<String, DataSet> {
        let mut m = HashMap::new();
        m.insert(name.to_string(), ds);
        m
    }

    fn sales() -> DataSet {
        DataSet::from_columns(vec![
            ("region", Column::from(vec!["w", "e", "w", "e", "w"])),
            ("amount", Column::from(vec![10i64, 20, 30, 40, 50])),
        ])
        .unwrap()
    }

    fn scan_sales() -> Plan {
        Plan::scan("sales", sales().schema().clone())
    }

    #[test]
    fn select_project_pipeline() {
        let plan = scan_sales()
            .select(col("amount").gt(lit(15i64)))
            .project(vec![
                ("r", col("region")),
                ("double", col("amount").mul(lit(2i64))),
            ]);
        let out = evaluate(&plan, &src_with("sales", sales())).unwrap();
        assert_eq!(out.num_rows(), 4);
        let rows = out.sorted_rows().unwrap();
        assert_eq!(rows[0], Row(vec![Value::from("e"), Value::Int(40)]));
    }

    #[test]
    fn aggregate_with_groups() {
        let plan = scan_sales().aggregate(
            vec!["region"],
            vec![
                AggExpr::new(AggFunc::Sum, col("amount"), "total"),
                AggExpr::count_star("n"),
            ],
        );
        let out = evaluate(&plan, &src_with("sales", sales())).unwrap();
        let rows = out.sorted_rows().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            Row(vec![Value::from("e"), Value::Int(60), Value::Int(2)])
        );
        assert_eq!(
            rows[1],
            Row(vec![Value::from("w"), Value::Int(90), Value::Int(3)])
        );
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let plan = scan_sales()
            .select(lit(false))
            .aggregate(vec![], vec![AggExpr::count_star("n")]);
        let out = evaluate(&plan, &src_with("sales", sales())).unwrap();
        assert_eq!(out.rows().unwrap(), vec![Row(vec![Value::Int(0)])]);
    }

    #[test]
    fn joins_all_types() {
        let left = DataSet::from_columns(vec![("k", Column::from(vec![1i64, 2, 3]))]).unwrap();
        let right = DataSet::from_columns(vec![
            ("k", Column::from(vec![2i64, 3, 3])),
            ("v", Column::from(vec!["a", "b", "c"])),
        ])
        .unwrap();
        let mut src = src_with("l", left.clone());
        src.insert("r".into(), right.clone());
        let scan_l = Plan::scan("l", left.schema().clone());
        let scan_r = Plan::scan("r", right.schema().clone());

        let inner = scan_l.clone().join(scan_r.clone(), vec![("k", "k")]);
        assert_eq!(evaluate(&inner, &src).unwrap().num_rows(), 3);

        let left_j = scan_l
            .clone()
            .join_as(scan_r.clone(), vec![("k", "k")], JoinType::Left);
        let out = evaluate(&left_j, &src).unwrap();
        assert_eq!(out.num_rows(), 4);
        assert!(out
            .rows()
            .unwrap()
            .iter()
            .any(|r| r.get(0) == &Value::Int(1) && r.get(1).is_null()));

        let semi = scan_l
            .clone()
            .join_as(scan_r.clone(), vec![("k", "k")], JoinType::Semi);
        assert_eq!(evaluate(&semi, &src).unwrap().num_rows(), 2);

        let anti = scan_l.join_as(scan_r, vec![("k", "k")], JoinType::Anti);
        let out = evaluate(&anti, &src).unwrap();
        assert_eq!(out.rows().unwrap(), vec![Row(vec![Value::Int(1)])]);
    }

    #[test]
    fn null_keys_never_match() {
        let l = DataSet::from_rows(
            Schema::new(vec![Field::value("k", DataType::Int64)]).unwrap(),
            &[Row(vec![Value::Null]), Row(vec![Value::Int(1)])],
        )
        .unwrap();
        let mut src = HashMap::new();
        src.insert("l".to_string(), l.clone());
        let p = Plan::scan("l", l.schema().clone())
            .join(Plan::scan("l", l.schema().clone()), vec![("k", "k")]);
        assert_eq!(evaluate(&p, &src).unwrap().num_rows(), 1);
    }

    #[test]
    fn distinct_sort_limit() {
        let plan = scan_sales()
            .project(vec![("region", col("region"))])
            .distinct()
            .sort_by(vec!["region"])
            .limit(1);
        let out = evaluate(&plan, &src_with("sales", sales())).unwrap();
        assert_eq!(out.rows().unwrap(), vec![Row(vec![Value::from("e")])]);
    }

    #[test]
    fn union_and_rename() {
        let plan = scan_sales()
            .union(scan_sales())
            .rename(vec![("amount", "amt")]);
        let out = evaluate(&plan, &src_with("sales", sales())).unwrap();
        assert_eq!(out.num_rows(), 10);
        assert!(out.schema().field("amt").is_ok());
    }

    #[test]
    fn range_and_values() {
        let p = Plan::Range {
            name: "i".into(),
            lo: -1,
            hi: 2,
        };
        let out = evaluate(&p, &EmptySource).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.schema().ndims(), 1);
    }

    fn matrix_src() -> (HashMap<String, DataSet>, Plan, Plan) {
        let a = bda_storage::dataset::matrix_dataset(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b =
            bda_storage::dataset::matrix_dataset(3, 2, vec![7., 8., 9., 10., 11., 12.]).unwrap();
        // Rename b's dims to avoid join ambiguity at the schema level:
        // matmul itself keys on dimension order, not names.
        let mut src = HashMap::new();
        src.insert("a".to_string(), a.clone());
        src.insert("b".to_string(), b.clone());
        (
            src,
            Plan::scan("a", a.schema().clone()),
            Plan::scan("b", b.schema().clone()).rename(vec![("row", "k"), ("col", "j")]),
        )
    }

    #[test]
    fn matmul_reference() {
        let (src, a, b) = matrix_src();
        let p = a.matmul(b);
        let out = evaluate(&p, &src).unwrap();
        // [[1,2,3],[4,5,6]] * [[7,8],[9,10],[11,12]] = [[58,64],[139,154]]
        let (r, c, data) = bda_storage::dataset::dataset_matrix(&out).unwrap();
        assert_eq!((r, c), (2, 2));
        assert_eq!(data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn elemwise_reference() {
        let (src, a, _) = matrix_src();
        let p = a.clone().elemwise(crate::expr::BinOp::Add, a);
        let out = evaluate(&p, &src).unwrap();
        let (_, _, data) = bda_storage::dataset::dataset_matrix(&out).unwrap();
        assert_eq!(data, vec![2., 4., 6., 8., 10., 12.]);
    }

    #[test]
    fn dice_slice_permute() {
        let (src, a, _) = matrix_src();
        let diced = Plan::Dice {
            input: a.clone().boxed(),
            ranges: vec![("col".into(), 1, 3)],
        };
        assert_eq!(evaluate(&diced, &src).unwrap().num_rows(), 4);
        let sliced = Plan::SliceAt {
            input: a.clone().boxed(),
            dim: "row".into(),
            index: 1,
        };
        let out = evaluate(&sliced, &src).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.schema().ndims(), 1);
        let permuted = Plan::Permute {
            input: a.boxed(),
            order: vec!["col".into(), "row".into()],
        };
        let out = evaluate(&permuted, &src).unwrap();
        assert_eq!(out.schema().names(), vec!["col", "row", "v"]);
        assert_eq!(out.num_rows(), 6);
    }

    #[test]
    fn window_moving_average() {
        // 1-D array [0..4) with values 1,2,3,4; radius 1 average.
        let schema = Schema::new(vec![
            Field::dimension_bounded("i", 0, 4),
            Field::value("v", DataType::Float64),
        ])
        .unwrap();
        let ds = DataSet::from_rows(
            schema.clone(),
            &(0..4)
                .map(|i| Row(vec![Value::Int(i), Value::Float((i + 1) as f64)]))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let p = Plan::Window {
            input: Plan::scan("x", schema).boxed(),
            radii: vec![("i".into(), 1)],
            aggs: vec![AggExpr::new(AggFunc::Avg, col("v"), "m")],
        };
        let out = evaluate(&p, &src_with("x", ds)).unwrap();
        let rows = out.sorted_rows().unwrap();
        assert_eq!(rows[0], Row(vec![Value::Int(0), Value::Float(1.5)]));
        assert_eq!(rows[1], Row(vec![Value::Int(1), Value::Float(2.0)]));
        assert_eq!(rows[3], Row(vec![Value::Int(3), Value::Float(3.5)]));
    }

    #[test]
    fn fill_densifies() {
        let schema = Schema::new(vec![
            Field::dimension_bounded("i", 0, 3),
            Field::value("v", DataType::Int64),
        ])
        .unwrap();
        let ds =
            DataSet::from_rows(schema.clone(), &[Row(vec![Value::Int(1), Value::Int(9)])]).unwrap();
        let p = Plan::Fill {
            input: Plan::scan("x", schema).boxed(),
            fill: Value::Int(0),
        };
        let out = evaluate(&p, &src_with("x", ds)).unwrap();
        let rows = out.sorted_rows().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], Row(vec![Value::Int(0), Value::Int(0)]));
        assert_eq!(rows[1], Row(vec![Value::Int(1), Value::Int(9)]));
    }

    #[test]
    fn tag_dims_validates_extents() {
        let ds = DataSet::from_columns(vec![("i", Column::from(vec![0i64, 5]))]).unwrap();
        let p = Plan::TagDims {
            input: Plan::scan("t", ds.schema().clone()).boxed(),
            dims: vec![("i".into(), Some((0, 3)))],
        };
        assert!(evaluate(&p, &src_with("t", ds)).is_err());
    }

    fn tiny_graph() -> DataSet {
        // 0 -> 1, 1 -> 2, 2 -> 0 (a 3-cycle) plus 3 -> 0.
        DataSet::from_rows(
            edge_schema(),
            &[
                Row(vec![Value::Int(0), Value::Int(1)]),
                Row(vec![Value::Int(1), Value::Int(2)]),
                Row(vec![Value::Int(2), Value::Int(0)]),
                Row(vec![Value::Int(3), Value::Int(0)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn pagerank_sums_to_one_without_dangling() {
        let edges = tiny_graph();
        let p = Plan::Graph(GraphOp::PageRank {
            edges: Plan::scan("e", edge_schema()).boxed(),
            damping: 0.85,
            max_iters: 100,
            epsilon: 1e-12,
        });
        let out = evaluate(&p, &src_with("e", edges)).unwrap();
        let total: f64 = out
            .rows()
            .unwrap()
            .iter()
            .map(|r| r.get(1).as_float().unwrap())
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "total rank {total}");
    }

    #[test]
    fn connected_components_and_triangles() {
        let edges = tiny_graph();
        let p = Plan::Graph(GraphOp::ConnectedComponents {
            edges: Plan::scan("e", edge_schema()).boxed(),
            max_iters: 100,
        });
        let out = evaluate(&p, &src_with("e", edges.clone())).unwrap();
        // All four vertices connect (3 -> 0): single component 0.
        for r in out.rows().unwrap() {
            assert_eq!(r.get(1), &Value::Int(0));
        }
        let p = Plan::Graph(GraphOp::TriangleCount {
            edges: Plan::scan("e", edge_schema()).boxed(),
        });
        let out = evaluate(&p, &src_with("e", edges.clone())).unwrap();
        assert_eq!(out.rows().unwrap(), vec![Row(vec![Value::Int(1)])]);
        let p = Plan::Graph(GraphOp::Degrees {
            edges: Plan::scan("e", edge_schema()).boxed(),
        });
        let out = evaluate(&p, &src_with("e", edges)).unwrap();
        assert_eq!(out.num_rows(), 4);
    }

    #[test]
    fn iterate_converges_and_bounds() {
        // State: single float halved each step; converges to ~0.
        let schema = Schema::new(vec![Field::value("x", DataType::Float64)]).unwrap();
        let init = Plan::Values {
            schema: schema.clone(),
            rows: vec![Row(vec![Value::Float(1.0)])],
        };
        let body = Plan::IterState {
            schema: schema.clone(),
        }
        .project(vec![("x", col("x").mul(lit(0.5)))]);
        let p = Plan::Iterate {
            init: init.clone().boxed(),
            body: body.clone().boxed(),
            max_iters: 100,
            epsilon: Some(1e-6),
        };
        let out = evaluate(&p, &EmptySource).unwrap();
        let x = out.rows().unwrap()[0].get(0).as_float().unwrap();
        assert!(x < 1e-5, "{x}");

        // Bounded: stops after exactly 3 steps and returns the last state.
        let bounded = Plan::Iterate {
            init: init.boxed(),
            body: body.boxed(),
            max_iters: 3,
            epsilon: Some(1e-9),
        };
        let out = evaluate(&bounded, &EmptySource).unwrap();
        let x = out.rows().unwrap()[0].get(0).as_float().unwrap();
        assert!((x - 0.125).abs() < 1e-12, "{x}");
    }

    #[test]
    fn scan_schema_mismatch_detected() {
        let plan = Plan::scan(
            "sales",
            Schema::new(vec![Field::value("other", DataType::Int64)]).unwrap(),
        );
        assert!(matches!(
            evaluate(&plan, &src_with("sales", sales())),
            Err(CoreError::Plan(_))
        ));
    }

    #[test]
    fn bfs_levels_reference() {
        let edges = tiny_graph();
        let p = Plan::Graph(GraphOp::BfsLevels {
            edges: Plan::scan("e", edge_schema()).boxed(),
            source: 3,
        });
        let out = evaluate(&p, &src_with("e", edges)).unwrap();
        let rows = out.sorted_rows().unwrap();
        // 3 -> 0 -> 1 -> 2 is the shortest-path tree from 3.
        assert_eq!(
            rows,
            vec![
                Row(vec![Value::Int(0), Value::Int(1)]),
                Row(vec![Value::Int(1), Value::Int(2)]),
                Row(vec![Value::Int(2), Value::Int(3)]),
                Row(vec![Value::Int(3), Value::Int(0)]),
            ]
        );
    }

    #[test]
    fn triangle_semantics_unit() {
        // Two directed triangles sharing an edge.
        let es = vec![(0, 1), (1, 2), (2, 0), (1, 3), (3, 2), (2, 1)];
        // cycles: 0→1→2→0 and 1→3→2→1.
        assert_eq!(triangles_semantics(&es), 2);
        assert_eq!(triangles_semantics(&[(0, 1), (1, 0)]), 0);
    }
}
