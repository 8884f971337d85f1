//! Native dense-array kernels: the operations this engine exists for.
//!
//! Every function takes datasets already in (or converted to) the dense
//! box layout and works directly on linear buffers — no coordinate rows,
//! no hash tables. Semantics match the reference evaluator exactly; the
//! unit tests below assert that on every kernel.

use bda_core::agg::{Accumulator, AggExpr};
use bda_core::eval::{binary_scalar, eval_chunk, infer_expr};
use bda_core::partition::bands;
use bda_core::pool::run_partitions;
use bda_core::{BinOp, CoreError};
use bda_storage::{Bitmap, Chunk, Column, DataSet, DenseChunk, DimBox, Schema, Value};

/// Result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Extract the single dense chunk of a densified dataset.
fn dense_of(ds: &DataSet) -> Result<(DenseChunk, Schema)> {
    let dense = ds.to_dense()?;
    let schema = dense.schema().clone();
    match dense.chunks() {
        [Chunk::Dense(d)] => Ok((d.clone(), schema)),
        _ => Err(CoreError::Plan("expected a single dense chunk".into())),
    }
}

/// Dice: restrict to coordinate ranges. Pure box arithmetic — cells are
/// copied from the intersected sub-box, absent chunks pruned for free.
pub fn dice_dense(
    input: &DataSet,
    ranges: &[(String, i64, i64)],
    out_schema: Schema,
) -> Result<DataSet> {
    let (chunk, in_schema) = dense_of(input)?;
    let in_bounds = chunk.bounds().clone();
    // Target box: the output schema's extents.
    let mut lo = Vec::new();
    let mut hi = Vec::new();
    for f in out_schema.dimensions() {
        let (l, h) = f.extent().ok_or_else(|| {
            CoreError::Plan(format!("dice output dimension `{}` unbounded", f.name))
        })?;
        lo.push(l);
        hi.push(h);
    }
    let _ = ranges; // ranges are already folded into out_schema by infer
    let target = DimBox::new(lo, hi)?;
    let sub = in_bounds
        .intersect(&target)
        .ok_or_else(|| CoreError::Plan("dice result is empty".into()))?;

    let vol = sub.volume();
    let mut cols: Vec<Column> = in_schema
        .values()
        .iter()
        .map(|f| Column::nulls(f.dtype, vol))
        .collect();
    let mut present = Bitmap::filled(vol, false);
    for (out_idx, coords) in sub.iter_coords().enumerate() {
        let in_idx = in_bounds.linearize(&coords);
        if !chunk.is_present(in_idx) {
            continue;
        }
        present.set(out_idx, true);
        for (c, col) in cols.iter_mut().enumerate() {
            set_dense_slot(col, out_idx, &chunk.columns()[c].get(in_idx))?;
        }
    }
    let present = if present.all_set() {
        None
    } else {
        Some(present)
    };
    let out_chunk = DenseChunk::new(sub, cols, present)?;
    Ok(DataSet::new(out_schema, vec![Chunk::Dense(out_chunk)]))
}

/// Dice over a chunked (grid) dataset with **box pruning**: tiles whose
/// boxes miss the target range are skipped without touching their cells.
/// Returns `(result, tiles_visited, tiles_total)` so callers and tests can
/// observe the pruning rate.
pub fn dice_pruned(input: &DataSet, out_schema: &Schema) -> Result<(DataSet, usize, usize)> {
    // Target box from the output schema's (already tightened) extents.
    let mut lo = Vec::new();
    let mut hi = Vec::new();
    for f in out_schema.dimensions() {
        let (l, h) = f.extent().ok_or_else(|| {
            CoreError::Plan(format!("dice output dimension `{}` unbounded", f.name))
        })?;
        lo.push(l);
        hi.push(h);
    }
    let target = DimBox::new(lo, hi)?;
    let in_schema = input.schema().clone();
    let nvals = in_schema.values().len();
    let mut out_chunks = Vec::new();
    let mut visited = 0usize;
    let mut total = 0usize;
    for chunk in input.chunks() {
        let Chunk::Dense(d) = chunk else {
            return Err(CoreError::Plan(
                "dice_pruned requires dense (grid) chunks".into(),
            ));
        };
        total += 1;
        let Some(sub) = d.bounds().intersect(&target) else {
            continue; // pruned: the tile cannot contribute
        };
        visited += 1;
        let vol = sub.volume();
        let mut cols: Vec<Column> = in_schema
            .values()
            .iter()
            .map(|f| Column::nulls(f.dtype, vol))
            .collect();
        let mut present = Bitmap::filled(vol, false);
        for (out_idx, coords) in sub.iter_coords().enumerate() {
            let in_idx = d.bounds().linearize(&coords);
            if !d.is_present(in_idx) {
                continue;
            }
            present.set(out_idx, true);
            for (col, src) in cols.iter_mut().zip(d.columns()).take(nvals) {
                set_dense_slot(col, out_idx, &src.get(in_idx))?;
            }
        }
        if present.count_ones() == 0 {
            continue; // intersected but empty tile
        }
        let present = if present.all_set() {
            None
        } else {
            Some(present)
        };
        out_chunks.push(Chunk::Dense(DenseChunk::new(sub, cols, present)?));
    }
    Ok((DataSet::new(out_schema.clone(), out_chunks), visited, total))
}

/// Slice: fix one dimension, dropping it.
pub fn slice_dense(input: &DataSet, dim: &str, index: i64, out_schema: Schema) -> Result<DataSet> {
    let (chunk, in_schema) = dense_of(input)?;
    let bounds = chunk.bounds().clone();
    let dim_pos = in_schema
        .dimensions()
        .iter()
        .position(|f| f.name == dim)
        .ok_or_else(|| CoreError::Plan(format!("slice unknown dimension `{dim}`")))?;
    if bounds.ndims() == 1 {
        // Slicing the last dimension yields a relation of at most one row.
        let mut out = bda_storage::RowsChunk::empty(&out_schema);
        if index >= bounds.lo[0] && index < bounds.hi[0] {
            if let Some(cell) = chunk.cell(&[index]) {
                out.push_row(&cell).map_err(CoreError::from)?;
            }
        }
        return Ok(DataSet::new(out_schema, vec![Chunk::Rows(out)]));
    }
    if index < bounds.lo[dim_pos] || index >= bounds.hi[dim_pos] {
        // Outside the array: empty result over the remaining box.
        let (sub, _) = drop_axis(&bounds, dim_pos);
        let cols = in_schema
            .values()
            .iter()
            .map(|f| Column::nulls(f.dtype, sub.volume()))
            .collect();
        let out_chunk =
            DenseChunk::new(sub.clone(), cols, Some(Bitmap::filled(sub.volume(), false)))?;
        return Ok(DataSet::new(out_schema, vec![Chunk::Dense(out_chunk)]));
    }
    let (sub, _) = drop_axis(&bounds, dim_pos);
    let vol = sub.volume();
    let mut cols: Vec<Column> = in_schema
        .values()
        .iter()
        .map(|f| Column::nulls(f.dtype, vol))
        .collect();
    let mut present = Bitmap::filled(vol, false);
    for (out_idx, sub_coords) in sub.iter_coords().enumerate() {
        let mut coords = sub_coords.clone();
        coords.insert(dim_pos, index);
        let in_idx = bounds.linearize(&coords);
        if !chunk.is_present(in_idx) {
            continue;
        }
        present.set(out_idx, true);
        for (c, col) in cols.iter_mut().enumerate() {
            set_dense_slot(col, out_idx, &chunk.columns()[c].get(in_idx))?;
        }
    }
    let present = if present.all_set() {
        None
    } else {
        Some(present)
    };
    let out_chunk = DenseChunk::new(sub, cols, present)?;
    Ok(DataSet::new(out_schema, vec![Chunk::Dense(out_chunk)]))
}

fn drop_axis(b: &DimBox, axis: usize) -> (DimBox, usize) {
    let mut lo = b.lo.clone();
    let mut hi = b.hi.clone();
    lo.remove(axis);
    hi.remove(axis);
    (DimBox::new(lo, hi).expect("non-empty sub-box"), axis)
}

/// Permute: reorder the axes.
pub fn permute_dense(input: &DataSet, order: &[String], out_schema: Schema) -> Result<DataSet> {
    let (chunk, in_schema) = dense_of(input)?;
    let bounds = chunk.bounds().clone();
    let dim_names: Vec<&str> = in_schema
        .dimensions()
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    let perm: Vec<usize> = order
        .iter()
        .map(|d| {
            dim_names
                .iter()
                .position(|n| n == d)
                .ok_or_else(|| CoreError::Plan(format!("permute unknown dimension `{d}`")))
        })
        .collect::<Result<_>>()?;
    let new_bounds = DimBox::new(
        perm.iter().map(|&p| bounds.lo[p]).collect(),
        perm.iter().map(|&p| bounds.hi[p]).collect(),
    )?;
    let vol = new_bounds.volume();
    let mut cols: Vec<Column> = in_schema
        .values()
        .iter()
        .map(|f| Column::nulls(f.dtype, vol))
        .collect();
    let mut present = Bitmap::filled(vol, false);
    let mut old_coords = vec![0i64; perm.len()];
    for (out_idx, new_coords) in new_bounds.iter_coords().enumerate() {
        for (axis, &p) in perm.iter().enumerate() {
            old_coords[p] = new_coords[axis];
        }
        let in_idx = bounds.linearize(&old_coords);
        if !chunk.is_present(in_idx) {
            continue;
        }
        present.set(out_idx, true);
        for (c, col) in cols.iter_mut().enumerate() {
            set_dense_slot(col, out_idx, &chunk.columns()[c].get(in_idx))?;
        }
    }
    let present = if present.all_set() {
        None
    } else {
        Some(present)
    };
    let out_chunk = DenseChunk::new(new_bounds, cols, present)?;
    Ok(DataSet::new(out_schema, vec![Chunk::Dense(out_chunk)]))
}

/// Fill: make every cell present, writing `fill` into absent cells.
pub fn fill_dense(input: &DataSet, fill: &Value, out_schema: Schema) -> Result<DataSet> {
    let (chunk, in_schema) = dense_of(input)?;
    let bounds = chunk.bounds().clone();
    let vol = bounds.volume();
    let mut cols = chunk.columns().to_vec();
    for (c, f) in in_schema.values().iter().enumerate() {
        let fill_v = fill.cast(f.dtype);
        for idx in 0..vol {
            if !chunk.is_present(idx) {
                set_dense_slot(&mut cols[c], idx, &fill_v)?;
            }
        }
    }
    let out_chunk = DenseChunk::new(bounds, cols, None)?;
    Ok(DataSet::new(out_schema, vec![Chunk::Dense(out_chunk)]))
}

/// Cell-wise binary operation between two arrays. The output covers the
/// left operand's box (as `infer` says); its cells are present where both
/// operands hold a cell, so operands over different boxes combine on
/// their overlap and disjoint boxes give an empty result.
pub fn elemwise_dense(
    op: BinOp,
    left: &DataSet,
    right: &DataSet,
    out_schema: Schema,
) -> Result<DataSet> {
    let (l, _) = dense_of(left)?;
    let (r, _) = dense_of(right)?;
    let (bounds, r_bounds) = (l.bounds(), r.bounds());
    let aligned = bounds == r_bounds;
    let vol = bounds.volume();
    let out_t = out_schema.values()[0].dtype;

    if let Some((a, b)) = f64_operands(op, &l, &r).filter(|_| aligned) {
        let out_chunk =
            DenseChunk::new(bounds.clone(), vec![Column::from(f64_op(op, a, b))], None)?;
        return Ok(DataSet::new(out_schema, vec![Chunk::Dense(out_chunk)]));
    }

    // General path: per-cell scalar semantics; output present where both
    // sides are present (inner-join semantics, matching the reference).
    let mut col = Column::nulls(out_t, vol);
    let mut present = Bitmap::filled(vol, false);
    for idx in 0..vol {
        let r_idx = if aligned {
            idx
        } else {
            let coords = bounds.delinearize(idx);
            if !r_bounds.contains(&coords) {
                continue;
            }
            r_bounds.linearize(&coords)
        };
        if !l.is_present(idx) || !r.is_present(r_idx) {
            continue;
        }
        present.set(idx, true);
        let v = binary_scalar(op, &l.columns()[0].get(idx), &r.columns()[0].get(r_idx))?;
        let v = match (&v, out_t) {
            (Value::Int(x), bda_storage::DataType::Float64) => Value::Float(*x as f64),
            _ => v,
        };
        set_dense_slot(&mut col, idx, &v)?;
    }
    let present = if present.all_set() {
        None
    } else {
        Some(present)
    };
    let out_chunk = DenseChunk::new(bounds.clone(), vec![col], present)?;
    Ok(DataSet::new(out_schema, vec![Chunk::Dense(out_chunk)]))
}

/// The operands of the f64 fast path: both sides fully present with
/// null-free `f64` values, under an arithmetic op other than `%`. `None`
/// sends the caller down the per-cell path.
fn f64_operands<'a>(
    op: BinOp,
    l: &'a DenseChunk,
    r: &'a DenseChunk,
) -> Option<(&'a [f64], &'a [f64])> {
    let (lc, rc) = (&l.columns()[0], &r.columns()[0]);
    if l.present().is_some()
        || r.present().is_some()
        || !op.is_arithmetic()
        || op == BinOp::Mod
        || lc.null_count() > 0
        || rc.null_count() > 0
    {
        return None;
    }
    Some((lc.f64_data().ok()?, rc.f64_data().ok()?))
}

/// `a ⊕ b` cell by cell, for the ops [`f64_operands`] admits.
fn f64_op(op: BinOp, a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter()
        .zip(b)
        .map(|(x, y)| match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
            _ => unreachable!("gated on arithmetic non-mod op"),
        })
        .collect()
}

/// Partition-parallel element-wise combination: band-split the flat
/// cell index space into `parts` contiguous ranges, compute each band as
/// a traced partition ([`run_partitions`]), and reassemble in band
/// order. The output is bitwise identical to [`elemwise_dense`] because
/// every cell runs the same scalar code; only the f64 fast path is
/// banded. At `parts <= 1`, off that path, or over operands with
/// different boxes, this is [`elemwise_dense`].
pub fn elemwise_dense_partitioned(
    op: BinOp,
    left: &DataSet,
    right: &DataSet,
    parts: usize,
    out_schema: Schema,
) -> Result<DataSet> {
    if parts <= 1 {
        return elemwise_dense(op, left, right, out_schema);
    }
    let (l, _) = dense_of(left)?;
    let (r, _) = dense_of(right)?;
    let Some((a, b)) = f64_operands(op, &l, &r).filter(|_| l.bounds() == r.bounds()) else {
        return elemwise_dense(op, left, right, out_schema);
    };
    let vol = l.bounds().volume();
    let tasks: Vec<_> = bands(vol, parts.clamp(1, vol.max(1)))
        .into_iter()
        .map(|(s, e)| move || f64_op(op, &a[s..e], &b[s..e]))
        .collect();
    let mut data = Vec::with_capacity(vol);
    for band in run_partitions(tasks, |band: &Vec<f64>| Some(band.len())) {
        data.extend(band);
    }
    let out_chunk = DenseChunk::new(l.bounds().clone(), vec![Column::from(data)], None)?;
    Ok(DataSet::new(out_schema, vec![Chunk::Dense(out_chunk)]))
}

/// Moving-window (stencil) aggregation over the dense box.
pub fn window_dense(
    input: &DataSet,
    radii: &[(String, i64)],
    aggs: &[AggExpr],
    out_schema: Schema,
) -> Result<DataSet> {
    let (chunk, in_schema) = dense_of(input)?;
    let bounds = chunk.bounds().clone();
    let vol = bounds.volume();
    let ndims = bounds.ndims();
    let radius: Vec<i64> = in_schema
        .dimensions()
        .iter()
        .map(|f| {
            radii
                .iter()
                .find(|(d, _)| *d == f.name)
                .map(|(_, r)| *r)
                .ok_or_else(|| CoreError::Plan(format!("window missing dim `{}`", f.name)))
        })
        .collect::<Result<_>>()?;

    // Evaluate aggregate arguments once over all present cells, aligned
    // with the rows view (which enumerates present cells in linear order).
    let rows = chunk.to_rows(&in_schema)?;
    let mut arg_cols: Vec<Option<Column>> = Vec::with_capacity(aggs.len());
    let mut arg_types = Vec::with_capacity(aggs.len());
    for a in aggs {
        match &a.arg {
            Some(e) => {
                arg_types.push(infer_expr(e, &in_schema)?);
                arg_cols.push(Some(eval_chunk(e, &in_schema, &rows)?));
            }
            None => {
                arg_types.push(None);
                arg_cols.push(None);
            }
        }
    }
    // Map linear cell index -> row position among present cells.
    let mut row_of: Vec<u32> = vec![u32::MAX; vol];
    let mut row = 0u32;
    for (idx, slot) in row_of.iter_mut().enumerate() {
        if chunk.is_present(idx) {
            *slot = row;
            row += 1;
        }
    }

    let dim_count = out_schema.ndims();
    let mut out_cols: Vec<Column> = out_schema
        .fields()
        .iter()
        .map(|f| Column::new_empty(f.dtype))
        .collect();
    let mut neighbor = vec![0i64; ndims];
    for idx in 0..vol {
        if !chunk.is_present(idx) {
            continue;
        }
        let coords = bounds.delinearize(idx);
        let mut accs: Vec<Accumulator> = aggs
            .iter()
            .zip(&arg_types)
            .map(|(a, t)| Accumulator::new(a.func, *t))
            .collect();
        // Iterate the window box clipped to the array bounds.
        let lo: Vec<i64> = (0..ndims)
            .map(|d| (coords[d] - radius[d]).max(bounds.lo[d]))
            .collect();
        let hi: Vec<i64> = (0..ndims)
            .map(|d| (coords[d] + radius[d] + 1).min(bounds.hi[d]))
            .collect();
        neighbor.copy_from_slice(&lo);
        'outer: loop {
            let n_idx = bounds.linearize(&neighbor);
            if chunk.is_present(n_idx) {
                let r = row_of[n_idx] as usize;
                for (acc, arg) in accs.iter_mut().zip(&arg_cols) {
                    let v = match arg {
                        Some(c) => c.get(r),
                        None => Value::Bool(true),
                    };
                    acc.update(&v)?;
                }
            }
            // Odometer increment over the clipped window box.
            let mut d = ndims;
            loop {
                if d == 0 {
                    break 'outer;
                }
                d -= 1;
                neighbor[d] += 1;
                if neighbor[d] < hi[d] {
                    break;
                }
                neighbor[d] = lo[d];
            }
        }
        for (c, coord) in coords.iter().enumerate() {
            out_cols[c]
                .push(&Value::Int(*coord))
                .map_err(CoreError::from)?;
        }
        for (a, acc) in accs.iter().enumerate() {
            let ci = dim_count + a;
            let v = acc.finish();
            let v = match (&v, out_schema.field_at(ci).dtype) {
                (Value::Int(x), bda_storage::DataType::Float64) => Value::Float(*x as f64),
                _ => v,
            };
            out_cols[ci].push(&v).map_err(CoreError::from)?;
        }
    }
    let out_chunk = bda_storage::RowsChunk::new(out_cols).map_err(CoreError::from)?;
    Ok(DataSet::new(out_schema, vec![Chunk::Rows(out_chunk)]))
}

/// Overwrite one slot of a pre-sized dense column.
fn set_dense_slot(col: &mut Column, idx: usize, v: &Value) -> Result<()> {
    match (col, v) {
        (Column::Int64(d, bm), Value::Int(x)) => {
            d[idx] = *x;
            if let Some(bm) = bm {
                bm.set(idx, true);
            }
        }
        (Column::Float64(d, bm), Value::Float(x)) => {
            d[idx] = *x;
            if let Some(bm) = bm {
                bm.set(idx, true);
            }
        }
        (Column::Bool(d, bm), Value::Bool(x)) => {
            d[idx] = *x;
            if let Some(bm) = bm {
                bm.set(idx, true);
            }
        }
        (Column::Utf8(d, bm), Value::Str(x)) => {
            d[idx] = x.clone();
            if let Some(bm) = bm {
                bm.set(idx, true);
            }
        }
        (col, Value::Null) => match col.validity() {
            Some(_) => {
                if let Column::Int64(_, Some(bm))
                | Column::Float64(_, Some(bm))
                | Column::Bool(_, Some(bm))
                | Column::Utf8(_, Some(bm)) = col
                {
                    bm.set(idx, false);
                }
            }
            None => {
                return Err(CoreError::Plan(
                    "cannot write null into non-nullable dense column".into(),
                ))
            }
        },
        (col, v) => {
            return Err(CoreError::Plan(format!(
                "dense slot type mismatch: column {} vs value {v}",
                col.dtype()
            )))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::infer_schema;
    use bda_core::reference::evaluate;
    use bda_core::{col, AggFunc, Plan};
    use bda_storage::dataset::matrix_dataset;
    use bda_storage::{Field, Row};
    use std::collections::HashMap;

    fn src(name: &str, ds: &DataSet) -> HashMap<String, DataSet> {
        let mut m = HashMap::new();
        m.insert(name.to_string(), ds.clone());
        m
    }

    fn m44() -> DataSet {
        matrix_dataset(4, 4, (0..16).map(|i| i as f64).collect()).unwrap()
    }

    #[test]
    fn dice_matches_reference_and_stays_dense() {
        let m = m44();
        let plan = Plan::Dice {
            input: Plan::scan("m", m.schema().clone()).boxed(),
            ranges: vec![("row".into(), 1, 3), ("col".into(), 2, 4)],
        };
        let schema = infer_schema(&plan).unwrap();
        let ours = dice_dense(&m, &[("row".into(), 1, 3), ("col".into(), 2, 4)], schema).unwrap();
        let oracle = evaluate(&plan, &src("m", &m)).unwrap();
        assert!(ours.same_bag(&oracle).unwrap());
        assert!(matches!(ours.chunks()[0], Chunk::Dense(_)));
    }

    #[test]
    fn slice_matches_reference() {
        let m = m44();
        let plan = Plan::SliceAt {
            input: Plan::scan("m", m.schema().clone()).boxed(),
            dim: "row".into(),
            index: 2,
        };
        let schema = infer_schema(&plan).unwrap();
        let ours = slice_dense(&m, "row", 2, schema).unwrap();
        let oracle = evaluate(&plan, &src("m", &m)).unwrap();
        assert!(ours.same_bag(&oracle).unwrap());
    }

    #[test]
    fn permute_matches_reference() {
        let m = matrix_dataset(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let plan = Plan::Permute {
            input: Plan::scan("m", m.schema().clone()).boxed(),
            order: vec!["col".into(), "row".into()],
        };
        let schema = infer_schema(&plan).unwrap();
        let ours = permute_dense(&m, &["col".into(), "row".into()], schema).unwrap();
        let oracle = evaluate(&plan, &src("m", &m)).unwrap();
        assert!(ours.same_bag(&oracle).unwrap());
        // Transposed dense layout: first axis is now col with extent 3.
        if let Chunk::Dense(d) = &ours.chunks()[0] {
            assert_eq!(d.bounds().extent(0), 3);
            assert_eq!(d.bounds().extent(1), 2);
        } else {
            panic!("expected dense output");
        }
    }

    fn sparse_1d() -> DataSet {
        let schema = Schema::new(vec![
            Field::dimension_bounded("i", 0, 6),
            Field::value("v", bda_storage::DataType::Float64),
        ])
        .unwrap();
        DataSet::from_rows(
            schema,
            &[
                Row(vec![Value::Int(0), Value::Float(1.0)]),
                Row(vec![Value::Int(2), Value::Float(10.0)]),
                Row(vec![Value::Int(3), Value::Null]),
                Row(vec![Value::Int(5), Value::Float(100.0)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn fill_matches_reference() {
        let ds = sparse_1d();
        let plan = Plan::Fill {
            input: Plan::scan("x", ds.schema().clone()).boxed(),
            fill: Value::Float(-1.0),
        };
        let schema = infer_schema(&plan).unwrap();
        let ours = fill_dense(&ds, &Value::Float(-1.0), schema).unwrap();
        let oracle = evaluate(&plan, &src("x", &ds)).unwrap();
        assert!(ours.same_bag(&oracle).unwrap());
        assert_eq!(ours.num_rows(), 6);
    }

    #[test]
    fn elemwise_matches_reference_dense_and_sparse() {
        let m = m44();
        for op in [BinOp::Add, BinOp::Mul, BinOp::Div, BinOp::Ge] {
            let plan = Plan::scan("m", m.schema().clone())
                .elemwise(op, Plan::scan("m", m.schema().clone()));
            let schema = infer_schema(&plan).unwrap();
            let ours = elemwise_dense(op, &m, &m, schema).unwrap();
            let oracle = evaluate(&plan, &src("m", &m)).unwrap();
            assert!(ours.same_bag(&oracle).unwrap(), "op {op:?}");
        }
        // Sparse with nulls: inner-join presence semantics.
        let s = sparse_1d();
        let plan = Plan::scan("x", s.schema().clone())
            .elemwise(BinOp::Add, Plan::scan("x", s.schema().clone()));
        let schema = infer_schema(&plan).unwrap();
        let ours = elemwise_dense(BinOp::Add, &s, &s, schema).unwrap();
        let oracle = evaluate(&plan, &src("x", &s)).unwrap();
        assert!(ours.same_bag(&oracle).unwrap());
    }

    #[test]
    fn elemwise_over_different_boxes_combines_on_the_overlap() {
        use bda_core::Provider;
        let m = m44();
        let engine = crate::ArrayEngine::new("arr");
        engine.store("m", m.clone()).unwrap();
        let rows = |lo, hi| Plan::Dice {
            input: Plan::scan("m", m.schema().clone()).boxed(),
            ranges: vec![("row".into(), lo, hi)],
        };
        // Rows 0..3 against rows 1..4 overlap in two rows of four cells;
        // rows 0..2 against rows 2..4 do not overlap at all.
        for (left, right, cells) in [((0, 3), (1, 4), 8), ((0, 2), (2, 4), 0)] {
            let plan = rows(left.0, left.1).elemwise(BinOp::Add, rows(right.0, right.1));
            let oracle = evaluate(&plan, &src("m", &m)).unwrap();
            assert_eq!(oracle.num_rows(), cells);
            for parts in [1, 4] {
                let ours = bda_core::pool::with_workers(parts, || engine.execute(&plan)).unwrap();
                assert!(ours.same_bag(&oracle).unwrap(), "{left:?} vs {right:?}");
            }
        }
    }

    #[test]
    fn partitioned_elemwise_matches_sequential_for_any_band_count() {
        let m = m44();
        let s = sparse_1d();
        for (ds, name) in [(&m, "m"), (&s, "x")] {
            for op in [BinOp::Add, BinOp::Div, BinOp::Ge] {
                let plan = Plan::scan(name, ds.schema().clone())
                    .elemwise(op, Plan::scan(name, ds.schema().clone()));
                let schema = infer_schema(&plan).unwrap();
                let seq = elemwise_dense(op, ds, ds, schema.clone()).unwrap();
                for parts in [1, 2, 3, 7, 64] {
                    let par = bda_core::pool::with_workers(4, || {
                        elemwise_dense_partitioned(op, ds, ds, parts, schema.clone())
                    })
                    .unwrap();
                    assert!(
                        par.same_bag(&seq).unwrap(),
                        "{name} op {op:?} parts {parts}"
                    );
                }
            }
        }
    }

    #[test]
    fn window_matches_reference() {
        let m = m44();
        let plan = Plan::Window {
            input: Plan::scan("m", m.schema().clone()).boxed(),
            radii: vec![("row".into(), 1), ("col".into(), 1)],
            aggs: vec![
                bda_core::AggExpr::new(AggFunc::Avg, col("v"), "mean"),
                bda_core::AggExpr::count_star("n"),
            ],
        };
        let schema = infer_schema(&plan).unwrap();
        let ours = window_dense(
            &m,
            &[("row".into(), 1), ("col".into(), 1)],
            &[
                bda_core::AggExpr::new(AggFunc::Avg, col("v"), "mean"),
                bda_core::AggExpr::count_star("n"),
            ],
            schema,
        )
        .unwrap();
        let oracle = evaluate(&plan, &src("m", &m)).unwrap();
        assert!(ours.same_bag(&oracle).unwrap());
    }

    #[test]
    fn window_on_sparse_input_matches_reference() {
        let s = sparse_1d();
        let aggs = vec![bda_core::AggExpr::new(AggFunc::Sum, col("v"), "s")];
        let plan = Plan::Window {
            input: Plan::scan("x", s.schema().clone()).boxed(),
            radii: vec![("i".into(), 2)],
            aggs: aggs.clone(),
        };
        let schema = infer_schema(&plan).unwrap();
        let ours = window_dense(&s, &[("i".into(), 2)], &aggs, schema).unwrap();
        let oracle = evaluate(&plan, &src("x", &s)).unwrap();
        assert!(ours.same_bag(&oracle).unwrap());
    }

    #[test]
    fn slice_outside_bounds_is_empty() {
        let m = m44();
        let plan = Plan::SliceAt {
            input: Plan::scan("m", m.schema().clone()).boxed(),
            dim: "row".into(),
            index: 99,
        };
        let schema = infer_schema(&plan).unwrap();
        let ours = slice_dense(&m, "row", 99, schema).unwrap();
        assert_eq!(ours.num_rows(), 0);
    }
}
