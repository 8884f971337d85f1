//! Dataset ↔ matrix conversion and plan execution for the linear-algebra
//! engine.
//!
//! Conventions (the linear-algebra view of the fused model):
//!
//! * A "matrix" dataset has exactly two bounded dimensions and one `f64`
//!   value attribute.
//! * Absent cells and null values read as `0.0`; results are fully dense.
//!   (A sparse algebraic result that *omits* zero cells and a dense one
//!   that *stores* them are `Fill(0.0)`-equivalent; the experiments
//!   normalize with `Fill` before comparing.) The one exception is an
//!   `ElemWise` whose operands cover different boxes: like the reference
//!   evaluator it joins cells on their coordinates, so only the boxes'
//!   overlap is present in its result.
//! * Dense data stays dense: [`to_matrix`] copies the value column of a
//!   dataset that already is one dense chunk over its schema's box once,
//!   and [`from_matrix`] wraps a kernel's buffer without a copy. Only
//!   other layouts are densified through coordinate rows.
//!
//! Leaves are the shared [`bda_core::engine`] kernels; a `Scan` under an
//! operator is read in place, not copied. `MatMul`, `ElemWise` and the
//! row sums of a product under `Aggregate` run at the pool's width
//! ([`pool::workers`]): wider than one, they split the left matrix into
//! row bands ([`bands`]) and run each band as a traced partition
//! ([`run_partitions`]) under the operator's own `op:` span. Each output
//! row is computed by the same scalar code at every width, so results
//! are bitwise identical.

use std::borrow::Cow;
use std::collections::BTreeMap;

use bda_core::engine;
use bda_core::infer::infer_schema;
use bda_core::partition::bands;
use bda_core::pool::{self, run_partitions};
use bda_core::provider::trace_op;
use bda_core::{AggExpr, AggFunc, BinOp, CoreError, Expr, Plan};
use bda_storage::{Bitmap, Chunk, Column, DataSet, DenseChunk, DimBox, Schema};

use crate::matrix::Matrix;

/// Result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Validate the matrix shape: two bounded dims, one `f64` value.
pub fn check_matrix_schema(schema: &Schema) -> Result<()> {
    let dims = schema.dimensions();
    if dims.len() != 2 {
        return Err(CoreError::Plan(format!(
            "linalg engine requires 2-D arrays, got {} dims in {schema}",
            dims.len()
        )));
    }
    if !schema.is_bounded() {
        return Err(CoreError::Plan(format!(
            "linalg engine requires bounded extents in {schema}"
        )));
    }
    let vals = schema.values();
    if vals.len() != 1 || vals[0].dtype != bda_storage::DataType::Float64 {
        return Err(CoreError::Plan(format!(
            "linalg engine requires exactly one f64 value attribute in {schema}"
        )));
    }
    Ok(())
}

/// The cells of a matrix dataset that is one dense chunk over its
/// schema's box with every cell present and valid, borrowed in place:
/// the row-major values, the shape and the box origin. `None` for any
/// other layout.
fn dense_cells(ds: &DataSet) -> Option<(&[f64], [usize; 2], [i64; 2])> {
    let chunk = ds.dense_in_place()?;
    let col = chunk.columns().first()?;
    if chunk.present().is_some() || col.validity().is_some() || chunk.bounds().ndims() != 2 {
        return None;
    }
    let b = chunk.bounds();
    let data = col.f64_data().ok()?;
    Some((data, [b.extent(0), b.extent(1)], [b.lo[0], b.lo[1]]))
}

/// Convert a matrix dataset into a dense [`Matrix`] plus the box origin
/// (`lo` per axis). Absent/null cells become `0.0`.
///
/// Already-dense data (every stored matrix and every kernel result) is
/// read in place and its value column copied once; other layouts are
/// densified first.
pub fn to_matrix(ds: &DataSet) -> Result<(Matrix, [i64; 2])> {
    check_matrix_schema(ds.schema())?;
    if let Some((data, [rows, cols], lo)) = dense_cells(ds) {
        return Ok((Matrix::from_vec(rows, cols, data.to_vec()), lo));
    }
    let owned;
    let chunk = match ds.dense_in_place() {
        Some(d) => d,
        None => {
            owned = ds.to_dense()?;
            match owned.chunks() {
                [Chunk::Dense(d)] => d,
                _ => return Err(CoreError::Plan("expected one dense chunk".into())),
            }
        }
    };
    let b = chunk.bounds();
    let col = &chunk.columns()[0];
    let raw = col.f64_data().map_err(CoreError::from)?;
    let data = match (chunk.present(), col.validity()) {
        (None, None) => raw.to_vec(),
        _ => raw
            .iter()
            .enumerate()
            .map(|(idx, &x)| {
                if chunk.is_present(idx) && col.is_valid(idx) {
                    x
                } else {
                    0.0
                }
            })
            .collect(),
    };
    Ok((
        Matrix::from_vec(b.extent(0), b.extent(1), data),
        [b.lo[0], b.lo[1]],
    ))
}

/// The box spanned by a (2-D, bounded) matrix schema.
fn schema_box(schema: &Schema) -> Result<DimBox> {
    check_matrix_schema(schema)?;
    let dims = schema.dimensions();
    let (r0, r1) = dims[0].extent().expect("bounded");
    let (c0, c1) = dims[1].extent().expect("bounded");
    Ok(DimBox::new(vec![r0, c0], vec![r1, c1])?)
}

/// Wrap a [`Matrix`] into a dataset under the given (2-D, bounded) schema.
pub fn from_matrix(m: Matrix, out_schema: Schema) -> Result<DataSet> {
    let bounds = schema_box(&out_schema)?;
    if bounds.extent(0) != m.rows() || bounds.extent(1) != m.cols() {
        return Err(CoreError::Plan(format!(
            "matrix {}x{} does not fit schema {out_schema}",
            m.rows(),
            m.cols()
        )));
    }
    let chunk = DenseChunk::new(bounds, vec![Column::from(m.into_data())], None)?;
    Ok(DataSet::new(out_schema, vec![Chunk::Dense(chunk)]))
}

/// The cell function of an arithmetic `ElemWise`.
fn elemwise_fn(op: BinOp) -> Result<fn(f64, f64) -> f64> {
    Ok(match op {
        BinOp::Add => |x, y| x + y,
        BinOp::Sub => |x, y| x - y,
        BinOp::Mul => |x, y| x * y,
        BinOp::Div => |x, y| x / y,
        other => {
            return Err(CoreError::Unsupported {
                provider: "linalg".into(),
                op: format!("elemwise {}", other.symbol()),
            })
        }
    })
}

/// `f(a, b)` cell by cell, under `out_schema` (the left operand's box).
///
/// Operands over one box zip by position, in `parts` row bands (one
/// band at `parts <= 1`). Otherwise a cell exists only where both boxes
/// hold it, as in the reference evaluator, which joins cells on their
/// coordinates: the result is a dense chunk over `out_schema`'s box whose
/// presence bitmap marks the overlap (empty when the boxes are disjoint).
/// Operands over different boxes run unpartitioned, whatever `parts` is.
fn elemwise(
    (a, a_lo): (Matrix, [i64; 2]),
    (b, b_lo): (Matrix, [i64; 2]),
    f: fn(f64, f64) -> f64,
    parts: usize,
    out_schema: Schema,
) -> Result<DataSet> {
    if a_lo == b_lo && (a.rows(), a.cols()) == (b.rows(), b.cols()) {
        let data = row_bands(a.rows(), parts, |(s, e)| {
            a.row_band(s, e).zip_with(&b.row_band(s, e), f).into_data()
        });
        return from_matrix(Matrix::from_vec(a.rows(), a.cols(), data), out_schema);
    }
    let out_box = schema_box(&out_schema)?;
    let box_of = |m: &Matrix, lo: [i64; 2]| {
        DimBox::new(
            lo.to_vec(),
            vec![lo[0] + m.rows() as i64, lo[1] + m.cols() as i64],
        )
    };
    let a_box = box_of(&a, a_lo)?;
    debug_assert_eq!(a_box, out_box, "the result takes the left operand's box");
    let overlap = a_box.intersect(&box_of(&b, b_lo)?);
    let Some(overlap) = overlap else {
        return Ok(DataSet::empty(out_schema));
    };
    let vol = out_box.volume();
    let mut data = vec![0.0f64; vol];
    let mut present = Bitmap::filled(vol, false);
    for i in overlap.lo[0]..overlap.hi[0] {
        for j in overlap.lo[1]..overlap.hi[1] {
            let idx = out_box.linearize(&[i, j]);
            let x = a.get((i - a_lo[0]) as usize, (j - a_lo[1]) as usize);
            let y = b.get((i - b_lo[0]) as usize, (j - b_lo[1]) as usize);
            data[idx] = f(x, y);
            present.set(idx, true);
        }
    }
    let chunk = DenseChunk::new(out_box, vec![Column::from(data)], Some(present))?;
    Ok(DataSet::new(out_schema, vec![Chunk::Dense(chunk)]))
}

/// Execute a plan against the engine's matrix map.
pub fn execute(plan: &Plan, matrices: &BTreeMap<String, DataSet>) -> Result<DataSet> {
    trace_op(plan, || execute_node(plan, matrices))
}

/// An operator's input: a `Scan` is the stored matrix borrowed in place
/// (still traced as its own `op:scan`), anything else is executed.
fn operand<'a>(plan: &Plan, matrices: &'a BTreeMap<String, DataSet>) -> Result<Cow<'a, DataSet>> {
    match plan {
        Plan::Scan { dataset, schema } => trace_op(plan, || {
            engine::scan(matrices.get(dataset), dataset, schema)
        })
        .map(Cow::Borrowed),
        _ => execute(plan, matrices).map(Cow::Owned),
    }
}

fn execute_node(plan: &Plan, matrices: &BTreeMap<String, DataSet>) -> Result<DataSet> {
    let out_schema = infer_schema(plan)?;
    match plan {
        Plan::Scan { dataset, schema } => {
            engine::scan(matrices.get(dataset), dataset, schema).cloned()
        }
        Plan::Values { schema, rows } => engine::values(schema, rows),
        Plan::MatMul { left, right } => {
            let (a, _) = to_matrix(operand(left, matrices)?.as_ref())?;
            let (b, _) = to_matrix(operand(right, matrices)?.as_ref())?;
            check_inner(a.cols(), b.rows())?;
            let data = row_bands(a.rows(), pool::workers(), |(s, e)| {
                a.row_band(s, e).matmul(&b).into_data()
            });
            from_matrix(Matrix::from_vec(a.rows(), b.cols(), data), out_schema)
        }
        Plan::ElemWise { op, left, right } => {
            let f = elemwise_fn(*op)?;
            let a = to_matrix(operand(left, matrices)?.as_ref())?;
            let b = to_matrix(operand(right, matrices)?.as_ref())?;
            elemwise(a, b, f, pool::workers(), out_schema)
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => aggregate(input, group_by, aggs, out_schema, matrices),
        Plan::Permute { input, .. } => {
            // 2-D permutation is either identity or transpose; the output
            // schema's dimension order tells us which.
            let in_ds = operand(input, matrices)?;
            let in_dims: Vec<String> = in_ds
                .schema()
                .dimensions()
                .iter()
                .map(|f| f.name.clone())
                .collect();
            let out_dims: Vec<String> = out_schema
                .dimensions()
                .iter()
                .map(|f| f.name.clone())
                .collect();
            let (m, _) = to_matrix(&in_ds)?;
            if in_dims == out_dims {
                from_matrix(m, out_schema)
            } else {
                from_matrix(m.transpose(), out_schema)
            }
        }
        Plan::Dice { input, .. } => {
            let (m, lo) = to_matrix(operand(input, matrices)?.as_ref())?;
            let dims = out_schema.dimensions();
            let (r0, r1) = dims[0].extent().expect("bounded by infer");
            let (c0, c1) = dims[1].extent().expect("bounded by infer");
            let mut out = Matrix::zeros((r1 - r0) as usize, (c1 - c0) as usize);
            for i in r0..r1 {
                for j in c0..c1 {
                    out.set(
                        (i - r0) as usize,
                        (j - c0) as usize,
                        m.get((i - lo[0]) as usize, (j - lo[1]) as usize),
                    );
                }
            }
            from_matrix(out, out_schema)
        }
        other => Err(CoreError::Unsupported {
            provider: "linalg".into(),
            op: other.op_kind().name().into(),
        }),
    }
}

/// A product's operands must agree on the contracted dimension.
fn check_inner(a_cols: usize, b_rows: usize) -> Result<()> {
    if a_cols != b_rows {
        return Err(CoreError::Plan(format!(
            "matmul inner dimension mismatch: {a_cols} vs {b_rows}"
        )));
    }
    Ok(())
}

/// A matrix operand's row-major cells, row count and column count:
/// borrowed when it is one dense chunk with every cell present and
/// valid, else densified ([`to_matrix`]: absent and null cells read
/// `0.0`).
fn cells(ds: &DataSet) -> Result<(Cow<'_, [f64]>, usize, usize)> {
    if let Some((data, [rows, cols], _)) = dense_cells(ds) {
        return Ok((Cow::Borrowed(data), rows, cols));
    }
    let (m, _) = to_matrix(ds)?;
    let (rows, cols) = (m.rows(), m.cols());
    Ok((Cow::Owned(m.into_data()), rows, cols))
}

/// Whether an `Aggregate` over a matrix with this schema is a row sum:
/// it groups by the row dimension alone, and every aggregate is a `sum`
/// of the value attribute.
fn is_row_sum(input: &Schema, group_by: &[String], aggs: &[AggExpr]) -> bool {
    if check_matrix_schema(input).is_err() || aggs.is_empty() {
        return false;
    }
    let value = &input.values()[0].name;
    let sums_value = aggs
        .iter()
        .all(|a| a.func == AggFunc::Sum && matches!(&a.arg, Some(Expr::Column(c)) if c == value));
    sums_value && matches!(group_by, [g] if *g == input.dimensions()[0].name)
}

/// `Aggregate` over a matrix. The row sums of a product are computed
/// without forming it, as `A·(B·1)`: two matrix-vector products instead
/// of the `n³` product. Every other aggregate runs the shared
/// [`engine::aggregate`] over the input.
fn aggregate(
    input: &Plan,
    group_by: &[String],
    aggs: &[AggExpr],
    out_schema: Schema,
    matrices: &BTreeMap<String, DataSet>,
) -> Result<DataSet> {
    if let Plan::MatMul { left, right } = input {
        if is_row_sum(&infer_schema(input)?, group_by, aggs) {
            let (a_ds, b_ds) = (operand(left, matrices)?, operand(right, matrices)?);
            let ((a, a_rows, a_cols), (b, b_rows, b_cols)) = (cells(&a_ds)?, cells(&b_ds)?);
            check_inner(a_cols, b_rows)?;
            if a_rows > 0 && b_cols > 0 {
                let sums = matvec((&*a, a_rows, a_cols), &row_sums((&*b, b_rows, b_cols)));
                return row_sums_dataset(sums, out_schema);
            }
        }
    }
    let in_ds = operand(input, matrices)?;
    engine::aggregate(&in_ds, group_by, aggs, out_schema)
}

/// A row-major matrix's cells, row count and column count.
type Cells<'a> = (&'a [f64], usize, usize);

/// Row `i` of `m`.
fn row<'a>((data, _, cols): Cells<'a>, i: usize) -> &'a [f64] {
    &data[i * cols..(i + 1) * cols]
}

/// Each row's sum, folded left to right from `0.0`, in row bands at the
/// pool's width.
fn row_sums(m: Cells<'_>) -> Vec<f64> {
    row_bands(m.1, pool::workers(), |(s, e)| {
        (s..e)
            .map(|i| row(m, i).iter().fold(0.0, |acc, x| acc + x))
            .collect()
    })
}

/// `m · x`, in row bands at the pool's width.
fn matvec(m: Cells<'_>, x: &[f64]) -> Vec<f64> {
    row_bands(m.1, pool::workers(), |(s, e)| {
        (s..e)
            .map(|i| row(m, i).iter().zip(x).fold(0.0, |acc, (a, b)| acc + a * b))
            .collect()
    })
}

/// Wrap row sums under the aggregate's output schema: a 1-D dense chunk
/// over the row dimension's extent. Every aggregate column holds the
/// same sums.
fn row_sums_dataset(sums: Vec<f64>, out_schema: Schema) -> Result<DataSet> {
    let columns = vec![Column::from(sums); out_schema.values().len()];
    let (lo, hi) = out_schema.dimensions()[0]
        .extent()
        .expect("a matrix dimension is bounded");
    let chunk = DenseChunk::new(DimBox::new(vec![lo], vec![hi])?, columns, None)?;
    Ok(DataSet::new(out_schema, vec![Chunk::Dense(chunk)]))
}

/// Split `rows` output rows into `parts` near-equal bands, run `kernel`
/// on each band's `[start, end)` as a traced partition
/// ([`run_partitions`]), and concatenate the bands' row-major outputs. At
/// `parts <= 1` (or a single row) `kernel` runs once over `[0, rows)` on
/// the calling thread, with no partition span. Because each output row
/// is produced by the same scalar code on the same inputs at every
/// width, the result is bitwise identical.
fn row_bands(
    rows: usize,
    parts: usize,
    kernel: impl Fn((usize, usize)) -> Vec<f64> + Sync,
) -> Vec<f64> {
    let parts = parts.min(rows);
    if parts <= 1 {
        return kernel((0, rows));
    }
    let kernel = &kernel;
    let tasks: Vec<_> = bands(rows, parts)
        .into_iter()
        .map(|band| move || kernel(band))
        .collect();
    run_partitions(tasks, |band: &Vec<f64>| Some(band.len())).concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::reference::evaluate;
    use bda_storage::dataset::matrix_dataset;
    use std::collections::HashMap;

    fn mats() -> BTreeMap<String, DataSet> {
        let mut m = BTreeMap::new();
        m.insert(
            "a".to_string(),
            matrix_dataset(3, 2, vec![1., 2., 3., 4., 5., 6.]).unwrap(),
        );
        m.insert(
            "b".to_string(),
            matrix_dataset(2, 3, vec![1., 0., -1., 2., 1., 0.]).unwrap(),
        );
        m
    }

    fn as_hash(m: &BTreeMap<String, DataSet>) -> HashMap<String, DataSet> {
        m.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    #[test]
    fn matrix_conversion_roundtrip() {
        let ds = matrix_dataset(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let (m, lo) = to_matrix(&ds).unwrap();
        assert_eq!(lo, [0, 0]);
        assert_eq!(m.get(1, 2), 6.0);
        let back = from_matrix(m, ds.schema().clone()).unwrap();
        assert!(back.same_bag(&ds).unwrap());
    }

    #[test]
    fn matmul_matches_reference_on_dense_input() {
        let m = mats();
        let plan = Plan::scan("a", m["a"].schema().clone())
            .matmul(Plan::scan("b", m["b"].schema().clone()));
        let ours = execute(&plan, &m).unwrap();
        let oracle = evaluate(&plan, &as_hash(&m)).unwrap();
        // Dense inputs: every output cell exists on both sides.
        assert!(ours.same_bag(&oracle).unwrap());
    }

    #[test]
    fn elemwise_and_dice_and_permute() {
        let m = mats();
        let scan_a = Plan::scan("a", m["a"].schema().clone());
        let ew = scan_a.clone().elemwise(BinOp::Mul, scan_a.clone());
        let ours = execute(&ew, &m).unwrap();
        let oracle = evaluate(&ew, &as_hash(&m)).unwrap();
        assert!(ours.same_bag(&oracle).unwrap());

        let dice = Plan::Dice {
            input: scan_a.clone().boxed(),
            ranges: vec![("row".into(), 1, 3)],
        };
        let ours = execute(&dice, &m).unwrap();
        let oracle = evaluate(&dice, &as_hash(&m)).unwrap();
        assert!(ours.same_bag(&oracle).unwrap());

        let tr = Plan::Permute {
            input: scan_a.boxed(),
            order: vec!["col".into(), "row".into()],
        };
        let ours = execute(&tr, &m).unwrap();
        let oracle = evaluate(&tr, &as_hash(&m)).unwrap();
        assert!(ours.same_bag(&oracle).unwrap());
    }

    #[test]
    fn elemwise_over_shifted_boxes_joins_on_coordinates() {
        let m = mats();
        let dice = |lo, hi| Plan::Dice {
            input: Plan::scan("a", m["a"].schema().clone()).boxed(),
            ranges: vec![("row".into(), lo, hi)],
        };
        let overlapping = dice(0, 2).elemwise(BinOp::Add, dice(1, 3));
        let disjoint = dice(0, 1).elemwise(BinOp::Add, dice(2, 3));
        for (plan, cells) in [(overlapping, 2), (disjoint, 0)] {
            for workers in [1, 4] {
                let ours = pool::with_workers(workers, || execute(&plan, &m)).unwrap();
                let oracle = evaluate(&plan, &as_hash(&m)).unwrap();
                assert_eq!(ours.num_rows(), cells, "{plan:?} workers={workers}");
                assert!(
                    ours.same_bag(&oracle).unwrap(),
                    "{plan:?} workers={workers}"
                );
            }
        }
        // Only row 1 is in both operands: (3 + 3, 4 + 4).
        let ours = execute(&dice(0, 2).elemwise(BinOp::Add, dice(1, 3)), &m).unwrap();
        let row1: Vec<f64> = ours
            .rows()
            .unwrap()
            .iter()
            .map(|r| r.get(2).as_float().unwrap())
            .collect();
        assert_eq!(row1, vec![6.0, 8.0]);
    }

    #[test]
    fn comparison_elemwise_unsupported() {
        let m = mats();
        let scan_a = Plan::scan("a", m["a"].schema().clone());
        let e = scan_a.clone().elemwise(BinOp::Lt, scan_a);
        assert!(matches!(
            execute(&e, &m),
            Err(CoreError::Unsupported { .. })
        ));
    }

    #[test]
    fn partitioned_matmul_is_bitwise_identical_to_sequential() {
        let m = mats();
        let scan_a = Plan::scan("a", m["a"].schema().clone());
        let scan_b = Plan::scan("b", m["b"].schema().clone());
        let plan = scan_a.matmul(scan_b);
        let seq = pool::with_workers(1, || execute(&plan, &m)).unwrap();
        let (ms, _) = to_matrix(&seq).unwrap();
        for workers in [2, 3, 7] {
            let par = pool::with_workers(workers, || execute(&plan, &m)).unwrap();
            let (mp, _) = to_matrix(&par).unwrap();
            assert_eq!(ms.data(), mp.data(), "workers={workers}");
        }
    }

    #[test]
    fn partitioned_elemwise_matches_sequential() {
        let m = mats();
        let scan_a = Plan::scan("a", m["a"].schema().clone());
        let plan = scan_a.clone().elemwise(BinOp::Mul, scan_a);
        let seq = pool::with_workers(1, || execute(&plan, &m)).unwrap();
        let par = pool::with_workers(2, || execute(&plan, &m)).unwrap();
        let (ms, _) = to_matrix(&seq).unwrap();
        let (mp, _) = to_matrix(&par).unwrap();
        assert_eq!(ms.data(), mp.data());
    }

    #[test]
    fn schema_checks() {
        assert!(check_matrix_schema(matrix_dataset(1, 1, vec![0.0]).unwrap().schema()).is_ok());
        let rel =
            DataSet::from_columns(vec![("x", bda_storage::Column::from(vec![1.0f64]))]).unwrap();
        assert!(check_matrix_schema(rel.schema()).is_err());
    }
}
