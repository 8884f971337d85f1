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
//! Leaves are the shared [`bda_core::engine`] kernels. `MatMul` and
//! `ElemWise` run at the pool's width ([`pool::workers`]): wider than
//! one, they split the left matrix into row bands ([`bands`]) and run
//! each band as a traced partition ([`run_partitions`]) under the
//! operator's own `op:` span. Each output row is computed by the same
//! scalar code at every width, so results are bitwise identical.

use std::collections::BTreeMap;

use bda_core::engine;
use bda_core::infer::infer_schema;
use bda_core::partition::bands;
use bda_core::pool::{self, run_partitions};
use bda_core::provider::trace_op;
use bda_core::{BinOp, CoreError, Plan};
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

/// Convert a matrix dataset into a dense [`Matrix`] plus the box origin
/// (`lo` per axis). Absent/null cells become `0.0`.
///
/// [`DataSet::to_dense`] returns already-dense data (every stored matrix
/// and every kernel result) as is, and its value column is then copied
/// once.
pub fn to_matrix(ds: &DataSet) -> Result<(Matrix, [i64; 2])> {
    check_matrix_schema(ds.schema())?;
    let dense = ds.to_dense()?;
    let chunk = match dense.chunks() {
        [Chunk::Dense(d)] => d,
        _ => return Err(CoreError::Plan("expected one dense chunk".into())),
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
        let m = block_parallel(a.rows(), parts, |(s, e)| {
            a.row_band(s, e).zip_with(&b.row_band(s, e), f)
        });
        return from_matrix(m, out_schema);
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

fn execute_node(plan: &Plan, matrices: &BTreeMap<String, DataSet>) -> Result<DataSet> {
    let out_schema = infer_schema(plan)?;
    match plan {
        Plan::Scan { dataset, schema } => {
            engine::scan(matrices.get(dataset), dataset, schema).cloned()
        }
        Plan::Values { schema, rows } => engine::values(schema, rows),
        Plan::MatMul { left, right } => {
            let (a, _) = to_matrix(&execute(left, matrices)?)?;
            let (b, _) = to_matrix(&execute(right, matrices)?)?;
            if a.cols() != b.rows() {
                return Err(CoreError::Plan(format!(
                    "matmul inner dimension mismatch: {} vs {}",
                    a.cols(),
                    b.rows()
                )));
            }
            from_matrix(
                block_parallel(a.rows(), pool::workers(), |(s, e)| {
                    a.row_band(s, e).matmul(&b)
                }),
                out_schema,
            )
        }
        Plan::ElemWise { op, left, right } => {
            let f = elemwise_fn(*op)?;
            let a = to_matrix(&execute(left, matrices)?)?;
            let b = to_matrix(&execute(right, matrices)?)?;
            elemwise(a, b, f, pool::workers(), out_schema)
        }
        Plan::Permute { input, .. } => {
            // 2-D permutation is either identity or transpose; the output
            // schema's dimension order tells us which.
            let in_ds = execute(input, matrices)?;
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
            let in_ds = execute(input, matrices)?;
            let (m, lo) = to_matrix(&in_ds)?;
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

/// Split `rows` output rows into `parts` near-equal bands, run `kernel`
/// on each band's `[start, end)` as a traced partition
/// ([`run_partitions`]), and stack the output bands. At `parts <= 1` (or
/// a single row) `kernel` runs once over `[0, rows)` on the calling
/// thread, with no partition span. Because each output row is produced
/// by the same scalar code on the same inputs at every width, the result
/// is bitwise identical.
fn block_parallel(
    rows: usize,
    parts: usize,
    kernel: impl Fn((usize, usize)) -> Matrix + Sync,
) -> Matrix {
    let parts = parts.min(rows);
    if parts <= 1 {
        return kernel((0, rows));
    }
    let kernel = &kernel;
    let tasks: Vec<_> = bands(rows, parts)
        .into_iter()
        .map(|band| move || kernel(band))
        .collect();
    let bands = run_partitions(tasks, |m: &Matrix| Some(m.rows() * m.cols()));
    let cols = bands.first().map(Matrix::cols).unwrap_or(0);
    let mut data = Vec::with_capacity(rows * cols);
    for band in bands {
        data.extend(band.into_data());
    }
    Matrix::from_vec(rows, cols, data)
}

/// Convenience: read a matrix dataset's cell (used in tests/examples).
pub fn cell(ds: &DataSet, i: i64, j: i64) -> Result<f64> {
    let (m, lo) = to_matrix(ds)?;
    Ok(m.get((i - lo[0]) as usize, (j - lo[1]) as usize))
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
