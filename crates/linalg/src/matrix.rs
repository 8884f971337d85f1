//! Dense matrices and the numeric kernels of the linear-algebra engine.
//!
//! Row-major `f64` storage, cache-blocked multiplication with an i-k-j
//! inner loop (streaming access on both operands), and the handful of
//! BLAS-1/2/3 routines the experiments need. This is the stand-in for
//! ScaLAPACK in the paper's SciDB + ScaLAPACK multi-server example.

use std::borrow::Cow;
use std::fmt;

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A rows×cols zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from row-major data; panics if the length is wrong.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} != {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// The n×n identity.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Consume into the row-major data.
    pub fn into_data(self) -> Vec<f64> {
        self.data
    }

    /// Rows `[start, end)` as their own matrix. Row-major storage makes
    /// the band one contiguous slice, so block-split kernels copy once;
    /// the band of every row borrows `self` and copies nothing.
    pub fn row_band(&self, start: usize, end: usize) -> Cow<'_, Matrix> {
        if (start, end) == (0, self.rows) {
            return Cow::Borrowed(self);
        }
        Cow::Owned(Matrix::from_vec(
            end - start,
            self.cols,
            self.data[start * self.cols..end * self.cols].to_vec(),
        ))
    }

    /// Element (i, j).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Set element (i, j).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Naive triple-loop multiplication (kept as the baseline the blocked
    /// kernel is benchmarked against).
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for j in 0..other.cols {
                let mut acc = 0.0;
                for k in 0..self.cols {
                    acc += self.get(i, k) * other.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Cache-blocked multiplication with an i-k-j inner loop: the `k`
    /// loop hoists `a[i][k]` into a register and streams both `b`'s and
    /// the output's rows sequentially.
    #[allow(clippy::needless_range_loop)] // explicit blocked indexing
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        const BLOCK: usize = 64;
        let (n, m, p) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0f64; n * p];
        for ib in (0..n).step_by(BLOCK) {
            let i_end = (ib + BLOCK).min(n);
            for kb in (0..m).step_by(BLOCK) {
                let k_end = (kb + BLOCK).min(m);
                for jb in (0..p).step_by(BLOCK) {
                    let j_end = (jb + BLOCK).min(p);
                    for i in ib..i_end {
                        let a_row = &self.data[i * m..(i + 1) * m];
                        let out_row = &mut out[i * p..(i + 1) * p];
                        for k in kb..k_end {
                            let a_ik = a_row[k];
                            if a_ik == 0.0 {
                                continue;
                            }
                            let b_row = &other.data[k * p..(k + 1) * p];
                            for j in jb..j_end {
                                out_row[j] += a_ik * b_row[j];
                            }
                        }
                    }
                }
            }
        }
        Matrix {
            rows: n,
            cols: p,
            data: out,
        }
    }

    /// Matrix-vector product.
    #[allow(clippy::needless_range_loop)] // row-slice indexing
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, x.len(), "dimension mismatch");
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            out[i] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        out
    }

    /// Element-wise combination with another same-shape matrix.
    pub fn zip_with(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Scale every element.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| v * s).collect(),
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// `y += a * x` for vectors.
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// L1 norm of a vector.
pub fn l1_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// L2 norm of a vector.
pub fn l2_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Power iteration: dominant eigenvalue and (L2-normalized) eigenvector.
/// Returns `(lambda, v, iterations)`; stops when the eigenvector's L1
/// change drops below `epsilon` or after `max_iters` steps.
pub fn power_iteration(m: &Matrix, max_iters: usize, epsilon: f64) -> (f64, Vec<f64>, usize) {
    assert_eq!(m.rows(), m.cols(), "power iteration needs a square matrix");
    let n = m.rows();
    let mut v = vec![1.0 / (n as f64).sqrt(); n];
    let mut lambda = 0.0;
    let mut iters = 0;
    for it in 0..max_iters {
        iters = it + 1;
        let w = m.matvec(&v);
        let norm = l2_norm(&w);
        if norm == 0.0 {
            return (0.0, v, iters);
        }
        let next: Vec<f64> = w.iter().map(|x| x / norm).collect();
        let delta: f64 = next.iter().zip(&v).map(|(a, b)| (a - b).abs()).sum();
        lambda = norm;
        v = next;
        if delta < epsilon {
            break;
        }
    }
    (lambda, v, iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn from_vec_checks_length() {
        Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn identity_multiplication() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i), m);
        assert_eq!(i.matmul(&m), m);
    }

    #[test]
    fn blocked_matches_naive() {
        // Sizes chosen to cover partial blocks.
        for (n, m, p) in [
            (1, 1, 1),
            (3, 4, 5),
            (64, 64, 64),
            (65, 70, 33),
            (128, 17, 129),
        ] {
            let a = Matrix::from_vec(
                n,
                m,
                (0..n * m).map(|i| ((i * 7919) % 13) as f64 - 6.0).collect(),
            );
            let b = Matrix::from_vec(
                m,
                p,
                (0..m * p)
                    .map(|i| ((i * 104729) % 17) as f64 / 3.0)
                    .collect(),
            );
            let fast = a.matmul(&b);
            let slow = a.matmul_naive(&b);
            assert_eq!(fast.rows(), slow.rows());
            for (x, y) in fast.data().iter().zip(slow.data()) {
                assert!(approx(*x, *y), "{x} vs {y} at size {n}x{m}x{p}");
            }
        }
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_vec(3, 3, (0..9).map(f64::from).collect());
        let x = vec![1.0, -1.0, 2.0];
        let as_col = Matrix::from_vec(3, 1, x.clone());
        let via_mm = a.matmul(&as_col);
        assert_eq!(a.matvec(&x), via_mm.data());
    }

    #[test]
    fn norms_and_scale() {
        let a = Matrix::from_vec(1, 2, vec![3.0, -4.0]);
        assert!(approx(a.frobenius_norm(), 5.0));
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.scale(2.0).data(), &[6.0, -8.0]);
        assert!(approx(l1_norm(&[1.0, -2.0]), 3.0));
        assert!(approx(l2_norm(&[3.0, 4.0]), 5.0));
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
    }

    #[test]
    fn zip_with_elementwise() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::from_vec(2, 2, vec![10., 20., 30., 40.]);
        assert_eq!(a.zip_with(&b, |x, y| x + y).data(), &[11., 22., 33., 44.]);
        assert_eq!(a.zip_with(&b, |x, y| x * y).data(), &[10., 40., 90., 160.]);
    }

    #[test]
    fn power_iteration_dominant_eigenpair() {
        // [[2, 0], [0, 0.5]]: dominant eigenvalue 2, eigenvector e1.
        let m = Matrix::from_vec(2, 2, vec![2.0, 0.0, 0.0, 0.5]);
        let (lambda, v, iters) = power_iteration(&m, 200, 1e-12);
        assert!(approx(lambda, 2.0), "{lambda}");
        assert!(v[0].abs() > 0.999, "{v:?}");
        assert!(iters < 200);
        // Zero matrix: eigenvalue 0, graceful exit.
        let z = Matrix::zeros(2, 2);
        let (lz, _, _) = power_iteration(&z, 10, 1e-9);
        assert_eq!(lz, 0.0);
    }
}
