//! # `bda-linalg`: "DenseLab", the linear-algebra back-end Provider
//!
//! The ScaLAPACK analogue from the paper's multi-server example: a
//! provider whose only fluency is dense 2-D `f64` arrays, but which
//! executes `MatMul` with a cache-blocked native kernel — orders of
//! magnitude faster than the lowered join/aggregate form. This asymmetry
//! is precisely what makes intent preservation (desideratum 3) worth
//! having; experiment F1 quantifies it.
//!
//! Capabilities: `Scan`, `Values` (an inlined literal, e.g. the state of an
//! app-driven iteration round), `MatMul`, `ElemWise`, `Permute` (transpose),
//! `Dice` (submatrix). `MatMul` and `ElemWise` split into row bands on
//! the worker pool at the pool's width ([`bda_core::pool::workers`]).
//! Nothing relational — a plan that needs filters or joins must involve
//! another server, which in turn exercises multi-server planning
//! (desideratum 4).
//!
//! Matrices are densified once, at `store`; from then on every kernel reads
//! the stored dense chunk's value column directly ([`conv::to_matrix`]) and
//! returns a dense chunk, so no matrix round-trips through coordinate rows.

pub mod conv;
pub mod matrix;

use bda_core::engine::Datasets;
use bda_core::{CapabilitySet, CoreError, OpKind, Plan, Provider};
use bda_storage::{DataSet, Schema};

pub use matrix::{axpy, l1_norm, l2_norm, power_iteration, Matrix};

/// The linear-algebra engine.
pub struct LinAlgEngine {
    name: String,
    matrices: Datasets,
}

impl LinAlgEngine {
    /// An empty engine named `name`.
    pub fn new(name: impl Into<String>) -> LinAlgEngine {
        LinAlgEngine {
            name: name.into(),
            matrices: Datasets::new(),
        }
    }

    /// The capability set of every linear-algebra engine instance.
    pub fn static_capabilities() -> CapabilitySet {
        CapabilitySet::from_ops(&[
            OpKind::Scan,
            OpKind::Values,
            OpKind::MatMul,
            OpKind::ElemWise,
            OpKind::Permute,
            OpKind::Dice,
        ])
    }
}

impl Provider for LinAlgEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn capabilities(&self) -> CapabilitySet {
        Self::static_capabilities()
    }

    fn catalog(&self) -> Vec<(String, Schema)> {
        self.matrices.catalog()
    }

    fn execute(&self, plan: &Plan) -> Result<DataSet, CoreError> {
        self.capabilities().check(&self.name, plan)?;
        let matrices = self.matrices.read();
        conv::execute(plan, &matrices)
    }

    fn store(&self, name: &str, data: DataSet) -> Result<(), CoreError> {
        // This engine only speaks dense 2-D float matrices; verify and
        // densify at ingest so execution can assume the layout.
        conv::check_matrix_schema(data.schema())?;
        let dense = match data.dense_in_place() {
            Some(_) => data,
            None => data.to_dense()?,
        };
        self.matrices.insert(name, dense);
        Ok(())
    }

    fn remove(&self, name: &str) {
        self.matrices.remove(name);
    }

    fn row_count_of(&self, name: &str) -> Option<usize> {
        self.matrices.row_count_of(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_storage::dataset::{dataset_matrix, matrix_dataset};
    use bda_storage::Column;

    fn engine() -> LinAlgEngine {
        let e = LinAlgEngine::new("la");
        let a = matrix_dataset(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = matrix_dataset(3, 2, vec![7., 8., 9., 10., 11., 12.]).unwrap();
        e.store("a", a).unwrap();
        e.store("b", b).unwrap();
        e
    }

    #[test]
    fn native_matmul() {
        let e = engine();
        let a = e.schema_of("a").unwrap();
        let b = e.schema_of("b").unwrap();
        let plan =
            Plan::scan("a", a).matmul(Plan::scan("b", b).rename(vec![("row", "k"), ("col", "j")]));
        // Rename is not in the capability set...
        assert!(e.execute(&plan).is_err());
        // ...but matmul over plain scans works (dimension names differ per
        // scan already).
        let plan = Plan::scan("a", e.schema_of("a").unwrap())
            .matmul(Plan::scan("b", e.schema_of("b").unwrap()));
        let out = e.execute(&plan).unwrap();
        let (r, c, data) = dataset_matrix(&out).unwrap();
        assert_eq!((r, c), (2, 2));
        assert_eq!(data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn rejects_non_matrix_ingest() {
        let e = LinAlgEngine::new("la");
        let rel = DataSet::from_columns(vec![("k", Column::from(vec![1i64]))]).unwrap();
        assert!(e.store("rel", rel).is_err());
    }
}
