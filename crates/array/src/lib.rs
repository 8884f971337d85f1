//! # `bda-array`: "ArrayStore", the array back-end Provider
//!
//! A chunked dense-array engine playing the role of SciDB in the paper's
//! multi-server examples. Its native strengths are the dimension-aware
//! operators — `Dice` (with box pruning), `SliceAt`, `Permute`, `Window`
//! stencils, `Fill` densification and cell-wise `ElemWise` — executed
//! directly on dense buffers. It also runs the scalar relational core
//! (select/project/aggregate/union/distinct/limit) — the same
//! [`bda_core::engine`] kernels the relational engine runs — so
//! diced-and-reduced results can be post-processed in place, but it has
//! **no** join, sort, matmul, graph or iteration support: those belong to
//! other providers, which is what makes multi-server planning
//! (desideratum 4) necessary.
//!
//! Restriction: the dense operators require every dimension to carry a
//! bounded extent (the engine stores arrays as dense boxes). Plans over
//! unbounded arrays are rejected with `NotDense`, mirroring how a real
//! array store demands declared chunk shapes.

pub mod dense_ops;
pub mod exec;

use bda_core::engine::Datasets;
use bda_core::{CapabilitySet, CoreError, OpKind, Plan, Provider};
use bda_storage::{DataSet, Schema};

/// The array engine.
pub struct ArrayEngine {
    name: String,
    arrays: Datasets,
    /// Tile side length for the chunk grid; `None` stores arrays as one
    /// dense box.
    chunk_side: Option<usize>,
}

impl ArrayEngine {
    /// An empty engine named `name` (monolithic dense storage).
    pub fn new(name: impl Into<String>) -> ArrayEngine {
        ArrayEngine {
            name: name.into(),
            arrays: Datasets::new(),
            chunk_side: None,
        }
    }

    /// An engine that stores arrays as a grid of `chunk_side`-sized tiles,
    /// enabling box pruning in `Dice` (the SciDB chunking model).
    pub fn with_chunking(name: impl Into<String>, chunk_side: usize) -> ArrayEngine {
        assert!(chunk_side > 0, "chunk side must be positive");
        ArrayEngine {
            name: name.into(),
            arrays: Datasets::new(),
            chunk_side: Some(chunk_side),
        }
    }

    /// The capability set of every array engine instance.
    pub fn static_capabilities() -> CapabilitySet {
        CapabilitySet::from_ops(&[
            OpKind::Scan,
            OpKind::Values,
            OpKind::Range,
            OpKind::Select,
            OpKind::Project,
            OpKind::Aggregate,
            OpKind::Union,
            OpKind::Distinct,
            OpKind::Limit,
            OpKind::Rename,
            OpKind::Dice,
            OpKind::SliceAt,
            OpKind::Permute,
            OpKind::Window,
            OpKind::Fill,
            OpKind::TagDims,
            OpKind::UntagDims,
            OpKind::ElemWise,
        ])
    }

    /// Look up an array (cloned snapshot).
    pub fn array(&self, name: &str) -> Option<DataSet> {
        self.arrays.read().get(name).cloned()
    }
}

impl Provider for ArrayEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn capabilities(&self) -> CapabilitySet {
        Self::static_capabilities()
    }

    fn catalog(&self) -> Vec<(String, Schema)> {
        self.arrays.catalog()
    }

    fn execute(&self, plan: &Plan) -> Result<DataSet, CoreError> {
        self.capabilities().check(&self.name, plan)?;
        let arrays = self.arrays.read();
        exec::execute(plan, &arrays)
    }

    fn store(&self, name: &str, data: DataSet) -> Result<(), CoreError> {
        // Densify on ingest when possible: the engine's native layout —
        // either one dense box or a tile grid, per configuration.
        let stored = if data.schema().ndims() > 0 && data.schema().is_bounded() {
            match self.chunk_side {
                Some(side) => data.to_dense_grid(side)?,
                None => data.to_dense()?,
            }
        } else {
            data
        };
        self.arrays.insert(name, stored);
        Ok(())
    }

    fn remove(&self, name: &str) {
        self.arrays.remove(name);
    }

    fn row_count_of(&self, name: &str) -> Option<usize> {
        self.arrays.row_count_of(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_storage::dataset::matrix_dataset;
    use bda_storage::Chunk;

    #[test]
    fn stores_densely() {
        let e = ArrayEngine::new("arr");
        let m = matrix_dataset(2, 2, vec![1., 2., 3., 4.]).unwrap();
        let rows_form = m.normalized_rows().unwrap();
        e.store("m", rows_form).unwrap();
        let back = e.array("m").unwrap();
        assert!(matches!(back.chunks()[0], Chunk::Dense(_)));
    }

    #[test]
    fn chunked_storage_builds_a_grid() {
        let e = ArrayEngine::with_chunking("arr", 2);
        let m = matrix_dataset(5, 5, (0..25).map(|i| i as f64).collect()).unwrap();
        e.store("m", m.clone()).unwrap();
        let stored = e.array("m").unwrap();
        assert_eq!(stored.chunks().len(), 9, "ceil(5/2)^2 tiles");
        assert!(stored.same_bag(&m).unwrap());
    }

    #[test]
    fn chunked_dice_prunes_and_matches_monolithic() {
        let m = matrix_dataset(16, 16, (0..256).map(|i| i as f64).collect()).unwrap();
        let chunked = ArrayEngine::with_chunking("c", 4);
        chunked.store("m", m.clone()).unwrap();
        let mono = ArrayEngine::new("m");
        mono.store("m", m.clone()).unwrap();
        let plan = Plan::Dice {
            input: Plan::scan("m", m.schema().clone()).boxed(),
            ranges: vec![("row".into(), 0, 3), ("col".into(), 5, 7)],
        };
        let a = chunked.execute(&plan).unwrap();
        let b = mono.execute(&plan).unwrap();
        assert!(a.same_bag(&b).unwrap());
        // Observe the pruning rate directly.
        let grid = chunked.array("m").unwrap();
        let out_schema = bda_core::infer_schema(&plan).unwrap();
        let (_, visited, total) = crate::dense_ops::dice_pruned(&grid, &out_schema).unwrap();
        assert_eq!(total, 16, "4x4 tile grid");
        assert!(
            visited <= 2,
            "target box touches at most 2 tiles, visited {visited}"
        );
    }

    #[test]
    fn chunked_window_still_correct() {
        // Non-dice operators collapse the grid and stay correct.
        let m = matrix_dataset(6, 6, (0..36).map(|i| i as f64).collect()).unwrap();
        let chunked = ArrayEngine::with_chunking("c", 2);
        chunked.store("m", m.clone()).unwrap();
        let mono = ArrayEngine::new("m");
        mono.store("m", m.clone()).unwrap();
        let plan = Plan::Window {
            input: Plan::scan("m", m.schema().clone()).boxed(),
            radii: vec![("row".into(), 1), ("col".into(), 1)],
            aggs: vec![bda_core::AggExpr::new(
                bda_core::AggFunc::Sum,
                bda_core::col("v"),
                "s",
            )],
        };
        let a = chunked.execute(&plan).unwrap();
        let b = mono.execute(&plan).unwrap();
        assert!(a.same_bag(&b).unwrap());
    }

    #[test]
    fn rejects_join_and_matmul() {
        let e = ArrayEngine::new("arr");
        let m = matrix_dataset(2, 2, vec![1., 2., 3., 4.]).unwrap();
        e.store("m", m.clone()).unwrap();
        let scan = Plan::scan("m", m.schema().clone());
        assert!(matches!(
            e.execute(&scan.clone().matmul(scan.clone())),
            Err(CoreError::Unsupported { .. })
        ));
        assert!(matches!(
            e.execute(&scan.clone().join(scan, vec![("row", "row")])),
            Err(CoreError::Unsupported { .. })
        ));
    }
}
