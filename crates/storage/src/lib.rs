//! # `bda-storage`: the columnar storage substrate
//!
//! This crate implements the data layer of the Big Data Algebra framework
//! (Maier, *Desiderata for a Big Data Language*, CIDR 2015): the **fused
//! tabular/array data model** in which a dataset is a table with *zero or
//! more attributes tagged as dimensions*.
//!
//! * A dataset with **no** dimension fields is an ordinary bag-semantics
//!   relation.
//! * A dataset with **k** dimension fields is a (possibly sparse)
//!   k-dimensional array whose cells carry the value attributes.
//!
//! Two physical layouts are supported, mirroring the paper's observation
//! that different back ends have different native representations:
//!
//! * [`RowsChunk`] — a coordinate-list / columnar layout (what a relational
//!   engine wants); dimension fields are explicit `Int64` columns.
//! * [`DenseChunk`] — a dense box layout (what an array or linear-algebra
//!   engine wants); dimension coordinates are implicit in the cell's
//!   position inside a [`DimBox`].
//!
//! The [`wire`] module provides a compact, hand-rolled binary encoding for
//! every storage type. All inter-server transfers in the federation layer go
//! through this codec, which is what makes "bytes moved through the
//! application tier" (desideratum 4) an honestly measurable quantity.
//!
//! Nothing in this crate knows about query plans; the algebra lives in
//! `bda-core`.

pub mod bitmap;
pub mod chunk;
pub mod column;
pub mod dataset;
pub mod dense;
pub mod error;
pub mod index;
pub mod row;
pub mod schema;
pub mod stats;
pub mod types;
pub mod value;
pub mod wire;

pub use bitmap::Bitmap;
pub use chunk::{Chunk, RowsChunk};
pub use column::Column;
pub use dataset::DataSet;
pub use dense::{DenseChunk, DimBox};
pub use error::StorageError;
pub use index::{IndexKind, IndexSpec, SecondaryIndex};
pub use row::Row;
pub use schema::{Field, Role, Schema};
pub use stats::{ChunkStats, CmpOp, TableStats, ZoneMap};
pub use types::DataType;
pub use value::Value;

/// Crate-wide result alias.
pub type Result<T, E = StorageError> = std::result::Result<T, E>;
