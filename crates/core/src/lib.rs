//! # `bda-core`: the Big Data Algebra
//!
//! The primary contribution of Maier's *Desiderata for a Big Data Language*
//! (CIDR 2015): an **algebraic intermediate form** — a LINQ-like Standard
//! Query Operator layer over the fused tabular/array data model — that
//! client languages compile into and back-end providers accept.
//!
//! Crate tour:
//!
//! * [`expr`] / [`eval`] — the scalar expression language and its
//!   (three-valued-logic) semantics, scalar and columnar.
//! * [`agg`] — aggregate functions shared by every back end.
//! * [`plan`] — the algebra plan IR: relational operators, dimension-aware
//!   array operators, *intent* operators (`MatMul`, `Window`, graph
//!   analytics) and control iteration (`Iterate`).
//! * [`infer`] — static semantics: schema inference with dimension-tag
//!   flow.
//! * [`lower`] — rewrites every intent operator into base algebra so that
//!   *any* provider can run it (desideratum 2: translatability).
//! * [`recognize`] — the inverse: rediscovers intent operators in lowered
//!   plans so specialized providers see them natively (desideratum 3:
//!   intent preservation).
//! * [`mod@reference`] — the row-at-a-time oracle evaluator that *defines* the
//!   algebra's dynamic semantics; engines are property-tested against it.
//! * [`convergence`] — the shared convergence criterion for `Iterate`.
//! * [`codec`] — binary plan encoding: plans ship to providers as
//!   expression trees, not as sequences of remote calls.
//! * [`provider`] — the `Provider` trait and capability model that back
//!   ends implement.
//! * [`engine`] — the substrate every engine shares: the dataset map,
//!   the leaf scans and the scalar relational kernels.
//! * [`keys`] — typed row keys (hash, equality, hash chains) shared by
//!   join, aggregate, distinct and the hash partitioner.
//! * [`partition`] / [`pool`] — deterministic dataset partitioning and
//!   the scoped worker pool (with its traced partition runner) behind
//!   partition-parallel kernels.

pub mod agg;
pub mod codec;
pub mod convergence;
pub mod engine;
pub mod error;
pub mod eval;
pub mod expr;
pub mod infer;
pub mod keys;
pub mod lower;
pub mod partition;
pub mod plan;
pub mod pool;
pub mod provider;
pub mod pruning;
pub mod recognize;
pub mod reference;

pub use agg::{AggExpr, AggFunc};
pub use error::CoreError;
pub use expr::{col, lit, null, BinOp, Expr, UnOp};
pub use infer::infer_schema;
pub use partition::Partitioner;
pub use plan::{GraphOp, JoinType, OpKind, Plan};
pub use provider::{CapabilitySet, Provider, ReferenceProvider};
pub use pruning::{stats_from_env, STATS_ENV};

/// Crate-wide result alias.
pub type Result<T, E = CoreError> = std::result::Result<T, E>;
