//! The Big Data Algebra plan IR — the paper's "algebraic intermediate form"
//! that serves as the nexus between client languages and back-end servers.
//!
//! Design points taken straight from the paper:
//!
//! * **Algebra at the core**: operators have direct semantics (defined by
//!   the reference evaluator), independent of any surface syntax.
//! * **Expression trees, not remote calls**: plans serialize (see
//!   [`crate::codec`]) and ship to providers whole.
//! * **Fused tabular/array model**: relational operators and
//!   dimension-aware array operators coexist; aggregation grouped by
//!   dimension fields *is* dimension reduction.
//! * **Intent preservation**: `MatMul`, `ElemWise`, `Window` and the graph
//!   operations are first-class *intent operators* with lowerings into the
//!   base algebra ([`crate::lower`]) and recognizers that recover them from
//!   lowered form ([`crate::recognize`]).
//! * **Control iteration**: [`Plan::Iterate`] repeats a body expression
//!   until a convergence criterion is met.

use std::fmt;

use bda_storage::{Row, Schema, Value};

use crate::agg::AggExpr;
use crate::expr::{BinOp, Expr};

/// Join variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinType {
    /// Inner equi-join.
    Inner,
    /// Left outer join (unmatched left rows padded with nulls).
    Left,
    /// Left semi-join (left rows with at least one match; left schema only).
    Semi,
    /// Left anti-join (left rows with no match; left schema only).
    Anti,
}

impl JoinType {
    /// All join types, in codec-tag order.
    pub const ALL: [JoinType; 4] = [
        JoinType::Inner,
        JoinType::Left,
        JoinType::Semi,
        JoinType::Anti,
    ];

    /// Lower-case name for display.
    pub fn name(self) -> &'static str {
        match self {
            JoinType::Inner => "inner",
            JoinType::Left => "left",
            JoinType::Semi => "semi",
            JoinType::Anti => "anti",
        }
    }
}

/// Graph-analytics intent operators.
///
/// Edge inputs use the convention `(src: i64, dst: i64)` value columns.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphOp {
    /// PageRank over a directed graph.
    /// Output: `(vertex: i64, rank: f64)`.
    PageRank {
        /// Edge list input.
        edges: Box<Plan>,
        /// Damping factor (classically 0.85).
        damping: f64,
        /// Iteration bound.
        max_iters: usize,
        /// L1 convergence threshold on successive rank vectors.
        epsilon: f64,
    },
    /// Connected components of the undirected view of the graph.
    /// Output: `(vertex: i64, component: i64)` (component = min vertex id).
    ConnectedComponents {
        /// Edge list input.
        edges: Box<Plan>,
        /// Iteration bound.
        max_iters: usize,
    },
    /// Number of directed 3-cycles. Output: `(triangles: i64)`, one row.
    TriangleCount {
        /// Edge list input.
        edges: Box<Plan>,
    },
    /// Out-degree per vertex (vertices with no out-edges included, 0).
    /// Output: `(vertex: i64, degree: i64)`.
    Degrees {
        /// Edge list input.
        edges: Box<Plan>,
    },
    /// Breadth-first levels from a source vertex; only reachable vertices
    /// appear. Output: `(vertex: i64, level: i64)`.
    BfsLevels {
        /// Edge list input.
        edges: Box<Plan>,
        /// Source vertex id (must appear in the graph to reach anything).
        source: i64,
    },
}

impl GraphOp {
    /// The edge-list input plan.
    pub fn edges(&self) -> &Plan {
        match self {
            GraphOp::PageRank { edges, .. }
            | GraphOp::ConnectedComponents { edges, .. }
            | GraphOp::TriangleCount { edges }
            | GraphOp::Degrees { edges }
            | GraphOp::BfsLevels { edges, .. } => edges,
        }
    }

    /// Operator name for display and capability checks.
    pub fn name(&self) -> &'static str {
        match self {
            GraphOp::PageRank { .. } => "page_rank",
            GraphOp::ConnectedComponents { .. } => "connected_components",
            GraphOp::TriangleCount { .. } => "triangle_count",
            GraphOp::Degrees { .. } => "degrees",
            GraphOp::BfsLevels { .. } => "bfs_levels",
        }
    }
}

/// A node of the algebra plan tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Leaf: a named dataset in the catalog of whichever provider runs it.
    Scan {
        /// Dataset name.
        dataset: String,
        /// Schema as resolved at bind time.
        schema: Schema,
    },
    /// Leaf: an inline literal table.
    Values {
        /// Schema of the rows.
        schema: Schema,
        /// The rows themselves.
        rows: Vec<Row>,
    },
    /// Leaf: the integers `[lo, hi)` as a 1-dimensional array with
    /// dimension field `name`.
    Range {
        /// Dimension/field name.
        name: String,
        /// Inclusive start.
        lo: i64,
        /// Exclusive end.
        hi: i64,
    },
    /// Leaf inside an [`Plan::Iterate`] body: the current loop state.
    IterState {
        /// Schema of the loop state.
        schema: Schema,
    },
    /// Filter: keep rows where the predicate is TRUE.
    Select {
        /// Input plan.
        input: Box<Plan>,
        /// Boolean predicate.
        predicate: Expr,
    },
    /// Projection / extension: compute named expressions.
    ///
    /// An output field is dimension-tagged iff its expression is a bare
    /// column reference to a dimension of the input (roles and extents are
    /// preserved) — this is what makes projection dimension-aware.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// `(output name, expression)` pairs, in output order.
        exprs: Vec<(String, Expr)>,
    },
    /// Equi-join (or cross join when `on` is empty).
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Pairs of (left column, right column) equated with null-rejecting
        /// equality.
        on: Vec<(String, String)>,
        /// Join variant.
        join_type: JoinType,
        /// Suffix used to disambiguate duplicate right-side names.
        suffix: String,
    },
    /// Grouped aggregation. Grouping by dimension fields preserves their
    /// dimension tags — aggregation over the omitted dimensions is exactly
    /// array dimension-reduction.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Grouping column names (possibly empty: global aggregate).
        group_by: Vec<String>,
        /// Aggregates to compute.
        aggs: Vec<AggExpr>,
    },
    /// Bag union of two inputs with identical schemas.
    Union {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
    /// Sort by keys; `true` = descending.
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// `(column, descending)` sort keys, major first.
        keys: Vec<(String, bool)>,
    },
    /// Skip `skip` rows then keep at most `fetch`.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Rows to skip.
        skip: usize,
        /// Rows to keep (`None` = all).
        fetch: Option<usize>,
    },
    /// Rename columns.
    Rename {
        /// Input plan.
        input: Box<Plan>,
        /// `(old, new)` pairs.
        mapping: Vec<(String, String)>,
    },
    /// Array dice: restrict dimensions to coordinate ranges `[lo, hi)`.
    Dice {
        /// Input plan.
        input: Box<Plan>,
        /// `(dimension, lo, hi)` restrictions.
        ranges: Vec<(String, i64, i64)>,
    },
    /// Array slice: fix one dimension at an index and drop it.
    SliceAt {
        /// Input plan.
        input: Box<Plan>,
        /// Dimension to fix.
        dim: String,
        /// Coordinate to fix it at.
        index: i64,
    },
    /// Reorder the dimension fields (array transpose / axis permutation).
    Permute {
        /// Input plan.
        input: Box<Plan>,
        /// The dimensions in their new order (must be a permutation of the
        /// input's dimensions).
        order: Vec<String>,
    },
    /// Moving-window ("stencil") aggregate over the dimensions: for each
    /// cell, aggregate the value attributes over the box
    /// `coord[d] - radius[d] ..= coord[d] + radius[d]` per dimension.
    Window {
        /// Input plan.
        input: Box<Plan>,
        /// `(dimension, radius)` per dimension (all dims must be listed).
        radii: Vec<(String, i64)>,
        /// Aggregates over the window's cells.
        aggs: Vec<AggExpr>,
    },
    /// Densify: materialize every cell of the bounded dimension space,
    /// filling absent cells' value attributes with `fill`.
    Fill {
        /// Input plan.
        input: Box<Plan>,
        /// Fill value for absent cells (applied to every value attribute,
        /// cast to the attribute type).
        fill: Value,
    },
    /// Retag: turn the named `i64` value columns into dimensions
    /// (table → array).
    TagDims {
        /// Input plan.
        input: Box<Plan>,
        /// `(column, optional extent)` to tag.
        dims: Vec<(String, Option<(i64, i64)>)>,
    },
    /// Retag: demote all dimensions to plain value columns (array → table).
    UntagDims {
        /// Input plan.
        input: Box<Plan>,
    },
    /// Intent: matrix multiply. Inputs must be 2-D arrays with one `f64`
    /// value attribute; contraction is over left dim 2 / right dim 1.
    /// Output dims are named after left dim 1 and right dim 2 (the latter
    /// suffixed if names collide), value attribute `v`.
    MatMul {
        /// Left matrix.
        left: Box<Plan>,
        /// Right matrix.
        right: Box<Plan>,
    },
    /// Intent: cell-wise binary operation between two arrays with
    /// identical dimensions and one numeric value attribute each.
    /// Output keeps the left's dims, value attribute `v`.
    ElemWise {
        /// Operator applied per cell.
        op: BinOp,
        /// Left array.
        left: Box<Plan>,
        /// Right array.
        right: Box<Plan>,
    },
    /// Intent: graph analytics.
    Graph(GraphOp),
    /// Control iteration: evaluate `init`, then repeatedly evaluate `body`
    /// (in which [`Plan::IterState`] denotes the current state) until the
    /// state converges or `max_iters` is reached.
    ///
    /// Convergence: with `epsilon = Some(e)`, the L1 distance between
    /// successive states' float attributes (matched on the remaining
    /// columns) must fall below `e`; with `None`, successive states must
    /// be bag-equal. See [`crate::convergence`].
    Iterate {
        /// Initial state.
        init: Box<Plan>,
        /// Loop body; must have the same schema as `init`.
        body: Box<Plan>,
        /// Iteration bound (safety net; exceeding it is an error).
        max_iters: usize,
        /// Convergence threshold, or `None` for exact fixpoint.
        epsilon: Option<f64>,
    },
}

/// The operator taxonomy used for capability declarations and the
/// coverage/translatability experiments (T1/T2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Catalog scan.
    Scan,
    /// Literal rows.
    Values,
    /// Integer range generator.
    Range,
    /// Loop-state leaf.
    IterState,
    /// Filter.
    Select,
    /// Projection.
    Project,
    /// Join.
    Join,
    /// Grouped aggregation.
    Aggregate,
    /// Bag union.
    Union,
    /// Duplicate elimination.
    Distinct,
    /// Sort.
    Sort,
    /// Skip/fetch.
    Limit,
    /// Column rename.
    Rename,
    /// Dimension range restriction.
    Dice,
    /// Dimension slice.
    SliceAt,
    /// Dimension permutation.
    Permute,
    /// Stencil aggregate.
    Window,
    /// Densification.
    Fill,
    /// Table→array retag.
    TagDims,
    /// Array→table retag.
    UntagDims,
    /// Matrix multiply intent.
    MatMul,
    /// Cell-wise zip intent.
    ElemWise,
    /// PageRank intent.
    PageRank,
    /// Connected-components intent.
    ConnectedComponents,
    /// Triangle-count intent.
    TriangleCount,
    /// Degree intent.
    Degrees,
    /// BFS-levels intent.
    BfsLevels,
    /// Control iteration.
    Iterate,
}

impl OpKind {
    /// Every operator kind, in a stable order (drives T1/T2 tables).
    pub const ALL: [OpKind; 28] = [
        OpKind::Scan,
        OpKind::Values,
        OpKind::Range,
        OpKind::IterState,
        OpKind::Select,
        OpKind::Project,
        OpKind::Join,
        OpKind::Aggregate,
        OpKind::Union,
        OpKind::Distinct,
        OpKind::Sort,
        OpKind::Limit,
        OpKind::Rename,
        OpKind::Dice,
        OpKind::SliceAt,
        OpKind::Permute,
        OpKind::Window,
        OpKind::Fill,
        OpKind::TagDims,
        OpKind::UntagDims,
        OpKind::MatMul,
        OpKind::ElemWise,
        OpKind::PageRank,
        OpKind::ConnectedComponents,
        OpKind::TriangleCount,
        OpKind::Degrees,
        OpKind::BfsLevels,
        OpKind::Iterate,
    ];

    /// The base (non-intent) relational/array operators — the target
    /// language of lowering.
    pub fn is_base(self) -> bool {
        !self.is_intent()
    }

    /// Intent operators: carry high-level meaning a specialized back end
    /// can execute natively.
    pub fn is_intent(self) -> bool {
        matches!(
            self,
            OpKind::MatMul
                | OpKind::ElemWise
                | OpKind::Window
                | OpKind::Fill
                | OpKind::SliceAt
                | OpKind::Permute
                | OpKind::PageRank
                | OpKind::ConnectedComponents
                | OpKind::TriangleCount
                | OpKind::Degrees
                | OpKind::BfsLevels
        )
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Scan => "scan",
            OpKind::Values => "values",
            OpKind::Range => "range",
            OpKind::IterState => "iter_state",
            OpKind::Select => "select",
            OpKind::Project => "project",
            OpKind::Join => "join",
            OpKind::Aggregate => "aggregate",
            OpKind::Union => "union",
            OpKind::Distinct => "distinct",
            OpKind::Sort => "sort",
            OpKind::Limit => "limit",
            OpKind::Rename => "rename",
            OpKind::Dice => "dice",
            OpKind::SliceAt => "slice_at",
            OpKind::Permute => "permute",
            OpKind::Window => "window",
            OpKind::Fill => "fill",
            OpKind::TagDims => "tag_dims",
            OpKind::UntagDims => "untag_dims",
            OpKind::MatMul => "matmul",
            OpKind::ElemWise => "elemwise",
            OpKind::PageRank => "page_rank",
            OpKind::ConnectedComponents => "connected_components",
            OpKind::TriangleCount => "triangle_count",
            OpKind::Degrees => "degrees",
            OpKind::BfsLevels => "bfs_levels",
            OpKind::Iterate => "iterate",
        }
    }
}

impl Plan {
    /// This node's operator kind.
    pub fn op_kind(&self) -> OpKind {
        match self {
            Plan::Scan { .. } => OpKind::Scan,
            Plan::Values { .. } => OpKind::Values,
            Plan::Range { .. } => OpKind::Range,
            Plan::IterState { .. } => OpKind::IterState,
            Plan::Select { .. } => OpKind::Select,
            Plan::Project { .. } => OpKind::Project,
            Plan::Join { .. } => OpKind::Join,
            Plan::Aggregate { .. } => OpKind::Aggregate,
            Plan::Union { .. } => OpKind::Union,
            Plan::Distinct { .. } => OpKind::Distinct,
            Plan::Sort { .. } => OpKind::Sort,
            Plan::Limit { .. } => OpKind::Limit,
            Plan::Rename { .. } => OpKind::Rename,
            Plan::Dice { .. } => OpKind::Dice,
            Plan::SliceAt { .. } => OpKind::SliceAt,
            Plan::Permute { .. } => OpKind::Permute,
            Plan::Window { .. } => OpKind::Window,
            Plan::Fill { .. } => OpKind::Fill,
            Plan::TagDims { .. } => OpKind::TagDims,
            Plan::UntagDims { .. } => OpKind::UntagDims,
            Plan::MatMul { .. } => OpKind::MatMul,
            Plan::ElemWise { .. } => OpKind::ElemWise,
            Plan::Graph(g) => match g {
                GraphOp::PageRank { .. } => OpKind::PageRank,
                GraphOp::ConnectedComponents { .. } => OpKind::ConnectedComponents,
                GraphOp::TriangleCount { .. } => OpKind::TriangleCount,
                GraphOp::Degrees { .. } => OpKind::Degrees,
                GraphOp::BfsLevels { .. } => OpKind::BfsLevels,
            },
            Plan::Iterate { .. } => OpKind::Iterate,
        }
    }

    /// Immediate child plans, left to right.
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. }
            | Plan::Values { .. }
            | Plan::Range { .. }
            | Plan::IterState { .. } => vec![],
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Distinct { input }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Rename { input, .. }
            | Plan::Dice { input, .. }
            | Plan::SliceAt { input, .. }
            | Plan::Permute { input, .. }
            | Plan::Window { input, .. }
            | Plan::Fill { input, .. }
            | Plan::TagDims { input, .. }
            | Plan::UntagDims { input } => vec![input],
            Plan::Join { left, right, .. }
            | Plan::Union { left, right }
            | Plan::MatMul { left, right }
            | Plan::ElemWise { left, right, .. } => vec![left, right],
            Plan::Graph(g) => vec![g.edges()],
            Plan::Iterate { init, body, .. } => vec![init, body],
        }
    }

    /// Rebuild this node with new children (same arity and order as
    /// [`Plan::children`]). Used by the optimizer's generic rewriters.
    pub fn with_children(&self, mut children: Vec<Plan>) -> Plan {
        assert_eq!(
            children.len(),
            self.children().len(),
            "with_children arity mismatch for {}",
            self.op_kind().name()
        );
        let mut next = || Box::new(children.remove(0));
        match self {
            Plan::Scan { .. }
            | Plan::Values { .. }
            | Plan::Range { .. }
            | Plan::IterState { .. } => self.clone(),
            Plan::Select { predicate, .. } => Plan::Select {
                input: next(),
                predicate: predicate.clone(),
            },
            Plan::Project { exprs, .. } => Plan::Project {
                input: next(),
                exprs: exprs.clone(),
            },
            Plan::Aggregate { group_by, aggs, .. } => Plan::Aggregate {
                input: next(),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            },
            Plan::Distinct { .. } => Plan::Distinct { input: next() },
            Plan::Sort { keys, .. } => Plan::Sort {
                input: next(),
                keys: keys.clone(),
            },
            Plan::Limit { skip, fetch, .. } => Plan::Limit {
                input: next(),
                skip: *skip,
                fetch: *fetch,
            },
            Plan::Rename { mapping, .. } => Plan::Rename {
                input: next(),
                mapping: mapping.clone(),
            },
            Plan::Dice { ranges, .. } => Plan::Dice {
                input: next(),
                ranges: ranges.clone(),
            },
            Plan::SliceAt { dim, index, .. } => Plan::SliceAt {
                input: next(),
                dim: dim.clone(),
                index: *index,
            },
            Plan::Permute { order, .. } => Plan::Permute {
                input: next(),
                order: order.clone(),
            },
            Plan::Window { radii, aggs, .. } => Plan::Window {
                input: next(),
                radii: radii.clone(),
                aggs: aggs.clone(),
            },
            Plan::Fill { fill, .. } => Plan::Fill {
                input: next(),
                fill: fill.clone(),
            },
            Plan::TagDims { dims, .. } => Plan::TagDims {
                input: next(),
                dims: dims.clone(),
            },
            Plan::UntagDims { .. } => Plan::UntagDims { input: next() },
            Plan::Join {
                on,
                join_type,
                suffix,
                ..
            } => Plan::Join {
                left: next(),
                right: next(),
                on: on.clone(),
                join_type: *join_type,
                suffix: suffix.clone(),
            },
            Plan::Union { .. } => Plan::Union {
                left: next(),
                right: next(),
            },
            Plan::MatMul { .. } => Plan::MatMul {
                left: next(),
                right: next(),
            },
            Plan::ElemWise { op, .. } => Plan::ElemWise {
                op: *op,
                left: next(),
                right: next(),
            },
            Plan::Graph(g) => Plan::Graph(match g {
                GraphOp::PageRank {
                    damping,
                    max_iters,
                    epsilon,
                    ..
                } => GraphOp::PageRank {
                    edges: next(),
                    damping: *damping,
                    max_iters: *max_iters,
                    epsilon: *epsilon,
                },
                GraphOp::ConnectedComponents { max_iters, .. } => GraphOp::ConnectedComponents {
                    edges: next(),
                    max_iters: *max_iters,
                },
                GraphOp::TriangleCount { .. } => GraphOp::TriangleCount { edges: next() },
                GraphOp::Degrees { .. } => GraphOp::Degrees { edges: next() },
                GraphOp::BfsLevels { source, .. } => GraphOp::BfsLevels {
                    edges: next(),
                    source: *source,
                },
            }),
            Plan::Iterate {
                max_iters, epsilon, ..
            } => Plan::Iterate {
                init: next(),
                body: next(),
                max_iters: *max_iters,
                epsilon: *epsilon,
            },
        }
    }

    /// Bottom-up transform: rewrite children first, then apply `f` to the
    /// rebuilt node.
    pub fn transform_up(&self, f: &impl Fn(Plan) -> Plan) -> Plan {
        let children = self
            .children()
            .into_iter()
            .map(|c| c.transform_up(f))
            .collect();
        f(self.with_children(children))
    }

    /// Count of nodes in the tree.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// All operator kinds appearing in the tree.
    pub fn op_kinds(&self) -> Vec<OpKind> {
        let mut out = vec![self.op_kind()];
        for c in self.children() {
            out.extend(c.op_kinds());
        }
        out
    }

    /// True if any node in the tree is an [`Plan::IterState`] leaf.
    pub fn references_iter_state(&self) -> bool {
        self.op_kind() == OpKind::IterState
            || self.children().iter().any(|c| c.references_iter_state())
    }

    /// Names of all datasets scanned anywhere in the tree.
    pub fn scanned_datasets(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Plan::Scan { dataset, .. } = self {
            out.push(dataset.clone());
        }
        for c in self.children() {
            for d in c.scanned_datasets() {
                if !out.contains(&d) {
                    out.push(d);
                }
            }
        }
        out
    }
}

// --- constructors (ergonomics for tests and the lang crate) ---------------

impl Plan {
    /// A scan leaf.
    pub fn scan(dataset: impl Into<String>, schema: Schema) -> Plan {
        Plan::Scan {
            dataset: dataset.into(),
            schema,
        }
    }

    /// Boxed self (builder plumbing).
    pub fn boxed(self) -> Box<Plan> {
        Box::new(self)
    }

    /// Filter by a predicate.
    pub fn select(self, predicate: Expr) -> Plan {
        Plan::Select {
            input: self.boxed(),
            predicate,
        }
    }

    /// Project named expressions.
    pub fn project(self, exprs: Vec<(&str, Expr)>) -> Plan {
        Plan::Project {
            input: self.boxed(),
            exprs: exprs.into_iter().map(|(n, e)| (n.to_string(), e)).collect(),
        }
    }

    /// Inner equi-join on `(left, right)` column pairs.
    pub fn join(self, right: Plan, on: Vec<(&str, &str)>) -> Plan {
        self.join_as(right, on, JoinType::Inner)
    }

    /// Join with an explicit type.
    pub fn join_as(self, right: Plan, on: Vec<(&str, &str)>, join_type: JoinType) -> Plan {
        Plan::Join {
            left: self.boxed(),
            right: right.boxed(),
            on: on
                .into_iter()
                .map(|(l, r)| (l.to_string(), r.to_string()))
                .collect(),
            join_type,
            suffix: "_r".to_string(),
        }
    }

    /// Grouped aggregation.
    pub fn aggregate(self, group_by: Vec<&str>, aggs: Vec<AggExpr>) -> Plan {
        Plan::Aggregate {
            input: self.boxed(),
            group_by: group_by.into_iter().map(str::to_string).collect(),
            aggs,
        }
    }

    /// Sort ascending by the given columns.
    pub fn sort_by(self, keys: Vec<&str>) -> Plan {
        Plan::Sort {
            input: self.boxed(),
            keys: keys.into_iter().map(|k| (k.to_string(), false)).collect(),
        }
    }

    /// Keep at most `n` rows.
    pub fn limit(self, n: usize) -> Plan {
        Plan::Limit {
            input: self.boxed(),
            skip: 0,
            fetch: Some(n),
        }
    }

    /// Deduplicate.
    pub fn distinct(self) -> Plan {
        Plan::Distinct {
            input: self.boxed(),
        }
    }

    /// Bag union.
    pub fn union(self, other: Plan) -> Plan {
        Plan::Union {
            left: self.boxed(),
            right: other.boxed(),
        }
    }

    /// Rename columns.
    pub fn rename(self, mapping: Vec<(&str, &str)>) -> Plan {
        Plan::Rename {
            input: self.boxed(),
            mapping: mapping
                .into_iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect(),
        }
    }

    /// Matrix multiply intent.
    pub fn matmul(self, right: Plan) -> Plan {
        Plan::MatMul {
            left: self.boxed(),
            right: right.boxed(),
        }
    }

    /// Cell-wise zip intent.
    pub fn elemwise(self, op: BinOp, right: Plan) -> Plan {
        Plan::ElemWise {
            op,
            left: self.boxed(),
            right: right.boxed(),
        }
    }
}

// --- display ---------------------------------------------------------------

impl Plan {
    fn fmt_node(&self) -> String {
        match self {
            Plan::Scan { dataset, .. } => format!("scan {dataset}"),
            Plan::Values { rows, .. } => format!("values [{} rows]", rows.len()),
            Plan::Range { name, lo, hi } => format!("range {name} in [{lo}, {hi})"),
            Plan::IterState { .. } => "iter_state".to_string(),
            Plan::Select { predicate, .. } => format!("select {predicate}"),
            Plan::Project { exprs, .. } => {
                let items: Vec<String> = exprs
                    .iter()
                    .map(|(n, e)| {
                        if matches!(e, Expr::Column(c) if c == n) {
                            n.clone()
                        } else {
                            format!("{e} as {n}")
                        }
                    })
                    .collect();
                format!("project {}", items.join(", "))
            }
            Plan::Join { on, join_type, .. } => {
                let conds: Vec<String> = on.iter().map(|(l, r)| format!("{l} = {r}")).collect();
                if conds.is_empty() {
                    format!("{} cross join", join_type.name())
                } else {
                    format!("{} join on {}", join_type.name(), conds.join(" and "))
                }
            }
            Plan::Aggregate { group_by, aggs, .. } => {
                let aggs: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                if group_by.is_empty() {
                    format!("aggregate {}", aggs.join(", "))
                } else {
                    format!(
                        "aggregate by {} -> {}",
                        group_by.join(", "),
                        aggs.join(", ")
                    )
                }
            }
            Plan::Union { .. } => "union".to_string(),
            Plan::Distinct { .. } => "distinct".to_string(),
            Plan::Sort { keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(k, d)| format!("{k}{}", if *d { " desc" } else { "" }))
                    .collect();
                format!("sort by {}", ks.join(", "))
            }
            Plan::Limit { skip, fetch, .. } => match fetch {
                Some(n) => format!("limit {n} skip {skip}"),
                None => format!("skip {skip}"),
            },
            Plan::Rename { mapping, .. } => {
                let ms: Vec<String> = mapping.iter().map(|(a, b)| format!("{a} -> {b}")).collect();
                format!("rename {}", ms.join(", "))
            }
            Plan::Dice { ranges, .. } => {
                let rs: Vec<String> = ranges
                    .iter()
                    .map(|(d, lo, hi)| format!("{d} in [{lo}, {hi})"))
                    .collect();
                format!("dice {}", rs.join(", "))
            }
            Plan::SliceAt { dim, index, .. } => format!("slice {dim} = {index}"),
            Plan::Permute { order, .. } => format!("permute [{}]", order.join(", ")),
            Plan::Window { radii, aggs, .. } => {
                let rs: Vec<String> = radii.iter().map(|(d, r)| format!("{d}±{r}")).collect();
                let as_: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                format!("window {} -> {}", rs.join(", "), as_.join(", "))
            }
            Plan::Fill { fill, .. } => format!("fill {fill}"),
            Plan::TagDims { dims, .. } => {
                let ds: Vec<String> = dims
                    .iter()
                    .map(|(d, e)| match e {
                        Some((lo, hi)) => format!("{d}=[{lo},{hi})"),
                        None => d.clone(),
                    })
                    .collect();
                format!("tag_dims {}", ds.join(", "))
            }
            Plan::UntagDims { .. } => "untag_dims".to_string(),
            Plan::MatMul { .. } => "matmul".to_string(),
            Plan::ElemWise { op, .. } => format!("elemwise {}", op.symbol()),
            Plan::Graph(g) => match g {
                GraphOp::PageRank {
                    damping,
                    max_iters,
                    epsilon,
                    ..
                } => format!("page_rank d={damping} iters<={max_iters} eps={epsilon}"),
                GraphOp::ConnectedComponents { max_iters, .. } => {
                    format!("connected_components iters<={max_iters}")
                }
                GraphOp::TriangleCount { .. } => "triangle_count".to_string(),
                GraphOp::Degrees { .. } => "degrees".to_string(),
                GraphOp::BfsLevels { source, .. } => format!("bfs_levels from {source}"),
            },
            Plan::Iterate {
                max_iters, epsilon, ..
            } => match epsilon {
                Some(e) => format!("iterate until |Δ| < {e}, max {max_iters}"),
                None => format!("iterate to fixpoint, max {max_iters}"),
            },
        }
    }

    fn fmt_tree(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        writeln!(f, "{}{}", "  ".repeat(indent), self.fmt_node())?;
        for c in self.children() {
            c.fmt_tree(f, indent + 1)?;
        }
        Ok(())
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_tree(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::expr::{col, lit};
    use bda_storage::{DataType, Field};

    fn s() -> Schema {
        Schema::new(vec![
            Field::value("k", DataType::Int64),
            Field::value("v", DataType::Float64),
        ])
        .unwrap()
    }

    fn sample() -> Plan {
        Plan::scan("t", s())
            .select(col("k").gt(lit(1i64)))
            .aggregate(
                vec!["k"],
                vec![AggExpr::new(AggFunc::Sum, col("v"), "total")],
            )
            .sort_by(vec!["k"])
            .limit(10)
    }

    #[test]
    fn children_and_counts() {
        let p = sample();
        assert_eq!(p.node_count(), 5);
        assert_eq!(p.children().len(), 1);
        assert_eq!(p.op_kind(), OpKind::Limit);
        let kinds = p.op_kinds();
        assert!(kinds.contains(&OpKind::Scan) && kinds.contains(&OpKind::Aggregate));
    }

    #[test]
    fn with_children_roundtrip() {
        let p = sample();
        let rebuilt = p.with_children(p.children().into_iter().cloned().collect());
        assert_eq!(rebuilt, p);
    }

    #[test]
    fn transform_up_rewrites() {
        // Remove all Limit nodes.
        let p = sample();
        let no_limit = p.transform_up(&|n| match n {
            Plan::Limit { input, .. } => *input,
            other => other,
        });
        assert!(!no_limit.op_kinds().contains(&OpKind::Limit));
        assert_eq!(no_limit.node_count(), 4);
    }

    #[test]
    fn scanned_datasets_deduped() {
        let p = Plan::scan("a", s()).join(
            Plan::scan("a", s()).union(Plan::scan("b", s())),
            vec![("k", "k")],
        );
        assert_eq!(p.scanned_datasets(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn iter_state_detection() {
        let body = Plan::IterState { schema: s() }.select(lit(true));
        assert!(body.references_iter_state());
        assert!(!sample().references_iter_state());
    }

    #[test]
    fn intent_classification() {
        assert!(OpKind::MatMul.is_intent());
        assert!(OpKind::PageRank.is_intent());
        assert!(OpKind::Join.is_base());
        // Every op is exactly one of base/intent.
        for k in OpKind::ALL {
            assert!(k.is_base() != k.is_intent(), "{k:?}");
        }
    }

    #[test]
    fn display_is_tree_shaped() {
        let out = sample().to_string();
        assert!(out.contains("limit 10"), "{out}");
        assert!(out.contains("\n    aggregate by k"), "{out}");
        assert!(out.contains("scan t"), "{out}");
    }
}
