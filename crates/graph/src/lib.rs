//! # `bda-graph`: "GraphStore", the graph-analytics back-end Provider
//!
//! A vertex-centric graph engine: edge lists compile to CSR adjacency and
//! the graph *intent* operators (`PageRank`, `ConnectedComponents`,
//! `TriangleCount`, `Degrees`) run natively — including the paper's
//! "control iteration" executed **inside** the server, so a federated
//! PageRank costs one round trip instead of one per iteration
//! (experiment F4).
//!
//! Deliberately narrow capabilities: scans, literal edge lists, and the
//! graph intents. Everything else must come from (or go to) another
//! provider.

pub mod csr;

use bda_core::engine::{self, Datasets};
use bda_core::infer::{
    bfs_schema, components_schema, degrees_schema, pagerank_schema, triangles_schema,
};
use bda_core::provider::trace_op;
use bda_core::reference::edge_list;
use bda_core::{CapabilitySet, CoreError, GraphOp, OpKind, Plan, Provider};
use bda_storage::{DataSet, Row, Schema, Value};

pub use csr::CsrGraph;

/// The graph engine.
pub struct GraphEngine {
    name: String,
    datasets: Datasets,
}

impl GraphEngine {
    /// An empty engine named `name`.
    pub fn new(name: impl Into<String>) -> GraphEngine {
        GraphEngine {
            name: name.into(),
            datasets: Datasets::new(),
        }
    }

    /// The capability set of every graph engine instance.
    pub fn static_capabilities() -> CapabilitySet {
        CapabilitySet::from_ops(&[
            OpKind::Scan,
            OpKind::Values,
            OpKind::PageRank,
            OpKind::ConnectedComponents,
            OpKind::TriangleCount,
            OpKind::Degrees,
            OpKind::BfsLevels,
        ])
    }

    fn eval(&self, plan: &Plan) -> Result<DataSet, CoreError> {
        trace_op(plan, || self.eval_node(plan))
    }

    fn eval_node(&self, plan: &Plan) -> Result<DataSet, CoreError> {
        match plan {
            Plan::Scan { dataset, schema } => {
                engine::scan(self.datasets.read().get(dataset), dataset, schema).cloned()
            }
            Plan::Values { schema, rows } => engine::values(schema, rows),
            Plan::Graph(g) => {
                bda_core::infer_schema(plan)?;
                let edges = self.eval(g.edges())?;
                let (es, _) = edge_list(&edges)?;
                let graph = CsrGraph::from_edges(&es);
                self.run_graph_op(g, &graph)
            }
            other => Err(CoreError::Unsupported {
                provider: self.name.clone(),
                op: other.op_kind().name().into(),
            }),
        }
    }

    fn run_graph_op(&self, g: &GraphOp, graph: &CsrGraph) -> Result<DataSet, CoreError> {
        match g {
            GraphOp::PageRank {
                damping,
                max_iters,
                epsilon,
                ..
            } => {
                let (ranks, _) = graph.pagerank(*damping, *max_iters, *epsilon);
                let rows: Vec<Row> = graph
                    .vertices()
                    .iter()
                    .zip(ranks)
                    .map(|(&v, r)| Row(vec![Value::Int(v), Value::Float(r)]))
                    .collect();
                DataSet::from_rows(pagerank_schema(), &rows).map_err(Into::into)
            }
            GraphOp::ConnectedComponents { .. } => {
                let comp = graph.connected_components();
                let rows: Vec<Row> = graph
                    .vertices()
                    .iter()
                    .zip(comp)
                    .map(|(&v, c)| Row(vec![Value::Int(v), Value::Int(c)]))
                    .collect();
                DataSet::from_rows(components_schema(), &rows).map_err(Into::into)
            }
            GraphOp::TriangleCount { .. } => {
                let n = graph.triangle_count();
                DataSet::from_rows(triangles_schema(), &[Row(vec![Value::Int(n)])])
                    .map_err(Into::into)
            }
            GraphOp::Degrees { .. } => {
                let rows: Vec<Row> = (0..graph.num_vertices())
                    .map(|v| {
                        Row(vec![
                            Value::Int(graph.vertices()[v]),
                            Value::Int(graph.out_degree(v) as i64),
                        ])
                    })
                    .collect();
                DataSet::from_rows(degrees_schema(), &rows).map_err(Into::into)
            }
            GraphOp::BfsLevels { source, .. } => {
                let rows: Vec<Row> = graph
                    .bfs_levels(*source)
                    .into_iter()
                    .filter_map(|(v, l)| l.map(|l| Row(vec![Value::Int(v), Value::Int(l as i64)])))
                    .collect();
                DataSet::from_rows(bfs_schema(), &rows).map_err(Into::into)
            }
        }
    }
}

impl Provider for GraphEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn capabilities(&self) -> CapabilitySet {
        Self::static_capabilities()
    }

    fn catalog(&self) -> Vec<(String, Schema)> {
        self.datasets.catalog()
    }

    fn execute(&self, plan: &Plan) -> Result<DataSet, CoreError> {
        self.capabilities().check(&self.name, plan)?;
        self.eval(plan)
    }

    fn store(&self, name: &str, data: DataSet) -> Result<(), CoreError> {
        self.datasets.insert(name, data);
        Ok(())
    }

    fn remove(&self, name: &str) {
        self.datasets.remove(name);
    }

    fn row_count_of(&self, name: &str) -> Option<usize> {
        self.datasets.row_count_of(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::infer::edge_schema;
    use bda_core::reference::evaluate;
    use std::collections::HashMap;

    fn edges() -> DataSet {
        let rows: Vec<Row> = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 2), (4, 0), (0, 4)]
            .iter()
            .map(|&(s, d)| Row(vec![Value::Int(s), Value::Int(d)]))
            .collect();
        DataSet::from_rows(edge_schema(), &rows).unwrap()
    }

    fn engine() -> GraphEngine {
        let e = GraphEngine::new("graph");
        e.store("edges", edges()).unwrap();
        e
    }

    fn check_against_reference(g: GraphOp) {
        let e = engine();
        let plan = Plan::Graph(g);
        let ours = e.execute(&plan).unwrap();
        let mut src = HashMap::new();
        src.insert("edges".to_string(), edges());
        let oracle = evaluate(&plan, &src).unwrap();
        assert_eq!(ours.schema(), oracle.schema());
        // Float tolerance for pagerank, exact otherwise.
        let a = ours.sorted_rows().unwrap();
        let b = oracle.sorted_rows().unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            for (vx, vy) in x.0.iter().zip(&y.0) {
                match (vx, vy) {
                    (Value::Float(fx), Value::Float(fy)) => {
                        assert!((fx - fy).abs() < 1e-9, "{fx} vs {fy}")
                    }
                    _ => assert_eq!(vx, vy),
                }
            }
        }
    }

    #[test]
    fn pagerank_matches_reference() {
        check_against_reference(GraphOp::PageRank {
            edges: Plan::scan("edges", edge_schema()).boxed(),
            damping: 0.85,
            max_iters: 100,
            epsilon: 1e-12,
        });
    }

    #[test]
    fn components_match_reference() {
        check_against_reference(GraphOp::ConnectedComponents {
            edges: Plan::scan("edges", edge_schema()).boxed(),
            max_iters: 50,
        });
    }

    #[test]
    fn triangles_and_degrees_match_reference() {
        check_against_reference(GraphOp::TriangleCount {
            edges: Plan::scan("edges", edge_schema()).boxed(),
        });
        check_against_reference(GraphOp::Degrees {
            edges: Plan::scan("edges", edge_schema()).boxed(),
        });
    }

    #[test]
    fn bfs_levels_match_reference() {
        check_against_reference(GraphOp::BfsLevels {
            edges: Plan::scan("edges", edge_schema()).boxed(),
            source: 4,
        });
        // Unreachable source yields an empty result on both paths.
        check_against_reference(GraphOp::BfsLevels {
            edges: Plan::scan("edges", edge_schema()).boxed(),
            source: 12345,
        });
    }

    #[test]
    fn rejects_relational_plans() {
        let e = engine();
        let plan =
            Plan::scan("edges", edge_schema()).select(bda_core::col("src").gt(bda_core::lit(0i64)));
        assert!(matches!(
            e.execute(&plan),
            Err(CoreError::Unsupported { .. })
        ));
    }
}
