//! Binary encoding of plans and expressions.
//!
//! The paper highlights that LINQ "can pass queries to Providers in the
//! form of an expression tree, rather than as a series of remote function
//! calls". This codec is that capability: a whole plan tree serializes
//! into one message, so a pipeline of k operators costs one round trip
//! instead of k (experiment F3 measures exactly this difference).
//!
//! Bytes are written and read through [`bda_storage::wire`]'s
//! [`Writer`]/[`Reader`] pair, and malformed input is a
//! [`CoreError::Storage`] wrapping [`StorageError::Corrupt`]. Every plan
//! node and every expression node takes one level of the reader's nesting
//! budget ([`bda_storage::wire::MAX_NESTING`]), so a deep message is
//! refused instead of overflowing the decoding thread's stack.
//!
//! Decoders build each node with a struct literal whose fields are read
//! in the order they are written there, which must be the wire order.

use bda_storage::wire::{decode_schema, decode_value, encode_schema, encode_value, Reader, Writer};
use bda_storage::{DataType, Row, StorageError};

use crate::agg::{AggExpr, AggFunc};
use crate::error::CoreError;
use crate::expr::{BinOp, Expr, UnOp};
use crate::plan::{GraphOp, JoinType, Plan};

/// Result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/// Encode an expression.
pub fn encode_expr(e: &Expr, w: &mut Writer) {
    match e {
        Expr::Column(name) => {
            w.u8(0);
            w.str(name);
        }
        Expr::Literal(v) => {
            w.u8(1);
            encode_value(v, w);
        }
        Expr::Binary { op, left, right } => {
            w.u8(2);
            w.tag(&BinOp::ALL, op);
            encode_expr(left, w);
            encode_expr(right, w);
        }
        Expr::Unary { op, input } => {
            w.u8(3);
            w.tag(&UnOp::ALL, op);
            encode_expr(input, w);
        }
        Expr::Cast { input, to } => {
            w.u8(4);
            w.u8(to.wire_tag());
            encode_expr(input, w);
        }
        Expr::Coalesce(args) => {
            w.u8(5);
            w.list(args, |w, a| encode_expr(a, w));
        }
        Expr::Case {
            branches,
            otherwise,
        } => {
            w.u8(6);
            w.list(branches, |w, (when, then)| {
                encode_expr(when, w);
                encode_expr(then, w);
            });
            w.opt(otherwise.as_deref(), |w, e| encode_expr(e, w));
        }
    }
}

/// Decode an expression.
pub fn decode_expr(r: &mut Reader<'_>) -> Result<Expr> {
    r.nested("expression", |r| {
        Ok(match r.u8("expr tag")? {
            0 => Expr::Column(r.string("column name")?),
            1 => Expr::Literal(decode_value(r)?),
            2 => Expr::Binary {
                op: r.tag(&BinOp::ALL, "binop")?,
                left: Box::new(decode_expr(r)?),
                right: Box::new(decode_expr(r)?),
            },
            3 => Expr::Unary {
                op: r.tag(&UnOp::ALL, "unop")?,
                input: Box::new(decode_expr(r)?),
            },
            4 => Expr::Cast {
                to: r.tag(&DataType::ALL, "cast dtype")?,
                input: Box::new(decode_expr(r)?),
            },
            // The smallest expression is two bytes (a null literal).
            5 => Expr::Coalesce(r.list(2, "coalesce arity", decode_expr)?),
            6 => Expr::Case {
                branches: r.list(4, "case arity", |r| {
                    Ok::<_, CoreError>((decode_expr(r)?, decode_expr(r)?))
                })?,
                otherwise: r.opt("case else", |r| decode_expr(r).map(Box::new))?,
            },
            t => return Err(StorageError::Corrupt(format!("bad expr tag {t}")).into()),
        })
    })
}

fn encode_agg(a: &AggExpr, w: &mut Writer) {
    w.tag(&AggFunc::ALL, &a.func);
    w.opt(a.arg.as_ref(), |w, e| encode_expr(e, w));
    w.str(&a.name);
}

fn decode_agg(r: &mut Reader<'_>) -> Result<AggExpr> {
    Ok(AggExpr {
        func: r.tag(&AggFunc::ALL, "agg")?,
        arg: r.opt("agg arg", decode_expr)?,
        name: r.string("agg name")?,
    })
}

fn encode_rows(rows: &[Row], w: &mut Writer) {
    w.list(rows, |w, row| w.list(&row.0, |w, v| encode_value(v, w)));
}

/// A row is at least its arity prefix; a value at least its tag byte.
fn decode_rows(r: &mut Reader<'_>) -> bda_storage::Result<Vec<Row>> {
    r.list(4, "row count", |r| {
        r.list(1, "row arity", decode_value).map(Row)
    })
}

fn encode_names(names: &[String], w: &mut Writer) {
    w.list(names, |w, n| w.str(n));
}

fn decode_names(r: &mut Reader<'_>, what: &str) -> bda_storage::Result<Vec<String>> {
    r.list(4, what, |r| r.string(what))
}

/// Name pairs (join keys, renames): two string prefixes each.
fn encode_name_pairs(pairs: &[(String, String)], w: &mut Writer) {
    w.list(pairs, |w, (a, b)| {
        w.str(a);
        w.str(b);
    });
}

fn decode_name_pairs(r: &mut Reader<'_>, what: &str) -> bda_storage::Result<Vec<(String, String)>> {
    r.list(8, what, |r| Ok((r.string(what)?, r.string(what)?)))
}

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

/// Magic prefix for plan messages.
const PLAN_MAGIC: &[u8; 4] = b"BDAP";

/// Encode a full plan tree into a fresh buffer.
pub fn encode_plan(plan: &Plan) -> Vec<u8> {
    let mut w = Writer::with_capacity(256);
    w.bytes(PLAN_MAGIC);
    encode_plan_node(plan, &mut w);
    w.into_vec()
}

/// Decode a plan; consumes the whole input.
pub fn decode_plan(bytes: &[u8]) -> Result<Plan> {
    let mut r = Reader::new(bytes);
    r.magic(PLAN_MAGIC, "plan magic")?;
    let plan = decode_plan_node(&mut r)?;
    r.finish("plan")?;
    Ok(plan)
}

fn encode_plan_node(plan: &Plan, w: &mut Writer) {
    match plan {
        Plan::Scan { dataset, schema } => {
            w.u8(0);
            w.str(dataset);
            encode_schema(schema, w);
        }
        Plan::Values { schema, rows } => {
            w.u8(1);
            encode_schema(schema, w);
            encode_rows(rows, w);
        }
        Plan::Range { name, lo, hi } => {
            w.u8(2);
            w.str(name);
            w.i64(*lo);
            w.i64(*hi);
        }
        Plan::IterState { schema } => {
            w.u8(3);
            encode_schema(schema, w);
        }
        Plan::Select { input, predicate } => {
            w.u8(4);
            encode_expr(predicate, w);
            encode_plan_node(input, w);
        }
        Plan::Project { input, exprs } => {
            w.u8(5);
            w.list(exprs, |w, (n, e)| {
                w.str(n);
                encode_expr(e, w);
            });
            encode_plan_node(input, w);
        }
        Plan::Join {
            left,
            right,
            on,
            join_type,
            suffix,
        } => {
            w.u8(6);
            w.tag(&JoinType::ALL, join_type);
            w.str(suffix);
            encode_name_pairs(on, w);
            encode_plan_node(left, w);
            encode_plan_node(right, w);
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            w.u8(7);
            encode_names(group_by, w);
            w.list(aggs, |w, a| encode_agg(a, w));
            encode_plan_node(input, w);
        }
        Plan::Union { left, right } => {
            w.u8(8);
            encode_plan_node(left, w);
            encode_plan_node(right, w);
        }
        Plan::Distinct { input } => {
            w.u8(9);
            encode_plan_node(input, w);
        }
        Plan::Sort { input, keys } => {
            w.u8(10);
            w.list(keys, |w, (k, d)| {
                w.str(k);
                w.u8(u8::from(*d));
            });
            encode_plan_node(input, w);
        }
        Plan::Limit { input, skip, fetch } => {
            w.u8(11);
            w.u64(*skip as u64);
            w.opt(*fetch, |w, n| w.u64(n as u64));
            encode_plan_node(input, w);
        }
        Plan::Rename { input, mapping } => {
            w.u8(12);
            encode_name_pairs(mapping, w);
            encode_plan_node(input, w);
        }
        Plan::Dice { input, ranges } => {
            w.u8(13);
            w.list(ranges, |w, (d, lo, hi)| {
                w.str(d);
                w.i64(*lo);
                w.i64(*hi);
            });
            encode_plan_node(input, w);
        }
        Plan::SliceAt { input, dim, index } => {
            w.u8(14);
            w.str(dim);
            w.i64(*index);
            encode_plan_node(input, w);
        }
        Plan::Permute { input, order } => {
            w.u8(15);
            encode_names(order, w);
            encode_plan_node(input, w);
        }
        Plan::Window { input, radii, aggs } => {
            w.u8(16);
            w.list(radii, |w, (d, rad)| {
                w.str(d);
                w.i64(*rad);
            });
            w.list(aggs, |w, a| encode_agg(a, w));
            encode_plan_node(input, w);
        }
        Plan::Fill { input, fill } => {
            w.u8(17);
            encode_value(fill, w);
            encode_plan_node(input, w);
        }
        Plan::TagDims { input, dims } => {
            w.u8(18);
            w.list(dims, |w, (d, extent)| {
                w.str(d);
                w.opt(*extent, |w, (lo, hi)| {
                    w.i64(lo);
                    w.i64(hi);
                });
            });
            encode_plan_node(input, w);
        }
        Plan::UntagDims { input } => {
            w.u8(19);
            encode_plan_node(input, w);
        }
        Plan::MatMul { left, right } => {
            w.u8(20);
            encode_plan_node(left, w);
            encode_plan_node(right, w);
        }
        Plan::ElemWise { op, left, right } => {
            w.u8(21);
            w.tag(&BinOp::ALL, op);
            encode_plan_node(left, w);
            encode_plan_node(right, w);
        }
        Plan::Graph(g) => {
            w.u8(22);
            match g {
                GraphOp::PageRank {
                    edges,
                    damping,
                    max_iters,
                    epsilon,
                } => {
                    w.u8(0);
                    w.f64(*damping);
                    w.u64(*max_iters as u64);
                    w.f64(*epsilon);
                    encode_plan_node(edges, w);
                }
                GraphOp::ConnectedComponents { edges, max_iters } => {
                    w.u8(1);
                    w.u64(*max_iters as u64);
                    encode_plan_node(edges, w);
                }
                GraphOp::TriangleCount { edges } => {
                    w.u8(2);
                    encode_plan_node(edges, w);
                }
                GraphOp::Degrees { edges } => {
                    w.u8(3);
                    encode_plan_node(edges, w);
                }
                GraphOp::BfsLevels { edges, source } => {
                    w.u8(4);
                    w.i64(*source);
                    encode_plan_node(edges, w);
                }
            }
        }
        Plan::Iterate {
            init,
            body,
            max_iters,
            epsilon,
        } => {
            w.u8(23);
            w.u64(*max_iters as u64);
            w.opt(*epsilon, Writer::f64);
            encode_plan_node(init, w);
            encode_plan_node(body, w);
        }
    }
}

fn decode_plan_node(r: &mut Reader<'_>) -> Result<Plan> {
    r.nested("plan", |r| {
        let input = |r: &mut Reader<'_>| decode_plan_node(r).map(Box::new);
        Ok(match r.u8("plan tag")? {
            0 => Plan::Scan {
                dataset: r.string("scan dataset")?,
                schema: decode_schema(r)?,
            },
            1 => Plan::Values {
                schema: decode_schema(r)?,
                rows: decode_rows(r)?,
            },
            2 => Plan::Range {
                name: r.string("range name")?,
                lo: r.i64("range lo")?,
                hi: r.i64("range hi")?,
            },
            3 => Plan::IterState {
                schema: decode_schema(r)?,
            },
            4 => Plan::Select {
                predicate: decode_expr(r)?,
                input: input(r)?,
            },
            5 => Plan::Project {
                // A name prefix and an expression.
                exprs: r.list(6, "project arity", |r| {
                    Ok::<_, CoreError>((r.string("project name")?, decode_expr(r)?))
                })?,
                input: input(r)?,
            },
            6 => Plan::Join {
                join_type: r.tag(&JoinType::ALL, "join type")?,
                suffix: r.string("join suffix")?,
                on: decode_name_pairs(r, "join keys")?,
                left: input(r)?,
                right: input(r)?,
            },
            7 => Plan::Aggregate {
                group_by: decode_names(r, "group cols")?,
                // An agg tag, arg flag and name prefix.
                aggs: r.list(6, "agg count", decode_agg)?,
                input: input(r)?,
            },
            8 => Plan::Union {
                left: input(r)?,
                right: input(r)?,
            },
            9 => Plan::Distinct { input: input(r)? },
            10 => Plan::Sort {
                keys: r.list(5, "sort keys", |r| {
                    Ok::<_, StorageError>((r.string("sort key")?, r.u8("sort dir")? != 0))
                })?,
                input: input(r)?,
            },
            11 => Plan::Limit {
                skip: r.u64("limit skip")? as usize,
                fetch: r.opt("limit", |r| r.u64("limit fetch").map(|n| n as usize))?,
                input: input(r)?,
            },
            12 => Plan::Rename {
                mapping: decode_name_pairs(r, "rename pairs")?,
                input: input(r)?,
            },
            13 => Plan::Dice {
                ranges: r.list(20, "dice ranges", |r| {
                    Ok::<_, StorageError>((
                        r.string("dice dim")?,
                        r.i64("dice lo")?,
                        r.i64("dice hi")?,
                    ))
                })?,
                input: input(r)?,
            },
            14 => Plan::SliceAt {
                dim: r.string("slice dim")?,
                index: r.i64("slice index")?,
                input: input(r)?,
            },
            15 => Plan::Permute {
                order: decode_names(r, "permute dims")?,
                input: input(r)?,
            },
            16 => Plan::Window {
                radii: r.list(12, "window dims", |r| {
                    Ok::<_, StorageError>((r.string("window dim")?, r.i64("window radius")?))
                })?,
                aggs: r.list(6, "window aggs", decode_agg)?,
                input: input(r)?,
            },
            17 => Plan::Fill {
                fill: decode_value(r)?,
                input: input(r)?,
            },
            18 => Plan::TagDims {
                dims: r.list(5, "tag dims", |r| {
                    let d = r.string("tag dim")?;
                    let extent = r.opt("extent", |r| {
                        Ok::<_, StorageError>((r.i64("extent lo")?, r.i64("extent hi")?))
                    })?;
                    Ok::<_, StorageError>((d, extent))
                })?,
                input: input(r)?,
            },
            19 => Plan::UntagDims { input: input(r)? },
            20 => Plan::MatMul {
                left: input(r)?,
                right: input(r)?,
            },
            21 => Plan::ElemWise {
                op: r.tag(&BinOp::ALL, "elemwise op")?,
                left: input(r)?,
                right: input(r)?,
            },
            22 => Plan::Graph(match r.u8("graph tag")? {
                0 => GraphOp::PageRank {
                    damping: r.f64("damping")?,
                    max_iters: r.u64("max iters")? as usize,
                    epsilon: r.f64("epsilon")?,
                    edges: input(r)?,
                },
                1 => GraphOp::ConnectedComponents {
                    max_iters: r.u64("max iters")? as usize,
                    edges: input(r)?,
                },
                2 => GraphOp::TriangleCount { edges: input(r)? },
                3 => GraphOp::Degrees { edges: input(r)? },
                4 => GraphOp::BfsLevels {
                    source: r.i64("bfs source")?,
                    edges: input(r)?,
                },
                t => return Err(StorageError::Corrupt(format!("bad graph tag {t}")).into()),
            }),
            23 => Plan::Iterate {
                max_iters: r.u64("iterate max")? as usize,
                epsilon: r.opt("iterate eps", |r| r.f64("iterate eps"))?,
                init: input(r)?,
                body: input(r)?,
            },
            t => return Err(StorageError::Corrupt(format!("bad plan tag {t}")).into()),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggExpr;
    use crate::expr::{col, lit, null};
    use crate::infer::edge_schema;
    use bda_storage::{DataType, Field, Schema, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::dimension_bounded("i", 0, 8),
            Field::value("v", DataType::Float64),
            Field::value("s", DataType::Utf8),
        ])
        .unwrap()
    }

    fn roundtrip(p: &Plan) {
        let bytes = encode_plan(p);
        let back = decode_plan(&bytes).unwrap();
        assert_eq!(&back, p);
    }

    #[test]
    fn expr_roundtrip() {
        let exprs = [
            col("a")
                .add(lit(1i64))
                .mul(col("b").cast(DataType::Float64)),
            Expr::Coalesce(vec![col("x"), null(), lit("d")]),
            Expr::Case {
                branches: vec![(col("p").and(col("q").not()), lit(1i64))],
                otherwise: None,
            },
            col("v").is_null().or(col("v").gt(lit(0.5))),
        ];
        for e in &exprs {
            let mut w = Writer::new();
            encode_expr(e, &mut w);
            let back = decode_expr(&mut Reader::new(&w.into_vec())).unwrap();
            assert_eq!(&back, e);
        }
    }

    #[test]
    fn relational_plan_roundtrip() {
        let p = Plan::scan("t", schema())
            .select(col("v").gt(lit(1.5)))
            .join_as(Plan::scan("u", schema()), vec![("i", "i")], JoinType::Left)
            .aggregate(
                vec!["s"],
                vec![
                    AggExpr::new(AggFunc::Sum, col("v"), "total"),
                    AggExpr::count_star("n"),
                ],
            )
            .sort_by(vec!["s"])
            .limit(5);
        roundtrip(&p);
    }

    #[test]
    fn array_plan_roundtrip() {
        let p = Plan::Window {
            input: Plan::Dice {
                input: Plan::Permute {
                    input: Plan::scan("m", schema()).boxed(),
                    order: vec!["i".into()],
                }
                .boxed(),
                ranges: vec![("i".into(), 1, 5)],
            }
            .boxed(),
            radii: vec![("i".into(), 2)],
            aggs: vec![AggExpr::new(AggFunc::Avg, col("v"), "m")],
        };
        roundtrip(&p);
        let p2 = Plan::Fill {
            input: Plan::TagDims {
                input: Plan::UntagDims {
                    input: Plan::scan("m", schema()).boxed(),
                }
                .boxed(),
                dims: vec![("i".into(), Some((0, 8)))],
            }
            .boxed(),
            fill: Value::Float(0.0),
        };
        roundtrip(&p2);
    }

    #[test]
    fn intent_plan_roundtrip() {
        let m = Plan::scan("m", schema());
        roundtrip(&m.clone().matmul(m.clone()));
        roundtrip(&m.clone().elemwise(BinOp::Mul, m.clone()));
        roundtrip(&Plan::Graph(GraphOp::PageRank {
            edges: Plan::scan("e", edge_schema()).boxed(),
            damping: 0.85,
            max_iters: 42,
            epsilon: 1e-9,
        }));
        roundtrip(&Plan::Graph(GraphOp::TriangleCount {
            edges: Plan::scan("e", edge_schema()).boxed(),
        }));
        roundtrip(&Plan::Graph(GraphOp::BfsLevels {
            edges: Plan::scan("e", edge_schema()).boxed(),
            source: -7,
        }));
    }

    #[test]
    fn iterate_and_values_roundtrip() {
        let s = Schema::new(vec![Field::value("x", DataType::Float64)]).unwrap();
        let p = Plan::Iterate {
            init: Plan::Values {
                schema: s.clone(),
                rows: vec![bda_storage::Row(vec![Value::Float(1.0)])],
            }
            .boxed(),
            body: Plan::IterState { schema: s.clone() }
                .project(vec![("x", col("x").mul(lit(0.5)))])
                .boxed(),
            max_iters: 10,
            epsilon: Some(1e-6),
        };
        roundtrip(&p);
        let q = Plan::Iterate {
            init: Plan::Range {
                name: "i".into(),
                lo: 0,
                hi: 4,
            }
            .boxed(),
            body: Plan::IterState {
                schema: crate::infer::infer_schema(&Plan::Range {
                    name: "i".into(),
                    lo: 0,
                    hi: 4,
                })
                .unwrap(),
            }
            .boxed(),
            max_iters: 2,
            epsilon: None,
        };
        roundtrip(&q);
    }

    #[test]
    fn corrupt_and_truncated_rejected() {
        let p = Plan::scan("t", schema()).limit(3);
        let bytes = encode_plan(&p);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(decode_plan(&bad).is_err());
        for cut in [2, 6, bytes.len() - 1] {
            assert!(decode_plan(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = bytes;
        trailing.push(7);
        assert!(decode_plan(&trailing).is_err());
    }

    #[test]
    fn lowered_plans_roundtrip() {
        // The big lowered graph plans stress every node type.
        let pr = Plan::Graph(GraphOp::PageRank {
            edges: Plan::scan("e", edge_schema()).boxed(),
            damping: 0.85,
            max_iters: 30,
            epsilon: 1e-8,
        });
        let lowered = crate::lower::lower_all(&pr).unwrap();
        roundtrip(&lowered);
    }
}
