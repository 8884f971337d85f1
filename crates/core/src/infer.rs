//! Schema inference: the static semantics of the algebra.
//!
//! Every operator's output schema — including how dimension tags flow
//! through it — is defined here. This is where the fused tabular/array
//! model earns its keep: projection, aggregation and join are all
//! *dimension-aware*.

use bda_storage::{DataType, Field, Role, Schema};

use crate::agg::AggExpr;
use crate::error::CoreError;
use crate::eval::infer_expr;
use crate::expr::Expr;
use crate::plan::{GraphOp, JoinType, Plan};

/// Result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Schema of an edge-list dataset: `(src: i64, dst: i64)`.
pub fn edge_schema() -> Schema {
    Schema::new(vec![
        Field::value("src", DataType::Int64),
        Field::value("dst", DataType::Int64),
    ])
    .expect("static schema")
}

/// Schema of a PageRank result: `(vertex: i64, rank: f64)`.
pub fn pagerank_schema() -> Schema {
    Schema::new(vec![
        Field::value("vertex", DataType::Int64),
        Field::value("rank", DataType::Float64),
    ])
    .expect("static schema")
}

/// Schema of a connected-components result: `(vertex: i64, component: i64)`.
pub fn components_schema() -> Schema {
    Schema::new(vec![
        Field::value("vertex", DataType::Int64),
        Field::value("component", DataType::Int64),
    ])
    .expect("static schema")
}

/// Schema of a triangle-count result: `(triangles: i64)`.
pub fn triangles_schema() -> Schema {
    Schema::new(vec![Field::value("triangles", DataType::Int64)]).expect("static schema")
}

/// Schema of a BFS-levels result: `(vertex: i64, level: i64)`.
pub fn bfs_schema() -> Schema {
    Schema::new(vec![
        Field::value("vertex", DataType::Int64),
        Field::value("level", DataType::Int64),
    ])
    .expect("static schema")
}

/// Schema of a degree result: `(vertex: i64, degree: i64)`.
pub fn degrees_schema() -> Schema {
    Schema::new(vec![
        Field::value("vertex", DataType::Int64),
        Field::value("degree", DataType::Int64),
    ])
    .expect("static schema")
}

/// Infer the output schema of a plan, validating it along the way.
pub fn infer_schema(plan: &Plan) -> Result<Schema> {
    match plan {
        Plan::Scan { schema, .. } | Plan::IterState { schema } => Ok(schema.clone()),
        Plan::Values { schema, rows } => {
            for (i, r) in rows.iter().enumerate() {
                if r.len() != schema.len() {
                    return Err(CoreError::Plan(format!(
                        "values row {i} has {} fields, schema has {}",
                        r.len(),
                        schema.len()
                    )));
                }
                for (j, v) in r.0.iter().enumerate() {
                    if let Some(dt) = v.dtype() {
                        if dt != schema.field_at(j).dtype {
                            return Err(CoreError::Plan(format!(
                                "values row {i} field {j}: expected {}, got {dt}",
                                schema.field_at(j).dtype
                            )));
                        }
                    }
                }
            }
            Ok(schema.clone())
        }
        Plan::Range { name, lo, hi } => {
            if lo >= hi {
                return Err(CoreError::Plan(format!("empty range [{lo}, {hi})")));
            }
            Schema::new(vec![Field::dimension_bounded(name.clone(), *lo, *hi)]).map_err(Into::into)
        }
        Plan::Select { input, predicate } => {
            let schema = infer_schema(input)?;
            let t = infer_expr(predicate, &schema)?;
            if !matches!(t, Some(DataType::Bool) | None) {
                return Err(CoreError::Plan(format!(
                    "select predicate must be bool, got {t:?}"
                )));
            }
            Ok(schema)
        }
        Plan::Project { input, exprs } => {
            let input_schema = infer_schema(input)?;
            let mut fields = Vec::with_capacity(exprs.len());
            for (name, e) in exprs {
                // A bare dimension reference keeps its dimension role.
                if let Expr::Column(c) = e {
                    let f = input_schema
                        .field(c)
                        .map_err(|_| CoreError::Plan(format!("unknown column `{c}`")))?;
                    if f.is_dimension() {
                        fields.push(Field {
                            name: name.clone(),
                            dtype: f.dtype,
                            role: f.role,
                        });
                        continue;
                    }
                }
                let t = infer_expr(e, &input_schema)?.ok_or_else(|| {
                    CoreError::Plan(format!(
                        "projection `{name}` is an untyped null; add a cast"
                    ))
                })?;
                fields.push(Field::value(name.clone(), t));
            }
            Schema::new(fields).map_err(Into::into)
        }
        Plan::Join {
            left,
            right,
            on,
            join_type,
            suffix,
        } => {
            let ls = infer_schema(left)?;
            let rs = infer_schema(right)?;
            for (lc, rc) in on {
                let lf = ls
                    .field(lc)
                    .map_err(|_| CoreError::Plan(format!("join: unknown left column `{lc}`")))?;
                let rf = rs
                    .field(rc)
                    .map_err(|_| CoreError::Plan(format!("join: unknown right column `{rc}`")))?;
                let compatible =
                    lf.dtype == rf.dtype || (lf.dtype.is_numeric() && rf.dtype.is_numeric());
                if !compatible {
                    return Err(CoreError::Plan(format!(
                        "join key type mismatch: {lc}: {} vs {rc}: {}",
                        lf.dtype, rf.dtype
                    )));
                }
            }
            match join_type {
                JoinType::Semi | JoinType::Anti => Ok(ls),
                JoinType::Inner => ls.join(&rs, suffix).map_err(Into::into),
                JoinType::Left => {
                    // Right-side dimensions may be null-padded, which breaks
                    // the coordinate invariant: demote them to values.
                    let rs_values = rs.untagged();
                    ls.join(&rs_values, suffix).map_err(Into::into)
                }
            }
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let input_schema = infer_schema(input)?;
            let mut fields = Vec::new();
            for g in group_by {
                let f = input_schema
                    .field(g)
                    .map_err(|_| CoreError::Plan(format!("group by unknown column `{g}`")))?;
                fields.push(f.clone());
            }
            for a in aggs {
                fields.push(agg_field(a, &input_schema)?);
            }
            Schema::new(fields).map_err(Into::into)
        }
        Plan::Union { left, right } => {
            let ls = infer_schema(left)?;
            let rs = infer_schema(right)?;
            if ls != rs {
                return Err(CoreError::Plan(format!(
                    "union schema mismatch: {ls} vs {rs}"
                )));
            }
            Ok(ls)
        }
        Plan::Distinct { input } => infer_schema(input),
        Plan::Sort { input, keys } => {
            let schema = infer_schema(input)?;
            for (k, _) in keys {
                schema
                    .field(k)
                    .map_err(|_| CoreError::Plan(format!("sort by unknown column `{k}`")))?;
            }
            Ok(schema)
        }
        Plan::Limit { input, .. } => infer_schema(input),
        Plan::Rename { input, mapping } => {
            let schema = infer_schema(input)?;
            let mut fields = schema.fields().to_vec();
            for (old, new) in mapping {
                let idx = schema
                    .index_of(old)
                    .map_err(|_| CoreError::Plan(format!("rename unknown column `{old}`")))?;
                fields[idx].name = new.clone();
            }
            Schema::new(fields).map_err(Into::into)
        }
        Plan::Dice { input, ranges } => {
            let schema = infer_schema(input)?;
            let mut fields = schema.fields().to_vec();
            for (dim, lo, hi) in ranges {
                if lo >= hi {
                    return Err(CoreError::Plan(format!("dice: empty range on `{dim}`")));
                }
                let idx = schema
                    .index_of(dim)
                    .map_err(|_| CoreError::Plan(format!("dice unknown dimension `{dim}`")))?;
                let f = &mut fields[idx];
                match f.role {
                    Role::Dimension {
                        lo: old_lo,
                        hi: old_hi,
                    } => {
                        let new_lo = old_lo.map_or(*lo, |l| l.max(*lo));
                        let new_hi = old_hi.map_or(*hi, |h| h.min(*hi));
                        if new_lo >= new_hi {
                            return Err(CoreError::Plan(format!(
                                "dice on `{dim}` yields empty extent [{new_lo}, {new_hi})"
                            )));
                        }
                        f.role = Role::dim_bounded(new_lo, new_hi);
                    }
                    Role::Value => {
                        return Err(CoreError::Plan(format!(
                            "dice target `{dim}` is not a dimension"
                        )))
                    }
                }
            }
            Schema::new(fields).map_err(Into::into)
        }
        Plan::SliceAt { input, dim, .. } => {
            let schema = infer_schema(input)?;
            let idx = schema
                .index_of(dim)
                .map_err(|_| CoreError::Plan(format!("slice unknown dimension `{dim}`")))?;
            if !schema.field_at(idx).is_dimension() {
                return Err(CoreError::Plan(format!(
                    "slice target `{dim}` is not a dimension"
                )));
            }
            let fields = schema
                .fields()
                .iter()
                .filter(|f| f.name != *dim)
                .cloned()
                .collect();
            Schema::new(fields).map_err(Into::into)
        }
        Plan::Permute { input, order } => {
            let schema = infer_schema(input)?;
            let dims: Vec<String> = schema.dimensions().iter().map(|f| f.name.clone()).collect();
            let mut sorted_order = order.clone();
            sorted_order.sort();
            let mut sorted_dims = dims.clone();
            sorted_dims.sort();
            if sorted_order != sorted_dims {
                return Err(CoreError::Plan(format!(
                    "permute order {order:?} is not a permutation of dimensions {dims:?}"
                )));
            }
            let mut fields: Vec<Field> = Vec::with_capacity(schema.len());
            for d in order {
                fields.push(schema.field(d)?.clone());
            }
            for f in schema.fields() {
                if !f.is_dimension() {
                    fields.push(f.clone());
                }
            }
            Schema::new(fields).map_err(Into::into)
        }
        Plan::Window { input, radii, aggs } => {
            let schema = infer_schema(input)?;
            let dims: Vec<String> = schema.dimensions().iter().map(|f| f.name.clone()).collect();
            if dims.is_empty() {
                return Err(CoreError::Plan(
                    "window over a dataset with no dimensions".into(),
                ));
            }
            let mut listed: Vec<&String> = radii.iter().map(|(d, _)| d).collect();
            listed.sort();
            listed.dedup();
            let mut want: Vec<&String> = dims.iter().collect();
            want.sort();
            if listed != want {
                return Err(CoreError::Plan(format!(
                    "window must list each dimension exactly once; got {radii:?} for dims {dims:?}"
                )));
            }
            for (d, r) in radii {
                if *r < 0 {
                    return Err(CoreError::Plan(format!(
                        "window radius on `{d}` is negative"
                    )));
                }
            }
            let mut fields: Vec<Field> = schema
                .fields()
                .iter()
                .filter(|f| f.is_dimension())
                .cloned()
                .collect();
            for a in aggs {
                fields.push(agg_field(a, &schema)?);
            }
            Schema::new(fields).map_err(Into::into)
        }
        Plan::Fill { input, .. } => {
            let schema = infer_schema(input)?;
            if schema.ndims() == 0 {
                return Err(CoreError::Plan("fill requires dimensions".into()));
            }
            if !schema.is_bounded() {
                return Err(CoreError::Plan(
                    "fill requires all dimensions bounded".into(),
                ));
            }
            Ok(schema)
        }
        Plan::TagDims { input, dims } => {
            let schema = infer_schema(input)?;
            for (d, _) in dims {
                let f = schema
                    .field(d)
                    .map_err(|_| CoreError::Plan(format!("tag_dims unknown column `{d}`")))?;
                if f.is_dimension() {
                    return Err(CoreError::Plan(format!("`{d}` is already a dimension")));
                }
                if f.dtype != DataType::Int64 {
                    return Err(CoreError::Plan(format!(
                        "cannot tag `{d}` as dimension: type is {}",
                        f.dtype
                    )));
                }
            }
            let spec: Vec<(&str, Option<(i64, i64)>)> =
                dims.iter().map(|(d, e)| (d.as_str(), *e)).collect();
            // Existing dimensions keep their tags.
            let mut fields = Vec::with_capacity(schema.len());
            for f in schema.fields() {
                if let Some((_, extent)) = spec.iter().find(|(n, _)| *n == f.name) {
                    let role = match extent {
                        Some((lo, hi)) => Role::dim_bounded(*lo, *hi),
                        None => Role::dim(),
                    };
                    fields.push(Field {
                        name: f.name.clone(),
                        dtype: DataType::Int64,
                        role,
                    });
                } else {
                    fields.push(f.clone());
                }
            }
            Schema::new(fields).map_err(Into::into)
        }
        Plan::UntagDims { input } => Ok(infer_schema(input)?.untagged()),
        Plan::MatMul { left, right } => {
            let (l_dims, _) = matrix_shape(left, "matmul left")?;
            let (r_dims, _) = matrix_shape(right, "matmul right")?;
            let (li, lk) = (&l_dims[0], &l_dims[1]);
            let (rk, rj) = (&r_dims[0], &r_dims[1]);
            match (lk.extent(), rk.extent()) {
                (Some(a), Some(b)) if a != b => {
                    return Err(CoreError::Plan(format!(
                        "matmul inner extents differ: {a:?} vs {b:?}"
                    )))
                }
                _ => {}
            }
            let mut out_j = rj.clone();
            if out_j.name == li.name {
                out_j.name = format!("{}_r", out_j.name);
            }
            Schema::new(vec![
                li.clone(),
                out_j,
                Field::value("v", DataType::Float64),
            ])
            .map_err(Into::into)
        }
        Plan::ElemWise { left, right, op } => {
            if !op.is_arithmetic() && !op.is_comparison() {
                return Err(CoreError::Plan(format!(
                    "elemwise operator `{}` must be arithmetic or comparison",
                    op.symbol()
                )));
            }
            let ls = infer_schema(left)?;
            let rs = infer_schema(right)?;
            let lv = single_numeric_value(&ls, "elemwise left")?;
            let rv = single_numeric_value(&rs, "elemwise right")?;
            let l_dims: Vec<&Field> = ls.dimensions();
            let r_dims: Vec<&Field> = rs.dimensions();
            if l_dims.len() != r_dims.len()
                || l_dims.iter().zip(&r_dims).any(|(a, b)| a.name != b.name)
            {
                return Err(CoreError::Plan(format!(
                    "elemwise dimension mismatch: {:?} vs {:?}",
                    l_dims.iter().map(|f| &f.name).collect::<Vec<_>>(),
                    r_dims.iter().map(|f| &f.name).collect::<Vec<_>>()
                )));
            }
            let out_t = if op.is_comparison() {
                DataType::Bool
            } else {
                lv.numeric_join(rv).expect("both numeric")
            };
            let mut fields: Vec<Field> = l_dims.into_iter().cloned().collect();
            fields.push(Field::value("v", out_t));
            Schema::new(fields).map_err(Into::into)
        }
        Plan::Graph(g) => {
            let es = infer_schema(g.edges())?;
            for c in ["src", "dst"] {
                let f = es
                    .field(c)
                    .map_err(|_| CoreError::Plan(format!("graph op input needs column `{c}`")))?;
                if f.dtype != DataType::Int64 {
                    return Err(CoreError::Plan(format!(
                        "graph op column `{c}` must be i64, got {}",
                        f.dtype
                    )));
                }
            }
            match g {
                GraphOp::PageRank {
                    damping, epsilon, ..
                } => {
                    if !(0.0..1.0).contains(damping) {
                        return Err(CoreError::Plan(format!(
                            "pagerank damping must be in [0, 1), got {damping}"
                        )));
                    }
                    if *epsilon <= 0.0 {
                        return Err(CoreError::Plan("pagerank epsilon must be positive".into()));
                    }
                    Ok(pagerank_schema())
                }
                GraphOp::ConnectedComponents { .. } => Ok(components_schema()),
                GraphOp::TriangleCount { .. } => Ok(triangles_schema()),
                GraphOp::Degrees { .. } => Ok(degrees_schema()),
                GraphOp::BfsLevels { .. } => Ok(bfs_schema()),
            }
        }
        Plan::Iterate {
            init,
            body,
            max_iters,
            epsilon,
        } => {
            if *max_iters == 0 {
                return Err(CoreError::Plan("iterate max_iters must be positive".into()));
            }
            if let Some(e) = epsilon {
                if *e <= 0.0 {
                    return Err(CoreError::Plan("iterate epsilon must be positive".into()));
                }
            }
            let init_schema = infer_schema(init)?;
            check_iter_state(body, &init_schema)?;
            let body_schema = infer_schema(body)?;
            if body_schema != init_schema {
                return Err(CoreError::Plan(format!(
                    "iterate body schema {body_schema} differs from init schema {init_schema}"
                )));
            }
            Ok(init_schema)
        }
    }
}

fn agg_field(a: &AggExpr, input: &Schema) -> Result<Field> {
    let arg_t = match &a.arg {
        Some(e) => infer_expr(e, input)?,
        None => None,
    };
    // count(*) has no arg; count(expr) requires one.
    if a.arg.is_none() && a.func != crate::agg::AggFunc::Count {
        return Err(CoreError::Plan(format!(
            "{} requires an argument",
            a.func.name()
        )));
    }
    let out_t = a.func.output_type(arg_t)?;
    Ok(Field::value(a.name.clone(), out_t))
}

/// Validate that a plan is a 2-D matrix: two dimensions, one numeric value
/// attribute. Returns (the two dimension fields, the value field).
fn matrix_shape(plan: &Plan, what: &str) -> Result<([Field; 2], Field)> {
    let schema = infer_schema(plan)?;
    let dims = schema.dimensions();
    if dims.len() != 2 {
        return Err(CoreError::Plan(format!(
            "{what} must be 2-dimensional, got {} dims",
            dims.len()
        )));
    }
    let vals = schema.values();
    if vals.len() != 1 || !vals[0].dtype.is_numeric() {
        return Err(CoreError::Plan(format!(
            "{what} must have exactly one numeric value attribute"
        )));
    }
    Ok(([dims[0].clone(), dims[1].clone()], vals[0].clone()))
}

fn single_numeric_value(schema: &Schema, what: &str) -> Result<DataType> {
    let vals = schema.values();
    if vals.len() != 1 || !vals[0].dtype.is_numeric() {
        return Err(CoreError::Plan(format!(
            "{what} must have exactly one numeric value attribute"
        )));
    }
    Ok(vals[0].dtype)
}

/// Every `IterState` leaf in `body` must carry exactly `expected`.
fn check_iter_state(body: &Plan, expected: &Schema) -> Result<()> {
    if let Plan::IterState { schema } = body {
        if schema != expected {
            return Err(CoreError::Plan(format!(
                "iter_state schema {schema} differs from loop state {expected}"
            )));
        }
    }
    for c in body.children() {
        check_iter_state(c, expected)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggExpr, AggFunc};
    use crate::expr::{col, lit};
    use bda_storage::Row;
    use bda_storage::Value;

    fn matrix(name: &str, n: i64, m: i64) -> Plan {
        Plan::scan(
            name,
            Schema::new(vec![
                Field::dimension_bounded("i", 0, n),
                Field::dimension_bounded("j", 0, m),
                Field::value("v", DataType::Float64),
            ])
            .unwrap(),
        )
    }

    fn rel() -> Plan {
        Plan::scan(
            "t",
            Schema::new(vec![
                Field::value("k", DataType::Int64),
                Field::value("v", DataType::Float64),
                Field::value("tag", DataType::Utf8),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn project_preserves_dimension_tags() {
        let p = matrix("m", 3, 4).project(vec![("row", col("i")), ("x", col("v"))]);
        let s = infer_schema(&p).unwrap();
        assert_eq!(s.ndims(), 1);
        assert_eq!(s.field("row").unwrap().extent(), Some((0, 3)));
        assert!(!s.field("x").unwrap().is_dimension());
    }

    #[test]
    fn project_computed_expr_is_value() {
        let p = matrix("m", 3, 4).project(vec![("i2", col("i").add(lit(0i64)))]);
        let s = infer_schema(&p).unwrap();
        assert!(!s.field("i2").unwrap().is_dimension());
    }

    #[test]
    fn select_requires_bool() {
        assert!(infer_schema(&rel().select(col("k").gt(lit(0i64)))).is_ok());
        assert!(infer_schema(&rel().select(col("k"))).is_err());
    }

    #[test]
    fn aggregate_group_by_dims_is_reduction() {
        let p = matrix("m", 3, 4).aggregate(
            vec!["i"],
            vec![AggExpr::new(AggFunc::Sum, col("v"), "total")],
        );
        let s = infer_schema(&p).unwrap();
        assert_eq!(s.ndims(), 1, "grouping by dim i keeps it a dimension");
        assert_eq!(s.field("i").unwrap().extent(), Some((0, 3)));
        assert_eq!(s.field("total").unwrap().dtype, DataType::Float64);
    }

    #[test]
    fn join_schemas() {
        let j = rel().join(rel(), vec![("k", "k")]);
        let s = infer_schema(&j).unwrap();
        assert_eq!(s.names(), vec!["k", "v", "tag", "k_r", "v_r", "tag_r"]);
        let semi = rel().join_as(rel(), vec![("k", "k")], JoinType::Semi);
        assert_eq!(infer_schema(&semi).unwrap().names(), vec!["k", "v", "tag"]);
    }

    #[test]
    fn left_join_demotes_right_dims() {
        let j = rel().join_as(
            matrix("m", 2, 2).rename(vec![("v", "mv")]),
            vec![("k", "i")],
            JoinType::Left,
        );
        let s = infer_schema(&j).unwrap();
        assert_eq!(s.ndims(), 0, "right dims must be demoted under left join");
    }

    #[test]
    fn join_key_type_check() {
        let j = rel().join(rel(), vec![("k", "tag")]);
        assert!(infer_schema(&j).is_err());
    }

    #[test]
    fn dice_tightens_extents() {
        let p = Plan::Dice {
            input: matrix("m", 10, 10).boxed(),
            ranges: vec![("i".into(), 2, 5)],
        };
        let s = infer_schema(&p).unwrap();
        assert_eq!(s.field("i").unwrap().extent(), Some((2, 5)));
        assert_eq!(s.field("j").unwrap().extent(), Some((0, 10)));
        let bad = Plan::Dice {
            input: matrix("m", 10, 10).boxed(),
            ranges: vec![("i".into(), 20, 30)],
        };
        assert!(infer_schema(&bad).is_err());
    }

    #[test]
    fn slice_drops_dimension() {
        let p = Plan::SliceAt {
            input: matrix("m", 10, 10).boxed(),
            dim: "i".into(),
            index: 3,
        };
        let s = infer_schema(&p).unwrap();
        assert_eq!(s.ndims(), 1);
        assert!(s.field("i").is_err());
    }

    #[test]
    fn permute_reorders() {
        let p = Plan::Permute {
            input: matrix("m", 2, 3).boxed(),
            order: vec!["j".into(), "i".into()],
        };
        let s = infer_schema(&p).unwrap();
        assert_eq!(s.names(), vec!["j", "i", "v"]);
        let bad = Plan::Permute {
            input: matrix("m", 2, 3).boxed(),
            order: vec!["j".into()],
        };
        assert!(infer_schema(&bad).is_err());
    }

    #[test]
    fn window_schema() {
        let p = Plan::Window {
            input: matrix("m", 5, 5).boxed(),
            radii: vec![("i".into(), 1), ("j".into(), 1)],
            aggs: vec![AggExpr::new(AggFunc::Avg, col("v"), "smooth")],
        };
        let s = infer_schema(&p).unwrap();
        assert_eq!(s.ndims(), 2);
        assert_eq!(s.field("smooth").unwrap().dtype, DataType::Float64);
        let missing_dim = Plan::Window {
            input: matrix("m", 5, 5).boxed(),
            radii: vec![("i".into(), 1)],
            aggs: vec![],
        };
        assert!(infer_schema(&missing_dim).is_err());
    }

    #[test]
    fn matmul_schema_and_shape_checks() {
        let p = matrix("a", 2, 3).matmul(matrix("b", 3, 4).rename(vec![("i", "j0"), ("j", "jj")]));
        let s = infer_schema(&p).unwrap();
        assert_eq!(s.ndims(), 2);
        assert_eq!(s.field("i").unwrap().extent(), Some((0, 2)));
        assert_eq!(s.field("jj").unwrap().extent(), Some((0, 4)));
        // Inner extent mismatch is an error.
        let bad = matrix("a", 2, 3).matmul(matrix("b", 9, 4));
        assert!(infer_schema(&bad).is_err());
        // Name collision on output dims gets suffixed.
        let square = matrix("a", 3, 3);
        let collide = square
            .clone()
            .matmul(square.rename(vec![("i", "j"), ("j", "i")]));
        let s = infer_schema(&collide).unwrap();
        assert_eq!(s.names(), vec!["i", "i_r", "v"]);
    }

    #[test]
    fn elemwise_requires_matching_dims() {
        let ok = matrix("a", 2, 2).elemwise(crate::expr::BinOp::Add, matrix("b", 2, 2));
        assert_eq!(infer_schema(&ok).unwrap().ndims(), 2);
        let bad = matrix("a", 2, 2).elemwise(
            crate::expr::BinOp::Add,
            matrix("b", 2, 2).rename(vec![("i", "x")]),
        );
        assert!(infer_schema(&bad).is_err());
    }

    #[test]
    fn graph_ops_validate_edges() {
        let edges = Plan::scan("e", edge_schema());
        let pr = Plan::Graph(GraphOp::PageRank {
            edges: edges.clone().boxed(),
            damping: 0.85,
            max_iters: 50,
            epsilon: 1e-6,
        });
        assert_eq!(infer_schema(&pr).unwrap(), pagerank_schema());
        let bad_damping = Plan::Graph(GraphOp::PageRank {
            edges: edges.clone().boxed(),
            damping: 1.5,
            max_iters: 50,
            epsilon: 1e-6,
        });
        assert!(infer_schema(&bad_damping).is_err());
        let not_edges = Plan::Graph(GraphOp::Degrees {
            edges: rel().boxed(),
        });
        assert!(infer_schema(&not_edges).is_err());
    }

    #[test]
    fn iterate_checks_schemas() {
        let init = Plan::Values {
            schema: pagerank_schema(),
            rows: vec![Row(vec![Value::Int(0), Value::Float(1.0)])],
        };
        let good = Plan::Iterate {
            init: init.clone().boxed(),
            body: Plan::IterState {
                schema: pagerank_schema(),
            }
            .boxed(),
            max_iters: 10,
            epsilon: Some(1e-6),
        };
        assert_eq!(infer_schema(&good).unwrap(), pagerank_schema());
        let bad_body = Plan::Iterate {
            init: init.clone().boxed(),
            body: Plan::IterState {
                schema: edge_schema(),
            }
            .boxed(),
            max_iters: 10,
            epsilon: None,
        };
        assert!(infer_schema(&bad_body).is_err());
        let bad_iters = Plan::Iterate {
            init: init.boxed(),
            body: Plan::IterState {
                schema: pagerank_schema(),
            }
            .boxed(),
            max_iters: 0,
            epsilon: None,
        };
        assert!(infer_schema(&bad_iters).is_err());
    }

    #[test]
    fn values_rows_validated() {
        let bad = Plan::Values {
            schema: edge_schema(),
            rows: vec![Row(vec![Value::Int(0), Value::from("oops")])],
        };
        assert!(infer_schema(&bad).is_err());
    }

    #[test]
    fn tag_untag_roundtrip() {
        let p = Plan::UntagDims {
            input: matrix("m", 2, 2).boxed(),
        };
        let s = infer_schema(&p).unwrap();
        assert!(s.is_relation());
        let back = Plan::TagDims {
            input: p.boxed(),
            dims: vec![("i".into(), Some((0, 2))), ("j".into(), Some((0, 2)))],
        };
        assert_eq!(infer_schema(&back).unwrap().ndims(), 2);
    }
}
