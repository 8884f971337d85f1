//! Expression evaluation: scalar semantics and the columnar evaluator.
//!
//! The scalar functions ([`binary_scalar`], [`unary_scalar`]) are the single
//! source of truth for the algebra's null/overflow semantics; both the
//! row-wise reference evaluator and the engines' columnar kernels are built
//! on them, so the oracle and the fast paths cannot drift apart.

use std::cmp::Ordering;

use bda_storage::{Column, DataType, RowsChunk, Schema, Value};

use crate::error::CoreError;
use crate::expr::{BinOp, Expr, UnOp};

/// Result alias for this module.
pub type Result<T> = std::result::Result<T, CoreError>;

// ---------------------------------------------------------------------------
// Scalar semantics
// ---------------------------------------------------------------------------

/// Apply a binary operator to two scalars.
///
/// Semantics: SQL-style null propagation for arithmetic and comparisons,
/// Kleene three-valued logic for `AND`/`OR`, null on integer overflow and
/// division by zero (keeping evaluation total so optimizer reorderings
/// cannot change whether a query errors).
pub fn binary_scalar(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    if op.is_logical() {
        return kleene(op, a, b);
    }
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        return compare(op, a, b);
    }
    arithmetic(op, a, b)
}

fn kleene(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    let as_tv = |v: &Value| -> Result<Option<bool>> {
        match v {
            Value::Null => Ok(None),
            Value::Bool(x) => Ok(Some(*x)),
            other => Err(CoreError::Expr(format!(
                "logical operand must be bool, got {other}"
            ))),
        }
    };
    let (x, y) = (as_tv(a)?, as_tv(b)?);
    let r = match op {
        BinOp::And => match (x, y) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        BinOp::Or => match (x, y) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        _ => unreachable!("kleene called with non-logical op"),
    };
    Ok(r.map(Value::Bool).unwrap_or(Value::Null))
}

fn compare(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    let comparable = match (a.dtype(), b.dtype()) {
        (Some(x), Some(y)) => x == y || (x.is_numeric() && y.is_numeric()),
        _ => true,
    };
    if !comparable {
        return Err(CoreError::Expr(format!(
            "cannot compare {a} with {b}: incompatible types"
        )));
    }
    let ord = a.total_cmp(b);
    let r = match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::Ne => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::Le => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::Ge => ord != Ordering::Less,
        _ => unreachable!("compare called with non-comparison op"),
    };
    Ok(Value::Bool(r))
}

fn arithmetic(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(int_arith(op, *x, *y)),
        (Value::Float(_) | Value::Int(_), Value::Float(_) | Value::Int(_)) => {
            let (x, y) = (a.as_float()?, b.as_float()?);
            Ok(float_arith(op, x, y))
        }
        _ => Err(CoreError::Expr(format!(
            "arithmetic `{}` requires numeric operands, got {a} and {b}",
            op.symbol()
        ))),
    }
}

fn int_arith(op: BinOp, x: i64, y: i64) -> Value {
    let r = match op {
        BinOp::Add => x.checked_add(y),
        BinOp::Sub => x.checked_sub(y),
        BinOp::Mul => x.checked_mul(y),
        BinOp::Div => {
            if y == 0 {
                None
            } else {
                x.checked_div(y)
            }
        }
        BinOp::Mod => {
            if y == 0 {
                None
            } else {
                x.checked_rem(y)
            }
        }
        _ => unreachable!(),
    };
    r.map(Value::Int).unwrap_or(Value::Null)
}

fn float_arith(op: BinOp, x: f64, y: f64) -> Value {
    match op {
        BinOp::Add => Value::Float(x + y),
        BinOp::Sub => Value::Float(x - y),
        BinOp::Mul => Value::Float(x * y),
        BinOp::Div => Value::Float(x / y),
        BinOp::Mod => {
            if y == 0.0 {
                Value::Null
            } else {
                Value::Float(x % y)
            }
        }
        _ => unreachable!(),
    }
}

/// Apply a unary operator to a scalar.
pub fn unary_scalar(op: UnOp, v: &Value) -> Result<Value> {
    if op == UnOp::IsNull {
        return Ok(Value::Bool(v.is_null()));
    }
    if v.is_null() {
        return Ok(Value::Null);
    }
    match op {
        UnOp::Not => Ok(Value::Bool(!v.as_bool().map_err(expr_err)?)),
        UnOp::Neg => match v {
            Value::Int(x) => Ok(x.checked_neg().map(Value::Int).unwrap_or(Value::Null)),
            Value::Float(x) => Ok(Value::Float(-x)),
            other => Err(CoreError::Expr(format!("cannot negate {other}"))),
        },
        UnOp::Abs => match v {
            Value::Int(x) => Ok(x.checked_abs().map(Value::Int).unwrap_or(Value::Null)),
            Value::Float(x) => Ok(Value::Float(x.abs())),
            other => Err(CoreError::Expr(format!("abs of non-numeric {other}"))),
        },
        UnOp::Sqrt => {
            let x = v.as_float().map_err(expr_err)?;
            if x < 0.0 {
                Ok(Value::Null)
            } else {
                Ok(Value::Float(x.sqrt()))
            }
        }
        UnOp::Floor => match v {
            Value::Int(x) => Ok(Value::Int(*x)),
            Value::Float(x) => {
                let f = x.floor();
                if f.is_finite() && f >= i64::MIN as f64 && f <= i64::MAX as f64 {
                    Ok(Value::Int(f as i64))
                } else {
                    Ok(Value::Null)
                }
            }
            other => Err(CoreError::Expr(format!("floor of non-numeric {other}"))),
        },
        UnOp::Exp => Ok(Value::Float(v.as_float().map_err(expr_err)?.exp())),
        UnOp::Ln => {
            let x = v.as_float().map_err(expr_err)?;
            if x <= 0.0 {
                Ok(Value::Null)
            } else {
                Ok(Value::Float(x.ln()))
            }
        }
        UnOp::IsNull => unreachable!("handled above"),
    }
}

fn expr_err(e: bda_storage::StorageError) -> CoreError {
    CoreError::Expr(e.to_string())
}

// ---------------------------------------------------------------------------
// Type inference
// ---------------------------------------------------------------------------

/// Infer the type of an expression against a schema. `Ok(None)` means the
/// expression is the untyped null (e.g. a bare `null` literal).
pub fn infer_expr(expr: &Expr, schema: &Schema) -> Result<Option<DataType>> {
    match expr {
        Expr::Column(name) => Ok(Some(
            schema
                .field(name)
                .map_err(|_| CoreError::Expr(format!("unknown column `{name}`")))?
                .dtype,
        )),
        Expr::Literal(v) => Ok(v.dtype()),
        Expr::Binary { op, left, right } => {
            let l = infer_expr(left, schema)?;
            let r = infer_expr(right, schema)?;
            infer_binary(*op, l, r)
        }
        Expr::Unary { op, input } => {
            let t = infer_expr(input, schema)?;
            infer_unary(*op, t)
        }
        Expr::Cast { input, to } => {
            infer_expr(input, schema)?;
            Ok(Some(*to))
        }
        Expr::Coalesce(args) => {
            if args.is_empty() {
                return Err(CoreError::Expr("coalesce needs arguments".into()));
            }
            let mut acc: Option<DataType> = None;
            for a in args {
                let t = infer_expr(a, schema)?;
                acc = unify(acc, t).ok_or_else(|| {
                    CoreError::Expr(format!(
                        "coalesce arguments have incompatible types ({acc:?} vs {t:?})"
                    ))
                })?;
            }
            Ok(acc)
        }
        Expr::Case {
            branches,
            otherwise,
        } => {
            if branches.is_empty() {
                return Err(CoreError::Expr("case needs at least one branch".into()));
            }
            let mut acc: Option<DataType> = None;
            for (w, t) in branches {
                let wt = infer_expr(w, schema)?;
                if !matches!(wt, Some(DataType::Bool) | None) {
                    return Err(CoreError::Expr(format!(
                        "case condition must be bool, got {wt:?}"
                    )));
                }
                let tt = infer_expr(t, schema)?;
                acc = unify(acc, tt).ok_or_else(|| {
                    CoreError::Expr("case branches have incompatible types".into())
                })?;
            }
            if let Some(e) = otherwise {
                let tt = infer_expr(e, schema)?;
                acc = unify(acc, tt).ok_or_else(|| {
                    CoreError::Expr("case else branch has incompatible type".into())
                })?;
            }
            Ok(acc)
        }
    }
}

/// Unify two optional types: `None` (untyped null) adopts the other side;
/// equal types unify; numeric types unify to their join.
fn unify(a: Option<DataType>, b: Option<DataType>) -> Option<Option<DataType>> {
    match (a, b) {
        (None, t) | (t, None) => Some(t),
        (Some(x), Some(y)) if x == y => Some(Some(x)),
        (Some(x), Some(y)) => x.numeric_join(y).map(Some),
    }
}

fn infer_binary(op: BinOp, l: Option<DataType>, r: Option<DataType>) -> Result<Option<DataType>> {
    if op.is_logical() {
        for t in [l, r].into_iter().flatten() {
            if t != DataType::Bool {
                return Err(CoreError::Expr(format!(
                    "`{}` requires bool operands, got {t}",
                    op.symbol()
                )));
            }
        }
        return Ok(Some(DataType::Bool));
    }
    if op.is_comparison() {
        let ok = match (l, r) {
            (Some(x), Some(y)) => x == y || (x.is_numeric() && y.is_numeric()),
            _ => true,
        };
        if !ok {
            return Err(CoreError::Expr(format!(
                "`{}` cannot compare {l:?} with {r:?}",
                op.symbol()
            )));
        }
        return Ok(Some(DataType::Bool));
    }
    // Arithmetic.
    for t in [l, r].into_iter().flatten() {
        if !t.is_numeric() {
            return Err(CoreError::Expr(format!(
                "`{}` requires numeric operands, got {t}",
                op.symbol()
            )));
        }
    }
    Ok(match (l, r) {
        (Some(x), Some(y)) => Some(x.numeric_join(y).expect("both numeric")),
        (Some(x), None) | (None, Some(x)) => Some(x),
        (None, None) => None,
    })
}

fn infer_unary(op: UnOp, t: Option<DataType>) -> Result<Option<DataType>> {
    let require_numeric = |t: Option<DataType>| -> Result<()> {
        if let Some(t) = t {
            if !t.is_numeric() {
                return Err(CoreError::Expr(format!(
                    "expected numeric operand, got {t}"
                )));
            }
        }
        Ok(())
    };
    match op {
        UnOp::IsNull => Ok(Some(DataType::Bool)),
        UnOp::Not => {
            if let Some(t) = t {
                if t != DataType::Bool {
                    return Err(CoreError::Expr(format!("`not` requires bool, got {t}")));
                }
            }
            Ok(Some(DataType::Bool))
        }
        UnOp::Neg | UnOp::Abs => {
            require_numeric(t)?;
            Ok(t)
        }
        UnOp::Floor => {
            require_numeric(t)?;
            Ok(Some(DataType::Int64))
        }
        UnOp::Sqrt | UnOp::Exp | UnOp::Ln => {
            require_numeric(t)?;
            Ok(Some(DataType::Float64))
        }
    }
}

// ---------------------------------------------------------------------------
// Evaluation over chunks (columnar) and rows
// ---------------------------------------------------------------------------

/// Evaluate an expression over every row of a chunk, producing one column.
///
/// The `schema` describes the chunk's columns positionally.
pub fn eval_chunk(expr: &Expr, schema: &Schema, chunk: &RowsChunk) -> Result<Column> {
    let n = chunk.len();
    match expr {
        Expr::Column(name) => {
            let idx = schema
                .index_of(name)
                .map_err(|_| CoreError::Expr(format!("unknown column `{name}`")))?;
            Ok(chunk.column(idx).clone())
        }
        Expr::Literal(v) => {
            let dtype = v.dtype().unwrap_or(DataType::Int64);
            if v.is_null() {
                return Ok(Column::nulls(typed_or_int(infer_expr(expr, schema)?), n));
            }
            let mut c = Column::new_empty(dtype);
            for _ in 0..n {
                c.push(v).map_err(expr_err)?;
            }
            Ok(c)
        }
        Expr::Binary { op, left, right } => {
            let l = eval_chunk(left, schema, chunk)?;
            let r = eval_chunk(right, schema, chunk)?;
            binary_columns(*op, &l, &r)
        }
        Expr::Unary { op, input } => {
            let c = eval_chunk(input, schema, chunk)?;
            let out_t = infer_unary(*op, Some(c.dtype()))?;
            let mut out = Column::new_empty(typed_or_int(out_t));
            for i in 0..c.len() {
                out.push(&unary_scalar(*op, &c.get(i))?).map_err(expr_err)?;
            }
            Ok(out)
        }
        Expr::Cast { input, to } => {
            let c = eval_chunk(input, schema, chunk)?;
            Ok(c.cast(*to))
        }
        Expr::Coalesce(args) => {
            let cols: Vec<Column> = args
                .iter()
                .map(|a| eval_chunk(a, schema, chunk))
                .collect::<Result<_>>()?;
            let out_t = typed_or_int(infer_expr(expr, schema)?);
            let mut out = Column::new_empty(out_t);
            for i in 0..n {
                let mut v = Value::Null;
                for c in &cols {
                    let x = c.get(i);
                    if !x.is_null() {
                        v = x;
                        break;
                    }
                }
                out.push(&coerce(&v, out_t)).map_err(expr_err)?;
            }
            Ok(out)
        }
        Expr::Case {
            branches,
            otherwise,
        } => {
            let out_t = typed_or_int(infer_expr(expr, schema)?);
            let whens: Vec<Column> = branches
                .iter()
                .map(|(w, _)| eval_chunk(w, schema, chunk))
                .collect::<Result<_>>()?;
            let thens: Vec<Column> = branches
                .iter()
                .map(|(_, t)| eval_chunk(t, schema, chunk))
                .collect::<Result<_>>()?;
            let else_col = otherwise
                .as_ref()
                .map(|e| eval_chunk(e, schema, chunk))
                .transpose()?;
            let mut out = Column::new_empty(out_t);
            for i in 0..n {
                let mut v = Value::Null;
                let mut matched = false;
                for (w, t) in whens.iter().zip(&thens) {
                    if w.get(i) == Value::Bool(true) {
                        v = t.get(i);
                        matched = true;
                        break;
                    }
                }
                if !matched {
                    if let Some(e) = &else_col {
                        v = e.get(i);
                    }
                }
                out.push(&coerce(&v, out_t)).map_err(expr_err)?;
            }
            Ok(out)
        }
    }
}

/// Coerce a scalar into the target type for storage in a typed column
/// (identity or int→float widening; anything else is left alone and will
/// surface a type error on push, which indicates an inference bug).
fn coerce(v: &Value, to: DataType) -> Value {
    match (v, to) {
        (Value::Int(x), DataType::Float64) => Value::Float(*x as f64),
        _ => v.clone(),
    }
}

fn typed_or_int(t: Option<DataType>) -> DataType {
    t.unwrap_or(DataType::Int64)
}

/// Columnar binary kernel with fast paths for the all-valid numeric cases.
pub fn binary_columns(op: BinOp, l: &Column, r: &Column) -> Result<Column> {
    if l.len() != r.len() {
        return Err(CoreError::Expr(format!(
            "binary operand length mismatch: {} vs {}",
            l.len(),
            r.len()
        )));
    }
    // Fast path: f64 ⊕ f64, no nulls, arithmetic.
    if op.is_arithmetic() && l.validity().is_none() && r.validity().is_none() {
        if let (Ok(a), Ok(b)) = (l.f64_data(), r.f64_data()) {
            if op != BinOp::Mod {
                let data: Vec<f64> = match op {
                    BinOp::Add => a.iter().zip(b).map(|(x, y)| x + y).collect(),
                    BinOp::Sub => a.iter().zip(b).map(|(x, y)| x - y).collect(),
                    BinOp::Mul => a.iter().zip(b).map(|(x, y)| x * y).collect(),
                    BinOp::Div => a.iter().zip(b).map(|(x, y)| x / y).collect(),
                    _ => unreachable!(),
                };
                return Ok(Column::Float64(data, None));
            }
        }
    }
    // Fast path: i64 comparison, no nulls.
    if op.is_comparison() && l.validity().is_none() && r.validity().is_none() {
        if let (Ok(a), Ok(b)) = (l.i64_data(), r.i64_data()) {
            let data: Vec<bool> = a
                .iter()
                .zip(b)
                .map(|(x, y)| match op {
                    BinOp::Eq => x == y,
                    BinOp::Ne => x != y,
                    BinOp::Lt => x < y,
                    BinOp::Le => x <= y,
                    BinOp::Gt => x > y,
                    BinOp::Ge => x >= y,
                    _ => unreachable!(),
                })
                .collect();
            return Ok(Column::Bool(data, None));
        }
    }
    // General path via scalar semantics.
    let out_t = infer_binary(op, Some(l.dtype()), Some(r.dtype()))?;
    let mut out = Column::new_empty(typed_or_int(out_t));
    for i in 0..l.len() {
        let v = binary_scalar(op, &l.get(i), &r.get(i))?;
        out.push(&coerce(&v, typed_or_int(out_t)))
            .map_err(expr_err)?;
    }
    Ok(out)
}

/// Evaluate an expression against a single materialized row.
pub fn eval_row(expr: &Expr, schema: &Schema, row: &bda_storage::Row) -> Result<Value> {
    match expr {
        Expr::Column(name) => {
            let idx = schema
                .index_of(name)
                .map_err(|_| CoreError::Expr(format!("unknown column `{name}`")))?;
            Ok(row.get(idx).clone())
        }
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Binary { op, left, right } => {
            // Short-circuit-free: Kleene logic needs both sides anyway.
            let l = eval_row(left, schema, row)?;
            let r = eval_row(right, schema, row)?;
            binary_scalar(*op, &l, &r)
        }
        Expr::Unary { op, input } => {
            let v = eval_row(input, schema, row)?;
            unary_scalar(*op, &v)
        }
        Expr::Cast { input, to } => Ok(eval_row(input, schema, row)?.cast(*to)),
        Expr::Coalesce(args) => {
            for a in args {
                let v = eval_row(a, schema, row)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        Expr::Case {
            branches,
            otherwise,
        } => {
            for (w, t) in branches {
                if eval_row(w, schema, row)? == Value::Bool(true) {
                    return eval_row(t, schema, row);
                }
            }
            match otherwise {
                Some(e) => eval_row(e, schema, row),
                None => Ok(Value::Null),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, null};
    use bda_storage::{chunk::rows_chunk_of, Field, Row};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::value("a", DataType::Int64),
            Field::value("b", DataType::Float64),
            Field::value("s", DataType::Utf8),
            Field::value("p", DataType::Bool),
        ])
        .unwrap()
    }

    fn row(a: Value, b: Value, s: Value, p: Value) -> Row {
        Row(vec![a, b, s, p])
    }

    #[test]
    fn arithmetic_promotion() {
        let s = schema();
        let r = row(Value::Int(3), Value::Float(0.5), Value::Null, Value::Null);
        let v = eval_row(&col("a").add(col("b")), &s, &r).unwrap();
        assert_eq!(v, Value::Float(3.5));
        let v = eval_row(&col("a").mul(col("a")), &s, &r).unwrap();
        assert_eq!(v, Value::Int(9));
    }

    #[test]
    fn null_propagation_and_kleene() {
        let s = schema();
        let r = row(
            Value::Null,
            Value::Float(1.0),
            Value::Null,
            Value::Bool(true),
        );
        assert_eq!(
            eval_row(&col("a").add(lit(1i64)), &s, &r).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_row(&col("a").eq(lit(1i64)), &s, &r).unwrap(),
            Value::Null
        );
        // true OR null = true; false AND null = false.
        assert_eq!(
            eval_row(&col("p").or(null()), &s, &r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_row(&col("p").not().and(null()), &s, &r).unwrap(),
            Value::Bool(false)
        );
        // true AND null = null.
        assert_eq!(
            eval_row(&col("p").and(null()), &s, &r).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn division_and_overflow_yield_null() {
        assert_eq!(
            binary_scalar(BinOp::Div, &Value::Int(1), &Value::Int(0)).unwrap(),
            Value::Null
        );
        assert_eq!(
            binary_scalar(BinOp::Add, &Value::Int(i64::MAX), &Value::Int(1)).unwrap(),
            Value::Null
        );
        assert_eq!(
            binary_scalar(BinOp::Div, &Value::Float(1.0), &Value::Float(0.0)).unwrap(),
            Value::Float(f64::INFINITY)
        );
        assert_eq!(
            binary_scalar(BinOp::Mod, &Value::Int(7), &Value::Int(3)).unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn string_comparison() {
        let v = binary_scalar(BinOp::Lt, &Value::from("abc"), &Value::from("abd")).unwrap();
        assert_eq!(v, Value::Bool(true));
        assert!(binary_scalar(BinOp::Lt, &Value::from("a"), &Value::Int(1)).is_err());
    }

    #[test]
    fn unary_functions() {
        assert_eq!(
            unary_scalar(UnOp::Abs, &Value::Int(-3)).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            unary_scalar(UnOp::Sqrt, &Value::Float(9.0)).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            unary_scalar(UnOp::Sqrt, &Value::Float(-1.0)).unwrap(),
            Value::Null
        );
        assert_eq!(
            unary_scalar(UnOp::Floor, &Value::Float(2.7)).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            unary_scalar(UnOp::Ln, &Value::Float(0.0)).unwrap(),
            Value::Null
        );
        assert_eq!(
            unary_scalar(UnOp::IsNull, &Value::Null).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(unary_scalar(UnOp::Not, &Value::Null).unwrap(), Value::Null);
    }

    #[test]
    fn inference_rules() {
        let s = schema();
        assert_eq!(
            infer_expr(&col("a").add(col("b")), &s).unwrap(),
            Some(DataType::Float64)
        );
        assert_eq!(
            infer_expr(&col("a").add(lit(1i64)), &s).unwrap(),
            Some(DataType::Int64)
        );
        assert_eq!(
            infer_expr(&col("a").gt(col("b")), &s).unwrap(),
            Some(DataType::Bool)
        );
        assert_eq!(infer_expr(&null(), &s).unwrap(), None);
        assert_eq!(
            infer_expr(&Expr::Coalesce(vec![null(), col("a")]), &s).unwrap(),
            Some(DataType::Int64)
        );
        assert!(infer_expr(&col("s").add(lit(1i64)), &s).is_err());
        assert!(infer_expr(&col("a").and(col("p")), &s).is_err());
        assert!(infer_expr(&col("missing"), &s).is_err());
    }

    #[test]
    fn case_expression() {
        let s = schema();
        let e = Expr::Case {
            branches: vec![
                (col("a").gt(lit(10i64)), lit("big")),
                (col("a").gt(lit(0i64)), lit("small")),
            ],
            otherwise: Some(Box::new(lit("neg"))),
        };
        let r = |a: i64| row(Value::Int(a), Value::Null, Value::Null, Value::Null);
        assert_eq!(eval_row(&e, &s, &r(11)).unwrap(), Value::from("big"));
        assert_eq!(eval_row(&e, &s, &r(5)).unwrap(), Value::from("small"));
        assert_eq!(eval_row(&e, &s, &r(-1)).unwrap(), Value::from("neg"));
        assert_eq!(infer_expr(&e, &s).unwrap(), Some(DataType::Utf8));
    }

    #[test]
    fn chunk_eval_matches_row_eval() {
        let s = schema();
        let chunk = rows_chunk_of(
            &s,
            &[
                vec![
                    Value::Int(1),
                    Value::Float(0.5),
                    Value::from("x"),
                    Value::Bool(true),
                ],
                vec![
                    Value::Null,
                    Value::Float(2.0),
                    Value::Null,
                    Value::Bool(false),
                ],
                vec![Value::Int(-3), Value::Null, Value::from("y"), Value::Null],
            ],
        )
        .unwrap();
        let exprs = [
            col("a").add(col("b")),
            col("a").gt(lit(0i64)),
            col("p").or(col("a").is_null()),
            col("a").cast(DataType::Float64).mul(lit(2.0)),
            Expr::Coalesce(vec![col("a"), lit(0i64)]),
        ];
        for e in &exprs {
            let c = eval_chunk(e, &s, &chunk).unwrap();
            for (i, r) in chunk.rows().enumerate() {
                let expect = eval_row(e, &s, &r).unwrap();
                let got = c.get(i);
                // coerce for typed-column storage (int widened to float).
                let expect = match (expect.clone(), c.dtype()) {
                    (Value::Int(x), DataType::Float64) => Value::Float(x as f64),
                    _ => expect,
                };
                assert_eq!(got, expect, "expr {e} row {i}");
            }
        }
    }

    #[test]
    fn fast_path_float_kernel() {
        let l = Column::from(vec![1.0f64, 2.0, 3.0]);
        let r = Column::from(vec![10.0f64, 20.0, 30.0]);
        let out = binary_columns(BinOp::Mul, &l, &r).unwrap();
        assert_eq!(out.f64_data().unwrap(), &[10.0, 40.0, 90.0]);
    }

    #[test]
    fn fast_path_int_comparison() {
        let l = Column::from(vec![1i64, 5, 3]);
        let r = Column::from(vec![2i64, 2, 3]);
        let out = binary_columns(BinOp::Le, &l, &r).unwrap();
        assert_eq!(out.bool_data().unwrap(), &[true, false, true]);
    }

    #[test]
    fn math_functions_columnar() {
        let s = schema();
        let chunk = rows_chunk_of(
            &s,
            &[
                vec![Value::Int(4), Value::Float(1.0), Value::Null, Value::Null],
                vec![Value::Int(-2), Value::Float(0.0), Value::Null, Value::Null],
            ],
        )
        .unwrap();
        let sqrt = eval_chunk(&col("a").unary(UnOp::Sqrt), &s, &chunk).unwrap();
        assert_eq!(sqrt.get(0), Value::Float(2.0));
        let exp = eval_chunk(&col("b").unary(UnOp::Exp), &s, &chunk).unwrap();
        assert!((exp.get(0).as_float().unwrap() - std::f64::consts::E).abs() < 1e-12);
        assert_eq!(exp.get(1), Value::Float(1.0));
        let ln = eval_chunk(&col("b").unary(UnOp::Ln), &s, &chunk).unwrap();
        assert_eq!(ln.get(0), Value::Float(0.0));
        assert_eq!(ln.get(1), Value::Null, "ln(0) is null");
        let floor = eval_chunk(&col("b").mul(lit(2.5)).unary(UnOp::Floor), &s, &chunk).unwrap();
        assert_eq!(floor.get(0), Value::Int(2));
        assert_eq!(floor.dtype(), DataType::Int64);
    }

    #[test]
    fn float_modulo_and_negation() {
        assert_eq!(
            binary_scalar(BinOp::Mod, &Value::Float(7.5), &Value::Float(2.0)).unwrap(),
            Value::Float(1.5)
        );
        assert_eq!(
            binary_scalar(BinOp::Mod, &Value::Float(7.5), &Value::Float(0.0)).unwrap(),
            Value::Null
        );
        assert_eq!(
            unary_scalar(UnOp::Neg, &Value::Int(i64::MIN)).unwrap(),
            Value::Null,
            "negating i64::MIN overflows to null"
        );
    }

    #[test]
    fn cast_bool_and_string_columnar() {
        let s = schema();
        let chunk = rows_chunk_of(
            &s,
            &[vec![
                Value::Int(1),
                Value::Null,
                Value::from("2.5"),
                Value::Bool(true),
            ]],
        )
        .unwrap();
        let parsed = eval_chunk(&col("s").cast(DataType::Float64), &s, &chunk).unwrap();
        assert_eq!(parsed.get(0), Value::Float(2.5));
        let as_str = eval_chunk(&col("p").cast(DataType::Utf8), &s, &chunk).unwrap();
        assert_eq!(as_str.get(0), Value::from("true"));
    }

    #[test]
    fn binary_columns_length_check() {
        let l = Column::from(vec![1i64]);
        let r = Column::from(vec![1i64, 2]);
        assert!(binary_columns(BinOp::Add, &l, &r).is_err());
    }
}
