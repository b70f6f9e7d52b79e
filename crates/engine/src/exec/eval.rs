//! Expression evaluation with three-valued logic and nested subquery
//! execution.

use crate::error::{EngineError, Result};
use crate::exec::{build, ExecContext, Operator, Step, Subplan};
use crate::plan::physical::{PhysExpr, PlanNode, ScalarFunc, SiteId};
use crate::sql::ast::{BinOp, UnaryOp};
use crate::tuple::Tuple;
use crate::value::Value;

/// Evaluate `e` against an input tuple and the context's params.
pub fn eval(e: &PhysExpr, input: &[Value], ctx: &ExecContext) -> Result<Value> {
    match e {
        PhysExpr::Literal(v) => Ok(v.clone()),
        PhysExpr::Input(i) => input
            .get(*i)
            .cloned()
            .ok_or_else(|| EngineError::exec(format!("input column {i} out of range"))),
        PhysExpr::Param(i) => ctx
            .params
            .get(*i)
            .cloned()
            .ok_or_else(|| EngineError::exec(format!("param {i} out of range"))),
        PhysExpr::Unary { op, expr } => {
            let v = eval(expr, input, ctx)?;
            match op {
                UnaryOp::Neg => v.neg(),
                UnaryOp::Not => Ok(match v.as_bool()? {
                    None => Value::Null,
                    Some(b) => Value::Int(i64::from(!b)),
                }),
            }
        }
        PhysExpr::Binary { op, left, right } => eval_binary(*op, left, right, input, ctx),
        PhysExpr::Scalar { func, args } => {
            let vals: Result<Vec<Value>> = args.iter().map(|a| eval(a, input, ctx)).collect();
            let vals = vals?;
            match func {
                ScalarFunc::IsNull => Ok(Value::Int(i64::from(vals[0].is_null()))),
                ScalarFunc::Abs => match &vals[0] {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(Value::Int(i.abs())),
                    Value::Float(f) => Ok(Value::Float(f.abs())),
                    v => Err(EngineError::exec(format!("abs() of non-number {v:?}"))),
                },
                ScalarFunc::Length => match &vals[0] {
                    Value::Null => Ok(Value::Null),
                    Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                    v => Err(EngineError::exec(format!("length() of non-string {v:?}"))),
                },
                ScalarFunc::Lower => match &vals[0] {
                    Value::Null => Ok(Value::Null),
                    Value::Str(s) => Ok(Value::Str(s.to_lowercase())),
                    v => Err(EngineError::exec(format!("lower() of non-string {v:?}"))),
                },
                ScalarFunc::Upper => match &vals[0] {
                    Value::Null => Ok(Value::Null),
                    Value::Str(s) => Ok(Value::Str(s.to_uppercase())),
                    v => Err(EngineError::exec(format!("upper() of non-string {v:?}"))),
                },
                ScalarFunc::Round => match &vals[0] {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(Value::Int(*i)),
                    // Like PostgreSQL, round(double) stays double: casting
                    // to Int would silently saturate huge values and map
                    // NaN to 0.
                    Value::Float(f) => Ok(Value::Float(f.round())),
                    v => Err(EngineError::exec(format!("round() of non-number {v:?}"))),
                },
                ScalarFunc::Coalesce => Ok(vals
                    .into_iter()
                    .find(|v| !v.is_null())
                    .unwrap_or(Value::Null)),
            }
        }
        PhysExpr::Subquery {
            plan,
            outer_args,
            site,
        } => run_subplan(*site, plan, outer_args, input, ctx, |op, row, sub_ctx| {
            if !next_row(op, row, sub_ctx)? {
                return Ok(Value::Null);
            }
            // Out of the buffer before the second pull overwrites it.
            let first = (!row.is_empty()).then(|| row.swap_remove(0));
            if next_row(op, row, sub_ctx)? {
                return Err(EngineError::exec(
                    "scalar subquery returned more than one row",
                ));
            }
            first.ok_or_else(|| EngineError::exec("scalar subquery returned a zero-column row"))
        }),
        PhysExpr::Exists {
            plan,
            outer_args,
            site,
        } => run_subplan(*site, plan, outer_args, input, ctx, |op, row, sub_ctx| {
            // Short-circuit after the first row.
            let found = next_row(op, row, sub_ctx)?;
            Ok(Value::Int(i64::from(found)))
        }),
        PhysExpr::InSubquery {
            expr,
            plan,
            outer_args,
            negated,
            site,
        } => {
            let needle = eval(expr, input, ctx)?;
            run_subplan(*site, plan, outer_args, input, ctx, |op, row, sub_ctx| {
                // SQL three-valued IN: TRUE on any match; UNKNOWN if no
                // match but a NULL was seen (or the needle is NULL and the
                // set is non-empty); FALSE otherwise. NOT IN negates
                // through 3VL.
                let mut saw_null = needle.is_null();
                let mut saw_any = false;
                let mut matched = false;
                while next_row(op, row, sub_ctx)? {
                    saw_any = true;
                    let v = row.first().ok_or_else(|| {
                        EngineError::exec("IN subquery returned a zero-column row")
                    })?;
                    if v.is_null() {
                        saw_null = true;
                    } else if !needle.is_null()
                        && needle.sql_cmp(v) == Some(std::cmp::Ordering::Equal)
                    {
                        matched = true;
                        break;
                    }
                }
                let truth = if matched {
                    Some(true)
                } else if saw_any && (saw_null || needle.is_null()) {
                    // No match, but a NULL on either side makes it UNKNOWN.
                    None
                } else {
                    Some(false)
                };
                Ok(match truth {
                    None => Value::Null,
                    Some(b) => Value::Int(i64::from(b != *negated)),
                })
            })
        }
        PhysExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, input, ctx)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => {
                    let hit = like_match(&s, pattern);
                    Ok(Value::Int(i64::from(hit != *negated)))
                }
                other => Err(EngineError::exec(format!(
                    "LIKE requires a string, got {other:?}"
                ))),
            }
        }
    }
}

/// One invocation of the subquery at `site`: bind `outer_args` (evaluated
/// against the outer `input`) as its params and hand its operator tree and
/// row buffer to `consume`. The tree is the one kept from the site's
/// previous invocation, or a new one; afterwards it is rewound and kept.
/// Invocations run on an unbudgeted child context, so they never suspend
/// (see [`ExecContext::subquery`]).
fn run_subplan<T>(
    site: SiteId,
    plan: &PlanNode,
    outer_args: &[PhysExpr],
    input: &[Value],
    ctx: &ExecContext,
    consume: impl FnOnce(&mut dyn Operator, &mut Tuple, &ExecContext) -> Result<T>,
) -> Result<T> {
    let mut sub = match ctx.take_subplan(site) {
        Some(sub) => sub,
        None => Subplan {
            op: build(plan, &ctx.tables)?,
            params: Vec::with_capacity(outer_args.len()),
            row: Tuple::new(),
        },
    };
    sub.params.clear();
    for a in outer_args {
        sub.params.push(eval(a, input, ctx)?);
    }
    let sub_ctx = ctx.subquery(std::mem::take(&mut sub.params));
    let out = consume(sub.op.as_mut(), &mut sub.row, &sub_ctx)?;
    sub.params = sub_ctx.params;
    sub.op.rewind();
    ctx.keep_subplan(site, sub);
    Ok(out)
}

/// Pull the next row of a subquery's tree into `row`; false when the tree
/// is done.
fn next_row(op: &mut dyn Operator, row: &mut Tuple, sub_ctx: &ExecContext) -> Result<bool> {
    match op.next(sub_ctx, row)? {
        Step::Row => Ok(true),
        Step::Done => Ok(false),
        Step::Pending => Err(EngineError::exec(
            "subquery suspended on an unbudgeted context",
        )),
    }
}

/// SQL LIKE matching: `%` matches any run (including empty), `_` matches
/// exactly one character. Iterative two-pointer algorithm with
/// backtracking to the last `%`.
pub fn like_match(s: &str, pattern: &str) -> bool {
    // The cursors are char iterators over what is left of each side;
    // cloning one copies two pointers, which is all backtracking needs.
    let (mut s, mut p) = (s.chars(), pattern.chars());
    // The pattern just past the last `%`, and the string from where that
    // `%` has absorbed to.
    let mut star: Option<(std::str::Chars<'_>, std::str::Chars<'_>)> = None;
    loop {
        let s_before = s.clone();
        let Some(sc) = s.next() else {
            break;
        };
        match p.next() {
            Some(pc) if pc == '_' || pc == sc => {}
            Some('%') => {
                s = s_before; // `sc` is not consumed
                star = Some((p.clone(), s.clone()));
            }
            _ => {
                // Backtrack: let the last % absorb one more character.
                let Some((after_star, absorbed)) = &mut star else {
                    return false;
                };
                absorbed.next();
                s = absorbed.clone();
                p = after_star.clone();
            }
        }
    }
    p.all(|c| c == '%')
}

fn eval_binary(
    op: BinOp,
    left: &PhysExpr,
    right: &PhysExpr,
    input: &[Value],
    ctx: &ExecContext,
) -> Result<Value> {
    // AND/OR implement SQL three-valued logic with short circuit.
    match op {
        BinOp::And => {
            let l = eval(left, input, ctx)?.as_bool()?;
            if l == Some(false) {
                return Ok(Value::Int(0));
            }
            let r = eval(right, input, ctx)?.as_bool()?;
            return Ok(match (l, r) {
                (_, Some(false)) => Value::Int(0),
                (Some(true), Some(true)) => Value::Int(1),
                _ => Value::Null,
            });
        }
        BinOp::Or => {
            let l = eval(left, input, ctx)?.as_bool()?;
            if l == Some(true) {
                return Ok(Value::Int(1));
            }
            let r = eval(right, input, ctx)?.as_bool()?;
            return Ok(match (l, r) {
                (_, Some(true)) => Value::Int(1),
                (Some(false), Some(false)) => Value::Int(0),
                _ => Value::Null,
            });
        }
        _ => {}
    }
    let l = eval(left, input, ctx)?;
    let r = eval(right, input, ctx)?;
    match op {
        BinOp::Add => l.add(&r),
        BinOp::Sub => l.sub(&r),
        BinOp::Mul => l.mul(&r),
        BinOp::Div => l.div(&r),
        BinOp::Mod => l.rem(&r),
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            Ok(match l.sql_cmp(&r) {
                None => Value::Null,
                Some(ord) => {
                    let b = match op {
                        BinOp::Eq => ord.is_eq(),
                        BinOp::NotEq => ord.is_ne(),
                        BinOp::Lt => ord.is_lt(),
                        BinOp::LtEq => ord.is_le(),
                        BinOp::Gt => ord.is_gt(),
                        BinOp::GtEq => ord.is_ge(),
                        _ => unreachable!(),
                    };
                    Value::Int(i64::from(b))
                }
            })
        }
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

/// Evaluate a predicate: true / false-or-unknown.
pub fn eval_pred(e: &PhysExpr, input: &[Value], ctx: &ExecContext) -> Result<bool> {
    Ok(eval(e, input, ctx)?.as_bool()? == Some(true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ctx() -> ExecContext {
        ExecContext::new(Arc::new(Default::default()))
    }

    fn lit(v: Value) -> PhysExpr {
        PhysExpr::Literal(v)
    }

    #[test]
    fn arithmetic_and_comparison() {
        let c = ctx();
        let e = PhysExpr::Binary {
            op: BinOp::Gt,
            left: Box::new(PhysExpr::Binary {
                op: BinOp::Mul,
                left: Box::new(PhysExpr::Input(0)),
                right: Box::new(lit(Value::Float(0.75))),
            }),
            right: Box::new(lit(Value::Int(6))),
        };
        assert_eq!(eval(&e, &[Value::Int(10)], &c).unwrap(), Value::Int(1));
        assert_eq!(eval(&e, &[Value::Int(8)], &c).unwrap(), Value::Int(0));
        assert_eq!(eval(&e, &[Value::Null], &c).unwrap(), Value::Null);
    }

    #[test]
    fn three_valued_and_or() {
        let c = ctx();
        let t = lit(Value::Int(1));
        let f = lit(Value::Int(0));
        let n = lit(Value::Null);
        let and = |a: &PhysExpr, b: &PhysExpr| PhysExpr::Binary {
            op: BinOp::And,
            left: Box::new(a.clone()),
            right: Box::new(b.clone()),
        };
        let or = |a: &PhysExpr, b: &PhysExpr| PhysExpr::Binary {
            op: BinOp::Or,
            left: Box::new(a.clone()),
            right: Box::new(b.clone()),
        };
        assert_eq!(eval(&and(&t, &n), &[], &c).unwrap(), Value::Null);
        assert_eq!(eval(&and(&f, &n), &[], &c).unwrap(), Value::Int(0));
        assert_eq!(eval(&and(&n, &f), &[], &c).unwrap(), Value::Int(0));
        assert_eq!(eval(&or(&n, &t), &[], &c).unwrap(), Value::Int(1));
        assert_eq!(eval(&or(&f, &n), &[], &c).unwrap(), Value::Null);
    }

    #[test]
    fn params_resolve() {
        let mut c = ctx();
        c.params = vec![Value::Int(42)];
        assert_eq!(eval(&PhysExpr::Param(0), &[], &c).unwrap(), Value::Int(42));
        assert!(eval(&PhysExpr::Param(1), &[], &c).is_err());
    }

    #[test]
    fn scalar_functions() {
        let c = ctx();
        let abs = PhysExpr::Scalar {
            func: ScalarFunc::Abs,
            args: vec![lit(Value::Int(-3))],
        };
        assert_eq!(eval(&abs, &[], &c).unwrap(), Value::Int(3));
        let isn = PhysExpr::Scalar {
            func: ScalarFunc::IsNull,
            args: vec![lit(Value::Null)],
        };
        assert_eq!(eval(&isn, &[], &c).unwrap(), Value::Int(1));
    }

    #[test]
    fn eval_pred_treats_null_as_false() {
        let c = ctx();
        assert!(!eval_pred(&lit(Value::Null), &[], &c).unwrap());
        assert!(eval_pred(&lit(Value::Int(1)), &[], &c).unwrap());
        assert!(!eval_pred(&lit(Value::Int(0)), &[], &c).unwrap());
    }
}
