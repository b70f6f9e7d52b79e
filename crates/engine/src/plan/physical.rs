//! Physical plan representation.
//!
//! A plan is a tree of [`PlanNode`]s. Every node carries the optimizer's
//! estimates ([`NodeEst`]) — cumulative cost in work units `U` and output
//! cardinality — which seed the executor's progress accounting before any
//! online refinement happens.

use crate::sql::ast::{BinOp, UnaryOp};
use crate::tuple::ColumnMask;
use crate::value::Value;

/// Compiled expression over an input tuple, correlation parameters, and
/// (possibly) nested subplans.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysExpr {
    /// Constant.
    Literal(Value),
    /// Column `i` of the operator's input tuple.
    Input(usize),
    /// Correlation parameter `i` (bound by the enclosing subquery driver).
    Param(usize),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<PhysExpr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<PhysExpr>,
        /// Right operand.
        right: Box<PhysExpr>,
    },
    /// Scalar function call.
    Scalar {
        /// Function.
        func: ScalarFunc,
        /// Arguments.
        args: Vec<PhysExpr>,
    },
    /// Correlated scalar subquery: evaluate `outer_args` against the current
    /// input tuple, bind them as params, run `plan` to completion, and yield
    /// its single value (NULL when the subquery produces no row; an error
    /// when it produces more than one).
    Subquery {
        /// The compiled subplan.
        plan: Box<PlanNode>,
        /// Expressions producing the correlation parameter values.
        outer_args: Vec<PhysExpr>,
        /// See [`SiteId`].
        site: SiteId,
    },
    /// `EXISTS (subquery)`: true iff the subplan yields at least one row
    /// (short-circuits after the first row).
    Exists {
        /// The compiled subplan.
        plan: Box<PlanNode>,
        /// Expressions producing the correlation parameter values.
        outer_args: Vec<PhysExpr>,
        /// See [`SiteId`].
        site: SiteId,
    },
    /// `expr [NOT] IN (subquery)` with SQL three-valued semantics.
    InSubquery {
        /// The tested expression.
        expr: Box<PhysExpr>,
        /// The compiled one-column subplan.
        plan: Box<PlanNode>,
        /// Expressions producing the correlation parameter values.
        outer_args: Vec<PhysExpr>,
        /// True for `NOT IN`.
        negated: bool,
        /// See [`SiteId`].
        site: SiteId,
    },
    /// `expr [NOT] LIKE pattern` (`%` and `_` wildcards).
    Like {
        /// The tested expression.
        expr: Box<PhysExpr>,
        /// The pattern.
        pattern: String,
        /// True for `NOT LIKE`.
        negated: bool,
    },
}

/// Names one subquery expression within a planned query, so that the
/// executor can keep one operator tree per site and rewind it for each outer
/// row instead of building a new one. The planner numbers the sites of a
/// finished plan from 1 (`plan::finish`); 0 means "not numbered", and such a
/// site is built afresh on every evaluation.
pub type SiteId = usize;

/// Scalar (non-aggregate) functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// `abs(x)`
    Abs,
    /// `is_null(x)` — the compiled form of `x IS NULL`.
    IsNull,
    /// `length(s)` — character count of a string.
    Length,
    /// `lower(s)`
    Lower,
    /// `upper(s)`
    Upper,
    /// `round(x)` — nearest integer, half away from zero.
    Round,
    /// `coalesce(a, b, …)` — first non-NULL argument.
    Coalesce,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `count(*)` / `count(expr)`
    Count,
    /// `sum(expr)`
    Sum,
    /// `avg(expr)`
    Avg,
    /// `min(expr)`
    Min,
    /// `max(expr)`
    Max,
}

/// One aggregate computation.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Argument (None only for `count(*)`).
    pub arg: Option<PhysExpr>,
    /// `agg(DISTINCT expr)`: fold each distinct argument value once.
    pub distinct: bool,
}

/// One sort key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// Key expression over the input tuple.
    pub expr: PhysExpr,
    /// Descending order if true.
    pub desc: bool,
}

/// Optimizer estimates for a plan node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeEst {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated *cumulative* cost in work units (includes children).
    pub cost: f64,
}

/// A physical plan node: operator plus estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// The operator.
    pub op: PlanOp,
    /// Optimizer estimates.
    pub est: NodeEst,
}

/// Physical operators.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Full sequential scan of a table.
    SeqScan {
        /// Table name.
        table: String,
        /// Columns anything above the scan reads (`plan::finish`).
        needed: ColumnMask,
    },
    /// Index equality probe. `key` may reference correlation params.
    IndexScanEq {
        /// Table name.
        table: String,
        /// Indexed column ordinal.
        column: usize,
        /// Probe key expression (no `Input` refs; params/literals only).
        key: PhysExpr,
        /// Columns anything above the scan reads (`plan::finish`).
        needed: ColumnMask,
    },
    /// Index range scan over `lo..=hi` (inclusive; strict bounds are
    /// enforced by an enclosing Filter residual).
    IndexScanRange {
        /// Table name.
        table: String,
        /// Indexed column ordinal.
        column: usize,
        /// Lower bound expression.
        lo: Option<PhysExpr>,
        /// Upper bound expression.
        hi: Option<PhysExpr>,
        /// Columns anything above the scan reads (`plan::finish`).
        needed: ColumnMask,
    },
    /// Filter rows by a predicate.
    Filter {
        /// Input plan.
        input: Box<PlanNode>,
        /// Predicate (kept even if partially enforced by an index scan).
        pred: PhysExpr,
    },
    /// Compute output expressions.
    Project {
        /// Input plan.
        input: Box<PlanNode>,
        /// Output expressions.
        exprs: Vec<PhysExpr>,
    },
    /// Full sort (materializes input).
    Sort {
        /// Input plan.
        input: Box<PlanNode>,
        /// Sort keys, major first.
        keys: Vec<SortKey>,
    },
    /// Grouped (or scalar, when `group` is empty) aggregation; output =
    /// group values ++ aggregate values.
    Aggregate {
        /// Input plan.
        input: Box<PlanNode>,
        /// Grouping expressions.
        group: Vec<PhysExpr>,
        /// Aggregates.
        aggs: Vec<AggSpec>,
    },
    /// Emit at most `n` rows.
    Limit {
        /// Input plan.
        input: Box<PlanNode>,
        /// Row cap.
        n: u64,
    },
    /// Remove duplicate rows (`SELECT DISTINCT`).
    Distinct {
        /// Input plan.
        input: Box<PlanNode>,
    },
}

impl PlanNode {
    /// Children of this node (subquery plans inside expressions are not
    /// included; they execute as nested invocations).
    pub fn children(&self) -> Vec<&PlanNode> {
        match &self.op {
            PlanOp::SeqScan { .. } | PlanOp::IndexScanEq { .. } | PlanOp::IndexScanRange { .. } => {
                vec![]
            }
            PlanOp::Filter { input, .. }
            | PlanOp::Project { input, .. }
            | PlanOp::Sort { input, .. }
            | PlanOp::Aggregate { input, .. }
            | PlanOp::Limit { input, .. }
            | PlanOp::Distinct { input } => vec![input],
        }
    }

    /// Render an EXPLAIN-style tree, one node per line.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        let label = match &self.op {
            PlanOp::SeqScan { table, .. } => format!("SeqScan on {table}"),
            PlanOp::IndexScanEq { table, column, .. } => {
                format!("IndexScan(eq) on {table} (col #{column})")
            }
            PlanOp::IndexScanRange { table, column, .. } => {
                format!("IndexScan(range) on {table} (col #{column})")
            }
            PlanOp::Filter { .. } => "Filter".to_string(),
            PlanOp::Project { .. } => "Project".to_string(),
            PlanOp::Sort { .. } => "Sort".to_string(),
            PlanOp::Aggregate { group, aggs, .. } => {
                format!("Aggregate (groups={}, aggs={})", group.len(), aggs.len())
            }
            PlanOp::Limit { n, .. } => format!("Limit {n}"),
            PlanOp::Distinct { .. } => "Distinct".to_string(),
        };
        out.push_str(&format!(
            "{indent}{label}  (rows≈{:.0}, cost≈{:.1}U)\n",
            self.est.rows, self.est.cost
        ));
        for c in self.children() {
            c.explain_into(depth + 1, out);
        }
    }
}

impl PhysExpr {
    /// True if the expression references any `Input` column.
    pub fn uses_input(&self) -> bool {
        match self {
            PhysExpr::Input(_) => true,
            PhysExpr::Literal(_) | PhysExpr::Param(_) => false,
            PhysExpr::Unary { expr, .. } => expr.uses_input(),
            PhysExpr::Binary { left, right, .. } => left.uses_input() || right.uses_input(),
            PhysExpr::Scalar { args, .. } => args.iter().any(|a| a.uses_input()),
            PhysExpr::Subquery { outer_args, .. } | PhysExpr::Exists { outer_args, .. } => {
                outer_args.iter().any(|a| a.uses_input())
            }
            PhysExpr::InSubquery {
                expr, outer_args, ..
            } => expr.uses_input() || outer_args.iter().any(|a| a.uses_input()),
            PhysExpr::Like { expr, .. } => expr.uses_input(),
        }
    }

    /// True if the expression contains a subquery.
    pub fn has_subquery(&self) -> bool {
        match self {
            PhysExpr::Subquery { .. } | PhysExpr::Exists { .. } | PhysExpr::InSubquery { .. } => {
                true
            }
            PhysExpr::Literal(_) | PhysExpr::Input(_) | PhysExpr::Param(_) => false,
            PhysExpr::Unary { expr, .. } => expr.has_subquery(),
            PhysExpr::Binary { left, right, .. } => left.has_subquery() || right.has_subquery(),
            PhysExpr::Scalar { args, .. } => args.iter().any(|a| a.has_subquery()),
            PhysExpr::Like { expr, .. } => expr.has_subquery(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(table: &str) -> PlanNode {
        PlanNode {
            op: PlanOp::SeqScan {
                table: table.into(),
                needed: ColumnMask::ALL,
            },
            est: NodeEst {
                rows: 100.0,
                cost: 10.0,
            },
        }
    }

    #[test]
    fn children_and_explain() {
        let est = NodeEst {
            rows: 50.0,
            cost: 30.0,
        };
        let sort = PlanNode {
            op: PlanOp::Sort {
                input: Box::new(leaf("a")),
                keys: vec![SortKey {
                    expr: PhysExpr::Input(0),
                    desc: true,
                }],
            },
            est,
        };
        let limit = PlanNode {
            op: PlanOp::Limit {
                input: Box::new(sort),
                n: 5,
            },
            est,
        };
        assert_eq!(limit.children().len(), 1);
        assert!(leaf("a").children().is_empty());
        let text = limit.explain();
        assert!(text.contains("Limit 5"));
        assert!(text.contains("\n  Sort"));
        assert!(text.contains("\n    SeqScan on a"));
        assert!(text.lines().count() == 3);
    }

    #[test]
    fn uses_input_and_has_subquery() {
        let e = PhysExpr::Binary {
            op: BinOp::Gt,
            left: Box::new(PhysExpr::Input(2)),
            right: Box::new(PhysExpr::Subquery {
                plan: Box::new(leaf("t")),
                outer_args: vec![PhysExpr::Input(0)],
                site: 0,
            }),
        };
        assert!(e.uses_input());
        assert!(e.has_subquery());
        assert!(!PhysExpr::Param(0).uses_input());
        assert!(!PhysExpr::Literal(Value::Int(1)).has_subquery());
    }
}
