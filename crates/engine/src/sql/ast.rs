//! SQL abstract syntax tree.

use crate::value::Value;

/// Binary operators in expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinOp {
    /// True for `= <> < <= > >=`.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean NOT.
    Not,
}

/// An expression node.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Column reference, optionally qualified by a table alias.
    Column {
        /// Table name or alias qualifier.
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Function call (aggregates and scalar functions share this node).
    Func {
        /// Lower-cased function name.
        name: String,
        /// Argument expressions (empty for `count(*)`).
        args: Vec<Expr>,
        /// True for `count(*)`.
        star: bool,
        /// True for `agg(DISTINCT expr)`.
        distinct: bool,
    },
    /// Scalar subquery `( SELECT ... )`, possibly correlated with outer
    /// columns.
    Subquery(Box<Query>),
    /// `EXISTS ( SELECT ... )`, possibly correlated.
    Exists(Box<Query>),
    /// `expr [NOT] IN ( SELECT ... )`, possibly correlated.
    InSubquery {
        /// The tested expression.
        expr: Box<Expr>,
        /// The subquery producing the comparison set (one column).
        query: Box<Query>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'` with `%` and `_` wildcards.
    Like {
        /// The tested expression.
        expr: Box<Expr>,
        /// The pattern (literal).
        pattern: String,
        /// True for `NOT LIKE`.
        negated: bool,
    },
}

impl Expr {
    /// Walk the expression tree, calling `f` on every node (pre-order).
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Unary { expr, .. } => expr.walk(f),
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Func { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::InSubquery { expr, .. } | Expr::Like { expr, .. } => expr.walk(f),
            Expr::Literal(_) | Expr::Column { .. } | Expr::Subquery(_) | Expr::Exists(_) => {}
        }
    }

    /// True if any node satisfies the predicate (does not descend into
    /// subqueries).
    pub fn any(&self, pred: &mut dyn FnMut(&Expr) -> bool) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if pred(e) {
                found = true;
            }
        });
        found
    }

    /// True if the expression contains an aggregate function call at the top
    /// level of this query (does not descend into subqueries).
    pub fn contains_aggregate(&self) -> bool {
        self.any(&mut |e| {
            matches!(e, Expr::Func { name, .. }
                if matches!(name.as_str(), "count" | "sum" | "avg" | "min" | "max"))
        })
    }
}

/// An item of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// `expr [AS alias]`
    Expr {
        /// The expression.
        expr: Expr,
        /// Optional alias.
        alias: Option<String>,
    },
}

/// A table reference in FROM with an optional alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Table name.
    pub table: String,
    /// Alias (defaults to the table name).
    pub alias: String,
}

/// One ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort expression.
    pub expr: Expr,
    /// Descending if true.
    pub desc: bool,
}

/// A parsed SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// SELECT list.
    pub select: Vec<SelectItem>,
    /// The one table the query block reads.
    pub from: TableRef,
    /// The WHERE predicate, split into conjuncts.
    pub predicates: Vec<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY items.
    pub order_by: Vec<OrderItem>,
    /// LIMIT row count.
    pub limit: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(table: Option<&str>, name: &str) -> Expr {
        Expr::Column {
            table: table.map(|t| t.to_ascii_lowercase()),
            name: name.to_ascii_lowercase(),
        }
    }

    #[test]
    fn walk_visits_every_node() {
        let e = Expr::Binary {
            op: BinOp::Add,
            left: Box::new(Expr::Literal(Value::Int(1))),
            right: Box::new(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(col(Some("t"), "x")),
            }),
        };
        let mut n = 0;
        e.walk(&mut |_| n += 1);
        assert_eq!(n, 4);
    }

    #[test]
    fn contains_aggregate_detects_only_aggregates() {
        let agg = Expr::Func {
            name: "sum".into(),
            args: vec![col(None, "x")],
            star: false,
            distinct: false,
        };
        assert!(agg.contains_aggregate());
        let scalar = Expr::Func {
            name: "abs".into(),
            args: vec![col(None, "x")],
            star: false,
            distinct: false,
        };
        assert!(!scalar.contains_aggregate());
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::LtEq.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(!BinOp::And.is_comparison());
    }
}
