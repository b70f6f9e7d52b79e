//! SQL front end: tokenizer, AST, and recursive-descent parser.
//!
//! The supported subset covers the paper's workload and a useful superset:
//! `SELECT` lists with expressions and aliases, a `FROM` that names one
//! table, `WHERE` with full boolean/arithmetic expressions and **correlated
//! scalar subqueries**, `GROUP BY`/`HAVING` with the standard aggregates,
//! `ORDER BY`, and `LIMIT`. A comma or `JOIN` after the table is refused
//! with a parse error.

pub mod ast;
pub mod parser;
pub mod token;

pub use ast::{BinOp, Expr, OrderItem, Query, SelectItem, TableRef, UnaryOp};
pub use parser::parse_query;
