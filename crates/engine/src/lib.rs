//! `mqpi-engine` — a from-scratch, in-memory SQL execution engine that serves
//! as the RDBMS substrate for the EDBT 2006 paper *Multi-query SQL Progress
//! Indicators* (Luo, Naughton, Yu).
//!
//! The engine executes real tuples over slotted 8 KiB pages. Every page
//! touched is charged to a [`meter::WorkMeter`] as one *work unit* `U` — the
//! paper's unit of query cost ("the amount of work required to process one
//! page of bytes"). Query execution is **incremental**: a [`db::Cursor`] runs
//! for a caller-supplied unit budget and can be suspended and resumed, which
//! is what lets the `mqpi-sim` crate interleave many queries under a
//! weighted-fair-share scheduler in virtual time.
//!
//! Components:
//!
//! * [`value`], [`schema`], [`tuple`](mod@tuple) — datum types, table schemas, and the
//!   byte-level tuple encoding stored in pages.
//! * [`page`], [`heap`] — slotted pages and heap files.
//! * [`meter`] — the work-unit accounting shared by all storage structures.
//! * [`btree`] — a paged B+-tree index with bulk-load and incremental insert.
//! * [`stats`] — ANALYZE-style statistics (row counts, NDV, equi-depth
//!   histograms) used by the cost model.
//! * [`sql`] — tokenizer, AST, and recursive-descent parser for the SQL
//!   subset the paper's workload needs (including correlated scalar
//!   subqueries).
//! * [`plan`] — logical plans, the page-based cost model, and the planner.
//! * [`exec`] — Volcano-style physical operators with per-operator progress
//!   accounting and online remaining-cost refinement.
//! * [`db`] — the `Database` facade: DDL, loading, ANALYZE, `prepare`, and
//!   resumable cursors.

#![forbid(unsafe_code)]

pub mod btree;
pub mod db;
pub mod error;
pub mod exec;
pub mod heap;
pub mod meter;
pub mod page;
pub mod plan;
pub mod schema;
pub mod sql;
pub mod stats;
pub mod tuple;
pub mod value;

pub use db::{Cursor, Database, Prepared, RunOutcome};
pub use error::{EngineError, Result};
pub use exec::progress::ProgressSnapshot;
pub use meter::WorkMeter;
pub use schema::{Column, ColumnType, Schema};
pub use value::Value;
