//! `mqpi` — Multi-query SQL Progress Indicators.
//!
//! A from-scratch Rust reproduction of *Multi-query SQL Progress Indicators*
//! (Luo, Naughton, Yu — EDBT 2006): a SQL engine substrate with per-page
//! work accounting, a virtual-time multi-query execution environment,
//! single- and multi-query progress indicators, and PI-driven workload
//! management.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`engine`] — the SQL engine (storage, B+-trees, parser, planner,
//!   executor with progress refinement).
//! * [`sim`] — weighted-fair-share scheduler, admission queue, arrivals.
//! * [`pi`] — the paper's progress indicators (single-query baseline and
//!   the multi-query estimator in its three visibility modes).
//! * [`wlm`] — workload-management algorithms (speed-up problems, scheduled
//!   maintenance).
//! * [`workload`] — TPC-R-style data/query generators and the paper's
//!   experiment scenarios.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end tour: build a database,
//! run concurrent queries under the simulator, and compare single- vs
//! multi-query progress estimates.

#![forbid(unsafe_code)]

pub use mqpi_core as pi;
pub use mqpi_engine as engine;
pub use mqpi_sim as sim;
pub use mqpi_wlm as wlm;
pub use mqpi_workload as workload;
