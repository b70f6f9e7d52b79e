//! `mqpi-workload` — the paper's experimental workload (§5.1) and scenario
//! builders for every experiment (§5.2–5.3).
//!
//! The data follows the TPC-R-derived schema of Table 1, scaled ~1/100 so a
//! hundred-run experiment finishes in seconds of real time (the scaling is
//! documented in `DESIGN.md`; the Zipfian *cost distribution* across
//! queries, which drives every result, is preserved exactly):
//!
//! ```text
//! lineitem (partkey, quantity, extendedprice, comment)   240k rows, indexed
//! part_s<k> (partkey, retailprice, name)                 10·k rows, k = 1..=50
//! ```
//!
//! Each query `Q_k` is the paper's §5.1 query — "find parts selling for 25%
//! below suggested retail price" — a nested query whose correlated subquery
//! index-scans `lineitem` once per part row, so its cost is ∝ k.

#![forbid(unsafe_code)]

pub mod scenario;
pub mod tpcr;

pub use scenario::{
    advance_fraction, average_query_cost, maintenance_scenario, mcq_scenario,
    mcq_scenario_weighted, naq_scenario_sizes, query_job, scq_scenario, McqConfig, ScqConfig,
};
pub use tpcr::{TpcrConfig, TpcrDb, MAX_SIZE};
