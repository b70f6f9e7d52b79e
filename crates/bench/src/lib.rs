//! `mqpi-bench` — the experiment harness.
//!
//! One runner per table/figure of the paper's evaluation (§5). Each runner
//! returns a typed result that the `experiments` binary renders as the same
//! rows/series the paper reports (and optionally writes as CSV); the
//! Criterion benches reuse the same runners at reduced scale.
//!
//! | Paper artifact | Runner |
//! |---|---|
//! | Table 1 (data set) | [`table1::run`] |
//! | Fig. 1 (standard-case stages) | [`analytic::fig1`] |
//! | Fig. 2 (stages with a blocked query) | [`analytic::fig2`] |
//! | Fig. 3 (MCQ remaining-time estimates) | [`mcq::run`] |
//! | Fig. 4 (MCQ observed speed) | [`mcq::run`] (same trace) |
//! | Fig. 5 (NAQ estimates, 3 PI configs) | [`naq::run`] |
//! | Fig. 6/7 (SCQ error vs λ) | [`scq::run_known_lambda`] |
//! | Fig. 8/9 (SCQ error vs λ′) | [`scq::run_misestimated_lambda`] |
//! | Fig. 10 (adaptive correction over time) | [`scq::run_adaptive_trace`] |
//! | Fig. 11 (maintenance: unfinished work) | [`maintenance::run`] |

#![forbid(unsafe_code)]

pub mod ablations;
pub mod analytic;
mod campaign;
pub mod chaos;
pub mod db;
pub mod ensemble;
pub mod maintenance;
pub mod mcq;
pub mod naq;
pub mod parallel;
pub mod pibench;
pub mod pichaos;
pub mod piwal;
pub mod report;
pub mod scq;
pub mod speedup_exp;
pub mod table1;
pub mod traced;
pub mod verify;
