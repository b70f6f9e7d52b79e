//! `mqpi-sim` — a virtual-time multi-query execution environment.
//!
//! The paper's prototype runs inside PostgreSQL and measures wall-clock
//! time; reproducing its experiments (hundreds of runs, hundreds of virtual
//! seconds each) requires a simulated clock. This crate provides one, while
//! keeping the *work* real: queries are engine cursors executing actual
//! tuples, and the scheduler hands out work-unit quanta.
//!
//! The model implements the paper's Assumptions 1–3 (§2.1):
//!
//! 1. the RDBMS processes `C` work units per second in total, independent of
//!    how many queries run ([`SystemConfig`]'s `rate` parameter);
//! 2. remaining costs are whatever the engine's refined progress reports
//!    (exactly true only for oracle jobs);
//! 3. each running query executes at speed `C·w_i / Σw_j` — implemented by
//!    generalized-processor-sharing quanta in [`System::step`].
//!
//! Modules: [`job`] (the unit of schedulable work — engine cursors or
//! synthetic jobs), [`admission`] (admission-queue policies),
//! [`speed`] (observed-speed monitors used by single-query PIs),
//! [`system`] (the scheduler itself and its snapshots), [`domain`] (the
//! one definition of a valid weight, cost and rate), [`idmap`] (the keyed
//! hasher of every map keyed by a query id).

#![forbid(unsafe_code)]

pub mod admission;
pub mod domain;
pub mod faults;
pub mod idmap;
mod intern;
pub mod job;
pub mod rng;
mod running;
mod slab;
pub mod speed;
pub mod system;

pub use admission::AdmissionPolicy;
pub use faults::{FaultEvent, FaultKind, FaultMix, FaultPlan, RetryPolicy};
pub use job::{CursorJob, Job, JobProgress, SyntheticJob};
pub use rng::{Rng, Zipf};
pub use speed::SpeedMonitor;
pub use system::{
    ErrorPolicy, FaultStats, FinishKind, FinishedQuery, InjectedFault, QueryId, QueryState,
    QueuedState, RateModel, SimEvent, StepMode, System, SystemConfig, SystemSnapshot,
};
