//! `mqpi-wlm` — PI-driven workload management (paper §3).
//!
//! Three problems, each solved with the information a multi-query PI
//! provides (remaining costs `c_i`, completed work `e_i`, weights `w_i`):
//!
//! * [`speedup::best_single_victim`] — §3.1: which running query to block to
//!   speed up one *target* query the most (plus the greedy `h ≥ 1`
//!   generalization and the `O(n)` equal-priority special case);
//! * [`speedup::best_multi_victim`] — §3.2: which query to block to improve
//!   the *total* response time of all others the most;
//! * [`maintenance`] — §3.3: which queries to abort ahead of scheduled
//!   maintenance at time `t` so the lost work is minimized (greedy knapsack,
//!   the exact oracle optimum used for the paper's "theoretical limitation"
//!   curve, and the three decision policies compared in Fig. 11).
//!
//! The decisions are pure functions. A traced caller records each one it
//! acts on with [`record_decision`].

#![forbid(unsafe_code)]

pub mod maintenance;
pub mod policies;
pub mod speedup;

pub use maintenance::{
    greedy_abort_plan, greedy_abort_plan_with_overhead, optimal_abort_set, AbortPlan, LostWorkCase,
};
pub use policies::{decide_aborts, MaintenanceMethod};
pub use speedup::{
    best_multi_victim, best_single_victim, best_single_victims, QueryLoad, VictimChoice,
};

/// Record one workload-management decision on `obs`: a `wlm` trace event
/// stamped with the caller's virtual time `at`, carrying `action` (e.g.
/// `speedup_victim`, `multi_victim`, `maintenance_abort`) and the chosen
/// query (`None` records the explicit absence of a choice), and one tick
/// of the `wlm.decisions` counter.
pub fn record_decision(obs: &mqpi_obs::Obs, at: f64, action: &'static str, id: Option<u64>) {
    if obs.is_enabled() {
        obs.emit(at, mqpi_obs::TraceKind::WlmDecision { action, id });
        obs.counter_add("wlm.decisions", 1);
    }
}
