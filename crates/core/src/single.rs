//! The single-query progress indicator (baseline).
//!
//! Implements the SIGMOD'04 / ICDE'05 estimator the paper compares against:
//! `t = c / s`, where `c` is the refined remaining cost of the query itself
//! and `s` is its *currently observed* execution speed. Other queries are
//! seen only implicitly, through their effect on `s` — the PI has no idea
//! when they will finish or arrive, so it extrapolates the current speed
//! into the future.

use mqpi_sim::system::SystemSnapshot;

use crate::estimate::EstimateSet;

/// Single-query PI.
#[derive(Debug, Clone, Default)]
pub struct SingleQueryPi;

impl SingleQueryPi {
    /// Create the estimator.
    pub fn new() -> Self {
        SingleQueryPi
    }

    /// Estimate the remaining time of query `id`, or `None` if it is not
    /// running (queued and blocked queries have no meaningful single-query
    /// estimate).
    pub fn estimate(&self, snap: &SystemSnapshot, id: u64) -> Option<f64> {
        let q = snap.running.iter().find(|r| r.id == id)?;
        if q.blocked {
            return None;
        }
        // Observed speed; before the monitor has a sample, fall back to the
        // fair-share speed the query is entitled to right now (this is also
        // what a fresh PostgreSQL PI would assume).
        let total_w: f64 = snap
            .running
            .iter()
            .filter(|r| !r.blocked)
            .map(|r| r.weight)
            .sum();
        let fallback = if total_w > 0.0 {
            snap.rate * q.weight / total_w
        } else {
            snap.rate
        };
        let s = q.observed_speed.unwrap_or(fallback).max(1e-9);
        Some(q.remaining / s)
    }

    /// Estimates for all running, unblocked queries.
    pub fn estimates(&self, snap: &SystemSnapshot) -> EstimateSet {
        EstimateSet::from_pairs(
            snap.running
                .iter()
                .filter(|q| !q.blocked)
                .filter_map(|q| self.estimate(snap, q.id).map(|t| (q.id, t))),
            false,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqpi_sim::system::{QueryState, SystemSnapshot};

    fn state(id: u64, remaining: f64, speed: Option<f64>, weight: f64) -> QueryState {
        QueryState {
            id,
            name: format!("q{id}").into(),
            weight,
            arrived: 0.0,
            started: 0.0,
            done: 0.0,
            remaining,
            initial_estimate: remaining,
            observed_speed: speed,
            blocked: false,
            rolling_back: false,
        }
    }

    fn snap(running: Vec<QueryState>) -> SystemSnapshot {
        SystemSnapshot {
            time: 0.0,
            rate: 100.0,
            running,
            queued: vec![],
        }
    }

    #[test]
    fn divides_cost_by_observed_speed() {
        let s = snap(vec![state(1, 500.0, Some(25.0), 1.0)]);
        let pi = SingleQueryPi::new();
        assert!((pi.estimate(&s, 1).unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn extrapolates_current_speed_ignoring_other_queries() {
        // Two queries; the other one is about to finish, but the single-
        // query PI keeps assuming the shared-speed world.
        let s = snap(vec![
            state(1, 500.0, Some(50.0), 1.0),
            state(2, 1.0, Some(50.0), 1.0),
        ]);
        let pi = SingleQueryPi::new();
        // 500/50 = 10s — although really Q2 finishes almost immediately and
        // Q1 would speed up to 100 U/s (true answer ≈ 5s).
        assert!((pi.estimate(&s, 1).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn falls_back_to_fair_share_before_first_sample() {
        let s = snap(vec![state(1, 300.0, None, 1.0), state(2, 300.0, None, 2.0)]);
        let pi = SingleQueryPi::new();
        // Fair share of q1: 100·(1/3) ⇒ 300/33.3 = 9s.
        assert!((pi.estimate(&s, 1).unwrap() - 9.0).abs() < 1e-6);
    }

    #[test]
    fn unknown_or_blocked_queries_yield_none() {
        let mut st = state(1, 10.0, Some(1.0), 1.0);
        st.blocked = true;
        let s = snap(vec![st]);
        let pi = SingleQueryPi::new();
        assert!(pi.estimate(&s, 1).is_none());
        assert!(pi.estimate(&s, 99).is_none());
    }
}
