//! The multi-query progress indicator (the paper's contribution).
//!
//! Given a system snapshot, the estimator builds a fluid model over the
//! refined remaining costs and weights of all running queries and predicts
//! every query's completion. Its *visibility* is configurable, matching the
//! paper's three experimental configurations:
//!
//! * concurrent queries only (§2.2) — [`Visibility::concurrent_only`];
//! * plus the admission queue (§2.3) — [`Visibility::with_queue`];
//! * plus predicted future arrivals (§2.4) —
//!   [`Visibility::with_future`].

use mqpi_sim::system::SystemSnapshot;

use crate::estimate::EstimateSet;
use crate::fluid::{predict, FluidQuery, FutureArrivals};

/// Approximate knowledge about future load (paper §2.4): average arrival
/// rate λ, average cost c̄, average weight w̄.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FutureWorkload {
    /// Average arrival rate (queries per second).
    pub lambda: f64,
    /// Average query cost (work units).
    pub avg_cost: f64,
    /// Average query weight.
    pub avg_weight: f64,
}

/// What the estimator can see.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Visibility {
    /// Admission-slot limit of the system (needed to model when queued and
    /// future queries start). `None` = unlimited.
    pub admission_slots: Option<usize>,
    /// Model queries waiting in the admission queue.
    pub consider_queue: bool,
    /// Model predicted future arrivals.
    pub future: Option<FutureWorkload>,
}

impl Visibility {
    /// §2.2 configuration: concurrent queries only.
    pub fn concurrent_only() -> Self {
        Visibility::default()
    }

    /// §2.3 configuration: concurrent queries plus the admission queue.
    pub fn with_queue(admission_slots: Option<usize>) -> Self {
        Visibility {
            admission_slots,
            consider_queue: true,
            future: None,
        }
    }

    /// §2.4 configuration: everything, including predicted future arrivals.
    pub fn with_future(admission_slots: Option<usize>, future: FutureWorkload) -> Self {
        Visibility {
            admission_slots,
            consider_queue: true,
            future: Some(future),
        }
    }
}

/// Multi-query PI.
#[derive(Debug, Clone, Default)]
pub struct MultiQueryPi {
    /// Estimator visibility.
    pub visibility: Visibility,
}

impl MultiQueryPi {
    /// Estimator with the given visibility.
    pub fn new(visibility: Visibility) -> Self {
        MultiQueryPi { visibility }
    }

    /// Estimates for all running (unblocked) queries — and, when the queue
    /// is visible, for queued queries as well. One [`predict`] pass covers
    /// the whole snapshot; look individual queries up in the returned set.
    pub fn estimates(&self, snap: &SystemSnapshot) -> EstimateSet {
        // The fluid model requires a positive rate; a paused or corrupt
        // snapshot (rate 0, NaN) floors to an epsilon rate instead — the
        // resulting huge estimates are capped by the sanitizer, and the
        // estimator keeps its contract of never panicking on bad input.
        let rate = if snap.rate.is_finite() && snap.rate > 0.0 {
            snap.rate
        } else {
            1e-9
        };
        let running: Vec<FluidQuery> = snap
            .running
            .iter()
            .filter(|q| !q.blocked)
            .map(|q| FluidQuery {
                id: q.id,
                cost: q.remaining,
                weight: q.weight,
            })
            .collect();
        let queued: Vec<FluidQuery> = if self.visibility.consider_queue {
            snap.queued
                .iter()
                .map(|q| FluidQuery {
                    id: q.id,
                    cost: q.est_cost,
                    weight: q.weight,
                })
                .collect()
        } else {
            Vec::new()
        };
        let future = self.visibility.future.and_then(|f| {
            let mut fa = FutureArrivals::from_rate(f.lambda, f.avg_cost, f.avg_weight)?;
            // Bound the forecasting horizon: predicting arrivals much beyond
            // a few multiples of the current backlog's drain time is pure
            // speculation, and in an overloaded system it would inflate
            // estimates without bound. Cap virtual arrivals at three times
            // the no-arrival quiescent time's worth of stream.
            let backlog: f64 = running.iter().map(|q| q.cost).sum::<f64>()
                + queued.iter().map(|q| q.cost).sum::<f64>();
            let quiescent = backlog / rate;
            let cap = (3.0 * quiescent * f.lambda).ceil().max(1.0) as usize;
            fa.max_arrivals = cap.min(fa.max_arrivals);
            Some(fa)
        });
        let slots = if self.visibility.consider_queue || future.is_some() {
            self.visibility.admission_slots
        } else {
            // Without queue awareness the PI doesn't model admission at all.
            None
        };
        let p = predict(&running, &queued, slots, future.as_ref(), rate);
        EstimateSet::from_prediction(p)
    }

    /// Estimate for one query. Convenience wrapper over [`Self::estimates`];
    /// when estimating several queries per tick, call `estimates` once and
    /// use [`EstimateSet::get`] instead.
    pub fn estimate(&self, snap: &SystemSnapshot, id: u64) -> Option<f64> {
        self.estimates(snap).get(id)
    }

    /// Like [`Self::estimates`], additionally recording the pass through
    /// `obs`: one `estimate` trace event per query (stamped with the
    /// snapshot time, sorted by id), the `core.predict.multi` profiling
    /// span, and estimate/sanitizer counters. With a disabled handle this
    /// is exactly [`Self::estimates`].
    pub fn estimates_observed(&self, snap: &SystemSnapshot, obs: &mqpi_obs::Obs) -> EstimateSet {
        crate::observe::emit_observed(
            obs,
            "multi",
            "core.predict.multi",
            snap.time,
            self.estimates(snap),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqpi_sim::system::{QueryState, QueuedState, SystemSnapshot};

    fn state(id: u64, remaining: f64, weight: f64) -> QueryState {
        QueryState {
            id,
            name: format!("q{id}").into(),
            weight,
            arrived: 0.0,
            started: 0.0,
            done: 0.0,
            remaining,
            initial_estimate: remaining,
            observed_speed: Some(1.0),
            blocked: false,
            rolling_back: false,
        }
    }

    fn snap(running: Vec<QueryState>, queued: Vec<QueuedState>) -> SystemSnapshot {
        SystemSnapshot {
            time: 0.0,
            rate: 100.0,
            running,
            queued,
        }
    }

    #[test]
    fn standard_case_predicts_load_drop() {
        // Q1 big, Q2 tiny: multi PI knows Q1 speeds up when Q2 finishes.
        let s = snap(vec![state(1, 500.0, 1.0), state(2, 10.0, 1.0)], vec![]);
        let pi = MultiQueryPi::new(Visibility::concurrent_only());
        let t1 = pi.estimate(&s, 1).unwrap();
        // Q2 done at 0.2s; Q1: 0.2 + (500−10)/100 = 5.1.
        assert!((t1 - 5.1).abs() < 1e-6, "t1 = {t1}");
    }

    #[test]
    fn queue_visibility_accounts_for_waiting_queries() {
        let s = snap(
            vec![state(1, 500.0, 1.0), state(2, 100.0, 1.0)],
            vec![QueuedState {
                id: 3,
                name: "q3".into(),
                weight: 1.0,
                arrived: 0.0,
                est_cost: 200.0,
            }],
        );
        let blind = MultiQueryPi::new(Visibility::concurrent_only());
        let aware = MultiQueryPi::new(Visibility::with_queue(Some(2)));
        // Blind: Q2 at 2s, Q1 at 2+4=6s. Aware: Q3 takes over ⇒ Q1 at 8s.
        assert!((blind.estimate(&s, 1).unwrap() - 6.0).abs() < 1e-6);
        assert!((aware.estimate(&s, 1).unwrap() - 8.0).abs() < 1e-6);
        // Aware also estimates the queued query itself.
        assert!((aware.estimate(&s, 3).unwrap() - 6.0).abs() < 1e-6);
        assert!(blind.estimate(&s, 3).is_none());
    }

    #[test]
    fn future_visibility_inflates_estimates() {
        let s = snap(vec![state(1, 1000.0, 1.0)], vec![]);
        let base = MultiQueryPi::new(Visibility::concurrent_only());
        let fut = MultiQueryPi::new(Visibility::with_future(
            None,
            FutureWorkload {
                lambda: 0.5,
                avg_cost: 150.0,
                avg_weight: 1.0,
            },
        ));
        assert!(fut.estimate(&s, 1).unwrap() > base.estimate(&s, 1).unwrap());
    }

    #[test]
    fn blocked_queries_are_excluded() {
        let mut blocked = state(2, 400.0, 1.0);
        blocked.blocked = true;
        let s = snap(vec![state(1, 100.0, 1.0), blocked], vec![]);
        let pi = MultiQueryPi::new(Visibility::concurrent_only());
        // Q1 effectively runs alone.
        assert!((pi.estimate(&s, 1).unwrap() - 1.0).abs() < 1e-6);
        assert!(pi.estimate(&s, 2).is_none());
    }
}
