//! Progress accounting types.

/// A point-in-time progress report for one query.
///
/// `done` is measured exactly (the work meter); `remaining` is the refined
/// estimate from the operator tree — the quantity the paper calls the
/// remaining cost `c` of a query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressSnapshot {
    /// Work units consumed so far (exact).
    pub done: f64,
    /// Refined estimate of work units still required.
    pub remaining: f64,
    /// The optimizer's original total-cost estimate (for reference).
    pub initial_estimate: f64,
    /// Whether the query has finished.
    pub finished: bool,
}

impl ProgressSnapshot {
    /// Fraction complete in `[0, 1]` under the current refined estimate.
    pub fn fraction_done(&self) -> f64 {
        if self.finished {
            return 1.0;
        }
        let total = self.done + self.remaining;
        if total <= 0.0 {
            0.0
        } else {
            (self.done / total).clamp(0.0, 1.0)
        }
    }
}

/// A running mean with exponential decay, used to refine per-tuple and
/// per-probe costs from observations.
#[derive(Debug, Clone)]
pub struct SmoothedMean {
    prior: f64,
    mean: f64,
    count: u64,
    alpha: f64,
}

impl SmoothedMean {
    /// New estimator seeded with a prior (the optimizer's estimate).
    pub fn with_prior(prior: f64, alpha: f64) -> Self {
        SmoothedMean {
            prior,
            mean: prior,
            count: 0,
            alpha,
        }
    }

    /// Forget every observation: back to the prior.
    pub fn reset(&mut self) {
        self.mean = self.prior;
        self.count = 0;
    }

    /// Record one observation.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        if self.count == 1 {
            // First observation: blend strongly toward reality but keep a
            // trace of the prior to damp one-off outliers.
            self.mean = 0.25 * self.mean + 0.75 * x;
        } else {
            self.mean = (1.0 - self.alpha) * self.mean + self.alpha * x;
        }
    }

    /// Current estimate.
    pub fn get(&self) -> f64 {
        self.mean
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_done_is_clamped_and_sane() {
        let p = ProgressSnapshot {
            done: 25.0,
            remaining: 75.0,
            initial_estimate: 90.0,
            finished: false,
        };
        assert!((p.fraction_done() - 0.25).abs() < 1e-12);
        let f = ProgressSnapshot {
            done: 10.0,
            remaining: 0.0,
            initial_estimate: 9.0,
            finished: true,
        };
        assert_eq!(f.fraction_done(), 1.0);
        let z = ProgressSnapshot {
            done: 0.0,
            remaining: 0.0,
            initial_estimate: 0.0,
            finished: false,
        };
        assert_eq!(z.fraction_done(), 0.0);
    }

    #[test]
    fn smoothed_mean_converges_to_observations() {
        let mut m = SmoothedMean::with_prior(100.0, 0.2);
        assert_eq!(m.get(), 100.0);
        for _ in 0..50 {
            m.observe(10.0);
        }
        assert!((m.get() - 10.0).abs() < 1.0, "mean = {}", m.get());
        assert_eq!(m.count(), 50);
    }

    #[test]
    fn first_observation_moves_most_of_the_way() {
        let mut m = SmoothedMean::with_prior(100.0, 0.2);
        m.observe(20.0);
        assert!((m.get() - 40.0).abs() < 1e-9); // 0.25*100 + 0.75*20
    }
}
