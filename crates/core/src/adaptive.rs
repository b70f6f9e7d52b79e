//! Adaptive correction of future-workload information (§5.2.3, Figs. 8-10).
//!
//! The multi-query PI is given approximate statistics about future arrivals
//! (λ′, c̄′). The paper stresses that these need not be accurate, because
//! the PI "detects when its estimates were wrong and then adapts". The
//! estimator here implements that: the prior λ′ is treated as
//! `λ′ · prior_time` pseudo-arrivals observed over `prior_time` seconds and
//! blended with actually observed arrivals — a conjugate (Gamma-Poisson)
//! update, so the estimate converges to the true rate as evidence
//! accumulates while still using the prior early on.

use mqpi_ckpt::{CkptError, Dec, Enc, Wire};

/// Online arrival-rate estimator with a prior.
#[derive(Debug, Clone)]
pub struct ArrivalRateEstimator {
    prior_events: f64,
    prior_time: f64,
    observed_events: f64,
    observed_time: f64,
}

impl ArrivalRateEstimator {
    /// Prior rate `lambda_prior` held with the strength of `prior_time`
    /// seconds of (pseudo-)observation.
    pub fn new(lambda_prior: f64, prior_time: f64) -> Self {
        assert!(lambda_prior >= 0.0 && prior_time > 0.0);
        ArrivalRateEstimator {
            prior_events: lambda_prior * prior_time,
            prior_time,
            observed_events: 0.0,
            observed_time: 0.0,
        }
    }

    /// Record that `events` arrivals were seen during `dt` seconds.
    pub fn observe(&mut self, dt: f64, events: u64) {
        assert!(dt >= 0.0);
        self.observed_time += dt;
        self.observed_events += events as f64;
    }

    /// Current rate estimate.
    pub fn lambda(&self) -> f64 {
        (self.prior_events + self.observed_events) / (self.prior_time + self.observed_time)
    }

    /// Total observation time so far (excluding the prior).
    pub fn observed_time(&self) -> f64 {
        self.observed_time
    }
}

/// By hand: `prior_time` divides, so a non-positive one is corrupt.
impl Wire for ArrivalRateEstimator {
    fn enc(&self, e: &mut Enc) {
        (
            self.prior_events,
            self.prior_time,
            self.observed_events,
            self.observed_time,
        )
            .enc(e);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, CkptError> {
        let (prior_events, prior_time, observed_events, observed_time): (f64, f64, f64, f64) =
            Wire::dec(d)?;
        if prior_time.is_nan() || prior_time <= 0.0 {
            return Err(CkptError::Corrupt(format!(
                "non-positive prior_time {prior_time} in arrival-rate state"
            )));
        }
        Ok(ArrivalRateEstimator {
            prior_events,
            prior_time,
            observed_events,
            observed_time,
        })
    }
}

/// Online mean-cost estimator with a prior, used the same way for c̄′.
#[derive(Debug, Clone)]
pub struct MeanCostEstimator {
    sum: f64,
    count: f64,
}

impl MeanCostEstimator {
    /// Prior mean held with the strength of `prior_count` pseudo-samples.
    pub fn new(prior_mean: f64, prior_count: f64) -> Self {
        assert!(prior_count > 0.0);
        MeanCostEstimator {
            sum: prior_mean * prior_count,
            count: prior_count,
        }
    }

    /// Record one observed query cost.
    pub fn observe(&mut self, cost: f64) {
        self.sum += cost;
        self.count += 1.0;
    }

    /// Current mean estimate.
    pub fn mean(&self) -> f64 {
        self.sum / self.count
    }
}

/// By hand: `count` divides, so a non-positive one is corrupt.
impl Wire for MeanCostEstimator {
    fn enc(&self, e: &mut Enc) {
        (self.sum, self.count).enc(e);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, CkptError> {
        let (sum, count): (f64, f64) = Wire::dec(d)?;
        if count.is_nan() || count <= 0.0 {
            return Err(CkptError::Corrupt(format!(
                "non-positive sample count {count} in mean-cost state"
            )));
        }
        Ok(MeanCostEstimator { sum, count })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_the_prior() {
        let e = ArrivalRateEstimator::new(0.05, 60.0);
        assert!((e.lambda() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn converges_to_observed_rate() {
        // Prior says 0.15; reality is 0.03.
        let mut e = ArrivalRateEstimator::new(0.15, 60.0);
        for _ in 0..100 {
            e.observe(100.0, 3); // 3 per 100s = 0.03
        }
        assert!((e.lambda() - 0.03).abs() < 0.002, "λ = {}", e.lambda());
    }

    #[test]
    fn early_evidence_moves_partway() {
        let mut e = ArrivalRateEstimator::new(0.15, 60.0);
        e.observe(60.0, 2); // observed ≈ 0.033 over one prior-length window
        let l = e.lambda();
        assert!(l < 0.15 && l > 0.03, "λ = {l}");
    }

    #[test]
    fn zero_prior_rate_is_allowed() {
        let mut e = ArrivalRateEstimator::new(0.0, 30.0);
        assert_eq!(e.lambda(), 0.0);
        e.observe(10.0, 4);
        assert!(e.lambda() > 0.0);
    }

    #[test]
    fn mean_cost_estimator_blends() {
        let mut m = MeanCostEstimator::new(1000.0, 3.0);
        assert_eq!(m.mean(), 1000.0);
        for _ in 0..30 {
            m.observe(200.0);
        }
        assert!(m.mean() < 300.0 && m.mean() > 200.0);
    }
}
