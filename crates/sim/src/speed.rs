//! Observed execution-speed monitors.
//!
//! A single-query PI estimates remaining time as `t = c / s` where `s` is
//! the *currently observed* execution speed (paper §2). The monitor here is
//! an exponentially-weighted average of instantaneous speed with a
//! configurable time constant — it reacts to load changes with a lag, which
//! is precisely the behaviour that makes single-query PIs mispredict when
//! concurrent queries finish.

use mqpi_engine::error::{EngineError, Result};

/// Exponentially-smoothed speed estimate over virtual time.
#[derive(Debug, Clone, Copy)]
pub struct SpeedMonitor {
    tau: f64,
    last_t: f64,
    last_units: f64,
    ema: Option<f64>,
}

impl SpeedMonitor {
    /// Create a monitor with smoothing time constant `tau` seconds; larger
    /// values average over a longer window. A non-positive or non-finite
    /// `tau` is a configuration error, not a panic.
    pub fn new(tau: f64) -> Result<Self> {
        Self::new_at(tau, 0.0)
    }

    /// Create a monitor whose baseline is time `t0` (for queries that start
    /// mid-simulation).
    pub fn new_at(tau: f64, t0: f64) -> Result<Self> {
        if !(tau > 0.0 && tau.is_finite()) {
            return Err(EngineError::exec(format!(
                "speed monitor time constant must be positive and finite, got {tau}"
            )));
        }
        Ok(SpeedMonitor {
            tau,
            last_t: t0,
            last_units: 0.0,
            ema: None,
        })
    }

    /// Record the cumulative `units` completed by time `t`.
    pub fn update(&mut self, t: f64, units: f64) {
        let dt = t - self.last_t;
        if dt <= 0.0 {
            return;
        }
        let inst = (units - self.last_units).max(0.0) / dt;
        let alpha = 1.0 - (-dt / self.tau).exp();
        self.ema = Some(match self.ema {
            None => inst,
            Some(prev) => prev + alpha * (inst - prev),
        });
        self.last_t = t;
        self.last_units = units;
    }

    /// Current speed estimate in units/second (`None` before the first
    /// sample interval elapses).
    pub fn speed(&self) -> Option<f64> {
        self.ema
    }

    /// [`SpeedMonitor::update`] with the smoothing factor hoisted out.
    ///
    /// Every running session's monitor is updated on every scheduler step,
    /// so at step end all monitors share the same `last_t` and the same
    /// `tau` — which makes `alpha = 1 - exp(-dt/tau)` bitwise identical
    /// across sessions. The scheduler computes it once per step and passes
    /// it in, turning n `exp()` calls per step into one. The guard checks
    /// that this monitor really is in lockstep (`dt`, `tau` both match) and
    /// otherwise falls back to the full update, so the result is always
    /// bit-identical to calling [`SpeedMonitor::update`].
    #[inline]
    pub(crate) fn update_with_alpha(&mut self, t: f64, units: f64, dt: f64, tau: f64, alpha: f64) {
        if t - self.last_t != dt || self.tau != tau {
            self.update_out_of_step(t, units);
            return;
        }
        // dt > 0 here: the caller skips the monitor pass entirely when the
        // step did not advance the clock, matching update()'s early return.
        let inst = (units - self.last_units).max(0.0) / dt;
        self.ema = Some(match self.ema {
            None => inst,
            Some(prev) => prev + alpha * (inst - prev),
        });
        self.last_t = t;
        self.last_units = units;
    }

    /// Whether this monitor was last updated at `t` with time constant
    /// `tau`: the lockstep the tag path's shared update assumes.
    pub(crate) fn in_step(&self, t: f64, tau: f64) -> bool {
        self.last_t == t && self.tau == tau
    }

    /// The EMA as one f64 lane, NaN before the first sample.
    pub(crate) fn lane(&self) -> f64 {
        self.ema.unwrap_or(f64::NAN)
    }

    /// A monitor in lockstep at `t`, having seen `units`, with the EMA
    /// `lane` ([`SpeedMonitor::lane`]'s encoding).
    pub(crate) fn with_lane(&self, t: f64, units: f64, lane: f64) -> Self {
        SpeedMonitor {
            tau: self.tau,
            last_t: t,
            last_units: units,
            ema: (!lane.is_nan()).then_some(lane),
        }
    }

    /// The full update with its own `exp()`, kept out of the scheduler's
    /// fused pass: a monitor is out of lockstep only when it missed an
    /// update the others got or carries another `tau`, which stepping
    /// alone never produces.
    #[cold]
    #[inline(never)]
    fn update_out_of_step(&mut self, t: f64, units: f64) {
        self.update(t, units);
    }
}

/// One sample of a tag-path monitor in its lane ([`SpeedMonitor::lane`]):
/// the EMA moves by the step's shared `alpha` toward the session's fluid
/// rate `inst` (0 while blocked), and a lane without a sample yet takes
/// `inst` itself. The running set replays a row's logged steps through
/// this, in step order, so a lane read late holds the bits it would hold
/// had every step sampled it.
#[inline(always)]
pub(crate) fn sample(e: &mut f64, inst: f64, alpha: f64) {
    let next = *e + alpha * (inst - *e);
    *e = if e.is_nan() { inst } else { next };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_speed_is_measured_exactly() {
        let mut m = SpeedMonitor::new(5.0).unwrap();
        for i in 1..=100 {
            m.update(i as f64, 10.0 * i as f64);
        }
        let s = m.speed().unwrap();
        assert!((s - 10.0).abs() < 1e-9, "speed = {s}");
    }

    #[test]
    fn reacts_to_speed_changes_with_lag() {
        let mut m = SpeedMonitor::new(5.0).unwrap();
        let mut units = 0.0;
        for i in 1..=50 {
            units += 10.0;
            m.update(i as f64, units);
        }
        // Speed doubles at t=50.
        let before = m.speed().unwrap();
        for i in 51..=53 {
            units += 20.0;
            m.update(i as f64, units);
        }
        let shortly_after = m.speed().unwrap();
        assert!(
            shortly_after > before && shortly_after < 20.0,
            "lagging EMA"
        );
        for i in 54..=120 {
            units += 20.0;
            m.update(i as f64, units);
        }
        let converged = m.speed().unwrap();
        assert!((converged - 20.0).abs() < 0.5, "converged = {converged}");
    }

    #[test]
    fn zero_dt_updates_are_ignored() {
        let mut m = SpeedMonitor::new(1.0).unwrap();
        m.update(1.0, 5.0);
        let s0 = m.speed();
        m.update(1.0, 50.0);
        assert_eq!(m.speed(), s0);
    }

    #[test]
    fn zero_tau_is_a_constructor_error() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = SpeedMonitor::new(bad).expect_err("tau must be rejected");
            assert!(err.to_string().contains("time constant"), "err: {err}");
        }
        assert!(SpeedMonitor::new_at(0.0, 5.0).is_err());
    }
}
