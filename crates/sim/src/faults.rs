//! Deterministic, seedable fault injection.
//!
//! The paper's estimator rests on three assumptions (§2.2) that §4 concedes
//! are violated in practice: a constant aggregate rate `C`, exactly known
//! remaining costs, and priority-proportional speeds. A [`FaultPlan`] is a
//! time-sorted script of violations — cost-estimate noise, rate dips,
//! mid-flight aborts with retry, arrival bursts, and engine page-read
//! faults — that [`System::install_faults`](crate::system::System::install_faults)
//! replays at exact virtual times. Everything is derived from one seed, so a
//! chaos campaign is reproducible bit-for-bit regardless of thread count.

use crate::rng::Rng;

/// One kind of injectable fault. Victim selection (where a victim is
/// needed) happens at injection time from the plan's seeded RNG, so the
/// same plan against the same workload always hits the same queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Multiply one running query's *reported* remaining cost by `factor`
    /// (violates Assumption 2; composes multiplicatively with earlier noise
    /// on the same victim). The scheduler keeps using ground truth.
    CostNoise {
        /// Multiplicative error, e.g. `0.5` or `2.0`.
        factor: f64,
    },
    /// Multiply the aggregate rate `C` by `factor` for `duration` seconds
    /// (violates Assumption 1). Progress indicators keep seeing the nominal
    /// rate — observing the dip only through speed monitors is the point.
    /// A new dip overrides any dip still in effect.
    RateDip {
        /// Rate multiplier in `(0, 1]`, e.g. `0.3` for a deep dip.
        factor: f64,
        /// How long the dip lasts, in virtual seconds.
        duration: f64,
    },
    /// Abort one running query with `overhead` units of rollback work, then
    /// resubmit a fresh copy through the admission queue per the plan's
    /// [`RetryPolicy`].
    AbortRetry {
        /// Rollback cost in work units (0 = instant abort).
        overhead: u64,
    },
    /// Submit `queries` synthetic queries of `cost` units each at once —
    /// an arrival burst that can overload the admission policy.
    Burst {
        /// Number of queries in the burst, at most
        /// [`crate::domain::MAX_BURST`].
        queries: u32,
        /// True cost of each burst query, in work units.
        cost: u64,
    },
    /// Arm an engine-level page-read fault on one running query: its next
    /// `run` installment returns an `EngineError` instead of panicking.
    PageFault,
}

impl FaultKind {
    /// Stable short label for logs and CSV columns.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::CostNoise { .. } => "cost_noise",
            FaultKind::RateDip { .. } => "rate_dip",
            FaultKind::AbortRetry { .. } => "abort_retry",
            FaultKind::Burst { .. } => "burst",
            FaultKind::PageFault => "page_fault",
        }
    }
}

/// A fault scheduled at a virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Virtual time at which the fault fires.
    pub at: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// Each retry waits this many times as long as the one before.
const BACKOFF_MULTIPLIER: f64 = 2.0;

/// Capped exponential backoff with a max-attempts budget, governing how
/// aborted or failed queries are resubmitted through the admission queue.
/// The PI service reuses this exact shape for its queue-deadline backoff.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RetryPolicy {
    /// Delay before the first retry, in virtual seconds; each later one
    /// doubles.
    pub base_delay: f64,
    /// Cap on any single delay.
    pub max_delay: f64,
    /// Total retries allowed per query chain (0 = never retry).
    pub max_attempts: u32,
}
// `PiConfig` carries a retry policy, so the service's checkpoint encodes one.
mqpi_ckpt::wire_struct!(RetryPolicy {
    base_delay,
    max_delay,
    max_attempts,
});

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_delay: 1.0,
            max_delay: 32.0,
            max_attempts: 3,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        }
    }

    /// Backoff delay before retry number `attempt` (1-based), or `None`
    /// once the attempts budget is exhausted.
    pub fn delay_for(&self, attempt: u32) -> Option<f64> {
        if attempt == 0 || attempt > self.max_attempts {
            return None;
        }
        let d = self.base_delay * BACKOFF_MULTIPLIER.powi(attempt as i32 - 1);
        Some(d.min(self.max_delay))
    }

    /// Check every field: both delays finite and ≥ 0. Returns the first
    /// field out of range and its value.
    pub fn validate(&self) -> Result<(), (&'static str, f64)> {
        for (field, value) in [
            ("base_delay", self.base_delay),
            ("max_delay", self.max_delay),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err((field, value));
            }
        }
        Ok(())
    }
}

/// How many faults of each kind to generate, and from what parameter
/// ranges. All ranges are sampled uniformly.
#[derive(Debug, Clone)]
pub struct FaultMix {
    /// Number of [`FaultKind::CostNoise`] events.
    pub cost_noise: usize,
    /// Number of [`FaultKind::RateDip`] events.
    pub rate_dips: usize,
    /// Number of [`FaultKind::AbortRetry`] events.
    pub abort_retries: usize,
    /// Number of [`FaultKind::Burst`] events.
    pub bursts: usize,
    /// Number of [`FaultKind::PageFault`] events.
    pub page_faults: usize,
    /// Range of the cost-noise multiplier.
    pub noise_range: (f64, f64),
    /// Range of the rate-dip multiplier (upper bound ≤ 1).
    pub dip_range: (f64, f64),
    /// Range of the rate-dip duration in seconds.
    pub dip_duration: (f64, f64),
    /// Range of the abort rollback overhead in units.
    pub abort_overhead: (u64, u64),
    /// Range of the burst size in queries.
    pub burst_queries: (u32, u32),
    /// Range of each burst query's cost in units.
    pub burst_cost: (u64, u64),
}

impl Default for FaultMix {
    fn default() -> Self {
        FaultMix {
            cost_noise: 0,
            rate_dips: 0,
            abort_retries: 0,
            bursts: 0,
            page_faults: 0,
            noise_range: (0.25, 4.0),
            dip_range: (0.2, 0.9),
            dip_duration: (1.0, 10.0),
            abort_overhead: (0, 200),
            burst_queries: (2, 6),
            burst_cost: (50, 500),
        }
    }
}

impl FaultMix {
    /// An even mix with `per_kind` events of every kind.
    pub fn even(per_kind: usize) -> Self {
        FaultMix {
            cost_noise: per_kind,
            rate_dips: per_kind,
            abort_retries: per_kind,
            bursts: per_kind,
            page_faults: per_kind,
            ..FaultMix::default()
        }
    }

    /// Total number of events this mix generates.
    pub fn total(&self) -> usize {
        self.cost_noise + self.rate_dips + self.abort_retries + self.bursts + self.page_faults
    }
}

/// A time-sorted script of faults plus the seed that drives victim
/// selection at injection time.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    /// Seed for injection-time randomness (victim picks).
    pub seed: u64,
    /// How aborted/failed queries are resubmitted.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// Build a plan from explicit events (sorted by time; ties keep their
    /// given order).
    ///
    /// # Panics
    ///
    /// If a burst is larger than [`crate::domain::MAX_BURST`].
    pub fn new(mut events: Vec<FaultEvent>, seed: u64, retry: RetryPolicy) -> Self {
        for ev in &events {
            if let FaultKind::Burst { queries, .. } = ev.kind {
                crate::domain::burst(queries).unwrap_or_else(|e| panic!("fault {e}"));
            }
        }
        events.sort_by(|a, b| a.at.total_cmp(&b.at));
        FaultPlan {
            events,
            seed,
            retry,
        }
    }

    /// Generate a plan deterministically from a seed: event times are
    /// uniform over `[0, horizon)` and parameters are drawn from the mix's
    /// ranges. The same `(seed, horizon, mix)` always yields the same plan.
    ///
    /// # Panics
    ///
    /// If the mix's burst sizes reach past [`crate::domain::MAX_BURST`].
    pub fn generate(seed: u64, horizon: f64, mix: &FaultMix) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let mut events = Vec::with_capacity(mix.total());
        for _ in 0..mix.cost_noise {
            let at = rng.range_f64(0.0, horizon);
            let factor = rng.range_f64(mix.noise_range.0, mix.noise_range.1);
            events.push(FaultEvent {
                at,
                kind: FaultKind::CostNoise { factor },
            });
        }
        for _ in 0..mix.rate_dips {
            let at = rng.range_f64(0.0, horizon);
            let factor = rng.range_f64(mix.dip_range.0, mix.dip_range.1);
            let duration = rng.range_f64(mix.dip_duration.0, mix.dip_duration.1);
            events.push(FaultEvent {
                at,
                kind: FaultKind::RateDip { factor, duration },
            });
        }
        for _ in 0..mix.abort_retries {
            let at = rng.range_f64(0.0, horizon);
            let span = mix.abort_overhead.1.saturating_sub(mix.abort_overhead.0);
            let overhead = mix.abort_overhead.0 + if span > 0 { rng.below(span + 1) } else { 0 };
            events.push(FaultEvent {
                at,
                kind: FaultKind::AbortRetry { overhead },
            });
        }
        for _ in 0..mix.bursts {
            let at = rng.range_f64(0.0, horizon);
            let qspan = mix.burst_queries.1.saturating_sub(mix.burst_queries.0);
            let queries = mix.burst_queries.0
                + if qspan > 0 {
                    rng.below(qspan as u64 + 1) as u32
                } else {
                    0
                };
            let cspan = mix.burst_cost.1.saturating_sub(mix.burst_cost.0);
            let cost = mix.burst_cost.0 + if cspan > 0 { rng.below(cspan + 1) } else { 0 };
            events.push(FaultEvent {
                at,
                kind: FaultKind::Burst { queries, cost },
            });
        }
        for _ in 0..mix.page_faults {
            let at = rng.range_f64(0.0, horizon);
            events.push(FaultEvent {
                at,
                kind: FaultKind::PageFault,
            });
        }
        FaultPlan::new(events, seed, RetryPolicy::default())
    }

    /// The scheduled events, earliest first.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic_and_sorted() {
        let mix = FaultMix::even(4);
        let a = FaultPlan::generate(7, 100.0, &mix);
        let b = FaultPlan::generate(7, 100.0, &mix);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.len(), 20);
        for w in a.events().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        let c = FaultPlan::generate(8, 100.0, &mix);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn generated_parameters_stay_in_range() {
        let mix = FaultMix::even(50);
        let plan = FaultPlan::generate(3, 200.0, &mix);
        for ev in plan.events() {
            assert!((0.0..200.0).contains(&ev.at));
            match ev.kind {
                FaultKind::CostNoise { factor } => {
                    assert!((0.25..=4.0).contains(&factor));
                }
                FaultKind::RateDip { factor, duration } => {
                    assert!((0.2..=0.9).contains(&factor));
                    assert!((1.0..=10.0).contains(&duration));
                }
                FaultKind::AbortRetry { overhead } => assert!(overhead <= 200),
                FaultKind::Burst { queries, cost } => {
                    assert!((2..=6).contains(&queries));
                    assert!((50..=500).contains(&cost));
                }
                FaultKind::PageFault => {}
            }
        }
    }

    #[test]
    fn retry_backoff_is_capped_exponential_with_budget() {
        let p = RetryPolicy {
            base_delay: 1.0,
            max_delay: 5.0,
            max_attempts: 4,
        };
        assert_eq!(p.delay_for(1), Some(1.0));
        assert_eq!(p.delay_for(2), Some(2.0));
        assert_eq!(p.delay_for(3), Some(4.0));
        assert_eq!(p.delay_for(4), Some(5.0)); // capped
        assert_eq!(p.delay_for(5), None); // budget exhausted
        assert_eq!(p.delay_for(0), None);
        assert_eq!(RetryPolicy::none().delay_for(1), None);
    }

    #[test]
    #[should_panic(expected = "burst queries must be at most")]
    fn oversized_burst_is_refused_by_the_constructor() {
        let kind = FaultKind::Burst {
            queries: crate::domain::MAX_BURST + 1,
            cost: 10,
        };
        FaultPlan::new(vec![FaultEvent { at: 0.0, kind }], 1, RetryPolicy::none());
    }

    #[test]
    #[should_panic(expected = "burst queries must be at most")]
    fn oversized_burst_mix_is_refused_by_generate() {
        let mix = FaultMix {
            bursts: 1,
            burst_queries: (crate::domain::MAX_BURST + 1, crate::domain::MAX_BURST + 1),
            ..FaultMix::default()
        };
        FaultPlan::generate(1, 10.0, &mix);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FaultKind::PageFault.label(), "page_fault");
        assert_eq!(FaultKind::CostNoise { factor: 2.0 }.label(), "cost_noise");
    }
}
