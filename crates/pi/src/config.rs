//! Service configuration: [`PiConfig`] and the overload knobs it carries
//! ([`LadderConfig`], [`BreakerConfig`]), checked field by field by
//! [`PiConfig::validate`].

use mqpi_ckpt::wire_struct;
use mqpi_sim::{domain, RetryPolicy};
use mqpi_wal::WalKnobs;

/// Watermarks for the graceful-degradation ladder. Load is the total
/// tracked population: live + queued + backing off. Each tier is entered
/// at `*_enter` and left only at `*_exit` (strictly below its enter), so
/// transitions are hysteretic and deterministic.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LadderConfig {
    /// Load at which the epsilon-widening tier engages.
    pub widen_enter: usize,
    /// Load at or below which it disengages.
    pub widen_exit: usize,
    /// Load at which non-final pushes are suppressed.
    pub finals_enter: usize,
    /// Load at or below which they resume.
    pub finals_exit: usize,
    /// Load at which queued work starts being shed.
    pub shed_enter: usize,
    /// Shedding stops once load falls to this value.
    pub shed_exit: usize,
}
wire_struct!(LadderConfig {
    widen_enter,
    widen_exit,
    finals_enter,
    finals_exit,
    shed_enter,
    shed_exit,
});

impl Default for LadderConfig {
    fn default() -> Self {
        LadderConfig {
            widen_enter: 16,
            widen_exit: 12,
            finals_enter: 32,
            finals_exit: 24,
            shed_enter: 64,
            shed_exit: 48,
        }
    }
}

/// Divergence circuit-breaker configuration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BreakerConfig {
    /// Virtual seconds between audits.
    pub interval: f64,
    /// Worst tolerated relative divergence between a point estimate and
    /// the `predict` oracle. Must be finite; a *negative* tolerance trips
    /// the breaker on every audit (a deterministic way to exercise the
    /// self-heal path in chaos campaigns).
    pub tolerance: f64,
    /// How many queries (in completion order) each audit samples.
    pub sample: usize,
}
wire_struct!(BreakerConfig {
    interval,
    tolerance,
    sample,
});

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            interval: 10.0,
            tolerance: 1e-6,
            sample: 64,
        }
    }
}

/// Typed rejection from [`PiConfig::validate`]: the offending field and
/// value, instead of a panic or silently poisoned pushes.
#[derive(Debug, Clone, PartialEq)]
pub enum PiConfigError {
    /// `rate` must be finite and positive.
    Rate(f64),
    /// `epsilon` must be finite and non-negative.
    Epsilon(f64),
    /// `slots` must be at least 1 when bounded.
    ZeroSlots,
    /// `queue_deadline` must be finite and positive when set.
    QueueDeadline(f64),
    /// A retry-policy field is out of range.
    Retry {
        /// Which retry field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A ladder watermark constraint was violated.
    Ladder(&'static str),
    /// A breaker field is out of range.
    Breaker(&'static str),
    /// A write-ahead-log knob is out of range.
    Wal(&'static str),
}

impl std::fmt::Display for PiConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PiConfigError::Rate(v) => write!(f, "rate must be finite and positive, got {v}"),
            PiConfigError::Epsilon(v) => {
                write!(f, "epsilon must be finite and non-negative, got {v}")
            }
            PiConfigError::ZeroSlots => write!(f, "admission limit must be at least 1"),
            PiConfigError::QueueDeadline(v) => {
                write!(f, "queue_deadline must be finite and positive, got {v}")
            }
            PiConfigError::Retry { field, value } => {
                write!(f, "retry.{field} is out of range: {value}")
            }
            PiConfigError::Ladder(msg) => write!(f, "ladder: {msg}"),
            PiConfigError::Breaker(msg) => write!(f, "breaker: {msg}"),
            PiConfigError::Wal(msg) => write!(f, "wal: {msg}"),
        }
    }
}

impl std::error::Error for PiConfigError {}

/// Service configuration.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct PiConfig {
    /// Aggregate processing rate `C` (work units per second).
    pub rate: f64,
    /// Push threshold in seconds: a subscription is pushed only when its
    /// estimate moved by more than this since the last push.
    pub epsilon: f64,
    /// Admission limit (`None` = unlimited): queries beyond it wait in a
    /// FIFO queue, exactly like `fluid::predict`'s `slots` input.
    pub slots: Option<usize>,
    /// Virtual seconds a queued query may wait for admission before its
    /// deadline fires (`None` = wait forever).
    pub queue_deadline: Option<f64>,
    /// Backoff applied when a queue deadline fires: the query re-queues
    /// after a capped exponential delay until `max_attempts` is exhausted,
    /// then is rejected observably. [`RetryPolicy::none`] rejects on the
    /// first expiry.
    pub retry: RetryPolicy,
    /// Graceful-degradation ladder (`None` = always
    /// [`LoadTier::Normal`](crate::LoadTier::Normal)).
    pub ladder: Option<LadderConfig>,
    /// Divergence circuit-breaker (`None` = never audited).
    pub breaker: Option<BreakerConfig>,
    /// Write-ahead-log policy used by
    /// [`PiService::open_durable`](crate::PiService::open_durable)
    /// (group-commit flush cadence, auto-compaction threshold). `None` =
    /// no durability; a plain [`PiService::new`](crate::PiService::new)
    /// never journals either way — the knobs only take effect once a log
    /// is attached.
    pub wal: Option<WalKnobs>,
}
wire_struct!(PiConfig {
    rate,
    epsilon,
    slots,
    queue_deadline,
    retry,
    ladder,
    breaker,
    wal,
});

impl Default for PiConfig {
    fn default() -> Self {
        PiConfig {
            rate: 100.0,
            epsilon: 0.25,
            slots: None,
            queue_deadline: None,
            retry: RetryPolicy::none(),
            ladder: None,
            breaker: None,
            wal: None,
        }
    }
}

impl PiConfig {
    /// Check every field, returning the first violation as a typed error.
    pub fn validate(&self) -> Result<(), PiConfigError> {
        if domain::rate(self.rate).is_err() {
            return Err(PiConfigError::Rate(self.rate));
        }
        if !self.epsilon.is_finite() || self.epsilon < 0.0 {
            return Err(PiConfigError::Epsilon(self.epsilon));
        }
        if self.slots == Some(0) {
            return Err(PiConfigError::ZeroSlots);
        }
        if let Some(d) = self.queue_deadline {
            if !d.is_finite() || d <= 0.0 {
                return Err(PiConfigError::QueueDeadline(d));
            }
        }
        self.retry
            .validate()
            .map_err(|(field, value)| PiConfigError::Retry { field, value })?;
        if let Some(l) = self.ladder {
            if l.widen_enter == 0 {
                return Err(PiConfigError::Ladder("widen_enter must be at least 1"));
            }
            if l.widen_exit >= l.widen_enter {
                return Err(PiConfigError::Ladder(
                    "widen_exit must be below widen_enter",
                ));
            }
            if l.finals_enter < l.widen_enter {
                return Err(PiConfigError::Ladder(
                    "finals_enter must be at or above widen_enter",
                ));
            }
            if l.finals_exit >= l.finals_enter {
                return Err(PiConfigError::Ladder(
                    "finals_exit must be below finals_enter",
                ));
            }
            if l.shed_enter < l.finals_enter {
                return Err(PiConfigError::Ladder(
                    "shed_enter must be at or above finals_enter",
                ));
            }
            if l.shed_exit >= l.shed_enter {
                return Err(PiConfigError::Ladder("shed_exit must be below shed_enter"));
            }
        }
        if let Some(b) = self.breaker {
            if !b.interval.is_finite() || b.interval <= 0.0 {
                return Err(PiConfigError::Breaker("interval must be positive"));
            }
            if !b.tolerance.is_finite() {
                return Err(PiConfigError::Breaker("tolerance must be finite"));
            }
            if b.sample == 0 {
                return Err(PiConfigError::Breaker("sample must be at least 1"));
            }
        }
        if let Some(w) = self.wal {
            w.validate().map_err(PiConfigError::Wal)?;
        }
        Ok(())
    }
}
