//! `mqpi-pi` — a long-running, multi-session progress-indicator service.
//!
//! The paper's prototype answers "how much longer?" for queries inside one
//! DBMS process; the deployment shape the ROADMAP targets is a *service*:
//! thousands of concurrent sessions submitting queries against one shared
//! predictor and arrival model, each subscribed to a stream of refreshed
//! estimates. [`PiService`] provides exactly that:
//!
//! * **One shared model.** All sessions feed a single
//!   [`IncrementalFluid`] — every arrival, finish, abort, re-weight, and
//!   rate change is an `O(log n)` delta update, never a rebuild — plus one
//!   shared Gamma-Poisson arrival-rate estimator and mean-cost estimator
//!   (§2.4/§5.2.3) used when a full [`EstimateSet`] injects predicted
//!   future arrivals.
//! * **Epsilon-push subscriptions.** Sessions subscribe to query ids;
//!   [`PiService::pump`] pushes a refreshed estimate only when it moved by
//!   more than the configured epsilon since the last push (completions
//!   always push a final zero). Estimates that moved less are suppressed —
//!   the "don't wake a million clients per tick" half of the design.
//! * **A pump that costs what changed.** An estimate falls at one second
//!   per second between deltas (§2.2) and a delta moves everybody else's
//!   by at most its own cost over `C` (§3.1), so the service knows without
//!   an `O(log n)` point read which subscriptions are still inside
//!   epsilon. `pump` reads only the others — none at all while nothing can
//!   have moved — and runs the exact predicate on those, so the push
//!   stream is the one a scan of every subscription would produce. When
//!   many come due together, as they do because estimates fall in
//!   lockstep, one `O(n)` walk of the tree
//!   ([`IncrementalFluid::sweep_into`]) serves them all, bit-identical to
//!   the point reads it replaces.
//! * **Deterministic and checkpointable.** The service runs on the caller's
//!   virtual clock ([`PiService::advance`]); identical call sequences
//!   produce bit-identical pushes, and [`PiService::checkpoint`] /
//!   [`PiService::restore`] round-trip the whole service (model, sessions,
//!   subscriptions, arrival statistics, overload state) through `mqpi-ckpt`
//!   containers with byte-identical re-encodes — the SIGKILL-resume CI job
//!   serves the same estimate stream after a kill as an uninterrupted run.
//! * **Durable.** With [`PiConfig::wal`] set, every mutating call is
//!   journaled to an `mqpi-wal` write-ahead log *before* it is applied.
//!   [`PiService::open_durable`] recovers after a crash by restoring the
//!   newest snapshot-anchored base and replaying the committed log suffix
//!   (bit-identical state *and* push streams), and a [`Standby`] tails the
//!   same log for warm failover via a deterministic
//!   [`Standby::promote`]. See the [`durable`] module docs.
//!
//! ## Overload hardening
//!
//! A service for millions of users must survive overload and bad inputs,
//! not just serve the fast path. Three deterministic mechanisms layer on
//! top of the core service (all off by default, all checkpoint-safe):
//!
//! * **Queue deadlines + backoff** ([`PiConfig::queue_deadline`],
//!   [`PiConfig::retry`]): queued queries carry virtual-time admission
//!   deadlines. On expiry a query moves to a backoff list with a capped
//!   exponential delay (the same [`RetryPolicy`] shape the simulator's
//!   fault injector uses); once the retry budget is exhausted it is
//!   rejected *observably* — its subscribers get a normal final push, and
//!   `pi.deadline.*` counters plus `deadline` trace events record why.
//! * **Graceful-degradation ladder** ([`PiConfig::ladder`]): load tiers
//!   Normal → EpsilonWiden → FinalsOnly → Shed driven by the live + queued
//!   population with hysteresis (enter watermark above exit watermark, so
//!   the tier can't flap). EpsilonWiden multiplies the push epsilon
//!   (widen, don't drop — per the uncertainty-aware line of work);
//!   FinalsOnly suppresses non-final pushes entirely; Shed additionally
//!   drops the lowest-weight queued work. Transitions emit `tier` trace
//!   events and move the `pi.tier.level` gauge.
//! * **Divergence circuit-breaker** ([`PiConfig::breaker`]): every
//!   `interval` virtual seconds an audit samples `O(log n)` point
//!   estimates against the exact `predict` oracle. Divergence beyond
//!   tolerance trips the breaker, which force-rebuilds the treap from the
//!   live set ([`IncrementalFluid::rebuild`], sanitizing any non-finite
//!   state) and records `pi.audit.{checks,trips,rebuilds}`.
//!
//! The work-conservation ledger ([`PiService::ledger`]) balances in every
//! tier: every submitted query is live, queued, backing off, completed,
//! aborted, deadline-rejected, or shed — never lost.
//!
//! [`mirror::SystemMirror`] connects the service world to the simulator:
//! it consumes the [`mqpi_sim::System`] delta-event feed and maintains the
//! same incremental model the service uses, so a simulated RDBMS can drive
//! live subscriptions without ever rebuilding from snapshots. Hostile
//! events (duplicates, unknown ids, time regressions, non-finite payloads)
//! are quarantined and counted instead of poisoning the model.

use std::collections::{HashSet, VecDeque};

use mqpi_ckpt::{wire_enum, wire_struct, CkptError, Dec, Enc, Wire};
use mqpi_core::adaptive::MeanCostEstimator;
use mqpi_core::{ArrivalRateEstimator, EstimateSet, FluidQuery, FutureArrivals, IncrementalFluid};
use mqpi_obs::{Obs, TraceKind};
use mqpi_sim::RetryPolicy;
use mqpi_wal::{Wal, WalKnobs, WalRecord, MAX_NOTE_LEN};

pub mod durable;
pub mod mirror;

pub use durable::{DurableRecovery, Standby};
pub use mirror::{QuarantineStats, SystemMirror};

const NIL: u32 = u32::MAX;

/// Residual work below which `IncrementalFluid::advance` counts a query
/// as finished (its completion sweep's `EPS`): the most a predicted
/// completion can take out of anybody else's estimate, in work units.
const COMPLETION_RESIDUAL: f64 = 1e-9;

/// Relative floating-point margin of a due-key. The drift bound holds in
/// real arithmetic; two point estimates of one query taken at different
/// tree shapes also differ by rounding, proportional to the magnitudes
/// that enter them, and so do the running sums behind `clock + drift`.
/// 1e-12 is about 4 500 ulps: two orders above the worst case of a
/// 40-level descent, small against any epsilon worth configuring.
const FP_MARGIN_REL: f64 = 1e-12;

/// Checkpoint payload kind for a serialized [`PiService`].
pub const CKPT_KIND_SERVICE: &str = "pi-service";

/// A registered session handle: the low 32 bits are a dense slot index,
/// the high 32 bits a per-slot generation bumped on every
/// [`PiService::close_session`]. Slots are reused, but a stale handle from
/// before a close carries the old generation and is rejected — holders can
/// never act on a recycled slot.
pub type SessionId = u64;

/// The push predicate: a subscription last told `last_push` (NaN =
/// nothing yet) is pushed `est` when it moved by more than `epsilon`.
fn moved(last_push: f64, est: f64, epsilon: f64) -> bool {
    last_push.is_nan() || (est - last_push).abs() > epsilon
}

fn make_sid(slot: u32, gen: u32) -> SessionId {
    (u64::from(gen) << 32) | u64::from(slot)
}

fn sid_slot(sid: SessionId) -> u32 {
    (sid & 0xFFFF_FFFF) as u32
}

fn sid_gen(sid: SessionId) -> u32 {
    (sid >> 32) as u32
}

/// Graceful-degradation tiers, in increasing severity. The ladder walks up
/// immediately when load crosses an enter watermark and back down only when
/// load falls to the (lower) exit watermark — classic hysteresis, so a load
/// hovering at a boundary cannot flap the tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LoadTier {
    /// Full service: every subscription pushed at the configured epsilon.
    Normal = 0,
    /// Push epsilon multiplied by [`LadderConfig::epsilon_factor`] —
    /// estimates widen instead of disappearing.
    EpsilonWiden = 1,
    /// Only final (completion) pushes are delivered.
    FinalsOnly = 2,
    /// Finals only, plus the lowest-weight queued work is dropped until
    /// load falls back to the shed exit watermark.
    Shed = 3,
}
wire_enum!(LoadTier, "load tier" {
    0 => Normal,
    1 => EpsilonWiden,
    2 => FinalsOnly,
    3 => Shed,
});

impl LoadTier {
    /// Stable lowercase label used in trace events and metrics.
    pub fn label(self) -> &'static str {
        match self {
            LoadTier::Normal => "normal",
            LoadTier::EpsilonWiden => "epsilon_widen",
            LoadTier::FinalsOnly => "finals_only",
            LoadTier::Shed => "shed",
        }
    }

    fn step_down(self) -> Self {
        match self {
            LoadTier::Shed => LoadTier::FinalsOnly,
            LoadTier::FinalsOnly => LoadTier::EpsilonWiden,
            _ => LoadTier::Normal,
        }
    }
}

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
    /// Multiplier applied to the push epsilon in the EpsilonWiden tier
    /// and above (≥ 1).
    pub epsilon_factor: f64,
}
wire_struct!(LadderConfig {
    widen_enter,
    widen_exit,
    finals_enter,
    finals_exit,
    shed_enter,
    shed_exit,
    epsilon_factor,
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
            epsilon_factor: 4.0,
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
    /// A prior (λ′, its strength, c̄′, or its strength) must be finite and
    /// non-negative.
    Prior {
        /// Which prior field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
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
            PiConfigError::Prior { field, value } => {
                write!(f, "{field} must be finite and non-negative, got {value}")
            }
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
    /// Prior arrival rate λ′ for the shared arrival model.
    pub lambda_prior: f64,
    /// Strength of the λ prior, in seconds of pseudo-observation.
    pub lambda_prior_time: f64,
    /// Prior mean query cost c̄′ for the shared cost model.
    pub cost_prior: f64,
    /// Strength of the cost prior, in pseudo-samples.
    pub cost_prior_strength: f64,
    /// Virtual seconds a queued query may wait for admission before its
    /// deadline fires (`None` = wait forever).
    pub queue_deadline: Option<f64>,
    /// Backoff applied when a queue deadline fires: the query re-queues
    /// after a capped exponential delay until `max_attempts` is exhausted,
    /// then is rejected observably. [`RetryPolicy::none`] rejects on the
    /// first expiry.
    pub retry: RetryPolicy,
    /// Graceful-degradation ladder (`None` = always [`LoadTier::Normal`]).
    pub ladder: Option<LadderConfig>,
    /// Divergence circuit-breaker (`None` = never audited).
    pub breaker: Option<BreakerConfig>,
    /// Write-ahead-log policy used by [`PiService::open_durable`]
    /// (group-commit flush cadence, auto-compaction threshold). `None` =
    /// no durability; a plain [`PiService::new`] never journals either
    /// way — the knobs only take effect once a log is attached.
    pub wal: Option<WalKnobs>,
}
wire_struct!(PiConfig {
    rate,
    epsilon,
    slots,
    lambda_prior,
    lambda_prior_time,
    cost_prior,
    cost_prior_strength,
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
            lambda_prior: 0.0,
            lambda_prior_time: 60.0,
            cost_prior: 500.0,
            cost_prior_strength: 3.0,
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
        if !self.rate.is_finite() || self.rate <= 0.0 {
            return Err(PiConfigError::Rate(self.rate));
        }
        if !self.epsilon.is_finite() || self.epsilon < 0.0 {
            return Err(PiConfigError::Epsilon(self.epsilon));
        }
        if self.slots == Some(0) {
            return Err(PiConfigError::ZeroSlots);
        }
        for (field, value) in [
            ("lambda_prior", self.lambda_prior),
            ("lambda_prior_time", self.lambda_prior_time),
            ("cost_prior", self.cost_prior),
            ("cost_prior_strength", self.cost_prior_strength),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(PiConfigError::Prior { field, value });
            }
        }
        if let Some(d) = self.queue_deadline {
            if !d.is_finite() || d <= 0.0 {
                return Err(PiConfigError::QueueDeadline(d));
            }
        }
        for (field, value, min) in [
            ("base_delay", self.retry.base_delay, 0.0),
            ("multiplier", self.retry.multiplier, 1.0),
            ("max_delay", self.retry.max_delay, 0.0),
        ] {
            if !value.is_finite() || value < min {
                return Err(PiConfigError::Retry { field, value });
            }
        }
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
            if !l.epsilon_factor.is_finite() || l.epsilon_factor < 1.0 {
                return Err(PiConfigError::Ladder("epsilon_factor must be at least 1"));
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

/// One estimate pushed to a subscribed session.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EstimatePush {
    /// Receiving session.
    pub session: SessionId,
    /// Subject query.
    pub query: u64,
    /// Service virtual time of the push.
    pub at: f64,
    /// Remaining seconds (0 for a final push).
    pub estimate: f64,
    /// True when the query left the system; the subscription is closed
    /// after this push.
    pub done: bool,
}

/// Service counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PiStats {
    pub submitted: u64,
    pub completed: u64,
    pub aborted: u64,
    pub pumps: u64,
    /// Estimate pushes delivered (including finals).
    pub pushes: u64,
    /// Live subscriptions a pump left unpushed (estimate within epsilon
    /// of the last push), summed over non-degraded pumps.
    pub suppressed: u64,
    /// Queue deadlines that fired.
    pub deadline_expired: u64,
    /// Deadline expiries that re-queued with backoff.
    pub deadline_requeued: u64,
    /// Deadline expiries rejected after the retry budget ran out.
    pub deadline_rejected: u64,
    /// Queued queries dropped by the Shed tier.
    pub shed: u64,
    /// Ladder tier transitions.
    pub tier_transitions: u64,
    /// Pumps that skipped non-final pushes (FinalsOnly tier and above).
    pub degraded_pumps: u64,
    /// Circuit-breaker audits performed.
    pub audit_checks: u64,
    /// Audits whose divergence exceeded tolerance.
    pub audit_trips: u64,
    /// Treap force-rebuilds triggered by trips.
    pub audit_rebuilds: u64,
    /// Non-finite inputs sanitized at the submit/reweight/refine boundary
    /// (plus fields sanitized during breaker rebuilds).
    pub sanitized: u64,
}
wire_struct!(PiStats {
    submitted,
    completed,
    aborted,
    pumps,
    pushes,
    suppressed,
    deadline_expired,
    deadline_requeued,
    deadline_rejected,
    shed,
    tier_transitions,
    degraded_pumps,
    audit_checks,
    audit_trips,
    audit_rebuilds,
    sanitized,
});

/// Work-conservation ledger: every submitted query is in exactly one
/// bucket. [`Ledger::balanced`] holds in every ladder tier — overload can
/// delay or reject work, never lose it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    pub submitted: u64,
    pub live: u64,
    pub queued: u64,
    pub backoff: u64,
    pub completed: u64,
    pub aborted: u64,
    pub deadline_rejected: u64,
    pub shed: u64,
}

impl Ledger {
    /// True when the outcome buckets sum to the submissions.
    pub fn balanced(&self) -> bool {
        let buckets = [
            self.live,
            self.queued,
            self.backoff,
            self.completed,
            self.aborted,
            self.deadline_rejected,
            self.shed,
        ];
        // Checked: `PiService::restore` asks this of decoded counters.
        let sum = buckets.iter().try_fold(0u64, |sum, &b| sum.checked_add(b));
        sum == Some(self.submitted)
    }
}

#[derive(Debug, Clone, Copy)]
struct Session {
    alive: bool,
    /// Bumped on close; stale [`SessionId`]s carry the old value.
    gen: u32,
    /// Head of this session's subscription chain.
    sub_head: u32,
}
wire_struct!(Session {
    alive,
    gen,
    sub_head,
});

/// A subscription lives on two intrusive doubly-linked chains — its
/// session's (for `close_session`) and its query's (for final pushes) —
/// so slot reclamation is O(1) with no allocation. Invariant: every
/// chained slot is active; inactive slots are on the free list only.
#[derive(Debug, Clone, Copy)]
struct Sub {
    active: bool,
    session: u32,
    query: u64,
    /// Last pushed estimate (NaN = never pushed; first pump always pushes).
    last_push: f64,
    next_in_session: u32,
    prev_in_session: u32,
    next_same_query: u32,
    prev_same_query: u32,
}
wire_struct!(Sub {
    active,
    session,
    query,
    last_push,
    next_in_session,
    prev_in_session,
    next_same_query,
    prev_same_query,
});

#[derive(Debug, Clone, Copy)]
struct Queued {
    id: u64,
    cost: f64,
    weight: f64,
    /// Deadline expiries so far (0 on first enqueue).
    attempts: u32,
    /// Absolute virtual-time admission deadline (∞ = none).
    deadline: f64,
}
wire_struct!(Queued {
    id,
    cost,
    weight,
    attempts,
    deadline,
});

/// A deadline-expired query waiting out its backoff delay before
/// re-queueing.
#[derive(Debug, Clone, Copy)]
struct Backoff {
    id: u64,
    cost: f64,
    weight: f64,
    attempts: u32,
    /// Absolute virtual time at which it re-enters the FIFO queue.
    due: f64,
}
wire_struct!(Backoff {
    id,
    cost,
    weight,
    attempts,
    due,
});

/// The always-on PI session service. See the crate docs for the design.
#[derive(Debug)]
pub struct PiService {
    cfg: PiConfig,
    clock: f64,
    fluid: IncrementalFluid,
    queue: VecDeque<Queued>,
    /// Deadline-expired entries waiting out their backoff delay, in
    /// expiry order.
    backoff: Vec<Backoff>,
    sessions: Vec<Session>,
    session_free: Vec<u32>,
    subs: Vec<Sub>,
    sub_free: Vec<u32>,
    /// query id → head of its subscriber chain. Sorted-key encoding keeps
    /// checkpoints canonical; lookups go through a plain hash map.
    by_query: std::collections::HashMap<u64, u32>,
    next_query: u64,
    arrivals: ArrivalRateEstimator,
    mean_cost: MeanCostEstimator,
    /// Arrivals seen since the last `advance` (fed to the rate estimator).
    pending_arrivals: u64,
    /// Queries that departed since the last pump; their subscribers get a
    /// final push.
    pending_final: Vec<u64>,
    /// Current graceful-degradation tier.
    tier: LoadTier,
    /// Virtual time of the next breaker audit.
    next_audit: f64,
    /// Upper bound, in seconds, on how far the deltas applied so far can
    /// have moved any *other* live query's estimate (§3.1: `cost/C` on
    /// admit, `remaining/C` on abort and reweight, `|Δcost|/C` on refine,
    /// the completion residual per predicted completion). Between deltas
    /// an estimate falls at one second per second (§2.2), so no estimate
    /// moves faster than `clock + drift` grows. Like `due_key`,
    /// `due_floor` and `live_subs` this is derived state: never
    /// checkpointed or journaled, rebuilt as "everything due" on restore.
    drift: f64,
    /// Per subscription slot, the value of `clock + drift` below which the
    /// slot's estimate is still within epsilon of its last push without
    /// being read. `-∞` = due now; `+∞` = parked (free slot, or a query
    /// still queued, which admission re-arms).
    due_key: Vec<f64>,
    /// Lower bound on every entry of `due_key`.
    due_floor: f64,
    /// Per subscription slot, the model's node slot its query was last
    /// found in (`NIL` = not looked up yet), so a read skips the id index.
    /// A hint, validated against the node on every use and looked up
    /// again when it no longer holds; derived state like `due_key`.
    node_of: Vec<u32>,
    /// Every live estimate by node slot, as of this pump's sweep
    /// ([`IncrementalFluid::sweep_into`]); scratch, meaningless between
    /// pumps.
    sweep: Vec<f64>,
    /// Active subscriptions whose query is live in the model — what a
    /// full scan would read.
    live_subs: u64,
    stats: PiStats,
    obs: Obs,
    /// Attached write-ahead log ([`PiService::open_durable`]); every
    /// mutating public call is journaled here before it is applied.
    /// Never serialized — a restored or replayed service starts detached.
    wal: Option<Wal>,
    /// Newest journaled `(iter, digest)` progress marker ([`PiService::wal_mark`]).
    /// Travels in the checkpoint so a snapshot-anchored base still knows
    /// the driver's resume frontier after its suffix is compacted away.
    pub(crate) wal_mark_cache: Option<(u64, u64)>,
    /// Newest journaled opaque driver payload ([`PiService::wal_note`]);
    /// checkpointed for the same reason as `wal_mark_cache`.
    pub(crate) wal_note_cache: Option<Vec<u8>>,
    scratch_done: Vec<u64>,
    scratch_queued: Vec<FluidQuery>,
}

impl PiService {
    /// # Panics
    /// Panics if the configuration is invalid; use [`PiService::try_new`]
    /// for a typed error instead.
    pub fn new(cfg: PiConfig) -> Self {
        Self::with_capacity(cfg, 0)
    }

    /// Validating constructor: returns the [`PiConfigError`] instead of
    /// panicking.
    pub fn try_new(cfg: PiConfig) -> Result<Self, PiConfigError> {
        Self::try_with_capacity(cfg, 0)
    }

    /// Pre-size internal storage for `cap` concurrent queries/sessions so
    /// the steady state never allocates.
    ///
    /// # Panics
    /// Panics if the configuration is invalid; use
    /// [`PiService::try_with_capacity`] for a typed error instead.
    pub fn with_capacity(cfg: PiConfig, cap: usize) -> Self {
        match Self::try_with_capacity(cfg, cap) {
            Ok(s) => s,
            Err(e) => panic!("invalid PiConfig: {e}"),
        }
    }

    /// Validating constructor with pre-sized storage.
    pub fn try_with_capacity(cfg: PiConfig, cap: usize) -> Result<Self, PiConfigError> {
        cfg.validate()?;
        Ok(PiService {
            cfg,
            clock: 0.0,
            fluid: IncrementalFluid::with_capacity(cfg.rate, cap),
            queue: VecDeque::with_capacity(cap.min(1024)),
            backoff: Vec::with_capacity(if cfg.queue_deadline.is_some() {
                cap.min(1024)
            } else {
                0
            }),
            sessions: Vec::with_capacity(cap),
            session_free: Vec::with_capacity(cap.min(1024)),
            subs: Vec::with_capacity(cap),
            sub_free: Vec::with_capacity(cap.min(1024)),
            by_query: std::collections::HashMap::with_capacity(cap),
            drift: 0.0,
            due_key: Vec::with_capacity(cap),
            due_floor: f64::INFINITY,
            node_of: Vec::with_capacity(cap),
            sweep: Vec::with_capacity(cap),
            live_subs: 0,
            next_query: 1,
            arrivals: ArrivalRateEstimator::new(cfg.lambda_prior, cfg.lambda_prior_time),
            mean_cost: MeanCostEstimator::new(cfg.cost_prior, cfg.cost_prior_strength),
            pending_arrivals: 0,
            pending_final: Vec::with_capacity(cap.min(1024)),
            tier: LoadTier::Normal,
            next_audit: cfg.breaker.map_or(f64::INFINITY, |b| b.interval),
            stats: PiStats::default(),
            obs: Obs::disabled(),
            wal: None,
            wal_mark_cache: None,
            wal_note_cache: None,
            scratch_done: Vec::with_capacity(cap.min(1024)),
            scratch_queued: Vec::with_capacity(cap.min(1024)),
        })
    }

    /// Install an observability handle (disabled by default).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    pub fn config(&self) -> &PiConfig {
        &self.cfg
    }

    /// Service virtual time.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Currently admitted (live) queries.
    pub fn live_queries(&self) -> usize {
        self.fluid.len()
    }

    /// Currently queued queries.
    pub fn queued_queries(&self) -> usize {
        self.queue.len()
    }

    /// Queries waiting out a deadline backoff delay.
    pub fn backoff_queries(&self) -> usize {
        self.backoff.len()
    }

    /// Current graceful-degradation tier.
    pub fn tier(&self) -> LoadTier {
        self.tier
    }

    /// Total tracked population: live + queued + backing off. This is the
    /// load the ladder watermarks compare against.
    pub fn load(&self) -> usize {
        self.fluid.len() + self.queue.len() + self.backoff.len()
    }

    pub fn stats(&self) -> PiStats {
        self.stats
    }

    /// Work-conservation snapshot; [`Ledger::balanced`] must hold after
    /// every public call.
    pub fn ledger(&self) -> Ledger {
        Ledger {
            submitted: self.stats.submitted,
            live: self.fluid.len() as u64,
            queued: self.queue.len() as u64,
            backoff: self.backoff.len() as u64,
            completed: self.stats.completed,
            aborted: self.stats.aborted,
            deadline_rejected: self.stats.deadline_rejected,
            shed: self.stats.shed,
        }
    }

    /// Delta counters of the underlying incremental model.
    pub fn delta_counters(&self) -> mqpi_core::DeltaCounters {
        self.fluid.counters()
    }

    /// Current shared arrival-rate estimate λ.
    pub fn lambda(&self) -> f64 {
        self.arrivals.lambda()
    }

    /// Current shared mean-cost estimate c̄.
    pub fn mean_cost(&self) -> f64 {
        self.mean_cost.mean()
    }

    /// The rate `C` the maintained model currently runs at (tracks
    /// [`PiService::set_rate`], unlike `config().rate`).
    pub fn model_rate(&self) -> f64 {
        self.fluid.rate()
    }

    /// `O(log n)` point estimate for a live query (`None` when queued,
    /// backing off, or departed) — the value the pump path reads, bit for
    /// bit, whether it takes it from a descent or from a sweep.
    pub fn point_estimate(&self, query: u64) -> Option<f64> {
        self.fluid.estimate(query)
    }

    /// The live set in admission order with current remaining costs —
    /// exactly the `running` input a fresh `predict` call would receive.
    /// Allocates; intended for audits and tests, not the steady state.
    pub fn live_set(&self) -> Vec<FluidQuery> {
        let mut out = Vec::new();
        self.fluid.extract_into(&mut out);
        out
    }

    /// Queued work in admission order (FIFO queue, then backoff entries in
    /// expiry order) — the `queued` input [`PiService::estimates`] feeds
    /// the predict kernel. Allocates; audit/test path.
    pub fn queued_set(&self) -> Vec<FluidQuery> {
        self.waiting().collect()
    }

    /// Waiting work in admission order: the FIFO queue, then backoff
    /// entries in expiry order. Position `i` is `queue[i]` below
    /// `queue.len()` and `backoff[i - queue.len()]` from there on.
    fn waiting(&self) -> impl Iterator<Item = FluidQuery> + '_ {
        let queued = self.queue.iter().map(|q| FluidQuery {
            id: q.id,
            cost: q.cost,
            weight: q.weight,
        });
        let backoff = self.backoff.iter().map(|b| FluidQuery {
            id: b.id,
            cost: b.cost,
            weight: b.weight,
        });
        queued.chain(backoff)
    }

    /// Remove the entry at position `pos` of [`PiService::waiting`].
    fn remove_waiting(&mut self, pos: usize) {
        match pos.checked_sub(self.queue.len()) {
            None => {
                self.queue.remove(pos);
            }
            Some(i) => {
                self.backoff.remove(i);
            }
        }
    }

    /// Handles of every live session, in slot order. A recovered or
    /// promoted process uses this to re-derive the handles its previous
    /// incarnation held (session ids are deterministic, so they match).
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.sessions
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(slot, s)| make_sid(slot as u32, s.gen))
            .collect()
    }

    /// Register a session. Sessions receive pushes for queries they
    /// submitted or subscribed to.
    pub fn register_session(&mut self) -> SessionId {
        self.wal_append(&WalRecord::RegisterSession);
        let sid = self.register_session_inner();
        self.wal_commit_point();
        sid
    }

    fn register_session_inner(&mut self) -> SessionId {
        if let Some(s) = self.session_free.pop() {
            let rec = &mut self.sessions[s as usize];
            rec.alive = true;
            rec.sub_head = NIL;
            make_sid(s, rec.gen)
        } else {
            self.sessions.push(Session {
                alive: true,
                gen: 0,
                sub_head: NIL,
            });
            make_sid((self.sessions.len() - 1) as u32, 0)
        }
    }

    /// Deactivate a session and all its subscriptions. Its queries keep
    /// running (ownership is not tracked; aborts are explicit). The slot's
    /// generation is bumped, so the closed handle — and any copy of it —
    /// is dead even after the slot is reused. Stale handles are a no-op.
    pub fn close_session(&mut self, sid: SessionId) {
        self.wal_append(&WalRecord::CloseSession { session: sid });
        self.close_session_inner(sid);
        self.wal_commit_point();
    }

    fn close_session_inner(&mut self, sid: SessionId) {
        let Some(slot) = self.session_slot(sid) else {
            return;
        };
        let s = &mut self.sessions[slot as usize];
        s.alive = false;
        s.gen = s.gen.wrapping_add(1);
        let mut cur = s.sub_head;
        s.sub_head = NIL;
        while cur != NIL {
            let Sub {
                query,
                next_in_session: next,
                ..
            } = self.subs[cur as usize];
            self.unlink_from_query(cur);
            if self.fluid.contains(query) {
                self.live_subs -= 1;
            }
            self.free_sub(cur);
            cur = next;
        }
        self.session_free.push(slot);
    }

    /// Return an unlinked subscription slot to the free list, parked.
    fn free_sub(&mut self, slot: u32) {
        self.subs[slot as usize].active = false;
        self.due_key[slot as usize] = f64::INFINITY;
        self.sub_free.push(slot);
    }

    /// Make every key due: whatever just happened can have moved any
    /// estimate, or the epsilon the keys were computed against, by an
    /// amount the drift bound does not cover.
    fn rearm_all(&mut self) {
        self.due_key.fill(f64::NEG_INFINITY);
        self.due_floor = f64::NEG_INFINITY;
    }

    /// Make every subscriber of `query` due; returns how many there are.
    fn rearm_chain(&mut self, query: u64) -> u64 {
        let mut n = 0;
        let mut cur = self.by_query.get(&query).copied().unwrap_or(NIL);
        while cur != NIL {
            self.due_key[cur as usize] = f64::NEG_INFINITY;
            self.due_floor = f64::NEG_INFINITY;
            n += 1;
            cur = self.subs[cur as usize].next_same_query;
        }
        n
    }

    /// Admit `id` into the model. It takes at most `cost/C` seconds of
    /// service from anybody else (§3.1 read backwards).
    fn arrive(&mut self, id: u64, cost: f64, weight: f64) {
        self.fluid.arrive(id, cost, weight);
        self.drift += cost / self.fluid.rate();
        if self.obs.is_enabled() {
            self.obs.counter_add("pi.delta.arrive", 1);
        }
    }

    /// Remove a sub slot from its query's chain (head map updated/removed).
    fn unlink_from_query(&mut self, slot: u32) {
        let Sub {
            query,
            prev_same_query: p,
            next_same_query: n,
            ..
        } = self.subs[slot as usize];
        if p == NIL {
            if n == NIL {
                self.by_query.remove(&query);
            } else {
                self.by_query.insert(query, n);
            }
        } else {
            self.subs[p as usize].next_same_query = n;
        }
        if n != NIL {
            self.subs[n as usize].prev_same_query = p;
        }
    }

    /// Remove a sub slot from its session's chain.
    fn unlink_from_session(&mut self, slot: u32) {
        let Sub {
            session,
            prev_in_session: p,
            next_in_session: n,
            ..
        } = self.subs[slot as usize];
        if p == NIL {
            self.sessions[session as usize].sub_head = n;
        } else {
            self.subs[p as usize].next_in_session = n;
        }
        if n != NIL {
            self.subs[n as usize].prev_in_session = p;
        }
    }

    /// Resolve a handle to its slot, rejecting dead slots and stale
    /// generations.
    fn session_slot(&self, sid: SessionId) -> Option<u32> {
        let slot = sid_slot(sid);
        let s = self.sessions.get(slot as usize)?;
        (s.alive && s.gen == sid_gen(sid)).then_some(slot)
    }

    fn session_alive(&self, sid: SessionId) -> bool {
        self.session_slot(sid).is_some()
    }

    /// Sanitize a submitted weight: non-finite or non-positive values are
    /// replaced with 1.0 (counted) instead of poisoning the model.
    fn sane_weight(&mut self, weight: f64) -> f64 {
        if weight.is_finite() && weight > 0.0 {
            weight
        } else {
            self.stats.sanitized += 1;
            if self.obs.is_enabled() {
                self.obs.counter_add("pi.sanitized", 1);
            }
            1.0
        }
    }

    /// Sanitize a submitted cost: non-finite values become 0 (counted).
    fn sane_cost(&mut self, cost: f64) -> f64 {
        if cost.is_finite() {
            cost.max(0.0)
        } else {
            self.stats.sanitized += 1;
            if self.obs.is_enabled() {
                self.obs.counter_add("pi.sanitized", 1);
            }
            0.0
        }
    }

    /// Submit a query on behalf of `session`; it is admitted immediately
    /// when a slot is free, else queued FIFO (with an admission deadline
    /// when [`PiConfig::queue_deadline`] is set). Non-finite costs and
    /// weights are sanitized and counted, never applied. The submitting
    /// session is auto-subscribed. Returns the query id.
    ///
    /// # Panics
    /// Panics if the session handle is dead (closed or stale generation).
    pub fn submit(&mut self, session: SessionId, cost: f64, weight: f64) -> u64 {
        assert!(self.session_alive(session), "no such session {session:#x}");
        // Raw arguments are journaled so replay repeats the sanitization
        // decisions (and their counters) exactly.
        self.wal_append(&WalRecord::Submit {
            session,
            cost,
            weight,
        });
        let id = self.submit_inner(session, cost, weight);
        self.wal_commit_point();
        id
    }

    fn submit_inner(&mut self, session: SessionId, cost: f64, weight: f64) -> u64 {
        let cost = self.sane_cost(cost);
        let weight = self.sane_weight(weight);
        let id = self.next_query;
        self.next_query += 1;
        self.mean_cost.observe(cost);
        self.pending_arrivals += 1;
        let admit = self.queue.is_empty() && self.cfg.slots.is_none_or(|k| self.fluid.len() < k);
        if admit {
            self.arrive(id, cost, weight);
        } else {
            let deadline = self
                .cfg
                .queue_deadline
                .map_or(f64::INFINITY, |d| self.clock + d);
            self.queue.push_back(Queued {
                id,
                cost,
                weight,
                attempts: 0,
                deadline,
            });
        }
        self.stats.submitted += 1;
        if self.obs.is_enabled() {
            self.obs.counter_add("pi.submitted", 1);
            if !admit {
                self.obs.counter_add("pi.enqueued", 1);
            }
        }
        // The query was placed a few lines up: no need to look for it.
        if let Some(slot) = self.session_slot(session) {
            self.attach_sub(slot, id, admit);
        }
        self.evaluate_tier();
        id
    }

    /// Subscribe a session to a query's estimate stream. No-op for dead
    /// sessions or queries that already left the system (including after
    /// their final push).
    pub fn subscribe(&mut self, session: SessionId, query: u64) {
        self.wal_append(&WalRecord::Subscribe { session, query });
        self.subscribe_inner(session, query);
        self.wal_commit_point();
    }

    fn subscribe_inner(&mut self, session: SessionId, query: u64) {
        let Some(slot) = self.session_slot(session) else {
            return;
        };
        let live = self.fluid.contains(query);
        if !live && !self.waiting().any(|q| q.id == query) {
            return;
        }
        // Idempotent: a session already on this query's chain would
        // otherwise receive every push (including the final) twice.
        let mut cur = self.by_query.get(&query).copied().unwrap_or(NIL);
        while cur != NIL {
            let s = &self.subs[cur as usize];
            if s.active && s.session == slot {
                return;
            }
            cur = s.next_same_query;
        }
        self.attach_sub(slot, query, live);
    }

    /// Chain a new subscription of session slot `slot` onto `query`,
    /// which the caller knows to be in the system (`live`: in the model)
    /// and not yet subscribed to by this session.
    fn attach_sub(&mut self, slot: u32, query: u64, live: bool) {
        let next_ss = self.sessions[slot as usize].sub_head;
        let next_sq = self.by_query.get(&query).copied().unwrap_or(NIL);
        let rec = Sub {
            active: true,
            session: slot,
            query,
            last_push: f64::NAN,
            next_in_session: next_ss,
            prev_in_session: NIL,
            next_same_query: next_sq,
            prev_same_query: NIL,
        };
        let sub_slot = if let Some(s) = self.sub_free.pop() {
            self.subs[s as usize] = rec;
            self.due_key[s as usize] = f64::NEG_INFINITY;
            self.node_of[s as usize] = NIL;
            s
        } else {
            self.subs.push(rec);
            self.due_key.push(f64::NEG_INFINITY);
            self.node_of.push(NIL);
            (self.subs.len() - 1) as u32
        };
        self.due_floor = f64::NEG_INFINITY;
        self.live_subs += u64::from(live);
        if next_ss != NIL {
            self.subs[next_ss as usize].prev_in_session = sub_slot;
        }
        if next_sq != NIL {
            self.subs[next_sq as usize].prev_same_query = sub_slot;
        }
        self.sessions[slot as usize].sub_head = sub_slot;
        self.by_query.insert(query, sub_slot);
        if self.obs.is_enabled() {
            self.obs.counter_add("pi.subscribed", 1);
        }
    }

    /// `id` left the system; `was_live` says it left the model (it was
    /// admitted) and not the queue or the backoff list. Its subscribers
    /// stay chained until the next pump's final push.
    fn depart(&mut self, id: u64, was_live: bool) {
        let Some(&head) = self.by_query.get(&id) else {
            return;
        };
        self.pending_final.push(id);
        let mut cur = if was_live { head } else { NIL };
        while cur != NIL {
            self.live_subs -= 1;
            cur = self.subs[cur as usize].next_same_query;
        }
    }

    fn admit_from_queue(&mut self) {
        while self.cfg.slots.is_none_or(|k| self.fluid.len() < k) {
            let Some(q) = self.queue.pop_front() else {
                break;
            };
            self.arrive(q.id, q.cost, q.weight);
            // Subscribers that waited with it now have something to read.
            self.live_subs += self.rearm_chain(q.id);
        }
    }

    /// Release backoff entries whose delay elapsed back into the FIFO
    /// queue (fresh deadline), then expire queued entries past their
    /// deadline: re-queue with backoff while the retry budget lasts,
    /// reject observably after. Deterministic: both scans run in stored
    /// order at exact virtual times.
    fn service_deadlines(&mut self) {
        if self.backoff.is_empty() && self.cfg.queue_deadline.is_none() {
            return;
        }
        let now = self.clock;
        let mut i = 0;
        while i < self.backoff.len() {
            if self.backoff[i].due <= now {
                let b = self.backoff.remove(i);
                let deadline = self.cfg.queue_deadline.map_or(f64::INFINITY, |d| now + d);
                self.queue.push_back(Queued {
                    id: b.id,
                    cost: b.cost,
                    weight: b.weight,
                    attempts: b.attempts,
                    deadline,
                });
                if self.obs.is_enabled() {
                    self.obs.counter_add("pi.deadline.released", 1);
                }
            } else {
                i += 1;
            }
        }
        if self.cfg.queue_deadline.is_none() {
            return;
        }
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].deadline < now {
                let Some(q) = self.queue.remove(i) else {
                    break;
                };
                self.stats.deadline_expired += 1;
                let attempt = q.attempts + 1;
                match self.cfg.retry.delay_for(attempt) {
                    Some(delay) => {
                        self.backoff.push(Backoff {
                            id: q.id,
                            cost: q.cost,
                            weight: q.weight,
                            attempts: attempt,
                            due: now + delay,
                        });
                        self.stats.deadline_requeued += 1;
                        if self.obs.is_enabled() {
                            self.obs.counter_add("pi.deadline.expired", 1);
                            self.obs.counter_add("pi.deadline.requeued", 1);
                            self.obs.emit(
                                now,
                                TraceKind::Deadline {
                                    id: q.id,
                                    action: "requeue",
                                    attempt,
                                },
                            );
                        }
                    }
                    None => {
                        self.stats.deadline_rejected += 1;
                        self.depart(q.id, false);
                        if self.obs.is_enabled() {
                            self.obs.counter_add("pi.deadline.expired", 1);
                            self.obs.counter_add("pi.deadline.rejected", 1);
                            self.obs.emit(
                                now,
                                TraceKind::Deadline {
                                    id: q.id,
                                    action: "reject",
                                    attempt,
                                },
                            );
                        }
                    }
                }
            } else {
                i += 1;
            }
        }
    }

    /// Drop the lowest-weight queued or backing-off entry (ties broken
    /// toward the newest id, preserving FIFO fairness for older work).
    /// Live queries are never shed. Returns false when nothing is
    /// sheddable.
    fn shed_one(&mut self) -> bool {
        let mut best: Option<(f64, u64, usize)> = None;
        for (pos, q) in self.waiting().enumerate() {
            let better = match best {
                None => true,
                Some((w, id, _)) => q.weight < w || (q.weight == w && q.id > id),
            };
            if better {
                best = Some((q.weight, q.id, pos));
            }
        }
        let Some((_, id, pos)) = best else {
            return false;
        };
        self.remove_waiting(pos);
        self.stats.shed += 1;
        self.depart(id, false);
        if self.obs.is_enabled() {
            self.obs.counter_add("pi.shed", 1);
            self.obs.emit(self.clock, TraceKind::Reject { id });
        }
        true
    }

    /// Hysteretic target tier for the given load.
    fn tier_target(lad: &LadderConfig, cur: LoadTier, load: usize) -> LoadTier {
        let up = if load >= lad.shed_enter {
            LoadTier::Shed
        } else if load >= lad.finals_enter {
            LoadTier::FinalsOnly
        } else if load >= lad.widen_enter {
            LoadTier::EpsilonWiden
        } else {
            LoadTier::Normal
        };
        if up >= cur {
            return up;
        }
        let mut t = cur;
        while t > up {
            let exit = match t {
                LoadTier::Shed => lad.shed_exit,
                LoadTier::FinalsOnly => lad.finals_exit,
                LoadTier::EpsilonWiden => lad.widen_exit,
                LoadTier::Normal => 0,
            };
            if load <= exit {
                t = t.step_down();
            } else {
                break;
            }
        }
        t
    }

    fn transition_to(&mut self, target: LoadTier, load: usize) {
        if target == self.tier {
            return;
        }
        let from = self.tier;
        self.tier = target;
        self.stats.tier_transitions += 1;
        // The keys embed the effective epsilon of the tier they were
        // computed in.
        self.rearm_all();
        if self.obs.is_enabled() {
            self.obs.counter_add("pi.tier.transitions", 1);
            self.obs.gauge_set("pi.tier.level", target as u8 as f64);
            self.obs.emit(
                self.clock,
                TraceKind::TierChange {
                    from: from.label(),
                    to: target.label(),
                    load,
                },
            );
        }
    }

    /// Settle the ladder: move the tier per the watermarks (with
    /// hysteresis), and while in Shed drop queued work until load falls to
    /// the shed exit watermark.
    fn evaluate_tier(&mut self) {
        let Some(lad) = self.cfg.ladder else {
            return;
        };
        let load = self.load();
        let target = Self::tier_target(&lad, self.tier, load);
        self.transition_to(target, load);
        if self.tier == LoadTier::Shed {
            while self.load() > lad.shed_exit {
                if !self.shed_one() {
                    break;
                }
            }
            let load = self.load();
            let target = Self::tier_target(&lad, self.tier, load);
            self.transition_to(target, load);
        }
    }

    /// Periodic divergence audit: sample point estimates against the
    /// `predict` oracle; beyond tolerance, trip and force-rebuild the
    /// treap from the live set (self-heal, sanitizing poisoned fields).
    fn run_audit(&mut self) {
        let Some(b) = self.cfg.breaker else {
            return;
        };
        if self.clock < self.next_audit {
            return;
        }
        self.next_audit = self.clock + b.interval;
        self.stats.audit_checks += 1;
        // The oracle sorts for itself: it must not read the order it audits.
        let p = self.fluid.estimates_unhinted(&[], None, None);
        let mut worst = 0.0f64;
        for &(id, t) in p.finish_times.iter().take(b.sample) {
            let Some(point) = self.fluid.estimate(id) else {
                worst = f64::INFINITY;
                break;
            };
            let rel = (point - t).abs() / t.abs().max(1.0);
            if !rel.is_finite() {
                worst = f64::INFINITY;
                break;
            }
            if rel > worst {
                worst = rel;
            }
        }
        if self.obs.is_enabled() {
            self.obs.counter_add("pi.audit.checks", 1);
        }
        if worst > b.tolerance {
            self.stats.audit_trips += 1;
            if self.obs.is_enabled() {
                self.obs.counter_add("pi.audit.trips", 1);
                self.obs.emit(
                    self.clock,
                    TraceKind::Breaker {
                        action: "trip",
                        divergence: worst,
                    },
                );
            }
            let sanitized = self.fluid.rebuild();
            self.rearm_all();
            self.stats.sanitized += sanitized as u64;
            self.stats.audit_rebuilds += 1;
            if self.obs.is_enabled() {
                if sanitized > 0 {
                    self.obs.counter_add("pi.sanitized", sanitized as u64);
                }
                self.obs.counter_add("pi.audit.rebuilds", 1);
                self.obs.emit(
                    self.clock,
                    TraceKind::Breaker {
                        action: "rebuild",
                        divergence: worst,
                    },
                );
            }
        }
    }

    /// Advance the service clock by `dt` seconds: the shared model runs
    /// forward, queries whose completion tags are crossed depart (their
    /// subscribers get a final push on the next [`PiService::pump`]),
    /// freed slots admit from the queue, deadlines and backoff delays
    /// fire, the degradation ladder settles, and the breaker audits when
    /// due.
    pub fn advance(&mut self, dt: f64) {
        self.wal_append(&WalRecord::Advance { dt });
        self.advance_inner(dt);
        self.wal_commit_point();
    }

    fn advance_inner(&mut self, dt: f64) {
        let dt = dt.max(0.0);
        self.clock += dt;
        self.arrivals.observe(dt, self.pending_arrivals);
        self.pending_arrivals = 0;
        self.fluid.advance(dt);
        self.scratch_done.clear();
        self.fluid.drain_due(&mut self.scratch_done);
        if !self.scratch_done.is_empty() {
            let done = std::mem::take(&mut self.scratch_done);
            for &id in &done {
                self.stats.completed += 1;
                self.depart(id, true);
            }
            self.drift += done.len() as f64 * COMPLETION_RESIDUAL / self.fluid.rate();
            self.scratch_done = done;
            self.admit_from_queue();
            if self.obs.is_enabled() {
                self.obs
                    .counter_add("pi.completed", self.scratch_done.len() as u64);
            }
        }
        self.service_deadlines();
        self.admit_from_queue();
        self.evaluate_tier();
        self.run_audit();
        debug_assert!(
            self.ledger().balanced(),
            "work-conservation ledger out of balance: {:?}",
            self.ledger()
        );
    }

    /// Abort a query (live, queued, or backing off). Subscribers get a
    /// final push on the next pump. Returns false if the query is unknown.
    pub fn abort(&mut self, query: u64) -> bool {
        self.wal_append(&WalRecord::Abort { query });
        let ok = self.abort_inner(query);
        self.wal_commit_point();
        ok
    }

    fn abort_inner(&mut self, query: u64) -> bool {
        if let Some(remaining) = self.fluid.remaining_cost(query) {
            self.fluid.abort(query);
            self.drift += remaining / self.fluid.rate();
            self.stats.aborted += 1;
            self.depart(query, true);
            self.admit_from_queue();
            if self.obs.is_enabled() {
                self.obs.counter_add("pi.delta.abort", 1);
            }
            self.evaluate_tier();
            return true;
        }
        let Some(pos) = self.waiting().position(|q| q.id == query) else {
            return false;
        };
        self.remove_waiting(pos);
        self.stats.aborted += 1;
        self.depart(query, false);
        self.evaluate_tier();
        true
    }

    /// Change a query's scheduling weight (priority change, §4), wherever
    /// it currently lives. Non-finite or non-positive weights are
    /// sanitized to 1.0 and counted. Returns false when the query is
    /// unknown.
    pub fn reweight(&mut self, query: u64, weight: f64) -> bool {
        self.wal_append(&WalRecord::Reweight { query, weight });
        let ok = self.reweight_inner(query, weight);
        self.wal_commit_point();
        ok
    }

    fn reweight_inner(&mut self, query: u64, weight: f64) -> bool {
        let weight = self.sane_weight(weight);
        if let Some(remaining) = self.fluid.remaining_cost(query) {
            self.fluid.reweight(query, weight);
            self.drift += remaining / self.fluid.rate();
            self.rearm_chain(query);
            if self.obs.is_enabled() {
                self.obs.counter_add("pi.delta.reweight", 1);
            }
            return true;
        }
        let queued = self.queue.iter_mut().map(|q| (q.id, &mut q.weight));
        let backoff = self.backoff.iter_mut().map(|b| (b.id, &mut b.weight));
        match queued.chain(backoff).find(|(id, _)| *id == query) {
            Some((_, w)) => {
                *w = weight;
                true
            }
            None => false,
        }
    }

    /// Replace a live query's remaining-cost estimate (cost refinement).
    /// Non-finite costs are refused and counted, never applied.
    pub fn refine_cost(&mut self, query: u64, cost: f64) -> bool {
        self.wal_append(&WalRecord::Refine { query, cost });
        let ok = self.refine_cost_inner(query, cost);
        self.wal_commit_point();
        ok
    }

    fn refine_cost_inner(&mut self, query: u64, cost: f64) -> bool {
        if !cost.is_finite() {
            self.stats.sanitized += 1;
            if self.obs.is_enabled() {
                self.obs.counter_add("pi.sanitized", 1);
            }
            return false;
        }
        let Some(remaining) = self.fluid.remaining_cost(query) else {
            return false;
        };
        self.fluid.refine_cost(query, cost);
        self.drift += (cost.max(0.0) - remaining).abs() / self.fluid.rate();
        self.rearm_chain(query);
        if self.obs.is_enabled() {
            self.obs.counter_add("pi.delta.refine", 1);
        }
        true
    }

    /// Change the aggregate rate `C` — O(1) in the incremental model.
    ///
    /// # Panics
    /// Panics if `rate` is not finite and positive.
    pub fn set_rate(&mut self, rate: f64) {
        assert!(
            rate.is_finite() && rate > 0.0,
            "rate must be finite and positive"
        );
        self.wal_append(&WalRecord::SetRate { rate });
        self.set_rate_inner(rate);
        self.wal_commit_point();
    }

    fn set_rate_inner(&mut self, rate: f64) {
        self.fluid.set_rate(rate);
        // A rate change rescales every estimate.
        self.rearm_all();
        if self.obs.is_enabled() {
            self.obs.counter_add("pi.delta.rate", 1);
        }
    }

    /// Push refreshed estimates into `out`: final zero-estimates for
    /// departed queries first (closing those subscriptions), then every
    /// live subscription whose `O(log n)` point estimate moved more than
    /// the effective epsilon since its last push. Queued (not yet
    /// admitted) queries have no point estimate; their subscribers are
    /// pushed once admission gives them a tag.
    ///
    /// Only subscriptions that *can* have moved are read. An estimate
    /// falls at one second per second between deltas and a delta moves
    /// everybody else's by a bounded amount, so each slot carries the
    /// value of `clock + drift` before which it is provably still inside
    /// epsilon (see the `drift` field and DESIGN.md §13); slots short of
    /// it are skipped, and a pump short of the smallest key returns
    /// without looking at any slot. The slots that are read go through the
    /// exact predicate, so pushes, their order and their values are those
    /// of a scan that reads everything.
    ///
    /// Estimates fall in lockstep, so slots pushed together come due
    /// together. When the due slots' `O(log n)` descents would visit at
    /// least as many nodes as the tree holds
    /// (`due × ⌈log2(live + 1)⌉ ≥ live`), the pump first takes every
    /// live estimate from one walk of the tree
    /// ([`IncrementalFluid::sweep_into`], bit-identical to the point
    /// reads) and the due slots read theirs from that; either way a read
    /// reaches its node through a per-subscription handle, not the id
    /// index (DESIGN.md §13, "Due waves").
    ///
    /// The degradation ladder shapes this path: the EpsilonWiden tier
    /// multiplies the epsilon, and the FinalsOnly/Shed tiers skip
    /// non-final pushes entirely (finals always flow, so "no estimate
    /// after final" and "monotone finals" hold in every tier).
    ///
    /// Push order is deterministic: finals in departure order, then
    /// subscriptions in slot order. Appends to `out` without clearing it.
    pub fn pump(&mut self, out: &mut Vec<EstimatePush>) {
        self.wal_append(&WalRecord::Pump);
        self.pump_inner(out);
        self.wal_commit_point();
    }

    fn pump_inner(&mut self, out: &mut Vec<EstimatePush>) {
        let _span = self.obs.span("pi.pump");
        self.stats.pumps += 1;
        let pushes_before = self.stats.pushes;
        let finals = std::mem::take(&mut self.pending_final);
        for &query in &finals {
            let Some(&head) = self.by_query.get(&query) else {
                continue;
            };
            let mut cur = head;
            while cur != NIL {
                let sub = self.subs[cur as usize];
                out.push(EstimatePush {
                    session: make_sid(sub.session, self.sessions[sub.session as usize].gen),
                    query,
                    at: self.clock,
                    estimate: 0.0,
                    done: true,
                });
                self.stats.pushes += 1;
                self.unlink_from_session(cur);
                self.free_sub(cur);
                cur = sub.next_same_query;
            }
            self.by_query.remove(&query);
        }
        let mut finals = finals;
        finals.clear();
        self.pending_final = finals;
        let (epsilon, finals_only) = match (self.cfg.ladder, self.tier) {
            (Some(l), LoadTier::EpsilonWiden) => (self.cfg.epsilon * l.epsilon_factor, false),
            (Some(_), LoadTier::FinalsOnly | LoadTier::Shed) => (self.cfg.epsilon, true),
            _ => (self.cfg.epsilon, false),
        };
        let reads = if finals_only {
            self.stats.degraded_pumps += 1;
            if self.obs.is_enabled() {
                self.obs.counter_add("pi.pump.degraded", 1);
            }
            0
        } else {
            let (pushed, reads) = self.pump_due(epsilon, out);
            self.stats.pushes += pushed;
            debug_assert_eq!(
                self.live_subs,
                self.recount_live_subs(),
                "live-subscription count drifted from the chains"
            );
            // What a scan of every live subscription counts one by one.
            self.stats.suppressed += self.live_subs - pushed;
            reads
        };
        if self.obs.is_enabled() {
            self.obs.counter_add("pi.pump.calls", 1);
            let c = self.fluid.counters();
            let deltas = c.arrivals
                + c.finishes
                + c.aborts
                + c.reweights
                + c.cost_refinements
                + c.rate_changes
                + c.completions;
            self.obs.gauge_set(
                "pi.rebuilds.avoided",
                deltas.saturating_sub(c.full_rebuilds) as f64,
            );
            self.obs.gauge_set("pi.live", self.fluid.len() as f64);
            self.obs
                .counter_add("pi.push.sent", self.stats.pushes - pushes_before);
            self.obs.counter_add("pi.pump.reads", reads);
        }
    }

    /// The non-final half of a pump: read every slot whose key
    /// `clock + drift` has reached, in slot order, push the ones that
    /// moved beyond `epsilon`, and give each a new key. Returns
    /// `(pushes, reads)`. Every comparison against a key is written so
    /// that a NaN on either side means "read it".
    ///
    /// A read is a root-to-node descent, `⌈log2(live + 1)⌉` nodes deep in
    /// a balanced tree. When the due slots' descents would together visit
    /// at least as many nodes as the tree has, one walk of the tree
    /// ([`IncrementalFluid::sweep_into`]) yields every estimate first and
    /// the due slots read theirs out of its column: the same bits for
    /// less work, decided by the tree's size alone.
    fn pump_due(&mut self, epsilon: f64, out: &mut Vec<EstimatePush>) -> (u64, u64) {
        let s = self.clock + self.drift;
        if s < self.due_floor {
            #[cfg(debug_assertions)]
            (0..self.subs.len()).for_each(|slot| self.assert_within_epsilon(slot, epsilon));
            return (0, 0);
        }
        let live = self.fluid.len();
        let due = self.subs.len() - self.due_key.iter().filter(|&&key| s < key).count();
        let depth = (usize::BITS - live.leading_zeros()) as usize;
        let swept = live > 0 && due.saturating_mul(depth) >= live;
        if swept {
            self.fluid.sweep_into(&mut self.sweep);
            if self.obs.is_enabled() {
                self.obs.counter_add("pi.pump.sweeps", 1);
            }
        }
        // What the prefix sums inside a point estimate cancel against
        // (`V·W/C`): with the estimate itself, the scale of its rounding.
        let cancel =
            (self.fluid.virtual_time() * self.fluid.total_weight() / self.fluid.rate()).abs();
        let (mut pushed, mut reads) = (0, 0);
        let mut floor = f64::INFINITY;
        for slot in 0..self.subs.len() {
            let key = self.due_key[slot];
            if s < key {
                #[cfg(debug_assertions)]
                self.assert_within_epsilon(slot, epsilon);
                floor = floor.min(key);
                continue;
            }
            let sub = self.subs[slot];
            let Some(est) = sub
                .active
                .then(|| self.read_estimate(slot, sub.query, swept))
                .flatten()
            else {
                // Free, or queued behind the admission limit: parked
                // until `subscribe` or admission re-arms the slot.
                self.due_key[slot] = f64::INFINITY;
                continue;
            };
            debug_assert_eq!(
                Some(est.to_bits()),
                self.fluid.estimate(sub.query).map(f64::to_bits),
                "slot {slot} (query {}) read through node {}, swept: {swept}",
                sub.query,
                self.node_of[slot]
            );
            reads += 1;
            let push = moved(sub.last_push, est, epsilon);
            let last = if push { est } else { sub.last_push };
            if push {
                out.push(EstimatePush {
                    session: make_sid(sub.session, self.sessions[sub.session as usize].gen),
                    query: sub.query,
                    at: self.clock,
                    estimate: est,
                    done: false,
                });
                self.subs[slot].last_push = est;
                pushed += 1;
            }
            let slack = epsilon - (est - last).abs();
            let margin = FP_MARGIN_REL * (est.abs() + last.abs() + s.abs() + cancel);
            let key = s + slack - margin;
            // A key that is not a number can promise nothing.
            let key = if key.is_nan() { f64::NEG_INFINITY } else { key };
            self.due_key[slot] = key;
            floor = floor.min(key);
        }
        self.due_floor = floor;
        (pushed, reads)
    }

    /// The estimate of `query` for subscription slot `slot`: out of this
    /// pump's sweep column when there is one, else by a descent. Either
    /// way through the slot's node handle while that still names the
    /// query, and through the id index (refreshing the handle) when it
    /// does not. `None`: the query is not live.
    fn read_estimate(&mut self, slot: usize, query: u64, swept: bool) -> Option<f64> {
        let mut node = self.node_of[slot];
        if !self.fluid.holds(node, query) {
            node = self.fluid.slot_of(query)?;
            self.node_of[slot] = node;
        }
        if swept {
            Some(self.sweep[node as usize])
        } else {
            self.fluid.estimate_at(node, query)
        }
    }

    /// Debug cross-check of one skipped slot: the exact predicate must
    /// agree that there is nothing to push.
    #[cfg(debug_assertions)]
    fn assert_within_epsilon(&self, slot: usize, epsilon: f64) {
        let sub = self.subs[slot];
        if !sub.active {
            return;
        }
        if let Some(est) = self.fluid.estimate(sub.query) {
            assert!(
                !moved(sub.last_push, est, epsilon),
                "slot {slot} (query {}) skipped at clock+drift {} < key {} but estimate {est} \
                 is beyond epsilon {epsilon} of last push {}",
                sub.query,
                self.clock + self.drift,
                self.due_key[slot],
                sub.last_push
            );
        }
    }

    /// `live_subs` from first principles.
    fn recount_live_subs(&self) -> u64 {
        self.subs
            .iter()
            .filter(|s| s.active && self.fluid.contains(s.query))
            .count() as u64
    }

    /// Full [`EstimateSet`] over live, queued, and backing-off queries,
    /// injecting predicted future arrivals from the shared arrival model —
    /// the cold path, running the exact `predict` kernel over the
    /// maintained state (bit-identical to a fresh call; see
    /// `IncrementalFluid` docs).
    pub fn estimates(&mut self) -> EstimateSet {
        let _span = self.obs.span("pi.estimates_full");
        let mut queued = std::mem::take(&mut self.scratch_queued);
        queued.clear();
        queued.extend(self.waiting());
        let future = FutureArrivals::from_rate(self.arrivals.lambda(), self.mean_cost.mean(), 1.0);
        let p = self
            .fluid
            .estimates_full(&queued, self.cfg.slots, future.as_ref());
        self.scratch_queued = queued;
        if self.obs.is_enabled() {
            self.obs.counter_add("pi.rebuilds.full", 1);
        }
        EstimateSet::from_prediction(p)
    }

    // -- write-ahead-log plumbing ------------------------------------------

    /// Journal one record ahead of applying its command. No-op when no
    /// log is attached.
    fn wal_append(&mut self, rec: &WalRecord) {
        if let Some(w) = self.wal.as_mut() {
            w.append(rec);
        }
    }

    /// Mark the just-applied command's commit point (one public call =
    /// one atomic batch), let the group-commit policy decide whether to
    /// flush, and compact when the auto-compaction threshold is reached.
    ///
    /// A journaling failure is unrecoverable by design: continuing would
    /// silently void the durability contract, so the service stops.
    fn wal_commit_point(&mut self) {
        let Some(w) = self.wal.as_mut() else {
            return;
        };
        if let Err(e) = w.commit(self.clock) {
            panic!("wal commit failed in {}: {e}", w.dir().display());
        }
        if w.wants_compact() {
            self.wal_compact_now();
        }
    }

    /// Snapshot-anchored compaction: the service's own checkpoint becomes
    /// the log's new base and superseded segments are retired. A no-op
    /// without an attached log. Runs automatically every
    /// [`WalKnobs::compact_every`] records; call it directly to compact
    /// on an external schedule.
    pub fn wal_compact_now(&mut self) {
        let Some(mut w) = self.wal.take() else {
            return;
        };
        let snap = self.checkpoint();
        if let Err(e) = w.compact(&snap, self.clock) {
            panic!("wal compaction failed in {}: {e}", w.dir().display());
        }
        self.wal = Some(w);
    }

    /// The attached write-ahead log, if the service was opened durably.
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// Attach an open log. Recovery/creation policy lives in
    /// [`PiService::open_durable`]; this just installs the handle.
    pub(crate) fn attach_wal(&mut self, wal: Wal) {
        self.wal = Some(wal);
    }

    /// Detach and return the log (e.g. to close it cleanly or hand the
    /// directory to another owner). Subsequent calls stop journaling.
    pub fn detach_wal(&mut self) -> Option<Wal> {
        self.wal.take()
    }

    /// Journal an application progress marker: an opaque `(iter, digest)`
    /// pair a driver loop writes once per iteration so recovery can
    /// resume the loop where the log ends (see
    /// [`DurableRecovery::last_mark`]). Commits immediately.
    pub fn wal_mark(&mut self, iter: u64, digest: u64) {
        if self.wal.is_none() {
            return;
        }
        self.wal_mark_cache = Some((iter, digest));
        self.wal_append(&WalRecord::Mark { iter, digest });
        self.wal_commit_point();
    }

    /// Journal an opaque driver payload (e.g. the campaign loop's own
    /// state blob) so driver and service recover from a single consistent
    /// frontier; recovery surfaces the newest one
    /// ([`DurableRecovery::last_note`]). Commits immediately.
    ///
    /// Returns `false`, journaling nothing and leaving the previous note in
    /// place, when `bytes` is longer than [`MAX_NOTE_LEN`]: recovery reads a
    /// larger record as corruption and would cut the log there, taking
    /// every later committed record with it (counter `wal.note_rejected`).
    pub fn wal_note(&mut self, bytes: &[u8]) -> bool {
        if self.wal.is_none() {
            return true;
        }
        if bytes.len() > MAX_NOTE_LEN {
            self.obs.counter_add("wal.note_rejected", 1);
            return false;
        }
        let rec = WalRecord::Note {
            bytes: bytes.to_vec(),
        };
        self.wal_append(&rec);
        if let WalRecord::Note { bytes } = rec {
            self.wal_note_cache = Some(bytes);
        }
        self.wal_commit_point();
        true
    }

    /// Force the journal to disk regardless of the group-commit policy
    /// (e.g. before handing the push stream to an external consumer).
    pub fn wal_sync(&mut self) {
        let Some(w) = self.wal.as_mut() else {
            return;
        };
        if let Err(e) = w.flush(self.clock) {
            panic!("wal flush failed in {}: {e}", w.dir().display());
        }
    }

    /// Re-apply one journaled record — the replay primitive behind
    /// [`PiService::open_durable`] and [`Standby`]. Pushes regenerated by
    /// a replayed `Pump` are appended to `out`. The service must be
    /// detached from any log (replay never re-journals). Records a live
    /// service could not have produced against this state (possible only
    /// in a hand-crafted log; CRC framing rejects corruption) are skipped,
    /// so replay is total over any decodable log.
    pub fn apply_record(&mut self, rec: &WalRecord, out: &mut Vec<EstimatePush>) {
        debug_assert!(self.wal.is_none(), "replaying into a journaling service");
        match *rec {
            WalRecord::RegisterSession => {
                self.register_session_inner();
            }
            WalRecord::CloseSession { session } => self.close_session_inner(session),
            WalRecord::Submit {
                session,
                cost,
                weight,
            } => {
                if self.session_alive(session) {
                    self.submit_inner(session, cost, weight);
                }
            }
            WalRecord::Subscribe { session, query } => self.subscribe_inner(session, query),
            WalRecord::Abort { query } => {
                self.abort_inner(query);
            }
            WalRecord::Reweight { query, weight } => {
                self.reweight_inner(query, weight);
            }
            WalRecord::Refine { query, cost } => {
                self.refine_cost_inner(query, cost);
            }
            WalRecord::SetRate { rate } => {
                if rate.is_finite() && rate > 0.0 {
                    self.set_rate_inner(rate);
                }
            }
            WalRecord::Advance { dt } => self.advance_inner(dt),
            WalRecord::Pump => self.pump_inner(out),
            // Marks and notes only refresh the driver-frontier caches —
            // replayed exactly as the live calls set them, so checkpoint
            // bytes (and hence state digests) match the uninterrupted run.
            WalRecord::Mark { iter, digest } => self.wal_mark_cache = Some((iter, digest)),
            WalRecord::Note { ref bytes } => self.wal_note_cache = Some(bytes.clone()),
            // Simulator feed taps describe a mirror, not the service.
            WalRecord::SimEvent { .. } => {}
        }
    }

    /// FNV-1a digest over the full checkpoint encoding — a cheap state
    /// fingerprint for recovery and failover equivalence checks (two
    /// services with equal digests serve bit-identical estimates).
    pub fn state_digest(&self) -> u64 {
        let bytes = self.checkpoint();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Serialize the whole service into a versioned, CRC-checked container
    /// ([`CKPT_KIND_SERVICE`]). Re-encoding a restored service is
    /// byte-identical, and a restored service serves bit-identical pushes.
    /// Overload state (ladder tier, deadlines, backoff list, breaker
    /// schedule) travels with everything else.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.cfg.enc(&mut e);
        (self.clock, self.next_query, self.pending_arrivals).enc(&mut e);
        (self.tier, self.next_audit).enc(&mut e);
        self.fluid.enc(&mut e);
        self.arrivals.enc(&mut e);
        self.mean_cost.enc(&mut e);
        self.queue.enc(&mut e);
        self.backoff.enc(&mut e);
        self.sessions.enc(&mut e);
        self.session_free.enc(&mut e);
        self.subs.enc(&mut e);
        self.sub_free.enc(&mut e);
        // Canonical order for the query→subscriber-chain heads.
        let mut heads: Vec<(u64, u32)> = self.by_query.iter().map(|(&q, &h)| (q, h)).collect();
        heads.sort_unstable_by_key(|&(q, _)| q);
        heads.enc(&mut e);
        self.pending_final.enc(&mut e);
        self.stats.enc(&mut e);
        // Driver-frontier caches: a snapshot-anchored base must still know
        // the newest mark/note after compaction retires their records.
        self.wal_mark_cache.enc(&mut e);
        self.wal_note_cache.enc(&mut e);
        mqpi_ckpt::encode_container(CKPT_KIND_SERVICE, &e.into_bytes())
    }

    /// Rebuild a service from [`PiService::checkpoint`] bytes. The restored
    /// service has a disabled obs handle; re-install with
    /// [`PiService::set_obs`].
    pub fn restore(bytes: &[u8]) -> Result<Self, CkptError> {
        let payload = mqpi_ckpt::decode_container(bytes, CKPT_KIND_SERVICE)?;
        let mut d = Dec::new(&payload);
        // Read in the order written here, which is the payload's.
        let mut svc = PiService {
            cfg: Wire::dec(&mut d)?,
            clock: Wire::dec(&mut d)?,
            next_query: Wire::dec(&mut d)?,
            pending_arrivals: Wire::dec(&mut d)?,
            tier: Wire::dec(&mut d)?,
            next_audit: Wire::dec(&mut d)?,
            // The model owns the live rate (set_rate applies there);
            // cfg.rate is only the construction-time value. Both travel.
            fluid: Wire::dec(&mut d)?,
            arrivals: Wire::dec(&mut d)?,
            mean_cost: Wire::dec(&mut d)?,
            queue: Wire::dec(&mut d)?,
            backoff: Wire::dec(&mut d)?,
            sessions: Wire::dec(&mut d)?,
            session_free: Wire::dec(&mut d)?,
            subs: Wire::dec(&mut d)?,
            sub_free: Wire::dec(&mut d)?,
            by_query: Vec::<(u64, u32)>::dec(&mut d)?.into_iter().collect(),
            pending_final: Wire::dec(&mut d)?,
            stats: Wire::dec(&mut d)?,
            wal_mark_cache: Wire::dec(&mut d)?,
            wal_note_cache: Wire::dec(&mut d)?,
            // Derived state, rebuilt below: the pump's pre-filter starts
            // with every key due.
            drift: 0.0,
            due_key: Vec::new(),
            due_floor: f64::NEG_INFINITY,
            node_of: Vec::new(),
            sweep: Vec::new(),
            live_subs: 0,
            obs: Obs::disabled(),
            wal: None,
            scratch_done: Vec::new(),
            scratch_queued: Vec::new(),
        };
        if !d.is_exhausted() {
            return Err(CkptError::Corrupt(format!(
                "{} trailing bytes after service state",
                d.remaining()
            )));
        }
        if let Err(e) = svc.cfg.validate() {
            return Err(CkptError::Corrupt(format!(
                "invalid service configuration in checkpoint: {e}"
            )));
        }
        svc.check_links().map_err(CkptError::Corrupt)?;
        svc.check_queries().map_err(CkptError::Corrupt)?;
        if !svc.ledger().balanced() {
            return Err(CkptError::Corrupt(format!(
                "work-conservation ledger out of balance: {:?}",
                svc.ledger()
            )));
        }
        svc.due_key = vec![f64::NEG_INFINITY; svc.subs.len()];
        svc.node_of = vec![NIL; svc.subs.len()];
        svc.sweep.reserve(svc.fluid.len());
        svc.live_subs = svc.recount_live_subs();
        Ok(svc)
    }

    /// What admission and the deadline service assume of a waiting query,
    /// checked up front: a positive weight, no more expiries than the retry
    /// policy allows, and an id below the cursor that nothing else in the
    /// system holds.
    fn check_queries(&self) -> Result<(), String> {
        let mut seen: HashSet<u64> = self.live_set().iter().map(|q| q.id).collect();
        let queued = self.queue.iter().map(|q| (q.id, q.weight, q.attempts));
        let backing_off = self.backoff.iter().map(|b| (b.id, b.weight, b.attempts));
        for (id, weight, attempts) in queued.chain(backing_off) {
            let sound = weight > 0.0 && attempts <= self.cfg.retry.max_attempts;
            if !sound || !seen.insert(id) {
                return Err(format!(
                    "waiting query {id} is held twice, or weight {weight} or attempt {attempts} is out of range"
                ));
            }
        }
        if let Some(id) = seen.iter().find(|&&id| id >= self.next_query) {
            return Err(format!(
                "query {id} at or beyond cursor {}",
                self.next_query
            ));
        }
        let known = |q: &&u64| seen.contains(q) || self.pending_final.contains(q);
        match self.by_query.keys().find(|q| !known(q)) {
            Some(q) => Err(format!(
                "subscribers of query {q}, which is not in the system"
            )),
            None => Ok(()),
        }
    }

    /// What the subscription tables of a decoded payload must satisfy,
    /// because the pump and the unlink paths index and walk them without
    /// checking: every active slot doubly linked into its session's and its
    /// query's chain, every head the start of its chain (so a walk from it
    /// ends), and each free list holding exactly the dead slots, once each.
    fn check_links(&self) -> Result<(), String> {
        let live = |i: u32| self.subs.get(i as usize).filter(|s| s.active);
        for (i, s) in self.subs.iter().enumerate().filter(|(_, s)| s.active) {
            let i = i as u32;
            let owner = self.sessions.get(s.session as usize).filter(|o| o.alive);
            let linked = owner.is_some()
                && match s.prev_in_session {
                    NIL => owner.map(|o| o.sub_head) == Some(i),
                    p => live(p).is_some_and(|p| p.next_in_session == i && p.session == s.session),
                }
                && match s.prev_same_query {
                    NIL => self.by_query.get(&s.query) == Some(&i),
                    p => live(p).is_some_and(|p| p.next_same_query == i && p.query == s.query),
                }
                && [
                    (
                        s.next_in_session,
                        live(s.next_in_session).map(|n| n.prev_in_session),
                    ),
                    (
                        s.next_same_query,
                        live(s.next_same_query).map(|n| n.prev_same_query),
                    ),
                ]
                .iter()
                .all(|&(next, back)| next == NIL || back == Some(i));
            if !linked {
                return Err(format!("subscription {i} is not linked into its chains"));
            }
        }
        for (i, s) in self.sessions.iter().enumerate() {
            let starts = |h: &Sub| h.session as usize == i && h.prev_in_session == NIL;
            if s.sub_head != NIL && !(s.alive && live(s.sub_head).is_some_and(starts)) {
                return Err(format!("session {i} has a bad subscriber head"));
            }
        }
        for (&q, &h) in &self.by_query {
            if !live(h).is_some_and(|s| s.query == q && s.prev_same_query == NIL) {
                return Err(format!(
                    "subscriber head {h} of query {q} is beyond {} subs or not a head",
                    self.subs.len()
                ));
            }
        }
        let exactly = |free: &[u32], mut dead: Vec<bool>| {
            let listed_once = |&i: &u32| dead.get_mut(i as usize).is_some_and(std::mem::take);
            free.iter().all(listed_once) && !dead.contains(&true)
        };
        if !exactly(
            &self.sub_free,
            self.subs.iter().map(|s| !s.active).collect(),
        ) || !exactly(
            &self.session_free,
            self.sessions.iter().map(|s| !s.alive).collect(),
        ) {
            return Err("a free list is not exactly the dead slots".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc(slots: Option<usize>) -> PiService {
        PiService::new(PiConfig {
            rate: 100.0,
            epsilon: 0.25,
            slots,
            ..PiConfig::default()
        })
    }

    #[test]
    fn submit_advance_pump_lifecycle() {
        let mut s = svc(None);
        let sid = s.register_session();
        let q1 = s.submit(sid, 100.0, 1.0);
        let q2 = s.submit(sid, 300.0, 1.0);
        let mut out = Vec::new();
        s.pump(&mut out);
        assert_eq!(out.len(), 2, "first pump pushes both");
        // Fluid: q1 finishes at 2s, q2 at 4s.
        out.clear();
        s.advance(2.0);
        s.pump(&mut out);
        let f: Vec<_> = out.iter().filter(|p| p.done).collect();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].query, q1);
        assert_eq!(f[0].estimate, 0.0);
        let live: Vec<_> = out.iter().filter(|p| !p.done).collect();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].query, q2);
        assert!((live[0].estimate - 2.0).abs() < 1e-6);
        out.clear();
        s.advance(5.0);
        s.pump(&mut out);
        assert!(out.iter().any(|p| p.done && p.query == q2));
        assert_eq!(s.live_queries(), 0);
    }

    #[test]
    fn epsilon_suppresses_small_moves() {
        let mut s = svc(None);
        let sid = s.register_session();
        let q = s.submit(sid, 10_000.0, 1.0);
        let mut out = Vec::new();
        s.pump(&mut out); // first push always
        assert_eq!(out.len(), 1);
        out.clear();
        // A single lonely query's estimate shrinks 1:1 with time; a move of
        // 0.1 s is under epsilon = 0.25.
        s.advance(0.1);
        s.pump(&mut out);
        assert!(out.is_empty(), "move under epsilon must be suppressed");
        assert_eq!(s.stats().suppressed, 1);
        // Another query doubling the load moves the estimate by ~100 s.
        s.submit(sid, 10_000.0, 1.0);
        s.advance(0.1);
        s.pump(&mut out);
        assert!(out.iter().any(|p| p.query == q && !p.done));
    }

    #[test]
    fn admission_queue_defers_point_pushes_until_admitted() {
        let mut s = svc(Some(1));
        let sid = s.register_session();
        let q1 = s.submit(sid, 100.0, 1.0);
        let q2 = s.submit(sid, 100.0, 1.0);
        assert_eq!(s.live_queries(), 1);
        assert_eq!(s.queued_queries(), 1);
        let mut out = Vec::new();
        s.pump(&mut out);
        assert_eq!(out.len(), 1, "queued query has no point estimate yet");
        assert_eq!(out[0].query, q1);
        // Full estimates still cover the queued query.
        let full = s.estimates();
        assert!(full.get(q2).is_some());
        out.clear();
        s.advance(1.0); // q1 done; q2 admitted
        s.pump(&mut out);
        assert!(out.iter().any(|p| p.done && p.query == q1));
        assert!(out.iter().any(|p| !p.done && p.query == q2));
    }

    #[test]
    fn abort_live_and_queued() {
        let mut s = svc(Some(1));
        let sid = s.register_session();
        let q1 = s.submit(sid, 100.0, 1.0);
        let q2 = s.submit(sid, 100.0, 1.0);
        assert!(s.abort(q2), "queued abort");
        assert!(s.abort(q1), "live abort");
        assert!(!s.abort(999));
        let mut out = Vec::new();
        s.pump(&mut out);
        assert_eq!(out.iter().filter(|p| p.done).count(), 2);
        assert_eq!(s.stats().aborted, 2);
    }

    #[test]
    fn closed_sessions_receive_nothing() {
        let mut s = svc(None);
        let a = s.register_session();
        let b = s.register_session();
        let q = s.submit(a, 500.0, 1.0);
        s.subscribe(b, q);
        s.close_session(b);
        let mut out = Vec::new();
        s.pump(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].session, a);
    }

    #[test]
    fn deterministic_replay_is_bit_identical() {
        let run = || {
            let mut s = svc(Some(4));
            let sids: Vec<_> = (0..8).map(|_| s.register_session()).collect();
            let mut out = Vec::new();
            for i in 0..50u64 {
                let sid = sids[(i % 8) as usize];
                s.submit(sid, 50.0 + (i * 37 % 900) as f64, 1.0 + (i % 3) as f64);
                s.advance(0.25);
                if i % 7 == 0 {
                    s.set_rate(80.0 + (i % 5) as f64 * 10.0);
                }
                s.pump(&mut out);
            }
            out
        };
        let (a, b) = (run(), run());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.session, y.session);
            assert_eq!(x.query, y.query);
            assert_eq!(x.at.to_bits(), y.at.to_bits());
            assert_eq!(x.estimate.to_bits(), y.estimate.to_bits());
            assert_eq!(x.done, y.done);
        }
    }

    #[test]
    fn checkpoint_restore_serves_identical_stream() {
        let mut s = svc(Some(8));
        let sids: Vec<_> = (0..16).map(|_| s.register_session()).collect();
        let mut out = Vec::new();
        for i in 0..60u64 {
            s.submit(sids[(i % 16) as usize], 100.0 + i as f64, 1.0);
            s.advance(0.2);
            s.pump(&mut out);
        }
        let bytes = s.checkpoint();
        let mut r = PiService::restore(&bytes).expect("restore");
        assert_eq!(bytes, r.checkpoint(), "re-encode must be byte-identical");
        // Continue both worlds identically; streams must match bit-for-bit.
        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        for i in 0..40u64 {
            s.submit(sids[(i % 16) as usize], 80.0 + i as f64, 2.0);
            r.submit(sids[(i % 16) as usize], 80.0 + i as f64, 2.0);
            s.advance(0.3);
            r.advance(0.3);
            s.pump(&mut oa);
            r.pump(&mut ob);
        }
        assert_eq!(oa.len(), ob.len());
        for (x, y) in oa.iter().zip(ob.iter()) {
            assert_eq!(x.session, y.session);
            assert_eq!(x.query, y.query);
            assert_eq!(x.estimate.to_bits(), y.estimate.to_bits());
            assert_eq!(x.done, y.done);
        }
        assert_eq!(s.stats(), r.stats());
    }

    #[test]
    fn restore_rejects_corrupt_container() {
        let s = svc(None);
        let mut bytes = s.checkpoint();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(PiService::restore(&bytes).is_err());
    }

    #[test]
    fn arrival_model_learns_from_traffic() {
        let mut s = PiService::new(PiConfig {
            lambda_prior: 0.0,
            ..PiConfig::default()
        });
        let sid = s.register_session();
        for _ in 0..100 {
            s.submit(sid, 10.0, 1.0);
            s.advance(1.0);
        }
        // 100 arrivals over 100 s against a weak zero prior: λ ≈ 0.6+.
        assert!(s.lambda() > 0.5, "λ = {}", s.lambda());
    }

    #[test]
    fn config_validation_rejects_bad_fields() {
        let base = PiConfig::default();
        let cases = [
            PiConfig {
                rate: f64::NAN,
                ..base
            },
            PiConfig { rate: -1.0, ..base },
            PiConfig {
                epsilon: f64::INFINITY,
                ..base
            },
            PiConfig {
                epsilon: -0.5,
                ..base
            },
            PiConfig {
                slots: Some(0),
                ..base
            },
            PiConfig {
                lambda_prior: f64::NAN,
                ..base
            },
            PiConfig {
                cost_prior: -3.0,
                ..base
            },
            PiConfig {
                queue_deadline: Some(0.0),
                ..base
            },
            PiConfig {
                queue_deadline: Some(f64::NAN),
                ..base
            },
            PiConfig {
                retry: RetryPolicy {
                    multiplier: 0.5,
                    ..RetryPolicy::default()
                },
                ..base
            },
            PiConfig {
                retry: RetryPolicy {
                    base_delay: f64::NAN,
                    ..RetryPolicy::default()
                },
                ..base
            },
            PiConfig {
                ladder: Some(LadderConfig {
                    widen_exit: 99,
                    ..LadderConfig::default()
                }),
                ..base
            },
            PiConfig {
                ladder: Some(LadderConfig {
                    epsilon_factor: 0.5,
                    ..LadderConfig::default()
                }),
                ..base
            },
            PiConfig {
                breaker: Some(BreakerConfig {
                    interval: 0.0,
                    ..BreakerConfig::default()
                }),
                ..base
            },
            PiConfig {
                breaker: Some(BreakerConfig {
                    tolerance: f64::NAN,
                    ..BreakerConfig::default()
                }),
                ..base
            },
            PiConfig {
                breaker: Some(BreakerConfig {
                    sample: 0,
                    ..BreakerConfig::default()
                }),
                ..base
            },
        ];
        for cfg in cases {
            assert!(
                PiService::try_new(cfg).is_err(),
                "config must be rejected: {cfg:?}"
            );
        }
        assert!(PiService::try_new(base).is_ok());
    }

    #[test]
    fn submit_sanitizes_non_finite_inputs() {
        let mut s = svc(None);
        let sid = s.register_session();
        let q = s.submit(sid, f64::NAN, f64::INFINITY);
        assert_eq!(s.stats().sanitized, 2);
        // NaN cost became 0 (completes immediately), inf weight became 1.
        s.advance(1e-6);
        let mut out = Vec::new();
        s.pump(&mut out);
        assert!(out.iter().any(|p| p.done && p.query == q));
        let q2 = s.submit(sid, 100.0, 1.0);
        assert!(!s.refine_cost(q2, f64::NAN), "NaN refine must be refused");
        assert!(s.reweight(q2, f64::NEG_INFINITY));
        assert_eq!(s.stats().sanitized, 4);
        assert!(s.point_estimate(q2).is_some_and(f64::is_finite));
    }
}
