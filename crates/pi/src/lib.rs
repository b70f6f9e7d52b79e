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
//!   exponential delay (the same
//!   [`RetryPolicy`](mqpi_sim::RetryPolicy) shape the simulator's fault
//!   injector uses); once the retry budget is exhausted it is
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
//!
//! ## One command path
//!
//! Every call that changes the service is one [`mqpi_wal::WalRecord`].
//! A live call journals its record, applies it and commits it; replay and
//! the standby hand the same records to [`PiService::apply_record`]. Both
//! go through one dispatch, which returns an [`Outcome`]. This file holds
//! the state; the code that changes it lives in one module per seam:
//! `command` (the public mutators and the dispatch), `session`
//! (sessions and subscriptions), `admission` (queue, backoff and the
//! model deltas), `ladder`, `breaker`, `pump` (the push filter),
//! `journal` (log plumbing), `checkpoint` and `config`.

#![forbid(unsafe_code)]

use std::collections::VecDeque;

use mqpi_ckpt::wire_struct;
use mqpi_core::adaptive::MeanCostEstimator;
use mqpi_core::{ArrivalRateEstimator, EstimateSet, FluidQuery, FutureArrivals, IncrementalFluid};
use mqpi_obs::Obs;
use mqpi_sim::idmap::{IdMap, IdState};
use mqpi_wal::Wal;

mod admission;
mod breaker;
mod checkpoint;
mod command;
mod config;
pub mod durable;
mod journal;
mod ladder;
pub mod mirror;
mod pump;
mod session;

pub use checkpoint::CKPT_KIND_SERVICE;
pub use command::Outcome;
pub use config::{BreakerConfig, LadderConfig, PiConfig, PiConfigError};
pub use durable::{DurableRecovery, Standby};
pub use ladder::LoadTier;
pub use mirror::{QuarantineStats, SystemMirror};
pub use session::SessionId;

const NIL: u32 = u32::MAX;

/// Residual work below which `IncrementalFluid::advance` counts a query
/// as finished (its completion sweep's `EPS`): the most a predicted
/// completion can take out of anybody else's estimate, in work units.
const COMPLETION_RESIDUAL: f64 = 1e-9;

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

/// A query waiting for admission: in the FIFO queue, or on the backoff
/// list after a deadline expired. Both lists hold the same record.
#[derive(Debug, Clone, Copy)]
struct Waiting {
    id: u64,
    cost: f64,
    weight: f64,
    /// Deadline expiries so far (0 on first enqueue).
    attempts: u32,
    /// Absolute virtual time of its next step: in the queue, the admission
    /// deadline (∞ = none); on the backoff list, when it re-enters the
    /// queue.
    until: f64,
}
wire_struct!(Waiting {
    id,
    cost,
    weight,
    attempts,
    until,
});

/// Prior arrival rate λ′ of the shared arrival model: none, so λ is what
/// the service has seen.
const LAMBDA_PRIOR: f64 = 0.0;
/// Strength of the λ prior, in seconds of pseudo-observation.
const LAMBDA_PRIOR_TIME: f64 = 60.0;
/// Prior mean query cost c̄′ of the shared cost model.
const COST_PRIOR: f64 = 500.0;
/// Strength of the cost prior, in pseudo-samples.
const COST_PRIOR_STRENGTH: f64 = 3.0;

/// The always-on PI session service. See the crate docs for the design.
#[derive(Debug)]
pub struct PiService {
    cfg: PiConfig,
    clock: f64,
    fluid: IncrementalFluid,
    queue: VecDeque<Waiting>,
    /// Deadline-expired entries waiting out their backoff delay, in
    /// expiry order.
    backoff: Vec<Waiting>,
    sessions: Vec<Session>,
    session_free: Vec<u32>,
    subs: Vec<Sub>,
    sub_free: Vec<u32>,
    /// query id → head of its subscriber chain, in an `IdMap` (keyed per
    /// map, so its order is random: the encoding sorts the keys).
    by_query: IdMap<u32>,
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
            by_query: IdMap::with_capacity_and_hasher(cap, IdState::default()),
            drift: 0.0,
            due_key: Vec::with_capacity(cap),
            due_floor: f64::INFINITY,
            node_of: Vec::with_capacity(cap),
            sweep: Vec::with_capacity(cap),
            live_subs: 0,
            next_query: 1,
            arrivals: ArrivalRateEstimator::new(LAMBDA_PRIOR, LAMBDA_PRIOR_TIME),
            mean_cost: MeanCostEstimator::new(COST_PRIOR, COST_PRIOR_STRENGTH),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqpi_sim::RetryPolicy;

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

    /// A backoff began at or before the checkpoint's clock and lasts at
    /// most `max_delay`: one that ends later (a flipped exponent bit made
    /// it 1e154) would keep its query waiting for ever, and NaN would
    /// never end either.
    #[test]
    fn restore_rejects_a_backoff_past_max_delay() {
        let mut s = PiService::new(PiConfig {
            slots: Some(1),
            queue_deadline: Some(0.3),
            retry: RetryPolicy::default(),
            ..PiConfig::default()
        });
        let sid = s.register_session();
        s.submit(sid, 1e4, 1.0);
        s.submit(sid, 10.0, 1.0);
        s.advance(0.5);
        assert_eq!(s.backoff.len(), 1);
        let until = s.backoff[0].until;
        let payload = mqpi_ckpt::decode_container(&s.checkpoint(), CKPT_KIND_SERVICE).unwrap();
        let at = (0..payload.len() - 8)
            .find(|&i| payload[i..i + 8] == until.to_bits().to_le_bytes())
            .unwrap();
        let end = s.now() + RetryPolicy::default().max_delay;
        for (v, ok) in [
            (end, true),
            (end.next_up(), false),
            (f64::NAN, false),
            (1e154, false),
        ] {
            let mut hostile = payload.clone();
            hostile[at..at + 8].copy_from_slice(&v.to_bits().to_le_bytes());
            let got = PiService::restore(&mqpi_ckpt::encode_container(CKPT_KIND_SERVICE, &hostile));
            match got {
                Ok(_) => assert!(ok, "backoff until {v} accepted"),
                Err(mqpi_ckpt::CkptError::Corrupt(m)) => {
                    assert!(!ok && m.contains("backoff"), "{v}: {m}")
                }
                Err(e) => panic!("{v}: {e}"),
            }
        }
    }

    #[test]
    fn arrival_model_learns_from_traffic() {
        let mut s = PiService::new(PiConfig::default());
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
                queue_deadline: Some(0.0),
                ..base
            },
            PiConfig {
                queue_deadline: Some(f64::NAN),
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
