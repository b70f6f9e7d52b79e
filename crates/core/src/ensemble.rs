//! Estimator ensemble: online selection plus uncertainty bands.
//!
//! König et al. (*A Statistical Approach Towards Robust Progress
//! Estimation*) observe that no single progress estimator dominates across
//! workloads, and that scoring several against realized finish times and
//! switching online fixes the worst case. Wu et al. (*Uncertainty Aware
//! Query Execution Time Prediction*) argue estimates should carry
//! distributions, not points. This module adds both on top of the paper's
//! PIs:
//!
//! * [`Estimator`] — the common trait. The existing [`SingleQueryPi`] and
//!   [`MultiQueryPi`] implement it, alongside three new families:
//!   [`DriverNodePi`] (DNE-style: fair share of the *nominal* rate over
//!   the current driver set), [`TotalWorkPi`] (TGN/GNM-style: total work
//!   over life-average speed), and [`SpeedEwmaPi`] (an exponentially
//!   smoothed observed-speed extrapolator reusing
//!   [`mqpi_sim::speed::SpeedMonitor`]).
//! * [`Ensemble`] — runs every estimator per tick, scores each against
//!   realized finish times with a windowed decayed relative error,
//!   switches the active estimator per query with hysteresis, and attaches
//!   p10/p50/p90 [`Band`]s derived from the chosen estimator's empirical
//!   residual quantiles widened by the current rate uncertainty.
//!
//! Every piece is deterministic: scores, switches, and bands are pure
//! functions of the tick/resolve call sequence, so ensemble output is
//! bit-identical across worker counts and checkpoint/restore cuts
//! ([`Ensemble::checkpoint`] / [`Ensemble::restore_state`]).

use std::collections::BTreeMap;

use mqpi_ckpt::{wire_struct, CkptError, Dec, Enc, Wire};
use mqpi_obs::{Obs, TraceKind, ERROR_BUCKETS};
use mqpi_sim::domain;
use mqpi_sim::speed::SpeedMonitor;
use mqpi_sim::system::{QueryState, SystemSnapshot};

use crate::estimate::{relative_error, Band, BandedEstimate, EstimateSet};
use crate::multi::{MultiQueryPi, Visibility};
use crate::single::SingleQueryPi;

/// A remaining-time estimator over system snapshots.
///
/// Implementations may be stateful (the speed-EWMA family keeps per-query
/// monitors), hence `&mut self`; stateless estimators simply ignore it.
/// Estimators never record anything: a traced caller hands the set,
/// [`Estimator::name`] and [`Estimator::span`] to
/// [`crate::observe::observe_estimates`].
pub trait Estimator {
    /// Stable estimator family tag (`single`, `multi`, `dne`, `tgn`,
    /// `ewma`, …) — carried by trace events and used in reports.
    fn name(&self) -> &'static str;

    /// Profiling span covering one prediction pass
    /// (`core.predict.<name>`).
    fn span(&self) -> &'static str;

    /// Remaining-time estimates for every query this estimator can see in
    /// the snapshot. Every value is sanitized by [`EstimateSet`]: finite
    /// and non-negative, whatever the estimator math produced.
    fn estimates(&mut self, snap: &SystemSnapshot) -> EstimateSet;

    /// Append any mutable estimator state to a checkpoint. Stateless
    /// estimators write nothing; whatever is written here must be read
    /// back symmetrically by [`Estimator::restore_state`].
    fn checkpoint(&self, e: &mut Enc) {
        let _ = e;
    }

    /// Restore state written by [`Estimator::checkpoint`].
    fn restore_state(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        let _ = d;
        Ok(())
    }
}

/// Fair-share speed of one unblocked query under the snapshot's *nominal*
/// aggregate rate: `C · w / Σw` over unblocked running queries (the whole
/// rate when no weight is positive).
fn fair_share_speed(snap: &SystemSnapshot, q: &QueryState) -> f64 {
    let total_w: f64 = snap
        .running
        .iter()
        .filter(|r| !r.blocked)
        .map(|r| r.weight)
        .sum();
    if total_w > 0.0 {
        snap.rate * q.weight / total_w
    } else {
        snap.rate
    }
}

impl Estimator for SingleQueryPi {
    fn name(&self) -> &'static str {
        "single"
    }

    fn span(&self) -> &'static str {
        "core.predict.single"
    }

    fn estimates(&mut self, snap: &SystemSnapshot) -> EstimateSet {
        SingleQueryPi::estimates(self, snap)
    }
}

impl Estimator for MultiQueryPi {
    fn name(&self) -> &'static str {
        "multi"
    }

    fn span(&self) -> &'static str {
        "core.predict.multi"
    }

    fn estimates(&mut self, snap: &SystemSnapshot) -> EstimateSet {
        MultiQueryPi::estimates(self, snap)
    }
}

/// DNE-style "driver node" estimator (König et al.): remaining time is the
/// query's remaining cost over its fair share of the *nominal* rate across
/// the current driver set — the unblocked queries running right now. It
/// deliberately ignores observed speeds (no monitor lag to poison) and all
/// future dynamics (no queue, no arrivals, no finish events), which makes
/// it maximally robust to corrupted monitors and maximally naive about
/// load changes.
#[derive(Debug, Clone, Default)]
pub struct DriverNodePi;

impl DriverNodePi {
    /// Create the estimator.
    pub fn new() -> Self {
        DriverNodePi
    }
}

impl Estimator for DriverNodePi {
    fn name(&self) -> &'static str {
        "dne"
    }

    fn span(&self) -> &'static str {
        "core.predict.dne"
    }

    fn estimates(&mut self, snap: &SystemSnapshot) -> EstimateSet {
        EstimateSet::from_pairs(
            snap.running.iter().filter(|q| !q.blocked).map(|q| {
                let s = fair_share_speed(snap, q).max(1e-9);
                (q.id, q.remaining / s)
            }),
            false,
        )
    }
}

/// TGN/GNm-style total-work estimator (König et al.): extrapolate each
/// query's *life-average* speed — total work done over total wall-clock
/// life — instead of an instantaneous or smoothed one. Queries that have
/// not yet done any work fall back to the fair-share speed. Long-lived
/// queries get a very stable (and very sluggish) speed signal: the exact
/// opposite trade to [`SpeedEwmaPi`].
#[derive(Debug, Clone, Default)]
pub struct TotalWorkPi;

impl TotalWorkPi {
    /// Create the estimator.
    pub fn new() -> Self {
        TotalWorkPi
    }
}

impl Estimator for TotalWorkPi {
    fn name(&self) -> &'static str {
        "tgn"
    }

    fn span(&self) -> &'static str {
        "core.predict.tgn"
    }

    fn estimates(&mut self, snap: &SystemSnapshot) -> EstimateSet {
        EstimateSet::from_pairs(
            snap.running.iter().filter(|q| !q.blocked).map(|q| {
                let elapsed = snap.time - q.started;
                let s = if q.done > 0.0 && elapsed > 0.0 {
                    q.done / elapsed
                } else {
                    fair_share_speed(snap, q)
                };
                (q.id, q.remaining / s.max(1e-9))
            }),
            false,
        )
    }
}

/// Observed-speed extrapolator with its own smoothing horizon: one
/// [`SpeedMonitor`] per query, fed cumulative done-work from snapshots,
/// `t = c / s_ewma`. Unlike [`SingleQueryPi`] — which reads the
/// *scheduler's* monitor (time constant fixed by the system config) — this
/// estimator owns its monitors, so the ensemble can run a faster or slower
/// smoothing horizon than the scheduler and score the difference.
#[derive(Debug, Clone)]
pub struct SpeedEwmaPi {
    tau: f64,
    monitors: BTreeMap<u64, SpeedMonitor>,
}
wire_struct!(SpeedEwmaPi { tau, monitors });

impl SpeedEwmaPi {
    /// Create the estimator with smoothing time constant `tau` seconds
    /// (clamped to a small positive floor; [`SpeedMonitor`] rejects
    /// non-positive constants).
    pub fn new(tau: f64) -> Self {
        let tau = if tau.is_finite() { tau.max(1e-3) } else { 1e-3 };
        SpeedEwmaPi {
            tau,
            monitors: BTreeMap::new(),
        }
    }
}

impl Estimator for SpeedEwmaPi {
    fn name(&self) -> &'static str {
        "ewma"
    }

    fn span(&self) -> &'static str {
        "core.predict.ewma"
    }

    fn estimates(&mut self, snap: &SystemSnapshot) -> EstimateSet {
        // Drop monitors for queries that left (or blocked — a blocked
        // query's speed is not "slow", it is undefined; it re-warms on
        // resume).
        let live: Vec<u64> = snap
            .running
            .iter()
            .filter(|q| !q.blocked)
            .map(|q| q.id)
            .collect();
        self.monitors.retain(|id, _| live.contains(id));
        let mut pairs = Vec::with_capacity(live.len());
        for q in snap.running.iter().filter(|q| !q.blocked) {
            let m = self.monitors.entry(q.id).or_insert_with(|| {
                SpeedMonitor::new_at(self.tau, q.started)
                    .unwrap_or_else(|_| SpeedMonitor::new_at(1e-3, q.started).expect("valid tau"))
            });
            m.update(snap.time, q.done);
            let s = m.speed().unwrap_or_else(|| fair_share_speed(snap, q));
            pairs.push((q.id, q.remaining / s.max(1e-9)));
        }
        EstimateSet::from_pairs(pairs, false)
    }

    fn checkpoint(&self, e: &mut Enc) {
        self.enc(e);
    }

    fn restore_state(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        *self = Wire::dec(d)?;
        Ok(())
    }
}

/// Tuning knobs of the [`Ensemble`] selector and its bands. The defaults
/// are what the bench harness and the PI scenarios run with.
#[derive(Debug, Clone, Copy)]
pub struct EnsembleConfig {
    /// Residual-window capacity per estimator (recent `actual / estimate`
    /// ratios; band quantiles are computed over this window).
    pub window: usize,
    /// Per-resolved-sample decay of the error score: older errors fade
    /// geometrically, so the score is a windowed decayed mean.
    pub decay: f64,
    /// Hysteresis: a challenger estimator must beat the incumbent's score
    /// by this relative margin before a query switches to it.
    pub switch_margin: f64,
    /// Hysteresis, absolute arm: the challenger must also beat the
    /// incumbent by this many points of relative error. When every member
    /// is near-exact (a calm steady-state workload), relative margins
    /// compare noise against noise — 0.004 "beats" 0.005 by 20 % — and
    /// without this floor the selector would wander off its prior onto a
    /// member whose model happens to fit only the current regime.
    pub min_gain: f64,
    /// Decayed evidence weight a member must accumulate before its score
    /// ranks at all (one resolved query contributes 1.0, decayed per
    /// resolution). Below it the score reads as `inf` and the lineup's
    /// prior keeps the choice.
    pub min_weight: f64,
    /// Resolved residuals required before empirical quantiles replace the
    /// prior band spread.
    pub min_residuals: usize,
    /// Prior band-ratio spread used before enough residuals exist:
    /// `p10 = prior_lo · p50`, `p90 = prior_hi · p50`.
    pub prior_lo: f64,
    /// See [`EnsembleConfig::prior_lo`].
    pub prior_hi: f64,
    /// Baseline relative half-spread always added to the rate-uncertainty
    /// band component.
    pub base_spread: f64,
    /// Realized remaining times below this are skipped when scoring (the
    /// paper's campaigns do the same: near-zero actuals make relative
    /// error explode without saying anything about the estimator).
    pub min_actual: f64,
    /// Per-sample relative-error cap (winsorization), matching the chaos
    /// campaign's `ERR_CAP`.
    pub err_cap: f64,
    /// Upper bound on buffered unresolved samples; the oldest are dropped
    /// beyond it so a never-finishing workload cannot grow memory
    /// without bound.
    pub max_pending: usize,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        EnsembleConfig {
            window: 64,
            decay: 0.9,
            switch_margin: 0.2,
            min_gain: 0.05,
            min_weight: 2.5,
            min_residuals: 8,
            prior_lo: 0.5,
            prior_hi: 2.0,
            base_spread: 0.05,
            min_actual: 1.0,
            err_cap: 100.0,
            max_pending: 65_536,
        }
    }
}

/// Bounded FIFO of recent residual ratios.
#[derive(Debug, Clone)]
struct Ring {
    cap: usize,
    buf: Vec<f64>,
    next: usize,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            cap: cap.max(1),
            buf: Vec::new(),
            next: 0,
        }
    }

    fn push(&mut self, v: f64) {
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.next] = v;
            self.next = (self.next + 1) % self.cap;
        }
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    /// Nearest-rank quantile over the window (`q` in `[0, 1]`).
    fn quantile(&self, sorted: &[f64], q: f64) -> f64 {
        debug_assert!(!sorted.is_empty());
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.buf.clone();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// One estimator-selection decision, surfaced by [`EnsembleTick`] and, on
/// an attached [`Obs`] handle, as a `selector` trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectorDecision {
    /// Query the decision is for.
    pub id: u64,
    /// Estimator the query was using (`-` on first assignment).
    pub from: &'static str,
    /// Estimator the query uses from now on.
    pub to: &'static str,
    /// Windowed decayed error of `to` at decision time (`inf` before any
    /// resolved sample).
    pub score: f64,
}

/// Output of one [`Ensemble::tick`]: banded estimates for every eligible
/// query, the raw per-estimator sets (in [`Ensemble::names`] order), and
/// the selector decisions made this tick.
#[derive(Debug, Clone)]
pub struct EnsembleTick {
    /// Banded estimates, sorted by query id.
    pub banded: Vec<BandedEstimate>,
    /// Each estimator's full [`EstimateSet`] for this snapshot.
    pub sets: Vec<EstimateSet>,
    /// Assignments (`from == "-"`) and switches made this tick.
    pub decisions: Vec<SelectorDecision>,
}

impl EnsembleTick {
    /// The ensemble's point estimates (band p50s) as a plain
    /// [`EstimateSet`].
    pub fn point_set(&self) -> EstimateSet {
        EstimateSet::from_pairs(self.banded.iter().map(|b| (b.id, b.band.p50)), false)
    }
}

/// Buffered unresolved sample: the time it was taken, the query, and every
/// estimator's point estimate (`NaN` where an estimator had none).
#[derive(Debug, Clone)]
struct Pending {
    at: f64,
    id: u64,
    ests: Vec<f64>,
}

/// The estimator ensemble: per-tick prediction with all member estimators,
/// König-style online selection scored against realized finish times, and
/// Wu-style percentile bands.
///
/// Drive it with three calls:
/// * [`Ensemble::tick`] at every sampling point;
/// * [`Ensemble::resolve`] when a query *completes* (realized finish time
///   known) — this is what scores the estimators;
/// * [`Ensemble::forget`] when a query leaves without completing (abort,
///   rejection) — its samples say nothing about estimator quality.
pub struct Ensemble {
    estimators: Vec<Box<dyn Estimator>>,
    cfg: EnsembleConfig,
    /// Per-estimator `(decayed error sum, decayed weight)`.
    scores: Vec<(f64, f64)>,
    residuals: Vec<Ring>,
    /// Per-query active estimator index.
    choice: BTreeMap<u64, u32>,
    pending: Vec<Pending>,
    /// Interned `core.ensemble.err.<name>` histogram names.
    err_hists: Vec<&'static str>,
    obs: Obs,
    resolved: u64,
    switches: u64,
}

impl std::fmt::Debug for Ensemble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ensemble")
            .field("estimators", &self.names())
            .field("scores", &self.scores)
            .field("choice", &self.choice)
            .field("pending", &self.pending.len())
            .field("resolved", &self.resolved)
            .field("switches", &self.switches)
            .finish()
    }
}

impl Ensemble {
    /// Build an ensemble over the given member estimators. The member at
    /// index 0 is the default choice before any realized finish has been
    /// scored, so put the best prior there.
    pub fn new(estimators: Vec<Box<dyn Estimator>>, cfg: EnsembleConfig) -> Self {
        let n = estimators.len();
        let err_hists = estimators
            .iter()
            .map(|e| mqpi_obs::intern(&format!("core.ensemble.err.{}", e.name())))
            .collect();
        Ensemble {
            estimators,
            cfg,
            scores: vec![(0.0, 0.0); n],
            residuals: vec![Ring::new(cfg.window); n],
            choice: BTreeMap::new(),
            pending: Vec::new(),
            err_hists,
            obs: Obs::disabled(),
            resolved: 0,
            switches: 0,
        }
    }

    /// The standard five-member lineup: `multi` (the paper's PI, default
    /// choice), `single`, `dne`, `tgn`, and `ewma` with the given
    /// smoothing constant.
    pub fn standard(visibility: Visibility, ewma_tau: f64) -> Self {
        Ensemble::new(
            vec![
                Box::new(MultiQueryPi::new(visibility)),
                Box::new(SingleQueryPi::new()),
                Box::new(DriverNodePi::new()),
                Box::new(TotalWorkPi::new()),
                Box::new(SpeedEwmaPi::new(ewma_tau)),
            ],
            EnsembleConfig::default(),
        )
    }

    /// Attach an observability handle; selector decisions, ensemble
    /// estimates, and per-estimator error histograms are recorded on it.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Member estimator names, in index order.
    pub fn names(&self) -> Vec<&'static str> {
        self.estimators.iter().map(|e| e.name()).collect()
    }

    /// Windowed decayed error score of member `i` — `inf` until the
    /// member has accumulated [`EnsembleConfig::min_weight`] of decayed
    /// evidence. One resolved query is one observation; letting a single
    /// observation rank the members would hand selection to whichever
    /// member happened to fit the one query that finished first.
    pub fn score(&self, i: usize) -> f64 {
        let (s, w) = self.scores[i];
        if w >= self.cfg.min_weight && w > 0.0 {
            s / w
        } else {
            f64::INFINITY
        }
    }

    /// Resolved (tick, query) samples scored so far.
    pub fn resolved(&self) -> u64 {
        self.resolved
    }

    /// Estimator switches performed so far (assignments excluded).
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Relative rate-uncertainty `d` of a snapshot: how far the observed
    /// speeds of the monitored queries collectively sit from their nominal
    /// fair shares. `d = 0` when they agree; a rate dip the PI cannot see
    /// (`C` halved ⇒ observed ≈ half of fair share) pushes `d` toward 0.5.
    fn rate_uncertainty(snap: &SystemSnapshot) -> f64 {
        let total_w: f64 = snap
            .running
            .iter()
            .filter(|r| !r.blocked)
            .map(|r| r.weight)
            .sum();
        if total_w <= 0.0 || domain::rate(snap.rate).is_err() {
            return 0.0;
        }
        let (mut observed, mut fair) = (0.0, 0.0);
        for q in snap.running.iter().filter(|r| !r.blocked) {
            if let Some(s) = q.observed_speed {
                if s.is_finite() && s >= 0.0 {
                    observed += s;
                    fair += snap.rate * q.weight / total_w;
                }
            }
        }
        if fair <= 0.0 {
            return 0.0;
        }
        ((observed / fair) - 1.0).abs().clamp(0.0, 0.9)
    }

    /// One sampling tick: run every member estimator over the snapshot,
    /// buffer the samples for later scoring, make selector decisions, and
    /// band the chosen estimates. The attached [`Obs`] handle records a
    /// `selector` event per decision, one `estimate` event per query
    /// (`pi=ensemble`, the band p50), the `core.predict.ensemble` span, and
    /// assignment/switch counters.
    pub fn tick(&mut self, snap: &SystemSnapshot) -> EnsembleTick {
        let sets: Vec<EstimateSet> = self
            .estimators
            .iter_mut()
            .map(|e| e.estimates(snap))
            .collect();

        let mut ids: Vec<u64> = snap
            .running
            .iter()
            .filter(|q| !q.blocked)
            .map(|q| q.id)
            .collect();
        ids.sort_unstable();

        for &id in &ids {
            let ests: Vec<f64> = sets.iter().map(|s| s.get(id).unwrap_or(f64::NAN)).collect();
            self.pending.push(Pending {
                at: snap.time,
                id,
                ests,
            });
        }
        if self.pending.len() > self.cfg.max_pending {
            let excess = self.pending.len() - self.cfg.max_pending;
            self.pending.drain(0..excess);
        }

        // Selection: one global best (ties break toward the lower index,
        // i.e. the stronger prior), switched per query behind two-armed
        // hysteresis — the challenger must beat the defender by both a
        // relative margin and an absolute error gap. Assignment of a new
        // query plays the best against the lineup's prior (index 0) under
        // the same rule, so near-ties always resolve toward the prior.
        let scores: Vec<f64> = (0..self.estimators.len()).map(|i| self.score(i)).collect();
        let beats = |challenger: f64, defender: f64| {
            challenger.is_finite()
                && challenger < defender * (1.0 - self.cfg.switch_margin)
                && defender - challenger > self.cfg.min_gain
        };
        let best = scores
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| f64::total_cmp(a, b))
            .map_or(0, |(i, _)| i) as u32;
        let mut decisions = Vec::new();
        for &id in &ids {
            match self.choice.get(&id).copied() {
                None => {
                    let assign = if beats(scores[best as usize], scores[0]) {
                        best
                    } else {
                        0
                    };
                    self.choice.insert(id, assign);
                    decisions.push(SelectorDecision {
                        id,
                        from: "-",
                        to: self.estimators[assign as usize].name(),
                        score: scores[assign as usize],
                    });
                }
                Some(cur) if cur != best => {
                    let (b, c) = (scores[best as usize], scores[cur as usize]);
                    if beats(b, c) {
                        self.choice.insert(id, best);
                        self.switches += 1;
                        decisions.push(SelectorDecision {
                            id,
                            from: self.estimators[cur as usize].name(),
                            to: self.estimators[best as usize].name(),
                            score: b,
                        });
                    }
                }
                _ => {}
            }
        }

        // Bands: the chosen estimator's raw point is the p50, bracketed by
        // its empirical residual quantiles and widened by the
        // rate-uncertainty prior. The p50 is deliberately *not* rescaled
        // by the median residual ratio: ratios only arrive when a query
        // resolves and each resolution spans the query's whole life, so
        // after a regime change (an arrival burst ends, a fault clears)
        // the window stays stale long after the members' points have
        // recovered — a median "debias" then multiplies an accurate point
        // by the old regime's bias. The stale window is harmless on the
        // band edges, where it can only widen the bracket.
        let d = Self::rate_uncertainty(snap);
        let mut banded = Vec::with_capacity(ids.len());
        for &id in &ids {
            let k = self.choice.get(&id).copied().unwrap_or(0) as usize;
            // The chosen estimator covers all running unblocked queries by
            // construction; fall back across members defensively anyway.
            let Some(p) = sets[k]
                .get(id)
                .or_else(|| sets.iter().find_map(|s| s.get(id)))
            else {
                continue;
            };
            let ring = &self.residuals[k];
            let (lo_q, hi_q) = if ring.len() >= self.cfg.min_residuals {
                let sorted = ring.sorted();
                (ring.quantile(&sorted, 0.10), ring.quantile(&sorted, 0.90))
            } else {
                (self.cfg.prior_lo, self.cfg.prior_hi)
            };
            let lo = lo_q.min(1.0 - d - self.cfg.base_spread).max(0.01);
            let hi = hi_q.max(1.0 + d + self.cfg.base_spread);
            banded.push(BandedEstimate {
                id,
                band: Band::sanitized(p * lo, p, p * hi),
                chosen: self.estimators[k].name(),
            });
        }

        let out = EnsembleTick {
            banded,
            sets,
            decisions,
        };
        if !self.obs.is_enabled() {
            return out;
        }
        for dec in &out.decisions {
            self.obs.emit(
                snap.time,
                TraceKind::Selector {
                    id: dec.id,
                    from: dec.from,
                    to: dec.to,
                    score: dec.score,
                },
            );
            let counter = if dec.from == "-" {
                "core.ensemble.assigns"
            } else {
                "core.ensemble.switches"
            };
            self.obs.counter_add(counter, 1);
        }
        crate::observe::observe_estimates(
            &self.obs,
            "ensemble",
            "core.predict.ensemble",
            snap.time,
            &out.point_set(),
        );
        out
    }

    /// Score every buffered sample of query `id` against its realized
    /// completion at `finished_at`, then drop the query's state. Call this
    /// only for queries that ran to completion.
    ///
    /// Three deliberate scoring rules keep the selector honest:
    ///
    /// * Only samples *every* member estimated enter the scores. A member
    ///   with wider coverage (the queue-aware PI estimates queued queries
    ///   nobody else sees) must not be penalized on hard samples its
    ///   rivals were never tested on.
    /// * The decay applies once per resolution, to the query's *mean*
    ///   sample error — not once per sample. A long-lived query resolves
    ///   with dozens of buffered samples; per-sample decay would let that
    ///   single query flush the entire score window and leave selection
    ///   chasing whichever query finished last.
    /// * Non-stationary workloads are handled by recency-weighting the
    ///   samples within a resolution (geometric in reverse sample order,
    ///   reusing [`EnsembleConfig::decay`]). A long-lived query's early
    ///   samples were estimated under a regime that may have ended — an
    ///   arrival burst, a fault window — and weighting them equally would
    ///   keep rewarding whichever member fit the *old* regime for the
    ///   whole life of every query that lived through it.
    pub fn resolve(&mut self, id: u64, finished_at: f64) {
        let n = self.estimators.len();
        // Scorable sample indices, in time order (pending is appended in
        // tick order, so insertion order is time order).
        let idxs: Vec<usize> = (0..self.pending.len())
            .filter(|&pi| {
                let p = &self.pending[pi];
                p.id == id
                    && finished_at - p.at >= self.cfg.min_actual
                    && p.ests.iter().all(|e| e.is_finite())
            })
            .collect();
        let k = idxs.len();
        for i in 0..n {
            let (mut err_sum, mut wgt_sum) = (0.0, 0.0);
            for (j, &pi) in idxs.iter().enumerate() {
                let (at, est) = (self.pending[pi].at, self.pending[pi].ests[i]);
                let actual = finished_at - at;
                let err = relative_error(est, actual).min(self.cfg.err_cap);
                let wgt = self.cfg.decay.powi((k - 1 - j) as i32);
                err_sum += err * wgt;
                wgt_sum += wgt;
                let ratio = (actual / est.max(1e-9)).clamp(1e-3, 1e3);
                self.residuals[i].push(ratio);
                if self.obs.is_enabled() {
                    self.obs
                        .histogram_observe(self.err_hists[i], ERROR_BUCKETS, err);
                }
            }
            if wgt_sum > 0.0 {
                let (s, w) = &mut self.scores[i];
                *s = *s * self.cfg.decay + err_sum / wgt_sum;
                *w = *w * self.cfg.decay + 1.0;
            }
        }
        let scored = k as u64;
        self.resolved += scored;
        if scored > 0 && self.obs.is_enabled() {
            self.obs.counter_add("core.ensemble.resolved", scored);
        }
        self.pending.retain(|p| p.id != id);
        self.choice.remove(&id);
    }

    /// Drop all state for a query that left without completing (abort,
    /// failure, rejection): its samples carry no estimator-quality signal.
    pub fn forget(&mut self, id: u64) {
        self.pending.retain(|p| p.id != id);
        self.choice.remove(&id);
    }

    /// Serialize all mutable ensemble state — scores, residual windows,
    /// per-query choices, unresolved samples, counters, and each member
    /// estimator's own state. Restoring into a freshly constructed
    /// ensemble with the same member lineup reproduces subsequent output
    /// bit for bit.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_usize(self.estimators.len());
        for score in &self.scores {
            score.enc(&mut e);
        }
        for r in &self.residuals {
            r.buf.enc(&mut e);
            r.next.enc(&mut e);
        }
        self.choice.enc(&mut e);
        e.put_usize(self.pending.len());
        for p in &self.pending {
            (p.at, p.id).enc(&mut e);
            for v in &p.ests {
                v.enc(&mut e);
            }
        }
        (self.resolved, self.switches).enc(&mut e);
        for est in &self.estimators {
            est.checkpoint(&mut e);
        }
        e.into_bytes()
    }

    /// Restore state captured by [`Ensemble::checkpoint`] into this
    /// ensemble. The member lineup (count and order) must match the one
    /// the snapshot was taken from.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let mut d = Dec::new(bytes);
        let n = d.get_usize()?;
        if n != self.estimators.len() {
            return Err(CkptError::Corrupt(format!(
                "ensemble snapshot has {n} estimators, this ensemble has {}",
                self.estimators.len()
            )));
        }
        for score in &mut self.scores {
            *score = Wire::dec(&mut d)?;
        }
        let cap = self.cfg.window.max(1);
        for ring in &mut self.residuals {
            let (buf, next): (Vec<f64>, usize) = Wire::dec(&mut d)?;
            if buf.len() > cap {
                return Err(CkptError::Corrupt(format!(
                    "residual window of {} exceeds capacity {cap}",
                    buf.len()
                )));
            }
            if next > buf.len() {
                return Err(CkptError::Corrupt(format!(
                    "residual cursor {next} beyond window of {}",
                    buf.len()
                )));
            }
            *ring = Ring { cap, buf, next };
        }
        self.choice = Wire::dec(&mut d)?;
        if let Some(c) = self.choice.values().find(|&&c| c as usize >= n) {
            return Err(CkptError::Corrupt(format!(
                "choice index {c} out of range for {n} estimators"
            )));
        }
        self.pending.clear();
        for _ in 0..d.get_usize()? {
            let (at, id) = Wire::dec(&mut d)?;
            let mut ests = Vec::with_capacity(n);
            for _ in 0..n {
                ests.push(d.get_f64()?);
            }
            self.pending.push(Pending { at, id, ests });
        }
        (self.resolved, self.switches) = Wire::dec(&mut d)?;
        for est in &mut self.estimators {
            est.restore_state(&mut d)?;
        }
        if !d.is_exhausted() {
            return Err(CkptError::Corrupt(format!(
                "{} trailing bytes after ensemble state",
                d.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqpi_sim::system::{QueryState, SystemSnapshot};

    fn state(id: u64, remaining: f64, done: f64, speed: Option<f64>) -> QueryState {
        QueryState {
            id,
            name: format!("q{id}").into(),
            weight: 1.0,
            arrived: 0.0,
            started: 0.0,
            done,
            remaining,
            initial_estimate: done + remaining,
            observed_speed: speed,
            blocked: false,
            rolling_back: false,
        }
    }

    fn snap(t: f64, running: Vec<QueryState>) -> SystemSnapshot {
        SystemSnapshot {
            time: t,
            rate: 100.0,
            running,
            queued: vec![],
        }
    }

    fn two_member() -> Ensemble {
        Ensemble::new(
            vec![
                Box::new(MultiQueryPi::new(Visibility::concurrent_only())),
                Box::new(SingleQueryPi::new()),
            ],
            EnsembleConfig::default(),
        )
    }

    #[test]
    fn defaults_to_first_member_and_bands_are_ordered() {
        let mut ens = two_member();
        let s = snap(
            0.0,
            vec![state(1, 500.0, 0.0, None), state(2, 80.0, 0.0, None)],
        );
        let out = ens.tick(&s);
        assert_eq!(out.banded.len(), 2);
        for b in &out.banded {
            assert_eq!(b.chosen, "multi");
            assert!(b.band.p10.is_finite() && b.band.p90.is_finite());
            assert!(b.band.p10 <= b.band.p50 && b.band.p50 <= b.band.p90);
            // Prior spread: the band is genuinely two-sided.
            assert!(b.band.width() > 0.0);
        }
        assert_eq!(out.decisions.len(), 2);
        assert!(out.decisions.iter().all(|d| d.from == "-"));
    }

    #[test]
    fn selector_switches_to_the_estimator_that_proves_right() {
        // Observed speed says 25 U/s while the nominal fair share says 50:
        // the single-query PI (observed) and the multi-query PI (nominal)
        // disagree 2:1. Resolve finishes consistent with the *observed*
        // speed; the selector must abandon the default (multi) for single.
        // One resolved query is all the evidence this scenario has, so the
        // evidence floor is lowered accordingly.
        let mut ens = Ensemble::new(
            vec![
                Box::new(MultiQueryPi::new(Visibility::concurrent_only())),
                Box::new(SingleQueryPi::new()),
            ],
            EnsembleConfig {
                min_weight: 1.0,
                ..EnsembleConfig::default()
            },
        );
        let mk = |t: f64| {
            snap(
                t,
                vec![
                    state(1, 500.0 - 25.0 * t, 25.0 * t, Some(25.0)),
                    state(2, 500.0 - 25.0 * t, 25.0 * t, Some(25.0)),
                ],
            )
        };
        for i in 0..4 {
            let _ = ens.tick(&mk(i as f64));
        }
        // Query 1 "finishes" where the 25 U/s world says it should.
        ens.resolve(1, 20.0);
        assert!(ens.score(1) < ens.score(0), "single should score better");
        let out = ens.tick(&mk(4.0));
        let switched: Vec<_> = out.decisions.iter().filter(|d| d.from != "-").collect();
        assert_eq!(switched.len(), 1, "decisions: {:?}", out.decisions);
        assert_eq!(switched[0].from, "multi");
        assert_eq!(switched[0].to, "single");
        assert_eq!(ens.switches(), 1);
        assert!(out.banded.iter().all(|b| b.chosen == "single"));
    }

    #[test]
    fn thin_evidence_does_not_rank_or_switch() {
        // Same 2:1 disagreement as above, but under the default evidence
        // floor: a single resolved query must not flip the choice, however
        // decisively it favors the challenger.
        let mut ens = two_member();
        let mk = |t: f64| {
            snap(
                t,
                vec![
                    state(1, 500.0 - 25.0 * t, 25.0 * t, Some(25.0)),
                    state(2, 500.0 - 25.0 * t, 25.0 * t, Some(25.0)),
                ],
            )
        };
        for i in 0..4 {
            let _ = ens.tick(&mk(i as f64));
        }
        ens.resolve(1, 20.0);
        assert!(
            ens.score(0).is_infinite() && ens.score(1).is_infinite(),
            "one resolution must stay below the evidence floor"
        );
        let out = ens.tick(&mk(4.0));
        assert!(
            out.decisions.iter().all(|d| d.from == "-"),
            "no switches on thin evidence: {:?}",
            out.decisions
        );
        assert_eq!(ens.switches(), 0);
        assert!(out.banded.iter().all(|b| b.chosen == "multi"));
    }

    #[test]
    fn forget_drops_state_without_scoring() {
        let mut ens = two_member();
        let s = snap(0.0, vec![state(1, 500.0, 0.0, None)]);
        let _ = ens.tick(&s);
        ens.forget(1);
        assert_eq!(ens.resolved(), 0);
        assert!(ens.score(0).is_infinite());
    }

    #[test]
    fn near_zero_actuals_are_not_scored() {
        let mut ens = two_member();
        let s = snap(0.0, vec![state(1, 500.0, 0.0, None)]);
        let _ = ens.tick(&s);
        ens.resolve(1, 0.5); // below min_actual
        assert_eq!(ens.resolved(), 0);
        assert!(ens.score(0).is_infinite());
    }

    #[test]
    fn empirical_residuals_tighten_the_band() {
        let cfg = EnsembleConfig {
            min_residuals: 4,
            ..Default::default()
        };
        let mut ens = Ensemble::new(
            vec![Box::new(MultiQueryPi::new(Visibility::concurrent_only()))],
            cfg,
        );
        // Several perfectly predicted completions: one lone query at rate
        // 100 with cost 500 finishes in exactly 5 s.
        for round in 0..6u64 {
            let id = round + 1;
            let t0 = round as f64 * 10.0;
            let s = snap(t0, vec![state(id, 500.0, 0.0, Some(100.0))]);
            let _ = ens.tick(&s);
            ens.resolve(id, t0 + 5.0);
        }
        let s = snap(100.0, vec![state(99, 500.0, 0.0, Some(100.0))]);
        let out = ens.tick(&s);
        let b = out.banded[0].band;
        // Residual ratios are all 1.0, so the empirical quantiles collapse
        // and only the rate-uncertainty floor keeps the band open.
        assert!((b.p50 - 5.0).abs() < 1e-9, "p50 = {}", b.p50);
        assert!(b.width() < 5.0 * 0.2, "width = {}", b.width());
        assert!(b.covers(5.0));
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_identical_and_resumes_equal() {
        let run = |split: bool| -> (Vec<u8>, String) {
            let mut ens = Ensemble::standard(Visibility::concurrent_only(), 4.0);
            let mk = |t: f64| {
                snap(
                    t,
                    vec![
                        state(1, 600.0 - 30.0 * t, 30.0 * t, Some(30.0)),
                        state(2, 900.0 - 40.0 * t, 40.0 * t, Some(40.0)),
                    ],
                )
            };
            let mut log = String::new();
            for i in 0..8 {
                if split && i == 4 {
                    let bytes = ens.checkpoint();
                    let mut fresh = Ensemble::standard(Visibility::concurrent_only(), 4.0);
                    fresh.restore_state(&bytes).unwrap();
                    // The snapshot must re-encode byte-identically.
                    assert_eq!(bytes, fresh.checkpoint());
                    ens = fresh;
                }
                if i == 3 {
                    ens.resolve(1, 11.0);
                }
                let out = ens.tick(&mk(i as f64));
                for b in &out.banded {
                    log.push_str(&format!(
                        "{} {} {:.17e} {:.17e} {:.17e}\n",
                        b.id, b.chosen, b.band.p10, b.band.p50, b.band.p90
                    ));
                }
            }
            (ens.checkpoint(), log)
        };
        let (bytes_a, log_a) = run(false);
        let (bytes_b, log_b) = run(true);
        assert_eq!(log_a, log_b, "resumed tick outputs diverged");
        assert_eq!(bytes_a, bytes_b, "final checkpoints diverged");
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let mut ens = two_member();
        let s = snap(0.0, vec![state(1, 500.0, 0.0, None)]);
        let _ = ens.tick(&s);
        let bytes = ens.checkpoint();
        let mut fresh = two_member();
        // Truncated.
        assert!(fresh.restore_state(&bytes[..bytes.len() - 1]).is_err());
        // Wrong lineup.
        let mut solo = Ensemble::new(
            vec![Box::new(SingleQueryPi::new())],
            EnsembleConfig::default(),
        );
        assert!(solo.restore_state(&bytes).is_err());
        // Intact bytes still restore.
        assert!(fresh.restore_state(&bytes).is_ok());
    }

    #[test]
    fn observed_tick_emits_selector_and_estimate_events() {
        let mut ens = two_member();
        ens.set_obs(Obs::enabled());
        let s = snap(0.0, vec![state(1, 500.0, 0.0, None)]);
        let _ = ens.tick(&s);
        let obs_handle = ens.obs.clone();
        let trace = obs_handle.render_trace();
        assert!(trace.contains("selector id=1 from=- to=multi"), "{trace}");
        assert!(trace.contains("estimate pi=ensemble id=1"), "{trace}");
        assert_eq!(obs_handle.counter("core.ensemble.assigns"), 1);
        // Resolution records error histograms.
        ens.resolve(1, 10.0);
        assert_eq!(obs_handle.counter("core.ensemble.resolved"), 1);
        assert!(obs_handle.metrics_csv().contains("core.ensemble.err.multi"));
    }
}
