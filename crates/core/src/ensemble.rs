//! Uncertainty bands around the paper's multi-query PI.
//!
//! Wu et al. (*Uncertainty Aware Query Execution Time Prediction*) argue
//! estimates should carry distributions, not points. [`BandedPi`] runs a
//! [`MultiQueryPi`] at every tick and brackets each of its point estimates
//! with a p10/p90 [`Band`]: the PI's empirical residual quantiles over
//! realized finish times, widened by the current rate uncertainty. The
//! band's p50 is the PI's point, bit for bit.
//!
//! Every piece is deterministic: bands are pure functions of the
//! tick/resolve call sequence, so the output is bit-identical across worker
//! counts and checkpoint/restore cuts ([`BandedPi::checkpoint`] /
//! [`BandedPi::restore_state`]).
//!
//! The module, the `ensemble` trace tag (`estimate pi=ensemble`) and the
//! `core.ensemble.*` metrics keep the name of the estimator ensemble this
//! replaced; DESIGN.md §15 says why its selector went.

use mqpi_ckpt::{wire_struct, CkptError, Enc, Wire};
use mqpi_obs::{Obs, ERROR_BUCKETS};
use mqpi_sim::domain;
use mqpi_sim::system::SystemSnapshot;

use crate::estimate::{relative_error, Band, BandedEstimate, EstimateSet};
use crate::multi::{MultiQueryPi, Visibility};

// Tuning of the bands. Every caller runs these values; none is a knob.

/// Residual-window capacity (recent `actual / estimate` ratios; band
/// quantiles are computed over this window).
const WINDOW: usize = 64;
/// Resolved residuals required before empirical quantiles replace the
/// prior band spread.
const MIN_RESIDUALS: usize = 8;
/// Prior band-ratio spread used before enough residuals exist:
/// `p10 = PRIOR_LO · p50`, `p90 = PRIOR_HI · p50`.
const PRIOR_LO: f64 = 0.5;
/// See [`PRIOR_LO`].
const PRIOR_HI: f64 = 2.0;
/// Baseline relative half-spread always added to the rate-uncertainty band
/// component.
const BASE_SPREAD: f64 = 0.05;
/// Realized remaining times below this are not scored (the paper's
/// campaigns do the same: near-zero actuals make relative error explode
/// without saying anything about the estimator).
const MIN_ACTUAL: f64 = 1.0;
/// Per-sample relative-error cap (winsorization), matching the chaos
/// campaign's `ERR_CAP`.
const ERR_CAP: f64 = 100.0;
/// Upper bound on buffered unresolved samples; the oldest are dropped
/// beyond it so a never-finishing workload cannot grow memory without
/// bound.
const MAX_PENDING: usize = 65_536;
/// Histogram of the PI's relative error over resolved samples.
const ERR_HIST: &str = "core.ensemble.err.multi";

/// Buffered unresolved sample: the time it was taken, the query, and the
/// PI's point estimate.
#[derive(Debug, Clone)]
struct Pending {
    at: f64,
    id: u64,
    est: f64,
}
wire_struct!(Pending { at, id, est });

/// The paper's multi-query PI with Wu-style percentile bands.
///
/// Drive it with three calls:
/// * [`BandedPi::tick`] at every sampling point;
/// * [`BandedPi::resolve`] when a query *completes* (realized finish time
///   known) — this is what feeds the residual window;
/// * [`BandedPi::forget`] when a query leaves without completing (abort,
///   rejection) — its samples say nothing about the estimator.
#[derive(Debug)]
pub struct BandedPi {
    pi: MultiQueryPi,
    /// The [`WINDOW`] most recent residual ratios, oldest overwritten
    /// first at `next`.
    residuals: Vec<f64>,
    next: usize,
    pending: Vec<Pending>,
    obs: Obs,
    resolved: u64,
}

impl BandedPi {
    /// Bands around a [`MultiQueryPi`] with the given visibility.
    pub fn new(visibility: Visibility) -> Self {
        BandedPi {
            pi: MultiQueryPi::new(visibility),
            residuals: Vec::new(),
            next: 0,
            pending: Vec::new(),
            obs: Obs::disabled(),
            resolved: 0,
        }
    }

    /// Attach an observability handle; banded estimates and the error
    /// histogram are recorded on it.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Resolved (tick, query) samples scored so far.
    pub fn resolved(&self) -> u64 {
        self.resolved
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

    /// The residual window's p10 and p90 ratios, or the prior spread while
    /// the window holds fewer than [`MIN_RESIDUALS`].
    fn residual_spread(&self) -> (f64, f64) {
        if self.residuals.len() < MIN_RESIDUALS {
            return (PRIOR_LO, PRIOR_HI);
        }
        let mut sorted = self.residuals.clone();
        sorted.sort_by(f64::total_cmp);
        // Nearest rank.
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
        (at(0.10), at(0.90))
    }

    /// One sampling tick: run the PI over the snapshot, buffer its points
    /// for later scoring, and band them. Returns one band per running,
    /// unblocked query, sorted by id. The attached [`Obs`] handle records
    /// one `estimate` event per query (`pi=ensemble`, the band p50) and the
    /// `core.predict.ensemble` span.
    pub fn tick(&mut self, snap: &SystemSnapshot) -> Vec<BandedEstimate> {
        let set = self.pi.estimates(snap);
        let mut ids: Vec<u64> = snap
            .running
            .iter()
            .filter(|q| !q.blocked)
            .map(|q| q.id)
            .collect();
        ids.sort_unstable();

        // The PI's point is the p50, bracketed by its empirical residual
        // quantiles and widened by the rate-uncertainty prior. The p50 is
        // deliberately *not* rescaled by the median residual ratio: ratios
        // only arrive when a query resolves and each resolution spans the
        // query's whole life, so after a regime change (an arrival burst
        // ends, a fault clears) the window stays stale long after the
        // points have recovered — a median "debias" then multiplies an
        // accurate point by the old regime's bias. The stale window is
        // harmless on the band edges, where it can only widen the bracket.
        let d = Self::rate_uncertainty(snap);
        let (lo_q, hi_q) = self.residual_spread();
        let lo = lo_q.min(1.0 - d - BASE_SPREAD).max(0.01);
        let hi = hi_q.max(1.0 + d + BASE_SPREAD);
        let mut banded = Vec::with_capacity(ids.len());
        for id in ids {
            let Some(p) = set.get(id) else {
                continue;
            };
            self.pending.push(Pending {
                at: snap.time,
                id,
                est: p,
            });
            banded.push(BandedEstimate {
                id,
                band: Band::sanitized(p * lo, p, p * hi),
            });
        }
        if self.pending.len() > MAX_PENDING {
            let excess = self.pending.len() - MAX_PENDING;
            self.pending.drain(0..excess);
        }

        crate::observe::observe_estimates(
            &self.obs,
            "ensemble",
            "core.predict.ensemble",
            snap.time,
            &EstimateSet::from_bands(&banded),
        );
        banded
    }

    /// Score every buffered sample of query `id` against its realized
    /// completion at `finished_at`: each residual ratio enters the window,
    /// oldest sample first. Then drop the query's state. Call this only
    /// for queries that ran to completion.
    pub fn resolve(&mut self, id: u64, finished_at: f64) {
        let mut scored = 0;
        for i in 0..self.pending.len() {
            let Pending { at, id: pid, est } = self.pending[i];
            let actual = finished_at - at;
            if pid != id || actual < MIN_ACTUAL {
                continue;
            }
            scored += 1;
            let ratio = (actual / est.max(1e-9)).clamp(1e-3, 1e3);
            if self.residuals.len() < WINDOW {
                self.residuals.push(ratio);
            } else {
                self.residuals[self.next] = ratio;
                self.next = (self.next + 1) % WINDOW;
            }
            if self.obs.is_enabled() {
                let err = relative_error(est, actual).min(ERR_CAP);
                self.obs.histogram_observe(ERR_HIST, ERROR_BUCKETS, err);
            }
        }
        self.resolved += scored;
        if scored > 0 && self.obs.is_enabled() {
            self.obs.counter_add("core.ensemble.resolved", scored);
        }
        self.forget(id);
    }

    /// Drop all state for a query that left without completing (abort,
    /// failure, rejection): its samples carry no signal about the PI.
    pub fn forget(&mut self, id: u64) {
        self.pending.retain(|p| p.id != id);
    }

    /// Serialize all mutable state — the residual window, unresolved
    /// samples and the resolved count. Restoring into a freshly
    /// constructed `BandedPi` with the same visibility reproduces
    /// subsequent output bit for bit.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.residuals.enc(&mut e);
        self.next.enc(&mut e);
        self.pending.enc(&mut e);
        self.resolved.enc(&mut e);
        e.into_bytes()
    }

    /// Restore state captured by [`BandedPi::checkpoint`] into this
    /// `BandedPi`.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let (residuals, next, pending, resolved): (Vec<f64>, usize, Vec<Pending>, u64) =
            Wire::from_bytes(bytes, "banded PI state")?;
        if residuals.len() > WINDOW {
            return Err(CkptError::Corrupt(format!(
                "residual window of {} exceeds capacity {WINDOW}",
                residuals.len()
            )));
        }
        // The cursor moves only once the window is full, and stays inside it.
        if next != 0 && !(residuals.len() == WINDOW && next < WINDOW) {
            return Err(CkptError::Corrupt(format!(
                "residual cursor {next} invalid for a window of {}",
                residuals.len()
            )));
        }
        (self.residuals, self.next, self.pending, self.resolved) =
            (residuals, next, pending, resolved);
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

    fn banded() -> BandedPi {
        BandedPi::new(Visibility::concurrent_only())
    }

    #[test]
    fn bands_are_ordered_around_the_pi_point() {
        let mut pi = banded();
        let s = snap(
            0.0,
            vec![state(1, 500.0, 0.0, None), state(2, 80.0, 0.0, None)],
        );
        let out = pi.tick(&s);
        let points = MultiQueryPi::new(Visibility::concurrent_only()).estimates(&s);
        assert_eq!(out.len(), 2);
        for b in &out {
            assert_eq!(Some(b.band.p50), points.get(b.id));
            assert!(b.band.p10.is_finite() && b.band.p90.is_finite());
            assert!(b.band.p10 <= b.band.p50 && b.band.p50 <= b.band.p90);
            // Prior spread: the band is genuinely two-sided.
            assert!(b.band.width() > 0.0);
        }
    }

    #[test]
    fn forget_drops_state_without_scoring() {
        let mut pi = banded();
        let s = snap(0.0, vec![state(1, 500.0, 0.0, None)]);
        let _ = pi.tick(&s);
        pi.forget(1);
        pi.resolve(1, 10.0);
        assert_eq!(pi.resolved(), 0);
        assert!(pi.residuals.is_empty());
    }

    #[test]
    fn near_zero_actuals_are_not_scored() {
        let mut pi = banded();
        let s = snap(0.0, vec![state(1, 500.0, 0.0, None)]);
        let _ = pi.tick(&s);
        pi.resolve(1, 0.5); // below MIN_ACTUAL
        assert_eq!(pi.resolved(), 0);
        assert!(pi.residuals.is_empty());
    }

    #[test]
    fn empirical_residuals_tighten_the_band() {
        let mut pi = banded();
        // `MIN_RESIDUALS` perfectly predicted completions: one lone query at
        // rate 100 with cost 500 finishes in exactly 5 s.
        for round in 0..MIN_RESIDUALS as u64 {
            let id = round + 1;
            let t0 = round as f64 * 10.0;
            let s = snap(t0, vec![state(id, 500.0, 0.0, Some(100.0))]);
            let _ = pi.tick(&s);
            pi.resolve(id, t0 + 5.0);
        }
        let s = snap(100.0, vec![state(99, 500.0, 0.0, Some(100.0))]);
        let b = pi.tick(&s)[0].band;
        // Residual ratios are all 1.0, so the empirical quantiles collapse
        // and only the rate-uncertainty floor keeps the band open.
        assert!((b.p50 - 5.0).abs() < 1e-9, "p50 = {}", b.p50);
        assert!(b.width() < 5.0 * 0.2, "width = {}", b.width());
        assert!(b.p10 <= 5.0 && 5.0 <= b.p90);
    }

    #[test]
    fn the_window_keeps_the_latest_residuals() {
        let mut pi = banded();
        for i in 0..WINDOW as u64 + 3 {
            let t0 = i as f64 * 10.0;
            let _ = pi.tick(&snap(t0, vec![state(i, 500.0, 0.0, None)]));
            // Ratio (i + 1) / 5: each resolution's is distinct.
            pi.resolve(i, t0 + (i + 1) as f64);
        }
        assert_eq!(pi.residuals.len(), WINDOW);
        assert_eq!(pi.next, 3);
        let oldest_kept = 4.0 / 5.0;
        assert_eq!(pi.residuals[3], oldest_kept);
        assert_eq!(pi.residuals[2], (WINDOW + 3) as f64 / 5.0);
    }

    /// Bands of a faulted queue-shape run, one line per band at full
    /// precision, and the final checkpoint; with `cut`, the state goes
    /// through a checkpoint into a fresh `BandedPi` at that tick. Every p50
    /// must be the PI's point.
    fn faulted_run(cut: Option<usize>) -> (String, Vec<u8>) {
        use mqpi_sim::admission::AdmissionPolicy;
        use mqpi_sim::job::SyntheticJob;
        use mqpi_sim::rng::Rng;
        use mqpi_sim::system::{ErrorPolicy, FinishKind, StepMode, System, SystemConfig};
        use mqpi_sim::{FaultMix, FaultPlan};

        let vis = Visibility::with_queue(Some(3));
        let mut sys = System::new(SystemConfig {
            rate: 100.0,
            quantum_units: 16.0,
            admission: AdmissionPolicy::MaxConcurrent(3),
            step_mode: StepMode::Quantum,
            ..Default::default()
        });
        let mut rng = Rng::seed_from_u64(5);
        for i in 0..8 {
            let cost = rng.range_f64(500.0, 4000.0) as u64;
            sys.submit(format!("q{i}"), Box::new(SyntheticJob::new(cost)), 1.0);
        }
        sys.set_error_policy(ErrorPolicy::Isolate);
        sys.install_faults(FaultPlan::generate(11, 300.0, &FaultMix::even(3)));
        let point = MultiQueryPi::new(vis);
        let mut pi = BandedPi::new(vis);
        let (mut next, mut seen, mut ticks) = (0.0, 0, 0);
        let mut log = String::new();
        while sys.has_work() && sys.now() < 300.0 {
            if sys.now() >= next {
                for rec in &sys.finished()[seen..] {
                    if rec.kind == FinishKind::Completed {
                        pi.resolve(rec.id, rec.finished);
                    } else {
                        pi.forget(rec.id);
                    }
                }
                seen = sys.finished().len();
                if cut == Some(ticks) {
                    let bytes = pi.checkpoint();
                    pi = BandedPi::new(vis);
                    pi.restore_state(&bytes).unwrap();
                    assert_eq!(pi.checkpoint(), bytes, "re-encode is canonical");
                }
                let snap = sys.snapshot();
                let want = point.estimates(&snap);
                let bands = pi.tick(&snap);
                let running = snap.running.iter().filter(|q| !q.blocked).count();
                assert_eq!(bands.len(), running, "t={}", snap.time);
                for b in &bands {
                    let p = want.get(b.id).map(f64::to_bits);
                    assert_eq!(Some(b.band.p50.to_bits()), p, "id {} t={}", b.id, snap.time);
                    let Band { p10, p50, p90 } = b.band;
                    log.push_str(&format!("{} {p10:.17e} {p50:.17e} {p90:.17e}\n", b.id));
                }
                ticks += 1;
                while next <= sys.now() {
                    next += 5.0;
                }
            }
            sys.step().unwrap();
        }
        assert!(ticks > 20 && pi.resolved() > 0, "{ticks} ticks");
        assert!(!sys.fault_log().is_empty(), "no fault was applied");
        (log, pi.checkpoint())
    }

    #[test]
    fn p50_is_the_pi_point_on_a_faulted_run_and_across_a_checkpoint_cut() {
        let (log, bytes) = faulted_run(None);
        let (resumed_log, resumed_bytes) = faulted_run(Some(12));
        assert_eq!(resumed_log, log, "resumed bands diverged");
        assert_eq!(resumed_bytes, bytes, "final checkpoints diverged");
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let mut pi = banded();
        let s = snap(0.0, vec![state(1, 500.0, 0.0, None)]);
        let _ = pi.tick(&s);
        let bytes = pi.checkpoint();
        let mut fresh = banded();
        // Truncated, and with trailing junk.
        assert!(fresh.restore_state(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(fresh.restore_state(&long).is_err());
        // A cursor past the window, one in a window not yet full, and one
        // at the end of a full window (the next resolve would index it).
        for (len, next) in [(1, 2), (3, 1), (WINDOW, WINDOW)] {
            let bad = (vec![1.0f64; len], next, Vec::<Pending>::new(), 0u64).to_bytes();
            assert!(fresh.restore_state(&bad).is_err(), "{len} {next}");
        }
        let full = (
            vec![1.0f64; WINDOW],
            WINDOW - 1,
            Vec::<Pending>::new(),
            0u64,
        );
        assert!(fresh.restore_state(&full.to_bytes()).is_ok());
        // Intact bytes still restore, and re-encode canonically.
        assert!(fresh.restore_state(&bytes).is_ok());
        assert_eq!(fresh.checkpoint(), bytes);
    }

    #[test]
    fn observed_tick_emits_estimate_events_and_error_histogram() {
        let mut pi = banded();
        let obs = Obs::enabled();
        pi.set_obs(obs.clone());
        let s = snap(0.0, vec![state(1, 500.0, 0.0, None)]);
        let _ = pi.tick(&s);
        let trace = obs.render_trace();
        assert!(trace.contains("estimate pi=ensemble id=1"), "{trace}");
        // Resolution records the error histogram.
        pi.resolve(1, 10.0);
        assert_eq!(obs.counter("core.ensemble.resolved"), 1);
        assert!(obs.metrics_csv().contains(ERR_HIST));
    }
}
