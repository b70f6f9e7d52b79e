//! Debug-mode invariant validation of PI state.
//!
//! The chaos harness (and any driver that wants the checks) feeds every
//! `System` snapshot and the estimates derived from it into an
//! [`InvariantValidator`]. The validator accumulates [`Violation`]s rather
//! than panicking, so a campaign can complete and report *all* breakage:
//!
//! * virtual time is monotone across observations;
//! * every estimate is finite and non-negative (the sanitizer's contract);
//! * estimates reference only queries present in the snapshot, and ids are
//!   consistent between the running set and the queue (queue-position
//!   consistency — an aborted queued query must vanish the same tick);
//! * per-query work done never decreases (absent an abort/rollback, which
//!   legitimately swaps the job out);
//! * remaining-time estimates decrease by the elapsed interval, within a
//!   slack, on intervals with no arrivals, no blocking changes, and no
//!   injected faults (remaining-time monotonicity);
//! * work is conserved across abort → rollback → retry
//!   ([`InvariantValidator::check_conservation`]).

use mqpi_ckpt::{CkptError, Dec, Enc, Wire};
use mqpi_sim::idmap::{IdMap, IdSet};
use mqpi_sim::system::{FinishedQuery, SystemSnapshot};

use crate::estimate::EstimateSet;

/// One invariant breach, with enough context to debug it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Virtual time of the observation that caught it.
    pub at: f64,
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

/// By hand: the rule identifier is re-interned to `&'static str`.
impl Wire for Violation {
    fn enc(&self, e: &mut Enc) {
        e.put_f64(self.at);
        e.put_str(self.rule);
        e.put_str(&self.detail);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, CkptError> {
        Ok(Violation {
            at: d.get_f64()?,
            rule: mqpi_obs::intern(&d.get_str()?),
            detail: d.get_str()?,
        })
    }
}

/// What the validator may assume about the interval since the previous
/// observation.
#[derive(Debug, Clone, Copy, Default)]
pub struct ValidationContext {
    /// A fault (cost noise, rate dip, abort, burst, page fault) fired in
    /// the interval: estimate jumps are expected, so the remaining-time
    /// monotonicity rule is suspended for this observation.
    pub faults_in_interval: bool,
    /// Enable the remaining-time monotonicity rule. Only meaningful for
    /// estimators whose model sees the whole system (the multi-query PI);
    /// single-query estimates fluctuate with observed speed by design.
    pub check_monotonicity: bool,
}

/// Accumulates invariant violations across a run.
#[derive(Debug, Clone)]
pub struct InvariantValidator {
    /// Absolute tolerance (seconds) for the monotonicity rule, covering
    /// quantum discretization.
    slack: f64,
    last_time: Option<f64>,
    last_estimates: IdMap<f64>,
    /// Ids visible (running ∪ queued) at the previous observation.
    last_ids: IdSet,
    /// Per-running-query (done, blocked, rolling_back) at the previous
    /// observation.
    last_running: IdMap<(f64, bool, bool)>,
    violations: Vec<Violation>,
    /// Observability handle: every violation is also emitted as a
    /// `violation` trace event and counted under
    /// `core.validator.violations`, so fail-on-violation checks can read
    /// from the metrics registry instead of re-walking the list.
    obs: mqpi_obs::Obs,
}

impl Default for InvariantValidator {
    fn default() -> Self {
        Self::new()
    }
}

impl InvariantValidator {
    /// Validator with a default slack of one second.
    pub fn new() -> Self {
        Self::with_slack(1.0)
    }

    /// Validator with an explicit monotonicity slack in seconds (use at
    /// least a few quanta's worth of time).
    pub fn with_slack(slack: f64) -> Self {
        InvariantValidator {
            slack,
            last_time: None,
            last_estimates: IdMap::default(),
            last_ids: IdSet::default(),
            last_running: IdMap::default(),
            violations: Vec::new(),
            obs: mqpi_obs::Obs::disabled(),
        }
    }

    /// Install an observability handle; each subsequent violation also
    /// emits an `violation` trace event and increments
    /// `core.validator.violations`.
    pub fn set_obs(&mut self, obs: mqpi_obs::Obs) {
        self.obs = obs;
    }

    fn violate(&mut self, at: f64, rule: &'static str, detail: String) {
        if self.obs.is_enabled() {
            self.obs
                .emit(at, mqpi_obs::TraceKind::InvariantViolation { rule });
            self.obs.counter_add("core.validator.violations", 1);
        }
        self.violations.push(Violation { at, rule, detail });
    }

    /// Feed one observation: the snapshot and the estimates computed from
    /// it. Call once per sampling tick, in time order.
    pub fn observe(&mut self, snap: &SystemSnapshot, est: &EstimateSet, ctx: ValidationContext) {
        let t = snap.time;

        // Rule: virtual time is monotone.
        if let Some(prev) = self.last_time {
            if t < prev - 1e-9 {
                self.violate(t, "time_monotone", format!("time went back: {prev} -> {t}"));
            }
        }

        // Rule: id consistency inside the snapshot.
        let running_ids: IdSet = snap.running.iter().map(|r| r.id).collect();
        let queued_ids: IdSet = snap.queued.iter().map(|q| q.id).collect();
        if running_ids.len() != snap.running.len() {
            self.violate(
                t,
                "duplicate_running_id",
                "running set has duplicate ids".into(),
            );
        }
        if queued_ids.len() != snap.queued.len() {
            self.violate(t, "duplicate_queued_id", "queue has duplicate ids".into());
        }
        // By id, not in set order, so the violations come out in the same
        // order on every run.
        let mut both: Vec<u64> = running_ids.intersection(&queued_ids).copied().collect();
        both.sort_unstable();
        for id in both {
            self.violate(
                t,
                "running_and_queued",
                format!("query {id} is both running and queued"),
            );
        }

        // Rule: the queue is FIFO in arrival time.
        for w in snap.queued.windows(2) {
            if w[1].arrived < w[0].arrived - 1e-9 {
                self.violate(
                    t,
                    "queue_fifo",
                    format!(
                        "queue out of arrival order: {} (t={}) before {} (t={})",
                        w[0].id, w[0].arrived, w[1].id, w[1].arrived
                    ),
                );
            }
        }

        let visible: IdSet = running_ids.union(&queued_ids).copied().collect();

        // Rules: estimates are sane and reference only visible queries.
        for (id, remaining) in est.iter() {
            if !remaining.is_finite() || remaining < 0.0 {
                self.violate(
                    t,
                    "estimate_sane",
                    format!("estimate for {id} is {remaining}"),
                );
            }
            if !visible.contains(&id) {
                self.violate(
                    t,
                    "estimate_for_departed",
                    format!("estimate references query {id} not in the snapshot"),
                );
            }
        }

        // Rule: per-query done never decreases (job swaps from
        // abort/rollback excepted).
        for r in &snap.running {
            if let Some(&(prev_done, _, prev_rolling)) = self.last_running.get(&r.id) {
                let rollback_transition = r.rolling_back != prev_rolling;
                if !rollback_transition && !r.rolling_back && r.done < prev_done - 1e-9 {
                    self.violate(
                        t,
                        "done_monotone",
                        format!("query {} done went back: {prev_done} -> {}", r.id, r.done),
                    );
                }
            }
        }

        // Rule: remaining-time monotonicity on clean intervals — the fluid
        // prediction is self-consistent, so with no arrivals, no admission,
        // no blocking changes, and no faults, the estimate for a query must
        // shrink by the elapsed time (within slack).
        if ctx.check_monotonicity && !ctx.faults_in_interval {
            if let Some(prev_t) = self.last_time {
                let dt = t - prev_t;
                let no_new_ids = visible.iter().all(|id| self.last_ids.contains(id));
                let state_stable = snap.running.iter().all(|r| {
                    self.last_running
                        .get(&r.id)
                        .is_none_or(|&(_, b, rb)| b == r.blocked && rb == r.rolling_back)
                });
                if dt >= 0.0 && no_new_ids && state_stable {
                    for r in snap
                        .running
                        .iter()
                        .filter(|r| !r.blocked && !r.rolling_back)
                    {
                        let (Some(now), Some(prev)) =
                            (est.get(r.id), self.last_estimates.get(&r.id).copied())
                        else {
                            continue;
                        };
                        if now > prev - dt + self.slack {
                            self.violate(
                                t,
                                "remaining_monotone",
                                format!(
                                    "query {}: estimate {prev} -> {now} over dt={dt} \
                                     (expected ≤ {})",
                                    r.id,
                                    prev - dt + self.slack
                                ),
                            );
                        }
                    }
                }
            }
        }

        self.last_time = Some(t);
        self.last_estimates = est.iter().collect();
        self.last_ids = visible;
        self.last_running = snap
            .running
            .iter()
            .map(|r| (r.id, (r.done, r.blocked, r.rolling_back)))
            .collect();
    }

    /// Check the work-conservation ledger: everything the system executed
    /// must be attributed to a live session or a finished record
    /// (`units_done + rollback_units`), within `tol` units.
    pub fn check_conservation(
        &mut self,
        at: f64,
        executed_units: f64,
        live_units_done: f64,
        finished: &[FinishedQuery],
        tol: f64,
    ) {
        let accounted: f64 = live_units_done
            + finished
                .iter()
                .map(|f| f.units_done + f.rollback_units)
                .sum::<f64>();
        if (executed_units - accounted).abs() > tol {
            self.violate(
                at,
                "work_conservation",
                format!("executed {executed_units} units but accounted for {accounted}"),
            );
        }
    }

    /// All violations so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Serialize the validator's full state for a checkpoint. Maps and
    /// sets are written in sorted key order, so the encoding is canonical.
    /// The obs handle is excluded (re-install via
    /// [`InvariantValidator::set_obs`] after restore).
    pub fn checkpoint(&self) -> Vec<u8> {
        fn sorted<V: Copy>(m: &IdMap<V>) -> Vec<(u64, V)> {
            let mut pairs: Vec<(u64, V)> = m.iter().map(|(k, v)| (*k, *v)).collect();
            pairs.sort_unstable_by_key(|(id, _)| *id);
            pairs
        }
        let mut e = Enc::new();
        (self.slack, self.last_time).enc(&mut e);
        sorted(&self.last_estimates).enc(&mut e);
        let mut ids: Vec<u64> = self.last_ids.iter().copied().collect();
        ids.sort_unstable();
        ids.enc(&mut e);
        sorted(&self.last_running).enc(&mut e);
        self.violations.enc(&mut e);
        e.into_bytes()
    }

    /// Rebuild a validator from [`InvariantValidator::checkpoint`] bytes.
    /// The restored validator's obs handle is disabled.
    pub fn restore(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut d = Dec::new(bytes);
        let (slack, last_time) = Wire::dec(&mut d)?;
        let mut v = InvariantValidator::with_slack(slack);
        v.last_time = last_time;
        v.last_estimates = Vec::<(u64, f64)>::dec(&mut d)?.into_iter().collect();
        v.last_ids = Vec::<u64>::dec(&mut d)?.into_iter().collect();
        v.last_running = Vec::<(u64, (f64, bool, bool))>::dec(&mut d)?
            .into_iter()
            .collect();
        v.violations = Wire::dec(&mut d)?;
        if !d.is_exhausted() {
            return Err(CkptError::Corrupt(format!(
                "{} trailing bytes after validator state",
                d.remaining()
            )));
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqpi_sim::system::{QueryState, QueuedState};

    fn state(id: u64, done: f64, remaining: f64) -> QueryState {
        QueryState {
            id,
            name: format!("q{id}").into(),
            weight: 1.0,
            arrived: 0.0,
            started: 0.0,
            done,
            remaining,
            initial_estimate: done + remaining,
            observed_speed: Some(10.0),
            blocked: false,
            rolling_back: false,
        }
    }

    fn snap(t: f64, running: Vec<QueryState>, queued: Vec<QueuedState>) -> SystemSnapshot {
        SystemSnapshot {
            time: t,
            rate: 100.0,
            running,
            queued,
        }
    }

    #[test]
    fn clean_progression_stays_clean() {
        let mut v = InvariantValidator::with_slack(0.5);
        let ctx = ValidationContext {
            faults_in_interval: false,
            check_monotonicity: true,
        };
        // One query alone at rate 100: remaining time decreases 1:1.
        for k in 0..5 {
            let t = k as f64;
            let done = 100.0 * t;
            let s = snap(t, vec![state(1, done, 1000.0 - done)], vec![]);
            let est = EstimateSet::from_pairs([(1, (1000.0 - done) / 100.0)], false);
            v.observe(&s, &est, ctx);
        }
        assert!(
            v.violations().is_empty(),
            "violations: {:?}",
            v.violations()
        );
    }

    #[test]
    fn flags_time_regression_and_bad_estimates() {
        let mut v = InvariantValidator::new();
        let ctx = ValidationContext::default();
        let s1 = snap(5.0, vec![state(1, 0.0, 100.0)], vec![]);
        // Bypass from_pairs sanitization to simulate estimator garbage:
        // hand-build the set through serde-independent constructor paths.
        let est = EstimateSet::from_pairs([(1, 1.0), (9, 2.0)], false);
        v.observe(&s1, &est, ctx);
        let s2 = snap(4.0, vec![state(1, 10.0, 90.0)], vec![]);
        v.observe(&s2, &EstimateSet::new(), ctx);
        let rules: Vec<&str> = v.violations().iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"estimate_for_departed"), "{rules:?}");
        assert!(rules.contains(&"time_monotone"), "{rules:?}");
    }

    #[test]
    fn flags_estimate_growth_on_clean_interval_only() {
        let grow = |faults: bool| {
            let mut v = InvariantValidator::with_slack(0.1);
            let ctx = ValidationContext {
                faults_in_interval: faults,
                check_monotonicity: true,
            };
            let s1 = snap(0.0, vec![state(1, 0.0, 1000.0)], vec![]);
            v.observe(&s1, &EstimateSet::from_pairs([(1, 10.0)], false), ctx);
            let s2 = snap(1.0, vec![state(1, 100.0, 900.0)], vec![]);
            // Estimate *grew* with no arrivals: a violation unless a fault
            // fired in the interval.
            v.observe(&s2, &EstimateSet::from_pairs([(1, 50.0)], false), ctx);
            v.violations().is_empty()
        };
        assert!(!grow(false));
        assert!(grow(true));
    }

    #[test]
    fn flags_queue_inconsistency() {
        let mut v = InvariantValidator::new();
        let q = QueuedState {
            id: 1,
            name: "dup".into(),
            weight: 1.0,
            arrived: 0.0,
            est_cost: 10.0,
        };
        let s = snap(0.0, vec![state(1, 0.0, 100.0)], vec![q]);
        v.observe(&s, &EstimateSet::new(), ValidationContext::default());
        assert!(v
            .violations()
            .iter()
            .any(|x| x.rule == "running_and_queued"));
    }

    #[test]
    fn violations_surface_as_trace_events_and_counter() {
        let obs = mqpi_obs::Obs::enabled();
        let mut v = InvariantValidator::new();
        v.set_obs(obs.clone());
        v.observe(
            &snap(5.0, vec![], vec![]),
            &EstimateSet::new(),
            ValidationContext::default(),
        );
        v.observe(
            &snap(4.0, vec![], vec![]),
            &EstimateSet::new(),
            ValidationContext::default(),
        );
        v.check_conservation(4.0, 100.0, 0.0, &[], 1e-6);
        assert_eq!(v.violations().len(), 2);
        assert_eq!(obs.counter("core.validator.violations"), 2);
        let trace = obs.render_trace();
        assert_eq!(
            trace,
            "t=4 violation rule=time_monotone\nt=4 violation rule=work_conservation\n"
        );
    }

    #[test]
    fn checkpoint_restore_continues_identically() {
        let drive = |v: &mut InvariantValidator, range: std::ops::Range<u64>| {
            let ctx = ValidationContext {
                faults_in_interval: false,
                check_monotonicity: true,
            };
            for k in range {
                let t = k as f64;
                let done = 100.0 * t;
                let s = snap(t, vec![state(1, done, 1000.0 - done)], vec![]);
                // The estimate grows at t=3 → one deliberate violation.
                let est_t = if k == 3 {
                    99.0
                } else {
                    (1000.0 - done) / 100.0
                };
                v.observe(&s, &EstimateSet::from_pairs([(1, est_t)], false), ctx);
            }
        };
        let mut straight = InvariantValidator::with_slack(0.5);
        drive(&mut straight, 0..8);
        let mut first = InvariantValidator::with_slack(0.5);
        drive(&mut first, 0..4);
        let mut resumed = InvariantValidator::restore(&first.checkpoint()).unwrap();
        drive(&mut resumed, 4..8);
        assert_eq!(
            format!("{:?}", resumed.violations()),
            format!("{:?}", straight.violations())
        );
        assert_eq!(resumed.checkpoint(), straight.checkpoint());
        assert!(InvariantValidator::restore(&[1, 2, 3]).is_err());
    }

    /// Violations come out in one order on every run: estimates in the
    /// set's order, ids in both the running set and the queue by id. Each
    /// `IdMap`/`IdSet` draws its own hash key, so set order would
    /// differ between the repetitions below.
    #[test]
    fn violation_order_is_the_same_every_time() {
        let departed: Vec<u64> = (0..16).map(|i| 1_000 + i * 7_919 % 97).collect();
        let run = || {
            let mut v = InvariantValidator::new();
            let queued: Vec<QueuedState> = (1..=6)
                .rev()
                .map(|id| QueuedState {
                    id,
                    name: "dup".into(),
                    weight: 1.0,
                    arrived: 0.0,
                    est_cost: 10.0,
                })
                .collect();
            let running = (1..=6).map(|id| state(id, 0.0, 100.0)).collect();
            let est = EstimateSet::from_pairs(departed.iter().map(|&id| (id, 1.0)), false);
            v.observe(
                &snap(0.0, running, queued),
                &est,
                ValidationContext::default(),
            );
            v.violations()
                .iter()
                .map(|x| x.detail.clone())
                .collect::<Vec<_>>()
        };
        let first = run();
        let mut want: Vec<String> = (1..=6)
            .map(|id| format!("query {id} is both running and queued"))
            .collect();
        want.extend(
            departed
                .iter()
                .map(|id| format!("estimate references query {id} not in the snapshot")),
        );
        assert_eq!(first, want);
        for _ in 0..8 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn conservation_check_balances() {
        let mut v = InvariantValidator::new();
        v.check_conservation(10.0, 500.0, 200.0, &[], 1e-6);
        assert!(!v.violations().is_empty());
        let mut v = InvariantValidator::new();
        v.check_conservation(10.0, 200.0, 200.0, &[], 1e-6);
        assert!(v.violations().is_empty());
    }
}
