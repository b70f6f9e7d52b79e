//! Maintaining the service's incremental model from a simulator's
//! delta-event feed.
//!
//! [`SystemMirror`] consumes [`mqpi_sim::SimEvent`]s (the opt-in feed from
//! [`mqpi_sim::System::enable_event_feed`]) and keeps an
//! [`IncrementalFluid`] — plus the admission queue and blocked set the
//! fluid model doesn't track — in sync with the simulated scheduler using
//! only `O(log n)` delta updates, never a snapshot rebuild. This is the
//! "event hooks feed deltas instead of rebuilds" integration: a
//! [`PiService`](crate::PiService)-style consumer can point-query the
//! mirror between simulator steps at `O(log n)` per estimate.
//!
//! Semantics per event:
//!
//! * `Admitted` — the query enters the GPS pool (leaving the mirror's
//!   queue copy if it waited there).
//! * `Enqueued` — tracked in a side table keyed by id (queue order is never
//!   read here); queued queries have no virtual tag yet, so point estimates
//!   cover admitted queries only (exactly like the service's pump path).
//! * `Blocked` / `Resumed` — a blocked query neither executes nor
//!   occupies GPS bandwidth in the simulator, so the mirror withdraws it
//!   (remembering its remaining cost and weight) and re-admits it on
//!   resume. That matches the scheduler, where blocked queries are skipped
//!   when distributing quanta.
//! * `CostRefined` — replaces remaining cost wherever the query lives
//!   (admitted, blocked, or queued).
//! * `RateChanged` — `O(1)` lazy rescale.
//! * `Departed` — removes the query from whichever structure holds it.
//!   The fluid model may already have retired it at a predicted-completion
//!   boundary; the event is then a no-op, and the simulator stays the
//!   source of truth for *when* queries actually left. `Blocked`,
//!   `Resumed` and `CostRefined` for such a query are no-ops too: the
//!   scheduler still runs its last sub-unit of credit, so they are honest.
//!
//! # Hostile-event hardening
//!
//! A mirror fed from a real system cannot assume a well-behaved stream:
//! event buses drop, duplicate, and reorder, and instrumented engines
//! occasionally report garbage (`NaN` costs, negative rates). Every event
//! is therefore screened *before* it can reach the fluid model (whose
//! `arrive` panics on duplicates and on values outside `mqpi_sim::domain`).
//! Malformed events are **quarantined** — counted per reason in
//! [`QuarantineStats`] and otherwise ignored — so a hostile stream degrades
//! estimate freshness, never process integrity.
//! When quarantine counts grow, [`SystemMirror::resync`] rebuilds the
//! mirror from an authoritative [`System`] snapshot in one call.
//!
//! The mirror advances its model to each event's timestamp before applying
//! it, so estimates queried between batches are always relative to the
//! last applied event time.

use mqpi_core::IncrementalFluid;
use mqpi_sim::idmap::{IdMap, IdSet};
use mqpi_sim::{domain, FinishKind, SimEvent, System};

/// Counts of events rejected by the mirror's input screening, by reason.
///
/// A healthy feed keeps every field at zero; any growth indicates the
/// event source is unreliable and a [`SystemMirror::resync`] may be
/// warranted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineStats {
    /// Events that would double-apply a query the mirror already tracks
    /// (e.g. `Admitted` for a live id, `Resumed` for an unblocked one).
    pub duplicate: u64,
    /// Events naming an id the mirror has never seen (and that cannot be
    /// explained as a predicted-retirement or submission-time rejection).
    pub unknown_id: u64,
    /// Events timestamped before the mirror's clock. Time never runs
    /// backwards in a single feed; these are replays or reorderings.
    pub out_of_order: u64,
    /// Events with a timestamp that is not finite, or a cost, weight or
    /// rate outside its domain (`mqpi_sim::domain`).
    pub non_finite: u64,
}

impl QuarantineStats {
    /// Total quarantined events across all reasons.
    pub fn total(&self) -> u64 {
        self.duplicate + self.unknown_id + self.out_of_order + self.non_finite
    }
}

/// Incremental predictor state mirrored off a simulator event feed.
#[derive(Debug)]
pub struct SystemMirror {
    fluid: IncrementalFluid,
    /// Queued (not yet admitted) queries: id → (cost, weight). An id lives
    /// in at most one of `fluid`, `queue` and `blocked`: every insertion
    /// below is screened against the other two.
    queue: IdMap<(f64, f64)>,
    /// Blocked queries withdrawn from the GPS pool: id → (remaining cost,
    /// weight).
    blocked: IdMap<(f64, f64)>,
    clock: f64,
    /// Ids the fluid model retired at predicted completion boundaries.
    predicted_done: Vec<u64>,
    /// Ids retired by the model whose `Departed` confirmation is still
    /// outstanding — a later `Departed` for one of these is legitimate,
    /// not an unknown id. Entries leave when the confirmation arrives.
    retired: IdSet,
    quarantine: QuarantineStats,
    /// Quarantine counters as of the last [`resync`](Self::resync):
    /// backoff decisions ("have things gone wrong *since* the rebuild?")
    /// compare against this baseline, not the lifetime totals.
    quarantine_at_resync: QuarantineStats,
    resyncs: u64,
}

impl SystemMirror {
    /// Mirror for a system running at aggregate rate `rate`.
    pub fn new(rate: f64) -> Self {
        SystemMirror {
            fluid: IncrementalFluid::new(rate),
            queue: IdMap::default(),
            blocked: IdMap::default(),
            clock: 0.0,
            predicted_done: Vec::new(),
            retired: IdSet::default(),
            quarantine: QuarantineStats::default(),
            quarantine_at_resync: QuarantineStats::default(),
            resyncs: 0,
        }
    }

    /// Mirror configured from a live system (the rate in effect, a dip
    /// included, and the current clock).
    pub fn for_system(sys: &System) -> Self {
        let mut m = SystemMirror::new(sys.current_rate());
        m.clock = sys.now();
        m
    }

    /// The maintained incremental model.
    pub fn fluid(&self) -> &IncrementalFluid {
        &self.fluid
    }

    /// Time of the last applied event.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Admitted, unblocked queries currently in the model.
    pub fn live(&self) -> usize {
        self.fluid.len()
    }

    /// Mirrored admission-queue length.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Mirrored blocked-set size.
    pub fn blocked_count(&self) -> usize {
        self.blocked.len()
    }

    /// Events rejected by input screening so far, by reason.
    pub fn quarantine_stats(&self) -> QuarantineStats {
        self.quarantine
    }

    /// Events quarantined since the last [`resync`](Self::resync) (or
    /// since construction). A resync resets this window to zero — the
    /// lifetime totals in [`quarantine_stats`](Self::quarantine_stats)
    /// describe the feed's history, but backoff decisions ("resync
    /// again?") must not re-trigger on pre-rebuild damage.
    pub fn quarantine_since_resync(&self) -> QuarantineStats {
        QuarantineStats {
            duplicate: self.quarantine.duplicate - self.quarantine_at_resync.duplicate,
            unknown_id: self.quarantine.unknown_id - self.quarantine_at_resync.unknown_id,
            out_of_order: self.quarantine.out_of_order - self.quarantine_at_resync.out_of_order,
            non_finite: self.quarantine.non_finite - self.quarantine_at_resync.non_finite,
        }
    }

    /// Number of [`resync`](Self::resync) rebuilds performed.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// `O(log n)` remaining-seconds estimate for an admitted query.
    /// Queued and blocked queries return `None` (no virtual tag / not
    /// consuming bandwidth).
    pub fn estimate(&self, id: u64) -> Option<f64> {
        self.fluid.estimate(id)
    }

    /// Remaining cost (work units) for a query the mirror tracks anywhere.
    pub fn remaining_cost(&self, id: u64) -> Option<f64> {
        if let Some(c) = self.fluid.remaining_cost(id) {
            return Some(c);
        }
        let parked = self.blocked.get(&id).or_else(|| self.queue.get(&id));
        parked.map(|&(c, _)| c)
    }

    /// Ids retired by the model itself at predicted completion boundaries
    /// (before the simulator confirmed them). Cleared by the call.
    pub fn drain_predicted_done(&mut self, out: &mut Vec<u64>) {
        out.append(&mut self.predicted_done);
    }

    /// Advance the fluid model by `dt`, recording any ids it retires at
    /// predicted boundaries so their eventual `Departed` confirmations
    /// are recognised as legitimate.
    fn model_advance(&mut self, dt: f64) {
        self.fluid.advance(dt);
        let before = self.predicted_done.len();
        self.fluid.drain_due(&mut self.predicted_done);
        for &id in &self.predicted_done[before..] {
            self.retired.insert(id);
        }
    }

    /// True when the mirror tracks `id` in any structure (live, queued,
    /// or blocked).
    fn tracks(&self, id: u64) -> bool {
        self.fluid.contains(id) || self.blocked.contains_key(&id) || self.queue.contains_key(&id)
    }

    /// Apply one scheduler event, first advancing the model to its
    /// timestamp.
    ///
    /// Malformed events (see [`QuarantineStats`]) are counted and
    /// dropped; the model is never advanced to a bogus timestamp and the
    /// fluid structure is never fed a payload that would corrupt it.
    pub fn apply(&mut self, ev: SimEvent) {
        let at = ev.at();
        if !at.is_finite() {
            self.quarantine.non_finite += 1;
            return;
        }
        if at < self.clock {
            self.quarantine.out_of_order += 1;
            return;
        }
        let dt = at - self.clock;
        if dt > 0.0 {
            self.model_advance(dt);
            self.clock = at;
        }
        // A payload outside its domain never reaches the fluid model.
        let in_domain = match ev {
            SimEvent::Admitted { cost, weight, .. } | SimEvent::Enqueued { cost, weight, .. } => {
                domain::cost(cost).and(domain::weight(weight)).is_ok()
            }
            SimEvent::CostRefined { remaining, .. } => domain::cost(remaining).is_ok(),
            SimEvent::RateChanged { rate, .. } => domain::rate(rate).is_ok(),
            _ => true,
        };
        if !in_domain {
            self.quarantine.non_finite += 1;
            return;
        }
        match ev {
            SimEvent::Admitted {
                id, cost, weight, ..
            } => {
                // An id that leaves the queue is in neither other table.
                if self.queue.remove(&id).is_none()
                    && (self.fluid.contains(id) || self.blocked.contains_key(&id))
                {
                    self.quarantine.duplicate += 1;
                    return;
                }
                self.fluid.arrive(id, cost, weight);
            }
            SimEvent::Enqueued {
                id, cost, weight, ..
            } => {
                if self.tracks(id) {
                    self.quarantine.duplicate += 1;
                    return;
                }
                self.queue.insert(id, (cost, weight));
            }
            SimEvent::Departed { id, kind, .. } => {
                if self.fluid.finish(id) {
                    return;
                }
                if self.queue.remove(&id).is_some()
                    || self.blocked.remove(&id).is_some()
                    || self.retired.remove(&id)
                {
                    // Queued or blocked departure, or confirmation of a
                    // query the model retired at a predicted boundary.
                } else if kind != FinishKind::Rejected {
                    // Rejected-at-submission queries were never admitted
                    // or enqueued, so an unmatched rejection is expected;
                    // any other unmatched departure is a phantom id.
                    self.quarantine.unknown_id += 1;
                }
            }
            SimEvent::Blocked { id, .. } => {
                if let (Some(cost), Some(w)) =
                    (self.fluid.remaining_cost(id), self.fluid.weight_of(id))
                {
                    self.fluid.abort(id);
                    self.blocked.insert(id, (cost, w));
                } else if self.blocked.contains_key(&id) {
                    self.quarantine.duplicate += 1;
                } else if !self.retired.contains(&id) {
                    self.quarantine.unknown_id += 1;
                }
            }
            SimEvent::Resumed { id, .. } => {
                if let Some((cost, w)) = self.blocked.remove(&id) {
                    if self.fluid.contains(id) {
                        self.quarantine.duplicate += 1;
                    } else {
                        self.fluid.arrive(id, cost, w);
                    }
                } else if self.fluid.contains(id) {
                    self.quarantine.duplicate += 1;
                } else if !self.retired.contains(&id) {
                    self.quarantine.unknown_id += 1;
                }
            }
            SimEvent::CostRefined { id, remaining, .. } => {
                if self.fluid.refine_cost(id, remaining) {
                    return;
                }
                if let Some(e) = self.blocked.get_mut(&id) {
                    e.0 = remaining;
                } else if let Some(q) = self.queue.get_mut(&id) {
                    q.0 = remaining;
                } else if !self.retired.contains(&id) {
                    self.quarantine.unknown_id += 1;
                }
            }
            SimEvent::RateChanged { rate, .. } => {
                self.fluid.set_rate(rate);
            }
        }
    }

    /// Apply a batch of events in order (e.g. one
    /// [`System::drain_events`] worth).
    pub fn apply_all(&mut self, events: &[SimEvent]) {
        for &ev in events {
            self.apply(ev);
        }
    }

    /// Advance the model past the last event (e.g. to the simulator's
    /// current clock before querying estimates).
    pub fn advance_to(&mut self, t: f64) {
        let dt = t - self.clock;
        if dt > 0.0 {
            self.model_advance(dt);
            self.clock = t;
        }
    }

    /// Rebuild the mirror from an authoritative snapshot of `sys`,
    /// discarding all event-derived state.
    ///
    /// This is the recovery path after quarantine counts indicate the
    /// event feed lost integrity: one `O(n log n)` rebuild re-anchors the
    /// mirror, after which delta application can resume from the next
    /// drained batch. Quarantine counters are preserved (they describe
    /// the feed, not the current state); `resyncs` is incremented.
    pub fn resync(&mut self, sys: &System) {
        let snap = sys.snapshot();
        // The snapshot reports the nominal rate; a mirror that followed the
        // feed holds the rate in effect (`RateChanged`), dip included.
        self.fluid =
            IncrementalFluid::new(domain::rate(sys.current_rate()).unwrap_or(f64::MIN_POSITIVE));
        self.queue.clear();
        self.queue.reserve(snap.queued.len());
        self.blocked.clear();
        self.predicted_done.clear();
        // Re-seed retired-id tracking from the system's finished roster: a
        // post-recovery feed (e.g. a replayed WAL suffix) may still carry
        // `Departed` confirmations for queries that finished before the
        // snapshot, and those must be recognised as legitimate rather than
        // quarantined as phantom ids.
        self.retired.clear();
        self.retired.extend(sys.finished().iter().map(|f| f.id));
        self.clock = snap.time;
        // Out-of-domain values are sanitized (weight 1, cost 0), as the
        // service sanitizes a submission.
        let weight = |w| domain::weight(w).unwrap_or(1.0);
        let cost = |c| domain::cost(c).unwrap_or(0.0);
        for q in &snap.running {
            let (cost, weight) = (cost(q.remaining), weight(q.weight));
            if q.blocked {
                self.blocked.insert(q.id, (cost, weight));
            } else {
                self.fluid.arrive(q.id, cost, weight);
            }
        }
        for q in &snap.queued {
            self.queue
                .insert(q.id, (cost(q.est_cost), weight(q.weight)));
        }
        self.resyncs += 1;
        // Reset the backoff window: damage counted before the rebuild is
        // historical and must not make a fresh mirror look unhealthy.
        self.quarantine_at_resync = self.quarantine;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqpi_sim::{
        AdmissionPolicy, FaultEvent, FaultKind, FaultPlan, RetryPolicy, StepMode, SyntheticJob,
        SystemConfig,
    };

    fn cfg(slots: Option<usize>) -> SystemConfig {
        SystemConfig {
            rate: 50.0,
            step_mode: StepMode::EventDriven,
            admission: match slots {
                Some(k) => AdmissionPolicy::MaxConcurrent(k),
                None => AdmissionPolicy::Unlimited,
            },
            ..SystemConfig::default()
        }
    }

    #[test]
    fn mirror_tracks_unlimited_system_to_completion() {
        let mut sys = System::new(cfg(None));
        sys.enable_event_feed();
        let mut ids = Vec::new();
        for i in 0..20u64 {
            let id = sys.submit(
                format!("q{i}"),
                Box::new(SyntheticJob::new(100 + i * 37)),
                1.0 + (i % 3) as f64,
            );
            ids.push(id);
        }
        let mut m = SystemMirror::for_system(&sys);
        let mut evs = Vec::new();
        sys.drain_events(&mut evs);
        m.apply_all(&evs);
        assert_eq!(m.live(), 20);

        // Mirror estimates vs the snapshot predictor, mid-flight. The
        // event-driven simulator matches the fluid model exactly for
        // synthetic jobs, so the two should agree tightly.
        while sys.has_work() {
            evs.clear();
            sys.step().expect("step");
            sys.drain_events(&mut evs);
            m.apply_all(&evs);
            m.advance_to(sys.now());
            let snap = sys.snapshot();
            let running: Vec<_> = snap
                .running
                .iter()
                .map(|q| mqpi_core::FluidQuery {
                    id: q.id,
                    cost: q.remaining,
                    weight: q.weight,
                })
                .collect();
            let pred = mqpi_core::fluid::predict(&running, &[], None, None, snap.rate);
            for &(id, t) in &pred.finish_times {
                if t <= 0.0 {
                    continue; // finishing this instant: mirror may have retired it
                }
                let est = m
                    .estimate(id)
                    .unwrap_or_else(|| panic!("mirror lost live query {id}"));
                let tol = (t.abs() * 0.02).max(0.05);
                assert!(
                    (est - t).abs() <= tol,
                    "query {id}: mirror {est} vs snapshot {t}"
                );
            }
        }
        evs.clear();
        sys.drain_events(&mut evs);
        m.apply_all(&evs);
        assert_eq!(m.live(), 0, "all queries must have departed the mirror");
        assert_eq!(m.queued(), 0);
        assert_eq!(
            m.quarantine_stats().total(),
            0,
            "a well-behaved feed must not trip quarantine: {:?}",
            m.quarantine_stats()
        );
        for id in ids {
            assert!(
                sys.finished_record(id).is_some(),
                "simulator lost query {id}"
            );
        }
    }

    #[test]
    fn mirror_tracks_admission_queue() {
        let mut sys = System::new(cfg(Some(2)));
        sys.enable_event_feed();
        for i in 0..6u64 {
            sys.submit(format!("q{i}"), Box::new(SyntheticJob::new(200)), 1.0);
        }
        let mut m = SystemMirror::for_system(&sys);
        let mut evs = Vec::new();
        sys.drain_events(&mut evs);
        m.apply_all(&evs);
        assert_eq!(m.live(), 2);
        assert_eq!(m.queued(), 4);
        while sys.has_work() {
            evs.clear();
            sys.step().expect("step");
            sys.drain_events(&mut evs);
            m.apply_all(&evs);
            assert_eq!(m.live(), sys.running_ids().len());
            assert_eq!(m.queued(), sys.queued_ids().len());
        }
        assert_eq!(m.live(), 0);
        assert_eq!(m.queued(), 0);
        assert_eq!(m.quarantine_stats().total(), 0);
    }

    #[test]
    fn mirror_survives_abort_and_reprioritize() {
        let mut sys = System::new(cfg(None));
        sys.enable_event_feed();
        let a = sys.submit("a", Box::new(SyntheticJob::new(1000)), 1.0);
        let b = sys.submit("b", Box::new(SyntheticJob::new(1000)), 1.0);
        let mut m = SystemMirror::for_system(&sys);
        let mut evs = Vec::new();
        sys.drain_events(&mut evs);
        m.apply_all(&evs);
        sys.abort(a).expect("abort");
        evs.clear();
        sys.drain_events(&mut evs);
        m.apply_all(&evs);
        assert!(m.estimate(a).is_none(), "aborted query must leave");
        assert!(m.estimate(b).is_some());
        while sys.has_work() {
            sys.step().expect("step");
        }
        evs.clear();
        sys.drain_events(&mut evs);
        m.apply_all(&evs);
        assert_eq!(m.live(), 0);
        assert_eq!(m.quarantine_stats().total(), 0);
    }

    #[test]
    fn hostile_events_are_quarantined_not_applied() {
        let mut m = SystemMirror::new(10.0);
        m.apply(SimEvent::Admitted {
            at: 0.0,
            id: 1,
            cost: 50.0,
            weight: 1.0,
        });
        m.apply(SimEvent::Admitted {
            at: 1.0,
            id: 2,
            cost: 50.0,
            weight: 1.0,
        });
        assert_eq!(m.live(), 2);
        let baseline = m.estimate(1).expect("live estimate");

        // Duplicate admission of a live id.
        m.apply(SimEvent::Admitted {
            at: 1.0,
            id: 1,
            cost: 999.0,
            weight: 7.0,
        });
        assert_eq!(m.quarantine_stats().duplicate, 1);

        // Non-finite payloads: NaN cost, inf weight, zero weight.
        m.apply(SimEvent::Admitted {
            at: 1.0,
            id: 3,
            cost: f64::NAN,
            weight: 1.0,
        });
        m.apply(SimEvent::Enqueued {
            at: 1.0,
            id: 4,
            cost: 10.0,
            weight: f64::INFINITY,
        });
        m.apply(SimEvent::Enqueued {
            at: 1.0,
            id: 5,
            cost: 10.0,
            weight: 0.0,
        });
        assert_eq!(m.quarantine_stats().non_finite, 3);
        assert_eq!(m.live(), 2);
        assert_eq!(m.queued(), 0);

        // Non-finite timestamp: rejected before it can move the clock.
        m.apply(SimEvent::Blocked {
            at: f64::NAN,
            id: 1,
        });
        assert_eq!(m.quarantine_stats().non_finite, 4);
        assert_eq!(m.blocked_count(), 0);

        // Time running backwards.
        m.apply(SimEvent::Admitted {
            at: 0.5,
            id: 6,
            cost: 10.0,
            weight: 1.0,
        });
        assert_eq!(m.quarantine_stats().out_of_order, 1);
        assert!((m.now() - 1.0).abs() < 1e-12, "clock must not move");

        // Phantom departures: unknown id quarantined, submission-time
        // rejection tolerated (such queries were never admitted).
        m.apply(SimEvent::Departed {
            at: 1.0,
            id: 99,
            kind: FinishKind::Completed,
        });
        assert_eq!(m.quarantine_stats().unknown_id, 1);
        m.apply(SimEvent::Departed {
            at: 1.0,
            id: 100,
            kind: FinishKind::Rejected,
        });
        assert_eq!(m.quarantine_stats().unknown_id, 1);

        // Unknown block/resume, double resume, bogus refinement and rate.
        m.apply(SimEvent::Blocked { at: 1.0, id: 42 });
        m.apply(SimEvent::Resumed { at: 1.0, id: 42 });
        assert_eq!(m.quarantine_stats().unknown_id, 3);
        m.apply(SimEvent::Blocked { at: 1.0, id: 1 });
        m.apply(SimEvent::Resumed { at: 1.0, id: 1 });
        m.apply(SimEvent::Resumed { at: 1.0, id: 1 });
        assert_eq!(m.quarantine_stats().duplicate, 2);
        m.apply(SimEvent::CostRefined {
            at: 1.0,
            id: 1,
            remaining: f64::NEG_INFINITY,
        });
        m.apply(SimEvent::RateChanged {
            at: 1.0,
            rate: -3.0,
        });
        m.apply(SimEvent::RateChanged {
            at: 1.0,
            rate: f64::NAN,
        });
        assert_eq!(m.quarantine_stats().non_finite, 7);

        // The live set survived the entire barrage intact.
        assert_eq!(m.live(), 2);
        let est = m.estimate(1).expect("query 1 must still be live");
        assert!(est.is_finite() && est > 0.0);
        assert!(
            (est - baseline).abs() < baseline,
            "estimate stayed in a sane range"
        );
        assert_eq!(m.quarantine_stats().total(), 13);
    }

    /// The model retires a query at its predicted finish while the
    /// scheduler still owes it its last sub-unit of credit (quantum steps
    /// grant a tenth of a unit each). Blocking and resuming it in that
    /// window are honest events: nothing is quarantined.
    #[test]
    fn block_during_last_sub_unit_is_not_quarantined() {
        let mut sys = System::new(SystemConfig {
            rate: 10.0,
            quantum_units: 0.2,
            ..SystemConfig::default()
        });
        sys.enable_event_feed();
        let a = sys.submit("a", Box::new(SyntheticJob::new(3)), 1.0);
        sys.submit("b", Box::new(SyntheticJob::new(40)), 1.0);
        let mut m = SystemMirror::for_system(&sys);
        let (mut evs, mut retired) = (Vec::new(), Vec::new());
        let mut sync = |sys: &mut System, m: &mut SystemMirror, retired: &mut Vec<u64>| {
            evs.clear();
            sys.drain_events(&mut evs);
            m.apply_all(&evs);
            m.advance_to(sys.now());
            m.drain_predicted_done(retired);
        };
        let mut lagged = false;
        while sys.has_work() {
            sync(&mut sys, &mut m, &mut retired);
            if !lagged && retired.contains(&a) && sys.running_ids().contains(&a) {
                lagged = true;
                sys.block(a).expect("block");
                for _ in 0..3 {
                    sys.step().expect("step");
                    sync(&mut sys, &mut m, &mut retired);
                }
                sys.resume(a).expect("resume");
                sync(&mut sys, &mut m, &mut retired);
                assert!(sys.running_ids().contains(&a), "still owed a sub-unit");
            }
            sys.step().expect("step");
        }
        sync(&mut sys, &mut m, &mut retired);
        assert!(lagged, "the scheduler never lagged the model");
        assert_eq!(m.quarantine_stats(), QuarantineStats::default());
        assert_eq!((m.live(), m.blocked_count()), (0, 0));
    }

    #[test]
    fn resync_reanchors_mirror_from_snapshot() {
        let mut sys = System::new(cfg(Some(2)));
        sys.enable_event_feed();
        for i in 0..6u64 {
            sys.submit(format!("q{i}"), Box::new(SyntheticJob::new(300)), 1.0);
        }
        // Lose the first batches entirely: this mirror never saw them.
        for _ in 0..4 {
            sys.step().expect("step");
        }
        let mut dropped = Vec::new();
        sys.drain_events(&mut dropped);

        let mut m = SystemMirror::for_system(&sys);
        assert_eq!(m.live(), 0, "mirror starts desynchronised");
        m.resync(&sys);
        assert_eq!(m.resyncs(), 1);
        assert_eq!(m.live(), sys.running_ids().len());
        assert_eq!(m.queued(), sys.queued_ids().len());

        // Delta application resumes cleanly from the next batch.
        let mut evs = Vec::new();
        while sys.has_work() {
            evs.clear();
            sys.step().expect("step");
            sys.drain_events(&mut evs);
            m.apply_all(&evs);
            assert_eq!(m.live(), sys.running_ids().len());
            assert_eq!(m.queued(), sys.queued_ids().len());
        }
        assert_eq!(m.live(), 0);
        assert_eq!(m.queued(), 0);
        assert_eq!(m.quarantine_stats().total(), 0);
    }

    /// A mirror built or resynced during a rate dip starts at the rate in
    /// effect, as one that followed the feed's `RateChanged` does: six
    /// 2 000-unit jobs at rate 50, the rate cut to a quarter at t = 1,
    /// read at t = 5 — 952 s to go, not the nominal rate's 238 s.
    #[test]
    fn mirror_built_or_resynced_in_a_rate_dip_reads_the_dipped_rate() {
        let mut sys = System::new(cfg(None));
        sys.enable_event_feed();
        let dip = FaultKind::RateDip {
            factor: 0.25,
            duration: 1e4,
        };
        let plan = FaultPlan::new(
            vec![FaultEvent { at: 1.0, kind: dip }],
            0,
            RetryPolicy::none(),
        );
        sys.install_faults(plan);
        let ids: Vec<_> = (0..6)
            .map(|i| sys.submit(format!("q{i}"), Box::new(SyntheticJob::new(2_000)), 1.0))
            .collect();
        let mut follower = SystemMirror::for_system(&sys);
        sys.run_until(5.0).expect("run");
        let mut evs = Vec::new();
        sys.drain_events(&mut evs);
        follower.apply_all(&evs);
        follower.advance_to(sys.now());
        assert_eq!(sys.current_rate(), 12.5);

        assert_eq!(SystemMirror::for_system(&sys).fluid().rate(), 12.5);
        let mut resynced = SystemMirror::new(50.0);
        resynced.resync(&sys);
        for id in ids {
            let (a, b) = (
                follower.estimate(id).unwrap(),
                resynced.estimate(id).unwrap(),
            );
            assert!((a - 952.0).abs() < 1e-6, "query {id}: follower reads {a}");
            // The snapshot counts whole units done: 1 984 of 2 000 left,
            // where the follower's fluid model holds 1 983.3.
            assert!(
                (a - b).abs() < 1e-3 * a,
                "query {id}: resynced reads {b}, follower {a}"
            );
        }
    }
}
