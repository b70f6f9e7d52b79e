//! `SystemMirror` against the mirror it replaced.
//!
//! The mirror's admission-queue copy became an id-indexed table and its
//! events probe fewer tables than they used to. [`VecMirror`] below is the
//! old `apply` body kept verbatim — a `Vec` queue searched with
//! `position`/`any`/`find`, every table probed in the old order — but for
//! one behaviour both learned later: `Blocked`/`Resumed` for an id the model
//! retired at a predicted boundary are honest, not unknown ids. The
//! properties drive both with the same events and compare, after *every*
//! event, the quarantine counters, the three population counts, the ids the
//! model retired, and `remaining_cost`/`estimate` bits of the event's id and
//! of two random ones (every id in use every 64 events and at the end).
//!
//! Two kinds of feed: the real one from a `System` with a deep admission
//! queue (blocks, resumes, aborts of running and queued queries, cost
//! noise, rate dips, abort-with-rollback retries), and hostile ones —
//! that feed with forged events spliced in, and a purely random stream over
//! a dozen ids, where `Enqueued`/`Admitted` for an id the model has retired,
//! `CostRefined` on queued and blocked ids, duplicates, phantom ids,
//! timestamps running backwards and non-finite payloads all occur by
//! collision. A well-formed feed never reaches those collisions, so the
//! hostile properties are the only check on the probes `apply` no longer
//! makes. Each of these was tried in release mode and fails both hostile
//! properties: `Departed` probing `retired` ahead of the queue; `Admitted`
//! without its duplicate screen, screening against the live set alone, or
//! leaving the queue entry behind (this one fails the well-formed property
//! too); `Enqueued` unscreened or screened against the queue alone;
//! `CostRefined` writing a queued entry's weight, or quarantining an id the
//! model retired; `resync` keeping the old queue (fails the spliced property,
//! the one that resyncs). `remaining_cost` asking the queue before the
//! blocked table passes, as it must: an id is in at most one of the live
//! set, the queue and the blocked table, which is what lets `Admitted` skip
//! the other two once the queue gave the id up.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use mqpi_core::IncrementalFluid;
use mqpi_pi::{QuarantineStats, SystemMirror};
use mqpi_sim::{
    AdmissionPolicy, FaultEvent, FaultKind, FaultPlan, FinishKind, RetryPolicy, Rng, SimEvent,
    StepMode, SyntheticJob, System, SystemConfig,
};

/// The mirror as it was before its queue was indexed: the reference.
struct VecMirror {
    fluid: IncrementalFluid,
    queue: Vec<(u64, f64, f64)>,
    blocked: HashMap<u64, (f64, f64)>,
    clock: f64,
    predicted_done: Vec<u64>,
    retired: HashSet<u64>,
    quarantine: QuarantineStats,
}

impl VecMirror {
    fn for_system(sys: &System) -> Self {
        VecMirror {
            fluid: IncrementalFluid::new(sys.current_rate()),
            queue: Vec::new(),
            blocked: HashMap::new(),
            clock: sys.now(),
            predicted_done: Vec::new(),
            retired: HashSet::new(),
            quarantine: QuarantineStats::default(),
        }
    }

    fn remaining_cost(&self, id: u64) -> Option<f64> {
        if let Some(c) = self.fluid.remaining_cost(id) {
            return Some(c);
        }
        if let Some(&(c, _)) = self.blocked.get(&id) {
            return Some(c);
        }
        self.queue.iter().find(|q| q.0 == id).map(|q| q.1)
    }

    fn quarantine(&mut self, kind: &'static str) {
        match kind {
            "duplicate" => self.quarantine.duplicate += 1,
            "unknown_id" => self.quarantine.unknown_id += 1,
            "out_of_order" => self.quarantine.out_of_order += 1,
            _ => self.quarantine.non_finite += 1,
        }
    }

    fn model_advance(&mut self, dt: f64) {
        self.fluid.advance(dt);
        let before = self.predicted_done.len();
        self.fluid.drain_due(&mut self.predicted_done);
        for &id in &self.predicted_done[before..] {
            self.retired.insert(id);
        }
    }

    fn tracks(&self, id: u64) -> bool {
        self.fluid.contains(id)
            || self.blocked.contains_key(&id)
            || self.queue.iter().any(|q| q.0 == id)
    }

    fn apply(&mut self, ev: SimEvent) {
        let at = ev.at();
        if !at.is_finite() {
            self.quarantine("non_finite");
            return;
        }
        if at < self.clock {
            self.quarantine("out_of_order");
            return;
        }
        let dt = at - self.clock;
        if dt > 0.0 {
            self.model_advance(dt);
            self.clock = at;
        }
        match ev {
            SimEvent::Admitted {
                id, cost, weight, ..
            } => {
                if !cost.is_finite() || !weight.is_finite() || weight <= 0.0 {
                    self.quarantine("non_finite");
                    return;
                }
                if self.fluid.contains(id) || self.blocked.contains_key(&id) {
                    self.quarantine("duplicate");
                    return;
                }
                if let Some(pos) = self.queue.iter().position(|q| q.0 == id) {
                    self.queue.remove(pos);
                }
                self.fluid.arrive(id, cost.max(0.0), weight);
            }
            SimEvent::Enqueued {
                id, cost, weight, ..
            } => {
                if !cost.is_finite() || !weight.is_finite() || weight <= 0.0 {
                    self.quarantine("non_finite");
                    return;
                }
                if self.tracks(id) {
                    self.quarantine("duplicate");
                    return;
                }
                self.queue.push((id, cost, weight));
            }
            SimEvent::Departed { id, kind, .. } => {
                if self.fluid.finish(id) {
                    return;
                }
                if let Some(pos) = self.queue.iter().position(|q| q.0 == id) {
                    self.queue.remove(pos);
                } else if self.blocked.remove(&id).is_some() || self.retired.remove(&id) {
                } else if kind != FinishKind::Rejected {
                    self.quarantine("unknown_id");
                }
            }
            SimEvent::Blocked { id, .. } => {
                if let (Some(cost), Some(w)) =
                    (self.fluid.remaining_cost(id), self.fluid.weight_of(id))
                {
                    self.fluid.abort(id);
                    self.blocked.insert(id, (cost, w));
                } else if self.blocked.contains_key(&id) {
                    self.quarantine("duplicate");
                } else if !self.retired.contains(&id) {
                    self.quarantine("unknown_id");
                }
            }
            SimEvent::Resumed { id, .. } => {
                if let Some((cost, w)) = self.blocked.remove(&id) {
                    if self.fluid.contains(id) {
                        self.quarantine("duplicate");
                    } else {
                        self.fluid.arrive(id, cost, w);
                    }
                } else if self.fluid.contains(id) {
                    self.quarantine("duplicate");
                } else if !self.retired.contains(&id) {
                    self.quarantine("unknown_id");
                }
            }
            SimEvent::CostRefined { id, remaining, .. } => {
                if !remaining.is_finite() {
                    self.quarantine("non_finite");
                    return;
                }
                if self.fluid.refine_cost(id, remaining) {
                    return;
                }
                if let Some(e) = self.blocked.get_mut(&id) {
                    e.0 = remaining;
                } else if let Some(q) = self.queue.iter_mut().find(|q| q.0 == id) {
                    q.1 = remaining;
                } else if !self.retired.contains(&id) {
                    self.quarantine("unknown_id");
                }
            }
            SimEvent::RateChanged { rate, .. } => {
                if !rate.is_finite() || rate <= 0.0 {
                    self.quarantine("non_finite");
                    return;
                }
                self.fluid.set_rate(rate);
            }
        }
    }

    fn advance_to(&mut self, t: f64) {
        let dt = t - self.clock;
        if dt > 0.0 {
            self.model_advance(dt);
            self.clock = t;
        }
    }

    fn resync(&mut self, sys: &System) {
        let snap = sys.snapshot();
        self.fluid = IncrementalFluid::new(sys.current_rate().max(f64::MIN_POSITIVE));
        self.queue.clear();
        self.blocked.clear();
        self.predicted_done.clear();
        self.retired.clear();
        self.retired.extend(sys.finished().iter().map(|f| f.id));
        self.clock = snap.time;
        let weight = |w: f64| if w.is_finite() && w > 0.0 { w } else { 1.0 };
        let cost = |c: f64| if c.is_finite() { c.max(0.0) } else { 0.0 };
        for q in &snap.running {
            if q.blocked {
                self.blocked
                    .insert(q.id, (cost(q.remaining), weight(q.weight)));
            } else {
                self.fluid.arrive(q.id, cost(q.remaining), weight(q.weight));
            }
        }
        for q in &snap.queued {
            self.queue.push((q.id, cost(q.est_cost), weight(q.weight)));
        }
    }
}

/// The pair under comparison, and the ids worth probing.
struct Pair {
    real: SystemMirror,
    model: VecMirror,
    /// Every id any event so far has named.
    ids: Vec<u64>,
    /// Ids the model retired at a predicted boundary (for forging events
    /// about them).
    retired: Vec<u64>,
    applied: u64,
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

impl Pair {
    fn for_system(sys: &System) -> Self {
        Pair {
            real: SystemMirror::for_system(sys),
            model: VecMirror::for_system(sys),
            ids: Vec::new(),
            retired: Vec::new(),
            applied: 0,
        }
    }

    fn probe(&self, id: u64, ev: &SimEvent) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            bits(self.real.remaining_cost(id)),
            bits(self.model.remaining_cost(id)),
            "remaining_cost({}) after event #{} {:?}",
            id,
            self.applied,
            ev
        );
        prop_assert_eq!(
            bits(self.real.estimate(id)),
            bits(self.model.fluid.estimate(id)),
            "estimate({}) after event #{} {:?}",
            id,
            self.applied,
            ev
        );
        Ok(())
    }

    fn compare(&mut self, ev: &SimEvent, rng: &mut Rng, sweep: bool) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            self.real.quarantine_stats(),
            self.model.quarantine,
            "quarantine after event #{} {:?}",
            self.applied,
            ev
        );
        prop_assert_eq!(
            (
                self.real.live(),
                self.real.queued(),
                self.real.blocked_count()
            ),
            (
                self.model.fluid.len(),
                self.model.queue.len(),
                self.model.blocked.len()
            ),
            "live/queued/blocked after event #{} {:?}",
            self.applied,
            ev
        );
        prop_assert_eq!(self.real.now().to_bits(), self.model.clock.to_bits());
        let mut done = Vec::new();
        self.real.drain_predicted_done(&mut done);
        prop_assert_eq!(
            &done,
            &self.model.predicted_done,
            "ids retired by event #{} {:?}",
            self.applied,
            ev
        );
        self.model.predicted_done.clear();
        self.retired.append(&mut done);
        if sweep {
            for &id in &self.ids {
                self.probe(id, ev)?;
            }
        } else if !self.ids.is_empty() {
            for _ in 0..2 {
                let id = self.ids[rng.below(self.ids.len() as u64) as usize];
                self.probe(id, ev)?;
            }
        }
        Ok(())
    }

    fn apply(&mut self, ev: SimEvent, rng: &mut Rng) -> Result<(), TestCaseError> {
        self.real.apply(ev);
        self.model.apply(ev);
        self.applied += 1;
        let id = match ev {
            SimEvent::Admitted { id, .. }
            | SimEvent::Enqueued { id, .. }
            | SimEvent::Departed { id, .. }
            | SimEvent::Blocked { id, .. }
            | SimEvent::Resumed { id, .. }
            | SimEvent::CostRefined { id, .. } => id,
            SimEvent::RateChanged { .. } => 0,
        };
        if !self.ids.contains(&id) {
            self.ids.push(id);
        }
        self.probe(id, &ev)?;
        self.compare(&ev, rng, self.applied.is_multiple_of(64))
    }

    fn finish(&mut self, rng: &mut Rng) -> Result<(), TestCaseError> {
        let t = self.model.clock + 0.75;
        self.real.advance_to(t);
        self.model.advance_to(t);
        self.compare(&SimEvent::RateChanged { at: t, rate: 0.0 }, rng, true)
    }
}

/// A scheduler with few slots and a burst far deeper than them, scripted
/// faults (cost noise, rate dips, aborts with rollback and retry), later
/// arrivals, and random blocks, resumes and aborts between steps. Calls
/// `each` with every batch of events the feed yields.
fn drive_system(
    rng: &mut Rng,
    mut each: impl FnMut(&System, &[SimEvent], &mut Rng) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    let slots = 2 + rng.below(7) as usize;
    let mut sys = System::new(SystemConfig {
        rate: 100.0,
        step_mode: StepMode::EventDriven,
        admission: AdmissionPolicy::MaxConcurrent(slots),
        ..SystemConfig::default()
    });
    sys.enable_event_feed();
    let fault = |at, kind| FaultEvent { at, kind };
    let mut faults = Vec::new();
    for _ in 0..6 {
        let at = rng.range_f64(0.5, 60.0);
        faults.push(fault(
            at,
            match rng.below(3) {
                0 => FaultKind::CostNoise {
                    factor: rng.range_f64(0.4, 2.5),
                },
                1 => FaultKind::RateDip {
                    factor: rng.range_f64(0.2, 0.9),
                    duration: rng.range_f64(0.5, 6.0),
                },
                _ => FaultKind::AbortRetry {
                    overhead: rng.below(40),
                },
            },
        ));
    }
    sys.install_faults(FaultPlan::new(
        faults,
        rng.next_u64(),
        RetryPolicy::default(),
    ));
    let weights = [1.0, 1.0, 2.0, 0.5];
    let burst = 40 + rng.below(260);
    for _ in 0..burst {
        let w = weights[rng.below(4) as usize];
        sys.submit("burst", Box::new(SyntheticJob::new(5 + rng.below(60))), w);
    }
    let mut at = 0.0;
    for _ in 0..rng.below(40) {
        at += rng.exp(0.8);
        let w = weights[rng.below(4) as usize];
        sys.schedule(
            at,
            "late",
            Box::new(SyntheticJob::new(5 + rng.below(90))),
            w,
        );
    }
    let mut events = Vec::new();
    let mut blocked: Vec<u64> = Vec::new();
    let mut steps = 0u32;
    loop {
        events.clear();
        sys.drain_events(&mut events);
        each(&sys, &events, rng)?;
        if !sys.has_work() {
            return Ok(());
        }
        steps += 1;
        prop_assert!(steps < 100_000, "scenario does not terminate");
        // A fault may have aborted a blocked query in the meantime.
        let running = sys.running_ids();
        blocked.retain(|id| running.contains(id));
        match rng.below(12) {
            0 if blocked.len() + 1 < running.len() => {
                let id = running[rng.below(running.len() as u64) as usize];
                if !blocked.contains(&id) {
                    sys.block(id).expect("block a running query");
                    blocked.push(id);
                }
            }
            1 | 2 if !blocked.is_empty() => {
                let id = blocked.swap_remove(rng.below(blocked.len() as u64) as usize);
                sys.resume(id).expect("resume a blocked query");
            }
            3 => {
                let pool = if rng.below(2) == 0 {
                    sys.queued_ids()
                } else {
                    sys.running_ids()
                };
                if !pool.is_empty() {
                    let id = pool[rng.below(pool.len() as u64) as usize];
                    sys.abort(id).expect("abort a tracked query");
                    blocked.retain(|&b| b != id);
                }
            }
            _ => {}
        }
        sys.step().expect("step");
    }
}

const BAD: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0];

/// One forged event. `now` is the mirrors' clock; `known` ids any event has
/// named so far; `retired` ids the model retired at a predicted boundary.
fn forge(rng: &mut Rng, now: f64, known: &[u64], retired: &[u64]) -> SimEvent {
    let pick = |rng: &mut Rng, pool: &[u64]| {
        if pool.is_empty() {
            7_000 + rng.below(4)
        } else {
            pool[rng.below(pool.len() as u64) as usize]
        }
    };
    let id = match rng.below(5) {
        0 => 9_000 + rng.below(3),
        1 => pick(rng, retired),
        _ => pick(rng, known),
    };
    let at = match rng.below(10) {
        0 => now - rng.range_f64(0.01, 2.0),
        1 => BAD[rng.below(3) as usize],
        2 => now + rng.range_f64(0.0, 0.3),
        _ => now,
    };
    let payload = |rng: &mut Rng, lo: f64, hi: f64| {
        if rng.below(8) == 0 {
            BAD[rng.below(4) as usize]
        } else {
            rng.range_f64(lo, hi)
        }
    };
    match rng.below(8) {
        0 => SimEvent::Admitted {
            at,
            id,
            cost: payload(rng, 0.0, 40.0),
            weight: payload(rng, 0.1, 3.0),
        },
        1 | 2 => SimEvent::Enqueued {
            at,
            id,
            cost: payload(rng, 0.0, 40.0),
            weight: payload(rng, 0.1, 3.0),
        },
        3 => SimEvent::Departed {
            at,
            id,
            kind: [
                FinishKind::Completed,
                FinishKind::Aborted,
                FinishKind::Failed,
                FinishKind::Rejected,
            ][rng.below(4) as usize],
        },
        4 => SimEvent::Blocked { at, id },
        5 => SimEvent::Resumed { at, id },
        6 => SimEvent::CostRefined {
            at,
            id,
            remaining: payload(rng, 0.0, 60.0),
        },
        _ => SimEvent::RateChanged {
            at,
            rate: payload(rng, 5.0, 200.0),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The real feed of a scheduler whose queue runs hundreds deep.
    #[test]
    fn well_formed_feed_agrees(seed in any::<u64>()) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut pair: Option<Pair> = None;
        let mut deepest = 0;
        drive_system(&mut rng, |sys, events, rng| {
            let pair = pair.get_or_insert_with(|| Pair::for_system(sys));
            for &ev in events {
                pair.apply(ev, rng)?;
                // An honest feed is never quarantined — blocking or resuming
                // a query the model retired at a predicted boundary while
                // the scheduler still ran its last sub-unit included.
                prop_assert_eq!(
                    pair.real.quarantine_stats(),
                    QuarantineStats::default(),
                    "honest event quarantined: {:?}",
                    ev
                );
            }
            deepest = deepest.max(pair.real.queued());
            prop_assert_eq!(pair.real.queued(), sys.queued_ids().len());
            Ok(())
        })?;
        let mut pair = pair.expect("at least one batch");
        prop_assert!(deepest >= 30, "queue only {} deep", deepest);
        prop_assert_eq!((pair.real.live(), pair.real.queued()), (0, 0));
        pair.finish(&mut rng)?;
    }

    /// The same feed with forged events spliced in — replays of earlier
    /// events, and inventions about known, retired and phantom ids — and a
    /// resync of both mirrors now and then.
    #[test]
    fn spliced_hostile_feed_agrees(seed in any::<u64>()) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut pair: Option<Pair> = None;
        let mut seen: Vec<SimEvent> = Vec::new();
        drive_system(&mut rng, |sys, events, rng| {
            let pair = pair.get_or_insert_with(|| Pair::for_system(sys));
            for &ev in events {
                pair.apply(ev, rng)?;
                seen.push(ev);
                match rng.below(6) {
                    0 => {
                        let replay = seen[rng.below(seen.len() as u64) as usize];
                        pair.apply(replay, rng)?;
                    }
                    1 | 2 => {
                        let forged = forge(rng, pair.model.clock, &pair.ids, &pair.retired);
                        pair.apply(forged, rng)?;
                    }
                    _ => {}
                }
            }
            if rng.below(40) == 0 {
                pair.real.resync(sys);
                pair.model.resync(sys);
                let mark = SimEvent::RateChanged { at: sys.now(), rate: 0.0 };
                pair.compare(&mark, rng, true)?;
                prop_assert_eq!(pair.real.queued(), sys.queued_ids().len());
            }
            Ok(())
        })?;
        let mut pair = pair.expect("at least one batch");
        prop_assert!(pair.real.quarantine_stats().total() > 0);
        pair.finish(&mut rng)?;
    }

    /// Nothing but forged events over a dozen ids, so that every table
    /// collides with every other: an id the model retired is enqueued
    /// again, a queued one is refined, blocked, departed twice.
    #[test]
    fn random_hostile_stream_agrees(seed in any::<u64>()) {
        let mut rng = Rng::seed_from_u64(seed);
        let sys = System::new(SystemConfig { rate: 20.0, ..SystemConfig::default() });
        let mut pair = Pair::for_system(&sys);
        let known: Vec<u64> = (1..=12).collect();
        for _ in 0..1_500 {
            let ev = forge(&mut rng, pair.model.clock, &known, &pair.retired);
            pair.apply(ev, &mut rng)?;
        }
        let q = pair.real.quarantine_stats();
        prop_assert!(
            q.duplicate > 0 && q.unknown_id > 0 && q.out_of_order > 0 && q.non_finite > 0,
            "a reason never fired: {:?}", q
        );
        prop_assert!(!pair.retired.is_empty(), "the model never retired an id");
        pair.finish(&mut rng)?;
    }
}
