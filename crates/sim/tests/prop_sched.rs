//! Property-based tests for the scheduler: the discrete quantum scheduler
//! must track the GPS fluid ideal, conserve work, and honor admission
//! limits.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use mqpi_engine::error::Result;
use mqpi_sim::job::SyntheticJob;
use mqpi_sim::system::{StepMode, System, SystemConfig};
use mqpi_sim::{
    AdmissionPolicy, FaultEvent, FaultKind, FaultPlan, Job, JobProgress, RetryPolicy, Rng, SimEvent,
};

fn arb_costs(max_n: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(50u64..5000, 1..max_n)
}

/// GPS finish times for weighted queries (reference implementation,
/// independent of mqpi-core).
fn gps_times(jobs: &[(u64, f64)], rate: f64) -> Vec<f64> {
    let n = jobs.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        (jobs[a].0 as f64 / jobs[a].1).total_cmp(&(jobs[b].0 as f64 / jobs[b].1))
    });
    let mut out = vec![0.0; n];
    let mut t = 0.0;
    let mut d_prev = 0.0;
    let mut suffix_w: f64 = jobs.iter().map(|(_, w)| *w).sum();
    for &k in &order {
        let d = jobs[k].0 as f64 / jobs[k].1;
        t += (d - d_prev) * suffix_w / rate;
        d_prev = d;
        out[k] = t;
        suffix_w -= jobs[k].1;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scheduler completion times converge to GPS within quantum tolerance.
    #[test]
    fn scheduler_tracks_gps(costs in arb_costs(8), wsel in prop::collection::vec(0usize..3, 8)) {
        let weights = [1.0, 2.0, 4.0];
        let jobs: Vec<(u64, f64)> = costs
            .iter()
            .enumerate()
            .map(|(i, c)| (*c, weights[wsel[i % wsel.len()]]))
            .collect();
        let rate = 100.0;
        let mut sys = System::new(SystemConfig {
            rate,
            quantum_units: 2.0,
            ..Default::default()
        });
        let ids: Vec<u64> = jobs
            .iter()
            .map(|(c, w)| sys.submit("q", Box::new(SyntheticJob::new(*c)), *w))
            .collect();
        sys.run_until_idle(1e9).unwrap();
        let expected = gps_times(&jobs, rate);
        // Tolerance: a few quanta of slack per queue position.
        let tol = 2.0 * (jobs.len() as f64) * 2.0 / rate + 0.5;
        for (id, exp) in ids.iter().zip(&expected) {
            let got = sys.finished_record(*id).unwrap().finished;
            prop_assert!(
                (got - exp).abs() < tol,
                "finish {} vs GPS {} (tol {})",
                got, exp, tol
            );
        }
    }

    /// Work conservation: total units done equals total job cost, and the
    /// makespan equals total work / rate.
    #[test]
    fn work_is_conserved(costs in arb_costs(10)) {
        let rate = 50.0;
        let mut sys = System::new(SystemConfig {
            rate,
            quantum_units: 4.0,
            ..Default::default()
        });
        for c in &costs {
            sys.submit("q", Box::new(SyntheticJob::new(*c)), 1.0);
        }
        sys.run_until_idle(1e9).unwrap();
        let total_done: f64 = sys.finished().iter().map(|f| f.units_done).sum();
        let total_cost: f64 = costs.iter().map(|c| *c as f64).sum();
        prop_assert!((total_done - total_cost).abs() < 1e-9);
        let makespan = sys
            .finished()
            .iter()
            .map(|f| f.finished)
            .fold(0.0, f64::max);
        prop_assert!((makespan - total_cost / rate).abs() < 1.0);
    }

    /// The admission limit is never violated, and queries start in FIFO
    /// order.
    #[test]
    fn admission_limit_holds(costs in arb_costs(12), slots in 1usize..4) {
        let mut sys = System::new(SystemConfig {
            rate: 100.0,
            quantum_units: 4.0,
            admission: AdmissionPolicy::MaxConcurrent(slots),
            ..Default::default()
        });
        let ids: Vec<u64> = costs
            .iter()
            .map(|c| sys.submit("q", Box::new(SyntheticJob::new(*c)), 1.0))
            .collect();
        while sys.has_work() {
            prop_assert!(sys.running_ids().len() <= slots);
            sys.step().unwrap();
        }
        // FIFO starts.
        let mut starts: Vec<(u64, f64)> = ids
            .iter()
            .map(|id| (*id, sys.finished_record(*id).unwrap().started.unwrap()))
            .collect();
        starts.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let started_order: Vec<u64> = starts.iter().map(|(id, _)| *id).collect();
        prop_assert_eq!(started_order, ids);
    }

    /// The event-driven fast path reproduces quantum-mode finish times to
    /// within the quantum discretization slack, across random costs,
    /// weights, admission limits, and staggered arrivals. The event path is
    /// exact GPS; quantum mode drifts by up to one quantum per completion
    /// event ahead of a query, so the slack scales with queue position.
    #[test]
    fn event_driven_matches_quantum_within_one_quantum(
        costs in arb_costs(8),
        wsel in prop::collection::vec(0usize..3, 8),
        slots in 0usize..4,
        stagger in 0.0f64..10.0,
    ) {
        let weights = [1.0, 2.0, 4.0];
        let rate = 100.0;
        let quantum = 2.0;
        let admission = if slots == 0 {
            AdmissionPolicy::Unlimited
        } else {
            AdmissionPolicy::MaxConcurrent(slots)
        };
        let run = |mode: StepMode| {
            let mut sys = System::new(SystemConfig {
                rate,
                quantum_units: quantum,
                admission,
                step_mode: mode,
                ..Default::default()
            });
            let ids: Vec<u64> = costs
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let w = weights[wsel[i % wsel.len()]];
                    if i % 2 == 0 {
                        sys.submit("q", Box::new(SyntheticJob::new(*c)), w)
                    } else {
                        sys.schedule(stagger * i as f64, "q", Box::new(SyntheticJob::new(*c)), w)
                    }
                })
                .collect();
            sys.run_until_idle(1e9).unwrap();
            ids.iter()
                .map(|id| sys.finished_record(*id).unwrap().finished)
                .collect::<Vec<f64>>()
        };
        let q_times = run(StepMode::Quantum);
        let e_times = run(StepMode::EventDriven);
        // One quantum of work at full rate per completion event ahead of a
        // query, mirroring the scheduler_tracks_gps tolerance.
        let tol = (costs.len() as f64 + 1.0) * quantum / rate + 1e-6;
        for (i, (q, e)) in q_times.iter().zip(&e_times).enumerate() {
            prop_assert!(
                (q - e).abs() < tol,
                "query {}: quantum {} vs event {} (tol {})",
                i, q, e, tol
            );
        }
    }

    /// Blocking a query freezes its progress; aborting removes it.
    #[test]
    fn block_freezes_progress(costs in arb_costs(6), horizon in 1.0f64..20.0) {
        let mut sys = System::new(SystemConfig {
            rate: 100.0,
            quantum_units: 4.0,
            ..Default::default()
        });
        let ids: Vec<u64> = costs
            .iter()
            .map(|c| sys.submit("q", Box::new(SyntheticJob::new(*c + 10_000)), 1.0))
            .collect();
        sys.block(ids[0]).unwrap();
        sys.run_until(horizon).unwrap();
        let snap = sys.snapshot();
        let blocked = snap.running.iter().find(|q| q.id == ids[0]).unwrap();
        prop_assert_eq!(blocked.done, 0.0);
        prop_assert!(blocked.blocked);
        // Everyone else made progress.
        for q in snap.running.iter().filter(|q| q.id != ids[0]) {
            prop_assert!(q.done > 0.0);
        }
    }
}

// ---------------------------------------------------------------------------
// Two routes, one workload: the tag path against the fused loop.
// ---------------------------------------------------------------------------

/// A `SyntheticJob` the scheduler cannot see through: without
/// `as_synthetic` it is held as an opaque job, so a set holding one runs
/// the fused loop, but it still answers `exact_remaining`, so that loop
/// still jumps to each finish.
struct Wrapped(SyntheticJob);

impl Job for Wrapped {
    fn run(&mut self, budget: u64) -> Result<u64> {
        self.0.run(budget)
    }
    fn finished(&self) -> bool {
        self.0.finished()
    }
    fn progress(&self) -> JobProgress {
        self.0.progress()
    }
    fn exact_remaining(&self) -> Option<f64> {
        self.0.exact_remaining()
    }
}

/// One route through a workload: the system, every event it emitted as
/// `(tag, id, at)`, and the steps taken. On the tag path it also keeps a
/// reference EMA per running session, stepped by hand.
struct Route {
    sys: System,
    events: Vec<(u8, u64, f64)>,
    steps: u64,
    /// Tag path only: id → reference monitor.
    reference: Option<HashMap<u64, Option<f64>>>,
    /// The ids this route's driver has blocked.
    blocked: HashSet<u64>,
    /// id → admission number: running order, which finishers leave in.
    admitted: HashMap<u64, usize>,
    rate: f64,
    worst_speed: f64,
}

/// The scheduler's speed-monitor time constant.
const TAU: f64 = 10.0;

impl Route {
    fn new(rate: f64, slots: usize, dips: &[FaultEvent], tagged: bool) -> Self {
        let mut sys = System::new(SystemConfig {
            rate,
            admission: AdmissionPolicy::MaxConcurrent(slots),
            step_mode: StepMode::EventDriven,
            ..Default::default()
        });
        sys.enable_event_feed();
        sys.install_faults(FaultPlan::new(dips.to_vec(), 7, RetryPolicy::none()));
        Route {
            sys,
            events: Vec::new(),
            steps: 0,
            reference: tagged.then(HashMap::new),
            blocked: HashSet::new(),
            admitted: HashMap::new(),
            rate,
            worst_speed: 0.0,
        }
    }

    /// One step clipped at `limit`, logged, with the reference monitors
    /// stepped over it: every session that took part (running before the
    /// step or admitted at its start) samples `rate / active`, or 0 when
    /// blocked, by the step's smoothing factor.
    fn step(&mut self, limit: f64) {
        let before = self.sys.now();
        let mut taking_part = self.sys.running_ids();
        let finished = self.sys.step_until(limit).unwrap();
        self.steps += 1;
        let t_new = self.sys.now();
        let mut feed = Vec::new();
        self.sys.drain_events(&mut feed);
        // What the step did before serving (and what `block`, `abort` and
        // the admissions they made room for did between steps) is stamped
        // before `t_new`; a rate change applies from its stamp on, even one
        // at an idle wake-up that served nothing.
        let mut t_prev = before;
        for ev in &feed {
            let at = ev.at();
            let (tag, id) = match *ev {
                SimEvent::Admitted { id, .. } => (1, id),
                SimEvent::Enqueued { id, .. } => (2, id),
                SimEvent::Departed { id, .. } => (3, id),
                SimEvent::Blocked { id, .. } => (4, id),
                SimEvent::Resumed { id, .. } => (5, id),
                SimEvent::CostRefined { id, .. } => (6, id),
                SimEvent::RateChanged { .. } => (7, 0),
            };
            self.events.push((tag, id, at));
            match *ev {
                SimEvent::RateChanged { rate, .. } => self.rate = rate,
                SimEvent::Admitted { id, .. } => {
                    let n = self.admitted.len();
                    self.admitted.insert(id, n);
                }
                _ => {}
            }
            if at < t_new {
                t_prev = at;
                if let SimEvent::Admitted { id, .. } = *ev {
                    if !taking_part.contains(&id) {
                        taking_part.push(id);
                    }
                }
            }
        }
        assert!(
            finished
                .windows(2)
                .all(|w| self.admitted[&w[0]] < self.admitted[&w[1]]),
            "finishers {finished:?} out of running order"
        );
        let Some(reference) = &mut self.reference else {
            return;
        };
        for ev in &feed {
            if let SimEvent::Admitted { id, at, .. } = *ev {
                if at < t_new {
                    reference.insert(id, None);
                }
            }
        }
        let mdt = t_new - t_prev;
        if mdt > 0.0 {
            let active = taking_part
                .iter()
                .filter(|id| !self.blocked.contains(id))
                .count();
            let alpha = 1.0 - (-mdt / TAU).exp();
            for id in &taking_part {
                let inst = if self.blocked.contains(id) {
                    0.0
                } else {
                    self.rate / active as f64
                };
                let e = reference.entry(*id).or_insert(None);
                *e = Some(e.map_or(inst, |e| e + alpha * (inst - e)));
            }
        }
        for ev in &feed {
            match *ev {
                SimEvent::Admitted { id, at, .. } if at == t_new => {
                    reference.insert(id, None);
                }
                SimEvent::Departed { id, .. } => {
                    reference.remove(&id);
                }
                _ => {}
            }
        }
        for q in self.sys.snapshot().running {
            let want = reference[&q.id];
            match (q.observed_speed, want) {
                (Some(got), Some(want)) => {
                    let rel = (got - want).abs() / want.abs().max(f64::MIN_POSITIVE);
                    self.worst_speed = self.worst_speed.max(rel);
                }
                (None, None) => {}
                (got, want) => panic!("query {}: monitor {got:?}, reference {want:?}", q.id),
            }
        }
    }

    fn run_until(&mut self, t: f64) {
        while self.sys.now() < t && self.sys.has_work() {
            self.step(t);
            assert!(
                self.steps < 1_000_000,
                "the scheduler stopped making progress"
            );
        }
    }
}

/// Compare two routes' event logs: the same events, each within `tol` of
/// its twin's time, in the same order except inside near-ties, where two
/// events at the same position may differ only if their times are within
/// `tol` of each other. Returns how many positions differ.
fn compare_events(
    a: &[(u8, u64, f64)],
    b: &[(u8, u64, f64)],
    tol: impl Fn(f64) -> f64,
) -> std::result::Result<usize, String> {
    if a.len() != b.len() {
        return Err(format!("{} events against {}", a.len(), b.len()));
    }
    let keyed = |log: &[(u8, u64, f64)]| {
        let mut seen: HashMap<(u8, u64), u32> = HashMap::new();
        log.iter()
            .map(|&(tag, id, at)| {
                let n = seen.entry((tag, id)).or_insert(0);
                *n += 1;
                ((tag, id, *n), at)
            })
            .collect::<Vec<_>>()
    };
    let (ka, kb) = (keyed(a), keyed(b));
    let at_b: HashMap<_, _> = kb.iter().copied().collect();
    let mut moved = 0;
    for (i, &(key, at)) in ka.iter().enumerate() {
        let Some(&twin) = at_b.get(&key) else {
            return Err(format!("event {key:?} only on the tag path"));
        };
        if (at - twin).abs() > tol(at) {
            return Err(format!("event {key:?} at {at} against {twin}"));
        }
        if key != kb[i].0 {
            moved += 1;
            if (at - kb[i].1).abs() > tol(at) {
                return Err(format!(
                    "position {i}: {key:?} at {at} against {:?} at {}: not a near-tie",
                    kb[i].0, kb[i].1
                ));
            }
        }
    }
    Ok(moved)
}

/// Run one unit-weight workload — Poisson arrivals, a same-instant burst,
/// rate dips, and blocks, resumes, aborts and aborts with rollback at
/// random instants — through the tag path (synthetic jobs) and through the
/// fused loop (the same jobs, `Wrapped`).
fn two_routes(
    seed: u64,
    rate: f64,
    slots: usize,
    n: usize,
) -> std::result::Result<(), TestCaseError> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut jobs = Vec::new();
    let mut at = 0.0;
    for i in 0..n {
        // 0.9 of capacity: mean cost 75.5 units.
        at += rng.exp(0.012 * rate);
        jobs.push((at, 1 + rng.below(150)));
        if i == n / 2 {
            // Three costs only: ties, exact (admitted together) and near
            // (admitted one nudge step apart), which the two routes may
            // round into different steps.
            for _ in 0..n / 2 {
                jobs.push((at, 40 * (1 + rng.below(3))));
            }
        }
    }
    let horizon = at;
    let dips: Vec<FaultEvent> = (0..3)
        .map(|_| FaultEvent {
            at: rng.range_f64(0.0, horizon),
            kind: FaultKind::RateDip {
                factor: rng.range_f64(0.2, 0.9),
                duration: rng.range_f64(0.5, 6.0) * 100.0 / rate,
            },
        })
        .collect();
    let mut routes = [
        Route::new(rate, slots, &dips, true),
        Route::new(rate, slots, &dips, false),
    ];
    for (k, route) in routes.iter_mut().enumerate() {
        for &(at, cost) in &jobs {
            let job: Box<dyn Job> = if k == 0 {
                Box::new(SyntheticJob::new(cost))
            } else {
                Box::new(Wrapped(SyntheticJob::new(cost)))
            };
            route.sys.schedule(at, "q", job, 1.0);
        }
    }
    let mut t = 0.0;
    while routes.iter().any(|r| r.sys.has_work()) {
        t += rng.exp(0.008 * rate);
        for route in &mut routes {
            route.run_until(t);
        }
        let both: Vec<u64> = {
            let other = routes[1].sys.running_ids();
            routes[0]
                .sys
                .running_ids()
                .into_iter()
                .filter(|id| other.contains(id))
                .collect()
        };
        if both.is_empty() {
            continue;
        }
        let id = both[rng.below(both.len() as u64) as usize];
        let op = rng.below(6);
        let overhead = 1 + rng.below(40);
        for route in &mut routes {
            let sys = &mut route.sys;
            match op {
                0 | 1 if !route.blocked.contains(&id) => {
                    sys.block(id).unwrap();
                    route.blocked.insert(id);
                }
                0 | 1 => {
                    sys.resume(id).unwrap();
                    route.blocked.remove(&id);
                }
                2 => {
                    sys.abort(id).unwrap();
                    route.blocked.remove(&id);
                }
                // Fails on a query already rolling back: a no-op.
                3 if sys.abort_with_overhead(id, overhead).is_ok() => {
                    route.blocked.remove(&id);
                }
                _ => {}
            }
        }
        if let Some(reference) = &mut routes[0].reference {
            if op == 2 {
                reference.remove(&id);
            }
        }
    }
    let [tagged, fused] = &routes;
    let steps = tagged.steps.max(fused.steps);
    // The chain tolerance of `pi_vs_scheduler.rs` under unit weights.
    let tol = |t: f64| 2.0 * slots as f64 * (1e-9 * t.abs() + steps as f64 * 1e-12) + 1e-9;
    let moved = compare_events(&tagged.events, &fused.events, tol).map_err(TestCaseError::fail)?;
    // A near-tie moves a handful of events: the finisher, the admission it
    // makes room for, and their counterparts.
    prop_assert!(
        moved <= 8 + tagged.events.len() / 10,
        "{moved} of {} events out of place",
        tagged.events.len()
    );
    prop_assert_eq!(
        tagged.sys.executed_units().to_bits(),
        fused.sys.executed_units().to_bits(),
        "executed units"
    );
    prop_assert!(
        tagged.worst_speed <= 1e-12,
        "a tag-path monitor is {:e} off its reference",
        tagged.worst_speed
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tag path and the fused loop agree on events, finish times and
    /// executed units, and the tag path's monitors are the EMA of their
    /// fluid rate.
    #[test]
    fn tag_path_matches_the_fused_loop(seed in any::<u64>(), slots in 1usize..13) {
        two_routes(seed, 100.0, slots, 30 + (seed % 60) as usize)?;
    }
}

/// The two routes at `sim_churn`'s rate and a 64-slot house, whose finish
/// cascades make near-ties inside the nudge common.
#[test]
fn tag_path_matches_the_fused_loop_at_a_full_house() {
    for seed in 0..4 {
        two_routes(seed, 10_000.0, 64, 1_500).unwrap();
    }
}

/// The event comparison itself: a swap inside a near-tie is counted, one
/// across a gap wider than the tolerance is an error, and a time off by
/// more than the tolerance is one too.
#[test]
fn near_ties_are_counted_and_bounded() {
    let tol = |_: f64| 1e-9;
    let a = [(1, 1, 0.0), (3, 1, 2.0), (3, 2, 2.0 + 1e-12), (1, 3, 2.0)];
    let b = [(1, 1, 0.0), (3, 2, 2.0), (3, 1, 2.0), (1, 3, 2.0)];
    assert_eq!(compare_events(&a, &b, tol), Ok(2));
    let far = [(1, 1, 0.0), (3, 2, 2.0), (1, 3, 2.0), (3, 1, 2.0)];
    assert!(compare_events(&a, &far, tol).is_ok());
    let gap = [(3, 1, 2.0), (1, 1, 0.0), (3, 2, 2.0), (1, 3, 2.0)];
    assert!(compare_events(&a, &gap, tol).is_err());
    let late = [(1, 1, 0.0), (3, 1, 2.0 + 1e-6), (3, 2, 2.0), (1, 3, 2.0)];
    assert!(compare_events(&a, &late, tol).is_err());
}
