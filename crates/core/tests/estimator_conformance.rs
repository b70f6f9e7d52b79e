//! Cross-estimator conformance suite.
//!
//! Every [`Estimator`] implementation — the paper's two PIs and the three
//! ensemble families — must satisfy the same behavioural contract,
//! whatever its internal model:
//!
//! 1. **Finite outputs, always.** Whatever garbage a snapshot carries
//!    (NaN costs, zero rate, negative speeds, clocks running backwards),
//!    every emitted estimate is finite and non-negative.
//! 2. **Monotone under pure progress.** On a fault-free, arrival-free
//!    workload, a query's remaining-time estimate never *increases*
//!    (beyond a small discretization slack) between samples.
//! 3. **Deterministic across parallelism.** Replicated runs produce
//!    byte-identical estimate logs whether replicates run on one thread
//!    or four.
//! 4. **Graceful on degenerate snapshots.** Empty systems yield empty
//!    sets; a fresh lone query yields exactly `cost / rate`.
//!
//! That observation is a pure read needs no rule here: estimators never
//! record, and `observe::observe_estimates` only borrows the set a pass
//! returned, so the type guarantees it cannot change the estimates. What
//! it records is pinned by `observe.rs`'s `emits_sorted_events_and_counters`.
//!
//! The suite is lineup-driven: adding an estimator to [`lineup`] runs it
//! through every rule with no further test code.

use mqpi_core::ensemble::Estimator;
use mqpi_core::{
    DriverNodePi, FutureWorkload, MultiQueryPi, SingleQueryPi, SpeedEwmaPi, TotalWorkPi, Visibility,
};
use mqpi_sim::job::SyntheticJob;
use mqpi_sim::rng::Rng;
use mqpi_sim::system::{QueryState, QueuedState, StepMode, System, SystemConfig, SystemSnapshot};

/// Every estimator configuration under contract. Labels keep assertion
/// messages readable; boxes keep the suite generic over the trait.
fn lineup() -> Vec<(&'static str, Box<dyn Estimator>)> {
    vec![
        ("single", Box::new(SingleQueryPi::new())),
        (
            "multi/concurrent",
            Box::new(MultiQueryPi::new(Visibility::concurrent_only())),
        ),
        (
            "multi/queue",
            Box::new(MultiQueryPi::new(Visibility::with_queue(Some(3)))),
        ),
        (
            "multi/future",
            Box::new(MultiQueryPi::new(Visibility::with_future(
                Some(3),
                FutureWorkload {
                    lambda: 0.1,
                    avg_cost: 200.0,
                    avg_weight: 1.0,
                },
            ))),
        ),
        ("dne", Box::new(DriverNodePi::new())),
        ("tgn", Box::new(TotalWorkPi::new())),
        ("ewma", Box::new(SpeedEwmaPi::new(4.0))),
    ]
}

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

fn snap(time: f64, rate: f64, running: Vec<QueryState>) -> SystemSnapshot {
    SystemSnapshot {
        time,
        rate,
        running,
        queued: vec![],
    }
}

/// Snapshots engineered to trip naive estimator math: divisions by zero,
/// non-finite inputs, impossible clocks. The estimators' contract is that
/// whatever happens internally, the *sanitized* output stays clean.
fn adversarial_snapshots() -> Vec<(&'static str, SystemSnapshot)> {
    let mut zero_weight = state(1, 100.0, 0.0, None);
    zero_weight.weight = 0.0;
    let mut all_blocked = snap(5.0, 100.0, vec![state(1, 100.0, 0.0, None)]);
    all_blocked.running[0].blocked = true;
    let mut clock_backwards = state(1, 100.0, 50.0, None);
    clock_backwards.started = 1e9; // "started" far in the future
    let mut nan_state = state(1, f64::NAN, f64::NAN, Some(f64::NAN));
    nan_state.weight = f64::NAN;
    let mut queued = snap(0.0, 100.0, vec![state(1, 100.0, 0.0, None)]);
    queued.queued.push(QueuedState {
        id: 9,
        name: "w".into(),
        weight: 0.0,
        arrived: 0.0,
        est_cost: f64::INFINITY,
    });
    vec![
        ("empty", snap(0.0, 100.0, vec![])),
        (
            "zero rate",
            snap(0.0, 0.0, vec![state(1, 100.0, 0.0, None)]),
        ),
        (
            "negative rate",
            snap(0.0, -5.0, vec![state(1, 100.0, 0.0, None)]),
        ),
        ("zero weight", snap(0.0, 100.0, vec![zero_weight])),
        ("all blocked", all_blocked),
        (
            "zero observed speed",
            snap(3.0, 100.0, vec![state(1, 100.0, 10.0, Some(0.0))]),
        ),
        (
            "negative observed speed",
            snap(3.0, 100.0, vec![state(1, 100.0, 10.0, Some(-4.0))]),
        ),
        ("clock backwards", snap(2.0, 100.0, vec![clock_backwards])),
        ("nan everything", snap(1.0, 100.0, vec![nan_state])),
        (
            "infinite cost",
            snap(0.0, 100.0, vec![state(1, f64::INFINITY, 0.0, None)]),
        ),
        ("queued garbage", queued),
    ]
}

#[test]
fn outputs_are_finite_on_adversarial_snapshots() {
    for (label, snap) in adversarial_snapshots() {
        for (name, mut est) in lineup() {
            let set = est.estimates(&snap);
            for (id, v) in set.iter() {
                assert!(
                    v.is_finite() && v >= 0.0,
                    "{name} on `{label}` snapshot: id {id} got {v}"
                );
            }
        }
    }
}

/// A small fault-free system: four queries of different costs started
/// together, no arrivals, quantum scheduling. Pure progress.
fn pure_progress_system(seed: u64) -> System {
    let mut rng = Rng::seed_from_u64(seed);
    let mut sys = System::new(SystemConfig {
        rate: 100.0,
        quantum_units: 16.0,
        step_mode: StepMode::Quantum,
        ..Default::default()
    });
    for i in 0..4 {
        let cost = rng.range_f64(800.0, 4000.0) as u64;
        sys.submit(format!("q{i}"), Box::new(SyntheticJob::new(cost)), 1.0);
    }
    sys
}

#[test]
fn remaining_estimates_never_increase_under_pure_progress() {
    // Quantum discretization and EWMA warm-up allow tiny wobbles; anything
    // beyond this slack means an estimator thinks progress is *undoing*.
    const SLACK: f64 = 1.0;
    for (name, mut est) in lineup() {
        let mut sys = pure_progress_system(42);
        let mut last: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
        let mut next_sample = 0.0;
        let mut checked = 0u32;
        while sys.has_work() {
            if sys.now() >= next_sample {
                let snap = sys.snapshot();
                let set = est.estimates(&snap);
                for (id, v) in set.iter() {
                    if let Some(&prev) = last.get(&id) {
                        assert!(
                            v <= prev + SLACK,
                            "{name}: id {id} estimate rose {prev} -> {v} at t={}",
                            snap.time
                        );
                        checked += 1;
                    }
                    last.insert(id, v);
                }
                next_sample += 5.0;
            }
            sys.step().expect("drive step");
        }
        assert!(checked > 10, "{name}: monotonicity barely exercised");
    }
}

/// One replicate's estimate log, at full float precision.
fn replicate_log(seed: u64) -> String {
    let mut lineup = lineup();
    let mut sys = pure_progress_system(seed);
    let mut log = String::new();
    let mut next_sample = 0.0;
    while sys.has_work() {
        if sys.now() >= next_sample {
            let snap = sys.snapshot();
            for (name, est) in lineup.iter_mut() {
                let set = est.estimates(&snap);
                let mut pairs: Vec<(u64, f64)> = set.iter().collect();
                pairs.sort_by_key(|&(id, _)| id);
                for (id, v) in pairs {
                    log.push_str(&format!("{} t={} id={id} v={v:.17e}\n", name, snap.time));
                }
            }
            next_sample += 5.0;
        }
        sys.step().expect("drive step");
    }
    log
}

#[test]
fn estimates_are_deterministic_across_worker_counts() {
    const REPLICATES: u64 = 4;
    let serial: Vec<String> = (0..REPLICATES).map(replicate_log).collect();
    let handles: Vec<_> = (0..REPLICATES)
        .map(|r| std::thread::spawn(move || replicate_log(r)))
        .collect();
    let threaded: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(serial, threaded, "estimate logs diverged across threads");
    // And the logs are non-trivial: every estimator appears in each.
    for log in &serial {
        for (name, _) in lineup() {
            assert!(log.contains(name), "{name} missing from log");
        }
    }
}

#[test]
fn empty_snapshot_yields_empty_set() {
    let s = snap(0.0, 100.0, vec![]);
    for (name, mut est) in lineup() {
        let set = est.estimates(&s);
        assert!(
            set.is_empty(),
            "{name} invented estimates: {:?}",
            set.iter().collect::<Vec<_>>()
        );
        assert!(!set.truncated(), "{name} truncated an empty prediction");
    }
}

#[test]
fn fresh_lone_query_estimates_cost_over_rate() {
    // A just-started query alone in the system, no speed samples yet:
    // every estimator's model collapses to `t = c / C` — except the
    // future-visibility PI, which deliberately adds predicted load.
    let s = snap(0.0, 100.0, vec![state(7, 500.0, 0.0, None)]);
    for (name, mut est) in lineup() {
        let v = est.estimates(&s).get(7).expect(name);
        if name == "multi/future" {
            assert!(v >= 5.0 - 1e-9, "{name}: {v} below the no-arrivals bound");
        } else {
            assert!((v - 5.0).abs() < 1e-9, "{name}: expected 5.0, got {v}");
        }
    }
}
