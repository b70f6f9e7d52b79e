//! Property-based tests for the fault-injection subsystem: arbitrary
//! seeded fault plans must never panic the scheduler, must leave every
//! snapshot value finite and non-negative, and must keep the
//! work-conservation ledger balanced across abort → rollback → retry.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use mqpi_sim::job::SyntheticJob;
use mqpi_sim::system::{ErrorPolicy, FinishKind, StepMode, System, SystemConfig};
use mqpi_sim::{AdmissionPolicy, FaultEvent, FaultKind, FaultMix, FaultPlan, RetryPolicy};

const HORIZON: f64 = 200.0;

fn arb_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        (0.05f64..8.0).prop_map(|factor| FaultKind::CostNoise { factor }),
        ((0.05f64..1.0), (0.1f64..20.0))
            .prop_map(|(factor, duration)| FaultKind::RateDip { factor, duration }),
        (0u64..300).prop_map(|overhead| FaultKind::AbortRetry { overhead }),
        ((1u32..6), (20u64..800)).prop_map(|(queries, cost)| FaultKind::Burst { queries, cost }),
        Just(FaultKind::PageFault),
    ]
}

fn arb_events() -> impl Strategy<Value = Vec<FaultEvent>> {
    prop::collection::vec(
        ((0.0f64..HORIZON), arb_kind()).prop_map(|(at, kind)| FaultEvent { at, kind }),
        0..24,
    )
}

fn arb_admission() -> impl Strategy<Value = AdmissionPolicy> {
    prop_oneof![
        Just(AdmissionPolicy::Unlimited),
        (1usize..5).prop_map(AdmissionPolicy::MaxConcurrent),
        ((1usize..4), (0usize..4))
            .prop_map(|(slots, queue)| AdmissionPolicy::Bounded { slots, queue }),
    ]
}

fn build(costs: &[u64], admission: AdmissionPolicy) -> System {
    let mut sys = System::new(SystemConfig {
        rate: 100.0,
        quantum_units: 8.0,
        admission,
        step_mode: StepMode::Quantum,
        ..Default::default()
    });
    for (i, c) in costs.iter().enumerate() {
        sys.submit(format!("q{i}"), Box::new(SyntheticJob::new(*c)), 1.0);
    }
    sys
}

/// Drive the system to idle (bounded by wall-clock-ish step budget),
/// checking every snapshot along the way, and return the step count.
fn drive_and_check(sys: &mut System) -> Result<usize, TestCaseError> {
    let mut steps = 0usize;
    while sys.has_work() {
        let snap = sys.snapshot();
        prop_assert!(snap.time.is_finite() && snap.time >= 0.0);
        prop_assert!(snap.rate.is_finite() && snap.rate > 0.0);
        for r in &snap.running {
            prop_assert!(
                r.done.is_finite() && r.done >= 0.0,
                "done = {} for {}",
                r.done,
                r.id
            );
            prop_assert!(
                r.remaining.is_finite() && r.remaining >= 0.0,
                "remaining = {} for {}",
                r.remaining,
                r.id
            );
        }
        for q in &snap.queued {
            prop_assert!(q.est_cost.is_finite() && q.est_cost >= 0.0);
        }
        sys.step().map_err(|e| {
            TestCaseError::fail(format!("step returned an error under Isolate: {e}"))
        })?;
        steps += 1;
        prop_assert!(steps < 2_000_000, "runaway simulation");
    }
    Ok(steps)
}

/// The conservation ledger: everything executed is attributed to a live
/// session or a finished record (including rollback work).
fn assert_conservation(sys: &System) -> Result<(), TestCaseError> {
    let executed = sys.executed_units();
    let finished: f64 = sys
        .finished()
        .iter()
        .map(|f| f.units_done + f.rollback_units)
        .sum();
    let accounted = sys.live_units_done() + finished;
    prop_assert!(
        (executed - accounted).abs() <= 1e-6 * executed.max(1.0),
        "executed {executed} but accounted {accounted}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Generated fault plans of every kind, against every admission
    /// policy: no panics, no errors escaping Isolate, snapshots stay
    /// finite, the ledger balances, and leave-records are well-formed.
    #[test]
    fn arbitrary_generated_plans_degrade_gracefully(
        seed in any::<u64>(),
        per_kind in 0usize..5,
        costs in prop::collection::vec(100u64..3000, 2..8),
        admission in arb_admission(),
    ) {
        let mut sys = build(&costs, admission);
        sys.set_error_policy(ErrorPolicy::Isolate);
        sys.install_faults(FaultPlan::generate(seed, HORIZON, &FaultMix::even(per_kind)));
        drive_and_check(&mut sys)?;
        assert_conservation(&sys)?;
        for f in sys.finished() {
            prop_assert!(f.units_done >= 0.0 && f.rollback_units >= 0.0);
            prop_assert!(f.finished.is_finite() && f.finished >= f.arrived);
            if f.kind == FinishKind::Rejected {
                prop_assert!(f.started.is_none() && f.units_done == 0.0);
            }
        }
        if let Some(stats) = sys.fault_stats() {
            prop_assert!(stats.injected + stats.skipped <= 5 * per_kind as u64);
        }
    }

    /// Hand-rolled (not generator-sampled) event lists stretch parameters
    /// beyond FaultMix's ranges; the system must still never panic or
    /// report a non-finite value.
    #[test]
    fn arbitrary_event_lists_never_panic(
        events in arb_events(),
        seed in any::<u64>(),
        costs in prop::collection::vec(100u64..2000, 1..6),
    ) {
        let mut sys = build(&costs, AdmissionPolicy::MaxConcurrent(3));
        sys.set_error_policy(ErrorPolicy::Isolate);
        sys.install_faults(FaultPlan::new(events, seed, RetryPolicy::default()));
        drive_and_check(&mut sys)?;
        assert_conservation(&sys)?;
    }

    /// Work conservation across the full abort_with_overhead → rollback →
    /// retry path, driven purely by AbortRetry faults.
    #[test]
    fn conservation_across_abort_rollback_retry(
        seed in any::<u64>(),
        overheads in prop::collection::vec(0u64..400, 1..8),
        costs in prop::collection::vec(500u64..3000, 2..6),
    ) {
        let events: Vec<FaultEvent> = overheads
            .iter()
            .enumerate()
            .map(|(i, &overhead)| FaultEvent {
                at: 2.0 + 3.0 * i as f64,
                kind: FaultKind::AbortRetry { overhead },
            })
            .collect();
        let n_faults = events.len() as u64;
        let mut sys = build(&costs, AdmissionPolicy::Unlimited);
        sys.set_error_policy(ErrorPolicy::Isolate);
        sys.install_faults(FaultPlan::new(events, seed, RetryPolicy::default()));
        drive_and_check(&mut sys)?;
        assert_conservation(&sys)?;

        let stats = sys.fault_stats().expect("plan installed");
        prop_assert_eq!(stats.aborts + stats.skipped, n_faults);
        // Every applied abort leaves an Aborted record, and every retry
        // chain either completed or exhausted its budget.
        let aborted = sys
            .finished()
            .iter()
            .filter(|f| f.kind == FinishKind::Aborted)
            .count() as u64;
        prop_assert_eq!(aborted, stats.aborts);
        prop_assert!(stats.retries_scheduled <= stats.aborts * u64::from(RetryPolicy::default().max_attempts));
        // All original work eventually completes unless a chain ran dry.
        if stats.retries_exhausted == 0 && stats.aborts > 0 {
            let completed = sys
                .finished()
                .iter()
                .filter(|f| f.kind == FinishKind::Completed)
                .count();
            prop_assert_eq!(completed, costs.len());
        }
    }

    /// The same plan replayed twice is bit-identical — injector RNG and
    /// scheduler are fully deterministic.
    #[test]
    fn fault_runs_are_reproducible(
        seed in any::<u64>(),
        costs in prop::collection::vec(100u64..2000, 2..6),
    ) {
        let run = || {
            let mut sys = build(&costs, AdmissionPolicy::MaxConcurrent(2));
            sys.set_error_policy(ErrorPolicy::Isolate);
            sys.install_faults(FaultPlan::generate(seed, HORIZON, &FaultMix::even(3)));
            sys.run_until_idle(1e9).unwrap();
            (
                format!("{:?}", sys.finished()),
                format!("{:?}", sys.fault_log()),
                format!("{:?}", sys.fault_stats()),
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// Nothing drops a query without a finished record, so every id below
    /// the cursor is running, queued, scheduled or finished. After a run
    /// with faults (bursts, aborts with retries, page faults, dips), aborts
    /// by the driver, bounded shedding and future arrivals, the finished
    /// ids are exactly `1..=n`.
    #[test]
    fn every_id_below_the_cursor_is_accounted_for(
        seed in any::<u64>(),
        events in arb_events(),
        costs in prop::collection::vec(100u64..3000, 2..8),
        later in prop::collection::vec((0.0f64..HORIZON, 50u64..1500), 0..8),
        admission in arb_admission(),
        event_mode in any::<bool>(),
        max_attempts in 0u32..4,
        aborts in prop::collection::vec(any::<usize>(), 0..6),
    ) {
        let mut sys = System::new(SystemConfig {
            rate: 100.0,
            quantum_units: 8.0,
            admission,
            step_mode: if event_mode { StepMode::EventDriven } else { StepMode::Quantum },
            ..Default::default()
        });
        sys.set_error_policy(ErrorPolicy::Isolate);
        for (i, c) in costs.iter().enumerate() {
            sys.submit(format!("q{i}"), Box::new(SyntheticJob::new(*c)), 1.0);
        }
        for &(at, c) in &later {
            sys.schedule(at, "later", Box::new(SyntheticJob::new(c)), 1.0);
        }
        let retry = RetryPolicy { max_attempts, ..RetryPolicy::default() };
        sys.install_faults(FaultPlan::new(events, seed, retry));
        let mut aborts = aborts.into_iter();
        let mut steps = 0u64;
        while sys.has_work() {
            sys.step().unwrap();
            steps += 1;
            prop_assert!(steps < 2_000_000, "runaway simulation");
            if steps.is_multiple_of(11) {
                let mut ids = sys.running_ids();
                ids.extend(sys.queued_ids());
                if let (false, Some(pick)) = (ids.is_empty(), aborts.next()) {
                    sys.abort(ids[pick % ids.len()]).unwrap();
                }
            }
        }
        let mut ids: Vec<u64> = sys.finished().iter().map(|f| f.id).collect();
        ids.sort_unstable();
        prop_assert!(ids.iter().copied().eq(1..=ids.len() as u64), "finished ids {:?}", ids);
    }
}
