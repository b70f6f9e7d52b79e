//! Property-based tests at the estimator layer: whatever an arbitrary
//! seeded fault plan does to the scheduler underneath, every value the
//! single- and multi-query PIs hand to callers is finite and non-negative
//! (the sanitizer's graceful-degradation contract).

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use mqpi_core::{MultiQueryPi, PercentDonePi, SingleQueryPi, TimeFractionPi, Visibility};
use mqpi_sim::job::SyntheticJob;
use mqpi_sim::system::{ErrorPolicy, StepMode, System, SystemConfig};
use mqpi_sim::{AdmissionPolicy, FaultMix, FaultPlan};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn estimates_stay_finite_and_non_negative_under_faults(
        seed in any::<u64>(),
        per_kind in 0usize..5,
        costs in prop::collection::vec(200u64..3000, 2..8),
        slots in 1usize..5,
    ) {
        let mut sys = System::new(SystemConfig {
            rate: 100.0,
            quantum_units: 8.0,
            admission: AdmissionPolicy::MaxConcurrent(slots),
            step_mode: StepMode::Quantum,
            ..Default::default()
        });
        for (i, c) in costs.iter().enumerate() {
            sys.submit(format!("q{i}"), Box::new(SyntheticJob::new(*c)), 1.0);
        }
        sys.set_error_policy(ErrorPolicy::Isolate);
        sys.install_faults(FaultPlan::generate(seed, 200.0, &FaultMix::even(per_kind)));

        let single = SingleQueryPi::new();
        let multi = MultiQueryPi::new(Visibility::with_queue(Some(slots)));
        let pct = PercentDonePi::new();
        let tf = TimeFractionPi::new();
        let mut steps = 0usize;
        while sys.has_work() {
            // Sample every few steps to keep the test fast while still
            // hitting snapshots right after fault events.
            if steps.is_multiple_of(4) {
                let snap = sys.snapshot();
                for set in [single.estimates(&snap), multi.estimates(&snap)] {
                    for (id, v) in set.iter() {
                        prop_assert!(
                            v.is_finite() && v >= 0.0,
                            "estimate {v} for query {id} at t={}",
                            snap.time
                        );
                    }
                }
                for r in &snap.running {
                    for f in [pct.fraction(&snap, r.id), tf.fraction(&snap, r.id)]
                        .into_iter()
                        .flatten()
                    {
                        prop_assert!(
                            (0.0..=1.0).contains(&f),
                            "fraction {f} for query {} at t={}",
                            r.id,
                            snap.time
                        );
                    }
                }
            }
            sys.step().map_err(|e| {
                TestCaseError::fail(format!("step errored under Isolate: {e}"))
            })?;
            steps += 1;
            prop_assert!(steps < 1_000_000, "runaway simulation");
        }
    }
}
