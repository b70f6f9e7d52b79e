//! Property-based crash-safety: snapshotting a running system through the
//! checkpoint codec and restoring it — at *every k-th event boundary* —
//! must be invisible. The restored run's estimate trail (every value both
//! PIs ever produce, compared as IEEE-754 bit patterns) and its finish
//! order must equal the uninterrupted run's exactly, whatever the
//! workload, admission limit, fault plan, or checkpoint cadence.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use mqpi_core::{MultiQueryPi, SingleQueryPi, Visibility};
use mqpi_sim::job::SyntheticJob;
use mqpi_sim::system::{ErrorPolicy, StepMode, System, SystemConfig};
use mqpi_sim::{AdmissionPolicy, FaultMix, FaultPlan};

fn build(seed: u64, costs: &[u64], slots: usize, per_kind: usize) -> System {
    let mut sys = System::new(SystemConfig {
        rate: 100.0,
        quantum_units: 8.0,
        admission: AdmissionPolicy::MaxConcurrent(slots),
        step_mode: StepMode::Quantum,
        ..Default::default()
    });
    for (i, c) in costs.iter().enumerate() {
        let weight = 1.0 + 0.5 * (i % 3) as f64;
        sys.submit(format!("q{i}"), Box::new(SyntheticJob::new(*c)), weight);
    }
    sys.set_error_policy(ErrorPolicy::Isolate);
    if per_kind > 0 {
        sys.install_faults(FaultPlan::generate(seed, 120.0, &FaultMix::even(per_kind)));
    }
    sys
}

/// Everything the run produced, bit-exact: the (time, query, estimate)
/// trail of both PIs plus the final finish order with outcomes and times.
type Trail = (Vec<(u64, u64, u64)>, Vec<(u64, String, u64)>);

fn drive(
    mut sys: System,
    slots: usize,
    restore_every: Option<usize>,
) -> Result<Trail, TestCaseError> {
    let single = SingleQueryPi::new();
    let multi = MultiQueryPi::new(Visibility::with_queue(Some(slots)));
    let fail = |what: &str, e: &dyn std::fmt::Display| TestCaseError::fail(format!("{what}: {e}"));
    let mut est = Vec::new();
    let mut steps = 0usize;
    while sys.has_work() {
        if let Some(k) = restore_every {
            if steps.is_multiple_of(k) {
                let bytes = sys.checkpoint().map_err(|e| fail("checkpoint", &e))?;
                sys = System::restore(&bytes).map_err(|e| fail("restore", &e))?;
            }
        }
        if steps.is_multiple_of(4) {
            let snap = sys.snapshot();
            for set in [single.estimates(&snap), multi.estimates(&snap)] {
                // EstimateSet iteration order is a hash-map artifact, not
                // part of the determinism contract — compare sorted.
                let mut pairs: Vec<(u64, u64)> =
                    set.iter().map(|(id, v)| (id, v.to_bits())).collect();
                pairs.sort_unstable();
                est.extend(
                    pairs
                        .into_iter()
                        .map(|(id, v)| (snap.time.to_bits(), id, v)),
                );
            }
        }
        sys.step().map_err(|e| fail("step", &e))?;
        steps += 1;
        prop_assert!(steps < 1_000_000, "runaway simulation");
    }
    let finish = sys
        .finished()
        .iter()
        .map(|f| (f.id, format!("{:?}", f.kind), f.finished.to_bits()))
        .collect();
    Ok((est, finish))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn restoring_at_every_kth_boundary_is_invisible(
        seed in any::<u64>(),
        per_kind in 0usize..4,
        costs in prop::collection::vec(200u64..2500, 2..7),
        slots in 1usize..4,
        k in 1usize..6,
    ) {
        let straight = drive(build(seed, &costs, slots, per_kind), slots, None)?;
        let resumed = drive(build(seed, &costs, slots, per_kind), slots, Some(k))?;
        prop_assert_eq!(straight, resumed, "checkpoint/restore every {} steps changed the run", k);
    }
}
