//! Property test: uncertainty-band calibration.
//!
//! Over seeded chaos workloads — random costs, random fault plans mixing
//! cost noise and rate dips — the banded multi-query PI's p10/p90 bands
//! must be *calibrated*: the realized remaining time should fall inside
//! the band for roughly the nominal 80 % of samples. Exact calibration is not
//! achievable (residual windows are finite, faults are adversarial), so
//! the property asserts a generous floor rather than a tight interval;
//! what it rules out is bands that are decorative — ordered-looking but
//! uncorrelated with realized outcomes.
//!
//! Structural invariants are checked exactly, on every emitted band:
//! finite, non-negative and `p10 ≤ p50 ≤ p90`.

use proptest::prelude::*;

use mqpi_core::{BandedPi, Visibility};
use mqpi_sim::job::SyntheticJob;
use mqpi_sim::rng::Rng;
use mqpi_sim::system::{ErrorPolicy, FinishKind, StepMode, System, SystemConfig};
use mqpi_sim::{FaultMix, FaultPlan};

const HORIZON: f64 = 300.0;
const SAMPLE_INTERVAL: f64 = 5.0;

struct BandOutcome {
    /// (sample time, query id, p10, p50, p90) for every banded estimate.
    samples: Vec<(f64, u64, f64, f64, f64)>,
    covered: u32,
    scored: u32,
}

/// Drive one seeded chaos run with the banded PI and collect its
/// banded estimates plus post-hoc coverage against realized finishes.
fn run_chaos(seed: u64, faults_per_kind: usize) -> BandOutcome {
    let mut rng = Rng::seed_from_u64(seed);
    let mut sys = System::new(SystemConfig {
        rate: 100.0,
        quantum_units: 16.0,
        step_mode: StepMode::Quantum,
        ..Default::default()
    });
    for i in 0..8 {
        let cost = rng.range_f64(500.0, 4000.0) as u64;
        sys.submit(format!("q{i}"), Box::new(SyntheticJob::new(cost)), 1.0);
    }
    sys.set_error_policy(ErrorPolicy::Isolate);
    if faults_per_kind > 0 {
        sys.install_faults(FaultPlan::generate(
            seed ^ 0xBAD5_EED5_0000_CAFE,
            HORIZON,
            &FaultMix {
                cost_noise: faults_per_kind,
                rate_dips: faults_per_kind,
                ..Default::default()
            },
        ));
    }

    let mut pi = BandedPi::new(Visibility::concurrent_only());
    let mut samples = Vec::new();
    let mut next_sample = 0.0;
    let mut seen_finished = 0usize;
    loop {
        if sys.now() >= next_sample {
            // Feed realized finishes to the bands before estimating.
            let finished = sys.finished();
            for rec in &finished[seen_finished..] {
                if rec.kind == FinishKind::Completed {
                    pi.resolve(rec.id, rec.finished);
                } else {
                    pi.forget(rec.id);
                }
            }
            seen_finished = finished.len();

            let snap = sys.snapshot();
            for b in pi.tick(&snap) {
                assert!(
                    b.band.p10.is_finite() && b.band.p50.is_finite() && b.band.p90.is_finite(),
                    "non-finite band at t={}: {:?}",
                    snap.time,
                    b
                );
                assert!(
                    b.band.p10 >= 0.0 && b.band.p10 <= b.band.p50 && b.band.p50 <= b.band.p90,
                    "disordered band at t={}: {:?}",
                    snap.time,
                    b
                );
                samples.push((snap.time, b.id, b.band.p10, b.band.p50, b.band.p90));
            }
            while next_sample <= sys.now() {
                next_sample += SAMPLE_INTERVAL;
            }
        }
        if sys.now() >= HORIZON || !sys.has_work() {
            break;
        }
        sys.step().expect("drive step");
    }

    // Post-hoc coverage: of the samples whose query ran to completion,
    // how many realized remaining times fell inside [p10, p90]?
    let (mut covered, mut scored) = (0u32, 0u32);
    for &(t, id, p10, _, p90) in &samples {
        let Some(rec) = sys.finished_record(id) else {
            continue;
        };
        if rec.kind != FinishKind::Completed {
            continue;
        }
        let actual = rec.finished - t;
        if actual < 1.0 {
            continue;
        }
        scored += 1;
        if p10 <= actual && actual <= p90 {
            covered += 1;
        }
    }
    BandOutcome {
        samples,
        covered,
        scored,
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        .. ProptestConfig::default()
    })]

    #[test]
    fn bands_are_ordered_finite_and_calibrated(
        seed in 0u64..1_000_000,
        faults_per_kind in 0usize..6,
    ) {
        let out = run_chaos(seed, faults_per_kind);
        // The workload always produces banded samples and completions to
        // score them against; otherwise the property is vacuous.
        prop_assert!(!out.samples.is_empty(), "no banded estimates emitted");
        prop_assert!(out.scored >= 20, "only {} scored samples", out.scored);
        // Nominal coverage is 80 %. Demand a generous floor: far enough
        // below nominal to tolerate adversarial fault plans and finite
        // residual windows, far enough above zero to catch bands that
        // ignore realized outcomes entirely.
        let coverage = f64::from(out.covered) / f64::from(out.scored);
        prop_assert!(
            coverage >= 0.5,
            "p10–p90 coverage {:.2} (covered {}/{}) under seed {} with {} faults/kind",
            coverage,
            out.covered,
            out.scored,
            seed,
            faults_per_kind
        );
    }
}
