//! Golden fixture for `System::step`: one FNV-1a digest per scenario over
//! every `SimEvent` the feed emits (`to_tap()` bits, drained after each
//! step) and every `FinishedQuery` (`id`, `finished` bits, `units_done`
//! bits), plus the step count and the final clock bits.
//!
//! The constants were blessed on the commit *before* the step's weight
//! pass learned to carry the event jump's `min` and the grant lost its
//! software `floor`; any rewrite of the step must reproduce them bit for
//! bit, in debug and in release. A mismatch prints the digest it got, so
//! re-blessing after an intended behaviour change is a copy from the
//! failure message.
//!
//! Mutations of the step tried against this fixture, in release mode
//! (`cargo test --release -p mqpi-sim --test golden_step`); each fails at
//! least the scenarios named:
//!
//! * `c > 1.0` for `c >= 1.0` in the grant — `quantum_exact_unit_credit`
//!   (every grant lands a credit of exactly 1.0), `burst_256_slots`;
//! * `run(c.ceil() as u64)` — every scenario with fractional credits;
//! * blocked jobs counted in the pre-pass `min` — `blocked_and_resumed`
//!   (the blocked job holds the smallest need);
//! * the `min` taken over `remaining` instead of `remaining − credit` —
//!   `burst_256_slots`, `rate_dip`, `blocked_and_resumed`;
//! * the `.max(0.0)` dropped, or applied once after the `min` —
//!   `nan_need_counts_as_zero` (only a NaN tells the two orders apart);
//! * a `None` from `exact_remaining` skipped instead of cancelling the
//!   jump — `opaque_job_falls_back_to_quantum`, `nan_need_counts_as_zero`;
//! * the pre-pass `min` used although a weight is not 1.0 —
//!   `mixed_weights`, `blocked_and_resumed`;
//! * the `(1 + 1e-9)` nudge dropped from the jump — every event-driven
//!   unit-weight scenario;
//! * the jump taken in `StepMode::Quantum` — `quantum_mixed`.
//!
//! Three pass, because they decide cost and not values: the pre-pass still
//! collecting its `min` after a non-unit weight or in quantum mode (the
//! jump ignores it), and the jump's `is_finite` guard dropped (no rate
//! model or dip — the factor is clamped to `1e-6` — makes the speed zero).

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicU32, Ordering};

use mqpi_engine::error::Result;
use mqpi_sim::{
    AdmissionPolicy, FaultEvent, FaultKind, FaultPlan, Job, JobProgress, RetryPolicy, Rng,
    SimEvent, StepMode, SyntheticJob, System, SystemConfig,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds a system's feed and finished roster as it is stepped.
struct Recorder {
    digest: u64,
    steps: u64,
    events: Vec<SimEvent>,
}

impl Recorder {
    fn new(sys: &mut System) -> Self {
        sys.enable_event_feed();
        Recorder {
            digest: FNV_OFFSET,
            steps: 0,
            events: Vec::new(),
        }
    }

    fn drain(&mut self, sys: &mut System) {
        self.events.clear();
        sys.drain_events(&mut self.events);
        for ev in &self.events {
            let (tag, at, id, a, b) = ev.to_tap();
            for w in [tag as u64, at.to_bits(), id, a.to_bits(), b.to_bits()] {
                self.digest = fnv(self.digest, w);
            }
        }
    }

    fn step(&mut self, sys: &mut System) {
        sys.step_discard().expect("step");
        self.steps += 1;
        self.drain(sys);
    }

    fn run_to_idle(&mut self, sys: &mut System) {
        while sys.has_work() {
            self.step(sys);
            assert!(self.steps < 2_000_000, "scenario does not terminate");
        }
    }

    fn finish(mut self, sys: &mut System) -> u64 {
        self.drain(sys);
        for f in sys.finished() {
            for w in [f.id, f.finished.to_bits(), f.units_done.to_bits()] {
                self.digest = fnv(self.digest, w);
            }
        }
        self.digest = fnv(self.digest, self.steps);
        fnv(self.digest, sys.now().to_bits())
    }
}

/// A job that cannot promise its remaining work (the default
/// `exact_remaining`), like an engine cursor: held as `JobState::Dyn`.
struct OpaqueJob {
    total: u64,
    done: u64,
}

impl Job for OpaqueJob {
    fn run(&mut self, budget: u64) -> Result<u64> {
        let used = budget.min(self.total - self.done);
        self.done += used;
        Ok(used)
    }

    fn finished(&self) -> bool {
        self.done >= self.total
    }

    fn progress(&self) -> JobProgress {
        JobProgress {
            done: self.done as f64,
            remaining: (self.total - self.done) as f64,
            initial_estimate: self.total as f64,
            finished: self.finished(),
        }
    }
}

fn synthetic(cost: u64) -> Box<dyn Job> {
    Box::new(SyntheticJob::new(cost))
}

fn event_driven(rate: f64, slots: Option<usize>) -> SystemConfig {
    SystemConfig {
        rate,
        step_mode: StepMode::EventDriven,
        admission: slots.map_or(AdmissionPolicy::Unlimited, AdmissionPolicy::MaxConcurrent),
        ..SystemConfig::default()
    }
}

/// `sim_churn` in small: 256 slots, a Poisson base at 0.9 of capacity, and
/// 4 000 jobs landing at one instant. Unit weights, exact costs.
fn burst_256_slots() -> u64 {
    let mut sys = System::new(event_driven(10_000.0, Some(256)));
    let mut rec = Recorder::new(&mut sys);
    let mut rng = Rng::seed_from_u64(0x5354_4550); // "STEP"
    let mut at = 0.0;
    for base in 0..1_500 {
        at += rng.exp(90.0);
        sys.schedule(at, "job", synthetic(50 + rng.below(101)), 1.0);
        if base == 500 {
            for _ in 0..4_000 {
                sys.schedule(at, "job", synthetic(50 + rng.below(101)), 1.0);
            }
        }
    }
    rec.run_to_idle(&mut sys);
    assert_eq!(sys.finished().len(), 5_500);
    rec.finish(&mut sys)
}

/// Weights that are not all 1.0 (the weighted `event_jump`), arrivals over
/// time, and every third step pinned to a boundary by `step_until`.
fn mixed_weights() -> u64 {
    let mut sys = System::new(event_driven(120.0, Some(12)));
    let mut rec = Recorder::new(&mut sys);
    let mut rng = Rng::seed_from_u64(0x5745_4947); // "WEIG"
    let weights = [1.0, 2.0, 0.5, 3.0, 1.0, 0.75];
    let mut at = 0.0;
    for i in 0..400usize {
        at += rng.exp(1.1);
        let w = weights[i % weights.len()];
        sys.schedule(at, "job", synthetic(20 + rng.below(300)), w);
    }
    while sys.has_work() {
        if rec.steps % 3 == 2 {
            let limit = sys.now() + 0.37;
            sys.step_until(limit).expect("step_until");
            rec.steps += 1;
            rec.drain(&mut sys);
        } else {
            rec.step(&mut sys);
        }
    }
    assert_eq!(sys.finished().len(), 400);
    rec.finish(&mut sys)
}

/// A blocked job keeps its slot and gets no service: it must neither set
/// the event jump nor receive a grant. The victim holds the smallest
/// remaining cost while blocked, under unit and then under mixed weights.
fn blocked_and_resumed() -> u64 {
    let mut digest = FNV_OFFSET;
    for weights in [[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 0.5, 1.5]] {
        let mut sys = System::new(event_driven(50.0, None));
        let mut rec = Recorder::new(&mut sys);
        let victim = sys.submit("victim", synthetic(40), weights[0]);
        for (i, &w) in weights.iter().enumerate().skip(1) {
            sys.submit("job", synthetic(300 + 170 * i as u64), w);
        }
        sys.schedule(3.25, "late", synthetic(90), weights[1]);
        sys.step_until(0.4).expect("step_until");
        rec.drain(&mut sys);
        sys.block(victim).expect("block");
        for _ in 0..3 {
            rec.step(&mut sys);
        }
        sys.resume(victim).expect("resume");
        rec.run_to_idle(&mut sys);
        assert_eq!(sys.finished().len(), 5);
        digest = fnv(digest, rec.finish(&mut sys));
    }
    digest
}

/// One job without `exact_remaining` keeps event mode on the quantum path
/// for as long as it runs; the jump returns once it has left. Unit weights
/// first (the pre-pass decides), then mixed (the weighted jump decides).
fn opaque_job_falls_back_to_quantum() -> u64 {
    let mut digest = FNV_OFFSET;
    for opaque_weight in [1.0, 2.0] {
        let mut sys = System::new(event_driven(60.0, Some(4)));
        let mut rec = Recorder::new(&mut sys);
        sys.submit("a", synthetic(500), 1.0);
        sys.submit(
            "opaque",
            Box::new(OpaqueJob {
                total: 130,
                done: 0,
            }),
            opaque_weight,
        );
        sys.submit("b", synthetic(75), 1.0);
        sys.schedule(1.5, "c", synthetic(210), 1.0);
        sys.schedule(
            20.0,
            "opaque2",
            Box::new(OpaqueJob { total: 33, done: 0 }),
            opaque_weight,
        );
        rec.run_to_idle(&mut sys);
        assert_eq!(sys.finished().len(), 5);
        digest = fnv(digest, rec.finish(&mut sys));
    }
    digest
}

/// A job whose first two answers about its remaining work are NaN, and
/// which then stops answering. `(NaN − credit).max(0.0)` is a need of zero —
/// two jumps of the bare `1e-12` nudge — where a `min` taken before the
/// `.max(0.0)` would skip the NaN and jump to a neighbour's finish. Unit
/// weights, so each step asks each job exactly once.
fn nan_need_counts_as_zero() -> u64 {
    struct NanThenOpaque {
        job: OpaqueJob,
        asked: AtomicU32,
    }
    impl Job for NanThenOpaque {
        fn run(&mut self, budget: u64) -> Result<u64> {
            self.job.run(budget)
        }
        fn finished(&self) -> bool {
            self.job.finished()
        }
        fn progress(&self) -> JobProgress {
            self.job.progress()
        }
        fn exact_remaining(&self) -> Option<f64> {
            (self.asked.fetch_add(1, Ordering::Relaxed) < 2).then_some(f64::NAN)
        }
    }
    let mut sys = System::new(event_driven(60.0, None));
    let mut rec = Recorder::new(&mut sys);
    sys.submit("a", synthetic(120), 1.0);
    sys.submit(
        "nan",
        Box::new(NanThenOpaque {
            job: OpaqueJob { total: 45, done: 0 },
            asked: AtomicU32::new(0),
        }),
        1.0,
    );
    sys.submit("b", synthetic(31), 1.0);
    rec.run_to_idle(&mut sys);
    assert_eq!(sys.finished().len(), 3);
    rec.finish(&mut sys)
}

/// Rate dips: the step must stop at each dip's start and expiry and grant
/// at the rate in effect.
fn rate_dip() -> u64 {
    let mut sys = System::new(event_driven(200.0, Some(8)));
    let mut rec = Recorder::new(&mut sys);
    let dip = |at, factor, duration| FaultEvent {
        at,
        kind: FaultKind::RateDip { factor, duration },
    };
    sys.install_faults(FaultPlan::new(
        vec![dip(0.8, 0.3, 1.7), dip(4.1, 0.55, 0.9), dip(4.6, 0.2, 2.0)],
        7,
        RetryPolicy::none(),
    ));
    let mut rng = Rng::seed_from_u64(0x4449_5053); // "DIPS"
    let mut at = 0.0;
    for _ in 0..60 {
        at += rng.exp(6.0);
        sys.schedule(at, "job", synthetic(30 + rng.below(200)), 1.0);
    }
    rec.run_to_idle(&mut sys);
    assert_eq!(sys.finished().len(), 60);
    rec.finish(&mut sys)
}

/// `StepMode::Quantum` where every grant is exactly one unit: rate 64 and
/// a 16-unit quantum over 16 unit-weight jobs make `dt` = 0.25 and each
/// credit exactly 1.0, the boundary of the grant's `>= 1.0`.
fn quantum_exact_unit_credit() -> u64 {
    let mut sys = System::new(SystemConfig {
        rate: 64.0,
        quantum_units: 16.0,
        ..SystemConfig::default()
    });
    let mut rec = Recorder::new(&mut sys);
    for i in 0..16u64 {
        sys.submit("job", synthetic(3 + i % 5), 1.0);
    }
    rec.run_to_idle(&mut sys);
    assert_eq!(sys.finished().len(), 16);
    rec.finish(&mut sys)
}

/// Plain `StepMode::Quantum` at the default configuration: fractional
/// credits carried from step to step, mixed weights, exact and opaque
/// jobs, a blocked stretch and arrivals mid-run.
fn quantum_mixed() -> u64 {
    let mut sys = System::new(SystemConfig {
        admission: AdmissionPolicy::MaxConcurrent(6),
        ..SystemConfig::default()
    });
    let mut rec = Recorder::new(&mut sys);
    let mut rng = Rng::seed_from_u64(0x5155_414e); // "QUAN"
    let weights = [1.0, 1.0, 2.0, 0.5, 4.0];
    let mut at = 0.0;
    let mut first = None;
    for i in 0..40usize {
        let cost = 15 + rng.below(180);
        let job: Box<dyn Job> = if i % 4 == 3 {
            Box::new(OpaqueJob {
                total: cost,
                done: 0,
            })
        } else {
            synthetic(cost)
        };
        let id = sys.schedule(at, "job", job, weights[i % weights.len()]);
        first.get_or_insert(id);
        at += rng.exp(0.4);
    }
    let first = first.expect("a job was scheduled");
    for _ in 0..5 {
        rec.step(&mut sys);
    }
    sys.block(first).expect("block");
    for _ in 0..7 {
        rec.step(&mut sys);
    }
    sys.resume(first).expect("resume");
    rec.run_to_idle(&mut sys);
    assert_eq!(sys.finished().len(), 40);
    rec.finish(&mut sys)
}

macro_rules! golden {
    ($($name:ident = $want:expr;)*) => {$(
        #[test]
        fn $name() {
            let got = super::$name();
            assert_eq!(
                got, $want,
                "{} digest moved: got {got:#018x}, blessed {:#018x}",
                stringify!($name), $want as u64
            );
        }
    )*};
}

mod golden {
    golden! {
        burst_256_slots = 0x8cf3_db1e_10d3_ed0au64;
        mixed_weights = 0xf5f0_5823_6a2d_1c80u64;
        blocked_and_resumed = 0x9456_f6f7_e98a_183cu64;
        opaque_job_falls_back_to_quantum = 0xd23e_4d31_623a_5843u64;
        nan_need_counts_as_zero = 0xe4fb_c6d2_dd66_d8acu64;
        rate_dip = 0x77e5_3f82_9cb2_1c2du64;
        quantum_exact_unit_credit = 0xa739_d9d3_cb31_f9aau64;
        quantum_mixed = 0xdfa4_d601_1694_a25cu64;
    }
}
