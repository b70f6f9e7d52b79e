//! Golden fixture for `System::step`: one FNV-1a digest per scenario over
//! every `SimEvent` the feed emits ([`to_tap`] bits, drained after each
//! step), the `observed_speed` bits of every running query at each drain
//! (the speed monitors), every `FinishedQuery` (`id`, `finished` bits,
//! `units_done` bits), the bytes of `System::checkpoint()` at the end (and
//! mid-run where a scenario restores), plus the step count and the final
//! clock bits.
//!
//! The first eight constants were blessed on the commit *before* the step's
//! weight pass learned to carry the event jump's `min` and the grant lost
//! its software `floor`. All eleven were re-blessed, in a commit of their
//! own, on the parent of the change that carries the weight pass from one
//! step to the next and gives the running set its own columns (when the
//! monitors and checkpoint bytes joined the digest and the last three
//! scenarios were added). Any rewrite of the step must reproduce them bit
//! for bit, in debug and in release. A mismatch prints the digest it got,
//! so re-blessing after an intended behaviour change is a copy from the
//! failure message.
//!
//! Eight were re-blessed once more, in a commit of their own, on parent
//! 6b5df9b, when event mode began to serve sets whose unblocked sessions
//! are all unit-weight plain jobs in virtual time (the tag path: finish
//! tags on a fixed-point service clock). Two things move there: finish
//! and event times by f64 rounding (some near-ties inside the nudge, which
//! the last bit of a credit decides, now leave in one step rather than
//! two), and the speed monitors, which
//! sample the fluid rate `effective / active` instead of the whole units a
//! step ran. `quantum_exact_unit_credit` and `quantum_mixed` did not move,
//! and neither did `nan_need_counts_as_zero`: its opaque job holds the
//! fused loop until one job is left, and no tag-path monitor is read
//! before that job's last step. Old → new:
//!
//! * `burst_256_slots` `0x5fd6_1b23_d3ff_ba93` → `0x4581_d03f_441e_3213`;
//! * `mixed_weights` `0xb8d9_d579_1ab9_94f7` → `0x314a_1646_c6d2_cbe7`;
//! * `blocked_and_resumed` `0xaa21_9986_5699_bf2b` → `0xd3e4_8b14_1480_2ef9`;
//! * `opaque_job_falls_back_to_quantum` `0x3f6b_b1b2_0fc7_a3db` →
//!   `0xd828_1e9f_689c_e319`;
//! * `rate_dip` `0xd03e_9569_6166_a9cc` → `0x7fc0_7c32_d535_c4e2`;
//! * `every_mutator_between_steps` `0x1154_285f_0fd4_7db7` →
//!   `0x348a_4741_2ded_801c`;
//! * `opaque_joins_synthetic_full_house` `0x5273_d2d9_f77e_25f0` →
//!   `0x10ff_9e7d_3eb0_89a8`;
//! * `restore_mid_burst` `0x7ffb_8938_5547_639f` → `0xf25b_f8c8_1356_72d6`.
//!
//! All eleven were re-blessed once more, in a commit of their own, for
//! checkpoint format version 4: each digest folds `System::checkpoint()`
//! bytes, and the payload's `SystemConfig` lost `speed_tau` (one time
//! constant, 10, is now the scheduler's) and a fault plan's retry policy
//! its multiplier. No event, monitor, finish time or step count moved: the
//! parent's code with only those two fields left out of the encoding
//! records the same eleven digests. Old → new:
//!
//! * `burst_256_slots` `0x4581_d03f_441e_3213` → `0x670a_5307_9c5d_026f`;
//! * `mixed_weights` `0x314a_1646_c6d2_cbe7` → `0x5f68_affa_c039_9813`;
//! * `blocked_and_resumed` `0xd3e4_8b14_1480_2ef9` → `0x6696_7018_9bab_5e25`;
//! * `opaque_job_falls_back_to_quantum` `0xd828_1e9f_689c_e319` →
//!   `0x488a_768e_4bb6_e007`;
//! * `nan_need_counts_as_zero` `0x8fad_2e2c_e258_55e2` →
//!   `0x0f9e_cb35_0e1b_8276`;
//! * `rate_dip` `0x7fc0_7c32_d535_c4e2` → `0x8e59_f773_65d4_b3de`;
//! * `quantum_exact_unit_credit` `0xc872_1a9f_b1a8_272d` →
//!   `0x7b01_360e_69df_b329`;
//! * `quantum_mixed` `0x6fd2_24f1_6010_5695` → `0xdab0_5d88_7618_3991`;
//! * `every_mutator_between_steps` `0x348a_4741_2ded_801c` →
//!   `0x0bc0_f75a_b277_ef88`;
//! * `opaque_joins_synthetic_full_house` `0x10ff_9e7d_3eb0_89a8` →
//!   `0x5ddd_e3c4_4b73_08f4`;
//! * `restore_mid_burst` `0xf25b_f8c8_1356_72d6` → `0xe2c5_b063_28fd_9c56`.
//!
//! Mutations of the tag path tried in release against the re-blessed
//! digests and the tests beside them (`cargo test --release -p mqpi-sim`
//! and `-p mqpi-core --test pi_vs_scheduler`); each fails at least the
//! tests named:
//!
//! * the `(1 + 1e-9)·dt + 1e-12` nudge dropped from the tag path's jump —
//!   the service clock stops one grid step short of the tag and the next
//!   jump grants nothing: `burst_256_slots` and seven more scenarios,
//!   `prop_sched`'s `tag_path_matches_the_fused_loop` (both sizes),
//!   `pi_vs_scheduler`'s `chain_batch_unit_weights` and
//!   `chain_arrivals_unit_weights` (each stops at its step bound);
//! * a step's finishers leaving in heap (tag) order rather than running
//!   order — `burst_256_slots`, `opaque_joins_synthetic_full_house`,
//!   `restore_mid_burst`, both `tag_path_matches_the_fused_loop` tests
//!   (finishers out of running order);
//! * the anchor not re-based on `resume` (the old tag pushed again) —
//!   `blocked_and_resumed`, `every_mutator_between_steps`, both
//!   `tag_path_matches_the_fused_loop` tests, and `system.rs`'s
//!   `tag_path_restore_at_every_boundary_is_bit_identical`;
//! * the credit derived through f64 arithmetic (`service / 2⁵² − done`)
//!   instead of from the integer remainder — `every_mutator_between_steps`,
//!   `opaque_joins_synthetic_full_house`, `restore_mid_burst`, and the
//!   restore tests `tag_path_restore_at_every_boundary_is_bit_identical`
//!   and `event_driven_mode_round_trips`;
//! * the monitor lane pass skipped on a step without a finisher — six
//!   scenarios, `burst_256_slots` among them, and both
//!   `tag_path_matches_the_fused_loop` tests (the reference EMA).
//!
//! Mutations of the fused loop, tried the same way when its digests were
//! blessed (before the tag path; not re-run since); each failed at least
//! the scenarios named:
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
//! * the jump taken in `StepMode::Quantum` — `quantum_mixed`;
//! * `swap_remove` for the order-preserving removal of one session (abort,
//!   failure) — `every_mutator_between_steps`; for the finishers'
//!   compaction — every scenario but `nan_need_counts_as_zero`.
//!
//! Three passed, because they decide cost and not values: the pre-pass
//! still collecting its `min` after a non-unit weight or in quantum mode
//! (the jump ignores it), and the jump's `is_finite` guard dropped (no rate
//! model or dip — the factor is clamped to `1e-6` — makes the speed zero).

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicU32, Ordering};

use mqpi_engine::error::Result;
use mqpi_sim::{
    AdmissionPolicy, ErrorPolicy, FaultEvent, FaultKind, FaultPlan, FinishKind, Job, JobProgress,
    RetryPolicy, Rng, SimEvent, StepMode, SyntheticJob, System, SystemConfig,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Flatten an event to the `(tag, at, id, a, b)` quintuple the digests
/// fold. Tags run 1–7 in variant order; a departure carries its
/// [`FinishKind`] as 0–3 in `a`.
fn to_tap(ev: &SimEvent) -> (u8, f64, u64, f64, f64) {
    match *ev {
        SimEvent::Admitted {
            at,
            id,
            cost,
            weight,
        } => (1, at, id, cost, weight),
        SimEvent::Enqueued {
            at,
            id,
            cost,
            weight,
        } => (2, at, id, cost, weight),
        SimEvent::Departed { at, id, kind } => {
            let k = match kind {
                FinishKind::Completed => 0.0,
                FinishKind::Aborted => 1.0,
                FinishKind::Failed => 2.0,
                FinishKind::Rejected => 3.0,
            };
            (3, at, id, k, 0.0)
        }
        SimEvent::Blocked { at, id } => (4, at, id, 0.0, 0.0),
        SimEvent::Resumed { at, id } => (5, at, id, 0.0, 0.0),
        SimEvent::CostRefined { at, id, remaining } => (6, at, id, remaining, 0.0),
        SimEvent::RateChanged { at, rate } => (7, at, 0, rate, 0.0),
    }
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

    /// Fold the events since the last call, then the monitor of every
    /// running query (`observed_speed` bits, `u64::MAX` for none yet).
    fn drain(&mut self, sys: &mut System) {
        self.events.clear();
        sys.drain_events(&mut self.events);
        for ev in &self.events {
            let (tag, at, id, a, b) = to_tap(ev);
            for w in [tag as u64, at.to_bits(), id, a.to_bits(), b.to_bits()] {
                self.digest = fnv(self.digest, w);
            }
        }
        for q in sys.snapshot().running {
            let speed = q.observed_speed.map_or(u64::MAX, f64::to_bits);
            self.digest = fnv(fnv(self.digest, q.id), speed);
        }
    }

    /// Fold a checkpoint's bytes: credits, monitors and job counters of
    /// every live session, the arrival timeline, the injector.
    fn fold_checkpoint(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.digest = (self.digest ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    fn step(&mut self, sys: &mut System) {
        sys.step_discard().expect("step");
        self.steps += 1;
        assert!(self.steps < 2_000_000, "scenario does not terminate");
        self.drain(sys);
    }

    fn run_to_idle(&mut self, sys: &mut System) {
        while sys.has_work() {
            self.step(sys);
        }
    }

    fn finish(mut self, sys: &mut System) -> u64 {
        self.drain(sys);
        self.fold_checkpoint(&sys.checkpoint().expect("an idle system checkpoints"));
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

/// Every way to change the running set between two steps, on a unit-weight
/// event-driven house with a queue behind it: block, resume, abort of a
/// running and of a queued query, abort with rollback, submission (now and
/// then at weight 2), a `step_until` boundary, and a fault plan applying
/// cost noise, aborts with retry, page faults under isolation, a burst and
/// a rate dip.
fn every_mutator_between_steps() -> u64 {
    let mut sys = System::new(event_driven(400.0, Some(12)));
    sys.set_error_policy(ErrorPolicy::Isolate);
    let mut rec = Recorder::new(&mut sys);
    let mut rng = Rng::seed_from_u64(0x4d55_5441); // "MUTA"
    let fault = |at, kind| FaultEvent { at, kind };
    let mut faults = Vec::new();
    for i in 0..24 {
        let at = 0.3 + 1.1 * i as f64;
        faults.push(fault(
            at,
            match i % 6 {
                0 => FaultKind::CostNoise { factor: 1.7 },
                1 => FaultKind::AbortRetry { overhead: 9 },
                2 => FaultKind::PageFault,
                3 => FaultKind::Burst {
                    queries: 5,
                    cost: 40,
                },
                4 => FaultKind::RateDip {
                    factor: 0.5,
                    duration: 0.35,
                },
                _ => FaultKind::AbortRetry { overhead: 0 },
            },
        ));
    }
    sys.install_faults(FaultPlan::new(faults, 21, RetryPolicy::default()));
    let mut at = 0.0;
    for _ in 0..300 {
        at += rng.exp(14.0);
        sys.schedule(at, "job", synthetic(15 + rng.below(110)), 1.0);
    }
    let mut blocked: Vec<u64> = Vec::new();
    while sys.has_work() {
        rec.step(&mut sys);
        assert!(rec.steps < 200_000, "scenario does not terminate");
        let running = sys.running_ids();
        blocked.retain(|id| running.contains(id));
        let pick = |rng: &mut Rng, pool: &[u64]| pool[rng.below(pool.len() as u64) as usize];
        match rng.below(16) {
            0 if blocked.len() + 1 < running.len() => {
                let id = pick(&mut rng, &running);
                if !blocked.contains(&id) {
                    sys.block(id).expect("block");
                    blocked.push(id);
                }
            }
            1 if !blocked.is_empty() => {
                let id = blocked.swap_remove(rng.below(blocked.len() as u64) as usize);
                sys.resume(id).expect("resume");
            }
            2 if !running.is_empty() => {
                let id = pick(&mut rng, &running);
                sys.abort(id).expect("abort a running query");
            }
            3 => {
                let queued = sys.queued_ids();
                if !queued.is_empty() {
                    let id = pick(&mut rng, &queued);
                    sys.abort(id).expect("abort a queued query");
                }
            }
            4 if !running.is_empty() => {
                // Fails on a query already rolling back; that is a no-op.
                let _ = sys.abort_with_overhead(pick(&mut rng, &running), 6 + rng.below(20));
            }
            5 => {
                let w = if rng.below(4) == 0 { 2.0 } else { 1.0 };
                sys.submit("late", synthetic(10 + rng.below(60)), w);
            }
            6 => {
                let limit = sys.now() + 0.013;
                sys.step_until(limit).expect("step_until");
                rec.steps += 1;
                rec.drain(&mut sys);
            }
            _ => {}
        }
    }
    rec.finish(&mut sys)
}

/// Opaque jobs entering a full house of unit-weight synthetic jobs: one
/// waits deep in the queue, one is submitted into the queue mid-run, one
/// arrives once the queue has drained. Each takes event mode back to the
/// quantum path while it runs.
fn opaque_joins_synthetic_full_house() -> u64 {
    let mut sys = System::new(event_driven(900.0, Some(24)));
    let mut rec = Recorder::new(&mut sys);
    let mut rng = Rng::seed_from_u64(0x4f50_4151); // "OPAQ"
    for i in 0..220 {
        let job: Box<dyn Job> = if i == 90 {
            Box::new(OpaqueJob { total: 70, done: 0 })
        } else {
            synthetic(20 + rng.below(140))
        };
        sys.submit("job", job, 1.0);
    }
    for _ in 0..150 {
        rec.step(&mut sys);
    }
    sys.submit("opaque", Box::new(OpaqueJob { total: 45, done: 0 }), 1.0);
    while !sys.queued_ids().is_empty() {
        rec.step(&mut sys);
    }
    let late = sys.now() + 0.5;
    sys.schedule(
        late,
        "opaque",
        Box::new(OpaqueJob { total: 30, done: 0 }),
        1.0,
    );
    rec.run_to_idle(&mut sys);
    assert_eq!(sys.finished().len(), 222);
    rec.finish(&mut sys)
}

/// `burst_256_slots` at a quarter of the size, checkpointed and restored
/// three times while the burst drains; every checkpoint's bytes are folded
/// and the run continues on the restored system.
fn restore_mid_burst() -> u64 {
    let mut sys = System::new(event_driven(2_500.0, Some(64)));
    let mut rec = Recorder::new(&mut sys);
    let mut rng = Rng::seed_from_u64(0x5245_5354); // "REST"
    let mut at = 0.0;
    for base in 0..400 {
        at += rng.exp(22.0);
        sys.schedule(at, "job", synthetic(50 + rng.below(101)), 1.0);
        if base == 120 {
            for _ in 0..1_000 {
                sys.schedule(at, "job", synthetic(50 + rng.below(101)), 1.0);
            }
        }
    }
    let mut restores = 0;
    while sys.has_work() {
        rec.step(&mut sys);
        if restores < 3 && sys.queued_ids().len() > 300 && rec.steps.is_multiple_of(97) {
            let bytes = sys.checkpoint().expect("checkpoint");
            rec.fold_checkpoint(&bytes);
            sys = System::restore(&bytes).expect("restore");
            restores += 1;
        }
    }
    assert_eq!(restores, 3);
    assert_eq!(sys.finished().len(), 1_400);
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
        burst_256_slots = 0x670a_5307_9c5d_026fu64;
        mixed_weights = 0x5f68_affa_c039_9813u64;
        blocked_and_resumed = 0x6696_7018_9bab_5e25u64;
        opaque_job_falls_back_to_quantum = 0x488a_768e_4bb6_e007u64;
        nan_need_counts_as_zero = 0x0f9e_cb35_0e1b_8276u64;
        rate_dip = 0x8e59_f773_65d4_b3deu64;
        quantum_exact_unit_credit = 0x7b01_360e_69df_b329u64;
        quantum_mixed = 0xdab0_5d88_7618_3991u64;
        every_mutator_between_steps = 0x0bc0_f75a_b277_ef88u64;
        opaque_joins_synthetic_full_house = 0x5ddd_e3c4_4b73_08f4u64;
        restore_mid_burst = 0xe2c5_b063_28fd_9c56u64;
    }
}
