//! Golden fixture for `System::step`: one FNV-1a digest per scenario over
//! every `SimEvent` the feed emits ([`to_tap`] bits, drained after each
//! step), the `observed_speed` bits of every running query at each drain
//! (the speed monitors) and, at the end, every field of every
//! `FinishedQuery`, `executed_units`, `rejected_count`, the injector's
//! `fault_stats` and `fault_log`, the step count and the final clock bits.
//! Any rewrite of the step must reproduce them bit for bit, in debug and
//! in release. A mismatch prints the digest it got, so re-blessing after
//! an intended behaviour change is a copy from the failure message.
//!
//! The first eight constants were blessed on the commit *before* the step's
//! weight pass learned to carry the event jump's `min` and the grant lost
//! its software `floor`. Every re-bless since was a commit of its own, whose
//! diff shows the old and new digests:
//!
//! * on the parent of the change that gave the running set its own
//!   columns, when the monitors and the bytes of the then `System`
//!   checkpoint joined the digest and three scenarios were added;
//! * eight, on parent 6b5df9b, when event mode began to serve sets whose
//!   unblocked sessions are all unit-weight plain jobs in virtual time
//!   (the tag path: finish tags on a fixed-point service clock). Finish
//!   and event times moved by f64 rounding (near-ties inside the nudge,
//!   which the last bit of a credit decides, now leave in one step rather
//!   than two), and so did the speed monitors, which sample the fluid rate
//!   `effective / active` instead of the whole units a step ran.
//!   `quantum_exact_unit_credit`, `quantum_mixed` and
//!   `nan_need_counts_as_zero` did not move;
//! * all of them for checkpoint format version 4, which changed the
//!   checkpoint bytes and nothing else.
//!
//! All ten were re-blessed once more, in a commit of their own, when the
//! `System` checkpoint was deleted: the end-of-run fold of its bytes gave
//! way to the public state it had covered (every `FinishedQuery` field
//! where it had folded three, the work ledger, the shed count, the
//! injector's counters and log), and `restore_mid_burst` went with the
//! restore it exercised. The new fold run on the parent's code gives the
//! same ten digests, so no step moved. Old → new:
//!
//! * `burst_256_slots` `0x670a_5307_9c5d_026f` → `0x2fde_7e35_48f2_13c1`;
//! * `mixed_weights` `0x5f68_affa_c039_9813` → `0xa5f4_f78e_4430_94a4`;
//! * `blocked_and_resumed` `0x6696_7018_9bab_5e25` → `0x2796_b08e_fb9b_d966`;
//! * `opaque_job_falls_back_to_quantum` `0x488a_768e_4bb6_e007` →
//!   `0x4068_be91_47a7_af84`;
//! * `nan_need_counts_as_zero` `0x0f9e_cb35_0e1b_8276` →
//!   `0x832a_3bf0_919c_8054`;
//! * `rate_dip` `0x8e59_f773_65d4_b3de` → `0x4a17_c2f1_93f4_6d87`;
//! * `quantum_exact_unit_credit` `0x7b01_360e_69df_b329` →
//!   `0xdf5c_88c7_bb47_4f7a`;
//! * `quantum_mixed` `0xdab0_5d88_7618_3991` → `0x01a2_b196_428d_b09e`;
//! * `every_mutator_between_steps` `0x0bc0_f75a_b277_ef88` →
//!   `0x6524_393b_0043_0b46`;
//! * `opaque_joins_synthetic_full_house` `0x5ddd_e3c4_4b73_08f4` →
//!   `0xdfe1_a8f6_023a_a673`.
//!
//! Mutations of the tag path tried in release against these digests and
//! the tests beside them (`cargo test --release -p mqpi-sim` and `-p
//! mqpi-core --test pi_vs_scheduler`); each fails at least the tests
//! named:
//!
//! * the `(1 + 1e-9)·dt + 1e-12` nudge dropped from the tag path's jump —
//!   the service clock stops one grid step short of the tag and the next
//!   jump grants nothing: `burst_256_slots` and six more scenarios,
//!   `prop_sched`'s `tag_path_matches_the_fused_loop` (both sizes),
//!   `pi_vs_scheduler`'s `chain_batch_unit_weights` and
//!   `chain_arrivals_unit_weights`, and `prop_faults`'
//!   `every_id_below_the_cursor_is_accounted_for`;
//! * a step's finishers leaving in heap (tag) order rather than running
//!   order — `burst_256_slots`, `opaque_joins_synthetic_full_house` and
//!   both `tag_path_matches_the_fused_loop` tests;
//! * the anchor not re-based on `resume` (the old tag pushed again) —
//!   `blocked_and_resumed`, `every_mutator_between_steps` and both
//!   `tag_path_matches_the_fused_loop` tests;
//! * the credit derived through f64 arithmetic (`service / 2⁵² − done`)
//!   instead of from the integer remainder — `every_mutator_between_steps`
//!   and `opaque_joins_synthetic_full_house`;
//! * the monitor log skipped on a step without a finisher — five
//!   scenarios, `burst_256_slots` among them, both
//!   `tag_path_matches_the_fused_loop` tests (the reference EMA) and both
//!   `prop_lanes` tests.
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
        SimEvent::Departed { at, id, kind } => (3, at, id, finish_code(kind) as f64, 0.0),
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

    fn fold(&mut self, words: impl IntoIterator<Item = u64>) {
        for w in words {
            self.digest = fnv(self.digest, w);
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

    /// Fold what the run left behind: every field of every finished
    /// record, the work ledger, the shed count, the injector's counters and
    /// its log, then the step count and the final clock.
    fn finish(mut self, sys: &mut System) -> u64 {
        self.drain(sys);
        for f in sys.finished() {
            let kind = finish_code(f.kind);
            let started = f.started.map_or(u64::MAX, f64::to_bits);
            self.fold([f.id, f.name.len() as u64]);
            self.fold(f.name.bytes().map(u64::from));
            self.fold([f.weight.to_bits(), f.arrived.to_bits(), started]);
            self.fold([f.finished.to_bits(), kind, f.units_done.to_bits()]);
            self.fold([f.remaining_at_end.to_bits(), f.rollback_units.to_bits()]);
        }
        self.fold([sys.executed_units().to_bits(), sys.rejected_count()]);
        if let Some(s) = sys.fault_stats() {
            self.fold([s.injected, s.cost_noise, s.rate_dips, s.aborts, s.bursts]);
            self.fold([s.page_faults, s.retries_scheduled, s.retries_exhausted]);
            self.fold([s.failures, s.rejected, s.skipped]);
        }
        for f in sys.fault_log() {
            let victim = f.victim.unwrap_or(u64::MAX);
            self.fold([f.at.to_bits(), victim]);
            self.fold(fault_words(f.kind));
        }
        self.fold([self.steps, sys.now().to_bits()]);
        self.digest
    }
}

/// A [`FinishKind`] as 0–3 in variant order.
fn finish_code(kind: FinishKind) -> u64 {
    match kind {
        FinishKind::Completed => 0,
        FinishKind::Aborted => 1,
        FinishKind::Failed => 2,
        FinishKind::Rejected => 3,
    }
}

/// A [`FaultKind`] as its variant (0–4) and its two parameters.
fn fault_words(kind: FaultKind) -> [u64; 3] {
    match kind {
        FaultKind::CostNoise { factor } => [0, factor.to_bits(), 0],
        FaultKind::RateDip { factor, duration } => [1, factor.to_bits(), duration.to_bits()],
        FaultKind::AbortRetry { overhead } => [2, overhead, 0],
        FaultKind::Burst { queries, cost } => [3, u64::from(queries), cost],
        FaultKind::PageFault => [4, 0, 0],
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
        burst_256_slots = 0x2fde_7e35_48f2_13c1u64;
        mixed_weights = 0xa5f4_f78e_4430_94a4u64;
        blocked_and_resumed = 0x2796_b08e_fb9b_d966u64;
        opaque_job_falls_back_to_quantum = 0x4068_be91_47a7_af84u64;
        nan_need_counts_as_zero = 0x832a_3bf0_919c_8054u64;
        rate_dip = 0x4a17_c2f1_93f4_6d87u64;
        quantum_exact_unit_credit = 0xdf5c_88c7_bb47_4f7au64;
        quantum_mixed = 0x01a2_b196_428d_b09eu64;
        every_mutator_between_steps = 0x6524_393b_0043_0b46u64;
        opaque_joins_synthetic_full_house = 0xdfe1_a8f6_023a_a673u64;
    }
}
