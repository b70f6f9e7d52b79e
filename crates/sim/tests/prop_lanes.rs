//! The tag path's lazy parts against their eager forms, which this file
//! keeps as oracles: a `Vec<Row>` in running order that loses a departed
//! session by `Vec::remove`, and a monitor pass that samples every row on
//! every step that moved the clock, the rate `rate / active` or 0 while
//! blocked, by the step's `alpha` (the pass the running set ran before it
//! logged steps and replayed them on read).
//!
//! Each case drives two systems through one random event-mode workload:
//! Poisson arrivals from a clock past 2¹⁴ s (where the jump's `1e-12` s
//! nudge rounds away, so a zero-cost job makes steps that do not move the
//! clock), a same-instant burst, and a fault plan of rate dips, cost
//! noise, aborts with and without rollback and bursts; between steps the
//! test blocks, resumes, aborts and aborts with rollback. System `a` is
//! read at random gaps — every step to thousands of steps apart — so its
//! lanes fall far behind and its holes pile up; system `b` is read after
//! every step. At every read the running order, the `blocked` flags and
//! the `observed_speed` bits must be the oracle's; every fault's victim
//! must be the one the injector's draw picks from the oracle's order; the
//! event feeds of `a` and `b` must be equal; and at random cuts the two
//! systems' whole state as the public API shows it ([`state`]: the full
//! snapshot, every finished record, the injector's log and counters, the
//! work ledger) must be equal to the bit.
//!
//! Mutations tried in release (`cargo test --release -p mqpi-sim`), each
//! failing both tests of this file, and the others named: a log entry
//! written when `mdt == 0`; a blocked row replayed at the step's rate
//! (`golden_step`'s `blocked_and_resumed` and `every_mutator_between_steps`,
//! both `tag_path_matches_the_fused_loop` tests); a trim that drops one
//! entry more than the rows it brought forward had read (`system.rs`'s
//! `whole_set_lane_reads_equal_row_by_row_reads`); a hole visible to
//! `snapshot`, which walks every row (every `golden_step` scenario, both
//! `lane_reads` tests, both `tag_path_matches_the_fused_loop` tests); a
//! hole visible to `pick_victim`, which counts every row (`golden_step`'s
//! `every_mutator_between_steps`).

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use mqpi_sim::job::SyntheticJob;
use mqpi_sim::system::{StepMode, System, SystemConfig};
use mqpi_sim::{
    AdmissionPolicy, FaultEvent, FaultKind, FaultPlan, InjectedFault, RetryPolicy, Rng, SimEvent,
};

/// The fault injector's victim stream (`System::install_faults`).
const VICTIM_STREAM: u64 = 0xD6E8_FEB8_6659_FD93;

/// One running session as the oracle keeps it.
#[derive(Debug)]
struct Row {
    id: u64,
    /// The monitor's EMA, NaN before its first sample.
    ema: f64,
    blocked: bool,
    rolling_back: bool,
}

/// The eager forms: running order by `Vec::remove`, and every row's
/// monitor stepped on every step.
struct Oracle {
    rows: Vec<Row>,
    rate: f64,
    tau: f64,
    victims: Rng,
    /// Fault log entries accounted for.
    faults_seen: usize,
}

impl Oracle {
    fn position(&self, id: u64) -> Result<usize, String> {
        self.rows
            .iter()
            .position(|r| r.id == id)
            .ok_or_else(|| format!("query {id} is not running"))
    }

    /// The eager monitor pass over the rows taking part in a step of
    /// `mdt` seconds.
    fn sample(&mut self, mdt: f64) {
        let alpha = 1.0 - (-mdt / self.tau).exp();
        let active = self.rows.iter().filter(|r| !r.blocked).count();
        let rate = self.rate / active as f64;
        for r in &mut self.rows {
            let inst = if r.blocked { 0.0 } else { rate };
            let next = r.ema + alpha * (inst - r.ema);
            r.ema = if r.ema.is_nan() { inst } else { next };
        }
    }

    /// Skip the log entries that name no victim (dips, bursts).
    fn skip_victimless(&mut self, log: &[InjectedFault]) {
        while log
            .get(self.faults_seen)
            .is_some_and(|f| f.victim.is_none())
        {
            self.faults_seen += 1;
        }
    }

    /// If `ev` is what the next logged fault did to its victim, the fault
    /// it is: check the victim against the draw over the oracle's order.
    fn fault_of(
        &mut self,
        ev: &SimEvent,
        log: &[InjectedFault],
    ) -> Result<Option<FaultKind>, String> {
        self.skip_victimless(log);
        let (id, at) = match *ev {
            SimEvent::CostRefined { id, at, .. } | SimEvent::Departed { id, at, .. } => (id, at),
            _ => return Ok(None),
        };
        let Some(f) = log.get(self.faults_seen) else {
            return Ok(None);
        };
        if f.victim != Some(id) || f.at != at {
            return Ok(None);
        }
        self.faults_seen += 1;
        let eligible: Vec<u64> = self
            .rows
            .iter()
            .filter(|r| !r.rolling_back)
            .map(|r| r.id)
            .collect();
        if eligible.is_empty() {
            return Err(format!("fault at {at} hit {id} with no eligible session"));
        }
        let want = eligible[self.victims.below(eligible.len() as u64) as usize];
        if want != id {
            return Err(format!("fault at {at} hit {id}, the draw picks {want}"));
        }
        Ok(Some(f.kind))
    }

    fn apply(&mut self, ev: &SimEvent, log: &[InjectedFault]) -> Result<(), String> {
        let fault = self.fault_of(ev, log)?;
        match *ev {
            SimEvent::Admitted { id, .. } => self.rows.push(Row {
                id,
                ema: f64::NAN,
                blocked: false,
                rolling_back: false,
            }),
            SimEvent::Departed { id, .. } => {
                let k = self.position(id)?;
                self.rows.remove(k);
            }
            SimEvent::Blocked { id, .. } => {
                let k = self.position(id)?;
                self.rows[k].blocked = true;
            }
            SimEvent::Resumed { id, .. } => {
                let k = self.position(id)?;
                self.rows[k].blocked = false;
            }
            // Cost noise only rescales what is reported; anything else is
            // an abort that left rollback work, which also unblocks.
            SimEvent::CostRefined { id, .. } => {
                if !matches!(fault, Some(FaultKind::CostNoise { .. })) {
                    let k = self.position(id)?;
                    self.rows[k].rolling_back = true;
                    self.rows[k].blocked = false;
                }
            }
            SimEvent::RateChanged { rate, .. } => self.rate = rate,
            SimEvent::Enqueued { .. } => {}
        }
        Ok(())
    }

    /// The events of one step that ran from `t_prev` to `t_new`: what the
    /// step did before serving is stamped before `t_new`, and the monitors
    /// sample between the two parts when the clock moved.
    fn step(
        &mut self,
        feed: &[SimEvent],
        log: &[InjectedFault],
        t_prev: f64,
        t_new: f64,
    ) -> Result<(), String> {
        let split = feed
            .iter()
            .position(|ev| ev.at() >= t_new)
            .unwrap_or(feed.len());
        let t_serve = feed[..split].iter().fold(t_prev, |t, ev| t.max(ev.at()));
        for ev in &feed[..split] {
            self.apply(ev, log)?;
        }
        if t_new > t_serve {
            self.sample(t_new - t_serve);
        }
        for ev in &feed[split..] {
            self.apply(ev, log)?;
        }
        self.skip_victimless(log);
        if self.faults_seen != log.len() {
            return Err(format!(
                "fault {:?} matched no event",
                log[self.faults_seen]
            ));
        }
        Ok(())
    }

    /// `sys`'s running order, blocks and monitor bits are the oracle's.
    fn check(&self, sys: &System) -> Result<(), String> {
        let snap = sys.snapshot();
        let ids: Vec<u64> = snap.running.iter().map(|q| q.id).collect();
        let want: Vec<u64> = self.rows.iter().map(|r| r.id).collect();
        if ids != want || sys.running_ids() != want {
            return Err(format!("running order {ids:?}, oracle {want:?}"));
        }
        for (q, r) in snap.running.iter().zip(&self.rows) {
            let bits = q.observed_speed.unwrap_or(f64::NAN).to_bits();
            if bits != r.ema.to_bits() || q.blocked != r.blocked {
                return Err(format!(
                    "query {}: speed {:?} blocked {}, oracle {} blocked {}",
                    q.id, q.observed_speed, q.blocked, r.ema, r.blocked
                ));
            }
        }
        Ok(())
    }
}

/// One random workload, driven through both systems and the oracle.
fn lazy_against_eager(seed: u64) -> Result<u64, String> {
    let mut rng = Rng::seed_from_u64(seed);
    let rate = if rng.below(2) == 0 { 100.0 } else { 10_000.0 };
    let slots = 1 + rng.below(48) as usize;
    // The scheduler's speed-monitor time constant.
    let tau = 10.0;
    let cfg = SystemConfig {
        rate,
        admission: AdmissionPolicy::MaxConcurrent(slots),
        step_mode: StepMode::EventDriven,
        ..Default::default()
    };
    let mut a = System::new(cfg);
    let mut b = System::new(cfg);

    // Arrivals: costs of 0 (one in ten) to 120 units at a load of 0.6 to
    // 1.3, and one same-instant burst.
    let t0 = 20_000.0 + rng.f64() * 100.0;
    let jobs = 200 + rng.below(1_000) as usize;
    let lambda = (0.6 + 0.7 * rng.f64()) * rate / 60.0;
    let burst_at = rng.below(jobs as u64) as usize;
    let burst = 20 + rng.below(200) as usize;
    let mut zero_cost = HashSet::new();
    let name: Arc<str> = "q".into();
    let mut at = t0;
    for j in 0..jobs {
        at += rng.exp(lambda);
        let n = if j == burst_at { burst } else { 1 };
        for _ in 0..n {
            let cost = if rng.below(10) == 0 {
                0
            } else {
                1 + rng.below(120)
            };
            let job = || Box::new(SyntheticJob::new(cost));
            let id = a.schedule(at, Arc::clone(&name), job(), 1.0);
            b.schedule(at, Arc::clone(&name), job(), 1.0);
            if cost == 0 {
                zero_cost.insert(id);
            }
        }
    }
    let horizon = at - t0;
    let mut events = Vec::new();
    for _ in 0..20 + rng.below(40) {
        let at = t0 + rng.f64() * horizon;
        let kind = match rng.below(4) {
            0 => FaultKind::RateDip {
                factor: 0.2 + 0.7 * rng.f64(),
                duration: rng.f64() * horizon / 10.0,
            },
            1 => FaultKind::CostNoise {
                factor: 0.5 + 1.5 * rng.f64(),
            },
            2 => FaultKind::AbortRetry {
                overhead: if rng.below(2) == 0 {
                    0
                } else {
                    1 + rng.below(80)
                },
            },
            _ => FaultKind::Burst {
                queries: 1 + rng.below(20) as u32,
                cost: 1 + rng.below(60),
            },
        };
        events.push(FaultEvent { at, kind });
    }
    let plan = FaultPlan::new(events, seed, RetryPolicy::none());
    for sys in [&mut a, &mut b] {
        sys.install_faults(plan.clone());
        sys.enable_event_feed();
    }

    let mut oracle = Oracle {
        rows: Vec::new(),
        rate,
        tau,
        victims: Rng::seed_from_u64(plan.seed ^ VICTIM_STREAM),
        faults_seen: 0,
    };
    let (mut feed_a, mut feed_b) = (Vec::new(), Vec::new());
    let mut next_read = 0u64;
    let mut next_cut = 200 + rng.below(2_000);
    let mut steps = 0u64;
    while a.has_work() && steps < 60_000 {
        // Blocks, resumes and aborts between steps, picked from the oracle's rows.
        if !oracle.rows.is_empty() {
            let row = &oracle.rows[rng.below(oracle.rows.len() as u64) as usize];
            let id = row.id;
            match rng.below(200) {
                0..=3 if !row.blocked && !zero_cost.contains(&id) => {
                    a.block(id).unwrap();
                    b.block(id).unwrap();
                }
                4..=7 if row.blocked => {
                    a.resume(id).unwrap();
                    b.resume(id).unwrap();
                }
                8 => {
                    a.abort(id).unwrap();
                    b.abort(id).unwrap();
                }
                9 => {
                    let overhead = 1 + rng.below(80);
                    let ok = a.abort_with_overhead(id, overhead).is_ok();
                    assert_eq!(ok, b.abort_with_overhead(id, overhead).is_ok());
                }
                _ => {}
            }
            feed_a.clear();
            a.drain_events(&mut feed_a);
            for ev in &feed_a {
                oracle.apply(ev, a.fault_log())?;
            }
        }
        feed_b.clear();
        b.drain_events(&mut feed_b);

        let t_prev = a.now();
        if rng.below(8) == 0 {
            let limit = t_prev + rng.f64() * 60.0 / rate;
            a.step_until(limit).unwrap();
            b.step_until(limit).unwrap();
        } else {
            a.step_discard().unwrap();
            b.step_discard().unwrap();
        }
        steps += 1;
        feed_a.clear();
        a.drain_events(&mut feed_a);
        feed_b.clear();
        b.drain_events(&mut feed_b);
        if feed_a != feed_b {
            return Err(format!("step {steps}: feeds differ"));
        }
        oracle
            .step(&feed_a, a.fault_log(), t_prev, a.now())
            .map_err(|e| format!("step {steps}: {e}"))?;

        oracle
            .check(&b)
            .map_err(|e| format!("step {steps}, b: {e}"))?;
        if steps >= next_read {
            oracle
                .check(&a)
                .map_err(|e| format!("step {steps}, a: {e}"))?;
            next_read = steps
                + match rng.below(10) {
                    0..=2 => 1,
                    3..=5 => 1 + rng.below(20),
                    6..=8 => 20 + rng.below(500),
                    _ => 500 + rng.below(3_500),
                };
        }
        if steps >= next_cut {
            if state(&a) != state(&b) {
                return Err(format!("step {steps}: states differ"));
            }
            next_cut = steps + 200 + rng.below(2_000);
        }
    }
    if a.has_work() {
        return Err(format!("not idle after {steps} steps"));
    }
    Ok(steps)
}

/// Everything a caller can read of `sys`. `{:?}` prints each `f64` as
/// its shortest round-trip decimal, so equal strings mean equal bits.
fn state(sys: &System) -> String {
    format!(
        "{:?} {:?} {:?} {:?} {:016x}",
        sys.snapshot(),
        sys.finished(),
        sys.fault_log(),
        sys.fault_stats(),
        sys.executed_units().to_bits()
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lanes replayed at random gaps and holes change no bit.
    #[test]
    fn lazy_lanes_and_holes_match_the_eager_oracle(seed in any::<u64>()) {
        lazy_against_eager(seed).map_err(TestCaseError::fail)?;
    }
}

/// A few fixed seeds, so a failure reproduces without the property runner.
#[test]
fn lazy_lanes_and_holes_match_the_eager_oracle_fixed_seeds() {
    let mut steps = 0;
    for seed in 0..4 {
        steps += lazy_against_eager(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
    assert!(
        steps > 4_000,
        "too little stepping to exercise trims ({steps})"
    );
}
