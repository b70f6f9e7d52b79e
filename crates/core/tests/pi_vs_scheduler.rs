//! Closing the loop: the multi-query PI's predictions (fluid model over a
//! live snapshot) must match what the discrete scheduler actually does,
//! when Assumption 2 holds (synthetic jobs report exact costs).

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use mqpi_core::{MultiQueryPi, Visibility};
use mqpi_sim::job::SyntheticJob;
use mqpi_sim::system::{System, SystemConfig};
use mqpi_sim::AdmissionPolicy;

fn build(costs: &[u64], weights: &[f64], slots: Option<usize>, quantum: f64) -> (System, Vec<u64>) {
    let mut cfg = SystemConfig {
        rate: 100.0,
        quantum_units: quantum,
        ..Default::default()
    };
    if let Some(k) = slots {
        cfg.admission = AdmissionPolicy::MaxConcurrent(k);
    }
    let mut sys = System::new(cfg);
    let ids = costs
        .iter()
        .zip(weights)
        .map(|(c, w)| sys.submit("q", Box::new(SyntheticJob::new(*c)), *w))
        .collect();
    (sys, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// With exact costs and no admission limit, the PI's time-0 estimate
    /// for every query matches the scheduler's actual finish time within
    /// quantum-discretization tolerance.
    #[test]
    fn pi_predicts_scheduler_exactly_under_assumptions(
        costs in prop::collection::vec(100u64..4000, 2..8),
        wsel in prop::collection::vec(0usize..3, 8),
    ) {
        let weights: Vec<f64> = (0..costs.len())
            .map(|i| [1.0, 2.0, 4.0][wsel[i % wsel.len()]])
            .collect();
        let (mut sys, ids) = build(&costs, &weights, None, 2.0);
        let pi = MultiQueryPi::new(Visibility::concurrent_only());
        let snap = sys.snapshot();
        let est: Vec<f64> = ids
            .iter()
            .map(|id| pi.estimate(&snap, *id).unwrap())
            .collect();
        sys.run_until_idle(1e9).unwrap();
        let tol = 2.0 * costs.len() as f64 * 2.0 / 100.0 + 0.5;
        for (id, e) in ids.iter().zip(&est) {
            let actual = sys.finished_record(*id).unwrap().finished;
            prop_assert!(
                (actual - e).abs() < tol,
                "query {id}: predicted {e}, actual {actual} (tol {tol})"
            );
        }
    }

    /// Queue-aware estimates match the scheduler when an admission limit
    /// forces queueing.
    #[test]
    fn queue_aware_pi_matches_scheduler_with_admission_limit(
        costs in prop::collection::vec(100u64..3000, 3..8),
        slots in 1usize..3,
    ) {
        let weights = vec![1.0; costs.len()];
        let (mut sys, ids) = build(&costs, &weights, Some(slots), 2.0);
        let pi = MultiQueryPi::new(Visibility::with_queue(Some(slots)));
        let snap = sys.snapshot();
        let est: Vec<Option<f64>> = ids.iter().map(|id| pi.estimate(&snap, *id)).collect();
        sys.run_until_idle(1e9).unwrap();
        let tol = 2.0 * costs.len() as f64 * 2.0 / 100.0 + 1.0;
        for (id, e) in ids.iter().zip(&est) {
            let e = e.expect("queue-aware PI estimates queued queries too");
            let actual = sys.finished_record(*id).unwrap().finished;
            prop_assert!(
                (actual - e).abs() < tol,
                "query {id}: predicted {e}, actual {actual} (tol {tol}, slots {slots})"
            );
        }
    }

    /// Estimates refresh correctly mid-run: re-estimating halfway through
    /// still matches the remaining actual time.
    #[test]
    fn mid_run_estimates_stay_calibrated(
        costs in prop::collection::vec(500u64..4000, 2..6),
    ) {
        let weights = vec![1.0; costs.len()];
        let (mut sys, ids) = build(&costs, &weights, None, 2.0);
        let total: u64 = costs.iter().sum();
        let halfway = total as f64 / 100.0 / 2.0;
        sys.run_until(halfway).unwrap();
        let pi = MultiQueryPi::new(Visibility::concurrent_only());
        let snap = sys.snapshot();
        let est: Vec<(u64, f64)> = snap
            .running
            .iter()
            .map(|q| (q.id, pi.estimate(&snap, q.id).unwrap()))
            .collect();
        let t_mid = sys.now();
        sys.run_until_idle(1e9).unwrap();
        let tol = 2.0 * costs.len() as f64 * 2.0 / 100.0 + 0.5;
        for (id, e) in est {
            let actual = sys.finished_record(id).unwrap().finished - t_mid;
            prop_assert!(
                (actual - e).abs() < tol,
                "query {id} mid-run: predicted {e}, actual {actual}"
            );
        }
        let _ = ids;
    }
}

// ---------------------------------------------------------------------------
// The chain: closed form, batch predictor, incremental fluid, scheduler.
// ---------------------------------------------------------------------------

/// How far an event-mode finish may sit from the fluid model's instant.
///
/// Each event jump lands `(1 + 1e-9)·dt + 1e-12` past the step's start
/// instead of `dt`: the finisher leaves up to `δ = 1e-9·dt + 1e-12` late,
/// and a near-tie inside that overshoot leaves in the same step, early by
/// at most `δ`. During the overshoot virtual time advances at `C/W`
/// rather than the `C/(W − w_f)` it would once the finisher (weight `w_f`)
/// had left, so the scheduler falls `δ·C·w_f / (W·(W − w_f))` behind in
/// virtual time. Recovering that at a later total weight `W'` takes
/// `δ·w_f·W' / (W·(W − w_f))` seconds, which is at most `δ·amp` with
/// `amp = slots·w_max/w_min` (`W' ≤ slots·w_max`, `W − w_f ≥ w_min`, and a
/// finisher running alone delays its successors by `δ` itself). Summed over
/// the `steps` jumps before a finish at `t` that is `amp·(1e-9·t +
/// steps·1e-12)`, doubled for the f64 rounding of the clock, the credits
/// and the model's own arithmetic.
fn chain_tol(t: f64, steps: u64, slots: usize, weights: &[f64]) -> f64 {
    let (lo, hi) = weights
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &w| {
            (lo.min(w), hi.max(w))
        });
    let amp = slots as f64 * hi / lo;
    2.0 * amp * (1e-9 * t.abs() + steps as f64 * 1e-12) + 1e-9
}

fn event_system(slots: usize) -> System {
    System::new(SystemConfig {
        rate: 100.0,
        admission: AdmissionPolicy::MaxConcurrent(slots),
        step_mode: mqpi_sim::StepMode::EventDriven,
        ..Default::default()
    })
}

/// A batch at time 0: the scheduler's realised finish times, `predict` over
/// the time-0 snapshot with its queue, and — when nothing queues — the
/// closed form, must agree within [`chain_tol`].
fn batch_chain(costs: &[u64], weights: &[f64], slots: usize) -> Result<(), TestCaseError> {
    use mqpi_core::fluid::{predict, standard_remaining_times};
    use mqpi_core::FluidQuery;

    let mut sys = event_system(slots);
    let ids: Vec<u64> = costs
        .iter()
        .zip(weights)
        .map(|(&c, &w)| sys.submit("q", Box::new(SyntheticJob::new(c)), w))
        .collect();
    let snap = sys.snapshot();
    let q = |id, cost, weight| FluidQuery { id, cost, weight };
    let running: Vec<FluidQuery> = snap
        .running
        .iter()
        .map(|r| q(r.id, r.remaining, r.weight))
        .collect();
    let queued: Vec<FluidQuery> = snap
        .queued
        .iter()
        .map(|r| q(r.id, r.est_cost, r.weight))
        .collect();
    let batch = predict(&running, &queued, Some(slots), None, 100.0);
    let closed = (queued.is_empty()).then(|| standard_remaining_times(&running, 100.0));
    let mut steps = 0u64;
    while sys.has_work() {
        sys.step().unwrap();
        steps += 1;
        prop_assert!(steps < 100_000, "the scheduler stopped making progress");
    }
    for &id in &ids {
        let realised = sys.finished_record(id).unwrap().finished;
        let tol = chain_tol(realised, steps, slots, weights);
        let predicted = batch.remaining_for(id).unwrap();
        prop_assert!(
            (realised - predicted).abs() <= tol,
            "query {id}: realised {realised}, predict {predicted} (tol {tol:e})"
        );
        if let Some(closed) = &closed {
            let c = closed[running.iter().position(|r| r.id == id).unwrap()];
            prop_assert!(
                (realised - c).abs() <= tol,
                "query {id}: realised {realised}, closed form {c} (tol {tol:e})"
            );
        }
    }
    Ok(())
}

/// Poisson arrivals and one same-instant burst: an `IncrementalFluid` fed
/// the drained feed (`arrive` on `Admitted`, `finish` on `Departed`, as
/// `sim_churn`'s bare core does) must retire every id at its realised
/// `Departed` time. The model's finish instant for a live id is read at
/// the event before (`now + estimate`); between two events it does not
/// change.
fn arrival_chain(seed: u64, n: usize, weights: &[f64], slots: usize) -> Result<(), TestCaseError> {
    use mqpi_core::IncrementalFluid;
    use mqpi_sim::{Rng, SimEvent};
    use std::collections::HashMap;

    let mut rng = Rng::seed_from_u64(seed);
    let mut sys = event_system(slots);
    sys.enable_event_feed();
    let mut at = 0.0;
    let burst_after = n / 3;
    for i in 0..n {
        // 0.9 of capacity: mean cost 60.5 units at 100 units/s.
        at += rng.exp(1.5);
        let w = weights[rng.below(weights.len() as u64) as usize];
        sys.schedule(at, "q", Box::new(SyntheticJob::new(1 + rng.below(120))), w);
        if i == burst_after {
            for _ in 0..n / 2 {
                let w = weights[rng.below(weights.len() as u64) as usize];
                sys.schedule(at, "b", Box::new(SyntheticJob::new(1 + rng.below(120))), w);
            }
        }
    }
    let mut fluid = IncrementalFluid::new(100.0);
    let mut clock = 0.0;
    let mut due = Vec::new();
    let mut events = Vec::new();
    // id → the model's finish instant, read after the last event.
    let mut predicted: HashMap<u64, f64> = HashMap::new();
    let (mut steps, mut departed) = (0u64, 0usize);
    while sys.has_work() {
        sys.step().unwrap();
        steps += 1;
        prop_assert!(steps < 100_000, "the scheduler stopped making progress");
        events.clear();
        sys.drain_events(&mut events);
        for ev in &events {
            let dt = ev.at() - clock;
            if dt > 0.0 {
                fluid.advance(dt);
                due.clear();
                fluid.drain_due(&mut due);
                clock = ev.at();
            }
            match *ev {
                SimEvent::Admitted {
                    id, cost, weight, ..
                } => fluid.arrive(id, cost.max(0.0), weight),
                SimEvent::Departed { id, at, .. } => {
                    let want = predicted[&id];
                    let tol = chain_tol(at, steps, slots, weights);
                    prop_assert!(
                        (at - want).abs() <= tol,
                        "query {id}: departed at {at}, model retires it at {want} (tol {tol:e})"
                    );
                    fluid.finish(id);
                    departed += 1;
                }
                _ => {}
            }
            for (&id, t) in predicted.iter_mut() {
                if let Some(e) = fluid.estimate(id) {
                    *t = clock + e;
                }
            }
            if let SimEvent::Admitted { id, .. } = *ev {
                predicted.insert(id, clock + fluid.estimate(id).unwrap());
            }
        }
    }
    prop_assert_eq!(departed, n + n / 2);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The chain at time 0 under unit weights, 1–12 slots.
    #[test]
    fn chain_batch_unit_weights(
        costs in prop::collection::vec(1u64..600, 1..30),
        slots in 1usize..13,
    ) {
        batch_chain(&costs, &vec![1.0; costs.len()], slots)?;
    }

    /// The chain at time 0 under weights from {0.5, 1, 2, 4}, 1–12 slots.
    #[test]
    fn chain_batch_weighted(
        costs in prop::collection::vec(1u64..600, 1..30),
        wsel in prop::collection::vec(0usize..4, 30),
        slots in 1usize..13,
    ) {
        let weights: Vec<f64> = (0..costs.len()).map(|i| [0.5, 1.0, 2.0, 4.0][wsel[i]]).collect();
        batch_chain(&costs, &weights, slots)?;
    }

    /// The chain under Poisson arrivals and a burst, unit weights.
    #[test]
    fn chain_arrivals_unit_weights(seed in any::<u64>(), n in 4usize..60, slots in 1usize..13) {
        arrival_chain(seed, n, &[1.0], slots)?;
    }

    /// The chain under Poisson arrivals and a burst, weights from
    /// {0.5, 1, 2, 4}.
    #[test]
    fn chain_arrivals_weighted(seed in any::<u64>(), n in 4usize..60, slots in 1usize..13) {
        arrival_chain(seed, n, &[0.5, 1.0, 2.0, 4.0], slots)?;
    }
}
