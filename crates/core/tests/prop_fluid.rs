//! Property-based tests for the fluid model — the analytical core of the
//! multi-query PI (paper §2.2).

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use proptest::prelude::*;

use common::predict_reference;
use mqpi_core::fluid::{predict, standard_remaining_times, FluidQuery, FutureArrivals};

fn q(id: u64, cost: f64, weight: f64) -> FluidQuery {
    FluidQuery { id, cost, weight }
}

/// One hand-built case of the property below: a queue behind two slots and
/// an arrival stream.
#[test]
fn virtual_time_agrees_with_reference_sweep() {
    let running = [q(1, 500.0, 1.0), q(2, 100.0, 2.0), q(3, 321.0, 0.5)];
    let queued = [q(4, 200.0, 1.0), q(5, 50.0, 4.0)];
    let f = FutureArrivals {
        period: 1.5,
        cost: 120.0,
        weight: 1.0,
        max_arrivals: 64,
    };
    let fast = predict(&running, &queued, Some(2), Some(&f), 100.0);
    let slow = predict_reference(&running, &queued, Some(2), Some(&f), 100.0);
    assert_eq!(fast.truncated, slow.truncated);
    assert_eq!(fast.finish_times.len(), slow.finish_times.len());
    for (id, t) in &slow.finish_times {
        let got = fast.remaining_for(*id).unwrap();
        assert!((got - t).abs() < 1e-6, "id {id}: {got} vs {t}");
    }
}

fn arb_queries(max_n: usize) -> impl Strategy<Value = Vec<FluidQuery>> {
    prop::collection::vec(
        (
            1.0f64..5000.0,
            prop::sample::select(vec![0.5, 1.0, 2.0, 4.0]),
        ),
        1..max_n,
    )
    .prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (cost, weight))| FluidQuery {
                id: i as u64,
                cost,
                weight,
            })
            .collect()
    })
}

proptest! {
    /// The closed form and the event-driven simulation are the same model.
    #[test]
    fn closed_form_equals_event_simulation(qs in arb_queries(12), rate in 1.0f64..500.0) {
        let closed = standard_remaining_times(&qs, rate);
        let p = predict(&qs, &[], None, None, rate);
        for (i, q) in qs.iter().enumerate() {
            let ev = p.remaining_for(q.id).unwrap();
            prop_assert!(
                (ev - closed[i]).abs() < 1e-6 * closed[i].max(1.0),
                "query {}: closed {} vs event {}",
                q.id, closed[i], ev
            );
        }
    }

    /// Queries finish in ascending c/w order (the paper's induction).
    #[test]
    fn finish_order_follows_virtual_time(qs in arb_queries(12), rate in 1.0f64..500.0) {
        let times = standard_remaining_times(&qs, rate);
        let mut idx: Vec<usize> = (0..qs.len()).collect();
        idx.sort_by(|&a, &b| {
            (qs[a].cost / qs[a].weight).total_cmp(&(qs[b].cost / qs[b].weight))
        });
        for w in idx.windows(2) {
            prop_assert!(times[w[0]] <= times[w[1]] + 1e-9);
        }
    }

    /// Work conservation: the last completion is exactly total work / C.
    #[test]
    fn work_conservation(qs in arb_queries(12), rate in 1.0f64..500.0) {
        let times = standard_remaining_times(&qs, rate);
        let last = times.iter().cloned().fold(0.0, f64::max);
        let total: f64 = qs.iter().map(|q| q.cost).sum();
        prop_assert!((last - total / rate).abs() < 1e-6 * (total / rate).max(1.0));
    }

    /// Every query's remaining time is at least its isolated run time and
    /// at most the fully-serialized time.
    #[test]
    fn remaining_time_bounds(qs in arb_queries(12), rate in 1.0f64..500.0) {
        let times = standard_remaining_times(&qs, rate);
        let total: f64 = qs.iter().map(|q| q.cost).sum();
        for (q, t) in qs.iter().zip(&times) {
            prop_assert!(*t >= q.cost / rate - 1e-9, "faster than isolated run");
            prop_assert!(*t <= total / rate + 1e-9, "slower than serialized");
        }
    }

    /// Adding cost to one query never speeds anyone up (monotonicity).
    #[test]
    fn monotone_in_cost(qs in arb_queries(10), extra in 1.0f64..1000.0, rate in 1.0f64..200.0) {
        let base = standard_remaining_times(&qs, rate);
        let mut bigger = qs.clone();
        bigger[0].cost += extra;
        let after = standard_remaining_times(&bigger, rate);
        for (b, a) in base.iter().zip(&after) {
            prop_assert!(*a >= *b - 1e-9);
        }
    }

    /// An admission limit never helps the queued query and never hurts a
    /// query that is already running relative to… actually: with a limit,
    /// running queries finish no later than the no-limit prediction where
    /// queued queries start immediately (they face less concurrency).
    #[test]
    fn admission_limit_helps_running_queries(
        qs in arb_queries(8),
        queued in arb_queries(4),
        rate in 1.0f64..200.0,
    ) {
        let queued: Vec<FluidQuery> = queued
            .into_iter()
            .enumerate()
            .map(|(i, mut q)| {
                q.id = 1000 + i as u64;
                q
            })
            .collect();
        let slots = qs.len(); // exactly the running set fits
        let limited = predict(&qs, &queued, Some(slots), None, rate);
        let unlimited = {
            let mut all = qs.clone();
            all.extend(queued.iter().cloned());
            predict(&all, &[], None, None, rate)
        };
        for q in &qs {
            let l = limited.remaining_for(q.id).unwrap();
            let u = unlimited.remaining_for(q.id).unwrap();
            prop_assert!(l <= u + 1e-6, "query {}: limited {} > unlimited {}", q.id, l, u);
        }
    }

    /// The virtual-time heap predictor is a drop-in replacement for the
    /// reference event sweep across random running/queued/slots/future
    /// configurations.
    #[test]
    fn virtual_time_matches_reference_sweep(
        qs in arb_queries(10),
        queued in arb_queries(6),
        slots_off in 0usize..6,
        lam in 0.0f64..0.05,
        rate in 1.0f64..200.0,
    ) {
        let queued: Vec<FluidQuery> = queued
            .into_iter()
            .enumerate()
            .map(|(i, mut q)| {
                q.id = 1000 + i as u64;
                q
            })
            .collect();
        // slots_off = 0 ⇒ unlimited; otherwise a limit from 1 upward, so
        // both "queue drains gradually" and "all admitted at once" occur.
        let slots = (slots_off > 0).then_some(slots_off);
        let future = (lam > 1e-3)
            .then(|| FutureArrivals::from_rate(lam, 500.0, 1.0).unwrap());
        let fast = predict(&qs, &queued, slots, future.as_ref(), rate);
        let reference = predict_reference(&qs, &queued, slots, future.as_ref(), rate);
        prop_assert_eq!(fast.truncated, reference.truncated);
        prop_assert_eq!(fast.finish_times.len(), reference.finish_times.len());
        for (id, t_ref) in &reference.finish_times {
            let t = fast.remaining_for(*id);
            prop_assert!(t.is_some(), "query {} missing from virtual-time result", id);
            let t = t.unwrap();
            prop_assert!(
                (t - t_ref).abs() < 1e-6 * t_ref.max(1.0),
                "query {}: virtual-time {} vs reference {}",
                id, t, t_ref
            );
        }
    }

    /// Future arrivals only ever push estimates up, monotonically in λ.
    #[test]
    fn future_load_is_monotone_in_lambda(
        qs in arb_queries(8),
        rate in 10.0f64..200.0,
        lam1 in 0.005f64..0.05,
        bump in 1.1f64..3.0,
    ) {
        let lam2 = lam1 * bump;
        let f1 = FutureArrivals::from_rate(lam1, 300.0, 1.0).unwrap();
        let f2 = FutureArrivals::from_rate(lam2, 300.0, 1.0).unwrap();
        let base = predict(&qs, &[], None, None, rate);
        let p1 = predict(&qs, &[], None, Some(&f1), rate);
        let p2 = predict(&qs, &[], None, Some(&f2), rate);
        for q in &qs {
            let b = base.remaining_for(q.id).unwrap();
            let t1 = p1.remaining_for(q.id).unwrap();
            let t2 = p2.remaining_for(q.id).unwrap();
            prop_assert!(t1 >= b - 1e-9);
            prop_assert!(t2 >= t1 - 1e-6, "λ↑ should not speed things up");
        }
    }
}
