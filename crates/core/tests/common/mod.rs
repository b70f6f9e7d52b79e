//! Oracles shared by the fluid-model property suites.

use std::collections::VecDeque;

use mqpi_core::fluid::{FluidPrediction, FluidQuery, FutureArrivals};

#[derive(Debug, Clone)]
struct Live {
    /// `None` for virtual (predicted future) queries.
    id: Option<u64>,
    cost: f64,
    weight: f64,
}

impl Live {
    fn tracked(q: &FluidQuery) -> Self {
        Live {
            id: Some(q.id),
            cost: q.cost.max(0.0),
            weight: q.weight,
        }
    }
}

/// The dense `O(events × n)` fluid sweep that `fluid::predict` replaced:
/// every event recomputes the weight sum and decrements every running
/// cost. It accumulates rounding in a different order from `predict`, so
/// agreement with it is held to a tolerance, never to the bit.
pub fn predict_reference(
    running: &[FluidQuery],
    queued: &[FluidQuery],
    slots: Option<usize>,
    future: Option<&FutureArrivals>,
    rate: f64,
) -> FluidPrediction {
    assert!(rate > 0.0, "rate must be positive");
    if let Some(k) = slots {
        assert!(k >= 1, "admission limit must be at least 1");
    }
    let mut run: Vec<Live> = running.iter().map(Live::tracked).collect();
    let mut queue: VecDeque<Live> = queued.iter().map(Live::tracked).collect();
    let mut finish: Vec<(u64, f64)> = Vec::with_capacity(run.len() + queue.len());
    let mut t = 0.0;
    let mut truncated = false;
    let mut arrivals_made = 0usize;
    let mut next_arrival = future.map(|f| f.period);

    let tracked_left = |run: &[Live], queue: &VecDeque<Live>| {
        run.iter().any(|q| q.id.is_some()) || queue.iter().any(|q| q.id.is_some())
    };

    const EPS: f64 = 1e-9;
    // Admit initially if there is spare capacity.
    admit(&mut run, &mut queue, slots);
    while tracked_left(&run, &queue) {
        if run.is_empty() {
            // Only possible when queue is empty too (admit always fills
            // slots ≥ 1) — but tracked_left said otherwise; defensive break.
            break;
        }
        let total_w: f64 = run.iter().map(|q| q.weight).sum();
        // Time to next completion.
        let dt_finish = run
            .iter()
            .map(|q| q.cost * total_w / (rate * q.weight))
            .fold(f64::INFINITY, f64::min)
            .max(0.0);
        // Time to next virtual arrival.
        let dt_arrival = match (future, next_arrival) {
            (Some(f), Some(at)) if arrivals_made < f.max_arrivals => Some(at - t),
            _ => None,
        };
        let dt = match dt_arrival {
            Some(da) if da < dt_finish - EPS => da,
            _ => dt_finish,
        };
        // Advance all running queries.
        for q in &mut run {
            q.cost -= rate * q.weight / total_w * dt;
        }
        t += dt;
        // Completions.
        let mut i = 0;
        while i < run.len() {
            if run[i].cost <= EPS {
                let q = run.remove(i);
                if let Some(id) = q.id {
                    finish.push((id, t));
                }
            } else {
                i += 1;
            }
        }
        admit(&mut run, &mut queue, slots);
        // Arrival event.
        if let (Some(f), Some(at)) = (future, next_arrival) {
            if arrivals_made < f.max_arrivals && at - t <= EPS {
                queue.push_back(Live {
                    id: None,
                    cost: f.cost,
                    weight: f.weight,
                });
                arrivals_made += 1;
                next_arrival = Some(at + f.period);
                if arrivals_made == f.max_arrivals {
                    truncated = true;
                }
                admit(&mut run, &mut queue, slots);
            }
        }
    }
    FluidPrediction::new(finish, truncated)
}

fn admit(run: &mut Vec<Live>, queue: &mut VecDeque<Live>, slots: Option<usize>) {
    loop {
        if slots.is_some_and(|k| run.len() >= k) {
            break;
        }
        let Some(q) = queue.pop_front() else {
            break;
        };
        run.push(q);
    }
}
