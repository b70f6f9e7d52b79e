//! Incremental predictor against rebuild-per-event (`experiments bench-pi`).
//!
//! The claim behind `core::incremental`: maintaining the fluid model by
//! **delta updates** (amortized O(log n) per scheduler event, O(1) for
//! rate changes) beats **rebuilding** the prediction with a fresh
//! `fluid::predict` call per event by orders of magnitude once the
//! resident population is large. `bench-pi` asserts a floor on that ratio
//! and nothing else; what the two sides cost in absolute terms is the
//! criterion group `incremental_scaling`'s to track, and the end-to-end
//! benchmark's (`benchmark/`) to budget.
//!
//! * **delta** — a resident population of n queries receives a scripted
//!   stream of arrivals, finishes, re-weights, cost refinements, rate
//!   changes, and clock advances, applied as [`IncrementalFluid`] delta
//!   updates; each event is followed by one O(log n) point estimate (the
//!   "someone is watching this query" read).
//! * **rebuild** — the same stream drives a plain snapshot state, and
//!   every event triggers a full `fluid::predict` over all n queries (the
//!   pre-incremental architecture: re-estimate everything on every
//!   scheduler event, paper §2.3).
//!
//! The delta run ends with a bit-identity audit — `estimates_full`
//! against a fresh `predict` over the extracted live set — so a broken
//! incremental structure cannot pass the floor. Each side runs once: the
//! floor is 10× where the reference box measures over 1000×.

use std::collections::HashMap;
use std::time::Instant;

use mqpi_core::fluid::{predict, FluidQuery};
use mqpi_core::IncrementalFluid;

use crate::campaign::splitmix64;

/// One scripted scheduler event. Ids are dense and FIFO: the generator
/// retires the oldest live query so the population stays within ±1 of n.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    Arrive { id: u64, cost: f64, weight: f64 },
    Finish { id: u64 },
    Reweight { id: u64, weight: f64 },
    Refine { id: u64, cost: f64 },
    Rate { rate: f64 },
    Advance { dt: f64 },
}

/// Deterministic per-query cost in [10^5, 10^6) work units — large enough
/// that the small scripted advances never retire a query mid-stream, so
/// both measurement paths see identical live sets.
fn cost_of(i: u64) -> f64 {
    1e5 + (splitmix64(i) % 900_000) as f64
}

fn weight_of(i: u64) -> f64 {
    [0.5, 1.0, 2.0, 4.0][(splitmix64(i ^ 0xabcd) % 4) as usize]
}

/// Script `events` events over a population seeded with ids `0..n`.
/// Mixture: 2/8 arrivals, 2/8 finishes (oldest first), 1/8 re-weights,
/// 1/8 cost refinements, 1/8 rate changes, 1/8 advances.
pub fn event_stream(n: u64, events: usize) -> Vec<Ev> {
    let mut out = Vec::with_capacity(events);
    let mut head = 0u64; // oldest live id
    let mut next = n; // next fresh id
    for i in 0..events as u64 {
        let pick = head + splitmix64(i ^ 0x5eed) % (next - head);
        out.push(match i % 8 {
            0 | 4 => {
                let id = next;
                next += 1;
                Ev::Arrive {
                    id,
                    cost: cost_of(id),
                    weight: weight_of(id),
                }
            }
            1 | 5 => {
                let id = head;
                head += 1;
                Ev::Finish { id }
            }
            2 => Ev::Reweight {
                id: pick,
                weight: weight_of(pick ^ i),
            },
            3 => Ev::Advance {
                dt: 1e-4 + (splitmix64(i ^ 0xd7) % 100) as f64 * 1e-5,
            },
            6 => Ev::Refine {
                id: pick,
                cost: cost_of(pick ^ i),
            },
            _ => Ev::Rate {
                rate: 800.0 + (splitmix64(i ^ 0x11) % 400) as f64,
            },
        });
    }
    out
}

fn seed_fluid(n: u64) -> IncrementalFluid {
    let mut f = IncrementalFluid::with_capacity(1000.0, n as usize + 64);
    for id in 0..n {
        f.arrive(id, cost_of(id), weight_of(id));
    }
    f
}

fn apply_delta(f: &mut IncrementalFluid, ev: Ev) -> Option<f64> {
    match ev {
        Ev::Arrive { id, cost, weight } => {
            f.arrive(id, cost, weight);
            f.estimate(id)
        }
        Ev::Finish { id } => {
            f.finish(id);
            None
        }
        Ev::Reweight { id, weight } => {
            f.reweight(id, weight);
            f.estimate(id)
        }
        Ev::Refine { id, cost } => {
            f.refine_cost(id, cost);
            f.estimate(id)
        }
        Ev::Rate { rate } => {
            f.set_rate(rate);
            None
        }
        Ev::Advance { dt } => {
            f.advance(dt);
            None
        }
    }
}

/// Drive the event stream through delta updates, audit the result, and
/// return the amortized nanoseconds per event (apply + one point estimate).
pub fn delta(n: u64, events: usize) -> Result<f64, String> {
    let stream = event_stream(n, events);
    let mut sink = 0.0f64;
    let mut f = seed_fluid(n);
    let t0 = Instant::now();
    for &ev in &stream {
        if let Some(e) = apply_delta(&mut f, ev) {
            sink += e;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    audit(&mut f)?;
    if !sink.is_finite() {
        return Err(format!("non-finite estimate sink {sink}"));
    }
    Ok(wall_s * 1e9 / events as f64)
}

/// A broken incremental structure must not pass the floor: the
/// maintained state must still reproduce a fresh `predict` bit-for-bit.
fn audit(f: &mut IncrementalFluid) -> Result<(), String> {
    let mut live = Vec::with_capacity(f.len());
    f.extract_into(&mut live);
    let rate = f.rate();
    let maintained = f.estimates_full(&[], None, None);
    let fresh = predict(&live, &[], None, None, rate);
    if maintained.finish_times.len() != fresh.finish_times.len() {
        return Err("audit: estimate count mismatch".into());
    }
    for (a, b) in maintained
        .finish_times
        .iter()
        .zip(fresh.finish_times.iter())
    {
        if a.0 != b.0 || a.1.to_bits() != b.1.to_bits() {
            return Err(format!(
                "audit: maintained estimate for {} = {} != fresh {} ({})",
                a.0, a.1, b.1, b.0
            ));
        }
    }
    Ok(())
}

/// Drive the same stream through the pre-incremental architecture: a
/// snapshot state plus a full `fluid::predict` over all n queries after
/// every event. `events` is small because each event costs O(n log n).
/// Returns the amortized nanoseconds per event.
pub fn rebuild(n: u64, events: usize) -> Result<f64, String> {
    let stream = event_stream(n, events);
    let mut sink = 0.0f64;
    // Snapshot state: dense vec + id index, the cheapest honest
    // bookkeeping an en-masse rebuilder would keep.
    let mut live: Vec<FluidQuery> = (0..n)
        .map(|id| FluidQuery {
            id,
            cost: cost_of(id),
            weight: weight_of(id),
        })
        .collect();
    let mut index: HashMap<u64, usize> = (0..n).map(|id| (id, id as usize)).collect();
    let mut rate = 1000.0;
    let t0 = Instant::now();
    for &ev in &stream {
        match ev {
            Ev::Arrive { id, cost, weight } => {
                index.insert(id, live.len());
                live.push(FluidQuery { id, cost, weight });
            }
            Ev::Finish { id } => {
                if let Some(i) = index.remove(&id) {
                    live.swap_remove(i);
                    if i < live.len() {
                        index.insert(live[i].id, i);
                    }
                }
            }
            Ev::Reweight { id, weight } => {
                if let Some(&i) = index.get(&id) {
                    live[i].weight = weight;
                }
            }
            Ev::Refine { id, cost } => {
                if let Some(&i) = index.get(&id) {
                    live[i].cost = cost;
                }
            }
            Ev::Rate { rate: r } => rate = r,
            Ev::Advance { .. } => {}
        }
        let p = predict(&live, &[], None, None, rate);
        if p.finish_times.len() != live.len() {
            return Err("rebuild: predict dropped queries".into());
        }
        sink += p.finish_times.last().map_or(0.0, |t| t.1);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    if !sink.is_finite() {
        return Err(format!("non-finite estimate sink {sink}"));
    }
    Ok(wall_s * 1e9 / events as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_and_rebuild_run_clean_at_small_scale() {
        let d = delta(500, 2_000).expect("delta");
        assert!(d > 0.0);
        let r = rebuild(500, 50).expect("rebuild");
        assert!(r > d, "rebuild must cost more");
    }

    #[test]
    fn event_stream_is_deterministic() {
        let a = event_stream(100, 500);
        let b = event_stream(100, 500);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }
}
