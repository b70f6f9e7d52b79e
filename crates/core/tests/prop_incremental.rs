//! Property tests for the incremental fluid predictor: random event
//! sequences (arrivals, finishes, aborts, re-weights, cost refinements,
//! rate changes, clock advances) drive an [`IncrementalFluid`] alongside a
//! deliberately naive O(n²) GPS shadow simulation, and every intermediate
//! estimate is checked three ways:
//!
//! 1. **Bit-exact against the `predict` oracle** — `estimates_full` must
//!    return exactly what a fresh `fluid::predict` call over the extracted
//!    live set returns (same bits, not just close), per the delta-update
//!    contract: alone, and with a random queue, slot limit and arrival
//!    stream on top. `estimates_full` hands the kernel the treap's order;
//!    `fluid::predict` sorts for itself. Some arrivals are placed on an
//!    existing query's tag, where the two orders can disagree.
//! 2. **Analytically against the shadow** — remaining costs and point
//!    estimates must agree with the naive simulation to tight relative
//!    tolerance, so the treap bookkeeping can't drift from the model it
//!    claims to maintain.
//! 3. **Against `predict_reference`** — the dense-timeline reference
//!    implementation, to the same tolerance the snapshot path is held to.
//!
//! 4. **The bulk read against the point read** — after every delta the
//!    one-walk sweep must equal `estimate(id)` bit for bit on every live
//!    id and write no other slot, and every node handle ever handed out
//!    must either still name its query or be refused.
//!
//! Checkpoints are taken at a random cut: the restored structure must
//! re-encode byte-identically and serve bit-identical estimates.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::collections::HashMap;

use proptest::prelude::*;

use common::predict_reference;
use mqpi_ckpt::Wire as _;
use mqpi_core::fluid::{predict, FluidPrediction, FluidQuery, FutureArrivals};
use mqpi_core::IncrementalFluid;

/// One scripted operation, decoded from raw generated scalars.
#[derive(Debug, Clone, Copy)]
enum Op {
    Arrive {
        cost: f64,
        weight: f64,
    },
    /// Arrive on a live query's tag: the same remaining cost per weight,
    /// so the new tag equals the old one or misses it by rounding.
    ArriveTied {
        pick: f64,
        weight: f64,
    },
    Finish {
        pick: f64,
    },
    Abort {
        pick: f64,
    },
    Reweight {
        pick: f64,
        weight: f64,
    },
    RefineCost {
        pick: f64,
        cost: f64,
    },
    SetRate {
        rate: f64,
    },
    Advance {
        dt: f64,
    },
    /// The breaker's self-heal: same model, slots assigned afresh.
    Rebuild,
    /// Encode and decode in place: same model, slots assigned afresh.
    Recode,
}

fn arb_ops(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..14, 0.0f64..1.0, 0.0f64..1.0), 1..max_len).prop_map(|raw| {
        raw.into_iter()
            .map(|(sel, a, b)| match sel {
                // Bias toward arrivals so the structure grows.
                0..=3 => Op::Arrive {
                    cost: 1.0 + a * 2000.0,
                    weight: [0.5, 1.0, 2.0, 4.0][(b * 4.0) as usize % 4],
                },
                4 => Op::Finish { pick: a },
                5 => Op::Abort { pick: a },
                6 => Op::Reweight {
                    pick: a,
                    weight: [0.5, 1.0, 2.0, 4.0][(b * 4.0) as usize % 4],
                },
                7 => Op::RefineCost {
                    pick: a,
                    cost: 1.0 + b * 2000.0,
                },
                8 => Op::SetRate {
                    rate: 10.0 + a * 400.0,
                },
                9 => Op::Advance { dt: a * 8.0 },
                10 => Op::Rebuild,
                11 => Op::Recode,
                _ => Op::ArriveTied {
                    pick: a,
                    weight: [0.5, 1.0, 2.0, 4.0, 0.3, 3.7][(b * 6.0) as usize % 6],
                },
            })
            .collect()
    })
}

/// What rides on the live set in the full estimate of one case: a queue,
/// a slot limit and a predicted arrival stream.
#[derive(Debug, Clone)]
struct Load {
    queued: Vec<FluidQuery>,
    slots: Option<usize>,
    future: Option<FutureArrivals>,
}

fn arb_load() -> impl Strategy<Value = Load> {
    (
        prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..6),
        0usize..8,
        0.0f64..0.2,
        1usize..40,
    )
        .prop_map(|(raw, slots_off, lam, cap)| Load {
            queued: raw
                .into_iter()
                .enumerate()
                .map(|(i, (a, b))| FluidQuery {
                    id: 1_000_000 + i as u64,
                    cost: 1.0 + a * 2000.0,
                    weight: [0.5, 1.0, 2.0, 4.0][(b * 4.0) as usize % 4],
                })
                .collect(),
            // 0 means no limit; otherwise 1..=7, often below the live count.
            slots: (slots_off > 0).then_some(slots_off),
            future: (lam > 0.02).then(|| FutureArrivals {
                max_arrivals: cap,
                ..FutureArrivals::from_rate(lam, 500.0, 1.0).unwrap()
            }),
        })
}

fn assert_same_bits(got: &FluidPrediction, want: &FluidPrediction) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.truncated, want.truncated);
    prop_assert_eq!(got.finish_times.len(), want.finish_times.len());
    for (a, b) in got.finish_times.iter().zip(want.finish_times.iter()) {
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(
            a.1.to_bits(),
            b.1.to_bits(),
            "estimates_full not bit-identical to fresh predict for {}",
            a.0
        );
    }
    Ok(())
}

/// Naive GPS fluid simulation: each live query drains at
/// `rate · w_i / W`; advancing crosses completion boundaries one at a
/// time. O(n) per boundary, recomputed from scratch — slow and obviously
/// correct.
struct Shadow {
    live: Vec<FluidQuery>,
    rate: f64,
}

impl Shadow {
    fn advance(&mut self, mut dt: f64) {
        while dt > 0.0 && !self.live.is_empty() {
            let w_tot: f64 = self.live.iter().map(|q| q.weight).sum();
            // Time to the earliest completion at current membership.
            let dtc = self
                .live
                .iter()
                .map(|q| q.cost * w_tot / (self.rate * q.weight))
                .fold(f64::INFINITY, f64::min);
            let step = dtc.min(dt);
            for q in &mut self.live {
                q.cost -= step * self.rate * q.weight / w_tot;
            }
            // Work-unit slack ~ seconds·rate scaled; completions in the
            // treap trigger on a 1e-9 virtual-time epsilon, so allow the
            // shadow a little float drift at the boundary.
            self.live.retain(|q| q.cost > 1e-6);
            dt -= step;
        }
    }
}

fn recode(inc: &IncrementalFluid) -> IncrementalFluid {
    let mut e = mqpi_ckpt::Enc::new();
    inc.enc(&mut e);
    let bytes = e.into_bytes();
    IncrementalFluid::dec(&mut mqpi_ckpt::Dec::new(&bytes)).expect("decode")
}

/// (4) of the module docs. `handles` holds every `(id, slot)` handed out
/// so far, departed ids included; the live ones are refreshed on the way
/// out.
fn check_bulk_read(
    inc: &IncrementalFluid,
    live: &[FluidQuery],
    handles: &mut HashMap<u64, u32>,
) -> Result<(), TestCaseError> {
    let mut col = Vec::new();
    inc.sweep_into(&mut col);
    for q in live {
        let slot = inc.slot_of(q.id).expect("live id has a slot");
        let point = inc.estimate(q.id).expect("live id has an estimate");
        prop_assert_eq!(
            col[slot as usize].to_bits(),
            point.to_bits(),
            "sweep differs from estimate({}): {} vs {}",
            q.id,
            col[slot as usize],
            point
        );
        prop_assert_eq!(
            inc.estimate_at(slot, q.id).map(f64::to_bits),
            Some(point.to_bits())
        );
    }
    // A column that came in empty has a number in the live slots only.
    prop_assert_eq!(col.iter().filter(|e| !e.is_nan()).count(), inc.len());
    for (&id, &slot) in handles.iter() {
        let current = inc.slot_of(id) == Some(slot);
        prop_assert_eq!(inc.holds(slot, id), current, "handle ({}, {})", id, slot);
        prop_assert_eq!(
            inc.estimate_at(slot, id).map(f64::to_bits),
            inc.estimate(id).filter(|_| current).map(f64::to_bits),
            "stale handle ({}, {}) was served",
            id,
            slot
        );
    }
    handles.extend(
        live.iter()
            .map(|q| (q.id, inc.slot_of(q.id).expect("live"))),
    );
    Ok(())
}

fn pick_id(live: &[FluidQuery], pick: f64) -> Option<u64> {
    if live.is_empty() {
        return None;
    }
    let i = ((pick * live.len() as f64) as usize).min(live.len() - 1);
    Some(live[i].id)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The maintained structure, the naive shadow, the `predict` oracle,
    /// and `predict_reference` all tell the same story at every step.
    #[test]
    fn random_event_streams_match_oracles(
        ops in arb_ops(60),
        rate0 in 20.0f64..200.0,
        load in arb_load(),
    ) {
        let mut inc = IncrementalFluid::new(rate0);
        let mut shadow = Shadow { live: Vec::new(), rate: rate0 };
        let mut next_id = 0u64;
        let mut due = Vec::new();
        let mut extracted = Vec::new();
        let mut handles = HashMap::new();

        for op in ops {
            match op {
                Op::Arrive { cost, weight } => {
                    inc.arrive(next_id, cost, weight);
                    shadow.live.push(FluidQuery { id: next_id, cost, weight });
                    next_id += 1;
                }
                Op::ArriveTied { pick, weight } => {
                    // The shadow may still hold a query the treap retired.
                    let tied = pick_id(&shadow.live, pick)
                        .and_then(|id| Some(inc.remaining_cost(id)? / inc.weight_of(id)?));
                    if let Some(per_weight) = tied {
                        let cost = per_weight * weight;
                        inc.arrive(next_id, cost, weight);
                        shadow.live.push(FluidQuery { id: next_id, cost, weight });
                        next_id += 1;
                    }
                }
                Op::Finish { pick } => {
                    if let Some(id) = pick_id(&shadow.live, pick) {
                        prop_assert!(inc.finish(id), "finish({id}) not live in treap");
                        shadow.live.retain(|q| q.id != id);
                    }
                }
                Op::Abort { pick } => {
                    if let Some(id) = pick_id(&shadow.live, pick) {
                        prop_assert!(inc.abort(id), "abort({id}) not live in treap");
                        shadow.live.retain(|q| q.id != id);
                    }
                }
                Op::Reweight { pick, weight } => {
                    if let Some(id) = pick_id(&shadow.live, pick) {
                        let slot = inc.slot_of(id);
                        prop_assert!(inc.reweight(id, weight));
                        prop_assert_eq!(inc.slot_of(id), slot, "reweight keeps the slot");
                        let q = shadow.live.iter_mut().find(|q| q.id == id).unwrap();
                        q.weight = weight;
                    }
                }
                Op::RefineCost { pick, cost } => {
                    if let Some(id) = pick_id(&shadow.live, pick) {
                        let slot = inc.slot_of(id);
                        prop_assert!(inc.refine_cost(id, cost));
                        prop_assert_eq!(inc.slot_of(id), slot, "refine_cost keeps the slot");
                        let q = shadow.live.iter_mut().find(|q| q.id == id).unwrap();
                        q.cost = cost;
                    }
                }
                Op::SetRate { rate } => {
                    inc.set_rate(rate);
                    shadow.rate = rate;
                }
                Op::Advance { dt } => {
                    inc.advance(dt);
                    due.clear();
                    inc.drain_due(&mut due);
                    shadow.advance(dt);
                }
                Op::Rebuild => prop_assert_eq!(inc.rebuild(), 0),
                Op::Recode => inc = recode(&inc),
            }

            // Live sets agree, modulo boundary-epsilon completions: a
            // query one side retired may linger in the other only with a
            // negligible residual.
            for q in &shadow.live {
                if !inc.contains(q.id) {
                    prop_assert!(
                        q.cost < 1e-3,
                        "treap retired {} early (shadow cost {})", q.id, q.cost
                    );
                }
            }
            let mut shadow_ids: Vec<u64> = shadow.live.iter().map(|q| q.id).collect();
            shadow_ids.sort_unstable();
            extracted.clear();
            inc.extract_into(&mut extracted);
            for q in &extracted {
                if shadow_ids.binary_search(&q.id).is_err() {
                    prop_assert!(
                        q.cost < 1e-3,
                        "shadow retired {} early (treap cost {})", q.id, q.cost
                    );
                }
            }

            // (1) Bit-exact vs the predict oracle over the extracted set,
            // alone and under the case's load.
            let full = inc.estimates_full(&[], None, None);
            let fresh = predict(&extracted, &[], None, None, inc.rate());
            assert_same_bits(&full, &fresh)?;
            assert_same_bits(&inc.estimates_unhinted(&[], None, None), &fresh)?;
            let future = load.future.as_ref();
            assert_same_bits(
                &inc.estimates_full(&load.queued, load.slots, future),
                &predict(&extracted, &load.queued, load.slots, future, inc.rate()),
            )?;

            // (4) The bulk read and the node handles.
            check_bulk_read(&inc, &extracted, &mut handles)?;

            // (2) Remaining costs and point estimates vs the naive shadow.
            let reference = predict_reference(&extracted, &[], None, None, inc.rate());
            for q in &shadow.live {
                if q.cost < 1e-3 || !inc.contains(q.id) {
                    continue;
                }
                let rc = inc.remaining_cost(q.id).unwrap();
                prop_assert!(
                    (rc - q.cost).abs() <= 1e-6 * q.cost.max(1.0),
                    "remaining_cost({}) = {} vs shadow {}", q.id, rc, q.cost
                );
                let est = inc.estimate(q.id).unwrap();
                let oracle = fresh.remaining_for(q.id).unwrap();
                prop_assert!(
                    (est - oracle).abs() <= 1e-6 * oracle.max(1.0),
                    "estimate({}) = {} vs oracle {}", q.id, est, oracle
                );
                // (3) And the dense reference timeline agrees.
                let rf = reference.remaining_for(q.id).unwrap();
                prop_assert!(
                    (est - rf).abs() <= 1e-5 * rf.max(1.0),
                    "estimate({}) = {} vs reference {}", q.id, est, rf
                );
            }
        }
    }

    /// Checkpointing at a random cut of the stream: byte-identical
    /// re-encode, bit-identical estimates, identical future evolution.
    #[test]
    fn checkpoint_cut_preserves_everything(ops in arb_ops(40), rate0 in 20.0f64..200.0, cut in 0.0f64..1.0) {
        let mut inc = IncrementalFluid::new(rate0);
        let mut next_id = 0u64;
        let mut live: Vec<u64> = Vec::new();
        let cut_at = (cut * ops.len() as f64) as usize;
        let mut due = Vec::new();

        let apply = |inc: &mut IncrementalFluid, live: &mut Vec<u64>, next_id: &mut u64, due: &mut Vec<u64>, op: Op| {
            match op {
                Op::Arrive { cost, weight } => {
                    inc.arrive(*next_id, cost, weight);
                    live.push(*next_id);
                    *next_id += 1;
                }
                Op::ArriveTied { pick, weight } => {
                    if !live.is_empty() {
                        let i = ((pick * live.len() as f64) as usize).min(live.len() - 1);
                        let per_weight =
                            inc.remaining_cost(live[i]).unwrap() / inc.weight_of(live[i]).unwrap();
                        inc.arrive(*next_id, per_weight * weight, weight);
                        live.push(*next_id);
                        *next_id += 1;
                    }
                }
                Op::Finish { pick } | Op::Abort { pick } => {
                    if !live.is_empty() {
                        let i = ((pick * live.len() as f64) as usize).min(live.len() - 1);
                        let id = live.swap_remove(i);
                        inc.finish(id);
                    }
                }
                Op::Reweight { pick, weight } => {
                    if !live.is_empty() {
                        let i = ((pick * live.len() as f64) as usize).min(live.len() - 1);
                        inc.reweight(live[i], weight);
                    }
                }
                Op::RefineCost { pick, cost } => {
                    if !live.is_empty() {
                        let i = ((pick * live.len() as f64) as usize).min(live.len() - 1);
                        inc.refine_cost(live[i], cost);
                    }
                }
                Op::SetRate { rate } => inc.set_rate(rate),
                Op::Advance { dt } => {
                    inc.advance(dt);
                    due.clear();
                    inc.drain_due(due);
                    live.retain(|id| inc.contains(*id));
                }
                Op::Rebuild => {
                    inc.rebuild();
                }
                Op::Recode => *inc = recode(inc),
            }
        };

        for &op in &ops[..cut_at] {
            apply(&mut inc, &mut live, &mut next_id, &mut due, op);
        }

        let mut e = mqpi_ckpt::Enc::new();
        inc.enc(&mut e);
        let bytes = e.into_bytes();
        let mut d = mqpi_ckpt::Dec::new(&bytes);
        let mut restored = IncrementalFluid::dec(&mut d).expect("decode");
        prop_assert!(d.is_exhausted());

        let mut e2 = mqpi_ckpt::Enc::new();
        restored.enc(&mut e2);
        prop_assert_eq!(&bytes, &e2.into_bytes(), "re-encode must be byte-identical");

        // Replay the tail of the stream against both structures.
        let mut live2 = live.clone();
        let mut next2 = next_id;
        let mut due2 = Vec::new();
        for &op in &ops[cut_at..] {
            apply(&mut inc, &mut live, &mut next_id, &mut due, op);
            apply(&mut restored, &mut live2, &mut next2, &mut due2, op);
            prop_assert_eq!(inc.len(), restored.len());
            prop_assert_eq!(inc.virtual_time().to_bits(), restored.virtual_time().to_bits());
            for &id in &live {
                match (inc.estimate(id), restored.estimate(id)) {
                    (Some(a), Some(b)) => prop_assert_eq!(
                        a.to_bits(), b.to_bits(),
                        "estimate({}) diverged after restore", id
                    ),
                    (a, b) => prop_assert_eq!(a.is_some(), b.is_some()),
                }
            }
        }
    }
}
