//! Differential test of the `predict` kernel against the one-heap kernel it
//! replaced, kept below verbatim as the oracle: every query, the running
//! set included, pushed through one `BinaryHeap` and popped one at a time.
//! `predict` (one sort of the running set) and `predict_kernel` given a
//! caller's order of the running set must return what it returns bit for
//! bit — the same ids in the same order with the same `f64` bits, and the
//! same `truncated` flag. The hinted kernel is crate-private, so this runs
//! as a unit-test module (`cargo test -p mqpi-core --lib
//! fluid::kernel_diff`).
//!
//! Inputs are random: many equal `cost/weight` ties, zero, negative, NaN
//! and infinite costs, weights that do not sum exactly, queues behind slot
//! limits, arrival streams cut off at `max_arrivals`, and up to 5 000
//! running queries. Each input is run with hints that are exact, reversed,
//! shuffled, nearly exact, in admission order, and not a permutation (an
//! index repeated, one missing, one out of range), and the kernel's flag
//! must say whether the hint was used.
//!
//! Mutations of `fluid.rs` this test fails on, in release: the sort dropped
//! when a hint is given; the `seq` tie-break dropped from the sort;
//! `total_w` summed in hint order; `drain` counting only the heap;
//! `clock.seq` starting at 0 instead of `running.len()`; the permutation
//! check after the sort removed.

use mqpi_sim::rng::Rng;

use super::{predict, predict_kernel, FluidPrediction, FluidQuery, FutureArrivals};

/// The one-heap kernel, as `fluid::predict` was before the running set was
/// sorted once.
mod oracle {
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, VecDeque};

    use crate::fluid::{FluidPrediction, FluidQuery, FutureArrivals};

    #[derive(Debug, Clone)]
    struct Live {
        /// `None` for virtual (predicted future) queries.
        id: Option<u64>,
        cost: f64,
        weight: f64,
    }

    /// One admitted query in the virtual-time heap. Ordered as a *min*-heap on
    /// the virtual finish tag, with admission sequence as a deterministic
    /// tie-break (`BinaryHeap` is a max-heap, hence the reversed comparisons).
    #[derive(Debug, Clone, Copy)]
    struct Admitted {
        virtual_finish: f64,
        seq: u64,
        id: Option<u64>,
        weight: f64,
    }

    impl PartialEq for Admitted {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }

    impl Eq for Admitted {}

    impl PartialOrd for Admitted {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Admitted {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .virtual_finish
                .total_cmp(&self.virtual_finish)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// Mutable GPS state shared by admission and the event loop.
    struct VirtualClock {
        /// Virtual time `V`: the integral of `rate/W` over real time.
        vt: f64,
        /// Sum of weights of admitted, unfinished queries.
        total_w: f64,
        /// Next admission sequence number.
        seq: u64,
    }

    impl VirtualClock {
        fn admit(&mut self, q: Live, heap: &mut BinaryHeap<Admitted>) {
            heap.push(Admitted {
                virtual_finish: self.vt + q.cost / q.weight,
                seq: self.seq,
                id: q.id,
                weight: q.weight,
            });
            self.seq += 1;
            self.total_w += q.weight;
        }

        /// Admit from the FIFO queue while slots are free.
        fn drain(
            &mut self,
            queue: &mut VecDeque<Live>,
            heap: &mut BinaryHeap<Admitted>,
            slots: Option<usize>,
        ) {
            while slots.is_none_or(|k| heap.len() < k) {
                let Some(q) = queue.pop_front() else {
                    break;
                };
                self.admit(q, heap);
            }
        }
    }

    pub fn predict(
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
        const EPS: f64 = 1e-9;

        let mut heap: BinaryHeap<Admitted> =
            BinaryHeap::with_capacity(running.len() + queued.len() + 1);
        let mut queue: VecDeque<Live> = queued
            .iter()
            .map(|q| Live {
                id: Some(q.id),
                cost: q.cost.max(0.0),
                weight: q.weight,
            })
            .collect();
        let mut clock = VirtualClock {
            vt: 0.0,
            total_w: 0.0,
            seq: 0,
        };
        // Everything already running occupies a slot regardless of `slots`.
        for q in running {
            clock.admit(
                Live {
                    id: Some(q.id),
                    cost: q.cost.max(0.0),
                    weight: q.weight,
                },
                &mut heap,
            );
        }
        clock.drain(&mut queue, &mut heap, slots);

        let mut finish: Vec<(u64, f64)> = Vec::with_capacity(running.len() + queued.len());
        let mut tracked_left = running.len() + queued.len();
        let mut t = 0.0;
        let mut truncated = false;
        let mut arrivals_made = 0usize;
        let mut next_arrival = future.map(|f| f.period);

        while tracked_left > 0 {
            let Some(top) = heap.peek() else {
                // Unreachable: admission always fills at least one slot while
                // tracked queries remain; defensive exit mirrors the reference.
                break;
            };
            let dt_finish = ((top.virtual_finish - clock.vt) * clock.total_w / rate).max(0.0);
            let dt_arrival = match (future, next_arrival) {
                (Some(f), Some(at)) if arrivals_made < f.max_arrivals => Some(at - t),
                _ => None,
            };
            match dt_arrival {
                Some(da) if da < dt_finish - EPS => {
                    // Arrival strictly first: advance the fluid to that instant.
                    clock.vt += da * rate / clock.total_w;
                    t += da;
                }
                _ => {
                    // Completion event: jump straight to the top tag.
                    t += dt_finish;
                    clock.vt = clock.vt.max(top.virtual_finish);
                    while let Some(top) = heap.peek() {
                        // Residual work (v − V)·w ≤ EPS counts as finished, like
                        // the reference's cost ≤ EPS sweep.
                        if (top.virtual_finish - clock.vt) * top.weight > EPS {
                            break;
                        }
                        // invariant: peek above returned Some.
                        let Some(done) = heap.pop() else { break };
                        clock.total_w -= done.weight;
                        if let Some(id) = done.id {
                            finish.push((id, t));
                            tracked_left -= 1;
                        }
                    }
                    if heap.is_empty() {
                        clock.total_w = 0.0; // clear accumulated FP drift
                    }
                    clock.drain(&mut queue, &mut heap, slots);
                }
            }
            // Arrival due at (or within EPS of) the current instant.
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
                    clock.drain(&mut queue, &mut heap, slots);
                }
            }
        }
        FluidPrediction::new(finish, truncated)
    }
}

/// One random prediction input.
struct Case {
    running: Vec<FluidQuery>,
    queued: Vec<FluidQuery>,
    slots: Option<usize>,
    future: Option<FutureArrivals>,
    rate: f64,
}

/// A cost: mostly drawn from a handful of values (with power-of-two
/// weights, many equal `cost/weight` ties), sometimes continuous,
/// sometimes hostile.
fn cost(rng: &mut Rng) -> f64 {
    match rng.below(20) {
        0 => 0.0,
        1 => -rng.range_f64(0.0, 100.0),
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => -0.0,
        6..=12 => [50.0, 100.0, 200.0, 400.0][rng.below(4) as usize],
        _ => rng.range_f64(1.0, 5_000.0),
    }
}

fn weight(rng: &mut Rng) -> f64 {
    if rng.below(3) == 0 {
        // Weights whose sums round, so summation order shows in the bits.
        rng.range_f64(0.1, 3.0)
    } else {
        [0.5, 1.0, 2.0, 4.0][rng.below(4) as usize]
    }
}

fn case(rng: &mut Rng) -> Case {
    let n = match rng.below(10) {
        0 => 0,
        1..=6 => 1 + rng.below(40) as usize,
        7 | 8 => 1 + rng.below(600) as usize,
        _ => 1 + rng.below(5_000) as usize,
    };
    let queries = |rng: &mut Rng, base: u64, k: usize| -> Vec<FluidQuery> {
        (0..k)
            .map(|i| FluidQuery {
                id: base + i as u64,
                cost: cost(rng),
                weight: weight(rng),
            })
            .collect()
    };
    let running = queries(rng, 0, n);
    let queued_n = if rng.below(2) == 0 {
        0
    } else {
        rng.below(30) as usize
    };
    let queued = queries(rng, 1 << 32, queued_n);
    let slots = match rng.below(3) {
        0 => None,
        1 => Some(1 + rng.below(8) as usize),
        _ => Some(1 + n + rng.below(4) as usize),
    };
    let future = (rng.below(2) == 0).then(|| FutureArrivals {
        period: rng.range_f64(0.01, 5.0),
        cost: [100.0, 400.0, rng.range_f64(1.0, 1_000.0)][rng.below(3) as usize],
        weight: [1.0, 2.0, 0.7][rng.below(3) as usize],
        // Small caps truncate; the loop ends when the tracked set drains.
        max_arrivals: 1 + rng.below(60) as usize,
    });
    Case {
        running,
        queued,
        slots,
        future,
        rate: rng.range_f64(1.0, 500.0),
    }
}

/// The running set's indices by `(0 + cost.max(0)/weight, index)`: the
/// order the kernel pops them in.
fn exact_order(running: &[FluidQuery]) -> Vec<u32> {
    let d = |i: u32| {
        let q = &running[i as usize];
        0.0 + q.cost.max(0.0) / q.weight
    };
    let mut order: Vec<u32> = (0..running.len() as u32).collect();
    order.sort_by(|&a, &b| d(a).total_cmp(&d(b)).then(a.cmp(&b)));
    order
}

fn shuffle(rng: &mut Rng, v: &mut [u32]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Whether the kernel is to use `order` as the order of `0..n`: once the
/// indices out of range are dropped, it must hold each exactly once.
fn is_permutation(order: &[u32], n: usize) -> bool {
    let mut kept: Vec<u32> = order
        .iter()
        .copied()
        .filter(|&i| (i as usize) < n)
        .collect();
    kept.sort_unstable();
    kept.iter().copied().eq(0..n as u32)
}

/// Hints to try on `running`, by name; `repeated`, `missing` and
/// `out_of_range` are not permutations (but for tiny `n`), while
/// `one_too_many` is one once its out-of-range entry is dropped.
fn hints(rng: &mut Rng, running: &[FluidQuery]) -> Vec<(&'static str, Vec<u32>)> {
    let n = running.len();
    let exact = exact_order(running);
    let mut reversed = exact.clone();
    reversed.reverse();
    let mut shuffled = exact.clone();
    shuffle(rng, &mut shuffled);
    let mut near = exact.clone();
    for _ in 0..(n / 50).max(1) {
        if n >= 2 {
            let i = rng.below(n as u64 - 1) as usize;
            near.swap(i, i + 1);
        }
    }
    let admission: Vec<u32> = (0..n as u32).collect();
    let mut out = vec![
        ("exact", exact.clone()),
        ("reversed", reversed),
        ("shuffled", shuffled),
        ("near", near),
        ("admission", admission),
        ("empty", Vec::new()),
    ];
    if n >= 2 {
        let (i, j) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
        let mut repeated = exact.clone();
        let twin = repeated[(i + 1) % n];
        repeated[i] = twin;
        out.push(("repeated", repeated));
        let mut missing = exact.clone();
        missing.remove(j);
        out.push(("missing", missing));
    }
    let mut out_of_range = exact.clone();
    if let Some(k) = out_of_range.first_mut() {
        *k = n as u32;
    }
    out.push(("out_of_range", out_of_range));
    let mut extra = exact;
    extra.push(n as u32);
    out.push(("one_too_many", extra));
    out
}

fn assert_bit_identical(what: &str, got: &FluidPrediction, want: &FluidPrediction) {
    assert_eq!(got.truncated, want.truncated, "{what}: truncated");
    assert_eq!(
        got.finish_times.len(),
        want.finish_times.len(),
        "{what}: finish count"
    );
    for (k, (a, b)) in got
        .finish_times
        .iter()
        .zip(want.finish_times.iter())
        .enumerate()
    {
        assert_eq!(a.0, b.0, "{what}: id at position {k}");
        assert_eq!(
            a.1.to_bits(),
            b.1.to_bits(),
            "{what}: finish time of {} ({} vs {})",
            a.0,
            a.1,
            b.1
        );
    }
}

/// `predict_kernel` with `order` as the hint, holding its flag to
/// [`is_permutation`].
fn predict_hinted(
    what: &str,
    running: &[FluidQuery],
    order: &[u32],
    queued: &[FluidQuery],
    slots: Option<usize>,
    future: Option<&FutureArrivals>,
    rate: f64,
) -> FluidPrediction {
    let (p, hinted) = predict_kernel(running, Some(order), queued, slots, future, rate);
    assert_eq!(
        hinted,
        is_permutation(order, running.len()),
        "{what}: hint used"
    );
    p
}

#[test]
fn sorted_and_hinted_kernels_equal_the_one_heap_kernel() {
    let mut rng = Rng::seed_from_u64(0x0050_5245_4449_4354); // "PREDICT"
    let mut truncated = 0;
    let mut rejected = 0;
    for c in 0..300 {
        let k = case(&mut rng);
        let future = k.future.as_ref();
        let want = oracle::predict(&k.running, &k.queued, k.slots, future, k.rate);
        truncated += usize::from(want.truncated);
        let got = predict(&k.running, &k.queued, k.slots, future, k.rate);
        assert_bit_identical(&format!("case {c}, predict"), &got, &want);
        for (name, order) in hints(&mut rng, &k.running) {
            let what = format!("case {c}, hint {name}");
            rejected += usize::from(!is_permutation(&order, k.running.len()));
            let got = predict_hinted(
                &what, &k.running, &order, &k.queued, k.slots, future, k.rate,
            );
            assert_bit_identical(&what, &got, &want);
        }
    }
    assert!(truncated >= 20, "only {truncated} cases hit max_arrivals");
    assert!(
        rejected >= 300,
        "only {rejected} hints were not permutations"
    );
}

/// Every running query tied on `cost/weight`: the order is the `seq`
/// tie-break alone, and any hint must be sorted back to admission order.
#[test]
fn all_tied_running_set_pops_in_admission_order() {
    let mut rng = Rng::seed_from_u64(7);
    let running: Vec<FluidQuery> = (0..2_000)
        .map(|i| {
            let w = [0.5, 1.0, 2.0, 4.0][i % 4];
            FluidQuery {
                id: 10_000 - i as u64,
                cost: 300.0 * w,
                weight: w,
            }
        })
        .collect();
    let queued = [FluidQuery {
        id: 1,
        cost: 300.0,
        weight: 1.0,
    }];
    let want = oracle::predict(&running, &queued, None, None, 50.0);
    let ids: Vec<u64> = want.finish_times.iter().map(|&(id, _)| id).collect();
    let admission: Vec<u64> = running.iter().map(|q| q.id).chain([1]).collect();
    assert_eq!(ids, admission);
    for (name, order) in hints(&mut rng, &running) {
        let got = predict_hinted(name, &running, &order, &queued, None, None, 50.0);
        assert_bit_identical(name, &got, &want);
    }
    assert_bit_identical(
        "predict",
        &predict(&running, &queued, None, None, 50.0),
        &want,
    );
}
