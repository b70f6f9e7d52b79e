//! The generalized-processor-sharing fluid model underlying the multi-query
//! PI (paper §2.2–2.4).
//!
//! Under Assumptions 1–3, `n` concurrent queries with remaining costs `c_i`
//! and weights `w_i` execute as a fluid: query `i` proceeds at speed
//! `C·w_i/W`. Sorting by the *virtual finish time* `d_i = c_i/w_i` splits
//! execution into `n` stages, and with `W_k = Σ_{j≥k} w_j`:
//!
//! ```text
//! t_k = (d_k − d_{k−1}) · W_k / C          r_i = Σ_{k≤i} t_k
//! ```
//!
//! [`standard_remaining_times`] implements this `O(n log n)` closed form.
//! [`predict`] generalizes it with an event-driven simulation that also
//! models a bounded admission queue (§2.3) and predicted future arrivals
//! every `1/λ` seconds (§2.4); with neither, it reduces exactly to the
//! closed form (property-tested).
//!
//! `predict` runs in *virtual time*: under GPS the virtual finish tag
//! `v_i = V_admit + c_i/w_i` of a query never changes after admission, so
//! completions come off in tag order. The running set is admitted at once,
//! so it is sorted once into that order; a min-heap holds only the later
//! admissions (queued entries and virtual arrivals), and the event loop
//! pops from the sorted run merged with the heap. The cost is one sort plus
//! `O(log h)` per later admission — `O(n log n + arrivals·log h)` — versus
//! the `O(events × n)` dense sweep it replaced (kept as the test oracle
//! `predict_reference` in `tests/common`). A caller that already keeps the
//! running set in tag order (`IncrementalFluid`) passes that order as a
//! hint, and the sort, finding the run already sorted, ends after one pass.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use crate::id_index::IdIndex;

/// One query as the fluid model sees it.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FluidQuery {
    /// Caller-side identifier (echoed in the prediction).
    pub id: u64,
    /// Remaining cost in work units.
    pub cost: f64,
    /// Scheduling weight (> 0).
    pub weight: f64,
}

/// Predicted future arrivals (§2.4): one query of average cost and weight
/// every `period = 1/λ` seconds.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FutureArrivals {
    /// Inter-arrival period `1/λ` in seconds.
    pub period: f64,
    /// Average cost of a future query, in work units.
    pub cost: f64,
    /// Average weight of a future query.
    pub weight: f64,
    /// Cap on injected virtual arrivals — guarantees termination when the
    /// predicted load exceeds capacity (unstable system).
    pub max_arrivals: usize,
}

impl FutureArrivals {
    /// Standard construction from the paper's parameters: arrival rate λ,
    /// average cost c̄, average weight w̄.
    pub fn from_rate(lambda: f64, avg_cost: f64, avg_weight: f64) -> Option<Self> {
        if lambda <= 0.0 {
            return None;
        }
        Some(FutureArrivals {
            period: 1.0 / lambda,
            cost: avg_cost,
            weight: avg_weight,
            max_arrivals: 2000,
        })
    }
}

/// Outcome of a fluid prediction.
#[derive(Debug, Clone)]
pub struct FluidPrediction {
    /// `(id, seconds from now)` for every tracked query in completion
    /// order (simultaneous finishes keep admission order).
    pub finish_times: Vec<(u64, f64)>,
    /// True when the virtual-arrival cap was hit (predicted-unstable
    /// system); estimates are then lower bounds.
    pub truncated: bool,
    /// id → position in `finish_times`, so per-id lookups in driver loops
    /// are O(1) instead of a scan. [`crate::EstimateSet::from_prediction`]
    /// takes it over rather than building its own.
    index: IdIndex,
}

impl FluidPrediction {
    pub fn new(finish_times: Vec<(u64, f64)>, truncated: bool) -> Self {
        let index = IdIndex::build(&finish_times);
        Self {
            finish_times,
            truncated,
            index,
        }
    }

    /// Finish time for one id (its last entry, should the caller have
    /// passed an id twice).
    pub fn remaining_for(&self, id: u64) -> Option<f64> {
        self.index.get(id).map(|pos| self.finish_times[pos].1)
    }

    pub(crate) fn into_parts(self) -> (Vec<(u64, f64)>, IdIndex, bool) {
        (self.finish_times, self.index, self.truncated)
    }
}

static PREDICT_INVOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of [`predict`] calls. Drivers are expected to batch:
/// one `predict` per snapshot/tick, not one per query — tests assert on
/// deltas of this counter.
pub fn predict_invocations() -> u64 {
    PREDICT_INVOCATIONS.load(AtomicOrdering::Relaxed)
}

/// Closed-form standard case (§2.2): remaining execution time of each query,
/// aligned with the input order. `O(n log n)` time, `O(n)` space.
///
/// ```
/// use mqpi_core::fluid::{standard_remaining_times, FluidQuery};
///
/// // The paper's Fig. 1: four equal-priority queries at C = 100 U/s.
/// let queries: Vec<FluidQuery> = (1..=4)
///     .map(|i| FluidQuery { id: i, cost: 100.0 * i as f64, weight: 1.0 })
///     .collect();
/// let remaining = standard_remaining_times(&queries, 100.0);
/// assert_eq!(remaining, vec![4.0, 7.0, 9.0, 10.0]);
/// ```
///
/// # Panics
/// Panics if any weight is ≤ 0 or `rate` is ≤ 0.
pub fn standard_remaining_times(queries: &[FluidQuery], rate: f64) -> Vec<f64> {
    assert!(rate > 0.0, "rate must be positive");
    let n = queries.len();
    if n == 0 {
        return Vec::new();
    }
    for q in queries {
        assert!(q.weight > 0.0, "weights must be positive");
        assert!(q.cost >= 0.0, "costs must be non-negative");
    }
    // Sort indices by virtual finish time d = c/w.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        (queries[a].cost / queries[a].weight).total_cmp(&(queries[b].cost / queries[b].weight))
    });
    // Suffix weight sums over the sorted order.
    let mut suffix_w = vec![0.0; n + 1];
    for k in (0..n).rev() {
        suffix_w[k] = suffix_w[k + 1] + queries[order[k]].weight;
    }
    let mut out = vec![0.0; n];
    let mut t = 0.0;
    let mut d_prev = 0.0;
    for k in 0..n {
        let q = &queries[order[k]];
        let d = q.cost / q.weight;
        t += (d - d_prev) * suffix_w[k] / rate;
        d_prev = d;
        out[order[k]] = t;
    }
    out
}

#[derive(Debug, Clone, Copy)]
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

/// One admitted query. Ordered for a *min*-heap on the virtual finish tag,
/// with admission sequence as a deterministic tie-break (`BinaryHeap` is a
/// max-heap, hence the reversed comparisons): the greater pops first.
#[derive(Debug, Clone, Copy)]
struct Admitted {
    virtual_finish: f64,
    seq: u64,
    id: Option<u64>,
    weight: f64,
}

impl Admitted {
    /// `q` admitted at virtual time `vt` as the `seq`-th admission.
    fn new(vt: f64, seq: u64, q: Live) -> Self {
        Admitted {
            virtual_finish: vt + q.cost / q.weight,
            seq,
            id: q.id,
            weight: q.weight,
        }
    }
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

/// The admitted, unfinished queries of one prediction in pop order: the
/// running set, sorted once (`run[next..]`), merged with a heap of the
/// queries admitted later. `seq` is unique, so the order is strict and the
/// pops come out exactly as from one heap holding everything.
struct Admissions {
    run: Vec<Admitted>,
    next: usize,
    later: BinaryHeap<Admitted>,
}

impl Admissions {
    fn len(&self) -> usize {
        self.run.len() - self.next + self.later.len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn peek(&self) -> Option<&Admitted> {
        match (self.run.get(self.next), self.later.peek()) {
            (Some(r), Some(h)) => Some(if r > h { r } else { h }),
            (r, h) => r.or(h),
        }
    }

    fn pop(&mut self) -> Option<Admitted> {
        match self.run.get(self.next) {
            Some(&r) if self.later.peek().is_none_or(|h| r > *h) => {
                self.next += 1;
                Some(r)
            }
            _ => self.later.pop(),
        }
    }
}

/// The running set admitted at `V = 0`, sequence number = admission rank,
/// in pop order; and whether `order` was used. `order` should list
/// `running`'s indices in pop order, which the sort confirms in one pass.
/// One that proves not to be a permutation — fewer or more than `n`
/// entries once those out of range are dropped, or an index twice, which
/// the sort puts next to itself — is dropped for the sort of `0..n`.
fn initial_run(running: &[FluidQuery], order: Option<&[u32]>) -> (Vec<Admitted>, bool) {
    let n = running.len();
    let admit = |seq: usize| Admitted::new(0.0, seq as u64, Live::tracked(&running[seq]));
    let mut run = Vec::with_capacity(n);
    if let Some(order) = order {
        run.extend(
            order
                .iter()
                .map(|&i| i as usize)
                .filter(|&i| i < n)
                .map(admit),
        );
        run.sort_unstable_by(|a, b| b.cmp(a));
        if run.len() == n && run.windows(2).all(|w| w[0].seq != w[1].seq) {
            return (run, true);
        }
        run.clear();
    }
    run.extend((0..n).map(admit));
    run.sort_unstable_by(|a, b| b.cmp(a));
    (run, false)
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
    fn admit(&mut self, q: Live, admitted: &mut Admissions) {
        admitted.later.push(Admitted::new(self.vt, self.seq, q));
        self.seq += 1;
        self.total_w += q.weight;
    }

    /// Admit from the FIFO queue while slots are free.
    fn drain(
        &mut self,
        queue: &mut VecDeque<Live>,
        admitted: &mut Admissions,
        slots: Option<usize>,
    ) {
        while slots.is_none_or(|k| admitted.len() < k) {
            let Some(q) = queue.pop_front() else {
                break;
            };
            self.admit(q, admitted);
        }
    }
}

/// Event-driven fluid prediction with admission limits and future arrivals.
///
/// * `running` — queries currently executing.
/// * `queued` — admission queue in FIFO order; they start as slots free.
/// * `slots` — admission limit (`None` = unlimited). Must be ≥ 1 and, if
///   finite, at least `running.len()` is assumed occupied.
/// * `future` — predicted arrival stream, first arrival after one period.
/// * `rate` — aggregate processing rate `C`.
///
/// Returns the predicted finish time (seconds from now) of every *tracked*
/// query (those in `running`/`queued`; virtual arrivals only influence the
/// load).
///
/// Virtual-time formulation: while the admitted set is fixed, real time to
/// the next completion is `(v_min − V)·W/rate`, and a query arriving after
/// `Δt` advances `V` by `Δt·rate/W`. The running set is sorted once by
/// `(v, admission order)`; each later admission is one heap push and each
/// completion one pop from the run or the heap, so the whole prediction is
/// `O(n log n + arrivals·log h)` with `h` the later admissions in flight —
/// property-tested to agree with the dense reference sweep.
pub fn predict(
    running: &[FluidQuery],
    queued: &[FluidQuery],
    slots: Option<usize>,
    future: Option<&FutureArrivals>,
    rate: f64,
) -> FluidPrediction {
    predict_kernel(running, None, queued, slots, future, rate).0
}

/// [`predict`], optionally told the completion order of `running` in
/// advance; the flag says whether `order` was used. `order` lists
/// `running`'s indices by `(cost/weight, index)`, or nearly so, and the
/// sort of the running set then finishes in one pass when it holds. The
/// result is bit-identical to [`predict`] for *any* `order`: near-ties are
/// put right by the sort, and an `order` that is not a permutation of
/// `0..running.len()` is ignored.
/// [`crate::IncrementalFluid::estimates_full`] passes the order its treap
/// keeps.
pub(crate) fn predict_kernel(
    running: &[FluidQuery],
    order: Option<&[u32]>,
    queued: &[FluidQuery],
    slots: Option<usize>,
    future: Option<&FutureArrivals>,
    rate: f64,
) -> (FluidPrediction, bool) {
    PREDICT_INVOCATIONS.fetch_add(1, AtomicOrdering::Relaxed);
    assert!(rate > 0.0, "rate must be positive");
    if let Some(k) = slots {
        assert!(k >= 1, "admission limit must be at least 1");
    }
    const EPS: f64 = 1e-9;

    // Everything already running occupies a slot regardless of `slots`.
    let (run, hinted) = initial_run(running, order);
    let mut admitted = Admissions {
        run,
        next: 0,
        later: BinaryHeap::with_capacity(queued.len() + 1),
    };
    let mut queue: VecDeque<Live> = queued.iter().map(Live::tracked).collect();
    let mut clock = VirtualClock {
        vt: 0.0,
        // Summed in admission order, as one admission at a time would.
        total_w: running.iter().fold(0.0, |w, q| w + q.weight),
        seq: running.len() as u64,
    };
    clock.drain(&mut queue, &mut admitted, slots);

    let mut finish: Vec<(u64, f64)> = Vec::with_capacity(running.len() + queued.len());
    let mut tracked_left = running.len() + queued.len();
    let mut t = 0.0;
    let mut truncated = false;
    let mut arrivals_made = 0usize;
    let mut next_arrival = future.map(|f| f.period);

    while tracked_left > 0 {
        let Some(top) = admitted.peek() else {
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
                while let Some(top) = admitted.peek() {
                    // Residual work (v − V)·w ≤ EPS counts as finished, like
                    // the reference's cost ≤ EPS sweep.
                    if (top.virtual_finish - clock.vt) * top.weight > EPS {
                        break;
                    }
                    // invariant: peek above returned Some.
                    let Some(done) = admitted.pop() else { break };
                    clock.total_w -= done.weight;
                    if let Some(id) = done.id {
                        finish.push((id, t));
                        tracked_left -= 1;
                    }
                }
                if admitted.is_empty() {
                    clock.total_w = 0.0; // clear accumulated FP drift
                }
                clock.drain(&mut queue, &mut admitted, slots);
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
                clock.drain(&mut queue, &mut admitted, slots);
            }
        }
    }
    (FluidPrediction::new(finish, truncated), hinted)
}

#[cfg(test)]
mod kernel_diff;

#[cfg(test)]
mod tests {
    use super::*;

    fn q(id: u64, cost: f64, weight: f64) -> FluidQuery {
        FluidQuery { id, cost, weight }
    }

    #[test]
    fn paper_fig1_equal_priorities() {
        // Four equal-priority queries, costs 100, 200, 300, 400 at C=100:
        // stage durations: 100*4/100=4, 100*3/100=3, 100*2/100=2, 100/100=1.
        let qs = [
            q(1, 100.0, 1.0),
            q(2, 200.0, 1.0),
            q(3, 300.0, 1.0),
            q(4, 400.0, 1.0),
        ];
        let r = standard_remaining_times(&qs, 100.0);
        assert_eq!(r, vec![4.0, 7.0, 9.0, 10.0]);
    }

    #[test]
    fn single_query_runs_at_full_speed() {
        let r = standard_remaining_times(&[q(1, 500.0, 2.0)], 50.0);
        assert_eq!(r, vec![10.0]);
    }

    #[test]
    fn weights_shift_finish_order() {
        // Same cost; higher weight finishes first.
        let qs = [q(1, 300.0, 1.0), q(2, 300.0, 3.0)];
        let r = standard_remaining_times(&qs, 100.0);
        assert!(r[1] < r[0]);
        // Total work conservation: last finisher at total cost / rate.
        assert!((r[0] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn total_completion_time_is_total_work_over_rate() {
        let qs = [q(1, 123.0, 1.0), q(2, 456.0, 2.0), q(3, 789.0, 0.5)];
        let r = standard_remaining_times(&qs, 10.0);
        let last = r.iter().cloned().fold(0.0, f64::max);
        assert!((last - (123.0 + 456.0 + 789.0) / 10.0).abs() < 1e-9);
    }

    #[test]
    fn predict_matches_closed_form_without_queue_or_future() {
        let qs = [q(1, 100.0, 1.0), q(2, 250.0, 2.0), q(3, 80.0, 0.5)];
        let closed = standard_remaining_times(&qs, 60.0);
        let p = predict(&qs, &[], None, None, 60.0);
        for (i, qq) in qs.iter().enumerate() {
            let t = p.remaining_for(qq.id).unwrap();
            assert!(
                (t - closed[i]).abs() < 1e-6,
                "id {}: {} vs {}",
                qq.id,
                t,
                closed[i]
            );
        }
        assert!(!p.truncated);
    }

    #[test]
    fn predict_with_admission_queue() {
        // Two slots; Q1 (big) and Q2 (small) run, Q3 waits (paper's NAQ
        // shape): N1=50, N2=10, N3=20 scaled to costs.
        let running = [q(1, 500.0, 1.0), q(2, 100.0, 1.0)];
        let queued = [q(3, 200.0, 1.0)];
        let p = predict(&running, &queued, Some(2), None, 100.0);
        // Q2 finishes at 2*100/100 = 2s; then Q3 starts.
        let f2 = p.remaining_for(2).unwrap();
        assert!((f2 - 2.0).abs() < 1e-6);
        // After 2s, Q1 has 400 left; Q1&Q3 share. Q3: 200 left, finishes at
        // 2 + 2*200/100 = 6; then Q1 alone: 400-200=200 left ⇒ 6+2=8.
        assert!((p.remaining_for(3).unwrap() - 6.0).abs() < 1e-6);
        assert!((p.remaining_for(1).unwrap() - 8.0).abs() < 1e-6);
    }

    #[test]
    fn predict_with_future_arrivals_slows_everyone() {
        let running = [q(1, 1000.0, 1.0)];
        let without = predict(&running, &[], None, None, 100.0);
        let f = FutureArrivals::from_rate(0.5, 200.0, 1.0).unwrap();
        let with = predict(&running, &[], None, Some(&f), 100.0);
        assert!(with.remaining_for(1).unwrap() > without.remaining_for(1).unwrap());
    }

    #[test]
    fn future_arrival_math_is_exact() {
        // C=100, one query of 300 units. Arrival at t=2 of cost 100.
        // Before t=2: 200 done at full speed, 100 left. After: half speed.
        // Both finish together? q1: 100 left, virtual: 100, equal weights ⇒
        // both at t = 2 + 200/100 = 4.
        let f = FutureArrivals {
            period: 2.0,
            cost: 100.0,
            weight: 1.0,
            max_arrivals: 1,
        };
        let p = predict(&[q(1, 300.0, 1.0)], &[], None, Some(&f), 100.0);
        assert!((p.remaining_for(1).unwrap() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn unstable_future_load_truncates_but_terminates() {
        // Arrival work rate 2× capacity.
        let f = FutureArrivals {
            period: 1.0,
            cost: 200.0,
            weight: 1.0,
            max_arrivals: 50,
        };
        let p = predict(&[q(1, 5000.0, 1.0)], &[], None, Some(&f), 100.0);
        assert!(p.truncated);
        assert!(p.remaining_for(1).unwrap() > 50.0);
    }

    #[test]
    fn zero_cost_queries_finish_immediately() {
        let p = predict(&[q(1, 0.0, 1.0), q(2, 100.0, 1.0)], &[], None, None, 100.0);
        assert_eq!(p.remaining_for(1).unwrap(), 0.0);
        assert!((p.remaining_for(2).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn remaining_for_handles_sparse_and_dense_ids() {
        // Sequential ids take the dense offset table...
        let dense = FluidPrediction::new((0..100).map(|i| (i + 7, i as f64)).collect(), false);
        for i in 0..100u64 {
            assert_eq!(dense.remaining_for(i + 7), Some(i as f64));
        }
        assert_eq!(dense.remaining_for(6), None);
        assert_eq!(dense.remaining_for(107), None);
        // ...while scattered ids fall back to the sorted index.
        let ids = [3u64, u64::MAX - 1, 1 << 40, 17, 9_999_999];
        let sparse = FluidPrediction::new(ids.iter().map(|&id| (id, id as f64)).collect(), false);
        for &id in &ids {
            assert_eq!(sparse.remaining_for(id), Some(id as f64));
        }
        assert_eq!(sparse.remaining_for(4), None);
        assert_eq!(sparse.remaining_for(0), None);
    }

    #[test]
    fn remaining_for_is_none_for_queries_finished_before_the_snapshot() {
        // Regression: a PI asking about a query that completed before this
        // snapshot was taken must get `None`, never a stale neighbour's
        // slot. Dense path with an interior gap (id 50 finished earlier):
        let times: Vec<(u64, f64)> = (0..100).filter(|&i| i != 50).map(|i| (i, 1.0)).collect();
        let dense = FluidPrediction::new(times, false);
        assert_eq!(dense.remaining_for(50), None);
        assert_eq!(dense.remaining_for(49), Some(1.0));
        // Sparse path: the old-generation id 12 is absent from the new set.
        let sparse =
            FluidPrediction::new(vec![(3, 1.0), (1 << 40, 2.0), (u64::MAX - 1, 3.0)], false);
        assert_eq!(sparse.remaining_for(12), None);
        assert_eq!(sparse.remaining_for(u64::MAX), None);
    }

    #[test]
    fn remaining_for_survives_full_u64_id_span() {
        // Regression: `max - min + 1` used to overflow for a snapshot
        // containing both id 0 and id u64::MAX (panic in debug; in release
        // an aliased dense table could hand back a stale slot). The span
        // must route to the sorted fallback and answer exactly.
        let p = FluidPrediction::new(vec![(0, 1.5), (u64::MAX, 2.5)], false);
        assert_eq!(p.remaining_for(0), Some(1.5));
        assert_eq!(p.remaining_for(u64::MAX), Some(2.5));
        assert_eq!(p.remaining_for(1), None);
        assert_eq!(p.remaining_for(u64::MAX - 1), None);
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert!(standard_remaining_times(&[], 10.0).is_empty());
        let p = predict(&[], &[], None, None, 10.0);
        assert!(p.finish_times.is_empty());
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn zero_weight_panics() {
        standard_remaining_times(&[q(1, 10.0, 0.0)], 1.0);
    }

    #[test]
    fn predict_counts_invocations() {
        let before = predict_invocations();
        predict(&[q(1, 10.0, 1.0)], &[], None, None, 10.0);
        predict(&[q(1, 10.0, 1.0)], &[], None, None, 10.0);
        assert!(predict_invocations() >= before + 2);
    }
}
