//! Incrementally maintained GPS fluid predictor (delta updates).
//!
//! [`fluid::predict`](crate::fluid::predict) rebuilds the whole virtual-time
//! stage list from scratch on every call — `O(n log n)` per tick. A serving
//! deployment refreshing thousands of sessions cannot afford that, so
//! [`IncrementalFluid`] keeps the model *alive* between events and applies
//! arrivals, finishes, aborts, re-weights, cost refinements, and rate
//! changes as `O(log n)` delta updates (rate changes and time advances that
//! cross no completion are `O(1)`).
//!
//! ## Data structure
//!
//! Under GPS the virtual finish tag `v_i = V_admit + c_i/w_i` of an admitted
//! query never changes while it runs, and virtual time `V` advances at
//! `rate/W` per real second. Both facts make deltas cheap:
//!
//! * Live queries sit in a **treap** keyed by `(v_i, seq)` (admission
//!   sequence breaks ties deterministically) with per-subtree aggregates
//!   `Σ w_j`, `Σ w_j·v_j`, and node counts. Arrive/finish/abort are one
//!   tree insert/delete; re-weight and cost refinement are a delete plus an
//!   insert with a re-derived tag.
//! * **Lazy global-rate rescaling**: tags are rate-independent, so a rate
//!   change stores one scalar — no per-node work. The same laziness covers
//!   the virtual-time origin: aggregates store `Σ w_j·v_j`, and every query
//!   subtracts `V·Σ w_j` at read time, so advancing `V` touches nothing.
//! * The remaining time of one query is a prefix-aggregate query:
//!
//!   ```text
//!   t(v_i) = [ Σ_{(v_j,s_j) ≤ (v_i,s_i)} w_j·(v_j − V)  +  (v_i − V)·W_suffix ] / rate
//!   ```
//!
//!   one root-to-node descent, `O(log n)`. All `n` of them at once are one
//!   walk of the tree ([`IncrementalFluid::sweep_into`]) that hands each
//!   node the prefix its own descent would have arrived with, `O(n)` and
//!   bit-identical to the `n` descents.
//!
//! ## Determinism rules
//!
//! Treap priorities are a splitmix64 hash of the admission sequence, and
//! priority ties (never observed; guarded anyway) break by sequence, so the
//! tree shape is the *unique* treap over the live `(key, priority)` set —
//! independent of the order events built it. Aggregates are recomputed from
//! children on every structural change (never incrementally adjusted), so
//! they are a pure function of shape and weights. Consequently the same
//! event sequence produces bit-identical state on every run, and the
//! [`Wire`] encoding round-trips to byte-identical re-encodings (the
//! codec writes nodes in admission order; the decoder re-inserts them and
//! lands on the same unique treap).
//!
//! Full estimate sets ([`IncrementalFluid::estimates_full`]) extract the
//! live set in admission order and run the *same* `predict` kernel a fresh
//! caller would, so they are bit-identical to a fresh `predict` call on the
//! maintained state by construction — `predict` stays the oracle, and the
//! property suite (`tests/prop_incremental.rs`) drives random event
//! sequences through both paths to hold the delta path to it. What the
//! kernel pays for is its sort of the running set into completion order,
//! and the treap already keeps that order: an in-order walk hands the
//! kernel each node's admission rank, so the kernel's sort meets a run
//! that is already sorted and ends after one pass. Near-ties
//! (`(v − V)·w / w` need not round to `v − V`) can still cost it a full
//! sort. A full set costs two `O(n)` walks and that pass; the kernel's
//! heap holds only the queue and the predicted arrivals.

use mqpi_ckpt::{wire_struct, CkptError, Dec, Enc, Wire};
use mqpi_sim::domain;
use mqpi_sim::idmap::{IdMap, IdState};

use crate::fluid::{predict, predict_kernel, FluidPrediction, FluidQuery, FutureArrivals};

const NIL: u32 = u32::MAX;
/// Residual-work epsilon, identical to `fluid::predict`'s completion sweep.
const EPS: f64 = 1e-9;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Counts of delta operations applied since construction (or the values
/// restored from a checkpoint). Benchmarks and the obs layer read these to
/// report how much full-rebuild work the incremental path avoided.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DeltaCounters {
    pub arrivals: u64,
    pub finishes: u64,
    pub aborts: u64,
    pub reweights: u64,
    pub cost_refinements: u64,
    pub rate_changes: u64,
    pub advances: u64,
    /// Queries whose tags were crossed by [`IncrementalFluid::advance`] and
    /// popped into the due buffer.
    pub completions: u64,
    /// Full `predict` invocations via [`IncrementalFluid::estimates_full`].
    pub full_rebuilds: u64,
}
wire_struct!(DeltaCounters {
    arrivals,
    finishes,
    aborts,
    reweights,
    cost_refinements,
    rate_changes,
    advances,
    completions,
    full_rebuilds,
});

/// Struct-of-arrays node storage for the treap plus an intrusive
/// admission-order list and an intrusive free list (threaded through
/// `left`), so steady-state churn reuses slots without allocating.
#[derive(Debug, Default)]
struct Nodes {
    id: Vec<u64>,
    weight: Vec<f64>,
    /// Virtual finish tag `v = V_admit + cost/weight`.
    tag: Vec<f64>,
    seq: Vec<u64>,
    prio: Vec<u64>,
    left: Vec<u32>,
    right: Vec<u32>,
    /// Subtree `Σ w`.
    sub_w: Vec<f64>,
    /// Subtree `Σ w·v`.
    sub_wv: Vec<f64>,
    sub_n: Vec<u32>,
    /// Admission-order doubly-linked list.
    seq_prev: Vec<u32>,
    seq_next: Vec<u32>,
    free_head: u32,
}

impl Nodes {
    fn with_capacity(cap: usize) -> Self {
        let mut n = Nodes {
            free_head: NIL,
            ..Nodes::default()
        };
        n.reserve(cap);
        n
    }

    fn reserve(&mut self, cap: usize) {
        self.id.reserve(cap);
        self.weight.reserve(cap);
        self.tag.reserve(cap);
        self.seq.reserve(cap);
        self.prio.reserve(cap);
        self.left.reserve(cap);
        self.right.reserve(cap);
        self.sub_w.reserve(cap);
        self.sub_wv.reserve(cap);
        self.sub_n.reserve(cap);
        self.seq_prev.reserve(cap);
        self.seq_next.reserve(cap);
    }

    /// Empty every column, keeping its capacity, and the free list.
    fn clear(&mut self) {
        self.id.clear();
        self.weight.clear();
        self.tag.clear();
        self.seq.clear();
        self.prio.clear();
        self.left.clear();
        self.right.clear();
        self.sub_w.clear();
        self.sub_wv.clear();
        self.sub_n.clear();
        self.seq_prev.clear();
        self.seq_next.clear();
        self.free_head = NIL;
    }

    fn alloc(&mut self, id: u64, weight: f64, tag: f64, seq: u64) -> u32 {
        let prio = splitmix64(seq);
        if self.free_head != NIL {
            let s = self.free_head;
            let i = s as usize;
            self.free_head = self.left[i];
            self.id[i] = id;
            self.weight[i] = weight;
            self.tag[i] = tag;
            self.seq[i] = seq;
            self.prio[i] = prio;
            self.left[i] = NIL;
            self.right[i] = NIL;
            self.sub_w[i] = weight;
            self.sub_wv[i] = weight * tag;
            self.sub_n[i] = 1;
            self.seq_prev[i] = NIL;
            self.seq_next[i] = NIL;
            return s;
        }
        let s = self.id.len() as u32;
        self.id.push(id);
        self.weight.push(weight);
        self.tag.push(tag);
        self.seq.push(seq);
        self.prio.push(prio);
        self.left.push(NIL);
        self.right.push(NIL);
        self.sub_w.push(weight);
        self.sub_wv.push(weight * tag);
        self.sub_n.push(1);
        self.seq_prev.push(NIL);
        self.seq_next.push(NIL);
        s
    }

    /// The departed query's `id` stays in the slot; a subtree count of
    /// zero, which no live node has, is what marks the slot free.
    fn free(&mut self, s: u32) {
        self.left[s as usize] = self.free_head;
        self.sub_n[s as usize] = 0;
        self.free_head = s;
    }

    /// `(tag, seq)` of `a` strictly before the probe key.
    fn key_less(&self, a: u32, tag: f64, seq: u64) -> bool {
        let i = a as usize;
        match self.tag[i].total_cmp(&tag) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.seq[i] < seq,
        }
    }

    /// Heap order: does `a` outrank `b` as a treap root?
    fn prio_above(&self, a: u32, b: u32) -> bool {
        let (ai, bi) = (a as usize, b as usize);
        self.prio[ai] > self.prio[bi]
            || (self.prio[ai] == self.prio[bi] && self.seq[ai] < self.seq[bi])
    }

    /// Recompute aggregates from children; the *only* way aggregates are
    /// ever written, so their values are a pure function of tree shape —
    /// a rebuilt tree of the same shape carries bit-identical sums.
    fn pull(&mut self, t: u32) {
        let i = t as usize;
        let (l, r) = (self.left[i], self.right[i]);
        let (lw, lwv, ln) = if l == NIL {
            (0.0, 0.0, 0)
        } else {
            let li = l as usize;
            (self.sub_w[li], self.sub_wv[li], self.sub_n[li])
        };
        let (rw, rwv, rn) = if r == NIL {
            (0.0, 0.0, 0)
        } else {
            let ri = r as usize;
            (self.sub_w[ri], self.sub_wv[ri], self.sub_n[ri])
        };
        self.sub_w[i] = lw + self.weight[i] + rw;
        self.sub_wv[i] = lwv + self.weight[i] * self.tag[i] + rwv;
        self.sub_n[i] = ln + 1 + rn;
    }

    /// Split into `(keys < (tag, seq), keys ≥ (tag, seq))`.
    fn split(&mut self, t: u32, tag: f64, seq: u64) -> (u32, u32) {
        if t == NIL {
            return (NIL, NIL);
        }
        if self.key_less(t, tag, seq) {
            let (a, b) = self.split(self.right[t as usize], tag, seq);
            self.right[t as usize] = a;
            self.pull(t);
            (t, b)
        } else {
            let (a, b) = self.split(self.left[t as usize], tag, seq);
            self.left[t as usize] = b;
            self.pull(t);
            (a, t)
        }
    }

    /// Insert the lone node `s`, keyed `(tag, seq)`, into the subtree at
    /// `t`; returns the new subtree root. One descent past the nodes that
    /// outrank `s`, then a split of the first subtree `s` outranks: the
    /// unique treap a whole-tree split and two merges would build.
    fn insert(&mut self, t: u32, s: u32, tag: f64, seq: u64) -> u32 {
        if t == NIL || self.prio_above(s, t) {
            let (l, r) = self.split(t, tag, seq);
            (self.left[s as usize], self.right[s as usize]) = (l, r);
            self.pull(s);
            return s;
        }
        if self.key_less(t, tag, seq) {
            let r = self.insert(self.right[t as usize], s, tag, seq);
            self.right[t as usize] = r;
        } else {
            let l = self.insert(self.left[t as usize], s, tag, seq);
            self.left[t as usize] = l;
        }
        self.pull(t);
        t
    }

    /// Merge trees where every key in `a` precedes every key in `b`.
    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.prio_above(a, b) {
            let m = self.merge(self.right[a as usize], b);
            self.right[a as usize] = m;
            self.pull(a);
            a
        } else {
            let m = self.merge(a, self.left[b as usize]);
            self.left[b as usize] = m;
            self.pull(b);
            b
        }
    }

    /// Remove the node with exactly this key; returns the new subtree root.
    /// The key is known to exist (looked up through `by_id`).
    fn remove(&mut self, t: u32, slot: u32, tag: f64, seq: u64) -> u32 {
        debug_assert_ne!(t, NIL, "removal key must exist in the treap");
        if t == slot {
            return self.merge(self.left[t as usize], self.right[t as usize]);
        }
        if self.key_less(t, tag, seq) {
            let r = self.remove(self.right[t as usize], slot, tag, seq);
            self.right[t as usize] = r;
        } else {
            let l = self.remove(self.left[t as usize], slot, tag, seq);
            self.left[t as usize] = l;
        }
        self.pull(t);
        t
    }

    fn leftmost(&self, mut t: u32) -> u32 {
        while t != NIL && self.left[t as usize] != NIL {
            t = self.left[t as usize];
        }
        t
    }
}

/// Maintained GPS fluid model over the currently admitted query set.
///
/// The structure is the *admitted* set only: the owning service layers the
/// admission queue and predicted future arrivals on top (exactly the inputs
/// `fluid::predict` takes alongside `running`). See the module docs for the
/// data-structure and determinism story.
#[derive(Debug)]
pub struct IncrementalFluid {
    rate: f64,
    /// Virtual time `V`.
    vt: f64,
    next_seq: u64,
    root: u32,
    nodes: Nodes,
    by_id: IdMap<u32>,
    /// Admission-order list endpoints.
    head: u32,
    tail: u32,
    /// Completions crossed by `advance`, in completion order, until the
    /// caller drains them.
    due: Vec<u64>,
    counters: DeltaCounters,
    scratch: Vec<FluidQuery>,
    /// `rank[slot]`: the live query's position in admission order, and
    /// `order`: the ranks in treap order. Derived state for
    /// [`IncrementalFluid::estimates_full`], refilled on every call and
    /// never checkpointed.
    rank: Vec<u32>,
    order: Vec<u32>,
}

impl IncrementalFluid {
    /// # Panics
    /// Panics if `rate` is not finite and positive.
    pub fn new(rate: f64) -> Self {
        Self::with_capacity(rate, 0)
    }

    /// # Panics
    /// Panics if `rate` is not finite and positive.
    pub fn with_capacity(rate: f64, cap: usize) -> Self {
        domain::rate(rate).expect("rate must be positive and finite");
        IncrementalFluid {
            rate,
            vt: 0.0,
            next_seq: 0,
            root: NIL,
            nodes: Nodes::with_capacity(cap),
            by_id: IdMap::with_capacity_and_hasher(cap, IdState::default()),
            head: NIL,
            tail: NIL,
            due: Vec::with_capacity(cap.min(64)),
            counters: DeltaCounters::default(),
            scratch: Vec::with_capacity(cap),
            rank: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Number of live (admitted, unfinished) queries.
    pub fn len(&self) -> usize {
        if self.root == NIL {
            0
        } else {
            self.nodes.sub_n[self.root as usize] as usize
        }
    }

    pub fn is_empty(&self) -> bool {
        self.root == NIL
    }

    /// Current aggregate weight `W` of the live set.
    pub fn total_weight(&self) -> f64 {
        if self.root == NIL {
            0.0
        } else {
            self.nodes.sub_w[self.root as usize]
        }
    }

    /// Current virtual time `V`.
    pub fn virtual_time(&self) -> f64 {
        self.vt
    }

    /// Current aggregate processing rate `C`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    pub fn contains(&self, id: u64) -> bool {
        self.by_id.contains_key(&id)
    }

    /// Delta-operation counts since construction/restore.
    pub fn counters(&self) -> DeltaCounters {
        self.counters
    }

    /// Scheduling weight of a live query.
    pub fn weight_of(&self, id: u64) -> Option<f64> {
        let s = *self.by_id.get(&id)?;
        Some(self.nodes.weight[s as usize])
    }

    /// Remaining cost of a live query under the maintained model:
    /// `(v − V)·w`, clamped at zero.
    pub fn remaining_cost(&self, id: u64) -> Option<f64> {
        let s = *self.by_id.get(&id)?;
        let i = s as usize;
        Some(((self.nodes.tag[i] - self.vt) * self.nodes.weight[i]).max(0.0))
    }

    fn link_tail(&mut self, s: u32) {
        if self.tail == NIL {
            self.head = s;
        } else {
            self.nodes.seq_next[self.tail as usize] = s;
            self.nodes.seq_prev[s as usize] = self.tail;
        }
        self.tail = s;
    }

    fn unlink(&mut self, s: u32) {
        let i = s as usize;
        let (p, n) = (self.nodes.seq_prev[i], self.nodes.seq_next[i]);
        if p == NIL {
            self.head = n;
        } else {
            self.nodes.seq_next[p as usize] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.nodes.seq_prev[n as usize] = p;
        }
    }

    fn insert_tree(&mut self, s: u32) {
        #[cfg(test)]
        if tests::SPLIT_MERGE.with(std::cell::Cell::get) {
            return tests::insert_by_split_merge(self, s);
        }
        let (tag, seq) = (self.nodes.tag[s as usize], self.nodes.seq[s as usize]);
        self.root = self.nodes.insert(self.root, s, tag, seq);
    }

    fn remove_tree(&mut self, s: u32) {
        let (tag, seq) = (self.nodes.tag[s as usize], self.nodes.seq[s as usize]);
        self.root = self.nodes.remove(self.root, s, tag, seq);
    }

    /// The tag `V + c/w`, held at `f64::MAX` when a tiny weight overflows
    /// it: the query still finishes last, and sums over tags stay finite.
    fn tag_for(&self, cost: f64, weight: f64) -> f64 {
        (self.vt + cost / weight).min(f64::MAX)
    }

    /// Admit a query with the given remaining cost and weight. Its virtual
    /// finish tag `V + cost/weight` is fixed here, exactly as
    /// `fluid::predict` admits it.
    ///
    /// # Panics
    /// Panics if `weight` is not finite and positive, `cost` is not finite
    /// (a negative cost counts as 0), or `id` is already live.
    pub fn arrive(&mut self, id: u64, cost: f64, weight: f64) {
        domain::weight(weight).expect("weights must be positive and finite");
        let tag = self.tag_for(domain::cost(cost).expect("costs must be finite"), weight);
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = self.nodes.alloc(id, weight, tag, seq);
        let prev = self.by_id.insert(id, s);
        assert!(prev.is_none(), "query {id} is already live");
        self.link_tail(s);
        self.insert_tree(s);
        self.counters.arrivals += 1;
    }

    fn remove_live(&mut self, id: u64) -> bool {
        let Some(s) = self.by_id.remove(&id) else {
            return false;
        };
        self.remove_tree(s);
        self.unlink(s);
        self.nodes.free(s);
        true
    }

    /// Remove a query that completed (e.g. the executor reported it done
    /// ahead of the model). Returns false if `id` is not live.
    pub fn finish(&mut self, id: u64) -> bool {
        let ok = self.remove_live(id);
        if ok {
            self.counters.finishes += 1;
        }
        ok
    }

    /// Remove an aborted query. Returns false if `id` is not live.
    pub fn abort(&mut self, id: u64) -> bool {
        let ok = self.remove_live(id);
        if ok {
            self.counters.aborts += 1;
        }
        ok
    }

    /// Change a live query's scheduling weight, preserving its remaining
    /// cost `(v − V)·w_old` and re-deriving the tag under the new weight.
    /// Returns false if `id` is not live.
    ///
    /// # Panics
    /// Panics if `weight` is not finite and positive.
    pub fn reweight(&mut self, id: u64, weight: f64) -> bool {
        domain::weight(weight).expect("weights must be positive and finite");
        let Some(&s) = self.by_id.get(&id) else {
            return false;
        };
        let i = s as usize;
        let cost = ((self.nodes.tag[i] - self.vt) * self.nodes.weight[i]).max(0.0);
        self.remove_tree(s);
        self.nodes.weight[i] = weight;
        self.nodes.tag[i] = self.tag_for(cost, weight);
        self.insert_tree(s);
        self.counters.reweights += 1;
        true
    }

    /// Replace a live query's remaining cost (cost refinement, §2.1).
    /// Returns false if `id` is not live.
    ///
    /// # Panics
    /// Panics if `cost` is not finite (a negative cost counts as 0).
    pub fn refine_cost(&mut self, id: u64, cost: f64) -> bool {
        let cost = domain::cost(cost).expect("costs must be finite");
        let Some(&s) = self.by_id.get(&id) else {
            return false;
        };
        let i = s as usize;
        self.remove_tree(s);
        self.nodes.tag[i] = self.tag_for(cost, self.nodes.weight[i]);
        self.insert_tree(s);
        self.counters.cost_refinements += 1;
        true
    }

    /// Change the aggregate rate `C`. O(1): tags are rate-independent, so
    /// nothing in the tree moves (the lazy rescaling the module docs
    /// describe).
    ///
    /// # Panics
    /// Panics if `rate` is not finite and positive.
    pub fn set_rate(&mut self, rate: f64) {
        domain::rate(rate).expect("rate must be positive and finite");
        self.rate = rate;
        self.counters.rate_changes += 1;
    }

    /// Advance real time by `dt`, crossing any completion tags on the way.
    /// Queries whose tags are crossed leave the live set and are queued in
    /// the due buffer ([`IncrementalFluid::drain_due`]) in completion
    /// order. Advancing an idle model leaves `V` frozen.
    pub fn advance(&mut self, dt: f64) {
        self.counters.advances += 1;
        let mut left = dt.max(0.0);
        loop {
            let m = self.nodes.leftmost(self.root);
            if m == NIL {
                return;
            }
            let w = self.nodes.sub_w[self.root as usize];
            let top = self.nodes.tag[m as usize];
            let dt_finish = ((top - self.vt) * w / self.rate).max(0.0);
            if left < dt_finish {
                self.vt += left * self.rate / w;
                return;
            }
            left -= dt_finish;
            self.vt = self.vt.max(top);
            // Residual work (v − V)·w ≤ EPS counts as finished, mirroring
            // the predict event loop's completion sweep.
            loop {
                let m = self.nodes.leftmost(self.root);
                if m == NIL {
                    break;
                }
                let i = m as usize;
                if (self.nodes.tag[i] - self.vt) * self.nodes.weight[i] > EPS {
                    break;
                }
                let id = self.nodes.id[i];
                self.by_id.remove(&id);
                self.remove_tree(m);
                self.unlink(m);
                self.nodes.free(m);
                self.due.push(id);
                self.counters.completions += 1;
            }
        }
    }

    /// Append completions crossed by [`IncrementalFluid::advance`] (in
    /// completion order) to `out` and clear the internal buffer. The buffer
    /// keeps its capacity — no allocation on the steady-state path.
    pub fn drain_due(&mut self, out: &mut Vec<u64>) {
        out.append(&mut self.due);
    }

    /// Completions crossed by `advance` and not yet drained.
    pub fn due(&self) -> &[u64] {
        &self.due
    }

    /// Remaining real time of one live query — the `O(log n)` point query:
    /// a single descent accumulating prefix aggregates over tags at or
    /// before this query's, plus the suffix weight still running when it
    /// finishes. Returns `None` for ids that are not live (finished,
    /// aborted, or never admitted).
    pub fn estimate(&self, id: u64) -> Option<f64> {
        self.by_id.get(&id).map(|&s| self.estimate_node(s))
    }

    /// The node slot of a live query: a handle for
    /// [`IncrementalFluid::estimate_at`] and for reading a
    /// [`IncrementalFluid::sweep_into`] column. `reweight` and
    /// `refine_cost` keep a query in its slot; a departure frees it for
    /// reuse, and `rebuild` and `decode` assign slots afresh, so a kept
    /// handle is a hint to re-validate, never a reference.
    pub fn slot_of(&self, id: u64) -> Option<u32> {
        self.by_id.get(&id).copied()
    }

    /// Does the handle `slot` still name the live query `id`? False for a
    /// slot that was freed, reused by another query, or is out of range.
    pub fn holds(&self, slot: u32, id: u64) -> bool {
        let (n, i) = (&self.nodes, slot as usize);
        i < n.id.len() && n.sub_n[i] != 0 && n.id[i] == id
    }

    /// [`IncrementalFluid::estimate`] through a node handle instead of the
    /// id index: the same descent, the same bits, no hashing. `None` when
    /// the handle is stale (see [`IncrementalFluid::holds`]); the caller
    /// then falls back to [`IncrementalFluid::slot_of`].
    pub fn estimate_at(&self, slot: u32, id: u64) -> Option<f64> {
        self.holds(slot, id).then(|| self.estimate_node(slot))
    }

    /// Remaining real time once the prefix `(Σw, Σw·v)` over the tags at
    /// or before `tag` is known.
    fn remaining_time(&self, pw: f64, pwv: f64, tag: f64, total_w: f64) -> f64 {
        let t = (pwv - self.vt * pw + (tag - self.vt) * (total_w - pw)) / self.rate;
        t.max(0.0)
    }

    /// The descent behind [`IncrementalFluid::estimate`], for a live slot.
    fn estimate_node(&self, s: u32) -> f64 {
        let i = s as usize;
        let (tag, seq) = (self.nodes.tag[i], self.nodes.seq[i]);
        let (mut pw, mut pwv) = (0.0, 0.0);
        let mut cur = self.root;
        while cur != NIL {
            let c = cur as usize;
            if self.nodes.key_less(cur, tag, seq) || cur == s {
                let l = self.nodes.left[c];
                if l != NIL {
                    pw += self.nodes.sub_w[l as usize];
                    pwv += self.nodes.sub_wv[l as usize];
                }
                pw += self.nodes.weight[c];
                pwv += self.nodes.weight[c] * self.nodes.tag[c];
                cur = self.nodes.right[c];
            } else {
                cur = self.nodes.left[c];
            }
        }
        let total_w = self.nodes.sub_w[self.root as usize];
        self.remaining_time(pw, pwv, tag, total_w)
    }

    /// Every live estimate from one walk of the tree (§2.2 yields all `n`
    /// remaining times from one pass over the queries in `c_i/w_i` order,
    /// and the treap is that order). `out[slot]` receives what
    /// [`IncrementalFluid::estimate`] returns for the query in `slot`,
    /// bit for bit: the walk reaches each node with the prefix that
    /// query's own descent has accumulated on arrival there — the left
    /// child inherits its parent's incoming prefix, the right child that
    /// plus the left subtree's aggregate plus the parent's own term, added
    /// in the descent's order — and finishes it the way the descent does.
    /// O(n), no hashing.
    ///
    /// `out` grows to the slot count and keeps its capacity. Only live
    /// slots are written; read an entry through a handle that
    /// [`IncrementalFluid::holds`], before the next delta or `advance`.
    pub fn sweep_into(&self, out: &mut Vec<f64>) {
        if out.len() < self.nodes.id.len() {
            out.resize(self.nodes.id.len(), f64::NAN);
        }
        if self.root != NIL {
            let total_w = self.nodes.sub_w[self.root as usize];
            self.sweep_subtree(self.root, 0.0, 0.0, total_w, out);
        }
    }

    /// In-order walk of the subtree at `t`, entered with the prefix a
    /// descent towards any of its nodes holds on arrival at `t`.
    fn sweep_subtree(&self, mut t: u32, mut pw: f64, mut pwv: f64, total_w: f64, out: &mut [f64]) {
        let n = &self.nodes;
        while t != NIL {
            let i = t as usize;
            let l = n.left[i];
            if l != NIL {
                self.sweep_subtree(l, pw, pwv, total_w, out);
                pw += n.sub_w[l as usize];
                pwv += n.sub_wv[l as usize];
            }
            pw += n.weight[i];
            pwv += n.weight[i] * n.tag[i];
            out[i] = self.remaining_time(pw, pwv, n.tag[i], total_w);
            t = n.right[i];
        }
    }

    /// Extract the live set in admission order as `FluidQuery`s with their
    /// current remaining costs `(v − V)·w` — exactly the `running` input a
    /// fresh `predict` call would receive. Clears and fills `out`; no
    /// allocation beyond `out`'s own growth.
    pub fn extract_into(&self, out: &mut Vec<FluidQuery>) {
        out.clear();
        self.for_each_admitted(|_, q| out.push(q));
    }

    /// Every live query in admission order, with its slot, as
    /// [`IncrementalFluid::extract_into`] lists it.
    fn for_each_admitted(&self, mut f: impl FnMut(usize, FluidQuery)) {
        let mut cur = self.head;
        while cur != NIL {
            let i = cur as usize;
            f(
                i,
                FluidQuery {
                    id: self.nodes.id[i],
                    cost: ((self.nodes.tag[i] - self.vt) * self.nodes.weight[i]).max(0.0),
                    weight: self.nodes.weight[i],
                },
            );
            cur = self.nodes.seq_next[i];
        }
    }

    /// Full estimate set over the maintained live set plus an admission
    /// queue and predicted future arrivals: extracts the live set in
    /// admission order and runs the exact `predict` kernel, so the result
    /// is bit-identical to a fresh `predict` call on the same state. The
    /// kernel is told the completion order the treap keeps, which makes
    /// its sort one pass (module docs). This is the cold path the delta
    /// updates exist to avoid; point queries
    /// ([`IncrementalFluid::estimate`]) serve the hot path.
    pub fn estimates_full(
        &mut self,
        queued: &[FluidQuery],
        slots: Option<usize>,
        future: Option<&FutureArrivals>,
    ) -> FluidPrediction {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut rank = std::mem::take(&mut self.rank);
        let mut order = std::mem::take(&mut self.order);
        scratch.clear();
        if rank.len() < self.nodes.id.len() {
            rank.resize(self.nodes.id.len(), u32::MAX);
        }
        self.for_each_admitted(|slot, q| {
            rank[slot] = scratch.len() as u32;
            scratch.push(q);
        });
        order.clear();
        order.reserve(scratch.len());
        self.ranks_in_order(self.root, &rank, &mut order);
        let (p, hinted) = predict_kernel(&scratch, Some(&order), queued, slots, future, self.rate);
        debug_assert!(
            hinted,
            "the in-order walk is not a permutation of the live set"
        );
        (self.scratch, self.rank, self.order) = (scratch, rank, order);
        self.counters.full_rebuilds += 1;
        p
    }

    /// [`IncrementalFluid::estimates_full`] without the maintained order:
    /// the kernel sorts the extracted live set itself. Same result, same
    /// count in [`DeltaCounters::full_rebuilds`]; for audits, which must
    /// not read the structure they check.
    pub fn estimates_unhinted(
        &mut self,
        queued: &[FluidQuery],
        slots: Option<usize>,
        future: Option<&FutureArrivals>,
    ) -> FluidPrediction {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.extract_into(&mut scratch);
        let p = predict(&scratch, queued, slots, future, self.rate);
        self.scratch = scratch;
        self.counters.full_rebuilds += 1;
        p
    }

    /// Append `rank[slot]` for every node of the subtree at `t`, in key
    /// order: the in-order walk of [`IncrementalFluid::sweep_into`].
    fn ranks_in_order(&self, mut t: u32, rank: &[u32], order: &mut Vec<u32>) {
        let n = &self.nodes;
        while t != NIL {
            let i = t as usize;
            let l = n.left[i];
            if l != NIL {
                self.ranks_in_order(l, rank, order);
            }
            order.push(rank[i]);
            t = n.right[i];
        }
    }

    /// Force-rebuild the treap from the live set — the circuit-breaker's
    /// self-heal. The live queries are walked in admission order, their
    /// `(id, seq, tag, weight)` tuples captured, and the whole structure
    /// (tree, admission list, id index, free list) reconstructed from
    /// scratch in the capacity it already holds. Sequence numbers and tags
    /// are preserved bit-for-bit, so a healthy model rebuilds to
    /// bit-identical state (the unique-treap property); a model poisoned by
    /// non-finite tags or weights is sanitized on the way through
    /// (non-finite weight → 1, non-finite tag → `V`, i.e. completes
    /// immediately). Returns the number of sanitized fields. Counted as a
    /// full rebuild in [`DeltaCounters`].
    pub fn rebuild(&mut self) -> usize {
        let mut items: Vec<(u64, u64, f64, f64)> = Vec::with_capacity(self.len());
        let mut cur = self.head;
        while cur != NIL {
            let i = cur as usize;
            items.push((
                self.nodes.id[i],
                self.nodes.seq[i],
                self.nodes.tag[i],
                self.nodes.weight[i],
            ));
            cur = self.nodes.seq_next[i];
        }
        self.root = NIL;
        self.head = NIL;
        self.tail = NIL;
        self.nodes.clear();
        self.by_id.clear();
        let mut sanitized = 0usize;
        for (id, seq, mut tag, mut weight) in items {
            if domain::weight(weight).is_err() {
                weight = 1.0;
                sanitized += 1;
            }
            if !tag.is_finite() {
                tag = self.vt;
                sanitized += 1;
            }
            let s = self.nodes.alloc(id, weight, tag, seq);
            self.by_id.insert(id, s);
            self.link_tail(s);
            self.insert_tree(s);
        }
        self.counters.full_rebuilds += 1;
        sanitized
    }
}

/// By hand: nodes travel in admission order and the treap shape is not
/// encoded, because it is the unique treap over the node set (see module
/// docs); decoding rebuilds it exactly, so a re-encode is byte-identical.
/// The rate, `V`, weights, tags, sequence numbers and ids are checked on
/// the way in.
impl Wire for IncrementalFluid {
    fn enc(&self, e: &mut Enc) {
        (self.rate, self.vt, self.next_seq, self.len()).enc(e);
        let mut cur = self.head;
        while cur != NIL {
            let i = cur as usize;
            let n = &self.nodes;
            (n.id[i], n.seq[i], n.tag[i], n.weight[i]).enc(e);
            cur = n.seq_next[i];
        }
        self.due.enc(e);
        self.counters.enc(e);
    }

    fn dec(d: &mut Dec<'_>) -> Result<Self, CkptError> {
        let (rate, vt, next_seq, n): (f64, f64, u64, usize) = Wire::dec(d)?;
        let corrupt = |e: String| CkptError::Corrupt(format!("{e} in incremental-fluid state"));
        let rate = domain::rate(rate).map_err(corrupt)?;
        // A `V` or tag that is not finite is corrupt, as `rebuild` has it.
        if !vt.is_finite() {
            return Err(corrupt(format!("vt {vt} is not finite")));
        }
        // A node is 32 bytes on the wire: reserve for no more of them than
        // the bytes that remain could hold.
        let mut f = IncrementalFluid::with_capacity(rate, n.min(d.remaining() / 32));
        f.vt = vt;
        for _ in 0..n {
            let (id, seq, tag, weight): (u64, u64, f64, f64) = Wire::dec(d)?;
            domain::weight(weight).map_err(|e| corrupt(format!("query {id}: {e}")))?;
            if !tag.is_finite() {
                return Err(corrupt(format!("query {id}: tag {tag} is not finite")));
            }
            if seq >= next_seq {
                return Err(corrupt(format!("sequence {seq} beyond cursor {next_seq}")));
            }
            let s = f.nodes.alloc(id, weight, tag, seq);
            if f.by_id.insert(id, s).is_some() {
                return Err(corrupt(format!("duplicate query {id}")));
            }
            f.link_tail(s);
            f.insert_tree(s);
        }
        f.next_seq = next_seq;
        f.due = Wire::dec(d)?;
        f.counters = Wire::dec(d)?;
        Ok(f)
    }
}

impl IncrementalFluid {
    #[cfg(test)]
    fn check_invariants(&self) {
        fn walk(n: &Nodes, t: u32, count: &mut usize) -> (f64, f64, u32) {
            if t == NIL {
                return (0.0, 0.0, 0);
            }
            *count += 1;
            let i = t as usize;
            let (lw, lwv, ln) = walk(n, n.left[i], count);
            let (rw, rwv, rn) = walk(n, n.right[i], count);
            if n.left[i] != NIL {
                assert!(!n.key_less(t, n.tag[n.left[i] as usize], n.seq[n.left[i] as usize]));
                assert!(!n.prio_above(n.left[i], t));
            }
            if n.right[i] != NIL {
                assert!(n.key_less(t, n.tag[n.right[i] as usize], n.seq[n.right[i] as usize]));
                assert!(!n.prio_above(n.right[i], t));
            }
            let (w, wv, c) = (
                lw + n.weight[i] + rw,
                lwv + n.weight[i] * n.tag[i] + rwv,
                ln + 1 + rn,
            );
            assert_eq!(n.sub_w[i].to_bits(), w.to_bits(), "sub_w aggregate drift");
            assert_eq!(
                n.sub_wv[i].to_bits(),
                wv.to_bits(),
                "sub_wv aggregate drift"
            );
            assert_eq!(n.sub_n[i], c);
            (w, wv, c)
        }
        let mut count = 0usize;
        walk(&self.nodes, self.root, &mut count);
        assert_eq!(count, self.by_id.len());
        let mut list = 0usize;
        let mut cur = self.head;
        let mut last_seq = None;
        while cur != NIL {
            list += 1;
            let seq = self.nodes.seq[cur as usize];
            if let Some(p) = last_seq {
                assert!(seq > p, "admission list out of order");
            }
            last_seq = Some(seq);
            cur = self.nodes.seq_next[cur as usize];
        }
        assert_eq!(list, count);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use proptest::prelude::*;

    use super::*;
    use crate::fluid::standard_remaining_times;

    thread_local! {
        /// Routes this thread's treap insertions through
        /// [`insert_by_split_merge`] instead of `Nodes::insert`.
        pub(super) static SPLIT_MERGE: Cell<bool> = const { Cell::new(false) };
    }

    /// The insertion `Nodes::insert` replaced, kept as its oracle: make the
    /// node a singleton, split the whole tree at its key, merge twice.
    pub(super) fn insert_by_split_merge(f: &mut IncrementalFluid, s: u32) {
        let (n, i) = (&mut f.nodes, s as usize);
        (n.left[i], n.right[i]) = (NIL, NIL);
        (n.sub_w[i], n.sub_wv[i], n.sub_n[i]) = (n.weight[i], n.weight[i] * n.tag[i], 1);
        let (l, r) = n.split(f.root, n.tag[i], n.seq[i]);
        let lm = n.merge(l, s);
        f.root = n.merge(lm, r);
    }

    fn q(id: u64, cost: f64, weight: f64) -> FluidQuery {
        FluidQuery { id, cost, weight }
    }

    #[test]
    fn point_estimates_match_closed_form() {
        let qs = [
            q(1, 100.0, 1.0),
            q(2, 200.0, 1.0),
            q(3, 300.0, 1.0),
            q(4, 400.0, 1.0),
        ];
        let mut f = IncrementalFluid::new(100.0);
        for query in &qs {
            f.arrive(query.id, query.cost, query.weight);
        }
        let closed = standard_remaining_times(&qs, 100.0);
        for (i, query) in qs.iter().enumerate() {
            let e = f.estimate(query.id).unwrap();
            assert!((e - closed[i]).abs() < 1e-9, "id {}: {e}", query.id);
        }
        f.check_invariants();
    }

    #[test]
    fn point_estimates_match_predict_after_advance() {
        let mut f = IncrementalFluid::new(50.0);
        f.arrive(1, 500.0, 2.0);
        f.arrive(2, 100.0, 1.0);
        f.arrive(3, 321.0, 0.5);
        f.advance(0.75);
        let p = f.estimates_full(&[], None, None);
        for id in [1u64, 2, 3] {
            let point = f.estimate(id).unwrap();
            let full = p.remaining_for(id).unwrap();
            assert!(
                (point - full).abs() < 1e-9 * full.max(1.0),
                "id {id}: point {point} vs full {full}"
            );
        }
    }

    #[test]
    fn estimates_full_is_bit_identical_to_fresh_predict() {
        let mut f = IncrementalFluid::new(80.0);
        f.arrive(10, 400.0, 1.0);
        f.arrive(11, 150.0, 2.0);
        f.advance(1.25);
        f.arrive(12, 90.0, 0.5);
        f.reweight(10, 3.0);
        let mut extracted = Vec::new();
        f.extract_into(&mut extracted);
        let fresh = predict(&extracted, &[], None, None, 80.0);
        let incr = f.estimates_full(&[], None, None);
        assert_eq!(fresh.finish_times.len(), incr.finish_times.len());
        for (a, b) in fresh.finish_times.iter().zip(incr.finish_times.iter()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn advance_crosses_completions_in_order() {
        let mut f = IncrementalFluid::new(100.0);
        f.arrive(1, 100.0, 1.0);
        f.arrive(2, 200.0, 1.0);
        f.arrive(3, 300.0, 1.0);
        // Fig 1 shape: finishes at t = 3, 5, 6.
        f.advance(5.5);
        let mut done = Vec::new();
        f.drain_due(&mut done);
        assert_eq!(done, vec![1, 2]);
        assert_eq!(f.len(), 1);
        let rest = f.estimate(3).unwrap();
        assert!((rest - 0.5).abs() < 1e-9, "got {rest}");
        assert!(f.estimate(1).is_none());
        f.check_invariants();
    }

    #[test]
    fn rate_change_is_lazy_and_exact() {
        let mut f = IncrementalFluid::new(100.0);
        f.arrive(1, 300.0, 1.0);
        f.arrive(2, 100.0, 1.0);
        f.set_rate(50.0);
        // Same tags, half the rate: estimates double.
        assert!((f.estimate(2).unwrap() - 4.0).abs() < 1e-9);
        assert!((f.estimate(1).unwrap() - 8.0).abs() < 1e-9);
        assert_eq!(f.counters().rate_changes, 1);
    }

    #[test]
    fn reweight_preserves_remaining_cost() {
        let mut f = IncrementalFluid::new(100.0);
        f.arrive(1, 400.0, 1.0);
        f.arrive(2, 400.0, 1.0);
        f.advance(2.0); // each got 100 units; 300 left apiece
        assert!(f.reweight(1, 3.0));
        let c1 = f.remaining_cost(1).unwrap();
        assert!((c1 - 300.0).abs() < 1e-6, "got {c1}");
        // id 1 now takes 3/4 of the rate: finishes at 300/75 = 4s.
        let e1 = f.estimate(1).unwrap();
        assert!((e1 - 4.0).abs() < 1e-6, "got {e1}");
        f.check_invariants();
    }

    #[test]
    fn finish_abort_and_unknown_ids() {
        let mut f = IncrementalFluid::new(10.0);
        f.arrive(1, 10.0, 1.0);
        f.arrive(2, 10.0, 1.0);
        assert!(f.finish(1));
        assert!(!f.finish(1));
        assert!(f.abort(2));
        assert!(!f.abort(7));
        assert!(!f.reweight(1, 2.0));
        assert!(!f.refine_cost(1, 5.0));
        assert!(f.is_empty());
        assert_eq!(f.estimate(1), None);
        let c = f.counters();
        assert_eq!((c.finishes, c.aborts), (1, 1));
    }

    #[test]
    fn refine_cost_retags() {
        let mut f = IncrementalFluid::new(100.0);
        f.arrive(1, 100.0, 1.0);
        assert!(f.refine_cost(1, 400.0));
        assert!((f.estimate(1).unwrap() - 4.0).abs() < 1e-9);
        f.check_invariants();
    }

    #[test]
    fn checkpoint_round_trips_bit_identically() {
        let mut f = IncrementalFluid::new(64.0);
        for i in 0..100u64 {
            f.arrive(i, 50.0 + i as f64, 1.0 + (i % 4) as f64);
        }
        f.advance(0.37);
        f.reweight(17, 2.5);
        f.refine_cost(23, 999.0);
        assert!(f.finish(3));
        f.set_rate(128.0);
        f.advance(0.11);
        let mut e = Enc::new();
        f.enc(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let mut g = IncrementalFluid::dec(&mut d).unwrap();
        assert!(d.is_exhausted());
        let mut e2 = Enc::new();
        g.enc(&mut e2);
        assert_eq!(bytes, e2.into_bytes(), "re-encode must be byte-identical");
        // Behavior equivalence: same estimates and same future evolution.
        assert_eq!(f.len(), g.len());
        for i in 0..100u64 {
            match (f.estimate(i), g.estimate(i)) {
                (Some(a), Some(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (a, b) => assert_eq!(a, b),
            }
        }
        f.advance(5.0);
        g.advance(5.0);
        let (mut da, mut db) = (Vec::new(), Vec::new());
        f.drain_due(&mut da);
        g.drain_due(&mut db);
        assert_eq!(da, db);
        assert_eq!(f.virtual_time().to_bits(), g.virtual_time().to_bits());
        g.check_invariants();
    }

    #[test]
    fn rebuild_of_healthy_state_is_bit_identical() {
        let mut f = IncrementalFluid::new(64.0);
        for i in 0..200u64 {
            f.arrive(i, 25.0 + (i * 13 % 400) as f64, 1.0 + (i % 5) as f64);
        }
        f.advance(1.7);
        f.reweight(11, 4.0);
        f.refine_cost(42, 777.0);
        let mut e = Enc::new();
        f.enc(&mut e);
        let before = e.into_bytes();
        let before_estimates: Vec<_> = (0..200u64).map(|i| f.estimate(i)).collect();
        assert_eq!(f.rebuild(), 0, "healthy state needs no sanitization");
        let mut e2 = Enc::new();
        f.enc(&mut e2);
        // The encoding ends with the 9-counter telemetry block; rebuild
        // legitimately bumps `full_rebuilds` there, so model-state bytes
        // are everything before it.
        let after = e2.into_bytes();
        let state = before.len() - 9 * 8;
        assert_eq!(
            before[..state],
            after[..state],
            "rebuild must not move model state"
        );
        for (i, b) in before_estimates.iter().enumerate() {
            match (f.estimate(i as u64), b) {
                (Some(x), Some(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                (a, b) => assert_eq!(a, *b),
            }
        }
        f.check_invariants();
        assert_eq!(f.counters().full_rebuilds, 1);
    }

    #[test]
    fn rebuild_sanitizes_poisoned_state() {
        let mut f = IncrementalFluid::new(10.0);
        f.arrive(1, 100.0, 1.0);
        f.arrive(2, 100.0, 1.0);
        // Poison node 1 directly: non-finite tag and weight.
        let s = *f.by_id.get(&1).unwrap() as usize;
        f.nodes.tag[s] = f64::NAN;
        f.nodes.weight[s] = f64::INFINITY;
        let sanitized = f.rebuild();
        assert_eq!(sanitized, 2);
        assert!(f.estimate(1).unwrap().is_finite());
        assert!(f.estimate(2).unwrap().is_finite());
        f.check_invariants();
        // The poisoned query now completes immediately (tag = V).
        f.advance(1e-6);
        let mut done = Vec::new();
        f.drain_due(&mut done);
        assert_eq!(done, vec![1]);
    }

    #[test]
    fn truncated_state_is_rejected() {
        let mut e = Enc::new();
        IncrementalFluid::new(10.0).enc(&mut e);
        let mut bytes = e.into_bytes();
        bytes.truncate(bytes.len() - 1);
        let mut d = Dec::new(&bytes);
        assert!(IncrementalFluid::dec(&mut d).is_err());
    }

    /// Every slot the sweep wrote, as `(slot, value)`.
    fn swept(f: &IncrementalFluid) -> Vec<(usize, f64)> {
        let mut col = Vec::new();
        f.sweep_into(&mut col);
        let live = |&(_, e): &(usize, f64)| !e.is_nan();
        col.into_iter().enumerate().filter(live).collect()
    }

    #[test]
    fn sweep_of_empty_and_one_node_trees() {
        let mut f = IncrementalFluid::new(10.0);
        assert!(swept(&f).is_empty());
        assert_eq!(f.slot_of(1), None);
        assert_eq!(f.estimate_at(0, 1), None);

        f.arrive(1, 50.0, 2.0);
        let s = f.slot_of(1).unwrap();
        let e = f.estimate(1).unwrap();
        assert_eq!(e, 5.0);
        assert_eq!(swept(&f), vec![(s as usize, e)]);
        assert_eq!(f.estimate_at(s, 1), Some(e));
        assert_eq!(f.estimate_at(s, 2), None, "the slot holds another id");
        assert_eq!(f.estimate_at(s + 1, 1), None, "past the last slot");

        // The freed slot keeps the departed id; it must not read as live.
        assert!(f.finish(1));
        assert!(swept(&f).is_empty());
        assert_eq!(f.estimate_at(s, 1), None);
        f.arrive(2, 30.0, 1.0);
        assert_eq!(
            f.slot_of(2),
            Some(s),
            "the free list hands the slot out again"
        );
        assert_eq!(f.estimate_at(s, 1), None);
        assert_eq!(f.estimate_at(s, 2), f.estimate(2));
    }

    #[test]
    fn sweep_is_bit_identical_to_point_reads() {
        let mut f = IncrementalFluid::new(64.0);
        for i in 0..300u64 {
            f.arrive(i, 25.0 + (i * 13 % 400) as f64, 1.0 + (i % 5) as f64);
        }
        f.advance(1.7);
        f.reweight(11, 4.0);
        f.refine_cost(42, 777.0);
        f.abort(7);
        let got = swept(&f);
        assert_eq!(got.len(), f.len());
        for (slot, e) in got {
            let id = f.nodes.id[slot];
            assert_eq!(f.slot_of(id), Some(slot as u32));
            assert_eq!(e.to_bits(), f.estimate(id).unwrap().to_bits(), "id {id}");
        }
    }

    #[test]
    fn idle_advance_freezes_virtual_time() {
        let mut f = IncrementalFluid::new(10.0);
        f.advance(100.0);
        assert_eq!(f.virtual_time(), 0.0);
        f.arrive(1, 10.0, 1.0);
        f.advance(100.0);
        let mut done = Vec::new();
        f.drain_due(&mut done);
        assert_eq!(done, vec![1]);
        let frozen = f.virtual_time();
        f.advance(100.0);
        assert_eq!(f.virtual_time(), frozen);
    }

    /// One scripted delta. Indices pick from small tables, so `cost/weight`
    /// repeats and a burst of arrivals lands on one tag, ordered by `seq`.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Arrive { cost: usize, weight: usize },
        Finish(usize),
        Abort(usize),
        Reweight(usize, usize),
        RefineCost(usize, usize),
        Advance(usize),
        Rebuild,
        Recode,
    }

    const COSTS: [f64; 5] = [0.0, 50.0, 100.0, 200.0, 400.0];
    const WEIGHTS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
    const STEPS: [f64; 5] = [0.0, 0.25, 1.0, 3.0, 10.0];

    fn arb_op() -> impl Strategy<Value = Op> {
        (0u8..12, any::<usize>(), 0..COSTS.len() * WEIGHTS.len()).prop_map(|(sel, p, k)| {
            let (cost, weight) = (k % COSTS.len(), k / COSTS.len());
            match sel {
                // Mostly arrivals, so the tree grows.
                0..=5 => Op::Arrive { cost, weight },
                6 => Op::Finish(p),
                7 => Op::Abort(p),
                8 => Op::Reweight(p, weight),
                9 => Op::RefineCost(p, cost),
                10 => Op::Advance(p % STEPS.len()),
                _ if p % 2 == 0 => Op::Rebuild,
                _ => Op::Recode,
            }
        })
    }

    fn recode(f: &IncrementalFluid) -> IncrementalFluid {
        let mut e = Enc::new();
        f.enc(&mut e);
        let bytes = e.into_bytes();
        IncrementalFluid::dec(&mut Dec::new(&bytes)).unwrap()
    }

    /// Apply `op` to `f`; `id` is the id an arrival takes. Half the picks
    /// fall on the three newest live queries, so a re-tag often lands on
    /// the tag of a query admitted just after, and keys tie on `seq`s one
    /// apart.
    fn apply(f: &mut IncrementalFluid, op: Op, id: u64, live: &[FluidQuery]) {
        let pick = |p: usize| match p % 2 {
            0 => live[p / 2 % live.len()].id,
            _ => live[live.len() - 1 - p / 2 % live.len().min(3)].id,
        };
        match op {
            Op::Arrive { cost, weight } => f.arrive(id, COSTS[cost], WEIGHTS[weight]),
            Op::Advance(dt) => f.advance(STEPS[dt]),
            Op::Rebuild => assert_eq!(f.rebuild(), 0),
            Op::Recode => *f = recode(f),
            _ if live.is_empty() => {}
            Op::Finish(p) => assert!(f.finish(pick(p))),
            Op::Abort(p) => assert!(f.abort(pick(p))),
            Op::Reweight(p, w) => assert!(f.reweight(pick(p), WEIGHTS[w])),
            Op::RefineCost(p, c) => assert!(f.refine_cost(pick(p), COSTS[c])),
        }
    }

    /// Node for node: the same root, links and counts, and the same bits
    /// in every aggregate, slot by slot.
    fn assert_same_tree(a: &IncrementalFluid, b: &IncrementalFluid) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (x, y) = (&a.nodes, &b.nodes);
        assert_eq!(a.root, b.root, "root");
        assert_eq!(x.left, y.left, "left");
        assert_eq!(x.right, y.right, "right");
        assert_eq!(x.sub_n, y.sub_n, "sub_n");
        assert_eq!(bits(&x.sub_w), bits(&y.sub_w), "sub_w");
        assert_eq!(bits(&x.sub_wv), bits(&y.sub_wv), "sub_wv");
        assert_eq!(a.due, b.due, "due");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The single-descent insertion builds the tree the split + merge +
        /// merge insertion it replaced builds, after every delta, rebuild
        /// and decode of a random stream.
        #[test]
        fn single_descent_insert_matches_split_merge(
            ops in prop::collection::vec(arb_op(), 1..400),
        ) {
            let (mut a, mut b) = (IncrementalFluid::new(100.0), IncrementalFluid::new(100.0));
            let mut live = Vec::new();
            for (id, op) in ops.into_iter().enumerate() {
                a.extract_into(&mut live);
                apply(&mut a, op, id as u64, &live);
                SPLIT_MERGE.with(|c| c.set(true));
                apply(&mut b, op, id as u64, &live);
                SPLIT_MERGE.with(|c| c.set(false));
                assert_same_tree(&a, &b);
                a.check_invariants();
                b.check_invariants();
            }
        }
    }
}
