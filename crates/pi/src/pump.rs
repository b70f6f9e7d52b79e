//! The pump and its filter: final pushes, then a read of only the
//! subscriptions whose due-key `clock + drift` has reached (DESIGN.md §13).

use crate::session::make_sid;
use crate::{EstimatePush, LoadTier, PiService, NIL};

/// Relative floating-point margin of a due-key. The drift bound holds in
/// real arithmetic; two point estimates of one query taken at different
/// tree shapes also differ by rounding, proportional to the magnitudes
/// that enter them, and so do the running sums behind `clock + drift`.
/// 1e-12 is about 4 500 ulps: two orders above the worst case of a
/// 40-level descent, small against any epsilon worth configuring.
const FP_MARGIN_REL: f64 = 1e-12;

/// The push predicate: a subscription last told `last_push` (NaN =
/// nothing yet) is pushed `est` when it moved by more than `epsilon`.
fn moved(last_push: f64, est: f64, epsilon: f64) -> bool {
    last_push.is_nan() || (est - last_push).abs() > epsilon
}

impl PiService {
    /// Make every key due: whatever just happened can have moved any
    /// estimate, or the epsilon the keys were computed against, by an
    /// amount the drift bound does not cover.
    pub(crate) fn rearm_all(&mut self) {
        self.due_key.fill(f64::NEG_INFINITY);
        self.due_floor = f64::NEG_INFINITY;
    }

    /// Make every subscriber of `query` due; returns how many there are.
    pub(crate) fn rearm_chain(&mut self, query: u64) -> u64 {
        let mut n = 0;
        let mut cur = self.by_query.get(&query).copied().unwrap_or(NIL);
        while cur != NIL {
            self.due_key[cur as usize] = f64::NEG_INFINITY;
            self.due_floor = f64::NEG_INFINITY;
            n += 1;
            cur = self.subs[cur as usize].next_same_query;
        }
        n
    }

    pub(crate) fn apply_pump(&mut self, out: &mut Vec<EstimatePush>) {
        let _span = self.obs.span("pi.pump");
        self.stats.pumps += 1;
        let pushes_before = self.stats.pushes;
        let finals = std::mem::take(&mut self.pending_final);
        for &query in &finals {
            let Some(head) = self.by_query.remove(&query) else {
                continue;
            };
            let mut cur = head;
            while cur != NIL {
                let sub = self.subs[cur as usize];
                out.push(EstimatePush {
                    session: make_sid(sub.session, self.sessions[sub.session as usize].gen),
                    query,
                    at: self.clock,
                    estimate: 0.0,
                    done: true,
                });
                self.stats.pushes += 1;
                self.unlink_from_session(cur);
                self.free_sub(cur);
                cur = sub.next_same_query;
            }
        }
        let mut finals = finals;
        finals.clear();
        self.pending_final = finals;
        let (epsilon, finals_only) = match (self.cfg.ladder, self.tier) {
            (Some(l), LoadTier::EpsilonWiden) => (self.cfg.epsilon * l.epsilon_factor, false),
            (Some(_), LoadTier::FinalsOnly | LoadTier::Shed) => (self.cfg.epsilon, true),
            _ => (self.cfg.epsilon, false),
        };
        let reads = if finals_only {
            self.stats.degraded_pumps += 1;
            if self.obs.is_enabled() {
                self.obs.counter_add("pi.pump.degraded", 1);
            }
            0
        } else {
            let (pushed, reads) = self.pump_due(epsilon, out);
            self.stats.pushes += pushed;
            debug_assert_eq!(
                self.live_subs,
                self.recount_live_subs(),
                "live-subscription count drifted from the chains"
            );
            // What a scan of every live subscription counts one by one.
            self.stats.suppressed += self.live_subs - pushed;
            reads
        };
        if self.obs.is_enabled() {
            self.obs.counter_add("pi.pump.calls", 1);
            let c = self.fluid.counters();
            let deltas = c.arrivals
                + c.finishes
                + c.aborts
                + c.reweights
                + c.cost_refinements
                + c.rate_changes
                + c.completions;
            self.obs.gauge_set(
                "pi.rebuilds.avoided",
                deltas.saturating_sub(c.full_rebuilds) as f64,
            );
            self.obs.gauge_set("pi.live", self.fluid.len() as f64);
            self.obs
                .counter_add("pi.push.sent", self.stats.pushes - pushes_before);
            self.obs.counter_add("pi.pump.reads", reads);
        }
    }

    /// The non-final half of a pump: read every slot whose key
    /// `clock + drift` has reached, in slot order, push the ones that
    /// moved beyond `epsilon`, and give each a new key. Returns
    /// `(pushes, reads)`. Every comparison against a key is written so
    /// that a NaN on either side means "read it".
    ///
    /// A read is a root-to-node descent, `⌈log2(live + 1)⌉` nodes deep in
    /// a balanced tree. When the due slots' descents would together visit
    /// at least as many nodes as the tree has, one walk of the tree
    /// ([`IncrementalFluid::sweep_into`]) yields every estimate first and
    /// the due slots read theirs out of its column: the same bits for
    /// less work, decided by the tree's size alone.
    fn pump_due(&mut self, epsilon: f64, out: &mut Vec<EstimatePush>) -> (u64, u64) {
        let s = self.clock + self.drift;
        if s < self.due_floor {
            #[cfg(debug_assertions)]
            (0..self.subs.len()).for_each(|slot| self.assert_within_epsilon(slot, epsilon));
            return (0, 0);
        }
        let live = self.fluid.len();
        let due = self.subs.len() - self.due_key.iter().filter(|&&key| s < key).count();
        let depth = (usize::BITS - live.leading_zeros()) as usize;
        let swept = live > 0 && due.saturating_mul(depth) >= live;
        if swept {
            self.fluid.sweep_into(&mut self.sweep);
            if self.obs.is_enabled() {
                self.obs.counter_add("pi.pump.sweeps", 1);
            }
        }
        // What the prefix sums inside a point estimate cancel against
        // (`V·W/C`): with the estimate itself, the scale of its rounding.
        let cancel =
            (self.fluid.virtual_time() * self.fluid.total_weight() / self.fluid.rate()).abs();
        let (mut pushed, mut reads) = (0, 0);
        let mut floor = f64::INFINITY;
        for slot in 0..self.subs.len() {
            let key = self.due_key[slot];
            if s < key {
                #[cfg(debug_assertions)]
                self.assert_within_epsilon(slot, epsilon);
                floor = floor.min(key);
                continue;
            }
            let sub = self.subs[slot];
            let Some(est) = sub
                .active
                .then(|| self.read_estimate(slot, sub.query, swept))
                .flatten()
            else {
                // Free, or queued behind the admission limit: parked
                // until `subscribe` or admission re-arms the slot.
                self.due_key[slot] = f64::INFINITY;
                continue;
            };
            debug_assert_eq!(
                Some(est.to_bits()),
                self.fluid.estimate(sub.query).map(f64::to_bits),
                "slot {slot} (query {}) read through node {}, swept: {swept}",
                sub.query,
                self.node_of[slot]
            );
            reads += 1;
            let push = moved(sub.last_push, est, epsilon);
            let last = if push { est } else { sub.last_push };
            if push {
                out.push(EstimatePush {
                    session: make_sid(sub.session, self.sessions[sub.session as usize].gen),
                    query: sub.query,
                    at: self.clock,
                    estimate: est,
                    done: false,
                });
                self.subs[slot].last_push = est;
                pushed += 1;
            }
            let slack = epsilon - (est - last).abs();
            let margin = FP_MARGIN_REL * (est.abs() + last.abs() + s.abs() + cancel);
            let key = s + slack - margin;
            // A key that is not a number can promise nothing.
            let key = if key.is_nan() { f64::NEG_INFINITY } else { key };
            self.due_key[slot] = key;
            floor = floor.min(key);
        }
        self.due_floor = floor;
        (pushed, reads)
    }

    /// The estimate of `query` for subscription slot `slot`: out of this
    /// pump's sweep column when there is one, else by a descent. Either
    /// way through the slot's node handle while that still names the
    /// query, and through the id index (refreshing the handle) when it
    /// does not. `None`: the query is not live.
    fn read_estimate(&mut self, slot: usize, query: u64, swept: bool) -> Option<f64> {
        let mut node = self.node_of[slot];
        if !self.fluid.holds(node, query) {
            node = self.fluid.slot_of(query)?;
            self.node_of[slot] = node;
        }
        if swept {
            Some(self.sweep[node as usize])
        } else {
            self.fluid.estimate_at(node, query)
        }
    }

    /// Debug cross-check of one skipped slot: the exact predicate must
    /// agree that there is nothing to push.
    #[cfg(debug_assertions)]
    fn assert_within_epsilon(&self, slot: usize, epsilon: f64) {
        let sub = self.subs[slot];
        if !sub.active {
            return;
        }
        if let Some(est) = self.fluid.estimate(sub.query) {
            assert!(
                !moved(sub.last_push, est, epsilon),
                "slot {slot} (query {}) skipped at clock+drift {} < key {} but estimate {est} \
                 is beyond epsilon {epsilon} of last push {}",
                sub.query,
                self.clock + self.drift,
                self.due_key[slot],
                sub.last_push
            );
        }
    }

    /// `live_subs` from first principles.
    pub(crate) fn recount_live_subs(&self) -> u64 {
        self.subs
            .iter()
            .filter(|s| s.active && self.fluid.contains(s.query))
            .count() as u64
    }
}
