//! Admission and backoff, and the model deltas of each query command:
//! submit, advance, abort, reweight, refine and set_rate. Queued queries
//! wait in a FIFO queue, move to a backoff list when their deadline fires,
//! and leave for the model when a slot frees.

use mqpi_core::FluidQuery;
use mqpi_obs::TraceKind;

use crate::{PiService, Waiting, COMPLETION_RESIDUAL, NIL};

impl PiService {
    /// Waiting work in admission order: the FIFO queue, then backoff
    /// entries in expiry order. Position `i` is `queue[i]` below
    /// `queue.len()` and `backoff[i - queue.len()]` from there on.
    pub(crate) fn waiting(&self) -> impl Iterator<Item = FluidQuery> + '_ {
        self.queue.iter().chain(&self.backoff).map(|w| FluidQuery {
            id: w.id,
            cost: w.cost,
            weight: w.weight,
        })
    }

    /// Remove the entry at position `pos` of [`PiService::waiting`].
    pub(crate) fn remove_waiting(&mut self, pos: usize) {
        match pos.checked_sub(self.queue.len()) {
            None => {
                self.queue.remove(pos);
            }
            Some(i) => {
                self.backoff.remove(i);
            }
        }
    }

    /// Admit `id` into the model. It takes at most `cost/C` seconds of
    /// service from anybody else (§3.1 read backwards).
    fn arrive(&mut self, id: u64, cost: f64, weight: f64) {
        self.fluid.arrive(id, cost, weight);
        self.drift += cost / self.fluid.rate();
        if self.obs.is_enabled() {
            self.obs.counter_add("pi.delta.arrive", 1);
        }
    }

    /// Sanitize a submitted weight: non-finite or non-positive values are
    /// replaced with 1.0 (counted) instead of poisoning the model.
    fn sane_weight(&mut self, weight: f64) -> f64 {
        if weight.is_finite() && weight > 0.0 {
            weight
        } else {
            self.count_sanitized();
            1.0
        }
    }

    /// Sanitize a submitted cost: non-finite values become 0 (counted).
    fn sane_cost(&mut self, cost: f64) -> f64 {
        if cost.is_finite() {
            cost.max(0.0)
        } else {
            self.count_sanitized();
            0.0
        }
    }

    /// Count one non-finite input refused at the boundary.
    fn count_sanitized(&mut self) {
        self.stats.sanitized += 1;
        if self.obs.is_enabled() {
            self.obs.counter_add("pi.sanitized", 1);
        }
    }

    /// Submit a query for the live session in slot `slot`.
    pub(crate) fn apply_submit(&mut self, slot: u32, cost: f64, weight: f64) -> u64 {
        let cost = self.sane_cost(cost);
        let weight = self.sane_weight(weight);
        let id = self.next_query;
        self.next_query += 1;
        self.mean_cost.observe(cost);
        self.pending_arrivals += 1;
        let admit = self.queue.is_empty() && self.cfg.slots.is_none_or(|k| self.fluid.len() < k);
        if admit {
            self.arrive(id, cost, weight);
        } else {
            let deadline = self
                .cfg
                .queue_deadline
                .map_or(f64::INFINITY, |d| self.clock + d);
            self.queue.push_back(Waiting {
                id,
                cost,
                weight,
                attempts: 0,
                until: deadline,
            });
        }
        self.stats.submitted += 1;
        if self.obs.is_enabled() {
            self.obs.counter_add("pi.submitted", 1);
            if !admit {
                self.obs.counter_add("pi.enqueued", 1);
            }
        }
        // The query was placed a few lines up: no need to look for it.
        self.attach_sub(slot, id, admit);
        self.evaluate_tier();
        id
    }

    /// `id` left the system; `was_live` says it left the model (it was
    /// admitted) and not the queue or the backoff list. Its subscribers
    /// stay chained until the next pump's final push.
    pub(crate) fn depart(&mut self, id: u64, was_live: bool) {
        let Some(&head) = self.by_query.get(&id) else {
            return;
        };
        self.pending_final.push(id);
        let mut cur = if was_live { head } else { NIL };
        while cur != NIL {
            self.live_subs -= 1;
            cur = self.subs[cur as usize].next_same_query;
        }
    }

    fn admit_from_queue(&mut self) {
        while self.cfg.slots.is_none_or(|k| self.fluid.len() < k) {
            let Some(q) = self.queue.pop_front() else {
                break;
            };
            self.arrive(q.id, q.cost, q.weight);
            // Subscribers that waited with it now have something to read.
            self.live_subs += self.rearm_chain(q.id);
        }
    }

    /// Release backoff entries whose delay elapsed back into the FIFO
    /// queue (fresh deadline), then expire queued entries past their
    /// deadline: re-queue with backoff while the retry budget lasts,
    /// reject observably after. Deterministic: both scans run in stored
    /// order at exact virtual times.
    fn service_deadlines(&mut self) {
        if self.backoff.is_empty() && self.cfg.queue_deadline.is_none() {
            return;
        }
        let now = self.clock;
        let mut i = 0;
        while i < self.backoff.len() {
            if self.backoff[i].until <= now {
                let mut w = self.backoff.remove(i);
                w.until = self.cfg.queue_deadline.map_or(f64::INFINITY, |d| now + d);
                self.queue.push_back(w);
                if self.obs.is_enabled() {
                    self.obs.counter_add("pi.deadline.released", 1);
                }
            } else {
                i += 1;
            }
        }
        if self.cfg.queue_deadline.is_none() {
            return;
        }
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].until < now {
                let Some(mut q) = self.queue.remove(i) else {
                    break;
                };
                self.stats.deadline_expired += 1;
                let attempt = q.attempts + 1;
                let (action, counter) = match self.cfg.retry.delay_for(attempt) {
                    Some(delay) => {
                        q.attempts = attempt;
                        q.until = now + delay;
                        self.backoff.push(q);
                        self.stats.deadline_requeued += 1;
                        ("requeue", "pi.deadline.requeued")
                    }
                    None => {
                        self.stats.deadline_rejected += 1;
                        self.depart(q.id, false);
                        ("reject", "pi.deadline.rejected")
                    }
                };
                if self.obs.is_enabled() {
                    self.obs.counter_add("pi.deadline.expired", 1);
                    self.obs.counter_add(counter, 1);
                    self.obs.emit(
                        now,
                        TraceKind::Deadline {
                            id: q.id,
                            action,
                            attempt,
                        },
                    );
                }
            } else {
                i += 1;
            }
        }
    }

    pub(crate) fn apply_advance(&mut self, dt: f64) {
        let dt = dt.max(0.0);
        self.clock += dt;
        self.arrivals.observe(dt, self.pending_arrivals);
        self.pending_arrivals = 0;
        self.fluid.advance(dt);
        self.scratch_done.clear();
        self.fluid.drain_due(&mut self.scratch_done);
        if !self.scratch_done.is_empty() {
            let done = std::mem::take(&mut self.scratch_done);
            for &id in &done {
                self.stats.completed += 1;
                self.depart(id, true);
            }
            self.drift += done.len() as f64 * COMPLETION_RESIDUAL / self.fluid.rate();
            self.scratch_done = done;
            self.admit_from_queue();
            if self.obs.is_enabled() {
                self.obs
                    .counter_add("pi.completed", self.scratch_done.len() as u64);
            }
        }
        self.service_deadlines();
        self.admit_from_queue();
        self.evaluate_tier();
        self.run_audit();
        debug_assert!(
            self.ledger().balanced(),
            "work-conservation ledger out of balance: {:?}",
            self.ledger()
        );
    }

    pub(crate) fn apply_abort(&mut self, query: u64) -> bool {
        if let Some(remaining) = self.fluid.remaining_cost(query) {
            self.fluid.abort(query);
            self.drift += remaining / self.fluid.rate();
            self.stats.aborted += 1;
            self.depart(query, true);
            self.admit_from_queue();
            if self.obs.is_enabled() {
                self.obs.counter_add("pi.delta.abort", 1);
            }
            self.evaluate_tier();
            return true;
        }
        let Some(pos) = self.waiting().position(|q| q.id == query) else {
            return false;
        };
        self.remove_waiting(pos);
        self.stats.aborted += 1;
        self.depart(query, false);
        self.evaluate_tier();
        true
    }

    pub(crate) fn apply_reweight(&mut self, query: u64, weight: f64) -> bool {
        let weight = self.sane_weight(weight);
        if let Some(remaining) = self.fluid.remaining_cost(query) {
            self.fluid.reweight(query, weight);
            self.drift += remaining / self.fluid.rate();
            self.rearm_chain(query);
            if self.obs.is_enabled() {
                self.obs.counter_add("pi.delta.reweight", 1);
            }
            return true;
        }
        match self
            .queue
            .iter_mut()
            .chain(&mut self.backoff)
            .find(|w| w.id == query)
        {
            Some(w) => {
                w.weight = weight;
                true
            }
            None => false,
        }
    }

    pub(crate) fn apply_refine(&mut self, query: u64, cost: f64) -> bool {
        if !cost.is_finite() {
            self.count_sanitized();
            return false;
        }
        let Some(remaining) = self.fluid.remaining_cost(query) else {
            return false;
        };
        self.fluid.refine_cost(query, cost);
        self.drift += (cost.max(0.0) - remaining).abs() / self.fluid.rate();
        self.rearm_chain(query);
        if self.obs.is_enabled() {
            self.obs.counter_add("pi.delta.refine", 1);
        }
        true
    }

    pub(crate) fn apply_set_rate(&mut self, rate: f64) {
        self.fluid.set_rate(rate);
        // A rate change rescales every estimate.
        self.rearm_all();
        if self.obs.is_enabled() {
            self.obs.counter_add("pi.delta.rate", 1);
        }
    }
}
