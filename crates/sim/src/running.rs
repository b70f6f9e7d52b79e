//! The running set: the sessions the scheduler serves, with the columns a
//! step reads stored contiguously in running order.
//!
//! The slab (`crate::slab::SessionSlab`) recycles rows through a free list,
//! so after churn the running sessions' rows are scattered across it. The
//! running set owns, in running order, what a step reads — weight, blocked,
//! credit, `units_done`, the speed monitor, and the job as its plain
//! `total`/`done` counters and a `plain` flag — and keeps a [`JobSlot`] per
//! session for the cold columns the slab keeps (id, name, the rest of the
//! job, times, rollback, report scale, attempt). Rows move in on admission
//! ([`RunningSet::admit`]) and leave on departure. Every column is `Copy`,
//! so removals are memmoves.
//!
//! Running order is observable: it is the order `Σw` accumulates in for
//! weighted sets, the order finishers leave in (and with it `Departed`
//! events and `FinishedQuery` records), snapshot order, `pick_victim`'s
//! index and the checkpoint encoding. Admission appends; every removal
//! keeps the survivors' order ([`RunningSet::remove`] shifts every column,
//! [`RunningSet::compact`] drops a step's finishers moving each survivor
//! once). Each row also carries its admission number (`seq`), which is
//! therefore ascending in running order.
//!
//! # The tag path
//!
//! In event mode, while every unblocked session is a unit-weight plain job,
//! every one of them receives the same service per step, so the set is the
//! §2.2 fluid in virtual time. [`Tags`] then keeps one fixed-point service
//! clock `v` (a count of 2⁻⁵² work units) and, per row, an `anchor` such
//! that an unblocked row's service so far (`done` plus credit) is
//! `v − anchor`; its finish tag `anchor + total` sits in a min-heap. A step
//! advances `v` and pops the due tags ([`RunningSet::serve_tags`]), and the
//! `done`, `credit` and `units_done` columns of an unblocked row hold the
//! values as of its anchoring: [`RunningSet::settled`] derives the current
//! ones from `v` wherever they are read. A blocked row receives nothing, so its
//! columns are its truth. The monitors run as one lane of f64 EMAs
//! ([`crate::speed::fluid_step`]). A session the tag path cannot serve —
//! a weight that is not 1.0, an opaque or failure-armed job — turns it off
//! ([`RunningSet::untag`]), which writes every derived value back, and the
//! fused loop ([`RunningSet::serve`]) runs until [`RunningSet::try_tag`]
//! finds the set eligible again, its monitors in lockstep included.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mqpi_engine::error::Result;

use crate::job::{Job, JobProgress, JobRest, JobSnapshot, JobState};
use crate::slab::{JobSlot, SessionSlab};
use crate::speed::{fluid_step, SpeedMonitor};

/// Fractional bits of the tag path's fixed-point service: a credit below
/// one unit is then an f64 on the 2⁻⁵² grid, exact both ways.
const FRAC: u32 = 52;
const ONE_F: f64 = (1u64 << FRAC) as f64;

/// Running sessions, one row per session in every column, in running order.
#[derive(Debug, Default)]
pub(crate) struct RunningSet {
    /// Slab row holding the session's cold columns.
    pub(crate) slot: Vec<JobSlot>,
    pub(crate) weight: Vec<f64>,
    pub(crate) blocked: Vec<bool>,
    credit: Vec<f64>,
    units_done: Vec<f64>,
    monitor: Vec<SpeedMonitor>,
    /// A synthetic job's counters (both 0 for an opaque job); the rest of
    /// the job stays in the slab's `job` column.
    total: Vec<u64>,
    done: Vec<u64>,
    /// [`JobRest::plain`]: the step runs this job from `total`/`done` alone.
    plain: Vec<bool>,
    /// Admission number, ascending in running order.
    seq: Vec<u64>,
    next_seq: u64,
    /// Tag path only: the fixed-point service `v − anchor` of an unblocked
    /// row, and every row's monitor EMA as a lane.
    anchor: Vec<i128>,
    lane: Vec<f64>,
    tags: Tags,
}

/// The tag path's shared state (see the module docs).
#[derive(Debug, Default)]
struct Tags {
    on: bool,
    /// Virtual service clock, in 2⁻⁵² work units.
    v: i128,
    /// Unblocked rows.
    active: usize,
    /// `(anchor + total, seq)` of every unblocked row, and stale entries
    /// of rows since blocked, removed or re-anchored, which
    /// [`RunningSet::live_tag`] tells apart.
    heap: BinaryHeap<Reverse<(i128, u64)>>,
    /// Scratch: the entries a step popped.
    due: Vec<(u64, i128)>,
}

/// The weight pass's result: what a step's grant and event jump need.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Weights {
    /// Unblocked sessions.
    pub(crate) active: usize,
    /// `Σw` over them, accumulated in running order.
    pub(crate) total_weight: f64,
    /// Every unblocked weight is exactly 1.0.
    pub(crate) unit_w: bool,
}

/// What one step hands every session, computed once per step.
#[derive(Debug)]
pub(crate) struct Grant {
    /// `Σw > 0`: work is granted at all.
    pub(crate) on: bool,
    /// Unit weights: every unblocked session's grant is `each`.
    pub(crate) unit_w: bool,
    pub(crate) each: f64,
    /// `effective · dt`, shared in proportion to weight otherwise.
    pub(crate) work: f64,
    pub(crate) total_weight: f64,
    /// Monitor update to `t_new`, `mdt` after the last; skipped unless
    /// `mdt > 0`. `alpha` is the step's shared smoothing factor.
    pub(crate) t_new: f64,
    pub(crate) mdt: f64,
    pub(crate) tau: f64,
    pub(crate) alpha: f64,
    /// A job error isolates its session instead of ending the step.
    pub(crate) isolate: bool,
}

/// `run` for a job the fused pass cannot run from its counters.
#[cold]
#[inline(never)]
fn run_cold(
    job: &mut JobRest,
    total: u64,
    done: &mut u64,
    plain: &mut bool,
    budget: u64,
) -> Result<u64> {
    let out = job.with_mut(total, done, |j| j.run(budget));
    *plain = job.plain();
    out
}

#[cold]
#[inline(never)]
fn finished_cold(job: &JobRest, total: u64, done: u64) -> bool {
    job.with(total, done, |j| j.finished())
}

impl RunningSet {
    pub(crate) fn len(&self) -> usize {
        self.slot.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.slot.is_empty()
    }

    /// Position of query `id`, if it is running.
    pub(crate) fn position(&self, slab: &SessionSlab, id: u64) -> Option<usize> {
        self.slot.iter().position(|h| slab.id[h.idx as usize] == id)
    }

    /// Put slab row `h` (a session leaving the queue or the timeline, with
    /// a fresh monitor, so in lockstep at `now`) at the end of the running
    /// order; returns its position. On the tag path the row is anchored at
    /// its service so far, or, if the path cannot serve it, the path turns
    /// off; the units that settles are returned too, for the work ledger.
    pub(crate) fn admit(&mut self, slab: &SessionSlab, h: JobSlot, now: f64) -> (usize, u64) {
        let i = slab.at(h);
        self.slot.push(h);
        self.weight.push(slab.weight[i]);
        self.blocked.push(slab.blocked[i]);
        self.credit.push(slab.credit[i]);
        self.units_done.push(slab.units_done[i]);
        self.monitor.push(slab.monitor[i]);
        self.total.push(slab.total[i]);
        self.done.push(slab.done[i]);
        self.plain.push(slab.job[i].plain());
        self.seq.push(self.next_seq);
        self.next_seq += 1;
        self.anchor.push(0);
        self.lane.push(slab.monitor[i].lane());
        let k = self.slot.len() - 1;
        let mut ran = 0;
        if self.tags.on {
            let servable = if self.blocked[k] {
                !self.finished(slab, k)
            } else {
                self.anchor_at(k);
                self.servable(k)
            };
            if !servable {
                ran = self.untag(now);
            }
        }
        (k, ran)
    }

    /// Remove the session at `k`, keeping the order of the rest. Its
    /// derived values must have been settled ([`RunningSet::settle`]).
    pub(crate) fn remove(&mut self, k: usize) -> JobSlot {
        if self.tags.on && !self.blocked[k] {
            self.tags.active -= 1;
        }
        self.weight.remove(k);
        self.blocked.remove(k);
        self.credit.remove(k);
        self.units_done.remove(k);
        self.monitor.remove(k);
        self.total.remove(k);
        self.done.remove(k);
        self.plain.remove(k);
        self.seq.remove(k);
        self.anchor.remove(k);
        self.lane.remove(k);
        self.slot.remove(k)
    }

    /// Remove the sessions at `gone` (ascending positions), keeping the
    /// order of the rest.
    pub(crate) fn compact(&mut self, gone: &[u32]) {
        compact(&mut self.slot, gone);
        compact(&mut self.weight, gone);
        compact(&mut self.blocked, gone);
        compact(&mut self.credit, gone);
        compact(&mut self.units_done, gone);
        compact(&mut self.monitor, gone);
        compact(&mut self.total, gone);
        compact(&mut self.done, gone);
        compact(&mut self.plain, gone);
        compact(&mut self.seq, gone);
        compact(&mut self.anchor, gone);
        compact(&mut self.lane, gone);
    }

    /// The job at `k`, whole, for a cold read.
    fn with<R>(&self, slab: &SessionSlab, k: usize, f: impl FnOnce(&dyn Job) -> R) -> R {
        let job = &slab.job[self.slot[k].idx as usize];
        job.with(self.total[k], self.settled(k).0, f)
    }

    pub(crate) fn progress(&self, slab: &SessionSlab, k: usize) -> JobProgress {
        self.with(slab, k, |j| j.progress())
    }

    pub(crate) fn exact_remaining(&self, slab: &SessionSlab, k: usize) -> Option<f64> {
        self.with(slab, k, |j| j.exact_remaining())
    }

    pub(crate) fn finished(&self, slab: &SessionSlab, k: usize) -> bool {
        self.with(slab, k, |j| j.finished())
    }

    pub(crate) fn snapshot_state(&self, slab: &SessionSlab, k: usize) -> Option<JobSnapshot> {
        self.with(slab, k, |j| j.snapshot_state())
    }

    /// Pristine restart copy, back on the fast path when possible.
    pub(crate) fn restart(&self, slab: &SessionSlab, k: usize) -> Option<JobState> {
        self.with(slab, k, |j| j.restart()).map(JobState::from_box)
    }

    /// Arm a failure in the job at `k`. The job stops being plain, so the
    /// tag path must be off.
    pub(crate) fn inject_failure(&mut self, slab: &mut SessionSlab, k: usize) -> bool {
        debug_assert!(!self.tags.on, "a failure armed on the tag path");
        let job = &mut slab.job[self.slot[k].idx as usize];
        let armed = job.with_mut(self.total[k], &mut self.done[k], |j| j.inject_failure());
        self.plain[k] = job.plain();
        armed
    }

    /// Swap in another job (an abort's rollback work) and clear the
    /// session's credit and block, settling it first. On the tag path the
    /// new job is anchored now, or the path turns off if it cannot serve
    /// it. Returns the units that settles.
    pub(crate) fn replace_job(
        &mut self,
        slab: &mut SessionSlab,
        k: usize,
        job: JobState,
        now: f64,
    ) -> u64 {
        let ran = self.settle(k);
        let (total, done, rest) = job.split();
        self.total[k] = total;
        self.done[k] = done;
        self.plain[k] = rest.plain();
        slab.job[self.slot[k].idx as usize] = rest;
        self.credit[k] = 0.0;
        ran + self.reblock(k, false, now)
    }

    /// Block or unblock the session at `k`, settling it first. Returns the
    /// units that settles.
    pub(crate) fn set_blocked(&mut self, k: usize, blocked: bool, now: f64) -> u64 {
        self.settle(k) + self.reblock(k, blocked, now)
    }

    /// Block or unblock the settled session at `k`. On the tag path a
    /// blocked row drops out of service and an unblocked one is anchored
    /// at its service so far, unless the path cannot serve it: a row
    /// blocked once it has finished (only a zero-cost job, before its
    /// first step) or unblocked as a job the path cannot run turns the
    /// path off, which returns the units it settles.
    fn reblock(&mut self, k: usize, blocked: bool, now: f64) -> u64 {
        let was = std::mem::replace(&mut self.blocked[k], blocked);
        if !self.tags.on {
            return 0;
        }
        if !was {
            // Its heap entry goes stale.
            self.tags.active -= 1;
        }
        if blocked {
            if self.done[k] >= self.total[k] {
                return self.untag(now);
            }
            return 0;
        }
        // Anchored before anything else, so that turning the path off
        // derives this row's columns back unchanged.
        self.anchor_at(k);
        if self.servable(k) {
            0
        } else {
            self.untag(now)
        }
    }

    /// The session at `k`'s observed speed.
    pub(crate) fn speed(&self, k: usize) -> Option<f64> {
        if self.tags.on {
            let lane = self.lane[k];
            (!lane.is_nan()).then_some(lane)
        } else {
            self.monitor[k].speed()
        }
    }

    /// The session at `k`'s monitor, as a checkpoint writes it.
    pub(crate) fn monitor_at(&self, k: usize, now: f64) -> SpeedMonitor {
        if self.tags.on {
            self.monitor[k].with_lane(now, self.settled(k).2, self.lane[k])
        } else {
            self.monitor[k]
        }
    }

    /// `(done, credit, units_done)` of the session at `k` as the fused loop
    /// would hold them. On the tag path an unblocked row's are derived from
    /// its service `v − anchor`: the whole units (at most `total`) and the
    /// rest as a credit on the 2⁻⁵² grid, with `units_done` moved by the
    /// units since the row was anchored.
    #[inline]
    pub(crate) fn settled(&self, k: usize) -> (u64, f64, f64) {
        if !self.tags.on || self.blocked[k] {
            return (self.done[k], self.credit[k], self.units_done[k]);
        }
        let service = self.tags.v - self.anchor[k];
        let done = ((service >> FRAC).max(0) as u64).min(self.total[k]);
        let credit = (service - ((done as i128) << FRAC)) as f64 / ONE_F;
        let units = self.units_done[k] + (done - self.done[k]) as f64;
        (done, credit, units)
    }

    /// Write the session at `k`'s derived values back to its columns.
    /// Its service `v − anchor` stays what it was, so the anchor does too.
    /// Returns the units settled, for the work ledger.
    pub(crate) fn settle(&mut self, k: usize) -> u64 {
        let (done, credit, units) = self.settled(k);
        let ran = done - self.done[k];
        self.done[k] = done;
        self.credit[k] = credit;
        self.units_done[k] = units;
        ran
    }

    /// Units run but not yet settled: the work ledger's missing part.
    pub(crate) fn unsettled_units(&self) -> u64 {
        if !self.tags.on {
            return 0;
        }
        (0..self.len())
            .map(|k| self.settled(k).0 - self.done[k])
            .sum()
    }

    /// Whether the tag path can serve the unblocked row `k`.
    fn servable(&self, k: usize) -> bool {
        self.plain[k] && self.weight[k] == 1.0
    }

    /// Anchor the unblocked row `k` at its service so far — `done` plus the
    /// credit floored to the 2⁻⁵² grid, where the tag path's own credits
    /// already lie — and enter its finish tag.
    fn anchor_at(&mut self, k: usize) {
        let t = &mut self.tags;
        let service = ((self.done[k] as i128) << FRAC) + (self.credit[k] * ONE_F) as i128;
        self.anchor[k] = t.v - service;
        t.heap.push(Reverse((
            self.anchor[k] + ((self.total[k] as i128) << FRAC),
            self.seq[k],
        )));
        t.active += 1;
    }

    /// Position of the row whose heap entry `(tag, seq)` is live: the row
    /// is still running, unblocked and anchored as when the entry went in.
    fn live_tag(&self, tag: i128, seq: u64) -> Option<usize> {
        let k = self.seq.binary_search(&seq).ok()?;
        let live = !self.blocked[k] && self.anchor[k] + ((self.total[k] as i128) << FRAC) == tag;
        live.then_some(k)
    }

    /// Turn the tag path on, if it is off and can serve the set: event
    /// mode's caller asks once a step. Every monitor must be in lockstep at
    /// `now` with the configured `tau`, every unblocked row servable, and
    /// no blocked row finished (a blocked row never reaches the heap).
    pub(crate) fn try_tag(&mut self, slab: &SessionSlab, now: f64, tau: f64) -> bool {
        if self.tags.on {
            return true;
        }
        for k in 0..self.len() {
            let eligible = self.monitor[k].in_step(now, tau)
                && if self.blocked[k] {
                    !self.finished(slab, k)
                } else {
                    self.servable(k)
                };
            if !eligible {
                return false;
            }
        }
        self.tags.v = 0;
        self.tags.active = 0;
        self.tags.heap.clear();
        self.tags.on = true;
        for k in 0..self.len() {
            self.lane[k] = self.monitor[k].lane();
            if !self.blocked[k] {
                self.anchor_at(k);
            }
        }
        true
    }

    /// Turn the tag path off: settle every row and write its monitor back
    /// in lockstep at `now`. Returns the units settled.
    pub(crate) fn untag(&mut self, now: f64) -> u64 {
        if !self.tags.on {
            return 0;
        }
        let mut ran = 0;
        for k in 0..self.len() {
            self.monitor[k] = self.monitor_at(k, now);
            ran += self.settle(k);
        }
        self.tags.on = false;
        self.tags.heap.clear();
        ran
    }

    /// Whether the tag path is on.
    #[cfg(test)]
    pub(crate) fn tagged(&self) -> bool {
        self.tags.on
    }

    /// Unblocked rows on the tag path.
    pub(crate) fn tag_active(&self) -> usize {
        self.tags.active
    }

    /// The smallest live `tag − v`, in work units (`None` without an
    /// unblocked row); stale heap entries on top are dropped.
    pub(crate) fn tag_need(&mut self) -> Option<f64> {
        while let Some(&Reverse((tag, seq))) = self.tags.heap.peek() {
            if self.live_tag(tag, seq).is_some() {
                return Some((tag - self.tags.v).max(0) as f64 / ONE_F);
            }
            self.tags.heap.pop();
        }
        None
    }

    /// One tag-path step: every unblocked row receives `each` units of
    /// service (floored to the 2⁻⁵² grid) by one add to `v`; the due tags
    /// pop; every monitor lane takes the step's fluid rate `rate` (0 when
    /// blocked) when `mdt > 0`; and the finishers are settled at their
    /// totals and recorded in running order (ascending positions) in
    /// `finish`. Returns the units settled.
    pub(crate) fn serve_tags(
        &mut self,
        each: f64,
        rate: f64,
        mdt: f64,
        alpha: f64,
        finish: &mut Vec<u32>,
    ) -> u64 {
        if self.tags.active > 0 {
            self.tags.v += (each * ONE_F) as i128;
        }
        let mut due = std::mem::take(&mut self.tags.due);
        due.clear();
        while let Some(&Reverse((tag, seq))) = self.tags.heap.peek() {
            if tag > self.tags.v {
                break;
            }
            self.tags.heap.pop();
            due.push((seq, tag));
        }
        if mdt > 0.0 {
            let blocked = (self.tags.active < self.len()).then_some(&self.blocked[..]);
            fluid_step(&mut self.lane, blocked, rate, alpha);
        }
        // Running order is admission order; a row re-anchored at the same
        // tag has two entries.
        due.sort_unstable();
        due.dedup();
        let mut ran = 0;
        for &(seq, tag) in &due {
            let Some(k) = self.live_tag(tag, seq) else {
                continue;
            };
            ran += self.total[k] - self.done[k];
            self.units_done[k] += (self.total[k] - self.done[k]) as f64;
            self.done[k] = self.total[k];
            self.tags.active -= 1;
            finish.push(k as u32);
        }
        self.tags.due = due;
        ran
    }

    /// The weight pass: active count, `Σw` in running order and `unit_w`.
    pub(crate) fn weigh(&self) -> Weights {
        let mut w = Weights {
            active: 0,
            total_weight: 0.0,
            unit_w: true,
        };
        for k in 0..self.len() {
            if self.blocked[k] {
                continue;
            }
            w.active += 1;
            let weight = self.weight[k];
            w.unit_w &= weight == 1.0;
            w.total_weight += weight;
        }
        w
    }

    /// Time until the next completion, valid when every unblocked job
    /// reports its exact remaining work; `None` falls the step back to the
    /// quantum path.
    pub(crate) fn event_jump(
        &self,
        slab: &SessionSlab,
        effective: f64,
        total_weight: f64,
    ) -> Option<f64> {
        let mut dt = f64::INFINITY;
        for k in 0..self.len() {
            if self.blocked[k] {
                continue;
            }
            let remaining = self.exact_remaining(slab, k)?;
            let need = (remaining - self.credit[k]).max(0.0);
            let speed = effective * self.weight[k] / total_weight;
            dt = dt.min(need / speed);
        }
        if !dt.is_finite() {
            return None;
        }
        // Nudge past the exact completion instant so the integer floor of
        // the finisher's credit still covers its last unit of work.
        Some(dt * (1.0 + 1e-9) + 1e-12)
    }

    /// The fused grant / monitor / finish pass, one visit per session in
    /// running order: grant credit and run whole units of it, update the
    /// monitor, and record finishers' positions (ascending) in `finish`
    /// and, under isolation, failed sessions' in `failed`. Units run are
    /// summed in a local and added to `executed` once (integers: exact in
    /// any order below 2^53).
    ///
    /// The common case — a plain job, monitor in lockstep — reads and
    /// writes plain columns only; opaque jobs, armed failures and monitors
    /// out of lockstep leave through `#[cold]` calls. A job error under
    /// `ErrorPolicy::Propagate` ends the pass there, as the step's error.
    pub(crate) fn serve(
        &mut self,
        g: &Grant,
        jobs: &mut [JobRest],
        finish: &mut Vec<u32>,
        failed: &mut Vec<u32>,
        executed: &mut f64,
    ) -> Result<()> {
        debug_assert!(!self.tags.on, "the fused pass on the tag path");
        let n = self.len();
        let weight = &self.weight[..n];
        let blocked = &self.blocked[..n];
        let credit = &mut self.credit[..n];
        let units_done = &mut self.units_done[..n];
        let monitor = &mut self.monitor[..n];
        let total = &self.total[..n];
        let done = &mut self.done[..n];
        let plain = &mut self.plain[..n];
        let slot = &self.slot[..n];
        let mut ran = 0u64;
        for k in 0..n {
            'grant: {
                if !g.on || blocked[k] {
                    break 'grant;
                }
                credit[k] += if g.unit_w {
                    g.each
                } else {
                    g.work * weight[k] / g.total_weight
                };
                let c = credit[k];
                if c >= 1.0 {
                    let used = if plain[k] {
                        let used = (c as u64).min(total[k] - done[k]);
                        done[k] += used;
                        used
                    } else {
                        let job = &mut jobs[slot[k].idx as usize];
                        match run_cold(job, total[k], &mut done[k], &mut plain[k], c as u64) {
                            Ok(used) => used,
                            Err(e) => {
                                if !g.isolate {
                                    *executed += ran as f64;
                                    return Err(e);
                                }
                                failed.push(k as u32);
                                break 'grant;
                            }
                        }
                    };
                    credit[k] -= used as f64;
                    units_done[k] += used as f64;
                    ran += used;
                }
            }
            if g.mdt > 0.0 {
                monitor[k].update_with_alpha(g.t_new, units_done[k], g.mdt, g.tau, g.alpha);
            }
            let finished = if plain[k] {
                done[k] >= total[k]
            } else {
                finished_cold(&jobs[slot[k].idx as usize], total[k], done[k])
            };
            if finished {
                finish.push(k as u32);
            }
        }
        *executed += ran as f64;
        Ok(())
    }
}

/// Drop the rows at `gone` (ascending) from `col`: each run of survivors
/// between two gaps moves left once, by one `copy_within`.
fn compact<T: Copy>(col: &mut Vec<T>, gone: &[u32]) {
    let Some(&first) = gone.first() else {
        return;
    };
    let mut to = first as usize;
    for (j, &p) in gone.iter().enumerate() {
        let from = p as usize + 1;
        let end = gone.get(j + 1).map_or(col.len(), |&q| q as usize);
        col.copy_within(from..end, to);
        to += end - from;
    }
    col.truncate(to);
}
