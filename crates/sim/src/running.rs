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
//! so a squeeze copies plain values.
//!
//! Running order is observable: it is the order `Σw` accumulates in for
//! weighted sets, the order finishers leave in (and with it `Departed`
//! events and `FinishedQuery` records), snapshot order and `pick_victim`'s
//! index. Admission appends. A departure
//! ([`RunningSet::remove`], [`RunningSet::depart`]) leaves a hole: the row
//! is marked gone and keeps its place, so a position stays valid while the
//! step that found it runs, and every walk of running order
//! ([`RunningSet::order`]) skips holes. [`RunningSet::squeeze`] drops them
//! all in one pass, moving each survivor once, when they reach half the
//! rows (and at least [`SQUEEZE_MIN`]) and before the fused loop, which
//! streams over dense columns. The tag path's heap entries name their row
//! by position, so a squeeze moves them too.
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
//! ones from `v` wherever they are read. A blocked row receives nothing, so
//! its columns are its truth.
//!
//! The monitors are replayed, not stepped. Every session's EMA takes the
//! same sample a step — the fluid rate, or 0 while blocked — so a step
//! appends its `(rate, alpha)` to a log, and each row keeps its EMA as of
//! a log index. A read replays the entries since, one
//! [`crate::speed::sample`] each in step order, so it holds the bits that
//! sampling the row on every step would have given, and keeps the result;
//! a row that leaves unread costs nothing. One routine,
//! [`RunningSet::replay`], does every replay: a whole-set read (a snapshot,
//! turning the path off) brings all rows forward in one walk
//! of the log, sampling at each entry every row that has reached it, so
//! the rows' sample chains run side by side; a single-row read
//! ([`RunningSet::speed`], a block or unblock) is the same walk over one
//! row. Once the log reaches [`LOG_ROWS`] entries a running row, the rows
//! still behind its first half are brought up to date and that half is
//! dropped.
//!
//! A session the tag path cannot serve — a weight that is not 1.0, an
//! opaque or failure-armed job — turns it off
//! ([`RunningSet::untag`]), which writes every derived value back, and the
//! fused loop ([`RunningSet::serve`]) runs until [`RunningSet::try_tag`]
//! finds the set eligible again, its monitors in lockstep included.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mqpi_engine::error::Result;

use crate::job::{Job, JobProgress, JobRest, JobState};
use crate::slab::{JobSlot, SessionSlab};
use crate::speed::{sample, SpeedMonitor};

/// Fractional bits of the tag path's fixed-point service: a credit below
/// one unit is then an f64 on the 2⁻⁵² grid, exact both ways.
const FRAC: u32 = 52;
const ONE_F: f64 = (1u64 << FRAC) as f64;

/// The monitor log is trimmed once it holds this many entries a running
/// row, and never below [`LOG_MIN`]: long enough that a trim seldom
/// brings forward a row about to leave unread (at a full house of 256 a
/// `sim_churn` row lives about 460 steps, and the log drops its first half
/// every 2 048).
const LOG_ROWS: usize = 16;
const LOG_MIN: usize = 64;

/// Holes are squeezed out once they are half the rows and at least this
/// many: a squeeze then costs a few moves a departure whatever the size.
const SQUEEZE_MIN: usize = 64;

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
    /// A row that has left; its slab row may already serve another session.
    gone: Vec<bool>,
    holes: usize,
    /// Tag path only: the fixed-point service `v − anchor` of an unblocked
    /// row, and every row's monitor EMA as of a log entry, which `&self`
    /// reads bring forward.
    anchor: Vec<i128>,
    lanes: RefCell<Lanes>,
    tags: Tags,
    /// Scratch: the rows a squeeze keeps.
    squeezed: Vec<u32>,
}

/// The tag path's monitor lanes, per row.
#[derive(Debug, Default)]
struct Lanes {
    /// The EMA ([`SpeedMonitor::lane`]'s encoding) after log entry `at − 1`.
    ema: Vec<f64>,
    at: Vec<u64>,
    /// Scratch for [`RunningSet::replay`]: the `(at, position)` of the rows
    /// it brings forward, by `at`, and their EMAs and blocked flags in that
    /// order while it walks.
    due: Vec<(u64, u32)>,
    run_ema: Vec<f64>,
    run_blocked: Vec<bool>,
}

/// The tag path's shared state (see the module docs).
#[derive(Debug, Default)]
struct Tags {
    on: bool,
    /// Virtual service clock, in 2⁻⁵² work units.
    v: i128,
    /// Unblocked rows.
    active: usize,
    /// `(anchor + total, position)` of every unblocked row, and stale
    /// entries of rows since blocked, removed or re-anchored, which
    /// [`RunningSet::live_tag`] tells apart. A squeeze moves the positions.
    heap: BinaryHeap<Reverse<(i128, u32)>>,
    /// Scratch: the `(position, tag)` entries a step popped.
    due: Vec<(u32, i128)>,
    /// `(rate, alpha)` of every step since the path turned on that updated
    /// the monitors (`mdt > 0`), from entry `base` on.
    log: Vec<(f64, f64)>,
    base: u64,
}

impl Tags {
    /// Index of the next log entry.
    fn end(&self) -> u64 {
        self.base + self.log.len() as u64
    }
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
    /// Running sessions, holes not counted.
    pub(crate) fn len(&self) -> usize {
        self.slot.len() - self.holes
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Positions of the running sessions, in running order.
    pub(crate) fn order(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.slot.len()).filter(|&k| !self.gone[k])
    }

    /// Whether the row at `k` has left (a hole not yet squeezed out).
    pub(crate) fn is_gone(&self, k: usize) -> bool {
        self.gone[k]
    }

    /// Position of query `id`, if it is running.
    pub(crate) fn position(&self, slab: &SessionSlab, id: u64) -> Option<usize> {
        self.order()
            .find(|&k| slab.id[self.slot[k].idx as usize] == id)
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
        self.gone.push(false);
        self.anchor.push(0);
        let lanes = self.lanes.get_mut();
        lanes.ema.push(slab.monitor[i].lane());
        lanes.at.push(self.tags.end());
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

    /// The session at `k` leaves; its position holds a hole until the next
    /// squeeze. Its derived values must have been settled
    /// ([`RunningSet::settle`]).
    pub(crate) fn remove(&mut self, k: usize) -> JobSlot {
        debug_assert!(!self.gone[k], "a hole removed");
        if self.tags.on && !self.blocked[k] {
            self.tags.active -= 1;
        }
        self.gone[k] = true;
        self.holes += 1;
        self.slot[k]
    }

    /// A step's finishers at `gone` leave (a finisher is no longer active
    /// on the tag path); the holes are squeezed out once they are half the
    /// rows and at least [`SQUEEZE_MIN`].
    pub(crate) fn depart(&mut self, gone: &[u32]) {
        for &k in gone {
            debug_assert!(!self.gone[k as usize], "a hole departed");
            self.gone[k as usize] = true;
        }
        self.holes += gone.len();
        if self.holes >= SQUEEZE_MIN.max(self.len()) {
            self.squeeze();
        }
    }

    /// Drop every hole, keeping the order of the rest: the survivors past
    /// the first hole move forward, each once.
    pub(crate) fn squeeze(&mut self) {
        if self.holes == 0 {
            return;
        }
        let first = self.gone.iter().position(|&g| g).unwrap_or(0);
        let mut keep = std::mem::take(&mut self.squeezed);
        keep.clear();
        keep.extend((first as u32..self.slot.len() as u32).filter(|&k| !self.gone[k as usize]));
        gather(&mut self.slot, first, &keep);
        gather(&mut self.weight, first, &keep);
        gather(&mut self.blocked, first, &keep);
        gather(&mut self.credit, first, &keep);
        gather(&mut self.units_done, first, &keep);
        gather(&mut self.monitor, first, &keep);
        gather(&mut self.total, first, &keep);
        gather(&mut self.done, first, &keep);
        gather(&mut self.plain, first, &keep);
        gather(&mut self.gone, first, &keep);
        gather(&mut self.anchor, first, &keep);
        let lanes = self.lanes.get_mut();
        gather(&mut lanes.ema, first, &keep);
        gather(&mut lanes.at, first, &keep);
        // The heap's entries follow their rows; a departed row's go.
        let mut heap = std::mem::take(&mut self.tags.heap).into_vec();
        heap.retain_mut(|Reverse((_, k))| {
            if (*k as usize) < first {
                return true;
            }
            let Ok(j) = keep.binary_search(k) else {
                return false;
            };
            *k = (first + j) as u32;
            true
        });
        self.tags.heap = BinaryHeap::from(heap);
        self.holes = 0;
        self.squeezed = keep;
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
        if !self.tags.on {
            self.blocked[k] = blocked;
            return 0;
        }
        // The lane replays at the rate of the state it had.
        self.lane(k);
        let was = std::mem::replace(&mut self.blocked[k], blocked);
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
            let lane = self.lane(k);
            (!lane.is_nan()).then_some(lane)
        } else {
            self.monitor[k].speed()
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
        self.order().map(|k| self.settled(k).0 - self.done[k]).sum()
    }

    /// Row `k`'s monitor EMA as of the last logged step.
    fn lane(&self, k: usize) -> f64 {
        self.replay([k], self.tags.end());
        self.lanes.borrow().ema[k]
    }

    /// Bring every running row's lane forward to the last logged step. A
    /// whole-set read calls this first, so that its row reads find their
    /// lanes current.
    pub(crate) fn replay_all(&self) {
        if self.tags.on {
            self.replay(self.order(), self.tags.end());
        }
    }

    /// Bring the lanes of those `rows` that are behind log entry `behind`
    /// forward to the last logged step, in one walk of the log from the
    /// smallest `at`: each entry samples, in one pass, every row whose `at`
    /// it has reached — the step's rate, or 0 while blocked. Each row takes
    /// the entries from its own `at` on, in log order, as a replay of that
    /// row alone would, so the bits are the same; the rows' chains are
    /// independent, so they overlap.
    fn replay(&self, rows: impl IntoIterator<Item = usize>, behind: u64) {
        let t = &self.tags;
        let end = t.end();
        let mut lanes = self.lanes.borrow_mut();
        let Lanes {
            ema,
            at,
            due,
            run_ema,
            run_blocked,
        } = &mut *lanes;
        due.clear();
        due.extend(
            rows.into_iter()
                .filter(|&k| at[k] < behind)
                .map(|k| (at[k], k as u32)),
        );
        due.sort_unstable();
        let Some(&(first, _)) = due.first() else {
            return;
        };
        run_ema.clear();
        run_blocked.clear();
        let mut joined = 0;
        for (i, &(rate, alpha)) in (first..).zip(&t.log[(first - t.base) as usize..]) {
            while let Some(&(_, k)) = due.get(joined).filter(|&&(a, _)| a <= i) {
                run_ema.push(ema[k as usize]);
                run_blocked.push(self.blocked[k as usize]);
                joined += 1;
            }
            for (e, &blocked) in run_ema.iter_mut().zip(run_blocked.iter()) {
                sample(e, if blocked { 0.0 } else { rate }, alpha);
            }
        }
        for (&(_, k), &e) in due.iter().zip(run_ema.iter()) {
            ema[k as usize] = e;
            at[k as usize] = end;
        }
    }

    /// Log one step's monitor sample, and trim the log once it is long:
    /// the rows still behind its first half are brought forward, and that
    /// half is dropped.
    fn log_step(&mut self, rate: f64, alpha: f64) {
        self.tags.log.push((rate, alpha));
        if self.tags.log.len() < LOG_MIN.max(LOG_ROWS * self.len()) {
            return;
        }
        let half = self.tags.log.len() / 2;
        let keep = self.tags.base + half as u64;
        self.replay(self.order(), keep);
        self.tags.log.drain(..half);
        self.tags.base = keep;
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
            k as u32,
        )));
        t.active += 1;
    }

    /// Whether the heap entry `(tag, k)` is live: row `k` is still running,
    /// unblocked and anchored as when the entry went in.
    fn live_tag(&self, tag: i128, k: usize) -> bool {
        !self.gone[k]
            && !self.blocked[k]
            && self.anchor[k] + ((self.total[k] as i128) << FRAC) == tag
    }

    /// Turn the tag path on, if it is off and can serve the set: event
    /// mode's caller asks once a step. Every monitor must be in lockstep at
    /// `now` with the configured `tau`, every unblocked row servable, and
    /// no blocked row finished (a blocked row never reaches the heap).
    pub(crate) fn try_tag(&mut self, slab: &SessionSlab, now: f64, tau: f64) -> bool {
        if self.tags.on {
            return true;
        }
        for k in self.order() {
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
        self.tags.log.clear();
        self.tags.base = 0;
        self.tags.on = true;
        for k in 0..self.slot.len() {
            if self.gone[k] {
                continue;
            }
            let lanes = self.lanes.get_mut();
            lanes.ema[k] = self.monitor[k].lane();
            lanes.at[k] = 0;
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
        self.replay_all();
        let mut ran = 0;
        for k in 0..self.slot.len() {
            if self.gone[k] {
                continue;
            }
            self.monitor[k] = self.monitor[k].with_lane(now, self.settled(k).2, self.lane(k));
            ran += self.settle(k);
        }
        self.tags.on = false;
        self.tags.heap.clear();
        self.tags.log.clear();
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
        while let Some(&Reverse((tag, k))) = self.tags.heap.peek() {
            if self.live_tag(tag, k as usize) {
                return Some((tag - self.tags.v).max(0) as f64 / ONE_F);
            }
            self.tags.heap.pop();
        }
        None
    }

    /// One tag-path step: every unblocked row receives `each` units of
    /// service (floored to the 2⁻⁵² grid) by one add to `v`; the due tags
    /// pop; when `mdt > 0` the step's fluid rate `rate` (0 when blocked)
    /// and `alpha` join the monitor log; and the finishers are settled at
    /// their totals and recorded in running order (ascending positions) in
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
        while let Some(&Reverse((tag, k))) = self.tags.heap.peek() {
            if tag > self.tags.v {
                break;
            }
            self.tags.heap.pop();
            due.push((k, tag));
        }
        if mdt > 0.0 {
            self.log_step(rate, alpha);
        }
        // Finishers leave in running order; a row re-anchored at the same
        // tag has two entries.
        due.sort_unstable();
        due.dedup();
        let mut ran = 0;
        for &(k, tag) in &due {
            let k = k as usize;
            if !self.live_tag(tag, k) {
                continue;
            }
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
        debug_assert_eq!(self.holes, 0, "the weight pass over holes");
        let mut w = Weights {
            active: 0,
            total_weight: 0.0,
            unit_w: true,
        };
        for k in 0..self.slot.len() {
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
        for k in 0..self.slot.len() {
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
        debug_assert_eq!(self.holes, 0, "the fused pass over holes");
        let n = self.slot.len();
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

/// Keep rows `..first` and then the rows at `keep` (ascending, all at or
/// past `first`), in that order.
fn gather<T: Copy>(col: &mut Vec<T>, first: usize, keep: &[u32]) {
    for (to, &from) in (first..).zip(keep) {
        col[to] = col[from as usize];
    }
    col.truncate(first + keep.len());
}
