//! The running set: the sessions the scheduler serves, with the columns a
//! step reads stored contiguously in running order.
//!
//! The slab (`crate::slab::SessionSlab`) recycles rows through a free list,
//! so after churn the running sessions' rows are scattered across it. Every
//! step visits every running session, so the running set owns, in running
//! order, what a step reads — weight, blocked, credit, `units_done`, the
//! speed monitor, and the job as its plain `total`/`done` counters and a
//! `plain` flag — and keeps a [`JobSlot`] per session for the cold columns
//! the slab keeps (id, name, the rest of the job, times, rollback, report
//! scale, attempt). Rows move in on admission ([`RunningSet::admit`]) and
//! leave on departure. Every column is `Copy`, so removals are memmoves.
//!
//! Running order is observable: it is the order `Σw` accumulates in for
//! weighted sets, the order finishers leave in (and with it `Departed`
//! events and `FinishedQuery` records), snapshot order, `pick_victim`'s
//! index and the checkpoint encoding. Admission appends; every removal
//! keeps the survivors' order ([`RunningSet::remove`] shifts every column,
//! [`RunningSet::compact`] drops a step's finishers moving each survivor
//! once).

use mqpi_engine::error::Result;

use crate::job::{Job, JobProgress, JobRest, JobSnapshot, JobState};
use crate::slab::{JobSlot, SessionSlab};
use crate::speed::SpeedMonitor;

/// Running sessions, one row per session in every column, in running order.
#[derive(Debug, Default)]
pub(crate) struct RunningSet {
    /// Slab row holding the session's cold columns.
    pub(crate) slot: Vec<JobSlot>,
    pub(crate) weight: Vec<f64>,
    pub(crate) blocked: Vec<bool>,
    pub(crate) credit: Vec<f64>,
    pub(crate) units_done: Vec<f64>,
    pub(crate) monitor: Vec<SpeedMonitor>,
    /// A synthetic job's counters (both 0 for an opaque job); the rest of
    /// the job stays in the slab's `job` column.
    pub(crate) total: Vec<u64>,
    pub(crate) done: Vec<u64>,
    /// [`JobRest::plain`]: the step runs this job from `total`/`done` alone.
    pub(crate) plain: Vec<bool>,
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
    /// Event mode, and every unblocked job consulted answered
    /// `exact_remaining` (consulted while `unit_w` holds).
    pub(crate) exact: bool,
    /// `min (remaining − credit).max(0.0)` over the jobs consulted.
    pub(crate) need_min: f64,
}

impl Weights {
    /// The weight pass of a unit-weight, all-exact set, from its summary.
    pub(crate) fn carried(c: Carry) -> Self {
        Weights {
            active: c.active,
            // Σ 1.0 over `active` sessions is exact below 2^53.
            total_weight: c.active as f64,
            unit_w: true,
            exact: true,
            need_min: c.need_min,
        }
    }

    /// Every field as bits, for the debug build's bit-equality check.
    pub(crate) fn bits(&self) -> (usize, u64, bool, bool, u64) {
        let (total_weight, need_min) = (self.total_weight.to_bits(), self.need_min.to_bits());
        (self.active, total_weight, self.unit_w, self.exact, need_min)
    }
}

/// The next step's weight pass, summarised ahead by the fused pass of a
/// step whose unblocked sessions are all unit-weight plain jobs. Valid
/// only while nothing but admissions ([`RunningSet::fold`]) changes the
/// running set; every other mutation drops it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Carry {
    active: usize,
    need_min: f64,
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
    /// Summarise the next step's weight pass (see [`Carry`]).
    pub(crate) summarise: bool,
    /// A job error isolates its session instead of ending the step.
    pub(crate) isolate: bool,
}

/// A plain job's need for the unit-weight event jump: its exact remaining
/// work (`SyntheticJob::exact_remaining`, `total − done` as f64) less the
/// credit it holds, floored at zero — the weight pass's
/// `(r − credit).max(0.0)`.
#[inline]
fn need(total: u64, done: u64, credit: f64) -> f64 {
    ((total - done) as f64 - credit).max(0.0)
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

    /// Put slab row `h` (a session leaving the queue or the calendar) at
    /// the end of the running order; returns its position.
    pub(crate) fn admit(&mut self, slab: &SessionSlab, h: JobSlot) -> usize {
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
        self.slot.len() - 1
    }

    /// Fold the session just admitted at `k` into the carried summary: a
    /// unit-weight plain job adds itself, a blocked one is not served, and
    /// anything else needs the full weight pass.
    pub(crate) fn fold(&self, k: usize, carry: &mut Option<Carry>) {
        let Some(c) = carry else {
            return;
        };
        if self.blocked[k] {
            return;
        }
        if self.weight[k] == 1.0 && self.plain[k] {
            let need = need(self.total[k], self.done[k], self.credit[k]);
            c.active += 1;
            c.need_min = c.need_min.min(need);
        } else {
            *carry = None;
        }
    }

    /// Remove the session at `k`, keeping the order of the rest.
    pub(crate) fn remove(&mut self, k: usize) -> JobSlot {
        self.weight.remove(k);
        self.blocked.remove(k);
        self.credit.remove(k);
        self.units_done.remove(k);
        self.monitor.remove(k);
        self.total.remove(k);
        self.done.remove(k);
        self.plain.remove(k);
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
    }

    /// The job at `k`, whole, for a cold read.
    fn with<R>(&self, slab: &SessionSlab, k: usize, f: impl FnOnce(&dyn Job) -> R) -> R {
        let job = &slab.job[self.slot[k].idx as usize];
        job.with(self.total[k], self.done[k], f)
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

    pub(crate) fn inject_failure(&mut self, slab: &mut SessionSlab, k: usize) -> bool {
        let job = &mut slab.job[self.slot[k].idx as usize];
        let armed = job.with_mut(self.total[k], &mut self.done[k], |j| j.inject_failure());
        self.plain[k] = job.plain();
        armed
    }

    /// Swap in another job (an abort's rollback work).
    pub(crate) fn replace_job(&mut self, slab: &mut SessionSlab, k: usize, job: JobState) {
        let (total, done, rest) = job.split();
        self.total[k] = total;
        self.done[k] = done;
        self.plain[k] = rest.plain();
        slab.job[self.slot[k].idx as usize] = rest;
    }

    /// The weight pass: active count, `Σw` in running order, `unit_w`,
    /// and in event mode the unit-weight jump's `min` of `remaining −
    /// credit` for as long as `unit_w` holds and every job so far knows its
    /// remaining work (a `None` cancels the jump, as in
    /// [`RunningSet::event_jump`]).
    pub(crate) fn weigh(&self, slab: &SessionSlab, event_mode: bool) -> Weights {
        let mut w = Weights {
            active: 0,
            total_weight: 0.0,
            unit_w: true,
            exact: event_mode,
            need_min: f64::INFINITY,
        };
        for k in 0..self.len() {
            if self.blocked[k] {
                continue;
            }
            w.active += 1;
            let weight = self.weight[k];
            w.unit_w &= weight == 1.0;
            w.total_weight += weight;
            if w.exact && w.unit_w {
                match self.exact_remaining(slab, k) {
                    Some(r) => w.need_min = w.need_min.min((r - self.credit[k]).max(0.0)),
                    None => w.exact = false,
                }
            }
        }
        w
    }

    /// Time until the next completion under weights that are not all 1.0,
    /// valid when every unblocked job reports its exact remaining work;
    /// `None` falls the step back to the quantum path.
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
    /// any order below 2^53). When `g.summarise`, the pass also summarises
    /// the next step's weight pass over the sessions that stay; a session
    /// that is not plain spoils the summary.
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
    ) -> Result<Option<Carry>> {
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
        let mut next = Carry {
            active: 0,
            need_min: f64::INFINITY,
        };
        let mut summarise = g.summarise;
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
            } else if summarise && !blocked[k] {
                if plain[k] {
                    next.active += 1;
                    next.need_min = next.need_min.min(need(total[k], done[k], credit[k]));
                } else {
                    summarise = false;
                }
            }
        }
        *executed += ran as f64;
        Ok(summarise.then_some(next))
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
