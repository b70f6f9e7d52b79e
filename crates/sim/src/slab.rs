//! Generational struct-of-arrays slab for session state.
//!
//! The old core kept one ~200-byte `Session` object per query (name `Arc`,
//! boxed job, monitor, bookkeeping) in a `Vec<Session>`, so every scheduler
//! pass strode over cold fields and chased a `Box<dyn Job>` pointer per
//! session. The slab stores each field as its own column indexed by a slot,
//! so each pass reads only the columns it needs.
//!
//! Slots are handed out as [`JobSlot`] — a `u32` index plus a generation
//! stamp bumped on every free, so a stale handle trips a `debug_assert`
//! instead of silently reading a recycled query's state. The admission
//! queue and the arrival timeline store bare slots; the retry-`attempt`
//! count and finished-index live here as columns, replacing the two per-id
//! `HashMap`s the hot path used to hit.
//!
//! A running session keeps its row for the cold columns, but what a step
//! reads — weight, blocked, credit, `units_done`, monitor and the job's
//! `total`/`done` — moves on admission into the running set's own columns
//! (`crate::running::RunningSet`), in running order. Those slab columns
//! then hold the values as of admission and are read only while a session
//! waits (queued or scheduled).

use crate::intern::Sym;
use crate::job::{JobProgress, JobRest, JobState};
use crate::speed::SpeedMonitor;
use crate::system::QueryId;

/// Generational handle to a slab row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JobSlot {
    pub(crate) idx: u32,
    pub(crate) gen: u32,
}

/// Column store of per-session state. Columns are `pub(crate)` and indexed
/// directly in the hot loops; [`SessionSlab::at`] converts a handle to an
/// index with a generation check in debug builds.
#[derive(Debug, Default)]
pub(crate) struct SessionSlab {
    gen: Vec<u32>,
    free: Vec<u32>,
    pub(crate) id: Vec<QueryId>,
    pub(crate) name: Vec<Sym>,
    /// The job beside its counters (a running job's too: cold paths read it).
    pub(crate) job: Vec<JobRest>,
    pub(crate) total: Vec<u64>,
    pub(crate) done: Vec<u64>,
    pub(crate) weight: Vec<f64>,
    pub(crate) arrived: Vec<f64>,
    pub(crate) started: Vec<Option<f64>>,
    pub(crate) credit: Vec<f64>,
    pub(crate) units_done: Vec<f64>,
    pub(crate) monitor: Vec<SpeedMonitor>,
    pub(crate) blocked: Vec<bool>,
    pub(crate) rolling_back: Vec<Option<(f64, f64)>>,
    pub(crate) report_scale: Vec<f64>,
    /// Retry attempt this row was submitted as (0 = original submission).
    pub(crate) attempt: Vec<u32>,
}

impl SessionSlab {
    pub(crate) fn new() -> Self {
        SessionSlab::default()
    }

    /// Handle -> column index, generation-checked in debug builds.
    #[inline]
    pub(crate) fn at(&self, h: JobSlot) -> usize {
        debug_assert_eq!(
            self.gen[h.idx as usize], h.gen,
            "stale JobSlot: slot {} was recycled",
            h.idx
        );
        h.idx as usize
    }

    /// Allocate a row for a freshly submitted/scheduled query. Fields not
    /// taken as arguments start at their submission-time invariants:
    /// no start time, zero credit and units, unblocked, no rollback,
    /// report scale 1.
    #[allow(clippy::too_many_arguments)] // column initializers, one per field
    pub(crate) fn alloc(
        &mut self,
        id: QueryId,
        name: Sym,
        job: JobState,
        weight: f64,
        arrived: f64,
        monitor: SpeedMonitor,
        attempt: u32,
    ) -> JobSlot {
        let (total, done, job) = job.split();
        if let Some(idx) = self.free.pop() {
            let i = idx as usize;
            self.id[i] = id;
            self.name[i] = name;
            self.job[i] = job;
            self.total[i] = total;
            self.done[i] = done;
            self.weight[i] = weight;
            self.arrived[i] = arrived;
            self.started[i] = None;
            self.credit[i] = 0.0;
            self.units_done[i] = 0.0;
            self.monitor[i] = monitor;
            self.blocked[i] = false;
            self.rolling_back[i] = None;
            self.report_scale[i] = 1.0;
            self.attempt[i] = attempt;
            JobSlot {
                idx,
                gen: self.gen[i],
            }
        } else {
            let idx = u32::try_from(self.id.len())
                .unwrap_or_else(|_| panic!("session slab overflow: more than u32::MAX rows"));
            self.gen.push(0);
            self.id.push(id);
            self.name.push(name);
            self.job.push(job);
            self.total.push(total);
            self.done.push(done);
            self.weight.push(weight);
            self.arrived.push(arrived);
            self.started.push(None);
            self.credit.push(0.0);
            self.units_done.push(0.0);
            self.monitor.push(monitor);
            self.blocked.push(false);
            self.rolling_back.push(None);
            self.report_scale.push(1.0);
            self.attempt.push(attempt);
            JobSlot { idx, gen: 0 }
        }
    }

    /// Release a row. The job is replaced with an empty placeholder so any
    /// boxed cold-path job drops now rather than lingering in the pool.
    pub(crate) fn free(&mut self, h: JobSlot) {
        let i = self.at(h);
        self.gen[i] = self.gen[i].wrapping_add(1);
        self.job[i] = JobRest::vacant();
        self.free.push(h.idx);
    }

    /// Progress of waiting row `i`'s job.
    pub(crate) fn progress(&self, i: usize) -> JobProgress {
        self.job[i].with(self.total[i], self.done[i], |j| j.progress())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::SyntheticJob;

    fn mk(slab: &mut SessionSlab, id: QueryId) -> JobSlot {
        slab.alloc(
            id,
            0,
            JobState::Synthetic(SyntheticJob::new(10)),
            1.0,
            0.0,
            SpeedMonitor::new_at(1.0, 0.0).unwrap(),
            0,
        )
    }

    #[test]
    fn alloc_reuses_freed_rows_with_new_generation() {
        let mut slab = SessionSlab::new();
        let a = mk(&mut slab, 1);
        let b = mk(&mut slab, 2);
        slab.free(a);
        let c = mk(&mut slab, 3);
        assert_eq!(c.idx, a.idx, "freed row is recycled");
        assert_ne!(c.gen, a.gen, "generation advances on recycle");
        assert_eq!(slab.id[slab.at(c)], 3);
        assert_eq!(slab.id[slab.at(b)], 2);
    }

    #[test]
    #[should_panic(expected = "stale JobSlot")]
    #[cfg(debug_assertions)]
    fn stale_handle_trips_generation_check() {
        let mut slab = SessionSlab::new();
        let a = mk(&mut slab, 1);
        slab.free(a);
        let _ = mk(&mut slab, 2);
        let _ = slab.at(a);
    }
}
