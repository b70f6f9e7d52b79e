//! The unit of schedulable work.
//!
//! A [`Job`] can execute in work-unit installments and report progress. The
//! two implementations are [`CursorJob`] (a real engine cursor — the normal
//! case) and [`SyntheticJob`] (an exact-cost job used for scheduler tests
//! and for validating PI algorithms against known ground truth).

use mqpi_engine::error::Result;
use mqpi_engine::Cursor;

/// Progress report in the vocabulary the PIs need.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobProgress {
    /// Work units consumed so far.
    pub done: f64,
    /// Current (refined) estimate of the remaining cost `c`.
    pub remaining: f64,
    /// The estimate available before execution started (optimizer cost).
    pub initial_estimate: f64,
    /// Whether the job has completed.
    pub finished: bool,
}

/// Something the scheduler can run in installments.
///
/// `Send` so a whole simulated [`System`](crate::system::System) — jobs
/// included — can move into a worker thread of the parallel experiment
/// harness.
pub trait Job: Send {
    /// Run for roughly `budget` units; returns units actually used.
    fn run(&mut self, budget: u64) -> Result<u64>;
    /// Whether the job has completed.
    fn finished(&self) -> bool;
    /// Progress report.
    fn progress(&self) -> JobProgress;
    /// The *true* remaining work in units, when the job knows it exactly.
    /// This is ground truth for the scheduler's event-driven fast path —
    /// deliberately distinct from [`Job::progress`]'s `remaining`, which is
    /// an estimate and may be scaled to model optimizer error. Jobs that
    /// can't promise exactness (engine cursors) return `None`, which keeps
    /// them on the quantum path.
    fn exact_remaining(&self) -> Option<f64> {
        None
    }

    /// Arm an engine-level fault: the next [`Job::run`] call must return an
    /// error instead of doing work (how the fault injector models a failed
    /// page read). Returns `false` when the job cannot honor the request,
    /// in which case the injector counts the event as skipped.
    fn inject_failure(&mut self) -> bool {
        false
    }

    /// A pristine copy of this job for retry resubmission after an abort
    /// or failure — same query, no progress, no armed faults. `None` when
    /// re-execution isn't supported (engine cursors hold live operator
    /// state and must be re-opened from their `Prepared` plan instead).
    fn restart(&self) -> Option<Box<dyn Job>> {
        None
    }

    /// Opt-in hook for the scheduler's monomorphic fast path. A job that
    /// *is* a [`SyntheticJob`] returns itself here, and the scheduler then
    /// stores it inline (no box, static dispatch) for the rest of its life.
    /// Everything else stays behind the trait object and takes the cold
    /// path; the default keeps third-party jobs conservative.
    fn as_synthetic(&self) -> Option<&SyntheticJob> {
        None
    }
}

/// A whole job as the scheduler takes one in (submission, retry, rollback):
/// common job kinds run through a monomorphic enum arm (inline state,
/// static dispatch, no pointer chase), and the [`Job`] trait is reduced to
/// the cold-path escape hatch for engine cursors and custom jobs. The slab
/// stores it [`JobState::split`]: a synthetic job's `total`/`done` counters
/// as plain columns, which the running set (`running::RunningSet`) copies
/// into its own on admission, and a [`JobRest`] for everything else.
pub(crate) enum JobState {
    /// Fast path: counters and fields inline, static dispatch.
    Synthetic(SyntheticJob),
    /// Cold path: anything else, behind the original trait object.
    Dyn(Box<dyn Job>),
}

impl JobState {
    /// Adopt a caller-supplied boxed job, unwrapping synthetic jobs onto
    /// the fast path via [`Job::as_synthetic`].
    pub(crate) fn from_box(job: Box<dyn Job>) -> Self {
        match job.as_synthetic() {
            Some(s) => JobState::Synthetic(s.clone()),
            None => JobState::Dyn(job),
        }
    }

    /// Split into the `(total, done)` counters a step reads and the rest.
    /// An opaque job has no counters (`0, 0`); the step never reads them.
    pub(crate) fn split(self) -> (u64, u64, JobRest) {
        match self {
            JobState::Synthetic(j) => {
                let rest = SyntheticRest {
                    claimed_estimate: j.claimed_estimate,
                    report_scale: j.report_scale,
                    fail_armed: j.fail_armed,
                };
                (j.total, j.done, JobRest::Synthetic(rest))
            }
            JobState::Dyn(j) => (0, 0, JobRest::Dyn(j)),
        }
    }
}

/// A [`SyntheticJob`]'s fields other than its `total`/`done` counters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SyntheticRest {
    claimed_estimate: f64,
    report_scale: f64,
    fail_armed: bool,
}

impl SyntheticRest {
    fn join(self, total: u64, done: u64) -> SyntheticJob {
        SyntheticJob {
            total,
            done,
            claimed_estimate: self.claimed_estimate,
            report_scale: self.report_scale,
            fail_armed: self.fail_armed,
        }
    }
}

/// A job minus its `(total, done)` counters, which live in plain columns
/// beside it: every cold operation reassembles the whole job around them,
/// so [`SyntheticJob`]'s arithmetic stays in one place.
pub(crate) enum JobRest {
    Synthetic(SyntheticRest),
    Dyn(Box<dyn Job>),
}

impl std::fmt::Debug for JobRest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobRest::Synthetic(r) => f.debug_tuple("Synthetic").field(r).finish(),
            JobRest::Dyn(_) => f.write_str("Dyn(..)"),
        }
    }
}

impl JobRest {
    /// Placeholder stored in freed slab rows (drops any boxed job now).
    pub(crate) fn vacant() -> Self {
        JobState::Synthetic(SyntheticJob::new(0)).split().2
    }

    /// A synthetic job with no armed failure: its step is `total`/`done`
    /// arithmetic alone.
    pub(crate) fn plain(&self) -> bool {
        matches!(self, JobRest::Synthetic(r) if !r.fail_armed)
    }

    /// Call `f` on the whole job.
    #[inline]
    pub(crate) fn with<R>(&self, total: u64, done: u64, f: impl FnOnce(&dyn Job) -> R) -> R {
        match self {
            JobRest::Synthetic(r) => f(&r.join(total, done)),
            JobRest::Dyn(j) => f(j.as_ref()),
        }
    }

    /// Call `f` on the whole job and write back what it changed.
    pub(crate) fn with_mut<R>(
        &mut self,
        total: u64,
        done: &mut u64,
        f: impl FnOnce(&mut dyn Job) -> R,
    ) -> R {
        match self {
            JobRest::Synthetic(r) => {
                let mut j = r.join(total, *done);
                let out = f(&mut j);
                *done = j.done;
                r.fail_armed = j.fail_armed;
                out
            }
            JobRest::Dyn(j) => f(j.as_mut()),
        }
    }
}

/// A real engine cursor as a job.
pub struct CursorJob {
    cursor: Cursor,
}

impl CursorJob {
    /// Wrap a cursor.
    pub fn new(cursor: Cursor) -> Self {
        CursorJob { cursor }
    }

    /// Access the underlying cursor (e.g. to read result rows at the end).
    pub fn cursor(&self) -> &Cursor {
        &self.cursor
    }
}

impl Job for CursorJob {
    fn run(&mut self, budget: u64) -> Result<u64> {
        Ok(self.cursor.run(budget)?.used)
    }

    fn finished(&self) -> bool {
        self.cursor.finished()
    }

    fn progress(&self) -> JobProgress {
        let p = self.cursor.progress();
        JobProgress {
            done: p.done,
            remaining: p.remaining,
            initial_estimate: p.initial_estimate,
            finished: p.finished,
        }
    }

    fn inject_failure(&mut self) -> bool {
        // Engine-level hook: the cursor's next installment surfaces a
        // storage error from inside the executor, not a panic.
        self.cursor.arm_page_fault();
        true
    }
}

/// A job with exactly known total cost. By default its progress reports
/// are exact, which makes Assumption 2 (perfect knowledge of remaining
/// costs) *true* — useful for unit tests and for the paper's analytical
/// examples (Figs. 1-2). [`SyntheticJob::with_report_scale`] deliberately
/// mis-reports the remaining cost, which is how the Assumption 2 ablation
/// injects controlled estimate error.
#[derive(Debug, Clone)]
pub struct SyntheticJob {
    total: u64,
    done: u64,
    /// What the job *claims* as its initial estimate (can be set ≠ total to
    /// model bad optimizer estimates).
    claimed_estimate: f64,
    /// Multiplier applied to the *reported* remaining cost (1.0 = exact).
    report_scale: f64,
    /// When set, the next `run` call fails with a storage error (armed by
    /// [`Job::inject_failure`]).
    fail_armed: bool,
}

impl SyntheticJob {
    /// Job of exactly `total` units.
    pub fn new(total: u64) -> Self {
        SyntheticJob {
            total,
            done: 0,
            claimed_estimate: total as f64,
            report_scale: 1.0,
            fail_armed: false,
        }
    }

    /// Job whose *reported remaining cost* is `scale ×` the truth —
    /// Assumption 2 violated by a controlled factor.
    pub fn with_report_scale(total: u64, scale: f64) -> Self {
        assert!(scale > 0.0);
        SyntheticJob {
            claimed_estimate: total as f64 * scale,
            report_scale: scale,
            ..SyntheticJob::new(total)
        }
    }

    /// True total cost.
    pub fn total(&self) -> u64 {
        self.total
    }
}

impl Job for SyntheticJob {
    fn run(&mut self, budget: u64) -> Result<u64> {
        if self.fail_armed {
            self.fail_armed = false;
            return Err(mqpi_engine::error::EngineError::storage(
                "injected page-read fault",
            ));
        }
        let used = budget.min(self.total - self.done);
        self.done += used;
        Ok(used)
    }

    fn finished(&self) -> bool {
        self.done >= self.total
    }

    fn progress(&self) -> JobProgress {
        JobProgress {
            done: self.done as f64,
            remaining: (self.total - self.done) as f64 * self.report_scale,
            initial_estimate: self.claimed_estimate,
            finished: self.finished(),
        }
    }

    fn exact_remaining(&self) -> Option<f64> {
        // Unscaled truth: report_scale only distorts what the PI sees.
        Some((self.total - self.done) as f64)
    }

    fn inject_failure(&mut self) -> bool {
        self.fail_armed = true;
        true
    }

    fn restart(&self) -> Option<Box<dyn Job>> {
        Some(Box::new(SyntheticJob {
            claimed_estimate: self.claimed_estimate,
            report_scale: self.report_scale,
            ..SyntheticJob::new(self.total)
        }))
    }

    fn as_synthetic(&self) -> Option<&SyntheticJob> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_job_runs_to_exact_total() {
        let mut j = SyntheticJob::new(100);
        assert_eq!(j.run(30).unwrap(), 30);
        assert_eq!(j.run(200).unwrap(), 70);
        assert!(j.finished());
        assert_eq!(j.run(10).unwrap(), 0);
        let p = j.progress();
        assert_eq!(p.done, 100.0);
        assert_eq!(p.remaining, 0.0);
    }

    #[test]
    fn claimed_estimate_is_reported() {
        let j = SyntheticJob::with_report_scale(100, 0.4);
        assert_eq!(j.progress().initial_estimate, 40.0);
        assert_eq!(j.progress().remaining, 40.0);
        assert_eq!(j.exact_remaining(), Some(100.0)); // the truth stays exact
    }
}
