//! What a workload is to the runner, and what one pass of it yields.

use std::collections::BTreeMap;
use std::path::Path;

use crate::trace::{TraceSummary, Tracer};

/// How one pass over a workload's inputs is instrumented. Every kind runs
/// the same operations and must end with the same [`PassOut::exact`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// Nothing but the section and tick clocks: the end-to-end numbers.
    Untraced,
    /// Spans around every call into a layer.
    Traced,
    /// Traced, with `Obs::enabled()` installed wherever a layer takes one.
    TracedObs,
    /// Untraced, with the op stream the workload issues to its
    /// `IncrementalFluid` replayed batch by batch on a bare one.
    BareCore,
}

impl PassKind {
    pub fn traced(self) -> bool {
        matches!(self, PassKind::Traced | PassKind::TracedObs)
    }

    pub fn label(self) -> &'static str {
        match self {
            PassKind::Untraced => "untraced",
            PassKind::Traced => "traced",
            PassKind::TracedObs => "traced+obs",
            PassKind::BareCore => "bare-core",
        }
    }
}

/// Order statistics of one pass's tick latencies, in microseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct TickStats {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    pub p999: f64,
}

/// Result of one pass.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Operations completed in the op section, and that section's length
    /// on the wall clock and on the driver thread's CPU clock.
    pub ops: u64,
    pub ops_ns: u64,
    pub ops_cpu_ns: u64,
    /// Total length of all timed sections.
    pub wall_ns: u64,
    /// Latency of each driver tick. The runner reduces the samples to
    /// [`PassOut::ticks`] as soon as the pass is over and drops them.
    pub ticks_ns: Vec<u32>,
    pub ticks: TickStats,
    /// Values that must repeat exactly on every pass of every kind for one
    /// (workload, seed, scale): counts, digests, virtual-time results (an
    /// `f64` is stored as its bits).
    pub exact: BTreeMap<&'static str, u64>,
    /// Per-layer values that do not come from spans. Counts repeat; wall
    /// times (seconds of a recovery, a flush latency) do not.
    pub layer: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub notes: Vec<String>,
    pub trace: Option<TraceSummary>,
}

impl PassOut {
    /// Record a failed check.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.notes.len() < 20 {
            self.notes.push(why);
        }
    }

    pub fn exact_f64(&mut self, name: &'static str, v: f64) {
        self.exact.insert(name, v.to_bits());
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Pass kinds a traced run cycles through.
    const ROTATION: &'static [PassKind];

    /// Build the inputs from the seed. `scale` multiplies every operation
    /// count (1.0 = the sizes the README states); `dir` is an empty scratch
    /// directory.
    fn setup(seed: u64, scale: f64, dir: &Path) -> Result<Self, String>;

    /// Per-layer values measured during set-up.
    fn setup_layer(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Run the workload once. `dir` is an empty scratch directory.
    fn pass(&self, kind: PassKind, dir: &Path, tr: &mut Tracer) -> Result<PassOut, String>;
}
