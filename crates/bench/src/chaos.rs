//! Chaos campaigns — seeded fault injection across every estimator.
//!
//! Each campaign cell is a (system shape, fault intensity) pair. The shape
//! fixes the scheduler configuration (admission policy, arrivals); the
//! intensity says how many faults per 100 virtual seconds a generated
//! [`FaultPlan`] schedules, spread evenly over all five
//! [`FaultKind`](mqpi_sim::FaultKind)s. Per cell we run `runs` seeded
//! replicates, and in each replicate:
//!
//! * the single- and multi-query PIs estimate every running query at a
//!   fixed sampling cadence;
//! * every estimate batch is screened: sanitizer repairs are counted
//!   ([`EstimateSet::degraded`]) and any post-sanitizer non-finite or
//!   negative value — which must never happen — is counted separately;
//! * the multi-query estimates feed an [`InvariantValidator`]
//!   (remaining-time monotonicity is checked on the fault-free baseline,
//!   where the fluid model must be self-consistent; the structural rules
//!   run at every intensity);
//! * at the end the work-conservation ledger is balanced across
//!   completions, aborts, rollbacks, failures and retries.
//!
//! The headline output is a degradation curve: mean relative estimate
//! error as a function of fault intensity, per shape, for both PI
//! families. Replicates fan out across worker threads and fold in run
//! order, so the report is bit-identical for any `--jobs` value.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use mqpi_ckpt::{wire_struct, CkptError, Wire};
use mqpi_core::{
    relative_error, EstimateSet, InvariantValidator, MultiQueryPi, SingleQueryPi,
    ValidationContext, Visibility,
};
use mqpi_engine::error::{EngineError, Result};
use mqpi_obs::{Obs, TraceKind};
use mqpi_sim::admission::AdmissionPolicy;
use mqpi_sim::job::SyntheticJob;
use mqpi_sim::rng::Rng;
use mqpi_sim::system::{ErrorPolicy, FinishKind, StepMode, System, SystemConfig};
use mqpi_sim::{FaultMix, FaultPlan};

/// Virtual horizon of one chaos run, in seconds.
pub const HORIZON: f64 = 400.0;
/// Sampling cadence of the estimator/validator loop.
pub(crate) const SAMPLE_INTERVAL: f64 = 5.0;
/// Aggregate rate `C` for every shape.
const RATE: f64 = 100.0;
/// Concurrency slots for the queued shapes.
const SLOTS: usize = 3;
/// Per-sample relative-error cap (winsorization). A near-zero actual
/// remaining time can make a single sample's relative error astronomically
/// large and swamp the cell mean; 100× (10 000 %) already reads as "the
/// estimate was useless" without drowning the rest of the curve.
pub(crate) const ERR_CAP: f64 = 100.0;

/// The scheduler shapes a campaign sweeps. Each exercises a different part
/// of the pipeline: `mcq` is pure concurrency, `naq` adds an admission
/// queue, `scq` adds future arrivals, and `bounded` adds load shedding.
pub const SHAPES: &[&str] = &["mcq", "naq", "scq", "bounded"];

/// Aggregated outcome of one (shape, intensity) cell.
#[derive(Debug, Clone, Default)]
pub struct ChaosPoint {
    /// Shape name (one of [`SHAPES`]).
    pub shape: &'static str,
    /// Scheduled faults per 100 virtual seconds.
    pub intensity: f64,
    /// Replicates aggregated into this point.
    pub runs: usize,
    /// Fault events applied across all replicates (excludes skipped).
    pub faults_injected: u64,
    /// Victimless events skipped (nothing eligible was running).
    pub faults_skipped: u64,
    /// Queries that ran to completion.
    pub completed: u64,
    /// Queries recorded as [`FinishKind::Failed`].
    pub failures: u64,
    /// Retry resubmissions scheduled.
    pub retries: u64,
    /// Queries shed by bounded admission.
    pub rejected: u64,
    /// Mean relative error of the single-query PI over all (tick, query)
    /// samples with a known completion.
    pub single_err: f64,
    /// Same for the multi-query PI.
    pub multi_err: f64,
    /// Estimates the sanitizer had to repair (raw math out of range).
    pub degraded: u64,
    /// Post-sanitizer non-finite or negative estimates. Must be zero: the
    /// sanitizer's whole contract is that callers never see these.
    pub nonfinite: u64,
    /// Invariant violations the validator accumulated. Must be zero.
    pub violations: u64,
}

/// A full campaign: every cell plus campaign-level totals.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// One point per (shape, intensity) cell, shapes outermost.
    pub points: Vec<ChaosPoint>,
    /// Total faults applied across the campaign.
    pub total_faults: u64,
    /// Total invariant violations (acceptance: zero).
    pub total_violations: u64,
    /// Total post-sanitizer bad estimates (acceptance: zero).
    pub total_nonfinite: u64,
    /// Violation descriptions, for diagnostics when the totals are not
    /// zero (format `shape/intensity/run: rule@t detail`).
    pub violation_details: Vec<String>,
}

/// Outcome of a single replicate, folded into a [`ChaosPoint`] in run
/// order so parallel campaigns reproduce the serial sums bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct RunOutcome {
    faults_injected: u64,
    faults_skipped: u64,
    completed: u64,
    failures: u64,
    retries: u64,
    rejected: u64,
    single_sum: f64,
    single_n: u64,
    multi_sum: f64,
    multi_n: u64,
    degraded: u64,
    nonfinite: u64,
    violations: Vec<String>,
}
wire_struct!(RunOutcome {
    faults_injected,
    faults_skipped,
    completed,
    failures,
    retries,
    rejected,
    single_sum,
    single_n,
    multi_sum,
    multi_n,
    degraded,
    nonfinite,
    violations,
});

/// Container kind tag of a campaign's outcome file.
const OUTCOMES_KIND: &str = "chaos-outcomes";

/// A finished replicate's identity: shape, intensity (as `f64` bits) and
/// seed. A replicate's outcome is a function of these three alone.
type RunKey = (String, u64, u64);

fn run_key(shape: &str, intensity: f64, seed: u64) -> RunKey {
    (shape.to_string(), intensity.to_bits(), seed)
}

/// Crash-safe checkpointing for a chaos campaign.
///
/// When passed to [`run`], the campaign keeps one file,
/// `dir/outcomes.ckpt`: the folded outcome of every finished replicate,
/// keyed by (shape, intensity, seed), rewritten atomically once after
/// each (shape, intensity) cell. A rerun with the same directory loads it
/// once, takes every recorded replicate from it and runs the rest from
/// scratch, producing a report bit-identical to an uninterrupted
/// campaign; a kill costs at most the cell in flight.
///
/// An unreadable file (truncated, corrupt, wrong kind or version) never
/// aborts the campaign: every replicate runs fresh, and the rejection is
/// surfaced on `obs` as a `ckpt action=rejected` trace event plus a
/// `ckpt.rejected` counter increment.
pub struct CheckpointCfg {
    /// Checkpoint directory (created on demand).
    pub dir: PathBuf,
    /// Campaign-level handle for checkpoint lifecycle events and the
    /// `ckpt.saved` / `ckpt.resumed` / `ckpt.rejected` counters, each
    /// counting replicates (`rejected` counts files). Trace-event *order*
    /// is nondeterministic under `--jobs > 1` (workers interleave); the
    /// counters are not.
    pub obs: Obs,
    /// Test hook: simulate a campaign-wide crash — workers refuse to start
    /// new replicates once this many have completed.
    pub crash_after_runs: Option<u64>,
    /// Replicates completed so far (backs `crash_after_runs`).
    done_runs: AtomicU64,
}

impl CheckpointCfg {
    /// Checkpointing into `dir`, without observability. Override the
    /// public fields as needed.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointCfg {
            dir: dir.into(),
            obs: Obs::disabled(),
            crash_after_runs: None,
            done_runs: AtomicU64::new(0),
        }
    }

    /// Record a checkpoint lifecycle event for one replicate (for a
    /// rejected file, `seed` is the campaign's first seed).
    fn note(&self, action: &'static str, seed: u64) {
        self.obs.emit(0.0, TraceKind::Checkpoint { action, seed });
        let counter = match action {
            "saved" => "ckpt.saved",
            "resumed" => "ckpt.resumed",
            _ => "ckpt.rejected",
        };
        self.obs.counter_add(counter, 1);
    }

    fn path(&self) -> PathBuf {
        self.dir.join("outcomes.ckpt")
    }

    /// The outcomes the directory holds, after sweeping a temp file a kill
    /// left mid-write. A missing file is an empty map; an unreadable one is
    /// rejected and ignored.
    fn load(&self, seed0: u64) -> Result<BTreeMap<RunKey, RunOutcome>> {
        std::fs::create_dir_all(&self.dir)
            .and_then(|()| mqpi_ckpt::sweep_stale_tmp(&self.dir))
            .map_err(|e| {
                EngineError::exec(format!("checkpoint dir {}: {e}", self.dir.display()))
            })?;
        let loaded = match mqpi_ckpt::read_file(&self.path(), OUTCOMES_KIND) {
            Err(CkptError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(BTreeMap::new())
            }
            read => read.and_then(|payload| Wire::from_bytes(&payload, "chaos outcomes")),
        };
        Ok(loaded.unwrap_or_else(|_| {
            self.note("rejected", seed0);
            BTreeMap::new()
        }))
    }

    fn save(&self, done: &BTreeMap<RunKey, RunOutcome>) -> Result<()> {
        mqpi_ckpt::write_file(&self.path(), OUTCOMES_KIND, &done.to_bytes())
            .map_err(|e| EngineError::exec(format!("checkpoint: {e}")))
    }
}

/// The scheduler of `shape` (one of [`SHAPES`]) with its initial queries
/// and, for `scq`, its arrival stream, all drawn from `rng`.
pub(crate) fn build_system(shape: &str, rng: &mut Rng) -> System {
    let admission = match shape {
        "naq" => AdmissionPolicy::MaxConcurrent(SLOTS),
        "bounded" => AdmissionPolicy::Bounded {
            slots: SLOTS,
            queue: 4,
        },
        _ => AdmissionPolicy::Unlimited,
    };
    let mut sys = System::new(SystemConfig {
        rate: RATE,
        quantum_units: 16.0,
        admission,
        step_mode: StepMode::Quantum,
        ..Default::default()
    });
    let initial = if shape == "scq" { 6 } else { 10 };
    for i in 0..initial {
        let cost = rng.range_f64(500.0, 5000.0) as u64;
        sys.submit(format!("q{i}"), Box::new(SyntheticJob::new(cost)), 1.0);
    }
    if shape == "scq" {
        // A deterministic Poisson-ish arrival stream inside the horizon.
        let mut t = 0.0;
        for i in 0..8 {
            t += rng.exp(0.02);
            let cost = rng.range_f64(500.0, 3000.0) as u64;
            sys.schedule(t, format!("a{i}"), Box::new(SyntheticJob::new(cost)), 1.0);
        }
    }
    sys
}

/// What the multi-query PI sees on `shape`: queue shapes get the paper's
/// §2.3 visibility, so the PI predicts admissions, which keeps its
/// estimates monotone across them.
pub(crate) fn visibility(shape: &str) -> Visibility {
    match shape {
        "naq" | "bounded" => Visibility::with_queue(Some(SLOTS)),
        _ => Visibility::concurrent_only(),
    }
}

fn count_bad(set: &EstimateSet) -> u64 {
    set.iter()
        .filter(|(_, v)| !v.is_finite() || *v < 0.0)
        .count() as u64
}

fn one_run(shape: &'static str, intensity: f64, seed: u64) -> Result<RunOutcome> {
    // `intensity` faults per 100 s over the horizon, split evenly across
    // the five kinds (rounded up to at least one of each when non-zero).
    let per_kind = ((intensity * HORIZON / 100.0) / 5.0).round() as usize;
    let faulty = per_kind > 0;

    let mut rng = Rng::seed_from_u64(seed);
    let mut sys = build_system(shape, &mut rng);
    sys.set_error_policy(ErrorPolicy::Isolate);
    if faulty {
        sys.install_faults(FaultPlan::generate(
            seed ^ 0xC4A5_17E5_0F00_D5EE,
            HORIZON,
            &FaultMix::even(per_kind),
        ));
    }
    // Slack covers quantum discretization over a sampling interval.
    let mut validator = InvariantValidator::with_slack(2.0);
    let single = SingleQueryPi::new();
    let multi = MultiQueryPi::new(visibility(shape));

    let mut samples: Vec<(f64, u64, f64, f64)> = Vec::new();
    let (mut degraded, mut nonfinite) = (0u64, 0u64);
    let (mut last_fault_count, mut prev_rate_degraded) = (0usize, false);
    let mut next_sample = 0.0;
    loop {
        if sys.now() >= next_sample {
            let snap = sys.snapshot();
            let s_set = single.estimates(&snap);
            let m_set = multi.estimates(&snap);
            degraded += u64::from(s_set.degraded() + m_set.degraded());
            nonfinite += count_bad(&s_set) + count_bad(&m_set);

            // A rate dip active at either endpoint of the interval keeps
            // actual progress below what the PI's nominal rate predicts,
            // so such intervals are not "clean" even between fault events.
            let rate_degraded = sys.current_rate() < sys.rate() - 1e-9;
            let fault_count = sys.fault_log().len();
            let ctx = ValidationContext {
                faults_in_interval: fault_count > last_fault_count
                    || rate_degraded
                    || prev_rate_degraded,
                // Cost-noise residue legitimately bends estimate slopes, so
                // the monotonicity rule is meaningful on the fault-free
                // baseline only; the structural rules always run.
                check_monotonicity: !faulty,
            };
            last_fault_count = fault_count;
            prev_rate_degraded = rate_degraded;
            validator.observe(&snap, &m_set, ctx);

            for q in &snap.running {
                samples.push((
                    snap.time,
                    q.id,
                    s_set.get(q.id).unwrap_or(f64::NAN),
                    m_set.get(q.id).unwrap_or(f64::NAN),
                ));
            }
            while next_sample <= sys.now() {
                next_sample += SAMPLE_INTERVAL;
            }
        }
        if sys.now() >= HORIZON || !sys.has_work() {
            break;
        }
        sys.step()?;
    }

    let executed = sys.executed_units();
    validator.check_conservation(
        sys.now(),
        executed,
        sys.live_units_done(),
        sys.finished(),
        1e-6 * executed.max(1.0),
    );

    // Resolve the degradation metric post hoc against actual finish times.
    let (mut single_sum, mut single_n) = (0.0, 0u64);
    let (mut multi_sum, mut multi_n) = (0.0, 0u64);
    for &(t, id, s_est, m_est) in &samples {
        let Some(f) = sys.finished_record(id) else {
            continue;
        };
        if f.kind != FinishKind::Completed {
            continue;
        }
        let actual = f.finished - t;
        if actual < 1.0 {
            continue;
        }
        if s_est.is_finite() {
            single_sum += relative_error(s_est, actual).min(ERR_CAP);
            single_n += 1;
        }
        if m_est.is_finite() {
            multi_sum += relative_error(m_est, actual).min(ERR_CAP);
            multi_n += 1;
        }
    }

    let stats = sys.fault_stats().unwrap_or_default();
    let completed = sys
        .finished()
        .iter()
        .filter(|f| f.kind == FinishKind::Completed)
        .count() as u64;
    Ok(RunOutcome {
        faults_injected: stats.injected,
        faults_skipped: stats.skipped,
        completed,
        failures: stats.failures,
        retries: stats.retries_scheduled,
        rejected: sys.rejected_count(),
        single_sum,
        single_n,
        multi_sum,
        multi_n,
        degraded,
        nonfinite,
        violations: validator
            .violations()
            .iter()
            .map(|v| format!("{}@{:.2} {}", v.rule, v.at, v.detail))
            .collect(),
    })
}

/// Run a chaos campaign over `SHAPES` × `intensities` with `runs` seeded
/// replicates per cell, using up to `jobs` worker threads, optionally
/// checkpointed (see [`CheckpointCfg`]). Output is bit-identical for any
/// `jobs` value, and a checkpoint directory serves any campaign: its
/// outcomes are keyed by what determines them.
pub fn run(
    intensities: &[f64],
    runs: usize,
    seed0: u64,
    jobs: usize,
    ckpt: Option<&CheckpointCfg>,
) -> Result<ChaosReport> {
    let mut done = match ckpt {
        Some(c) => c.load(seed0)?,
        None => BTreeMap::new(),
    };
    let mut points = Vec::new();
    let mut details = Vec::new();
    let (mut total_faults, mut total_violations, mut total_nonfinite) = (0u64, 0u64, 0u64);
    for (si, &shape) in SHAPES.iter().enumerate() {
        for (ii, &intensity) in intensities.iter().enumerate() {
            let cell = (si * intensities.len() + ii) as u64;
            let seed = |r: usize| seed0 + (cell << 32) + r as u64;
            let outcomes = crate::parallel::run_indexed(jobs, runs, |r| {
                let Some(c) = ckpt else {
                    return one_run(shape, intensity, seed(r));
                };
                if let Some(o) = done.get(&run_key(shape, intensity, seed(r))) {
                    c.note("resumed", seed(r));
                    return Ok(o.clone());
                }
                if c.crash_after_runs
                    .is_some_and(|n| c.done_runs.load(Ordering::SeqCst) >= n)
                {
                    return Err(EngineError::exec("simulated campaign crash"));
                }
                let o = one_run(shape, intensity, seed(r))?;
                c.done_runs.fetch_add(1, Ordering::SeqCst);
                Ok(o)
            });
            if let Some(c) = ckpt {
                // Saved before a failed replicate ends the campaign, so a
                // rerun keeps the rest of the cell.
                let mut saved = Vec::new();
                for (r, o) in outcomes.iter().enumerate() {
                    if let (Ok(o), Entry::Vacant(slot)) =
                        (o, done.entry(run_key(shape, intensity, seed(r))))
                    {
                        slot.insert(o.clone());
                        saved.push(seed(r));
                    }
                }
                if !saved.is_empty() {
                    c.save(&done)?;
                }
                for s in saved {
                    c.note("saved", s);
                }
            }
            let mut p = ChaosPoint {
                shape,
                intensity,
                runs,
                ..ChaosPoint::default()
            };
            let (mut ss, mut sn, mut ms, mut mn) = (0.0, 0u64, 0.0, 0u64);
            for (r, o) in outcomes.into_iter().enumerate() {
                let o = o?;
                p.faults_injected += o.faults_injected;
                p.faults_skipped += o.faults_skipped;
                p.completed += o.completed;
                p.failures += o.failures;
                p.retries += o.retries;
                p.rejected += o.rejected;
                p.degraded += o.degraded;
                p.nonfinite += o.nonfinite;
                p.violations += o.violations.len() as u64;
                ss += o.single_sum;
                sn += o.single_n;
                ms += o.multi_sum;
                mn += o.multi_n;
                for v in o.violations {
                    details.push(format!("{shape}/{intensity}/run{r}: {v}"));
                }
            }
            p.single_err = if sn > 0 { ss / sn as f64 } else { 0.0 };
            p.multi_err = if mn > 0 { ms / mn as f64 } else { 0.0 };
            total_faults += p.faults_injected;
            total_violations += p.violations;
            total_nonfinite += p.nonfinite;
            points.push(p);
        }
    }
    Ok(ChaosReport {
        points,
        total_faults,
        total_violations,
        total_nonfinite,
        violation_details: details,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_clean_and_degrades_gracefully() {
        let rep = run(&[0.0, 10.0], 2, 42, 2, None).unwrap();
        assert_eq!(
            rep.total_violations, 0,
            "invariant violations: {:?}",
            rep.violation_details
        );
        assert_eq!(rep.total_nonfinite, 0, "sanitizer let a bad value through");
        assert!(rep.total_faults > 0, "no faults were injected");
        // Every shape must have produced error samples at both intensities.
        for p in &rep.points {
            assert!(
                p.completed > 0,
                "{}/{}: nothing completed",
                p.shape,
                p.intensity
            );
            assert!(
                p.single_err.is_finite() && p.multi_err.is_finite(),
                "{}/{}: non-finite campaign error",
                p.shape,
                p.intensity
            );
        }
        // The bounded shape must actually shed load.
        assert!(
            rep.points
                .iter()
                .filter(|p| p.shape == "bounded")
                .all(|p| p.rejected > 0),
            "bounded shape never rejected anything"
        );
    }

    #[test]
    fn faults_make_estimates_worse_on_average() {
        let rep = run(&[0.0, 10.0], 3, 7, 2, None).unwrap();
        let sum_at = |i: f64| {
            rep.points
                .iter()
                .filter(|p| p.intensity == i)
                .map(|p| p.multi_err)
                .sum::<f64>()
        };
        // Aggregate over shapes: heavy fault load must not (on average)
        // *improve* the multi-query PI versus the clean baseline.
        assert!(
            sum_at(10.0) > sum_at(0.0) * 0.8,
            "faulty {} vs clean {}",
            sum_at(10.0),
            sum_at(0.0)
        );
    }

    #[test]
    fn campaign_is_bit_identical_across_jobs() {
        let serial = run(&[0.0, 5.0], 2, 11, 1, None).unwrap();
        let parallel = run(&[0.0, 5.0], 2, 11, 4, None).unwrap();
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mqpi_chaos_{tag}_{}", std::process::id()))
    }

    #[test]
    fn checkpointing_does_not_change_a_run() {
        let dir = scratch_dir("noop");
        let _ = std::fs::remove_dir_all(&dir);
        let plain = run(&[0.0, 2.0], 2, 777, 2, None).unwrap();
        let replicates = (SHAPES.len() * 2 * 2) as u64;
        let mut cfg = CheckpointCfg::new(&dir);
        cfg.obs = Obs::enabled();
        let snapped = run(&[0.0, 2.0], 2, 777, 2, Some(&cfg)).unwrap();
        assert_eq!(format!("{plain:?}"), format!("{snapped:?}"));
        // One save per replicate, not per tick.
        assert_eq!(cfg.obs.counter("ckpt.saved"), replicates);
        // A second pass takes every replicate from the file.
        let mut again = CheckpointCfg::new(&dir);
        again.obs = Obs::enabled();
        let resumed = run(&[0.0, 2.0], 2, 777, 2, Some(&again)).unwrap();
        assert_eq!(format!("{plain:?}"), format!("{resumed:?}"));
        assert_eq!(again.obs.counter("ckpt.resumed"), replicates);
        assert_eq!(again.obs.counter("ckpt.saved"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
