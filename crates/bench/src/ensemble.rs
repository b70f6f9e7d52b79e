//! Ensemble campaign — the multi-query PI's uncertainty bands, calm and
//! under fault plans.
//!
//! Each campaign cell is a (system shape, fault plan) pair. Shapes are the
//! chaos campaign's scheduler configurations (`mcq` pure concurrency, `naq`
//! admission queue, `scq` mid-run arrivals), built by the same code; plans
//! pick which fault kinds a seeded [`FaultPlan`] schedules (`calm` none,
//! `cost_noise`, `rate_dip`, or a `mixed` barrage). Per replicate a
//! [`BandedPi`] runs at a fixed cadence, realized completions feed its
//! residual window, and every band it emits is recorded.
//!
//! Resolved post hoc against actual finish times, each cell reports the
//! mean relative error of the band p50 (the multi-query PI's point), the
//! p10–p90 coverage (nominal 0.8) and the mean band width. The gate
//! ([`check_bands`]) is the floor `prop_bands` asserts: coverage of at
//! least 0.5 and every value finite, in every cell.
//! Replicates fan out across worker threads and fold in run order, so the
//! cells are bit-identical for any `--jobs` value.

use mqpi_core::{relative_error, Band, BandedPi};
use mqpi_engine::error::Result;
use mqpi_sim::rng::Rng;
use mqpi_sim::system::{ErrorPolicy, FinishKind};
use mqpi_sim::{FaultMix, FaultPlan};

use crate::chaos::{self, ERR_CAP, HORIZON, SAMPLE_INTERVAL};

/// Scheduled events per fault kind in a non-calm plan.
const FAULTS_PER_KIND: usize = 16;
/// Least p10–p90 coverage every cell must reach: far enough below nominal
/// to tolerate adversarial fault plans and a finite residual window, far
/// enough above zero to catch bands that ignore realized outcomes.
const COVERAGE_FLOOR: f64 = 0.5;

/// System shapes the campaign sweeps.
pub const SHAPES: &[&str] = &["mcq", "naq", "scq"];
/// Fault plans the campaign sweeps; `calm` is the fault-free baseline.
pub const PLANS: &[&str] = &["calm", "cost_noise", "rate_dip", "mixed"];

/// The fault mix a plan schedules (`None` = calm).
fn fault_mix(plan: &str) -> Option<FaultMix> {
    match plan {
        "cost_noise" => Some(FaultMix {
            cost_noise: FAULTS_PER_KIND,
            ..FaultMix::default()
        }),
        "rate_dip" => Some(FaultMix {
            rate_dips: FAULTS_PER_KIND,
            ..FaultMix::default()
        }),
        "mixed" => Some(FaultMix {
            cost_noise: FAULTS_PER_KIND / 2,
            rate_dips: FAULTS_PER_KIND / 2,
            bursts: FAULTS_PER_KIND / 2,
            page_faults: FAULTS_PER_KIND / 2,
            abort_retries: FAULTS_PER_KIND / 4,
            ..FaultMix::default()
        }),
        _ => None,
    }
}

/// Aggregated outcome of one (shape, plan) cell.
#[derive(Debug, Clone)]
pub struct EnsembleCell {
    /// Shape name (one of [`SHAPES`]).
    pub shape: &'static str,
    /// Fault plan (one of [`PLANS`]).
    pub plan: &'static str,
    /// Replicates aggregated into this cell.
    pub runs: usize,
    /// Queries that ran to completion.
    pub completed: u64,
    /// Mean relative error of the band p50.
    pub p50_err: f64,
    /// Fraction of scored samples whose realized remaining time fell
    /// inside [p10, p90] (nominal 0.8).
    pub coverage: f64,
    /// Mean band width (p90 − p10) over all emitted bands, in seconds.
    pub mean_width: f64,
    /// Samples with a known completion that entered the error mean.
    pub scored: u64,
}

/// The band floor: `Err` names the first cell whose coverage is below
/// the floor (0.5) or whose error, coverage or width is not finite.
pub fn check_bands(cells: &[EnsembleCell]) -> std::result::Result<(), String> {
    for c in cells {
        let finite = [c.p50_err, c.coverage, c.mean_width]
            .iter()
            .all(|v| v.is_finite());
        // NaN must fail the gate, so compare on the passing side only.
        let covered = c.coverage >= COVERAGE_FLOOR;
        if !(finite && covered) {
            return Err(format!(
                "cell {}/{}: p50 err {:.4}, coverage {:.3} (floor {COVERAGE_FLOOR}), \
                 width {:.2} s",
                c.shape, c.plan, c.p50_err, c.coverage, c.mean_width
            ));
        }
    }
    Ok(())
}

/// Outcome of a single replicate, folded into an [`EnsembleCell`] in run
/// order so parallel campaigns reproduce the serial sums bit for bit.
#[derive(Debug, Clone, PartialEq, Default)]
struct RunOutcome {
    err_sum: f64,
    covered: u64,
    scored: u64,
    width_sum: f64,
    width_n: u64,
    completed: u64,
}

fn one_run(shape: &'static str, plan: &'static str, seed: u64) -> Result<RunOutcome> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut sys = chaos::build_system(shape, &mut rng);
    sys.set_error_policy(ErrorPolicy::Isolate);
    if let Some(mix) = fault_mix(plan) {
        sys.install_faults(FaultPlan::generate(
            seed ^ 0xE45E_3B1E_0000_0009,
            HORIZON,
            &mix,
        ));
    }

    let mut pi = BandedPi::new(chaos::visibility(shape));
    // (sample time, query id, band).
    let mut samples: Vec<(f64, u64, Band)> = Vec::new();
    let mut next_sample = 0.0;
    let mut seen_finished = 0usize;
    let mut o = RunOutcome::default();
    loop {
        if sys.now() >= next_sample {
            // Realized completions feed the residual window; everything
            // else (aborts, failures, rejections) is forgotten, not scored.
            let finished = sys.finished();
            for rec in &finished[seen_finished..] {
                if rec.kind == FinishKind::Completed {
                    pi.resolve(rec.id, rec.finished);
                } else {
                    pi.forget(rec.id);
                }
            }
            seen_finished = finished.len();

            let snap = sys.snapshot();
            for b in pi.tick(&snap) {
                o.width_sum += b.band.width();
                o.width_n += 1;
                samples.push((snap.time, b.id, b.band));
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

    // Resolve all errors post hoc against actual finish times.
    o.completed = sys
        .finished()
        .iter()
        .filter(|f| f.kind == FinishKind::Completed)
        .count() as u64;
    for (t, id, band) in &samples {
        let Some(f) = sys.finished_record(*id) else {
            continue;
        };
        if f.kind != FinishKind::Completed {
            continue;
        }
        let actual = f.finished - t;
        if actual < 1.0 {
            continue;
        }
        o.scored += 1;
        o.err_sum += relative_error(band.p50, actual).min(ERR_CAP);
        if band.p10 <= actual && actual <= band.p90 {
            o.covered += 1;
        }
    }
    Ok(o)
}

/// Run the campaign over [`SHAPES`] × [`PLANS`] with `runs` seeded
/// replicates per cell, using up to `jobs` worker threads. One cell per
/// (shape, plan), shapes outermost; bit-identical for any `jobs` value.
pub fn run(runs: usize, seed0: u64, jobs: usize) -> Result<Vec<EnsembleCell>> {
    let mut cells = Vec::new();
    for (si, &shape) in SHAPES.iter().enumerate() {
        for (pi, &plan) in PLANS.iter().enumerate() {
            let cell_no = (si * PLANS.len() + pi) as u64;
            let outcomes = crate::parallel::run_indexed(jobs, runs, |r| {
                one_run(shape, plan, seed0 + (cell_no << 32) + r as u64)
            });
            let mut agg = RunOutcome::default();
            for o in outcomes {
                let o = o?;
                agg.err_sum += o.err_sum;
                agg.covered += o.covered;
                agg.scored += o.scored;
                agg.width_sum += o.width_sum;
                agg.width_n += o.width_n;
                agg.completed += o.completed;
            }
            let mean = |s: f64, n: u64| if n > 0 { s / n as f64 } else { 0.0 };
            cells.push(EnsembleCell {
                shape,
                plan,
                runs,
                completed: agg.completed,
                p50_err: mean(agg.err_sum, agg.scored),
                coverage: mean(agg.covered as f64, agg.scored),
                mean_width: mean(agg.width_sum, agg.width_n),
                scored: agg.scored,
            });
        }
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_meets_acceptance_and_produces_samples() {
        let cells = run(3, 42, 2).unwrap();
        assert_eq!(cells.len(), SHAPES.len() * PLANS.len());
        for c in &cells {
            assert!(c.completed > 0, "{}/{}: nothing completed", c.shape, c.plan);
            assert!(c.scored > 0, "{}/{}: nothing scored", c.shape, c.plan);
            assert!(
                c.mean_width > 0.0,
                "{}/{}: bands collapsed to points",
                c.shape,
                c.plan
            );
        }
        check_bands(&cells).unwrap_or_else(|e| panic!("band floor failed: {e}"));
    }

    #[test]
    fn the_floor_refuses_low_coverage_and_non_finite_cells() {
        let good = EnsembleCell {
            shape: "mcq",
            plan: "calm",
            runs: 1,
            completed: 1,
            p50_err: 0.1,
            coverage: 0.8,
            mean_width: 10.0,
            scored: 10,
        };
        assert_eq!(check_bands(std::slice::from_ref(&good)), Ok(()));
        let low = EnsembleCell {
            coverage: 0.49,
            ..good.clone()
        };
        let nan = EnsembleCell {
            p50_err: f64::NAN,
            ..good.clone()
        };
        let inf = EnsembleCell {
            mean_width: f64::INFINITY,
            ..good.clone()
        };
        for bad in [low, nan, inf] {
            let err = check_bands(&[good.clone(), bad]).unwrap_err();
            assert!(err.starts_with("cell mcq/calm"), "{err}");
        }
    }

    #[test]
    fn campaign_is_bit_identical_across_jobs() {
        let serial = run(2, 7, 1).unwrap();
        let parallel = run(2, 7, 4).unwrap();
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }
}
