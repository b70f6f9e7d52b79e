//! Ensemble campaign — online estimator selection scored against single
//! estimators, calm and under fault plans.
//!
//! Each campaign cell is a (system shape, fault plan) pair. Shapes reuse
//! the chaos campaign's scheduler configurations (`mcq` pure concurrency,
//! `naq` admission queue, `scq` mid-run arrivals); plans pick which fault
//! kinds a seeded [`FaultPlan`] schedules (`calm` none, `cost_noise`,
//! `rate_dip`, or a `mixed` barrage). Per replicate the standard
//! [`Ensemble`] lineup runs at a fixed cadence: realized completions feed
//! the selector, every member estimator is sampled, and the ensemble's
//! banded estimates are recorded alongside.
//!
//! The headline comparison, resolved post hoc against actual finish
//! times, is mean relative error per member estimator versus the
//! ensemble's band p50 — plus band calibration (p10–p90 coverage, mean
//! width) and selector activity (switches, resolved samples). Acceptance
//! ([`EnsembleReport::check_acceptance`]): on every calm cell the ensemble
//! is within 10 % of the best member, and on at least two fault cells it
//! strictly beats the worst member. Replicates fan out across worker
//! threads and fold in run order, so the report is bit-identical for any
//! `--jobs` value.

use mqpi_core::{relative_error, Ensemble, Visibility};
use mqpi_engine::error::Result;
use mqpi_sim::admission::AdmissionPolicy;
use mqpi_sim::job::SyntheticJob;
use mqpi_sim::rng::Rng;
use mqpi_sim::system::{ErrorPolicy, FinishKind, StepMode, System, SystemConfig};
use mqpi_sim::{FaultMix, FaultPlan};

/// Virtual horizon of one replicate, in seconds.
pub const HORIZON: f64 = 400.0;
/// Sampling cadence of the ensemble loop.
const SAMPLE_INTERVAL: f64 = 5.0;
/// Aggregate rate `C` for every shape.
const RATE: f64 = 100.0;
/// Concurrency slots for the queued shape.
const SLOTS: usize = 3;
/// Per-sample relative-error cap (winsorization), matching the chaos
/// campaign's rationale.
const ERR_CAP: f64 = 100.0;
/// Scheduled events per fault kind in a non-calm plan.
const FAULTS_PER_KIND: usize = 16;
/// Smoothing constant of the ensemble's own speed-EWMA member.
const EWMA_TAU: f64 = 4.0;

/// System shapes the campaign sweeps.
pub const SHAPES: &[&str] = &["mcq", "naq", "scq"];
/// Fault plans the campaign sweeps. `calm` is the fault-free baseline the
/// 10 %-of-best acceptance bound applies to; the rest are the chaos side.
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
    /// Mean relative error per member estimator, aligned with
    /// [`EnsembleReport::names`].
    pub est_errs: Vec<f64>,
    /// Mean relative error of the ensemble's band p50.
    pub ensemble_err: f64,
    /// Fraction of scored samples whose realized remaining time fell
    /// inside [p10, p90] (nominal 0.8).
    pub coverage: f64,
    /// Mean band width (p90 − p10) over all emitted bands, in seconds.
    pub mean_width: f64,
    /// Selector switches across all replicates (assignments excluded).
    pub switches: u64,
    /// Resolved (tick, query) samples that scored the selector.
    pub resolved: u64,
    /// Samples with a known completion that entered the error means.
    pub scored: u64,
}

impl EnsembleCell {
    /// Lowest member-estimator error in this cell.
    pub fn best_member(&self) -> f64 {
        self.est_errs.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Highest member-estimator error in this cell.
    pub fn worst_member(&self) -> f64 {
        self.est_errs.iter().copied().fold(0.0, f64::max)
    }
}

/// A full campaign: member names plus one cell per (shape, plan).
#[derive(Debug, Clone)]
pub struct EnsembleReport {
    /// Member estimator names, aligning every cell's `est_errs`.
    pub names: Vec<&'static str>,
    /// One cell per (shape, plan), shapes outermost.
    pub cells: Vec<EnsembleCell>,
}

impl EnsembleReport {
    /// The PR's acceptance gate. On every calm cell the ensemble's error
    /// must be within `calm_tol` (relative) of the best member, plus a
    /// small absolute allowance for finite-sample noise; across the fault
    /// cells the ensemble must strictly beat the worst member at least
    /// `min_chaos_wins` times.
    pub fn check_acceptance(
        &self,
        calm_tol: f64,
        min_chaos_wins: usize,
    ) -> std::result::Result<(), String> {
        for c in self.cells.iter().filter(|c| c.plan == "calm") {
            let bound = c.best_member() * (1.0 + calm_tol) + 0.02;
            // NaN must fail the gate, so compare on the passing side only.
            let ok = c.ensemble_err <= bound;
            if !ok {
                return Err(format!(
                    "calm cell {}: ensemble err {:.4} exceeds best member {:.4} + {:.0}% bound",
                    c.shape,
                    c.ensemble_err,
                    c.best_member(),
                    calm_tol * 100.0
                ));
            }
        }
        let wins = self.chaos_wins();
        if wins < min_chaos_wins {
            return Err(format!(
                "ensemble beat the worst member on only {wins} of the fault cells \
                 (need {min_chaos_wins})"
            ));
        }
        Ok(())
    }

    /// Number of fault cells where the ensemble strictly beats the worst
    /// member estimator.
    pub fn chaos_wins(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.plan != "calm" && c.ensemble_err < c.worst_member())
            .count()
    }

    /// `BENCH_9.json`: every cell, and whether the 10 % / 2-win gate of
    /// [`Self::check_acceptance`] passed, for a campaign of `runs`
    /// replicates per cell seeded with `seed`.
    pub fn bench_json(&self, runs: usize, seed: u64) -> String {
        let passed = self.check_acceptance(0.10, 2).is_ok();
        let calm_ok = self.check_acceptance(0.10, 0).is_ok();
        let chaos_wins = self.chaos_wins();

        let mut json = String::from("{\n");
        json.push_str(
            "  \"benchmark\": \"estimator ensemble: online selection + uncertainty bands (crates/bench/src/ensemble.rs)\",\n",
        );
        json.push_str(&format!(
            "  \"config\": \"shapes {:?} x fault plans {:?}, {} replicates/cell, seed {}, horizon {}s, \
             standard lineup with Koenig-style windowed-decayed-error selection and residual-quantile bands\",\n",
            SHAPES,
            PLANS,
            runs,
            seed,
            HORIZON
        ));
        json.push_str(
            "  \"metric\": \"mean winsorized relative error per estimator vs the ensemble band p50; \
             p10-p90 coverage (nominal 0.8); mean band width; selector switches\",\n",
        );
        json.push_str("  \"estimators\": [");
        for (i, n) in self.names.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!("\"{n}\""));
        }
        json.push_str("],\n");
        json.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            json.push_str(&format!(
                "    {{ \"shape\": \"{}\", \"plan\": \"{}\", \"errors\": [",
                c.shape, c.plan
            ));
            for (j, e) in c.est_errs.iter().enumerate() {
                if j > 0 {
                    json.push_str(", ");
                }
                json.push_str(&format!("{e:.4}"));
            }
            json.push_str(&format!(
                "], \"ensemble_error\": {:.4}, \"coverage\": {:.3}, \"mean_width_s\": {:.2}, \
                 \"switches\": {}, \"resolved\": {}, \"scored\": {} }}{}\n",
                c.ensemble_err,
                c.coverage,
                c.mean_width,
                c.switches,
                c.resolved,
                c.scored,
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        json.push_str("  ],\n");
        json.push_str("  \"acceptance\": {\n");
        json.push_str(
            "    \"calm_bound\": \"ensemble within 10% of best member on every calm cell\",\n",
        );
        json.push_str(&format!("    \"calm_ok\": {calm_ok},\n"));
        json.push_str(&format!("    \"chaos_wins\": {chaos_wins},\n"));
        json.push_str("    \"required_chaos_wins\": 2,\n");
        json.push_str(&format!("    \"passed\": {passed}\n"));
        json.push_str("  }\n");
        json.push_str("}\n");
        json
    }
}

/// Outcome of a single replicate, folded into an [`EnsembleCell`] in run
/// order so parallel campaigns reproduce the serial sums bit for bit.
#[derive(Debug, Clone, PartialEq, Default)]
struct RunOutcome {
    est_sums: Vec<f64>,
    est_ns: Vec<u64>,
    ens_sum: f64,
    ens_n: u64,
    covered: u64,
    scored: u64,
    width_sum: f64,
    width_n: u64,
    switches: u64,
    resolved: u64,
    completed: u64,
}

fn build_system(shape: &str, rng: &mut Rng) -> System {
    let admission = match shape {
        "naq" => AdmissionPolicy::MaxConcurrent(SLOTS),
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
        let mut t = 0.0;
        for i in 0..8 {
            t += rng.exp(0.02);
            let cost = rng.range_f64(500.0, 3000.0) as u64;
            sys.schedule(t, format!("a{i}"), Box::new(SyntheticJob::new(cost)), 1.0);
        }
    }
    sys
}

fn visibility(shape: &str) -> Visibility {
    match shape {
        "naq" => Visibility::with_queue(Some(SLOTS)),
        _ => Visibility::concurrent_only(),
    }
}

fn one_run(shape: &'static str, plan: &'static str, seed: u64) -> Result<RunOutcome> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut sys = build_system(shape, &mut rng);
    sys.set_error_policy(ErrorPolicy::Isolate);
    if let Some(mix) = fault_mix(plan) {
        sys.install_faults(FaultPlan::generate(
            seed ^ 0xE45E_3B1E_0000_0009,
            HORIZON,
            &mix,
        ));
    }

    let mut ens = Ensemble::standard(visibility(shape), EWMA_TAU);
    let n_est = ens.names().len();

    // (sample time, query id, member point estimates, band p10/p50/p90).
    let mut samples: Vec<(f64, u64, Vec<f64>, f64, f64, f64)> = Vec::new();
    let mut next_sample = 0.0;
    let mut seen_finished = 0usize;
    let (mut width_sum, mut width_n) = (0.0, 0u64);
    loop {
        if sys.now() >= next_sample {
            // Realized completions feed the selector; everything else
            // (aborts, failures, rejections) is forgotten, not scored.
            let finished = sys.finished();
            for rec in &finished[seen_finished..] {
                if rec.kind == FinishKind::Completed {
                    ens.resolve(rec.id, rec.finished);
                } else {
                    ens.forget(rec.id);
                }
            }
            seen_finished = finished.len();

            let snap = sys.snapshot();
            let out = ens.tick(&snap);
            for b in &out.banded {
                let ests: Vec<f64> = out
                    .sets
                    .iter()
                    .map(|s| s.get(b.id).unwrap_or(f64::NAN))
                    .collect();
                width_sum += b.band.width();
                width_n += 1;
                samples.push((snap.time, b.id, ests, b.band.p10, b.band.p50, b.band.p90));
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
    let mut o = RunOutcome {
        est_sums: vec![0.0; n_est],
        est_ns: vec![0; n_est],
        width_sum,
        width_n,
        switches: ens.switches(),
        resolved: ens.resolved(),
        completed: sys
            .finished()
            .iter()
            .filter(|f| f.kind == FinishKind::Completed)
            .count() as u64,
        ..RunOutcome::default()
    };
    for (t, id, ests, p10, p50, p90) in &samples {
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
        for (i, &est) in ests.iter().enumerate() {
            if est.is_finite() {
                o.est_sums[i] += relative_error(est, actual).min(ERR_CAP);
                o.est_ns[i] += 1;
            }
        }
        o.ens_sum += relative_error(*p50, actual).min(ERR_CAP);
        o.ens_n += 1;
        if *p10 <= actual && actual <= *p90 {
            o.covered += 1;
        }
    }
    Ok(o)
}

/// Run the campaign over [`SHAPES`] × [`PLANS`] with `runs` seeded
/// replicates per cell, using up to `jobs` worker threads. Output is
/// bit-identical for any `jobs` value.
pub fn run(runs: usize, seed0: u64, jobs: usize) -> Result<EnsembleReport> {
    let names = Ensemble::standard(Visibility::concurrent_only(), EWMA_TAU).names();
    let n_est = names.len();
    let mut cells = Vec::new();
    for (si, &shape) in SHAPES.iter().enumerate() {
        for (pi, &plan) in PLANS.iter().enumerate() {
            let cell_no = (si * PLANS.len() + pi) as u64;
            let outcomes = crate::parallel::run_indexed(jobs, runs, |r| {
                one_run(shape, plan, seed0 + (cell_no << 32) + r as u64)
            });
            let mut agg = RunOutcome {
                est_sums: vec![0.0; n_est],
                est_ns: vec![0; n_est],
                ..RunOutcome::default()
            };
            for o in outcomes {
                let o = o?;
                for i in 0..n_est {
                    agg.est_sums[i] += o.est_sums[i];
                    agg.est_ns[i] += o.est_ns[i];
                }
                agg.ens_sum += o.ens_sum;
                agg.ens_n += o.ens_n;
                agg.covered += o.covered;
                agg.scored += o.scored;
                agg.width_sum += o.width_sum;
                agg.width_n += o.width_n;
                agg.switches += o.switches;
                agg.resolved += o.resolved;
                agg.completed += o.completed;
            }
            let mean = |s: f64, n: u64| if n > 0 { s / n as f64 } else { 0.0 };
            cells.push(EnsembleCell {
                shape,
                plan,
                runs,
                completed: agg.completed,
                est_errs: (0..n_est)
                    .map(|i| mean(agg.est_sums[i], agg.est_ns[i]))
                    .collect(),
                ensemble_err: mean(agg.ens_sum, agg.ens_n),
                coverage: mean(agg.covered as f64, agg.scored),
                mean_width: mean(agg.width_sum, agg.width_n),
                switches: agg.switches,
                resolved: agg.resolved,
                scored: agg.scored,
            });
        }
    }
    Ok(EnsembleReport { names, cells })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_meets_acceptance_and_produces_samples() {
        let rep = run(3, 42, 2).unwrap();
        assert_eq!(rep.cells.len(), SHAPES.len() * PLANS.len());
        for c in &rep.cells {
            assert!(c.completed > 0, "{}/{}: nothing completed", c.shape, c.plan);
            assert!(c.scored > 0, "{}/{}: nothing scored", c.shape, c.plan);
            assert!(
                c.ensemble_err.is_finite() && c.est_errs.iter().all(|e| e.is_finite()),
                "{}/{}: non-finite errors",
                c.shape,
                c.plan
            );
            assert!(
                c.mean_width > 0.0,
                "{}/{}: bands collapsed to points",
                c.shape,
                c.plan
            );
        }
        rep.check_acceptance(0.10, 2)
            .unwrap_or_else(|e| panic!("acceptance failed: {e}"));
    }

    #[test]
    fn selector_actually_switches_under_faults() {
        let rep = run(3, 42, 2).unwrap();
        let switches: u64 = rep
            .cells
            .iter()
            .filter(|c| c.plan != "calm")
            .map(|c| c.switches)
            .sum();
        assert!(switches > 0, "no selector switches across any fault cell");
    }

    #[test]
    fn campaign_is_bit_identical_across_jobs() {
        let serial = run(2, 7, 1).unwrap();
        let parallel = run(2, 7, 4).unwrap();
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }
}
