//! Ablation studies beyond the paper's figures: quantify how the
//! multi-query PI degrades when each of the §2.1 assumptions is violated
//! (§4 argues it stays useful), and how far the discrete scheduler strays
//! from the fluid ideal.

use mqpi_core::{relative_error, MultiQueryPi, SingleQueryPi, Visibility};
use mqpi_engine::error::Result;
use mqpi_sim::idmap::IdMap;
use mqpi_sim::job::SyntheticJob;
use mqpi_sim::rng::{Rng, Zipf};
use mqpi_sim::system::{RateModel, System, SystemConfig};
use mqpi_workload::{mcq_scenario, McqConfig, TpcrDb};

/// One row of the Assumption-1 ablation.
#[derive(Debug, Clone, Copy)]
pub struct Assumption1Point {
    /// Contention factor α (0 = Assumption 1 holds).
    pub alpha: f64,
    /// Average relative error of the single-query PI.
    pub single_err: f64,
    /// Average relative error of the multi-query PI.
    pub multi_err: f64,
}

/// Assumption 1 ablation: run the MCQ scenario on a system whose aggregate
/// rate *degrades* with concurrency while both PIs keep assuming a constant
/// `C`. (§4.1: this "will hurt the accuracy of the multi-query PI, \[but\] it
/// is still likely to be superior to that of a single-query PI".)
pub fn assumption1(
    db: &TpcrDb,
    alphas: &[f64],
    runs: usize,
    seed0: u64,
    rate: f64,
    jobs: usize,
) -> Result<Vec<Assumption1Point>> {
    let mut out = Vec::new();
    for &alpha in alphas {
        // Fan runs out; each returns its per-query error pairs, which are
        // folded afterwards in run order — same sums as the serial loop.
        let per_run = crate::parallel::run_indexed(jobs, runs, |r| -> Result<Vec<(f64, f64)>> {
            let rate_model = if alpha > 0.0 {
                RateModel::Contention { alpha }
            } else {
                RateModel::Constant
            };
            let (mut sys, _ids) = mcq_scenario(
                db,
                McqConfig {
                    n: 10,
                    zipf_a: 1.2,
                    seed: seed0 + r as u64,
                    rate,
                    rate_model,
                },
            )?;
            let snap0 = sys.snapshot();
            let single = SingleQueryPi::new();
            let multi = MultiQueryPi::new(Visibility::concurrent_only());
            // One prediction pass per estimator covers all ten queries.
            let single_set = single.estimates(&snap0);
            let multi_set = multi.estimates(&snap0);
            let est: Vec<(u64, f64, f64)> = snap0
                .running
                .iter()
                .map(|q| {
                    (
                        q.id,
                        single_set.get(q.id).unwrap_or(f64::NAN),
                        multi_set.get(q.id).unwrap_or(f64::NAN),
                    )
                })
                .collect();
            sys.run_until_idle(1e9)?;
            est.into_iter()
                .map(|(id, s, m)| {
                    let actual = sys.finished_record(id).expect("finished").finished;
                    Ok((relative_error(s, actual), relative_error(m, actual)))
                })
                .collect()
        });
        let (mut se, mut me, mut n) = (0.0, 0.0, 0u32);
        for res in per_run {
            for (s, m) in res? {
                se += s;
                me += m;
                n += 1;
            }
        }
        out.push(Assumption1Point {
            alpha,
            single_err: se / n as f64,
            multi_err: me / n as f64,
        });
    }
    Ok(out)
}

/// One row of the Assumption-2 ablation.
#[derive(Debug, Clone, Copy)]
pub struct Assumption2Point {
    /// Reported-cost scale (1.0 = perfect knowledge).
    pub scale: f64,
    /// Average relative error of the single-query PI.
    pub single_err: f64,
    /// Average relative error of the multi-query PI.
    pub multi_err: f64,
}

/// Assumption 2 ablation: synthetic jobs whose *reported* remaining costs
/// are `scale ×` the truth. Both PIs consume the same wrong numbers.
pub fn assumption2(
    scales: &[f64],
    runs: usize,
    seed0: u64,
    rate: f64,
    jobs: usize,
) -> Result<Vec<Assumption2Point>> {
    let zipf = Zipf::new(50, 1.2);
    let mut out = Vec::new();
    for &scale in scales {
        let zipf = &zipf;
        let per_run = crate::parallel::run_indexed(jobs, runs, |r| -> Result<Vec<(f64, f64)>> {
            let mut rng = Rng::seed_from_u64(seed0 + r as u64);
            let mut sys = System::new(SystemConfig {
                rate,
                ..Default::default()
            });
            let ids: Vec<u64> = (0..10)
                .map(|i| {
                    let total = 300 * zipf.sample(&mut rng) as u64 + 100;
                    sys.submit(
                        format!("q{i}"),
                        Box::new(SyntheticJob::with_report_scale(total, scale)),
                        1.0,
                    )
                })
                .collect();
            // Warm the speed monitors briefly so the single PI has data.
            sys.run_until(5.0)?;
            let snap = sys.snapshot();
            let t0 = snap.time;
            let single = SingleQueryPi::new();
            let multi = MultiQueryPi::new(Visibility::concurrent_only());
            // One prediction pass per estimator covers all ten queries.
            let single_set = single.estimates(&snap);
            let multi_set = multi.estimates(&snap);
            let est: Vec<(u64, f64, f64)> = ids
                .iter()
                .filter(|id| snap.running.iter().any(|q| q.id == **id))
                .map(|id| {
                    (
                        *id,
                        single_set.get(*id).unwrap_or(f64::NAN),
                        multi_set.get(*id).unwrap_or(f64::NAN),
                    )
                })
                .collect();
            sys.run_until_idle(1e9)?;
            Ok(est
                .into_iter()
                .filter_map(|(id, s, m)| {
                    let actual = sys.finished_record(id).expect("finished").finished - t0;
                    if actual <= 0.0 {
                        return None;
                    }
                    Some((relative_error(s, actual), relative_error(m, actual)))
                })
                .collect())
        });
        let (mut se, mut me, mut n) = (0.0, 0.0, 0u32);
        for res in per_run {
            for (s, m) in res? {
                se += s;
                me += m;
                n += 1;
            }
        }
        out.push(Assumption2Point {
            scale,
            single_err: se / n as f64,
            multi_err: me / n as f64,
        });
    }
    Ok(out)
}

/// One row of the quantum-sensitivity study.
#[derive(Debug, Clone, Copy)]
pub struct QuantumPoint {
    /// Quantum size in work units.
    pub quantum: f64,
    /// Maximum |scheduler finish − fluid finish| across ten queries, in
    /// seconds.
    pub max_divergence: f64,
}

/// How far the discrete quantum scheduler strays from the GPS fluid ideal
/// as the quantum grows (validates using the fluid model as the PI's
/// prediction of the scheduler).
pub fn quantum_sensitivity(quanta: &[f64], rate: f64, seed: u64) -> Result<Vec<QuantumPoint>> {
    use mqpi_core::fluid::{standard_remaining_times, FluidQuery};
    let mut rng = Rng::seed_from_u64(seed);
    let costs: Vec<u64> = (0..10).map(|_| 500 + rng.below(5000)).collect();
    let fluid: Vec<f64> = standard_remaining_times(
        &costs
            .iter()
            .enumerate()
            .map(|(i, c)| FluidQuery {
                id: i as u64,
                cost: *c as f64,
                weight: 1.0,
            })
            .collect::<Vec<_>>(),
        rate,
    );
    let mut out = Vec::new();
    for &quantum in quanta {
        let mut sys = System::new(SystemConfig {
            rate,
            quantum_units: quantum,
            ..Default::default()
        });
        let ids: Vec<u64> = costs
            .iter()
            .map(|c| sys.submit("q", Box::new(SyntheticJob::new(*c)), 1.0))
            .collect();
        sys.run_until_idle(1e9)?;
        let max_div = ids
            .iter()
            .zip(&fluid)
            .map(|(id, f)| (sys.finished_record(*id).unwrap().finished - f).abs())
            .fold(0.0, f64::max);
        out.push(QuantumPoint {
            quantum,
            max_divergence: max_div,
        });
    }
    Ok(out)
}

/// One row of the abort-overhead study.
#[derive(Debug, Clone, Copy)]
pub struct OverheadPoint {
    /// Fixed rollback cost per aborted query, in work units.
    pub overhead_units: f64,
    /// Mean UW/TW of the overhead-*oblivious* planner (paper's §3.3 greedy).
    pub oblivious_uw: f64,
    /// Mean UW/TW of the overhead-*aware* planner.
    pub aware_uw: f64,
    /// Fraction of runs where the oblivious plan missed the deadline.
    pub oblivious_late: f64,
    /// Fraction of runs where the aware plan missed the deadline.
    pub aware_late: f64,
}

/// The §3.3 future-work study: every abort costs a fixed `overhead` of
/// rollback work (undo processing, lock cleanup) that still occupies the
/// system. The overhead-oblivious planner overestimates the time an abort
/// frees (`c_i/C` instead of `(c_i − o)/C`), so with expensive rollbacks it
/// aborts wastefully — sometimes queries whose abort saves nothing — and
/// misses deadlines; the aware planner only aborts where `c_i > o`.
pub fn abort_overhead(
    db: &TpcrDb,
    overheads: &[f64],
    runs: usize,
    seed0: u64,
    rate: f64,
    jobs: usize,
) -> Result<Vec<OverheadPoint>> {
    use mqpi_sim::FinishKind;
    use mqpi_wlm::{greedy_abort_plan_with_overhead, LostWorkCase, QueryLoad};
    use mqpi_workload::maintenance_scenario;

    let mut out = Vec::new();
    for &overhead_units in overheads {
        // Per-run contributions [uw_obl, uw_aware, late_obl, late_aware],
        // summed in run order afterwards.
        let per_run = crate::parallel::run_indexed(jobs, runs, |r| -> Result<[f64; 4]> {
            let mut acc = [0.0f64; 4];
            let seed = seed0 + r as u64;
            // Baseline for totals and t_finish.
            let mut base = maintenance_scenario(db, 2.2, seed, rate, 20)?;
            let rt = base.now();
            let snap = base.snapshot();
            let ids: Vec<u64> = snap.running.iter().map(|q| q.id).collect();
            base.run_until_idle(rt + 1e7)?;
            let total: IdMap<f64> = ids
                .iter()
                .map(|id| (*id, base.finished_record(*id).unwrap().units_done))
                .collect();
            let t_finish = ids
                .iter()
                .map(|id| base.finished_record(*id).unwrap().finished - rt)
                .fold(0.0, f64::max);
            let deadline = 0.35 * t_finish;
            let tw: f64 = total.values().sum();

            for (aware, slot) in [(false, 0usize), (true, 1usize)] {
                let mut sys = maintenance_scenario(db, 2.2, seed, rate, 20)?;
                let snap = sys.snapshot();
                let loads = QueryLoad::from_snapshot(&snap);
                let plan = if aware {
                    greedy_abort_plan_with_overhead(
                        &loads,
                        rate,
                        deadline,
                        LostWorkCase::TotalCost,
                        |_| overhead_units,
                    )
                } else {
                    greedy_abort_plan_with_overhead(
                        &loads,
                        rate,
                        deadline,
                        LostWorkCase::TotalCost,
                        |_| 0.0,
                    )
                };
                let mut aborted: Vec<u64> = Vec::new();
                for id in &plan.abort {
                    sys.abort_with_overhead(*id, overhead_units.round() as u64)?;
                    aborted.push(*id);
                }
                sys.run_until(rt + deadline)?;
                // Late = any of the ten still doing work (incl. rollback).
                let late = sys.running_ids().iter().any(|id| ids.contains(id));
                for id in sys.running_ids() {
                    if ids.contains(&id) {
                        sys.abort(id)?;
                        aborted.push(id);
                    }
                }
                // Rolled-back queries also count as unfinished work.
                for f in sys.finished() {
                    if f.kind == FinishKind::Aborted
                        && !aborted.contains(&f.id)
                        && ids.contains(&f.id)
                    {
                        aborted.push(f.id);
                    }
                }
                aborted.sort();
                aborted.dedup();
                let uw: f64 = aborted
                    .iter()
                    .filter(|id| ids.contains(id))
                    .map(|id| total[id])
                    .sum();
                acc[slot] += uw / tw;
                acc[2 + slot] += f64::from(late);
            }
            Ok(acc)
        });
        let mut acc = [0.0f64; 4];
        for res in per_run {
            for (slot, v) in acc.iter_mut().zip(res?) {
                *slot += v;
            }
        }
        let n = runs as f64;
        out.push(OverheadPoint {
            overhead_units,
            oblivious_uw: acc[0] / n,
            aware_uw: acc[1] / n,
            oblivious_late: acc[2] / n,
            aware_late: acc[3] / n,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db;

    #[test]
    fn assumption1_multi_still_beats_single_under_contention() {
        let pts = assumption1(db::small(), &[0.0, 0.1], 3, 300, 70.0, 2).unwrap();
        for p in &pts {
            assert!(
                p.multi_err < p.single_err,
                "α={}: multi {} vs single {}",
                p.alpha,
                p.multi_err,
                p.single_err
            );
        }
        // Violating the assumption must cost the multi PI accuracy.
        assert!(pts[1].multi_err > pts[0].multi_err);
    }

    #[test]
    fn assumption2_exact_costs_give_near_zero_multi_error() {
        let pts = assumption2(&[1.0, 2.0], 5, 400, 100.0, 2).unwrap();
        assert!(pts[0].multi_err < 0.05, "exact costs: {}", pts[0].multi_err);
        assert!(pts[1].multi_err > pts[0].multi_err);
        // Even with 2× mis-reported costs, multi ≤ single (both consume the
        // same wrong costs, but multi models the load correctly).
        assert!(pts[1].multi_err <= pts[1].single_err + 1e-9);
    }

    #[test]
    fn overhead_aware_planner_misses_fewer_deadlines() {
        let pts = abort_overhead(db::small(), &[0.0, 800.0], 4, 800, 70.0, 2).unwrap();
        // With zero overhead the two planners coincide.
        assert!((pts[0].oblivious_uw - pts[0].aware_uw).abs() < 1e-9);
        assert_eq!(pts[0].oblivious_late, pts[0].aware_late);
        // With expensive rollbacks the aware planner should miss deadlines
        // no more often than the oblivious one.
        assert!(pts[1].aware_late <= pts[1].oblivious_late + 1e-9);
    }

    #[test]
    fn quantum_divergence_grows_with_quantum() {
        let pts = quantum_sensitivity(&[1.0, 64.0], 100.0, 5).unwrap();
        assert!(pts[0].max_divergence <= pts[1].max_divergence + 1e-9);
        assert!(pts[0].max_divergence < 1.0, "tiny quantum ≈ fluid");
    }
}
