//! Figure 11 — the scheduled-maintenance experiment (§5.3, Case 2).
//!
//! A warmed-up ten-slot system is inspected at a random time `rt`;
//! maintenance is scheduled `t` seconds later. Four strategies are
//! compared by their normalized unfinished work `UW/TW`:
//!
//! * **No PI** — let everything run; abort stragglers at the deadline;
//! * **Single-query PI** — abort what the `c/s` estimates say cannot
//!   finish (over-aborts, §5.3);
//! * **Multi-query PI** — the §3.3 greedy knapsack on fluid-model
//!   quiescent time;
//! * **Theoretical limit** — the exact optimum computed from oracle
//!   (run-to-completion) costs.
//!
//! Scenario rebuilds are deterministic given the seed, so each strategy is
//! evaluated on an *identical* system state — the simulation equivalent of
//! the paper re-running the same workload.

use mqpi_engine::error::Result;
use mqpi_sim::idmap::IdMap;
use mqpi_sim::system::{QueryId, System};
use mqpi_sim::FinishKind;
use mqpi_wlm::{decide_aborts, optimal_abort_set, LostWorkCase, MaintenanceMethod, QueryLoad};
use mqpi_workload::{maintenance_scenario, TpcrDb};

/// `UW/TW` of the four strategies at one `t/t_finish` point.
#[derive(Debug, Clone, Copy)]
pub struct MaintenancePoint {
    /// Deadline as a fraction of `t_finish`.
    pub t_frac: f64,
    /// No-PI method.
    pub no_pi: f64,
    /// Single-query PI method.
    pub single_pi: f64,
    /// Multi-query PI method.
    pub multi_pi: f64,
    /// Theoretical limit (oracle optimum).
    pub oracle: f64,
}

/// Ground truth about one warmed-up scenario, from a run-to-completion
/// baseline.
struct Baseline {
    /// ids of the ten queries running at `rt`.
    ids: Vec<QueryId>,
    /// `rt` itself.
    rt: f64,
    /// Time for all ten to finish with no interference.
    t_finish: f64,
    /// Work done by `rt` per query.
    done_at_rt: IdMap<f64>,
    /// Actual remaining cost at `rt` per query.
    remaining: IdMap<f64>,
    /// Actual total cost per query (`done + remaining`).
    total: IdMap<f64>,
}

fn build_scenario(db: &TpcrDb, zipf_a: f64, seed: u64, rate: f64) -> Result<System> {
    maintenance_scenario(db, zipf_a, seed, rate, 20)
}

fn baseline(db: &TpcrDb, zipf_a: f64, seed: u64, rate: f64) -> Result<Baseline> {
    let mut sys = build_scenario(db, zipf_a, seed, rate)?;
    let rt = sys.now();
    let snap = sys.snapshot();
    let ids: Vec<QueryId> = snap.running.iter().map(|q| q.id).collect();
    let done_at_rt: IdMap<f64> = snap.running.iter().map(|q| (q.id, q.done)).collect();
    // Let the ten run to completion with no interference (the warm-up loop
    // stopped resubmitting, and nothing is scheduled).
    sys.run_until_idle(rt + 1e7)?;
    let mut remaining = IdMap::default();
    let mut total = IdMap::default();
    let mut t_finish: f64 = 0.0;
    for id in &ids {
        let rec = sys
            .finished_record(*id)
            .expect("baseline runs everything to completion");
        debug_assert_eq!(rec.kind, FinishKind::Completed);
        let done0 = done_at_rt[id];
        remaining.insert(*id, rec.units_done - done0);
        total.insert(*id, rec.units_done);
        t_finish = t_finish.max(rec.finished - rt);
    }
    Ok(Baseline {
        ids,
        rt,
        t_finish,
        done_at_rt,
        remaining,
        total,
    })
}

/// Evaluate one method on a fresh rebuild of the scenario. Returns UW/TW.
#[allow(clippy::too_many_arguments)]
fn evaluate_method(
    db: &TpcrDb,
    zipf_a: f64,
    seed: u64,
    rate: f64,
    base: &Baseline,
    method: MaintenanceMethod,
    deadline: f64,
) -> Result<f64> {
    let mut sys = build_scenario(db, zipf_a, seed, rate)?;
    debug_assert!(
        (sys.now() - base.rt).abs() < 1e-6,
        "rebuild must be identical"
    );
    let snap = sys.snapshot();
    let aborts = decide_aborts(method, &snap, deadline, LostWorkCase::TotalCost);
    let mut aborted: Vec<QueryId> = Vec::new();
    for id in aborts {
        sys.abort(id)?;
        aborted.push(id);
    }
    sys.run_until(base.rt + deadline)?;
    // Deadline: abort whatever of the ten is still running.
    for id in sys.running_ids() {
        if base.ids.contains(&id) {
            sys.abort(id)?;
            aborted.push(id);
        }
    }
    let tw: f64 = base.ids.iter().map(|id| base.total[id]).sum();
    let uw: f64 = aborted.iter().map(|id| base.total[id]).sum();
    Ok(uw / tw)
}

/// Oracle: exact optimum from run-to-completion costs (UW/TW).
fn oracle_point(base: &Baseline, rate: f64, deadline: f64) -> f64 {
    let loads: Vec<QueryLoad> = base
        .ids
        .iter()
        .map(|id| QueryLoad {
            id: *id,
            remaining: base.remaining[id],
            done: base.done_at_rt[id],
            weight: 1.0,
        })
        .collect();
    let plan = optimal_abort_set(&loads, rate, deadline, LostWorkCase::TotalCost);
    let tw: f64 = base.ids.iter().map(|id| base.total[id]).sum();
    plan.lost_work / tw
}

/// All four strategies evaluated at every deadline fraction for one seed.
fn one_run(
    db: &TpcrDb,
    zipf_a: f64,
    seed: u64,
    rate: f64,
    t_fracs: &[f64],
) -> Result<Vec<[f64; 4]>> {
    let base = baseline(db, zipf_a, seed, rate)?;
    let mut out = Vec::with_capacity(t_fracs.len());
    for frac in t_fracs {
        let deadline = frac * base.t_finish;
        out.push([
            evaluate_method(
                db,
                zipf_a,
                seed,
                rate,
                &base,
                MaintenanceMethod::NoPi,
                deadline,
            )?,
            evaluate_method(
                db,
                zipf_a,
                seed,
                rate,
                &base,
                MaintenanceMethod::SinglePi,
                deadline,
            )?,
            evaluate_method(
                db,
                zipf_a,
                seed,
                rate,
                &base,
                MaintenanceMethod::MultiPi,
                deadline,
            )?,
            oracle_point(&base, rate, deadline),
        ]);
    }
    Ok(out)
}

/// Run the Fig. 11 experiment: average UW/TW per strategy over `runs`
/// scenarios, for each deadline fraction in `t_fracs`. `jobs` is the
/// worker-thread count (1 = serial; same output either way).
pub fn run(
    db: &TpcrDb,
    t_fracs: &[f64],
    runs: usize,
    seed0: u64,
    rate: f64,
    jobs: usize,
) -> Result<Vec<MaintenancePoint>> {
    let zipf_a = 2.2;
    // Each scenario (seed = seed0 + r) is independent; the per-run matrices
    // are summed in run order afterwards, so parallel output is
    // bit-identical to the serial loop.
    let results = crate::parallel::run_indexed(jobs, runs, |r| {
        one_run(db, zipf_a, seed0 + r as u64, rate, t_fracs)
    });
    let mut acc: Vec<[f64; 4]> = vec![[0.0; 4]; t_fracs.len()];
    for res in results {
        for (i, a) in res?.into_iter().enumerate() {
            for (slot, v) in acc[i].iter_mut().zip(a) {
                *slot += v;
            }
        }
    }
    Ok(t_fracs
        .iter()
        .zip(acc)
        .map(|(frac, a)| MaintenancePoint {
            t_frac: *frac,
            no_pi: a[0] / runs as f64,
            single_pi: a[1] / runs as f64,
            multi_pi: a[2] / runs as f64,
            oracle: a[3] / runs as f64,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db;

    #[test]
    fn multi_pi_has_least_unfinished_work_on_average() {
        let pts = run(db::small(), &[0.4, 0.8], 3, 500, 70.0, 2).unwrap();
        for p in &pts {
            // Multi-PI should beat (or tie) both baselines and stay close
            // to the oracle; allow small slack for estimate noise.
            assert!(
                p.multi_pi <= p.no_pi + 0.05,
                "t={}: multi {} vs no-PI {}",
                p.t_frac,
                p.multi_pi,
                p.no_pi
            );
            assert!(
                p.multi_pi <= p.single_pi + 0.05,
                "t={}: multi {} vs single {}",
                p.t_frac,
                p.multi_pi,
                p.single_pi
            );
            assert!(p.oracle <= p.multi_pi + 1e-9, "oracle is a lower bound");
        }
    }

    #[test]
    fn generous_deadline_leaves_no_unfinished_work_for_multi_pi() {
        let pts = run(db::small(), &[1.0], 2, 900, 70.0, 1).unwrap();
        let p = &pts[0];
        assert!(p.multi_pi < 0.15, "multi at t=t_finish: {}", p.multi_pi);
        assert!(p.no_pi < 0.15, "no-PI at t=t_finish: {}", p.no_pi);
        assert_eq!(p.oracle, 0.0);
    }
}
