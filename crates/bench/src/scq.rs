//! Figures 6–10 — the Stream Concurrent Query (SCQ) experiment (§5.2.3).
//!
//! Ten Zipf(2.2) queries run; new queries arrive as a Poisson(λ) stream.
//! At time 0 each estimator predicts every initial query's remaining time;
//! the run then plays out and relative errors are computed against the
//! actual finish times. Figs. 6/7 give the estimators the *true* λ;
//! Figs. 8/9 hand the multi-query PI a wrong λ′; Fig. 10 shows the
//! adaptive estimator correcting a wrong λ′ over one run.

use mqpi_core::adaptive::ArrivalRateEstimator;
use mqpi_core::multi::FutureWorkload;
use mqpi_core::{relative_error, EstimateSet, MultiQueryPi, SingleQueryPi, Visibility};
use mqpi_engine::error::Result;
use mqpi_sim::idmap::IdSet;
use mqpi_sim::system::QueryId;
use mqpi_workload::{average_query_cost, scq_scenario, ScqConfig, TpcrDb};

/// Aggregated relative errors for one (λ, λ′) configuration.
#[derive(Debug, Clone, Copy)]
pub struct ScqErrorPoint {
    /// True arrival rate λ.
    pub true_lambda: f64,
    /// λ used by the multi-query PI (equals `true_lambda` in Figs. 6/7).
    pub pi_lambda: f64,
    /// Relative error of the single-query estimate for the last-finishing
    /// query, averaged over runs (Fig. 6 / 8).
    pub last_single: f64,
    /// Same for the multi-query estimate.
    pub last_multi: f64,
    /// Average relative error over all ten queries (Fig. 7 / 9), single.
    pub avg_single: f64,
    /// Same for the multi-query estimate.
    pub avg_multi: f64,
}

/// Errors from one run.
struct RunErrors {
    single: Vec<f64>,
    multi: Vec<f64>,
    last_idx: usize,
}

fn one_run(db: &TpcrDb, cfg: ScqConfig, pi_lambda: f64) -> Result<RunErrors> {
    let (mut sys, initial) = scq_scenario(db, cfg)?;
    let avg_cost = match cfg.avg_cost {
        Some(c) => c,
        None => average_query_cost(db, cfg.zipf_a)?,
    };
    let single = SingleQueryPi::new();
    let multi = MultiQueryPi::new(if pi_lambda > 0.0 {
        Visibility::with_future(
            None,
            FutureWorkload {
                lambda: pi_lambda,
                avg_cost,
                avg_weight: 1.0,
            },
        )
    } else {
        Visibility::concurrent_only()
    });

    // One prediction pass per estimator covers all ten initial queries.
    let snap0 = sys.snapshot();
    let at0 = |set: EstimateSet| -> Vec<f64> {
        let est = |(id, _): &(QueryId, _)| set.get(*id).unwrap_or(f64::NAN);
        initial.iter().map(est).collect()
    };
    let (single0, multi0) = (at0(single.estimates(&snap0)), at0(multi.estimates(&snap0)));

    // Run until every initial query finished.
    let ids: Vec<QueryId> = initial.iter().map(|(id, _)| *id).collect();
    loop {
        sys.step()?;
        if ids.iter().all(|id| sys.finished_record(*id).is_some()) {
            break;
        }
        assert!(sys.has_work(), "initial queries must finish");
    }
    let actual: Vec<f64> = ids
        .iter()
        .map(|id| sys.finished_record(*id).unwrap().finished)
        .collect();
    let last_idx = actual
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .unwrap()
        .0;
    let errors = |est: Vec<f64>| -> Vec<f64> {
        let err = |(e, a): (f64, &f64)| relative_error(e, *a);
        est.into_iter().zip(&actual).map(err).collect()
    };
    Ok(RunErrors {
        single: errors(single0),
        multi: errors(multi0),
        last_idx,
    })
}

fn aggregate(
    db: &TpcrDb,
    true_lambda: f64,
    pi_lambda: f64,
    runs: usize,
    seed0: u64,
    rate: f64,
    jobs: usize,
) -> Result<ScqErrorPoint> {
    let base = ScqConfig {
        lambda: true_lambda,
        rate,
        ..Default::default()
    };
    // Hoisted out of `one_run`: c̄ depends only on the db and Zipf exponent.
    let base = ScqConfig {
        avg_cost: Some(average_query_cost(db, base.zipf_a)?),
        ..base
    };
    // Runs are independent (seed = seed0 + r) and fan out across workers;
    // accumulation happens afterwards in run order, so the sums — and with
    // them the output — are bit-identical to the serial loop.
    let results = crate::parallel::run_indexed(jobs, runs, |r| {
        let cfg = ScqConfig {
            seed: seed0 + r as u64,
            ..base
        };
        one_run(db, cfg, pi_lambda)
    });
    let (mut ls, mut lm, mut avs, mut avm) = (0.0, 0.0, 0.0, 0.0);
    for e in results {
        let e = e?;
        ls += e.single[e.last_idx];
        lm += e.multi[e.last_idx];
        avs += e.single.iter().sum::<f64>() / e.single.len() as f64;
        avm += e.multi.iter().sum::<f64>() / e.multi.len() as f64;
    }
    let n = runs as f64;
    Ok(ScqErrorPoint {
        true_lambda,
        pi_lambda,
        last_single: ls / n,
        last_multi: lm / n,
        avg_single: avs / n,
        avg_multi: avm / n,
    })
}

/// Figs. 6 & 7: sweep the true λ; the multi-query PI knows it exactly.
/// `jobs` is the worker-thread count (1 = serial; same output either way).
pub fn run_known_lambda(
    db: &TpcrDb,
    lambdas: &[f64],
    runs: usize,
    seed0: u64,
    rate: f64,
    jobs: usize,
) -> Result<Vec<ScqErrorPoint>> {
    lambdas
        .iter()
        .map(|l| aggregate(db, *l, *l, runs, seed0, rate, jobs))
        .collect()
}

/// Figs. 8 & 9: the true λ is fixed; the multi-query PI is handed λ′.
pub fn run_misestimated_lambda(
    db: &TpcrDb,
    true_lambda: f64,
    pi_lambdas: &[f64],
    runs: usize,
    seed0: u64,
    rate: f64,
    jobs: usize,
) -> Result<Vec<ScqErrorPoint>> {
    pi_lambdas
        .iter()
        .map(|lp| aggregate(db, true_lambda, *lp, runs, seed0, rate, jobs))
        .collect()
}

/// One sample of the Fig. 10 trace.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveSample {
    /// Virtual time.
    pub t: f64,
    /// Actual remaining time of the tracked (last-finishing) query.
    pub actual_remaining: f64,
    /// Multi-query estimate using the adaptively corrected λ.
    pub est_remaining: f64,
    /// The λ estimate in effect at this sample.
    pub lambda_est: f64,
}

/// Fig. 10: one run with a wrong prior λ′; the PI re-estimates λ from
/// observed arrivals (Gamma-Poisson blending) and its estimate for the
/// last-finishing query converges to the truth.
pub fn run_adaptive_trace(
    db: &TpcrDb,
    true_lambda: f64,
    lambda_prime: f64,
    seed: u64,
    rate: f64,
    sample_interval: f64,
) -> Result<Vec<AdaptiveSample>> {
    let cfg = ScqConfig {
        lambda: true_lambda,
        seed,
        rate,
        ..Default::default()
    };
    let (mut sys, initial) = scq_scenario(db, cfg)?;
    let avg_cost = average_query_cost(db, cfg.zipf_a)?;
    let single = SingleQueryPi::new();

    // Track the query with the largest remaining cost (the last finisher
    // with overwhelming probability).
    let snap0 = sys.snapshot();
    let target = snap0
        .running
        .iter()
        .max_by(|a, b| a.remaining.total_cmp(&b.remaining))
        .unwrap()
        .id;
    let _ = single;

    // Prior strength: one prior-period's worth of pseudo-observation, so
    // evidence overtakes the prior within a few inter-arrival times.
    let mut rate_est = ArrivalRateEstimator::new(lambda_prime, 120.0);
    let mut seen_ids: IdSet = initial.iter().map(|(id, _)| *id).collect();
    let mut last_obs_t = 0.0;

    let mut raw: Vec<(f64, f64, f64)> = Vec::new();
    let mut next_sample = 0.0;
    let finish_time;
    loop {
        if sys.now() >= next_sample {
            let snap = sys.snapshot();
            // Observe new arrivals since the last sample.
            let mut new = 0u64;
            for q in snap
                .running
                .iter()
                .map(|q| q.id)
                .chain(snap.queued.iter().map(|q| q.id))
            {
                if seen_ids.insert(q) {
                    new += 1;
                }
            }
            for f in sys.finished() {
                if seen_ids.insert(f.id) {
                    new += 1;
                }
            }
            rate_est.observe(snap.time - last_obs_t, new);
            last_obs_t = snap.time;
            let lam = rate_est.lambda();
            let pi = MultiQueryPi::new(if lam > 1e-9 {
                Visibility::with_future(
                    None,
                    FutureWorkload {
                        lambda: lam,
                        avg_cost,
                        avg_weight: 1.0,
                    },
                )
            } else {
                Visibility::concurrent_only()
            });
            if snap.running.iter().any(|r| r.id == target) {
                let est = pi.estimate(&snap, target).unwrap_or(f64::NAN);
                raw.push((snap.time, est, lam));
            }
            next_sample += sample_interval;
        }
        let done = sys.step()?;
        if done.contains(&target) {
            finish_time = sys.now();
            break;
        }
        assert!(sys.has_work(), "target must finish");
    }
    Ok(raw
        .into_iter()
        .map(|(t, est, lam)| AdaptiveSample {
            t,
            actual_remaining: (finish_time - t).max(0.0),
            est_remaining: est,
            lambda_est: lam,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db;

    /// Figs. 6–7 as a predicate, on the sweep `experiments fig6 fig7
    /// --small` prints (same database, rate, λ grid, 50 runs from seed 1),
    /// for both the last-finishing query and the ten-query average:
    ///
    /// * the single-query error falls at every step from λ = 0 to 0.15;
    /// * the multi-query error rises at every step from λ = 0 to 0.10;
    /// * below the stability boundary λ* = C / c̄ (0.097 here) the
    ///   multi-query error is at most half the single-query one (the
    ///   campaign reads 0.29 and 0.37 at λ = 0.08);
    /// * from 1.5 λ* on (λ = 0.15, 0.20) the two are within 0.05 of each
    ///   other (the campaign reads at most 0.029).
    ///
    /// About 10 s in a debug build, 1 s in release.
    #[test]
    fn multi_beats_single_at_moderate_lambda() {
        let lambdas = [0.0, 0.02, 0.04, 0.06, 0.08, 0.1, 0.15, 0.2];
        let tpcr = db::small();
        let pts = run_known_lambda(tpcr, &lambdas, 50, 1, db::RATE, 2).unwrap();
        let zipf_a = ScqConfig::default().zipf_a;
        let boundary = db::RATE / average_query_cost(tpcr, zipf_a).unwrap();
        assert!((0.08..0.1).contains(&boundary), "λ* = {boundary}");
        let errs = |f: fn(&ScqErrorPoint) -> (f64, f64)| -> Vec<(f64, f64, f64)> {
            pts.iter()
                .map(|p| (p.true_lambda, f(p).0, f(p).1))
                .collect()
        };
        let fig6 = errs(|p| (p.last_single, p.last_multi));
        let fig7 = errs(|p| (p.avg_single, p.avg_multi));
        for (fig, errs) in [("fig6", fig6), ("fig7", fig7)] {
            for w in errs.windows(2) {
                let [(_, s0, m0), (l, s1, m1)] = [w[0], w[1]];
                assert!(l > 0.15 || s1 < s0, "{fig} λ={l}: single {s1} after {s0}");
                assert!(l > 0.1 || m1 > m0, "{fig} λ={l}: multi {m1} after {m0}");
            }
            for (l, single, multi) in errs {
                if l < boundary {
                    assert!(
                        multi <= 0.5 * single,
                        "{fig} λ={l}: multi {multi} vs single {single}"
                    );
                } else if l >= 1.5 * boundary {
                    assert!(
                        (single - multi).abs() <= 0.05,
                        "{fig} λ={l}: multi {multi} vs single {single}"
                    );
                }
            }
        }
    }

    #[test]
    fn adaptive_trace_converges() {
        let s = run_adaptive_trace(db::small(), 0.03, 0.05, 5, 70.0, 10.0).unwrap();
        assert!(s.len() >= 4, "too few samples: {}", s.len());
        let first_err = relative_error(s[0].est_remaining, s[0].actual_remaining);
        // Near the end, error should be small (paper: "the closer to query
        // completion time, the more precise").
        let tail = &s[s.len().saturating_sub(3)..];
        let tail_err: f64 = tail
            .iter()
            .map(|x| relative_error(x.est_remaining, x.actual_remaining.max(1.0)))
            .sum::<f64>()
            / tail.len() as f64;
        assert!(
            tail_err < first_err.max(0.3) + 0.1,
            "tail error {tail_err} vs first {first_err}"
        );
    }
}
