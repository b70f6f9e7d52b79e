//! Victim selection for the speed-up problems (paper §3.1–3.2).

use mqpi_sim::system::SystemSnapshot;

/// One running query as workload management sees it.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct QueryLoad {
    /// Query id.
    pub id: u64,
    /// Remaining cost `c` in work units.
    pub remaining: f64,
    /// Work completed `e` in work units.
    pub done: f64,
    /// Scheduling weight `w`.
    pub weight: f64,
}

impl QueryLoad {
    /// Extract the running, unblocked queries from a snapshot.
    pub fn from_snapshot(snap: &SystemSnapshot) -> Vec<QueryLoad> {
        snap.running
            .iter()
            .filter(|q| !q.blocked)
            .map(|q| QueryLoad {
                id: q.id,
                remaining: q.remaining,
                done: q.done,
                weight: q.weight,
            })
            .collect()
    }
}

/// A chosen victim and the predicted benefit of blocking it.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct VictimChoice {
    /// The victim query id.
    pub victim: u64,
    /// Predicted reduction of the objective, in seconds.
    pub benefit_seconds: f64,
}

/// §3.1 — single-query speed-up: choose the victim whose blocking shortens
/// the **target** query's remaining time the most.
///
/// With queries sorted by `d = c/w` ascending and the target at position
/// `i`, blocking a victim at position `m` shortens the target by:
///
/// * `T_m = w_m · d_i / C` for `m > i` (the victim outlives the target:
///   condition C1 — pick the heaviest resource consumer);
/// * `T_m = c_m / C` for `m < i` (everything the victim would have done
///   before the target finishes is saved: condition C2 — pick the largest
///   remaining cost).
///
/// `O(n log n)` from the sort; the scan is linear.
///
/// ```
/// use mqpi_wlm::{best_single_victim, QueryLoad};
///
/// let q = |id, remaining| QueryLoad { id, remaining, done: 0.0, weight: 1.0 };
/// // Blocking the almost-finished query (id 2) would save nearly nothing;
/// // the algorithm picks the long-running one instead.
/// let queries = [q(1, 1000.0), q(2, 5.0), q(3, 2000.0)];
/// let choice = best_single_victim(&queries, 1, 100.0).unwrap();
/// assert_eq!(choice.victim, 3);
/// // Benefit = c_target / C: the victim outlives the target, so the whole
/// // fair-share slowdown it caused disappears.
/// assert!((choice.benefit_seconds - 10.0).abs() < 1e-9);
/// ```
pub fn best_single_victim(queries: &[QueryLoad], target: u64, rate: f64) -> Option<VictimChoice> {
    mqpi_sim::domain::rate(rate).expect("rate must be positive and finite");
    let n = queries.len();
    if n < 2 {
        return None;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        (queries[a].remaining / queries[a].weight)
            .total_cmp(&(queries[b].remaining / queries[b].weight))
    });
    let ti = order.iter().position(|&k| queries[k].id == target)?;
    let target_q = &queries[order[ti]];
    let d_i = target_q.remaining / target_q.weight;

    let mut best: Option<VictimChoice> = None;
    let mut consider = |id: u64, benefit: f64| {
        if best.map(|b| benefit > b.benefit_seconds).unwrap_or(true) {
            best = Some(VictimChoice {
                victim: id,
                benefit_seconds: benefit,
            });
        }
    };
    // S2: victims that outlive the target.
    for &k in &order[ti + 1..] {
        consider(queries[k].id, queries[k].weight * d_i / rate);
    }
    // S1: victims that would finish before the target.
    for &k in &order[..ti] {
        consider(queries[k].id, queries[k].remaining / rate);
    }
    best
}

/// §3.1 general case — greedily choose `h` victims. Benefits of blocking
/// multiple victims are additive (paper's observation), so the greedy
/// repeats single-victim selection on the shrinking set.
pub fn best_single_victims(
    queries: &[QueryLoad],
    target: u64,
    rate: f64,
    h: usize,
) -> Vec<VictimChoice> {
    let mut pool: Vec<QueryLoad> = queries.to_vec();
    let mut out = Vec::new();
    for _ in 0..h {
        let Some(choice) = best_single_victim(&pool, target, rate) else {
            break;
        };
        pool.retain(|q| q.id != choice.victim);
        out.push(choice);
    }
    out
}

/// §3.1 equal-priority special case in `O(n)`: any query that outlives the
/// target is optimal; if the target finishes last, the victim is the query
/// with the largest remaining cost.
pub fn best_single_victim_equal_priority(
    queries: &[QueryLoad],
    target: u64,
    rate: f64,
) -> Option<VictimChoice> {
    let c_target = queries.iter().find(|q| q.id == target)?.remaining;
    let mut largest_other: Option<&QueryLoad> = None;
    for q in queries.iter().filter(|q| q.id != target) {
        // Any query with remaining ≥ target's outlives it — immediately
        // optimal with benefit c_target/C (= w·d_i/C with w=1).
        if q.remaining >= c_target {
            return Some(VictimChoice {
                victim: q.id,
                benefit_seconds: c_target / rate,
            });
        }
        if largest_other
            .map(|b| q.remaining > b.remaining)
            .unwrap_or(true)
        {
            largest_other = Some(q);
        }
    }
    largest_other.map(|q| VictimChoice {
        victim: q.id,
        benefit_seconds: q.remaining / rate,
    })
}

/// §3.2 — multiple-query speed-up: choose the victim whose blocking most
/// improves the **total response time of all other queries**.
///
/// With queries sorted by `d` ascending, blocking position `m` improves the
/// total by `R_m = (w_m / C) · Σ_{j≤m} (n−j)(d_j − d_{j−1})`; the prefix sum
/// makes the scan linear after the `O(n log n)` sort.
pub fn best_multi_victim(queries: &[QueryLoad], rate: f64) -> Option<VictimChoice> {
    mqpi_sim::domain::rate(rate).expect("rate must be positive and finite");
    let n = queries.len();
    if n < 2 {
        return None;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        (queries[a].remaining / queries[a].weight)
            .total_cmp(&(queries[b].remaining / queries[b].weight))
    });
    let mut best: Option<VictimChoice> = None;
    let mut prefix = 0.0; // Σ_{j≤m} (n−j)(d_j − d_{j−1})
    let mut d_prev = 0.0;
    for (pos, &k) in order.iter().enumerate() {
        let q = &queries[k];
        let d = q.remaining / q.weight;
        // stage index j = pos+1 (1-based); n−j queries benefit per stage.
        prefix += (n - (pos + 1)) as f64 * (d - d_prev);
        d_prev = d;
        let r_m = q.weight * prefix / rate;
        if best.map(|b| r_m > b.benefit_seconds).unwrap_or(true) {
            best = Some(VictimChoice {
                victim: q.id,
                benefit_seconds: r_m,
            });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqpi_core::fluid::{standard_remaining_times, FluidQuery};
    use mqpi_sim::rng::Rng;

    fn q(id: u64, remaining: f64, weight: f64) -> QueryLoad {
        QueryLoad {
            id,
            remaining,
            done: 0.0,
            weight,
        }
    }

    /// Ground truth: target's remaining time via the fluid model.
    fn fluid_target_remaining(queries: &[QueryLoad], target: u64, rate: f64) -> f64 {
        let fqs: Vec<FluidQuery> = queries
            .iter()
            .map(|x| FluidQuery {
                id: x.id,
                cost: x.remaining,
                weight: x.weight,
            })
            .collect();
        let times = standard_remaining_times(&fqs, rate);
        let idx = queries.iter().position(|x| x.id == target).unwrap();
        times[idx]
    }

    /// Ground truth: benefit of blocking `victim` for `target`.
    fn fluid_benefit(queries: &[QueryLoad], target: u64, victim: u64, rate: f64) -> f64 {
        let before = fluid_target_remaining(queries, target, rate);
        let without: Vec<QueryLoad> = queries.iter().filter(|x| x.id != victim).cloned().collect();
        let after = fluid_target_remaining(&without, target, rate);
        before - after
    }

    #[test]
    fn analytic_benefit_matches_fluid_model() {
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..200 {
            let n = 2 + (rng.below(8) as usize);
            let queries: Vec<QueryLoad> = (0..n)
                .map(|i| {
                    q(
                        i as u64,
                        rng.range_f64(10.0, 2000.0),
                        [0.5, 1.0, 2.0, 4.0][rng.below(4) as usize],
                    )
                })
                .collect();
            let target = rng.below(n as u64);
            let rate = 100.0;
            // Every candidate's analytic benefit must match the fluid model.
            for v in &queries {
                if v.id == target {
                    continue;
                }
                let single = best_single_victim(
                    &queries
                        .iter()
                        .filter(|x| x.id == target || x.id == v.id)
                        .cloned()
                        .collect::<Vec<_>>(),
                    target,
                    rate,
                )
                .unwrap();
                // On the 2-query subproblem the chosen victim must be v and
                // its benefit must match fluid recomputation on the subset.
                assert_eq!(single.victim, v.id);
                let sub: Vec<QueryLoad> = queries
                    .iter()
                    .filter(|x| x.id == target || x.id == v.id)
                    .cloned()
                    .collect();
                let truth = fluid_benefit(&sub, target, v.id, rate);
                assert!(
                    (single.benefit_seconds - truth).abs() < 1e-6,
                    "benefit {} vs fluid {}",
                    single.benefit_seconds,
                    truth
                );
            }
        }
    }

    #[test]
    fn chosen_victim_is_argmax_of_fluid_benefits() {
        let mut rng = Rng::seed_from_u64(12);
        for _ in 0..100 {
            let n = 3 + (rng.below(7) as usize);
            let queries: Vec<QueryLoad> = (0..n)
                .map(|i| {
                    q(
                        i as u64,
                        rng.range_f64(10.0, 2000.0),
                        [0.5, 1.0, 2.0][rng.below(3) as usize],
                    )
                })
                .collect();
            let target = rng.below(n as u64);
            let rate = 60.0;
            let choice = best_single_victim(&queries, target, rate).unwrap();
            let best_truth = queries
                .iter()
                .filter(|v| v.id != target)
                .map(|v| fluid_benefit(&queries, target, v.id, rate))
                .fold(f64::NEG_INFINITY, f64::max);
            let chosen_truth = fluid_benefit(&queries, target, choice.victim, rate);
            assert!(
                chosen_truth >= best_truth - 1e-6,
                "chosen victim benefit {chosen_truth} < optimum {best_truth}"
            );
            assert!(
                (choice.benefit_seconds - chosen_truth).abs() < 1e-6,
                "analytic {} vs fluid {}",
                choice.benefit_seconds,
                chosen_truth
            );
        }
    }

    #[test]
    fn paper_intuition_victim_about_to_finish_is_bad() {
        // Big victim vs tiny victim with the same weight: blocking the
        // almost-finished query saves almost nothing.
        let queries = [q(1, 1000.0, 1.0), q(2, 5.0, 1.0), q(3, 2000.0, 1.0)];
        let choice = best_single_victim(&queries, 1, 100.0).unwrap();
        assert_eq!(choice.victim, 3);
    }

    #[test]
    fn equal_priority_special_case_matches_general() {
        let mut rng = Rng::seed_from_u64(13);
        for _ in 0..100 {
            let n = 2 + (rng.below(8) as usize);
            let queries: Vec<QueryLoad> = (0..n)
                .map(|i| q(i as u64, rng.range_f64(1.0, 500.0), 1.0))
                .collect();
            let target = rng.below(n as u64);
            let g = best_single_victim(&queries, target, 50.0).unwrap();
            let s = best_single_victim_equal_priority(&queries, target, 50.0).unwrap();
            assert!(
                (g.benefit_seconds - s.benefit_seconds).abs() < 1e-9,
                "general {} vs special {}",
                g.benefit_seconds,
                s.benefit_seconds
            );
        }
    }

    #[test]
    fn greedy_h_victims_are_distinct_and_ordered() {
        let queries = [
            q(1, 100.0, 1.0),
            q(2, 400.0, 1.0),
            q(3, 900.0, 1.0),
            q(4, 1600.0, 1.0),
        ];
        let vs = best_single_victims(&queries, 1, 100.0, 3);
        assert_eq!(vs.len(), 3);
        let ids: Vec<u64> = vs.iter().map(|v| v.victim).collect();
        let mut dedup = ids.clone();
        dedup.dedup();
        assert_eq!(ids.len(), dedup.len());
        assert!(!ids.contains(&1));
        // Greedy benefits are non-increasing.
        assert!(vs
            .windows(2)
            .all(|w| w[0].benefit_seconds >= w[1].benefit_seconds - 1e-9));
    }

    /// Ground truth for §3.2: sum of others' completion times via fluid.
    fn fluid_total_response(queries: &[QueryLoad], exclude: u64, rate: f64) -> f64 {
        let kept: Vec<FluidQuery> = queries
            .iter()
            .filter(|x| x.id != exclude)
            .map(|x| FluidQuery {
                id: x.id,
                cost: x.remaining,
                weight: x.weight,
            })
            .collect();
        standard_remaining_times(&kept, rate).iter().sum()
    }

    #[test]
    fn multi_victim_matches_fluid_argmax() {
        let mut rng = Rng::seed_from_u64(14);
        for _ in 0..100 {
            let n = 3 + (rng.below(7) as usize);
            let queries: Vec<QueryLoad> = (0..n)
                .map(|i| {
                    q(
                        i as u64,
                        rng.range_f64(10.0, 1500.0),
                        [0.5, 1.0, 2.0][rng.below(3) as usize],
                    )
                })
                .collect();
            let rate = 80.0;
            let choice = best_multi_victim(&queries, rate).unwrap();
            // Baseline: everyone's total response time with no one blocked,
            // counting only the n−1 queries that survive in each scenario.
            let mut best_improvement = f64::NEG_INFINITY;
            let mut best_id = 0;
            for v in &queries {
                let fqs: Vec<FluidQuery> = queries
                    .iter()
                    .map(|x| FluidQuery {
                        id: x.id,
                        cost: x.remaining,
                        weight: x.weight,
                    })
                    .collect();
                let all_times = standard_remaining_times(&fqs, rate);
                let others_before: f64 = queries
                    .iter()
                    .zip(&all_times)
                    .filter(|(x, _)| x.id != v.id)
                    .map(|(_, t)| *t)
                    .sum();
                let others_after = fluid_total_response(&queries, v.id, rate);
                let imp = others_before - others_after;
                if imp > best_improvement {
                    best_improvement = imp;
                    best_id = v.id;
                }
                if v.id == choice.victim {
                    assert!(
                        (choice.benefit_seconds - imp).abs() < 1e-6,
                        "analytic {} vs fluid {}",
                        choice.benefit_seconds,
                        imp
                    );
                }
            }
            let chosen_imp = {
                let fqs: Vec<FluidQuery> = queries
                    .iter()
                    .map(|x| FluidQuery {
                        id: x.id,
                        cost: x.remaining,
                        weight: x.weight,
                    })
                    .collect();
                let all_times = standard_remaining_times(&fqs, rate);
                let before: f64 = queries
                    .iter()
                    .zip(&all_times)
                    .filter(|(x, _)| x.id != choice.victim)
                    .map(|(_, t)| *t)
                    .sum();
                before - fluid_total_response(&queries, choice.victim, rate)
            };
            assert!(
                chosen_imp >= best_improvement - 1e-6,
                "victim {} improvement {chosen_imp} < best {best_improvement} ({best_id})",
                choice.victim
            );
        }
    }

    #[test]
    fn observed_variants_emit_decisions() {
        let obs = mqpi_obs::Obs::enabled();
        let queries = [q(1, 1000.0, 1.0), q(2, 5.0, 1.0), q(3, 2000.0, 1.0)];
        let choice = best_single_victim(&queries, 1, 100.0).unwrap();
        assert_eq!(choice.victim, 3);
        crate::record_decision(&obs, 7.0, "speedup_victim", Some(choice.victim));
        let multi = best_multi_victim(&queries, 100.0).unwrap();
        crate::record_decision(&obs, 8.0, "multi_victim", Some(multi.victim));
        // No decision on a too-small set still records the (absent) outcome.
        let none = best_single_victim(&queries[..1], 1, 100.0);
        assert!(none.is_none());
        crate::record_decision(&obs, 9.0, "speedup_victim", none.map(|c| c.victim));
        assert_eq!(obs.counter("wlm.decisions"), 3);
        let trace = obs.render_trace();
        assert_eq!(
            trace,
            format!(
                "t=7 wlm action=speedup_victim id=3\n\
                 t=8 wlm action=multi_victim id={}\n\
                 t=9 wlm action=speedup_victim id=-\n",
                multi.victim
            )
        );
        // A disabled handle records nothing.
        let off = mqpi_obs::Obs::disabled();
        crate::record_decision(&off, 0.0, "speedup_victim", Some(3));
        assert_eq!(off.events_len(), 0);
        assert_eq!(off.counter("wlm.decisions"), 0);
    }

    #[test]
    fn too_few_queries_yield_none() {
        assert!(best_single_victim(&[q(1, 10.0, 1.0)], 1, 10.0).is_none());
        assert!(best_multi_victim(&[q(1, 10.0, 1.0)], 10.0).is_none());
        assert!(best_single_victim(&[], 1, 10.0).is_none());
    }
}
