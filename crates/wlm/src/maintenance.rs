//! Scheduled-maintenance abort planning (paper §3.3).
//!
//! At decision time the system runs `n` queries; maintenance starts `t`
//! seconds later. Aborting query `i` shortens the *system quiescent time*
//! (when all kept queries are done) by `V_i = c_i / C` and loses `e_i`
//! (Case 1: completed work) or `e_i + c_i` (Case 2: total cost — the query
//! must be rerun). Choosing the abort set is a knapsack; the paper uses a
//! greedy by ascending `e_i / V_i`, and compares against the exact optimum
//! computed from oracle information ("theoretical limitation", Fig. 11).

use crate::speedup::QueryLoad;

/// How lost work is counted (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum LostWorkCase {
    /// Case 1: lost work = completed work `e_i` of aborted queries.
    CompletedWork,
    /// Case 2: lost work = total cost `e_i + c_i` of aborted queries
    /// (aborted queries must be rerun later).
    TotalCost,
}

impl LostWorkCase {
    /// The loss incurred by aborting `q`.
    pub fn loss(&self, q: &QueryLoad) -> f64 {
        match self {
            LostWorkCase::CompletedWork => q.done,
            LostWorkCase::TotalCost => q.done + q.remaining,
        }
    }
}

/// A maintenance abort plan.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AbortPlan {
    /// Ids to abort now, in abort order.
    pub abort: Vec<u64>,
    /// Predicted quiescent time (seconds from now) after the aborts.
    pub quiescent_after: f64,
    /// Total lost work of the plan, in work units.
    pub lost_work: f64,
}

/// Predicted quiescent time with no aborts: `Σ c_i / C`.
pub fn quiescent_time(queries: &[QueryLoad], rate: f64) -> f64 {
    queries.iter().map(|q| q.remaining).sum::<f64>() / rate
}

/// §3.3 greedy: abort queries in ascending `loss_i / V_i` order until the
/// predicted quiescent time is within the deadline.
pub fn greedy_abort_plan(
    queries: &[QueryLoad],
    rate: f64,
    deadline: f64,
    case: LostWorkCase,
) -> AbortPlan {
    greedy_abort_plan_with_overhead(queries, rate, deadline, case, |_| 0.0)
}

/// Greedy abort planning with non-negligible abort overhead (the paper's
/// §3.3 future-work case): rolling back query `i` costs `overhead(i)` work
/// units that the system must still execute before it quiesces. Aborting
/// `i` therefore saves `V_i = (c_i − o_i)/C`, and queries with `o_i ≥ c_i`
/// are never worth aborting.
pub fn greedy_abort_plan_with_overhead(
    queries: &[QueryLoad],
    rate: f64,
    deadline: f64,
    case: LostWorkCase,
    overhead: impl Fn(&QueryLoad) -> f64,
) -> AbortPlan {
    mqpi_sim::domain::rate(rate).expect("rate must be positive and finite");
    let mut order: Vec<(&QueryLoad, f64)> = queries
        .iter()
        .map(|q| (q, overhead(q).max(0.0)))
        // Only queries whose abort actually saves time are candidates.
        .filter(|(q, o)| q.remaining > *o)
        .collect();
    // Ascending loss per unit of saved time; V_i ∝ (c_i − o_i).
    order.sort_by(|(a, oa), (b, ob)| {
        let ra = case.loss(a) / (a.remaining - oa).max(1e-12);
        let rb = case.loss(b) / (b.remaining - ob).max(1e-12);
        ra.total_cmp(&rb)
    });
    let mut quiescent = quiescent_time(queries, rate);
    let mut abort = Vec::new();
    let mut lost = 0.0;
    for (q, o) in order {
        if quiescent <= deadline {
            break;
        }
        quiescent -= (q.remaining - o) / rate;
        lost += case.loss(q);
        abort.push(q.id);
    }
    AbortPlan {
        abort,
        quiescent_after: quiescent,
        lost_work: lost,
    }
}

/// Exact optimum by exhaustive subset search (feasible for the paper's
/// `n = 10`; panics above 25 queries). Minimizes lost work subject to the
/// kept queries finishing by the deadline. This is the paper's "theoretical
/// limitation" when fed oracle (run-to-completion) costs.
pub fn optimal_abort_set(
    queries: &[QueryLoad],
    rate: f64,
    deadline: f64,
    case: LostWorkCase,
) -> AbortPlan {
    mqpi_sim::domain::rate(rate).expect("rate must be positive and finite");
    let n = queries.len();
    assert!(n <= 25, "exhaustive search is exponential; n = {n}");
    let budget = rate * deadline; // kept work must fit in this
    let mut best_lost = f64::INFINITY;
    let mut best_mask = 0u32;
    for mask in 0u32..(1u32 << n) {
        // mask bit set = abort.
        let mut kept_cost = 0.0;
        let mut lost = 0.0;
        for (i, q) in queries.iter().enumerate() {
            if mask & (1 << i) != 0 {
                lost += case.loss(q);
            } else {
                kept_cost += q.remaining;
            }
        }
        if kept_cost <= budget + 1e-9 && lost < best_lost {
            best_lost = lost;
            best_mask = mask;
        }
    }
    let abort: Vec<u64> = queries
        .iter()
        .enumerate()
        .filter(|(i, _)| best_mask & (1 << i) != 0)
        .map(|(_, q)| q.id)
        .collect();
    let kept_cost: f64 = queries
        .iter()
        .enumerate()
        .filter(|(i, _)| best_mask & (1 << i) == 0)
        .map(|(_, q)| q.remaining)
        .sum();
    AbortPlan {
        abort,
        quiescent_after: kept_cost / rate,
        lost_work: best_lost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqpi_sim::rng::Rng;

    fn q(id: u64, done: f64, remaining: f64) -> QueryLoad {
        QueryLoad {
            id,
            remaining,
            done,
            weight: 1.0,
        }
    }

    #[test]
    fn no_aborts_needed_when_deadline_is_generous() {
        let qs = [q(1, 10.0, 100.0), q(2, 5.0, 50.0)];
        let plan = greedy_abort_plan(&qs, 10.0, 100.0, LostWorkCase::CompletedWork);
        assert!(plan.abort.is_empty());
        assert_eq!(plan.lost_work, 0.0);
        assert!((plan.quiescent_after - 15.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_prefers_cheap_loss_per_saved_second() {
        // Q1: lots done, little remaining (bad to abort). Q2: nothing done,
        // lots remaining (free to abort under Case 1).
        let qs = [q(1, 500.0, 50.0), q(2, 0.0, 500.0)];
        let plan = greedy_abort_plan(&qs, 10.0, 10.0, LostWorkCase::CompletedWork);
        assert_eq!(plan.abort, vec![2]);
        assert_eq!(plan.lost_work, 0.0);
        assert!((plan.quiescent_after - 5.0).abs() < 1e-9);
    }

    #[test]
    fn case2_counts_total_cost() {
        let qs = [q(1, 100.0, 100.0), q(2, 0.0, 300.0)];
        let plan = greedy_abort_plan(&qs, 10.0, 15.0, LostWorkCase::TotalCost);
        // Must get kept cost ≤ 150: abort Q2 (ratio (0+300)/300=1) vs Q1
        // (200/100=2): abort Q2 first.
        assert_eq!(plan.abort, vec![2]);
        assert!((plan.lost_work - 300.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_aborts_until_deadline_met() {
        let qs: Vec<QueryLoad> = (1..=5).map(|i| q(i, 0.0, 100.0)).collect();
        // Quiescent = 500/10 = 50s; deadline 25 ⇒ abort until ≤ 25 ⇒ 3 gone.
        let plan = greedy_abort_plan(&qs, 10.0, 25.0, LostWorkCase::CompletedWork);
        assert_eq!(plan.abort.len(), 3);
        assert!(plan.quiescent_after <= 25.0);
    }

    #[test]
    fn optimal_never_worse_than_greedy() {
        let mut rng = Rng::seed_from_u64(21);
        for case in [LostWorkCase::CompletedWork, LostWorkCase::TotalCost] {
            for _ in 0..200 {
                let n = 2 + rng.below(9) as usize;
                let qs: Vec<QueryLoad> = (0..n)
                    .map(|i| {
                        q(
                            i as u64,
                            rng.range_f64(0.0, 500.0),
                            rng.range_f64(1.0, 1000.0),
                        )
                    })
                    .collect();
                let rate = 60.0;
                let deadline = rng.range_f64(0.0, quiescent_time(&qs, rate));
                let g = greedy_abort_plan(&qs, rate, deadline, case);
                let o = optimal_abort_set(&qs, rate, deadline, case);
                assert!(g.quiescent_after <= deadline + 1e-9);
                assert!(o.quiescent_after <= deadline + 1e-9);
                assert!(
                    o.lost_work <= g.lost_work + 1e-9,
                    "optimal {} > greedy {}",
                    o.lost_work,
                    g.lost_work
                );
            }
        }
    }

    #[test]
    fn optimal_is_truly_optimal_on_a_known_instance() {
        // Greedy by ratio can be suboptimal: classic knapsack trap.
        let qs = [q(1, 10.0, 60.0), q(2, 12.0, 50.0), q(3, 30.0, 55.0)];
        // C = 1, deadline 60: keep ≤ 60 units.
        let o = optimal_abort_set(&qs, 1.0, 60.0, LostWorkCase::CompletedWork);
        // Keep Q1 (60) exactly; abort Q2+Q3 loses 42. Alternatives: keep Q2
        // (50) losing 40; keep Q3 losing 22 — optimal keeps Q3.
        assert_eq!(o.abort, vec![1, 2]);
        assert!((o.lost_work - 22.0).abs() < 1e-9);
    }

    #[test]
    fn observed_plan_emits_one_event_per_abort() {
        let obs = mqpi_obs::Obs::enabled();
        let qs: Vec<QueryLoad> = (1..=5).map(|i| q(i, 0.0, 100.0)).collect();
        let plan = greedy_abort_plan(&qs, 10.0, 25.0, LostWorkCase::CompletedWork);
        for &id in &plan.abort {
            crate::record_decision(&obs, 3.0, "maintenance_abort", Some(id));
        }
        assert_eq!(plan.abort.len(), 3);
        assert_eq!(obs.counter("wlm.decisions"), 3);
        let trace = obs.render_trace();
        assert_eq!(trace.lines().count(), 3);
        for (line, id) in trace.lines().zip(&plan.abort) {
            assert_eq!(line, format!("t=3 wlm action=maintenance_abort id={id}"));
        }
    }

    #[test]
    fn zero_deadline_aborts_everything_with_positive_cost() {
        let qs = [q(1, 5.0, 10.0), q(2, 3.0, 20.0)];
        let plan = greedy_abort_plan(&qs, 10.0, 0.0, LostWorkCase::CompletedWork);
        assert_eq!(plan.abort.len(), 2);
    }

    #[test]
    fn overhead_aware_plan_skips_expensive_rollbacks() {
        // Q1: 100 remaining but 90 rollback ⇒ aborting saves only 1s at a
        // loss of 10; Q2: 100 remaining, free rollback ⇒ saves 10s for the
        // same loss. The loss/savings ratio puts Q2 first.
        let qs = [q(1, 10.0, 100.0), q(2, 10.0, 100.0)];
        let plan =
            greedy_abort_plan_with_overhead(&qs, 10.0, 12.0, LostWorkCase::CompletedWork, |x| {
                if x.id == 1 {
                    90.0
                } else {
                    0.0
                }
            });
        assert_eq!(plan.abort, vec![2]);
        assert!((plan.quiescent_after - 10.0).abs() < 1e-9);
    }

    #[test]
    fn queries_with_rollback_exceeding_remaining_are_never_aborted() {
        let qs = [q(1, 0.0, 50.0)];
        let plan =
            greedy_abort_plan_with_overhead(&qs, 10.0, 0.0, LostWorkCase::CompletedWork, |_| 60.0);
        assert!(plan.abort.is_empty());
    }

    #[test]
    fn zero_overhead_matches_plain_greedy() {
        let qs: Vec<QueryLoad> = (1..=6)
            .map(|i| q(i, 10.0 * i as f64, 100.0 * (7 - i) as f64))
            .collect();
        let a = greedy_abort_plan(&qs, 20.0, 8.0, LostWorkCase::TotalCost);
        let b = greedy_abort_plan_with_overhead(&qs, 20.0, 8.0, LostWorkCase::TotalCost, |_| 0.0);
        assert_eq!(a, b);
    }
}
