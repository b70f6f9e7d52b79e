//! Estimate types and error metrics.

use crate::fluid::FluidPrediction;
use crate::id_index::IdIndex;
use crate::sanitize::sanitize_seconds;

/// One batch of per-query estimates from a single prediction pass, indexed
/// by query id. Driver loops fetch this once per tick and look queries up
/// in O(1), instead of re-running the predictor per query.
///
/// The estimates are kept in the order the estimator produced them
/// (completion order, for a fluid prediction) beside a position index by
/// id, the one a [`FluidPrediction`] already carries. Like a map filled in
/// that order, an id given twice keeps its last value, at its last
/// position.
#[derive(Debug, Clone, Default)]
pub struct EstimateSet {
    /// `(id, seconds)`, one entry per id.
    pairs: Vec<(u64, f64)>,
    index: IdIndex,
    truncated: bool,
    degraded: u32,
}

impl EstimateSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a set from raw estimator output. Every value passes through
    /// the sanitizer ([`crate::sanitize::sanitize_seconds`]): whatever the
    /// estimator math produced, callers only ever see finite, non-negative
    /// remaining times. [`EstimateSet::degraded`] counts the repairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u64, f64)>, truncated: bool) -> Self {
        let pairs: Vec<(u64, f64)> = pairs.into_iter().collect();
        let index = IdIndex::build(&pairs);
        Self::indexed(pairs, index, truncated)
    }

    /// [`EstimateSet::from_pairs`] over a prediction's finish times, in
    /// completion order, taking over the prediction's id index instead of
    /// building another.
    pub fn from_prediction(p: FluidPrediction) -> Self {
        let (pairs, index, truncated) = p.into_parts();
        Self::indexed(pairs, index, truncated)
    }

    fn indexed(mut pairs: Vec<(u64, f64)>, mut index: IdIndex, truncated: bool) -> Self {
        let mut degraded = 0;
        for (_, t) in &mut pairs {
            let (clean, was_degraded) = sanitize_seconds(*t);
            *t = clean;
            degraded += u32::from(was_degraded);
        }
        if index.ids() < pairs.len() {
            // An id given twice: keep only the entry the index points at.
            let mut at = 0;
            pairs.retain(|&(id, _)| {
                at += 1;
                index.get(id) == Some(at - 1)
            });
            index = IdIndex::build(&pairs);
        }
        Self {
            pairs,
            index,
            truncated,
            degraded,
        }
    }

    /// How many estimates the sanitizer had to repair (NaN, ∞, negative,
    /// or absurdly large raw values).
    pub fn degraded(&self) -> u32 {
        self.degraded
    }

    /// Remaining-seconds estimate for `id`, if the estimator produced one.
    pub fn get(&self, id: u64) -> Option<f64> {
        self.index.get(id).map(|p| self.pairs[p].1)
    }

    /// Number of distinct ids.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// True when the underlying prediction hit its virtual-arrival cap
    /// (predicted overload): estimates are then lower bounds.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Every `(id, seconds)` in the order the estimator produced them (an
    /// id given twice at its last position). The same on every run.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.pairs.iter().copied()
    }
}

/// Percentile band around a remaining-time estimate. The point estimate is
/// the band's p50; p10/p90 bound the plausible range given the chosen
/// estimator's recent residuals and the current rate uncertainty (Wu et
/// al., *Uncertainty Aware Query Execution Time Prediction*: estimates
/// should carry distributions, not points). Invariant: all three values
/// are finite, non-negative, and ordered `p10 ≤ p50 ≤ p90`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Band {
    /// Optimistic bound: 10 % of realized outcomes finish sooner.
    pub p10: f64,
    /// Median remaining-time estimate (the point estimate).
    pub p50: f64,
    /// Pessimistic bound: 90 % of realized outcomes finish sooner.
    pub p90: f64,
}

impl Band {
    /// Sanitize each percentile and restore ordering, whatever the raw
    /// inputs were. Callers only ever see finite, ordered bands.
    pub fn sanitized(p10: f64, p50: f64, p90: f64) -> Self {
        let p50 = sanitize_seconds(p50).0;
        let p10 = sanitize_seconds(p10).0.min(p50);
        let p90 = sanitize_seconds(p90).0.max(p50);
        Band { p10, p50, p90 }
    }

    /// Band width `p90 − p10` in seconds.
    pub fn width(&self) -> f64 {
        self.p90 - self.p10
    }
}

/// A remaining-time estimate with uncertainty: one query's [`Band`] plus
/// the estimator the ensemble selector chose to produce it.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BandedEstimate {
    /// Query id the estimate is for.
    pub id: u64,
    /// p10/p50/p90 remaining-time percentiles.
    pub band: Band,
    /// Name of the estimator that produced the point estimate.
    pub chosen: &'static str,
}

/// The paper's relative-error metric (§5.2.3):
/// `|t_est − t_actual| / t_actual × 100%` — returned as a fraction
/// (0.25 = 25%).
pub fn relative_error(estimated: f64, actual: f64) -> f64 {
    if actual == 0.0 {
        return if estimated == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (estimated - actual).abs() / actual
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basic() {
        assert_eq!(relative_error(150.0, 100.0), 0.5);
        assert_eq!(relative_error(50.0, 100.0), 0.5);
        assert_eq!(relative_error(100.0, 100.0), 0.0);
    }

    #[test]
    fn relative_error_zero_actual() {
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert!(relative_error(1.0, 0.0).is_infinite());
    }

    #[test]
    fn from_pairs_sanitizes_and_counts_degradations() {
        let set = EstimateSet::from_pairs(
            [(1, 10.0), (2, f64::NAN), (3, -4.0), (4, f64::INFINITY)],
            false,
        );
        assert_eq!(set.degraded(), 3);
        assert_eq!(set.get(1), Some(10.0));
        assert_eq!(set.get(3), Some(0.0));
        for (_, t) in set.iter() {
            assert!(t.is_finite() && t >= 0.0);
        }
    }

    #[test]
    fn a_duplicate_id_keeps_its_last_value_and_counts_once() {
        let set = EstimateSet::from_pairs(
            [(1, 1.0), (2, 2.0), (1, f64::NAN), (3, 3.0), (1, 4.0)],
            false,
        );
        assert_eq!(set.len(), 3);
        assert_eq!(set.get(1), Some(4.0));
        assert_eq!(set.get(2), Some(2.0));
        // Every value is sanitized, the superseded NaN included.
        assert_eq!(set.degraded(), 1);
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            [(2, 2.0), (3, 3.0), (1, 4.0)]
        );
    }

    #[test]
    fn sparse_ids_take_the_sorted_index() {
        let pairs = [(u64::MAX, 1.0), (0, 2.0), (1 << 40, 3.0), (0, 5.0)];
        let set = EstimateSet::from_pairs(pairs, true);
        assert!(matches!(set.index, IdIndex::Sorted(_)));
        assert!(set.truncated());
        assert_eq!(set.len(), 3);
        assert_eq!(set.get(0), Some(5.0));
        assert_eq!(set.get(u64::MAX), Some(1.0));
        assert_eq!(set.get(1 << 40), Some(3.0));
        assert_eq!(set.get(1), None);
        assert_eq!(set.get(u64::MAX - 1), None);
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            [(u64::MAX, 1.0), (1 << 40, 3.0), (0, 5.0)]
        );

        let dense = EstimateSet::from_pairs((10..20).map(|id| (id, id as f64)), false);
        assert!(matches!(dense.index, IdIndex::Dense { .. }));
        assert_eq!(dense.get(9), None);
        assert_eq!(dense.get(19), Some(19.0));
        assert!(EstimateSet::new().is_empty());
        assert_eq!(EstimateSet::new().get(0), None);
    }

    #[test]
    fn iter_follows_the_prediction_order() {
        let finish = vec![(7, 0.5), (3, 1.0), (9, 1.0), (4, 2.5)];
        let p = FluidPrediction::new(finish.clone(), false);
        let set = EstimateSet::from_prediction(p);
        assert_eq!(set.iter().collect::<Vec<_>>(), finish);
        let ids: Vec<u64> = set.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, [7, 3, 9, 4]);
        let again = EstimateSet::from_pairs(finish.iter().copied(), false);
        assert_eq!(again.iter().collect::<Vec<_>>(), finish);
        assert_eq!(again.get(9), set.get(9));
    }
}
