//! ANALYZE-style table statistics.
//!
//! The planner's cost model consumes per-table row/page counts and per-column
//! statistics: null fraction, number-of-distinct-values (NDV), min/max, and
//! an equi-depth histogram over numeric columns.
//!
//! Statistics are computed from a **row sample** (like PostgreSQL's ANALYZE),
//! which deliberately introduces estimation error: the paper's experiments
//! depend on optimizer estimates being imprecise so that progress indicators
//! must refine their cost estimates online (§5.3 attributes residual PI error
//! to "the imprecise statistics collected by PostgreSQL").

use std::cmp::Ordering;

use crate::value::Value;

/// Number of histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Equi-depth histogram over the numeric values of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// `buckets + 1` ascending bucket bounds.
    bounds: Vec<f64>,
}

impl Histogram {
    /// Build an equi-depth histogram from (unsorted) numeric samples.
    /// Returns `None` when there are no samples.
    pub fn build(mut samples: Vec<f64>, buckets: usize) -> Option<Self> {
        if samples.is_empty() || buckets == 0 {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let mut bounds = Vec::with_capacity(buckets + 1);
        for b in 0..=buckets {
            let idx = (b * (n - 1)) / buckets;
            bounds.push(samples[idx]);
        }
        Some(Histogram { bounds })
    }

    /// The `buckets + 1` ascending bucket bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Estimated fraction of values `≤ v` (linear interpolation within the
    /// containing bucket).
    pub fn fraction_le(&self, v: f64) -> f64 {
        let b = &self.bounds;
        let nb = b.len() - 1; // bucket count
        if v < b[0] {
            return 0.0;
        }
        if v >= b[nb] {
            return 1.0;
        }
        // Find bucket containing v.
        let i = b.partition_point(|x| *x <= v).saturating_sub(1).min(nb - 1);
        let (lo, hi) = (b[i], b[i + 1]);
        let within = if hi > lo { (v - lo) / (hi - lo) } else { 1.0 };
        (i as f64 + within.clamp(0.0, 1.0)) / nb as f64
    }
}

/// Number of most-common values tracked per column.
pub const MCV_ENTRIES: usize = 8;

/// Statistics for one column.
#[derive(Debug, Clone, Default)]
pub struct ColumnStats {
    /// Fraction of NULLs among sampled rows.
    pub null_frac: f64,
    /// Estimated number of distinct values (scaled from the sample).
    pub ndv: f64,
    /// Minimum observed value.
    pub min: Option<Value>,
    /// Maximum observed value.
    pub max: Option<Value>,
    /// Equi-depth histogram over numeric values, if the column is numeric.
    pub histogram: Option<Histogram>,
    /// Most-common values with their sampled frequency fractions, most
    /// frequent first (PostgreSQL-style MCV list for skewed columns).
    pub mcv: Vec<(Value, f64)>,
}

impl ColumnStats {
    /// Selectivity of `col = const` (uniform over distinct values).
    pub fn eq_selectivity(&self) -> f64 {
        if self.ndv <= 0.0 {
            return 1.0;
        }
        ((1.0 - self.null_frac) / self.ndv).clamp(0.0, 1.0)
    }

    /// Value-aware selectivity of `col = v`: use the MCV list when the
    /// value is listed; otherwise spread the non-MCV mass over the
    /// remaining distinct values. Falls back to [`Self::eq_selectivity`]
    /// with no MCV data.
    pub fn eq_selectivity_for(&self, v: &Value) -> f64 {
        if self.mcv.is_empty() {
            return self.eq_selectivity();
        }
        if let Some((_, f)) = self.mcv.iter().find(|(m, _)| m.total_cmp(v).is_eq()) {
            return f.clamp(0.0, 1.0);
        }
        let mcv_mass: f64 = self.mcv.iter().map(|(_, f)| f).sum();
        let rest_ndv = (self.ndv - self.mcv.len() as f64).max(1.0);
        ((1.0 - self.null_frac - mcv_mass).max(0.0) / rest_ndv).clamp(0.0, 1.0)
    }

    /// Selectivity of `col ≤ v` (falls back to 1/3 without a histogram,
    /// mirroring textbook defaults).
    pub fn le_selectivity(&self, v: &Value) -> f64 {
        match (v.as_f64(), &self.histogram) {
            (Some(x), Some(h)) => (1.0 - self.null_frac) * h.fraction_le(x),
            _ => 1.0 / 3.0,
        }
    }
}

/// Statistics for one table.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    /// Exact row count at ANALYZE time.
    pub row_count: u64,
    /// Exact page count at ANALYZE time.
    pub page_count: u64,
    /// Per-column stats, aligned with the schema.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Compute statistics from a sample of rows.
    ///
    /// `rows` is the sampled subset; `total_rows`/`total_pages` are the true
    /// physical totals. NDV is estimated from the sample via the
    /// Charikar-style scale-up: `d + f1 * (N/n - 1)` where `d` is sample
    /// distincts and `f1` the number of values seen exactly once — imprecise
    /// by design on skewed data.
    pub fn from_sample(
        ncols: usize,
        rows: &[Vec<Value>],
        total_rows: u64,
        total_pages: u64,
    ) -> Self {
        let mut columns = Vec::with_capacity(ncols);
        let n = rows.len().max(1) as f64;
        // The column's non-NULL values, by reference, sorted so that each
        // value's occurrences form one run.
        let mut values: Vec<&Value> = Vec::with_capacity(rows.len());
        let mut runs: Vec<(u64, &Value)> = Vec::new();
        for c in 0..ncols {
            values.clear();
            let mut numeric_samples = Vec::new();
            let mut min: Option<&Value> = None;
            let mut max: Option<&Value> = None;
            for row in rows {
                let v = &row[c];
                if v.is_null() {
                    continue;
                }
                if let Some(x) = v.as_f64() {
                    numeric_samples.push(x);
                }
                values.push(v);
                if min.is_none_or(|m| v.total_cmp(m).is_lt()) {
                    min = Some(v);
                }
                if max.is_none_or(|m| v.total_cmp(m).is_gt()) {
                    max = Some(v);
                }
            }
            let nulls = rows.len() - values.len();
            // Stable: a run starts with the value's first `Int`
            // occurrence, else its first occurrence.
            values.sort_by(|a, b| sort_cmp(a, b));
            runs.clear();
            for v in &values {
                match runs.last_mut() {
                    Some((k, first)) if same_value(first, v) => *k += 1,
                    _ => runs.push((1, v)),
                }
            }
            let d = runs.len() as f64;
            let f1 = runs.iter().filter(|(k, _)| *k == 1).count() as f64;
            let scale = (total_rows as f64 / n).max(1.0);
            let ndv = (d + f1 * (scale - 1.0)).min(total_rows as f64).max(1.0);
            // MCV list: the most frequent sampled values, kept only when
            // they are genuinely common (seen more than once).
            runs.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.total_cmp(b.1)));
            let mcv: Vec<(Value, f64)> = runs
                .iter()
                .take(MCV_ENTRIES)
                .filter(|(k, _)| *k > 1)
                .map(|(k, v)| ((*v).clone(), *k as f64 / n))
                .collect();
            columns.push(ColumnStats {
                null_frac: nulls as f64 / n,
                ndv,
                min: min.cloned(),
                max: max.cloned(),
                histogram: Histogram::build(numeric_samples, HISTOGRAM_BUCKETS),
                mcv,
            });
        }
        TableStats {
            row_count: total_rows,
            page_count: total_pages,
            columns,
        }
    }
}

/// The order ANALYZE sorts a column's values in before it counts them:
/// [`Value::total_cmp`], except that every NaN sits after every other
/// number and an `Int` comes before a `Float` of the same number. So the
/// occurrences of one value (see [`same_value`]) are adjacent, the `Int`
/// ones first. Unlike `total_cmp` it is a total order even where an `i64`
/// has no exact `f64`.
fn sort_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            let canon = |v: &Value| {
                let x = v.as_f64().unwrap_or(f64::NAN);
                if x.is_nan() {
                    f64::NAN
                } else {
                    x
                }
            };
            canon(a)
                .total_cmp(&canon(b))
                .then_with(|| matches!(b, Value::Int(_)).cmp(&matches!(a, Value::Int(_))))
        }
        _ => a.total_cmp(b),
    }
}

/// Whether ANALYZE counts `a` and `b` as one value: equal under
/// [`Value::total_cmp`], as the index and `sql_cmp` key them (so `Int(3)`
/// and `Float(3.0)` are one value), or both NaN.
fn same_value(a: &Value, b: &Value) -> bool {
    let nan = |v: &Value| matches!(v, Value::Float(x) if x.is_nan());
    (nan(a) && nan(b)) || a.total_cmp(b).is_eq()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_uniform_interpolation() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = Histogram::build(samples, 10).unwrap();
        assert!((h.fraction_le(499.0) - 0.5).abs() < 0.02);
        assert_eq!(h.fraction_le(-1.0), 0.0);
        assert_eq!(h.fraction_le(2000.0), 1.0);
        assert!((h.fraction_le(750.0) - h.fraction_le(250.0) - 0.5).abs() < 0.03);
    }

    #[test]
    fn histogram_empty_and_constant() {
        assert!(Histogram::build(vec![], 8).is_none());
        let h = Histogram::build(vec![5.0; 100], 8).unwrap();
        assert_eq!(h.fraction_le(5.0), 1.0);
        assert_eq!(h.fraction_le(4.9), 0.0);
    }

    #[test]
    fn stats_from_full_scan_exact_ndv() {
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::Int(i % 10), Value::Float(i as f64)])
            .collect();
        let s = TableStats::from_sample(2, &rows, 100, 4);
        assert_eq!(s.row_count, 100);
        // Full sample: every value repeats, f1 = 0 ⇒ NDV exact.
        assert!((s.columns[0].ndv - 10.0).abs() < 1e-9);
        assert!((s.columns[0].eq_selectivity() - 0.1).abs() < 1e-9);
        assert_eq!(s.columns[0].min, Some(Value::Int(0)));
        assert_eq!(s.columns[0].max, Some(Value::Int(9)));
    }

    #[test]
    fn sampled_ndv_is_inexact_but_bounded() {
        // 10k rows with 100 distincts, sampled at 200 rows.
        let all: Vec<Vec<Value>> = (0..10_000).map(|i| vec![Value::Int(i % 100)]).collect();
        let sample: Vec<Vec<Value>> = all.iter().step_by(50).cloned().collect();
        let s = TableStats::from_sample(1, &sample, 10_000, 100);
        assert!(s.columns[0].ndv >= 1.0 && s.columns[0].ndv <= 10_000.0);
    }

    #[test]
    fn null_fraction_counted() {
        let rows = vec![
            vec![Value::Null],
            vec![Value::Int(1)],
            vec![Value::Null],
            vec![Value::Int(2)],
        ];
        let s = TableStats::from_sample(1, &rows, 4, 1);
        assert!((s.columns[0].null_frac - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mcv_captures_skew() {
        // 900 copies of value 1, ten each of 2..=11.
        let mut rows: Vec<Vec<Value>> = std::iter::repeat_n(vec![Value::Int(1)], 900).collect();
        for v in 2..=11 {
            rows.extend(std::iter::repeat_n(vec![Value::Int(v)], 10));
        }
        let s = TableStats::from_sample(1, &rows, 1000, 10);
        let cs = &s.columns[0];
        assert!(!cs.mcv.is_empty());
        assert_eq!(cs.mcv[0].0, Value::Int(1));
        assert!((cs.mcv[0].1 - 0.9).abs() < 1e-9);
        // Value-aware: the hot value is ~90%, a cold one far less.
        assert!((cs.eq_selectivity_for(&Value::Int(1)) - 0.9).abs() < 1e-9);
        let cold = cs.eq_selectivity_for(&Value::Int(999));
        assert!(cold < 0.05, "cold selectivity = {cold}");
        // Uniform estimate would be wildly wrong for the hot value.
        assert!(cs.eq_selectivity() < 0.2);
    }

    #[test]
    fn mcv_empty_for_all_unique_columns() {
        let rows: Vec<Vec<Value>> = (0..500).map(|i| vec![Value::Int(i)]).collect();
        let s = TableStats::from_sample(1, &rows, 500, 5);
        assert!(s.columns[0].mcv.is_empty());
        // Falls back to the uniform estimate.
        let sel = s.columns[0].eq_selectivity_for(&Value::Int(3));
        assert!((sel - s.columns[0].eq_selectivity()).abs() < 1e-12);
    }

    #[test]
    fn an_int_and_a_float_of_one_number_are_one_value() {
        // A Float column admits Ints: 3 is stored twice as each, 5 once.
        let rows: Vec<Vec<Value>> = [
            Value::Float(3.0),
            Value::Int(3),
            Value::Int(5),
            Value::Float(3.0),
            Value::Int(3),
        ]
        .into_iter()
        .map(|v| vec![v])
        .collect();
        let cs = &TableStats::from_sample(1, &rows, 5, 1).columns[0];
        assert_eq!(cs.ndv, 2.0);
        // One MCV entry with all of 3's mass, its `Int` representative first.
        assert_eq!(cs.mcv, vec![(Value::Int(3), 0.8)]);
        assert_eq!(cs.eq_selectivity_for(&Value::Float(3.0)), 0.8);
        assert_eq!(cs.eq_selectivity_for(&Value::Int(3)), 0.8);
        // Min and max are still the first occurrence of the extreme.
        assert_eq!(cs.min, Some(Value::Float(3.0)));
        assert_eq!(cs.max, Some(Value::Int(5)));
    }

    #[test]
    fn every_nan_is_one_value_and_signed_zeros_are_two() {
        let neg_nan = f64::from_bits(f64::NAN.to_bits() | 1 << 63);
        let rows: Vec<Vec<Value>> = [
            Value::Float(neg_nan),
            Value::Float(0.0),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Int(0),
        ]
        .into_iter()
        .map(|v| vec![v])
        .collect();
        let cs = &TableStats::from_sample(1, &rows, 5, 1).columns[0];
        // {NaN, -NaN}, {0.0, Int(0)} and {-0.0}.
        assert_eq!(cs.ndv, 3.0);
        assert_eq!(cs.mcv.len(), 2);
        // Equal counts: ordered by `total_cmp`, where -NaN is the least.
        let Value::Float(first) = cs.mcv[0].0 else {
            panic!("{:?}", cs.mcv)
        };
        assert_eq!(first.to_bits(), neg_nan.to_bits());
        assert_eq!(cs.mcv[1].0, Value::Int(0));
    }

    #[test]
    fn le_selectivity_uses_histogram() {
        let rows: Vec<Vec<Value>> = (0..300).map(|i| vec![Value::Float(i as f64)]).collect();
        let s = TableStats::from_sample(1, &rows, 300, 2);
        let sel = s.columns[0].le_selectivity(&Value::Float(150.0));
        assert!((sel - 0.5).abs() < 0.05, "sel = {sel}");
        // Non-numeric fallback.
        let srows = vec![vec![Value::str("a")], vec![Value::str("b")]];
        let st = TableStats::from_sample(1, &srows, 2, 1);
        assert!((st.columns[0].le_selectivity(&Value::str("a")) - 1.0 / 3.0).abs() < 1e-9);
    }
}
