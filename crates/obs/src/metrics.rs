//! A deterministic metrics registry.
//!
//! Counters, gauges, and fixed-bucket histograms keyed by `&'static str`
//! names. Determinism rules:
//!
//! * no wall clock anywhere — histograms observe work units or virtual
//!   seconds, never durations measured by the OS;
//! * no global mutable state — one registry per run (it lives inside the
//!   run's [`Obs`](crate::Obs) handle), so fanning runs out across worker
//!   threads cannot interleave updates;
//! * exports iterate `BTreeMap`s, so JSON/CSV output is byte-identical for
//!   identical update sequences regardless of insertion order.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Fixed bucket boundaries for work-unit-sized observations (a query's
/// total work, a span's units). Upper-inclusive; values beyond the last
/// bound land in the overflow bucket.
pub static UNIT_BUCKETS: &[f64] = &[
    1.0, 10.0, 100.0, 500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0, 100_000.0,
];

/// Fixed bucket boundaries for virtual-second observations (latencies,
/// waits, remaining-time estimates).
pub static SECOND_BUCKETS: &[f64] = &[0.1, 1.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 1_000.0];

/// Fixed bucket boundaries for relative-error observations (an estimate's
/// `|est − actual| / actual` as a fraction; the ensemble caps samples at
/// 100, i.e. 10 000 %).
pub static ERROR_BUCKETS: &[f64] = &[0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0];

/// A fixed-bucket histogram. Buckets are set at first observation and are
/// part of the metric's identity; observing the same name with different
/// bounds is a programming error (debug-asserted).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper-inclusive bucket bounds.
    pub bounds: &'static [f64],
    /// One count per bound, plus a trailing overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Number of observations.
    pub n: u64,
}

impl Histogram {
    fn new(bounds: &'static [f64]) -> Self {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            n: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        let i = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[i] += 1;
        self.sum += v;
        self.n += 1;
    }
}

/// The registry: three flat, name-keyed metric families.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to the counter `name` (created at zero on first touch).
    pub fn counter_add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &'static str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &'static str, v: f64) {
        self.gauges.insert(name, v);
    }

    /// Observe `v` into histogram `name` with the given fixed bounds.
    pub fn histogram_observe(&mut self, name: &'static str, bounds: &'static [f64], v: f64) {
        let h = self
            .histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(bounds));
        debug_assert!(
            std::ptr::eq(h.bounds, bounds),
            "histogram {name} re-registered with different bounds"
        );
        h.observe(v);
    }

    /// The histogram `name`, if it has observations.
    pub fn histogram(&self, name: &'static str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Render as pretty-printed JSON (hand-rolled: the workspace's serde is
    /// a no-op stand-in). Keys are sorted; floats use the shortest
    /// round-trip form, so the output is deterministic.
    pub fn to_json(&self) -> String {
        // Closes an object opened with `{`: `{}` when empty, else a
        // newline-indented brace.
        fn close(out: &mut String, empty: bool, trailing_comma: bool) {
            if !empty {
                out.push_str("\n  ");
            }
            out.push('}');
            if trailing_comma {
                out.push(',');
            }
            out.push('\n');
        }
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{k}\": {v}");
        }
        close(&mut out, first, true);
        out.push_str("  \"gauges\": {");
        first = true;
        for (k, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{k}\": {}", json_f64(*v));
        }
        close(&mut out, first, true);
        out.push_str("  \"histograms\": {");
        first = true;
        for (k, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let bounds: Vec<String> = h.bounds.iter().map(|b| json_f64(*b)).collect();
            let counts: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
            let _ = write!(
                out,
                "\n    \"{k}\": {{\"bounds\": [{}], \"counts\": [{}], \"sum\": {}, \"n\": {}}}",
                bounds.join(", "),
                counts.join(", "),
                json_f64(h.sum),
                h.n
            );
        }
        close(&mut out, first, false);
        out.push_str("}\n");
        out
    }

    /// Render as CSV with one row per metric:
    /// `family,name,value,detail` (histogram detail packs
    /// `bound:count` pairs separated by `;`, overflow bound is `inf`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("family,name,value,detail\n");
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter,{k},{v},");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "gauge,{k},{v},");
        }
        for (k, h) in &self.histograms {
            let detail: Vec<String> = h
                .bounds
                .iter()
                .map(|b| b.to_string())
                .chain(std::iter::once("inf".to_string()))
                .zip(&h.counts)
                .map(|(b, c)| format!("{b}:{c}"))
                .collect();
            let _ = writeln!(out, "histogram,{k},{},{}", h.n, detail.join(";"));
        }
        out
    }
}

/// JSON-safe float rendering: shortest round-trip, with `.0` forced onto
/// integral values so the token is unambiguously a number with a fraction
/// (matching what serde_json emits for f64).
fn json_f64(v: f64) -> String {
    let s = v.to_string();
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let mut m = MetricsRegistry::new();
        m.counter_add("a.count", 2);
        m.counter_add("a.count", 3);
        m.gauge_set("b.gauge", 1.5);
        assert_eq!(m.counter("a.count"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert!(m.to_csv().contains("\ngauge,b.gauge,1.5,\n"));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut m = MetricsRegistry::new();
        for v in [0.5, 1.0, 50.0, 1e9] {
            m.histogram_observe("h", UNIT_BUCKETS, v);
        }
        let h = m.histogram("h").unwrap();
        assert_eq!(h.n, 4);
        assert_eq!(h.counts[0], 2); // 0.5 and 1.0 both ≤ 1.0
        assert_eq!(*h.counts.last().unwrap(), 1); // 1e9 overflows
        assert_eq!(h.sum, 0.5 + 1.0 + 50.0 + 1e9);
    }

    #[test]
    fn exports_are_deterministic_and_sorted() {
        let build = |order_flip: bool| {
            let mut m = MetricsRegistry::new();
            if order_flip {
                m.gauge_set("z", 2.0);
                m.counter_add("b", 1);
                m.counter_add("a", 1);
            } else {
                m.counter_add("a", 1);
                m.counter_add("b", 1);
                m.gauge_set("z", 2.0);
            }
            m.histogram_observe("h", SECOND_BUCKETS, 3.0);
            m
        };
        assert_eq!(build(false).to_json(), build(true).to_json());
        assert_eq!(build(false).to_csv(), build(true).to_csv());
        let json = build(false).to_json();
        assert!(json.contains("\"a\": 1"));
        assert!(json.contains("\"z\": 2.0"));
        let csv = build(false).to_csv();
        assert!(csv.starts_with("family,name,value,detail\n"));
        assert!(csv.contains("histogram,h,1,"));
    }
}
