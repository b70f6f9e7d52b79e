//! Profiling hooks: scoped span counters measured in work units.
//!
//! A [`Span`](crate::Span) wraps a named region (`core.predict`,
//! `sim.step`, an executor operator) and records, into the owning
//! [`Obs`](crate::Obs) handle's profile table, how many times the region ran
//! and how many *meter work units* (never wall-clock time — that would break
//! determinism) it consumed. Aggregated stats are exported alongside the
//! metrics registry.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate statistics for one named span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    /// Times the span was entered.
    pub calls: u64,
    /// Work units attributed to the span across all calls.
    pub units: f64,
}

/// The per-run profile table, keyed by static span names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    spans: BTreeMap<&'static str, SpanStat>,
}

impl Profile {
    /// Record one completed span.
    pub fn record(&mut self, name: &'static str, units: f64) {
        let s = self.spans.entry(name).or_default();
        s.calls += 1;
        s.units += units;
    }

    /// Stats for span `name`, if it ever ran.
    pub fn span(&self, name: &'static str) -> Option<SpanStat> {
        self.spans.get(name).copied()
    }

    /// Whether no span has run.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// One CSV row per span: `span,calls,units`. Sorted by name.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("span,calls,units\n");
        for (k, s) in &self.spans {
            let _ = writeln!(out, "{k},{},{}", s.calls, s.units);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_name() {
        let mut p = Profile::default();
        p.record("a", 10.0);
        p.record("a", 5.0);
        p.record("b", 1.0);
        assert_eq!(
            p.span("a"),
            Some(SpanStat {
                calls: 2,
                units: 15.0
            })
        );
        assert_eq!(p.span("c"), None);
        assert_eq!(p.to_csv(), "span,calls,units\na,2,15\nb,1,1\n");
    }
}
