//! `mqpi-obs` — a deterministic observability layer.
//!
//! The progress indicator is itself an observability tool; this crate lets
//! the reproduction observe *its own* behavior: per-tick estimate streams,
//! scheduler stage transitions, admission/abort decisions, fault
//! injections, invariant violations. Three facilities share one handle:
//!
//! * **Trace events** ([`TraceEvent`]) — a ring-buffered structured event
//!   stream with virtual-time stamps, serialized to a stable line format
//!   that golden-trace tests diff byte for byte.
//! * **Metrics registry** ([`MetricsRegistry`]) — counters, gauges, and
//!   fixed-bucket histograms keyed by static names, exported as JSON/CSV.
//! * **Profiling spans** ([`Span`]) — scoped counters over `predict`,
//!   `step`, and executor operators, measured in meter work units, never
//!   wall time.
//!
//! # Determinism rules
//!
//! 1. No wall clock. Every stamp is virtual time; every span measures work
//!    units. Two runs with the same seed produce byte-identical traces.
//! 2. No global mutable state. One [`Obs`] handle per run; the experiment
//!    harness's `--jobs N` fan-out gives each run its own, so output is
//!    bit-identical for any thread count.
//! 3. Zero-cost when disabled. The default handle is [`Obs::disabled`]; an
//!    emission through it is a single `Option` check — no locking, no
//!    allocation, no formatting — so production paths pay (almost) nothing
//!    and all computed results are byte-identical with tracing off.
//!
//! The handle is `Send + Sync` (a run, with its obs handle inside, moves
//! into a worker thread), but per-run access is single-threaded; the
//! internal mutex is for soundness, never contended.

#![forbid(unsafe_code)]

pub mod event;
pub mod metrics;
pub mod profile;

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

pub use event::{TraceEvent, TraceKind};
pub use metrics::{Histogram, MetricsRegistry, ERROR_BUCKETS, SECOND_BUCKETS, UNIT_BUCKETS};
pub use profile::{Profile, SpanStat};

/// Default trace ring-buffer capacity (events). Beyond it the *oldest*
/// events are dropped and counted, so a trace always holds the most recent
/// window.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Everything one run records, behind the handle's mutex.
#[derive(Debug, Default)]
struct State {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    metrics: MetricsRegistry,
    profile: Profile,
}

/// The per-run observability handle. Cheap to clone (an `Option<Arc>`);
/// the disabled handle makes every operation a no-op.
#[derive(Debug, Clone, Default)]
pub struct Obs(Option<Arc<Mutex<State>>>);

impl Obs {
    /// The no-op handle: every emission is a single `None` check.
    pub fn disabled() -> Self {
        Obs(None)
    }

    /// An enabled handle with the default trace capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled handle whose trace ring buffer holds `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Obs(Some(Arc::new(Mutex::new(State {
            capacity: capacity.max(1),
            ..State::default()
        }))))
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// invariant: per-run single-threaded access; the mutex can only be
    /// poisoned by a panic already unwinding this run, in which case the
    /// inner data is still structurally valid counters/events.
    fn lock(&self) -> Option<MutexGuard<'_, State>> {
        self.0
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(|e| e.into_inner()))
    }

    // ---- trace events ----

    /// Append a trace event (drops the oldest beyond capacity).
    #[inline]
    pub fn emit(&self, at: f64, kind: TraceKind) {
        let Some(mut st) = self.lock() else { return };
        if st.events.len() >= st.capacity {
            st.events.pop_front();
            st.dropped += 1;
        }
        st.events.push_back(TraceEvent::new(at, kind));
    }

    /// Number of buffered events.
    pub fn events_len(&self) -> usize {
        self.lock().map_or(0, |st| st.events.len())
    }

    /// Events dropped because the ring buffer was full.
    pub fn events_dropped(&self) -> u64 {
        self.lock().map_or(0, |st| st.dropped)
    }

    /// Clone out the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock()
            .map_or_else(Vec::new, |st| st.events.iter().cloned().collect())
    }

    /// Serialize the buffered events, one line each, oldest first. A
    /// trailing `# dropped=N` line records ring-buffer overflow.
    pub fn render_trace(&self) -> String {
        let Some(st) = self.lock() else {
            return String::new();
        };
        let mut out = String::with_capacity(st.events.len() * 48);
        for e in &st.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        if st.dropped > 0 {
            out.push_str(&format!("# dropped={}\n", st.dropped));
        }
        out
    }

    // ---- metrics ----

    /// Add `n` to counter `name`.
    #[inline]
    pub fn counter_add(&self, name: &'static str, n: u64) {
        if let Some(mut st) = self.lock() {
            st.metrics.counter_add(name, n);
        }
    }

    /// Current value of counter `name` (0 when disabled or untouched).
    pub fn counter(&self, name: &'static str) -> u64 {
        self.lock().map_or(0, |st| st.metrics.counter(name))
    }

    /// Set gauge `name` to `v`.
    #[inline]
    pub fn gauge_set(&self, name: &'static str, v: f64) {
        if let Some(mut st) = self.lock() {
            st.metrics.gauge_set(name, v);
        }
    }

    /// Observe `v` into fixed-bucket histogram `name`.
    #[inline]
    pub fn histogram_observe(&self, name: &'static str, bounds: &'static [f64], v: f64) {
        if let Some(mut st) = self.lock() {
            st.metrics.histogram_observe(name, bounds, v);
        }
    }

    /// Snapshot the metrics registry (empty when disabled).
    pub fn metrics(&self) -> MetricsRegistry {
        self.lock()
            .map_or_else(MetricsRegistry::new, |st| st.metrics.clone())
    }

    /// Metrics as deterministic JSON: counters, gauges and histograms. The
    /// profile table is not included; read it with [`Obs::profile`].
    pub fn metrics_json(&self) -> String {
        self.lock()
            .map_or_else(|| "{}\n".to_string(), |st| st.metrics.to_json())
    }

    /// Metrics as deterministic CSV rows, with the profile table appended
    /// as `span` family rows (`span,<name>,<calls>,<units>`).
    pub fn metrics_csv(&self) -> String {
        let Some(st) = self.lock() else {
            return String::new();
        };
        let mut out = st.metrics.to_csv();
        for line in st.profile.to_csv().lines().skip(1) {
            // Profile rows are `name,calls,units`; prefix the family tag to
            // match the metrics CSV schema `family,name,value,detail`.
            let mut parts = line.splitn(3, ',');
            let (name, calls, units) = (
                parts.next().unwrap_or(""),
                parts.next().unwrap_or("0"),
                parts.next().unwrap_or("0"),
            );
            out.push_str(&format!("span,{name},{calls},{units}\n"));
        }
        out
    }

    // ---- profiling spans ----

    /// Open a scoped span; record units with [`Span::add_units`], and the
    /// aggregate is committed when the guard drops. On a disabled handle
    /// this is free (no state, nothing recorded on drop).
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            obs: if self.is_enabled() {
                Some(self.clone())
            } else {
                None
            },
            name,
            units: 0.0,
        }
    }

    /// Snapshot the profile table (empty when disabled).
    pub fn profile(&self) -> Profile {
        self.lock()
            .map_or_else(Profile::default, |st| st.profile.clone())
    }

    /// Aggregate span stats for `name`.
    pub fn span_stat(&self, name: &'static str) -> Option<SpanStat> {
        self.lock().and_then(|st| st.profile.span(name))
    }
}

/// Scoped profiling guard returned by [`Obs::span`].
#[derive(Debug)]
pub struct Span {
    obs: Option<Obs>,
    name: &'static str,
    units: f64,
}

impl Span {
    /// Attribute `units` work units to this span.
    #[inline]
    pub fn add_units(&mut self, units: f64) {
        if self.obs.is_some() {
            self.units += units;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(obs) = &self.obs {
            if let Some(mut st) = obs.lock() {
                let (name, units) = (self.name, self.units);
                st.profile.record(name, units);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_noop() {
        let obs = Obs::disabled();
        obs.emit(1.0, TraceKind::Reject { id: 1 });
        obs.counter_add("c", 5);
        obs.gauge_set("g", 1.0);
        obs.histogram_observe("h", UNIT_BUCKETS, 3.0);
        {
            let mut s = obs.span("sp");
            s.add_units(10.0);
        }
        assert!(!obs.is_enabled());
        assert_eq!(obs.events_len(), 0);
        assert_eq!(obs.counter("c"), 0);
        assert_eq!(obs.render_trace(), "");
        assert_eq!(obs.metrics_csv(), "");
        assert!(obs.span_stat("sp").is_none());
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let obs = Obs::with_capacity(3);
        for i in 0..5u64 {
            obs.emit(i as f64, TraceKind::Reject { id: i });
        }
        assert_eq!(obs.events_len(), 3);
        assert_eq!(obs.events_dropped(), 2);
        let ev = obs.events();
        assert_eq!(ev[0].at, 2.0);
        assert!(obs.render_trace().ends_with("# dropped=2\n"));
    }

    #[test]
    fn spans_commit_on_drop() {
        let obs = Obs::enabled();
        {
            let mut s = obs.span("work");
            s.add_units(7.0);
            s.add_units(3.0);
        }
        {
            let _s = obs.span("work");
        }
        let st = obs.span_stat("work").unwrap();
        assert_eq!(st.calls, 2);
        assert_eq!(st.units, 10.0);
        assert!(obs.metrics_csv().contains("span,work,2,10\n"));
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::enabled();
        let obs2 = obs.clone();
        obs2.counter_add("shared", 1);
        obs.counter_add("shared", 1);
        assert_eq!(obs.counter("shared"), 2);
    }

    #[test]
    fn handle_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<Obs>();
    }
}
