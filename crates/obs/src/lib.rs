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

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use mqpi_ckpt::{CkptError, Dec, Enc, Wire};

pub use event::{TraceEvent, TraceKind};
pub use metrics::{Histogram, MetricsRegistry, ERROR_BUCKETS, SECOND_BUCKETS, UNIT_BUCKETS};
pub use profile::{Profile, SpanStat};

/// Intern `s` into a `&'static str`. Metric and span names are static in
/// normal operation; a checkpoint restore reads them back as owned
/// strings, and this table maps each distinct name to one leaked static
/// slice (the map lookups compare by value, so a restored name and its
/// original static are interchangeable). The set of names is small and
/// fixed, so the leak is bounded.
pub fn intern(s: &str) -> &'static str {
    static TABLE: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut guard = table.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(hit) = guard.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    guard.insert(leaked);
    leaked
}

/// A name-keyed table on the wire: a count, then `(name, value)` pairs in
/// name order.
fn enc_named<V: Wire>(table: &BTreeMap<&'static str, V>, e: &mut Enc) {
    e.put_usize(table.len());
    for (name, v) in table {
        e.put_str(name);
        v.enc(e);
    }
}

/// Inverse of [`enc_named`]; names are re-interned to `&'static str`.
fn dec_named<V: Wire>(d: &mut Dec<'_>) -> mqpi_ckpt::Result<BTreeMap<&'static str, V>> {
    let pairs = <(String, V)>::dec_vec(d)?;
    Ok(pairs.into_iter().map(|(k, v)| (intern(&k), v)).collect())
}

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
    /// Pre-rendered trace lines carried across a checkpoint restore.
    /// Structured [`TraceEvent`]s do not survive a snapshot (their payloads
    /// hold `&'static str` tags tied to the emitting build); their stable
    /// line serialization does, and [`Obs::render_trace`] prepends it so a
    /// resumed run's trace is byte-identical to an uninterrupted one.
    preamble: String,
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

    /// Serialize the buffered events, one line each, oldest first — after
    /// any preamble carried over from a checkpoint restore. A trailing
    /// `# dropped=N` line records ring-buffer overflow.
    pub fn render_trace(&self) -> String {
        let Some(st) = self.lock() else {
            return String::new();
        };
        let mut out = String::with_capacity(st.preamble.len() + st.events.len() * 48);
        out.push_str(&st.preamble);
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

    // ---- checkpoint/restore ----

    /// Serialize this handle's full recorded state for a checkpoint.
    /// Buffered events travel as their stable rendered lines (becoming the
    /// restored handle's preamble), so `render_trace` after a restore
    /// continues byte-for-byte where the snapshot left off. The guarantee
    /// requires no ring-buffer overflow before the snapshot (`dropped == 0`
    /// — golden-trace runs stay far below the 65 536-event default
    /// capacity); the dropped count itself is carried either way, so the
    /// `# dropped=N` trailer stays exact.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut e = Enc::new();
        let Some(st) = self.lock() else {
            e.put_bool(false);
            return e.into_bytes();
        };
        e.put_bool(true);
        e.put_usize(st.capacity);
        e.put_u64(st.dropped);
        let mut lines = String::with_capacity(st.preamble.len() + st.events.len() * 48);
        lines.push_str(&st.preamble);
        for ev in &st.events {
            lines.push_str(&ev.to_string());
            lines.push('\n');
        }
        e.put_str(&lines);
        st.metrics.enc(&mut e);
        st.profile.enc(&mut e);
        e.into_bytes()
    }

    /// Rebuild a handle from [`Obs::checkpoint`] bytes. A disabled handle
    /// restores disabled; an enabled one restores with an empty event ring,
    /// the snapshot's rendered lines as preamble, and the metrics/profile
    /// tables exactly as recorded.
    pub fn restore(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut d = Dec::new(bytes);
        if !d.get_bool()? {
            return Ok(Obs::disabled());
        }
        let capacity = d.get_usize()?;
        let dropped = d.get_u64()?;
        let preamble = d.get_str()?;
        let metrics = Wire::dec(&mut d)?;
        let profile = Wire::dec(&mut d)?;
        if !d.is_exhausted() {
            return Err(CkptError::Corrupt(format!(
                "{} trailing bytes after obs state",
                d.remaining()
            )));
        }
        Ok(Obs(Some(Arc::new(Mutex::new(State {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            dropped,
            metrics,
            profile,
            preamble,
        })))))
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

    #[test]
    fn intern_is_stable_and_value_keyed() {
        let a = intern("obs.test.some_name");
        let b = intern(&String::from("obs.test.some_name"));
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "obs.test.some_name");
    }

    #[test]
    fn checkpoint_restore_continues_byte_identically() {
        // One straight run...
        let straight = Obs::enabled();
        // ...and one that checkpoints/restores halfway through the same
        // emission sequence.
        let first = Obs::enabled();
        for obs in [&straight, &first] {
            obs.emit(1.0, TraceKind::Reject { id: 1 });
            obs.emit(
                2.5,
                TraceKind::Estimate {
                    pi: "multi",
                    id: 4,
                    seconds: 7.25,
                },
            );
            obs.counter_add("c.a", 3);
            obs.gauge_set("g.b", 1.5);
            obs.histogram_observe("h.c", UNIT_BUCKETS, 42.0);
            let mut s = obs.span("sp");
            s.add_units(9.0);
        }
        let resumed = Obs::restore(&first.checkpoint()).unwrap();
        for obs in [&straight, &resumed] {
            obs.emit(3.0, TraceKind::Block { id: 2 });
            obs.counter_add("c.a", 1);
            obs.histogram_observe("h.c", UNIT_BUCKETS, 0.5);
            let mut s = obs.span("sp");
            s.add_units(1.0);
        }
        assert_eq!(resumed.render_trace(), straight.render_trace());
        assert_eq!(resumed.metrics_json(), straight.metrics_json());
        assert_eq!(resumed.metrics_csv(), straight.metrics_csv());
        assert_eq!(resumed.counter("c.a"), 4);
        assert_eq!(resumed.span_stat("sp").unwrap().calls, 2);
    }

    #[test]
    fn disabled_checkpoint_restores_disabled() {
        let obs = Obs::restore(&Obs::disabled().checkpoint()).unwrap();
        assert!(!obs.is_enabled());
    }

    #[test]
    fn restore_carries_dropped_count() {
        let obs = Obs::with_capacity(2);
        for i in 0..4u64 {
            obs.emit(i as f64, TraceKind::Reject { id: i });
        }
        let resumed = Obs::restore(&obs.checkpoint()).unwrap();
        assert_eq!(resumed.events_dropped(), 2);
        assert!(resumed.render_trace().ends_with("# dropped=2\n"));
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(Obs::restore(&[]).is_err());
        assert!(Obs::restore(&[7u8; 3]).is_err());
        let mut bytes = Obs::enabled().checkpoint();
        bytes.push(0);
        assert!(Obs::restore(&bytes).is_err());
    }
}
