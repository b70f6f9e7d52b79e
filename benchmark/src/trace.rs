//! In-memory wall-clock spans around calls into each layer.
//!
//! A span is (name, start, end, parent, tick id). Spans nest on a stack, so
//! a span's self time is its duration minus the part its children cover.
//! Every span lives inside a *section* (a timed stretch of the workload);
//! the time of a section that no root span covers is the budget gap.
//!
//! Spans stay in memory: per-name aggregates for the whole pass plus raw
//! spans for the first [`RAW_TICKS`] ticks, written out by
//! [`Tracer::write_json`] when the benchmark ends. A tracer that is off
//! costs one predictable branch per call.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Raw spans are kept for ticks below this id.
pub const RAW_TICKS: u64 = 10_000;
/// Hard cap on raw spans, whatever the tick ids say.
const RAW_CAP: usize = 250_000;

macro_rules! spans {
    ($($variant:ident => $name:literal,)*) => {
        /// One traced call site class; the name's prefix is the layer.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Span { $($variant,)* }

        /// Span names, indexed by `Span as usize`.
        pub const SPAN_NAMES: &[&str] = &[$($name,)*];
    };
}

spans! {
    DriverTick => "driver.tick",
    DriverSchedule => "driver.schedule",
    DriverCheck => "driver.check",
    EnginePlan => "engine.plan",
    EngineExec => "engine.exec",
    SimStep => "sim.step",
    SimDrain => "sim.drain",
    SimSnapshot => "sim.snapshot",
    PiApply => "pi.apply",
    PiAdvance => "pi.advance",
    PiPump => "pi.pump",
    PiEstimatesFull => "pi.estimates_full",
    PiMirrorApply => "pi.mirror_apply",
    PiMirrorEstimate => "pi.mirror_estimate",
    CorePredict => "core.predict",
    WalAppend => "wal.append",
    WalCommit => "wal.commit",
    WalCompact => "wal.compact",
    WalScan => "wal.scan",
    WalReplay => "wal.replay",
    WalStandbyCatchup => "wal.standby_catchup",
    WalPromote => "wal.promote",
    CkptEncode => "ckpt.encode",
    CkptRestore => "ckpt.restore",
}

const N: usize = SPAN_NAMES.len();

/// Per-name totals over one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct Open {
    span: Span,
    start_ns: u64,
    child_ns: u64,
    /// Index of this span's slot in `raw`, or `u32::MAX` when not kept.
    raw: u32,
}

#[derive(Debug, Clone, Copy)]
struct Raw {
    span: u8,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    tick: u32,
}

/// What one traced pass adds up to.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    pub agg: [Agg; N],
    /// Total length of the timed sections.
    pub wall_ns: u64,
    /// Part of the sections covered by root spans.
    pub root_ns: u64,
}

impl TraceSummary {
    pub fn of(&self, s: Span) -> Agg {
        self.agg[s as usize]
    }

    /// Sum of self times of every span whose name starts with `layer.`.
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        SPAN_NAMES
            .iter()
            .zip(&self.agg)
            .filter(|(n, _)| n.split('.').next() == Some(layer))
            .map(|(_, a)| a.self_ns)
            .sum()
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    stack: Vec<Open>,
    agg: [Agg; N],
    raw: Vec<Raw>,
    tick: u64,
    /// Wall and on-CPU clock at the start of the open section.
    section_start: Option<(u64, Option<u64>)>,
    wall_ns: u64,
    root_ns: u64,
}

/// Length of one timed section.
#[derive(Debug, Clone, Copy)]
pub struct Section {
    pub wall_ns: u64,
    /// Time the driver thread spent on a CPU: the wall time minus what it
    /// waited for the disk, for a runnable slot, or for a stolen vCPU. Equal
    /// to `wall_ns` where the kernel does not say.
    pub cpu_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            stack: Vec::with_capacity(8),
            agg: [Agg::default(); N],
            raw: Vec::new(),
            tick: 0,
            section_start: None,
            wall_ns: 0,
            root_ns: 0,
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Start a timed section. Sections never nest.
    pub fn begin_section(&mut self) {
        debug_assert!(self.section_start.is_none() && self.stack.is_empty());
        self.section_start = Some((self.now_ns(), crate::util::on_cpu_ns()));
    }

    /// End the current section and return its length.
    pub fn end_section(&mut self) -> Section {
        debug_assert!(self.stack.is_empty());
        let (wall0, cpu0) = self.section_start.take().expect("no open section");
        let wall_ns = self.now_ns() - wall0;
        self.wall_ns += wall_ns;
        let cpu_ns = match (cpu0, crate::util::on_cpu_ns()) {
            (Some(a), Some(b)) => b - a,
            _ => wall_ns,
        };
        Section { wall_ns, cpu_ns }
    }

    /// Tick id stamped on the raw spans recorded from now on.
    #[inline]
    pub fn set_tick(&mut self, tick: u64) {
        self.tick = tick;
    }

    #[inline]
    pub fn enter(&mut self, span: Span) {
        if self.on {
            let now = self.now_ns();
            self.enter_at(span, now);
        }
    }

    /// Close the innermost span; returns its length (0 when off).
    #[inline]
    pub fn exit(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let now = self.now_ns();
        self.exit_at(now)
    }

    /// Close the innermost span and open `span` at the same instant: one
    /// clock read where back-to-back spans would take two.
    #[inline]
    pub fn switch(&mut self, span: Span) {
        if self.on {
            let now = self.now_ns();
            self.exit_at(now);
            self.enter_at(span, now);
        }
    }

    fn enter_at(&mut self, span: Span, start_ns: u64) {
        let raw = if self.tick < RAW_TICKS && self.raw.len() < RAW_CAP {
            let parent = self.stack.last().map_or(u32::MAX, |o| o.raw);
            self.raw.push(Raw {
                span: span as u8,
                start_ns,
                end_ns: 0,
                parent,
                tick: self.tick as u32,
            });
            (self.raw.len() - 1) as u32
        } else {
            u32::MAX
        };
        self.stack.push(Open {
            span,
            start_ns,
            child_ns: 0,
            raw,
        });
    }

    fn exit_at(&mut self, end_ns: u64) -> u64 {
        let open = self.stack.pop().expect("exit without enter");
        let dur = end_ns - open.start_ns;
        let a = &mut self.agg[open.span as usize];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
        match self.stack.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => self.root_ns += dur,
        }
        if open.raw != u32::MAX {
            self.raw[open.raw as usize].end_ns = end_ns;
        }
        dur
    }

    /// Time `f` as one span.
    #[inline]
    pub fn span<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        self.enter(span);
        let r = f();
        self.exit();
        r
    }

    /// Account `count` calls totalling `ns` as children of the open span.
    /// For callees the driver cannot wrap one by one: job installments run
    /// inside `System::run_until` and are timed by a `Job` wrapper.
    pub fn add_children(&mut self, span: Span, count: u64, ns: u64) {
        if !self.on {
            return;
        }
        let a = &mut self.agg[span as usize];
        a.count += count;
        a.total_ns += ns;
        a.self_ns += ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += ns;
        }
    }

    pub fn summary(&self) -> TraceSummary {
        debug_assert!(self.stack.is_empty() && self.section_start.is_none());
        TraceSummary {
            agg: self.agg,
            wall_ns: self.wall_ns,
            root_ns: self.root_ns,
        }
    }

    /// Write aggregates and raw spans as one JSON document. Raw spans are
    /// rows `[name index, start ns, end ns, parent row or -1, tick id]`.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            w,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\
             \"wall_ns\":{},\"root_ns\":{},\"names\":[",
            self.wall_ns, self.root_ns
        )?;
        for (i, n) in SPAN_NAMES.iter().enumerate() {
            write!(w, "{}\"{n}\"", if i > 0 { "," } else { "" })?;
        }
        write!(w, "],\"aggregates\":[")?;
        let mut first = true;
        for (n, a) in SPAN_NAMES.iter().zip(&self.agg) {
            if a.count == 0 {
                continue;
            }
            write!(
                w,
                "{}{{\"name\":\"{n}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                if first { "" } else { "," },
                a.count,
                a.total_ns,
                a.self_ns
            )?;
            first = false;
        }
        write!(
            w,
            "],\"span_columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"tick\"],\"spans\":["
        )?;
        for (i, r) in self.raw.iter().enumerate() {
            let parent = if r.parent == u32::MAX {
                -1
            } else {
                i64::from(r.parent)
            };
            write!(
                w,
                "{}[{},{},{},{},{}]",
                if i > 0 { "," } else { "" },
                r.span,
                r.start_ns,
                r.end_ns,
                parent,
                r.tick
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_cover_the_section() {
        let mut tr = Tracer::new(true);
        tr.begin_section();
        tr.enter(Span::DriverTick);
        tr.span(Span::SimStep, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.add_children(Span::EngineExec, 3, 0);
        tr.exit();
        tr.end_section();
        let s = tr.summary();
        let tick = s.of(Span::DriverTick);
        let step = s.of(Span::SimStep);
        assert_eq!(tick.count, 1);
        assert_eq!(s.of(Span::EngineExec).count, 3);
        assert!(step.total_ns >= 2_000_000);
        assert_eq!(tick.self_ns, tick.total_ns - step.total_ns);
        assert_eq!(s.root_ns, tick.total_ns);
        assert!(s.wall_ns >= s.root_ns);
        assert_eq!(s.layer_self_ns("sim"), step.self_ns);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.begin_section();
        assert_eq!(tr.span(Span::PiPump, || 7), 7);
        tr.end_section();
        let s = tr.summary();
        assert!(s.agg.iter().all(|a| a.count == 0));
        assert!(s.wall_ns > 0 || s.root_ns == 0);
    }
}
