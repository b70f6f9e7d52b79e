//! Runs one workload under the noise protocol and turns its passes into the
//! named metrics.
//!
//! An untraced run (`--trace 0`) sets up several times, then repeats the
//! untraced pass until `--seconds` have gone by, and reports the median over
//! passes of each end-to-end number. A traced run (`--trace 1`) sets up once
//! and cycles through the workload's pass kinds instead; the per-layer
//! numbers are medians over the traced passes. Whatever a pass reports as
//! exact must be the same on every pass of every kind.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::pass::{PassKind, PassOut, TickStats, Workload};
use crate::trace::{Span, TraceSummary, Tracer};
use crate::util::{self, median_of};

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run exactly this many passes (traced: rotations) instead of filling
    /// `seconds`.
    pub reps: Option<usize>,
    pub scale: f64,
    /// Where scratch directories, reports and trace files go.
    pub out_dir: PathBuf,
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub scale: f64,
    pub trace: bool,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    /// In the order of the metric tables.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    pub exact: BTreeMap<&'static str, u64>,
    pub notes: Vec<String>,
    /// The human-readable account of the run.
    pub lines: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(d, v)| {
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json::quote(d.name),
                    json::quote(d.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Everything, for the suite and `--compare` to read back.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(d, v)| format!("    {}: {v}", json::quote(d.name)))
            .collect();
        let exact: Vec<String> = self
            .exact
            .iter()
            .map(|(k, v)| format!("    {}: \"{v}\"", json::quote(k)))
            .collect();
        let notes: Vec<String> = self.notes.iter().map(|n| json::quote(n)).collect();
        format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"scale\": {},\n  \"trace\": {},\n  \
             \"passes\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
             \"metrics\": {{\n{}\n  }},\n  \"exact\": {{\n{}\n  }},\n  \"notes\": [{}]\n}}\n",
            json::quote(self.workload),
            self.seed,
            self.scale,
            u8::from(self.trace),
            self.passes,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",\n"),
            exact.join(",\n"),
            notes.join(", ")
        )
    }
}

/// Median, minimum and (max - min) / median of a timing across passes.
struct Spread {
    median: f64,
    min: f64,
    rel: f64,
}

fn spread(values: impl IntoIterator<Item = f64>) -> Spread {
    let v: Vec<f64> = values.into_iter().collect();
    let (min, max) = v
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    let median = median_of(v);
    Spread {
        median,
        min,
        rel: if median > 0.0 {
            (max - min) / median
        } else {
            0.0
        },
    }
}

/// A set-up is cheap when a pass takes this many times longer.
const CHEAP_SETUP: u64 = 10;

fn tick_stats(mut t: Vec<u32>) -> TickStats {
    t.sort_unstable();
    TickStats {
        n: t.len(),
        p50: util::percentile_us(&t, 50.0),
        p99: util::percentile_us(&t, 99.0),
        p999: util::percentile_us(&t, 99.9),
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

pub fn run<W: Workload>(args: &RunArgs) -> Result<Report, String> {
    let scratch = args
        .out_dir
        .join(format!("tmp-{}-{}", W::NAME, std::process::id()));
    let result = run_in::<W>(args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn run_in<W: Workload>(args: &RunArgs, scratch: &Path) -> Result<Report, String> {
    let mut lines = Vec::new();
    let started = Instant::now();

    // Set-up: once, or three times when its time is what is reported. A
    // cheap set-up is then repeated after every pass as well: a handful of
    // milliseconds taken in the first second of the process would be at the
    // mercy of whatever the neighbours did in that second.
    let timed_setup = !args.trace && args.reps.is_none();
    let (mut setup_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut set_up = || -> Result<(W, u64), String> {
        let dir = scratch.join("setup");
        fresh_dir(&dir)?;
        let mut clock = Tracer::new(false);
        clock.begin_section();
        let w = W::setup(args.seed, args.scale, &dir)?;
        let took = clock.end_section();
        setup_s.push(took.cpu_ns as f64 / 1e9);
        setup_wall_s.push(took.wall_ns as f64 / 1e9);
        Ok((w, took.wall_ns))
    };
    let mut inputs = set_up()?;
    for _ in 1..if timed_setup { 3 } else { 1 } {
        drop(inputs); // two databases at once would double the peak RSS
        inputs = set_up()?;
    }
    let (w, setup_ns) = inputs;

    // Passes.
    let kinds: &[PassKind] = if args.trace {
        W::ROTATION
    } else {
        &[PassKind::Untraced]
    };
    let min_rounds = if args.trace { 2 } else { 3 };
    let mut passes: Vec<(PassKind, PassOut)> = Vec::new();
    let mut first_trace: Option<Tracer> = None;
    let measuring = Instant::now();
    let mut rounds = 0;
    loop {
        let done = match args.reps {
            Some(r) => rounds >= r,
            None => rounds >= min_rounds && measuring.elapsed().as_secs_f64() >= args.seconds,
        };
        if done {
            break;
        }
        for &kind in kinds {
            let dir = scratch.join("pass");
            fresh_dir(&dir)?;
            let mut tr = Tracer::new(kind.traced());
            let mut out = w.pass(kind, &dir, &mut tr)?;
            let summary = tr.summary();
            out.wall_ns = summary.wall_ns;
            out.ticks = tick_stats(std::mem::take(&mut out.ticks_ns));
            if kind.traced() {
                out.trace = Some(summary);
            }
            if kind == PassKind::Traced && first_trace.is_none() {
                first_trace = Some(tr);
            }
            passes.push((kind, out));
        }
        rounds += 1;
        if timed_setup && passes[0].1.ops_ns > CHEAP_SETUP * setup_ns {
            set_up()?;
        }
    }

    // Exact values repeat on every pass, whatever its kind.
    let mut notes = Vec::new();
    let mut failed: u64 = passes.iter().map(|(_, p)| p.failed).sum();
    let attempted: u64 = passes.iter().map(|(_, p)| p.attempted).sum::<u64>() + passes.len() as u64;
    let exact = passes[0].1.exact.clone();
    for (i, (kind, p)) in passes.iter().enumerate() {
        notes.extend(
            p.notes
                .iter()
                .map(|n| format!("pass {i} ({}): {n}", kind.label())),
        );
        if p.exact != exact {
            failed += 1;
            let keys: Vec<&str> = exact
                .keys()
                .chain(p.exact.keys())
                .filter(|k| exact.get(*k) != p.exact.get(*k))
                .copied()
                .collect();
            notes.push(format!(
                "pass {i} ({}) is not the same run as pass 0 ({}): {keys:?} differ",
                kind.label(),
                passes[0].0.label()
            ));
        }
    }

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let table = if args.trace {
        per_layer(
            &w.setup_layer(),
            &passes,
            attempted,
            failed,
            &mut values,
            &mut lines,
        );
        PER_LAYER
    } else {
        end_to_end(&setup_s, &setup_wall_s, &passes, &mut values, &mut lines);
        END_TO_END
    };
    let mut metrics = Vec::with_capacity(table.len());
    for def in table {
        let mut v = values.get(def.name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            failed += 1;
            notes.push(format!("{} is not a number", def.name));
            v = 0.0;
        }
        metrics.push((def, v));
    }
    for (k, v) in &exact {
        lines.push(format!("exact {k} = {v}"));
    }
    lines.extend(notes.iter().map(|n| format!("FAILED {n}")));
    lines.push(format!(
        "{}: seed {}, scale {}, {} passes in {:.1} s ({} attempted, {} failed)",
        W::NAME,
        args.seed,
        args.scale,
        passes.len(),
        started.elapsed().as_secs_f64(),
        attempted,
        failed
    ));

    if let Some(tr) = first_trace {
        let path = args.out_dir.join(format!("{}.trace.json", W::NAME));
        tr.write_json(&path, W::NAME, args.seed)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(Report {
        workload: W::NAME,
        seed: args.seed,
        scale: args.scale,
        trace: args.trace,
        passes: passes.len(),
        attempted,
        failed,
        metrics,
        exact,
        notes,
        lines,
    })
}

fn end_to_end(
    setup_s: &[f64],
    setup_wall_s: &[f64],
    passes: &[(PassKind, PassOut)],
    values: &mut BTreeMap<&'static str, f64>,
    lines: &mut Vec<String>,
) {
    let mut put = |name: &'static str, unit: &str, s: Spread, n: usize, what: &str| {
        lines.push(format!(
            "{name} = {:.6} {unit} (median of {n} {what}, min {:.6}, (max-min)/median {:.1} %)",
            s.median,
            s.min,
            s.rel * 100.0
        ));
        values.insert(name, s.median);
    };
    let n = passes.len();
    let per_s = |ops: u64, ns: u64| ops as f64 / (ns as f64 / 1e9);
    put(
        "setup_s",
        "s",
        spread(setup_s.iter().copied()),
        setup_s.len(),
        "set-ups; seconds the driver thread was on a CPU",
    );
    put(
        "setup_wall_s",
        "s",
        spread(setup_wall_s.iter().copied()),
        setup_wall_s.len(),
        "set-ups; wall seconds, not reported",
    );
    put(
        "ops_per_s",
        "1/s",
        spread(passes.iter().map(|(_, p)| per_s(p.ops, p.ops_cpu_ns))),
        n,
        &format!(
            "passes of {} ops; per second the driver thread was on a CPU",
            passes[0].1.ops
        ),
    );
    // Not bounded; a traced run reports them in its result line.
    put(
        "ops_per_wall_s",
        "1/s",
        spread(passes.iter().map(|(_, p)| per_s(p.ops, p.ops_ns))),
        n,
        "passes; per wall second",
    );
    let samples = format!("passes of {} ticks", passes[0].1.ticks.n);
    let ticks = |f: fn(&TickStats) -> f64| spread(passes.iter().map(|(_, p)| f(&p.ticks)));
    put("tick_p50_us", "us", ticks(|t| t.p50), n, &samples);
    put("tick_p99_us", "us", ticks(|t| t.p99), n, &samples);
    let rss = util::peak_rss_mb().unwrap_or(f64::NAN);
    lines.push(format!(
        "peak_rss_mb = {rss:.3} MiB (VmHWM of this process)"
    ));
    values.insert("peak_rss_mb", rss);
}

fn per_layer(
    setup_layer: &[(&'static str, f64)],
    passes: &[(PassKind, PassOut)],
    attempted: u64,
    failed: u64,
    m: &mut BTreeMap<&'static str, f64>,
    lines: &mut Vec<String>,
) {
    let of = |kind: PassKind| -> Vec<&PassOut> {
        passes
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, p)| p)
            .collect()
    };
    let (u, t, o, b) = (
        of(PassKind::Untraced),
        of(PassKind::Traced),
        of(PassKind::TracedObs),
        of(PassKind::BareCore),
    );

    // Values the workloads report directly: from the untraced passes when
    // they have them, else the traced, else the bare-core ones.
    for group in [&b, &t, &u] {
        let keys: Vec<&'static str> = group.iter().flat_map(|p| p.layer.keys().copied()).collect();
        for k in keys {
            m.insert(
                k,
                median_of(group.iter().filter_map(|p| p.layer.get(k).copied())),
            );
        }
    }
    m.extend(setup_layer.iter().copied());

    // Values from spans: medians over the traced passes.
    let traces: Vec<&TraceSummary> = t.iter().filter_map(|p| p.trace.as_ref()).collect();
    let med = |f: &dyn Fn(&TraceSummary) -> f64| median_of(traces.iter().map(|s| f(s)));
    let spans: &[(&'static str, Option<&'static str>, Span)] = &[
        (
            "engine.plan_ns",
            Some("engine.plan_calls"),
            Span::EnginePlan,
        ),
        (
            "engine.exec_ns",
            Some("engine.exec_calls"),
            Span::EngineExec,
        ),
        ("sim.step_ns", None, Span::SimStep),
        ("sim.drain_ns", None, Span::SimDrain),
        ("sim.snapshot_ns", None, Span::SimSnapshot),
        ("pi.apply_ns", Some("pi.apply_calls"), Span::PiApply),
        ("pi.advance_ns", Some("pi.advance_calls"), Span::PiAdvance),
        ("pi.pump_ns", Some("pi.pump_calls"), Span::PiPump),
        ("pi.estimates_full_ns", None, Span::PiEstimatesFull),
        ("pi.mirror_apply_ns", None, Span::PiMirrorApply),
        ("pi.mirror_estimate_ns", None, Span::PiMirrorEstimate),
        (
            "core.predict_ns",
            Some("core.predict_calls"),
            Span::CorePredict,
        ),
        ("wal.append_ns", None, Span::WalAppend),
        ("wal.commit_ns", None, Span::WalCommit),
        ("wal.compact_ns", None, Span::WalCompact),
        ("wal.scan_ns", None, Span::WalScan),
        ("wal.replay_ns", None, Span::WalReplay),
        ("wal.standby_catchup_ns", None, Span::WalStandbyCatchup),
        ("wal.promote_ns", None, Span::WalPromote),
        ("ckpt.encode_ns", None, Span::CkptEncode),
        ("ckpt.restore_ns", None, Span::CkptRestore),
    ];
    for &(ns, calls, span) in spans {
        m.insert(ns, med(&|s| s.of(span).total_ns as f64));
        if let Some(calls) = calls {
            m.insert(calls, med(&|s| s.of(span).count as f64));
        }
    }
    m.insert(
        "sim.step_self_ns",
        med(&|s| s.of(Span::SimStep).self_ns as f64),
    );
    let wall_t = med(&|s| s.wall_ns as f64);
    m.insert("driver.wall_ns", wall_t);
    m.insert("driver.self_ns", med(&|s| s.layer_self_ns("driver") as f64));
    m.insert(
        "driver.budget_gap_pct",
        med(&|s| s.wall_ns.abs_diff(s.root_ns) as f64 / s.wall_ns as f64 * 100.0),
    );
    m.insert(
        "driver.pi_share_pct",
        med(&|s| {
            let pi: u64 = ["pi", "core", "wal", "ckpt"]
                .iter()
                .map(|l| s.layer_self_ns(l))
                .sum();
            pi as f64 / s.wall_ns as f64 * 100.0
        }),
    );

    // Ratios, and comparisons between pass kinds.
    let get = |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let v = ratio(get(m, "engine.exec_ns"), get(m, "engine.units"));
    m.insert("engine.ns_per_unit", v);
    // Checks that pushed, over checks made (final pushes are not checks).
    let v = ratio(
        get(m, "pi.checks") - get(m, "pi.suppressed"),
        get(m, "pi.checks"),
    );
    m.insert("pi.push_ratio", v);
    let v = ratio(get(m, "pi.pump_ns"), get(m, "pi.checks"));
    m.insert("pi.ns_per_check", v);
    let v = ratio(get(m, "wal.replay_records"), get(m, "wal.replay_ns") / 1e9);
    m.insert("wal.replay_records_per_s", v);
    m.insert("fail_ratio", failed as f64 / attempted.max(1) as f64);
    let wall = |g: &[&PassOut]| median_of(g.iter().map(|p| p.wall_ns as f64));
    let wall_u = wall(&u);
    m.insert("driver.trace_overhead_pct", (wall_t / wall_u - 1.0) * 100.0);
    if !o.is_empty() {
        m.insert("obs.on_overhead_pct", (wall(&o) / wall_t - 1.0) * 100.0);
    }
    m.insert(
        "ops_per_wall_s",
        median_of(u.iter().map(|p| p.ops as f64 / (p.ops_ns as f64 / 1e9))),
    );
    m.insert("tick_p50_us", median_of(u.iter().map(|p| p.ticks.p50)));
    m.insert("tick_p99_us", median_of(u.iter().map(|p| p.ticks.p99)));
    m.insert(
        "driver.tick_p999_us",
        median_of(u.iter().map(|p| p.ticks.p999)),
    );

    let s = spread(u.iter().map(|p| p.wall_ns as f64 / 1e9));
    lines.push(format!(
        "untraced wall = {:.4} s (median of {} passes, min {:.4}, (max-min)/median {:.1} %)",
        s.median,
        u.len(),
        s.min,
        s.rel * 100.0
    ));
    let s = spread(traces.iter().map(|s| s.wall_ns as f64 / 1e9));
    lines.push(format!(
        "traced wall = {:.4} s (median of {} passes, min {:.4}, (max-min)/median {:.1} %)",
        s.median,
        traces.len(),
        s.min,
        s.rel * 100.0
    ));
    // The budget: every layer's self time as a share of the traced wall.
    let mut layers: Vec<&str> = crate::trace::SPAN_NAMES
        .iter()
        .filter_map(|n| n.split('.').next())
        .collect();
    layers.dedup();
    let shares: Vec<String> = layers
        .iter()
        .map(|l| {
            format!(
                "{l} {:.1} %",
                med(&|s| s.layer_self_ns(l) as f64 / s.wall_ns as f64 * 100.0)
            )
        })
        .collect();
    lines.push(format!("self time by layer: {}", shares.join(", ")));
}
