//! Regenerate every table and figure of the paper's evaluation (§5).
//!
//! ```text
//! experiments [all|table1|fig1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|chaos|bench-harness|bench-sim]
//!             [--runs N] [--small] [--csv DIR] [--seed S] [--jobs N] [--chaos]
//!             [--trace-out FILE] [--metrics-out FILE]
//!             [--checkpoint-dir DIR] [--checkpoint-every N] [--resume-from PATH]
//! ```
//!
//! Output is printed as text tables (the same rows/series the paper plots)
//! and optionally written as CSV, one file per figure. `--jobs N` sets the
//! worker-thread count for the Monte-Carlo drivers (default: the `MQPI_JOBS`
//! environment variable, else available parallelism; `--jobs 1` is the
//! serial path — results are bit-identical either way). `bench-harness`
//! times the Fig. 6/7 sweep and the Fig. 11 maintenance runs serial vs
//! parallel and writes `BENCH_2.json`. `bench-sim` measures the simulator
//! core's raw event throughput (churn at a concurrency cap, plus a
//! concurrent session scan up to n = 10^6) and writes `BENCH_6.json`;
//! `--small` restricts it to the n = 10^4 smoke sizes.
//!
//! `--trace-out FILE` and `--metrics-out FILE` run the traced scenario
//! suite ([`mqpi_bench::traced`]) with the observability layer enabled and
//! write the concatenated trace-event log and the metrics export
//! (CSV, or JSON when the path ends in `.json`). Both outputs are
//! deterministic functions of `--seed`. The figure experiments themselves
//! always run untraced, so their CSVs are byte-identical with or without
//! these flags.
//!
//! `--checkpoint-dir DIR` makes the chaos campaign crash-safe: every
//! replicate snapshots its full state to `DIR/run-<seed>.ckpt` every
//! `--checkpoint-every N` estimator ticks (default 1) and records its
//! final outcome on completion, all via atomic temp-file + rename writes.
//! After a crash, `--resume-from DIR` (or a snapshot file inside it) with
//! the same campaign parameters skips finished replicates, continues
//! partial ones from their snapshots, and reproduces the uninterrupted
//! report bit for bit — at any `--jobs` value. Unreadable snapshots are
//! rejected and rerun fresh, never trusted.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mqpi_bench::report::{f2, pct, TextTable};
use mqpi_bench::{
    ablations, analytic, chaos, db, ensemble, maintenance, mcq, naq, parallel, pibench, pichaos,
    piserve, piwal, scq, simbench, speedup_exp, table1, traced,
};
use mqpi_workload::{McqConfig, TpcrDb};

struct Opts {
    what: Vec<String>,
    runs: usize,
    small: bool,
    csv: Option<PathBuf>,
    seed: u64,
    jobs: usize,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: Option<usize>,
    resume_from: Option<PathBuf>,
    wal_dir: Option<PathBuf>,
    wal_flush_every: Option<u32>,
    standby: bool,
}

impl Opts {
    /// Build the chaos campaign's checkpoint configuration from the
    /// `--checkpoint-*`/`--resume-from` flags, or `None` when neither a
    /// snapshot directory nor a resume source was given.
    fn checkpoint_cfg(&self) -> Option<chaos::CheckpointCfg> {
        let (dir, resume) = match (&self.resume_from, &self.checkpoint_dir) {
            (Some(p), _) => {
                // Accept either the snapshot directory itself or one of
                // the run-*.ckpt files inside it.
                let dir = if p.is_dir() {
                    p.clone()
                } else {
                    p.parent().map_or_else(|| PathBuf::from("."), PathBuf::from)
                };
                (dir, true)
            }
            (None, Some(d)) => (d.clone(), false),
            (None, None) => return None,
        };
        let mut cfg = chaos::CheckpointCfg::new(dir);
        cfg.every = self.checkpoint_every.unwrap_or(1);
        cfg.resume = resume;
        cfg.obs = mqpi_obs::Obs::enabled();
        Some(cfg)
    }
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        what: Vec::new(),
        runs: 50,
        small: false,
        csv: None,
        seed: 1,
        jobs: parallel::default_jobs(),
        trace_out: None,
        metrics_out: None,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume_from: None,
        wal_dir: None,
        wal_flush_every: None,
        standby: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--runs" => {
                opts.runs = args
                    .next()
                    .ok_or("--runs needs a value")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--jobs" => {
                opts.jobs = args
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            "--small" => opts.small = true,
            // Alias for the chaos campaign mode (same as naming it).
            "--chaos" => opts.what.push("chaos".into()),
            "--csv" => {
                opts.csv = Some(PathBuf::from(args.next().ok_or("--csv needs a dir")?));
            }
            "--trace-out" => {
                opts.trace_out = Some(PathBuf::from(
                    args.next().ok_or("--trace-out needs a file")?,
                ));
            }
            "--metrics-out" => {
                opts.metrics_out = Some(PathBuf::from(
                    args.next().ok_or("--metrics-out needs a file")?,
                ));
            }
            "--checkpoint-dir" => {
                opts.checkpoint_dir = Some(PathBuf::from(
                    args.next().ok_or("--checkpoint-dir needs a dir")?,
                ));
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = Some(
                    args.next()
                        .ok_or("--checkpoint-every needs a value")?
                        .parse()
                        .map_err(|e| format!("--checkpoint-every: {e}"))?,
                );
            }
            "--resume-from" => {
                opts.resume_from = Some(PathBuf::from(
                    args.next().ok_or("--resume-from needs a path")?,
                ));
            }
            "--wal-dir" => {
                opts.wal_dir = Some(PathBuf::from(args.next().ok_or("--wal-dir needs a dir")?));
            }
            "--wal-flush-every" => {
                opts.wal_flush_every = Some(
                    args.next()
                        .ok_or("--wal-flush-every needs a value")?
                        .parse()
                        .map_err(|e| format!("--wal-flush-every: {e}"))?,
                );
            }
            "--standby" => opts.standby = true,
            "--help" | "-h" => {
                return Err(
                    "usage: experiments [all|table1|fig1..fig11|ablations|speedup|chaos|bench-harness|bench-sim|bench-pi|pi-serve|pi-chaos|pi-wal-chaos|bench-ensemble] \
                            [--runs N] [--small] [--csv DIR] [--seed S] [--jobs N] [--chaos] \
                            [--trace-out FILE] [--metrics-out FILE] \
                            [--checkpoint-dir DIR] [--checkpoint-every N] [--resume-from PATH] \
                            [--wal-dir DIR] [--wal-flush-every N] [--standby]"
                        .into(),
                )
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => opts.what.push(other.to_string()),
        }
    }
    if opts.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    if opts.jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    if opts.checkpoint_every.is_some()
        && opts.checkpoint_dir.is_none()
        && opts.resume_from.is_none()
    {
        return Err("--checkpoint-every needs --checkpoint-dir (or --resume-from)".into());
    }
    if opts.resume_from.is_some() && opts.checkpoint_dir.is_some() {
        return Err("--resume-from already names the snapshot dir; drop --checkpoint-dir".into());
    }
    if (opts.wal_flush_every.is_some() || opts.standby)
        && opts.wal_dir.is_none()
        && !opts.what.iter().any(|w| w == "pi-wal-chaos")
    {
        return Err("--wal-flush-every/--standby need --wal-dir (durable pi-serve mode)".into());
    }
    const KNOWN: &[&str] = &[
        "all",
        "table1",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "ablations",
        "speedup",
        "chaos",
        "bench-harness",
        "bench-sim",
        "bench-pi",
        "pi-serve",
        "pi-chaos",
        "pi-wal-chaos",
        "bench-ensemble",
    ];
    for w in &opts.what {
        if !KNOWN.contains(&w.as_str()) {
            return Err(format!(
                "unknown experiment '{w}' (expected one of: {})",
                KNOWN.join(", ")
            ));
        }
    }
    if opts.what.is_empty() {
        opts.what.push("all".into());
    }
    Ok(opts)
}

/// Render a stage's finishing query as a table cell. A stage can
/// legitimately lack one (a blocked query's stage — see
/// [`analytic::Stage::finisher`]), so this renders `-` instead of
/// aborting the whole experiment run on `unwrap`.
fn finisher_cell(s: &analytic::Stage) -> String {
    s.finisher
        .map_or_else(|| "-".to_string(), |q| format!("Q{q}"))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let selected = |name: &str| opts.what.iter().any(|w| w == name || w == "all");
    let tpcr: &TpcrDb = if opts.small {
        db::small()
    } else {
        db::standard()
    };
    // `--jobs` resolves to available parallelism by default; print the
    // resolved value so 1-core runners can see the pool they actually got.
    eprintln!(
        "# database: lineitem {} rows, rate C = {} U/s, runs = {}, jobs = {}",
        tpcr.config.lineitem_rows,
        db::RATE,
        opts.runs,
        opts.jobs
    );

    let emit = |name: &str, file: &str, table: &TextTable| {
        println!("== {name} ==");
        println!("{}", table.render());
        if let Some(dir) = &opts.csv {
            let path = dir.join(format!("{file}.csv"));
            if let Err(e) = table.write_csv(&path) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    };

    let run = || -> Result<(), Box<dyn std::error::Error>> {
        if selected("table1") {
            let mut t = TextTable::new(&[
                "relation",
                "paper tuples",
                "paper size",
                "our tuples",
                "our bytes",
                "our pages",
            ]);
            for r in table1::run(tpcr) {
                t.row(vec![
                    r.relation,
                    r.paper_tuples,
                    r.paper_size,
                    r.ours_tuples.to_string(),
                    r.ours_bytes.to_string(),
                    r.ours_pages.to_string(),
                ]);
            }
            emit("table1", "table1", &t);
        }
        if selected("fig1") {
            let mut t = TextTable::new(&["stage", "duration (s)", "finishing query"]);
            for s in analytic::fig1(100.0) {
                t.row(vec![s.stage.to_string(), f2(s.duration), finisher_cell(&s)]);
            }
            emit("fig1", "fig1", &t);
        }
        if selected("fig2") {
            let mut t = TextTable::new(&["stage", "duration (s)", "finishing query"]);
            for s in analytic::fig2(100.0) {
                t.row(vec![s.stage.to_string(), f2(s.duration), finisher_cell(&s)]);
            }
            emit("fig2 (Q3 blocked at time 0)", "fig2", &t);
        }
        if selected("fig3") || selected("fig4") {
            let r = mcq::run(
                tpcr,
                McqConfig {
                    seed: opts.seed,
                    rate: db::RATE,
                    ..Default::default()
                },
                10.0,
            )?;
            if selected("fig3") {
                let mut t = TextTable::new(&[
                    "time (s)",
                    "actual remaining (s)",
                    "single-query est (s)",
                    "multi-query est (s)",
                ]);
                for s in &r.samples {
                    t.row(vec![
                        f2(s.t),
                        f2(s.actual_remaining),
                        f2(s.single_est),
                        f2(s.multi_est),
                    ]);
                }
                emit(
                    &format!("fig3 (MCQ, tracked query size class {})", r.target_size),
                    "fig3",
                    &t,
                );
            }
            if selected("fig4") {
                let mut t = TextTable::new(&["time (s)", "execution speed (U/s)"]);
                for s in &r.samples {
                    t.row(vec![f2(s.t), f2(s.observed_speed)]);
                }
                emit(
                    &format!(
                        "fig4 (speed increased {:.1}x over the run)",
                        r.speed_increase
                    ),
                    "fig4",
                    &t,
                );
            }
        }
        if selected("fig5") {
            let r = naq::run(tpcr, db::RATE, [50, 10, 20], 10.0)?;
            let mut t = TextTable::new(&[
                "time (s)",
                "actual remaining (s)",
                "single-query est (s)",
                "multi (no queue) est (s)",
                "multi (queue) est (s)",
            ]);
            for s in &r.samples {
                t.row(vec![
                    f2(s.t),
                    f2(s.actual_remaining),
                    f2(s.single_est),
                    f2(s.multi_no_queue_est),
                    f2(s.multi_queue_est),
                ]);
            }
            emit(
                &format!(
                    "fig5 (NAQ; Q3 starts at {:.0}s, finishes at {:.0}s, Q1 at {:.0}s)",
                    r.q3_start, r.q3_finish, r.q1_finish
                ),
                "fig5",
                &t,
            );
        }
        if selected("fig6") || selected("fig7") {
            let lambdas = [0.0, 0.02, 0.04, 0.06, 0.08, 0.1, 0.15, 0.2];
            let pts =
                scq::run_known_lambda(tpcr, &lambdas, opts.runs, opts.seed, db::RATE, opts.jobs)?;
            if selected("fig6") {
                let mut t =
                    TextTable::new(&["lambda", "single-query rel. err", "multi-query rel. err"]);
                for p in &pts {
                    t.row(vec![
                        f2(p.true_lambda),
                        pct(p.last_single),
                        pct(p.last_multi),
                    ]);
                }
                emit("fig6 (SCQ, last finishing query)", "fig6", &t);
            }
            if selected("fig7") {
                let mut t =
                    TextTable::new(&["lambda", "single-query rel. err", "multi-query rel. err"]);
                for p in &pts {
                    t.row(vec![f2(p.true_lambda), pct(p.avg_single), pct(p.avg_multi)]);
                }
                emit("fig7 (SCQ, average over all ten queries)", "fig7", &t);
            }
        }
        if selected("fig8") || selected("fig9") {
            let primes = [0.0, 0.01, 0.03, 0.05, 0.08, 0.12, 0.16, 0.2];
            let pts = scq::run_misestimated_lambda(
                tpcr,
                0.03,
                &primes,
                opts.runs,
                opts.seed,
                db::RATE,
                opts.jobs,
            )?;
            if selected("fig8") {
                let mut t = TextTable::new(&[
                    "lambda' (PI)",
                    "single-query rel. err",
                    "multi-query rel. err",
                ]);
                for p in &pts {
                    t.row(vec![f2(p.pi_lambda), pct(p.last_single), pct(p.last_multi)]);
                }
                emit("fig8 (SCQ, lambda=0.03, last finishing query)", "fig8", &t);
            }
            if selected("fig9") {
                let mut t = TextTable::new(&[
                    "lambda' (PI)",
                    "single-query rel. err",
                    "multi-query rel. err",
                ]);
                for p in &pts {
                    t.row(vec![f2(p.pi_lambda), pct(p.avg_single), pct(p.avg_multi)]);
                }
                emit("fig9 (SCQ, lambda=0.03, average over all ten)", "fig9", &t);
            }
        }
        if selected("fig10") {
            for lp in [0.04, 0.05] {
                let s = scq::run_adaptive_trace(tpcr, 0.03, lp, opts.seed, db::RATE, 10.0)?;
                let mut t = TextTable::new(&[
                    "time (s)",
                    "actual remaining (s)",
                    "multi-query est (s)",
                    "lambda estimate",
                ]);
                for x in &s {
                    t.row(vec![
                        f2(x.t),
                        f2(x.actual_remaining),
                        f2(x.est_remaining),
                        format!("{:.4}", x.lambda_est),
                    ]);
                }
                emit(
                    &format!("fig10 (lambda'={lp}, true lambda=0.03)"),
                    &format!("fig10_lp{}", (lp * 100.0) as u32),
                    &t,
                );
            }
        }
        if selected("speedup") {
            let runs = opts.runs.clamp(1, 20);
            let r = speedup_exp::run(tpcr, runs, opts.seed, db::RATE, opts.jobs)?;
            let mut t = TextTable::new(&["victim policy", "mean measured speed-up (s)"]);
            t.row(vec!["optimal (sec. 3.1)".into(), f2(r.optimal)]);
            t.row(vec!["  (predicted)".into(), f2(r.optimal_predicted)]);
            t.row(vec!["heaviest consumer".into(), f2(r.heaviest)]);
            t.row(vec!["largest remaining".into(), f2(r.largest)]);
            t.row(vec!["random".into(), f2(r.random)]);
            emit(
                &format!("speedup (single-query speed-up policies, {runs} runs)"),
                "speedup",
                &t,
            );
        }
        if selected("ablations") {
            let runs = opts.runs.clamp(1, 20);
            let a1 = ablations::assumption1(
                tpcr,
                &[0.0, 0.02, 0.05, 0.1, 0.2],
                runs,
                opts.seed,
                db::RATE,
                opts.jobs,
            )?;
            let mut t = TextTable::new(&[
                "contention alpha",
                "single-query rel. err",
                "multi-query rel. err",
            ]);
            for p in &a1 {
                t.row(vec![f2(p.alpha), pct(p.single_err), pct(p.multi_err)]);
            }
            emit(
                "ablation A1 (rate degrades with concurrency)",
                "ablation_a1",
                &t,
            );

            let a2 = ablations::assumption2(
                &[0.25, 0.5, 1.0, 2.0, 4.0],
                runs,
                opts.seed,
                db::RATE,
                opts.jobs,
            )?;
            let mut t = TextTable::new(&[
                "reported-cost scale",
                "single-query rel. err",
                "multi-query rel. err",
            ]);
            for p in &a2 {
                t.row(vec![f2(p.scale), pct(p.single_err), pct(p.multi_err)]);
            }
            emit(
                "ablation A2 (remaining costs mis-reported by a factor)",
                "ablation_a2",
                &t,
            );

            let q = ablations::quantum_sensitivity(
                &[1.0, 4.0, 16.0, 64.0, 256.0],
                db::RATE,
                opts.seed,
            )?;
            let mut t = TextTable::new(&["quantum (U)", "max |scheduler - fluid| (s)"]);
            for p in &q {
                t.row(vec![f2(p.quantum), format!("{:.3}", p.max_divergence)]);
            }
            emit(
                "ablation Q (scheduler discretization vs fluid model)",
                "ablation_quantum",
                &t,
            );

            let ov = ablations::abort_overhead(
                tpcr,
                &[0.0, 200.0, 500.0, 1000.0],
                runs.min(8),
                opts.seed,
                db::RATE,
                opts.jobs,
            )?;
            let mut t = TextTable::new(&[
                "rollback units",
                "oblivious UW/TW",
                "aware UW/TW",
                "oblivious late",
                "aware late",
            ]);
            for p in &ov {
                t.row(vec![
                    f2(p.overhead_units),
                    pct(p.oblivious_uw),
                    pct(p.aware_uw),
                    pct(p.oblivious_late),
                    pct(p.aware_late),
                ]);
            }
            emit(
                "ablation O (abort/rollback overhead in maintenance planning)",
                "ablation_overhead",
                &t,
            );
        }
        if selected("fig11") {
            let fracs = [0.2, 0.4, 0.6, 0.8, 1.0];
            let runs = opts.runs.clamp(1, 10);
            let pts = maintenance::run(tpcr, &fracs, runs, opts.seed, db::RATE, opts.jobs)?;
            let mut t = TextTable::new(&[
                "t / t_finish",
                "no PI (UW/TW)",
                "single-query PI",
                "multi-query PI",
                "theoretical limit",
            ]);
            for p in &pts {
                t.row(vec![
                    f2(p.t_frac),
                    pct(p.no_pi),
                    pct(p.single_pi),
                    pct(p.multi_pi),
                    pct(p.oracle),
                ]);
            }
            emit(
                &format!("fig11 (scheduled maintenance, {runs} runs)"),
                "fig11",
                &t,
            );
        }
        // Chaos campaign; only when asked for by name or --chaos ("all"
        // skips it — fault campaigns are a robustness gate, not a figure).
        if opts.what.iter().any(|w| w == "chaos") {
            let intensities = [0.0, 2.0, 5.0, 10.0];
            let ckpt = opts.checkpoint_cfg();
            let rep =
                chaos::run_ckpt(&intensities, opts.runs, opts.seed, opts.jobs, ckpt.as_ref())?;
            let mut t = TextTable::new(&[
                "shape",
                "faults/100s",
                "injected",
                "skipped",
                "completed",
                "failed",
                "retries",
                "rejected",
                "single rel. err",
                "multi rel. err",
                "degraded",
                "nonfinite",
                "violations",
            ]);
            for p in &rep.points {
                t.row(vec![
                    p.shape.to_string(),
                    f2(p.intensity),
                    p.faults_injected.to_string(),
                    p.faults_skipped.to_string(),
                    p.completed.to_string(),
                    p.failures.to_string(),
                    p.retries.to_string(),
                    p.rejected.to_string(),
                    pct(p.single_err),
                    pct(p.multi_err),
                    p.degraded.to_string(),
                    p.nonfinite.to_string(),
                    p.violations.to_string(),
                ]);
            }
            emit(
                &format!(
                    "chaos ({} faults injected, {} violations, {} non-finite estimates, \
                     {} runs/cell)",
                    rep.total_faults, rep.total_violations, rep.total_nonfinite, opts.runs
                ),
                "chaos",
                &t,
            );
            for d in rep.violation_details.iter().take(20) {
                eprintln!("violation: {d}");
            }
            if let Some(c) = &ckpt {
                eprintln!(
                    "# checkpoints ({}): saved={} resumed={} done_skipped={} rejected={}",
                    c.dir.display(),
                    c.obs.counter("ckpt.saved"),
                    c.obs.counter("ckpt.resumed"),
                    c.obs.counter("ckpt.done_skipped"),
                    c.obs.counter("ckpt.rejected"),
                );
            }
            if rep.total_violations > 0 || rep.total_nonfinite > 0 {
                return Err(format!(
                    "chaos campaign not clean: {} violations, {} non-finite estimates",
                    rep.total_violations, rep.total_nonfinite
                )
                .into());
            }
        }
        // Timing mode; only when asked for by name ("all" skips it).
        if opts.what.iter().any(|w| w == "bench-harness") {
            bench_harness(tpcr, &opts)?;
        }
        // Simulator-core throughput; only when asked for by name.
        if opts.what.iter().any(|w| w == "bench-sim") {
            bench_sim(&opts)?;
        }
        // Incremental-predictor delta-vs-rebuild; only when asked by name.
        if opts.what.iter().any(|w| w == "bench-pi") {
            bench_pi(&opts)?;
        }
        // Deterministic PI-service campaign; only when asked by name.
        if opts.what.iter().any(|w| w == "pi-serve") {
            pi_serve(&opts)?;
        }
        // Overload/self-healing campaign; only when asked by name.
        if opts.what.iter().any(|w| w == "pi-chaos") {
            pi_chaos(&opts)?;
        }
        // Durability chaos campaign; only when asked by name.
        if opts.what.iter().any(|w| w == "pi-wal-chaos") {
            pi_wal_chaos(&opts)?;
        }
        // Estimator-ensemble campaign; only when asked by name.
        if opts.what.iter().any(|w| w == "bench-ensemble") {
            bench_ensemble(&opts)?;
        }
        // Observability suite; runs whenever an output file is requested.
        if opts.trace_out.is_some() || opts.metrics_out.is_some() {
            write_observability(&opts)?;
        }
        Ok(())
    };

    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("experiment failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run the traced scenario suite and write its trace and/or metrics
/// exports. The trace file concatenates every scenario's event log under
/// `# scenario=<name> seed=<seed>` headers; the metrics file prefixes each
/// row with the scenario name (CSV) or nests each registry under the
/// scenario key (JSON, chosen by a `.json` extension).
fn write_observability(opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    let runs = traced::run_all(opts.seed)?;
    let violations: u64 = runs.iter().map(|r| r.violations).sum();
    if violations > 0 {
        return Err(format!("traced scenario suite saw {violations} invariant violations").into());
    }
    if let Some(path) = &opts.trace_out {
        let mut out = String::new();
        for r in &runs {
            out.push_str(&format!("# scenario={} seed={}\n", r.scenario, opts.seed));
            out.push_str(&r.trace);
        }
        mqpi_ckpt::atomic_write(path, out.as_bytes())?;
        eprintln!("# wrote {}", path.display());
    }
    if let Some(path) = &opts.metrics_out {
        let json = path.extension().is_some_and(|e| e == "json");
        let mut out = String::new();
        if json {
            out.push_str("{\n");
            for (i, r) in runs.iter().enumerate() {
                let body = r.metrics_json.trim_end().replace('\n', "\n  ");
                out.push_str(&format!("  \"{}\": {body}", r.scenario));
                out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
            }
            out.push_str("}\n");
        } else {
            out.push_str("scenario,family,name,value,detail\n");
            for r in &runs {
                for line in r.metrics_csv.lines().skip(1) {
                    out.push_str(&format!("{},{line}\n", r.scenario));
                }
            }
        }
        mqpi_ckpt::atomic_write(path, out.as_bytes())?;
        eprintln!("# wrote {}", path.display());
    }
    Ok(())
}

/// Serial-vs-parallel wall clock for the Fig. 6/7 λ sweep and the Fig. 11
/// maintenance experiment. Asserts both modes produce identical output, then
/// writes `BENCH_2.json` next to the working directory.
fn bench_harness(tpcr: &TpcrDb, opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    let jobs = opts.jobs.max(2);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let lambdas = [0.0, 0.02, 0.04, 0.06, 0.08, 0.1, 0.15, 0.2];
    let fracs = [0.2, 0.4, 0.6, 0.8, 1.0];
    let scq_runs = opts.runs;
    let maint_runs = opts.runs.clamp(1, 10);
    eprintln!("# bench-harness: jobs = {jobs}, cores = {cores}");

    let t0 = Instant::now();
    let scq_serial = scq::run_known_lambda(tpcr, &lambdas, scq_runs, opts.seed, db::RATE, 1)?;
    let scq_serial_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let scq_par = scq::run_known_lambda(tpcr, &lambdas, scq_runs, opts.seed, db::RATE, jobs)?;
    let scq_par_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        format!("{scq_serial:?}"),
        format!("{scq_par:?}"),
        "fig6/7 sweep must be bit-identical for jobs=1 vs jobs={jobs}"
    );

    let t0 = Instant::now();
    let maint_serial = maintenance::run(tpcr, &fracs, maint_runs, opts.seed, db::RATE, 1)?;
    let maint_serial_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let maint_par = maintenance::run(tpcr, &fracs, maint_runs, opts.seed, db::RATE, jobs)?;
    let maint_par_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        format!("{maint_serial:?}"),
        format!("{maint_par:?}"),
        "fig11 must be bit-identical for jobs=1 vs jobs={jobs}"
    );

    let scq_speedup = scq_serial_s / scq_par_s;
    let maint_speedup = maint_serial_s / maint_par_s;
    // Acceptance target is >=4x at >=8 cores, i.e. cores/2 scaled linearly;
    // on a 1-core box that is 0.5 — parallel must merely not badly regress.
    let required = (cores as f64 / 2.0).min(4.0);

    let mut t = TextTable::new(&["experiment", "serial (s)", "parallel (s)", "speedup"]);
    t.row(vec![
        "fig6/7 lambda sweep".into(),
        f2(scq_serial_s),
        f2(scq_par_s),
        f2(scq_speedup),
    ]);
    t.row(vec![
        "fig11 maintenance".into(),
        f2(maint_serial_s),
        f2(maint_par_s),
        f2(maint_speedup),
    ]);
    println!("== bench-harness (jobs={jobs}, cores={cores}) ==");
    println!("{}", t.render());

    let json = format!(
        r#"{{
  "benchmark": "parallel Monte-Carlo experiment harness (scoped thread pool)",
  "config": {{
    "db": "{db}",
    "scq_runs": {scq_runs},
    "maintenance_runs": {maint_runs},
    "seed": {seed},
    "jobs": {jobs},
    "cores": {cores}
  }},
  "metric": "wall-clock seconds, --jobs 1 vs --jobs {jobs}",
  "identical_output": true,
  "fig6_7_lambda_sweep": {{
    "serial_s": {scq_serial_s:.3},
    "parallel_s": {scq_par_s:.3},
    "speedup": {scq_speedup:.2}
  }},
  "fig11_maintenance": {{
    "serial_s": {maint_serial_s:.3},
    "parallel_s": {maint_par_s:.3},
    "speedup": {maint_speedup:.2}
  }},
  "required_speedup_at_8_cores": 4.0,
  "scaled_required_speedup_at_{cores}_cores": {required:.2},
  "note": "target is 4x at 8 cores, scaled linearly as cores/2 below that; a 1-core runner can only check the absence of a serial regression. Per-run seeds keep parallel output bit-identical to serial, asserted before timing."
}}
"#,
        db = if opts.small { "small" } else { "standard" },
        seed = opts.seed,
    );
    mqpi_ckpt::atomic_write(std::path::Path::new("BENCH_2.json"), json.as_bytes())?;
    eprintln!("# wrote BENCH_2.json");
    Ok(())
}

/// Raw simulator-core throughput (`--bench-sim`): event churn through a
/// concurrency cap and a concurrent session scan, at n = 10^4 (always),
/// 10^5 and 10^6 (skipped under `--small`). Prints events/sec per size,
/// compares against the recorded pre-refactor baseline, and writes
/// `BENCH_6.json`.
fn bench_sim(opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    const SLOTS: usize = 256;
    let churn_sizes: &[usize] = if opts.small {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let scan_sizes: &[usize] = if opts.small {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };

    let mut churn = Vec::new();
    let mut t = TextTable::new(&["n", "steps", "wall (s)", "events/sec", "before", "speedup"]);
    for &n in churn_sizes {
        let r = simbench::churn(n, SLOTS)?;
        let before = simbench::baseline::lookup(simbench::baseline::CHURN_EVENTS_PER_SEC, n);
        let speedup = before.map(|b| r.events_per_sec / b);
        eprintln!(
            "# bench-sim churn n={n}: {:.0} events/sec ({} steps, {:.3}s)",
            r.events_per_sec, r.steps, r.wall_s
        );
        t.row(vec![
            n.to_string(),
            r.steps.to_string(),
            format!("{:.3}", r.wall_s),
            format!("{:.0}", r.events_per_sec),
            before.map_or_else(|| "-".into(), |b| format!("{b:.0}")),
            speedup.map_or_else(|| "-".into(), |s| format!("{s:.2}x")),
        ]);
        churn.push((r, before, speedup));
    }
    println!("== bench-sim churn (event-driven, {SLOTS} slots) ==");
    println!("{}", t.render());

    let mut scan = Vec::new();
    let mut t = TextTable::new(&[
        "n",
        "steps",
        "wall (s)",
        "session updates/sec",
        "before",
        "speedup",
    ]);
    for &n in scan_sizes {
        let r = simbench::concurrent_scan(n, simbench::scan_steps_for(n))?;
        let before = simbench::baseline::lookup(simbench::baseline::SCAN_UPDATES_PER_SEC, n);
        let speedup = before.map(|b| r.updates_per_sec / b);
        eprintln!(
            "# bench-sim scan n={n}: {:.0} session updates/sec ({} steps, {:.3}s)",
            r.updates_per_sec, r.steps, r.wall_s
        );
        t.row(vec![
            n.to_string(),
            r.steps.to_string(),
            format!("{:.3}", r.wall_s),
            format!("{:.0}", r.updates_per_sec),
            before.map_or_else(|| "-".into(), |b| format!("{b:.0}")),
            speedup.map_or_else(|| "-".into(), |s| format!("{s:.2}x")),
        ]);
        scan.push((r, before, speedup));
    }
    println!("== bench-sim concurrent scan (quantum mode) ==");
    println!("{}", t.render());

    let field = |v: Option<f64>| v.map_or_else(|| "null".into(), |x| format!("{x:.2}"));
    let mut json = String::from("{\n");
    json.push_str(
        "  \"benchmark\": \"sim::System event throughput (crates/bench/src/simbench.rs)\",\n",
    );
    json.push_str(&format!(
        "  \"config\": \"churn: n queries through {SLOTS} admission slots, event-driven GPS; \
         scan: n concurrent queries, quantum steps; 1 worker, costs 500-1400 U\",\n"
    ));
    json.push_str("  \"metric\": \"events/sec (churn: steps + arrivals + completions) and session-updates/sec (scan)\",\n");
    json.push_str(&format!(
        "  \"methodology\": \"best of {} repetitions per scenario (MQPI_BENCH_REPS); the 1-vCPU builder's \
         kernel-noise bursts are strictly additive, so min-of-k converges on true cost. Baselines are the \
         best the pre-refactor core ever posted under the same protocol (conservative).\",\n",
        simbench::reps()
    ));
    json.push_str("  \"before\": {\n");
    json.push_str(
        "    \"implementation\": \"object-soup core: Box<dyn Job> sessions, BinaryHeap schedule, HashMap id maps\",\n",
    );
    json.push_str("    \"churn_events_per_sec\": {");
    let mut first = true;
    for (r, before, _) in &churn {
        if let Some(b) = before {
            json.push_str(&format!(
                "{}\"n_{}\": {:.0}",
                if first { " " } else { ", " },
                r.n,
                b
            ));
            first = false;
        }
    }
    json.push_str(" },\n    \"scan_updates_per_sec\": {");
    let mut first = true;
    for (r, before, _) in &scan {
        if let Some(b) = before {
            json.push_str(&format!(
                "{}\"n_{}\": {:.0}",
                if first { " " } else { ", " },
                r.n,
                b
            ));
            first = false;
        }
    }
    json.push_str(" }\n  },\n");
    json.push_str("  \"after\": {\n");
    json.push_str(
        "    \"implementation\": \"data-oriented core: SoA slab, interned names, calendar queue, allocation-free dispatch\",\n",
    );
    json.push_str("    \"churn_events_per_sec\": {");
    for (i, (r, _, _)) in churn.iter().enumerate() {
        json.push_str(&format!(
            "{}\"n_{}\": {:.0}",
            if i == 0 { " " } else { ", " },
            r.n,
            r.events_per_sec
        ));
    }
    json.push_str(" },\n    \"scan_updates_per_sec\": {");
    for (i, (r, _, _)) in scan.iter().enumerate() {
        json.push_str(&format!(
            "{}\"n_{}\": {:.0}",
            if i == 0 { " " } else { ", " },
            r.n,
            r.updates_per_sec
        ));
    }
    json.push_str(" }\n  },\n");
    let churn_speedup_1e5 = churn
        .iter()
        .find(|(r, _, _)| r.n == 100_000)
        .and_then(|(_, _, s)| *s);
    let churn_speedup_1e6 = churn
        .iter()
        .find(|(r, _, _)| r.n == 1_000_000)
        .and_then(|(_, _, s)| *s);
    let completed_1e6 = churn.iter().any(|(r, _, _)| r.n == 1_000_000);
    json.push_str(&format!(
        "  \"churn_speedup_at_n_100000\": {},\n",
        field(churn_speedup_1e5)
    ));
    json.push_str(&format!(
        "  \"churn_speedup_at_n_1000000\": {},\n",
        field(churn_speedup_1e6)
    ));
    json.push_str("  \"required_speedup_at_n_100000\": 5.0,\n");
    json.push_str(&format!("  \"completes_n_1000000\": {completed_1e6}\n"));
    json.push_str("}\n");
    mqpi_ckpt::atomic_write(std::path::Path::new("BENCH_6.json"), json.as_bytes())?;
    eprintln!("# wrote BENCH_6.json");
    Ok(())
}

/// Incremental-predictor cost (`bench-pi`): amortized per-event cost of
/// delta updates vs a full `fluid::predict` rebuild per event, at
/// n = 10^4 (always), 10^5 and 10^6 (skipped under `--small`), plus the
/// PI-service serving loop. Prints per-size rows, asserts the tentpole
/// speedup floors (>= 10x at 10^4, >= 50x at 10^6), and writes
/// `BENCH_7.json`.
fn bench_pi(opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    const DELTA_EVENTS: usize = 200_000;
    let sizes: &[u64] = if opts.small {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };

    let mut rows = Vec::new();
    let mut t = TextTable::new(&[
        "n",
        "delta ns/ev",
        "p99 (us)",
        "events/sec",
        "rebuild ns/ev",
        "ratio",
    ]);
    for &n in sizes {
        // Full-rebuild events are O(n log n) each; keep the rebuild side
        // to a handful at the large sizes.
        let rebuild_events = (2_000_000 / n as usize).clamp(4, 200);
        let d = pibench::delta(n, DELTA_EVENTS)?;
        let r = pibench::rebuild(n, rebuild_events)?;
        let ratio = r.ns_per_event / d.ns_per_event;
        eprintln!(
            "# bench-pi delta n={n}: {:.0} ns/event (p99 {:.1} us, {:.0} events/sec)",
            d.ns_per_event, d.p99_us, d.events_per_sec
        );
        eprintln!(
            "# bench-pi rebuild n={n}: {:.0} ns/event ({} events)",
            r.ns_per_event, r.events
        );
        eprintln!("# bench-pi ratio n={n}: {ratio:.1}");
        t.row(vec![
            n.to_string(),
            format!("{:.0}", d.ns_per_event),
            format!("{:.1}", d.p99_us),
            format!("{:.0}", d.events_per_sec),
            format!("{:.0}", r.ns_per_event),
            format!("{ratio:.0}x"),
        ]);
        rows.push((n, d, r, ratio));
    }
    println!("== bench-pi: delta updates vs full rebuild per event ==");
    println!("{}", t.render());

    let serve = pibench::serve(2_000, 20_000)?;
    eprintln!(
        "# bench-pi serve: {:.0} cycles/sec, {:.0} pushes/sec ({} sessions)",
        serve.cycles_per_sec, serve.pushes_per_sec, serve.sessions
    );
    println!(
        "serve: {:.0} submit+advance+pump cycles/sec, {:.0} estimate pushes/sec, {} suppressed",
        serve.cycles_per_sec, serve.pushes_per_sec, serve.suppressed
    );

    // The tentpole's acceptance floors. 10^6 only runs without --small.
    for &(n, _, _, ratio) in &rows {
        let floor = match n {
            10_000 => 10.0,
            1_000_000 => 50.0,
            _ => 1.0,
        };
        if ratio < floor {
            return Err(format!(
                "bench-pi: delta/rebuild ratio {ratio:.1} at n={n} is below the {floor}x floor"
            )
            .into());
        }
    }

    type PiRow = (u64, pibench::DeltaResult, pibench::RebuildResult, f64);
    let field_of = |n: u64, f: &dyn Fn(&PiRow) -> String| {
        rows.iter()
            .find(|r| r.0 == n)
            .map_or_else(|| "null".into(), f)
    };
    let mut json = String::from("{\n");
    json.push_str(
        "  \"benchmark\": \"incremental fluid predictor: delta updates vs rebuild-per-event (crates/bench/src/pibench.rs)\",\n",
    );
    json.push_str(&format!(
        "  \"config\": \"resident population n; {DELTA_EVENTS} scripted events (arrive/finish/re-weight/refine/rate/advance) \
         applied as IncrementalFluid deltas with one O(log n) point estimate each, vs a full fluid::predict \
         over all n queries after every event; serve: 2000 subscribed sessions, submit+advance+pump cycles\",\n"
    ));
    json.push_str("  \"metric\": \"amortized ns/event, p99 per-event latency (us), events/sec, delta/rebuild ratio\",\n");
    json.push_str(&format!(
        "  \"methodology\": \"best of {} repetitions (MQPI_BENCH_REPS); every delta run ends with a bit-identity \
         audit of estimates_full against a fresh predict over the extracted live set\",\n",
        simbench::reps()
    ));
    json.push_str("  \"before\": {\n");
    json.push_str(
        "    \"implementation\": \"full predict rebuild on every scheduler event (paper SS2.3 re-estimation)\",\n",
    );
    json.push_str("    \"ns_per_event\": {");
    for (i, (n, _, r, _)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "{}\"n_{}\": {:.0}",
            if i == 0 { " " } else { ", " },
            n,
            r.ns_per_event
        ));
    }
    json.push_str(" }\n  },\n");
    json.push_str("  \"after\": {\n");
    json.push_str(
        "    \"implementation\": \"IncrementalFluid: order-statistic treap over completion virtual times, lazy rate rescaling\",\n",
    );
    json.push_str("    \"ns_per_event\": {");
    for (i, (n, d, _, _)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "{}\"n_{}\": {:.0}",
            if i == 0 { " " } else { ", " },
            n,
            d.ns_per_event
        ));
    }
    json.push_str(" },\n    \"p99_event_latency_us\": {");
    for (i, (n, d, _, _)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "{}\"n_{}\": {:.2}",
            if i == 0 { " " } else { ", " },
            n,
            d.p99_us
        ));
    }
    json.push_str(" },\n    \"events_per_sec\": {");
    for (i, (n, d, _, _)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "{}\"n_{}\": {:.0}",
            if i == 0 { " " } else { ", " },
            n,
            d.events_per_sec
        ));
    }
    json.push_str(" }\n  },\n");
    json.push_str(&format!(
        "  \"delta_speedup_at_n_10000\": {},\n",
        field_of(10_000, &|r| format!("{:.1}", r.3))
    ));
    json.push_str(&format!(
        "  \"delta_speedup_at_n_100000\": {},\n",
        field_of(100_000, &|r| format!("{:.1}", r.3))
    ));
    json.push_str(&format!(
        "  \"delta_speedup_at_n_1000000\": {},\n",
        field_of(1_000_000, &|r| format!("{:.1}", r.3))
    ));
    json.push_str("  \"required_speedup_at_n_10000\": 10.0,\n");
    json.push_str("  \"required_speedup_at_n_1000000\": 50.0,\n");
    json.push_str("  \"serve\": {\n");
    json.push_str(&format!("    \"sessions\": {},\n", serve.sessions));
    json.push_str(&format!(
        "    \"cycles_per_sec\": {:.0},\n",
        serve.cycles_per_sec
    ));
    json.push_str(&format!(
        "    \"pushes_per_sec\": {:.0},\n",
        serve.pushes_per_sec
    ));
    json.push_str(&format!("    \"suppressed\": {}\n", serve.suppressed));
    json.push_str("  }\n");
    json.push_str("}\n");
    mqpi_ckpt::atomic_write(std::path::Path::new("BENCH_7.json"), json.as_bytes())?;
    eprintln!("# wrote BENCH_7.json");
    Ok(())
}

/// Estimator-ensemble campaign (`bench-ensemble`): the standard lineup
/// with online selection and uncertainty bands, swept over system shapes
/// × fault plans. Honors `--runs`, `--seed`, `--jobs`, `--small` and
/// `--csv` (one `bench_ensemble.csv`, byte-identical at any `--jobs`).
/// Asserts the acceptance gate — calm cells within 10 % of the best
/// member, ≥ 2 fault cells strictly better than the worst member — and
/// writes `BENCH_9.json`.
fn bench_ensemble(opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    let runs = if opts.small {
        opts.runs.min(3)
    } else {
        opts.runs.min(20)
    };
    let rep = ensemble::run(runs, opts.seed, opts.jobs)?;

    let mut headers: Vec<String> = vec!["shape".into(), "plan".into()];
    for n in &rep.names {
        headers.push(format!("{n} err"));
    }
    headers.extend(
        [
            "ensemble err",
            "coverage",
            "width (s)",
            "switches",
            "scored",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = TextTable::new(&header_refs);
    for c in &rep.cells {
        let mut row = vec![c.shape.to_string(), c.plan.to_string()];
        row.extend(c.est_errs.iter().map(|&e| pct(e)));
        row.push(pct(c.ensemble_err));
        row.push(pct(c.coverage));
        row.push(f2(c.mean_width));
        row.push(c.switches.to_string());
        row.push(c.scored.to_string());
        t.row(row);
        eprintln!(
            "# bench-ensemble {}/{}: ens={:.4} best={:.4} worst={:.4} cover={:.2} switches={}",
            c.shape,
            c.plan,
            c.ensemble_err,
            c.best_member(),
            c.worst_member(),
            c.coverage,
            c.switches
        );
    }
    println!(
        "== bench-ensemble: online selection vs single estimators ({runs} runs/cell, seed {}) ==",
        opts.seed
    );
    println!("{}", t.render());
    if let Some(dir) = &opts.csv {
        let path = dir.join("bench_ensemble.csv");
        t.write_csv(&path)?;
        eprintln!("# wrote {}", path.display());
    }

    let accepted = rep.check_acceptance(0.10, 2);
    let calm_ok = rep.check_acceptance(0.10, 0).is_ok();
    let chaos_wins = rep.chaos_wins();

    let mut json = String::from("{\n");
    json.push_str(
        "  \"benchmark\": \"estimator ensemble: online selection + uncertainty bands (crates/bench/src/ensemble.rs)\",\n",
    );
    json.push_str(&format!(
        "  \"config\": \"shapes {:?} x fault plans {:?}, {} replicates/cell, seed {}, horizon {}s, \
         standard lineup with Koenig-style windowed-decayed-error selection and residual-quantile bands\",\n",
        ensemble::SHAPES,
        ensemble::PLANS,
        runs,
        opts.seed,
        ensemble::HORIZON
    ));
    json.push_str(
        "  \"metric\": \"mean winsorized relative error per estimator vs the ensemble band p50; \
         p10-p90 coverage (nominal 0.8); mean band width; selector switches\",\n",
    );
    json.push_str("  \"estimators\": [");
    for (i, n) in rep.names.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!("\"{n}\""));
    }
    json.push_str("],\n");
    json.push_str("  \"cells\": [\n");
    for (i, c) in rep.cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"shape\": \"{}\", \"plan\": \"{}\", \"errors\": [",
            c.shape, c.plan
        ));
        for (j, e) in c.est_errs.iter().enumerate() {
            if j > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!("{e:.4}"));
        }
        json.push_str(&format!(
            "], \"ensemble_error\": {:.4}, \"coverage\": {:.3}, \"mean_width_s\": {:.2}, \
             \"switches\": {}, \"resolved\": {}, \"scored\": {} }}{}\n",
            c.ensemble_err,
            c.coverage,
            c.mean_width,
            c.switches,
            c.resolved,
            c.scored,
            if i + 1 < rep.cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"acceptance\": {\n");
    json.push_str(
        "    \"calm_bound\": \"ensemble within 10% of best member on every calm cell\",\n",
    );
    json.push_str(&format!("    \"calm_ok\": {calm_ok},\n"));
    json.push_str(&format!("    \"chaos_wins\": {chaos_wins},\n"));
    json.push_str("    \"required_chaos_wins\": 2,\n");
    json.push_str(&format!("    \"passed\": {}\n", accepted.is_ok()));
    json.push_str("  }\n");
    json.push_str("}\n");
    mqpi_ckpt::atomic_write(std::path::Path::new("BENCH_9.json"), json.as_bytes())?;
    eprintln!("# wrote BENCH_9.json");

    accepted.map_err(|e| format!("bench-ensemble: {e}").into())
}

/// Deterministic PI-service campaign (`pi-serve`): replicated served
/// estimate streams digested per replicate. Honors `--seed`, `--runs`,
/// `--jobs`, `--checkpoint-dir`/`--checkpoint-every` (crash-safe
/// snapshots) and `--resume-from` (continue from snapshots after a kill).
/// Digest rows go to stdout; CI diffs them across worker counts and
/// across a SIGKILL + resume.
fn pi_serve(opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = piserve::ServeCampaign {
        seed: opts.seed,
        replicates: opts.runs.min(64),
        jobs: opts.jobs,
        ..piserve::ServeCampaign::default()
    };
    if opts.small {
        cfg.iters = 1_000;
        cfg.sessions = 24;
    }
    if let Some(dir) = &opts.checkpoint_dir {
        cfg.checkpoint_dir = Some(dir.clone());
    }
    if let Some(dir) = &opts.resume_from {
        cfg.checkpoint_dir = Some(dir.clone());
        cfg.resume = true;
    }
    if let Some(every) = opts.checkpoint_every {
        cfg.checkpoint_every = every;
    }
    if let Some(dir) = &opts.wal_dir {
        cfg.wal_dir = Some(dir.clone());
    }
    if let Some(n) = opts.wal_flush_every {
        cfg.wal_flush_every = n;
    }
    cfg.standby = opts.standby;
    let rows = piserve::run_campaign(&cfg)?;
    println!(
        "== pi-serve: {} replicates x {} iters, {} sessions ==",
        cfg.replicates, cfg.iters, cfg.sessions
    );
    for r in &rows {
        println!(
            "pi-serve rep={} seed={:016x} pushes={} digest={:016x}",
            r.rep, r.seed, r.pushes, r.digest
        );
    }
    eprintln!("# pi-serve: {} replicates clean", rows.len());
    Ok(())
}

/// Overload-hardening campaign (`pi-chaos`): scarce slots, queue
/// deadlines, the degradation ladder, the divergence breaker, hostile
/// inputs, and a hostile-event mirror barrage — digests pin all of it.
/// Honors the same `--seed`/`--runs`/`--jobs`/checkpoint flags as
/// `pi-serve`; CI diffs rows across worker counts and across a SIGKILL +
/// resume.
fn pi_chaos(opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = pichaos::ChaosCampaign {
        seed: opts.seed,
        replicates: opts.runs.min(64),
        jobs: opts.jobs,
        ..pichaos::ChaosCampaign::default()
    };
    if opts.small {
        cfg.iters = 800;
        cfg.sessions = 12;
    }
    if let Some(dir) = &opts.checkpoint_dir {
        cfg.checkpoint_dir = Some(dir.clone());
    }
    if let Some(dir) = &opts.resume_from {
        cfg.checkpoint_dir = Some(dir.clone());
        cfg.resume = true;
    }
    if let Some(every) = opts.checkpoint_every {
        cfg.checkpoint_every = every;
    }
    let rows = pichaos::run_campaign(&cfg)?;
    println!(
        "== pi-chaos: {} replicates x {} iters, {} sessions ==",
        cfg.replicates, cfg.iters, cfg.sessions
    );
    for r in &rows {
        println!(
            "pi-chaos rep={} seed={:016x} pushes={} deadlines={} tiers={} shed={} trips={} \
             sanitized={} quarantined={} digest={:016x}",
            r.rep,
            r.seed,
            r.pushes,
            r.deadlines,
            r.tier_transitions,
            r.shed,
            r.trips,
            r.sanitized,
            r.quarantined,
            r.digest
        );
    }
    eprintln!("# pi-chaos: {} replicates clean", rows.len());
    Ok(())
}

/// Durability chaos campaign (`pi-wal-chaos`): per replicate, a durable
/// run is killed at a seed-derived offset, its log tail is mutated (bit
/// flip / truncation / garbage / duplicated chunk / nothing), recovery
/// resumes from the surviving mark, and a warm standby promotes at a
/// second seed-derived failover point — every path must converge on the
/// uninterrupted reference digest bit-for-bit. Rows are a pure function
/// of the seed (jobs-independent); CI diffs them across worker counts.
fn pi_wal_chaos(opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = piwal::WalChaosCampaign {
        seed: opts.seed,
        replicates: opts.runs.min(32),
        jobs: opts.jobs,
        ..piwal::WalChaosCampaign::default()
    };
    if opts.small {
        cfg.iters = 150;
    }
    if let Some(dir) = &opts.wal_dir {
        cfg.wal_root = Some(dir.clone());
    }
    let rows = piwal::run_campaign(&cfg)?;
    println!(
        "== pi-wal-chaos: {} replicates x {} iters ==",
        cfg.replicates, cfg.iters
    );
    let mut t = TextTable::new(&[
        "rep",
        "seed",
        "kill_at",
        "mutation",
        "fail_at",
        "replayed",
        "truncated_bytes",
        "resumed_from",
        "pushes",
        "digest",
    ]);
    for r in &rows {
        println!(
            "pi-wal-chaos rep={} seed={:016x} kill_at={} mutation={} fail_at={} replayed={} \
             truncated={} resumed_from={} pushes={} digest={:016x}",
            r.rep,
            r.seed,
            r.kill_at,
            r.mutation,
            r.fail_at,
            r.replayed,
            r.truncated_bytes,
            r.resumed_from,
            r.pushes,
            r.digest
        );
        t.row(vec![
            r.rep.to_string(),
            format!("{:016x}", r.seed),
            r.kill_at.to_string(),
            r.mutation.to_string(),
            r.fail_at.to_string(),
            r.replayed.to_string(),
            r.truncated_bytes.to_string(),
            r.resumed_from.to_string(),
            r.pushes.to_string(),
            format!("{:016x}", r.digest),
        ]);
    }
    if let Some(dir) = &opts.csv {
        std::fs::create_dir_all(dir)?;
        t.write_csv(&dir.join("pi-wal-chaos.csv"))?;
    }
    eprintln!("# pi-wal-chaos: {} replicates clean", rows.len());
    Ok(())
}
