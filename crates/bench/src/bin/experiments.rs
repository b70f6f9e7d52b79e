//! Regenerate every table and figure of the paper's evaluation (§5), and
//! run the seeded campaigns that verify the stack.
//!
//! `experiments --help` lists the subcommands and flags; both come from
//! [`CAMPAIGNS`], the one table this file dispatches on.
//!
//! Output is printed as text tables (the same rows/series the paper plots)
//! and optionally written as CSV, one file per figure. `--jobs N` sets the
//! worker-thread count for the Monte-Carlo drivers (default: the `MQPI_JOBS`
//! environment variable, else available parallelism; `--jobs 1` is the
//! serial path — results are bit-identical either way).
//!
//! What `--trace-out`/`--metrics-out` export, and how rerunning a killed
//! `chaos` campaign with the same `--checkpoint-dir` (or `pi-chaos` with
//! the same `--wal-dir`) resumes it to the uninterrupted report bit for
//! bit, is in EXPERIMENTS.md ("Observability exports", "Crash-safe
//! checkpoint/resume", "Served campaign"). A flag that no selected
//! campaign reads is refused. `experiments verify NAME… [flags]` runs the
//! checks the named rows declare ([`verify`](mod@verify)).

use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use mqpi_bench::report::{f2, key_values, pct, Column, TextTable};
use mqpi_bench::verify::{self, Checks, Resume};
use mqpi_bench::{
    ablations, analytic, chaos, db, ensemble, maintenance, mcq, naq, parallel, pibench, pichaos,
    piwal, scq, speedup_exp, table1, traced,
};
use mqpi_workload::{McqConfig, TpcrDb};

type Res = Result<(), Box<dyn std::error::Error>>;

/// One row of [`CAMPAIGNS`].
struct Campaign {
    /// Subcommand names; more than one when they render the same run
    /// (Figs. 3 and 4 plot one trace).
    names: &'static [&'static str],
    /// Whether `all` includes it: the paper's tables and figures, and not
    /// the robustness gates.
    in_all: bool,
    run: fn(&Ctx) -> Res,
    /// What `experiments verify` checks for it.
    checks: Checks,
}

/// What a runner is handed: the options, the database, and which names of
/// its own row were asked for.
struct Ctx<'a> {
    opts: &'a Opts,
    tpcr: &'a TpcrDb,
    names: &'static [&'static str],
    asked: Vec<bool>,
}

const ALL: &str = "all";
const CHAOS: &str = "chaos";
const PI_CHAOS: &str = "pi-chaos";
const PI_WAL_CHAOS: &str = "pi-wal-chaos";
const VERIFY: &str = "verify";

#[rustfmt::skip]
const TRACE: Checks = Checks { trace: true, ..Checks::NONE };
#[rustfmt::skip]
const JOBS: Checks = Checks { jobs: true, ..Checks::NONE };
#[rustfmt::skip]
const JOBS_TRACE: Checks = Checks { jobs: true, trace: true, ..Checks::NONE };

/// Every subcommand, in the order a run prints them. Selection, the
/// unknown-name error and `--help` are all read off this table.
#[rustfmt::skip]
const CAMPAIGNS: &[Campaign] = &[
    Campaign { names: &["table1"], in_all: true, run: run_table1, checks: TRACE },
    Campaign { names: &["fig1"], in_all: true, run: run_fig1, checks: TRACE },
    Campaign { names: &["fig2"], in_all: true, run: run_fig2, checks: TRACE },
    Campaign { names: &["fig3", "fig4"], in_all: true, run: run_fig3_fig4, checks: TRACE },
    Campaign { names: &["fig5"], in_all: true, run: run_fig5, checks: TRACE },
    Campaign { names: &["fig6", "fig7"], in_all: true, run: run_fig6_fig7, checks: JOBS_TRACE },
    Campaign { names: &["fig8", "fig9"], in_all: true, run: run_fig8_fig9, checks: JOBS_TRACE },
    Campaign { names: &["fig10"], in_all: true, run: run_fig10, checks: TRACE },
    Campaign { names: &["speedup"], in_all: true, run: run_speedup, checks: JOBS_TRACE },
    Campaign { names: &["ablations"], in_all: true, run: run_ablations, checks: JOBS_TRACE },
    Campaign { names: &["fig11"], in_all: true, run: run_fig11, checks: JOBS_TRACE },
    Campaign { names: &[CHAOS], in_all: false, run: run_chaos, checks: Checks {
        resume: Some(Resume { dir_flag: "--checkpoint-dir", resumed: "resumed=" }),
        ..JOBS
    } },
    Campaign { names: &["bench-pi"], in_all: false, run: bench_pi, checks: Checks::NONE },
    Campaign { names: &[PI_CHAOS], in_all: false, run: pi_chaos, checks: Checks {
        counters: &["deadlines=", "tiers=", "trips=", "sanitized=", "quarantined="],
        resume: Some(Resume { dir_flag: "--wal-dir", resumed: "resumed from iteration " }),
        ..JOBS
    } },
    Campaign { names: &[PI_WAL_CHAOS], in_all: false, run: pi_wal_chaos, checks: JOBS },
    Campaign { names: &["bench-ensemble"], in_all: false, run: bench_ensemble, checks: JOBS },
];

fn known_names() -> impl Iterator<Item = &'static str> {
    CAMPAIGNS.iter().flat_map(|c| c.names.iter().copied())
}

impl Campaign {
    /// Which of its names the positional arguments `what` ask for.
    fn asked(&self, what: &[String]) -> Vec<bool> {
        let all = self.in_all && what.iter().any(|w| w == ALL);
        let named = |n| all || what.iter().any(|w| w == n);
        self.names.iter().map(named).collect()
    }
}

fn usage() -> String {
    format!(
        "usage: experiments [{VERIFY}] [{ALL}|{}] \
         [--runs N] [--small] [--csv DIR] [--seed S] [--jobs N] [--chaos] \
         [--trace-out FILE] [--metrics-out FILE] [--checkpoint-dir DIR] \
         [--wal-dir DIR] [--wal-flush-every N]",
        known_names().collect::<Vec<_>>().join("|")
    )
}

#[derive(Default)]
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
    wal_dir: Option<PathBuf>,
    wal_flush_every: Option<u32>,
    /// `verify`: run the named rows' checks instead of the campaigns.
    verify: bool,
}

/// The value following `flag`, parsed.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T::Err: Display,
{
    args.next()
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

/// `Ok(None)` is `--help`: the caller prints [`usage`] and exits 0.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<Opts>, String> {
    let mut opts = Opts {
        runs: 50,
        seed: 1,
        jobs: parallel::default_jobs(),
        ..Opts::default()
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--runs" => opts.runs = value(&mut args, &a)?,
            "--seed" => opts.seed = value(&mut args, &a)?,
            "--jobs" => opts.jobs = value(&mut args, &a)?,
            "--small" => opts.small = true,
            // Alias for the chaos campaign mode (same as naming it).
            "--chaos" => opts.what.push(CHAOS.into()),
            "--csv" => opts.csv = Some(value(&mut args, &a)?),
            "--trace-out" => opts.trace_out = Some(value(&mut args, &a)?),
            "--metrics-out" => opts.metrics_out = Some(value(&mut args, &a)?),
            "--checkpoint-dir" => opts.checkpoint_dir = Some(value(&mut args, &a)?),
            "--wal-dir" => opts.wal_dir = Some(value(&mut args, &a)?),
            "--wal-flush-every" => opts.wal_flush_every = Some(value(&mut args, &a)?),
            "--help" | "-h" => return Ok(None),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            VERIFY if !opts.verify => opts.verify = true,
            _ => opts.what.push(a),
        }
    }
    if opts.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    if opts.jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    for w in &opts.what {
        if w != ALL && !known_names().any(|n| n == w) {
            return Err(format!(
                "unknown experiment '{w}' (expected one of: {ALL}, {})",
                known_names().collect::<Vec<_>>().join(", ")
            ));
        }
    }
    if opts.what.is_empty() {
        opts.what.push(ALL.into());
    }
    // A flag no selected campaign reads is refused, not ignored; under
    // `verify`, by each run, which may get a state directory from it.
    if opts.verify {
        return Ok(Some(opts));
    }
    let selected = |n: &str| opts.what.iter().any(|w| w == n);
    if opts.checkpoint_dir.is_some() && !selected(CHAOS) {
        return Err("--checkpoint-dir serves only chaos".into());
    }
    if opts.wal_dir.is_some() && !selected(PI_CHAOS) && !selected(PI_WAL_CHAOS) {
        return Err("--wal-dir serves only pi-chaos and pi-wal-chaos".into());
    }
    if opts.wal_flush_every.is_some() && !(opts.wal_dir.is_some() && selected(PI_CHAOS)) {
        return Err("--wal-flush-every serves only pi-chaos --wal-dir".into());
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(args.iter().cloned()) {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let (what, done) = if opts.verify {
        ("verify", verify(&opts, args))
    } else {
        ("experiment", run(&opts))
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{what} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `verify`: the checks of the named rows ([`Campaign::checks`]), run on
/// this binary with the same arguments less the word `verify`.
fn verify(opts: &Opts, mut args: Vec<String>) -> Res {
    if let Some(i) = args.iter().position(|a| a == VERIFY) {
        args.remove(i);
    }
    let asked = |c: &&Campaign| c.asked(&opts.what).contains(&true);
    let rows: Vec<Checks> = CAMPAIGNS.iter().filter(asked).map(|c| c.checks).collect();
    Ok(verify::run(
        &std::env::current_exe()?,
        args,
        opts.jobs,
        &rows,
    )?)
}

fn run(opts: &Opts) -> Res {
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
    for c in CAMPAIGNS {
        let asked = c.asked(&opts.what);
        if asked.contains(&true) {
            let names = c.names;
            (c.run)(&Ctx {
                opts,
                tpcr,
                names,
                asked,
            })?;
        }
    }
    // Observability suite; runs whenever an output file is requested.
    if opts.trace_out.is_some() || opts.metrics_out.is_some() {
        write_observability(opts)?;
    }
    Ok(())
}

/// Print `table` under `title` and, with `--csv`, write `<file>.csv`.
fn emit_as(opts: &Opts, title: &str, file: &str, table: &TextTable) {
    println!("== {title} ==");
    println!("{}", table.render());
    if let Some(dir) = &opts.csv {
        let path = dir.join(format!("{file}.csv"));
        if let Err(e) = table.write_csv(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

impl Ctx<'_> {
    /// [`emit_as`] for the `i`th name of this row: the title is the name
    /// plus `detail`, the file is the name.
    fn emit(&self, i: usize, detail: &str, table: &TextTable) {
        let name = self.names[i];
        emit_as(self.opts, &format!("{name}{detail}"), name, table);
    }
}

/// The single- vs multi-query relative-error table of Figs. 6-9 and
/// ablations A1/A2: `row` gives a point's `(x, single, multi)`.
fn err_table<P>(x: &str, pts: &[P], row: impl Fn(&P) -> (f64, f64, f64)) -> TextTable {
    let mut t = TextTable::new(&[x, "single-query rel. err", "multi-query rel. err"]);
    for (x, single, multi) in pts.iter().map(row) {
        t.row(vec![f2(x), pct(single), pct(multi)]);
    }
    t
}

fn stage_table(stages: &[analytic::Stage]) -> TextTable {
    let mut t = TextTable::new(&["stage", "duration (s)", "finishing query"]);
    for s in stages {
        // A blocked query's stage has no finisher ([`analytic::Stage::finisher`]).
        let finisher = s.finisher.map_or_else(|| "-".into(), |q| format!("Q{q}"));
        t.row(vec![s.stage.to_string(), f2(s.duration), finisher]);
    }
    t
}

fn run_table1(cx: &Ctx) -> Res {
    let columns: &[Column<table1::DataSetRow>] = &[
        ("relation", |r| r.relation.clone()),
        ("paper tuples", |r| r.paper_tuples.clone()),
        ("paper size", |r| r.paper_size.clone()),
        ("our tuples", |r| r.ours_tuples.to_string()),
        ("our bytes", |r| r.ours_bytes.to_string()),
        ("our pages", |r| r.ours_pages.to_string()),
    ];
    cx.emit(0, "", &TextTable::of(columns, &table1::run(cx.tpcr)));
    Ok(())
}

fn run_fig1(cx: &Ctx) -> Res {
    cx.emit(0, "", &stage_table(&analytic::fig1(100.0)));
    Ok(())
}

fn run_fig2(cx: &Ctx) -> Res {
    let t = stage_table(&analytic::fig2(100.0));
    cx.emit(0, " (Q3 blocked at time 0)", &t);
    Ok(())
}

fn run_fig3_fig4(cx: &Ctx) -> Res {
    let r = mcq::run(
        cx.tpcr,
        McqConfig {
            seed: cx.opts.seed,
            rate: db::RATE,
            ..Default::default()
        },
        10.0,
    )?;
    if cx.asked[0] {
        let columns: &[Column<mcq::McqSample>] = &[
            ("time (s)", |s| f2(s.t)),
            ("actual remaining (s)", |s| f2(s.actual_remaining)),
            ("single-query est (s)", |s| f2(s.single_est)),
            ("multi-query est (s)", |s| f2(s.multi_est)),
        ];
        let t = TextTable::of(columns, &r.samples);
        let detail = format!(" (MCQ, tracked query size class {})", r.target_size);
        cx.emit(0, &detail, &t);
    }
    if cx.asked[1] {
        let columns: &[Column<mcq::McqSample>] = &[
            ("time (s)", |s| f2(s.t)),
            ("execution speed (U/s)", |s| f2(s.observed_speed)),
        ];
        let t = TextTable::of(columns, &r.samples);
        let detail = format!(" (speed increased {:.1}x over the run)", r.speed_increase);
        cx.emit(1, &detail, &t);
    }
    Ok(())
}

fn run_fig5(cx: &Ctx) -> Res {
    let r = naq::run(cx.tpcr, db::RATE, [50, 10, 20], 10.0)?;
    let columns: &[Column<naq::NaqSample>] = &[
        ("time (s)", |s| f2(s.t)),
        ("actual remaining (s)", |s| f2(s.actual_remaining)),
        ("single-query est (s)", |s| f2(s.single_est)),
        ("multi (no queue) est (s)", |s| f2(s.multi_no_queue_est)),
        ("multi (queue) est (s)", |s| f2(s.multi_queue_est)),
    ];
    let t = TextTable::of(columns, &r.samples);
    let detail = format!(
        " (NAQ; Q3 starts at {:.0}s, finishes at {:.0}s, Q1 at {:.0}s)",
        r.q3_start, r.q3_finish, r.q1_finish
    );
    cx.emit(0, &detail, &t);
    Ok(())
}

fn run_fig6_fig7(cx: &Ctx) -> Res {
    let opts = cx.opts;
    let lambdas = [0.0, 0.02, 0.04, 0.06, 0.08, 0.1, 0.15, 0.2];
    let pts = scq::run_known_lambda(cx.tpcr, &lambdas, opts.runs, opts.seed, db::RATE, opts.jobs)?;
    eprintln!("{}", verify::folds(&pts));
    if cx.asked[0] {
        let t = err_table("lambda", &pts, |p| {
            (p.true_lambda, p.last_single, p.last_multi)
        });
        cx.emit(0, " (SCQ, last finishing query)", &t);
    }
    if cx.asked[1] {
        let t = err_table("lambda", &pts, |p| {
            (p.true_lambda, p.avg_single, p.avg_multi)
        });
        cx.emit(1, " (SCQ, average over all ten queries)", &t);
    }
    Ok(())
}

fn run_fig8_fig9(cx: &Ctx) -> Res {
    let opts = cx.opts;
    let primes = [0.0, 0.01, 0.03, 0.05, 0.08, 0.12, 0.16, 0.2];
    let pts = scq::run_misestimated_lambda(
        cx.tpcr,
        0.03,
        &primes,
        opts.runs,
        opts.seed,
        db::RATE,
        opts.jobs,
    )?;
    eprintln!("{}", verify::folds(&pts));
    if cx.asked[0] {
        let t = err_table("lambda' (PI)", &pts, |p| {
            (p.pi_lambda, p.last_single, p.last_multi)
        });
        cx.emit(0, " (SCQ, lambda=0.03, last finishing query)", &t);
    }
    if cx.asked[1] {
        let t = err_table("lambda' (PI)", &pts, |p| {
            (p.pi_lambda, p.avg_single, p.avg_multi)
        });
        cx.emit(1, " (SCQ, lambda=0.03, average over all ten)", &t);
    }
    Ok(())
}

fn run_fig10(cx: &Ctx) -> Res {
    let name = cx.names[0];
    for lp in [0.04, 0.05] {
        let s = scq::run_adaptive_trace(cx.tpcr, 0.03, lp, cx.opts.seed, db::RATE, 10.0)?;
        let columns: &[Column<scq::AdaptiveSample>] = &[
            ("time (s)", |x| f2(x.t)),
            ("actual remaining (s)", |x| f2(x.actual_remaining)),
            ("multi-query est (s)", |x| f2(x.est_remaining)),
            ("lambda estimate", |x| format!("{:.4}", x.lambda_est)),
        ];
        let t = TextTable::of(columns, &s);
        let title = format!("{name} (lambda'={lp}, true lambda=0.03)");
        let file = format!("{name}_lp{}", (lp * 100.0) as u32);
        emit_as(cx.opts, &title, &file, &t);
    }
    Ok(())
}

fn run_speedup(cx: &Ctx) -> Res {
    let opts = cx.opts;
    let runs = opts.runs.clamp(1, 20);
    let r = speedup_exp::run(cx.tpcr, runs, opts.seed, db::RATE, opts.jobs)?;
    eprintln!("{}", verify::folds(&r));
    let mut t = TextTable::new(&["victim policy", "mean measured speed-up (s)"]);
    t.row(vec!["optimal (sec. 3.1)".into(), f2(r.optimal)]);
    t.row(vec!["  (predicted)".into(), f2(r.optimal_predicted)]);
    t.row(vec!["heaviest consumer".into(), f2(r.heaviest)]);
    t.row(vec!["largest remaining".into(), f2(r.largest)]);
    t.row(vec!["random".into(), f2(r.random)]);
    let detail = format!(" (single-query speed-up policies, {runs} runs)");
    cx.emit(0, &detail, &t);
    Ok(())
}

fn run_ablations(cx: &Ctx) -> Res {
    let (opts, tpcr) = (cx.opts, cx.tpcr);
    let runs = opts.runs.clamp(1, 20);
    let a1 = ablations::assumption1(
        tpcr,
        &[0.0, 0.02, 0.05, 0.1, 0.2],
        runs,
        opts.seed,
        db::RATE,
        opts.jobs,
    )?;
    let t = err_table("contention alpha", &a1, |p| {
        (p.alpha, p.single_err, p.multi_err)
    });
    let title = "ablation A1 (rate degrades with concurrency)";
    emit_as(opts, title, "ablation_a1", &t);

    let a2 = ablations::assumption2(
        &[0.25, 0.5, 1.0, 2.0, 4.0],
        runs,
        opts.seed,
        db::RATE,
        opts.jobs,
    )?;
    let t = err_table("reported-cost scale", &a2, |p| {
        (p.scale, p.single_err, p.multi_err)
    });
    let title = "ablation A2 (remaining costs mis-reported by a factor)";
    emit_as(opts, title, "ablation_a2", &t);

    let q = ablations::quantum_sensitivity(&[1.0, 4.0, 16.0, 64.0, 256.0], db::RATE, opts.seed)?;
    let mut t = TextTable::new(&["quantum (U)", "max |scheduler - fluid| (s)"]);
    for p in &q {
        t.row(vec![f2(p.quantum), format!("{:.3}", p.max_divergence)]);
    }
    let title = "ablation Q (scheduler discretization vs fluid model)";
    emit_as(opts, title, "ablation_quantum", &t);

    let ov = ablations::abort_overhead(
        tpcr,
        &[0.0, 200.0, 500.0, 1000.0],
        runs.min(8),
        opts.seed,
        db::RATE,
        opts.jobs,
    )?;
    let columns: &[Column<ablations::OverheadPoint>] = &[
        ("rollback units", |p| f2(p.overhead_units)),
        ("oblivious UW/TW", |p| pct(p.oblivious_uw)),
        ("aware UW/TW", |p| pct(p.aware_uw)),
        ("oblivious late", |p| pct(p.oblivious_late)),
        ("aware late", |p| pct(p.aware_late)),
    ];
    let t = TextTable::of(columns, &ov);
    let title = "ablation O (abort/rollback overhead in maintenance planning)";
    emit_as(opts, title, "ablation_overhead", &t);
    eprintln!("{}", verify::folds(&(a1, a2, q, ov)));
    Ok(())
}

fn run_fig11(cx: &Ctx) -> Res {
    let opts = cx.opts;
    let fracs = [0.2, 0.4, 0.6, 0.8, 1.0];
    let runs = opts.runs.clamp(1, 10);
    let pts = maintenance::run(cx.tpcr, &fracs, runs, opts.seed, db::RATE, opts.jobs)?;
    eprintln!("{}", verify::folds(&pts));
    let columns: &[Column<maintenance::MaintenancePoint>] = &[
        ("t / t_finish", |p| f2(p.t_frac)),
        ("no PI (UW/TW)", |p| pct(p.no_pi)),
        ("single-query PI", |p| pct(p.single_pi)),
        ("multi-query PI", |p| pct(p.multi_pi)),
        ("theoretical limit", |p| pct(p.oracle)),
    ];
    let t = TextTable::of(columns, &pts);
    let detail = format!(" (scheduled maintenance, {runs} runs)");
    cx.emit(0, &detail, &t);
    Ok(())
}

/// Seeded fault campaign (`chaos`, or `--chaos`): a robustness gate, not a
/// figure, so `all` skips it.
fn run_chaos(cx: &Ctx) -> Res {
    let opts = cx.opts;
    let intensities = [0.0, 2.0, 5.0, 10.0];
    let ckpt = opts.checkpoint_dir.as_ref().map(|dir| {
        let mut cfg = chaos::CheckpointCfg::new(dir);
        cfg.obs = mqpi_obs::Obs::enabled();
        cfg
    });
    let rep = chaos::run(&intensities, opts.runs, opts.seed, opts.jobs, ckpt.as_ref())?;
    eprintln!("{}", verify::folds(&rep));
    let columns: &[Column<chaos::ChaosPoint>] = &[
        ("shape", |p| p.shape.to_string()),
        ("faults/100s", |p| f2(p.intensity)),
        ("injected", |p| p.faults_injected.to_string()),
        ("skipped", |p| p.faults_skipped.to_string()),
        ("completed", |p| p.completed.to_string()),
        ("failed", |p| p.failures.to_string()),
        ("retries", |p| p.retries.to_string()),
        ("rejected", |p| p.rejected.to_string()),
        ("single rel. err", |p| pct(p.single_err)),
        ("multi rel. err", |p| pct(p.multi_err)),
        ("degraded", |p| p.degraded.to_string()),
        ("nonfinite", |p| p.nonfinite.to_string()),
        ("violations", |p| p.violations.to_string()),
    ];
    let t = TextTable::of(columns, &rep.points);
    let detail = format!(
        " ({} faults injected, {} violations, {} non-finite estimates, {} runs/cell)",
        rep.total_faults, rep.total_violations, rep.total_nonfinite, opts.runs
    );
    cx.emit(0, &detail, &t);
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
    Ok(())
}

/// Run the traced scenario suite and write its trace and/or metrics
/// exports (formats: [`traced::trace_export`], [`traced::metrics_export`];
/// the metrics file is JSON when its path ends in `.json`).
fn write_observability(opts: &Opts) -> Res {
    let runs = traced::run_all(opts.seed)?;
    let violations: u64 = runs.iter().map(|r| r.violations).sum();
    if violations > 0 {
        return Err(format!("traced scenario suite saw {violations} invariant violations").into());
    }
    if let Some(path) = &opts.trace_out {
        mqpi_ckpt::atomic_write(path, traced::trace_export(&runs, opts.seed).as_bytes())?;
        eprintln!("# wrote {}", path.display());
    }
    if let Some(path) = &opts.metrics_out {
        let json = path.extension().is_some_and(|e| e == "json");
        mqpi_ckpt::atomic_write(path, traced::metrics_export(&runs, json).as_bytes())?;
        eprintln!("# wrote {}", path.display());
    }
    Ok(())
}

/// `bench-pi`: the floor on how much cheaper a delta update is than a full
/// `fluid::predict` rebuild per event, at n = 10^4 (always), 10^5 and 10^6
/// (skipped under `--small`). The delta side is audited bit for bit
/// against `predict` before its time counts. Prints the table and fails
/// below a floor; writes no file.
fn bench_pi(cx: &Ctx) -> Res {
    const DELTA_EVENTS: usize = 200_000;
    /// `(n, least rebuild/delta ratio)`; the reference box measures over
    /// 1000x at 10^4 and over 100 000x at 10^6.
    const FLOORS: &[(u64, f64)] = &[(10_000, 10.0), (100_000, 1.0), (1_000_000, 50.0)];
    let sizes = if cx.opts.small { &FLOORS[..1] } else { FLOORS };

    let mut t = TextTable::new(&["n", "delta ns/ev", "rebuild ns/ev", "ratio", "floor"]);
    let mut below = Vec::new();
    for &(n, floor) in sizes {
        // Full-rebuild events are O(n log n) each; keep the rebuild side
        // to a handful at the large sizes.
        let rebuild_events = (2_000_000 / n as usize).clamp(4, 200);
        let delta_ns = pibench::delta(n, DELTA_EVENTS)?;
        let rebuild_ns = pibench::rebuild(n, rebuild_events)?;
        let ratio = rebuild_ns / delta_ns;
        t.row(vec![
            n.to_string(),
            format!("{delta_ns:.0}"),
            format!("{rebuild_ns:.0}"),
            format!("{ratio:.0}x"),
            format!("{floor}x"),
        ]);
        if ratio < floor {
            below.push(format!("{ratio:.1} at n={n} (floor {floor})"));
        }
    }
    let name = cx.names[0];
    println!("== {name}: delta updates vs full rebuild per event ==");
    println!("{}", t.render());
    if !below.is_empty() {
        return Err(format!("delta/rebuild ratio below its floor: {}", below.join(", ")).into());
    }
    Ok(())
}

/// Band campaign (`bench-ensemble`): the multi-query PI's uncertainty
/// bands swept over system shapes × fault plans. Honors `--runs`,
/// `--seed`, `--jobs`, `--small` and `--csv` (one `bench_ensemble.csv`,
/// byte-identical at any `--jobs`). Fails below the band floor
/// ([`ensemble::check_bands`]): coverage under 0.5 or a non-finite value
/// in any cell.
fn bench_ensemble(cx: &Ctx) -> Res {
    let opts = cx.opts;
    let runs = if opts.small {
        opts.runs.min(3)
    } else {
        opts.runs.min(20)
    };
    let cells = ensemble::run(runs, opts.seed, opts.jobs)?;
    eprintln!("{}", verify::folds(&cells));
    let columns: &[Column<ensemble::EnsembleCell>] = &[
        ("shape", |c| c.shape.to_string()),
        ("plan", |c| c.plan.to_string()),
        ("p50 err", |c| pct(c.p50_err)),
        ("coverage", |c| pct(c.coverage)),
        ("width (s)", |c| f2(c.mean_width)),
        ("scored", |c| c.scored.to_string()),
    ];
    let title = format!(
        "{}: bands around the multi-query PI ({runs} runs/cell, seed {})",
        cx.names[0], opts.seed
    );
    emit_as(
        opts,
        &title,
        "bench_ensemble",
        &TextTable::of(columns, &cells),
    );
    ensemble::check_bands(&cells).map_err(|e| format!("bench-ensemble: {e}").into())
}

/// `pi-chaos` ([`pichaos`]): one digest row per replicate on stdout, which
/// `verify` compares across worker counts and across a SIGKILL and a rerun
/// against the same `--wal-dir`. Honors `--seed`, `--runs`, `--jobs`, `--wal-dir`
/// and `--wal-flush-every`.
fn pi_chaos(cx: &Ctx) -> Res {
    let opts = cx.opts;
    let mut cfg = pichaos::ChaosCampaign {
        seed: opts.seed,
        replicates: opts.runs.min(64),
        jobs: opts.jobs,
        wal_dir: opts.wal_dir.clone(),
        ..pichaos::ChaosCampaign::default()
    };
    if opts.small {
        cfg.iters = 800;
        cfg.sessions = 12;
    }
    if let Some(n) = opts.wal_flush_every {
        cfg.wal_flush_every = n;
    }
    let rows = pichaos::run_campaign(&cfg)?;
    eprintln!("{}", verify::folds(&rows));
    println!(
        "== pi-chaos: {} replicates x {} iters, {} sessions ==",
        cfg.replicates, cfg.iters, cfg.sessions
    );
    let columns: &[Column<pichaos::ChaosRow>] = &[
        ("rep", |r| r.rep.to_string()),
        ("seed", |r| format!("{:016x}", r.seed)),
        ("pushes", |r| r.pushes.to_string()),
        ("deadlines", |r| r.deadlines.to_string()),
        ("tiers", |r| r.tier_transitions.to_string()),
        ("shed", |r| r.shed.to_string()),
        ("trips", |r| r.trips.to_string()),
        ("sanitized", |r| r.sanitized.to_string()),
        ("quarantined", |r| r.quarantined.to_string()),
        ("digest", |r| format!("{:016x}", r.digest)),
    ];
    for r in &rows {
        println!("{}", key_values(PI_CHAOS, columns, r));
    }
    eprintln!("# pi-chaos: {} replicates clean", rows.len());
    Ok(())
}

/// `pi-wal-chaos` ([`piwal`]): kill, torn tail, replay and failover per
/// replicate, every path converging on the reference digest. Rows are a
/// pure function of the seed, and so is the CSV.
fn pi_wal_chaos(cx: &Ctx) -> Res {
    let opts = cx.opts;
    let mut cfg = piwal::WalChaosCampaign {
        seed: opts.seed,
        replicates: opts.runs.min(32),
        jobs: opts.jobs,
        wal_root: opts.wal_dir.clone(),
        ..piwal::WalChaosCampaign::default()
    };
    if opts.small {
        cfg.iters = 150;
    }
    let rows = piwal::run_campaign(&cfg)?;
    eprintln!("{}", verify::folds(&rows));
    println!(
        "== pi-wal-chaos: {} replicates x {} iters ==",
        cfg.replicates, cfg.iters
    );
    let mut columns: [Column<piwal::WalChaosRow>; 10] = [
        ("rep", |r| r.rep.to_string()),
        ("seed", |r| format!("{:016x}", r.seed)),
        ("kill_at", |r| r.kill_at.to_string()),
        ("mutation", |r| r.mutation.to_string()),
        ("fail_at", |r| r.fail_at.to_string()),
        ("replayed", |r| r.replayed.to_string()),
        ("truncated", |r| r.truncated_bytes.to_string()),
        ("resumed_from", |r| r.resumed_from.to_string()),
        ("pushes", |r| r.pushes.to_string()),
        ("digest", |r| format!("{:016x}", r.digest)),
    ];
    for r in &rows {
        println!("{}", key_values(PI_WAL_CHAOS, &columns, r));
    }
    // The CSV names `truncated` in full.
    columns[6].0 = "truncated_bytes";
    let t = TextTable::of(&columns, &rows);
    if let Some(dir) = &opts.csv {
        t.write_csv(&dir.join("pi-wal-chaos.csv"))?;
    }
    eprintln!("# pi-wal-chaos: {} replicates clean", rows.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Opts>, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn names_are_unique_and_all_in_help() {
        let names: Vec<_> = known_names().collect();
        let help = usage();
        for (i, n) in names.iter().enumerate() {
            assert!(
                !names[..i].contains(n) && ![ALL, VERIFY].contains(n),
                "{n} named twice"
            );
            assert!(help.contains(&format!("|{n}")), "{n} missing from --help");
        }
        assert!(
            help.contains(&format!("[{VERIFY}]")),
            "verify missing from --help"
        );
        assert!(matches!(parse(&["--small", "--help"]), Ok(None)));
    }

    #[test]
    fn all_is_the_paper_and_never_a_gate() {
        let opts = parse(&[]).expect("no arguments").expect("not --help");
        let picked: Vec<_> = CAMPAIGNS
            .iter()
            .flat_map(|c| c.names.iter().zip(c.asked(&opts.what)))
            .filter_map(|(n, on)| on.then_some(*n))
            .collect();
        assert_eq!(
            picked.join(" "),
            "table1 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 speedup ablations fig11"
        );
    }

    #[test]
    fn unknown_name_is_refused_with_the_tables_names() {
        let err = parse(&["--small", "fig12"])
            .err()
            .expect("fig12 is not a figure");
        assert!(err.contains("'fig12'"), "{err}");
        for n in known_names() {
            assert!(err.contains(n), "{n} missing from: {err}");
        }
    }

    #[test]
    fn a_flag_no_selected_campaign_reads_is_refused() {
        // Each line ends with the flag to refuse and its value.
        for args in [
            "fig1 --small --checkpoint-dir d",
            "pi-chaos --checkpoint-dir d",
            "--chaos --small --runs 1 --wal-dir d",
            "all --wal-dir d",
            "pi-chaos --wal-flush-every 3",
            "pi-wal-chaos --wal-dir d --wal-flush-every 3",
        ] {
            let argv: Vec<_> = args.split(' ').collect();
            let flag = argv[argv.len() - 2];
            let err = parse(&argv).err();
            let err = err.unwrap_or_else(|| panic!("{args} was accepted"));
            assert!(err.contains(flag), "{args}: {err}");
        }
    }

    #[test]
    fn a_flag_a_selected_campaign_reads_is_accepted() {
        for args in [
            "--chaos --checkpoint-dir d",
            "chaos pi-chaos --checkpoint-dir d",
            "pi-chaos --wal-dir d --wal-flush-every 8",
            "pi-wal-chaos --wal-dir d",
            // `verify` gives pi-chaos its `--wal-dir`.
            "verify pi-chaos --wal-flush-every 8",
        ] {
            let argv: Vec<_> = args.split(' ').collect();
            let opts = parse(&argv).unwrap_or_else(|e| panic!("{args}: {e}"));
            assert!(opts.is_some(), "{args} is not --help");
        }
    }

    #[test]
    fn the_deleted_resume_flags_are_unknown() {
        // A rerun with the same `--checkpoint-dir` resumes; there is no
        // other resume flag, and no snapshot stride.
        for flag in ["--resume-from", "--checkpoint-every"] {
            let err = parse(&["--chaos", "--checkpoint-dir", "d", flag, "2"]).err();
            assert_eq!(err.as_deref(), Some(&*format!("unknown flag {flag}")));
        }
    }
}
