//! `mqpi-e2e`: one pipeline benchmark with a per-layer budget.
//!
//! ```text
//! mqpi-e2e --workload W --seed N --seconds S --trace 0|1   one run, one result line
//! mqpi-e2e [--seed N] [--seconds S] [--reps K]             all workloads, both ways
//! mqpi-e2e --compare a.json b.json                         two summaries, against the bounds
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics and
//! how they are meant to interact.

mod durable_churn;
mod fanout_idle;
mod journal;
mod json;
mod metrics;
mod pass;
mod runner;
mod sim_churn;
mod sql_pipeline;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use runner::{Report, RunArgs};

/// `run_seconds` of `BENCHMARK.json`, for runs that do not say.
const DEFAULT_SECONDS: f64 = 24.0;

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_workload(name: &str, args: &RunArgs) -> Result<Report, String> {
    match name {
        "sql_pipeline" => runner::run::<sql_pipeline::SqlPipeline>(args),
        "sim_churn" => runner::run::<sim_churn::SimChurn>(args),
        "fanout_idle" => runner::run::<fanout_idle::FanoutIdle>(args),
        "durable_churn" => runner::run::<durable_churn::DurableChurn>(args),
        other => Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    }
}

fn report_path(workload: &str, seed: u64, trace: bool) -> PathBuf {
    out_dir().join(format!(
        "{workload}.seed{seed}.trace{}.json",
        u8::from(trace)
    ))
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: Option<usize>,
    scale: f64,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        reps: std::env::var("MQPI_BENCH_REPS")
            .ok()
            .and_then(|v| v.parse().ok()),
        scale: 1.0,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.to_string()),
            "--seed" => cli.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => cli.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--reps" => cli.reps = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?),
            "--scale" => cli.scale = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--compare" => {
                cli.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(cli.seconds > 0.0 && cli.seconds <= 600.0 && cli.scale > 0.0 && cli.scale <= 64.0) {
        return Err("--seconds must be in (0, 600] and --scale in (0, 64]".into());
    }
    if cli.reps == Some(0) {
        return Err("--reps must be at least 1".into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("mqpi-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((a, b)) = &cli.compare {
        compare(a, b)
    } else if let Some(w) = &cli.workload {
        single(w, &cli)
    } else {
        suite(&cli)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mqpi-e2e: {e}");
            ExitCode::from(1)
        }
    }
}

/// One workload, one way: the contract's run.
fn single(workload: &str, cli: &Cli) -> Result<bool, String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        reps: cli.reps,
        scale: cli.scale,
        out_dir: out_dir(),
    };
    let report = run_workload(workload, &args)?;
    for line in &report.lines {
        println!("{line}");
    }
    let path = report_path(workload, cli.seed, cli.trace);
    std::fs::write(&path, report.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", report.result_line());
    Ok(report.correct())
}

/// What the suite and `--compare` need of one report file.
struct Loaded {
    correct: bool,
    metrics: BTreeMap<String, f64>,
    exact: BTreeMap<String, String>,
}

fn load_report(v: &json::Value) -> Result<Loaded, String> {
    let obj = |k: &str| {
        v.get(k)
            .and_then(json::Value::as_obj)
            .ok_or_else(|| format!("report has no {k:?} object"))
    };
    Ok(Loaded {
        correct: v.get("correct") == Some(&json::Value::Bool(true)),
        metrics: obj("metrics")?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
        exact: obj("exact")?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect(),
    })
}

fn read_json(path: &Path) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every workload, untraced then traced, each in a process of its own (so
/// that `peak_rss_mb` is the workload's), then every metric by name.
fn suite(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    let mut summary = Vec::new();
    for &w in WORKLOADS {
        let mut loaded = Vec::new();
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--scale", &cli.scale.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if let Some(r) = cli.reps {
                cmd.args(["--reps", &r.to_string()]);
            }
            let out = cmd
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = text.lines().collect();
            lines.pop(); // the result line; the report file says the same
            for line in lines {
                println!("[{w} trace={}] {line}", u8::from(trace));
            }
            if !out.status.success() {
                println!("[{w} trace={}] exited with {}", u8::from(trace), out.status);
                ok = false;
            }
            loaded.push(load_report(&read_json(&report_path(w, cli.seed, trace))?)?);
        }
        let (e2e, layers) = (&loaded[0], &loaded[1]);
        ok &= e2e.correct && layers.correct;
        if e2e.exact != layers.exact {
            println!("[{w}] the traced and untraced runs differ in their exact values");
            ok = false;
        }
        println!("== {w} ==");
        for (table, from) in [(END_TO_END, e2e), (PER_LAYER, layers)] {
            for d in table {
                let v = from.metrics.get(d.name).copied().unwrap_or(f64::NAN);
                println!("{:<28} {:>20.6} {}", d.name, v, d.unit);
            }
        }
        let fmt = |m: &BTreeMap<String, f64>| {
            let v: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("        {}: {v}", json::quote(k)))
                .collect();
            v.join(",\n")
        };
        let exact: Vec<String> = e2e
            .exact
            .iter()
            .map(|(k, v)| format!("        {}: {}", json::quote(k), json::quote(v)))
            .collect();
        summary.push(format!(
            "    {}: {{\n      \"end_to_end\": {{\n{}\n      }},\n      \"per_layer\": {{\n{}\n      }},\n      \
             \"exact\": {{\n{}\n      }}\n    }}",
            json::quote(w),
            fmt(&e2e.metrics),
            fmt(&layers.metrics),
            exact.join(",\n")
        ));
    }
    let path = out_dir().join(format!("summary.seed{}.json", cli.seed));
    let text = format!(
        "{{\n  \"seed\": {},\n  \"scale\": {},\n  \"seconds\": {},\n  \"claim\": null,\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        cli.seed,
        cli.scale,
        cli.seconds,
        summary.join(",\n")
    );
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("summary written to {}", path.display());
    println!("fail_ratio = 0: {ok}");
    Ok(ok)
}

/// The bound of each end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let v = read_json(&path)?;
    let list = v
        .get("end_to_end")
        .and_then(json::Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    Ok(list
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// Print each end-to-end delta of summary `b` against summary `a` next to
/// its bound, and whether the exact values agree. `true` when nothing is
/// worse than its bound and nothing exact differs.
fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let bounds = bounds()?;
    let (va, vb) = (read_json(a)?, read_json(b)?);
    let mut ok = true;
    println!(
        "{:<14} {:<12} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for &w in WORKLOADS {
        let side = |v: &json::Value, part: &str| {
            v.get("workloads")
                .and_then(|x| x.get(w))
                .and_then(|x| x.get(part))
                .and_then(json::Value::as_obj)
                .cloned()
                .ok_or_else(|| format!("summary has no {w}.{part}"))
        };
        let (ea, eb) = (side(&va, "end_to_end")?, side(&vb, "end_to_end")?);
        for d in END_TO_END {
            let get = |m: &BTreeMap<String, json::Value>| {
                m.get(d.name)
                    .and_then(json::Value::as_f64)
                    .ok_or_else(|| format!("summary has no {w}.{}", d.name))
            };
            let (x, y) = (get(&ea)?, get(&eb)?);
            let worse = if d.higher { (x - y) / x } else { (y - x) / x };
            let bound = bounds.get(d.name).copied().unwrap_or(0.0);
            let verdict = if worse > bound { "WORSE" } else { "ok" };
            ok &= worse <= bound;
            println!(
                "{w:<14} {:<12} {x:>16.6} {y:>16.6} {:>8.2}% {:>6.0}% {verdict}",
                d.name,
                worse * 100.0,
                bound * 100.0
            );
        }
        let same = side(&va, "exact")? == side(&vb, "exact")?;
        println!(
            "{w:<14} exact values and digests {}",
            if same { "identical" } else { "DIFFER" }
        );
        ok &= same;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sizes the smoke test runs at: about 1/50 of the sizes the issue
    /// names, which are four times the default.
    const SMOKE_SCALE: f64 = 0.08;

    fn smoke(workload: &str, seed: u64, trace: bool) -> Report {
        let args = RunArgs {
            seed,
            seconds: 0.0,
            trace,
            reps: Some(if trace { 1 } else { 2 }),
            scale: SMOKE_SCALE,
            out_dir: out_dir().join(format!("test-{workload}-{seed}-{}", u8::from(trace))),
        };
        std::fs::create_dir_all(&args.out_dir).unwrap();
        let report = run_workload(workload, &args).unwrap();
        let _ = std::fs::remove_dir_all(&args.out_dir);
        assert!(report.correct(), "{workload}: {:?}", report.notes);
        assert!(report.attempted > 0);
        report
    }

    fn names_in_benchmark_json(list: &str) -> Vec<String> {
        let v =
            read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")).unwrap();
        v.get(list)
            .and_then(json::Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(json::Value::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn all_workloads_pass_their_checks_and_emit_the_listed_names() {
        let ok_name = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let listed_e2e = names_in_benchmark_json("end_to_end");
        let listed_layers = names_in_benchmark_json("per_layer");
        assert_eq!(names_in_benchmark_json("workloads"), WORKLOADS);
        assert!(listed_e2e.iter().chain(&listed_layers).all(|n| ok_name(n)));
        for &w in WORKLOADS {
            let e2e = smoke(w, 1, false);
            let layers = smoke(w, 1, true);
            assert_eq!(
                e2e.exact, layers.exact,
                "{w}: traced and untraced runs differ"
            );
            let emitted: Vec<&str> = e2e.metrics.iter().map(|(d, _)| d.name).collect();
            assert_eq!(emitted, listed_e2e, "{w}");
            assert!(
                e2e.metrics.iter().all(|(_, v)| *v > 0.0),
                "{w}: an end-to-end metric is 0"
            );
            let emitted: Vec<&str> = layers.metrics.iter().map(|(d, _)| d.name).collect();
            assert_eq!(emitted, listed_layers, "{w}");
            let gap = layers
                .metrics
                .iter()
                .find(|(d, _)| d.name == "driver.budget_gap_pct")
                .unwrap()
                .1;
            assert!(gap <= 5.0, "{w}: budget gap {gap} %");
            assert!(json::parse(&e2e.result_line()).is_ok());
            assert!(json::parse(&layers.to_json()).is_ok());
        }
    }

    #[test]
    fn another_seed_also_passes() {
        for &w in WORKLOADS {
            smoke(w, 2, false);
        }
    }

    #[test]
    fn cli_rejects_what_it_does_not_know() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_cli(&args(
            "--workload sim_churn --seed 3 --seconds 10 --trace 1"
        ))
        .is_ok());
        assert!(parse_cli(&args("--trace 2")).is_err());
        assert!(parse_cli(&args("--seed")).is_err());
        assert!(parse_cli(&args("--frobnicate")).is_err());
        assert!(parse_cli(&args("--reps 0")).is_err());
    }
}
