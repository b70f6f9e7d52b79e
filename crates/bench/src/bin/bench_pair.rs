//! `bench-pair`: the benchmark's paired-run protocol, in code.
//!
//! ```text
//! bench-pair A B [--seeds N,..] [--pairs K] [--scale F] [--reps R] [--out FILE]
//! ```
//!
//! `A` (the parent) and `B` (the change) are two built `mqpi-e2e` binaries
//! (`benchmark/`). For every workload and seed the two run `K` times each,
//! alternately, and the side that runs first swaps from one pair to the
//! next. Each run is `--workload W --seed N --trace 0` (plus `--scale` and
//! `--reps` when given), so the benchmark's own default sets its length;
//! its stdout is parsed: the result line (the last) and the `exact …` lines.
//!
//! The JSON report gives, per workload and end-to-end metric (the
//! benchmark's `END_TO_END` table, with the bounds of `BENCHMARK.json`):
//! every run's value, each side's median and quartiles, the median and
//! range of the pair ratios B/A, how many pairs B won (ties count for
//! neither), whether the gain rule holds (B wins at least nine pairs in ten
//! and its median differs from A's by more than the distance between A's
//! quartiles), and whether the metric is unresolved: A's quartile distance
//! is wider than the bound (as a share of A's median), so a median inside
//! the bound tells nothing, and B does not settle it by beating every A run
//! in every run. Per workload it gives the `failed` counts and whether every
//! run's `exact` lines equal the first run's of that seed. The verdict is
//! `worse` when a median is worse than its bound or an `exact` line
//! differs (`mqpi-e2e --compare`'s rule), else `unresolved` when a metric
//! is, else `ok`.
//!
//! Exit status: 2 on a usage error; 1 when a run cannot be started or
//! parsed, reports `failed` > 0, or an `exact` line differs; else 0. The
//! bound verdict is in the report, not in the status, so a smoke run on a
//! noisy machine fails only on what does not depend on timing.

#[path = "../../../../benchmark/src/json.rs"]
mod json;
// The benchmark's metric table; its per-layer half is not read here.
#[allow(dead_code)]
#[path = "../../../../benchmark/src/metrics.rs"]
mod metrics;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use metrics::{MetricDef, END_TO_END, WORKLOADS};

struct Cli {
    bins: [PathBuf; 2],
    seeds: Vec<u64>,
    pairs: usize,
    scale: Option<f64>,
    reps: Option<u64>,
    out: Option<PathBuf>,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut bins = Vec::new();
    let mut cli = Cli {
        bins: Default::default(),
        seeds: vec![1],
        pairs: 10,
        scale: None,
        reps: None,
        out: None,
    };
    fn list<T: std::str::FromStr>(v: &str) -> Option<Vec<T>> {
        v.split(',').map(|x| x.parse().ok()).collect()
    }
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            bins.push(PathBuf::from(arg));
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
        let bad = || format!("bad value {v:?} for {arg}");
        match arg.as_str() {
            "--seeds" => cli.seeds = list(v).ok_or_else(bad)?,
            "--pairs" => cli.pairs = v.parse().map_err(|_| bad())?,
            "--scale" => cli.scale = Some(v.parse().map_err(|_| bad())?),
            "--reps" => cli.reps = Some(v.parse().map_err(|_| bad())?),
            "--out" => cli.out = Some(PathBuf::from(v)),
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    cli.bins = <[PathBuf; 2]>::try_from(bins).map_err(|_| "give exactly two binaries, A and B")?;
    if cli.pairs == 0 || cli.seeds.is_empty() {
        return Err("--pairs and --seeds must not be empty".into());
    }
    Ok(cli)
}

/// What one run printed: the result line's `failed` and metrics, and its
/// `exact` lines.
struct Run {
    failed: u64,
    metrics: BTreeMap<String, f64>,
    exact: BTreeMap<String, String>,
}

fn parse_run(stdout: &str) -> Result<Run, String> {
    let last = stdout.lines().last().ok_or("no output")?;
    let v = json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let failed = v
        .get("failed")
        .and_then(json::Value::as_f64)
        .ok_or("result line has no \"failed\"")?;
    let correct = matches!(v.get("correct"), Some(json::Value::Bool(true)));
    let metrics = v
        .get("metrics")
        .and_then(json::Value::as_obj)
        .ok_or("result line has no \"metrics\"")?
        .iter()
        .map(|(k, m)| {
            let x = m.get("value").and_then(json::Value::as_f64);
            x.map(|x| (k.clone(), x))
                .ok_or(format!("metric {k} has no value"))
        })
        .collect::<Result<_, _>>()?;
    let exact = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("exact "))
        .map(|l| {
            let (k, v) = l.split_once(" = ").ok_or(format!("bad exact line {l:?}"))?;
            Ok((k.to_string(), v.to_string()))
        })
        .collect::<Result<_, String>>()?;
    Ok(Run {
        // A run that says it is not correct counts as failed whatever its
        // count reads.
        failed: if correct {
            failed as u64
        } else {
            (failed as u64).max(1)
        },
        metrics,
        exact,
    })
}

fn run(bin: &Path, workload: &str, seed: u64, cli: &Cli) -> Result<Run, String> {
    let mut cmd = Command::new(bin);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", "0"]);
    if let Some(s) = cli.scale {
        cmd.args(["--scale", &s.to_string()]);
    }
    if let Some(r) = cli.reps {
        cmd.args(["--reps", &r.to_string()]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    parse_run(&String::from_utf8_lossy(&out.stdout))
        .map_err(|e| format!("{} {workload} seed {seed}: {e}", bin.display()))
}

/// The bound of each end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = json::parse(&text)?
        .get("end_to_end")
        .and_then(json::Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    Ok(list)
}

/// The `q`-quantile of `xs`, interpolated linearly between order statistics.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn nums(xs: &[f64]) -> String {
    let v: Vec<String> = xs.iter().map(|x| num(*x)).collect();
    format!("[{}]", v.join(", "))
}

fn side(xs: &[f64]) -> String {
    format!(
        "{{\"median\": {}, \"q1\": {}, \"q3\": {}, \"runs\": {}}}",
        num(quantile(xs, 0.5)),
        num(quantile(xs, 0.25)),
        num(quantile(xs, 0.75)),
        nums(xs)
    )
}

/// How one metric of one workload reads over its pairs, from best to
/// worst: a verdict is the maximum of its readings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Reading {
    /// B's median is inside the bound and A's runs are tight enough to say so.
    Ok,
    /// B's median is inside the bound, but A's quartile distance is wider
    /// than the bound, and B does not beat every A run in every run.
    Unresolved,
    /// B's median is worse than A's by more than the bound.
    Worse,
}

impl Reading {
    fn name(self) -> &'static str {
        match self {
            Reading::Ok => "ok",
            Reading::Worse => "worse",
            Reading::Unresolved => "unresolved",
        }
    }
}

/// One metric of one workload over its pairs: the report object and how
/// it reads against the bound.
fn metric_report(m: &MetricDef, bound: f64, a: &[f64], b: &[f64]) -> (String, Reading) {
    let ratios: Vec<f64> = a.iter().zip(b).map(|(x, y)| y / x).collect();
    let better = |x: f64, y: f64| if m.higher { y > x } else { y < x };
    let wins = a.iter().zip(b).filter(|(x, y)| better(**x, **y)).count();
    let (ma, mb) = (quantile(a, 0.5), quantile(b, 0.5));
    let worse = if m.higher {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let within = worse <= bound;
    let spread = quantile(a, 0.75) - quantile(a, 0.25);
    let b_beats_all = b.iter().all(|y| a.iter().all(|x| better(*x, *y)));
    let unresolved = spread / ma > bound && !b_beats_all;
    let gain = wins * 10 >= 9 * a.len() && -worse * ma > spread;
    let reading = match (within, unresolved) {
        (false, _) => Reading::Worse,
        (true, true) => Reading::Unresolved,
        (true, false) => Reading::Ok,
    };
    let text = format!(
        "{{\"unit\": {}, \"better\": \"{}\", \"bound\": {bound}, \"a\": {}, \"b\": {}, \
         \"ratio\": {{\"median\": {}, \"min\": {}, \"max\": {}}}, \"wins\": {wins}, \
         \"pairs\": {}, \"worse_by\": {}, \"within_bound\": {within}, \
         \"a_spread\": {}, \"unresolved\": {unresolved}, \"gain\": {gain}}}",
        json::quote(m.unit),
        if m.higher { "higher" } else { "lower" },
        side(a),
        side(b),
        num(quantile(&ratios, 0.5)),
        num(quantile(&ratios, 0.0)),
        num(quantile(&ratios, 1.0)),
        a.len(),
        num(worse),
        num(spread / ma),
    );
    (text, reading)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("bench-pair: {e}");
            return ExitCode::from(2);
        }
    };
    match pair(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench-pair: {e}");
            ExitCode::from(1)
        }
    }
}

/// Run every pair, write the report, and say whether every run parsed,
/// none failed and every `exact` line matched.
fn pair(cli: &Cli) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut clean = true;
    // The worst reading of any metric; `Worse` on an `exact` mismatch.
    let mut verdict = Reading::Ok;
    let mut order = 0usize;
    let mut sections = Vec::new();
    for w in WORKLOADS {
        // Per side: each run's metrics, in pair order.
        let mut runs: [Vec<BTreeMap<String, f64>>; 2] = Default::default();
        let mut failed = [0u64; 2];
        let mut exact_match = true;
        for &seed in &cli.seeds {
            let mut reference: Option<BTreeMap<String, String>> = None;
            for _ in 0..cli.pairs {
                let first = order % 2;
                order += 1;
                for s in [first, 1 - first] {
                    let r = run(&cli.bins[s], w, seed, cli)?;
                    eprintln!(
                        "bench-pair: {w} seed {seed} {}: {:?}",
                        ["A", "B"][s],
                        r.metrics
                    );
                    failed[s] += r.failed;
                    let reference = reference.get_or_insert_with(|| r.exact.clone());
                    if *reference != r.exact {
                        eprintln!("bench-pair: {w} seed {seed}: exact lines differ");
                        exact_match = false;
                    }
                    runs[s].push(r.metrics);
                }
            }
        }
        clean &= exact_match && failed == [0, 0];
        let mut parts = Vec::new();
        for m in END_TO_END {
            let bound = *bounds
                .get(m.name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", m.name))?;
            let col = |s: usize| -> Result<Vec<f64>, String> {
                runs[s]
                    .iter()
                    .map(|r| r.get(m.name).copied())
                    .collect::<Option<_>>()
                    .ok_or_else(|| format!("{w}: a run did not report {}", m.name))
            };
            let (text, reading) = metric_report(m, bound, &col(0)?, &col(1)?);
            verdict = verdict.max(reading);
            parts.push(format!("        {}: {text}", json::quote(m.name)));
        }
        if !exact_match {
            verdict = Reading::Worse;
        }
        sections.push(format!(
            "    {}: {{\n      \"failed\": {{\"a\": {}, \"b\": {}}},\n      \
             \"exact_match\": {exact_match},\n      \"metrics\": {{\n{}\n      }}\n    }}",
            json::quote(w),
            failed[0],
            failed[1],
            parts.join(",\n")
        ));
    }
    let seeds: Vec<String> = cli.seeds.iter().map(u64::to_string).collect();
    let report = format!(
        "{{\n  \"a\": {},\n  \"b\": {},\n  \"seeds\": [{}],\n  \"pairs_per_seed\": {},\n  \
         \"scale\": {},\n  \"reps\": {},\n  \
         \"verdict\": \"{}\",\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        json::quote(&cli.bins[0].display().to_string()),
        json::quote(&cli.bins[1].display().to_string()),
        seeds.join(", "),
        cli.pairs,
        cli.scale.map_or("null".into(), num),
        cli.reps.map_or("null".into(), |r| r.to_string()),
        verdict.name(),
        sections.join(",\n")
    );
    match &cli.out {
        Some(path) => {
            std::fs::write(path, &report).map_err(|e| format!("{}: {e}", path.display()))?
        }
        None => print!("{report}"),
    }
    eprintln!(
        "bench-pair: verdict {}; runs {}",
        verdict.name(),
        if clean {
            "clean"
        } else {
            "FAILED or exact lines differ"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STDOUT: &str = "setup_s = 0.5 s (median of 3 set-ups)\n\
        exact engine_units = 2128249\n\
        exact push_digest = 10116149849133402622\n\
        sql_pipeline: seed 1, scale 1, 20 passes in 24.0 s (21 attempted, 0 failed)\n\
        {\"correct\": true, \"attempted\": 21, \"failed\": 0, \"metrics\": \
        {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
        \"peak_rss_mb\": {\"value\": 41.9, \"unit\": \"MiB\"}}}\n";

    #[test]
    fn parses_the_result_line_and_the_exact_lines() {
        let r = parse_run(STDOUT).unwrap();
        assert_eq!(r.failed, 0);
        assert_eq!(r.metrics["peak_rss_mb"], 41.9);
        assert_eq!(r.exact["engine_units"], "2128249");
        assert_eq!(r.exact.len(), 2);
        let wrong = STDOUT.replace("\"correct\": true", "\"correct\": false");
        assert_eq!(parse_run(&wrong).unwrap().failed, 1);
        assert!(parse_run("exact a = 1\nnot json\n").is_err());
        assert!(parse_run("").is_err());
    }

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn reports_wins_ratios_and_the_bound() {
        let m = def("peak_rss_mb");
        assert!(!m.higher);
        let a = [42.0, 41.8, 42.2, 41.9];
        let b = [37.0, 37.2, 36.9, 42.5];
        let (text, reading) = metric_report(m, 0.15, &a, &b);
        assert_eq!(reading, Reading::Ok);
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("wins").and_then(json::Value::as_f64), Some(3.0));
        // Three wins in four is below nine in ten.
        assert_eq!(v.get("gain"), Some(&json::Value::Bool(false)));
        let ratio = v.get("ratio").unwrap();
        assert_eq!(
            ratio.get("max").and_then(json::Value::as_f64),
            Some(42.5 / 41.9)
        );
        let (_, reading) = metric_report(m, 0.15, &b, &a);
        assert_eq!(reading, Reading::Ok, "a 13 % rise is inside a 15 % bound");
        assert_eq!(metric_report(m, 0.05, &b, &a).1, Reading::Worse);
    }

    /// A parent whose quartiles lie further apart than the bound cannot
    /// show a median inside the bound, unless every change run beats every
    /// parent run.
    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let m = def("setup_s");
        // Quartiles 0.0115 and 0.0175 around a median of 0.0147: 41 %.
        let a = [0.0100, 0.0110, 0.0120, 0.0147, 0.0170, 0.0180, 0.0190];
        let b = [0.0150, 0.0230, 0.0246, 0.0140, 0.0150, 0.0145, 0.0150];
        let (text, reading) = metric_report(m, 0.25, &a, &b);
        assert_eq!(reading, Reading::Unresolved);
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("within_bound"), Some(&json::Value::Bool(true)));
        assert_eq!(v.get("unresolved"), Some(&json::Value::Bool(true)));
        let faster: Vec<f64> = a.iter().map(|x| x / 2.0 - 0.004).collect();
        assert_eq!(metric_report(m, 0.25, &a, &faster).1, Reading::Ok);
        assert_eq!(metric_report(m, 0.45, &a, &b).1, Reading::Ok);
        let slow: Vec<f64> = a.iter().map(|x| x * 1.5).collect();
        assert_eq!(metric_report(m, 0.25, &a, &slow).1, Reading::Worse);
        assert!(Reading::Ok < Reading::Unresolved && Reading::Unresolved < Reading::Worse);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }

    #[test]
    fn cli_needs_two_binaries() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cli = parse_cli(&args("a b --seeds 1,2 --pairs 3")).unwrap();
        assert_eq!((cli.seeds, cli.pairs), (vec![1, 2], 3));
        assert!(parse_cli(&args("a")).is_err());
        assert!(parse_cli(&args("a b c")).is_err());
        assert!(parse_cli(&args("a b --seconds 24")).is_err());
        assert!(parse_cli(&args("a b --pairs 0")).is_err());
        assert!(parse_cli(&args("a b --seeds x")).is_err());
    }
}
