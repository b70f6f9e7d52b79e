//! Golden-trace snapshot tests.
//!
//! Each scenario in the bench harness's traced suite is replayed with a
//! pinned seed, and its full observability artifact — the trace-event log
//! plus the metrics/profile CSV export — is diffed byte-for-byte against a
//! checked-in fixture in `tests/fixtures/<scenario>.trace`.
//!
//! These fixtures are the review surface for the observability layer: any
//! change to event ordering, formatting, float rendering, counter names,
//! or scenario behavior shows up as a fixture diff in the PR.
//!
//! Regenerating after an intentional change:
//!
//! ```text
//! MQPI_BLESS=1 cargo test -p mqpi-obs --test golden_traces
//! git diff crates/obs/tests/fixtures/   # review every changed line!
//! ```
//!
//! The traced runs are deterministic functions of the seed — virtual time
//! only, no wall clock, no global state — so a fixture mismatch is always
//! a real behavior or format change, never environment noise.

use std::path::PathBuf;

use mqpi_bench::traced;

/// One pinned seed for every fixture, so a scenario's fixture name alone
/// identifies the run.
const GOLDEN_SEED: u64 = 7;

fn fixture_path(scenario: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{scenario}.trace"))
}

/// Render the run as the fixture artifact: a header naming the run, the
/// event log, then the metrics/profile CSV under a `# metrics` marker.
fn artifact(run: &traced::TracedRun) -> String {
    format!(
        "# scenario={} seed={GOLDEN_SEED}\n{}# metrics\n{}",
        run.scenario, run.trace, run.metrics_csv
    )
}

fn check(scenario: &str) {
    let run = traced::run_scenario(scenario, GOLDEN_SEED).expect("scenario runs");
    assert_eq!(run.violations, 0, "{scenario}: invariant violations");
    let got = artifact(&run);
    let path = fixture_path(scenario);
    if std::env::var_os("MQPI_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with \
             MQPI_BLESS=1 cargo test -p mqpi-obs --test golden_traces",
            path.display()
        )
    });
    if got != want {
        let diff_at = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        let show = |s: &str| s.lines().nth(diff_at).unwrap_or("<eof>").to_string();
        panic!(
            "{scenario}: trace diverges from golden fixture at line {}:\n  \
             got:  {}\n  want: {}\n({} vs {} lines total) — if the change is \
             intentional, re-bless with MQPI_BLESS=1 and review the diff",
            diff_at + 1,
            show(&got),
            show(&want),
            got.lines().count(),
            want.lines().count(),
        );
    }
}

#[test]
fn golden_mcq() {
    check("mcq");
}

#[test]
fn golden_naq() {
    check("naq");
}

#[test]
fn golden_scq() {
    check("scq");
}

#[test]
fn golden_chaos() {
    check("chaos");
}

#[test]
fn golden_wlm() {
    check("wlm");
}

#[test]
fn golden_ensemble() {
    check("ensemble");
}

/// The bless path must produce exactly what the check path compares:
/// running any scenario twice yields identical artifacts.
#[test]
fn artifacts_are_reproducible() {
    for s in traced::SCENARIOS {
        let a = traced::run_scenario(s, GOLDEN_SEED).expect("first run");
        let b = traced::run_scenario(s, GOLDEN_SEED).expect("second run");
        assert_eq!(artifact(&a), artifact(&b), "{s}: artifact not reproducible");
    }
}
