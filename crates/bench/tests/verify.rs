//! `experiments verify` on the built binary: `pi-chaos` and `--chaos` pass
//! their jobs and resume checks at a few runs, each resume check reports a
//! kill with state files left behind, and a row that declares no check is
//! refused. About 0.3 s in release and 2 s in a debug build (2 cores).

use std::process::Command;

/// Run `experiments verify <args>`; whether it passed, and its stderr.
fn verify(args: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("verify")
        .args(args.split(' '))
        .output()
        .expect("spawn experiments");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The state files the resume check's kill left behind, as it reports them.
fn files_at_the_kill(stderr: &str) -> usize {
    let (_, rest) = stderr
        .split_once("# verify resume: killed with ")
        .unwrap_or_else(|| panic!("no kill reported:\n{stderr}"));
    let n = rest.split(' ').next().unwrap_or_default();
    n.parse().unwrap_or_else(|_| panic!("bad file count {n:?}"))
}

fn assert_passed(args: &str, checks: &[&str]) {
    let (ok, stderr) = verify(args);
    assert!(ok, "verify {args} failed:\n{stderr}");
    for check in checks {
        let line = format!("# verify {check}: equal to the reference");
        assert!(
            stderr.contains(&line),
            "verify {args}: no `{line}`:\n{stderr}"
        );
    }
    assert!(
        files_at_the_kill(&stderr) > 0,
        "verify {args}: nothing to resume"
    );
}

#[test]
fn pi_chaos_passes_jobs_counters_and_resume() {
    let args = "pi-chaos --small --runs 2 --seed 21 --jobs 1 --wal-flush-every 8";
    assert_passed(args, &["jobs 4", "resume"]);
}

#[test]
fn chaos_passes_jobs_and_resume() {
    assert_passed(
        "--chaos --small --runs 1 --jobs 2",
        &["jobs 1", "jobs 4", "resume"],
    );
}

#[test]
fn a_row_without_checks_is_refused() {
    let (ok, stderr) = verify("bench-pi --small");
    assert!(
        !ok && stderr.contains("no named campaign declares a check"),
        "{stderr}"
    );
}
