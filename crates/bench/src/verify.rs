//! `experiments verify NAME… [flags]`: the checks each `CAMPAIGNS` row
//! declares, run on the binary itself.
//!
//! Every run is a child process of the binary with its own `--csv`
//! directory and, for a row that keeps state, its own state directory. The
//! reference run is the command as given; each check varies one thing and
//! requires stdout, every `--csv` file and the `# folds` lines on stderr
//! to be byte-equal to the reference's. The first mismatch fails, naming
//! the check, the file and its first differing line.
//!
//! A row with a jobs check prints one `# folds` line ([`folds`]): a digest
//! of its report at full precision. Printed tables round errors to one or
//! two decimals, so without it a fold that visits runs in another order
//! passes the jobs check unseen.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::{fs, io};

/// What `verify` checks for one row.
#[derive(Clone, Copy)]
pub struct Checks {
    /// Byte-equal at `--jobs 1` and at `--jobs 4`.
    pub jobs: bool,
    /// Byte-equal with `--trace-out` and `--metrics-out`.
    pub trace: bool,
    /// Stdout fields that must read nonzero somewhere (`deadlines=`).
    pub counters: &'static [&'static str],
    /// Byte-equal after a SIGKILL and a rerun.
    pub resume: Option<Resume>,
}

impl Checks {
    #[rustfmt::skip]
    pub const NONE: Checks = Checks { jobs: false, trace: false, counters: &[], resume: None };
}

/// How a row keeps state across a crash.
#[derive(Clone, Copy)]
pub struct Resume {
    /// The flag naming its state directory.
    pub dir_flag: &'static str,
    /// A stderr field the rerun prints nonzero when it picked up a partial
    /// state, so that a resume that ignores its state fails.
    pub resumed: &'static str,
}

/// A run's stdout (as `stdout`), its `# folds` lines (as [`FOLDS_FILE`])
/// and `--csv` files, by name.
type Files = BTreeMap<String, Vec<u8>>;

/// How a fold digest line starts on stderr.
const FOLDS: &str = "# folds ";
/// The name the `# folds` lines compare under.
const FOLDS_FILE: &str = "stderr # folds";

/// The stderr line a row with a jobs check prints once per run: FNV-1a
/// over `report`'s `Debug` text, whose `f64`s print round-trip exact.
pub fn folds(report: &impl std::fmt::Debug) -> String {
    let text = format!("{report:?}");
    let h = crate::campaign::fnv_fold(crate::campaign::FNV_OFFSET, text.as_bytes());
    format!("{FOLDS}{h:016x}")
}

/// The `# folds` lines of `stderr`, in order.
fn folds_lines(stderr: &str) -> Vec<u8> {
    let lines: Vec<&str> = stderr.lines().filter(|l| l.starts_with(FOLDS)).collect();
    lines.join("\n").into_bytes()
}

/// Run every check of `rows` on `exe args`, where `args` parse and resolve
/// `--jobs` to `jobs`. A `--csv DIR` in `args` receives the reference run's
/// CSVs.
pub fn run(exe: &Path, mut args: Vec<String>, jobs: usize, rows: &[Checks]) -> Result<(), String> {
    let at = args.iter().position(|a| a == "--csv");
    let csv = at.and_then(|i| args.drain(i..i + 2).nth(1));
    let trace = rows.iter().any(|c| c.trace);
    let mut resumes = rows.iter().filter_map(|c| c.resume);
    let resume = resumes.next();
    if resumes.next().is_some() {
        return Err("name at most one campaign that keeps state".into());
    }
    let own = [
        Some("--trace-out"),
        Some("--metrics-out"),
        resume.map(|r| r.dir_flag),
    ];
    if let Some(flag) = own
        .into_iter()
        .flatten()
        .find(|f| args.iter().any(|a| a == f))
    {
        return Err(format!("verify gives its runs their own {flag}"));
    }
    if !trace && resume.is_none() && rows.iter().all(|c| !c.jobs && c.counters.is_empty()) {
        return Err("no named campaign declares a check".into());
    }
    let root = std::env::temp_dir().join(format!("mqpi-verify-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    // Run `label` writes to `root/label/csv` (or `csv`) and `root/label/state`.
    let command = |label: &str, csv: Option<&str>, extra: &[&str]| {
        let dir = root.join(label);
        let csv = csv.map_or_else(|| dir.join("csv"), PathBuf::from);
        fs::create_dir_all(&csv).map_err(|e| format!("{}: {e}", csv.display()))?;
        let mut c = Command::new(exe);
        c.args(&args).arg("--csv").arg(&csv);
        c.args(extra).stdin(Stdio::null());
        if let Some(r) = resume {
            c.arg(r.dir_flag).arg(dir.join("state"));
        }
        Ok::<_, String>((c, csv))
    };
    let checked = (|| {
        // The run's files and stderr; `Err` unless it exits 0.
        let output = |label: &str, csv: Option<&str>, extra: &[&str]| {
            let (mut c, csv) = command(label, csv, extra)?;
            let out = c.output().map_err(|e| format!("{label}: {e}"))?;
            let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
            if !out.status.success() {
                return Err(format!("{label} run: {}\n{stderr}", out.status));
            }
            let mut files = contents(&csv)?;
            files.insert("stdout".into(), out.stdout);
            files.insert(FOLDS_FILE.into(), folds_lines(&stderr));
            Ok((files, stderr))
        };
        let reference = output("reference", csv.as_deref(), &[])?.0;
        let stdout = String::from_utf8_lossy(&reference["stdout"]);
        let mut counters = rows.iter().flat_map(|c| c.counters);
        if let Some(f) = counters.find(|f| !nonzero(&stdout, f)) {
            return Err(format!("counters: no nonzero {f} in stdout"));
        }
        let (want, got) = (
            rows.iter().filter(|c| c.jobs).count(),
            String::from_utf8_lossy(&reference[FOLDS_FILE])
                .lines()
                .count(),
        );
        if got != want {
            return Err(format!(
                "jobs: {got} `{}` lines on stderr for {want} rows with a jobs check",
                FOLDS.trim_end()
            ));
        }
        // The run's stderr, when its files equal the reference's.
        let check = |label: &str, extra: &[&str]| {
            let (files, stderr) = output(label, None, extra)?;
            compare(&reference, &files).map_err(|e| format!("{label}: {e}"))?;
            eprintln!("# verify {label}: equal to the reference");
            Ok::<_, String>(stderr)
        };
        for j in [1, 4].into_iter().filter(|&j| j != jobs) {
            if rows.iter().any(|c| c.jobs) {
                check(&format!("jobs {j}"), &["--jobs", &j.to_string()])?;
            }
        }
        if trace {
            let (t, m) = (root.join("scenarios.trace"), root.join("metrics.csv"));
            let (t, m) = (t.to_string_lossy(), m.to_string_lossy());
            check("trace", &["--trace-out", &t, "--metrics-out", &m])?;
        }
        if let Some(r) = resume {
            let mut killed = command("resume", None, &[])?.0;
            let child = killed.stdout(Stdio::null()).stderr(Stdio::null()).spawn();
            let state = root.join("resume/state");
            let files = kill_on_progress(&mut child.map_err(|e| e.to_string())?, &state)?;
            eprintln!(
                "# verify resume: killed with {files} files in its {}",
                r.dir_flag
            );
            if !nonzero(&check("resume", &[])?, r.resumed) {
                return Err(format!("resume: no nonzero `{}` from the rerun", r.resumed));
            }
        }
        Ok(())
    })();
    let _ = fs::remove_dir_all(&root);
    checked
}

/// SIGKILL `child` once a file under `state` has been rewritten twice
/// since it was first seen nonempty, skipping files still being written
/// (`*.tmp`). A rerun then has a complete write to pick up after the one
/// that created the file: a snapshot rewritten each tick, and a log synced
/// behind its header and base alike. Returns the files left behind.
fn kill_on_progress(child: &mut Child, state: &Path) -> Result<usize, String> {
    let finished = Err("resume: the run finished before the kill".to_string());
    let mut seen: HashMap<PathBuf, (u64, u32)> = HashMap::new();
    let mut rewritten_twice = |(path, len): (PathBuf, u64)| {
        if len == 0 || path.extension().is_some_and(|e| e == "tmp") {
            return false;
        }
        let (last, writes) = seen.entry(path).or_insert((len, 0));
        *writes += u32::from(std::mem::replace(last, len) != len);
        *writes >= 2
    };
    while !files_under(state).into_iter().any(&mut rewritten_twice) {
        if child.try_wait().map_err(|e| e.to_string())?.is_some() {
            return finished;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let _ = child.kill();
    // No exit code: ended by a signal, ours.
    if child.wait().map_err(|e| e.to_string())?.code().is_some() {
        return finished;
    }
    Ok(files_under(state).len())
}

/// Every regular file under `path`, with its length.
fn files_under(path: &Path) -> Vec<(PathBuf, u64)> {
    match fs::read_dir(path) {
        Ok(dir) => dir.flatten().flat_map(|e| files_under(&e.path())).collect(),
        Err(_) => fs::metadata(path).map_or(vec![], |m| vec![(path.to_path_buf(), m.len())]),
    }
}

/// Whether `field` is followed by a nonzero number somewhere in `text`.
fn nonzero(text: &str, field: &str) -> bool {
    let digit = |c| ('1'..='9').contains(&c);
    text.match_indices(field)
        .any(|(i, _)| text[i + field.len()..].starts_with(digit))
}

/// The files of `dir`, by name.
fn contents(dir: &Path) -> Result<Files, String> {
    let read = |e: io::Result<fs::DirEntry>| {
        let e = e?;
        let name = e.file_name().to_string_lossy().into_owned();
        Ok((name, fs::read(e.path())?))
    };
    let files = fs::read_dir(dir).and_then(|d| d.map(read).collect::<io::Result<_>>());
    files.map_err(|e| format!("{}: {e}", dir.display()))
}

/// `Ok` when `run` holds what `reference` holds, byte for byte; `Err` names
/// the first file that differs and its first differing line.
fn compare(reference: &Files, run: &Files) -> Result<(), String> {
    if let Some(f) = run.keys().find(|f| !reference.contains_key(*f)) {
        return Err(format!("{f}: not in the reference"));
    }
    fn lines(b: &[u8]) -> impl Iterator<Item = std::borrow::Cow<'_, str>> {
        b.split(|&c| c == b'\n').map(String::from_utf8_lossy)
    }
    for (f, want) in reference {
        let got = run
            .get(f)
            .ok_or_else(|| format!("{f}: missing from this run"))?;
        if want != got {
            let n = lines(want)
                .zip(lines(got))
                .take_while(|(x, y)| x == y)
                .count();
            let line = |b| lines(b).nth(n).unwrap_or("<end>".into());
            let (a, b) = (line(want), line(got));
            return Err(format!(
                "{f} line {}\n  reference: {a}\n  this run:  {b}",
                n + 1
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(stdout: &str, csv: &[(&str, &str)]) -> Files {
        let mut f: Files = csv
            .iter()
            .map(|(n, b)| (n.to_string(), b.as_bytes().to_vec()))
            .collect();
        f.insert("stdout".into(), stdout.as_bytes().to_vec());
        f
    }

    #[test]
    fn a_changed_byte_a_missing_and_an_extra_file_each_fail_and_name_the_file() {
        let csv = [("a.csv", "x,y\n1,2\n"), ("b.csv", "z\n")];
        let reference = files("out\n", &csv);
        assert_eq!(compare(&reference, &files("out\n", &csv)), Ok(()));
        let cases = [
            (files("out\n", &[csv[0], ("b.csv", "y\n")]), "b.csv line 1"),
            (
                files("out\n", &[("a.csv", "x,y\n1,3\n"), csv[1]]),
                "a.csv line 2",
            ),
            (files("out\n", &csv[..1]), "b.csv: missing from this run"),
            (
                files("out\n", &[csv[0], csv[1], ("c.csv", "")]),
                "c.csv: not in the reference",
            ),
            (files("out", &csv), "stdout line 2"),
        ];
        for (run, named) in cases {
            let err = compare(&reference, &run).expect_err(named);
            assert!(err.starts_with(named), "{named}: {err}");
        }
    }

    #[test]
    fn a_directory_reads_as_its_files() {
        let dir = std::env::temp_dir().join(format!("mqpi-verify-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("a.csv"), "x\n").unwrap();
        let read = contents(&dir);
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(read, Ok(Files::from([("a.csv".into(), b"x\n".to_vec())])));
        assert!(contents(&dir).is_err(), "a missing directory is an error");
    }

    #[test]
    fn counters_are_nonzero_only_when_a_digit_1_to_9_follows() {
        let text = "rep=0 deadlines=0 trips=10 tiers=x";
        assert!(nonzero(text, "trips="));
        assert!(!nonzero(text, "deadlines="));
        assert!(!nonzero(text, "tiers="));
        assert!(!nonzero(text, "shed="));
    }
}
