//! Artifacts an older format version wrote are refused with a typed error.
//!
//! `fixtures/v3/` holds files written at `FORMAT_VERSION` 3, the last
//! version before the one-value configuration fields left the payloads:
//!
//! * `service.ckpt` — a `PiService` checkpoint (two slots, a deadline, the
//!   default retry policy and ladder, four subscribed queries, one pump);
//! * `wal/` — the log of a durable service (flush every record, compaction
//!   every 8) left by a crash after 51 commands: a base through record 48
//!   and a segment holding the three records past it.
//!
//! Each must fail with `VersionMismatch { found: 3, expected:
//! FORMAT_VERSION }`, not decode as garbage, panic or start fresh. Before
//! the log refused an old base, `open_durable` on `wal/` succeeded: it
//! skipped the base as damaged, counted the segment it anchors as a
//! 102-byte torn tail, deleted both and started an empty service.
//!
//! A segment carries its own layout version, `mqpi_wal::SEGMENT_VERSION`,
//! and a whole segment header with another one is refused the same way,
//! with `VersionMismatch { found, expected: SEGMENT_VERSION }`. Before
//! that, the open cut such a segment down to its header as a torn tail.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};

use mqpi_ckpt::{CkptError, FORMAT_VERSION};
use mqpi_pi::{PiConfig, PiService, Standby};
use mqpi_wal::SEGMENT_VERSION;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/v3")
        .join(name)
}

#[track_caller]
fn assert_refused<T>(what: &str, got: Result<T, CkptError>, found: u32, expected: u32) {
    match got {
        Err(CkptError::VersionMismatch {
            found: f,
            expected: e,
        }) if (f, e) == (found, expected) => {}
        Err(e) => panic!("{what}: {e}"),
        Ok(_) => panic!("{what}: a version-{found} artifact was accepted"),
    }
}

#[track_caller]
fn assert_v3<T>(what: &str, got: Result<T, CkptError>) {
    assert_refused(what, got, 3, FORMAT_VERSION);
}

/// Every file in `dir`, by name, with its bytes.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let p = e.unwrap().path();
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, fs::read(&p).unwrap())
        })
        .collect();
    out.sort();
    out
}

#[test]
fn v3_checkpoints_are_refused() {
    let bytes = fs::read(fixture("service.ckpt")).unwrap();
    assert_v3("service", PiService::restore(&bytes));
}

/// An empty directory of this test's own, under the system's temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mqpi_format_refusal_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn v3_log_is_refused_and_left_as_it_was() {
    let old = files(&fixture("wal"));
    assert_eq!(old.len(), 2, "a base and a segment");
    // Open a copy: a reader that still took the directory for damage
    // would delete the fixture.
    let dir = scratch_dir("v3");
    for (name, bytes) in &old {
        fs::write(dir.join(name), bytes).unwrap();
    }

    let cfg = PiConfig::default();
    assert_v3("open_durable", PiService::open_durable(cfg, &dir));
    assert_eq!(files(&dir), old, "open_durable changed the log");
    assert_v3(
        "open_durable_at_mark",
        PiService::open_durable_at_mark(cfg, &dir),
    );
    assert_eq!(files(&dir), old, "open_durable_at_mark changed the log");
    assert_v3("standby", Standby::new(cfg, &dir));
    assert_eq!(files(&dir), old, "the standby changed the log");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_segment_of_another_version_is_refused_and_left_as_it_was() {
    let dir = scratch_dir("segment");
    let cfg = PiConfig::default();
    {
        let (mut svc, _) = PiService::open_durable(cfg, &dir).unwrap();
        let sid = svc.register_session();
        for i in 0..5 {
            svc.submit(sid, 10.0 + f64::from(i), 1.0);
        }
        svc.wal_sync();
    }
    let (name, mut seg) = files(&dir)
        .into_iter()
        .find(|(name, _)| name.ends_with(".seg"))
        .expect("the log has a segment");
    assert!(seg.len() > 16, "the segment holds committed records");
    let found = SEGMENT_VERSION + 1;
    seg[4..8].copy_from_slice(&found.to_le_bytes());
    fs::write(dir.join(&name), &seg).unwrap();
    let old = files(&dir);

    assert_refused(
        "open_durable",
        PiService::open_durable(cfg, &dir),
        found,
        SEGMENT_VERSION,
    );
    assert_eq!(files(&dir), old, "open_durable changed the log");
    assert_refused("standby", Standby::new(cfg, &dir), found, SEGMENT_VERSION);
    assert_eq!(files(&dir), old, "the standby changed the log");
    let _ = fs::remove_dir_all(&dir);
}
