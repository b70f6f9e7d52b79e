//! Kill-then-resume determinism for checkpointed chaos campaigns.
//!
//! A campaign that crashes mid-way (simulated via [`CheckpointCfg`]'s
//! crash hook — `experiments verify chaos` does it with a real `SIGKILL`)
//! and is then rerun against its checkpoint directory must produce a
//! report bit-identical to an uninterrupted campaign, at `--jobs 1` and
//! `--jobs 4` alike. An outcome file that was truncated, overwritten with
//! garbage, re-kinded, or version-bumped must be rejected — observably,
//! without a panic — and every replicate rerun from scratch. A directory
//! written by a campaign over other intensities must not lend its
//! outcomes to the wrong cells.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::time::{Duration, Instant};

use mqpi_bench::chaos::{self, CheckpointCfg};
use mqpi_obs::Obs;

const INTENSITIES: &[f64] = &[0.0, 5.0];
const RUNS: usize = 3;
const SEED: u64 = 2024;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mqpi_crash_resume_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn observed(dir: &PathBuf) -> CheckpointCfg {
    let mut cfg = CheckpointCfg::new(dir);
    cfg.obs = Obs::enabled();
    cfg
}

#[test]
fn killed_campaign_resumes_bit_identically_at_jobs_1_and_4() {
    let straight = chaos::run(INTENSITIES, RUNS, SEED, 1, None).unwrap();
    for jobs in [1usize, 4] {
        let dir = scratch_dir(&format!("kill{jobs}"));

        let mut crashing = CheckpointCfg::new(&dir);
        crashing.crash_after_runs = Some(5);
        let err = chaos::run(INTENSITIES, RUNS, SEED, jobs, Some(&crashing))
            .expect_err("campaign must crash");
        assert!(err.to_string().contains("simulated"), "jobs={jobs}: {err}");

        let resuming = observed(&dir);
        let resumed = chaos::run(INTENSITIES, RUNS, SEED, jobs, Some(&resuming)).unwrap();
        assert_eq!(
            format!("{straight:?}"),
            format!("{resumed:?}"),
            "jobs={jobs}: resumed campaign diverged from the uninterrupted one"
        );
        // At least the five pre-crash replicates, the crashed cell's
        // finished ones included, come back from the outcome file instead
        // of being recomputed.
        assert!(
            resuming.obs.counter("ckpt.resumed") >= 5,
            "jobs={jobs}: only {} replicates were resumed",
            resuming.obs.counter("ckpt.resumed")
        );
        assert_eq!(resuming.obs.counter("ckpt.rejected"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn unreadable_snapshots_are_rejected_observably_and_rerun() {
    let straight = chaos::run(INTENSITIES, RUNS, SEED, 1, None).unwrap();
    let replicates = (chaos::SHAPES.len() * INTENSITIES.len() * RUNS) as u64;
    let dir = scratch_dir("corrupt");

    // Populate the directory with a full, clean campaign.
    chaos::run(INTENSITIES, RUNS, SEED, 1, Some(&CheckpointCfg::new(&dir))).unwrap();
    let files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "expected one outcome file: {files:?}");
    let file = &files[0];
    let whole = std::fs::read(file).unwrap();

    // Four distinct ways for the file to be unreadable.
    let mut bumped = whole.clone(); // future version, valid CRC
    bumped[4..8].copy_from_slice(&999u32.to_le_bytes());
    let crc = mqpi_ckpt::crc32(&bumped[..bumped.len() - 4]);
    let n = bumped.len();
    bumped[n - 4..].copy_from_slice(&crc.to_le_bytes());
    let damaged = [
        ("truncated", whole[..whole.len() / 2].to_vec()),
        ("garbage", b"not a checkpoint at all".to_vec()),
        (
            "re-kinded",
            mqpi_ckpt::encode_container("other-kind", b"payload"),
        ),
        ("version-bumped", bumped),
    ];
    for (how, bytes) in damaged {
        std::fs::write(file, bytes).unwrap();
        let resuming = observed(&dir);
        let resumed = chaos::run(INTENSITIES, RUNS, SEED, 1, Some(&resuming)).unwrap();
        assert_eq!(
            format!("{straight:?}"),
            format!("{resumed:?}"),
            "{how}: campaign with a rejected file diverged from the uninterrupted one"
        );
        assert_eq!(resuming.obs.counter("ckpt.rejected"), 1, "{how}");
        assert_eq!(resuming.obs.counter("ckpt.resumed"), 0, "{how}");
        assert_eq!(resuming.obs.counter("ckpt.saved"), replicates, "{how}");
        assert!(
            resuming.obs.render_trace().contains("ckpt action=rejected"),
            "{how}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A temp file a kill left mid-write is swept on load, and the published
/// file beside it still resumes every replicate.
#[test]
fn a_stray_temp_file_is_swept_on_load() {
    let dir = scratch_dir("tmp");
    chaos::run(&[5.0], 1, SEED, 1, Some(&CheckpointCfg::new(&dir))).unwrap();
    let stray = dir.join("outcomes.ckpt.tmp");
    std::fs::write(&stray, b"half a write").unwrap();
    let resuming = observed(&dir);
    chaos::run(&[5.0], 1, SEED, 1, Some(&resuming)).unwrap();
    assert!(!stray.exists(), "the stray temp file survived the load");
    assert_eq!(
        resuming.obs.counter("ckpt.resumed"),
        chaos::SHAPES.len() as u64
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeds follow the cell's position in the intensity list, so the same
/// seed names another (shape, intensity) pair in a campaign over another
/// list. Outcomes are keyed by all three: a directory reused with a
/// shorter list resumes nothing that belongs to another cell.
#[test]
fn a_directory_reused_with_other_intensities_reports_the_right_cells() {
    let straight = chaos::run(&[5.0], 2, 3, 1, None).unwrap();
    let dir = scratch_dir("reuse");
    chaos::run(&[0.0, 5.0], 2, 3, 1, Some(&CheckpointCfg::new(&dir))).unwrap();
    let reused = chaos::run(&[5.0], 2, 3, 1, Some(&CheckpointCfg::new(&dir))).unwrap();
    assert_eq!(
        format!("{straight:?}"),
        format!("{reused:?}"),
        "a reused directory changed the report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Fuzz-style corpus against `PiService::restore`: hundreds of seeded
/// random mutations of a real mid-overload checkpoint — bit flips,
/// truncations, span overwrites, header/length corruption, trailing
/// junk — must every one come back as a typed `CkptError`, never a panic
/// and never a silently-accepted corrupted service. (The mutation stream
/// is seed-derived, so a CRC collision would fail deterministically, not
/// flakily.)
#[test]
fn pi_service_restore_survives_mutation_corpus() {
    use mqpi_pi::{BreakerConfig, LadderConfig, PiConfig, PiService};
    use mqpi_sim::RetryPolicy;

    // A service with every overload feature armed and real traffic, so
    // the checkpoint exercises the full extended layout (queue deadlines,
    // backoff list, ladder tier, breaker schedule).
    let mut svc = PiService::new(PiConfig {
        rate: 200.0,
        epsilon: 0.05,
        slots: Some(4),
        queue_deadline: Some(0.3),
        retry: RetryPolicy {
            base_delay: 0.2,
            max_delay: 1.0,
            max_attempts: 2,
        },
        ladder: Some(LadderConfig::default()),
        breaker: Some(BreakerConfig::default()),
        ..PiConfig::default()
    });
    let sid = svc.register_session();
    for i in 0..40u64 {
        svc.submit(sid, 10.0 + (i * 7 % 50) as f64, 1.0 + (i % 4) as f64);
        svc.advance(0.05);
    }
    let clean = svc.checkpoint();
    assert!(
        PiService::restore(&clean).is_ok(),
        "clean checkpoint must restore"
    );

    let mut rejected = 0u32;
    for case in 0..300u64 {
        let r = splitmix64(0xC0FF_EE00 ^ case);
        let mut bytes = clean.clone();
        match case % 5 {
            0 => {
                // Single bit flip anywhere.
                let pos = (r as usize) % bytes.len();
                bytes[pos] ^= 1 << ((r >> 32) % 8);
            }
            1 => {
                // Truncation to a random prefix.
                bytes.truncate((r as usize) % bytes.len());
            }
            2 => {
                // Random 8-byte span overwrite.
                let pos = (r as usize) % bytes.len().saturating_sub(8).max(1);
                let junk = splitmix64(r).to_le_bytes();
                let end = (pos + 8).min(bytes.len());
                bytes[pos..end].copy_from_slice(&junk[..end - pos]);
            }
            3 => {
                // Header / length-field corruption near the front.
                let pos = (r as usize) % 16.min(bytes.len());
                bytes[pos] = bytes[pos].wrapping_add(1 + (r >> 32) as u8 % 254);
            }
            _ => {
                // Trailing junk past the CRC.
                bytes.extend_from_slice(&splitmix64(r).to_le_bytes());
            }
        }
        if bytes == clean {
            continue; // mutation was a no-op; nothing to assert
        }
        let started = Instant::now();
        match PiService::restore(&bytes) {
            Err(_) => rejected += 1,
            Ok(mut survivor) => {
                // A mutation that still decodes must at least yield a
                // usable, invariant-respecting service (CRC collision —
                // not reachable with this seed, but never a panic).
                survivor.advance(0.01);
                let mut out = Vec::new();
                survivor.pump(&mut out);
            }
        }
        // A hostile length must be refused where the container's bytes
        // run out, not after work in proportion to what it claims.
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "case {case} took {:?}",
            started.elapsed()
        );
    }
    assert_eq!(rejected, 300, "every corrupted checkpoint must be rejected");
}
