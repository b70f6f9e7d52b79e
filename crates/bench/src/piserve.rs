//! Deterministic PI-service campaign (`experiments pi-serve`).
//!
//! CI's `pi-serve-smoke` job needs three properties pinned on the served
//! estimate streams, not just on internal state:
//!
//! 1. **Worker-count independence** — replicates fan out over a thread
//!    pool ([`crate::parallel::run_indexed`]); the per-replicate digest
//!    rows must be byte-identical between `--jobs 1` and `--jobs 4`.
//! 2. **Crash-safe resume** — with `--checkpoint-dir`, every replicate
//!    snapshots its full service (plus stream digest and loop position)
//!    every `--checkpoint-every` iterations via atomic temp-file +
//!    rename. A SIGKILLed campaign restarted with `--resume-from` must
//!    produce exactly the digests of an uninterrupted run.
//! 3. **Replayability** — the whole workload derives from the campaign
//!    seed; same seed, same rows, forever.
//!
//! Each replicate drives one [`PiService`] with a scripted multi-session
//! workload (submits, aborts, re-weights, rate changes, advances, pumps)
//! and folds every pushed estimate — session, query, timestamp bits,
//! estimate bits, done flag — into an FNV-1a digest. The digest is the
//! observable: if any push changes by one bit, the row changes.

use std::path::{Path, PathBuf};

use mqpi_ckpt::{Dec, Enc, Wire};
use mqpi_pi::{EstimatePush, PiConfig, PiService, Standby};
use mqpi_wal::WalKnobs;

use crate::campaign::{
    fold_push, load_snapshot, save_snapshot, snapshot_path, splitmix64, FNV_OFFSET,
};
use crate::parallel;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct ServeCampaign {
    /// Campaign seed; replicate r runs with `seed + r`.
    pub seed: u64,
    /// Number of independent replicates.
    pub replicates: usize,
    /// Workload iterations per replicate.
    pub iters: usize,
    /// Sessions per replicate service.
    pub sessions: usize,
    /// Worker threads.
    pub jobs: usize,
    /// Snapshot directory (None = no checkpointing).
    pub checkpoint_dir: Option<PathBuf>,
    /// Iterations between snapshots.
    pub checkpoint_every: usize,
    /// Load existing snapshots before running (crash resume).
    pub resume: bool,
    /// Run each replicate durably: journal every service command to a
    /// write-ahead log under `<wal_dir>/run-<seed>` and auto-resume from
    /// the log after a crash (no `--resume-from` needed — the log itself
    /// carries the driver's position). Takes precedence over the snapshot
    /// checkpointing fields above.
    pub wal_dir: Option<PathBuf>,
    /// Group-commit batch size in durable mode: iterations per fsync.
    /// A crash loses at most `wal_flush_every - 1` iterations of work;
    /// recovery always resumes from the last synced iteration boundary.
    pub wal_flush_every: u32,
    /// After each durable replicate, tail its log with a warm [`Standby`],
    /// promote it, and require the promoted replica to be state-identical
    /// (bitwise checkpoint digest) to the primary.
    pub standby: bool,
    /// Fault injection (durable mode): abort every replicate after this
    /// many iterations *without* syncing, losing whatever the group
    /// commit had buffered — a SIGKILL stand-in for tests.
    pub die_at: Option<usize>,
}

impl Default for ServeCampaign {
    fn default() -> Self {
        ServeCampaign {
            seed: 42,
            replicates: 8,
            iters: 4_000,
            sessions: 48,
            jobs: 1,
            checkpoint_dir: None,
            checkpoint_every: 500,
            resume: false,
            wal_dir: None,
            wal_flush_every: 1,
            standby: false,
            die_at: None,
        }
    }
}

/// One replicate's observable outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicateRow {
    pub rep: usize,
    pub seed: u64,
    /// Total estimate pushes the service delivered.
    pub pushes: u64,
    /// FNV-1a digest over the full push stream.
    pub digest: u64,
}

/// The scripted service configuration every replicate runs.
fn service_config(wal: Option<WalKnobs>) -> PiConfig {
    PiConfig {
        rate: 500.0,
        epsilon: 0.1,
        slots: Some(32),
        wal,
        ..PiConfig::default()
    }
}

/// One scripted workload iteration — a pure function of `(seed, i)`, so
/// the durable and snapshot paths (and any resumed incarnation) issue
/// bit-identical command streams.
fn drive_iter(
    svc: &mut PiService,
    sessions: usize,
    live: &mut Vec<u64>,
    seed: u64,
    i: usize,
    out: &mut Vec<EstimatePush>,
) {
    let r = splitmix64(seed ^ (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
    // Gen-0 session ids equal their slot index, so seed-derived slot
    // picks are valid handles for the campaign's never-closed sessions.
    let sid = r % sessions as u64;
    match r % 16 {
        0..=6 => {
            let cost = 20.0 + (splitmix64(r) % 400) as f64;
            let weight = [0.5, 1.0, 2.0, 4.0][(r >> 8) as usize % 4];
            live.push(svc.submit(sid, cost, weight));
        }
        7 if !live.is_empty() => {
            let q = live.swap_remove((r >> 16) as usize % live.len());
            svc.abort(q);
        }
        8 if !live.is_empty() => {
            let q = live[(r >> 16) as usize % live.len()];
            svc.reweight(q, [0.5, 1.0, 2.0, 4.0][(r >> 24) as usize % 4]);
        }
        9 => {
            svc.set_rate(300.0 + (r % 400) as f64);
        }
        _ => {}
    }
    svc.advance(0.01 + (r % 32) as f64 * 0.005);
    out.clear();
    svc.pump(out);
}

/// Run one replicate from `start_iter` (0 on a fresh start) to completion.
fn run_one(cfg: &ServeCampaign, rep: usize) -> Result<ReplicateRow, String> {
    let seed = cfg.seed.wrapping_add(rep as u64);
    if let Some(root) = &cfg.wal_dir {
        return run_one_durable(cfg, rep, seed, &root.join(format!("run-{seed:016x}")));
    }
    let resumed = if cfg.resume {
        if let Some(dir) = &cfg.checkpoint_dir {
            load_snapshot(&snapshot_path(dir, "run", seed))?
        } else {
            None
        }
    } else {
        None
    };
    let (start_iter, mut digest, mut live, mut svc) = match resumed {
        Some(((iter, digest, live), svc)) => (iter, digest, live, svc),
        None => {
            let mut svc = PiService::with_capacity(service_config(None), 4 * cfg.sessions);
            for _ in 0..cfg.sessions {
                svc.register_session();
            }
            (0, FNV_OFFSET, Vec::new(), svc)
        }
    };

    let mut out: Vec<EstimatePush> = Vec::with_capacity(4 * cfg.sessions);
    for i in start_iter..cfg.iters {
        drive_iter(&mut svc, cfg.sessions, &mut live, seed, i, &mut out);
        for p in &out {
            digest = fold_push(digest, p);
        }
        live.retain(|&q| !out.iter().any(|p| p.done && p.query == q));

        if let Some(dir) = &cfg.checkpoint_dir {
            if cfg.checkpoint_every > 0 && (i + 1) % cfg.checkpoint_every == 0 {
                // The durable driver's note doubles as the loop state.
                let state = Enc::wrap(note_bytes(i + 1, digest, &live));
                save_snapshot(&snapshot_path(dir, "run", seed), state, &svc)?;
            }
        }
    }
    Ok(ReplicateRow {
        rep,
        seed,
        pushes: svc.stats().pushes,
        digest,
    })
}

/// Encode the durable driver's loop state into a WAL note: journaled in
/// the same group-commit batch as the iteration's commands, so driver and
/// service always recover from one consistent frontier.
fn note_bytes(iter: usize, digest: u64, live: &[u64]) -> Vec<u8> {
    let mut e = Enc::new();
    (iter, digest).enc(&mut e);
    u64::enc_slice(live, &mut e);
    e.into_bytes()
}

fn read_note(bytes: &[u8]) -> Result<(usize, u64, Vec<u64>), String> {
    Wire::dec(&mut Dec::new(bytes)).map_err(|e| e.to_string())
}

/// Durable replicate: every command is journaled before it applies, and
/// the fsync schedule is the driver's own (`wal_flush_every` iterations
/// per group commit), so the durable frontier always lands on an
/// iteration boundary and recovery resumes exactly there. Compaction runs
/// on sync boundaries only, for the same reason.
fn run_one_durable(
    cfg: &ServeCampaign,
    rep: usize,
    seed: u64,
    dir: &Path,
) -> Result<ReplicateRow, String> {
    let knobs = WalKnobs {
        // Explicit group-commit regime: nothing hits disk until the
        // driver's own sync points, so a crash can never strand the log
        // mid-iteration.
        flush_every_n: u32::MAX,
        flush_every_vt: 1e18,
        compact_every: 0,
    };
    let pi_cfg = service_config(Some(knobs));
    // At-mark recovery: even if a torn write cut the log inside a flushed
    // batch, the restored state sits exactly on the note/mark boundary.
    let (mut svc, rec) = PiService::open_durable_at_mark(pi_cfg, dir)
        .map_err(|e| format!("wal open {}: {e}", dir.display()))?;
    let (start_iter, mut digest, mut live) = match &rec.last_note {
        Some(bytes) => {
            let resumed = read_note(bytes)?;
            eprintln!(
                "# pi-serve rep={rep}: resumed from iteration {} ({} records replayed, {} bytes truncated)",
                resumed.0, rec.replayed, rec.truncated_bytes
            );
            resumed
        }
        None => {
            // Fresh log (or a crash before the first group commit): the
            // replayed service is empty, so register the fleet now — the
            // registrations themselves are journaled.
            for _ in 0..cfg.sessions {
                svc.register_session();
            }
            (0, FNV_OFFSET, Vec::new())
        }
    };

    let sync_every = cfg.wal_flush_every.max(1) as usize;
    let mut out: Vec<EstimatePush> = Vec::with_capacity(4 * cfg.sessions);
    for i in start_iter..cfg.iters {
        drive_iter(&mut svc, cfg.sessions, &mut live, seed, i, &mut out);
        for p in &out {
            digest = fold_push(digest, p);
        }
        live.retain(|&q| !out.iter().any(|p| p.done && p.query == q));
        svc.wal_note(&note_bytes(i + 1, digest, &live));
        svc.wal_mark((i + 1) as u64, digest);
        if cfg.die_at == Some(i + 1) {
            // Simulated SIGKILL: drop the service with the group commit
            // still buffered; everything since the last sync is lost.
            return Err(format!("rep {rep}: simulated crash at iteration {}", i + 1));
        }
        if (i + 1) % sync_every == 0 {
            svc.wal_sync();
            // Periodic snapshot-anchored compaction, always on a synced
            // iteration boundary.
            if (i + 1) % (sync_every * 64) == 0 {
                svc.wal_compact_now();
            }
        }
    }
    svc.wal_sync();

    if cfg.standby {
        let primary = svc.state_digest();
        // Release the log (everything is synced) and fail over to a
        // freshly attached warm standby.
        drop(svc.detach_wal());
        let sb = Standby::new(pi_cfg, dir).map_err(|e| format!("standby: {e}"))?;
        let (promoted, _rec) = sb.promote().map_err(|e| format!("promote: {e}"))?;
        if promoted.state_digest() != primary {
            return Err(format!(
                "rep {rep}: promoted standby diverged from primary (digest {:016x} != {:016x})",
                promoted.state_digest(),
                primary
            ));
        }
        svc = promoted;
    }

    Ok(ReplicateRow {
        rep,
        seed,
        pushes: svc.stats().pushes,
        digest,
    })
}

/// Run the campaign; rows come back in replicate order regardless of
/// worker interleaving, so output is bit-identical across `--jobs`.
pub fn run_campaign(cfg: &ServeCampaign) -> Result<Vec<ReplicateRow>, String> {
    if let Some(dir) = &cfg.checkpoint_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("checkpoint dir: {e}"))?;
    }
    if let Some(dir) = &cfg.wal_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("wal dir: {e}"))?;
    }
    let results = parallel::run_indexed(cfg.jobs, cfg.replicates, |rep| run_one(cfg, rep));
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ServeCampaign {
        ServeCampaign {
            replicates: 3,
            iters: 400,
            sessions: 16,
            ..ServeCampaign::default()
        }
    }

    #[test]
    fn campaign_is_deterministic_across_jobs() {
        let mut cfg = small();
        let a = run_campaign(&cfg).expect("jobs=1");
        cfg.jobs = 4;
        let b = run_campaign(&cfg).expect("jobs=4");
        assert_eq!(a, b, "digest rows must not depend on worker count");
    }

    #[test]
    fn durable_mode_is_transparent_and_standby_promotes_identically() {
        let dir = std::env::temp_dir().join(format!("piserve-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let plain = run_campaign(&small()).expect("plain");

        let mut durable = small();
        durable.wal_dir = Some(dir.clone());
        durable.wal_flush_every = 16;
        durable.standby = true;
        let journaled = run_campaign(&durable).expect("durable");
        assert_eq!(
            plain, journaled,
            "journaling must not change the served streams"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_mode_resumes_from_the_log_after_losing_unsynced_work() {
        let dir = std::env::temp_dir().join(format!("piserve-walres-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let straight = run_campaign(&small()).expect("straight");

        // "Crash" partway: every replicate dies at iteration 250 with
        // group commits every 64, so the durable frontier is iteration
        // 192 — iterations 193..=250 died in the buffer.
        let mut partial = small();
        partial.wal_dir = Some(dir.clone());
        partial.wal_flush_every = 64;
        partial.die_at = Some(250);
        let err = run_campaign(&partial).expect_err("simulated crash must surface");
        assert!(err.contains("simulated crash"), "{err}");

        // Rerun the full campaign against the same logs: each replicate
        // resumes from its last synced note and must converge on the
        // uninterrupted digests.
        let mut resumed = small();
        resumed.wal_dir = Some(dir.clone());
        resumed.wal_flush_every = 64;
        let rows = run_campaign(&resumed).expect("resumed");
        assert_eq!(straight, rows, "WAL resume diverged from straight run");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_run_snapshot_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!("piserve-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let straight = run_campaign(&small()).expect("straight");

        // Partial run: checkpoint every 100 iters, then truncate by
        // pretending the process died (snapshots remain on disk).
        let mut partial = small();
        partial.checkpoint_dir = Some(dir.clone());
        partial.checkpoint_every = 100;
        partial.iters = 250; // dies mid-flight, last snapshot at 200
        run_campaign(&partial).expect("partial");

        let mut resumed_cfg = small();
        resumed_cfg.checkpoint_dir = Some(dir.clone());
        resumed_cfg.checkpoint_every = 100;
        resumed_cfg.resume = true;
        let resumed = run_campaign(&resumed_cfg).expect("resumed");
        assert_eq!(straight, resumed, "resumed digests diverged");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
