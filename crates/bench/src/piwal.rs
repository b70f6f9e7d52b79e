//! Durability chaos campaign (`experiments pi-wal-chaos`).
//!
//! Each replicate proves the full crash/recovery/failover contract of the
//! WAL-backed PI service against one seed-derived scenario:
//!
//! 1. **Reference** — an uninterrupted, non-durable run of the scripted
//!    workload; its per-iteration push-stream digests are the ground
//!    truth.
//! 2. **Kill + torn tail + replay** — a durable run is killed (dropped
//!    without flushing, the WAL's SIGKILL model) at a seed-derived
//!    iteration; a seed-derived mutation is then inflicted on the log's
//!    tail (bit flip, truncation, garbage append, duplicated tail chunk,
//!    or nothing); recovery must land on a surviving synced mark whose
//!    digest matches the reference prefix bit-for-bit, and the resumed
//!    run must converge on the reference's final digest exactly.
//! 3. **Failover** — a second durable run dies at a seed-derived failover
//!    point; a warm [`Standby`] tails its log, promotes, and the promoted
//!    service resumes to completion, again converging on the reference
//!    digest.
//!
//! Every row field is a pure function of the replicate seed, so rows are
//! byte-identical across `--jobs` values (`experiments verify`).

use std::path::{Path, PathBuf};

use mqpi_pi::{EstimatePush, PiConfig, PiService, SessionId, Standby};
use mqpi_wal::WalKnobs;

use crate::campaign::{fnv_fold, splitmix64, FNV_OFFSET};
use crate::parallel;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct WalChaosCampaign {
    /// Campaign seed; replicate r runs with `seed + r`.
    pub seed: u64,
    /// Number of independent replicates.
    pub replicates: usize,
    /// Workload iterations per replicate.
    pub iters: usize,
    /// Worker threads.
    pub jobs: usize,
    /// Root directory for the per-replicate log directories (None = the
    /// system temp dir). Each replicate cleans up after itself.
    pub wal_root: Option<PathBuf>,
}

impl Default for WalChaosCampaign {
    fn default() -> Self {
        WalChaosCampaign {
            seed: 7331,
            replicates: 8,
            iters: 400,
            jobs: 1,
            wal_root: None,
        }
    }
}

/// One replicate's observable outcome — every field a pure function of
/// the replicate seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalChaosRow {
    pub rep: usize,
    pub seed: u64,
    /// Iteration the primary was killed at (phase 2).
    pub kill_at: u64,
    /// Torn-tail mutation inflicted after the kill.
    pub mutation: &'static str,
    /// Iteration the failover-phase primary died at (phase 3).
    pub fail_at: u64,
    /// Committed records replayed by the post-kill recovery.
    pub replayed: u64,
    /// Bytes the recovery scan discarded from the mutated tail.
    pub truncated_bytes: u64,
    /// Iteration of the mark recovery resumed from (≤ `kill_at`).
    pub resumed_from: u64,
    /// Estimate pushes in the reference stream.
    pub pushes: u64,
    /// The reference run's final push-stream digest — which both the
    /// resumed and the failed-over runs were required to reproduce.
    pub digest: u64,
}

/// Not [`crate::campaign::fold_push`]: `done` folds here as eight bytes,
/// there as one, and changing either would move every recorded digest.
fn fold_push(h: u64, p: &EstimatePush) -> u64 {
    [
        p.session,
        p.query,
        p.at.to_bits(),
        p.estimate.to_bits(),
        u64::from(p.done),
    ]
    .iter()
    .fold(h, |h, v| fnv_fold(h, &v.to_le_bytes()))
}

fn service_config(wal: Option<WalKnobs>) -> PiConfig {
    PiConfig {
        rate: 60.0,
        epsilon: 0.02,
        slots: Some(12),
        wal,
        ..PiConfig::default()
    }
}

/// Durability knobs for the kill/recover phase: the explicit group-commit
/// regime (flush only at the driver's `wal_sync` calls), so the durable
/// frontier always lands on an iteration boundary.
fn explicit_sync_knobs() -> WalKnobs {
    WalKnobs {
        flush_every_n: u32::MAX,
        flush_every_vt: 1e18,
        compact_every: 0,
    }
}

/// Knobs for the failover phase: flush every commit so the standby can
/// tail right up to the failure point.
fn eager_knobs() -> WalKnobs {
    WalKnobs {
        flush_every_n: 1,
        flush_every_vt: 1e18,
        compact_every: 0,
    }
}

/// One scripted workload iteration: a pure function of `(seed, i)`.
fn drive(svc: &mut PiService, sid: SessionId, seed: u64, i: u64, out: &mut Vec<EstimatePush>) {
    let r = splitmix64(seed ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let cost = 4.0 + (r % 97) as f64 * 0.4;
    let weight = [0.5, 1.0, 2.0, 4.0][(r >> 7) as usize % 4];
    let q = svc.submit(sid, cost, weight);
    match (r >> 16) % 8 {
        0 => {
            svc.abort(q.wrapping_sub((r >> 24) % 5));
        }
        1 => {
            svc.reweight(q.wrapping_sub((r >> 24) % 7), 0.5 + ((r >> 32) % 5) as f64);
        }
        2 => {
            svc.refine_cost(
                q.wrapping_sub((r >> 24) % 7),
                1.0 + ((r >> 32) % 40) as f64 * 0.3,
            );
        }
        3 => {
            svc.set_rate(40.0 + ((r >> 32) % 50) as f64);
        }
        _ => {}
    }
    svc.advance(0.02 + ((r >> 40) % 8) as f64 * 0.01);
    out.clear();
    svc.pump(out);
}

/// Inflict one seed-derived mutation on the newest log segment's tail.
/// Returns the mutation's label for the row.
fn mutate_tail(dir: &Path, r: u64) -> Result<&'static str, String> {
    let seg = std::fs::read_dir(dir)
        .map_err(|e| format!("read_dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".seg"))
        .max_by_key(|e| e.file_name());
    let Some(seg) = seg else {
        return Ok("none");
    };
    let path = seg.path();
    let mut bytes = std::fs::read(&path).map_err(|e| format!("read seg: {e}"))?;
    if bytes.len() < 32 {
        return Ok("none");
    }
    // Mutations target the tail region (the last quarter of the file) —
    // the part a torn write would plausibly damage.
    let tail_start = bytes.len() - bytes.len() / 4;
    let label = match r % 5 {
        0 => "none",
        1 => {
            let keep = tail_start + (r >> 8) as usize % (bytes.len() - tail_start);
            bytes.truncate(keep);
            "truncate"
        }
        2 => {
            let pos = tail_start + (r >> 8) as usize % (bytes.len() - tail_start);
            bytes[pos] ^= 1 << ((r >> 21) % 8);
            "bitflip"
        }
        3 => {
            let mut g = splitmix64(r);
            for _ in 0..(16 + (r >> 8) % 48) {
                bytes.push((g & 0xFF) as u8);
                g = splitmix64(g);
            }
            "garbage"
        }
        _ => {
            let chunk = bytes[tail_start..].to_vec();
            bytes.extend_from_slice(&chunk);
            "dup-tail"
        }
    };
    if label != "none" {
        std::fs::write(&path, &bytes).map_err(|e| format!("write seg: {e}"))?;
    }
    Ok(label)
}

struct Reference {
    /// Push-stream digest after each iteration (index i-1 = iteration i).
    digests: Vec<u64>,
    pushes: u64,
}

/// Uninterrupted, non-durable reference run.
fn reference_run(seed: u64, iters: u64) -> Reference {
    let mut svc = PiService::new(service_config(None));
    let sid = svc.register_session();
    let mut digests = Vec::with_capacity(iters as usize);
    let mut h = FNV_OFFSET;
    let mut out = Vec::new();
    for i in 1..=iters {
        drive(&mut svc, sid, seed, i, &mut out);
        for p in &out {
            h = fold_push(h, p);
        }
        digests.push(h);
    }
    Reference {
        digests,
        pushes: svc.stats().pushes,
    }
}

/// Drive a durable service from iteration `from + 1` through `to`,
/// marking and syncing every iteration. Verifies each iteration's digest
/// against the reference and returns the digest after `to`.
fn drive_durable(
    svc: &mut PiService,
    sid: SessionId,
    seed: u64,
    from: u64,
    to: u64,
    mut h: u64,
    reference: &Reference,
) -> Result<u64, String> {
    let mut out = Vec::new();
    for i in from + 1..=to {
        drive(svc, sid, seed, i, &mut out);
        for p in &out {
            h = fold_push(h, p);
        }
        if h != reference.digests[i as usize - 1] {
            return Err(format!("iteration {i}: digest diverged from reference"));
        }
        svc.wal_mark(i, h);
        svc.wal_sync();
    }
    Ok(h)
}

fn run_one(cfg: &WalChaosCampaign, rep: usize) -> Result<WalChaosRow, String> {
    let seed = cfg.seed.wrapping_add(rep as u64);
    let iters = cfg.iters as u64;
    let root = cfg
        .wal_root
        .clone()
        .unwrap_or_else(std::env::temp_dir)
        .join(format!("pi-wal-chaos-{seed:016x}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let reference = reference_run(seed, iters);
    let final_digest = *reference.digests.last().ok_or("empty reference")?;

    // ---- Phase 2: kill, mutate the tail, recover, resume. ----
    let kill_at = 1 + splitmix64(seed ^ 0x0000_4b49_4c4c) % iters; // "KILL"
    let dir_a = root.join("a");
    {
        let (mut svc, _) =
            PiService::open_durable(service_config(Some(explicit_sync_knobs())), &dir_a)
                .map_err(|e| format!("open a: {e}"))?;
        let sid = svc.register_session();
        drive_durable(&mut svc, sid, seed, 0, kill_at, FNV_OFFSET, &reference)?;
        // Journal part of one more iteration, then die without syncing.
        let mut out = Vec::new();
        if kill_at < iters {
            drive(&mut svc, sid, seed, kill_at + 1, &mut out);
        }
        drop(svc); // SIGKILL model: unflushed frames vanish
    }
    let mutation = mutate_tail(&dir_a, splitmix64(seed ^ 0x0000_5445_4152))?; // "TEAR"
    let (mut svc, rec) =
        PiService::open_durable_at_mark(service_config(Some(explicit_sync_knobs())), &dir_a)
            .map_err(|e| format!("reopen a after {mutation}: {e}"))?;
    let replayed = rec.replayed;
    let truncated_bytes = rec.truncated_bytes;
    let (resumed_from, digest_at_mark) = rec.last_mark.unwrap_or((0, FNV_OFFSET));
    if resumed_from > kill_at {
        return Err(format!(
            "recovered mark {resumed_from} is past the kill point {kill_at}"
        ));
    }
    if resumed_from > 0 && digest_at_mark != reference.digests[resumed_from as usize - 1] {
        return Err(format!(
            "recovered digest at iteration {resumed_from} differs from the reference"
        ));
    }
    let sid = svc
        .session_ids()
        .first()
        .copied()
        .unwrap_or_else(|| svc.register_session());
    let h = drive_durable(
        &mut svc,
        sid,
        seed,
        resumed_from,
        iters,
        digest_at_mark,
        &reference,
    )?;
    if h != final_digest {
        return Err(format!(
            "kill@{kill_at}+{mutation}: resumed digest {h:016x} != reference {final_digest:016x}"
        ));
    }
    drop(svc);

    // ---- Phase 3: failover to a warm standby. ----
    let fail_at = 1 + splitmix64(seed ^ 0x0000_4641_494c) % iters; // "FAIL"
    let dir_b = root.join("b");
    {
        let (mut svc, _) = PiService::open_durable(service_config(Some(eager_knobs())), &dir_b)
            .map_err(|e| format!("open b: {e}"))?;
        let sid = svc.register_session();
        let mut out = Vec::new();
        let mut h = FNV_OFFSET;
        for i in 1..=fail_at {
            drive(&mut svc, sid, seed, i, &mut out);
            for p in &out {
                h = fold_push(h, p);
            }
            svc.wal_mark(i, h);
        }
        drop(svc); // primary dies
    }
    let mut sb = Standby::new(service_config(Some(eager_knobs())), &dir_b)
        .map_err(|e| format!("standby: {e}"))?;
    sb.catch_up().map_err(|e| format!("catch_up: {e}"))?;
    let (mut svc, fo) = sb.promote().map_err(|e| format!("promote: {e}"))?;
    let (mark_iter, mut h) = fo.last_mark.unwrap_or((0, FNV_OFFSET));
    if mark_iter != fail_at {
        return Err(format!(
            "standby saw mark {mark_iter}, expected the failover point {fail_at}"
        ));
    }
    // The standby's replayed stream must reproduce the reference prefix.
    let mut replayed_h = FNV_OFFSET;
    for p in &fo.pushes {
        replayed_h = fold_push(replayed_h, p);
    }
    if replayed_h != reference.digests[fail_at as usize - 1] {
        return Err(format!(
            "standby stream digest {replayed_h:016x} differs from reference at {fail_at}"
        ));
    }
    let sid = svc
        .session_ids()
        .first()
        .copied()
        .ok_or("promoted service lost the session")?;
    let mut out = Vec::new();
    for i in fail_at + 1..=iters {
        drive(&mut svc, sid, seed, i, &mut out);
        for p in &out {
            h = fold_push(h, p);
        }
        svc.wal_mark(i, h);
    }
    if h != final_digest {
        return Err(format!(
            "failover@{fail_at}: promoted digest {h:016x} != reference {final_digest:016x}"
        ));
    }
    drop(svc);

    let _ = std::fs::remove_dir_all(&root);
    Ok(WalChaosRow {
        rep,
        seed,
        kill_at,
        mutation,
        fail_at,
        replayed,
        truncated_bytes,
        resumed_from,
        pushes: reference.pushes,
        digest: final_digest,
    })
}

/// Run the campaign; rows come back in replicate order regardless of
/// worker interleaving, so output is bit-identical across `--jobs`.
pub fn run_campaign(cfg: &WalChaosCampaign) -> Result<Vec<WalChaosRow>, String> {
    parallel::run_indexed(cfg.jobs, cfg.replicates, |rep| run_one(cfg, rep))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_chaos_campaign_is_deterministic_across_jobs() {
        let mut cfg = WalChaosCampaign {
            seed: 0xA11CE,
            replicates: 4,
            iters: 120,
            ..WalChaosCampaign::default()
        };
        let a = run_campaign(&cfg).expect("jobs=1");
        cfg.jobs = 4;
        let b = run_campaign(&cfg).expect("jobs=4");
        assert_eq!(a, b, "wal-chaos rows must not depend on worker count");
    }

    #[test]
    fn wal_chaos_campaign_exercises_mutations_and_recovers() {
        let cfg = WalChaosCampaign {
            seed: 0xB0B0,
            replicates: 10,
            iters: 90,
            ..WalChaosCampaign::default()
        };
        let rows = run_campaign(&cfg).expect("campaign");
        assert_eq!(rows.len(), 10);
        // Every replicate recovered and converged (run_one errors
        // otherwise); the seed spread must hit several mutation classes.
        let kinds: std::collections::HashSet<_> = rows.iter().map(|r| r.mutation).collect();
        assert!(
            kinds.len() >= 3,
            "mutation classes under-sampled: {kinds:?}"
        );
        assert!(rows.iter().all(|r| r.pushes > 0));
        assert!(rows.iter().any(|r| r.replayed > 0));
    }
}
