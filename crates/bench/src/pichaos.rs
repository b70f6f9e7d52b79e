//! Deterministic PI-service overload campaign (`experiments pi-chaos`).
//!
//! The served campaign: one [`PiService`] per replicate, driven by a
//! seeded multi-session script through every overload-hardening path at
//! once, with the result pinned:
//!
//! * **Queue deadlines + backoff** — slots are scarce and advances are
//!   short, so queued work expires, re-queues through
//!   [`mqpi_sim::RetryPolicy`] backoff, and eventually gets rejected.
//! * **Degradation ladder** — submissions outpace service, walking the
//!   tier ladder up through `EpsilonWiden`/`FinalsOnly` into `Shed` and
//!   (as bursts drain) back down through the hysteresis exits.
//! * **Divergence circuit-breaker** — odd replicates run an always-trip
//!   breaker (negative tolerance), force-rebuilding the treap on every
//!   audit; even replicates run a tight real tolerance. Either way, the
//!   final full estimate set must be bit-identical to a from-scratch
//!   `predict` oracle.
//! * **Hostile inputs** — a slice of submissions carries `NaN`/`inf`
//!   costs and weights (sanitized at the boundary, counted), sessions
//!   churn mid-flight (generation-safe handles), and a hostile-event
//!   barrage is thrown at a [`SystemMirror`] whose quarantine counts are
//!   folded into the digest.
//!
//! Throughout, the in-loop asserts hold in **every** tier: the
//! work-conservation ledger stays balanced, no estimate follows a final
//! push, and final timestamps never regress. The per-replicate FNV-1a
//! digest covers the push stream *plus* the overload counters and the
//! mirror's quarantine tally, so `experiments verify pi-chaos`, which
//! compares rows across worker counts and across a SIGKILL and a rerun,
//! pins the entire overload machinery, not just the happy path.
//!
//! **Journaled run.** With a `wal_dir`, each replicate journals every
//! service command to a write-ahead log under `<wal_dir>/run-<seed>`,
//! closes each iteration with a note of the driver's state and a mark,
//! syncs every `wal_flush_every` iterations and compacts every 64 syncs.
//! A rerun against the same directory resumes each replicate from its
//! last synced iteration, so a SIGKILLed campaign reruns to the rows of
//! an uninterrupted one. The plain and the journaled run share one
//! iteration body, and their rows are equal.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use mqpi_ckpt::{Dec, Enc, Wire};
use mqpi_pi::{
    BreakerConfig, EstimatePush, LadderConfig, PiConfig, PiService, SessionId, SystemMirror,
};
use mqpi_sim::{
    AdmissionPolicy, FinishKind, RetryPolicy, SimEvent, StepMode, SyntheticJob, System,
    SystemConfig,
};

use mqpi_wal::WalKnobs;

use crate::campaign::{fnv_fold, fold_push, splitmix64, FNV_OFFSET};
use crate::parallel;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct ChaosCampaign {
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
    /// Journal each replicate under `<wal_dir>/run-<seed>` and resume it
    /// from that log on a rerun (None = no journal).
    pub wal_dir: Option<PathBuf>,
    /// Iterations per group commit (fsync) in a journaled run. A crash
    /// loses at most `wal_flush_every - 1` iterations, which the rerun
    /// drives again.
    pub wal_flush_every: u32,
    /// Fault injection for a journaled run: abort every replicate after
    /// this many iterations without syncing, a SIGKILL stand-in for tests.
    pub die_at: Option<usize>,
}

impl Default for ChaosCampaign {
    fn default() -> Self {
        ChaosCampaign {
            seed: 1337,
            replicates: 8,
            iters: 3_000,
            sessions: 24,
            jobs: 1,
            wal_dir: None,
            wal_flush_every: 1,
            die_at: None,
        }
    }
}

/// One replicate's observable outcome. Every field is a pure function of
/// the replicate seed, so rows compare across worker counts and resumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosRow {
    pub rep: usize,
    pub seed: u64,
    /// Estimate pushes delivered (including finals).
    pub pushes: u64,
    /// Deadline expiries (requeued + rejected).
    pub deadlines: u64,
    /// Ladder tier transitions.
    pub tier_transitions: u64,
    /// Queued queries dropped by the Shed tier.
    pub shed: u64,
    /// Circuit-breaker trips.
    pub trips: u64,
    /// Non-finite inputs sanitized at the service boundary.
    pub sanitized: u64,
    /// Events the hostile-mirror phase quarantined.
    pub quarantined: u64,
    /// FNV-1a digest over the push stream + overload counters + mirror
    /// quarantine stats.
    pub digest: u64,
}

/// Per-replicate service: scarce slots, short advances, every hardening
/// feature armed. Odd replicates run the always-trip breaker.
fn service_config(rep: usize, wal: Option<WalKnobs>) -> PiConfig {
    PiConfig {
        rate: 400.0,
        epsilon: 0.05,
        slots: Some(8),
        queue_deadline: Some(0.5),
        retry: RetryPolicy {
            base_delay: 0.25,
            max_delay: 2.0,
            max_attempts: 3,
        },
        ladder: Some(LadderConfig {
            widen_enter: 12,
            widen_exit: 8,
            finals_enter: 24,
            finals_exit: 18,
            shed_enter: 48,
            shed_exit: 36,
        }),
        breaker: Some(BreakerConfig {
            interval: 2.0,
            tolerance: if rep % 2 == 1 { -1.0 } else { 1e-9 },
            sample: 32,
        }),
        wal,
    }
}

/// The final full estimate set must be bit-identical to a from-scratch
/// `predict` over the service's own extracted state — the breaker's
/// post-rebuild contract, checked whether or not the breaker tripped.
fn assert_oracle_bit_identity(svc: &mut PiService) -> Result<(), String> {
    let live = svc.live_set();
    let queued = svc.queued_set();
    let future = mqpi_core::FutureArrivals::from_rate(svc.lambda(), svc.mean_cost(), 1.0);
    let p = mqpi_core::fluid::predict(
        &live,
        &queued,
        svc.config().slots,
        future.as_ref(),
        svc.model_rate(),
    );
    let oracle = mqpi_core::EstimateSet::from_pairs(p.finish_times.iter().copied(), p.truncated);
    let est = svc.estimates();
    if est.len() != oracle.len() {
        return Err(format!(
            "oracle mismatch: service has {} estimates, oracle {}",
            est.len(),
            oracle.len()
        ));
    }
    for (id, t) in est.iter() {
        let o = oracle
            .get(id)
            .ok_or_else(|| format!("oracle missing query {id}"))?;
        if t.to_bits() != o.to_bits() {
            return Err(format!(
                "query {id}: service estimate {t} != oracle {o} (bitwise)"
            ));
        }
    }
    Ok(())
}

/// Throw a deterministic hostile-event barrage at a [`SystemMirror`]
/// tracking a real simulator feed; every hostile event must be
/// quarantined (counted, never applied) and a final resync must re-anchor
/// the mirror exactly. Returns the quarantine total for the digest.
fn hostile_mirror_phase(seed: u64) -> Result<u64, String> {
    let mut sys = System::new(SystemConfig {
        rate: 40.0,
        step_mode: StepMode::EventDriven,
        admission: AdmissionPolicy::MaxConcurrent(2),
        ..SystemConfig::default()
    });
    sys.enable_event_feed();
    let mut ids = Vec::new();
    for i in 0..8u64 {
        let r = splitmix64(seed ^ i);
        ids.push(sys.submit(
            format!("c{i}"),
            Box::new(SyntheticJob::new(60 + r % 120)),
            1.0 + (r % 3) as f64,
        ));
    }
    let mut m = SystemMirror::for_system(&sys);
    let mut evs = Vec::new();
    sys.drain_events(&mut evs);
    m.apply_all(&evs);

    let mut injected = 0u64;
    let mut step = 0u64;
    while sys.has_work() {
        evs.clear();
        sys.step().map_err(|e| format!("sim step: {e}"))?;
        sys.drain_events(&mut evs);
        m.apply_all(&evs);
        // Every few steps, fire one hostile event chosen by the seed.
        let r = splitmix64(seed ^ step.wrapping_mul(0x9e37_79b9));
        if r.is_multiple_of(3) {
            let at = m.now();
            let victim = ids[(r >> 8) as usize % ids.len()];
            let hostile = match r % 5 {
                // Duplicate admit of a live id; for a departed victim a
                // re-admit would be a *legal* new arrival, so fall back to
                // a phantom resume (quarantined either way).
                0 if m.estimate(victim).is_some() => SimEvent::Admitted {
                    at,
                    id: victim,
                    cost: 50.0,
                    weight: 1.0,
                },
                0 => SimEvent::Resumed { at, id: victim },
                1 => SimEvent::Enqueued {
                    at,
                    id: 9_000 + step,
                    cost: f64::NAN,
                    weight: 1.0,
                },
                2 => SimEvent::Departed {
                    at,
                    id: 9_000 + step,
                    kind: FinishKind::Completed,
                },
                3 => SimEvent::Blocked {
                    at: at - 1.0,
                    id: victim,
                },
                _ => SimEvent::RateChanged { at, rate: -5.0 },
            };
            let before = m.quarantine_stats().total();
            m.apply(hostile);
            let after = m.quarantine_stats().total();
            if after != before + 1 {
                return Err(format!(
                    "hostile event at step {step} was not quarantined: {hostile:?}"
                ));
            }
            injected += 1;
        }
        if m.live() != sys.running_ids().len() || m.queued() != sys.queued_ids().len() {
            return Err(format!(
                "mirror diverged at step {step}: live {}/{} queued {}/{}",
                m.live(),
                sys.running_ids().len(),
                m.queued(),
                sys.queued_ids().len()
            ));
        }
        step += 1;
    }
    let total = m.quarantine_stats().total();
    if total < injected {
        return Err(format!(
            "quarantine lost events: counted {total}, saw {injected} rejected"
        ));
    }
    // Recovery path: resync must re-anchor to the (now idle) system.
    m.resync(&sys);
    if m.live() != 0 || m.queued() != 0 {
        return Err("mirror resync did not re-anchor to idle system".into());
    }
    Ok(total)
}

/// The driver's state between iterations. A journaled run writes the
/// first three fields in its note every iteration and reads them back on
/// a resume.
struct Driver {
    digest: u64,
    sids: Vec<SessionId>,
    live: Vec<u64>,
    // Invariant trackers (not journaled: they restart after a resume,
    // which can only miss violations, never invent them).
    finals_seen: HashSet<(SessionId, u64)>,
    last_final_at: f64,
}

impl Driver {
    fn new(digest: u64, sids: Vec<SessionId>, live: Vec<u64>) -> Driver {
        Driver {
            digest,
            sids,
            live,
            finals_seen: HashSet::new(),
            last_final_at: f64::NEG_INFINITY,
        }
    }

    /// A fresh replicate: register the fleet (journaled, when `svc` is).
    fn fresh(svc: &mut PiService, sessions: usize) -> Driver {
        let sids = (0..sessions).map(|_| svc.register_session()).collect();
        Driver::new(FNV_OFFSET, sids, Vec::new())
    }

    /// The note a journaled run writes after iteration `iter - 1`: loop
    /// position, digest state, session handles, live-query list.
    fn note(&self, iter: usize) -> Vec<u8> {
        let mut e = Enc::new();
        (iter, self.digest).enc(&mut e);
        u64::enc_slice(&self.sids, &mut e);
        u64::enc_slice(&self.live, &mut e);
        e.into_bytes()
    }

    /// Iteration `i` of the script — a pure function of `(seed, i)` and
    /// the driver's state — with the in-loop checks.
    fn iterate(
        &mut self,
        svc: &mut PiService,
        seed: u64,
        i: usize,
        out: &mut Vec<EstimatePush>,
    ) -> Result<(), String> {
        let (sids, live) = (&mut self.sids, &mut self.live);
        let r = splitmix64(seed ^ (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
        let sid = sids[(r % sids.len() as u64) as usize];
        match r % 20 {
            0..=6 => {
                // Burst submissions: 1–3 queries at once to spike load.
                let burst = 1 + (r >> 5) % 3;
                for b in 0..burst {
                    let rr = splitmix64(r ^ b);
                    let cost = 5.0 + (rr % 60) as f64;
                    let weight = [0.5, 1.0, 2.0, 4.0][(rr >> 8) as usize % 4];
                    live.push(svc.submit(sid, cost, weight));
                }
            }
            7 => {
                // Hostile submission: sanitized at the boundary, but still
                // a real query that must flow through to a final push.
                let (cost, weight) = match (r >> 4) % 3 {
                    0 => (f64::NAN, 1.0),
                    1 => (40.0, f64::INFINITY),
                    _ => (f64::NEG_INFINITY, 0.0),
                };
                live.push(svc.submit(sid, cost, weight));
            }
            8 => {
                // Session churn: the closed handle dies (generation bump),
                // its queries keep running, the slot gets reused.
                let k = (r >> 16) as usize % sids.len();
                svc.close_session(sids[k]);
                sids[k] = svc.register_session();
            }
            9 if !live.is_empty() => {
                let q = live.swap_remove((r >> 16) as usize % live.len());
                svc.abort(q);
            }
            10 if !live.is_empty() => {
                let q = live[(r >> 16) as usize % live.len()];
                svc.reweight(q, [0.5, 1.0, 2.0, 4.0][(r >> 24) as usize % 4]);
            }
            11 if !live.is_empty() => {
                let q = live[(r >> 16) as usize % live.len()];
                // Occasionally non-finite: must be refused, not applied.
                let c = if r >> 32 & 7 == 0 {
                    f64::NAN
                } else {
                    1.0 + (r >> 24 & 63) as f64
                };
                svc.refine_cost(q, c);
            }
            12 => {
                svc.set_rate(250.0 + (r % 300) as f64);
            }
            13 if !live.is_empty() => {
                let q = live[(r >> 16) as usize % live.len()];
                svc.subscribe(sid, q);
            }
            _ => {}
        }
        svc.advance(0.002 + (r % 24) as f64 * 0.004);
        out.clear();
        svc.pump(out);
        for p in out.iter() {
            if self.finals_seen.contains(&(p.session, p.query)) {
                return Err(format!(
                    "iter {i}: push for ({:#x}, {}) after its final",
                    p.session, p.query
                ));
            }
            if p.done {
                if p.at + 1e-9 < self.last_final_at {
                    return Err(format!(
                        "iter {i}: final at {} regressed below {}",
                        p.at, self.last_final_at
                    ));
                }
                self.last_final_at = p.at;
                self.finals_seen.insert((p.session, p.query));
            }
            self.digest = fold_push(self.digest, p);
        }
        live.retain(|&q| !out.iter().any(|p| p.done && p.query == q));

        if i.is_multiple_of(64) {
            let l = svc.ledger();
            if !l.balanced() {
                return Err(format!("iter {i}: ledger out of balance: {l:?}"));
            }
        }
        Ok(())
    }
}

/// Open the replicate's log in `dir` and resume from its last note, or
/// start fresh on an empty log. Replay stops at the last mark, so the
/// service sits on the iteration boundary the note describes.
fn open_journal(
    cfg: &ChaosCampaign,
    rep: usize,
    dir: &Path,
) -> Result<(PiService, usize, Driver), String> {
    // Explicit group commit: nothing reaches the disk until the driver's
    // own sync points, so a crash never strands the log mid-iteration.
    let knobs = WalKnobs {
        flush_every_n: u32::MAX,
        flush_every_vt: 1e18,
        compact_every: 0,
    };
    let (mut svc, rec) = PiService::open_durable_at_mark(service_config(rep, Some(knobs)), dir)
        .map_err(|e| format!("wal open {}: {e}", dir.display()))?;
    let Some(bytes) = &rec.last_note else {
        // A fresh log, or a crash before the first sync: the replayed
        // service is empty.
        let driver = Driver::fresh(&mut svc, cfg.sessions);
        return Ok((svc, 0, driver));
    };
    let (iter, digest, sids, live): (usize, u64, Vec<SessionId>, Vec<u64>) =
        Wire::dec(&mut Dec::new(bytes)).map_err(|e| e.to_string())?;
    eprintln!(
        "# pi-chaos rep={rep}: resumed from iteration {iter} ({} records replayed, {} bytes truncated)",
        rec.replayed, rec.truncated_bytes
    );
    Ok((svc, iter, Driver::new(digest, sids, live)))
}

/// Run one replicate to completion; with a `wal_dir`, journaled and
/// resumed from its log.
fn run_one(cfg: &ChaosCampaign, rep: usize) -> Result<ChaosRow, String> {
    let seed = cfg.seed.wrapping_add(rep as u64);
    let journaled = cfg.wal_dir.is_some();
    let (mut svc, start_iter, mut driver) = match &cfg.wal_dir {
        Some(root) => open_journal(cfg, rep, &root.join(format!("run-{seed:016x}")))?,
        None => {
            let mut svc = PiService::try_with_capacity(service_config(rep, None), 4 * cfg.sessions)
                .map_err(|e| format!("config: {e}"))?;
            let driver = Driver::fresh(&mut svc, cfg.sessions);
            (svc, 0, driver)
        }
    };

    let sync_every = cfg.wal_flush_every.max(1) as usize;
    let mut out: Vec<EstimatePush> = Vec::with_capacity(4 * cfg.sessions);
    for i in start_iter..cfg.iters {
        driver.iterate(&mut svc, seed, i, &mut out)?;
        if !journaled {
            continue;
        }
        // The note and the mark close the iteration's batch, so driver and
        // service recover from one frontier.
        let done = i + 1;
        svc.wal_note(&driver.note(done));
        svc.wal_mark(done as u64, driver.digest);
        if cfg.die_at == Some(done) {
            // Simulated SIGKILL: drop the service with the group commit
            // still buffered; everything since the last sync is lost.
            return Err(format!("rep {rep}: simulated crash at iteration {done}"));
        }
        if done.is_multiple_of(sync_every) {
            svc.wal_sync();
            // Compact every 64 syncs, always on a synced boundary.
            if done.is_multiple_of(sync_every * 64) {
                svc.wal_compact_now();
            }
        }
    }
    svc.wal_sync();

    let l = svc.ledger();
    if !l.balanced() {
        return Err(format!("final ledger out of balance: {l:?}"));
    }
    assert_oracle_bit_identity(&mut svc)?;
    let quarantined = hostile_mirror_phase(seed)?;

    let s = svc.stats();
    // Fold the overload counters and the mirror tally into the digest so
    // jobs/resume diffs pin the hardening paths, not just the pushes.
    let mut digest = driver.digest;
    for v in [
        s.deadline_expired,
        s.deadline_requeued,
        s.deadline_rejected,
        s.shed,
        s.tier_transitions,
        s.degraded_pumps,
        s.audit_checks,
        s.audit_trips,
        s.audit_rebuilds,
        s.sanitized,
        svc.tier() as u64,
        quarantined,
    ] {
        digest = fnv_fold(digest, &v.to_le_bytes());
    }
    Ok(ChaosRow {
        rep,
        seed,
        pushes: s.pushes,
        deadlines: s.deadline_expired,
        tier_transitions: s.tier_transitions,
        shed: s.shed,
        trips: s.audit_trips,
        sanitized: s.sanitized,
        quarantined,
        digest,
    })
}

/// Run the campaign; rows come back in replicate order regardless of
/// worker interleaving, so output is bit-identical across `--jobs`.
pub fn run_campaign(cfg: &ChaosCampaign) -> Result<Vec<ChaosRow>, String> {
    if let Some(dir) = &cfg.wal_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("wal dir: {e}"))?;
    }
    let results = parallel::run_indexed(cfg.jobs, cfg.replicates, |rep| run_one(cfg, rep));
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ChaosCampaign {
        ChaosCampaign {
            replicates: 4,
            iters: 600,
            sessions: 12,
            ..ChaosCampaign::default()
        }
    }

    #[test]
    fn chaos_campaign_is_deterministic_across_jobs() {
        let mut cfg = small();
        let a = run_campaign(&cfg).expect("jobs=1");
        cfg.jobs = 4;
        let b = run_campaign(&cfg).expect("jobs=4");
        assert_eq!(a, b, "chaos rows must not depend on worker count");
    }

    #[test]
    fn chaos_campaign_exercises_every_hardening_path() {
        let rows = run_campaign(&small()).expect("campaign");
        let total = |f: fn(&ChaosRow) -> u64| rows.iter().map(f).sum::<u64>();
        assert!(total(|r| r.pushes) > 0, "no pushes delivered");
        assert!(total(|r| r.deadlines) > 0, "deadlines never fired");
        assert!(
            total(|r| r.tier_transitions) > 0,
            "ladder never transitioned"
        );
        assert!(total(|r| r.shed) > 0, "shed tier never dropped work");
        assert!(total(|r| r.trips) > 0, "breaker never tripped");
        assert!(total(|r| r.sanitized) > 0, "no hostile inputs sanitized");
        assert!(total(|r| r.quarantined) > 0, "mirror quarantined nothing");
    }

    /// A scratch log directory, emptied first.
    fn wal_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pichaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn journal_is_transparent() {
        // Four replicates run both breaker kinds; 600 iterations cross the
        // compaction at 64 syncs for both flush intervals.
        let plain = run_campaign(&small()).expect("plain");
        for every in [1, 8] {
            let dir = wal_dir(&format!("transparent-{every}"));
            let cfg = ChaosCampaign {
                wal_dir: Some(dir.clone()),
                wal_flush_every: every,
                ..small()
            };
            let journaled = run_campaign(&cfg).expect("journaled");
            assert_eq!(plain, journaled, "journaled rows, flush every {every}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn resumes_from_the_log_after_losing_unsynced_work() {
        let straight = run_campaign(&small()).expect("straight");
        let dir = wal_dir("resume");
        let cfg = ChaosCampaign {
            wal_dir: Some(dir.clone()),
            wal_flush_every: 8,
            ..small()
        };

        // Every replicate dies at iteration 556. The last sync was at 552
        // and the last compaction at 512, so 553..=556 die in the buffer
        // and recovery restores the compacted base, then replays.
        let crashed = ChaosCampaign {
            die_at: Some(556),
            ..cfg.clone()
        };
        let err = run_campaign(&crashed).expect_err("the simulated crash must surface");
        assert!(err.contains("simulated crash"), "{err}");
        let seed = cfg.seed;
        let (_, resumes_at, _) = open_journal(&cfg, 0, &dir.join(format!("run-{seed:016x}")))
            .expect("reopen the first replicate's log");
        assert_eq!(resumes_at, 552, "the rerun must resume at the last sync");

        let rows = run_campaign(&cfg).expect("rerun");
        assert_eq!(straight, rows, "the rerun from the log diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
