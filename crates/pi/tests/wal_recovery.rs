//! End-to-end durability: kill the service at arbitrary event offsets,
//! recover from snapshot + log replay, and prove the regenerated estimate
//! streams are bit-identical to an uninterrupted run. Also exercises the
//! warm-standby failover path ([`Standby::promote`]) at several failover
//! points, and recovery across snapshot-anchored compaction.
//!
//! The "kill" here is [`drop`] without flush — the WAL's `Drop` is
//! deliberately not graceful, so dropping the service loses exactly what
//! SIGKILL would lose (everything buffered past the last group commit).
//! Real-SIGKILL coverage (a separate OS process killed mid-run) lives in
//! the CI `wal-recovery-smoke` job.

use std::path::PathBuf;

use mqpi_pi::{EstimatePush, PiConfig, PiService, SessionId, Standby};
use mqpi_wal::{WalKnobs, WalRecord};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mqpi-pi-walrec-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Fold one push into an FNV-1a digest over its exact bit patterns.
fn fold_push(mut h: u64, p: &EstimatePush) -> u64 {
    for v in [
        p.session,
        p.query,
        p.at.to_bits(),
        p.estimate.to_bits(),
        u64::from(p.done),
    ] {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn fold_all(mut h: u64, pushes: &[EstimatePush]) -> u64 {
    for p in pushes {
        h = fold_push(h, p);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn base_cfg(wal: Option<WalKnobs>) -> PiConfig {
    PiConfig {
        rate: 10.0,
        wal,
        ..PiConfig::default()
    }
}

/// One deterministic driver iteration: a submit, a seed-chosen control
/// command (some of which deliberately target ids that may not exist —
/// journaled no-ops must replay as identical no-ops), an advance, and a
/// pump. Everything is a pure function of the iteration index, so an
/// interrupted run re-issues exactly the commands the reference run did.
fn drive(svc: &mut PiService, sid: SessionId, i: u64, out: &mut Vec<EstimatePush>) {
    let r = splitmix64(0xD1CE_0001 ^ i);
    let cost = 4.0 + (r % 97) as f64 * 0.37;
    let weight = 1.0 + ((r >> 7) % 3) as f64;
    let q = svc.submit(sid, cost, weight);
    match (r >> 16) % 8 {
        0 => {
            svc.abort(q.wrapping_sub((r >> 24) % 4));
        }
        1 => {
            svc.reweight(q.wrapping_sub((r >> 24) % 6), 0.5 + ((r >> 32) % 5) as f64);
        }
        2 => {
            svc.refine_cost(
                q.wrapping_sub((r >> 24) % 6),
                1.0 + ((r >> 32) % 50) as f64 * 0.2,
            );
        }
        3 => {
            svc.set_rate(8.0 + ((r >> 32) % 10) as f64);
        }
        _ => {}
    }
    svc.advance(0.05 + ((r >> 40) % 10) as f64 * 0.01);
    svc.pump(out);
}

/// Uninterrupted reference run (no WAL): the full push stream for `n`
/// iterations plus the per-iteration digests a marking driver would log.
fn reference(n: u64) -> (Vec<EstimatePush>, Vec<u64>) {
    let mut svc = PiService::try_new(base_cfg(None)).expect("service");
    let sid = svc.register_session();
    let mut pushes = Vec::new();
    let mut digests = Vec::with_capacity(n as usize);
    let mut h = FNV_OFFSET;
    let mut scratch = Vec::new();
    for i in 1..=n {
        scratch.clear();
        drive(&mut svc, sid, i, &mut scratch);
        h = fold_all(h, &scratch);
        digests.push(h);
        pushes.extend(scratch.iter().cloned());
    }
    (pushes, digests)
}

/// Bitwise equality of two pushes.
fn same_push(a: &EstimatePush, b: &EstimatePush) -> bool {
    a.session == b.session
        && a.query == b.query
        && a.at.to_bits() == b.at.to_bits()
        && a.estimate.to_bits() == b.estimate.to_bits()
        && a.done == b.done
}

fn assert_streams_identical(got: &[EstimatePush], want: &[EstimatePush], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: push count mismatch");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(same_push(g, w), "{what}: push {k} differs: {g:?} vs {w:?}");
    }
}

/// Kill (drop, no flush) at many offsets under a small group-commit batch
/// so the durable cut lands at arbitrary points inside iterations; the
/// replayed push stream must always be an exact bitwise prefix of the
/// uninterrupted run's stream, and the mark bookkeeping must let a driver
/// re-derive its digest.
#[test]
fn replay_reproduces_push_prefix_at_any_kill_offset() {
    const N: u64 = 120;
    let (ref_pushes, ref_digests) = reference(N);
    let knobs = WalKnobs {
        flush_every_n: 3,
        flush_every_vt: 0.1,
        compact_every: 0,
    };
    for kill_at in [1u64, 2, 7, 19, 40, 77, 119, 120] {
        let dir = tmpdir(&format!("prefix-{kill_at}"));
        {
            let (mut svc, rec) = PiService::open_durable(base_cfg(Some(knobs)), &dir).unwrap();
            assert!(!rec.resumed, "fresh directory must not claim resume");
            let sid = svc.register_session();
            let mut h = FNV_OFFSET;
            let mut scratch = Vec::new();
            for i in 1..=kill_at {
                scratch.clear();
                drive(&mut svc, sid, i, &mut scratch);
                h = fold_all(h, &scratch);
                svc.wal_mark(i, h);
            }
            assert_eq!(h, ref_digests[kill_at as usize - 1]);
            drop(svc); // SIGKILL: buffered frames past the last flush are lost
        }
        let (svc2, rec) = PiService::open_durable(base_cfg(Some(knobs)), &dir).unwrap();
        assert!(rec.resumed, "second open must resume");
        assert!(
            rec.pushes.len() <= ref_pushes.len(),
            "replay cannot invent pushes"
        );
        assert_streams_identical(
            &rec.pushes,
            &ref_pushes[..rec.pushes.len()],
            &format!("kill@{kill_at}"),
        );
        if let Some((iter, digest)) = rec.last_mark {
            assert!(iter >= 1 && iter <= kill_at);
            assert_eq!(
                digest,
                ref_digests[iter as usize - 1],
                "kill@{kill_at}: marked digest must match the reference prefix digest"
            );
            // The driver resume rule: marked digest folded with the pushes
            // replayed after the mark equals the digest over all replayed
            // pushes from scratch.
            let resumed = fold_all(digest, &rec.pushes[rec.pushes_at_mark..]);
            assert_eq!(resumed, fold_all(FNV_OFFSET, &rec.pushes));
        }
        // The recovered service is live: it accepts further work.
        let mut svc2 = svc2;
        let sid2 = svc2.register_session();
        let q = svc2.submit(sid2, 3.0, 1.0);
        assert!(q > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Group commit in the explicit regime: flush only on `wal_sync`, which
/// the driver calls after journaling its per-iteration mark. The durable
/// frontier then always ends exactly at a mark, so a killed run can
/// resume at `mark + 1` and complete with a final digest bit-identical to
/// the uninterrupted run — at any kill offset.
#[test]
fn marked_resume_completes_bit_identically() {
    const N: u64 = 90;
    let (ref_pushes, ref_digests) = reference(N);
    let final_digest = *ref_digests.last().unwrap();
    let knobs = WalKnobs {
        // No implicit flushing: group commit is driven by wal_sync.
        flush_every_n: u32::MAX,
        flush_every_vt: 1e18,
        compact_every: 0,
    };
    for kill_at in [3u64, 17, 44, 89] {
        let dir = tmpdir(&format!("resume-{kill_at}"));
        {
            let (mut svc, _) = PiService::open_durable(base_cfg(Some(knobs)), &dir).unwrap();
            let sid = svc.register_session();
            let mut h = FNV_OFFSET;
            let mut scratch = Vec::new();
            for i in 1..=kill_at {
                scratch.clear();
                drive(&mut svc, sid, i, &mut scratch);
                h = fold_all(h, &scratch);
                svc.wal_mark(i, h);
                svc.wal_sync();
            }
            // Partially journal the next iteration, then die without
            // syncing: those buffered frames must vanish.
            scratch.clear();
            drive(&mut svc, sid, kill_at + 1, &mut scratch);
            drop(svc);
        }
        let (mut svc, rec) = PiService::open_durable(base_cfg(Some(knobs)), &dir).unwrap();
        let (mark_iter, mut h) = rec.last_mark.expect("synced mark must survive");
        assert_eq!(mark_iter, kill_at, "durable frontier ends at the mark");
        assert_eq!(h, ref_digests[kill_at as usize - 1]);
        let mut stream = rec.pushes.clone();
        assert_streams_identical(&stream, &ref_pushes[..stream.len()], "resume prefix");
        // The session survives recovery with the same id (the service's
        // state machine is deterministic, ids included).
        let sid = svc
            .session_ids()
            .first()
            .copied()
            .expect("session survives");
        let mut scratch = Vec::new();
        for i in mark_iter + 1..=N {
            scratch.clear();
            drive(&mut svc, sid, i, &mut scratch);
            h = fold_all(h, &scratch);
            svc.wal_mark(i, h);
            svc.wal_sync();
            stream.extend(scratch.iter().cloned());
        }
        assert_eq!(
            h, final_digest,
            "kill@{kill_at}: resumed run must converge on the reference digest"
        );
        assert_streams_identical(&stream, &ref_pushes, "resumed full stream");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Warm standby: tail the primary's log, then promote at several failover
/// points; the standby's replayed stream plus its post-promotion stream
/// must be bit-identical to the uninterrupted reference.
#[test]
fn standby_promote_yields_byte_identical_streams() {
    const N: u64 = 80;
    let (ref_pushes, ref_digests) = reference(N);
    let knobs = WalKnobs {
        // Flush every commit so the standby sees everything the primary did.
        flush_every_n: 1,
        flush_every_vt: 1e18,
        compact_every: 0,
    };
    for fail_at in [1u64, 13, 39, 80] {
        let dir = tmpdir(&format!("standby-{fail_at}"));
        let cfg = base_cfg(Some(knobs));
        {
            let (mut svc, _) = PiService::open_durable(cfg, &dir).unwrap();
            let sid = svc.register_session();
            let mut h = FNV_OFFSET;
            let mut scratch = Vec::new();
            for i in 1..=fail_at {
                scratch.clear();
                drive(&mut svc, sid, i, &mut scratch);
                h = fold_all(h, &scratch);
                svc.wal_mark(i, h);
            }
            drop(svc); // primary dies
        }
        // The standby attaches read-only, catches up, and takes over.
        let mut sb = Standby::new(cfg, &dir).unwrap();
        sb.catch_up().unwrap();
        let (mut svc, rec) = sb.promote().unwrap();
        let mut stream = rec.pushes;
        assert_streams_identical(&stream, &ref_pushes[..stream.len()], "standby tail");
        let (mark_iter, mut h) = rec.last_mark.expect("mark visible to standby");
        assert_eq!(mark_iter, fail_at);
        assert_eq!(h, ref_digests[fail_at as usize - 1]);
        let sid = svc
            .session_ids()
            .first()
            .copied()
            .expect("session survives");
        let mut scratch = Vec::new();
        for i in mark_iter + 1..=N {
            scratch.clear();
            drive(&mut svc, sid, i, &mut scratch);
            h = fold_all(h, &scratch);
            svc.wal_mark(i, h);
            stream.extend(scratch.iter().cloned());
        }
        assert_eq!(h, *ref_digests.last().unwrap());
        assert_streams_identical(&stream, &ref_pushes, "promoted full stream");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Incremental tailing: the standby keeps up with a live primary through
/// periodic `catch_up` calls (applying only the new suffix each time) and
/// across a primary-driven compaction, ending state-identical.
#[test]
fn standby_tails_live_primary_incrementally() {
    const N: u64 = 60;
    let knobs = WalKnobs {
        flush_every_n: 1,
        flush_every_vt: 1e18,
        compact_every: 0,
    };
    let dir = tmpdir("tail-live");
    let cfg = base_cfg(Some(knobs));
    let (mut svc, _) = PiService::open_durable(cfg, &dir).unwrap();
    let sid = svc.register_session();
    let mut sb = Standby::new(cfg, &dir).unwrap();
    let mut primary_stream = Vec::new();
    let mut scratch = Vec::new();
    let mut last_applied = sb.applied_seq();
    for i in 1..=N {
        scratch.clear();
        drive(&mut svc, sid, i, &mut scratch);
        primary_stream.extend(scratch.iter().cloned());
        let applied = sb.catch_up().unwrap();
        assert!(applied > 0, "iteration {i}: standby must see new records");
        assert!(sb.applied_seq() > last_applied);
        last_applied = sb.applied_seq();
        if i == N / 2 {
            // Primary compacts mid-stream; since the standby has already
            // applied everything up to the new base, it re-anchors
            // without duplicating or losing pushes.
            svc.wal_compact_now();
        }
    }
    assert_eq!(
        sb.service().state_digest(),
        svc.state_digest(),
        "standby replica must be state-identical to the primary"
    );
    let mut sb_stream = Vec::new();
    sb.drain_pushes(&mut sb_stream);
    assert_streams_identical(&sb_stream, &primary_stream, "tailed stream");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot-anchored compaction under fire: auto-compaction every few
/// records, killed at arbitrary offsets — recovery must restore the
/// newest base and replay only the suffix, still producing an exact
/// prefix of the reference stream, and the resumed run still converges.
#[test]
fn recovery_across_compaction_is_bit_identical() {
    const N: u64 = 70;
    let (ref_pushes, ref_digests) = reference(N);
    let knobs = WalKnobs {
        flush_every_n: u32::MAX,
        flush_every_vt: 1e18,
        compact_every: 23,
    };
    for kill_at in [11u64, 29, 55] {
        let dir = tmpdir(&format!("compact-{kill_at}"));
        {
            let (mut svc, _) = PiService::open_durable(base_cfg(Some(knobs)), &dir).unwrap();
            let sid = svc.register_session();
            let mut h = FNV_OFFSET;
            let mut scratch = Vec::new();
            for i in 1..=kill_at {
                scratch.clear();
                drive(&mut svc, sid, i, &mut scratch);
                h = fold_all(h, &scratch);
                svc.wal_mark(i, h);
                svc.wal_sync();
            }
            drop(svc);
        }
        let (mut svc, rec) = PiService::open_durable(base_cfg(Some(knobs)), &dir).unwrap();
        let (mark_iter, mut h) = rec.last_mark.unwrap_or((0, FNV_OFFSET));
        // Compaction folds old iterations into the base; whatever suffix
        // was replayed must still be a bitwise slice of the reference.
        if mark_iter > 0 {
            assert_eq!(h, ref_digests[mark_iter as usize - 1]);
        }
        assert_eq!(mark_iter, kill_at, "synced frontier survives compaction");
        let sid = svc
            .session_ids()
            .first()
            .copied()
            .expect("session survives");
        let mut scratch = Vec::new();
        let mut tail = Vec::new();
        for i in mark_iter + 1..=N {
            scratch.clear();
            drive(&mut svc, sid, i, &mut scratch);
            h = fold_all(h, &scratch);
            svc.wal_mark(i, h);
            svc.wal_sync();
            tail.extend(scratch.iter().cloned());
        }
        assert_eq!(
            h,
            *ref_digests.last().unwrap(),
            "kill@{kill_at}: digest after compacted recovery"
        );
        let split = ref_pushes.len() - tail.len();
        assert_streams_identical(&tail, &ref_pushes[split..], "post-compaction tail");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `PiConfig::wal` knobs round-trip through checkpoint/restore, and a
/// restored service carries no attached log (attachment is explicit).
#[test]
fn wal_knobs_roundtrip_in_checkpoints() {
    let knobs = WalKnobs {
        flush_every_n: 9,
        flush_every_vt: 0.75,
        compact_every: 1234,
    };
    let mut svc = PiService::try_new(base_cfg(Some(knobs))).unwrap();
    let sid = svc.register_session();
    svc.submit(sid, 5.0, 1.0);
    svc.advance(0.1);
    let bytes = svc.checkpoint();
    let restored = PiService::restore(&bytes).unwrap();
    let w = restored.config().wal.expect("knobs must survive");
    assert_eq!(w.flush_every_n, 9);
    assert_eq!(w.flush_every_vt.to_bits(), 0.75f64.to_bits());
    assert_eq!(w.compact_every, 1234);
    assert!(restored.wal().is_none(), "restore never attaches a log");
    assert_eq!(restored.state_digest(), svc.state_digest());
}

/// A torn write (or outright corruption) can cut a flushed batch at a
/// commit point *inside* an iteration, stranding plain replay past the
/// last mark. [`PiService::open_durable_at_mark`] must discard the
/// trailing partial iteration, land the state exactly on the marked
/// boundary, seal the stale tail out of the log, and let the driver
/// resume to a bit-identical finish. The sealed frontier must also
/// survive the sealing compaction itself (it travels in the base).
#[test]
fn at_mark_recovery_lands_exactly_on_iteration_boundary() {
    const N: u64 = 80;
    const KILL_AT: u64 = 40;
    let (ref_pushes, ref_digests) = reference(N);
    let final_digest = *ref_digests.last().unwrap();
    let knobs = WalKnobs {
        flush_every_n: u32::MAX,
        flush_every_vt: 1e18,
        compact_every: 0,
    };
    let mut sealed_somewhere = false;
    for chop in [13u64, 61, 147, 260, 555] {
        let dir = tmpdir(&format!("atmark-{chop}"));
        {
            let (mut svc, _) = PiService::open_durable(base_cfg(Some(knobs)), &dir).unwrap();
            let sid = svc.register_session();
            let mut h = FNV_OFFSET;
            let mut scratch = Vec::new();
            for i in 1..=KILL_AT {
                scratch.clear();
                drive(&mut svc, sid, i, &mut scratch);
                h = fold_all(h, &scratch);
                svc.wal_mark(i, h);
                svc.wal_sync();
            }
            drop(svc);
        }
        // Chop bytes off the newest segment: the recovery scan now cuts at
        // whatever commit frame survives — very likely mid-iteration.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".seg"))
            .max_by_key(|e| e.file_name())
            .expect("segment exists");
        let bytes = std::fs::read(seg.path()).unwrap();
        let keep = bytes.len().saturating_sub(chop as usize).max(16);
        std::fs::write(seg.path(), &bytes[..keep]).unwrap();

        {
            let (svc, rec) = PiService::open_durable_at_mark(base_cfg(Some(knobs)), &dir).unwrap();
            sealed_somewhere |= rec.sealed > 0;
            let (mark_iter, h) = rec.last_mark.expect("a synced mark survives the chop");
            assert!(mark_iter <= KILL_AT);
            assert_eq!(h, ref_digests[mark_iter as usize - 1], "chop {chop}");
            // The recovered stream ends exactly at the mark: no partial
            // iteration's pushes leak through.
            assert_eq!(rec.pushes.len(), rec.pushes_at_mark, "chop {chop}");
            assert_streams_identical(
                &rec.pushes,
                &ref_pushes[..rec.pushes.len()],
                "at-mark prefix",
            );
            drop(svc); // die again, right after the sealing compaction
        }
        // The sealed frontier is base-carried: the re-open's suffix holds
        // no Mark records (the seal compacted them into the base), yet the
        // resume point must be intact.
        let (mut svc, rec) = PiService::open_durable_at_mark(base_cfg(Some(knobs)), &dir).unwrap();
        let (mark_iter, mut h) = rec.last_mark.expect("frontier survives the seal");
        assert_eq!(h, ref_digests[mark_iter as usize - 1], "chop {chop} reopen");
        let sid = svc
            .session_ids()
            .first()
            .copied()
            .expect("session survives");
        let mut scratch = Vec::new();
        for i in mark_iter + 1..=N {
            scratch.clear();
            drive(&mut svc, sid, i, &mut scratch);
            h = fold_all(h, &scratch);
            svc.wal_mark(i, h);
            svc.wal_sync();
        }
        assert_eq!(
            h, final_digest,
            "chop {chop}: at-mark resume must converge on the reference digest"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        sealed_somewhere,
        "at least one chop must cut mid-iteration and seal records"
    );
}

/// A note the log could not read back (one byte over the record cap) is
/// refused before anything is journaled: the previous note stays, the
/// counter moves, and everything journaled afterwards survives a reopen —
/// written, it would have cut the log at that frame.
#[test]
fn refused_note_does_not_cut_the_log() {
    let knobs = WalKnobs {
        flush_every_n: 1,
        flush_every_vt: 1e18,
        compact_every: 0,
    };
    let dir = tmpdir("note-refused");
    let obs = mqpi_obs::Obs::enabled();
    let cfg = base_cfg(Some(knobs));
    let (live_digest, seq) = {
        let (mut svc, _) = PiService::open_durable_with_obs(cfg, &dir, obs.clone()).unwrap();
        let sid = svc.register_session();
        let mut scratch = Vec::new();
        drive(&mut svc, sid, 1, &mut scratch);
        assert!(svc.wal_note(b"kept"));
        let seq = svc.wal().unwrap().next_seq();
        // Zeroed pages nobody reads: the length alone decides.
        let oversized = vec![0u8; mqpi_wal::MAX_NOTE_LEN + 1];
        assert!(!svc.wal_note(&oversized));
        assert_eq!(obs.counter("wal.note_rejected"), 1);
        assert_eq!(
            svc.wal().unwrap().next_seq(),
            seq,
            "a refused note journals nothing"
        );
        for i in 2..=6 {
            drive(&mut svc, sid, i, &mut scratch);
        }
        svc.wal_mark(6, 0xFEED);
        (svc.state_digest(), svc.wal().unwrap().next_seq())
    };
    let (svc, rec) = PiService::open_durable(cfg, &dir).unwrap();
    assert_eq!(rec.truncated_bytes, 0);
    assert_eq!(rec.replayed, seq - 1);
    assert_eq!(rec.last_note.as_deref(), Some(&b"kept"[..]));
    assert_eq!(rec.last_mark, Some((6, 0xFEED)));
    assert_eq!(svc.state_digest(), live_digest);
    // A volatile service has nothing to journal and nothing to refuse.
    assert!(PiService::try_new(base_cfg(None))
        .unwrap()
        .wal_note(b"ignored"));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// the standby's cursor
// ---------------------------------------------------------------------------

fn newest_segment(dir: &std::path::Path) -> PathBuf {
    std::fs::read_dir(dir)
        .expect("read log dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".seg"))
        .max_by_key(|e| e.file_name())
        .expect("segment exists")
        .path()
}

fn file_len(p: &std::path::Path) -> u64 {
    std::fs::metadata(p).expect("segment metadata").len()
}

/// Random interleavings of primary calls, syncs, compactions and
/// `catch_up`s under several group-commit and auto-compaction policies:
/// after every `catch_up` the replica that tails from its cursor is
/// indistinguishable from one built by a fresh full scan of the same
/// directory, and what it has pushed so far ends with what the fresh one
/// regenerates.
#[test]
fn cursor_standby_equals_a_fresh_standby_after_every_catch_up() {
    let mut catch_ups = 0;
    let mut applied_total = 0;
    for case in 0..24u64 {
        let seed = splitmix64(0x00C0_FFEE ^ case);
        let knobs = WalKnobs {
            flush_every_n: [1, 3, 16, u32::MAX][(seed % 4) as usize],
            flush_every_vt: 1e18,
            compact_every: [0, 0, 41][((seed >> 4) % 3) as usize],
        };
        let cfg = base_cfg(Some(knobs));
        let dir = tmpdir(&format!("cursor-prop-{case}"));
        let (mut svc, _) = PiService::open_durable(cfg, &dir).unwrap();
        let sid = svc.register_session();
        let mut sb = Standby::new(cfg, &dir).unwrap();
        let mut sb_stream = Vec::new();
        let mut scratch = Vec::new();
        let mut i = 0u64;
        for step in 0..160u64 {
            let r = splitmix64(seed ^ step.wrapping_mul(0x2545_F491_4F6C_DD1D));
            match r % 16 {
                0..=7 => {
                    i += 1;
                    scratch.clear();
                    drive(&mut svc, sid, i, &mut scratch);
                }
                8 => svc.wal_mark(i, r),
                9..=10 => svc.wal_sync(),
                11 => svc.wal_compact_now(),
                _ => {
                    applied_total += sb.catch_up().unwrap();
                    catch_ups += 1;
                    sb.drain_pushes(&mut sb_stream);
                    let mut fresh = Standby::new(cfg, &dir).unwrap();
                    let what = format!("case {case} step {step}");
                    assert_eq!(sb.applied_seq(), fresh.applied_seq(), "{what}");
                    assert_eq!(sb.last_mark(), fresh.last_mark(), "{what}");
                    assert_eq!(
                        sb.service().state_digest(),
                        fresh.service().state_digest(),
                        "{what}"
                    );
                    let mut regenerated = Vec::new();
                    fresh.drain_pushes(&mut regenerated);
                    assert!(regenerated.len() <= sb_stream.len(), "{what}");
                    let tail = &sb_stream[sb_stream.len() - regenerated.len()..];
                    assert!(
                        tail.iter().zip(&regenerated).all(|(a, b)| same_push(a, b)),
                        "{what}: push streams differ"
                    );
                }
            }
        }
        // Everything synced: the replica catches up to the primary itself.
        svc.wal_sync();
        sb.catch_up().unwrap();
        assert_eq!(sb.applied_seq(), svc.wal().unwrap().next_seq() - 1);
        assert_eq!(sb.service().state_digest(), svc.state_digest());
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(catch_ups > 200 && applied_total > 2_000);
}

/// A half-written frame and an uncommitted batch past the cursor: the
/// cursor does not move, and the next call picks the records up once the
/// batch is whole and committed. `wal.tail_bytes` counts exactly the new
/// frames plus the open batch read again. The primary here is a detached
/// log driven by hand, because every service call commits its own frame.
#[test]
fn cursor_waits_at_torn_frames_and_open_batches() {
    let knobs = WalKnobs {
        flush_every_n: u32::MAX,
        flush_every_vt: 1e18,
        compact_every: 0,
    };
    let cfg = base_cfg(Some(knobs));
    let dir = tmpdir("cursor-torn");
    let (mut svc, _) = PiService::open_durable(cfg, &dir).unwrap();
    let sid = svc.register_session();
    svc.wal_sync();
    let mut wal = svc.detach_wal().unwrap();
    let seg = newest_segment(&dir);
    let obs = mqpi_obs::Obs::enabled();
    let mut sb = Standby::with_obs(cfg, &dir, obs.clone()).unwrap();
    assert_eq!(sb.applied_seq(), 1);
    let tail_bytes = |before: &mut u64| {
        let now = obs.counter("wal.tail_bytes");
        std::mem::replace(before, now).abs_diff(now)
    };
    let mut counted = obs.counter("wal.tail_bytes");
    let mut pushes = Vec::new();
    let mut journal = |wal: &mut mqpi_wal::Wal, svc: &mut PiService, rec: WalRecord| {
        wal.append(&rec);
        svc.apply_record(&rec, &mut pushes);
    };

    // Two frames of a three-frame batch reach the disk uncommitted.
    let committed = file_len(&seg);
    journal(
        &mut wal,
        &mut svc,
        WalRecord::Submit {
            session: sid,
            cost: 12.0,
            weight: 1.0,
        },
    );
    journal(&mut wal, &mut svc, WalRecord::Advance { dt: 0.25 });
    wal.flush(0.0).unwrap();
    let open_batch = file_len(&seg) - committed;
    assert_eq!(sb.catch_up().unwrap(), 0);
    assert_eq!(sb.applied_seq(), 1, "an open batch is not applied");
    assert_eq!(tail_bytes(&mut counted), open_batch);

    // The commit frame arrives: all three apply, the open batch read again.
    journal(&mut wal, &mut svc, WalRecord::Pump);
    wal.commit(0.0).unwrap();
    wal.flush(0.0).unwrap();
    assert_eq!(sb.catch_up().unwrap(), 3);
    assert_eq!(sb.applied_seq(), 4);
    assert_eq!(tail_bytes(&mut counted), file_len(&seg) - committed);
    assert_eq!(sb.service().state_digest(), svc.state_digest());

    // Nothing new: nothing read.
    assert_eq!(sb.catch_up().unwrap(), 0);
    assert_eq!(tail_bytes(&mut counted), 0);

    // A committed frame of which only half is on disk yet.
    let committed = file_len(&seg);
    journal(&mut wal, &mut svc, WalRecord::Advance { dt: 0.5 });
    wal.commit(0.0).unwrap();
    wal.flush(0.0).unwrap();
    let whole = std::fs::read(&seg).unwrap();
    let half = committed + (whole.len() as u64 - committed) / 2;
    std::fs::write(&seg, &whole[..half as usize]).unwrap();
    assert_eq!(sb.catch_up().unwrap(), 0);
    assert_eq!(sb.applied_seq(), 4, "a torn frame is not applied");
    assert_eq!(tail_bytes(&mut counted), half - committed);
    std::fs::write(&seg, &whole).unwrap();
    assert_eq!(sb.catch_up().unwrap(), 1);
    assert_eq!(tail_bytes(&mut counted), whole.len() as u64 - committed);
    assert_eq!(sb.applied_seq(), 5);
    assert_eq!(sb.service().state_digest(), svc.state_digest());
    let mut sb_pushes = Vec::new();
    sb.drain_pushes(&mut sb_pushes);
    assert_streams_identical(&sb_pushes, &pushes, "hand-driven stream");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compaction while the replica is fully caught up: the segment under the
/// cursor is gone, one scan finds the new base covering exactly what the
/// replica has applied, and tailing continues in the new segment — no push
/// lost, none duplicated, and the calls after the re-anchor read only what
/// is new again.
#[test]
fn cursor_follows_compaction_when_caught_up() {
    let knobs = WalKnobs {
        flush_every_n: 1,
        flush_every_vt: 1e18,
        compact_every: 0,
    };
    let cfg = base_cfg(Some(knobs));
    let dir = tmpdir("cursor-compact-caught-up");
    let (mut svc, _) = PiService::open_durable(cfg, &dir).unwrap();
    let sid = svc.register_session();
    let obs = mqpi_obs::Obs::enabled();
    let mut sb = Standby::with_obs(cfg, &dir, obs.clone()).unwrap();
    let mut primary_stream = Vec::new();
    let mut scratch = Vec::new();
    for i in 1..=20 {
        scratch.clear();
        drive(&mut svc, sid, i, &mut scratch);
        primary_stream.extend(scratch.iter().cloned());
    }
    assert!(sb.catch_up().unwrap() > 0);
    let old_segment = newest_segment(&dir);
    svc.wal_compact_now();
    assert!(!old_segment.exists());
    assert_eq!(
        sb.catch_up().unwrap(),
        0,
        "the base covers what was applied"
    );
    for round in 0..3u64 {
        let seg = newest_segment(&dir);
        let (len_before, read_before) = (file_len(&seg), obs.counter("wal.tail_bytes"));
        for i in 21 + 5 * round..26 + 5 * round {
            scratch.clear();
            drive(&mut svc, sid, i, &mut scratch);
            primary_stream.extend(scratch.iter().cloned());
        }
        assert!(sb.catch_up().unwrap() > 0);
        assert_eq!(
            obs.counter("wal.tail_bytes") - read_before,
            file_len(&seg) - len_before,
            "round {round}: the cursor reads the new frames only"
        );
    }
    assert_eq!(sb.service().state_digest(), svc.state_digest());
    let mut sb_stream = Vec::new();
    sb.drain_pushes(&mut sb_stream);
    assert_streams_identical(&sb_stream, &primary_stream, "stream across compaction");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compaction past the cursor: the new base covers records the replica
/// never applied, so it re-anchors on the base. The pushes of the skipped
/// records are gone with them; none is delivered twice.
#[test]
fn cursor_reanchors_when_compaction_passes_it() {
    let knobs = WalKnobs {
        flush_every_n: 1,
        flush_every_vt: 1e18,
        compact_every: 0,
    };
    let cfg = base_cfg(Some(knobs));
    let dir = tmpdir("cursor-compact-past");
    let (mut svc, _) = PiService::open_durable(cfg, &dir).unwrap();
    let sid = svc.register_session();
    let mut sb = Standby::new(cfg, &dir).unwrap();
    let mut primary_stream = Vec::new();
    let mut scratch = Vec::new();
    let mut run = |svc: &mut PiService, stream: &mut Vec<EstimatePush>, range| {
        for i in range {
            scratch.clear();
            drive(svc, sid, i, &mut scratch);
            stream.extend(scratch.iter().cloned());
        }
    };
    run(&mut svc, &mut primary_stream, 1..=15);
    sb.catch_up().unwrap();
    let seen = primary_stream.len();
    run(&mut svc, &mut primary_stream, 16..=30);
    let skipped_to = primary_stream.len();
    svc.wal_compact_now();
    run(&mut svc, &mut primary_stream, 31..=45);
    assert!(sb.catch_up().unwrap() > 0);
    assert_eq!(sb.applied_seq(), svc.wal().unwrap().next_seq() - 1);
    assert_eq!(sb.service().state_digest(), svc.state_digest());
    let mut sb_stream = Vec::new();
    sb.drain_pushes(&mut sb_stream);
    let mut want = primary_stream[..seen].to_vec();
    want.extend(primary_stream[skipped_to..].iter().cloned());
    assert_streams_identical(&sb_stream, &want, "stream around the skipped records");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The segment cut back behind the cursor (a dead primary's log damaged
/// after the replica read it): the cursor no longer describes the file, so
/// `catch_up` falls back to the full scan, which finds nothing past what
/// the replica already has; `promote` then rebuilds the replica to the
/// authoritative log exactly as a plain durable open of the same directory.
#[test]
fn segment_truncated_behind_the_cursor_falls_back_to_a_full_scan() {
    let knobs = WalKnobs {
        flush_every_n: 1,
        flush_every_vt: 1e18,
        compact_every: 0,
    };
    let cfg = base_cfg(Some(knobs));
    let dir = tmpdir("cursor-truncated");
    let (mut svc, _) = PiService::open_durable(cfg, &dir).unwrap();
    let sid = svc.register_session();
    let mut scratch = Vec::new();
    for i in 1..=25 {
        drive(&mut svc, sid, i, &mut scratch);
    }
    let mut sb = Standby::new(cfg, &dir).unwrap();
    sb.catch_up().unwrap();
    let applied = sb.applied_seq();
    assert_eq!(applied, svc.wal().unwrap().next_seq() - 1);
    drop(svc);
    let seg = newest_segment(&dir);
    let bytes = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &bytes[..bytes.len() - 100]).unwrap();

    assert_eq!(sb.catch_up().unwrap(), 0);
    assert_eq!(sb.applied_seq(), applied, "the replica is ahead of the log");
    // Twice: the cursor re-anchored on the shortened segment.
    assert_eq!(sb.catch_up().unwrap(), 0);

    let copy = tmpdir("cursor-truncated-copy");
    for e in std::fs::read_dir(&dir).unwrap() {
        let e = e.unwrap();
        std::fs::copy(e.path(), copy.join(e.file_name())).unwrap();
    }
    let (reference, want) = PiService::open_durable(cfg, &copy).unwrap();
    let (promoted, got) = sb.promote().unwrap();
    assert!(got.truncated_bytes > 0);
    assert_eq!(got.truncated_bytes, want.truncated_bytes);
    assert!(promoted.wal().unwrap().next_seq() - 1 < applied);
    assert_eq!(
        promoted.wal().unwrap().next_seq(),
        reference.wal().unwrap().next_seq()
    );
    assert_eq!(promoted.state_digest(), reference.state_digest());
    assert_streams_identical(&got.pushes, &want.pushes, "rebuilt stream");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&copy);
}

// ---------------------------------------------------------------------------
// the streaming open against the collected route
// ---------------------------------------------------------------------------

/// The log policy of the differential logs: flushes and compactions happen
/// only where the generator asks for them.
const HAND_KNOBS: WalKnobs = WalKnobs {
    flush_every_n: u32::MAX,
    flush_every_vt: 1e18,
    compact_every: 0,
};

/// A frame longer than the scan's 64 KiB read window.
const LONG_NOTE: usize = 70_000;

/// How a generated log ends.
#[derive(Debug, Clone, Copy, PartialEq)]
enum End {
    /// Dropped mid-stream: whatever was not flushed is gone.
    Kill,
    /// A mark, committed and flushed, is the last record.
    MarkLast,
    /// A committed mark, then a batch that is flushed but never committed.
    OpenBatch,
}

/// What is done to the directory after the generator dies.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Damage {
    None,
    /// The newest segment cut at a random length.
    Torn,
    /// One byte of the newest segment's frames flipped.
    Flip,
    /// The newest segment split in two at a frame boundary (inside the
    /// open batch when there is one), so a batch can span the edge.
    Split,
    /// The files a compaction retired put back and the newest base
    /// damaged, so the scan walks the older base's segment and the newer
    /// one as one chain.
    Revive,
}

/// The driver frontier each base carries, by the sequence it covers.
type Frontiers = Vec<(u64, Option<(u64, u64)>, Option<Vec<u8>>)>;

fn list_sorted(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read log dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    paths.sort();
    paths
}

fn segments(dir: &std::path::Path) -> Vec<PathBuf> {
    list_sorted(dir)
        .into_iter()
        .filter(|p| p.to_string_lossy().ends_with(".seg"))
        .collect()
}

fn snapshot(dir: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
    list_sorted(dir)
        .into_iter()
        .map(|p| {
            let bytes = std::fs::read(&p).expect("read log file");
            (p, bytes)
        })
        .collect()
}

fn copy_dir(from: &std::path::Path, tag: &str) -> PathBuf {
    let to = tmpdir(tag);
    for (p, bytes) in snapshot(from) {
        std::fs::write(to.join(p.file_name().expect("file name")), bytes).expect("copy");
    }
    to
}

/// FNV-1a over every file in `dir`: name, length and bytes, in name order.
fn dir_digest(dir: &std::path::Path) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (p, bytes) in snapshot(dir) {
        eat(p
            .file_name()
            .expect("file name")
            .to_string_lossy()
            .as_bytes());
        eat(&(bytes.len() as u64).to_le_bytes());
        eat(&bytes);
    }
    h
}

/// `(start, end, seq, commit)` of each well-formed frame of a segment, in
/// order, up to the first one that is not: a whole-file walk that shares
/// no code with the log's reader.
fn frames_of(seg: &[u8]) -> Vec<(usize, usize, u64, bool)> {
    let mut out = Vec::new();
    let Some(first) = seg.get(8..16) else {
        return out;
    };
    let mut seq = u64::from_le_bytes(first.try_into().expect("8 bytes"));
    let mut pos = 16;
    while let Some(head) = seg.get(pos..pos + 13) {
        let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
        let Some(trailer) = seg.get(pos + 13 + len..pos + 17 + len) else {
            break;
        };
        let crc = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
        let frame_seq = u64::from_le_bytes(head[5..13].try_into().expect("8 bytes"));
        if crc != mqpi_ckpt::crc32(&seg[pos..pos + 13 + len]) || head[4] > 1 || frame_seq != seq {
            break;
        }
        out.push((pos, pos + 17 + len, seq, head[4] == 1));
        pos += 17 + len;
        seq += 1;
    }
    out
}

/// Journal random service commands through a detached log by hand: random
/// batch edges, flushes and compactions, marks and notes (some longer than
/// the read window) as `marks` and `long_notes` allow, then end as `end`
/// says and damage the directory as `damage` says. Returns the frontier
/// each base carries, which the collected route's oracle needs.
fn random_log(
    dir: &std::path::Path,
    seed: u64,
    marks: bool,
    long_notes: bool,
    end: End,
    damage: Damage,
) -> Frontiers {
    let (mut svc, _) =
        PiService::open_durable(base_cfg(Some(HAND_KNOBS)), dir).expect("durable open");
    let mut wal = svc.detach_wal().expect("a journaling service");
    let mut frontiers: Frontiers = vec![(0, None, None)];
    let (mut last_mark, mut last_note) = (None, None);
    let mut retired = Vec::new();
    let mut pushes = Vec::new();
    let mut journal = |wal: &mut mqpi_wal::Wal, svc: &mut PiService, rec: WalRecord| {
        if let WalRecord::Mark { iter, digest } = rec {
            last_mark = Some((iter, digest));
        }
        if let WalRecord::Note { ref bytes } = rec {
            last_note = Some(bytes.clone());
        }
        wal.append(&rec);
        svc.apply_record(&rec, &mut pushes);
        (last_mark, last_note.clone())
    };
    journal(&mut wal, &mut svc, WalRecord::RegisterSession);
    wal.commit(0.0).expect("commit");
    let steps = 200 + splitmix64(seed) % 1_800;
    let mut submitted = 0u64;
    for step in 0..steps {
        let r = splitmix64(seed ^ step.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let sessions = svc.session_ids();
        let session = match sessions.len() {
            0 => (r >> 8) % 3,
            n => sessions[(r >> 8) as usize % n],
        };
        let query = 1 + (r >> 12) % (submitted + 1);
        let rec = match r % 40 {
            0..=11 => {
                submitted += 1;
                WalRecord::Submit {
                    session,
                    cost: 0.5 + ((r >> 24) % 80) as f64 * 0.1,
                    weight: 1.0 + ((r >> 32) % 3) as f64,
                }
            }
            12..=17 => WalRecord::Advance {
                dt: 0.01 + ((r >> 24) % 20) as f64 * 0.01,
            },
            18..=24 => WalRecord::Pump,
            25 => WalRecord::Abort { query },
            26 => WalRecord::Reweight {
                query,
                weight: 0.5 + ((r >> 24) % 4) as f64,
            },
            27 => WalRecord::Refine {
                query,
                cost: 0.2 + ((r >> 24) % 30) as f64 * 0.1,
            },
            28 => WalRecord::SetRate {
                rate: 5.0 + ((r >> 24) % 10) as f64,
            },
            29..=31 => WalRecord::Subscribe { session, query },
            32 if r.is_multiple_of(7) => WalRecord::CloseSession { session },
            32 => WalRecord::RegisterSession,
            33 | 34 if marks => WalRecord::Mark {
                iter: step,
                digest: r,
            },
            35 => {
                let len = if long_notes && (r >> 20).is_multiple_of(6) {
                    LONG_NOTE
                } else {
                    ((r >> 24) % 200) as usize
                };
                WalRecord::Note {
                    bytes: (0..len).map(|k| (k as u64 ^ r) as u8).collect(),
                }
            }
            _ => WalRecord::Pump,
        };
        let frontier = journal(&mut wal, &mut svc, rec);
        let vt = svc.now();
        if !(r >> 44).is_multiple_of(3) {
            wal.commit(vt).expect("commit");
        }
        if (r >> 48).is_multiple_of(40) {
            wal.flush(vt).expect("flush");
        }
        if (r >> 52).is_multiple_of(600) {
            // Commit and flush first, so what the compaction retires is on
            // disk exactly as the snapshot has it.
            wal.commit(vt).expect("commit");
            wal.flush(vt).expect("flush");
            retired = snapshot(dir);
            wal.compact(&svc.checkpoint(), vt).expect("compact");
            frontiers.push((wal.next_seq() - 1, frontier.0, frontier.1));
        }
    }
    let vt = svc.now();
    let mut open_from = None;
    match end {
        End::Kill => {}
        End::MarkLast | End::OpenBatch => {
            journal(
                &mut wal,
                &mut svc,
                WalRecord::Mark {
                    iter: steps,
                    digest: seed,
                },
            );
            wal.commit(vt).expect("commit");
            if end == End::OpenBatch {
                open_from = Some(wal.next_seq());
                journal(&mut wal, &mut svc, WalRecord::Advance { dt: 0.03 });
                journal(&mut wal, &mut svc, WalRecord::Pump);
                journal(&mut wal, &mut svc, WalRecord::Advance { dt: 0.05 });
            }
            wal.flush(vt).expect("flush");
        }
    }
    drop(wal); // SIGKILL: the buffer past the last flush is lost

    let r = splitmix64(seed ^ 0xDA3A6E);
    let newest = segments(dir).pop().expect("a live segment");
    let mut bytes = std::fs::read(&newest).expect("log file i/o");
    match damage {
        Damage::None => {}
        Damage::Torn => {
            bytes.truncate(16 + (r as usize) % (bytes.len() - 15));
            std::fs::write(&newest, &bytes).expect("log file i/o");
        }
        Damage::Flip if bytes.len() > 16 => {
            let at = 16 + (r as usize) % (bytes.len() - 16);
            bytes[at] ^= 1 << ((r >> 32) % 8);
            std::fs::write(&newest, &bytes).expect("log file i/o");
        }
        Damage::Flip => {}
        Damage::Split => {
            let frames = frames_of(&bytes);
            let inside: Vec<_> = match open_from {
                Some(seq) => frames.iter().filter(|f| f.2 > seq).collect(),
                None => frames.iter().skip(1).collect(),
            };
            if let Some(&&(at, _, seq, _)) = inside.get((r as usize) % inside.len().max(1)) {
                let mut second = Vec::with_capacity(16 + bytes.len() - at);
                second.extend_from_slice(b"MQWL");
                second.extend_from_slice(&1u32.to_le_bytes());
                second.extend_from_slice(&seq.to_le_bytes());
                second.extend_from_slice(&bytes[at..]);
                std::fs::write(dir.join(format!("wal-{seq:016x}.seg")), second)
                    .expect("log file i/o");
                std::fs::write(&newest, &bytes[..at]).expect("log file i/o");
            }
        }
        Damage::Revive if !retired.is_empty() => {
            let bases: Vec<PathBuf> = list_sorted(dir)
                .into_iter()
                .filter(|p| p.to_string_lossy().ends_with(".ckpt"))
                .collect();
            for (p, old) in &retired {
                std::fs::write(p, old).expect("log file i/o");
            }
            let newest_base = bases.last().expect("a base");
            let mut base = std::fs::read(newest_base).expect("log file i/o");
            let mid = base.len() / 2;
            base[mid] ^= 0x40;
            std::fs::write(newest_base, base).expect("log file i/o");
        }
        Damage::Revive => {}
    }
    if r.is_multiple_of(4) {
        std::fs::write(dir.join("base-0000000000000000.ckpt.tmp"), b"torn").expect("log file i/o");
    }
    frontiers
}

/// Everything an open recovers that the two routes must agree on.
#[derive(Debug, PartialEq)]
struct Opened {
    state: u64,
    push_bits: Vec<[u64; 5]>,
    pushes_at_mark: usize,
    last_mark: Option<(u64, u64)>,
    last_note: Option<Vec<u8>>,
    replayed: u64,
    sealed: u64,
    truncated_bytes: u64,
    resumed: bool,
    swept_tmp: usize,
    next_seq: u64,
    dir: u64,
}

fn push_bits(pushes: &[EstimatePush]) -> Vec<[u64; 5]> {
    pushes
        .iter()
        .map(|p| {
            [
                p.session,
                p.query,
                p.at.to_bits(),
                p.estimate.to_bits(),
                u64::from(p.done),
            ]
        })
        .collect()
}

/// The route recovery took before it streamed, kept as the oracle: the
/// collected `Wal::open`, the service restored from the base, then
/// `records[..boundary]` replayed, where the boundary is just past the
/// newest mark at a mark and the end otherwise; then the sealing
/// compaction. Also returns the collected record count.
fn collected_route(dir: &std::path::Path, at_mark: bool, frontiers: &Frontiers) -> (Opened, usize) {
    let cfg = base_cfg(Some(HAND_KNOBS));
    let (mut wal, rec) =
        mqpi_wal::Wal::open(dir, HAND_KNOBS, mqpi_obs::Obs::disabled()).expect("collected open");
    let mut svc = match &rec.base {
        Some(bytes) => PiService::restore(bytes).expect("restore the base"),
        None => PiService::try_new(cfg).expect("valid config"),
    };
    let boundary = if at_mark {
        rec.records
            .iter()
            .rposition(|(_, r)| matches!(r, WalRecord::Mark { .. }))
            .map_or(0, |i| i + 1)
    } else {
        rec.records.len()
    };
    let (mut last_mark, mut last_note) = match frontiers.iter().find(|f| f.0 == rec.base_through) {
        Some((_, mark, note)) if rec.base.is_some() => (*mark, note.clone()),
        _ => (None, None),
    };
    let (mut pushes, mut pushes_at_mark) = (Vec::new(), 0);
    for (seq, r) in &rec.records[..boundary] {
        assert!(*seq > rec.base_through);
        match r {
            WalRecord::Mark { iter, digest } => {
                last_mark = Some((*iter, *digest));
                pushes_at_mark = pushes.len();
            }
            WalRecord::Note { bytes } => last_note = Some(bytes.clone()),
            _ => {}
        }
        svc.apply_record(r, &mut pushes);
    }
    let sealed = (rec.records.len() - boundary) as u64;
    if rec.base.is_none() || sealed > 0 {
        wal.compact(&svc.checkpoint(), svc.now()).expect("compact");
    }
    let opened = Opened {
        state: svc.state_digest(),
        push_bits: push_bits(&pushes),
        pushes_at_mark,
        last_mark,
        last_note,
        replayed: boundary as u64,
        sealed,
        truncated_bytes: rec.truncated_bytes,
        resumed: rec.resumed,
        swept_tmp: rec.swept_tmp,
        next_seq: wal.next_seq(),
        dir: 0,
    };
    drop(wal);
    (
        Opened {
            dir: dir_digest(dir),
            ..opened
        },
        rec.records.len(),
    )
}

fn streaming_route(dir: &std::path::Path, at_mark: bool) -> Opened {
    let cfg = base_cfg(Some(HAND_KNOBS));
    let (svc, rec) = if at_mark {
        PiService::open_durable_at_mark(cfg, dir)
    } else {
        PiService::open_durable(cfg, dir)
    }
    .expect("durable open");
    let opened = Opened {
        state: svc.state_digest(),
        push_bits: push_bits(&rec.pushes),
        pushes_at_mark: rec.pushes_at_mark,
        last_mark: rec.last_mark,
        last_note: rec.last_note,
        replayed: rec.replayed,
        sealed: rec.sealed,
        truncated_bytes: rec.truncated_bytes,
        resumed: rec.resumed,
        swept_tmp: rec.swept_tmp,
        next_seq: svc.wal().expect("an attached log").next_seq(),
        dir: 0,
    };
    drop(svc);
    Opened {
        dir: dir_digest(dir),
        ..opened
    }
}

/// With one segment, a whole-file walk says independently of the log's
/// reader what a scan must find past `base_through`: how many records are
/// committed, and how many bytes follow the last commit frame.
fn one_segment_frontier(dir: &std::path::Path, base_through: u64) -> Option<(usize, u64)> {
    let [seg] = &segments(dir)[..] else {
        return None;
    };
    let bytes = std::fs::read(seg).expect("log file i/o");
    let first = u64::from_le_bytes(bytes.get(8..16)?.try_into().ok()?);
    if bytes.get(..4)? != b"MQWL" || first > base_through + 1 {
        return None;
    }
    let frames = frames_of(&bytes);
    let last_commit = frames.iter().rposition(|f| f.3);
    let committed = last_commit.map_or(0, |i| {
        frames[..=i].iter().filter(|f| f.2 > base_through).count()
    });
    let keep = last_commit.map_or(16, |i| frames[i].1);
    Some((committed, (bytes.len() - keep) as u64))
}

/// Simulator feed taps ([`WalRecord::SimEvent`]) describe a mirror, not the
/// service: a log with tap frames journaled between its commands — well
/// formed ones and garbage alike — recovers, plainly and at a mark, to the
/// same state and the same pushes as the same log without them.
#[test]
fn journaled_sim_events_replay_as_no_ops() {
    const TAPS: [(u8, f64, u64, f64, f64); 9] = [
        (1, 0.0, 1, 4.0, 1.0),
        (2, 0.1, 2, 7.5, 2.0),
        (3, 0.2, 1, 0.0, 0.0),
        (4, 0.3, 2, 0.0, 0.0),
        (5, 0.4, 2, 0.0, 0.0),
        (6, 0.5, 2, 3.25, 0.0),
        (7, 0.6, 0, 9.0, 0.0),
        (0, f64::NAN, u64::MAX, f64::INFINITY, -1.0),
        (200, -5.0, 7, f64::NAN, f64::NEG_INFINITY),
    ];
    // Journal the same commands into a fresh log, with a tap frame after
    // every command but the marks when `taps` (so each iteration still ends
    // on its mark); returns the directory, the live state and pushes, and
    // how many taps went in.
    let write = |tag: &str, taps: bool| {
        let dir = tmpdir(tag);
        let (mut svc, _) =
            PiService::open_durable(base_cfg(Some(HAND_KNOBS)), &dir).expect("durable open");
        let mut wal = svc.detach_wal().expect("a journaling service");
        let (mut pushes, mut tapped) = (Vec::new(), 0u64);
        let mut journal = |wal: &mut mqpi_wal::Wal, svc: &mut PiService, rec: WalRecord| {
            wal.append(&rec);
            svc.apply_record(&rec, &mut pushes);
            if taps && !matches!(rec, WalRecord::Mark { .. }) {
                let (tag, at, id, a, b) = TAPS[tapped as usize % TAPS.len()];
                wal.append(&WalRecord::SimEvent { tag, at, id, a, b });
                tapped += 1;
            }
        };
        journal(&mut wal, &mut svc, WalRecord::RegisterSession);
        let session = svc.session_ids()[0];
        for i in 1..=40u64 {
            let r = splitmix64(0x7A9_0000 ^ i);
            journal(
                &mut wal,
                &mut svc,
                WalRecord::Submit {
                    session,
                    cost: 2.0 + (r % 50) as f64 * 0.3,
                    weight: 1.0 + ((r >> 8) % 3) as f64,
                },
            );
            let query = 1 + (r >> 16) % i;
            let control = match (r >> 24) % 5 {
                0 => WalRecord::Abort { query },
                1 => WalRecord::Reweight {
                    query,
                    weight: 0.5 + ((r >> 32) % 4) as f64,
                },
                2 => WalRecord::Refine {
                    query,
                    cost: 1.0 + ((r >> 32) % 20) as f64 * 0.25,
                },
                3 => WalRecord::Subscribe { session, query },
                _ => WalRecord::SetRate {
                    rate: 8.0 + ((r >> 32) % 5) as f64,
                },
            };
            journal(&mut wal, &mut svc, control);
            journal(&mut wal, &mut svc, WalRecord::Advance { dt: 0.07 });
            journal(&mut wal, &mut svc, WalRecord::Pump);
            journal(&mut wal, &mut svc, WalRecord::Mark { iter: i, digest: r });
            wal.commit(svc.now()).expect("commit");
        }
        wal.flush(svc.now()).expect("flush");
        drop(wal);
        (dir, svc.state_digest(), push_bits(&pushes), tapped)
    };
    let (plain_dir, plain_state, plain_pushes, _) = write("taps-without", false);
    let (tap_dir, tap_state, tap_pushes, tapped) = write("taps-with", true);
    assert_eq!(tap_state, plain_state, "taps moved the live state");
    assert_eq!(tap_pushes, plain_pushes, "taps moved the live pushes");
    assert_eq!(tapped, 1 + 40 * 4);
    assert!(!plain_pushes.is_empty());
    for at_mark in [false, true] {
        let tag = if at_mark { "at-mark" } else { "plain" };
        let plain_copy = copy_dir(&plain_dir, &format!("taps-without-{tag}"));
        let tap_copy = copy_dir(&tap_dir, &format!("taps-with-{tag}"));
        let open = |dir: &std::path::Path| {
            let cfg = base_cfg(Some(HAND_KNOBS));
            if at_mark {
                PiService::open_durable_at_mark(cfg, dir)
            } else {
                PiService::open_durable(cfg, dir)
            }
            .expect("durable open")
        };
        let (want_svc, want) = open(&plain_copy);
        let (got_svc, got) = open(&tap_copy);
        assert_eq!(
            got.replayed,
            want.replayed + tapped,
            "{tag}: taps not replayed"
        );
        assert_eq!(want_svc.state_digest(), plain_state, "{tag}");
        assert_eq!(got_svc.state_digest(), plain_state, "{tag}");
        assert_eq!(push_bits(&want.pushes), plain_pushes, "{tag}");
        assert_eq!(push_bits(&got.pushes), plain_pushes, "{tag}");
        assert_eq!(got.last_mark, want.last_mark, "{tag}");
        assert_eq!(got.pushes_at_mark, want.pushes_at_mark, "{tag}");
        assert_eq!((got.sealed, want.sealed), (0, 0), "{tag}");
        let _ = std::fs::remove_dir_all(&plain_copy);
        let _ = std::fs::remove_dir_all(&tap_copy);
    }
    let _ = std::fs::remove_dir_all(&plain_dir);
    let _ = std::fs::remove_dir_all(&tap_dir);
}

/// The streaming open — records applied as the scan reads them, at a mark
/// or plain — recovers exactly what the collected route does, on random
/// logs: killed at random offsets, torn, flipped mid-log, split into
/// multi-segment chains, chained across a compaction, with no mark at all,
/// a mark as the last committed record, and an uncommitted batch past the
/// last mark that spans a segment edge. Where the directory holds one
/// segment, a whole-file walk also checks the scan's frontier.
#[test]
fn streaming_open_equals_the_collected_route() {
    use std::collections::BTreeMap;
    let ends = [End::Kill, End::MarkLast, End::OpenBatch];
    let damages = [
        Damage::None,
        Damage::Torn,
        Damage::Flip,
        Damage::Split,
        Damage::Revive,
    ];
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for case in 0..45u64 {
        let seed = splitmix64(0x51DE_CA5E ^ case);
        let end = ends[(case % 3) as usize];
        let damage = damages[((case / 3) % 5) as usize];
        let marks = case % 9 != 3;
        let long_notes = case % 4 != 1;
        let dir = tmpdir(&format!("diff-{case}"));
        let frontiers = random_log(&dir, seed, marks, long_notes, end, damage);
        let chain = segments(&dir).len();
        for at_mark in [false, true] {
            let what =
                format!("case {case} ({end:?}, {damage:?}, marks {marks}), at mark {at_mark}");
            let oracle_dir = copy_dir(&dir, &format!("diff-{case}-oracle"));
            let stream_dir = copy_dir(&dir, &format!("diff-{case}-stream"));
            let base_through = mqpi_wal::WalCursor::default()
                .advance(&oracle_dir, &mqpi_obs::Obs::disabled())
                .expect("scan")
                .base_through;
            let frontier = one_segment_frontier(&oracle_dir, base_through);
            let (want, collected) = collected_route(&oracle_dir, at_mark, &frontiers);
            let got = streaming_route(&stream_dir, at_mark);
            if let Some((committed, truncated)) = frontier {
                assert_eq!(collected, committed, "{what}: committed records");
                assert_eq!(want.truncated_bytes, truncated, "{what}: truncated bytes");
                *seen.entry("one segment").or_default() += 1;
            }
            assert_eq!(got, want, "{what}");
            let mut note =
                |k: &'static str, hit: bool| *seen.entry(k).or_default() += usize::from(hit);
            note("sealed", got.sealed > 0);
            note("truncated", got.truncated_bytes > 0);
            note("replayed", got.replayed > 0);
            note("chain", chain > 1);
            note("no mark at all", !marks && end == End::Kill);
            note(
                "open batch split",
                end == End::OpenBatch && damage == Damage::Split && chain > 1,
            );
            note("mark last", end == End::MarkLast && damage == Damage::None);
            note("swept", got.swept_tmp > 0);
            let _ = std::fs::remove_dir_all(&oracle_dir);
            let _ = std::fs::remove_dir_all(&stream_dir);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!("opens by kind: {seen:?}");
    for k in [
        "sealed",
        "truncated",
        "replayed",
        "chain",
        "no mark at all",
        "open batch split",
        "mark last",
        "swept",
        "one segment",
    ] {
        assert!(
            seen.get(k).copied().unwrap_or(0) >= 2,
            "too few {k} cases: {seen:?}"
        );
    }
}
