//! The checkpoint wire format, pinned two ways on one set of fixtures.
//!
//! **Golden digests.** FNV-1a over the checkpoint bytes of every state
//! that was only round-trip-tested before the per-type codecs moved to
//! `mqpi_ckpt::Wire`: `System` (both step modes; faults armed, event feed
//! on, a scheduled arrival, a blocked and a rolling-back session),
//! `PiService` (deadlines, backoff, ladder, breaker, `wal` knobs, mark and
//! note caches), `BandedPi`, `InvariantValidator`, `Obs`, and the chaos
//! campaign's partial and done snapshots. The constants were blessed on the
//! commit *before* that move (hand-written `encode_x`/`decode_x` pairs); a
//! round trip cannot see a field that moved in both directions at once,
//! these can. A mismatch prints the digest it got. `golden_system_event_driven`
//! was re-blessed once since (1361222405240568382 → 10103178070978927665,
//! on parent 6b5df9b): after its weight-2 job finishes, its unit-weight
//! pair runs on the event-mode tag path, whose speed monitors sample the
//! fluid rate, and the monitor bytes moved; the layout did not.
//!
//! All seven were re-blessed once more, in a commit of their own, for
//! format version 4, which dropped seven one-value configuration fields
//! from the payloads (`SystemConfig::speed_tau`, `PiConfig`'s four
//! priors, `LadderConfig::epsilon_factor`, `RetryPolicy::multiplier`) and
//! moved every container's version stamp. The fixtures `system_quantum`
//! and `system_event_driven` had run at a `speed_tau` of 5 and 3; they run
//! at the one time constant now, 10. The new digests were also recorded
//! on the parent's code with only its encoders changed (the seven fields
//! left out, version 4, those two fixtures at 10): equal, so nothing
//! else moved. Old → new (length, digest):
//!
//! * `golden_system_quantum` (2425, 6105998126856140576) →
//!   (2409, 16318273876071338832): `speed_tau` and the fault plan's
//!   retry multiplier, 16 bytes;
//! * `golden_system_event_driven` (670, 10103178070978927665) →
//!   (662, 11413611517645134509): `speed_tau`, 8 bytes;
//! * `golden_pi_service` (3392, 15140671165906640599) →
//!   (3344, 14515453570111166037): the four priors, the ladder factor and
//!   the retry multiplier, 48 bytes;
//! * `golden_ensemble` (6695, 2491389004335036085) →
//!   (6695, 13977388904577923265): the version stamp;
//! * `golden_chaos_snapshots` partial (2, 3196266587235789856) →
//!   (2, 1856288391779671060), done (4, 12571851467801336719) →
//!   (4, 1980071892102298639): the version stamp, and in the partial
//!   snapshots' `System` payloads the fields above.
//!
//! `golden_ensemble` was re-blessed once more, in a commit of its own,
//! when the estimator ensemble became `BandedPi`: (6695,
//! 13977388904577923265) → (2256, 2362948424266357806). The blob lost
//! the member count, the five members' scores and four of their five
//! residual windows, the per-query choices, four of the five estimates
//! per pending sample, the switch counter and the EWMA member's monitors.
//! It is never written to disk, so `FORMAT_VERSION` did not move.
//!
//! Mutations tried against this file in release mode
//! (`cargo test --release -p mqpi-bench --test checkpoint_format`), each
//! failing the tests named:
//!
//! * two fields swapped in a `wire_struct!` list (`Queued { cost, id, .. }`)
//!   — `golden_pi_service`;
//! * a variant's tag changed (`FaultKind::RateDip` 1 → 5) —
//!   `golden_system_quantum`, `golden_chaos_snapshots`;
//! * the trailing-bytes check dropped from `System::restore` —
//!   `system_restore_survives_raw_mutations`; from `Wire::from_bytes` —
//!   `wal_record_decode_survives_raw_mutations`;
//! * `Option`'s presence byte written after the value — every golden test
//!   but `golden_obs` (no `Option` in it), and both restore corpora;
//! * the sequence count written as a `u32` — every golden test and both
//!   restore corpora;
//! * the link checks dropped from `PiService::restore` —
//!   `pi_service_restore_survives_resealed_payload_mutations` (an index
//!   out of bounds in the pump);
//! * a fixed `1 << 20` reservation cap in place of the bytes that remain —
//!   `hostile_count_reserves_at_most_the_bytes_that_remain`
//!   (`ckpt/tests/wire.rs`) and
//!   `hostile_count_in_a_checkpoint_reserves_no_more_than_the_file`
//!   (`pi/tests/alloc_free.rs`).
//!
//! **Re-sealed payload corpus.** `crash_resume.rs` mutates the *container*,
//! so the CRC rejects every case before a field decoder runs. Here the
//! payload is mutated (bit flips, length prefixes overwritten with hostile
//! counts, tag bytes, truncation, trailing junk) and, for `PiService`,
//! sealed again with `encode_container` so the CRC passes and the field
//! decoders see the damage. Every case must come back as a typed error or
//! as a state that still works, inside a wall-time budget, without a panic
//! or an allocation the payload cannot justify.
//!
//! **Liveness.** A survivor is driven, not only re-encoded: a `System` to
//! idle under a step bound derived from its own work ([`drain_system`]), a
//! `PiService` or an `IncrementalFluid` past its drain time with every
//! estimate finite and non-negative. Two corpora cover the event-driven
//! `System` (the tag path) and a standalone `IncrementalFluid`. Every
//! corpus also flips bit 62 of every byte, which turns 1.0 into +∞ and 1.5
//! into NaN. The quantum `System`'s sweep has run since a fault plan's
//! burst size got its bound (`mqpi_sim::domain::MAX_BURST`): a flipped high
//! bit of it would submit billions of sessions. Before weights, costs and rates had one domain (`mqpi_sim::domain`),
//! the quantum and event-driven `System` corpora aborted on allocations of
//! 4.5 PB and 2.3 EB (a live id far past the finished index resized it),
//! the `IncrementalFluid` sweep failed on a weight of +∞, and the
//! `PiService` corpus on two random cases and nine sweep cases (waiting
//! weights of +∞, or so small that the tag overflowed).

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mqpi_bench::chaos::{self, CheckpointCfg};
use mqpi_ckpt::Wire as _;
use mqpi_core::{
    observe_estimates, BandedPi, FluidQuery, IncrementalFluid, InvariantValidator, MultiQueryPi,
    SingleQueryPi, ValidationContext, Visibility,
};
use mqpi_obs::{Obs, SECOND_BUCKETS};
use mqpi_pi::{BreakerConfig, LadderConfig, PiConfig, PiService, CKPT_KIND_SERVICE};
use mqpi_sim::{
    AdmissionPolicy, ErrorPolicy, FaultMix, FaultPlan, FinishKind, RateModel, RetryPolicy,
    StepMode, SyntheticJob, System, SystemConfig,
};
use mqpi_wal::{WalKnobs, WalRecord};

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------------
// fixtures
// ---------------------------------------------------------------------------

/// Quantum-stepped system caught mid-chaos: every section of the layout is
/// non-empty (asserted, so the digest cannot quietly stop covering one).
fn system_quantum() -> System {
    let mut sys = System::new(SystemConfig {
        rate: 100.0,
        quantum_units: 8.0,
        admission: AdmissionPolicy::Bounded { slots: 3, queue: 2 },
        rate_model: RateModel::Contention { alpha: 0.05 },
        step_mode: StepMode::Quantum,
    });
    sys.set_error_policy(ErrorPolicy::Isolate);
    sys.enable_event_feed();
    for i in 0..5u64 {
        sys.submit(
            format!("q{i}"),
            Box::new(SyntheticJob::with_report_scale(300 * (i + 1), 1.25)),
            1.0 + i as f64 * 0.5,
        );
    }
    sys.schedule(4.0, "late", Box::new(SyntheticJob::new(500)), 2.0);
    sys.schedule(30.0, "later", Box::new(SyntheticJob::new(250)), 1.5);
    sys.install_faults(FaultPlan::generate(11, 40.0, &FaultMix::even(2)));
    sys.run_until(9.0).unwrap();
    let running = sys.running_ids();
    sys.block(running[0]).unwrap();
    sys.abort_with_overhead(running[1], 40).unwrap();
    sys.step().unwrap();

    let snap = sys.snapshot();
    assert!(snap.running.iter().any(|q| q.blocked), "a blocked session");
    assert!(snap.running.iter().any(|q| q.rolling_back), "a rollback");
    assert!(!snap.queued.is_empty(), "a queued session");
    assert!(!sys.finished().is_empty(), "finished records");
    assert!(!sys.fault_log().is_empty(), "an injected fault");
    assert!(sys.fault_stats().unwrap().retries_scheduled > 0 || sys.now() < 30.0);
    sys
}

/// Event-driven system with unit and non-unit weights, no faults, feed off.
fn system_event_driven() -> System {
    let mut sys = System::new(SystemConfig {
        rate: 50.0,
        admission: AdmissionPolicy::MaxConcurrent(2),
        step_mode: StepMode::EventDriven,
        ..SystemConfig::default()
    });
    for i in 0..4u64 {
        sys.submit(
            format!("e{i}"),
            Box::new(SyntheticJob::new(400 + 100 * i)),
            1.0 + (i % 2) as f64,
        );
    }
    sys.schedule(7.0, "later", Box::new(SyntheticJob::new(250)), 1.0);
    for _ in 0..3 {
        sys.step().unwrap();
    }
    assert!(!sys.finished().is_empty() && !sys.queued_ids().is_empty());
    sys
}

/// A service with every overload feature armed, real traffic, two
/// sessions (one closed), cross-subscriptions, and both WAL caches set.
fn pi_service() -> PiService {
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
        wal: Some(WalKnobs {
            flush_every_n: 8,
            flush_every_vt: 0.5,
            compact_every: 1000,
        }),
    });
    let a = svc.register_session();
    let b = svc.register_session();
    let c = svc.register_session();
    let mut out = Vec::new();
    for i in 0..40u64 {
        let q = svc.submit(a, 10.0 + (i * 7 % 50) as f64, 1.0 + (i % 4) as f64);
        if i % 3 == 0 {
            svc.subscribe(b, q);
        }
        if i % 5 == 0 {
            svc.subscribe(c, q);
        }
        if i == 20 {
            svc.close_session(c);
        }
        if i % 11 == 10 {
            svc.abort(q);
        }
        svc.advance(0.05);
        if i % 4 == 0 {
            svc.pump(&mut out);
        }
    }
    svc.apply_record(
        &WalRecord::Mark {
            iter: 40,
            digest: 0xfeed,
        },
        &mut out,
    );
    svc.apply_record(
        &WalRecord::Note {
            bytes: (0..37u8).collect(),
        },
        &mut out,
    );
    assert!(svc.queued_queries() > 0, "admission queue is empty");
    assert!(svc.backoff_queries() > 0, "backoff list is empty");
    assert!(svc.live_queries() > 0 && svc.stats().pushes > 0);
    svc
}

/// Run a small system, sampling every second through `tick`.
fn sampled_run(mut tick: impl FnMut(&System), until: f64) -> System {
    let mut sys = System::new(SystemConfig {
        rate: 100.0,
        quantum_units: 8.0,
        ..SystemConfig::default()
    });
    for i in 0..6u64 {
        sys.submit(
            format!("s{i}"),
            Box::new(SyntheticJob::new(150 * (i + 1))),
            1.0 + (i % 3) as f64,
        );
    }
    let mut next = 0.0;
    while sys.has_work() && sys.now() < until {
        if sys.now() >= next {
            tick(&sys);
            next += 1.0;
        }
        sys.step().unwrap();
    }
    sys
}

/// The banded multi-query PI mid-run: its residual window and unresolved
/// samples.
fn ensemble() -> BandedPi {
    let mut ens = BandedPi::new(Visibility::concurrent_only());
    let mut seen = 0usize;
    sampled_run(
        |sys| {
            for rec in &sys.finished()[seen..] {
                if rec.kind == FinishKind::Completed {
                    ens.resolve(rec.id, rec.finished);
                } else {
                    ens.forget(rec.id);
                }
            }
            seen = sys.finished().len();
            ens.tick(&sys.snapshot());
        },
        25.0,
    );
    assert!(ens.resolved() > 0, "nothing was scored");
    ens
}

/// A validator with remembered estimates, ids, running states and one
/// violation of each kind of payload (a rule name and a detail string).
fn validator() -> InvariantValidator {
    let mut v = InvariantValidator::with_slack(2.0);
    let multi = MultiQueryPi::new(Visibility::concurrent_only());
    let sys = sampled_run(
        |sys| {
            let snap = sys.snapshot();
            let est = multi.estimates(&snap);
            v.observe(
                &snap,
                &est,
                ValidationContext {
                    faults_in_interval: false,
                    check_monotonicity: true,
                },
            );
        },
        6.0,
    );
    v.check_conservation(sys.now(), 1e9, 0.0, sys.finished(), 1.0);
    assert_eq!(v.violations().len(), 1);
    v
}

/// An enabled handle that has seen sim events, counters, a gauge, a
/// histogram with canonical bounds and a profiling span.
fn obs() -> Obs {
    let obs = Obs::enabled();
    let single = SingleQueryPi::new();
    let mut sys = System::new(SystemConfig {
        rate: 100.0,
        quantum_units: 8.0,
        ..SystemConfig::default()
    });
    sys.set_obs(obs.clone());
    for i in 0..3u64 {
        sys.submit(
            format!("o{i}"),
            Box::new(SyntheticJob::new(100 * (i + 1))),
            1.0,
        );
    }
    sys.run_until(2.0).unwrap();
    let snap = sys.snapshot();
    let set = single.estimates(&snap);
    observe_estimates(&obs, "single", "core.predict.single", snap.time, &set);
    obs.gauge_set("test.gauge", 0.1 + 0.2);
    obs.histogram_observe("test.latency", SECOND_BUCKETS, 7.5);
    let mut span = obs.span("test.span");
    span.add_units(12.5);
    drop(span);
    assert!(obs.events_len() > 0 && !obs.profile().is_empty());
    obs
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mqpi_ckpt_format_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Digest of every file in `dir`: name and contents, in name order.
fn dir_digest(dir: &Path) -> (usize, u64) {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        all.extend_from_slice(f.file_name().unwrap().to_string_lossy().as_bytes());
        all.extend_from_slice(&std::fs::read(f).unwrap());
    }
    (files.len(), fnv(&all))
}

// ---------------------------------------------------------------------------
// golden digests (blessed on the parent of the `Wire` conversion)
// ---------------------------------------------------------------------------

#[track_caller]
fn assert_golden(what: &str, bytes: &[u8], len: usize, digest: u64) {
    assert_eq!(
        (bytes.len(), fnv(bytes)),
        (len, digest),
        "{what}: checkpoint bytes moved (left is what this build wrote)"
    );
}

#[test]
fn golden_system_quantum() {
    let sys = system_quantum();
    let bytes = sys.checkpoint().unwrap();
    assert_golden("quantum system", &bytes, 2409, 16318273876071338832);
    let back = System::restore(&bytes).unwrap();
    assert_eq!(back.checkpoint().unwrap(), bytes, "re-encode is canonical");
}

#[test]
fn golden_system_event_driven() {
    let bytes = system_event_driven().checkpoint().unwrap();
    assert_golden("event-driven system", &bytes, 662, 11413611517645134509);
    let back = System::restore(&bytes).unwrap();
    assert_eq!(back.checkpoint().unwrap(), bytes, "re-encode is canonical");
}

#[test]
fn golden_pi_service() {
    let svc = pi_service();
    let bytes = svc.checkpoint();
    assert_golden("pi service", &bytes, 3344, 14515453570111166037);
    assert_eq!(svc.state_digest(), fnv(&bytes));
    let back = PiService::restore(&bytes).unwrap();
    assert_eq!(back.checkpoint(), bytes, "re-encode is canonical");
}

#[test]
fn golden_ensemble() {
    let ens = ensemble();
    let bytes = ens.checkpoint();
    assert_golden("ensemble", &bytes, 2256, 2362948424266357806);
    let mut back = BandedPi::new(Visibility::concurrent_only());
    back.restore_state(&bytes).unwrap();
    assert_eq!(back.checkpoint(), bytes, "re-encode is canonical");
}

#[test]
fn golden_validator() {
    let bytes = validator().checkpoint();
    assert_golden("validator", &bytes, 387, 15465283946841159670);
    let back = InvariantValidator::restore(&bytes).unwrap();
    assert_eq!(back.checkpoint(), bytes, "re-encode is canonical");
}

#[test]
fn golden_obs() {
    let bytes = obs().checkpoint();
    assert_golden("obs", &bytes, 904, 9934979237994027057);
    let back = Obs::restore(&bytes).unwrap();
    assert_eq!(back.checkpoint(), bytes, "re-encode is canonical");
    assert_golden(
        "disabled obs",
        &Obs::disabled().checkpoint(),
        1,
        12638153115695167455,
    );
}

/// The chaos campaign's snapshot files: two replicates killed right after
/// their sixth tick (partial snapshots: a `System`, a validator, the
/// sample list and the loop counters), then one clean campaign (done
/// snapshots: the outcome record with its violation strings).
#[test]
fn golden_chaos_snapshots() {
    let dir = scratch_dir("partial");
    let mut crashing = CheckpointCfg::new(&dir);
    crashing.crash_after_ticks = Some(6);
    chaos::run(&[5.0], 2, 77, 1, Some(&crashing)).expect_err("replicates crash at tick 6");
    assert_eq!(
        dir_digest(&dir),
        (2, 1856288391779671060),
        "partial snapshots moved"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch_dir("done");
    chaos::run(&[5.0], 1, 77, 1, Some(&CheckpointCfg::new(&dir))).unwrap();
    assert_eq!(
        dir_digest(&dir),
        (4, 1980071892102298639),
        "done snapshots moved"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// re-sealed payload corpus
// ---------------------------------------------------------------------------

/// Wall-time budget for one corpus case (decode plus, for a survivor, a
/// short drive). A hostile count must fail when the bytes run out, not
/// after looping or allocating in proportion to the count.
const CASE_BUDGET: Duration = Duration::from_secs(2);

/// One seeded mutation of `clean`. Kinds: bit flip, truncation, an 8-byte
/// window overwritten with a hostile count, a byte forced to a tag-like
/// value, trailing junk.
fn mutate(clean: &[u8], case: u64) -> Vec<u8> {
    let r = splitmix64(0x5EA1_ED00 ^ case);
    let mut bytes = clean.to_vec();
    let pos = (r as usize) % bytes.len();
    match case % 5 {
        0 => bytes[pos] ^= 1 << ((r >> 32) % 8),
        1 => bytes.truncate(pos),
        2 => {
            // Not `u64::MAX`: written over a telemetry counter it decodes
            // fine and overflows the counter's next `+= 1` in a debug
            // build, which is arithmetic and not decoding.
            let counts = [
                1u64 << 40,
                1 << 63,
                1 << 20,
                (bytes.len() as u64) + 1,
                0,
                1 << 50,
            ];
            let v = counts[((r >> 32) % counts.len() as u64) as usize].to_le_bytes();
            let end = (pos + 8).min(bytes.len());
            bytes[pos..end].copy_from_slice(&v[..end - pos]);
        }
        3 => bytes[pos] = [0u8, 1, 2, 3, 7, 13, 14, 0xFF][((r >> 32) % 8) as usize],
        _ => bytes.extend_from_slice(&splitmix64(r).to_le_bytes()[..1 + (r >> 40) as usize % 8]),
    }
    bytes
}

/// Runs `case_fn` over `cases` seeded mutations of `clean`, skipping
/// no-ops, timing each; returns (rejected, survived).
fn run_corpus(clean: &[u8], cases: u64, mut case_fn: impl FnMut(&[u8]) -> bool) -> (u32, u32) {
    let (mut rejected, mut survived) = (0, 0);
    for case in 0..cases {
        let bytes = mutate(clean, case);
        if bytes == clean {
            continue;
        }
        let started = Instant::now();
        if case_fn(&bytes) {
            survived += 1;
        } else {
            rejected += 1;
        }
        assert!(
            started.elapsed() < CASE_BUDGET,
            "case {case} took {:?}",
            started.elapsed()
        );
    }
    (rejected, survived)
}

#[test]
fn pi_service_restore_survives_resealed_payload_mutations() {
    let clean = pi_service().checkpoint();
    let payload = mqpi_ckpt::decode_container(&clean, CKPT_KIND_SERVICE).unwrap();
    let (rejected, survived) = run_corpus(&payload, 1500, |mutated| {
        let sealed = mqpi_ckpt::encode_container(CKPT_KIND_SERVICE, mutated);
        let Ok(mut svc) = PiService::restore(&sealed) else {
            return false;
        };
        // The CRC no longer hides the decoders: a payload cut short or
        // with bytes left over is theirs to reject.
        assert_eq!(mutated.len(), payload.len(), "wrong length accepted");
        // A survivor (say, a flipped bit in a cost) is a working service.
        svc.advance(0.01);
        let mut out = Vec::new();
        svc.pump(&mut out);
        for sid in svc.session_ids() {
            let q = svc.submit(sid, 25.0, 1.0);
            svc.abort(q);
        }
        svc.advance(0.5);
        svc.pump(&mut out);
        drain_service(&mut svc);
        true
    });
    assert!(rejected >= 600 && survived > 0, "{rejected} / {survived}");
    // One slot, and a waiting query of weight 1.0 and cost 1.5: bit 62
    // turns them into +∞ and NaN.
    let mut small = PiService::new(PiConfig {
        slots: Some(1),
        ..PiConfig::default()
    });
    let s = small.register_session();
    small.submit(s, 100.0, 2.0);
    small.submit(s, 1.5, 1.0);
    let small = mqpi_ckpt::decode_container(&small.checkpoint(), CKPT_KIND_SERVICE).unwrap();
    for payload in [&payload, &small] {
        flip_bit_62(payload, |mutated| {
            let sealed = mqpi_ckpt::encode_container(CKPT_KIND_SERVICE, mutated);
            let Ok(mut svc) = PiService::restore(&sealed) else {
                return false;
            };
            drain_service(&mut svc);
            true
        });
    }
}

#[test]
fn system_restore_survives_raw_mutations() {
    let clean = system_quantum().checkpoint().unwrap();
    let mut outcomes = std::collections::BTreeMap::new();
    let mut case = |mutated: &[u8]| {
        let Ok(sys) = System::restore(mutated) else {
            return false;
        };
        assert_eq!(mutated.len(), clean.len(), "wrong length accepted");
        // Whatever decoded encodes again: no field is half-restored.
        sys.checkpoint().unwrap();
        *outcomes
            .entry(drain_system(sys, mutated.len()))
            .or_insert(0) += 1;
        true
    };
    let (rejected, survived) = run_corpus(&clean, 1500, &mut case);
    assert!(rejected >= 600 && survived > 0, "{rejected} / {survived}");
    flip_bit_62(&clean, &mut case);
    assert!(outcomes[&Drive::Drained] > 600, "{outcomes:?}");
}

#[test]
fn wal_record_decode_survives_raw_mutations() {
    let records = [
        WalRecord::Submit {
            session: 7,
            cost: 120.5,
            weight: 2.0,
        },
        WalRecord::Note {
            bytes: (0..200u8).collect(),
        },
    ];
    for rec in &records {
        let clean = rec.to_bytes();
        assert_eq!(&WalRecord::from_bytes(&clean, "wal record").unwrap(), rec);
        run_corpus(&clean, 400, |mutated| {
            let r = WalRecord::from_bytes(mutated, "wal record");
            // One record per frame: a shorter or longer payload is never
            // a record, whatever its bytes say.
            if mutated.len() != clean.len() && !matches!(rec, WalRecord::Note { .. }) {
                assert!(r.is_err(), "{} bytes decoded as {rec:?}", mutated.len());
            }
            r.is_ok()
        });
    }
}

// ---------------------------------------------------------------------------
// liveness: every survivor is driven, not only re-encoded
// ---------------------------------------------------------------------------

/// Most steps one survivor is driven for. A survivor whose own step bound
/// is larger is driven this far, and is not required to drain.
const STEP_CAP: u64 = 50_000;

/// How a driven survivor ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Drive {
    /// It reached idle inside its step bound.
    Drained,
    /// Its step bound is beyond [`STEP_CAP`] (a mutated job total of 2^40
    /// units, or a contention `alpha` of 1e306 that leaves no work a
    /// quantum); no invariant broke up to the cap.
    Long,
    /// Its drain time is beyond `f64` (a rate so small that its work takes
    /// more than 1.8e308 seconds); the clock and the work done only grew.
    Unrepresentable,
}

/// Drive a restored system to idle. Job failures are isolated and a
/// blocked session is resumed (it waits for its caller, not for the
/// scheduler). The step bound is derived from the system's own state at
/// every step: `64 + 4·n + 16·W/q` for `n` payload bytes (each arrival,
/// fault event, completion and admission decodes from at least one byte),
/// quantum `q`, and work `W`: the units executed since the restore plus
/// what the running and queued sessions report as remaining, so a
/// scheduled arrival or a fault's rollback adds to it when it shows up.
/// `W` counts at the rate the contention model gives the sessions running
/// now; the factor 16 is slack for rate dips, later contention and cost
/// noise. `executed_units` stays finite and never decreases, nor does the
/// clock.
fn drain_system(mut sys: System, payload_len: usize) -> Drive {
    sys.set_error_policy(ErrorPolicy::Isolate);
    let q = sys.config().quantum_units;
    let base = 64.0 + 4.0 * payload_len as f64;
    let (start, mut last, mut clock) = (sys.executed_units(), sys.executed_units(), sys.now());
    let mut steps = 0u64;
    while sys.has_work() {
        let snap = sys.snapshot();
        let mut remaining: f64 = snap.queued.iter().map(|w| w.est_cost.max(0.0)).sum();
        for r in &snap.running {
            remaining += r.remaining.max(0.0);
            if r.blocked {
                sys.resume(r.id).unwrap();
            }
        }
        // Work runs at the contended rate of the sessions running now.
        let n = snap.running.len().max(1);
        let rate = sys.config().rate_model.effective_rate(sys.rate(), n);
        if !(clock + remaining / rate).is_finite() {
            return Drive::Unrepresentable;
        }
        let bound = base + 16.0 * (last - start + remaining) * (sys.rate() / rate) / q;
        if steps >= STEP_CAP && bound > STEP_CAP as f64 {
            return Drive::Long;
        }
        assert!(
            (steps as f64) < bound,
            "not idle after {steps} steps, bound {bound}"
        );
        sys.step().unwrap();
        steps += 1;
        let done = sys.executed_units();
        assert!(
            done.is_finite() && done >= last,
            "executed units {last} -> {done}"
        );
        assert!(sys.now() >= clock, "clock {clock} -> {}", sys.now());
        (last, clock) = (done, sys.now());
    }
    Drive::Drained
}

/// `Σ cost / C`: work is conserved, so with no arrivals the queries drain
/// in that many seconds. `None` when every cost is finite and the time is
/// beyond `f64` (a rate of 1e-310, say): +∞ is then the rounded truth and
/// there is nothing to drive. A cost that is not finite fails the test.
fn drain_time(queries: &[FluidQuery], rate: f64) -> Option<f64> {
    for q in queries {
        assert!(q.cost.is_finite(), "query {} holds {} units", q.id, q.cost);
    }
    let work: f64 = queries.iter().map(|q| q.cost).sum();
    Some(work / rate).filter(|t| t.is_finite())
}

/// Drive a restored model past its drain time. Every estimate read on the
/// way is finite and non-negative.
fn drain_fluid(f: &mut IncrementalFluid) {
    let mut live = Vec::new();
    for _ in 0..4 {
        f.extract_into(&mut live);
        let Some(horizon) = drain_time(&live, f.rate()) else {
            return;
        };
        for q in &live {
            let e = f.estimate(q.id).unwrap();
            assert!(e.is_finite() && e >= 0.0, "query {} reads {e}", q.id);
        }
        if live.is_empty() {
            return;
        }
        f.advance(horizon * (1.0 + 1e-9) + 1e-9);
    }
    panic!("{} queries live past the drain time", f.len());
}

/// Drive a restored service past its drain time: live and waiting work
/// drains within its [`drain_time`], and a waiting query is admitted, or
/// rejected by its deadline, within one more backoff delay and deadline.
/// Every point estimate read on the way is finite and non-negative, and
/// live plus waiting reaches 0.
fn drain_service(svc: &mut PiService) {
    let pending = |s: &PiService| s.live_queries() + s.queued_queries() + s.backoff_queries();
    let rounds = 8 + 2 * pending(svc);
    for _ in 0..rounds {
        let mut all = svc.live_set();
        let live = all.len();
        all.extend(svc.queued_set());
        let Some(horizon) = drain_time(&all, svc.model_rate()) else {
            return;
        };
        for q in &all[..live] {
            let e = svc.point_estimate(q.id).unwrap();
            assert!(e.is_finite() && e >= 0.0, "query {} reads {e}", q.id);
        }
        if pending(svc) == 0 {
            return;
        }
        let cfg = svc.config();
        svc.advance(horizon + cfg.retry.max_delay + cfg.queue_deadline.unwrap_or(0.0) + 1.0);
    }
    panic!(
        "{} queries pending after {rounds} drain rounds",
        pending(svc)
    );
}

/// Every single-bit flip of bit 6 of every byte: bit 62 of each `f64` in
/// the payload, aligned or not. It turns 1.0 into +∞ and 1.5 into NaN.
fn flip_bit_62(clean: &[u8], mut case_fn: impl FnMut(&[u8]) -> bool) -> (u32, u32) {
    let (mut rejected, mut survived) = (0, 0);
    for pos in 0..clean.len() {
        let mut bytes = clean.to_vec();
        bytes[pos] ^= 1 << 6;
        if case_fn(&bytes) {
            survived += 1;
        } else {
            rejected += 1;
        }
    }
    (rejected, survived)
}

#[test]
fn event_driven_system_restore_survivors_drain() {
    let clean = system_event_driven().checkpoint().unwrap();
    let mut outcomes = std::collections::BTreeMap::new();
    let mut case = |mutated: &[u8]| {
        let Ok(sys) = System::restore(mutated) else {
            return false;
        };
        *outcomes
            .entry(drain_system(sys, mutated.len()))
            .or_insert(0) += 1;
        true
    };
    let (rejected, survived) = run_corpus(&clean, 1500, &mut case);
    assert!(rejected >= 600 && survived > 0, "{rejected} / {survived}");
    flip_bit_62(&clean, &mut case);
    assert!(outcomes[&Drive::Drained] > 600, "{outcomes:?}");
}

#[test]
fn incremental_fluid_restore_survivors_drain() {
    // Weight 1.0 and a virtual time in [1, 2): bit 62 turns them into +∞
    // and NaN.
    let mut f = IncrementalFluid::new(100.0);
    f.arrive(1, 500.0, 1.0);
    f.arrive(2, 240.0, 1.5);
    f.arrive(3, 60.0, 0.75);
    f.advance(0.05);
    f.finish(3);
    f.arrive(4, 90.0, 2.5);
    assert!((1.0..2.0).contains(&f.virtual_time()));
    let clean = f.to_bytes();
    let mut case = |mutated: &[u8]| {
        let Ok(mut f) = IncrementalFluid::from_bytes(mutated, "fluid") else {
            return false;
        };
        drain_fluid(&mut f);
        true
    };
    let (rejected, survived) = run_corpus(&clean, 1500, &mut case);
    assert!(rejected > 0 && survived > 0, "{rejected} / {survived}");
    let (rejected, survived) = flip_bit_62(&clean, &mut case);
    assert!(rejected > 0 && survived > 0, "{rejected} / {survived}");
}
