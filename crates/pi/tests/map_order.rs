//! Nothing the service or the mirror computes depends on the order of its
//! id maps. Each `IdMap` draws its own hash key (`mqpi_sim::idmap`), so
//! two services, or two mirrors, built in one process iterate their maps
//! in different orders by construction. Here two of each are driven by
//! one input: the services must push the same stream and checkpoint to
//! the same bytes, also after one of them is restored from a checkpoint
//! (whose maps draw keys of their own); the mirrors must give the same
//! estimates, bit for bit, on a real feed and on a hostile copy of it.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use mqpi_ckpt::{Enc, Wire};
use mqpi_pi::{EstimatePush, PiConfig, PiService, SessionId, SystemMirror};
use mqpi_sim::{
    AdmissionPolicy, FaultEvent, FaultKind, FaultPlan, FinishKind, RetryPolicy, Rng, SimEvent,
    StepMode, SyntheticJob, System, SystemConfig,
};

/// A push as bits, so that equal means bit for bit.
fn bits(p: &EstimatePush) -> (SessionId, u64, u64, u64, bool) {
    (
        p.session,
        p.query,
        p.at.to_bits(),
        p.estimate.to_bits(),
        p.done,
    )
}

/// One random command, with most queries subscribed to by several of the
/// `sessions`, so that `by_query` holds many chains longer than one.
/// `last` is the id of the last submitted query.
fn command(svc: &mut PiService, rng: &mut Rng, sessions: &[SessionId], last: &mut u64) {
    let session = sessions[rng.below(sessions.len() as u64) as usize];
    let recent = last.saturating_sub(rng.below(40));
    match rng.below(16) {
        0..=5 => {
            let q = svc.submit(
                session,
                0.5 + rng.f64() * 20.0,
                [0.5, 1.0, 2.0][rng.below(3) as usize],
            );
            for &s in sessions {
                if rng.below(2) == 0 {
                    svc.subscribe(s, q);
                }
            }
            *last = q;
        }
        6..=7 => svc.subscribe(session, recent),
        8 => _ = svc.abort(recent),
        9 => _ = svc.reweight(recent, 0.25 + rng.f64() * 4.0),
        10 => _ = svc.refine_cost(recent, rng.f64() * 30.0),
        _ => svc.advance(rng.f64() * 0.2),
    }
}

/// Drive `a` and `b` by one command stream for `n` commands, pumping each
/// every few commands; their pushes and checkpoints must be equal.
fn lockstep(
    a: &mut PiService,
    b: &mut PiService,
    rng: &mut Rng,
    sessions: &[SessionId],
    last: &mut u64,
    n: usize,
) {
    let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
    for i in 0..n {
        let (mut twin, mut twin_last) = (rng.clone(), *last);
        command(a, rng, sessions, last);
        command(b, &mut twin, sessions, &mut twin_last);
        assert_eq!(*last, twin_last);
        if i % 4 == 3 {
            out_a.clear();
            out_b.clear();
            a.pump(&mut out_a);
            b.pump(&mut out_b);
            let (pa, pb): (Vec<_>, Vec<_>) = (
                out_a.iter().map(bits).collect(),
                out_b.iter().map(bits).collect(),
            );
            assert_eq!(pa, pb, "pushes differ after command {i}");
        }
        if i % 256 == 255 {
            assert_eq!(
                a.checkpoint(),
                b.checkpoint(),
                "checkpoints differ after command {i}"
            );
        }
    }
    assert_eq!(a.checkpoint(), b.checkpoint());
}

#[test]
fn two_services_on_one_stream_push_and_checkpoint_alike() {
    for seed in 0..4 {
        let cfg = PiConfig {
            rate: 50.0,
            epsilon: 0.01,
            slots: Some(24),
            ..PiConfig::default()
        };
        let (mut a, mut b) = (PiService::new(cfg), PiService::new(cfg));
        let sessions: Vec<SessionId> = (0..5).map(|_| a.register_session()).collect();
        let twins: Vec<SessionId> = (0..5).map(|_| b.register_session()).collect();
        assert_eq!(sessions, twins);
        let (mut rng, mut last) = (Rng::seed_from_u64(seed), 0);
        lockstep(&mut a, &mut b, &mut rng, &sessions, &mut last, 3_000);
        assert!(a.stats().pushes > 1_000, "too few pushes to compare");
        // A restored copy rebuilds every map with a key of its own.
        let mut restored = PiService::restore(&a.checkpoint()).unwrap();
        lockstep(&mut restored, &mut b, &mut rng, &sessions, &mut last, 3_000);
    }
}

/// A `sim_churn`-like feed with blocks, resumes, aborts and faults, cut
/// into batches at random step counts.
fn feed(seed: u64) -> (System, Vec<Vec<SimEvent>>) {
    let mut rng = Rng::seed_from_u64(seed);
    let rate = 1_000.0;
    let mut sys = System::new(SystemConfig {
        rate,
        admission: AdmissionPolicy::MaxConcurrent(16),
        step_mode: StepMode::EventDriven,
        ..Default::default()
    });
    let name: Arc<str> = "q".into();
    let mut at = 0.0;
    for i in 0..1_500 {
        at += rng.exp(0.95 * rate / 60.0);
        for _ in 0..if i == 500 { 300 } else { 1 } {
            let job = Box::new(SyntheticJob::new(10 + rng.below(100)));
            sys.schedule(
                at,
                Arc::clone(&name),
                job,
                [0.5, 1.0, 2.0][rng.below(3) as usize],
            );
        }
    }
    let events = (0..30)
        .map(|_| FaultEvent {
            at: rng.f64() * at,
            kind: match rng.below(3) {
                0 => FaultKind::RateDip {
                    factor: 0.5,
                    duration: 0.5,
                },
                1 => FaultKind::CostNoise { factor: 1.5 },
                _ => FaultKind::AbortRetry { overhead: 20 },
            },
        })
        .collect();
    sys.install_faults(FaultPlan::new(events, seed, RetryPolicy::none()));
    sys.enable_event_feed();
    let mut batches = Vec::new();
    while sys.has_work() {
        for _ in 0..1 + rng.below(40) {
            sys.step_discard().unwrap();
        }
        let ids = sys.running_ids();
        if !ids.is_empty() && rng.below(4) == 0 {
            let id = ids[rng.below(ids.len() as u64) as usize];
            let _ = if rng.below(2) == 0 {
                sys.block(id)
            } else {
                sys.resume(id)
            };
        }
        let mut batch = Vec::new();
        sys.drain_events(&mut batch);
        batches.push(batch);
    }
    (sys, batches)
}

/// Every estimate and remaining cost of ids `0..n`, the model's encoding
/// (in admission order), and the queue and blocked counts, as bits.
type MirrorState = (Vec<(Option<u64>, Option<u64>)>, Vec<u8>, usize, usize);

fn state(m: &SystemMirror, n: u64) -> MirrorState {
    let reads = (0..n)
        .map(|id| {
            (
                m.estimate(id).map(f64::to_bits),
                m.remaining_cost(id).map(f64::to_bits),
            )
        })
        .collect();
    let mut e = Enc::new();
    m.fluid().enc(&mut e);
    (reads, e.into_bytes(), m.queued(), m.blocked_count())
}

#[test]
fn two_mirrors_on_one_feed_estimate_alike() {
    for seed in 0..3 {
        let (sys, batches) = feed(seed);
        let n = sys.finished().len() as u64 + 8;
        let mut rng = Rng::seed_from_u64(!seed);
        let mut quarantined = [0; 2];
        for hostile in [false, true] {
            let (mut a, mut b) = (SystemMirror::new(1_000.0), SystemMirror::new(1_000.0));
            let (mut done_a, mut done_b) = (Vec::new(), Vec::new());
            let mut k = 0u64;
            for batch in &batches {
                let mut batch = batch.clone();
                if hostile {
                    // Duplicates, departures of ids never seen, and queue
                    // entries of ids `k << 32` the mirror keeps.
                    for _ in 0..batch.len() / 4 {
                        let ev = batch[rng.below(batch.len() as u64) as usize];
                        let at = ev.at();
                        k += 1;
                        batch.extend([
                            ev,
                            SimEvent::Departed {
                                at,
                                id: n + rng.below(1 << 40),
                                kind: FinishKind::Completed,
                            },
                            SimEvent::Enqueued {
                                at,
                                id: k << 32,
                                cost: 1.0,
                                weight: 1.0,
                            },
                        ]);
                    }
                }
                a.apply_all(&batch);
                b.apply_all(&batch);
                done_a.clear();
                done_b.clear();
                a.drain_predicted_done(&mut done_a);
                b.drain_predicted_done(&mut done_b);
                assert_eq!(done_a, done_b);
                assert_eq!(state(&a, n), state(&b, n), "seed {seed}, hostile {hostile}");
            }
            assert_eq!(a.quarantine_stats(), b.quarantine_stats());
            quarantined[usize::from(hostile)] = a.quarantine_stats().total();
        }
        assert!(quarantined[1] > quarantined[0], "{quarantined:?}");
    }
}
