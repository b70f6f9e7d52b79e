//! Integration tests for the overload-hardening layer and session-churn
//! edge cases: queue deadlines with retry/backoff, the degradation
//! ladder's hysteresis, the divergence circuit-breaker's trip-and-rebuild
//! contract, mid-overload checkpoint round-trips, and generational
//! session handles surviving slot reuse.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mqpi_pi::{
    BreakerConfig, EstimatePush, LadderConfig, LoadTier, PiConfig, PiService, SessionId,
};
use mqpi_sim::RetryPolicy;

/// Tight-slot config with deadlines and retries; ladder/breaker off
/// unless a test arms them.
fn deadline_config() -> PiConfig {
    PiConfig {
        rate: 100.0,
        epsilon: 0.0,
        slots: Some(1),
        queue_deadline: Some(0.5),
        retry: RetryPolicy {
            base_delay: 0.25,
            max_delay: 4.0,
            max_attempts: 2,
        },
        ..PiConfig::default()
    }
}

fn drain(svc: &mut PiService) -> Vec<EstimatePush> {
    let mut out = Vec::new();
    svc.pump(&mut out);
    out
}

#[test]
fn queue_deadline_requeues_with_backoff_then_rejects() {
    let mut svc = PiService::new(deadline_config());
    let sid = svc.register_session();
    // One hog occupies the only slot; the victim waits in the queue.
    let _hog = svc.submit(sid, 1_000.0, 1.0);
    let victim = svc.submit(sid, 10.0, 1.0);
    assert_eq!(svc.queued_queries(), 1);

    // Past the 0.5 s deadline: first expiry re-queues into backoff.
    svc.advance(0.6);
    let s = svc.stats();
    assert_eq!(s.deadline_expired, 1);
    assert_eq!(s.deadline_requeued, 1);
    assert_eq!(svc.backoff_queries(), 1);
    assert_eq!(svc.queued_queries(), 0);

    // Backoff delay (0.25 s) elapses: released back into the queue with a
    // fresh deadline.
    svc.advance(0.3);
    assert_eq!(svc.backoff_queries(), 0);
    assert_eq!(svc.queued_queries(), 1);

    // Second expiry, second (and last) retry; third expiry rejects.
    svc.advance(0.6);
    assert_eq!(svc.stats().deadline_requeued, 2);
    svc.advance(0.6); // backoff 0.5 s release + re-expire
    svc.advance(0.6);
    let s = svc.stats();
    assert_eq!(s.deadline_rejected, 1, "retry budget must exhaust: {s:?}");

    // The rejection is observable as a final push, and the ledger still
    // accounts for every submission.
    let finals: Vec<_> = drain(&mut svc).into_iter().filter(|p| p.done).collect();
    assert_eq!(finals.len(), 1);
    assert_eq!(finals[0].query, victim);
    assert_eq!(finals[0].estimate, 0.0);
    let l = svc.ledger();
    assert!(l.balanced(), "ledger out of balance: {l:?}");
    assert_eq!(l.deadline_rejected, 1);
}

#[test]
fn ladder_walks_up_under_load_and_down_with_hysteresis() {
    let lad = LadderConfig {
        widen_enter: 4,
        widen_exit: 2,
        finals_enter: 8,
        finals_exit: 6,
        shed_enter: 16,
        shed_exit: 12,
    };
    let mut svc = PiService::new(PiConfig {
        rate: 100.0,
        epsilon: 0.01,
        slots: Some(2),
        ladder: Some(lad),
        ..PiConfig::default()
    });
    let sid = svc.register_session();

    assert_eq!(svc.tier(), LoadTier::Normal);
    let mut ids = Vec::new();
    for _ in 0..4 {
        ids.push(svc.submit(sid, 50.0, 1.0));
    }
    assert_eq!(
        svc.tier(),
        LoadTier::EpsilonWiden,
        "load 4 hits widen_enter"
    );
    for _ in 0..4 {
        ids.push(svc.submit(sid, 50.0, 1.0));
    }
    assert_eq!(svc.tier(), LoadTier::FinalsOnly, "load 8 hits finals_enter");

    // FinalsOnly suppresses estimate pushes entirely; finals still flow.
    svc.advance(0.01);
    let pushes = drain(&mut svc);
    assert!(
        pushes.iter().all(|p| p.done),
        "FinalsOnly must not deliver estimate pushes: {pushes:?}"
    );
    assert!(svc.stats().degraded_pumps > 0);

    for _ in 0..8 {
        ids.push(svc.submit(sid, 50.0, 1.0));
    }
    // Load 16 hits shed_enter: the tier trips to Shed, drops queued work
    // down to shed_exit, then settles back through the exits — the
    // transient trip stays visible in the transition count.
    let s = svc.stats();
    assert!(s.shed > 0, "Shed must drop queued work: {s:?}");
    assert!(svc.load() <= 12, "shedding stops at shed_exit");
    assert!(svc.tier() <= LoadTier::Shed && svc.tier() >= LoadTier::FinalsOnly);
    let l = svc.ledger();
    assert!(l.balanced(), "shed work must stay on the ledger: {l:?}");
    assert_eq!(l.shed, s.shed);

    // Drain the backlog: the tier must step DOWN only through the exit
    // watermarks (hysteresis), not flap at the enter thresholds.
    let mut tiers_seen = vec![svc.tier()];
    for _ in 0..400 {
        svc.advance(0.5);
        let t = svc.tier();
        if *tiers_seen.last().unwrap() != t {
            tiers_seen.push(t);
        }
        if t == LoadTier::Normal && svc.load() == 0 {
            break;
        }
    }
    assert_eq!(*tiers_seen.last().unwrap(), LoadTier::Normal);
    for w in tiers_seen.windows(2) {
        assert!(
            w[1] < w[0],
            "tier sequence must be strictly downward while draining: {tiers_seen:?}"
        );
    }
    assert!(svc.stats().tier_transitions >= tiers_seen.len() as u64 - 1);
    assert!(svc.ledger().balanced());
}

#[test]
fn breaker_trips_rebuild_and_estimates_match_oracle_bitwise() {
    let mut svc = PiService::new(PiConfig {
        rate: 100.0,
        epsilon: 0.0,
        slots: None,
        breaker: Some(BreakerConfig {
            interval: 1.0,
            tolerance: -1.0, // always-trip test hook
            sample: 16,
        }),
        ..PiConfig::default()
    });
    let sid = svc.register_session();
    for i in 0..50u64 {
        svc.submit(sid, 100.0 + (i * 13 % 300) as f64, 1.0 + (i % 3) as f64);
    }
    svc.advance(1.5); // first audit at t=1.0
    let s = svc.stats();
    assert!(s.audit_checks >= 1, "audit must run: {s:?}");
    assert_eq!(
        s.audit_trips, s.audit_checks,
        "negative tolerance always trips"
    );
    assert_eq!(s.audit_rebuilds, s.audit_trips);
    assert!(svc.delta_counters().full_rebuilds >= s.audit_rebuilds);

    // The breaker's contract: after a rebuild, the full estimate set is
    // bit-identical to a from-scratch predict over the extracted state.
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
    assert_eq!(est.len(), oracle.len());
    for (id, t) in est.iter() {
        assert_eq!(
            t.to_bits(),
            oracle.get(id).unwrap().to_bits(),
            "query {id} estimate diverged from the oracle"
        );
    }
}

#[test]
fn checkpoint_roundtrip_mid_overload_is_bit_identical() {
    let mut svc = PiService::new(PiConfig {
        rate: 100.0,
        epsilon: 0.05,
        slots: Some(2),
        queue_deadline: Some(0.4),
        retry: RetryPolicy {
            base_delay: 0.2,
            max_delay: 1.0,
            max_attempts: 3,
        },
        ladder: Some(LadderConfig {
            widen_enter: 4,
            widen_exit: 2,
            finals_enter: 8,
            finals_exit: 6,
            shed_enter: 40,
            shed_exit: 30,
        }),
        breaker: Some(BreakerConfig {
            interval: 0.5,
            tolerance: -1.0,
            sample: 8,
        }),
        ..PiConfig::default()
    });
    let sid = svc.register_session();
    for i in 0..20u64 {
        svc.submit(sid, 20.0 + (i % 7) as f64 * 10.0, 1.0 + (i % 4) as f64);
        svc.advance(0.07);
        drain(&mut svc);
    }
    // Mid-overload: degraded tier, backoff entries, armed breaker.
    assert_ne!(svc.tier(), LoadTier::Normal, "test wants a degraded tier");

    let bytes = svc.checkpoint();
    let mut twin = PiService::restore(&bytes).expect("restore");
    assert_eq!(twin.checkpoint(), bytes, "re-encode must be byte-identical");
    assert_eq!(twin.tier(), svc.tier());
    assert_eq!(twin.ledger(), svc.ledger());
    assert_eq!(twin.stats(), svc.stats());

    // Both copies must serve bit-identical streams from here on.
    for step in 0..40 {
        svc.advance(0.11);
        twin.advance(0.11);
        let (a, b) = (drain(&mut svc), drain(&mut twin));
        assert_eq!(a.len(), b.len(), "step {step}: push counts diverged");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.session, y.session);
            assert_eq!(x.query, y.query);
            assert_eq!(x.at.to_bits(), y.at.to_bits());
            assert_eq!(x.estimate.to_bits(), y.estimate.to_bits());
            assert_eq!(x.done, y.done);
        }
    }
    assert_eq!(svc.stats(), twin.stats());
}

#[test]
fn close_session_with_queued_and_subscribed_queries() {
    let mut svc = PiService::new(deadline_config());
    let owner = svc.register_session();
    let watcher = svc.register_session();
    let hog = svc.submit(owner, 1_000.0, 1.0);
    let waiting = svc.submit(owner, 10.0, 1.0); // queued behind the hog
    svc.subscribe(watcher, hog);
    svc.subscribe(watcher, waiting);

    svc.close_session(owner);
    // The owner's queries keep running/waiting — sessions don't own work.
    assert_eq!(svc.live_queries(), 1);
    assert_eq!(svc.queued_queries(), 1);

    svc.advance(0.1);
    let pushes = drain(&mut svc);
    assert!(!pushes.is_empty(), "watcher still gets estimate pushes");
    assert!(
        pushes.iter().all(|p| p.session == watcher),
        "closed session must receive nothing: {pushes:?}"
    );
    assert!(svc.ledger().balanced());
}

#[test]
fn double_abort_is_a_clean_no_op() {
    let mut svc = PiService::new(PiConfig::default());
    let sid = svc.register_session();
    let q = svc.submit(sid, 50.0, 1.0);
    assert!(svc.abort(q));
    assert!(!svc.abort(q), "second abort must report failure, not panic");
    assert!(!svc.abort(9_999), "aborting an unknown id is a no-op");
    let finals: Vec<_> = drain(&mut svc).into_iter().filter(|p| p.done).collect();
    assert_eq!(finals.len(), 1, "exactly one final despite double abort");
    let l = svc.ledger();
    assert!(l.balanced());
    assert_eq!(l.aborted, 1);
}

#[test]
fn subscribe_after_final_push_is_a_no_op() {
    let mut svc = PiService::new(PiConfig {
        rate: 100.0,
        epsilon: 0.0,
        ..PiConfig::default()
    });
    let a = svc.register_session();
    let b = svc.register_session();
    let q = svc.submit(a, 10.0, 1.0);
    svc.advance(1.0); // 100 U/s × 1 s ≫ 10 U: the query completes
    let finals = drain(&mut svc);
    assert!(finals.iter().any(|p| p.done && p.query == q));

    svc.subscribe(b, q);
    svc.advance(0.5);
    assert!(
        drain(&mut svc).is_empty(),
        "no pushes may follow a query's final"
    );
}

#[test]
fn duplicate_subscription_delivers_single_stream() {
    let mut svc = PiService::new(PiConfig {
        rate: 100.0,
        epsilon: 0.0,
        ..PiConfig::default()
    });
    let sid = svc.register_session();
    let q = svc.submit(sid, 30.0, 1.0); // submit auto-subscribes
    svc.subscribe(sid, q);
    svc.subscribe(sid, q);
    svc.advance(0.05);
    let pushes = drain(&mut svc);
    assert_eq!(pushes.len(), 1, "one subscription, one push: {pushes:?}");
    svc.advance(1.0);
    let finals: Vec<_> = drain(&mut svc).into_iter().filter(|p| p.done).collect();
    assert_eq!(finals.len(), 1, "exactly one final per (session, query)");
}

#[test]
fn generation_bump_kills_stale_handles_on_slot_reuse() {
    let mut svc = PiService::new(PiConfig::default());
    let first = svc.register_session();
    let q = svc.submit(first, 50.0, 1.0);
    svc.close_session(first);

    // The freed slot is reused; the new handle differs from the stale one
    // even though both pack the same slot index.
    let second = svc.register_session();
    assert_ne!(first, second, "slot reuse must mint a fresh generation");

    // Every stale-handle operation is dead: subscribe and close no-op,
    // submit panics (documented contract).
    svc.subscribe(first, q);
    svc.advance(0.01);
    assert!(
        drain(&mut svc).is_empty(),
        "stale subscribe must not deliver pushes"
    );
    svc.close_session(first); // must not disturb the reused slot
    let q2 = svc.submit(second, 25.0, 1.0);
    svc.advance(0.01);
    let pushes = drain(&mut svc);
    assert!(
        pushes.iter().any(|p| p.session == second && p.query == q2),
        "reused slot must work under its new handle: {pushes:?}"
    );

    let stale: SessionId = first;
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut s = PiService::new(PiConfig::default());
        let h = s.register_session();
        s.close_session(h);
        s.submit(h, 10.0, 1.0)
    }));
    assert!(
        panicked.is_err(),
        "submit on a dead handle must panic (stale {stale:#x})"
    );
}

#[test]
fn invalid_configs_are_rejected_with_typed_errors() {
    // try_new surfaces the error; new panics. One spot-check of each
    // beyond the unit matrix in the crate.
    let bad = PiConfig {
        ladder: Some(LadderConfig {
            widen_enter: 2,
            widen_exit: 8, // exit above enter: no hysteresis band
            ..LadderConfig::default()
        }),
        ..PiConfig::default()
    };
    let err = PiService::try_new(bad).expect_err("must reject");
    assert!(err.to_string().contains("ladder"), "{err}");
    assert!(std::panic::catch_unwind(|| PiService::new(bad)).is_err());
}

#[test]
fn resync_recognises_replayed_finishes_and_resets_backoff_window() {
    use mqpi_pi::SystemMirror;
    use mqpi_sim::{FinishKind, SimEvent, StepMode, SyntheticJob, System, SystemConfig};

    let mut sys = System::new(SystemConfig {
        rate: 50.0,
        step_mode: StepMode::EventDriven,
        ..SystemConfig::default()
    });
    sys.enable_event_feed();
    for i in 0..4u64 {
        sys.submit(format!("q{i}"), Box::new(SyntheticJob::new(100)), 1.0);
    }
    while sys.has_work() {
        sys.step().expect("step");
    }
    // The live feed is lost (e.g. the consumer crashed mid-run).
    let mut dropped = Vec::new();
    sys.drain_events(&mut dropped);
    let finished: Vec<u64> = sys.finished().iter().map(|f| f.id).collect();
    assert!(!finished.is_empty());

    let mut m = SystemMirror::for_system(&sys);
    // Pre-resync damage: a genuinely phantom departure trips quarantine.
    m.apply(SimEvent::Departed {
        at: sys.now(),
        id: 9_999,
        kind: FinishKind::Completed,
    });
    assert_eq!(m.quarantine_stats().unknown_id, 1);

    m.resync(&sys);
    // The backoff window resets at resync: pre-rebuild damage must not
    // make the fresh mirror look unhealthy, while lifetime totals keep
    // describing the feed's full history.
    assert_eq!(m.quarantine_since_resync().total(), 0);
    assert_eq!(m.quarantine_stats().unknown_id, 1);

    // A post-recovery feed (e.g. a replayed WAL suffix) re-delivers the
    // Departed confirmations for queries that finished before the
    // snapshot. The resync seeded retired-id tracking from the system's
    // finished roster, so none of these may be misclassified as phantoms.
    for id in finished {
        m.apply(SimEvent::Departed {
            at: sys.now(),
            id,
            kind: FinishKind::Completed,
        });
    }
    assert_eq!(
        m.quarantine_since_resync().total(),
        0,
        "replayed finishes misclassified: {:?}",
        m.quarantine_since_resync()
    );

    // Screening still works after the window reset: an id the system
    // never saw is caught as a phantom.
    m.apply(SimEvent::Departed {
        at: sys.now(),
        id: 777_777,
        kind: FinishKind::Completed,
    });
    assert_eq!(m.quarantine_since_resync().unknown_id, 1);
}
