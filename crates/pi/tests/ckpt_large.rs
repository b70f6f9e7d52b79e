//! Checkpoint/restore at service scale: 10⁵ live queries with
//! subscriptions round-trip through the `mqpi-ckpt` container format with
//! byte-identical re-encodes and bit-identical served estimates — the
//! incremental structure's shape-free encoding (treap uniqueness) and the
//! service's canonical slab ordering make the bytes a pure function of
//! the logical state.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mqpi_ckpt::{Dec, Enc, Wire as _};
use mqpi_core::IncrementalFluid;
use mqpi_pi::{PiConfig, PiService};

const N: u64 = 100_000;

#[test]
fn incremental_fluid_round_trips_at_1e5() {
    let mut f = IncrementalFluid::with_capacity(250.0, N as usize);
    for i in 0..N {
        f.arrive(
            i,
            10.0 + (i % 997) as f64,
            [0.5, 1.0, 2.0, 4.0][(i % 4) as usize],
        );
        if i % 5 == 4 {
            f.advance(0.01);
        }
        if i % 11 == 10 {
            f.reweight(i - 5, 3.0);
        }
        if i % 17 == 16 {
            f.finish(i - 8);
        }
    }
    f.set_rate(300.0);
    f.advance(1.0);

    let mut e = Enc::new();
    f.enc(&mut e);
    let bytes = e.into_bytes();
    let mut d = Dec::new(&bytes);
    let restored = IncrementalFluid::dec(&mut d).expect("decode");
    assert!(d.is_exhausted());

    let mut e2 = Enc::new();
    restored.enc(&mut e2);
    assert_eq!(bytes, e2.into_bytes(), "re-encode must be byte-identical");

    assert_eq!(f.len(), restored.len());
    assert_eq!(
        f.virtual_time().to_bits(),
        restored.virtual_time().to_bits()
    );
    for i in (0..N).step_by(311) {
        match (f.estimate(i), restored.estimate(i)) {
            (Some(a), Some(b)) => assert_eq!(a.to_bits(), b.to_bits(), "estimate({i})"),
            (a, b) => assert_eq!(a.is_some(), b.is_some(), "liveness({i})"),
        }
    }
}

#[test]
fn pi_service_round_trips_at_1e5_with_subscriptions() {
    let mut svc = PiService::with_capacity(
        PiConfig {
            rate: 500.0,
            epsilon: 0.1,
            slots: None,
            ..PiConfig::default()
        },
        N as usize,
    );
    let sids: Vec<_> = (0..1000).map(|_| svc.register_session()).collect();
    let mut queries = Vec::with_capacity(N as usize);
    for i in 0..N {
        let q = svc.submit(
            sids[(i % 1000) as usize],
            50.0 + (i % 709) as f64,
            [0.5, 1.0, 2.0][(i % 3) as usize],
        );
        queries.push(q);
        if i % 257 == 0 {
            svc.advance(0.005);
        }
    }
    // Cross-subscriptions, a few aborts, and a pump so last-push state and
    // reclaimed slots are part of the snapshot.
    for i in (0..N as usize).step_by(97) {
        svc.subscribe(sids[(i * 7) % 1000], queries[i]);
    }
    for i in (0..N as usize).step_by(1013) {
        svc.abort(queries[i]);
    }
    let mut out = Vec::new();
    svc.pump(&mut out);
    assert!(svc.live_queries() > 90_000);

    let bytes = svc.checkpoint();
    let mut restored = PiService::restore(&bytes).expect("restore");
    assert_eq!(
        bytes,
        restored.checkpoint(),
        "re-encode must be byte-identical"
    );

    // Both worlds serve bit-identical streams from here on.
    let (mut oa, mut ob) = (Vec::new(), Vec::new());
    for step in 0..5 {
        let dt = 0.2 + step as f64 * 0.1;
        svc.advance(dt);
        restored.advance(dt);
        oa.clear();
        ob.clear();
        svc.pump(&mut oa);
        restored.pump(&mut ob);
        assert_eq!(oa.len(), ob.len(), "push counts diverged at step {step}");
        for (x, y) in oa.iter().zip(ob.iter()) {
            assert_eq!(x.session, y.session);
            assert_eq!(x.query, y.query);
            assert_eq!(x.estimate.to_bits(), y.estimate.to_bits());
            assert_eq!(x.done, y.done);
        }
    }
    assert_eq!(svc.stats(), restored.stats());
}
