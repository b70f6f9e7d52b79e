//! The service's full estimate set is a fresh `predict` over its own
//! state: `PiService::estimates` hands the kernel the order its treap
//! keeps, and must return, entry for entry and bit for bit, what
//! `fluid::predict` returns when it sorts the extracted live set itself.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mqpi_core::fluid::{predict, FutureArrivals};
use mqpi_core::EstimateSet;
use mqpi_pi::{PiConfig, PiService};
use mqpi_sim::Rng;

#[test]
fn full_estimates_equal_a_fresh_predict_at_twenty_thousand_live() {
    const LIVE: usize = 20_000;
    const QUEUED: usize = 48;
    let mut svc = PiService::with_capacity(
        PiConfig {
            rate: 1_000.0,
            epsilon: 0.05,
            slots: Some(LIVE),
            ..PiConfig::default()
        },
        LIVE + QUEUED,
    );
    let sid = svc.register_session();
    let mut rng = Rng::seed_from_u64(20_000);
    let weights = [0.5, 1.0, 2.0, 4.0];
    for i in 0..LIVE + QUEUED {
        // Every fourth query costs 250 per unit of weight, so the live set
        // holds thousands of equal tags.
        let w = weights[rng.below(4) as usize];
        let cost = if i % 4 == 3 {
            250.0 * w
        } else {
            rng.range_f64(1e3, 1e5)
        };
        svc.submit(sid, cost, w);
    }
    svc.advance(0.25);
    for _ in 0..3 {
        svc.submit(sid, rng.range_f64(1e3, 1e5), 1.0);
    }

    let live = svc.live_set();
    let queued = svc.queued_set();
    assert_eq!(live.len(), LIVE);
    assert!(queued.len() >= QUEUED, "queue of {}", queued.len());
    let future = FutureArrivals::from_rate(svc.lambda(), svc.mean_cost(), 1.0);
    assert!(future.is_some(), "no predicted arrivals");
    let p = predict(
        &live,
        &queued,
        svc.config().slots,
        future.as_ref(),
        svc.model_rate(),
    );
    let want = EstimateSet::from_pairs(p.finish_times.iter().copied(), p.truncated);
    for _ in 0..2 {
        let got = svc.estimates();
        assert_eq!(got.len(), LIVE + queued.len());
        assert_eq!(got.len(), want.len());
        assert_eq!(got.truncated(), want.truncated());
        assert_eq!(got.degraded(), want.degraded());
        for (k, (a, b)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(a.0, b.0, "id at position {k}");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "estimate of {}", a.0);
            assert_eq!(got.get(a.0), Some(a.1));
        }
    }
}
