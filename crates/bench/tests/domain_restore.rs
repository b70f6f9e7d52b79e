//! Every decoded weight, cost and rate against its domain (`mqpi_sim::domain`).
//!
//! Each row patches one value into one field of a clean checkpoint, in
//! place (the field's bits occur once in the bytes, asserted), and asks the
//! decoder for it. The decoder must accept the value exactly when the
//! domain does, and a rejection must be `Corrupt` and name the field. The
//! fields are the scheduling weights of a `System` (a running session and a
//! scheduled arrival), the rate, virtual time, node weights and tags of an
//! `IncrementalFluid`, and the weight and cost of a `PiService` query
//! waiting for its slot. A virtual time or tag has no domain function: it
//! must be finite, the definition `IncrementalFluid::rebuild` uses.
//!
//! A `System`'s rate model and fault injector have rows too: the contention
//! `alpha` (finite and ≥ 0, the check `System::try_new` makes), the factor
//! of a cost-noise and of a rate-dip event (finite and > 0), the dip's
//! duration and an event's time (not NaN), the plan's retry policy
//! (`RetryPolicy::validate`), and the injector's dip state: its rate factor
//! (in (0, 1]) and its expiry (not NaN). A burst's size has no row: no bound
//! on it follows from the bytes. One more row flips the `blocked` flag of a
//! queued session, a state no live run reaches, since only a running query
//! can be blocked.
//!
//! The table collects every mismatch before it fails, so a run on a decoder
//! that lets a value through lists all of them. Before the domain module,
//! these rows were accepted and each restored state served wrong numbers
//! or never drained:
//!
//! * a node weight of +∞: that query and its 500-unit peer both read 0.0;
//! * a rate of +∞: every estimate read 0.0;
//! * a waiting weight of +∞: admitted, it read 0.0 with 777 units left;
//! * a waiting cost of +∞: admitted, it read 0.0 and stayed live after
//!   1 000 s, and a later submission stayed queued behind it;
//! * a waiting cost of NaN: admitted, it read 0.0 and completed at once,
//!   and its 777 units vanished;
//! * a tag of +∞: the query never departed (a NaN tag read 0.0).
//!
//! Before the rate model, the fault plan and the injector's state were
//! checked on restore, every out-of-domain row of theirs was accepted (a
//! NaN dip factor passes the injector's clamp, so the rate it sets is
//! NaN), and so was a blocked queued session.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mqpi_ckpt::{CkptError, Wire};
use mqpi_core::IncrementalFluid;
use mqpi_pi::{PiConfig, PiService, CKPT_KIND_SERVICE};
use mqpi_sim::{
    domain, AdmissionPolicy, FaultEvent, FaultKind, FaultPlan, RateModel, RetryPolicy,
    SyntheticJob, System, SystemConfig,
};

const VALUES: [f64; 8] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    -1.0,
    f64::MIN_POSITIVE,
    1e300,
];

/// What a field's decoder must accept, and the word its rejection names.
#[derive(Clone, Copy)]
enum Domain {
    Weight,
    Cost,
    Rate,
    /// A virtual time or a tag: finite.
    Time(&'static str),
    /// A time that may be infinite, but not NaN.
    NotNan(&'static str),
    /// Finite and at least the bound.
    AtLeast(&'static str, f64),
    /// Finite and > 0.
    Positive(&'static str),
    /// In (0, 1].
    Fraction(&'static str),
}

impl Domain {
    fn accepts(self, v: f64) -> bool {
        match self {
            Domain::Weight => domain::weight(v).is_ok(),
            Domain::Cost => domain::cost(v).is_ok(),
            Domain::Rate => domain::rate(v).is_ok(),
            Domain::Time(_) => v.is_finite(),
            Domain::NotNan(_) => !v.is_nan(),
            Domain::AtLeast(_, min) => v.is_finite() && v >= min,
            Domain::Positive(_) => v.is_finite() && v > 0.0,
            Domain::Fraction(_) => v > 0.0 && v <= 1.0,
        }
    }

    fn field(self) -> &'static str {
        match self {
            Domain::Weight => "weight",
            Domain::Cost => "cost",
            Domain::Rate => "rate",
            Domain::Time(name)
            | Domain::NotNan(name)
            | Domain::AtLeast(name, _)
            | Domain::Positive(name)
            | Domain::Fraction(name) => name,
        }
    }
}

/// Offset of the one occurrence of `v`'s bits in `bytes`.
fn offset_of(bytes: &[u8], v: f64, what: &str) -> usize {
    let needle = v.to_bits().to_le_bytes();
    let at: Vec<usize> = (0..=bytes.len() - 8)
        .filter(|&i| bytes[i..i + 8] == needle)
        .collect();
    assert_eq!(at.len(), 1, "{what} ({v}) must be encoded exactly once");
    at[0]
}

/// Run every value of [`VALUES`] through one field. `decode` returns the
/// decoder's verdict on the patched bytes.
fn check_field(
    what: &str,
    clean: &[u8],
    clean_value: f64,
    domain: Domain,
    decode: impl Fn(&[u8]) -> Result<(), CkptError>,
    mismatches: &mut Vec<String>,
) {
    decode(clean).unwrap_or_else(|e| panic!("clean {what} must decode: {e}"));
    let at = offset_of(clean, clean_value, what);
    for v in VALUES {
        let mut patched = clean.to_vec();
        patched[at..at + 8].copy_from_slice(&v.to_bits().to_le_bytes());
        match (decode(&patched), domain.accepts(v)) {
            (Ok(()), true) => {}
            (Ok(()), false) => mismatches.push(format!("{what} = {v}: decoded, out of domain")),
            (Err(e), true) => mismatches.push(format!("{what} = {v}: in domain, rejected: {e}")),
            (Err(CkptError::Corrupt(msg)), false) if msg.contains(domain.field()) => {}
            (Err(e), false) => mismatches.push(format!(
                "{what} = {v}: rejected as {e:?}, not `Corrupt` naming {}",
                domain.field()
            )),
        }
    }
}

/// A running session of weight 3.25 and a scheduled arrival of weight 5.75.
fn system() -> Vec<u8> {
    let mut sys = System::new(SystemConfig::default());
    sys.submit("run", Box::new(SyntheticJob::new(500)), 3.25);
    sys.schedule(7.0, "later", Box::new(SyntheticJob::new(500)), 5.75);
    sys.checkpoint().unwrap()
}

/// A contended system (`alpha` 0.0625) in the middle of a rate dip: the
/// dip's factor of 1e-7 is clamped to an injector factor of 1e-6 until
/// 2.75 (0.5 + 2.25). A cost-noise event of factor 1.375 waits at 7.125 and
/// a dip of factor 0.34375 for 1.75 s at 9.375, under a retry policy of
/// 0.4375 × 2^k capped at 6.5. (The applied dip's own values are also
/// in the injector's log, so its rows are the pending dip's.)
fn faulted() -> Vec<u8> {
    let mut sys = System::new(SystemConfig {
        rate_model: RateModel::Contention { alpha: 0.0625 },
        ..SystemConfig::default()
    });
    let dip = |factor, duration| FaultKind::RateDip { factor, duration };
    let noise = FaultKind::CostNoise { factor: 1.375 };
    let retry = RetryPolicy {
        base_delay: 0.4375,
        max_delay: 6.5,
        max_attempts: 2,
    };
    let events = vec![
        FaultEvent {
            at: 0.5,
            kind: dip(1e-7, 2.25),
        },
        FaultEvent {
            at: 7.125,
            kind: noise,
        },
        FaultEvent {
            at: 9.375,
            kind: dip(0.34375, 1.75),
        },
    ];
    sys.install_faults(FaultPlan::new(events, 5, retry));
    sys.submit("run", Box::new(SyntheticJob::new(500)), 1.0);
    while sys.current_rate() == SystemConfig::default().rate {
        sys.step().unwrap();
    }
    assert!(sys.now() < 2.75 && sys.current_rate() == 60.0 * 1e-6);
    sys.checkpoint().unwrap()
}

/// One slot: "run" runs and "wait" (weight 0.8125) waits in the queue.
fn queued() -> Vec<u8> {
    let mut sys = System::new(SystemConfig {
        admission: AdmissionPolicy::MaxConcurrent(1),
        ..SystemConfig::default()
    });
    sys.submit("run", Box::new(SyntheticJob::new(500)), 1.0);
    sys.submit("wait", Box::new(SyntheticJob::new(500)), 0.8125);
    assert_eq!(sys.queued_ids().len(), 1);
    sys.checkpoint().unwrap()
}

/// Two queries at rate 100: 240 units at weight 0.75 (tag 320) and 500 at
/// weight 1.25 (tag 400), advanced 0.5 s to a virtual time of 25.
fn fluid() -> IncrementalFluid {
    let mut f = IncrementalFluid::new(100.0);
    f.arrive(1, 240.0, 0.75);
    f.arrive(2, 500.0, 1.25);
    f.advance(0.5);
    assert_eq!(f.virtual_time(), 25.0);
    f
}

/// One slot: query 0 runs, query 1 (777 units, weight 0.625) waits.
fn service() -> PiService {
    let mut svc = PiService::new(PiConfig {
        slots: Some(1),
        ..PiConfig::default()
    });
    let s = svc.register_session();
    svc.submit(s, 100.0, 1.0);
    svc.submit(s, 777.0, 0.625);
    assert_eq!((svc.live_queries(), svc.queued_queries()), (1, 1));
    svc
}

#[test]
fn decoders_accept_exactly_the_domain() {
    let mut mismatches = Vec::new();

    let sys = system();
    let restore = |b: &[u8]| System::restore(b).map(drop);
    for (what, w) in [
        ("running session weight", 3.25),
        ("scheduled arrival weight", 5.75),
    ] {
        check_field(what, &sys, w, Domain::Weight, restore, &mut mismatches);
    }

    let bytes = faulted();
    let rows = [
        ("contention alpha", 0.0625, Domain::AtLeast("alpha", 0.0)),
        ("rate-dip factor", 0.34375, Domain::Positive("factor")),
        ("rate-dip duration", 1.75, Domain::NotNan("duration")),
        ("cost-noise factor", 1.375, Domain::Positive("factor")),
        ("fault event time", 7.125, Domain::NotNan("time")),
        (
            "retry base delay",
            0.4375,
            Domain::AtLeast("base_delay", 0.0),
        ),
        ("retry max delay", 6.5, Domain::AtLeast("max_delay", 0.0)),
        (
            "injector rate factor",
            1e-6,
            Domain::Fraction("rate_factor"),
        ),
        (
            "injector dip expiry",
            2.75,
            Domain::NotNan("rate_restore_at"),
        ),
    ];
    for (what, v, domain) in rows {
        check_field(what, &bytes, v, domain, restore, &mut mismatches);
    }

    // A queued session's `blocked` flag. The session encodes its weight,
    // arrival (8 bytes each), start (`None`: 1), credit and units done
    // (8 each), speed monitor (three f64s and a `None` EMA: 25), then
    // `blocked`, `rolling_back` and the cost-noise scale.
    let mut bytes = queued();
    restore(&bytes).unwrap();
    let at = offset_of(&bytes, 0.8125, "queued weight") + 58;
    assert_eq!(bytes[at..at + 2], [0, 0], "blocked, rolling_back");
    assert_eq!(bytes[at + 2..at + 10], 1.0f64.to_bits().to_le_bytes());
    bytes[at] = 1;
    match restore(&bytes) {
        Err(CkptError::Corrupt(msg)) if msg.contains("queued query") => {}
        other => mismatches.push(format!("blocked queued session: {other:?}")),
    }

    let bytes = fluid().to_bytes();
    let decode = |b: &[u8]| IncrementalFluid::from_bytes(b, "fluid").map(drop);
    let rows = [
        ("fluid rate", 100.0, Domain::Rate),
        ("fluid vt", 25.0, Domain::Time("vt")),
        ("fluid weight", 0.75, Domain::Weight),
        ("fluid weight of the peer", 1.25, Domain::Weight),
        ("fluid tag", 320.0, Domain::Time("tag")),
        ("fluid tag of the peer", 400.0, Domain::Time("tag")),
    ];
    for (what, v, domain) in rows {
        check_field(what, &bytes, v, domain, decode, &mut mismatches);
    }

    let payload = mqpi_ckpt::decode_container(&service().checkpoint(), CKPT_KIND_SERVICE).unwrap();
    let restore =
        |b: &[u8]| PiService::restore(&mqpi_ckpt::encode_container(CKPT_KIND_SERVICE, b)).map(drop);
    for (what, v, domain) in [
        ("waiting weight", 0.625, Domain::Weight),
        ("waiting cost", 777.0, Domain::Cost),
    ] {
        check_field(what, &payload, v, domain, restore, &mut mismatches);
    }

    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
