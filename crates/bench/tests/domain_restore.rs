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

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mqpi_ckpt::{CkptError, Wire};
use mqpi_core::IncrementalFluid;
use mqpi_pi::{PiConfig, PiService, CKPT_KIND_SERVICE};
use mqpi_sim::{domain, SyntheticJob, System, SystemConfig};

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
}

impl Domain {
    fn accepts(self, v: f64) -> bool {
        match self {
            Domain::Weight => domain::weight(v).is_ok(),
            Domain::Cost => domain::cost(v).is_ok(),
            Domain::Rate => domain::rate(v).is_ok(),
            Domain::Time(_) => v.is_finite(),
        }
    }

    fn field(self) -> &'static str {
        match self {
            Domain::Weight => "weight",
            Domain::Cost => "cost",
            Domain::Rate => "rate",
            Domain::Time(name) => name,
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
