//! The pump reads only the subscriptions that can have moved (DESIGN.md
//! §13, "what the pump reads"). These tests hold that pre-filter to the
//! scan it replaced: an oracle the *test* keeps — its own picture of the
//! subscription table with what each subscriber was last told, plus a
//! `point_estimate` of every live subscription in slot order — says what
//! each pump must push, bit for bit. Built with debug assertions the
//! service additionally re-reads every slot it skips, and every estimate
//! it took from a sweep or through a node handle.
//!
//! The oracle is the only check a release build has on the swept path, so
//! each of these was tried against it in release mode and fails it: a
//! node handle trusted without looking at the node (`read_estimate`
//! skipping `holds`), alone and with the handle also kept across the
//! reuse of a subscription slot; a sweep column kept from an earlier pump
//! instead of retaken. Forcing the switch rule to "always sweep" passes
//! every test and to "never sweep" every comparison with the oracle (only
//! `lockstep_wave_is_read_by_one_sweep`'s count of sweeps objects), as
//! they must: the rule decides cost, not values. Taking the sweep ahead
//! of the pump's final pushes also passes: finals free subscription
//! slots and never touch the model, so the column is the same.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use mqpi_obs::Obs;
use mqpi_pi::{
    BreakerConfig, EstimatePush, LadderConfig, LoadTier, PiConfig, PiService, SessionId,
};
use mqpi_sim::RetryPolicy;
use mqpi_wal::WalKnobs;

#[derive(Debug, Clone, Copy)]
enum Op {
    Submit {
        session: f64,
        cost: f64,
        weight: f64,
    },
    Subscribe {
        session: f64,
        query: f64,
    },
    Abort {
        query: f64,
    },
    Reweight {
        query: f64,
        weight: f64,
    },
    Refine {
        query: f64,
        cost: f64,
    },
    SetRate {
        rate: f64,
    },
    /// Close one session and register a replacement.
    Recycle {
        session: f64,
    },
    Advance {
        dt: f64,
    },
    Pump,
}

const WEIGHTS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

fn arb_ops(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..18, 0.0f64..1.0, 0.0f64..1.0), 8..max_len).prop_map(|raw| {
        raw.into_iter()
            .map(|(sel, a, b)| match sel {
                0..=3 => Op::Submit {
                    session: a,
                    cost: 1.0 + b * b * 400.0,
                    weight: WEIGHTS[(a * 64.0) as usize % 4],
                },
                4 => Op::Subscribe {
                    session: a,
                    query: b,
                },
                5 => Op::Abort { query: a },
                6 => Op::Reweight {
                    query: a,
                    weight: WEIGHTS[(b * 4.0) as usize % 4],
                },
                7 => Op::Refine {
                    query: a,
                    cost: b * 500.0,
                },
                8 => {
                    if b < 0.3 {
                        Op::SetRate {
                            rate: 50.0 + a * 100.0,
                        }
                    } else {
                        Op::Recycle { session: a }
                    }
                }
                // Mostly steps well inside epsilon, now and then a long one.
                9..=12 => Op::Advance {
                    dt: if b < 0.8 { a * 0.04 } else { a * 3.0 },
                },
                _ => Op::Pump,
            })
            .collect()
    })
}

/// The configurations the filter has to survive: plain, an admission
/// queue with deadlines and backoff, the ladder (small watermarks, so a
/// handful of queries walks it through EpsilonWiden, FinalsOnly and
/// Shed), the breaker's always-trip hook, `epsilon = 0`, and all at once.
fn config(which: usize) -> PiConfig {
    let retry = RetryPolicy {
        base_delay: 0.25,
        max_delay: 4.0,
        max_attempts: 2,
    };
    let ladder = LadderConfig {
        widen_enter: 4,
        widen_exit: 2,
        finals_enter: 8,
        finals_exit: 6,
        shed_enter: 14,
        shed_exit: 10,
    };
    let breaker = BreakerConfig {
        interval: 0.5,
        tolerance: -1.0,
        sample: 8,
    };
    let base = PiConfig {
        rate: 100.0,
        epsilon: 0.25,
        // Set everywhere so that the journaled world's checkpoints are
        // byte-comparable with the others'; without a log the knobs are
        // inert. One flush per `wal_sync`, a base snapshot every 40 records.
        wal: Some(WalKnobs {
            flush_every_n: 1 << 20,
            flush_every_vt: 1e9,
            compact_every: 40,
        }),
        ..PiConfig::default()
    };
    match which % 6 {
        0 => base,
        1 => PiConfig {
            epsilon: 0.1,
            slots: Some(3),
            queue_deadline: Some(0.5),
            retry,
            ..base
        },
        2 => PiConfig {
            epsilon: 0.05,
            slots: Some(2),
            ladder: Some(ladder),
            ..base
        },
        3 => PiConfig {
            slots: Some(4),
            breaker: Some(breaker),
            ..base
        },
        4 => PiConfig {
            epsilon: 0.0,
            ..base
        },
        _ => PiConfig {
            epsilon: 0.1,
            slots: Some(3),
            queue_deadline: Some(0.5),
            retry,
            ladder: Some(ladder),
            breaker: Some(breaker),
            ..base
        },
    }
}

/// One subscription as the test knows it.
#[derive(Debug, Clone, Copy)]
struct ModelSub {
    session: SessionId,
    query: u64,
    /// What the subscriber was last told (NaN = nothing yet).
    last: f64,
    /// Subscription order, to replay the order `close_session` frees in.
    stamp: u64,
}

/// The test's own subscription table. Slot assignment follows the
/// service's documented rules (a LIFO free list, a new slot when it is
/// empty), so iterating it is the pump's slot order.
#[derive(Debug, Default)]
struct Oracle {
    slots: Vec<Option<ModelSub>>,
    free: Vec<usize>,
    stamp: u64,
}

fn query_known(svc: &PiService, query: u64) -> bool {
    svc.point_estimate(query).is_some() || svc.queued_set().iter().any(|q| q.id == query)
}

impl Oracle {
    /// Mirror of `subscribe`; call *before* the service's, with the
    /// service in the state the call will see.
    fn subscribe(&mut self, svc: &PiService, session: SessionId, query: u64) {
        let dup = self
            .slots
            .iter()
            .flatten()
            .any(|s| s.session == session && s.query == query);
        if dup || !svc.session_ids().contains(&session) || !query_known(svc, query) {
            return;
        }
        self.insert(session, query);
    }

    fn insert(&mut self, session: SessionId, query: u64) {
        self.stamp += 1;
        let sub = Some(ModelSub {
            session,
            query,
            last: f64::NAN,
            stamp: self.stamp,
        });
        match self.free.pop() {
            Some(i) => self.slots[i] = sub,
            None => self.slots.push(sub),
        }
    }

    fn release(&mut self, slot: usize) {
        self.slots[slot] = None;
        self.free.push(slot);
    }

    /// Mirror of `close_session`: newest subscription first.
    fn close_session(&mut self, session: SessionId) {
        let mut mine: Vec<(u64, usize)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.filter(|s| s.session == session).map(|s| (s.stamp, i)))
            .collect();
        mine.sort_unstable_by(|a, b| b.cmp(a));
        for (_, slot) in mine {
            self.release(slot);
        }
    }

    /// Hold one pump's output (`out`, taken with the service in the state
    /// the pump left) against what a scan that reads every live
    /// subscription would have pushed. Returns how many live
    /// subscriptions that scan would have left unpushed.
    fn check_pump(&mut self, svc: &PiService, out: &[EstimatePush]) -> Result<u64, String> {
        let now = svc.now();
        let finals = out.iter().take_while(|p| p.done).count();
        let (finals, rest) = out.split_at(finals);
        // Finals: each closes a subscription the test knows, on a query
        // that has left the system; the service frees slots in push order.
        for p in finals {
            let slot = self
                .slots
                .iter()
                .position(|s| s.is_some_and(|s| s.session == p.session && s.query == p.query))
                .ok_or_else(|| format!("final push {p:?} closes no known subscription"))?;
            if p.estimate != 0.0 || p.at.to_bits() != now.to_bits() || query_known(svc, p.query) {
                return Err(format!("malformed final push {p:?}"));
            }
            self.release(slot);
        }
        if let Some(s) = self
            .slots
            .iter()
            .flatten()
            .find(|s| !query_known(svc, s.query))
        {
            return Err(format!("{s:?} outlived its query without a final push"));
        }
        let cfg = svc.config();
        let epsilon = match (cfg.ladder, svc.tier()) {
            // The widened tier pushes at four times the epsilon.
            (Some(_), LoadTier::EpsilonWiden) => Some(cfg.epsilon * 4.0),
            (Some(_), LoadTier::FinalsOnly | LoadTier::Shed) => None,
            _ => Some(cfg.epsilon),
        };
        let mut want = Vec::new();
        let mut unpushed = 0;
        if let Some(epsilon) = epsilon {
            for sub in self.slots.iter_mut().flatten() {
                let Some(est) = svc.point_estimate(sub.query) else {
                    continue; // queued: nothing to read yet
                };
                if sub.last.is_nan() || (est - sub.last).abs() > epsilon {
                    sub.last = est;
                    want.push(EstimatePush {
                        session: sub.session,
                        query: sub.query,
                        at: now,
                        estimate: est,
                        done: false,
                    });
                } else {
                    unpushed += 1;
                }
            }
        }
        same_pushes(rest, &want, "pump vs full-scan oracle")?;
        Ok(unpushed)
    }
}

fn same_pushes(got: &[EstimatePush], want: &[EstimatePush], what: &str) -> Result<(), String> {
    let bits = |p: &EstimatePush| {
        (
            p.session,
            p.query,
            p.at.to_bits(),
            p.estimate.to_bits(),
            p.done,
        )
    };
    if got.len() != want.len() || got.iter().zip(want).any(|(g, w)| bits(g) != bits(w)) {
        return Err(format!("{what}:\n   got {got:?}\n  want {want:?}"));
    }
    Ok(())
}

/// A service with the driver-side state an op sequence needs. Every world
/// fed the same ops makes the same calls: picks resolve against counters
/// that evolve identically in all of them.
struct World {
    svc: PiService,
    sessions: Vec<SessionId>,
    submitted: u64,
}

fn pick<T: Copy>(items: &[T], at: f64) -> T {
    items[((at * items.len() as f64) as usize).min(items.len() - 1)]
}

impl World {
    fn new(mut svc: PiService) -> World {
        let sessions = (0..3).map(|_| svc.register_session()).collect();
        World {
            svc,
            sessions,
            submitted: 0,
        }
    }

    /// Re-derive the driver-side state around a restored or recovered
    /// service from the world it was taken from.
    fn around(svc: PiService, like: &World) -> World {
        World {
            svc,
            sessions: like.sessions.clone(),
            submitted: like.submitted,
        }
    }

    /// Ids are dense from 1, so a pick may name a query that is long
    /// gone or (at `submitted + 1`) not there yet.
    fn query(&self, at: f64) -> u64 {
        1 + (at * (self.submitted + 1) as f64) as u64
    }

    /// Apply one op; a pump's pushes land in `out`. With an oracle, keep
    /// it in step and check every pump against it.
    fn apply(
        &mut self,
        op: Op,
        mut oracle: Option<&mut Oracle>,
        out: &mut Vec<EstimatePush>,
    ) -> Result<(), String> {
        match op {
            Op::Submit {
                session,
                cost,
                weight,
            } => {
                let sid = pick(&self.sessions, session);
                let id = self.svc.submit(sid, cost, weight);
                self.submitted += 1;
                if id != self.submitted {
                    return Err(format!("query ids are not dense: {id}"));
                }
                if let Some(o) = oracle {
                    o.insert(sid, id);
                }
            }
            Op::Subscribe { session, query } => {
                let (sid, q) = (pick(&self.sessions, session), self.query(query));
                if let Some(o) = oracle.as_deref_mut() {
                    o.subscribe(&self.svc, sid, q);
                }
                self.svc.subscribe(sid, q);
            }
            Op::Abort { query } => {
                self.svc.abort(self.query(query));
            }
            Op::Reweight { query, weight } => {
                self.svc.reweight(self.query(query), weight);
            }
            Op::Refine { query, cost } => {
                self.svc.refine_cost(self.query(query), cost);
            }
            Op::SetRate { rate } => self.svc.set_rate(rate),
            Op::Recycle { session } => {
                let i =
                    ((session * self.sessions.len() as f64) as usize).min(self.sessions.len() - 1);
                self.svc.close_session(self.sessions[i]);
                if let Some(o) = oracle {
                    o.close_session(self.sessions[i]);
                }
                self.sessions[i] = self.svc.register_session();
            }
            Op::Advance { dt } => self.svc.advance(dt),
            Op::Pump => {
                let before = self.svc.stats();
                let from = out.len();
                self.svc.pump(out);
                if let Some(o) = oracle {
                    let unpushed = o.check_pump(&self.svc, &out[from..])?;
                    let after = self.svc.stats();
                    if after.pushes - before.pushes != (out.len() - from) as u64
                        || after.suppressed - before.suppressed != unpushed
                    {
                        return Err(format!(
                            "stats moved {before:?} -> {after:?} over {} pushes, {unpushed} unpushed",
                            out.len() - from
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

fn tmpdir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "mqpi-pi-pumpfilter-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

proptest! {
    /// Random command sequences under every overload mechanism: each pump
    /// pushes exactly what the full scan would, `suppressed` counts what
    /// it would have left unpushed, and the obs counters reconcile with
    /// the stats. From a random cut on, a service restored from a
    /// checkpoint (every key due, no drift) and one recovered from its
    /// write-ahead log (snapshot base + replayed suffix) continue with
    /// the same pushes and end in the same state.
    #[test]
    fn pump_matches_full_scan_oracle(
        ops in arb_ops(160),
        which in 0usize..6,
        cut in 0.0f64..1.0,
    ) {
        let cfg = config(which);
        let obs = Obs::enabled();
        let mut live = World::new(PiService::new(cfg));
        live.svc.set_obs(obs.clone());
        let mut oracle = Oracle::default();
        let dir = tmpdir();
        let mut journaled = World::new(PiService::open_durable(cfg, &dir).unwrap().0);

        let cut = (cut * ops.len() as f64) as usize;
        let (mut out, mut out_j) = (Vec::new(), Vec::new());
        for &op in &ops[..cut] {
            live.apply(op, Some(&mut oracle), &mut out).map_err(TestCaseError::fail)?;
            journaled.apply(op, None, &mut out_j).map_err(TestCaseError::fail)?;
        }
        same_pushes(&out_j, &out, "journaled vs volatile").map_err(TestCaseError::fail)?;

        let restored = PiService::restore(&live.svc.checkpoint()).unwrap();
        let mut restored = World::around(restored, &live);
        // The journaled service dies with its log synced and comes back
        // by replay.
        journaled.svc.wal_sync();
        let World { svc, .. } = journaled;
        drop(svc);
        let (recovered, rec) = PiService::open_durable(cfg, &dir).unwrap();
        prop_assert!(rec.resumed);
        let mut recovered = World::around(recovered, &live);
        prop_assert_eq!(recovered.svc.state_digest(), live.svc.state_digest());

        let (mut out, mut out_r, mut out_j) = (Vec::new(), Vec::new(), Vec::new());
        for &op in &ops[cut..] {
            live.apply(op, Some(&mut oracle), &mut out).map_err(TestCaseError::fail)?;
            restored.apply(op, None, &mut out_r).map_err(TestCaseError::fail)?;
            recovered.apply(op, None, &mut out_j).map_err(TestCaseError::fail)?;
        }
        // One last pump, so that a sequence ending in deltas is checked too.
        live.apply(Op::Pump, Some(&mut oracle), &mut out).map_err(TestCaseError::fail)?;
        restored.apply(Op::Pump, None, &mut out_r).map_err(TestCaseError::fail)?;
        recovered.apply(Op::Pump, None, &mut out_j).map_err(TestCaseError::fail)?;
        same_pushes(&out_r, &out, "restored vs uninterrupted").map_err(TestCaseError::fail)?;
        same_pushes(&out_j, &out, "replayed vs uninterrupted").map_err(TestCaseError::fail)?;
        prop_assert_eq!(restored.svc.state_digest(), live.svc.state_digest());
        prop_assert_eq!(recovered.svc.state_digest(), live.svc.state_digest());
        let _ = std::fs::remove_dir_all(&dir);

        let stats = live.svc.stats();
        prop_assert_eq!(obs.counter("pi.push.sent"), stats.pushes);
        prop_assert!(obs.counter("pi.pump.reads") <= stats.pushes + stats.suppressed);
    }
}

/// A resident population and no deltas: the pump reads a subscription
/// when it pushes it and at no other time — not once per cycle.
#[test]
fn idle_pumps_read_only_what_they_push() {
    const POP: u64 = 10_000;
    const EPSILON: f64 = 0.05;
    let obs = Obs::enabled();
    let mut svc = PiService::with_capacity(
        PiConfig {
            rate: 1_000.0,
            epsilon: EPSILON,
            ..PiConfig::default()
        },
        POP as usize,
    );
    svc.set_obs(obs.clone());
    let sid = svc.register_session();
    for i in 0..POP {
        svc.submit(sid, 1e5 + 90.0 * i as f64, WEIGHTS[i as usize % 4]);
    }
    let mut out = Vec::new();
    svc.pump(&mut out);
    assert_eq!(out.len() as u64, POP, "first pump pushes everybody");
    // 40 cycles of ε/50 stay inside epsilon: nothing to push, nothing read.
    for _ in 0..40 {
        svc.advance(EPSILON / 50.0);
        svc.pump(&mut out);
    }
    assert_eq!(svc.stats().pushes, POP);
    assert_eq!(svc.stats().suppressed, 40 * POP);
    assert_eq!(obs.counter("pi.pump.reads"), POP);
    // 40 more cross it once: every subscription is pushed again, and a
    // subscription is read at most twice on the way (once when its key
    // comes due a rounding margin early, once to push).
    for _ in 0..40 {
        svc.advance(EPSILON / 50.0);
        svc.pump(&mut out);
    }
    let stats = svc.stats();
    assert_eq!(stats.pushes, 2 * POP);
    assert_eq!(stats.suppressed, 80 * POP - POP);
    assert_eq!(obs.counter("pi.push.sent"), stats.pushes);
    let reads = obs.counter("pi.pump.reads");
    assert!(
        (2 * POP..=3 * POP).contains(&reads),
        "{reads} reads for {} pushes over 81 pumps of {POP} subscriptions",
        stats.pushes
    );
}

/// Estimates fall in lockstep, so a population pushed at one instant comes
/// due again in the same few pumps: those pumps take every estimate from
/// one walk of the tree. Three worlds run the same script — uninterrupted
/// (held to the oracle), restored from a checkpoint and recovered from the
/// log after the first wave — through departures and arrivals that hand
/// node slots and subscription slots to new owners in mid-wave.
#[test]
fn lockstep_wave_is_read_by_one_sweep() {
    const POP: usize = 4_096;
    let cfg = PiConfig {
        rate: 1_000.0,
        epsilon: 0.05,
        ..config(0)
    };
    let sweeps_of = |w: &mut World| {
        let obs = Obs::enabled();
        w.svc.set_obs(obs.clone());
        move || obs.counter("pi.pump.sweeps")
    };
    let submit = |i: usize| Op::Submit {
        session: (i % 3) as f64 / 3.0,
        cost: 1e5 + 37.0 * (i * 7919 % POP) as f64,
        weight: WEIGHTS[i % 4],
    };
    // A wave and a half in steps of a tenth of epsilon; a third of the way
    // in, 64 departures whose slots the next 64 arrivals take over.
    let wave = |from: usize| {
        let mut ops = Vec::new();
        for step in 0..15 {
            ops.extend([Op::Advance { dt: 0.005 }, Op::Pump]);
            if step == 5 {
                ops.extend((0..64).map(|i| Op::Abort {
                    query: (i * 61 % POP) as f64 / POP as f64,
                }));
                ops.push(Op::Pump);
                ops.extend((from..from + 64).map(submit));
            }
        }
        ops
    };

    let mut live = World::new(PiService::with_capacity(cfg, POP));
    let live_sweeps = sweeps_of(&mut live);
    let mut oracle = Oracle::default();
    let dir = tmpdir();
    let mut journaled = World::new(PiService::open_durable(cfg, &dir).unwrap().0);
    let (mut out, mut out_j) = (Vec::new(), Vec::new());
    let mut first: Vec<Op> = (0..POP).map(submit).collect();
    first.push(Op::Pump);
    first.extend(wave(POP));
    for (i, &op) in first.iter().enumerate() {
        live.apply(op, Some(&mut oracle), &mut out)
            .unwrap_or_else(|e| panic!("step {i} ({op:?}): {e}"));
        journaled.apply(op, None, &mut out_j).unwrap();
    }
    same_pushes(&out_j, &out, "journaled vs volatile").unwrap();
    // Everybody at once, then everybody again within a few pumps.
    assert!(out.iter().filter(|p| !p.done).count() >= 2 * POP);
    let before_cut = live_sweeps();
    assert!(
        (2..=8).contains(&before_cut),
        "{before_cut} sweeps over the first pump and one wave"
    );

    let mut restored = World::around(PiService::restore(&live.svc.checkpoint()).unwrap(), &live);
    let restored_sweeps = sweeps_of(&mut restored);
    journaled.svc.wal_sync();
    drop(journaled);
    let (recovered, rec) = PiService::open_durable(cfg, &dir).unwrap();
    assert!(rec.resumed);
    let mut recovered = World::around(recovered, &live);
    let recovered_sweeps = sweeps_of(&mut recovered);

    let (mut out, mut out_r, mut out_j) = (Vec::new(), Vec::new(), Vec::new());
    // The restored service's first pump finds every key due; the
    // recovered one re-derived its keys by replaying the log's suffix.
    let mut second = vec![Op::Pump];
    second.extend(wave(POP + 64));
    second.extend(wave(POP + 128));
    for (i, &op) in second.iter().enumerate() {
        live.apply(op, Some(&mut oracle), &mut out)
            .unwrap_or_else(|e| panic!("step {i} after the cut ({op:?}): {e}"));
        restored.apply(op, None, &mut out_r).unwrap();
        recovered.apply(op, None, &mut out_j).unwrap();
    }
    same_pushes(&out_r, &out, "restored vs uninterrupted").unwrap();
    same_pushes(&out_j, &out, "replayed vs uninterrupted").unwrap();
    assert_eq!(restored.svc.state_digest(), live.svc.state_digest());
    assert_eq!(recovered.svc.state_digest(), live.svc.state_digest());
    assert!(out.iter().filter(|p| !p.done).count() >= 3 * POP);
    let (l, r, j) = (
        live_sweeps() - before_cut,
        restored_sweeps(),
        recovered_sweeps(),
    );
    assert!(
        l >= 3 && r > l && j >= l,
        "sweeps after the cut: {l} / {r} / {j}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Keys computed under EpsilonWiden's wider epsilon promise too much once
/// the ladder steps back down: a tier change has to make every key due.
#[test]
fn stepping_down_from_epsilon_widen_rearms_every_key() {
    let mut w = World::new(PiService::new(PiConfig {
        slots: None,
        ..config(2)
    }));
    let mut oracle = Oracle::default();
    let mut out = Vec::new();
    let submit = |cost| Op::Submit {
        session: 0.0,
        cost,
        weight: 1.0,
    };
    // One long query and three that finish within 0.04 s: load 4 widens
    // epsilon from 0.05 to 0.2, load 1 narrows it again.
    let script = [
        submit(1_000.0),
        submit(1.0),
        submit(1.0),
        submit(1.0),
        Op::Pump,
        Op::Advance { dt: 0.1 },
        Op::Pump,
    ];
    let mut tiers = Vec::new();
    for (i, &op) in script.iter().enumerate() {
        w.apply(op, Some(&mut oracle), &mut out)
            .unwrap_or_else(|e| panic!("step {i} ({op:?}): {e}"));
        tiers.push(w.svc.tier());
    }
    assert_eq!(tiers[4], LoadTier::EpsilonWiden);
    assert_eq!(tiers[6], LoadTier::Normal);
    // The long query moved 0.1 s: inside the widened epsilon it was last
    // pushed under, beyond the one in force now.
    let last = out.last().unwrap();
    assert!(!last.done && last.query == 1, "{out:?}");
}

/// Non-finite `dt`, cost and weight inputs, a cost that overflows the
/// drift bound, and a clock driven to infinity: the filter may stop
/// skipping, it never skips a push.
#[test]
fn non_finite_inputs_never_skip_a_push() {
    let mut w = World::new(PiService::new(PiConfig {
        rate: 1e-3,
        epsilon: 0.25,
        slots: Some(4),
        ..PiConfig::default()
    }));
    let mut oracle = Oracle::default();
    let mut out = Vec::new();
    let submit = |cost, weight| Op::Submit {
        session: 0.0,
        cost,
        weight,
    };
    let script = [
        submit(5e-3, 1.0),
        submit(f64::NAN, f64::INFINITY),
        Op::Pump,
        Op::Advance { dt: f64::NAN },
        Op::Pump,
        Op::Advance {
            dt: f64::NEG_INFINITY,
        },
        Op::Refine {
            query: 0.0,
            cost: f64::NAN,
        },
        Op::Reweight {
            query: 0.0,
            weight: f64::NAN,
        },
        Op::Pump,
        Op::Advance { dt: 0.3 },
        Op::Pump,
        // cost / C overflows: `clock + drift` is +∞ from here on.
        submit(f64::MAX, 1.0),
        submit(2e-3, 2.0),
        Op::Pump,
        Op::Advance { dt: 0.2 },
        Op::Pump,
        Op::Advance { dt: 0.2 },
        Op::Pump,
        Op::Abort { query: 0.5 },
        Op::Pump,
        Op::Advance { dt: f64::INFINITY },
        Op::Pump,
        submit(1e-3, 1.0),
        Op::Pump,
        Op::Advance { dt: 1.0 },
        Op::Pump,
    ];
    for (i, &op) in script.iter().enumerate() {
        w.apply(op, Some(&mut oracle), &mut out)
            .unwrap_or_else(|e| panic!("step {i} ({op:?}): {e}"));
    }
    assert!(w.svc.stats().sanitized >= 4);
    assert!(out.iter().any(|p| p.done) && out.iter().any(|p| !p.done));
    assert!(w.svc.ledger().balanced());
}
