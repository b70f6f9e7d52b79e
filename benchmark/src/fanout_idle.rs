//! `fanout_idle`: many subscriptions, almost nothing changing.
//!
//! [`QUERIES`] long-lived live queries across [`SESSIONS`] sessions (one
//! subscription each, `epsilon` = 0.05 s, no admission limit, no log), then
//! cycles of `advance(1 ms)` + `pump`, with one short-lived `submit` every
//! [`SHORT_EVERY`] cycles. The pump visits every subscription on every
//! cycle although about one estimate in fifty moves by more than epsilon:
//! the read-heavy use of `IncrementalFluid`. Op = pump cycle.

use std::path::Path;
use std::time::Instant;

use mqpi_core::IncrementalFluid;
use mqpi_obs::Obs;
use mqpi_pi::{PiConfig, PiService};
use mqpi_sim::Rng;

use crate::journal::Journal;
use crate::pass::{PassKind, PassOut, Workload};
use crate::trace::{Span, Tracer};
use crate::util::{self, TickClock, FNV_OFFSET};

/// Pump cycles per pass at scale 1.
const CYCLES: f64 = 150.0;
pub const QUERIES: usize = 20_000;
const SESSIONS: usize = 2_000;
const RATE: f64 = 1_000.0;
const EPSILON: f64 = 0.05;
const DT: f64 = 0.001;
const SHORT_EVERY: u64 = 50;
/// A short query's cost: about ten cycles of its share of `RATE`.
const SHORT_COST: f64 = 10.0 * DT * RATE / QUERIES as f64;
/// Cycles between full (`PiService::estimates`) estimate sets.
const FULL_EVERY: u64 = 100;
/// Subscriptions checked against epsilon after every pump.
const SAMPLE: u64 = 64;
const WEIGHTS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

pub struct FanoutIdle {
    /// `(cost, weight)` of the resident population, in submission order.
    population: Vec<(f64, f64)>,
    cycles: u64,
}

impl FanoutIdle {
    /// The resident population, subscribed and pumped once (every
    /// subscription's first pump pushes). Returns the service and, by query
    /// id, the estimate last pushed.
    fn resident(&self, obs: Obs) -> (PiService, Vec<f64>) {
        let mut svc = PiService::with_capacity(
            PiConfig {
                rate: RATE,
                epsilon: EPSILON,
                slots: None,
                ..PiConfig::default()
            },
            QUERIES + 64,
        );
        svc.set_obs(obs);
        let sessions: Vec<_> = (0..SESSIONS).map(|_| svc.register_session()).collect();
        for (i, &(cost, weight)) in self.population.iter().enumerate() {
            svc.submit(sessions[i % SESSIONS], cost, weight);
        }
        let mut pushes = Vec::with_capacity(QUERIES);
        svc.pump(&mut pushes);
        let mut last = vec![f64::NAN; QUERIES + 1];
        for p in &pushes {
            last[p.query as usize] = p.estimate;
        }
        (svc, last)
    }
}

impl Workload for FanoutIdle {
    const NAME: &'static str = "fanout_idle";
    const ROTATION: &'static [PassKind] = &[
        PassKind::Untraced,
        PassKind::Traced,
        PassKind::TracedObs,
        PassKind::BareCore,
    ];

    fn setup(seed: u64, scale: f64, _dir: &Path) -> Result<Self, String> {
        let mut rng = Rng::seed_from_u64(seed ^ 0x4641_4e4f_5554); // "FANOUT"
        let population = (0..QUERIES)
            .map(|_| {
                (
                    rng.range_f64(1e5, 1e6),
                    WEIGHTS[rng.below(WEIGHTS.len() as u64) as usize],
                )
            })
            .collect();
        let w = FanoutIdle {
            population,
            cycles: ((CYCLES * scale).round() as u64).max(SHORT_EVERY + 10),
        };
        // Building the resident population is this workload's set-up cost.
        let (svc, _) = w.resident(Obs::disabled());
        if svc.live_queries() != QUERIES {
            return Err(format!("resident population is {}", svc.live_queries()));
        }
        Ok(w)
    }

    fn pass(&self, kind: PassKind, _dir: &Path, tr: &mut Tracer) -> Result<PassOut, String> {
        let obs = if kind == PassKind::TracedObs {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        let (svc, mut last) = self.resident(obs);
        let session = *svc.session_ids().first().expect("sessions registered");
        let mut j = Journal::volatile(svc, QUERIES as u64 + 1);
        // The same arrivals on a bare model; `live` is the id of every
        // subscription the pump reads, in slot order.
        let mut bare = (kind == PassKind::BareCore).then(|| {
            let mut f = IncrementalFluid::with_capacity(RATE, QUERIES + 64);
            for (i, &(cost, weight)) in self.population.iter().enumerate() {
                f.arrive(i as u64 + 1, cost, weight);
            }
            (f, (1..=QUERIES as u64).collect::<Vec<u64>>(), Vec::new())
        });
        let (mut bare_delta_ns, mut bare_estimate_ns, mut bare_reads) = (0u64, 0u64, 0u64);
        let mut bare_same = true;

        let mut ticks = TickClock::with_capacity(self.cycles as usize);
        let mut out = PassOut::default();
        let (mut digest, mut pushes, mut nonfinal, mut full_sets) = (FNV_OFFSET, 0u64, 0u64, 0u64);
        let mut live_max = 0usize;
        let stats0 = j.svc.stats();

        tr.begin_section();
        for c in 0..self.cycles {
            tr.set_tick(c);
            tr.enter(Span::DriverTick);
            ticks.start();
            let short = (c % SHORT_EVERY == 0).then(|| j.submit(tr, session, SHORT_COST, 1.0));
            j.advance(tr, DT);
            j.pump(tr);
            ticks.stop();

            digest = util::fold_pushes(digest, &j.out);
            pushes += j.out.len() as u64;
            if last.len() < j.next_query() as usize {
                last.resize(j.next_query() as usize, f64::NAN);
            }
            for p in &j.out {
                last[p.query as usize] = if p.done { f64::NAN } else { p.estimate };
                nonfinal += u64::from(!p.done);
            }
            live_max = live_max.max(j.svc.live_queries());

            // Every subscription is within epsilon of what it was last told.
            tr.enter(Span::DriverCheck);
            out.attempted += 1;
            let mut off = 0u64;
            for s in 0..SAMPLE {
                let q = 1 + (s * 311 + c * 17) % QUERIES as u64;
                let est = j.svc.point_estimate(q).unwrap_or(f64::NAN);
                let moved = (est - last[q as usize]).abs();
                off += u64::from(moved.is_nan() || moved > EPSILON);
            }
            if off > 0 {
                out.fail(
                    1,
                    format!("cycle {c}: {off} of {SAMPLE} sampled subscriptions beyond epsilon"),
                );
            }
            tr.exit();

            if c % FULL_EVERY == FULL_EVERY - 1 {
                let svc = &mut j.svc;
                let set = tr.span(Span::PiEstimatesFull, || svc.estimates());
                full_sets += 1;
                if set.len() != svc.live_queries() {
                    out.fail(1, format!("cycle {c}: full estimate set misses queries"));
                }
            }
            tr.exit();

            if let Some((f, live, due)) = bare.as_mut() {
                let t = Instant::now();
                if let Some(id) = short {
                    f.arrive(id, SHORT_COST, 1.0);
                    live.push(id);
                }
                f.advance(DT);
                due.clear();
                f.drain_due(due);
                let t1 = Instant::now();
                if !due.is_empty() {
                    live.retain(|id| !due.contains(id));
                }
                let t2 = Instant::now();
                let mut sum = 0.0;
                for &id in live.iter() {
                    sum += f.estimate(id).unwrap_or(f64::NAN);
                }
                std::hint::black_box(sum);
                bare_estimate_ns += t2.elapsed().as_nanos() as u64;
                bare_delta_ns += (t1 - t).as_nanos() as u64;
                bare_reads += live.len() as u64;
                let q = 1 + (c * 17) % QUERIES as u64;
                bare_same &=
                    f.estimate(q).map(f64::to_bits) == j.svc.point_estimate(q).map(f64::to_bits);
            }
        }
        let section = tr.end_section();
        (out.ops_ns, out.ops_cpu_ns) = (section.wall_ns, section.cpu_ns);
        out.ops = self.cycles;
        out.ticks_ns = ticks.samples_ns;

        let stats = j.svc.stats();
        let suppressed = stats.suppressed - stats0.suppressed;
        let checks = suppressed + nonfinal;
        let rejected = stats.deadline_rejected + stats.shed;
        if rejected > 0 || !j.svc.ledger().balanced() {
            out.fail(
                rejected.max(1),
                format!("service ledger {:?}", j.svc.ledger()),
            );
        }
        if bare.is_some() && (!bare_same || bare_reads != checks) {
            out.fail(
                1,
                format!("bare-core replay diverged: same={bare_same}, reads {bare_reads} vs checks {checks}"),
            );
        }
        out.exact.insert("push_digest", digest);
        out.exact.insert("pushes", pushes);
        out.exact.insert("suppressed", suppressed);
        out.exact.insert("checks", checks);
        out.exact.insert("completed", stats.completed);
        out.exact.insert("live_max", live_max as u64);

        let c = j.svc.delta_counters();
        let l = &mut out.layer;
        l.insert("pi.checks", checks as f64);
        l.insert("pi.pushes", pushes as f64);
        l.insert("pi.suppressed", suppressed as f64);
        l.insert("pi.subs", live_max as f64);
        l.insert("pi.live_max", live_max as f64);
        l.insert("pi.queued_max", 0.0);
        l.insert("pi.rejected", rejected as f64);
        l.insert("pi.estimates_full_calls", full_sets as f64);
        l.insert(
            "core.delta_ops",
            (util::delta_ops(&c) - QUERIES as u64) as f64,
        );
        l.insert("core.full_rebuilds", c.full_rebuilds as f64);
        if bare.is_some() {
            l.insert("core.incr_delta_ns", bare_delta_ns as f64);
            l.insert("core.incr_estimate_ns", bare_estimate_ns as f64);
        }
        Ok(out)
    }
}
