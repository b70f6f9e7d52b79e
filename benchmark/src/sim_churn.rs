//! `sim_churn`: the event-driven scheduler feeding a `SystemMirror`.
//!
//! Synthetic jobs (exact costs, `StepMode::EventDriven`, 256 admission
//! slots) arrive as a Poisson stream at 0.9 of capacity plus periodic
//! bursts of [`BURST`] jobs at one instant, which push the admission queue
//! to several thousand and let it drain before the next one. The feed is
//! applied to a `SystemMirror` in batches of [`BATCH`] steps, with one point
//! estimate read per admission; every [`CHECK_EVERY`] events a batch
//! `MultiQueryPi::estimates(&snapshot)` cross-checks the mirror. No engine,
//! no pump, no log. Op = `SimEvent` applied.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mqpi_core::fluid::predict;
use mqpi_core::{FluidQuery, IncrementalFluid, MultiQueryPi, Visibility};
use mqpi_pi::SystemMirror;
use mqpi_sim::{AdmissionPolicy, Rng, SimEvent, StepMode, SyntheticJob, System, SystemConfig};

use crate::pass::{PassKind, PassOut, Workload};
use crate::trace::{Span, Tracer};
use crate::util::{self, TickClock, FNV_OFFSET};

/// Jobs per pass at scale 1.
const JOBS: f64 = 300_000.0;
const RATE: f64 = 10_000.0;
const SLOTS: usize = 256;
const COST_LO: u64 = 50;
const COST_HI: u64 = 150;
/// Base (Poisson) load as a share of `RATE`.
const RHO: f64 = 0.90;
/// A burst lands after this many base arrivals, then every `BURST_PERIOD`.
const BURST_FIRST: usize = 20_000;
const BURST_PERIOD: usize = 100_000;
const BURST: usize = 4_000;
/// Steps per driver tick, and per `sim.step` span.
const BATCH: usize = 256;
const STEPS_PER_SPAN: usize = 64;
/// Events between cross-checks.
const CHECK_EVERY: usize = 4_096;
/// Arrivals kept in the calendar ahead of the clock. A batch pops at most
/// `BATCH` arrival instants, and one instant holds at most a burst.
const LOOKAHEAD: usize = 2 * BATCH + BURST;
/// Tolerance of a mirror point estimate against the batch predict over the
/// mirror's own live set, relative to `max(estimate, 1 s)` as in the
/// service's divergence breaker (an estimate near zero is a difference of
/// large virtual-time products).
const ORACLE_TOL: f64 = 1e-6;

pub struct SimChurn {
    /// `(arrival time, cost in work units)`, by time.
    jobs: Vec<(f64, u64)>,
}

/// The ops a batch of events makes the mirror issue to its
/// `IncrementalFluid`, replayed on a bare one.
struct BareCore {
    fluid: IncrementalFluid,
    clock: f64,
    due: Vec<u64>,
    delta_ns: u64,
    estimate_ns: u64,
}

impl BareCore {
    fn replay(&mut self, events: &[SimEvent], admitted: &[u64], expect: &[(f64, f64)]) -> bool {
        let t = Instant::now();
        for ev in events {
            let dt = ev.at() - self.clock;
            if dt > 0.0 {
                self.fluid.advance(dt);
                self.due.clear();
                self.fluid.drain_due(&mut self.due);
                self.clock = ev.at();
            }
            match *ev {
                SimEvent::Admitted {
                    id, cost, weight, ..
                } => self.fluid.arrive(id, cost.max(0.0), weight),
                SimEvent::Departed { id, .. } => {
                    self.fluid.finish(id);
                }
                _ => {}
            }
        }
        let t1 = Instant::now();
        let mut same = true;
        for &id in admitted {
            let got = std::hint::black_box(self.fluid.estimate(id));
            let want = expect[id as usize].1;
            same &= got.map_or(want.is_nan(), |g| g.to_bits() == want.to_bits());
        }
        self.delta_ns += (t1 - t).as_nanos() as u64;
        self.estimate_ns += t1.elapsed().as_nanos() as u64;
        same
    }
}

struct CrossCheck {
    running: usize,
    queued: usize,
    bad: Vec<String>,
}

/// The mirror against the scheduler, and against the batch predictor.
///
/// Two predicts. `MultiQueryPi::estimates(&snapshot)` sees the scheduler's
/// own remaining costs, which exceed the fluid model's by each job's
/// sub-unit scheduling credit (jobs run whole units), so a point estimate
/// may differ from it by up to `(running + 1) / RATE` seconds. `predict`
/// over the mirror's extracted live set is the oracle the treap must match
/// to [`ORACLE_TOL`].
fn cross_check(
    sys: &System,
    mirror: &mut SystemMirror,
    multi: &MultiQueryPi,
    unconfirmed: &[u64],
    live: &mut Vec<FluidQuery>,
    tr: &mut Tracer,
) -> CrossCheck {
    let t = sys.now();
    tr.span(Span::PiMirrorApply, || mirror.advance_to(t));
    let snap = tr.span(Span::SimSnapshot, || sys.snapshot());
    let set = tr.span(Span::CorePredict, || multi.estimates(&snap));
    mirror.fluid().extract_into(live);
    let oracle = tr.span(Span::CorePredict, || predict(live, &[], None, None, RATE));

    tr.enter(Span::DriverCheck);
    let mut bad = Vec::new();
    if snap.running.len() != mirror.live() + unconfirmed.len() {
        bad.push(format!(
            "running {} != mirror live {} + unconfirmed {}",
            snap.running.len(),
            mirror.live(),
            unconfirmed.len()
        ));
    }
    if snap.queued.len() != mirror.queued() {
        bad.push(format!(
            "queued {} != mirror queued {}",
            snap.queued.len(),
            mirror.queued()
        ));
    }
    let probes = [
        0,
        snap.queued.len() / 2,
        snap.queued.len().saturating_sub(1),
    ];
    for q in probes.iter().filter_map(|&i| snap.queued.get(i)) {
        if mirror.remaining_cost(q.id).is_none() {
            bad.push(format!("queued {} unknown to the mirror", q.id));
        }
    }
    let credit_slack = (snap.running.len() + 1) as f64 / RATE;
    let (mut off_sim, mut off_oracle) = (0.0f64, 0.0f64);
    for q in &snap.running {
        match (
            mirror.estimate(q.id),
            set.get(q.id),
            oracle.remaining_for(q.id),
        ) {
            (Some(m), Some(b), Some(o)) => {
                off_sim = off_sim.max((m - b).abs());
                off_oracle = off_oracle.max((m - o).abs() / o.abs().max(1.0));
            }
            (None, _, _) if unconfirmed.contains(&q.id) => {}
            (m, b, o) => bad.push(format!(
                "query {}: mirror {m:?}, batch {b:?}, oracle {o:?}",
                q.id
            )),
        }
    }
    if off_sim > credit_slack {
        bad.push(format!(
            "mirror {off_sim:e} s off the snapshot predict (slack {credit_slack:e})"
        ));
    }
    if off_oracle > ORACLE_TOL {
        bad.push(format!(
            "mirror off its own batch predict by {off_oracle:e}"
        ));
    }
    tr.exit();
    CrossCheck {
        running: snap.running.len(),
        queued: snap.queued.len(),
        bad,
    }
}

impl Workload for SimChurn {
    const NAME: &'static str = "sim_churn";
    const ROTATION: &'static [PassKind] =
        &[PassKind::Untraced, PassKind::Traced, PassKind::BareCore];

    fn setup(seed: u64, scale: f64, _dir: &Path) -> Result<Self, String> {
        let n = ((JOBS * scale).round() as usize).max(4 * SLOTS);
        let mut rng = Rng::seed_from_u64(seed ^ 0x4348_5552); // "CHUR"
        let mean_cost = (COST_LO + COST_HI) as f64 / 2.0;
        let lambda = RHO * RATE / mean_cost;
        let mut jobs = Vec::with_capacity(n);
        let (mut at, mut base) = (0.0, 0usize);
        let cost = |rng: &mut Rng| COST_LO + rng.below(COST_HI - COST_LO + 1);
        while jobs.len() < n {
            at += rng.exp(lambda);
            jobs.push((at, cost(&mut rng)));
            base += 1;
            if base >= BURST_FIRST && (base - BURST_FIRST).is_multiple_of(BURST_PERIOD) {
                for _ in 0..BURST.min(n - jobs.len()) {
                    jobs.push((at, cost(&mut rng)));
                }
            }
        }
        Ok(SimChurn { jobs })
    }

    fn pass(&self, kind: PassKind, _dir: &Path, tr: &mut Tracer) -> Result<PassOut, String> {
        let e = |e: mqpi_engine::EngineError| e.to_string();
        let n = self.jobs.len();
        let mut sys = System::new(SystemConfig {
            rate: RATE,
            admission: AdmissionPolicy::MaxConcurrent(SLOTS),
            step_mode: StepMode::EventDriven,
            ..SystemConfig::default()
        });
        sys.enable_event_feed();
        let mut mirror = SystemMirror::for_system(&sys);
        let mut bare = (kind == PassKind::BareCore).then(|| BareCore {
            fluid: IncrementalFluid::new(RATE),
            clock: 0.0,
            due: Vec::new(),
            delta_ns: 0,
            estimate_ns: 0,
        });
        let multi = MultiQueryPi::new(Visibility::concurrent_only());
        let name: Arc<str> = "job".into();

        // By sim id: arrival seen, realised finish time, estimate served as
        // (virtual time, seconds); NaN = none.
        let mut arrived_flag = vec![false; n + 1];
        let mut finish = vec![f64::NAN; n + 1];
        let mut served = vec![(f64::NAN, f64::NAN); n + 1];
        // Ids the mirror retired at a predicted boundary and the scheduler
        // has not confirmed yet.
        let mut unconfirmed: Vec<u64> = Vec::new();
        let mut predicted: Vec<u64> = Vec::new();
        let mut events: Vec<SimEvent> = Vec::new();
        let mut admitted: Vec<u64> = Vec::new();
        let mut live: Vec<FluidQuery> = Vec::new();
        let mut ticks = TickClock::with_capacity(n / 64);
        let mut out = PassOut::default();
        let (mut next, mut arrived, mut departed) = (0usize, 0usize, 0usize);
        let (mut n_events, mut steps, mut reads, mut since_check) = (0u64, 0u64, 0u64, 0usize);
        let (mut checks, mut predict_n, mut snapshots) = (0u64, 0u64, 0u64);
        let (mut running_max, mut queued_max) = (0usize, 0usize);
        let mut digest = FNV_OFFSET;
        let mut bare_same = true;

        tr.begin_section();
        let mut tick = 0u64;
        while departed < n {
            tr.set_tick(tick);
            tr.enter(Span::DriverTick);
            ticks.start();
            tr.enter(Span::DriverSchedule);
            while next < n && next - arrived < LOOKAHEAD {
                let (at, cost) = self.jobs[next];
                next += 1;
                let job = Box::new(SyntheticJob::new(cost));
                sys.schedule(at, Arc::clone(&name), job, 1.0);
            }
            tr.exit();

            for _ in 0..BATCH / STEPS_PER_SPAN {
                tr.enter(Span::SimStep);
                for _ in 0..STEPS_PER_SPAN {
                    sys.step_discard().map_err(e)?;
                }
                tr.exit();
            }
            steps += BATCH as u64;
            events.clear();
            tr.span(Span::SimDrain, || sys.drain_events(&mut events));
            tr.span(Span::PiMirrorApply, || mirror.apply_all(&events));

            admitted.clear();
            for ev in &events {
                match *ev {
                    SimEvent::Enqueued { id, .. } => {
                        arrived_flag[id as usize] = true;
                        arrived += 1;
                    }
                    SimEvent::Admitted { id, .. } => {
                        if !std::mem::replace(&mut arrived_flag[id as usize], true) {
                            arrived += 1;
                        }
                        admitted.push(id);
                    }
                    SimEvent::Departed { id, at, .. } => {
                        finish[id as usize] = at;
                        departed += 1;
                        unconfirmed.retain(|&u| u != id);
                    }
                    _ => {}
                }
            }
            // One point estimate per admission, read at the mirror's clock.
            let now = mirror.now();
            tr.span(Span::PiMirrorEstimate, || {
                for &id in &admitted {
                    if let Some(est) = mirror.estimate(id) {
                        served[id as usize] = (now, est);
                    }
                }
            });
            for &id in &admitted {
                let (_, est) = served[id as usize];
                if !est.is_nan() {
                    reads += 1;
                    digest = util::fnv_u64(util::fnv_u64(digest, id), est.to_bits());
                }
            }
            predicted.clear();
            mirror.drain_predicted_done(&mut predicted);
            unconfirmed.extend(predicted.iter().filter(|&&id| finish[id as usize].is_nan()));
            if let Some(b) = bare.as_mut() {
                bare_same &= b.replay(&events, &admitted, &served);
            }

            ticks.stop();

            n_events += events.len() as u64;
            since_check += events.len();
            if since_check >= CHECK_EVERY {
                since_check = 0;
                checks += 1;
                predicted.clear();
                mirror.drain_predicted_done(&mut predicted);
                unconfirmed.extend(predicted.iter().filter(|&&id| finish[id as usize].is_nan()));
                let c = cross_check(&sys, &mut mirror, &multi, &unconfirmed, &mut live, tr);
                snapshots += 1;
                predict_n += 2 * c.running as u64;
                running_max = running_max.max(c.running);
                queued_max = queued_max.max(c.queued);
                out.attempted += 1;
                if !c.bad.is_empty() {
                    out.fail(
                        1,
                        format!(
                            "cross-check {checks} at t={}: {}",
                            sys.now(),
                            c.bad.join("; ")
                        ),
                    );
                }
            }
            tr.exit();
            tick += 1;
            if next == n && !sys.has_work() && departed < n {
                out.fail(
                    (n - departed) as u64,
                    "scheduler idle with jobs missing".into(),
                );
                break;
            }
        }
        let section = tr.end_section();
        (out.ops_ns, out.ops_cpu_ns) = (section.wall_ns, section.cpu_ns);
        out.ops = n_events;
        out.ticks_ns = ticks.samples_ns;

        // Output checks.
        out.attempted += n as u64;
        let q = mirror.quarantine_stats().total();
        if q > 0 {
            out.fail(q, format!("{q} events quarantined by the mirror"));
        }
        let not_completed = sys
            .finished()
            .iter()
            .filter(|f| f.kind != mqpi_sim::FinishKind::Completed)
            .count()
            + n.saturating_sub(sys.finished().len());
        if not_completed > 0 || sys.rejected_count() > 0 {
            out.fail(
                not_completed as u64,
                format!("{not_completed} of {n} jobs did not complete"),
            );
        }
        if !bare_same {
            out.fail(
                1,
                "bare-core replay read a different estimate than the mirror".into(),
            );
        }
        let est_rel_err = util::mean_capped_error(
            (1..=n)
                .filter(|&id| !served[id].1.is_nan())
                .map(|id| (served[id].1, finish[id] - served[id].0)),
        );

        let c = mirror.fluid().counters();
        let delta_ops = util::delta_ops(&c);
        out.exact.insert("estimate_digest", digest);
        out.exact.insert("sim_events", n_events);
        out.exact.insert("sim_steps", steps);
        out.exact.insert("estimates_read", reads);
        out.exact.insert("cross_checks", checks);
        out.exact.insert("queued_max", queued_max as u64);
        out.exact.insert("delta_ops", delta_ops);
        out.exact_f64("est_rel_err", est_rel_err);

        let l = &mut out.layer;
        l.insert("est_rel_err", est_rel_err);
        l.insert("sim.steps", steps as f64);
        l.insert("sim.events", n_events as f64);
        l.insert("sim.snapshot_calls", snapshots as f64);
        l.insert("sim.running_max", running_max as f64);
        l.insert("sim.queued_max", queued_max as f64);
        l.insert("pi.mirror_events", n_events as f64);
        l.insert("pi.mirror_estimate_calls", reads as f64);
        l.insert("pi.mirror_quarantined", q as f64);
        l.insert("core.delta_ops", delta_ops as f64);
        l.insert("core.full_rebuilds", c.full_rebuilds as f64);
        l.insert(
            "core.predict_n_mean",
            predict_n as f64 / checks.max(1) as f64,
        );
        if let Some(b) = bare {
            l.insert("core.incr_delta_ns", b.delta_ns as f64);
            l.insert("core.incr_estimate_ns", b.estimate_ns as f64);
        }
        Ok(out)
    }
}
