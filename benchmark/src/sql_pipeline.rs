//! `sql_pipeline`: TPC-R template queries through every layer.
//!
//! SQL text -> `Database::prepare` -> `CursorJob` in a quantum-stepped
//! `sim::System` -> `SimEvent` feed -> `PiService` (sessions, subscriptions,
//! epsilon-filtered pushes) -> WAL. Every [`TICK`] virtual seconds the driver
//! drains the feed, translates it into service calls, refines every running
//! query's remaining cost from a `snapshot()` (the paper's PI refines `c_i`
//! as the query runs), advances, pumps and commits. Op = query completed.
//!
//! The size classes are a fixed Zipf(1.2) multiset (largest-remainder
//! rounding of `n * pmf`), so every seed runs the same total work; the seed
//! shuffles the order, draws the Poisson arrival times and generates the
//! data.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mqpi_engine::Database;
use mqpi_obs::Obs;
use mqpi_pi::{PiConfig, SessionId};
use mqpi_sim::{
    AdmissionPolicy, CursorJob, FinishKind, Job, JobProgress, Rng, SimEvent, StepMode, System,
    SystemConfig, Zipf,
};
use mqpi_wal::WalKnobs;
use mqpi_workload::{TpcrConfig, TpcrDb};

use crate::journal::Journal;
use crate::pass::{PassKind, PassOut, Workload};
use crate::trace::{Span, Tracer};
use crate::util::{self, TickClock, FNV_OFFSET};

/// Queries per pass at scale 1.
const QUERIES: f64 = 750.0;
/// Aggregate rate `C` of the simulated DBMS, work units per virtual second.
const RATE: f64 = 3_500.0;
const SLOTS: usize = 10;
/// Offered load as a share of `RATE`.
const RHO: f64 = 0.95;
const ZIPF_A: f64 = 1.2;
/// Virtual seconds between PI refreshes.
const TICK: f64 = 0.5;
const SESSIONS: usize = 16;
const EPSILON: f64 = 0.1;
/// Ticks between full (`PiService::estimates`) estimate sets.
const FULL_EVERY: u64 = 20;

pub const WAL_KNOBS: WalKnobs = WalKnobs {
    flush_every_n: 4096,
    flush_every_vt: 1e18,
    compact_every: 1_000_000,
};

/// Engine time of the job installments, collected by [`TimedJob`]. Jobs run
/// inside `System::run_until`, out of the tracer's reach, and `Job: Send`
/// rules out a plain shared cell; the counters publish nothing else, so
/// `Relaxed` is enough.
#[derive(Default)]
struct ExecClock {
    ns: AtomicU64,
    calls: AtomicU64,
}

/// `CursorJob` with its `run` timed, through the public `Job` trait.
struct TimedJob {
    inner: CursorJob,
    clock: Arc<ExecClock>,
}

impl Job for TimedJob {
    fn run(&mut self, budget: u64) -> mqpi_engine::Result<u64> {
        let t = Instant::now();
        let r = self.inner.run(budget);
        self.clock
            .ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.clock.calls.fetch_add(1, Ordering::Relaxed);
        r
    }
    fn finished(&self) -> bool {
        self.inner.finished()
    }
    fn progress(&self) -> JobProgress {
        self.inner.progress()
    }
    fn inject_failure(&mut self) -> bool {
        self.inner.inject_failure()
    }
}

pub struct SqlPipeline {
    tpcr: TpcrDb,
    /// Per size class (index 0 unused): SQL text, work units when run
    /// alone, planner estimate.
    sql: Vec<String>,
    class_units: Vec<u64>,
    class_est: Vec<f64>,
    /// `(arrival time, size class)`, by time.
    arrivals: Vec<(f64, usize)>,
    build_ns: u64,
    /// Size classes whose installment-wise rows differed from
    /// `Database::execute`.
    row_mismatches: Vec<usize>,
}

/// Zipf(`a`) multiset of `n` ranks in `1..=support`: `n * pmf(k)` copies of
/// rank `k`, rounded by largest remainder.
fn zipf_multiset(n: usize, support: usize, a: f64) -> Vec<usize> {
    let zipf = Zipf::new(support, a);
    let exact: Vec<f64> = (1..=support).map(|k| n as f64 * zipf.pmf(k)).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..support).collect();
    order.sort_by(|&i, &j| {
        (exact[j] - exact[j].floor())
            .total_cmp(&(exact[i] - exact[i].floor()))
            .then(i.cmp(&j))
    });
    let short = n - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    counts
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n(i + 1, c))
        .collect()
}

/// Run `sql` in small installments, as the scheduler does, and return
/// `(rows, work units)`.
fn run_in_installments(
    db: &Database,
    sql: &str,
) -> mqpi_engine::Result<(Vec<mqpi_engine::tuple::Tuple>, u64)> {
    let mut cur = db.prepare(sql)?.open()?;
    while !cur.finished() {
        cur.run(7)?;
    }
    let units = cur.units_used();
    Ok((cur.take_rows(), units))
}

impl Workload for SqlPipeline {
    const NAME: &'static str = "sql_pipeline";
    const ROTATION: &'static [PassKind] =
        &[PassKind::Untraced, PassKind::Traced, PassKind::TracedObs];

    fn setup(seed: u64, scale: f64, _dir: &Path) -> Result<Self, String> {
        let e = |e: mqpi_engine::EngineError| e.to_string();
        let t = Instant::now();
        let tpcr = TpcrDb::build(TpcrConfig {
            seed: util::splitmix64(seed),
            ..TpcrConfig::default()
        })
        .map_err(e)?;
        let build_ns = t.elapsed().as_nanos() as u64;

        let n = ((QUERIES * scale).round() as usize).max(SLOTS);
        let support = tpcr.config.max_size as usize;
        let mut sizes = zipf_multiset(n, support, ZIPF_A);
        let mut rng = Rng::seed_from_u64(seed ^ 0x5153_4c50); // "QSLP"
        for i in (1..sizes.len()).rev() {
            sizes.swap(i, rng.below(i as u64 + 1) as usize);
        }

        let mut sql = vec![String::new(); support + 1];
        let mut class_units = vec![0u64; support + 1];
        let mut class_est = vec![0f64; support + 1];
        let mut row_mismatches = Vec::new();
        let mut total_units = 0u64;
        for k in 1..=support {
            if !sizes.contains(&k) {
                continue;
            }
            sql[k] = tpcr.query_sql(k as u64);
            let (rows, units) = run_in_installments(&tpcr.db, &sql[k]).map_err(e)?;
            if rows != tpcr.db.execute(&sql[k]).map_err(e)? {
                row_mismatches.push(k);
            }
            class_units[k] = units;
            class_est[k] = tpcr.db.prepare(&sql[k]).map_err(e)?.est_cost;
            total_units += units * sizes.iter().filter(|&&s| s == k).count() as u64;
        }

        let lambda = RHO * RATE / (total_units as f64 / n as f64);
        let mut at = 0.0;
        let arrivals = sizes
            .into_iter()
            .map(|s| {
                at += rng.exp(lambda);
                (at, s)
            })
            .collect();
        Ok(SqlPipeline {
            tpcr,
            sql,
            class_units,
            class_est,
            arrivals,
            build_ns,
            row_mismatches,
        })
    }

    fn setup_layer(&self) -> Vec<(&'static str, f64)> {
        vec![("workload.build_ns", self.build_ns as f64)]
    }

    fn pass(&self, kind: PassKind, dir: &Path, tr: &mut Tracer) -> Result<PassOut, String> {
        let e = |e: mqpi_engine::EngineError| e.to_string();
        let n = self.arrivals.len();
        let obs = if kind == PassKind::TracedObs {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        let mut sys = System::new(SystemConfig {
            rate: RATE,
            admission: AdmissionPolicy::MaxConcurrent(SLOTS),
            step_mode: StepMode::Quantum,
            ..SystemConfig::default()
        });
        sys.set_obs(obs.clone());
        sys.enable_event_feed();
        let cfg = PiConfig {
            rate: RATE,
            epsilon: EPSILON,
            slots: Some(SLOTS),
            wal: Some(WAL_KNOBS),
            ..PiConfig::default()
        };
        let mut j =
            Journal::create(cfg, dir, obs.clone(), kind.traced()).map_err(|e| e.to_string())?;
        let sessions: Vec<SessionId> = (0..SESSIONS).map(|_| j.register_session(tr)).collect();
        let names: Vec<Arc<str>> = (0..self.sql.len())
            .map(|k| format!("Q(s{k})").into())
            .collect();
        let exec = Arc::new(ExecClock::default());

        // Sim id -> size class / service id; service id -> sim id.
        let mut size_of = vec![0usize; n + 1];
        let mut svc_of = vec![0u64; n + 1];
        let mut sim_of: Vec<u64> = vec![0];
        // Every non-final estimate served: (sim id, virtual time, seconds).
        let mut served: Vec<(u64, f64, f64)> = Vec::new();
        let mut events: Vec<SimEvent> = Vec::new();
        let mut ticks = TickClock::with_capacity(4096);
        let mut out = PassOut::default();
        let (mut digest, mut pushes, mut n_events, mut departed) = (FNV_OFFSET, 0u64, 0u64, 0usize);
        let (mut sim_running_max, mut sim_queued_max) = (0usize, 0usize);
        let (mut pi_live_max, mut pi_queued_max, mut pi_subs_max) = (0usize, 0usize, 0usize);
        let (mut snapshots, mut full_sets, mut step_calls) = (0u64, 0u64, 0u64);
        let (mut exec_ns_seen, mut exec_calls_seen) = (0u64, 0u64);
        let mut next = 0usize;

        let written0 = util::written_bytes();
        tr.begin_section();
        let mut k = 0u64;
        while departed < n {
            let t = (k + 1) as f64 * TICK;
            tr.set_tick(k);
            tr.enter(Span::DriverTick);

            // Arrivals due before the next refresh: plan, open, schedule.
            while next < n && self.arrivals[next].0 <= t {
                let (at, size) = self.arrivals[next];
                next += 1;
                let cursor = tr.span(Span::EnginePlan, || {
                    self.tpcr.db.prepare(&self.sql[size]).and_then(|p| p.open())
                });
                let mut cursor = cursor.map_err(e)?;
                cursor.set_obs(obs.clone());
                let job = CursorJob::new(cursor);
                let job: Box<dyn Job> = if kind.traced() {
                    Box::new(TimedJob {
                        inner: job,
                        clock: Arc::clone(&exec),
                    })
                } else {
                    Box::new(job)
                };
                let id = sys.schedule(at, Arc::clone(&names[size]), job, 1.0);
                size_of[id as usize] = size;
            }

            tr.enter(Span::SimStep);
            sys.run_until(t).map_err(e)?;
            step_calls += 1;
            let (ns, calls) = (
                exec.ns.load(Ordering::Relaxed),
                exec.calls.load(Ordering::Relaxed),
            );
            tr.add_children(Span::EngineExec, calls - exec_calls_seen, ns - exec_ns_seen);
            (exec_ns_seen, exec_calls_seen) = (ns, calls);
            tr.exit();

            // The refresh tick: from `run_until` returning to the pushes
            // being out and the commit having returned.
            ticks.start();
            events.clear();
            tr.span(Span::SimDrain, || sys.drain_events(&mut events));
            n_events += events.len() as u64;
            for ev in &events {
                match *ev {
                    SimEvent::Enqueued {
                        id, cost, weight, ..
                    }
                    | SimEvent::Admitted {
                        id, cost, weight, ..
                    } => {
                        if svc_of[id as usize] == 0 {
                            let sid = sessions[id as usize % SESSIONS];
                            svc_of[id as usize] = j.submit(tr, sid, cost, weight);
                            sim_of.push(id);
                        }
                    }
                    SimEvent::Departed { id, .. } => {
                        departed += 1;
                        j.abort(tr, svc_of[id as usize]);
                    }
                    SimEvent::CostRefined { id, remaining, .. } => {
                        j.refine_cost(tr, svc_of[id as usize], remaining);
                    }
                    SimEvent::RateChanged { rate, .. } => j.set_rate(tr, rate),
                    SimEvent::Blocked { .. } | SimEvent::Resumed { .. } => {}
                }
            }
            let snap = tr.span(Span::SimSnapshot, || sys.snapshot());
            snapshots += 1;
            for q in &snap.running {
                j.refine_cost(tr, svc_of[q.id as usize], q.remaining);
            }
            let dt = t - j.svc.now();
            j.advance(tr, dt);
            j.pump(tr);
            // A tick's work grows with the queries running, and how many run
            // when is the seed's doing. Only ticks with every slot busy are
            // the same work on every seed, so only they are sampled.
            if snap.running.len() == SLOTS {
                ticks.stop();
            }

            digest = util::fold_pushes(digest, &j.out);
            pushes += j.out.len() as u64;
            served.extend(
                j.out
                    .iter()
                    .filter(|p| !p.done)
                    .map(|p| (sim_of[p.query as usize], p.at, p.estimate)),
            );
            sim_running_max = sim_running_max.max(snap.running.len());
            sim_queued_max = sim_queued_max.max(snap.queued.len());
            pi_live_max = pi_live_max.max(j.svc.live_queries());
            pi_queued_max = pi_queued_max.max(j.svc.queued_queries());
            // One subscription per query the service still holds.
            pi_subs_max = pi_subs_max.max(j.svc.live_queries() + j.svc.queued_queries());
            if k % FULL_EVERY == FULL_EVERY - 1 {
                let svc = &mut j.svc;
                let set = tr.span(Span::PiEstimatesFull, || svc.estimates());
                full_sets += 1;
                out.attempted += 1;
                if set.len() != svc.live_queries() + svc.queued_queries() {
                    out.fail(1, format!("tick {k}: full estimate set misses queries"));
                }
            }
            tr.exit();
            k += 1;
        }
        j.sync(tr);
        let section = tr.end_section();
        (out.ops_ns, out.ops_cpu_ns) = (section.wall_ns, section.cpu_ns);
        out.ops = n as u64;
        out.ticks_ns = ticks.samples_ns;
        let wal_bytes = match (written0, util::written_bytes()) {
            (Some(a), Some(b)) => b - a,
            _ => util::dir_bytes(dir).map_err(|e| e.to_string())?,
        };

        // Output checks.
        out.attempted += n as u64;
        if !self.row_mismatches.is_empty() {
            out.fail(
                self.row_mismatches.len() as u64,
                format!(
                    "rows of size classes {:?} differ between installments and Database::execute",
                    self.row_mismatches
                ),
            );
        }
        let mut qerr = Vec::with_capacity(n);
        let mut units_total = 0u64;
        for id in 1..=n as u64 {
            let size = size_of[id as usize];
            match sys.finished_record(id) {
                Some(f)
                    if f.kind == FinishKind::Completed
                        && f.units_done == self.class_units[size] as f64 =>
                {
                    units_total += f.units_done as u64;
                    let (est, act) = (self.class_est[size], f.units_done);
                    qerr.push((est / act).max(act / est));
                }
                other => out.fail(
                    1,
                    format!(
                        "query {id} (size {size}, {} units alone): {:?}",
                        self.class_units[size],
                        other.map(|f| (f.kind, f.units_done))
                    ),
                ),
            }
        }
        let stats = j.svc.stats();
        let rejected = stats.deadline_rejected + stats.shed;
        if rejected > 0 || !j.svc.ledger().balanced() {
            out.fail(
                rejected.max(1),
                format!("service ledger {:?}, rejected {rejected}", j.svc.ledger()),
            );
        }
        let est_rel_err = util::mean_capped_error(served.iter().map(|&(id, at, est)| {
            let finish = sys.finished_record(id).map_or(f64::NAN, |f| f.finished);
            (est, finish - at)
        }));
        qerr.sort_by(f64::total_cmp);
        let q = |p: f64| {
            if qerr.is_empty() {
                0.0
            } else {
                qerr[util::nearest_rank(qerr.len(), p)]
            }
        };

        let wal = j.wal().expect("durable service");
        let records = wal.next_seq() - 1;
        let checks = stats.suppressed + served.len() as u64;
        out.exact.insert("push_digest", digest);
        out.exact.insert("pushes", pushes);
        out.exact.insert("suppressed", stats.suppressed);
        out.exact.insert("sim_events", n_events);
        out.exact.insert("ticks", k);
        out.exact.insert("engine_units", units_total);
        out.exact.insert("wal_records", records);
        out.exact.insert("wal_bytes", wal_bytes);
        out.exact.insert(
            "log_dir_bytes",
            util::dir_bytes(dir).map_err(|e| e.to_string())?,
        );
        out.exact_f64("est_rel_err", est_rel_err);

        let c = j.svc.delta_counters();
        let l = &mut out.layer;
        l.insert("est_rel_err", est_rel_err);
        l.insert("wal_bytes_per_op", wal_bytes as f64 / n as f64);
        l.insert("engine.units", units_total as f64);
        l.insert("engine.cost_qerr_p50", q(50.0));
        l.insert("engine.cost_qerr_p95", q(95.0));
        l.insert("sim.steps", step_calls as f64);
        l.insert("sim.events", n_events as f64);
        l.insert("sim.snapshot_calls", snapshots as f64);
        l.insert("sim.running_max", sim_running_max as f64);
        l.insert("sim.queued_max", sim_queued_max as f64);
        l.insert("pi.checks", checks as f64);
        l.insert("pi.pushes", pushes as f64);
        l.insert("pi.suppressed", stats.suppressed as f64);
        l.insert("pi.subs", pi_subs_max as f64);
        l.insert("pi.live_max", pi_live_max as f64);
        l.insert("pi.queued_max", pi_queued_max as f64);
        l.insert("pi.rejected", rejected as f64);
        l.insert("pi.estimates_full_calls", full_sets as f64);
        l.insert("core.delta_ops", util::delta_ops(&c) as f64);
        l.insert("core.full_rebuilds", c.full_rebuilds as f64);
        l.insert("wal.records", records as f64);
        l.insert("wal.bytes", wal_bytes as f64);
        if kind.traced() {
            l.insert("wal.flushes", j.flushes as f64);
            l.insert("wal.compactions", j.compactions as f64);
            l.insert("ckpt.bytes", j.ckpt_bytes as f64);
            let mut f = std::mem::take(&mut j.flush_ns);
            f.sort_unstable();
            if !f.is_empty() {
                l.insert("wal.flush_us_p50", util::percentile_us(&f, 50.0));
                l.insert("wal.flush_us_p99", util::percentile_us(&f, 99.0));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_multiset_has_the_asked_size_and_is_skewed() {
        let m = zipf_multiset(750, 50, 1.2);
        assert_eq!(m.len(), 750);
        let ones = m.iter().filter(|&&k| k == 1).count();
        let fifties = m.iter().filter(|&&k| k == 50).count();
        assert!(ones > 150 && (1..10).contains(&fifties), "{ones} {fifties}");
        assert!(m.windows(2).all(|w| w[0] <= w[1]));
    }
}
