//! `durable_churn`: a journaled service at a stationary backlog, crashed,
//! recovered and failed over.
//!
//! A scripted stream (one `submit`, now and then a `refine_cost`, `reweight`
//! or `abort`, `advance`, `pump` per iteration; a `wal_mark` every
//! [`MARK_EVERY`]) offers about 0.9 of `rate` to a 16-slot service, so the
//! queue depth does not grow with the length of the log. Three phases:
//!
//! * **A** runs until three compactions have happened and the log holds at
//!   least `SUFFIX` records past the last one, then a few more iterations,
//!   then the process "dies" (drop without sync). Op = iteration.
//! * **B** copies the crashed directory [`RECOVERIES`] times (untimed: an
//!   at-mark recovery seals and compacts, so a directory cannot be recovered
//!   twice) and times `open_durable_at_mark` on each copy.
//! * **C** the last recovered primary runs `TAIL` more iterations while a
//!   warm `Standby` calls `catch_up()` every [`CATCH_UP_EVERY`]; it dies just
//!   past a synced mark, and the standby catches up, promotes and pumps.
//!
//! The group commit is 512 records: at 16 the stream is fsync-bound and its
//! time is the sandbox's disk, at 512 it is CPU-bound and the fsync *count*
//! repeats exactly.

use std::path::Path;

use mqpi_obs::Obs;
use mqpi_pi::{EstimatePush, PiConfig, SessionId, Standby};
use mqpi_wal::WalKnobs;

use crate::journal::Journal;
use crate::pass::{PassKind, PassOut, Workload};
use crate::trace::{Span, Tracer};
use crate::util::{self, TickClock, FNV_OFFSET};

/// Records between compactions, records past the last compaction at the
/// crash, and phase-C iterations, all at scale 1.
const COMPACT_EVERY: f64 = 250_000.0;
const SUFFIX: f64 = 225_000.0;
const TAIL: f64 = 25_000.0;
const COMPACTIONS: u64 = 3;
/// Untimed iterations that bring a fresh service to its stationary backlog.
const WARMUP: u64 = 8 * 1024;
const MARK_EVERY: u64 = 1024;
const CATCH_UP_EVERY: u64 = 4096;
const RECOVERIES: usize = 5;
/// Iterations journaled past the last mark before the process dies.
const TORN: u64 = 37;
const RATE: f64 = 100.0;
const SLOTS: usize = 16;
const EPSILON: f64 = 0.02;
const WEIGHTS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

pub struct DurableChurn {
    seed: u64,
    cfg: PiConfig,
    suffix: u64,
    tail: u64,
}

/// The live run's state at a mark.
#[derive(Debug, Clone, Copy)]
struct MarkPoint {
    iter: u64,
    /// Push digest, and pushes so far.
    digest: u64,
    pushes: u64,
    state: u64,
}

/// The scripted stream and what it has produced so far.
struct Stream {
    seed: u64,
    session: SessionId,
    /// Iterations done; iteration `i` submits query `i`.
    iter: u64,
    digest: u64,
    pushes: u64,
    /// Pushes that were not finals: the pump checks that pushed.
    nonfinal: u64,
    marks: Vec<MarkPoint>,
    live_max: usize,
    queued_max: usize,
}

impl Stream {
    /// One iteration: a pure function of `(seed, iter)`.
    fn step(&mut self, j: &mut Journal, tr: &mut Tracer) {
        self.iter += 1;
        let r = util::splitmix64(self.seed ^ self.iter.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let cost = 1.0 + (r % 71) as f64 * 0.1;
        let q = j.submit(tr, self.session, cost, WEIGHTS[(r >> 7) as usize % 4]);
        debug_assert_eq!(q, self.iter);
        match (r >> 16) % 16 {
            0 => j.abort(tr, q.wrapping_sub((r >> 24) % 5)),
            1 => j.reweight(
                tr,
                q.wrapping_sub((r >> 24) % 7),
                0.5 + ((r >> 32) % 5) as f64,
            ),
            2 => j.refine_cost(
                tr,
                q.wrapping_sub((r >> 24) % 7),
                0.5 + ((r >> 32) % 40) as f64 * 0.2,
            ),
            _ => {}
        }
        j.advance(tr, 0.02 + ((r >> 40) % 7) as f64 * 0.01);
        j.pump(tr);
        self.digest = util::fold_pushes(self.digest, &j.out);
        self.pushes += j.out.len() as u64;
        self.nonfinal += j.out.iter().filter(|p| !p.done).count() as u64;
        self.live_max = self.live_max.max(j.svc.live_queries());
        self.queued_max = self.queued_max.max(j.svc.queued_queries());
        if self.iter.is_multiple_of(MARK_EVERY) {
            j.mark(tr, self.iter, self.digest);
            let state = tr.span(Span::DriverCheck, || j.svc.state_digest());
            self.marks.push(MarkPoint {
                iter: self.iter,
                digest: self.digest,
                pushes: self.pushes,
                state,
            });
        }
    }

    fn mark_at(&self, iter: u64) -> Option<usize> {
        self.marks.binary_search_by_key(&iter, |m| m.iter).ok()
    }

    /// Check the pushes a replay regenerated, which end at mark `at`: they
    /// must chain mark to mark into the live run's digests, as far back as
    /// they reach, and reach back over at least one whole mark interval.
    fn chain(&self, at: usize, pushes: &[EstimatePush]) -> Result<(), String> {
        let (mut end, mut k) = (pushes.len(), at);
        while k > 0 {
            let (from, to) = (self.marks[k - 1], self.marks[k]);
            let n = (to.pushes - from.pushes) as usize;
            if n > end {
                break;
            }
            if util::fold_pushes(from.digest, &pushes[end - n..end]) != to.digest {
                return Err(format!("push digest differs at mark {}", to.iter));
            }
            end -= n;
            k -= 1;
        }
        if k == at {
            return Err("replay reached back over no whole mark interval".into());
        }
        Ok(())
    }
}

impl DurableChurn {
    /// A fresh log in `dir`, one session, [`WARMUP`] iterations in.
    fn warmed(&self, dir: &Path, decompose: bool) -> Result<(Journal, Stream), String> {
        let mut quiet = Tracer::new(false);
        let mut j = Journal::create(self.cfg, dir, Obs::disabled(), decompose)
            .map_err(|e| e.to_string())?;
        let mut s = Stream {
            seed: self.seed,
            session: j.register_session(&mut quiet),
            iter: 0,
            digest: FNV_OFFSET,
            pushes: 0,
            nonfinal: 0,
            marks: Vec::new(),
            live_max: 0,
            queued_max: 0,
        };
        while s.iter < WARMUP {
            s.step(&mut j, &mut quiet);
        }
        Ok((j, s))
    }
}

impl Workload for DurableChurn {
    const NAME: &'static str = "durable_churn";
    const ROTATION: &'static [PassKind] = &[PassKind::Untraced, PassKind::Traced];

    fn setup(seed: u64, scale: f64, dir: &Path) -> Result<Self, String> {
        let w = DurableChurn {
            seed,
            cfg: PiConfig {
                rate: RATE,
                epsilon: EPSILON,
                slots: Some(SLOTS),
                wal: Some(WalKnobs {
                    flush_every_n: 4096,
                    flush_every_vt: 1e18,
                    compact_every: ((COMPACT_EVERY * scale).round() as u64).max(8 * WARMUP),
                }),
                ..PiConfig::default()
            },
            suffix: ((SUFFIX * scale).round() as u64).max(8 * MARK_EVERY),
            tail: ((TAIL * scale).round() as u64).max(2 * MARK_EVERY),
        };
        // This workload's set-up cost: a fresh log brought to the
        // stationary backlog. Every pass does the same, untimed.
        let (j, _) = w.warmed(&dir.join("a"), false)?;
        if j.svc.stats().completed == 0 {
            return Err("warm-up completed no query".into());
        }
        Ok(w)
    }

    fn pass(&self, kind: PassKind, dir: &Path, tr: &mut Tracer) -> Result<PassOut, String> {
        let ck = |e: mqpi_ckpt::CkptError| e.to_string();
        let io = |e: std::io::Error| e.to_string();
        let decompose = kind.traced();
        let mut out = PassOut::default();
        let mut quiet = Tracer::new(false);

        let primary_dir = dir.join("a");
        let (mut j, mut s) = self.warmed(&primary_dir, decompose)?;
        // Counters as they stand after the warm-up; phase A reports the rest.
        let flushes0 = j.flushes;
        j.flush_ns.clear();
        let stats0 = j.svc.stats();
        let records0 = j.wal().expect("durable service").next_seq() - 1;
        let (pushes0, nonfinal0) = (s.pushes, s.nonfinal);

        // Phase A.
        let mut ticks = TickClock::with_capacity(1 << 19);
        let (mut compactions, mut since_base) = (0u64, 0u64);
        let first = s.iter;
        let written0 = util::written_bytes();
        tr.begin_section();
        ticks.lap();
        loop {
            // One root span per mark interval: one per iteration would cost
            // a good part of what the iteration costs.
            tr.enter(Span::DriverTick);
            loop {
                tr.set_tick(s.iter - first);
                s.step(&mut j, tr);
                ticks.lap();
                let now = j.wal().expect("durable service").records_since_base();
                compactions += u64::from(now < since_base);
                since_base = now;
                if s.iter % MARK_EVERY == 0 {
                    break;
                }
            }
            tr.exit();
            if compactions >= COMPACTIONS && since_base >= self.suffix {
                break;
            }
        }
        let iters = s.iter - first;
        tr.enter(Span::DriverTick);
        for _ in 0..TORN {
            s.step(&mut j, tr);
        }
        tr.exit();
        let section = tr.end_section();
        (out.ops_ns, out.ops_cpu_ns) = (section.wall_ns, section.cpu_ns);
        out.ops = iters;
        out.ticks_ns = std::mem::take(&mut ticks.samples_ns);
        let wal = j.wal().expect("durable service");
        let records = wal.next_seq() - 1 - records0;
        let (live_max, queued_max) = (s.live_max, s.queued_max);
        let (pushes, nonfinal) = (s.pushes - pushes0, s.nonfinal - nonfinal0);
        let wal_bytes = match (written0, util::written_bytes()) {
            (Some(a), Some(b)) => b - a,
            _ => util::dir_bytes(&primary_dir).map_err(io)?,
        };
        let stats = j.svc.stats();
        let suppressed = stats.suppressed - stats0.suppressed;
        let rejected = stats.deadline_rejected + stats.shed;
        let (flushes, ckpt_bytes) = (j.flushes - flushes0, j.ckpt_bytes);
        let mut flush_ns = std::mem::take(&mut j.flush_ns);
        drop(j); // SIGKILL model: what was not flushed is gone
        let crashed_bytes = util::dir_bytes(&primary_dir).map_err(io)?;

        // Phase B.
        let mut recover_ns = Vec::with_capacity(RECOVERIES);
        let mut recovered = None;
        let mut replayed_total = 0u64;
        for r in 0..RECOVERIES {
            let copy = dir.join(format!("b{r}"));
            util::copy_dir(&primary_dir, &copy).map_err(io)?;
            tr.begin_section();
            tr.enter(Span::DriverTick);
            let got = Journal::recover_at_mark(self.cfg, &copy, tr, decompose);
            tr.exit();
            recover_ns.push(tr.end_section().wall_ns);
            let (rj, rec) = got.map_err(ck)?;
            out.attempted += 1;
            replayed_total += rec.replayed;
            let Some(at) = rec.last_mark.and_then(|(iter, _)| s.mark_at(iter)) else {
                out.fail(
                    1,
                    format!("recovery {r} landed on no known mark: {:?}", rec.last_mark),
                );
                continue;
            };
            let m = s.marks[at];
            let mut bad = Vec::new();
            if rec.last_mark != Some((m.iter, m.digest)) {
                bad.push("mark digest differs".to_string());
            }
            if rj.svc.state_digest() != m.state {
                bad.push("state digest differs".to_string());
            }
            if let Err(why) = s.chain(at, &rec.pushes) {
                bad.push(why);
            }
            if !bad.is_empty() {
                out.fail(
                    1,
                    format!("recovery {r} at mark {}: {}", m.iter, bad.join("; ")),
                );
            }
            recovered = Some((rj, at, copy));
        }

        // Phase C.
        let (mut j, at, primary_dir) = recovered.ok_or("no recovery landed on a mark")?;
        let m = s.marks[at];
        j.set_next_query(m.iter + 1);
        j.compact_now(&mut quiet); // the standby starts from the state at the mark
        s.marks.truncate(at + 1);
        (s.iter, s.digest, s.pushes) = (m.iter, m.digest, m.pushes);
        let mut sb = Standby::new(self.cfg, &primary_dir).map_err(ck)?;
        let mut sb_pushes = Vec::new();
        let mut sb_digest = m.digest;
        let (mut applied, mut in_log, mut lag_max, mut catch_ups) = (0u64, 0u64, 0u64, 0u64);
        let end_at = (m.iter + self.tail).next_multiple_of(MARK_EVERY);
        tr.begin_section();
        tr.enter(Span::DriverTick);
        while s.iter < end_at {
            tr.set_tick(s.iter - first);
            s.step(&mut j, tr);
            if s.iter % CATCH_UP_EVERY == 0 {
                let wal = j.wal().expect("durable service");
                lag_max = lag_max.max(wal.next_seq() - 1 - sb.applied_seq());
                in_log += wal.records_since_base();
                applied += tr
                    .span(Span::WalStandbyCatchup, || sb.catch_up())
                    .map_err(ck)?;
                catch_ups += 1;
                sb.drain_pushes(&mut sb_pushes);
                sb_digest = util::fold_pushes(sb_digest, &sb_pushes);
                sb_pushes.clear();
            }
        }
        j.sync(tr); // the last mark is durable ...
        let last = *s.marks.last().expect("phase C wrote a mark");
        s.step(&mut j, tr); // ... the iteration after it is not
        tr.exit();
        tr.end_section();
        drop(j);

        tr.begin_section();
        tr.enter(Span::DriverTick);
        let caught = tr.span(Span::WalStandbyCatchup, || sb.catch_up());
        let promoted = tr.span(Span::WalPromote, || sb.promote());
        tr.exit();
        let mut failover_ns = tr.end_section().wall_ns;
        caught.map_err(ck)?;
        let (svc, fo) = promoted.map_err(ck)?;
        sb_digest = util::fold_pushes(sb_digest, &fo.pushes);
        out.attempted += 1;
        let mut bad = Vec::new();
        if fo.last_mark != Some((last.iter, last.digest)) {
            bad.push(format!(
                "standby mark {:?}, primary's {:?}",
                fo.last_mark,
                (last.iter, last.digest)
            ));
        }
        if svc.state_digest() != last.state {
            bad.push("state digest differs".to_string());
        }
        if sb_digest != last.digest {
            bad.push("push digest differs".to_string());
        }
        if !bad.is_empty() {
            out.fail(1, format!("promotion: {}", bad.join("; ")));
        }
        let mut j = Journal::adopt(svc, decompose, last.iter + 1);
        tr.begin_section();
        tr.enter(Span::DriverTick);
        j.pump(tr);
        tr.exit();
        failover_ns += tr.end_section().wall_ns;
        let final_digest = util::fold_pushes(last.digest, &j.out);

        out.attempted += iters;
        if rejected > 0 {
            out.fail(rejected, format!("{rejected} submissions rejected or shed"));
        }
        if !j.svc.ledger().balanced() {
            out.fail(1, format!("promoted service ledger {:?}", j.svc.ledger()));
        }

        out.exact.insert("push_digest", last.digest);
        out.exact.insert("failover_digest", final_digest);
        out.exact.insert("state_digest", last.state);
        out.exact.insert("iterations", iters);
        out.exact.insert("pushes", pushes);
        out.exact.insert("suppressed", suppressed);
        out.exact.insert("wal_records", records);
        out.exact.insert("wal_bytes", wal_bytes);
        out.exact.insert("crashed_dir_bytes", crashed_bytes);
        out.exact.insert("compactions", compactions);
        out.exact.insert("replayed", replayed_total);
        out.exact.insert("recovered_mark", m.iter);
        out.exact.insert("standby_applied", applied);
        out.exact.insert("queued_max", queued_max as u64);

        let recover_s = util::median_of(recover_ns.iter().map(|&ns| ns as f64 / 1e9));
        let l = &mut out.layer;
        l.insert("recover_s", recover_s);
        l.insert("failover_s", failover_ns as f64 / 1e9);
        l.insert("wal_bytes_per_op", wal_bytes as f64 / iters as f64);
        l.insert("pi.checks", (suppressed + nonfinal) as f64);
        l.insert("pi.pushes", pushes as f64);
        l.insert("pi.suppressed", suppressed as f64);
        l.insert("pi.live_max", live_max as f64);
        l.insert("pi.queued_max", queued_max as f64);
        l.insert("pi.subs", (live_max + queued_max) as f64);
        l.insert("pi.rejected", rejected as f64);
        l.insert("wal.records", records as f64);
        l.insert("wal.bytes", wal_bytes as f64);
        l.insert("wal.compactions", compactions as f64);
        l.insert("wal.replay_records", replayed_total as f64);
        l.insert("wal.standby_catchup_calls", (catch_ups + 1) as f64);
        l.insert(
            "wal.standby_scan_ratio",
            applied as f64 / in_log.max(1) as f64,
        );
        l.insert("wal.standby_lag_max", lag_max as f64);
        if decompose {
            l.insert("wal.flushes", flushes as f64);
            l.insert("ckpt.bytes", ckpt_bytes as f64);
            flush_ns.sort_unstable();
            if !flush_ns.is_empty() {
                l.insert("wal.flush_us_p50", util::percentile_us(&flush_ns, 50.0));
                l.insert("wal.flush_us_p99", util::percentile_us(&flush_ns, 99.0));
            }
        }
        Ok(out)
    }
}
