//! Scenario builders for the paper's experiments (§5.2–5.3).
//!
//! Each function assembles a [`System`] in the exact starting state of one
//! experiment: MCQ (ten concurrent queries at random points of execution),
//! NAQ (three queries with a two-slot admission queue), SCQ (ten queries
//! plus a Poisson arrival stream), and the §5.3 maintenance scenario (a
//! warmed-up system whose running-query sizes follow the size-biased
//! distribution the paper derives).

use mqpi_engine::error::Result;
use mqpi_sim::job::{CursorJob, Job};
use mqpi_sim::rng::{Rng, Zipf};
use mqpi_sim::system::{QueryId, RateModel, System, SystemConfig};
use mqpi_sim::AdmissionPolicy;

use crate::tpcr::TpcrDb;

/// Create a [`CursorJob`] running the paper's query against size class
/// `size`.
pub fn query_job(db: &TpcrDb, size: u64) -> Result<CursorJob> {
    let prepared = db.db.prepare(&db.query_sql(size))?;
    Ok(CursorJob::new(prepared.open()?))
}

/// Run a job alone until roughly `frac` of its (refined) total work is done
/// — "at a random point of its execution" in the MCQ/SCQ setups. `frac` is
/// clamped to 0.9 so the query never completes here.
pub fn advance_fraction(job: &mut dyn Job, frac: f64) -> Result<()> {
    let frac = frac.clamp(0.0, 0.9);
    loop {
        let p = job.progress();
        let total = p.done + p.remaining;
        if p.finished || total <= 0.0 || p.done / total >= frac {
            return Ok(());
        }
        let chunk = ((total * frac - p.done).max(1.0)) as u64;
        job.run(chunk.min(256))?;
    }
}

/// MCQ experiment configuration (§5.2.1).
#[derive(Debug, Clone, Copy)]
pub struct McqConfig {
    /// Number of concurrent queries (paper: 10).
    pub n: usize,
    /// Zipf exponent of the size classes (paper: 1.2).
    pub zipf_a: f64,
    /// RNG seed.
    pub seed: u64,
    /// System processing rate `C`.
    pub rate: f64,
    /// Rate model (Assumption 1 knob; `Constant` reproduces the paper).
    pub rate_model: RateModel,
}

impl Default for McqConfig {
    fn default() -> Self {
        McqConfig {
            n: 10,
            zipf_a: 1.2,
            seed: 1,
            rate: 70.0,
            rate_model: RateModel::Constant,
        }
    }
}

/// Build the MCQ system: `n` queries of Zipfian size, each pre-advanced to
/// a uniform-random point of its execution, all running at time 0. Returns
/// the system and the query ids (in submission order, largest sizes first
/// in the id list's metadata — ids map 1:1 to the sizes vector also
/// returned).
pub fn mcq_scenario(db: &TpcrDb, cfg: McqConfig) -> Result<(System, Vec<(QueryId, u64)>)> {
    mcq_scenario_weighted(db, cfg, &[1.0])
}

/// MCQ variant with per-query scheduling weights drawn uniformly from
/// `weight_choices` (the paper's prototype has equal priorities; the
/// weighted variant exercises Assumption 3 beyond what PostgreSQL could).
pub fn mcq_scenario_weighted(
    db: &TpcrDb,
    cfg: McqConfig,
    weight_choices: &[f64],
) -> Result<(System, Vec<(QueryId, u64)>)> {
    assert!(!weight_choices.is_empty());
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let zipf = Zipf::new(db.config.max_size as usize, cfg.zipf_a);
    let mut sys = System::new(SystemConfig {
        rate: cfg.rate,
        rate_model: cfg.rate_model,
        ..Default::default()
    });
    let mut out = Vec::with_capacity(cfg.n);
    for i in 0..cfg.n {
        let size = zipf.sample(&mut rng) as u64;
        let mut job = query_job(db, size)?;
        advance_fraction(&mut job, rng.range_f64(0.0, 0.9))?;
        let weight = weight_choices[rng.below(weight_choices.len() as u64) as usize];
        let id = sys.submit(format!("Q{i}(s{size},w{weight})"), Box::new(job), weight);
        out.push((id, size));
    }
    Ok((sys, out))
}

/// Build the NAQ system (§5.2.2): three queries of the given size classes
/// (the paper's are 50, 10, 20) and an admission limit of two. Q1 and Q2
/// start; Q3 waits in the queue. N1 must exceed N2 + N3 for the paper's
/// "Q1 outlives both" shape to hold. Returns the system and `[Q1, Q2, Q3]`
/// ids.
pub fn naq_scenario_sizes(
    db: &TpcrDb,
    rate: f64,
    sizes: [u64; 3],
) -> Result<(System, [QueryId; 3])> {
    let mut sys = System::new(SystemConfig {
        rate,
        admission: AdmissionPolicy::MaxConcurrent(2),
        ..Default::default()
    });
    let q1 = sys.submit(
        format!("Q1(s{})", sizes[0]),
        Box::new(query_job(db, sizes[0])?),
        1.0,
    );
    let q2 = sys.submit(
        format!("Q2(s{})", sizes[1]),
        Box::new(query_job(db, sizes[1])?),
        1.0,
    );
    let q3 = sys.submit(
        format!("Q3(s{})", sizes[2]),
        Box::new(query_job(db, sizes[2])?),
        1.0,
    );
    Ok((sys, [q1, q2, q3]))
}

/// SCQ experiment configuration (§5.2.3).
#[derive(Debug, Clone, Copy)]
pub struct ScqConfig {
    /// Initially running queries (paper: 10).
    pub n_initial: usize,
    /// Zipf exponent (paper: 2.2).
    pub zipf_a: f64,
    /// True arrival rate λ of new queries.
    pub lambda: f64,
    /// RNG seed.
    pub seed: u64,
    /// System processing rate `C`.
    pub rate: f64,
    /// Memoized [`average_query_cost`] for this `db`/`zipf_a` pair. It only
    /// depends on those two, so sweep drivers compute it once and stamp it
    /// here instead of re-preparing every query class per run. `None` means
    /// "compute on demand".
    pub avg_cost: Option<f64>,
}

impl Default for ScqConfig {
    fn default() -> Self {
        ScqConfig {
            n_initial: 10,
            zipf_a: 2.2,
            lambda: 0.03,
            seed: 1,
            rate: 70.0,
            avg_cost: None,
        }
    }
}

/// Zipf-weighted average optimizer cost of a query — the c̄ a multi-query
/// PI would obtain from past statistics (§2.4).
pub fn average_query_cost(db: &TpcrDb, zipf_a: f64) -> Result<f64> {
    let zipf = Zipf::new(db.config.max_size as usize, zipf_a);
    // E[cost] = Σ P(k)·cost(k), with the optimizer's estimate standing in
    // for cost(k) — the PI only has statistics-level knowledge (§2.4).
    let mut mean = 0.0;
    let mut total_p = 0.0;
    for k in 1..=db.config.max_size {
        let p = zipf.pmf(k as usize);
        let est = db.db.prepare(&db.query_sql(k))?.est_cost;
        mean += p * est;
        total_p += p;
    }
    debug_assert!((total_p - 1.0).abs() < 1e-6);
    Ok(mean)
}

/// Build the SCQ system: `n_initial` queries at random execution points
/// plus a Poisson(λ) stream of future arrivals scheduled up to a horizon
/// that comfortably covers the initial queries' lifetimes. Returns the
/// system and the initial query ids with their sizes.
pub fn scq_scenario(db: &TpcrDb, cfg: ScqConfig) -> Result<(System, Vec<(QueryId, u64)>)> {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let zipf = Zipf::new(db.config.max_size as usize, cfg.zipf_a);
    let mut sys = System::new(SystemConfig {
        rate: cfg.rate,
        ..Default::default()
    });
    let mut initial = Vec::with_capacity(cfg.n_initial);
    let mut total_initial_est = 0.0;
    for i in 0..cfg.n_initial {
        let size = zipf.sample(&mut rng) as u64;
        let mut job = query_job(db, size)?;
        advance_fraction(&mut job, rng.range_f64(0.0, 0.9))?;
        let p = job.progress();
        total_initial_est += p.remaining;
        let id = sys.submit(format!("Q{i}(s{size})"), Box::new(job), 1.0);
        initial.push((id, size));
    }
    // Horizon: long enough that arrivals keep coming while any initial
    // query is alive, even in moderately overloaded systems.
    let base = total_initial_est / cfg.rate;
    let avg_cost = match cfg.avg_cost {
        Some(c) => c,
        None => average_query_cost(db, cfg.zipf_a)?,
    };
    let spare = cfg.rate - cfg.lambda * avg_cost;
    let horizon = if spare > 0.05 * cfg.rate {
        (total_initial_est / spare) * 3.0 + 200.0
    } else {
        base * 25.0 + 200.0
    };
    if cfg.lambda > 0.0 {
        let mut t = 0.0;
        let mut k = 0;
        loop {
            t += rng.exp(cfg.lambda);
            if t > horizon || k > 5000 {
                break;
            }
            let size = zipf.sample(&mut rng) as u64;
            let job = query_job(db, size)?;
            sys.schedule(t, format!("A{k}(s{size})"), Box::new(job), 1.0);
            k += 1;
        }
    }
    Ok((sys, initial))
}

/// Build the §5.3 maintenance scenario: a ten-slot system fed with Zipfian
/// queries, warmed up until `warmup_finishes` queries have completed (each
/// completion immediately triggers a new submission, as in the paper).
/// The returned system is at the paper's random inspection time `rt` with
/// ten queries running whose sizes follow the size-biased distribution.
pub fn maintenance_scenario(
    db: &TpcrDb,
    zipf_a: f64,
    seed: u64,
    rate: f64,
    warmup_finishes: usize,
) -> Result<System> {
    let mut rng = Rng::seed_from_u64(seed);
    let zipf = Zipf::new(db.config.max_size as usize, zipf_a);
    let mut sys = System::new(SystemConfig {
        rate,
        ..Default::default()
    });
    for i in 0..10 {
        let size = zipf.sample(&mut rng) as u64;
        sys.submit(
            format!("W{i}(s{size})"),
            Box::new(query_job(db, size)?),
            1.0,
        );
    }
    let mut finishes = 0usize;
    let mut next = 10usize;
    while finishes < warmup_finishes {
        let done = sys.step()?;
        for _ in done {
            finishes += 1;
            let size = zipf.sample(&mut rng) as u64;
            sys.submit(
                format!("W{next}(s{size})"),
                Box::new(query_job(db, size)?),
                1.0,
            );
            next += 1;
        }
    }
    Ok(sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcr::TpcrConfig;

    fn small_db() -> TpcrDb {
        TpcrDb::build(TpcrConfig {
            lineitem_rows: 24_000,
            matches_per_partkey: 30,
            analyze_fraction: 0.2,
            seed: 3,
            max_size: 20,
        })
        .unwrap()
    }

    #[test]
    fn advance_fraction_moves_progress() {
        let db = small_db();
        let mut job = query_job(&db, 10).unwrap();
        advance_fraction(&mut job, 0.5).unwrap();
        let p = job.progress();
        assert!(!p.finished);
        let frac = p.done / (p.done + p.remaining);
        assert!((0.45..0.75).contains(&frac), "frac = {frac}");
    }

    #[test]
    fn mcq_scenario_starts_n_queries() {
        let db = small_db();
        let (sys, ids) = mcq_scenario(
            &db,
            McqConfig {
                n: 6,
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(ids.len(), 6);
        assert_eq!(sys.running_ids().len(), 6);
        assert_eq!(sys.now(), 0.0);
    }

    #[test]
    fn naq_scenario_queues_the_third_query() {
        let db = small_db();
        let (sys, [q1, q2, q3]) = naq_scenario_sizes(&db, 70.0, [20, 4, 8]).unwrap();
        assert_eq!(sys.running_ids(), vec![q1, q2]);
        assert_eq!(sys.queued_ids(), vec![q3]);
    }

    #[test]
    fn naq_runs_to_completion_in_expected_order() {
        let db = small_db();
        let (mut sys, [q1, q2, q3]) = naq_scenario_sizes(&db, 70.0, [20, 4, 8]).unwrap();
        sys.run_until_idle(1e7).unwrap();
        let f1 = sys.finished_record(q1).unwrap().finished;
        let f2 = sys.finished_record(q2).unwrap().finished;
        let f3 = sys.finished_record(q3).unwrap().finished;
        assert!(f2 < f3 && f3 < f1, "f1={f1} f2={f2} f3={f3}");
        // Q3 starts when Q2 finishes.
        let s3 = sys.finished_record(q3).unwrap().started.unwrap();
        assert!((s3 - f2).abs() < 1.0);
    }

    #[test]
    fn scq_scenario_schedules_arrivals() {
        let db = small_db();
        let (mut sys, initial) = scq_scenario(
            &db,
            ScqConfig {
                lambda: 0.05,
                seed: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(initial.len(), 10);
        // Run a while: more than the initial queries should have entered.
        sys.run_until(100.0).unwrap();
        let total_seen = sys.running_ids().len() + sys.finished().len();
        assert!(total_seen > 10, "no arrivals materialized");
    }

    #[test]
    fn maintenance_scenario_has_ten_running_after_warmup() {
        let db = small_db();
        let sys = maintenance_scenario(&db, 2.2, 9, 70.0, 5).unwrap();
        assert_eq!(sys.running_ids().len(), 10);
        assert!(sys.now() > 0.0);
        // A single step may finish several queries at once, so the warm-up
        // can overshoot its target slightly.
        let completed = sys
            .finished()
            .iter()
            .filter(|f| f.kind == mqpi_sim::FinishKind::Completed)
            .count();
        assert!(completed >= 5, "completed = {completed}");
    }

    #[test]
    fn average_query_cost_is_between_extremes() {
        let db = small_db();
        let avg = average_query_cost(&db, 2.2).unwrap();
        let c1 = db.db.prepare(&db.query_sql(1)).unwrap().est_cost;
        let cmax = db.db.prepare(&db.query_sql(20)).unwrap().est_cost;
        assert!(avg > c1 && avg < cmax, "avg {avg} not in ({c1}, {cmax})");
        // Zipf 2.2 is heavily skewed to small queries.
        assert!(avg < 0.3 * cmax);
    }
}
