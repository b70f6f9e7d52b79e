//! Traced scenario suite — small, fully deterministic runs of each paper
//! scenario with the observability layer switched on.
//!
//! Each scenario builds a scheduler shape from §5 (MCQ concurrency, NAQ
//! admission queue, SCQ future arrivals, a chaos run with fault injection,
//! and a PI-driven workload-management episode), runs it to a short
//! horizon with tracing enabled, and returns the rendered trace, both
//! metrics exports, and the invariant-violation count — all read from the
//! run's single [`Obs`] handle, so the golden-trace tests, the
//! `--trace-out`/`--metrics-out` experiment flags, and the chaos
//! fail-on-violation check consume exactly the same bytes.
//!
//! Determinism contract: every value in the outputs derives from the seed
//! and virtual time only (no wall clock, no global state), so a scenario's
//! trace is byte-identical across runs, platforms, and `--jobs` values.

use mqpi_ckpt::{CkptError, Wire};
use mqpi_core::{
    observe_estimates, BandedPi, EstimateSet, InvariantValidator, MultiQueryPi, SingleQueryPi,
    ValidationContext, Visibility,
};
use mqpi_engine::error::{EngineError, Result};
use mqpi_obs::Obs;
use mqpi_sim::admission::AdmissionPolicy;
use mqpi_sim::job::SyntheticJob;
use mqpi_sim::rng::Rng;
use mqpi_sim::system::{ErrorPolicy, FinishKind, StepMode, System, SystemConfig};
use mqpi_sim::{FaultMix, FaultPlan};
use mqpi_wlm::{LostWorkCase, QueryLoad};

/// The scenarios [`run_scenario`] understands, in suite order.
pub const SCENARIOS: &[&str] = &["mcq", "naq", "scq", "chaos", "wlm", "ensemble"];

/// Virtual horizon of one traced run, in seconds. Short on purpose: golden
/// traces are review surfaces, so they should stay small enough to diff.
const HORIZON: f64 = 150.0;
/// Estimator/validator sampling cadence, matching the chaos campaigns.
const SAMPLE_INTERVAL: f64 = 5.0;
/// Aggregate rate `C` for every shape.
const RATE: f64 = 100.0;
/// Concurrency slots for the queued shapes.
const SLOTS: usize = 3;

/// Everything observable about one traced scenario run.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Canonical scenario name (one of [`SCENARIOS`]).
    pub scenario: &'static str,
    /// Rendered trace-event log (one `t=… tag k=v…` line per event).
    pub trace: String,
    /// Metrics registry as pretty-printed JSON.
    pub metrics_json: String,
    /// Metrics registry plus profiling spans as CSV.
    pub metrics_csv: String,
    /// Invariant violations, read from the `core.validator.violations`
    /// counter — the single place both traces and campaign acceptance
    /// checks consult.
    pub violations: u64,
    /// Total work units the scheduler executed. Tracing must not change
    /// this by a single bit (the overhead tests compare it against an
    /// untraced run of the same scenario and seed).
    pub executed_units: f64,
}

fn canon(name: &str) -> Result<&'static str> {
    SCENARIOS
        .iter()
        .find(|s| **s == name)
        .copied()
        .ok_or_else(|| {
            EngineError::exec(format!(
                "unknown traced scenario {name:?} (expected one of {SCENARIOS:?})"
            ))
        })
}

fn build_system(scenario: &str, rng: &mut Rng, obs: &Obs) -> System {
    let admission = match scenario {
        "naq" => AdmissionPolicy::MaxConcurrent(SLOTS),
        "chaos" => AdmissionPolicy::Bounded {
            slots: SLOTS,
            queue: 2,
        },
        _ => AdmissionPolicy::Unlimited,
    };
    let mut sys = System::new(SystemConfig {
        rate: RATE,
        quantum_units: 16.0,
        admission,
        step_mode: StepMode::Quantum,
        ..Default::default()
    });
    // Attach the handle before any submission so arrivals are on the trace.
    sys.set_obs(obs.clone());
    let initial = match scenario {
        "scq" => 3,
        "naq" | "chaos" => 6,
        "ensemble" => 5,
        _ => 4,
    };
    for i in 0..initial {
        let cost = rng.range_f64(800.0, 4000.0) as u64;
        sys.submit(format!("q{i}"), Box::new(SyntheticJob::new(cost)), 1.0);
    }
    if scenario == "scq" || scenario == "ensemble" {
        // A deterministic Poisson-ish arrival stream inside the horizon
        // (shorter for the ensemble scenario: arrivals plus faults already
        // give its bands regimes to cover).
        let mut t = 0.0;
        let arrivals = if scenario == "scq" { 5 } else { 3 };
        for i in 0..arrivals {
            t += rng.exp(0.05);
            let cost = rng.range_f64(500.0, 2500.0) as u64;
            sys.schedule(t, format!("a{i}"), Box::new(SyntheticJob::new(cost)), 1.0);
        }
    }
    sys
}

/// Run one traced scenario to its horizon and collect its observability
/// outputs. The run itself is identical to the untraced equivalent — every
/// emission is a pure read — so enabling tracing changes nothing about
/// scheduling, estimates, or fault outcomes.
pub fn run_scenario(name: &str, seed: u64) -> Result<TracedRun> {
    run_scenario_with(name, seed, Obs::enabled())
}

/// [`run_scenario`] with a caller-supplied handle. Passing
/// [`Obs::disabled`] runs the identical scenario with every emission
/// site compiled down to a flag check — the basis of the zero-overhead
/// acceptance tests.
pub fn run_scenario_with(name: &str, seed: u64, obs: Obs) -> Result<TracedRun> {
    run_scenario_impl(name, seed, obs, None)
}

/// [`run_scenario`], interrupted: at estimator tick `split_tick` the
/// entire run state — scheduler, validator, observability buffers, and
/// the scenario's own loop variables — is serialized through the
/// checkpoint codec, decoded back into *fresh* objects that replace the
/// live ones, and the run continues. The returned trace and metrics must
/// be byte-identical to [`run_scenario`]'s, which the golden-trace suite
/// asserts against the checked-in fixtures.
pub fn run_scenario_resumed(name: &str, seed: u64, split_tick: usize) -> Result<TracedRun> {
    run_scenario_impl(name, seed, Obs::enabled(), Some(split_tick))
}

fn ckpt_err(e: CkptError) -> EngineError {
    EngineError::exec(format!("checkpoint: {e}"))
}

fn run_scenario_impl(name: &str, seed: u64, obs: Obs, split: Option<usize>) -> Result<TracedRun> {
    let mut obs = obs;
    let scenario = canon(name)?;
    let mut rng = Rng::seed_from_u64(seed);
    let mut sys = build_system(scenario, &mut rng, &obs);
    sys.set_error_policy(ErrorPolicy::Isolate);

    let ensemble_mode = scenario == "ensemble";
    let faulty = scenario == "chaos" || ensemble_mode;
    if scenario == "chaos" {
        sys.install_faults(FaultPlan::generate(
            seed ^ 0xC4A5_17E5_0F00_D5EE,
            HORIZON,
            &FaultMix::even(2),
        ));
    } else if ensemble_mode {
        // Rate dips move observed speeds away from the nominal rate, the
        // regime change that widens the bands.
        sys.install_faults(FaultPlan::generate(
            seed ^ 0xE45E_3B1E_0F00_D5EE,
            HORIZON,
            &FaultMix {
                rate_dips: 3,
                cost_noise: 2,
                ..FaultMix::default()
            },
        ));
    }

    let single = SingleQueryPi::new();
    let multi = MultiQueryPi::new(match scenario {
        "naq" | "chaos" => Visibility::with_queue(Some(SLOTS)),
        _ => Visibility::concurrent_only(),
    });
    let mut ens = BandedPi::new(Visibility::concurrent_only());
    ens.set_obs(obs.clone());
    let mut seen_finished = 0usize;
    // Slack covers quantum discretization over one sampling interval.
    let mut validator = InvariantValidator::with_slack(2.0);
    validator.set_obs(obs.clone());

    // The wlm scenario's scripted episode: block the best victim for the
    // first submitted query, resume it later, then plan maintenance aborts
    // against a deadline the remaining load cannot meet.
    let wlm = scenario == "wlm";
    // Query ids are assigned 1.. in submission order; the target is `q0`.
    let target = 1u64;
    let mut victim: Option<u64> = None;
    let mut resumed = false;
    let mut abort_planned = false;

    let mut last_fault_count = 0usize;
    let mut prev_rate_degraded = false;
    let mut next_sample = 0.0;
    let mut tick = 0usize;
    loop {
        if sys.now() >= next_sample {
            let snap = sys.snapshot();
            let m_set = if ensemble_mode {
                // Feed realized finish times to the bands before the tick,
                // exactly as the bench-ensemble campaign does: completions
                // are scored, aborts/errors are forgotten.
                let done = sys.finished();
                while seen_finished < done.len() {
                    let rec = &done[seen_finished];
                    if matches!(rec.kind, FinishKind::Completed) {
                        ens.resolve(rec.id, rec.finished);
                    } else {
                        ens.forget(rec.id);
                    }
                    seen_finished += 1;
                }
                EstimateSet::from_bands(&ens.tick(&snap))
            } else {
                let s_set = single.estimates(&snap);
                observe_estimates(&obs, "single", "core.predict.single", snap.time, &s_set);
                let m_set = multi.estimates(&snap);
                observe_estimates(&obs, "multi", "core.predict.multi", snap.time, &m_set);
                m_set
            };

            let rate_degraded = sys.current_rate() < sys.rate() - 1e-9;
            let fault_count = sys.fault_log().len();
            let ctx = ValidationContext {
                faults_in_interval: fault_count > last_fault_count
                    || rate_degraded
                    || prev_rate_degraded,
                // As in the chaos campaigns, the monotonicity rule is only
                // meaningful on fault-free runs; the wlm scenario's blocks
                // and resumes are covered by the validator's own
                // state-stability screen.
                check_monotonicity: !faulty,
            };
            last_fault_count = fault_count;
            prev_rate_degraded = rate_degraded;
            validator.observe(&snap, &m_set, ctx);

            if wlm {
                if victim.is_none() && snap.time >= 10.0 {
                    let loads = QueryLoad::from_snapshot(&snap);
                    let choice = mqpi_wlm::best_single_victim(&loads, target, RATE);
                    let victim_id = choice.map(|c| c.victim);
                    mqpi_wlm::record_decision(&obs, snap.time, "speedup_victim", victim_id);
                    if let Some(c) = choice {
                        sys.block(c.victim)?;
                        victim = Some(c.victim);
                    }
                } else if let (Some(v), false) = (victim, resumed) {
                    if snap.time >= 25.0 {
                        sys.resume(v)?;
                        resumed = true;
                    }
                } else if resumed && !abort_planned && snap.time >= 40.0 {
                    let loads = QueryLoad::from_snapshot(&snap);
                    let plan = mqpi_wlm::greedy_abort_plan(
                        &loads,
                        RATE,
                        10.0,
                        LostWorkCase::CompletedWork,
                    );
                    for &id in &plan.abort {
                        mqpi_wlm::record_decision(&obs, snap.time, "maintenance_abort", Some(id));
                    }
                    for id in plan.abort {
                        sys.abort(id)?;
                    }
                    abort_planned = true;
                }
            }

            while next_sample <= sys.now() {
                next_sample += SAMPLE_INTERVAL;
            }
            tick += 1;
            if split == Some(tick) {
                // Serialize the complete run state, then revive it into
                // fresh objects in place of the live ones — exactly what a
                // crash-restart would do, minus the process boundary.
                // The four stateful parts travel as their own checkpoint
                // blobs, the loop's variables beside them.
                type Blobs = (Vec<u8>, Vec<u8>, Vec<u8>, Vec<u8>);
                let blobs: Blobs = (
                    sys.checkpoint().map_err(ckpt_err)?,
                    validator.checkpoint(),
                    obs.checkpoint(),
                    ens.checkpoint(),
                );
                let flags = (victim, resumed, abort_planned, prev_rate_degraded);
                let cursors = (last_fault_count, next_sample, seen_finished);
                let cut = (blobs, flags, cursors).to_bytes();
                let container = mqpi_ckpt::encode_container("traced-run", &cut);

                let blobs: Blobs;
                (
                    blobs,
                    (victim, resumed, abort_planned, prev_rate_degraded),
                    (last_fault_count, next_sample, seen_finished),
                ) = mqpi_ckpt::decode_container(&container, "traced-run")
                    .and_then(|payload| Wire::from_bytes(&payload, "traced run"))
                    .map_err(ckpt_err)?;
                sys = System::restore(&blobs.0).map_err(ckpt_err)?;
                validator = InvariantValidator::restore(&blobs.1).map_err(ckpt_err)?;
                obs = Obs::restore(&blobs.2).map_err(ckpt_err)?;
                // The bands restore into a freshly built PI (its visibility
                // is code, not state), just like the scheduler and
                // validator restore into fresh objects.
                ens = BandedPi::new(Visibility::concurrent_only());
                ens.restore_state(&blobs.3).map_err(ckpt_err)?;
                // Restored handles come back disconnected; re-wire the
                // live observability channel exactly as at startup.
                sys.set_obs(obs.clone());
                validator.set_obs(obs.clone());
                ens.set_obs(obs.clone());
            }
        }
        if sys.now() >= HORIZON || !sys.has_work() {
            break;
        }
        sys.step()?;
    }

    let executed = sys.executed_units();
    validator.check_conservation(
        sys.now(),
        executed,
        sys.live_units_done(),
        sys.finished(),
        1e-6 * executed.max(1.0),
    );

    Ok(TracedRun {
        scenario,
        trace: obs.render_trace(),
        metrics_json: obs.metrics_json(),
        metrics_csv: obs.metrics_csv(),
        violations: obs.counter("core.validator.violations"),
        executed_units: executed,
    })
}

/// Run every scenario in [`SCENARIOS`] order with the same seed.
pub fn run_all(seed: u64) -> Result<Vec<TracedRun>> {
    SCENARIOS.iter().map(|s| run_scenario(s, seed)).collect()
}

/// The `--trace-out` file: every scenario's event log under a
/// `# scenario=<name> seed=<seed>` header.
pub fn trace_export(runs: &[TracedRun], seed: u64) -> String {
    let mut out = String::new();
    for r in runs {
        out.push_str(&format!("# scenario={} seed={seed}\n", r.scenario));
        out.push_str(&r.trace);
    }
    out
}

/// The `--metrics-out` file: every registry's rows prefixed with the
/// scenario name (CSV), or each registry nested under the scenario key
/// (`json`).
pub fn metrics_export(runs: &[TracedRun], json: bool) -> String {
    let mut out = String::new();
    if json {
        out.push_str("{\n");
        for (i, r) in runs.iter().enumerate() {
            let body = r.metrics_json.trim_end().replace('\n', "\n  ");
            out.push_str(&format!("  \"{}\": {body}", r.scenario));
            out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
    } else {
        out.push_str("scenario,family,name,value,detail\n");
        for r in runs {
            for line in r.metrics_csv.lines().skip(1) {
                out.push_str(&format!("{},{line}\n", r.scenario));
            }
        }
    }
    out
}

/// Run `runs` seeded replicates of one scenario across up to `jobs` worker
/// threads. Replicate `r` uses seed `seed0 + r`; results come back in run
/// order, so the output is bit-identical for any `jobs` value.
pub fn run_replicated(name: &str, runs: usize, seed0: u64, jobs: usize) -> Result<Vec<TracedRun>> {
    let scenario = canon(name)?;
    crate::parallel::run_indexed(jobs, runs, |r| run_scenario(scenario, seed0 + r as u64))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_produces_a_clean_nonempty_run() {
        for run in run_all(42).unwrap() {
            assert!(
                run.trace.contains("arrival") && run.trace.contains("estimate"),
                "{}: trace missing lifecycle events",
                run.scenario
            );
            assert!(
                run.metrics_csv.contains("counter,sim.arrivals,"),
                "{}: metrics missing arrival counter",
                run.scenario
            );
            assert!(
                run.metrics_csv.contains("span,sim.step,"),
                "{}: profile missing sim.step span",
                run.scenario
            );
            assert_eq!(run.violations, 0, "{}: invariant violations", run.scenario);
        }
    }

    #[test]
    fn scenarios_exercise_their_distinguishing_events() {
        let by_name = |n| run_scenario(n, 42).unwrap();
        assert!(by_name("naq").trace.contains(" enqueue "));
        assert!(by_name("chaos").trace.contains(" fault "));
        assert!(by_name("chaos").trace.contains(" reject "));
        let wlm = by_name("wlm");
        assert!(wlm.trace.contains("wlm action=speedup_victim"));
        assert!(wlm.trace.contains(" block "));
        assert!(wlm.trace.contains(" resume "));
        assert!(wlm.trace.contains("wlm action=maintenance_abort"));
        assert!(wlm.trace.contains(" abort "));
        let ens = by_name("ensemble");
        assert!(
            ens.trace.contains("estimate pi=ensemble"),
            "no ensemble estimates"
        );
        assert!(ens.trace.contains(" fault "), "no injected faults");
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        assert!(run_scenario("nope", 1).is_err());
    }

    #[test]
    fn resumed_scenarios_are_byte_identical_to_straight_runs() {
        // Horizon 150 s at a 5 s cadence gives ~30 ticks; split mid-run.
        for scenario in SCENARIOS {
            let straight = run_scenario(scenario, 42).unwrap();
            let resumed = run_scenario_resumed(scenario, 42, 12).unwrap();
            assert_eq!(straight.trace, resumed.trace, "{scenario}: trace");
            assert_eq!(
                straight.metrics_json, resumed.metrics_json,
                "{scenario}: metrics json"
            );
            assert_eq!(
                straight.metrics_csv, resumed.metrics_csv,
                "{scenario}: metrics csv"
            );
            assert_eq!(
                straight.executed_units.to_bits(),
                resumed.executed_units.to_bits(),
                "{scenario}: executed units"
            );
        }
    }

    #[test]
    fn replicates_are_bit_identical_across_jobs() {
        let serial = run_replicated("chaos", 3, 7, 1).unwrap();
        let parallel = run_replicated("chaos", 3, 7, 4).unwrap();
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.trace, p.trace);
            assert_eq!(s.metrics_json, p.metrics_json);
            assert_eq!(s.metrics_csv, p.metrics_csv);
        }
    }
}
