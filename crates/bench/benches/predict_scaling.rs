//! Scaling of the virtual-time fluid predictor on the hardest §2.4
//! configuration — running queries plus an admission queue plus predicted
//! future arrivals — at n ∈ {100, 1k, 10k, 100k, 1M}; of a full estimate
//! set taken from a maintained `IncrementalFluid`, beside `predict` over the
//! same state; of incremental maintenance against the rebuild it replaces,
//! and of admission alone; of the simulator's event step; and of the
//! serving path's per-event and per-command bookkeeping.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use mqpi_core::fluid::{predict, FluidQuery, FutureArrivals};
use mqpi_sim::rng::Rng;

fn queries(n: usize, seed: u64) -> Vec<FluidQuery> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|i| FluidQuery {
            id: i as u64,
            cost: rng.range_f64(10.0, 50_000.0),
            weight: [0.5, 1.0, 2.0, 4.0][rng.below(4) as usize],
        })
        .collect()
}

/// The §2.4 configuration: half the population running, half queued behind
/// an admission limit, plus a Poisson stream of predicted arrivals.
fn workload(
    n: usize,
) -> (
    Vec<FluidQuery>,
    Vec<FluidQuery>,
    Option<usize>,
    FutureArrivals,
) {
    let running = queries(n / 2, 1);
    let queued = queries(n - n / 2, 2);
    let slots = Some((n / 2).max(1));
    let future = FutureArrivals::from_rate(0.05, 1_000.0, 1.0).unwrap();
    (running, queued, slots, future)
}

fn bench_predict_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("predict_scaling");
    g.sample_size(10);
    for n in [100usize, 1_000, 10_000, 100_000, 1_000_000] {
        let (running, queued, slots, future) = workload(n);
        g.bench_with_input(
            BenchmarkId::new("virtual_time", n),
            &(&running, &queued),
            |b, (r, q)| {
                b.iter(|| {
                    black_box(predict(
                        black_box(r),
                        black_box(q),
                        slots,
                        Some(&future),
                        100.0,
                    ))
                });
            },
        );
        // Per-id finish-time lookups over the prediction — the driver-loop
        // pattern (`remaining_for` for every tracked query per tick) that
        // the dense offset index replaced a `HashMap` for.
        let prediction = predict(&running, &queued, slots, Some(&future), 100.0);
        g.bench_with_input(
            BenchmarkId::new("remaining_for_all_ids", n),
            &prediction,
            |b, p| {
                b.iter(|| {
                    let mut acc = 0.0f64;
                    for id in 0..(n / 2) as u64 {
                        if let Some(t) = p.remaining_for(black_box(id)) {
                            acc += t;
                        }
                    }
                    black_box(acc)
                });
            },
        );
    }
    g.finish();
}

/// A full estimate set from a maintained model — the running half of the
/// §2.4 workload admitted and advanced, the queued half and the arrival
/// stream on top — against `predict` over the same extracted state. Both
/// return the same bits; `estimates_full` hands the kernel the order its
/// treap keeps instead of letting it sort.
fn bench_estimates_full(c: &mut Criterion) {
    use mqpi_core::IncrementalFluid;

    let mut g = c.benchmark_group("estimates_full");
    g.sample_size(10);
    for n in [10_000usize, 100_000] {
        let (running, queued, slots, future) = workload(n);
        let mut f = IncrementalFluid::with_capacity(100.0, running.len());
        for q in &running {
            f.arrive(q.id, q.cost, q.weight);
        }
        f.advance(1.0);
        let mut live = Vec::new();
        f.extract_into(&mut live);
        g.bench_function(BenchmarkId::new("predict", n), |b| {
            b.iter(|| {
                black_box(predict(
                    black_box(&live),
                    &queued,
                    slots,
                    Some(&future),
                    100.0,
                ))
            });
        });
        g.bench_function(BenchmarkId::new("maintained_order", n), |b| {
            b.iter(|| black_box(f.estimates_full(black_box(&queued), slots, Some(&future))));
        });
    }
    g.finish();
}

/// Incremental maintenance vs the rebuild it replaces, under criterion:
/// per-event delta application (arrive + finish keeps the population
/// stable, followed by one O(log n) point estimate) against one full
/// `predict` call over the same population — the "per scheduler event"
/// cost the PI session service actually pays on each side — plus the cost
/// of filling an empty model (`populate`).
fn bench_incremental_scaling(c: &mut Criterion) {
    use mqpi_core::IncrementalFluid;

    let mut g = c.benchmark_group("incremental_scaling");
    g.sample_size(10);
    for n in [100usize, 1_000, 10_000, 100_000, 1_000_000] {
        let pop = queries(n, 3);
        // Delta path: one arrive + finish churn pair plus a point query.
        g.bench_with_input(BenchmarkId::new("delta_event", n), &pop, |b, pop| {
            let mut f = IncrementalFluid::with_capacity(100.0, n + 8);
            for q in pop {
                f.arrive(q.id, q.cost, q.weight);
            }
            let mut next = n as u64;
            let mut oldest = 0u64;
            b.iter(|| {
                f.arrive(next, 1_000.0, 1.0);
                let est = f.estimate(black_box(next));
                f.finish(oldest);
                next += 1;
                oldest += 1;
                black_box(est)
            });
        });
        // Rebuild path: the full predict over all n the pre-incremental
        // architecture would run for that same event (gated to n ≤ 10^5:
        // one call is seconds at 10^6).
        if n <= 100_000 {
            g.bench_with_input(BenchmarkId::new("full_rebuild", n), &pop, |b, pop| {
                b.iter(|| black_box(predict(black_box(pop), &[], None, None, 100.0)));
            });
        }
    }
    // Admission alone: n arrivals into an empty model, at the live sizes of
    // the end-to-end benchmark's `sim_churn` (256) and `fanout_idle`
    // (20 000). Throughput is arrivals per second.
    for n in [256usize, 20_000] {
        let pop = queries(n, 3);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("populate", n), &pop, |b, pop| {
            b.iter(|| {
                let mut f = IncrementalFluid::with_capacity(100.0, pop.len());
                for q in pop {
                    f.arrive(q.id, q.cost, q.weight);
                }
                black_box(f.len())
            });
        });
    }
    g.finish();
}

/// Raw `System::step_discard` throughput at n = 10^5 and 10^6: n queries
/// drained through 256 admission slots, the churn the end-to-end
/// benchmark's `sim_churn` workload runs with a mirror attached, here under
/// criterion so the data-oriented core's per-step cost is tracked alongside
/// the predictor.
fn bench_churn_drain(c: &mut Criterion) {
    use mqpi_sim::job::SyntheticJob;
    use mqpi_sim::system::{StepMode, System, SystemConfig};
    use mqpi_sim::AdmissionPolicy;
    use std::sync::Arc;

    let mut g = c.benchmark_group("sim_step_scaling");
    g.sample_size(10);
    for n in [100_000usize, 1_000_000] {
        g.bench_with_input(BenchmarkId::new("churn_drain", n), &n, |b, &n| {
            b.iter(|| {
                let rate = 1e5;
                let spacing = 950.0 / rate * 1.05;
                let mut sys = System::new(SystemConfig {
                    rate,
                    quantum_units: 16.0,
                    admission: AdmissionPolicy::MaxConcurrent(256),
                    speed_tau: 10.0,
                    step_mode: StepMode::EventDriven,
                    ..Default::default()
                });
                let name: Arc<str> = "bench".into();
                for i in 0..n {
                    sys.schedule(
                        i as f64 * spacing,
                        Arc::clone(&name),
                        Box::new(SyntheticJob::new(500 + (i as u64).wrapping_mul(37) % 900)),
                        1.0,
                    );
                }
                let mut finished = 0u64;
                while sys.has_work() {
                    finished += sys.step_discard().unwrap() as u64;
                }
                black_box(finished)
            });
        });
    }
    g.finish();
}

/// One event-mode step at a full house of n unit-weight jobs (the tag
/// path) with n more queued behind them, in time a step: each step's
/// finishers are replaced by as many fresh jobs at the back of the queue,
/// so the house stays full and the queue deep however many steps the
/// measurement takes. What a step costs here should follow what changed
/// (one finisher, one admission), not the n that runs.
fn bench_tag_full_house(c: &mut Criterion) {
    use mqpi_sim::job::SyntheticJob;
    use mqpi_sim::system::{StepMode, System, SystemConfig};
    use mqpi_sim::AdmissionPolicy;
    use std::sync::Arc;

    let mut g = c.benchmark_group("sim_step_scaling");
    for n in [256usize, 1_024, 4_096] {
        g.bench_with_input(BenchmarkId::new("tag_full_house", n), &n, |b, &n| {
            let mut sys = System::new(SystemConfig {
                rate: 1e4,
                admission: AdmissionPolicy::MaxConcurrent(n),
                step_mode: StepMode::EventDriven,
                ..Default::default()
            });
            let name: Arc<str> = "bench".into();
            let mut i = 0u64;
            let mut submit = |sys: &mut System, count: usize| {
                for _ in 0..count {
                    i += 1;
                    let job = SyntheticJob::new(2_000 + i.wrapping_mul(7_919) % 20_000);
                    sys.submit(Arc::clone(&name), Box::new(job), 1.0);
                }
            };
            submit(&mut sys, 2 * n);
            for _ in 0..4 * n {
                let done = sys.step_discard().unwrap();
                submit(&mut sys, done);
            }
            b.iter(|| {
                let done = sys.step_discard().unwrap();
                submit(&mut sys, done);
                done
            });
        });
    }
    g.finish();
}

/// The serving path, where every event and command goes through the id
/// maps (`IncrementalFluid::by_id`, the mirror's tables, the service's
/// `by_query`). `mirror_feed` applies a `sim_churn`-shaped feed — 256
/// slots, exact costs of 50 to 150 units, Poisson arrivals at 0.9 of
/// capacity and one burst of 4 000 that fills the queue, about 10^5
/// events, generated untimed — to a fresh `SystemMirror`, per event.
/// `pi_command` is one `durable_churn`-shaped iteration of a 16-slot
/// service without a log: a submit, in 3 of 16 an abort, reweight or
/// refine of a recent query, an advance and a pump, at the stationary
/// backlog.
fn bench_serving_path(c: &mut Criterion) {
    use mqpi_pi::{EstimatePush, PiConfig, PiService, SystemMirror};
    use mqpi_sim::job::SyntheticJob;
    use mqpi_sim::system::{StepMode, System, SystemConfig};
    use mqpi_sim::AdmissionPolicy;
    use std::sync::Arc;

    let mut g = c.benchmark_group("serving_path");
    let rate = 10_000.0;
    let mut sys = System::new(SystemConfig {
        rate,
        admission: AdmissionPolicy::MaxConcurrent(256),
        step_mode: StepMode::EventDriven,
        ..Default::default()
    });
    sys.enable_event_feed();
    let mut rng = Rng::seed_from_u64(43);
    let name: Arc<str> = "feed".into();
    let mut at = 0.0;
    for i in 0..40_000 {
        at += rng.exp(0.9 * rate / 100.0);
        for _ in 0..if i == 10_000 { 4_000 } else { 1 } {
            let job = Box::new(SyntheticJob::new(50 + rng.below(101)));
            sys.schedule(at, Arc::clone(&name), job, 1.0);
        }
    }
    let mut feed = Vec::new();
    while sys.has_work() {
        sys.step_discard().unwrap();
        sys.drain_events(&mut feed);
    }
    g.throughput(Throughput::Elements(feed.len() as u64));
    g.bench_function("mirror_feed", |b| {
        b.iter(|| {
            let mut mirror = SystemMirror::new(rate);
            mirror.apply_all(black_box(&feed));
            mirror.live()
        });
    });

    let mut svc = PiService::new(PiConfig {
        rate: 100.0,
        epsilon: 0.02,
        slots: Some(16),
        ..PiConfig::default()
    });
    let session = svc.register_session();
    let mut out: Vec<EstimatePush> = Vec::new();
    let mut rng = Rng::seed_from_u64(44);
    let mut iteration = move |svc: &mut PiService| {
        let r = rng.next_u64();
        let cost = 1.0 + (r % 71) as f64 * 0.1;
        let q = svc.submit(session, cost, [0.5, 1.0, 2.0, 4.0][(r >> 7) as usize % 4]);
        let recent = q.wrapping_sub((r >> 24) % 7);
        match (r >> 16) % 16 {
            0 => _ = svc.abort(recent),
            1 => _ = svc.reweight(recent, 0.5 + ((r >> 32) % 5) as f64),
            2 => _ = svc.refine_cost(recent, 0.5 + ((r >> 32) % 40) as f64 * 0.2),
            _ => {}
        }
        svc.advance(0.02 + ((r >> 40) % 7) as f64 * 0.01);
        out.clear();
        svc.pump(&mut out);
        out.len()
    };
    for _ in 0..8_192 {
        iteration(&mut svc);
    }
    g.throughput(Throughput::Elements(1));
    g.bench_function("pi_command", |b| b.iter(|| iteration(&mut svc)));
    g.finish();
}

criterion_group!(
    benches,
    bench_predict_scaling,
    bench_estimates_full,
    bench_incremental_scaling,
    bench_churn_drain,
    bench_tag_full_house,
    bench_serving_path
);
criterion_main!(benches);
