//! Engine microbenchmarks: storage, index probes, and the paper's workload
//! query end to end — plus the PI-estimation overhead ablation (how much a
//! snapshot + estimate costs per visibility mode).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use mqpi_bench::db;
use mqpi_core::multi::FutureWorkload;
use mqpi_core::{MultiQueryPi, SingleQueryPi, Visibility};
use mqpi_engine::tuple::ColumnMask;
use mqpi_engine::{ColumnType, Database, Schema, Value, WorkMeter};
use mqpi_sim::job::SyntheticJob;
use mqpi_sim::system::{System, SystemConfig};
use mqpi_workload::query_job;

fn bench_storage(c: &mut Criterion) {
    let tpcr = db::small();
    let lineitem = tpcr.db.table("lineitem").expect("lineitem");
    let mut g = c.benchmark_group("storage");
    g.bench_function("seq_scan_24k_rows", |b| {
        b.iter(|| {
            let m = WorkMeter::new();
            let mut st = mqpi_engine::heap::ScanState::new();
            let mut n = 0u64;
            let mut row = Vec::new();
            while lineitem
                .heap
                .scan_next(&mut st, &m, ColumnMask::ALL, &mut row)
                .unwrap()
                .is_some()
            {
                n += row.len() as u64;
            }
            black_box(n)
        });
    });
    let idx = lineitem.index_on(0).expect("index");
    g.bench_function("index_probe_30_matches", |b| {
        let m = WorkMeter::new();
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 37) % 800;
            black_box(idx.tree.lookup(&mqpi_engine::Value::Int(k), &m))
        });
    });
    // The build, on the same 24k rows: `TpcrDb::build`'s three steps.
    let schema = lineitem.schema.clone();
    let mut rows = Vec::new();
    let (m, mut st, mut row) = (WorkMeter::new(), Default::default(), Vec::new());
    while lineitem
        .heap
        .scan_next(&mut st, &m, ColumnMask::ALL, &mut row)
        .unwrap()
        .is_some()
    {
        rows.push(row.clone());
    }
    let loaded = || {
        let mut db = Database::new();
        db.create_table("lineitem", schema.clone()).unwrap();
        db.insert("lineitem", &rows).unwrap();
        db
    };
    g.bench_function("insert_24k_rows", |b| b.iter(|| black_box(loaded())));
    // A table takes one index per column, so each call loads a new one:
    // subtract `insert_24k_rows` for the index build alone.
    g.bench_function("create_index_24k_rows", |b| {
        b.iter(|| {
            let mut db = loaded();
            db.create_index("lineitem", "partkey").unwrap();
            black_box(db)
        });
    });
    let mut db = loaded();
    let fraction = tpcr.config.analyze_fraction;
    g.bench_function("analyze_24k_rows", |b| {
        b.iter(|| db.analyze_sampled("lineitem", fraction).unwrap());
    });
    g.finish();
}

fn bench_query(c: &mut Criterion) {
    let tpcr = db::small();
    let mut g = c.benchmark_group("query");
    g.sample_size(20);
    g.bench_function("prepare_paper_query", |b| {
        b.iter(|| black_box(tpcr.db.prepare(&tpcr.query_sql(10)).unwrap()));
    });
    g.bench_function("run_paper_query_s5_to_completion", |b| {
        b.iter(|| {
            let p = tpcr.db.prepare(&tpcr.query_sql(5)).unwrap();
            let mut cur = p.open().unwrap();
            black_box(cur.run_to_completion().unwrap())
        });
    });
    g.bench_function("run_paper_query_s5_in_installments", |b| {
        b.iter(|| {
            let mut job = query_job(tpcr, 5).unwrap();
            let mut total = 0u64;
            loop {
                use mqpi_sim::Job;
                total += job.run(16).unwrap();
                if job.finished() {
                    break;
                }
            }
            black_box(total)
        });
    });
    g.finish();
}

/// The paper's query shape at three fan-outs: a correlated scalar subquery
/// that index-probes `inner_t` once per outer row and fetches one heap page
/// per match. `inner_t(k, v, pad)` is shaped like `lineitem` (a 60-byte
/// string nothing reads) and interleaves its keys, so the matches of one
/// probe lie on different pages. Time per iteration is for 64 outer rows,
/// that is `64 * fanout` matches; the group reports matches per second,
/// about one work unit each, so the inverse is comparable with
/// `engine.ns_per_unit`.
fn bench_correlated_probe(c: &mut Criterion) {
    const OUTER_ROWS: i64 = 64;
    const FANOUTS: [i64; 3] = [3, 30, 300];
    let mut db = Database::new();
    let schema = Schema::from_pairs(&[
        ("k", ColumnType::Int),
        ("v", ColumnType::Int),
        ("pad", ColumnType::Str),
    ]);
    db.create_table("inner_t", schema.unwrap()).unwrap();
    let pad = "x".repeat(60);
    let mut rows = Vec::new();
    for round in 0..300 {
        for fanout in FANOUTS.into_iter().filter(|f| round < *f) {
            // Keys of fan-out `f` are `f * 1000 ..`.
            rows.extend((0..OUTER_ROWS).map(|k| {
                vec![
                    Value::Int(fanout * 1000 + k),
                    Value::Int(round),
                    Value::str(&pad),
                ]
            }));
        }
    }
    db.insert("inner_t", &rows).unwrap();
    db.create_index("inner_t", "k").unwrap();
    db.analyze("inner_t").unwrap();
    for fanout in FANOUTS {
        let name = format!("probe{fanout}");
        let schema = Schema::from_pairs(&[("k", ColumnType::Int)]).unwrap();
        db.create_table(name.as_str(), schema).unwrap();
        let keys: Vec<Vec<Value>> = (0..OUTER_ROWS)
            .map(|k| vec![Value::Int(fanout * 1000 + k)])
            .collect();
        db.insert(&name, &keys).unwrap();
        db.analyze(&name).unwrap();
    }
    let mut g = c.benchmark_group("correlated_probe");
    for fanout in FANOUTS {
        let prepared = db
            .prepare(&format!(
                "select o.k from probe{fanout} o where 0 > \
                 (select sum(i.v) from inner_t i where i.k = o.k)"
            ))
            .unwrap();
        g.throughput(Throughput::Elements((OUTER_ROWS * fanout) as u64));
        g.bench_with_input(BenchmarkId::new("fanout", fanout), &prepared, |b, p| {
            b.iter(|| {
                let mut cur = p.open().unwrap();
                let units = cur.run_to_completion().unwrap();
                assert!(units >= (OUTER_ROWS * fanout) as u64);
                black_box(units)
            });
        });
    }
    // The regime `sql_pipeline` runs in: the paper's query over all fifty
    // size classes of the standard database, 12 750 probes into the whole
    // 24 MB `lineitem` heap (`inner_t` above is about 2 MB). Reported per
    // work unit, so the inverse is comparable with `engine.ns_per_unit`.
    let tpcr = db::standard();
    let mix: Vec<_> = (1..=tpcr.config.max_size)
        .map(|k| tpcr.db.prepare(&tpcr.query_sql(k)).unwrap())
        .collect();
    let run_mix = || -> u64 {
        mix.iter()
            .map(|p| p.open().unwrap().run_to_completion().unwrap())
            .sum()
    };
    let units = run_mix();
    g.throughput(Throughput::Elements(units));
    g.bench_function("tpcr_mix", |b| {
        b.iter(|| assert_eq!(black_box(run_mix()), units));
    });
    g.finish();
}

fn bench_pi_overhead(c: &mut Criterion) {
    // Ablation: per-estimate overhead of the three visibility modes on a
    // 10-query snapshot (the PI runs continuously in a real system, so its
    // own cost matters).
    let mut sys = System::new(SystemConfig {
        rate: 100.0,
        ..Default::default()
    });
    for i in 0..10 {
        sys.submit(
            format!("q{i}"),
            Box::new(SyntheticJob::new(5_000 + 1_000 * i)),
            1.0,
        );
    }
    sys.run_until(5.0).unwrap();
    let snap = sys.snapshot();
    let mut g = c.benchmark_group("pi_estimate_overhead");
    let single = SingleQueryPi::new();
    g.bench_function("single_query", |b| {
        b.iter(|| black_box(single.estimates(black_box(&snap))));
    });
    let multi = MultiQueryPi::new(Visibility::concurrent_only());
    g.bench_function("multi_concurrent_only", |b| {
        b.iter(|| black_box(multi.estimates(black_box(&snap))));
    });
    let multi_future = MultiQueryPi::new(Visibility::with_future(
        None,
        FutureWorkload {
            lambda: 0.05,
            avg_cost: 1_000.0,
            avg_weight: 1.0,
        },
    ));
    g.bench_function("multi_with_future", |b| {
        b.iter(|| black_box(multi_future.estimates(black_box(&snap))));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_storage,
    bench_query,
    bench_correlated_probe,
    bench_pi_overhead
);
criterion_main!(benches);
