//! Offline stand-in for `criterion`.
//!
//! Implements the API surface this workspace's benches use — groups,
//! `bench_function`/`bench_with_input`, `BenchmarkId`, `sample_size`,
//! `Throughput::Elements`, and the `criterion_group!`/`criterion_main!`
//! macros — with straightforward
//! wall-clock measurement (auto-calibrated iteration count, median of a
//! few samples). `cargo bench -- --test` runs every benchmark body exactly
//! once so CI can smoke-test benches without paying measurement time.
//! A positional CLI argument filters benchmarks by substring, like the
//! real crate.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Benchmark identifier: `"name"`, `BenchmarkId::new("name", param)` or
/// `BenchmarkId::from_parameter(param)`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        let mut id = function_name.into();
        let _ = write!(id, "/{parameter}");
        Self { id }
    }

    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self { id: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        Self { id }
    }
}

/// Work per iteration, for a rate beside the time (only the variant the
/// benches use).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration; reported as elements per second.
    Elements(u64),
}

#[derive(Debug, Clone)]
struct Options {
    test_mode: bool,
    filter: Option<String>,
}

impl Options {
    fn from_args() -> Self {
        let mut test_mode = false;
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => test_mode = true,
                // Flags cargo/CI pass that we accept and ignore.
                "--bench" | "--nocapture" | "--quiet" | "-q" => {}
                a if a.starts_with('-') => {}
                a => filter = Some(a.to_owned()),
            }
        }
        Self { test_mode, filter }
    }
}

pub struct Criterion {
    opts: Options,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            opts: Options::from_args(),
        }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
            throughput: None,
        }
    }

    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let opts = self.opts.clone();
        run_benchmark(&opts, None, &id.into(), 10, None, f);
        self
    }
}

pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Work per iteration of the benchmarks defined after this call.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let opts = self.criterion.opts.clone();
        run_benchmark(
            &opts,
            Some(&self.name),
            &id.into(),
            self.sample_size,
            self.throughput,
            f,
        );
        self
    }

    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    pub fn finish(self) {}
}

pub struct Bencher {
    test_mode: bool,
    /// Median per-iteration time, filled in by `iter`.
    measured: Option<Duration>,
}

impl Bencher {
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        if self.test_mode {
            black_box(f());
            return;
        }
        // Calibrate the iteration count toward ~50ms of measurement.
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters = (0.05 / once.as_secs_f64()).clamp(1.0, 1e7) as u64;
        // A few samples; report the median so one descheduling blip
        // doesn't skew the number.
        let mut samples = Vec::with_capacity(5);
        for _ in 0..5 {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples.push(t.elapsed() / iters as u32);
        }
        samples.sort();
        self.measured = Some(samples[samples.len() / 2]);
    }
}

fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

fn run_benchmark(
    opts: &Options,
    group: Option<&str>,
    id: &BenchmarkId,
    _sample_size: usize,
    throughput: Option<Throughput>,
    mut f: impl FnMut(&mut Bencher),
) {
    let full = match group {
        Some(g) => format!("{g}/{}", id.id),
        None => id.id.clone(),
    };
    if let Some(filter) = &opts.filter {
        if !full.contains(filter.as_str()) {
            return;
        }
    }
    let mut b = Bencher {
        test_mode: opts.test_mode,
        measured: None,
    };
    f(&mut b);
    if opts.test_mode {
        println!("test {full} ... ok");
    } else if let Some(d) = b.measured {
        // The `mean_ns` field is machine-readable for scripts that collect
        // before/after numbers.
        let rate = match throughput {
            Some(Throughput::Elements(n)) if !d.is_zero() => {
                format!("   thrpt: {:.3} Melem/s", n as f64 / d.as_secs_f64() / 1e6)
            }
            _ => String::new(),
        };
        println!(
            "{full:<60} time: {:>12}   mean_ns: {}{rate}",
            format_duration(d),
            d.as_nanos()
        );
    } else {
        println!("{full:<60} (no measurement: iter was never called)");
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
