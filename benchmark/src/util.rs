//! Small shared helpers: order statistics, the push digest, `/proc` reads.

use std::time::Instant;

use mqpi_pi::EstimatePush;

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold one push into the FNV-1a push-stream digest (every field, bit for
/// bit), the same fold `pi-wal-chaos` uses.
pub fn fold_push(mut h: u64, p: &EstimatePush) -> u64 {
    for v in [
        p.session,
        p.query,
        p.at.to_bits(),
        p.estimate.to_bits(),
        u64::from(p.done),
    ] {
        h = fnv_u64(h, v);
    }
    h
}

pub fn fold_pushes(h: u64, pushes: &[EstimatePush]) -> u64 {
    pushes.iter().fold(h, fold_push)
}

/// Structural updates an `IncrementalFluid` has applied: every counter
/// except clock advances and full rebuilds.
pub fn delta_ops(c: &mqpi_core::DeltaCounters) -> u64 {
    c.arrivals
        + c.finishes
        + c.aborts
        + c.reweights
        + c.cost_refinements
        + c.rate_changes
        + c.completions
}

/// Median of `v` (mean of the middle two for an even count). Sorts `v`.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

pub fn median_of(it: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = it.into_iter().collect();
    median(&mut v)
}

/// Index of the nearest-rank percentile `p` (0..=100) among `n` sorted
/// samples.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of nothing");
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of sorted nanosecond samples, in microseconds.
pub fn percentile_us(sorted_ns: &[u32], p: f64) -> f64 {
    f64::from(sorted_ns[nearest_rank(sorted_ns.len(), p)]) / 1e3
}

/// Mean of the paper's relative error over `(estimate, realised remaining
/// time)` pairs, each error capped at 10 as in the paper's plots (a NaN, from
/// a missing finish time, counts as the cap). 0 for no pairs.
pub fn mean_capped_error(pairs: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for (estimate, actual) in pairs {
        sum += mqpi_core::relative_error(estimate, actual).min(10.0);
        n += 1;
    }
    sum / n.max(1) as f64
}

/// Latencies of one driver tick each, in nanoseconds.
#[derive(Debug, Default)]
pub struct TickClock {
    start: Option<Instant>,
    pub samples_ns: Vec<u32>,
}

impl TickClock {
    pub fn with_capacity(n: usize) -> Self {
        TickClock {
            start: None,
            samples_ns: Vec::with_capacity(n),
        }
    }

    #[inline]
    pub fn start(&mut self) {
        self.start = Some(Instant::now());
    }

    /// End the tick [`TickClock::start`] began and keep its latency. A tick
    /// that is started again without having been stopped leaves no sample.
    #[inline]
    pub fn stop(&mut self) {
        let start = self.start.take().expect("tick stopped before it started");
        self.samples_ns
            .push(start.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
    }

    /// End the running tick and start the next one at the same instant.
    #[inline]
    pub fn lap(&mut self) {
        let now = Instant::now();
        if let Some(start) = self.start.replace(now) {
            self.samples_ns
                .push((now - start).as_nanos().min(u128::from(u32::MAX)) as u32);
        }
    }
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .split_whitespace()
        .next()?
        .parse::<u64>()
        .ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    proc_field("/proc/self/status", "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Bytes the calling thread has passed to `write`-family system calls so
/// far. A pass runs on one thread and its timed sections print nothing, so
/// a delta across one is exactly the bytes written to the log directory
/// (segments and compaction bases).
pub fn written_bytes() -> Option<u64> {
    proc_field("/proc/thread-self/io", "wchar:")
}

/// Nanoseconds the calling thread has spent running on a CPU
/// (`/proc/thread-self/schedstat`). The kernel brings the figure up to date
/// when the thread passes through the scheduler, hence the yield.
pub fn on_cpu_ns() -> Option<u64> {
    std::thread::yield_now();
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> std::io::Result<u64> {
    let mut total = 0;
    for e in std::fs::read_dir(dir)? {
        let m = e?.metadata()?;
        if m.is_file() {
            total += m.len();
        }
    }
    Ok(total)
}

/// Copy the regular files of `from` into a fresh directory `to`, and sync
/// them: write-back of a copy must not land in a later timed section, whose
/// own `fsync`s would wait for it.
pub fn copy_dir(from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        if e.metadata()?.is_file() {
            let dest = to.join(e.file_name());
            std::fs::copy(e.path(), &dest)?;
            std::fs::File::open(&dest)?.sync_all()?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let ns: Vec<u32> = (1..=100).map(|i| i * 1000).collect();
        assert_eq!(percentile_us(&ns, 50.0), 50.0);
        assert_eq!(percentile_us(&ns, 99.0), 99.0);
        assert_eq!(percentile_us(&ns, 100.0), 100.0);
        assert_eq!(percentile_us(&ns[..1], 99.9), 1.0);
    }

    #[test]
    fn proc_counters_are_readable_here() {
        assert!(peak_rss_mb().is_some_and(|m| m > 0.0));
        assert!(written_bytes().is_some());
    }
}
