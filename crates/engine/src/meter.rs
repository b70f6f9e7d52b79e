//! Work-unit accounting.
//!
//! The paper measures query cost in units `U`, "the amount of work required
//! to process one page of bytes". Every storage structure charges the shared
//! [`WorkMeter`] one unit per page touched; the executor's cursor compares
//! the meter against its budget to decide when to suspend. The meter is a
//! shared atomic counter (`Arc<AtomicU64>`): a query still executes on a
//! single thread (cross-query parallelism in `mqpi-sim` is virtual-time
//! interleaving), but whole simulation *runs* fan out across OS threads in
//! the experiment harness, so every piece of per-run state must be `Send`.
//! All accesses use `Relaxed` ordering — the counter is only ever read and
//! written from the thread running the query; atomics are used purely to
//! satisfy `Send`/`Sync`, not for cross-thread communication.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// CPU "ticks" (per-tuple processing steps) per work unit: processing one
/// page's worth of tuples costs about one unit of CPU on top of the page
/// access itself.
pub const CPU_TICKS_PER_UNIT: u64 = 128;

/// Shared work-unit counter charged by storage and operators.
///
/// *Single writer.* One thread charges a meter and all of its clones at a
/// time: the thread running the query. A charge is therefore a relaxed
/// load and store, not a locked read-modify-write, which is three fewer
/// locked instructions per row on a correlated probe. The atomics are
/// there so a cursor is `Send`; a meter charged from two threads at once
/// may lose charges (it stays memory-safe). Under the rule, any
/// interleaving of [`charge`](Self::charge) and
/// [`cpu_tick`](Self::cpu_tick) across clones reads
/// `units + ticks / CPU_TICKS_PER_UNIT`.
#[derive(Debug, Clone, Default)]
pub struct WorkMeter {
    used: Arc<AtomicU64>,
    ticks: Arc<AtomicU64>,
}

impl WorkMeter {
    /// A fresh meter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `units` work units (a page access = 1 unit).
    #[inline]
    pub fn charge(&self, units: u64) {
        let used = self.used.load(Ordering::Relaxed);
        self.used.store(used + units, Ordering::Relaxed);
    }

    /// Record one CPU tick (one tuple processed by a CPU-bound operator);
    /// every [`CPU_TICKS_PER_UNIT`] ticks convert into one work unit.
    #[inline]
    pub fn cpu_tick(&self) {
        let t = self.ticks.load(Ordering::Relaxed) + 1;
        self.ticks.store(t, Ordering::Relaxed);
        if t.is_multiple_of(CPU_TICKS_PER_UNIT) {
            self.charge(1);
        }
    }

    /// Total units charged since creation.
    #[inline]
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Publish this meter's cumulative reading into an observability
    /// handle: gauge `engine.meter.used` plus a work-unit histogram sample
    /// of the delta since the caller's last observation. The meter itself
    /// stays wall-clock-free and unchanged; profiling is measured in the
    /// units this meter counts, never in time.
    pub fn observe_into(&self, obs: &mqpi_obs::Obs, delta: u64) {
        if !obs.is_enabled() {
            return;
        }
        obs.gauge_set("engine.meter.used", self.used() as f64);
        if delta > 0 {
            obs.histogram_observe(
                "engine.meter.installment_units",
                mqpi_obs::UNIT_BUCKETS,
                delta as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let m = WorkMeter::new();
        assert_eq!(m.used(), 0);
        m.charge(3);
        m.charge(1);
        assert_eq!(m.used(), 4);
    }

    #[test]
    fn cpu_ticks_convert_to_units() {
        let m = WorkMeter::new();
        for _ in 0..CPU_TICKS_PER_UNIT - 1 {
            m.cpu_tick();
        }
        assert_eq!(m.used(), 0);
        m.cpu_tick();
        assert_eq!(m.used(), 1);
        for _ in 0..CPU_TICKS_PER_UNIT * 3 {
            m.cpu_tick();
        }
        assert_eq!(m.used(), 4);
    }

    #[test]
    fn clones_share_the_counter() {
        let m = WorkMeter::new();
        let m2 = m.clone();
        let other = WorkMeter::new();
        m2.charge(5);
        assert_eq!(m.used(), 5);
        assert_eq!(other.used(), 0);
    }

    /// The single-writer rule: clones charged from one thread, in any
    /// order of `charge` and `cpu_tick`, read `units + ticks / 128`.
    #[test]
    fn one_writer_through_clones_loses_nothing() {
        let meters = [WorkMeter::new(), WorkMeter::new(), WorkMeter::new()];
        let clones: Vec<WorkMeter> = meters
            .iter()
            .flat_map(|m| [m.clone(), m.clone(), m.clone()])
            .collect();
        let (mut units, mut ticks) = ([0u64; 3], [0u64; 3]);
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..100_000 {
            // xorshift64: which clone, and whether it charges or ticks.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let at = (x % clones.len() as u64) as usize;
            if (x >> 32).is_multiple_of(4) {
                let u = (x >> 40) % 5;
                clones[at].charge(u);
                units[at / 3] += u;
            } else {
                clones[at].cpu_tick();
                ticks[at / 3] += 1;
            }
        }
        for (i, m) in meters.iter().enumerate() {
            assert!(ticks[i] > CPU_TICKS_PER_UNIT && units[i] > 0);
            assert_eq!(m.used(), units[i] + ticks[i] / CPU_TICKS_PER_UNIT);
        }
    }

    #[test]
    fn meter_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<WorkMeter>();
    }
}
