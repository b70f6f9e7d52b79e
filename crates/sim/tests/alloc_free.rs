//! Pins the "allocation-free dispatch" contract of the data-oriented core:
//! once a system is warm, `step_discard` must perform **zero** heap
//! allocations on the steady-state path (grant + monitor update, nobody
//! arriving or finishing), and only amortized bookkeeping growth on the
//! full churn path. A counting `#[global_allocator]` makes the contract a
//! hard test instead of a code-review promise — clippy can lint explicit
//! `Vec::new` calls, but only the allocator sees what the optimizer
//! actually emits.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use std::sync::Arc;

use mqpi_sim::job::SyntheticJob;
use mqpi_sim::system::{StepMode, System, SystemConfig};
use mqpi_sim::{AdmissionPolicy, FaultEvent, FaultKind, FaultPlan, RetryPolicy};

/// Counts the allocations of the calling thread. Frees are not counted:
/// the contract under test is "no new memory", not "no memory traffic".
/// The count is per thread because the test harness runs this file's
/// tests on parallel threads, and one test's warm-up must not show up in
/// the other's measured window.
struct CountingAlloc;

thread_local! {
    // `const` initialisation and no destructor: reading this from inside
    // the allocator neither allocates nor registers a thread-exit hook.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the thread that asks.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Steady-state quantum stepping — a resident population being granted
/// work and monitored, nobody arriving or finishing — must allocate
/// nothing at all.
#[test]
fn warm_quantum_steps_allocate_nothing() {
    let n = 512;
    let mut sys = System::new(SystemConfig {
        rate: 1e6,
        quantum_units: n as f64,
        admission: AdmissionPolicy::Unlimited,
        step_mode: StepMode::Quantum,
        ..Default::default()
    });
    let name: Arc<str> = "alloc".into();
    for _ in 0..n {
        sys.submit(
            Arc::clone(&name),
            Box::new(SyntheticJob::new(u64::MAX / 2)),
            1.0,
        );
    }
    // Warm up: first steps may still grow scratch buffers to capacity.
    for _ in 0..32 {
        assert_eq!(sys.step_discard().unwrap(), 0);
    }
    let before = allocs();
    for _ in 0..1_000 {
        assert_eq!(sys.step_discard().unwrap(), 0);
    }
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "steady-state step_discard allocated {during} times over 1000 steps"
    );
}

/// The full churn path (arrivals admitted, queries finishing, records
/// appended) may grow long-lived containers, but only amortized: over a
/// long window the allocation count must stay far below one per step —
/// doubling growth of the finished log and scratch buffers, nothing
/// per-event. The pre-refactor core allocated several times per step here
/// (boxed sessions, per-id map entries, per-step result vectors).
#[test]
fn churn_steps_allocate_only_amortized_growth() {
    let n = 20_000usize;
    let rate = 1e5;
    let spacing = 950.0 / rate * 1.05;
    let mut sys = System::new(SystemConfig {
        rate,
        quantum_units: 16.0,
        admission: AdmissionPolicy::MaxConcurrent(256),
        step_mode: StepMode::EventDriven,
        ..Default::default()
    });
    let name: Arc<str> = "alloc".into();
    for i in 0..n {
        sys.schedule(
            i as f64 * spacing,
            Arc::clone(&name),
            Box::new(SyntheticJob::new(500 + (i as u64).wrapping_mul(37) % 900)),
            1.0,
        );
    }
    // Warm up through the first chunk of arrivals and completions.
    for _ in 0..2_000 {
        sys.step_discard().unwrap();
    }
    let before = allocs();
    let mut steps = 0u64;
    while sys.has_work() && steps < 20_000 {
        sys.step_discard().unwrap();
        steps += 1;
    }
    let during = allocs() - before;
    assert!(steps >= 10_000, "workload too small to measure ({steps})");
    // Amortized growth of the finished log (one Vec doubling costs one
    // realloc) stays under a handful of allocations per thousand steps.
    assert!(
        during < steps / 100,
        "churn allocated {during} times over {steps} steps — dispatch is not allocation-free"
    );
}

/// A full house of 256 (the `sim_churn` regime): a burst far deeper than
/// the slots, so every step that finishes someone admits a successor into
/// the running set and compacts it. Only amortized growth of the finished
/// log may allocate.
#[test]
fn full_house_churn_allocates_only_amortized_growth() {
    let mut sys = System::new(SystemConfig {
        rate: 1e4,
        admission: AdmissionPolicy::MaxConcurrent(256),
        step_mode: StepMode::EventDriven,
        ..Default::default()
    });
    let name: Arc<str> = "alloc".into();
    for i in 0..24_000u64 {
        let job = Box::new(SyntheticJob::new(50 + i.wrapping_mul(37) % 101));
        sys.schedule(0.0, Arc::clone(&name), job, 1.0);
    }
    for _ in 0..1_000 {
        sys.step_discard().unwrap();
    }
    let before = allocs();
    let mut finished = 0;
    for _ in 0..5_000 {
        finished += sys.step_discard().unwrap();
        assert_eq!(sys.running_ids().len(), 256, "the house must stay full");
    }
    let during = allocs() - before - 5_000; // `running_ids` allocates once a call
    assert!(finished > 1_000, "too little churn to measure ({finished})");
    assert!(
        during < 50,
        "full-house churn allocated {during} times over 5000 steps"
    );
}

/// Cost noise every few steps: picking the victim must not collect the
/// eligible sessions into a fresh `Vec` per fault; only the fault log grows.
#[test]
fn cost_noise_steps_allocate_only_amortized_growth() {
    let mut sys = System::new(SystemConfig {
        rate: 1e6,
        quantum_units: 512.0,
        ..Default::default()
    });
    let name: Arc<str> = "alloc".into();
    for _ in 0..64 {
        let job = Box::new(SyntheticJob::new(u64::MAX / 2));
        sys.submit(Arc::clone(&name), job, 1.0);
    }
    let noise = |i: usize| FaultEvent {
        at: 0.01 + 0.002 * i as f64,
        kind: FaultKind::CostNoise { factor: 1.01 },
    };
    sys.install_faults(FaultPlan::new(
        (0..2_000).map(noise).collect(),
        5,
        RetryPolicy::none(),
    ));
    for _ in 0..100 {
        sys.step_discard().unwrap();
    }
    let before = allocs();
    for _ in 0..6_000 {
        sys.step_discard().unwrap();
    }
    let during = allocs() - before;
    let applied = sys.fault_stats().unwrap().cost_noise;
    assert!(applied > 1_000, "too few faults to measure ({applied})");
    assert!(
        during < 50,
        "{applied} cost-noise faults allocated {during} times"
    );
}

/// The tag path at a full house of 16 with a deep queue, two sessions
/// blocked throughout: the monitor log is trimmed every 128 steps (each
/// trim replays the blocked sessions' lanes) and the holes finishers leave
/// are squeezed out every 64 departures. Once warm, nothing allocates. The
/// finished log and its index by id still double as they fill, so the
/// warm-up runs past 4 096 records (the log then has room for 8 192) and
/// on to the step that next allocates, where the index doubles past the
/// ids finished so far; the window ends before either fills again.
#[test]
fn tag_path_trims_and_squeezes_allocate_nothing() {
    let mut sys = System::new(SystemConfig {
        rate: 1e4,
        admission: AdmissionPolicy::MaxConcurrent(16),
        step_mode: StepMode::EventDriven,
        ..Default::default()
    });
    let name: Arc<str> = "alloc".into();
    for i in 0..10_000u64 {
        let job = Box::new(SyntheticJob::new(20 + i.wrapping_mul(37) % 200));
        sys.schedule(0.0, Arc::clone(&name), job, 1.0);
    }
    sys.step_discard().unwrap();
    for id in sys.running_ids().into_iter().take(2) {
        sys.block(id).unwrap();
    }
    while sys.finished().len() <= 4_096 {
        sys.step_discard().unwrap();
    }
    loop {
        let before = allocs();
        sys.step_discard().unwrap();
        if allocs() > before {
            break;
        }
    }
    let before = allocs();
    let mut steps = 0u64;
    while sys.finished().len() < 8_000 {
        sys.step_discard().unwrap();
        steps += 1;
    }
    let during = allocs() - before;
    assert!(
        steps >= 5 * 128,
        "too few steps for several trims ({steps})"
    );
    assert_eq!(
        during, 0,
        "tag-path churn allocated {during} times over {steps} steps"
    );
}
