//! Pins the service's warm-path allocation contract: once a
//! [`PiService`] reaches its steady state — a stable resident population
//! with queries arriving, completing, and being pushed to subscribers —
//! one `submit + advance + pump` cycle performs **zero** heap
//! allocations. Treap nodes come from an intrusive free list,
//! subscription slots are reclaimed through doubly-linked chains, scratch
//! vectors are drained with `append` (capacity retained), and the id maps
//! never grow past their high-water mark. A counting
//! `#[global_allocator]` turns that from a code-review promise into a
//! hard test. The same allocator keeps a high-water mark of live bytes,
//! which pins what a recovery holds at once.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use mqpi_ckpt::{decode_container, encode_container, CkptError};
use mqpi_obs::Obs;
use mqpi_pi::{EstimatePush, PiConfig, PiService, CKPT_KIND_SERVICE};

/// Counts the allocations of the calling thread, remembers its largest
/// single request, and tracks the bytes it holds live and their high-water
/// mark. Frees are not counted as allocations: the contract under test is
/// "no new memory", not "no memory traffic". All of it is per thread
/// because the test harness runs this file's tests on parallel threads,
/// and one test's work must not show up in another's measured window. (A
/// block freed on another thread than the one that allocated it moves both
/// threads' live bytes; no measured window here hands memory across.)
struct CountingAlloc;

thread_local! {
    // `const` initialisation and no destructor: reading these from inside
    // the allocator neither allocates nor registers a thread-exit hook.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count_one(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

/// Move the thread's live bytes by `delta` and raise the high-water mark.
fn hold(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        hold(layout.size() as i64);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        hold(new_size as i64 - layout.size() as i64);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the thread that asks.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Run `f` and return its result with the most bytes the calling thread
/// held at once while it ran, above what it held before.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let out = f();
    let peak = PEAK.with(Cell::get) - before;
    (out, usize::try_from(peak).unwrap_or(0))
}

/// Steady-state churn — one arrival and roughly one completion per tick,
/// every subscriber pushed or suppressed — allocates nothing once warm.
#[test]
fn warm_submit_advance_pump_cycle_allocates_nothing() {
    const POP: usize = 256;
    const COST: f64 = 100.0;
    const RATE: f64 = 100.0;
    let mut svc = PiService::with_capacity(
        PiConfig {
            rate: RATE,
            epsilon: 0.5,
            slots: None,
            ..PiConfig::default()
        },
        4 * POP,
    );
    let sid = svc.register_session();
    let mut out = Vec::with_capacity(4 * POP);

    // Build the resident population, then run enough churn cycles for
    // every internal container to reach its high-water capacity.
    for _ in 0..POP {
        svc.submit(sid, COST, 1.0);
    }
    for _ in 0..2 * POP {
        svc.submit(sid, COST, 1.0);
        svc.advance(COST / RATE);
        out.clear();
        svc.pump(&mut out);
    }
    assert!(
        svc.live_queries() >= POP / 2,
        "population collapsed during warmup: {}",
        svc.live_queries()
    );

    let before = allocs();
    for _ in 0..1_000 {
        svc.submit(sid, COST, 1.0);
        svc.advance(COST / RATE);
        out.clear();
        svc.pump(&mut out);
    }
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "steady-state submit+advance+pump allocated {during} times over 1000 cycles"
    );
    assert!(
        svc.stats().pushes > 0,
        "warm path must still push estimates"
    );
}

/// Pure delta updates against a resident population — re-weights, cost
/// refinements, rate changes, advances, pumps — allocate nothing.
#[test]
fn warm_delta_updates_allocate_nothing() {
    let mut svc = PiService::with_capacity(
        PiConfig {
            rate: 50.0,
            epsilon: 0.01,
            slots: None,
            ..PiConfig::default()
        },
        1024,
    );
    let sid = svc.register_session();
    let ids: Vec<u64> = (0..512)
        .map(|i| svc.submit(sid, 1e7 + i as f64, 1.0))
        .collect();
    let mut out = Vec::with_capacity(1024);
    for i in 0..64usize {
        svc.reweight(ids[i % ids.len()], 1.0 + (i % 4) as f64);
        out.clear();
        svc.pump(&mut out);
    }

    let before = allocs();
    for i in 0..1_000usize {
        let id = ids[(i * 37) % ids.len()];
        match i % 4 {
            0 => {
                svc.reweight(id, 1.0 + (i % 7) as f64);
            }
            1 => {
                svc.refine_cost(id, 1e7 + (i % 1000) as f64);
            }
            2 => svc.set_rate(40.0 + (i % 20) as f64),
            _ => svc.advance(0.001),
        }
        out.clear();
        svc.pump(&mut out);
    }
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "warm delta-apply + push allocated {during} times over 1000 ops"
    );
}

/// An idle resident population — `advance` + `pump` only, long enough for
/// every subscription to come due and be pushed again several times —
/// allocates nothing, and neither does closing a session and subscribing
/// a new one onto the slots it freed: the pump's due-key column grows
/// only when the subscription table does.
#[test]
fn idle_population_and_reused_subscriptions_allocate_nothing() {
    const POP: usize = 512;
    const EPSILON: f64 = 0.05;
    let mut svc = PiService::with_capacity(
        PiConfig {
            rate: 100.0,
            epsilon: EPSILON,
            slots: None,
            ..PiConfig::default()
        },
        2 * POP,
    );
    let owner = svc.register_session();
    let ids: Vec<u64> = (0..POP)
        .map(|i| svc.submit(owner, 1e6 + i as f64, 1.0))
        .collect();
    let mut out = Vec::with_capacity(4 * POP);
    // Warm-up: one watcher generation subscribed, pumped and closed, so
    // the slot free list and the session table are at their high-water
    // marks.
    let watcher = svc.register_session();
    for &id in &ids {
        svc.subscribe(watcher, id);
    }
    svc.pump(&mut out);
    svc.close_session(watcher);

    let before = allocs();
    let pushes_before = svc.stats().pushes;
    for _ in 0..4 {
        let watcher = svc.register_session();
        for &id in &ids {
            svc.subscribe(watcher, id);
        }
        for _ in 0..120 {
            svc.advance(EPSILON / 50.0);
            out.clear();
            svc.pump(&mut out);
        }
        svc.close_session(watcher);
    }
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "idle advance+pump with reused subscription slots allocated {during} times"
    );
    // Each round: every watcher subscription pushed at once, then both
    // populations twice more as 120 × ε/50 crosses epsilon twice.
    assert!(
        svc.stats().pushes - pushes_before >= 4 * 3 * POP as u64,
        "the idle population must still be pushed: {:?}",
        svc.stats()
    );
}

/// A population pushed at one instant comes due again all at once, and
/// the pump then reads every estimate from one walk of the tree
/// (DESIGN.md §13, "Due waves"). The walk's column and the node-handle
/// column are sized where the node columns are — `with_capacity` and
/// `restore` — so neither a service's very first pump nor a restored
/// service's, both all-due, allocates, and no wave after them does.
#[test]
fn swept_pumps_allocate_nothing() {
    const POP: usize = 1_024;
    const EPSILON: f64 = 0.05;
    let build = || {
        let mut svc = PiService::with_capacity(
            PiConfig {
                rate: 100.0,
                epsilon: EPSILON,
                slots: None,
                ..PiConfig::default()
            },
            POP,
        );
        let sid = svc.register_session();
        for i in 0..POP {
            svc.submit(sid, 1e6 + 90.0 * i as f64, 1.0 + (i % 4) as f64);
        }
        svc
    };
    // Three waves: 35 steps of a tenth of epsilon.
    let waves = |svc: &mut PiService, out: &mut Vec<_>| {
        svc.pump(out);
        for _ in 0..35 {
            svc.advance(EPSILON / 10.0);
            out.clear();
            svc.pump(out);
        }
    };
    let mut out = Vec::with_capacity(POP);

    // The same script with counters on says which pumps swept; the
    // measured services run with the default (disabled) handle.
    let mut counted = build();
    let obs = Obs::enabled();
    counted.set_obs(obs.clone());
    waves(&mut counted, &mut out);
    let sweeps = obs.counter("pi.pump.sweeps");
    assert!(sweeps >= 4, "only {sweeps} swept pumps in three waves");
    assert!(counted.stats().pushes >= 4 * POP as u64);

    let mut svc = build();
    out.clear();
    let before = allocs();
    waves(&mut svc, &mut out);
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "first pump and three waves allocated {during} times"
    );
    assert_eq!(svc.stats(), counted.stats());

    let mut restored = PiService::restore(&svc.checkpoint()).unwrap();
    out.clear();
    let before = allocs();
    waves(&mut restored, &mut out);
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "a restored service's waves allocated {during} times"
    );
}

/// A full estimate set (`estimates()`) allocates its result and the kernel's
/// working vectors, a fixed number of blocks whatever the population: the
/// treap-order scratch and the queue scratch keep their capacity from one
/// call to the next, and nothing is allocated per query. Five blocks on a
/// service with a queue and no arrival stream, at 2 000 and at 20 000 live
/// queries; the one-heap kernel with its `HashMap` result made five too.
#[test]
fn repeated_full_estimates_allocate_the_same_at_any_population() {
    let per_call = |live: usize| {
        let mut svc = PiService::with_capacity(
            PiConfig {
                rate: 100.0,
                slots: Some(live),
                ..PiConfig::default()
            },
            live + 32,
        );
        let sid = svc.register_session();
        for i in 0..live + 32 {
            svc.submit(sid, 1e3 + (i * 7_919 % 10_007) as f64, 1.0 + (i % 4) as f64);
        }
        assert_eq!(svc.estimates().len(), live + 32);
        let before = allocs();
        let set = svc.estimates();
        let during = allocs() - before;
        assert_eq!(set.len(), live + 32);
        during
    };
    let (small, large) = (per_call(2_000), per_call(20_000));
    println!("estimates(): {small} allocations at 2 000 live, {large} at 20 000");
    assert_eq!(small, large, "allocations grow with the population");
    assert!(large <= 5, "{large} allocations per full estimate set");
}

/// The journaled warm path: with a log attached, `submit + advance + pump`
/// frames each record in place in the segment buffer (no per-record
/// `Vec`), seals it once, and a flush writes the buffer out and keeps its
/// capacity — so once the buffer has reached its high-water mark neither
/// the cycles between two flushes nor the flushes themselves allocate.
#[test]
fn journaled_cycle_allocates_nothing_between_and_across_flushes() {
    const POP: usize = 256;
    const COST: f64 = 100.0;
    const RATE: f64 = 100.0;
    const FLUSH_EVERY: u32 = 256;
    let dir = std::env::temp_dir().join(format!("mqpi-pi-alloc-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = PiConfig {
        rate: RATE,
        epsilon: 0.5,
        slots: None,
        wal: Some(mqpi_wal::WalKnobs {
            flush_every_n: FLUSH_EVERY,
            flush_every_vt: 1e18,
            compact_every: 0,
        }),
        ..PiConfig::default()
    };
    let (mut svc, _) = PiService::open_durable(cfg, &dir).unwrap();
    let sid = svc.register_session();
    let mut out = Vec::with_capacity(4 * POP);
    let mut cycle = |svc: &mut PiService| {
        svc.submit(sid, COST, 1.0);
        svc.advance(COST / RATE);
        out.clear();
        svc.pump(&mut out);
    };
    for _ in 0..POP {
        svc.submit(sid, COST, 1.0);
    }
    // Several flushes' worth of churn: every container, the segment
    // buffer included, reaches its high-water capacity.
    for _ in 0..4 * POP {
        cycle(&mut svc);
    }

    // Between flushes: 20 cycles journal 60 records into an empty buffer.
    svc.wal_sync();
    let seq = svc.wal().unwrap().next_seq();
    let before = allocs();
    for _ in 0..20 {
        cycle(&mut svc);
    }
    let during = allocs() - before;
    assert_eq!(svc.wal().unwrap().next_seq() - seq, 60);
    assert_eq!(
        during, 0,
        "20 journaled cycles between flushes allocated {during} times"
    );

    // Across flushes: 3 000 records pass through a 256-record group commit.
    let before = allocs();
    for _ in 0..1_000 {
        cycle(&mut svc);
    }
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "1000 journaled cycles across ~11 flushes allocated {during} times"
    );
    assert!(svc.stats().pushes > 0);
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A count in a checkpoint is trusted only as far as the bytes behind it:
/// a re-sealed payload (the CRC passes) whose subscription table claims 2⁴⁰
/// slots is `Truncated`, and decoding it asks the allocator for nothing
/// larger than the file. A fixed cap of 2²⁰ elements used to be reserved
/// first — 40 MiB for this 506-byte file.
#[test]
fn hostile_count_in_a_checkpoint_reserves_no_more_than_the_file() {
    let clean = PiService::new(PiConfig::default()).checkpoint();
    let mut payload = decode_container(&clean, CKPT_KIND_SERVICE).unwrap();
    // An empty service's payload ends with four counts (subscriptions,
    // their free list, chain heads, pending finals), the sixteen stats
    // counters and two absent caches.
    let at = payload.len() - 2 - 16 * 8 - 4 * 8;
    assert_eq!(payload[at - 8..at + 32], [0; 40], "layout moved");
    payload[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let sealed = encode_container(CKPT_KIND_SERVICE, &payload);

    LARGEST.with(|c| c.set(0));
    let restored = PiService::restore(&sealed);
    let largest = LARGEST.with(Cell::get);
    assert!(matches!(restored, Err(CkptError::Truncated)));
    assert!(
        largest <= sealed.len(),
        "a {}-byte checkpoint made restore request {largest} bytes",
        sealed.len()
    );
}

/// An at-mark recovery streams: it holds the read window, one commit batch
/// and one mark interval besides the service and the pushes it returns, so
/// on a log of about 100 000 records its high-water mark stays below the
/// returned pushes' capacity plus 1 MiB (0.27 MB above it when written).
/// Reading each segment whole and decoding every record into one vector
/// before replaying peaked 5.47 MB above it on this log.
#[test]
fn at_mark_recovery_holds_no_more_than_its_pushes_and_a_mebibyte() {
    const ITERATIONS: u64 = 30_000;
    const MARK_EVERY: u64 = 1_024;
    let dir = std::env::temp_dir().join(format!("mqpi-pi-alloc-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = PiConfig {
        rate: 100.0,
        epsilon: 0.02,
        slots: Some(16),
        wal: Some(mqpi_wal::WalKnobs {
            flush_every_n: 4096,
            flush_every_vt: 1e18,
            compact_every: 0,
        }),
        ..PiConfig::default()
    };
    let records = {
        let (mut svc, _) = PiService::open_durable(cfg, &dir).unwrap();
        let sid = svc.register_session();
        let mut out = Vec::new();
        for i in 1..=ITERATIONS {
            svc.submit(sid, 1.0 + (i % 71) as f64 * 0.1, 1.0);
            if i % 3 == 0 {
                svc.reweight(i - 1, 0.5 + (i % 5) as f64);
            }
            svc.advance(0.02 + (i % 7) as f64 * 0.01);
            out.clear();
            svc.pump(&mut out);
            if i % MARK_EVERY == 0 {
                svc.wal_mark(i, 0);
            }
        }
        svc.wal_sync();
        svc.wal().unwrap().records_since_base()
    };
    assert!(records >= 100_000, "only {records} records");

    let ((svc, rec), peak) = peak_during(|| PiService::open_durable_at_mark(cfg, &dir).unwrap());
    let pushes = rec.pushes.capacity() * std::mem::size_of::<EstimatePush>();
    assert_eq!(
        rec.last_mark,
        Some((ITERATIONS / MARK_EVERY * MARK_EVERY, 0))
    );
    assert!(rec.replayed + rec.sealed == records && rec.sealed > 0);
    println!(
        "at-mark recovery of {records} records: peak {peak} B, pushes {pushes} B ({} pushes)",
        rec.pushes.len()
    );
    assert!(
        peak < pushes + (1 << 20),
        "recovering {records} records held {peak} B at once; its pushes take {pushes} B"
    );
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}
