//! Pins the probe path's allocation contract: a warm correlated index
//! probe allocates nothing per match, and two allocations per outer row.
//!
//! The paper's workload is a correlated scalar subquery that index-probes
//! `lineitem` about 30 times per outer row. Every row crosses every
//! operator edge by reference, in a buffer the puller reuses; unread string
//! columns are never materialised; and the subquery's operator tree and rid
//! list are rewound rather than rebuilt. So the number of allocations per
//! outer row does not depend on how many rows the probe matches: the same
//! query makes exactly as many at fan-out 300 as at fan-out 30. A counting
//! `#[global_allocator]` (the one `crates/pi` and `crates/sim` gate with)
//! turns that into a hard test.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use mqpi_engine::{ColumnType, Database, Schema, Value};

/// Counts the allocations of the calling thread. Frees are not counted:
/// the contract under test is "no new memory", not "no memory traffic".
/// The count is per thread because the test harness runs a file's tests on
/// parallel threads.
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

const OUTER_ROWS: i64 = 40;
const WARM_ROWS: u64 = 8;
const MEASURED_ROWS: u64 = 24;

/// `inner(k, v, pad)` indexed on `k`, shaped like `lineitem` (a 60-byte
/// string nothing reads): keys `0..40` match 30 rows each, keys `1000..1040`
/// match 300 each, rows of one key spread over the file. `probe30(k)` and
/// `probe300(k)` hold the two key sets.
fn db() -> Database {
    let mut db = Database::new();
    let inner = Schema::from_pairs(&[
        ("k", ColumnType::Int),
        ("v", ColumnType::Int),
        ("pad", ColumnType::Str),
    ]);
    db.create_table("inner_t", inner.unwrap()).unwrap();
    let pad = "x".repeat(60);
    let mut rows = Vec::new();
    for round in 0..300 {
        for k in 0..OUTER_ROWS {
            if round < 30 {
                rows.push(vec![Value::Int(k), Value::Int(1 + round), Value::str(&pad)]);
            }
            rows.push(vec![
                Value::Int(1000 + k),
                Value::Int(1 + round),
                Value::str(&pad),
            ]);
        }
    }
    db.insert("inner_t", &rows).unwrap();
    db.create_index("inner_t", "k").unwrap();
    db.analyze("inner_t").unwrap();
    for (name, base) in [("probe30", 0), ("probe300", 1000)] {
        let schema = Schema::from_pairs(&[("k", ColumnType::Int)]).unwrap();
        db.create_table(name, schema).unwrap();
        let keys: Vec<Vec<Value>> = (0..OUTER_ROWS)
            .map(|k| vec![Value::Int(base + k)])
            .collect();
        db.insert(name, &keys).unwrap();
        db.analyze(name).unwrap();
    }
    db
}

/// Allocations made by `MEASURED_ROWS` warm outer rows of the correlated
/// probe over `outer`, and the work units they consumed.
fn warm_probe(db: &Database, outer: &str) -> (u64, u64) {
    // No outer row passes (every `v` is positive), so the cursor collects
    // no output while it is measured.
    let sql = format!(
        "select o.k from {outer} o where 0 > \
         (select sum(i.v) from inner_t i where i.k = o.k)"
    );
    let prepared = db.prepare(&sql).unwrap();
    let mut cur = prepared.open().unwrap();
    // A subquery invocation never suspends and costs more than one unit,
    // so an installment of one unit is exactly one outer row.
    for _ in 0..WARM_ROWS {
        cur.run(1).unwrap();
    }
    let (before, units_before) = (allocs(), cur.units_used());
    for _ in 0..MEASURED_ROWS {
        cur.run(1).unwrap();
    }
    let made = allocs() - before;
    assert!(!cur.finished());
    assert!(cur.rows().is_empty());
    (made, cur.units_used() - units_before)
}

/// What the debug-build cross-check allocates over the measured rows: it
/// decodes every probed row a second time, in full, to hold the pruned
/// decode against (`HeapFile::fetch_into`), which is one `Vec` and one
/// `String` per match. Release builds have no such check.
fn cross_check_allocs(fan_out: u64) -> u64 {
    if cfg!(debug_assertions) {
        2 * fan_out * MEASURED_ROWS
    } else {
        0
    }
}

#[test]
fn warm_correlated_probe_allocates_nothing_per_match() {
    let db = db();
    let (allocs30, units30) = warm_probe(&db, "probe30");
    let (allocs300, units300) = warm_probe(&db, "probe300");
    // The two runs really differ tenfold in matches fetched.
    assert!(units30 >= MEASURED_ROWS * 30, "{units30}");
    assert!(units300 >= MEASURED_ROWS * 300, "{units300}");
    let (per_row30, per_row300) = (
        allocs30 - cross_check_allocs(30),
        allocs300 - cross_check_allocs(300),
    );
    assert_eq!(
        per_row30, per_row300,
        "allocations over {MEASURED_ROWS} outer rows depend on the fan-out"
    );
    // What is left is per outer row: the aggregate's accumulators, one
    // `Vec` of states and one of DISTINCT sets. The outer row and the
    // subquery's result row live in buffers reused from row to row. A tree
    // rebuilt per outer row makes over a dozen.
    assert_eq!(
        per_row30,
        2 * MEASURED_ROWS,
        "allocations over {MEASURED_ROWS} outer rows"
    );
}

/// The table the build gates load: `lineitem`'s shape, a 60-byte string
/// nothing indexes, keys in a scattered order.
fn build_schema() -> Schema {
    Schema::from_pairs(&[
        ("k", ColumnType::Int),
        ("q", ColumnType::Int),
        ("price", ColumnType::Float),
        ("comment", ColumnType::Str),
    ])
    .unwrap()
}

fn build_rows(n: i64) -> Vec<Vec<Value>> {
    let comment = "x".repeat(60);
    (0..n)
        .map(|i| {
            vec![
                Value::Int(i * 7919 % 800),
                Value::Int(1 + i % 50),
                Value::Float(1.5 * (i % 97) as f64),
                Value::str(&comment),
            ]
        })
        .collect()
}

/// Times a vector that doubles from empty to `len` has allocated: one per
/// power of two up to `len`.
fn doublings(len: u64) -> u64 {
    u64::from(u64::BITS - len.leading_zeros())
}

/// Inserting rows allocates the pages it fills and nothing per row: each
/// row is encoded into one buffer the heap keeps. The heap's page table
/// grows by doubling, which is the logarithmic term; the rest is a
/// constant (the lower-cased table name, the encode buffer's first
/// growth), the same at 2 000 rows as at 40 000.
#[test]
fn insert_allocates_pages_not_rows() {
    for n in [2_000, 40_000] {
        let rows = build_rows(n);
        let mut db = Database::new();
        db.create_table("t", build_schema()).unwrap();
        let before = allocs();
        db.insert("t", &rows).unwrap();
        let made = allocs() - before;
        let pages = db.table("t").unwrap().heap.page_count();
        assert!(pages > 10, "{pages} pages");
        let bound = pages + doublings(pages) + 8;
        assert!(
            made <= bound,
            "{n} rows, {pages} pages: {made} allocations, bound {bound}"
        );
    }
}

/// `create_index` decodes only the key column and moves the key into its
/// entry, so the 60-byte string of every row is never materialised: it
/// allocates its entry vector, one scan buffer, and the tree's nodes (a
/// leaf's entries; an internal node's keys and children, and internal
/// nodes number fewer than leaves), with the arena and level lists growing
/// by doubling.
#[test]
fn create_index_allocates_nothing_per_row() {
    let rows = build_rows(40_000);
    let mut db = Database::new();
    db.create_table("t", build_schema()).unwrap();
    db.insert("t", &rows).unwrap();
    let before = allocs();
    db.create_index("t", "k").unwrap();
    let made = allocs() - before;
    let table = db.table("t").unwrap();
    let tree = &table.indexes[0].tree;
    assert_eq!(tree.entry_count(), 40_000);
    let leaves = tree.leaf_count();
    let bound = 2 + 3 * leaves + 4 * doublings(2 * leaves) + 8;
    assert!(
        made <= bound,
        "{leaves} leaves: {made} allocations, bound {bound}"
    );
}

/// `analyze_sampled(0.1)` decodes every row but materialises only the
/// sampled tenth: per sampled row its `Vec` and its string. Counting a
/// column's values sorts references to them and clones only min, max and
/// the MCVs; its buffers grow by doubling.
#[test]
fn analyze_allocates_per_sampled_row_not_per_scanned_row() {
    let rows = build_rows(40_000);
    let mut db = Database::new();
    db.create_table("t", build_schema()).unwrap();
    db.insert("t", &rows).unwrap();
    let before = allocs();
    db.analyze_sampled("t", 0.1).unwrap();
    let made = allocs() - before;
    let sampled = 4_000;
    let ncols = 4;
    let per_column = 2 * doublings(sampled) + 16;
    let bound = 2 * sampled + ncols * per_column + 8;
    assert!(
        made <= bound,
        "{sampled} sampled rows: {made} allocations, bound {bound}"
    );
}
