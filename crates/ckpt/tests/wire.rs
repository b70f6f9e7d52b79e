//! The `Wire` trait and its two macros, from outside the crate (so the
//! macros' `$crate` paths are exercised the way every user hits them):
//! the layout they expand to, the typed errors for malformed input, and
//! the reservation rule — a hostile count reserves no more than the bytes
//! that remain, measured with a counting allocator.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use mqpi_ckpt::{wire_enum, wire_struct, CkptError, Enc, Result, Wire};

/// Records the largest single request of the calling thread (per thread:
/// the harness runs this file's tests in parallel).
struct PeakAlloc;

thread_local! {
    // `const` initialisation and no destructor: reading this from inside
    // the allocator neither allocates nor registers a thread-exit hook.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

#[derive(Debug, Clone, PartialEq)]
struct Row {
    id: u64,
    name: Arc<str>,
    started: Option<f64>,
    tags: Vec<u32>,
}
wire_struct!(Row {
    id,
    name,
    started,
    tags
});

#[derive(Debug, Clone, PartialEq)]
enum Shape {
    Dot,
    Line {
        len: f64,
    },
    Rows {
        rows: VecDeque<Row>,
        by_id: BTreeMap<u64, (bool, f64)>,
    },
}
const TAG_ROWS: u8 = 7;
wire_enum!(Shape, "shape" { 0 => Dot, 1 => Line { len }, TAG_ROWS => Rows { rows, by_id } });

fn row(id: u64) -> Row {
    Row {
        id,
        name: format!("q{id}").into(),
        started: id.is_multiple_of(2).then_some(id as f64 / 3.0),
        tags: (0..id as u32).collect(),
    }
}

/// The macros write exactly what the hand-written codecs they replaced
/// wrote: fields in list order, `Option` as a presence byte, sequences
/// behind a `u64` count, one tag byte per variant.
#[test]
fn macros_expand_to_the_documented_layout() {
    let mut want = Enc::new();
    want.put_u64(2);
    want.put_str("q2");
    want.put_bool(true);
    want.put_f64(2.0 / 3.0);
    want.put_usize(2);
    want.put_u32(0);
    want.put_u32(1);
    assert_eq!(row(2).to_bytes(), want.into_bytes());

    assert_eq!(Shape::Dot.to_bytes(), [0]);
    let mut want = Enc::new();
    want.put_u8(1);
    want.put_f64(-0.0);
    assert_eq!(Shape::Line { len: -0.0 }.to_bytes(), want.into_bytes());

    let shape = Shape::Rows {
        rows: (1..4).map(row).collect(),
        by_id: [(9, (true, 0.5)), (3, (false, f64::INFINITY))].into(),
    };
    let bytes = shape.to_bytes();
    assert_eq!(bytes[0], TAG_ROWS);
    assert_eq!(Shape::from_bytes(&bytes, "shape").unwrap(), shape);
}

/// `Vec<u8>` is the blob layout (`put_bytes`), written with one copy.
#[test]
fn byte_sequences_keep_the_blob_layout() {
    let blob: Vec<u8> = (0..=255).collect();
    let mut want = Enc::new();
    want.put_bytes(&blob);
    assert_eq!(blob.to_bytes(), want.into_bytes());
    assert_eq!(
        Vec::<u8>::from_bytes(&blob.to_bytes(), "blob").unwrap(),
        blob
    );
}

#[test]
fn malformed_input_is_a_typed_error() {
    let corrupt = |r: Result<Shape>| matches!(r, Err(CkptError::Corrupt(_)));
    assert!(corrupt(Shape::from_bytes(&[2], "shape")), "unknown tag");
    assert!(corrupt(Shape::from_bytes(&[0, 0], "shape")), "trailing");
    assert!(matches!(
        Shape::from_bytes(&[1, 0, 0], "shape"),
        Err(CkptError::Truncated)
    ));
    assert!(matches!(
        Option::<u8>::from_bytes(&[2, 0], "option"),
        Err(CkptError::Corrupt(_))
    ));
}

/// Sixteen bytes claiming 2⁴⁰ elements: `Truncated`, and no request larger
/// than the eight bytes that follow the count, whatever the element type.
#[test]
fn hostile_count_reserves_at_most_the_bytes_that_remain() {
    let mut e = Enc::new();
    e.put_u64(1 << 40);
    e.put_u64(7);
    let hostile = e.into_bytes();
    assert_eq!(hostile.len(), 16);

    fn largest_request<T: Wire>(bytes: &[u8]) -> usize {
        LARGEST.with(|c| c.set(0));
        let r = T::from_bytes(bytes, "hostile");
        assert!(matches!(r, Err(CkptError::Truncated)));
        LARGEST.with(Cell::get)
    }
    assert!(largest_request::<Vec<u64>>(&hostile) <= 8);
    assert!(largest_request::<VecDeque<(u64, f64)>>(&hostile) <= 8);
    assert!(largest_request::<Vec<Row>>(&hostile) <= 8);
    assert!(largest_request::<BTreeMap<u64, u32>>(&hostile) <= 8);
    assert!(largest_request::<Vec<u8>>(&hostile) <= 8);
    assert!(largest_request::<String>(&hostile) <= 8);
}
