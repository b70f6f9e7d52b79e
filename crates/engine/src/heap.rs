//! Heap files: an append-only sequence of slotted pages.
//!
//! Reads charge the [`WorkMeter`]: a sequential scan charges one unit per
//! page visited; a point fetch by [`Rid`] charges one unit per page touched
//! (this is what makes an unclustered index probe with `k` matches cost
//! roughly `k` units, as in the paper's correlated-subquery workload).

use crate::error::{EngineError, Result};
use crate::meter::WorkMeter;
use crate::page::{Page, SlotId, MAX_TUPLE};
use crate::tuple::{self, ColumnMask, Tuple};
use crate::value::Value;

/// The stride, in bytes, at which [`HeapFile::resolve`] touches a tuple:
/// the cache line of x86-64 and of most ARM cores.
const CACHE_LINE: usize = 64;

/// Record id: (page number, slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rid {
    /// Page number within the heap file.
    pub page: u32,
    /// Slot within the page.
    pub slot: SlotId,
}

/// An append-only heap file of slotted pages.
#[derive(Default)]
pub struct HeapFile {
    pages: Vec<Page>,
    row_count: u64,
    byte_count: u64,
    /// The row being inserted, encoded; kept so inserts reuse one buffer.
    encoded: Vec<u8>,
}

impl HeapFile {
    /// An empty heap file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages.
    pub fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Number of rows.
    pub fn row_count(&self) -> u64 {
        self.row_count
    }

    /// Total encoded tuple bytes (excludes page overhead).
    pub fn byte_count(&self) -> u64 {
        self.byte_count
    }

    /// Whether [`HeapFile::insert`] can store `row`: its encoding must fit
    /// on an empty page. This is the only way an insert fails, so a caller
    /// that checks a whole batch first never leaves it half written.
    pub fn check_fits(row: &[Value]) -> Result<()> {
        let len = tuple::encoded_len(row);
        if len > MAX_TUPLE {
            return Err(EngineError::storage(format!(
                "tuple of {len} bytes is larger than a page holds ({MAX_TUPLE})"
            )));
        }
        Ok(())
    }

    /// Append a row; fills the last page and allocates a new one when full.
    /// The row is encoded into a buffer the heap keeps, so an insert
    /// allocates only the pages it opens. Fails, changing nothing, when
    /// [`HeapFile::check_fits`] does.
    pub fn insert(&mut self, row: &[Value]) -> Result<Rid> {
        Self::check_fits(row)?;
        self.encoded.clear();
        tuple::encode_into(row, &mut self.encoded);
        let bytes = &self.encoded;
        let need_new = match self.pages.last() {
            Some(p) => !p.fits(bytes.len()),
            None => true,
        };
        if need_new {
            self.pages.push(Page::new());
        }
        let page_no = (self.pages.len() - 1) as u32;
        let slot = self
            .pages
            .last_mut()
            .expect("invariant: a page was pushed when none fit")
            .insert(bytes)?;
        self.row_count += 1;
        self.byte_count += bytes.len() as u64;
        Ok(Rid {
            page: page_no,
            slot,
        })
    }

    /// Fetch one row by rid, charging one unit for the page touched.
    pub fn fetch(&self, rid: Rid, meter: &WorkMeter) -> Result<Tuple> {
        let mut row = Tuple::new();
        self.fetch_into(rid, meter, ColumnMask::ALL, &mut row)?;
        Ok(row)
    }

    /// Like [`HeapFile::fetch`], but decodes into an existing buffer and
    /// materialises only the columns `mask` keeps, so an index probe can
    /// reuse one allocation across matches.
    pub fn fetch_into(
        &self,
        rid: Rid,
        meter: &WorkMeter,
        mask: ColumnMask,
        row: &mut Tuple,
    ) -> Result<()> {
        meter.charge(1);
        let bytes = self.tuple_bytes(rid)?;
        tuple::decode_into(bytes, mask, row)?;
        #[cfg(debug_assertions)]
        {
            // The pruned decode is checked against the full one on every
            // probed row of every debug-build test.
            let full = tuple::decode(bytes)?;
            debug_assert_eq!(row.len(), full.len());
            for (i, (got, want)) in row.iter().zip(&full).enumerate() {
                if mask.keeps(i) {
                    debug_assert!(got.total_cmp(want).is_eq(), "column {i} of {rid:?}");
                } else {
                    debug_assert!(got.is_null(), "column {i} of {rid:?} was pruned");
                }
            }
        }
        Ok(())
    }

    fn tuple_bytes(&self, rid: Rid) -> Result<&[u8]> {
        self.pages
            .get(rid.page as usize)
            .ok_or_else(|| EngineError::storage(format!("no page {}", rid.page)))?
            .get(rid.slot)
    }

    /// Load every cache line a fetch of each of `rids` will read, without
    /// charging anything: memory traffic ahead of the charged
    /// [`HeapFile::fetch_into`] calls, not work. A fetch's loads depend on
    /// each other (slot entry, then tuple), so fetches one after another
    /// take their misses one at a time. Here no load of one rid depends on
    /// a load of another, so the misses of many rids are in flight at once
    /// and the decodes that follow hit cache. The first loop loads every
    /// rid's page header and slot entry. The second, which then finds
    /// those in cache, loads one tuple byte every 64 from the first, and
    /// the last, so no line of the tuple is skipped. Bad rids and corrupt
    /// slot entries are skipped; the fetch reports them.
    pub fn resolve(&self, rids: &[Rid]) {
        let mut seen = 0;
        for rid in rids {
            if let Some(page) = self.pages.get(rid.page as usize) {
                seen ^= page.touch_directory(rid.slot);
            }
        }
        for rid in rids {
            if let Ok(bytes) = self.tuple_bytes(*rid) {
                seen = bytes.iter().step_by(CACHE_LINE).fold(seen, |a, b| a ^ b);
                seen ^= bytes.last().copied().unwrap_or(0);
            }
        }
        // Keeps the loads: nothing else reads what they return.
        std::hint::black_box(seen);
    }

    /// Next tuple of a sequential scan whose position is held externally in
    /// `st` (so operators owning an `Arc` of the table can resume without
    /// self-referential borrows), decoded into `row` with only the columns
    /// `mask` keeps. Returns its rid, or `None` at the end of the file.
    /// Charges one unit the first time each page is entered.
    pub fn scan_next(
        &self,
        st: &mut ScanState,
        meter: &WorkMeter,
        mask: ColumnMask,
        row: &mut Tuple,
    ) -> Result<Option<Rid>> {
        loop {
            let Some(page) = self.pages.get(st.page) else {
                return Ok(None);
            };
            if !st.entered_page {
                meter.charge(1);
                st.entered_page = true;
            }
            if st.slot < page.slot_count() {
                let rid = Rid {
                    page: st.page as u32,
                    slot: st.slot,
                };
                tuple::decode_into(page.get(st.slot)?, mask, row)?;
                st.slot += 1;
                return Ok(Some(rid));
            }
            st.page += 1;
            st.slot = 0;
            st.entered_page = false;
        }
    }

    /// Pages not yet entered by the scan at `st` (used for exact progress).
    pub fn pages_remaining(&self, st: &ScanState) -> u64 {
        let total = self.pages.len();
        let consumed = st.page + usize::from(st.entered_page);
        (total - consumed.min(total)) as u64
    }
}

/// Externalized position of a sequential scan.
#[derive(Debug, Clone, Default)]
pub struct ScanState {
    page: usize,
    slot: u16,
    entered_page: bool,
}

impl ScanState {
    /// Position at the start of the file.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: i64) -> Vec<Value> {
        vec![Value::Int(i), Value::str(format!("payload-{i}"))]
    }

    #[test]
    fn insert_fetch_roundtrip() {
        let mut h = HeapFile::new();
        let rids: Vec<Rid> = (0..100).map(|i| h.insert(&row(i)).unwrap()).collect();
        let m = WorkMeter::new();
        for (i, rid) in rids.iter().enumerate() {
            let t = h.fetch(*rid, &m).unwrap();
            assert_eq!(t[0], Value::Int(i as i64));
        }
        assert_eq!(m.used(), 100); // one unit per fetch
        assert_eq!(h.row_count(), 100);
    }

    #[test]
    fn scan_visits_all_rows_in_order_and_charges_per_page() {
        let mut h = HeapFile::new();
        // Large enough payload to force multiple pages.
        for i in 0..2000 {
            h.insert(&[Value::Int(i), Value::str("x".repeat(50))])
                .unwrap();
        }
        assert!(h.page_count() > 1, "expected multi-page heap");
        let m = WorkMeter::new();
        let mut st = ScanState::new();
        let mut seen = 0i64;
        let mut t = Tuple::new();
        while h
            .scan_next(&mut st, &m, ColumnMask::ALL, &mut t)
            .unwrap()
            .is_some()
        {
            assert_eq!(t[0], Value::Int(seen));
            seen += 1;
        }
        assert_eq!(seen, 2000);
        assert_eq!(m.used(), h.page_count());
        assert_eq!(h.pages_remaining(&st), 0);
    }

    #[test]
    fn scan_is_resumable_and_pages_remaining_decreases() {
        let mut h = HeapFile::new();
        for i in 0..1000 {
            h.insert(&[Value::Int(i), Value::str("y".repeat(60))])
                .unwrap();
        }
        let m = WorkMeter::new();
        let mut st = ScanState::new();
        let total_pages = h.page_count();
        assert_eq!(h.pages_remaining(&st), total_pages);
        // Pull half the rows, then the rest.
        let mut row = Tuple::new();
        for _ in 0..500 {
            h.scan_next(&mut st, &m, ColumnMask::ALL, &mut row)
                .unwrap()
                .unwrap();
        }
        assert!(h.pages_remaining(&st) < total_pages);
        let mut rest = 0;
        while h
            .scan_next(&mut st, &m, ColumnMask::ALL, &mut row)
            .unwrap()
            .is_some()
        {
            rest += 1;
        }
        assert_eq!(rest, 500);
    }

    #[test]
    fn fetch_bad_rid_fails() {
        let mut h = HeapFile::new();
        h.insert(&row(1)).unwrap();
        let m = WorkMeter::new();
        assert!(h.fetch(Rid { page: 7, slot: 0 }, &m).is_err());
        assert!(h.fetch(Rid { page: 0, slot: 9 }, &m).is_err());
    }

    #[test]
    fn empty_heap_scan_is_empty() {
        let h = HeapFile::new();
        let m = WorkMeter::new();
        let mut st = ScanState::new();
        let mut row = Tuple::new();
        assert!(h
            .scan_next(&mut st, &m, ColumnMask::ALL, &mut row)
            .unwrap()
            .is_none());
        assert_eq!(m.used(), 0);
    }
}
