//! Slotted pages.
//!
//! An 8 KiB page with the classic slotted layout: a header and a slot
//! directory grow from the front, tuple payloads grow from the back. One
//! page is the unit of work accounting (`1 U`).
//!
//! ```text
//! +--------+--------+-----------------------------+-------------+
//! | nslots | free   | slot dir (off,len) x nslots | ... free ...|
//! +--------+--------+-----------------------------+-------------+
//!                                                  ^ tuples packed
//!                                                    toward the end
//! ```

use crate::error::{EngineError, Result};

/// Page size in bytes (PostgreSQL-style 8 KiB).
pub const PAGE_SIZE: usize = 8192;

const HEADER_SIZE: usize = 4;
const SLOT_SIZE: usize = 4;

/// The largest tuple, in bytes, that fits on an empty page.
pub const MAX_TUPLE: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;

/// Index of a slot within a page.
pub type SlotId = u16;

/// A fixed-size slotted page.
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// An empty page: zero slots, tuple space starts at the page end.
    pub fn new() -> Self {
        let mut data = Box::new([0u8; PAGE_SIZE]);
        // free_ptr = PAGE_SIZE (no tuple bytes used yet).
        data[2..4].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
        Page { data }
    }

    fn nslots(&self) -> usize {
        u16::from_le_bytes([self.data[0], self.data[1]]) as usize
    }

    fn set_nslots(&mut self, n: usize) {
        self.data[0..2].copy_from_slice(&(n as u16).to_le_bytes());
    }

    /// Offset of the lowest tuple byte (tuples occupy `free_ptr..PAGE_SIZE`).
    fn free_ptr(&self) -> usize {
        u16::from_le_bytes([self.data[2], self.data[3]]) as usize
    }

    fn set_free_ptr(&mut self, p: usize) {
        self.data[2..4].copy_from_slice(&(p as u16).to_le_bytes());
    }

    fn slot_entry(&self, slot: usize) -> (usize, usize) {
        let base = HEADER_SIZE + slot * SLOT_SIZE;
        let off = u16::from_le_bytes([self.data[base], self.data[base + 1]]) as usize;
        let len = u16::from_le_bytes([self.data[base + 2], self.data[base + 3]]) as usize;
        (off, len)
    }

    /// Load the header and slot `slot`'s directory entry, the bytes
    /// [`Page::get`] reads first, checking and failing on nothing: the
    /// first phase of [`crate::heap::HeapFile::resolve`]. An entry that
    /// would lie past the page is not read.
    pub(crate) fn touch_directory(&self, slot: SlotId) -> u8 {
        let entry = HEADER_SIZE + slot as usize * SLOT_SIZE;
        self.data[0] ^ self.data.get(entry).copied().unwrap_or(0)
    }

    /// Number of tuples stored.
    pub fn slot_count(&self) -> u16 {
        self.nslots() as u16
    }

    /// Bytes available for one more tuple (accounting for its slot entry).
    pub fn free_space(&self) -> usize {
        let dir_end = HEADER_SIZE + self.nslots() * SLOT_SIZE;
        let free = self.free_ptr().saturating_sub(dir_end);
        free.saturating_sub(SLOT_SIZE)
    }

    /// Whether a tuple of `len` bytes fits. Even a zero-length tuple needs
    /// `SLOT_SIZE` bytes of raw free space for its slot entry.
    pub fn fits(&self, len: usize) -> bool {
        let dir_end = HEADER_SIZE + self.nslots() * SLOT_SIZE;
        let raw_free = self.free_ptr().saturating_sub(dir_end);
        len + SLOT_SIZE <= raw_free
    }

    /// Insert a tuple; returns its slot id, or an error if it does not fit.
    pub fn insert(&mut self, bytes: &[u8]) -> Result<SlotId> {
        if bytes.len() > u16::MAX as usize {
            return Err(EngineError::storage("tuple larger than 64 KiB"));
        }
        if !self.fits(bytes.len()) {
            return Err(EngineError::storage(format!(
                "tuple of {} bytes does not fit (free: {})",
                bytes.len(),
                self.free_space()
            )));
        }
        let n = self.nslots();
        let new_free = self.free_ptr() - bytes.len();
        self.data[new_free..new_free + bytes.len()].copy_from_slice(bytes);
        let base = HEADER_SIZE + n * SLOT_SIZE;
        self.data[base..base + 2].copy_from_slice(&(new_free as u16).to_le_bytes());
        self.data[base + 2..base + 4].copy_from_slice(&(bytes.len() as u16).to_le_bytes());
        self.set_free_ptr(new_free);
        self.set_nslots(n + 1);
        Ok(n as SlotId)
    }

    /// Read a tuple's bytes by slot id. A slot id past the directory, or a
    /// directory entry that points past the page, is a storage error.
    pub fn get(&self, slot: SlotId) -> Result<&[u8]> {
        let n = self.nslots();
        if (slot as usize) >= n {
            return Err(EngineError::storage(format!(
                "slot {slot} out of range (page has {n} slots)"
            )));
        }
        if HEADER_SIZE + n * SLOT_SIZE > PAGE_SIZE {
            return Err(EngineError::storage(format!(
                "slot directory of {n} slots runs past the page"
            )));
        }
        let (off, len) = self.slot_entry(slot as usize);
        self.data.get(off..off + len).ok_or_else(|| {
            EngineError::storage(format!(
                "slot {slot} points past the page (offset {off}, length {len})"
            ))
        })
    }

    /// Iterate over all tuples' bytes in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        (0..self.nslots()).map(move |i| {
            let (off, len) = self.slot_entry(i);
            &self.data[off..off + len]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_page_has_no_slots_and_max_free() {
        let p = Page::new();
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.free_space(), PAGE_SIZE - HEADER_SIZE - SLOT_SIZE);
    }

    #[test]
    fn insert_and_get_roundtrip() {
        let mut p = Page::new();
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.get(a).unwrap(), b"hello");
        assert_eq!(p.get(b).unwrap(), b"world!");
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn get_out_of_range_fails() {
        let mut p = Page::new();
        p.insert(b"x").unwrap();
        assert!(p.get(1).is_err());
    }

    #[test]
    fn get_reports_a_corrupt_slot_entry_instead_of_panicking() {
        let mut p = Page::new();
        let slot = p.insert(b"hello").unwrap();
        // Length pushed past the page end.
        p.data[HEADER_SIZE + 2..HEADER_SIZE + 4].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(p.get(slot).is_err());
        // Offset past the page end.
        p.data[HEADER_SIZE..HEADER_SIZE + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        p.data[HEADER_SIZE + 2..HEADER_SIZE + 4].copy_from_slice(&5u16.to_le_bytes());
        assert!(p.get(slot).is_err());
        // A slot count whose directory would not fit in the page.
        p.data[0..2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(p.get(4000).is_err());
    }

    #[test]
    fn fills_up_and_rejects_when_full() {
        let mut p = Page::new();
        let tuple = [0u8; 100];
        let mut inserted = 0usize;
        while p.fits(tuple.len()) {
            p.insert(&tuple).unwrap();
            inserted += 1;
        }
        assert!(p.insert(&tuple).is_err());
        // 104 bytes per tuple (incl. slot): ~78 tuples in 8 KiB.
        assert_eq!(inserted, (PAGE_SIZE - HEADER_SIZE) / (100 + SLOT_SIZE));
        // All still readable.
        for bytes in p.iter() {
            assert_eq!(bytes, &tuple);
        }
    }

    #[test]
    fn iter_preserves_insert_order() {
        let mut p = Page::new();
        for i in 0..10u8 {
            p.insert(&[i; 3]).unwrap();
        }
        let collected: Vec<Vec<u8>> = p.iter().map(|b| b.to_vec()).collect();
        for (i, t) in collected.iter().enumerate() {
            assert_eq!(t, &vec![i as u8; 3]);
        }
    }

    #[test]
    fn oversized_tuple_rejected() {
        let mut p = Page::new();
        assert!(p.insert(&vec![0u8; PAGE_SIZE]).is_err());
    }
}
