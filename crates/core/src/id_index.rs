//! Position index from query id to an entry of an `(id, value)` list in
//! prediction order, shared by [`crate::fluid::FluidPrediction`] and
//! [`crate::estimate::EstimateSet`]: one index per set, no hashing.

/// Query ids from the simulator and the service are sequential, so the
/// common case is a dense offset table — one bounds check and one `Vec`
/// load per lookup. Arbitrary (sparse) id sets fall back to a sorted slice
/// with binary search rather than paying O(id range) memory. Either way a
/// duplicate id resolves to its *last* entry, as a map filled in order
/// would.
#[derive(Debug, Clone)]
pub(crate) enum IdIndex {
    /// `pos[id - base]` is `position + 1`; `0` marks an absent id. `ids`
    /// counts the distinct ids.
    Dense {
        base: u64,
        pos: Vec<u32>,
        ids: usize,
    },
    /// `(id, position)` sorted by id, one entry per id.
    Sorted(Vec<(u64, u32)>),
}

impl Default for IdIndex {
    fn default() -> Self {
        IdIndex::Dense {
            base: 0,
            pos: Vec::new(),
            ids: 0,
        }
    }
}

impl IdIndex {
    pub(crate) fn build(entries: &[(u64, f64)]) -> Self {
        let n = entries.len();
        if n == 0 {
            return IdIndex::default();
        }
        let (mut min, mut max) = (u64::MAX, u64::MIN);
        for &(id, _) in entries {
            min = min.min(id);
            max = max.max(id);
        }
        // `max - min + 1` overflows when the ids span the whole u64 line
        // (e.g. a snapshot holding both id 0 and id u64::MAX); an overflowed
        // range used to alias distinct ids onto the same dense slot, so a
        // lookup for a query finished before the snapshot could return a
        // stale live entry. Checked arithmetic routes any such span to the
        // sorted fallback, which never aliases.
        let range = max.checked_sub(min).and_then(|r| r.checked_add(1));
        // Dense only when the table stays linear in n (ids are sequential
        // up to small gaps); 4x slack plus a constant floor for tiny sets.
        match range {
            Some(range) if range <= (n as u64).saturating_mul(4).max(64) => {
                let mut pos = vec![0u32; range as usize];
                let mut ids = 0;
                for (p, (id, _)) in entries.iter().enumerate() {
                    let slot = &mut pos[(id - min) as usize];
                    ids += usize::from(*slot == 0);
                    *slot = p as u32 + 1;
                }
                IdIndex::Dense {
                    base: min,
                    pos,
                    ids,
                }
            }
            _ => {
                let mut pairs: Vec<(u64, u32)> = entries
                    .iter()
                    .enumerate()
                    .map(|(p, (id, _))| (*id, p as u32))
                    .collect();
                pairs.sort_unstable();
                // Within one id the positions ascend: keep the last.
                pairs.dedup_by(|later, kept| {
                    let same = later.0 == kept.0;
                    if same {
                        kept.1 = later.1;
                    }
                    same
                });
                IdIndex::Sorted(pairs)
            }
        }
    }

    /// Number of distinct ids.
    pub(crate) fn ids(&self) -> usize {
        match self {
            IdIndex::Dense { ids, .. } => *ids,
            IdIndex::Sorted(pairs) => pairs.len(),
        }
    }

    /// Position of `id`'s last entry.
    pub(crate) fn get(&self, id: u64) -> Option<usize> {
        match self {
            IdIndex::Dense { base, pos, .. } => {
                let off = id.checked_sub(*base)?;
                match pos.get(off as usize) {
                    Some(&p) if p != 0 => Some(p as usize - 1),
                    _ => None,
                }
            }
            IdIndex::Sorted(pairs) => pairs
                .binary_search_by_key(&id, |&(id, _)| id)
                .ok()
                .map(|i| pairs[i].1 as usize),
        }
    }
}
