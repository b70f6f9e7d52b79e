//! A paged B+-tree index.
//!
//! Nodes live in an arena and stand in for index pages: every node visited
//! during a lookup or range scan charges one work unit, so an index probe
//! costs `height + leaves_touched` units plus the heap fetches for matches —
//! the same cost shape as PostgreSQL's unclustered index scan in the paper's
//! workload.
//!
//! Duplicate keys are supported (entries are `(key, rid)` pairs ordered by
//! key then rid). The tree supports bulk loading from sorted input and
//! incremental inserts with node splits.

use crate::error::{EngineError, Result};
use crate::heap::Rid;
use crate::meter::WorkMeter;
use crate::value::Value;
use std::cmp::Ordering;

/// Default number of entries per leaf node (≈ 8 KiB / 32 B per entry).
pub const DEFAULT_LEAF_CAP: usize = 256;
/// Default number of children per internal node.
pub const DEFAULT_INTERNAL_CAP: usize = 256;

type NodeId = usize;

#[derive(Debug)]
enum Node {
    Leaf {
        /// `(key, rid)` entries sorted by key then rid.
        entries: Vec<(Value, Rid)>,
        /// Right sibling for range scans.
        next: Option<NodeId>,
    },
    Internal {
        /// Separator keys; `children[i]` holds keys `< keys[i]`,
        /// `children[len]` holds the rest. Separators equal the first key of
        /// the right child's subtree.
        keys: Vec<Value>,
        children: Vec<NodeId>,
    },
}

/// A B+-tree mapping [`Value`] keys to record ids, with duplicates.
pub struct BTreeIndex {
    nodes: Vec<Node>,
    root: NodeId,
    height: u32,
    entry_count: u64,
    leaf_cap: usize,
    internal_cap: usize,
}

impl BTreeIndex {
    /// An empty tree with default node capacities.
    pub fn new() -> Self {
        Self::with_caps(DEFAULT_LEAF_CAP, DEFAULT_INTERNAL_CAP)
    }

    /// An empty tree with explicit node capacities (small capacities force
    /// deep trees — useful in tests).
    pub fn with_caps(leaf_cap: usize, internal_cap: usize) -> Self {
        assert!(leaf_cap >= 2 && internal_cap >= 3, "degenerate node caps");
        BTreeIndex {
            nodes: vec![Node::Leaf {
                entries: Vec::new(),
                next: None,
            }],
            root: 0,
            height: 1,
            entry_count: 0,
            leaf_cap,
            internal_cap,
        }
    }

    /// Bulk-load from entries sorted by key (then rid). Errors if unsorted.
    pub fn bulk_load(
        entries: Vec<(Value, Rid)>,
        leaf_cap: usize,
        internal_cap: usize,
    ) -> Result<Self> {
        for w in entries.windows(2) {
            let ord = cmp_entry(&w[0], &w[1]);
            if ord == Ordering::Greater {
                return Err(EngineError::storage("bulk_load input not sorted"));
            }
        }
        let mut tree = Self::with_caps(leaf_cap, internal_cap);
        tree.nodes.clear();
        tree.entry_count = entries.len() as u64;

        // Build leaf level: fill leaves to ~ 2/3 capacity for realistic fanout.
        let per_leaf = (leaf_cap * 2 / 3).max(1);
        let mut level: Vec<(NodeId, Value)> = Vec::new(); // (node, first key)
        if entries.is_empty() {
            tree.nodes.push(Node::Leaf {
                entries: Vec::new(),
                next: None,
            });
            tree.root = 0;
            tree.height = 1;
            return Ok(tree);
        }
        let mut prev_leaf: Option<NodeId> = None;
        // Chunk via slices: carving with split_off would leave every leaf
        // holding a buffer with the *original* Vec's capacity (a multi-GB
        // retention bug found by memory profiling).
        for chunk in entries.chunks(per_leaf) {
            let chunk = chunk.to_vec();
            let first_key = chunk[0].0.clone();
            let id = tree.nodes.len();
            tree.nodes.push(Node::Leaf {
                entries: chunk,
                next: None,
            });
            if let Some(prev) = prev_leaf {
                if let Node::Leaf { next, .. } = &mut tree.nodes[prev] {
                    *next = Some(id);
                }
            }
            prev_leaf = Some(id);
            level.push((id, first_key));
        }
        let mut height = 1u32;
        // Build internal levels bottom-up.
        while level.len() > 1 {
            let per_node = (internal_cap * 2 / 3).max(2);
            let mut next_level = Vec::new();
            let mut i = 0;
            while i < level.len() {
                let end = (i + per_node).min(level.len());
                // Avoid a final single-child node.
                let end = if level.len() - end == 1 { end + 1 } else { end };
                let group = &level[i..end];
                let keys: Vec<Value> = group[1..].iter().map(|(_, k)| k.clone()).collect();
                let children: Vec<NodeId> = group.iter().map(|(id, _)| *id).collect();
                let first_key = group[0].1.clone();
                let id = tree.nodes.len();
                tree.nodes.push(Node::Internal { keys, children });
                next_level.push((id, first_key));
                i = end;
            }
            level = next_level;
            height += 1;
        }
        tree.root = level[0].0;
        tree.height = height;
        Ok(tree)
    }

    /// Number of `(key, rid)` entries.
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Tree height in node levels (1 = single leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of leaf nodes.
    pub fn leaf_count(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count() as u64
    }

    /// Insert one entry, splitting nodes as needed.
    pub fn insert(&mut self, key: Value, rid: Rid) {
        if let Some((sep, right)) = self.insert_rec(self.root, &key, rid) {
            let new_root = self.nodes.len();
            self.nodes.push(Node::Internal {
                keys: vec![sep],
                children: vec![self.root, right],
            });
            self.root = new_root;
            self.height += 1;
        }
        self.entry_count += 1;
    }

    /// Recursive insert; returns `(separator, new_right_node)` on split.
    fn insert_rec(&mut self, node: NodeId, key: &Value, rid: Rid) -> Option<(Value, NodeId)> {
        match &mut self.nodes[node] {
            Node::Leaf { entries, .. } => {
                let probe = (key.clone(), rid);
                let pos = entries
                    .binary_search_by(|e| cmp_entry(e, &probe))
                    .unwrap_or_else(|p| p);
                entries.insert(pos, probe);
                if entries.len() > self.leaf_cap {
                    Some(self.split_leaf(node))
                } else {
                    None
                }
            }
            Node::Internal { keys, children } => {
                let child_idx = child_index(keys, key);
                let child = children[child_idx];
                let split = self.insert_rec(child, key, rid);
                if let Some((sep, right)) = split {
                    if let Node::Internal { keys, children } = &mut self.nodes[node] {
                        keys.insert(child_idx, sep);
                        children.insert(child_idx + 1, right);
                        if children.len() > self.internal_cap {
                            return Some(self.split_internal(node));
                        }
                    }
                }
                None
            }
        }
    }

    fn split_leaf(&mut self, node: NodeId) -> (Value, NodeId) {
        let new_id = self.nodes.len();
        let (sep, right) = {
            let Node::Leaf { entries, next } = &mut self.nodes[node] else {
                unreachable!()
            };
            let mid = entries.len() / 2;
            let right_entries = entries.split_off(mid);
            let sep = right_entries[0].0.clone();
            let right = Node::Leaf {
                entries: right_entries,
                next: *next,
            };
            *next = Some(new_id);
            (sep, right)
        };
        self.nodes.push(right);
        (sep, new_id)
    }

    fn split_internal(&mut self, node: NodeId) -> (Value, NodeId) {
        let new_id = self.nodes.len();
        let (sep, right) = {
            let Node::Internal { keys, children } = &mut self.nodes[node] else {
                unreachable!()
            };
            let mid = children.len() / 2;
            let right_children = children.split_off(mid);
            let right_keys = keys.split_off(mid);
            let sep = keys.pop().expect("internal split must yield separator");
            (
                sep,
                Node::Internal {
                    keys: right_keys,
                    children: right_children,
                },
            )
        };
        self.nodes.push(right);
        (sep, new_id)
    }

    /// Descend to the leaf that may contain `key`, charging one unit per
    /// node visited. Returns the leaf id and the charged descent length.
    fn descend(&self, key: &Value, meter: &WorkMeter) -> NodeId {
        let mut node = self.root;
        loop {
            meter.charge(1);
            match &self.nodes[node] {
                Node::Leaf { .. } => return node,
                Node::Internal { keys, children } => {
                    node = children[child_index(keys, key)];
                }
            }
        }
    }

    /// All rids with key exactly `key`; charges descent plus every leaf
    /// touched (heap fetches are the caller's responsibility).
    pub fn lookup(&self, key: &Value, meter: &WorkMeter) -> Vec<Rid> {
        let mut out = Vec::new();
        self.lookup_into(key, meter, &mut out);
        out
    }

    /// [`BTreeIndex::lookup`] into a buffer the caller reuses from probe to
    /// probe; `out` is cleared first.
    ///
    /// Because separators route equal keys *left* (see `child_index`),
    /// duplicates of a key may span several leaves; the lookup walks the
    /// sibling chain until it sees an entry greater than `key`.
    pub fn lookup_into(&self, key: &Value, meter: &WorkMeter, out: &mut Vec<Rid>) {
        out.clear();
        let mut leaf = Some(self.descend(key, meter));
        let mut first = true;
        while let Some(l) = leaf {
            let Node::Leaf { entries, next } = &self.nodes[l] else {
                unreachable!()
            };
            if !first {
                meter.charge(1); // following the sibling chain touches a page
            }
            first = false;
            let start = entries.partition_point(|(k, _)| k.total_cmp(key) == Ordering::Less);
            let mut i = start;
            while i < entries.len() && entries[i].0.total_cmp(key) == Ordering::Equal {
                out.push(entries[i].1);
                i += 1;
            }
            if i == entries.len() {
                // Key is ≥ everything seen in this leaf; duplicates (or the
                // key itself) may continue in the right sibling.
                leaf = *next;
            } else {
                break;
            }
        }
    }

    /// Start a range scan over `lo..=hi` (either bound optional); the
    /// returned state is advanced with [`BTreeIndex::range_next_leaf`].
    pub fn range_start(
        &self,
        lo: Option<&Value>,
        hi: Option<&Value>,
        meter: &WorkMeter,
    ) -> RangeState {
        let (leaf, pos) = match lo {
            Some(k) => {
                let leaf = self.descend(k, meter);
                let Node::Leaf { entries, .. } = &self.nodes[leaf] else {
                    unreachable!()
                };
                let pos = entries.partition_point(|(ek, _)| ek.total_cmp(k) == Ordering::Less);
                (leaf, pos)
            }
            None => {
                // Leftmost leaf: descend on the minimal key path.
                let mut node = self.root;
                loop {
                    meter.charge(1);
                    match &self.nodes[node] {
                        Node::Leaf { .. } => break,
                        Node::Internal { children, .. } => node = children[0],
                    }
                }
                (node, 0)
            }
        };
        RangeState {
            leaf: Some(leaf),
            pos,
            hi: hi.cloned(),
        }
    }

    /// The in-range entries left in the leaf a range scan stands in; the
    /// scan moves to the next leaf first, charging one unit, when this one
    /// is used up. Empty once the range is exhausted. Handing out a leaf's
    /// worth at a time lets the caller resolve the heap pages of all its
    /// rids together ([`crate::heap::HeapFile::resolve`]).
    pub fn range_next_leaf(&self, st: &mut RangeState, meter: &WorkMeter) -> &[(Value, Rid)] {
        loop {
            let Some(leaf) = st.leaf else {
                return &[];
            };
            let Node::Leaf { entries, next } = &self.nodes[leaf] else {
                unreachable!()
            };
            if st.pos < entries.len() {
                let rest = &entries[st.pos..];
                let n = match &st.hi {
                    Some(hi) => rest.partition_point(|(k, _)| k.total_cmp(hi) != Ordering::Greater),
                    None => rest.len(),
                };
                if n < rest.len() {
                    st.leaf = None;
                } else {
                    st.pos = entries.len();
                }
                return &rest[..n];
            }
            st.leaf = *next;
            st.pos = 0;
            if st.leaf.is_some() {
                meter.charge(1);
            }
        }
    }
}

impl Default for BTreeIndex {
    fn default() -> Self {
        Self::new()
    }
}

/// Externalized position of a range scan.
#[derive(Debug, Clone)]
pub struct RangeState {
    leaf: Option<NodeId>,
    pos: usize,
    hi: Option<Value>,
}

fn cmp_entry(a: &(Value, Rid), b: &(Value, Rid)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Index of the child to follow for `key` given separator `keys`.
///
/// Equal keys route *left*: with duplicates a separator may equal keys that
/// live at the tail of the left subtree, so descent lands on the leftmost
/// candidate leaf and [`BTreeIndex::lookup`] walks right along the sibling
/// chain. Inserts use the same routing, keeping reads and writes consistent.
fn child_index(keys: &[Value], key: &Value) -> usize {
    keys.partition_point(|k| k.total_cmp(key) == Ordering::Less)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The keys a range scan still has to hand out, leaf by leaf.
    fn drain_keys(t: &BTreeIndex, st: &mut RangeState, m: &WorkMeter) -> Vec<i64> {
        let mut got = Vec::new();
        loop {
            let leaf = t.range_next_leaf(st, m);
            if leaf.is_empty() {
                return got;
            }
            got.extend(leaf.iter().map(|(k, _)| k.as_i64().unwrap()));
        }
    }

    fn rid(n: u32) -> Rid {
        Rid {
            page: n,
            slot: (n % 7) as u16,
        }
    }

    #[test]
    fn insert_and_lookup_unique_keys() {
        let mut t = BTreeIndex::with_caps(4, 4);
        for i in 0..1000i64 {
            t.insert(Value::Int(i), rid(i as u32));
        }
        assert_eq!(t.entry_count(), 1000);
        assert!(t.height() > 2, "small caps should force a deep tree");
        let m = WorkMeter::new();
        for i in (0..1000i64).step_by(37) {
            let rids = t.lookup(&Value::Int(i), &m);
            assert_eq!(rids, vec![rid(i as u32)], "key {i}");
        }
        assert_eq!(t.lookup(&Value::Int(5000), &m), vec![]);
    }

    #[test]
    fn duplicates_found_across_leaf_boundaries() {
        let mut t = BTreeIndex::with_caps(4, 4);
        // 50 duplicates of one key, surrounded by other keys.
        for i in 0..20i64 {
            t.insert(Value::Int(i), rid(i as u32));
        }
        for d in 0..50u32 {
            t.insert(Value::Int(100), rid(1000 + d));
        }
        for i in 200..220i64 {
            t.insert(Value::Int(i), rid(i as u32));
        }
        let m = WorkMeter::new();
        let rids = t.lookup(&Value::Int(100), &m);
        assert_eq!(rids.len(), 50);
        // With leaf cap 4, 50 duplicates span ≥ 12 leaves, so the probe must
        // charge well beyond the descent height.
        assert!(
            m.used() >= 12,
            "expected multi-leaf charge, got {}",
            m.used()
        );
    }

    #[test]
    fn bulk_load_matches_incremental_inserts() {
        let keys: Vec<i64> = (0..500).map(|i| (i * 37) % 250).collect();
        let mut sorted: Vec<(Value, Rid)> = keys
            .iter()
            .enumerate()
            .map(|(n, k)| (Value::Int(*k), rid(n as u32)))
            .collect();
        sorted.sort_by(cmp_entry);
        let bulk = BTreeIndex::bulk_load(sorted, 8, 8).unwrap();

        let mut incr = BTreeIndex::with_caps(8, 8);
        for (n, k) in keys.iter().enumerate() {
            incr.insert(Value::Int(*k), rid(n as u32));
        }
        let m = WorkMeter::new();
        for k in 0..250i64 {
            let mut a = bulk.lookup(&Value::Int(k), &m);
            let mut b = incr.lookup(&Value::Int(k), &m);
            a.sort();
            b.sort();
            assert_eq!(a, b, "key {k}");
        }
    }

    #[test]
    fn bulk_load_rejects_unsorted() {
        let entries = vec![(Value::Int(5), rid(0)), (Value::Int(1), rid(1))];
        assert!(BTreeIndex::bulk_load(entries, 8, 8).is_err());
    }

    #[test]
    fn range_scan_inclusive_bounds() {
        let mut t = BTreeIndex::with_caps(4, 4);
        for i in 0..100i64 {
            t.insert(Value::Int(i), rid(i as u32));
        }
        let m = WorkMeter::new();
        let mut st = t.range_start(Some(&Value::Int(10)), Some(&Value::Int(20)), &m);
        let got = drain_keys(&t, &mut st, &m);
        assert_eq!(got, (10..=20).collect::<Vec<_>>());
    }

    #[test]
    fn unbounded_range_scans_everything_in_order() {
        let mut t = BTreeIndex::with_caps(4, 4);
        let mut keys: Vec<i64> = (0..200).map(|i| (i * 73) % 199).collect();
        for k in &keys {
            t.insert(Value::Int(*k), rid(*k as u32));
        }
        keys.sort();
        let m = WorkMeter::new();
        let mut st = t.range_start(None, None, &m);
        let got = drain_keys(&t, &mut st, &m);
        assert_eq!(got, keys);
    }

    #[test]
    fn lookup_charges_at_least_height() {
        let mut t = BTreeIndex::with_caps(4, 4);
        for i in 0..500i64 {
            t.insert(Value::Int(i), rid(i as u32));
        }
        let m = WorkMeter::new();
        t.lookup(&Value::Int(250), &m);
        assert!(m.used() >= t.height() as u64);
    }

    #[test]
    fn empty_tree_lookup_and_range() {
        let t = BTreeIndex::new();
        let m = WorkMeter::new();
        assert!(t.lookup(&Value::Int(1), &m).is_empty());
        let mut st = t.range_start(None, None, &m);
        assert!(t.range_next_leaf(&mut st, &m).is_empty());
    }
}
