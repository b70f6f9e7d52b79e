//! The `Value`-keyed B+-tree the engine indexed with before its keys became
//! `i64`, kept as a differential oracle for `mqpi_engine::btree`.
//!
//! A leaf is a `Vec<(Value, Rid)>` and an internal node a `Vec<Value>` of
//! separators, with the same capacities, splits, bulk fill and routing
//! (equal keys go left) as the `i64` tree, and every comparison is
//! `Value::total_cmp`, with a `-0.0` probe read as `0.0` (the one change
//! the `i64` tree's `cmp_key` makes to that order). Fed the same non-NULL
//! `Int` keys, the two trees have the same nodes, so every lookup and range
//! scan must hand out the same rids in the same order and charge the same
//! units.

use std::cmp::Ordering;

use mqpi_engine::heap::Rid;
use mqpi_engine::meter::WorkMeter;
use mqpi_engine::value::Value;

type NodeId = usize;

enum Node {
    Leaf {
        entries: Vec<(Value, Rid)>,
        next: Option<NodeId>,
    },
    Internal {
        keys: Vec<Value>,
        children: Vec<NodeId>,
    },
}

pub struct ValueBTree {
    nodes: Vec<Node>,
    root: NodeId,
    leaf_cap: usize,
    internal_cap: usize,
}

impl ValueBTree {
    pub fn with_caps(leaf_cap: usize, internal_cap: usize) -> Self {
        ValueBTree {
            nodes: vec![Node::Leaf {
                entries: Vec::new(),
                next: None,
            }],
            root: 0,
            leaf_cap,
            internal_cap,
        }
    }

    /// Bulk-load from entries sorted by key then rid.
    pub fn bulk_load(entries: &[(Value, Rid)], leaf_cap: usize, internal_cap: usize) -> Self {
        assert!(entries.windows(2).all(|w| cmp_entry(&w[0], &w[1]).is_le()));
        let mut tree = Self::with_caps(leaf_cap, internal_cap);
        if entries.is_empty() {
            return tree;
        }
        tree.nodes.clear();
        let per_leaf = (leaf_cap * 2 / 3).max(1);
        let mut level: Vec<(NodeId, Value)> = Vec::new();
        let mut prev_leaf: Option<NodeId> = None;
        for chunk in entries.chunks(per_leaf) {
            let id = tree.nodes.len();
            tree.nodes.push(Node::Leaf {
                entries: chunk.to_vec(),
                next: None,
            });
            if let Some(prev) = prev_leaf {
                if let Node::Leaf { next, .. } = &mut tree.nodes[prev] {
                    *next = Some(id);
                }
            }
            prev_leaf = Some(id);
            level.push((id, chunk[0].0.clone()));
        }
        while level.len() > 1 {
            let per_node = (internal_cap * 2 / 3).max(2);
            let mut next_level = Vec::new();
            let mut i = 0;
            while i < level.len() {
                let end = (i + per_node).min(level.len());
                let end = if level.len() - end == 1 { end + 1 } else { end };
                let group = &level[i..end];
                let keys = group[1..].iter().map(|(_, k)| k.clone()).collect();
                let children = group.iter().map(|(id, _)| *id).collect();
                let id = tree.nodes.len();
                tree.nodes.push(Node::Internal { keys, children });
                next_level.push((id, group[0].1.clone()));
                i = end;
            }
            level = next_level;
        }
        tree.root = level[0].0;
        tree
    }

    pub fn insert(&mut self, key: Value, rid: Rid) {
        if let Some((sep, right)) = self.insert_rec(self.root, &key, rid) {
            let new_root = self.nodes.len();
            self.nodes.push(Node::Internal {
                keys: vec![sep],
                children: vec![self.root, right],
            });
            self.root = new_root;
        }
    }

    fn insert_rec(&mut self, node: NodeId, key: &Value, rid: Rid) -> Option<(Value, NodeId)> {
        match &mut self.nodes[node] {
            Node::Leaf { entries, .. } => {
                let probe = (key.clone(), rid);
                let pos = entries
                    .binary_search_by(|e| cmp_entry(e, &probe))
                    .unwrap_or_else(|p| p);
                entries.insert(pos, probe);
                (entries.len() > self.leaf_cap).then(|| self.split_leaf(node))
            }
            Node::Internal { keys, children } => {
                let child_idx = child_index(keys, key);
                let child = children[child_idx];
                let (sep, right) = self.insert_rec(child, key, rid)?;
                let Node::Internal { keys, children } = &mut self.nodes[node] else {
                    unreachable!()
                };
                keys.insert(child_idx, sep);
                children.insert(child_idx + 1, right);
                (children.len() > self.internal_cap).then(|| self.split_internal(node))
            }
        }
    }

    fn split_leaf(&mut self, node: NodeId) -> (Value, NodeId) {
        let new_id = self.nodes.len();
        let Node::Leaf { entries, next } = &mut self.nodes[node] else {
            unreachable!()
        };
        let right_entries = entries.split_off(entries.len() / 2);
        let sep = right_entries[0].0.clone();
        let right = Node::Leaf {
            entries: right_entries,
            next: *next,
        };
        *next = Some(new_id);
        self.nodes.push(right);
        (sep, new_id)
    }

    fn split_internal(&mut self, node: NodeId) -> (Value, NodeId) {
        let new_id = self.nodes.len();
        let Node::Internal { keys, children } = &mut self.nodes[node] else {
            unreachable!()
        };
        let mid = children.len() / 2;
        let right_children = children.split_off(mid);
        let right_keys = keys.split_off(mid);
        let sep = keys.pop().unwrap();
        self.nodes.push(Node::Internal {
            keys: right_keys,
            children: right_children,
        });
        (sep, new_id)
    }

    fn descend(&self, key: &Value, meter: &WorkMeter) -> NodeId {
        let mut node = self.root;
        loop {
            meter.charge(1);
            match &self.nodes[node] {
                Node::Leaf { .. } => return node,
                Node::Internal { keys, children } => node = children[child_index(keys, key)],
            }
        }
    }

    pub fn lookup_into(&self, key: &Value, meter: &WorkMeter, out: &mut Vec<Rid>) {
        let key = &unsigned_zero(key);
        out.clear();
        let mut leaf = Some(self.descend(key, meter));
        let mut first = true;
        while let Some(l) = leaf {
            let Node::Leaf { entries, next } = &self.nodes[l] else {
                unreachable!()
            };
            if !first {
                meter.charge(1);
            }
            first = false;
            let mut i = entries.partition_point(|(k, _)| k.total_cmp(key) == Ordering::Less);
            while i < entries.len() && entries[i].0.total_cmp(key) == Ordering::Equal {
                out.push(entries[i].1);
                i += 1;
            }
            if i == entries.len() {
                leaf = *next;
            } else {
                break;
            }
        }
    }

    pub fn range_start(&self, lo: Option<&Value>, hi: Option<&Value>, meter: &WorkMeter) -> Range {
        let lo = lo.map(unsigned_zero);
        let (lo, hi) = (lo.as_ref(), hi.map(unsigned_zero));
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
        Range {
            leaf: Some(leaf),
            pos,
            hi,
        }
    }

    pub fn range_next_leaf(&self, st: &mut Range, meter: &WorkMeter) -> &[(Value, Rid)] {
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

pub struct Range {
    leaf: Option<NodeId>,
    pos: usize,
    hi: Option<Value>,
}

/// `probe`, with `-0.0` read as `0.0`.
fn unsigned_zero(probe: &Value) -> Value {
    match probe {
        Value::Float(p) if *p == 0.0 => Value::Float(0.0),
        v => v.clone(),
    }
}

pub fn cmp_entry(a: &(Value, Rid), b: &(Value, Rid)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

fn child_index(keys: &[Value], key: &Value) -> usize {
    keys.partition_point(|k| k.total_cmp(key) == Ordering::Less)
}
