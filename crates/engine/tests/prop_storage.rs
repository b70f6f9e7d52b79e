//! Property-based tests for the storage layer: tuple encoding, slotted
//! pages, heap files, and the B+-tree.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use mqpi_engine::btree::{cmp_key, BTreeIndex};
use mqpi_engine::heap::{HeapFile, Rid, ScanState};
use mqpi_engine::meter::WorkMeter;
use mqpi_engine::page::Page;
use mqpi_engine::tuple::{self, ColumnMask};
use mqpi_engine::value::Value;

mod value_btree;
use value_btree::ValueBTree;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        ".{0,40}".prop_map(Value::Str),
    ]
}

fn arb_row() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(arb_value(), 0..8)
}

/// The mask that keeps column `i` (of the first 64) iff bit `i` is set.
fn mask_of(bits: u64) -> ColumnMask {
    let mut mask = ColumnMask::NONE;
    (0..64)
        .filter(|i| bits >> i & 1 == 1)
        .for_each(|i| mask.insert(i));
    mask
}

const TWO_53: i64 = 1 << 53;

/// An index key, or `None` for a row whose key is NULL: small values so
/// that duplicates span leaves, values around 2^53 where `i64 → f64`
/// rounds, and the extremes.
fn arb_key() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![
        (-40i64..40).prop_map(Some),
        (-40i64..40).prop_map(Some),
        (-3i64..4).prop_map(|d| Some(TWO_53 + d)),
        prop::sample::select(vec![
            i64::MIN,
            i64::MIN + 1,
            -TWO_53,
            i64::MAX - 1,
            i64::MAX
        ])
        .prop_map(Some),
        Just(None),
    ]
}

/// A probe of any type: `Int`s in and beyond the keys; `Float`s that are
/// integral, non-integral, ±0.0, NaN of either sign, infinite or beyond
/// 2^53; strings; NULL.
fn arb_probe() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-45i64..45).prop_map(Value::Int),
        (-3i64..4).prop_map(|d| Value::Int(TWO_53 + d)),
        prop::sample::select(vec![i64::MIN, i64::MAX]).prop_map(Value::Int),
        (-45i64..45).prop_map(|k| Value::Float(k as f64)),
        (-90i64..90).prop_map(|k| Value::Float(k as f64 / 2.0 + 0.25)),
        prop::sample::select(vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            TWO_53 as f64,
            (TWO_53 + 2) as f64,
            -(TWO_53 as f64),
            9.3e18,
            -9.3e18,
            i64::MAX as f64,
            i64::MIN as f64,
        ])
        .prop_map(Value::Float),
        ".{0,3}".prop_map(Value::Str),
        Just(Value::Null),
    ]
}

/// The rows whose key is not NULL, as `(rid, key)`: what an index holds.
fn non_null(keys: &[Option<i64>]) -> Vec<(Rid, i64)> {
    keys.iter()
        .enumerate()
        .filter_map(|(i, k)| {
            Some((
                Rid {
                    page: i as u32,
                    slot: (i % 5) as u16,
                },
                (*k)?,
            ))
        })
        .collect()
}

/// Every probe as a lookup, and every pair of probes (or none) as the
/// bounds of a range scan: the same rids leaf by leaf, the same units.
fn check_against_oracle(
    tree: &BTreeIndex,
    oracle: &ValueBTree,
    probes: &[Value],
) -> Result<(), TestCaseError> {
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for p in probes {
        let (m, mo) = (WorkMeter::new(), WorkMeter::new());
        tree.lookup_into(p, &m, &mut got);
        oracle.lookup_into(p, &mo, &mut want);
        prop_assert_eq!(&got, &want, "lookup {:?}", p);
        prop_assert_eq!(m.used(), mo.used(), "lookup {:?}", p);
    }
    let bounds: Vec<Option<&Value>> = std::iter::once(None)
        .chain(probes.iter().map(Some))
        .collect();
    for lo in &bounds {
        for hi in &bounds {
            let (m, mo) = (WorkMeter::new(), WorkMeter::new());
            let mut st = tree.range_start(*lo, *hi, &m);
            let mut so = oracle.range_start(*lo, *hi, &mo);
            loop {
                let leaf = tree.range_next_leaf(&mut st, &m);
                let want: Vec<Rid> = oracle
                    .range_next_leaf(&mut so, &mo)
                    .iter()
                    .map(|e| e.1)
                    .collect();
                prop_assert_eq!(leaf, &want[..], "range {:?}..={:?}", lo, hi);
                if leaf.is_empty() {
                    break;
                }
            }
            prop_assert_eq!(m.used(), mo.used(), "range {:?}..={:?}", lo, hi);
        }
    }
    Ok(())
}

/// A pruned decode skips materialising columns, never checking them: over a
/// corpus of 300 corrupted encodings (truncations, bit flips, overwritten
/// bytes, junk appended) it fails on exactly the inputs a full decode fails
/// on, whatever the mask, and either decode of any of them ends inside a
/// wall-clock budget.
#[test]
fn pruned_decode_errors_exactly_when_full_decode_does() {
    let rows = [
        vec![
            Value::Int(7),
            Value::Float(2.5),
            Value::str("héllo"),
            Value::Null,
        ],
        vec![Value::str("x".repeat(60)), Value::Int(-1), Value::str("")],
        vec![Value::Null, Value::str("a\u{10348}b")],
    ];
    // xorshift64*: a fixed corpus, the same on every run.
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut rnd = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let (mut failed, mut survived) = (0, 0);
    for i in 0..300 {
        let mut bytes = tuple::encode(&rows[i % rows.len()]);
        let at = rnd() as usize % bytes.len();
        match i % 4 {
            0 => bytes.truncate(at),
            1 => bytes[at] ^= 1 << (rnd() % 8),
            2 => bytes[at] = rnd() as u8,
            _ => bytes.extend((0..1 + rnd() % 4).map(|_| rnd() as u8)),
        }
        let started = std::time::Instant::now();
        let full = tuple::decode(&bytes);
        for mask in [ColumnMask::NONE, ColumnMask::ALL, mask_of(rnd())] {
            let mut row = Vec::new();
            let pruned = tuple::decode_into(&bytes, mask, &mut row);
            assert_eq!(pruned.is_err(), full.is_err(), "mutation {i}: {bytes:?}");
        }
        // A corrupt count or length must fail where the bytes run out, not
        // after looping or allocating in proportion to it.
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "mutation {i} took {:?}",
            started.elapsed()
        );
        if full.is_err() {
            failed += 1;
        } else {
            survived += 1;
        }
    }
    // The corpus exercises both outcomes.
    assert!(
        failed >= 50 && survived >= 50,
        "{failed} failed, {survived} survived"
    );
}

proptest! {
    #[test]
    fn tuple_roundtrip(row in arb_row()) {
        let bytes = tuple::encode(&row);
        let back = tuple::decode(&bytes).unwrap();
        // NaN-aware comparison: use the total order.
        prop_assert_eq!(row.len(), back.len());
        for (a, b) in row.iter().zip(&back) {
            prop_assert!(a.total_cmp(b).is_eq(), "{:?} vs {:?}", a, b);
        }
    }

    #[test]
    fn pruned_decode_keeps_the_masked_columns_and_nulls_the_rest(
        row in arb_row(),
        bits in any::<u64>(),
        stale in arb_row(),
    ) {
        let mask = mask_of(bits);
        let mut got = stale; // the buffer is reused: what it held must not show
        tuple::decode_into(&tuple::encode(&row), mask, &mut got).unwrap();
        prop_assert_eq!(got.len(), row.len());
        for (i, (g, want)) in got.iter().zip(&row).enumerate() {
            if mask.keeps(i) {
                prop_assert!(g.total_cmp(want).is_eq(), "column {}: {:?} vs {:?}", i, g, want);
            } else {
                prop_assert!(g.is_null(), "column {} was pruned, got {:?}", i, g);
            }
        }
    }

    #[test]
    fn tuple_decode_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = tuple::decode(&bytes); // may Err, must not panic
    }

    #[test]
    fn page_roundtrip_until_full(tuples in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..300), 1..100)) {
        let mut page = Page::new();
        let mut stored = Vec::new();
        for t in &tuples {
            if page.fits(t.len()) {
                let slot = page.insert(t).unwrap();
                stored.push((slot, t.clone()));
            } else {
                prop_assert!(page.insert(t).is_err());
            }
        }
        for (slot, bytes) in &stored {
            prop_assert_eq!(page.get(*slot).unwrap(), &bytes[..]);
        }
        prop_assert_eq!(page.slot_count() as usize, stored.len());
    }

    #[test]
    fn heap_preserves_rows_in_insertion_order(rows in prop::collection::vec(arb_row(), 1..200)) {
        let mut heap = HeapFile::new();
        let mut rids = Vec::new();
        for r in &rows {
            rids.push(heap.insert(r).unwrap());
        }
        prop_assert_eq!(heap.row_count(), rows.len() as u64);
        // Sequential scan sees every row, in order.
        let m = WorkMeter::new();
        let mut st = ScanState::new();
        let mut i = 0;
        let mut row = Vec::new();
        while let Some(rid) = heap.scan_next(&mut st, &m, ColumnMask::ALL, &mut row).unwrap() {
            prop_assert_eq!(rid, rids[i]);
            for (a, b) in row.iter().zip(&rows[i]) {
                prop_assert!(a.total_cmp(b).is_eq());
            }
            i += 1;
        }
        prop_assert_eq!(i, rows.len());
        // Point fetches agree.
        for (rid, row) in rids.iter().zip(&rows) {
            let got = heap.fetch(*rid, &m).unwrap();
            for (a, b) in got.iter().zip(row) {
                prop_assert!(a.total_cmp(b).is_eq());
            }
        }
    }

    /// `HeapFile::resolve` is total and inert: on random heaps and rid
    /// lists mixing stored rids, pages past the end and slots past a page's
    /// directory (some with entries past the page), it never panics, and
    /// the fetches after it return what the same fetches return without
    /// it, rows and errors, and charge the meter the same.
    #[test]
    fn resolve_is_total_and_leaves_every_fetch_as_it_was(
        rows in prop::collection::vec(arb_row(), 0..120),
        picks in prop::collection::vec((0u8..3, any::<u32>(), any::<u16>()), 0..60),
        bits in any::<u64>(),
    ) {
        let mut heap = HeapFile::new();
        let stored: Vec<Rid> = rows.iter().map(|r| heap.insert(r).unwrap()).collect();
        let pages = heap.page_count() as u32;
        let rids: Vec<Rid> = picks
            .iter()
            .map(|&(kind, a, b)| match kind {
                0 if !stored.is_empty() => stored[a as usize % stored.len()],
                1 => Rid { page: pages + a % 4, slot: b },
                // A page holds fewer slots than the heap has rows.
                _ => Rid { page: a % pages.max(1), slot: 120 + b % 4096 },
            })
            .collect();
        let mask = mask_of(bits);
        let fetch_all = |meter: &WorkMeter| -> Vec<Result<Vec<Value>, String>> {
            rids.iter()
                .map(|rid| {
                    let mut row = vec![Value::Int(-1); 3];
                    heap.fetch_into(*rid, meter, mask, &mut row)
                        .map(|()| row)
                        .map_err(|e| e.to_string())
                })
                .collect()
        };
        let plain_meter = WorkMeter::new();
        let plain = fetch_all(&plain_meter);
        let meter = WorkMeter::new();
        heap.resolve(&rids);
        let resolved = fetch_all(&meter);
        prop_assert_eq!(meter.used(), plain_meter.used());
        prop_assert_eq!(resolved.len(), plain.len());
        for (got, want) in resolved.iter().zip(&plain) {
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(got.len(), want.len());
                    for (a, b) in got.iter().zip(want) {
                        prop_assert!(a.total_cmp(b).is_eq());
                    }
                }
                (got, want) => prop_assert_eq!(got.as_ref().err(), want.as_ref().err()),
            }
        }
    }

    #[test]
    fn btree_lookup_matches_reference_model(
        keys in prop::collection::vec(-50i64..50, 1..400),
        leaf_cap in 2usize..16,
        internal_cap in 3usize..16,
    ) {
        let mut tree = BTreeIndex::with_caps(leaf_cap, internal_cap);
        let mut model: std::collections::BTreeMap<i64, Vec<Rid>> = Default::default();
        for (i, k) in keys.iter().enumerate() {
            let rid = Rid { page: i as u32, slot: 0 };
            tree.insert(*k, rid);
            model.entry(*k).or_default().push(rid);
        }
        let m = WorkMeter::new();
        for k in -50i64..50 {
            let mut got = tree.lookup(&Value::Int(k), &m);
            got.sort();
            let mut want = model.get(&k).cloned().unwrap_or_default();
            want.sort();
            prop_assert_eq!(got, want, "key {}", k);
        }
    }

    #[test]
    fn btree_range_scan_is_sorted_and_complete(
        keys in prop::collection::vec(-100i64..100, 0..300),
        lo in -120i64..120,
        len in 0i64..100,
    ) {
        let hi = lo + len;
        let mut tree = BTreeIndex::with_caps(4, 4);
        for (i, k) in keys.iter().enumerate() {
            tree.insert(*k, Rid { page: i as u32, slot: 0 });
        }
        let m = WorkMeter::new();
        let mut st = tree.range_start(Some(&Value::Int(lo)), Some(&Value::Int(hi)), &m);
        let mut got = Vec::new();
        loop {
            let leaf = tree.range_next_leaf(&mut st, &m);
            if leaf.is_empty() {
                break;
            }
            got.extend(leaf.iter().map(|r| keys[r.page as usize]));
        }
        let mut want: Vec<i64> = keys.iter().filter(|k| **k >= lo && **k <= hi).cloned().collect();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn btree_bulk_load_equals_incremental(
        keys in prop::collection::vec(0i64..60, 0..300),
    ) {
        let mut entries: Vec<(i64, Rid)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (*k, Rid { page: i as u32, slot: 0 }))
            .collect();
        entries.sort();
        let bulk = BTreeIndex::bulk_load(&entries, 6, 6).unwrap();
        let mut incr = BTreeIndex::with_caps(6, 6);
        for (i, k) in keys.iter().enumerate() {
            incr.insert(*k, Rid { page: i as u32, slot: 0 });
        }
        let m = WorkMeter::new();
        for k in 0i64..60 {
            let mut a = bulk.lookup(&Value::Int(k), &m);
            let mut b = incr.lookup(&Value::Int(k), &m);
            a.sort();
            b.sort();
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(bulk.entry_count(), incr.entry_count());
    }

    /// `cmp_key` is `Value::total_cmp` with a `-0.0` probe read as `0.0`,
    /// and wherever SQL can compare the two (`sql_cmp` is not unknown) it
    /// agrees with SQL, so an index scan admits what its filter admits.
    #[test]
    fn cmp_key_is_int_total_cmp_with_zero_unsigned(k in arb_key(), probe in arb_probe()) {
        let k = k.unwrap_or(0);
        let unsigned = match probe {
            Value::Float(p) => Value::Float(if p == 0.0 { 0.0 } else { p }),
            ref v => v.clone(),
        };
        let got = cmp_key(k, &probe);
        prop_assert_eq!(got, Value::Int(k).total_cmp(&unsigned), "{} vs {:?}", k, probe);
        if let Some(sql) = Value::Int(k).sql_cmp(&probe) {
            prop_assert_eq!(got, sql, "{} vs {:?}", k, probe);
        }
    }

    /// Inserted row by row at small caps (every split path, duplicates
    /// across leaves), the `i64` tree hands out what the `Value`-keyed one
    /// does, rid for rid and unit for unit, for probes of every type.
    #[test]
    fn btree_inserts_match_the_value_keyed_oracle(
        keys in prop::collection::vec(arb_key(), 0..300),
        leaf_cap in 2usize..9,
        internal_cap in 3usize..9,
        probes in prop::collection::vec(arb_probe(), 1..10),
    ) {
        let mut tree = BTreeIndex::with_caps(leaf_cap, internal_cap);
        let mut oracle = ValueBTree::with_caps(leaf_cap, internal_cap);
        for (rid, k) in non_null(&keys) {
            tree.insert(k, rid);
            oracle.insert(Value::Int(k), rid);
        }
        check_against_oracle(&tree, &oracle, &probes)?;
    }

    /// The same, bulk-loaded from sorted entries.
    #[test]
    fn btree_bulk_load_matches_the_value_keyed_oracle(
        keys in prop::collection::vec(arb_key(), 0..300),
        leaf_cap in 2usize..9,
        internal_cap in 3usize..9,
        probes in prop::collection::vec(arb_probe(), 1..10),
    ) {
        let mut entries = non_null(&keys);
        entries.sort_by_key(|&(rid, k)| (k, rid));
        let typed: Vec<(i64, Rid)> = entries.iter().map(|&(rid, k)| (k, rid)).collect();
        let valued: Vec<(Value, Rid)> = entries.iter().map(|&(rid, k)| (Value::Int(k), rid)).collect();
        let tree = BTreeIndex::bulk_load(&typed, leaf_cap, internal_cap).unwrap();
        let oracle = ValueBTree::bulk_load(&valued, leaf_cap, internal_cap);
        prop_assert_eq!(tree.entry_count(), typed.len() as u64);
        check_against_oracle(&tree, &oracle, &probes)?;
    }

    #[test]
    fn value_total_cmp_is_total_order(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        // Reflexivity.
        prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
        // Transitivity (sampled).
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
    }
}
