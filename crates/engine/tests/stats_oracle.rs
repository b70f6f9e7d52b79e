//! ANALYZE's run counting against the hash-map counting it replaced.
//!
//! `TableStats::from_sample` sorts references to a column's values and
//! counts runs. Before, it keyed a `HashMap` by each value's `Debug` text.
//! That counter is kept below, as it was, as the oracle. The two group
//! values differently in one case only: an `Int` and a `Float` of the same
//! number are one value now and were two. So the generated columns hold
//! one numeric representation each. Everything else must come out equal
//! bit for bit: the null fraction, the NDV, min, max, the histogram bounds
//! and the MCV list, order included. The last test recomputes every table
//! of a small TPC-R build through the oracle, from the same sample.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;

use proptest::prelude::*;

use mqpi_engine::heap::ScanState;
use mqpi_engine::stats::{ColumnStats, Histogram, TableStats, HISTOGRAM_BUCKETS, MCV_ENTRIES};
use mqpi_engine::tuple::ColumnMask;
use mqpi_engine::{Value, WorkMeter};
use mqpi_workload::{TpcrConfig, TpcrDb};

/// The counter `from_sample` used before it sorted: one `HashMap` entry per
/// distinct `Debug` text, holding the count and the first occurrence.
fn oracle(ncols: usize, rows: &[Vec<Value>], total_rows: u64) -> Vec<ColumnStats> {
    let mut columns = Vec::with_capacity(ncols);
    let n = rows.len().max(1) as f64;
    for c in 0..ncols {
        let mut nulls = 0u64;
        let mut numeric_samples = Vec::new();
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        let mut counts: HashMap<String, (u64, Value)> = HashMap::new();
        for row in rows {
            let v = &row[c];
            if v.is_null() {
                nulls += 1;
                continue;
            }
            if let Some(x) = v.as_f64() {
                numeric_samples.push(x);
            }
            counts
                .entry(format!("{v:?}"))
                .or_insert_with(|| (0, v.clone()))
                .0 += 1;
            let replace_min = min.as_ref().map(|m| v.total_cmp(m).is_lt()).unwrap_or(true);
            if replace_min {
                min = Some(v.clone());
            }
            let replace_max = max.as_ref().map(|m| v.total_cmp(m).is_gt()).unwrap_or(true);
            if replace_max {
                max = Some(v.clone());
            }
        }
        let d = counts.len() as f64;
        let f1 = counts.values().filter(|(k, _)| *k == 1).count() as f64;
        let scale = (total_rows as f64 / n).max(1.0);
        let ndv = (d + f1 * (scale - 1.0)).min(total_rows as f64).max(1.0);
        let mut freq: Vec<(u64, Value)> = counts.into_values().collect();
        freq.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.total_cmp(&b.1)));
        let mcv: Vec<(Value, f64)> = freq
            .into_iter()
            .take(MCV_ENTRIES)
            .filter(|(k, _)| *k > 1)
            .map(|(k, v)| (v, k as f64 / n))
            .collect();
        columns.push(ColumnStats {
            null_frac: nulls as f64 / n,
            ndv,
            min,
            max,
            histogram: Histogram::build(numeric_samples, HISTOGRAM_BUCKETS),
            mcv,
        });
    }
    columns
}

/// Equal variant and payload, a `Float` by its bits.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn assert_same(got: &ColumnStats, want: &ColumnStats, what: &str) {
    assert_eq!(
        got.null_frac.to_bits(),
        want.null_frac.to_bits(),
        "{what}: null_frac"
    );
    assert_eq!(
        got.ndv.to_bits(),
        want.ndv.to_bits(),
        "{what}: ndv {} vs {}",
        got.ndv,
        want.ndv
    );
    for (g, w, name) in [(&got.min, &want.min, "min"), (&got.max, &want.max, "max")] {
        let same = match (g, w) {
            (Some(g), Some(w)) => same_bits(g, w),
            (g, w) => g.is_none() && w.is_none(),
        };
        assert!(same, "{what}: {name} {g:?} vs {w:?}");
    }
    let bits = |h: &Option<Histogram>| {
        h.as_ref()
            .map(|h| h.bounds().iter().map(|b| b.to_bits()).collect::<Vec<_>>())
    };
    assert_eq!(
        bits(&got.histogram),
        bits(&want.histogram),
        "{what}: histogram"
    );
    let same_mcv = got.mcv.len() == want.mcv.len()
        && got
            .mcv
            .iter()
            .zip(&want.mcv)
            .all(|((gv, gf), (wv, wf))| same_bits(gv, wv) && gf.to_bits() == wf.to_bits());
    assert!(same_mcv, "{what}: mcv {:?} vs {:?}", got.mcv, want.mcv);
}

/// The representation a generated column holds.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Int,
    Float,
    Str,
}

const KINDS: [Kind; 3] = [Kind::Int, Kind::Float, Kind::Str];

const SPECIAL_INTS: [i64; 4] = [i64::MIN, i64::MAX, 1 << 53, (1 << 53) + 1];

/// Signed zeros, NaNs of either sign and with a payload, infinities.
fn special_floats() -> [f64; 8] {
    [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(f64::NAN.to_bits() | 5),
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
    ]
}

const STRS: [&str; 6] = ["", "a", "b", "ab", "part-1", "x"];

/// One cell of a `kind` column from generated raw parts: `sel` picks NULL
/// (1 in 12), a small pool whose values repeat heavily (half or more), a
/// special value, or a free one.
fn cell(kind: Kind, (sel, i, f, s): &(u8, i64, f64, String)) -> Value {
    let pick = i.unsigned_abs() as usize;
    match (kind, sel) {
        (_, 0) => Value::Null,
        (Kind::Int, 1..=6) => Value::Int(i64::from(*sel) - 4),
        (Kind::Int, 7..=8) => Value::Int(SPECIAL_INTS[pick % SPECIAL_INTS.len()]),
        (Kind::Int, _) => Value::Int(*i),
        (Kind::Float, 1..=6) => Value::Float(f64::from(*sel) / 2.0 - 2.0),
        (Kind::Float, 7..=9) => Value::Float(special_floats()[pick % 8]),
        (Kind::Float, _) => Value::Float(*f),
        (Kind::Str, 1..=8) => Value::str(STRS[pick % STRS.len()]),
        (Kind::Str, _) => Value::Str(s.clone()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn run_counting_equals_the_hash_map_count(
        kinds in prop::collection::vec(0usize..3, 1..4),
        cells in prop::collection::vec((0u8..12, any::<i64>(), any::<f64>(), "[a-c]{0,3}"), 0..400),
        extra in 0u64..5_000,
    ) {
        let ncols = kinds.len();
        let rows: Vec<Vec<Value>> = cells
            .chunks_exact(ncols)
            .map(|raw| raw.iter().zip(&kinds).map(|(r, k)| cell(KINDS[*k], r)).collect())
            .collect();
        // The sample is all the table has, or a part of it.
        let total_rows = rows.len() as u64 + if extra % 4 == 0 { 0 } else { extra };
        let got = TableStats::from_sample(ncols, &rows, total_rows, 7);
        let want = oracle(ncols, &rows, total_rows);
        prop_assert_eq!(got.row_count, total_rows);
        prop_assert_eq!(got.columns.len(), ncols);
        for (c, (g, w)) in got.columns.iter().zip(&want).enumerate() {
            assert_same(g, w, &format!("column {c}"));
        }
    }
}

/// Every table of a small TPC-R build (the 24k-row configuration of the
/// experiment harness's `--small`) against the oracle over the same sample:
/// the rows `Database::analyze_sampled` keeps, every `stride`-th from the
/// first.
#[test]
fn a_tpcr_build_has_the_oracle_statistics() {
    let config = TpcrConfig {
        lineitem_rows: 24_000,
        analyze_fraction: 0.2,
        max_size: 50,
        ..Default::default()
    };
    let tpcr = TpcrDb::build(config).unwrap();
    let names = tpcr.db.table_names();
    assert_eq!(names.len(), 51);
    for name in names {
        let table = tpcr.db.table(&name).unwrap();
        let fraction = if name == "lineitem" {
            config.analyze_fraction
        } else {
            1.0
        };
        let stride = (1.0 / fraction).round() as usize;
        let (meter, mut st, mut row) = (WorkMeter::new(), ScanState::new(), Vec::new());
        let mut rows = Vec::new();
        while table
            .heap
            .scan_next(&mut st, &meter, ColumnMask::ALL, &mut row)
            .unwrap()
            .is_some()
        {
            rows.push(row.clone());
        }
        let sample: Vec<Vec<Value>> = rows.into_iter().step_by(stride).collect();
        let stats = &table.stats;
        assert_eq!(stats.row_count, table.heap.row_count());
        assert_eq!(stats.page_count, table.heap.page_count());
        let want = oracle(table.schema.len(), &sample, stats.row_count);
        assert_eq!(stats.columns.len(), want.len());
        for (c, (g, w)) in stats.columns.iter().zip(&want).enumerate() {
            assert_same(g, w, &format!("{name} column {c}"));
        }
        if name == "lineitem" {
            // The index key and the quantity are skewed enough for MCVs.
            assert!(!stats.columns[0].mcv.is_empty());
        }
    }
}
