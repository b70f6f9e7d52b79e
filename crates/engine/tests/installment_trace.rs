//! Installment traces: where a query suspends, and what it has charged by
//! then, is behaviour.
//!
//! The simulator runs every query in work-unit installments and reads its
//! refined remaining cost between them, so the sequence of
//! `RunOutcome::used` values (which pins every `Pending` point) and the
//! `progress().remaining` reading after each installment are what the
//! progress indicators see of the engine. This file runs a set of plan
//! shapes in installments of 1, 7, 64 and `u64::MAX` units and checks, per
//! shape and budget:
//!
//! * the rows equal `Database::execute`;
//! * the installment count, the unit total, a digest of the `used`
//!   sequence, a digest of the `remaining` readings and a digest of the rows
//!   equal `tests/fixtures/installment_trace.txt`.
//!
//! The fixture was recorded from the commit before the probe path was
//! reworked (overlapped page misses, by-reference rows, column-pruned
//! decode), so it holds that rework to "same units, same `Pending` points,
//! same rows". The four aggregate-argument shapes at the end of the list
//! were recorded from the commit before `Aggregate` read plain-column
//! arguments in place and the meter became single-writer, and hold that
//! change to the same. Regenerate only for an intended change in work
//! accounting:
//!
//! ```text
//! MQPI_BLESS=1 cargo test -p mqpi-engine --test installment_trace
//! git diff crates/engine/tests/fixtures/
//! ```

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::OnceLock;

use mqpi_engine::Database;
use mqpi_workload::{TpcrConfig, TpcrDb};

const SIZE_CLASSES: u64 = 6;
const BUDGETS: [u64; 4] = [1, 7, 64, u64::MAX];

fn tpcr() -> &'static TpcrDb {
    static DB: OnceLock<TpcrDb> = OnceLock::new();
    DB.get_or_init(|| {
        TpcrDb::build(TpcrConfig {
            lineitem_rows: 24_000,
            analyze_fraction: 0.2,
            max_size: SIZE_CLASSES,
            ..TpcrConfig::default()
        })
        .unwrap()
    })
}

/// `(name, SQL, operator the plan must contain)`. The tables are the
/// TPC-R ones: `lineitem(partkey, quantity, extendedprice, comment)` with an
/// index on `partkey`, and `part_s<k>(partkey, retailprice, name)`.
fn shapes() -> Vec<(String, String, &'static str)> {
    let mut v: Vec<(String, String, &'static str)> = (1..=SIZE_CLASSES)
        .map(|k| (format!("tpcr_s{k}"), tpcr().query_sql(k), "Filter"))
        .collect();
    let more: [(&str, &str, &str); 13] = [
        (
            "in_subquery",
            "select p.name from part_s3 p where p.partkey in \
             (select l.partkey from lineitem l where l.partkey = p.partkey and l.quantity > 45)",
            "Filter",
        ),
        (
            "exists",
            "select p.partkey from part_s2 p where exists \
             (select * from lineitem l where l.partkey = p.partkey and l.quantity > 48)",
            "Filter",
        ),
        (
            "index_nl_join",
            "select p.name, l.quantity from part_s1 p join lineitem l \
             on p.partkey = l.partkey where l.quantity < 9",
            "IndexNLJoin",
        ),
        (
            "grouped_range",
            "select l.partkey, count(*), sum(l.quantity), min(l.comment) from lineitem l \
             where l.partkey < 6 group by l.partkey order by l.partkey",
            "IndexScan(range)",
        ),
        (
            "star_probe",
            "select * from lineitem where partkey = 7",
            "IndexScan(eq)",
        ),
        (
            "distinct_star",
            "select distinct * from lineitem l where l.partkey = 11",
            "Distinct",
        ),
        (
            "distinct_column",
            "select distinct quantity from lineitem where partkey < 3",
            "Distinct",
        ),
        // `p.retailprice` reaches the subquery through `outer_args` only.
        (
            "outer_arg_only_column",
            "select p.name from part_s2 p where 10 < \
             (select count(*) from lineitem l \
              where l.partkey = p.partkey and l.extendedprice > p.retailprice)",
            "Filter",
        ),
        // Two levels: the middle scan's `partkey` is read by nothing but the
        // innermost subquery's `outer_args`, under a `count(*)` that reads no
        // column at all.
        (
            "nested_subquery",
            "select p.name from part_s1 p where 3 < \
             (select count(*) from lineitem l where l.partkey = p.partkey and l.quantity > \
              (select avg(l2.quantity) from lineitem l2 where l2.partkey = l.partkey))",
            "Filter",
        ),
        // Aggregate arguments from both sources: a plain column, read from
        // the row in place, beside a computed one, which goes through `eval`.
        (
            "grouped_sum_pair",
            "select l.partkey, sum(l.quantity), sum(l.quantity * 2) from lineitem l \
             where l.partkey < 8 group by l.partkey order by l.partkey",
            "IndexScan(range)",
        ),
        (
            "min_max_comment",
            "select p.partkey, \
             (select min(l.comment) from lineitem l where l.partkey = p.partkey), \
             (select max(l.comment) from lineitem l where l.partkey = p.partkey) \
             from part_s2 p",
            "Project",
        ),
        (
            "count_comment",
            "select p.partkey, \
             (select count(l.comment) from lineitem l where l.partkey = p.partkey) \
             from part_s1 p",
            "Project",
        ),
        // DISTINCT over a plain column: read in place, then deduplicated.
        (
            "sum_distinct",
            "select p.partkey, \
             (select sum(distinct l.quantity) from lineitem l where l.partkey = p.partkey) \
             from part_s1 p",
            "Project",
        ),
    ];
    v.extend(
        more.iter()
            .map(|(n, s, op)| (n.to_string(), s.to_string(), *op)),
    );
    v
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One fixture line: what `sql` does when run in installments of `budget`.
fn trace_line(db: &Database, name: &str, sql: &str, budget: u64) -> String {
    let want = db.execute(sql).unwrap();
    let mut cur = db.prepare(sql).unwrap().open().unwrap();
    let (mut installments, mut total) = (0u64, 0u64);
    let (mut used_digest, mut remaining_digest) = (FNV_OFFSET, FNV_OFFSET);
    loop {
        let out = cur.run(budget).unwrap();
        installments += 1;
        total += out.used;
        used_digest = fnv(used_digest, &out.used.to_le_bytes());
        remaining_digest = fnv(
            remaining_digest,
            &cur.progress().remaining.to_bits().to_le_bytes(),
        );
        if out.finished {
            break;
        }
        assert!(installments < 10_000_000, "{name}: did not terminate");
    }
    assert_eq!(total, cur.units_used(), "{name} budget {budget}");
    assert_eq!(
        cur.rows(),
        &want[..],
        "{name} budget {budget}: rows differ from Database::execute"
    );
    let rows_digest = fnv(FNV_OFFSET, format!("{want:?}").as_bytes());
    let budget = if budget == u64::MAX {
        "max".to_string()
    } else {
        budget.to_string()
    };
    format!(
        "{name} budget={budget} installments={installments} units={total} \
         used={used_digest:016x} remaining={remaining_digest:016x} \
         rows={} rows_digest={rows_digest:016x}\n",
        want.len()
    )
}

#[test]
fn installment_traces_match_the_recorded_fixture() {
    let db = &tpcr().db;
    let mut got = String::new();
    for (name, sql, op) in shapes() {
        let plan = db.prepare(&sql).unwrap().explain();
        assert!(plan.contains(op), "{name}: expected {op} in\n{plan}");
        for budget in BUDGETS {
            write!(got, "{}", trace_line(db, &name, &sql, budget)).unwrap();
        }
    }
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/installment_trace.txt");
    if std::env::var_os("MQPI_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with \
             MQPI_BLESS=1 cargo test -p mqpi-engine --test installment_trace",
            path.display()
        )
    });
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "installment trace diverges from the fixture");
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
