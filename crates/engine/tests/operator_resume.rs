//! Resumability torture tests: every operator must produce identical
//! results when driven with a 1-unit budget (suspending constantly) as in
//! one shot, and the work-unit totals must match.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mqpi_engine::{ColumnType, Database, Schema, Value};

fn db() -> &'static Database {
    static DB: std::sync::OnceLock<Database> = std::sync::OnceLock::new();
    DB.get_or_init(|| {
        let mut db = Database::new();
        db.create_table(
            "t",
            Schema::from_pairs(&[
                ("a", ColumnType::Int),
                ("b", ColumnType::Int),
                ("s", ColumnType::Str),
            ])
            .unwrap(),
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..3000)
            .map(|i| {
                vec![
                    Value::Int(i % 30),
                    Value::Int(i),
                    Value::str(format!("row-{i}")),
                ]
            })
            .collect();
        db.insert("t", &rows).unwrap();
        db.create_index("t", "a").unwrap();
        db.create_index("t", "b").unwrap();
        db.create_table(
            "u",
            Schema::from_pairs(&[("a", ColumnType::Int), ("label", ColumnType::Str)]).unwrap(),
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..30)
            .map(|i| vec![Value::Int(i), Value::str(format!("lbl-{i}"))])
            .collect();
        db.insert("u", &rows).unwrap();
        db.analyze("t").unwrap();
        db.analyze("u").unwrap();
        db
    })
}

/// Run `sql` once in one shot and once with a given budget; results and
/// total units must agree.
fn check(sql: &str, budget: u64) {
    let db = db();
    let p1 = db.prepare(sql).unwrap();
    let mut oneshot = p1.open().unwrap();
    let total_units = oneshot.run_to_completion().unwrap();

    let p2 = db.prepare(sql).unwrap();
    let mut drip = p2.open().unwrap();
    let mut installments = 0u64;
    while !drip.run(budget).unwrap().finished {
        installments += 1;
        assert!(installments < 10_000_000, "did not terminate: {sql}");
    }
    assert_eq!(drip.rows(), oneshot.rows(), "results differ for: {sql}");
    assert_eq!(
        drip.units_used(),
        total_units,
        "work accounting differs for: {sql}"
    );
    if budget == 1 {
        assert!(
            installments > 2,
            "budget {budget} did not force suspension for: {sql}"
        );
    }
}

#[test]
fn seq_scan_filter_project_resume() {
    check("select b * 2, s from t where b % 7 = 0", 1);
}

#[test]
fn index_scan_resume() {
    check("select b from t where a = 13 order by b", 1);
}

#[test]
fn aggregate_resume() {
    check(
        "select a, count(*), sum(b), min(s), max(s) from t group by a order by a",
        1,
    );
}

#[test]
fn distinct_resume() {
    check("select distinct a from t order by a", 1);
}

#[test]
fn sort_with_debt_resume() {
    check("select s, b from t order by s desc limit 17", 1);
}

#[test]
fn correlated_subquery_resume() {
    check(
        "select count(*) from u where 50 < \
         (select count(*) from t where t.a = u.a)",
        1,
    );
}

#[test]
fn larger_budgets_agree_too() {
    for budget in [3, 17, 64] {
        check(
            "select a, sum(b) from t where b > 100 group by a order by a",
            budget,
        );
    }
}

/// A subquery site runs one operator tree once per outer row, rewinding it
/// in between. Wherever the previous run stopped, a rewound tree must be
/// indistinguishable from a newly built one: same estimates before the
/// first pull, same rows, same units. Every subtree of every shape is
/// checked as a root of its own, so each operator meets the junk-filled
/// buffer of `pull` itself.
#[test]
fn rewound_tree_runs_like_a_new_one() {
    use mqpi_engine::exec::{build, ExecContext, Operator, Step, TableSet};
    use std::sync::Arc;

    type Run = (Vec<Vec<Value>>, u64);

    /// Pull up to `limit` rows on a meter of their own (so no fraction of a
    /// unit carries over from an earlier run): the rows and what they cost.
    /// Every pull goes into one buffer, refilled beforehand with `junk`
    /// values, so an operator that appends to the buffer instead of
    /// overwriting it returns other rows at `junk = 7` (wider than any row
    /// here) than at `junk = 0`.
    fn pull(op: &mut dyn Operator, tables: &Arc<TableSet>, limit: usize, junk: usize) -> Run {
        let ctx = ExecContext::new(Arc::clone(tables));
        let mut rows = Vec::new();
        let mut row = Vec::new();
        while rows.len() < limit {
            row.clear();
            row.resize(junk, Value::str("junk"));
            match op.next(&ctx, &mut row).unwrap() {
                Step::Row => rows.push(row.clone()),
                Step::Done => break,
                Step::Pending => panic!("no budget is armed"),
            }
        }
        (rows, ctx.meter.used())
    }

    // Between them, every operator, each with rows to emit.
    let shapes = [
        "select b * 2, s from t where b % 7 = 0",
        "select b from t where a = 13 order by b",
        "select b from t where a < 2 limit 150",
        "select a, count(*), sum(b), min(s), count(distinct b) from t group by a order by a",
        "select sum(b), count(distinct a) from t where a = 4",
        "select distinct a from t",
        "select u.a from u where 50 < (select count(*) from t where t.a = u.a)",
        // Selective enough on the unique `t.b` for the index paths.
        "select s from t where b = 1234",
        "select s from t where b < 20",
    ];
    let db = db();
    let mut emitting = std::collections::BTreeSet::new();
    for sql in shapes {
        let plan = db.prepare(sql).unwrap().plan;
        let tables = Arc::new(plan.tables.clone());
        let mut nodes = vec![&plan.root];
        while let Some(node) = nodes.pop() {
            nodes.extend(node.children());
            let empty = pull(
                build(node, &tables).unwrap().as_mut(),
                &tables,
                usize::MAX,
                0,
            );
            let mut op = build(node, &tables).unwrap();
            let what = format!("{sql} [{}]", op.label());
            let new = (op.remaining_units(), op.remaining_rows());
            let want = pull(op.as_mut(), &tables, usize::MAX, 7);
            if !want.0.is_empty() {
                emitting.insert(op.profile_tag());
            }
            assert!(
                want == empty,
                "{what}: rows differ from an emptied buffer's"
            );
            // After a full run, and after one cut short at each of a few points.
            for stop_after in [usize::MAX, 0, 1, want.0.len() / 2] {
                op.rewind();
                assert_eq!((op.remaining_units(), op.remaining_rows()), new, "{what}");
                let got = pull(op.as_mut(), &tables, usize::MAX, 7);
                assert!(got == want, "{what}: {} units, want {}", got.1, want.1);
                op.rewind();
                pull(op.as_mut(), &tables, stop_after, 7);
            }
        }
    }
    assert_eq!(emitting.len(), 9, "operators with rows: {emitting:?}");
}
