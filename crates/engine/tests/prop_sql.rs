//! Property-based tests for the SQL front end and end-to-end execution
//! against a reference model.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use mqpi_engine::sql::parse_query;
use mqpi_engine::{ColumnType, Database, EngineError, Schema, Value};

/// An identifier that is not one of the parser's reserved words (the list
/// in `sql::parser::is_reserved`).
fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_filter("not reserved", |s| {
        !matches!(
            s.as_str(),
            "select"
                | "from"
                | "where"
                | "group"
                | "by"
                | "having"
                | "order"
                | "limit"
                | "join"
                | "inner"
                | "on"
                | "as"
                | "and"
                | "or"
                | "not"
                | "null"
                | "is"
                | "asc"
                | "desc"
                | "in"
                | "between"
                | "like"
                | "exists"
                | "distinct"
        )
    })
}

proptest! {
    #[test]
    fn tokenizer_never_panics(input in ".{0,200}") {
        let _ = mqpi_engine::sql::token::tokenize(&input);
    }

    #[test]
    fn parser_never_panics(input in ".{0,200}") {
        let _ = parse_query(&input);
    }

    #[test]
    fn simple_selects_always_parse(t in ident(), c1 in ident(), c2 in ident(), n in 0i64..1000) {
        let sql = format!("select {c1}, {c2} from {t} where {c1} > {n} order by {c2} limit 5");
        let q = parse_query(&sql).unwrap();
        prop_assert_eq!(q.from.table, t);
        prop_assert_eq!(q.predicates.len(), 1);
        prop_assert_eq!(q.limit, Some(5));
    }

    /// A second table, named in any of the forms the grammar once took, is
    /// a parse error, before the catalog is consulted.
    #[test]
    fn multi_table_input_is_refused(
        t1 in ident(),
        t2 in ident(),
        c in ident(),
        form in prop::sample::select(vec![0, 1, 2, 3, 4]),
    ) {
        let sql = match form {
            0 => format!("select * from {t1}, {t2}"),
            1 => format!("select {c} from {t1} a, {t2} b where a.{c} = b.{c}"),
            2 => format!("select {c} from {t1} a join {t2} b on a.{c} = b.{c}"),
            3 => format!("select {c} from {t1} inner join {t2} on {c} = 1 where {c} > 2"),
            _ => format!(
                "select {c} from {t1} where exists (select * from {t2}, {t1} where {c} = 1)"
            ),
        };
        let parsed = parse_query(&sql);
        prop_assert!(matches!(parsed, Err(EngineError::Parse(_))), "{sql}: {parsed:?}");
        let planned = Database::new().prepare(&sql).map(|p| p.explain());
        prop_assert!(matches!(planned, Err(EngineError::Parse(_))), "{sql}: {planned:?}");
    }
}

/// Reference model check: run filtering/aggregation queries against a table
/// of random integers and compare with a straightforward in-memory
/// computation.
fn build_db(data: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::from_pairs(&[("k", ColumnType::Int), ("v", ColumnType::Int)]).unwrap(),
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = data
        .iter()
        .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)])
        .collect();
    db.insert("t", &rows).unwrap();
    db.analyze("t").unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn where_filter_matches_reference(
        data in prop::collection::vec((0i64..20, -100i64..100), 0..300),
        threshold in -100i64..100,
    ) {
        let db = build_db(&data);
        let rows = db
            .execute(&format!("select k, v from t where v >= {threshold}"))
            .unwrap();
        let want: Vec<(i64, i64)> = data.iter().filter(|(_, v)| *v >= threshold).cloned().collect();
        prop_assert_eq!(rows.len(), want.len());
        for (row, (k, v)) in rows.iter().zip(&want) {
            prop_assert_eq!(row[0].as_i64().unwrap(), *k);
            prop_assert_eq!(row[1].as_i64().unwrap(), *v);
        }
    }

    #[test]
    fn group_by_matches_reference(
        data in prop::collection::vec((0i64..10, -50i64..50), 1..300),
    ) {
        let db = build_db(&data);
        let rows = db
            .execute("select k, count(*), sum(v), min(v), max(v) from t group by k order by k")
            .unwrap();
        let mut model: std::collections::BTreeMap<i64, (i64, i64, i64, i64)> = Default::default();
        for (k, v) in &data {
            let e = model.entry(*k).or_insert((0, 0, i64::MAX, i64::MIN));
            e.0 += 1;
            e.1 += v;
            e.2 = e.2.min(*v);
            e.3 = e.3.max(*v);
        }
        prop_assert_eq!(rows.len(), model.len());
        for (row, (k, (cnt, sum, mn, mx))) in rows.iter().zip(model.iter()) {
            prop_assert_eq!(row[0].as_i64().unwrap(), *k);
            prop_assert_eq!(row[1].as_i64().unwrap(), *cnt);
            prop_assert_eq!(row[2].as_i64().unwrap(), *sum);
            prop_assert_eq!(row[3].as_i64().unwrap(), *mn);
            prop_assert_eq!(row[4].as_i64().unwrap(), *mx);
        }
    }

    #[test]
    fn order_by_sorts_correctly(
        data in prop::collection::vec((0i64..50, -50i64..50), 0..200),
    ) {
        let db = build_db(&data);
        let rows = db.execute("select v from t order by v desc").unwrap();
        let mut want: Vec<i64> = data.iter().map(|(_, v)| *v).collect();
        want.sort_by(|a, b| b.cmp(a));
        let got: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn incremental_execution_agrees_with_one_shot(
        data in prop::collection::vec((0i64..10, -50i64..50), 1..200),
        budget in 1u64..40,
    ) {
        let db = build_db(&data);
        let sql = "select k, sum(v) from t group by k order by k";
        let oneshot = db.execute(sql).unwrap();
        // Same query in tiny installments.
        let p = db.prepare(sql).unwrap();
        let mut cur = p.open().unwrap();
        let mut guard = 0;
        while !cur.run(budget).unwrap().finished {
            guard += 1;
            prop_assert!(guard < 100_000, "did not terminate");
        }
        prop_assert_eq!(cur.rows(), &oneshot[..]);
    }

    #[test]
    fn installment_budget_is_respected_within_overdraft(
        data in prop::collection::vec((0i64..10, -50i64..50), 50..300),
        budget in 2u64..30,
    ) {
        let db = build_db(&data);
        let p = db.prepare("select k, sum(v) from t group by k order by k").unwrap();
        let mut cur = p.open().unwrap();
        loop {
            let out = cur.run(budget).unwrap();
            // Overdraft bound: one tuple's worth of work past the budget.
            prop_assert!(out.used <= budget + 8, "used {} for budget {}", out.used, budget);
            if out.finished {
                break;
            }
        }
    }
}
