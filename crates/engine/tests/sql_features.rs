//! Tests for the extended SQL surface: DISTINCT, EXISTS, IN (list and
//! subquery), BETWEEN, LIKE — including their NULL semantics — and the
//! refusal of a query block that names a second table.

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mqpi_engine::exec::eval::like_match;
use mqpi_engine::{ColumnType, Database, EngineError, Schema, Value};

fn db() -> Database {
    let mut db = Database::new();
    db.create_table(
        "emp",
        Schema::from_pairs(&[
            ("id", ColumnType::Int),
            ("dept", ColumnType::Int),
            ("name", ColumnType::Str),
            ("salary", ColumnType::Int),
        ])
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        "dept",
        Schema::from_pairs(&[("id", ColumnType::Int), ("dname", ColumnType::Str)]).unwrap(),
    )
    .unwrap();
    let names = ["alice", "bob", "carol", "dave", "erin"];
    let rows: Vec<Vec<Value>> = (0..100)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 7),
                Value::str(names[(i % 5) as usize]),
                Value::Int(1000 + 100 * (i % 10)),
            ]
        })
        .collect();
    db.insert("emp", &rows).unwrap();
    // Departments 0..5 exist; 5 and 6 have employees but no dept row.
    let depts: Vec<Vec<Value>> = (0..5)
        .map(|i| vec![Value::Int(i), Value::str(format!("dept-{i}"))])
        .collect();
    db.insert("dept", &depts).unwrap();
    db.analyze("emp").unwrap();
    db.analyze("dept").unwrap();
    db
}

#[test]
fn distinct_removes_duplicates() {
    let db = db();
    let rows = db
        .execute("select distinct dept from emp order by dept")
        .unwrap();
    assert_eq!(rows.len(), 7);
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(r[0], Value::Int(i as i64));
    }
}

#[test]
fn distinct_on_multiple_columns() {
    let db = db();
    let rows = db.execute("select distinct dept, name from emp").unwrap();
    // 7 depts × 5 names, but only combinations where (i%7, i%5) co-occur:
    // by CRT over 0..100 ⊇ 0..35, all 35 combinations appear.
    assert_eq!(rows.len(), 35);
}

#[test]
fn exists_correlated() {
    let db = db();
    // Employees whose department has a dept row: depts 0..4 ⇒ ids with
    // i%7 <= 4.
    let rows = db
        .execute(
            "select count(*) from emp e where exists \
             (select * from dept d where d.id = e.dept)",
        )
        .unwrap();
    let expected = (0..100).filter(|i| i % 7 <= 4).count() as i64;
    assert_eq!(rows[0][0], Value::Int(expected));
}

#[test]
fn not_exists_correlated() {
    let db = db();
    let rows = db
        .execute(
            "select count(*) from emp e where not exists \
             (select * from dept d where d.id = e.dept)",
        )
        .unwrap();
    let expected = (0..100).filter(|i| i % 7 > 4).count() as i64;
    assert_eq!(rows[0][0], Value::Int(expected));
}

#[test]
fn in_subquery() {
    let db = db();
    let rows = db
        .execute("select count(*) from emp where dept in (select id from dept)")
        .unwrap();
    let expected = (0..100).filter(|i| i % 7 <= 4).count() as i64;
    assert_eq!(rows[0][0], Value::Int(expected));
}

#[test]
fn not_in_subquery_with_nulls_is_empty() {
    let mut db = db();
    // Add a NULL dept id: NOT IN over a set containing NULL is never TRUE.
    db.insert("dept", &[vec![Value::Null, Value::str("limbo")]])
        .unwrap();
    let rows = db
        .execute("select count(*) from emp where dept not in (select id from dept)")
        .unwrap();
    assert_eq!(rows[0][0], Value::Int(0));
}

#[test]
fn in_value_list() {
    let db = db();
    let rows = db
        .execute("select count(*) from emp where dept in (1, 3, 5)")
        .unwrap();
    let expected = (0..100).filter(|i| matches!(i % 7, 1 | 3 | 5)).count() as i64;
    assert_eq!(rows[0][0], Value::Int(expected));
    let none = db
        .execute("select count(*) from emp where dept not in (0,1,2,3,4,5,6)")
        .unwrap();
    assert_eq!(none[0][0], Value::Int(0));
}

#[test]
fn between_inclusive() {
    let db = db();
    let rows = db
        .execute("select count(*) from emp where salary between 1200 and 1400")
        .unwrap();
    let expected = (0..100)
        .filter(|i| (1200..=1400).contains(&(1000 + 100 * (i % 10))))
        .count() as i64;
    assert_eq!(rows[0][0], Value::Int(expected));
    let inv = db
        .execute("select count(*) from emp where salary not between 1200 and 1400")
        .unwrap();
    assert_eq!(inv[0][0], Value::Int(100 - expected));
}

#[test]
fn like_patterns() {
    let db = db();
    let rows = db
        .execute("select count(*) from emp where name like 'a%'")
        .unwrap();
    assert_eq!(rows[0][0], Value::Int(20)); // alice
    let rows = db
        .execute("select count(*) from emp where name like '%o%'")
        .unwrap();
    assert_eq!(rows[0][0], Value::Int(40)); // bob, carol
    let rows = db
        .execute("select count(*) from emp where name like '_ob'")
        .unwrap();
    assert_eq!(rows[0][0], Value::Int(20)); // bob
    let rows = db
        .execute("select count(*) from emp where name not like '%a%'")
        .unwrap();
    assert_eq!(rows[0][0], Value::Int(40)); // bob, erin
}

#[test]
fn like_matcher_unit_cases() {
    assert!(like_match("hello", "hello"));
    assert!(like_match("hello", "h%"));
    assert!(like_match("hello", "%llo"));
    assert!(like_match("hello", "%ell%"));
    assert!(like_match("hello", "h_llo"));
    assert!(like_match("hello", "%"));
    assert!(like_match("", "%"));
    assert!(!like_match("", "_"));
    assert!(!like_match("hello", "h_lo"));
    assert!(!like_match("hello", "hello_"));
    assert!(like_match("a%b", "a%b")); // literal traversal via backtracking
    assert!(like_match("abc", "%%c"));
    assert!(like_match("ababab", "%abab"));
    assert!(!like_match("ababab", "abab"));
}

#[test]
fn exists_in_larger_query_with_group_by() {
    let db = db();
    let rows = db
        .execute(
            "select dept, count(*) c from emp e where exists \
             (select * from dept d where d.id = e.dept) \
             group by dept order by dept",
        )
        .unwrap();
    assert_eq!(rows.len(), 5);
}

#[test]
fn distinct_under_installments_matches_oneshot() {
    let db = db();
    let sql = "select distinct name from emp order by name";
    let oneshot = db.execute(sql).unwrap();
    let p = db.prepare(sql).unwrap();
    let mut cur = p.open().unwrap();
    while !cur.run(5).unwrap().finished {}
    assert_eq!(cur.rows(), &oneshot[..]);
    assert_eq!(oneshot.len(), 5);
}

#[test]
fn two_level_nested_correlated_subqueries() {
    // Employees in departments where some colleague in the same department
    // earns more than that department's average — requires the inner-inner
    // subquery to correlate with the middle subquery's alias.
    let db = db();
    let rows = db
        .execute(
            "select count(*) from emp e where exists \
             (select * from emp c where c.dept = e.dept and c.salary > \
              (select sum(x.salary)/count(*) from emp x where x.dept = c.dept))",
        )
        .unwrap();
    // Reference computation.
    let salary = |i: i64| 1000 + 100 * (i % 10);
    let mut expected = 0i64;
    for i in 0..100i64 {
        let dept = i % 7;
        let members: Vec<i64> = (0..100).filter(|j| j % 7 == dept).collect();
        let avg = members.iter().map(|j| salary(*j)).sum::<i64>() as f64 / members.len() as f64;
        if members.iter().any(|j| (salary(*j) as f64) > avg) {
            expected += 1;
        }
    }
    assert_eq!(rows[0][0], Value::Int(expected));
}

#[test]
fn uncorrelated_scalar_subquery_in_where() {
    let db = db();
    let rows = db
        .execute("select count(*) from emp where salary > (select sum(salary)/count(*) from emp)")
        .unwrap();
    let salary = |i: i64| 1000 + 100 * (i % 10);
    let avg = (0..100i64).map(salary).sum::<i64>() as f64 / 100.0;
    let expected = (0..100i64).filter(|i| salary(*i) as f64 > avg).count() as i64;
    assert_eq!(rows[0][0], Value::Int(expected));
}

#[test]
fn count_distinct_and_sum_distinct() {
    let db = db();
    let rows = db
        .execute("select count(distinct dept), count(dept), sum(distinct salary) from emp")
        .unwrap();
    assert_eq!(rows[0][0], Value::Int(7));
    assert_eq!(rows[0][1], Value::Int(100));
    // Salaries are 1000..1900 step 100: distinct sum = 14500.
    assert_eq!(
        rows[0][2],
        Value::Int((0..10).map(|i| 1000 + 100 * i).sum())
    );
}

/// `sum(x) group by g` over a table whose groups hold `groups[g]`, scanned
/// in that order (a `Float` column keeps the `Int` tag of an `Int` value).
fn sums(groups: &[&[Value]]) -> Vec<Value> {
    let mut db = Database::new();
    let schema = Schema::from_pairs(&[("g", ColumnType::Int), ("x", ColumnType::Float)]);
    db.create_table("nums", schema.unwrap()).unwrap();
    let rows: Vec<Vec<Value>> = groups
        .iter()
        .enumerate()
        .flat_map(|(g, xs)| {
            xs.iter()
                .map(move |x| vec![Value::Int(g as i64), x.clone()])
        })
        .collect();
    db.insert("nums", &rows).unwrap();
    db.analyze("nums").unwrap();
    db.execute("select g, sum(x) from nums group by g order by g")
        .unwrap()
        .into_iter()
        .map(|r| r[1].clone())
        .collect()
}

#[test]
fn integer_sum_is_exact_past_2_pow_53() {
    let big = 1i64 << 53;
    // Summed as f64, 2^53 + 1 rounds back to 2^53.
    assert_eq!(
        sums(&[&[Value::Int(big), Value::Int(1)]]),
        [Value::Int(big + 1)]
    );
}

#[test]
fn integer_sum_overflowing_i64_turns_float() {
    let max = Value::Int(i64::MAX);
    let got = sums(&[
        // The running total leaves i64 and comes back: still exact.
        &[max.clone(), Value::Int(1), Value::Int(-1)],
        // It ends outside i64: the exact total, rounded once.
        &[max.clone(), max],
    ]);
    assert_eq!(
        got,
        [Value::Int(i64::MAX), Value::Float(2.0 * i64::MAX as f64)]
    );
}

#[test]
fn mixed_sum_keeps_its_float_value() {
    let got = sums(&[
        &[
            Value::Int(3),
            Value::Int(4),
            Value::Float(0.25),
            Value::Int(5),
        ],
        &[Value::Float(-0.0), Value::Int(2)],
        &[Value::Float(-0.0)],
        &[Value::Null, Value::Int(7)],
        &[Value::Null],
    ]);
    // Left-to-right f64 addition from 0.0, as before the exact Int total.
    assert_eq!(
        got,
        [
            Value::Float(((0.0 + 3.0 + 4.0) + 0.25) + 5.0),
            Value::Float((0.0 + -0.0) + 2.0),
            Value::Float(0.0 + -0.0),
            Value::Int(7),
            Value::Null,
        ]
    );
    // A literal 0.0 + -0.0 is +0.0: the sign of a lone -0.0 is not kept.
    assert!(matches!(got[2], Value::Float(f) if f.is_sign_positive()));
}

#[test]
fn count_distinct_per_group() {
    let db = db();
    let rows = db
        .execute("select dept, count(distinct name) from emp group by dept order by dept")
        .unwrap();
    assert_eq!(rows.len(), 7);
    // Reference: distinct names per dept.
    let names = ["alice", "bob", "carol", "dave", "erin"];
    for (d, row) in rows.iter().enumerate() {
        let mut set = std::collections::HashSet::new();
        for i in 0..100i64 {
            if i % 7 == d as i64 {
                set.insert(names[(i % 5) as usize]);
            }
        }
        assert_eq!(row[1], Value::Int(set.len() as i64), "dept {d}");
    }
}

#[test]
fn scalar_functions_work_in_queries() {
    let db = db();
    let rows = db
        .execute(
            "select upper(name), length(name), round(salary / 3), \
             coalesce(null, null, name) from emp where id = 0",
        )
        .unwrap();
    assert_eq!(rows[0][0], Value::str("ALICE"));
    assert_eq!(rows[0][1], Value::Int(5));
    assert_eq!(rows[0][2], Value::Float(333.0));
    assert_eq!(rows[0][3], Value::str("alice"));
    // Functions usable in predicates too.
    let n = db
        .execute("select count(*) from emp where length(name) = 3")
        .unwrap();
    assert_eq!(n[0][0], Value::Int(20)); // bob
                                         // And NULL propagation.
    let z = db
        .execute("select coalesce(null, 7) from emp where id = 0")
        .unwrap();
    assert_eq!(z[0][0], Value::Int(7));
}

#[test]
fn scalar_function_arity_is_validated_at_plan_time() {
    let db = db();
    // Zero-arg call must be a plan error, not an executor panic.
    assert!(db.execute("select length() from emp").is_err());
    assert!(db.execute("select abs(1, 2) from emp").is_err());
    assert!(db.execute("select coalesce() from emp").is_err());
    assert!(db.execute("select upper(name, name) from emp").is_err());
}

#[test]
fn round_of_extreme_floats_does_not_saturate() {
    let db = db();
    let rows = db
        .execute("select round(1e300), round(2.5), round(-2.5) from emp where id = 0")
        .unwrap();
    // round(double) stays double (PostgreSQL semantics); 1e300 survives.
    assert_eq!(rows[0][0], Value::Float(1e300));
    assert_eq!(rows[0][1], Value::Float(3.0));
    assert_eq!(rows[0][2], Value::Float(-3.0));
}

#[test]
fn aggregate_inside_like_in_having_is_planned() {
    let db = db();
    let rows = db
        .execute(
            "select dept, min(name) m from emp group by dept \
             having min(name) like 'a%' order by dept",
        )
        .unwrap();
    // alice is the minimum name in every dept that contains her (i%5==0
    // members); every dept of 0..6 has an id ≡ 0 (mod 5) member.
    assert_eq!(rows.len(), 7);
    for r in &rows {
        assert_eq!(r[1], Value::str("alice"));
    }
}

#[test]
fn ambiguous_order_by_is_rejected() {
    let db = db();
    // Two output columns named `dept` — ORDER BY dept must error, not
    // silently pick the first.
    let r = db.execute("select dept, dept from emp order by dept");
    assert!(r.is_err(), "expected ambiguity error, got {r:?}");
}

/// A query block reads one table: each way of naming a second one is a
/// parse error, not a panic and not a plan over one of the two.
fn assert_refused(sql: &str) {
    let r = db().prepare(sql).map(|p| p.explain());
    assert!(matches!(r, Err(EngineError::Parse(_))), "{sql}: {r:?}");
}

#[test]
fn comma_from_is_refused() {
    assert_refused("select count(*) from emp e, dept d where e.dept = d.id");
    assert_refused("select * from emp, emp");
}

#[test]
fn join_on_is_refused() {
    assert_refused("select e.name, d.dname from emp e join dept d on e.dept = d.id");
    assert_refused("select * from emp e inner join dept d on e.dept = d.id");
}

#[test]
fn subquery_naming_two_tables_is_refused() {
    assert_refused(
        "select count(*) from emp e where exists \
         (select * from dept d, emp c where d.id = e.dept and c.dept = d.id)",
    );
    assert_refused(
        "select name from emp e where e.salary > \
         (select avg(c.salary) from emp c join dept d on c.dept = d.id where c.dept = e.dept)",
    );
}

/// A subquery may name columns of its own block and of its immediate
/// parent, not of a block further out: the grandparent's `p.partkey` in the
/// innermost block is a plan error.
#[test]
fn grandparent_correlation_is_refused() {
    let mut db = Database::new();
    for t in ["part_s1", "lineitem"] {
        db.create_table(
            t,
            Schema::from_pairs(&[("partkey", ColumnType::Int)]).unwrap(),
        )
        .unwrap();
        db.insert(t, &[vec![Value::Int(1)]]).unwrap();
    }
    let r = db
        .prepare(
            "select count(*) from part_s1 p where exists \
             (select * from lineitem l where l.partkey = p.partkey and exists \
              (select * from lineitem l2 where l2.partkey = p.partkey))",
        )
        .map(|p| p.explain());
    assert_eq!(
        r,
        Err(EngineError::plan("unresolved column 'p.partkey'")),
        "{r:?}"
    );
}

fn keyed_table() -> Database {
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::from_pairs(&[
            ("k", ColumnType::Int),
            ("price", ColumnType::Float),
            ("name", ColumnType::Str),
        ])
        .unwrap(),
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..6000)
        .map(|i| {
            let k = if i % 4 == 0 {
                Value::Null
            } else {
                Value::Int(i % 500)
            };
            vec![k, Value::Float(i as f64 / 4.0), Value::str(format!("n{i}"))]
        })
        .collect();
    db.insert("t", &rows).unwrap();
    db
}

/// An index key is an `Int`: indexing a `Str` or a `Float` column is a
/// catalog error that leaves the table without an index.
#[test]
fn index_on_a_non_int_column_is_a_catalog_error() {
    let mut db = keyed_table();
    for col in ["name", "price"] {
        let r = db.create_index("t", col);
        assert!(matches!(r, Err(EngineError::Catalog(_))), "{col}: {r:?}");
    }
    assert!(db.table("t").unwrap().indexes.is_empty());
    db.create_index("t", "k").unwrap();
}

/// A `-0.0` probe finds key 0: SQL has `-0.0 = 0`, and the index scans
/// that replace the filter answer as the sequential scan does, for an
/// equality and at a range's upper end.
#[test]
fn minus_zero_probes_find_key_zero() {
    // Rows of ~3 KB, two to a page, so that a range with the planner's
    // default selectivity (the bound `-0.0` is not a literal) is still
    // cheaper through the index than by a sequential scan.
    let table = || {
        let mut db = Database::new();
        let schema = Schema::from_pairs(&[("k", ColumnType::Int), ("pad", ColumnType::Str)]);
        db.create_table("t", schema.unwrap()).unwrap();
        let rows: Vec<Vec<Value>> = (0..1500)
            .map(|i| vec![Value::Int(i % 500 - 2), Value::str("x".repeat(3000))])
            .collect();
        db.insert("t", &rows).unwrap();
        db
    };
    let plain = table();
    let mut db = table();
    db.create_index("t", "k").unwrap();
    db.analyze("t").unwrap();
    for sql in [
        "select count(*) from t where k = -0.0",
        "select count(*) from t where k <= -0.0",
        "select count(*) from t where k < -0.0",
    ] {
        let explain = db.prepare(sql).unwrap().explain();
        assert!(explain.contains("IndexScan"), "{sql}: {explain}");
        assert_eq!(
            db.execute(sql).unwrap(),
            plain.execute(sql).unwrap(),
            "{sql}"
        );
    }
    assert_eq!(
        db.execute("select count(*) from t where k = -0.0").unwrap(),
        vec![vec![Value::Int(3)]]
    );
    assert_eq!(
        db.execute("select count(*) from t where k <= -0.0")
            .unwrap(),
        vec![vec![Value::Int(9)]]
    );
}

/// Rows whose key is NULL are not entered, whether the index is built over
/// them or they arrive after it; the index answers equality and ranges as
/// the sequential scan does.
#[test]
fn null_keys_are_not_indexed() {
    let late = [
        vec![Value::Null, Value::Float(0.5), Value::str("late")],
        vec![Value::Int(7), Value::Float(0.5), Value::str("late")],
    ];
    let mut plain = keyed_table();
    plain.insert("t", &late).unwrap();
    let mut db = keyed_table();
    db.create_index("t", "k").unwrap();
    db.insert("t", &late).unwrap();
    db.analyze("t").unwrap();
    let tree = &db.table("t").unwrap().indexes[0].tree;
    assert_eq!(tree.entry_count(), 4501);
    for sql in [
        "select count(*), sum(price) from t where k = 7",
        "select count(*), sum(price) from t where k between 10 and 12",
        "select count(*), sum(price) from t where k < 3",
        "select count(*) from t where k = 7.0",
        "select count(*) from t where k is null",
    ] {
        assert_eq!(
            db.execute(sql).unwrap(),
            plain.execute(sql).unwrap(),
            "{sql}"
        );
    }
    let explain = db
        .prepare("select count(*) from t where k = 7")
        .unwrap()
        .explain();
    assert!(explain.contains("IndexScan"), "{explain}");
}
