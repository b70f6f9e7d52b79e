//! Plan-shape tests: assert the planner's access-path decisions directly (the executor tests elsewhere check *results*; these
//! check *plans*).

// Test code: unwrap/expect on known-good fixtures is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mqpi_engine::plan::physical::{PhysExpr, PlanNode, PlanOp};
use mqpi_engine::{ColumnType, Database, Schema, Value};
use mqpi_workload::{TpcrConfig, TpcrDb};

/// A database where index-vs-scan tradeoffs are visible: `big` (50k rows,
/// indexed key with ~25 dups, indexed unique id) and `small` (100 rows).
/// Built once (debug-mode builds are slow) and shared.
fn db() -> &'static Database {
    static DB: std::sync::OnceLock<Database> = std::sync::OnceLock::new();
    DB.get_or_init(build_db)
}

fn build_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        "big",
        Schema::from_pairs(&[
            ("id", ColumnType::Int),
            ("key", ColumnType::Int),
            ("payload", ColumnType::Str),
        ])
        .unwrap(),
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..50_000)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 2_000),
                Value::str("x".repeat(40)),
            ]
        })
        .collect();
    db.insert("big", &rows).unwrap();
    db.create_index("big", "key").unwrap();
    db.create_index("big", "id").unwrap();
    db.analyze("big").unwrap();

    db.create_table(
        "small",
        Schema::from_pairs(&[("key", ColumnType::Int), ("name", ColumnType::Str)]).unwrap(),
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..100)
        .map(|i| vec![Value::Int(i * 20), Value::str(format!("n{i}"))])
        .collect();
    db.insert("small", &rows).unwrap();
    db.analyze("small").unwrap();
    db
}

fn ops(node: &PlanNode) -> Vec<&'static str> {
    fn name(op: &PlanOp) -> &'static str {
        match op {
            PlanOp::SeqScan { .. } => "SeqScan",
            PlanOp::IndexScanEq { .. } => "IndexScanEq",
            PlanOp::IndexScanRange { .. } => "IndexScanRange",
            PlanOp::Filter { .. } => "Filter",
            PlanOp::Project { .. } => "Project",
            PlanOp::Sort { .. } => "Sort",
            PlanOp::Aggregate { .. } => "Aggregate",
            PlanOp::Limit { .. } => "Limit",
            PlanOp::Distinct { .. } => "Distinct",
        }
    }
    let mut out = Vec::new();
    fn rec(n: &PlanNode, out: &mut Vec<&'static str>) {
        out.push(name(&n.op));
        for c in n.children() {
            rec(c, out);
        }
    }
    rec(node, &mut out);
    out
}

fn plan_of(db: &Database, sql: &str) -> PlanNode {
    db.prepare(sql).unwrap().plan.root.clone()
}

/// The first subquery plan inside a `Filter` predicate of the tree.
fn find_subplan(n: &PlanNode) -> Option<&PlanNode> {
    fn in_expr(e: &PhysExpr) -> Option<&PlanNode> {
        match e {
            PhysExpr::Subquery { plan, .. }
            | PhysExpr::Exists { plan, .. }
            | PhysExpr::InSubquery { plan, .. } => Some(plan),
            PhysExpr::Unary { expr, .. } | PhysExpr::Like { expr, .. } => in_expr(expr),
            PhysExpr::Binary { left, right, .. } => in_expr(left).or_else(|| in_expr(right)),
            PhysExpr::Scalar { args, .. } => args.iter().find_map(in_expr),
            _ => None,
        }
    }
    if let PlanOp::Filter { pred, .. } = &n.op {
        if let Some(sp) = in_expr(pred) {
            return Some(sp);
        }
    }
    n.children().into_iter().find_map(find_subplan)
}

#[test]
fn selective_equality_uses_index() {
    let db = db();
    let p = plan_of(db, "select * from big where id = 123");
    assert!(ops(&p).contains(&"IndexScanEq"), "{}", p.explain());
    // An equality probe is exact: no residual filter needed.
    assert!(!ops(&p).contains(&"Filter"), "{}", p.explain());
}

#[test]
fn range_predicate_uses_index_with_residual_filter() {
    let db = db();
    let p = plan_of(db, "select * from big where id < 50");
    let o = ops(&p);
    assert!(o.contains(&"IndexScanRange"), "{}", p.explain());
    // Range scans keep the original predicate as a residual (strict bound).
    assert!(o.contains(&"Filter"), "{}", p.explain());
}

#[test]
fn non_selective_range_prefers_seq_scan() {
    let db = db();
    // id < 49000 matches 98% of rows: probing the index + heap fetch per
    // row is far worse than scanning.
    let p = plan_of(db, "select * from big where id < 49000");
    assert!(ops(&p).contains(&"SeqScan"), "{}", p.explain());
}

#[test]
fn unindexed_predicate_is_a_filtered_scan() {
    let db = db();
    let p = plan_of(db, "select * from big where payload = 'zzz'");
    let o = ops(&p);
    assert!(
        o.contains(&"SeqScan") && o.contains(&"Filter"),
        "{}",
        p.explain()
    );
}

#[test]
fn aggregate_sort_limit_stack_in_order() {
    let db = db();
    let p = plan_of(
        db,
        "select key, count(*) c from big group by key order by c desc limit 5",
    );
    let o = ops(&p);
    let pos = |name: &str| o.iter().position(|x| *x == name).unwrap();
    assert!(pos("Limit") < pos("Sort"), "{}", p.explain());
    assert!(pos("Sort") < pos("Project"), "{}", p.explain());
    assert!(pos("Project") < pos("Aggregate"), "{}", p.explain());
}

#[test]
fn distinct_node_appears_for_select_distinct() {
    let db = db();
    let p = plan_of(db, "select distinct key from big");
    assert!(ops(&p).contains(&"Distinct"), "{}", p.explain());
}

#[test]
fn correlated_subquery_plans_index_probe_inside_filter() {
    let db = db();
    let p = plan_of(
        db,
        "select * from small s where 1 < \
         (select count(*) from big b where b.key = s.key)",
    );
    // The outer plan is a filtered scan of `small`…
    let o = ops(&p);
    assert!(o.contains(&"Filter"), "{}", p.explain());
    // …whose predicate holds a subplan probing big's index.
    let sub = find_subplan(&p).expect("subplan present");
    assert!(ops(sub).contains(&"IndexScanEq"), "{}", sub.explain());
}

#[test]
fn estimates_are_populated_and_monotone() {
    let db = db();
    let p = plan_of(
        db,
        "select key, count(*) from big where id < 1000 group by key",
    );
    // Cumulative cost grows from leaves to root.
    fn check(n: &PlanNode) {
        for c in n.children() {
            assert!(
                n.est.cost >= c.est.cost - 1e-9,
                "parent cost {} < child cost {}",
                n.est.cost,
                c.est.cost
            );
            check(c);
        }
        assert!(n.est.rows >= 0.0);
    }
    check(&p);
}

/// The paper's `Q_k` (§5.1) over every size class of the small TPC-R
/// database, once under the 20 % sample statistics the experiments and
/// `paper_claims` use and once under a full `analyze` of `lineitem`: a
/// sequential scan of `part_s<k>` under a filter whose scalar subquery
/// aggregates an equality probe of `lineitem`'s `partkey` index. Every
/// campaign and the `sql_pipeline` benchmark run this plan and no other.
#[test]
fn paper_query_plans_one_shape_at_every_size_class() {
    let mut tpcr = TpcrDb::build(TpcrConfig {
        lineitem_rows: 24_000,
        analyze_fraction: 0.2,
        max_size: 50,
        ..TpcrConfig::default()
    })
    .unwrap();
    let mut checked = 0;
    for stats in ["analyze_sampled(0.2)", "analyze"] {
        if stats == "analyze" {
            tpcr.db.analyze("lineitem").unwrap();
        }
        for k in 1..=tpcr.config.max_size {
            let p = plan_of(&tpcr.db, &tpcr.query_sql(k));
            let what = format!("Q_{k} under {stats}:\n{}", p.explain());
            assert_eq!(ops(&p), ["Filter", "SeqScan"], "{what}");
            let PlanOp::SeqScan { table, .. } = &p.children()[0].op else {
                unreachable!()
            };
            assert_eq!(*table, format!("part_s{k}"), "{what}");
            let sub = find_subplan(&p).expect("the filter holds the subquery");
            assert_eq!(
                ops(sub),
                ["Project", "Aggregate", "IndexScanEq"],
                "{what}{}",
                sub.explain()
            );
            let probe = &sub.children()[0].children()[0].op;
            let PlanOp::IndexScanEq { table, column, .. } = probe else {
                unreachable!()
            };
            assert_eq!((table.as_str(), *column), ("lineitem", 0), "{what}");
            checked += 1;
        }
    }
    assert_eq!(checked, 100);
}
