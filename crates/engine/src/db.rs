//! The `Database` facade: catalog, loading, ANALYZE, prepare, and resumable
//! cursors.
//!
//! Lifecycle: create tables, insert rows, create indexes, `analyze` (with an
//! optional sampling fraction that controls how precise optimizer statistics
//! are), then `prepare` queries. A [`Cursor`] executes a prepared query in
//! work-unit installments via [`Cursor::run`], which is how the simulator
//! interleaves many queries under weighted fair sharing.
//!
//! ```
//! use mqpi_engine::{ColumnType, Database, Schema, Value};
//!
//! let mut db = Database::new();
//! db.create_table(
//!     "t",
//!     Schema::from_pairs(&[("k", ColumnType::Int), ("v", ColumnType::Int)])?,
//! )?;
//! let rows: Vec<Vec<Value>> = (0..1000)
//!     .map(|i| vec![Value::Int(i % 10), Value::Int(i)])
//!     .collect();
//! db.insert("t", &rows)?;
//! db.analyze("t")?;
//!
//! // One-shot execution…
//! let out = db.execute("select k, count(*) from t group by k order by k")?;
//! assert_eq!(out.len(), 10);
//!
//! // …or resumable installments with live progress.
//! let prepared = db.prepare("select sum(v) from t where k < 5")?;
//! let mut cur = prepared.open()?;
//! while !cur.run(8)?.finished {
//!     let p = cur.progress();
//!     assert!(p.fraction_done() <= 1.0);
//! }
//! assert_eq!(cur.rows()[0][0], Value::Int((0..1000).filter(|i| i % 10 < 5).sum()));
//! # Ok::<(), mqpi_engine::EngineError>(())
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::btree::{BTreeIndex, DEFAULT_INTERNAL_CAP, DEFAULT_LEAF_CAP};
use crate::error::{EngineError, Result};
use crate::exec::progress::ProgressSnapshot;
use crate::exec::{build, ExecContext, Operator, Step, TableSet};
use crate::heap::{HeapFile, ScanState};
use crate::meter::WorkMeter;
use crate::plan::cost::IndexMeta;
use crate::plan::planner::{plan_query, PlannedQuery};
use crate::schema::{ColumnType, Schema};
use crate::sql::parse_query;
use crate::stats::TableStats;
use crate::tuple::{ColumnMask, Tuple};
use crate::value::Value;

/// A secondary index over one column.
pub struct IndexDef {
    /// Column ordinal the index covers.
    pub column: usize,
    /// The B+-tree.
    pub tree: BTreeIndex,
}

/// A table: schema, heap storage, indexes, and statistics.
pub struct Table {
    /// Table name.
    pub name: String,
    /// Schema.
    pub schema: Schema,
    /// Row storage.
    pub heap: HeapFile,
    /// Secondary indexes.
    pub indexes: Vec<IndexDef>,
    /// Optimizer statistics (defaults to physical counts before ANALYZE).
    pub stats: TableStats,
}

impl Table {
    /// The index on `column`, if any.
    pub fn index_on(&self, column: usize) -> Option<&IndexDef> {
        self.indexes.iter().find(|i| i.column == column)
    }

    /// Cost-model metadata for the index on `column`.
    pub fn index_meta(&self, column: usize) -> Option<IndexMeta> {
        self.index_on(column).map(|i| IndexMeta {
            height: i.tree.height(),
            entries_per_leaf: if i.tree.leaf_count() > 0 {
                i.tree.entry_count() as f64 / i.tree.leaf_count() as f64
            } else {
                1.0
            },
        })
    }
}

/// An in-memory database instance.
#[derive(Default)]
pub struct Database {
    tables: BTreeMap<String, Arc<Table>>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty table.
    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) -> Result<()> {
        let name = name.into().to_ascii_lowercase();
        if self.tables.contains_key(&name) {
            return Err(EngineError::catalog(format!(
                "table '{name}' already exists"
            )));
        }
        let stats = TableStats {
            row_count: 0,
            page_count: 0,
            columns: vec![Default::default(); schema.len()],
        };
        self.tables.insert(
            name.clone(),
            Arc::new(Table {
                name,
                schema,
                heap: HeapFile::new(),
                indexes: Vec::new(),
                stats,
            }),
        );
        Ok(())
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        let lname = name.to_ascii_lowercase();
        let arc = self
            .tables
            .get_mut(&lname)
            .ok_or_else(|| EngineError::catalog(format!("no table '{name}'")))?;
        Arc::get_mut(arc).ok_or_else(|| {
            EngineError::catalog(format!(
                "table '{name}' is in use by an open cursor and cannot be modified"
            ))
        })
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Arc<Table>> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| EngineError::catalog(format!("no table '{name}'")))
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Insert rows; maintains any existing indexes and physical counts.
    /// The whole batch is checked before any row is written, so a batch
    /// with a bad row fails and leaves the table as it was.
    pub fn insert(&mut self, name: &str, rows: &[Vec<Value>]) -> Result<()> {
        let t = self.table_mut(name)?;
        for row in rows {
            t.schema.check_row(row)?;
            HeapFile::check_fits(row)?;
        }
        for row in rows {
            let rid = t.heap.insert(row)?;
            for idx in &mut t.indexes {
                // A NULL key is not entered (see `btree`).
                if let Value::Int(k) = row[idx.column] {
                    idx.tree.insert(k, rid);
                }
            }
        }
        t.stats.row_count = t.heap.row_count();
        t.stats.page_count = t.heap.page_count();
        Ok(())
    }

    /// Build a B+-tree index on the `Int` column `column_name` (bulk-loaded
    /// from the heap); any other column type is a catalog error. The scan
    /// decodes only the key column (every column is still checked), and
    /// rows whose key is NULL are not entered.
    pub fn create_index(&mut self, table: &str, column_name: &str) -> Result<()> {
        let t = self.table_mut(table)?;
        let column = t.schema.index_of(column_name)?;
        if t.index_on(column).is_some() {
            return Err(EngineError::catalog(format!(
                "index on {table}.{column_name} already exists"
            )));
        }
        let ty = t.schema.column(column).ty;
        if ty != ColumnType::Int {
            return Err(EngineError::catalog(format!(
                "cannot index {table}.{column_name}: an index key must be Int, not {ty:?}"
            )));
        }
        // Index build uses a scratch meter: maintenance work is not charged
        // to any query.
        let scratch = WorkMeter::new();
        let mut st = ScanState::new();
        let mut key_only = ColumnMask::NONE;
        key_only.insert(column);
        let mut entries = Vec::with_capacity(t.heap.row_count() as usize);
        let mut row = Tuple::new();
        while let Some(rid) = t.heap.scan_next(&mut st, &scratch, key_only, &mut row)? {
            if let Value::Int(k) = row[column] {
                entries.push((k, rid));
            }
        }
        // Rids are unique, so no two entries compare equal and the
        // in-place unstable sort gives the stable sort's order, without
        // its scratch buffer the size of the input.
        entries.sort_unstable();
        let tree = BTreeIndex::bulk_load(&entries, DEFAULT_LEAF_CAP, DEFAULT_INTERNAL_CAP)?;
        t.indexes.push(IndexDef { column, tree });
        Ok(())
    }

    /// Recompute statistics from a full scan (exact row counts, NDV, and
    /// histograms).
    pub fn analyze(&mut self, table: &str) -> Result<()> {
        self.analyze_sampled(table, 1.0)
    }

    /// Recompute statistics from a deterministic sample of roughly
    /// `fraction` of the rows. Smaller fractions give less precise NDV and
    /// histogram estimates — the knob that reproduces the paper's "imprecise
    /// statistics collected by PostgreSQL".
    pub fn analyze_sampled(&mut self, table: &str, fraction: f64) -> Result<()> {
        if !(0.0..=1.0).contains(&fraction) || fraction == 0.0 {
            return Err(EngineError::catalog(format!(
                "sample fraction must be in (0, 1], got {fraction}"
            )));
        }
        let t = self.table_mut(table)?;
        let stride = (1.0 / fraction).round().max(1.0) as u64;
        let scratch = WorkMeter::new();
        let mut st = ScanState::new();
        let mut sample = Vec::with_capacity(t.heap.row_count().div_ceil(stride) as usize);
        let mut i = 0u64;
        let mut row = Tuple::new();
        // Every row is decoded, and so checked; only sampled rows are
        // materialised.
        let sampled = |i: u64| i.is_multiple_of(stride);
        let mask = |i| {
            if sampled(i) {
                ColumnMask::ALL
            } else {
                ColumnMask::NONE
            }
        };
        while t
            .heap
            .scan_next(&mut st, &scratch, mask(i), &mut row)?
            .is_some()
        {
            if sampled(i) {
                sample.push(std::mem::take(&mut row));
            }
            i += 1;
        }
        t.stats = TableStats::from_sample(
            t.schema.len(),
            &sample,
            t.heap.row_count(),
            t.heap.page_count(),
        );
        Ok(())
    }

    /// Parse and plan a query.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let ast = parse_query(sql)?;
        let plan = plan_query(self, &ast)?;
        Ok(Prepared {
            sql: sql.to_owned(),
            est_cost: plan.root.est.cost,
            plan,
        })
    }

    /// Convenience: prepare, run to completion, return all rows.
    pub fn execute(&self, sql: &str) -> Result<Vec<Tuple>> {
        let prepared = self.prepare(sql)?;
        let mut cur = prepared.open()?;
        cur.run_to_completion()?;
        Ok(cur.take_rows())
    }
}

/// A planned query ready to open cursors.
pub struct Prepared {
    /// Original SQL text.
    pub sql: String,
    /// The physical plan with catalog snapshot.
    pub plan: PlannedQuery,
    /// Optimizer total cost estimate in work units.
    pub est_cost: f64,
}

impl Prepared {
    /// Output column names.
    pub fn columns(&self) -> &[String] {
        &self.plan.columns
    }

    /// EXPLAIN-style plan rendering.
    pub fn explain(&self) -> String {
        self.plan.root.explain()
    }

    /// Open a fresh cursor over this plan.
    pub fn open(&self) -> Result<Cursor> {
        let tables: Arc<TableSet> = Arc::new(self.plan.tables.clone());
        let root = build(&self.plan.root, &tables)?;
        Ok(Cursor {
            root,
            ctx: ExecContext::new(tables),
            initial_estimate: self.est_cost,
            finished: false,
            rows: Vec::new(),
            row: Tuple::new(),
            page_fault_armed: false,
        })
    }
}

/// Result of one [`Cursor::run`] installment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Units actually consumed by this call (may slightly exceed the budget:
    /// the final tuple's work completes even if it overruns).
    pub used: u64,
    /// Whether the query has completed.
    pub finished: bool,
}

/// A resumable execution of a prepared query.
pub struct Cursor {
    root: Box<dyn Operator>,
    ctx: ExecContext,
    initial_estimate: f64,
    finished: bool,
    rows: Vec<Tuple>,
    /// The buffer the root's rows are pulled into.
    row: Tuple,
    /// When set, the next non-trivial `run` installment fails with a
    /// storage error (deterministic fault-injection hook).
    page_fault_armed: bool,
}

impl Cursor {
    /// Arm a simulated page-read fault: the next `run` installment returns
    /// `EngineError::Storage` instead of doing work, exactly once. The
    /// cursor stays usable afterwards — callers decide whether to abort,
    /// retry, or resume. This is how the fault-injection layer models I/O
    /// failures without panicking inside operators.
    pub fn arm_page_fault(&mut self) {
        self.page_fault_armed = true;
    }

    /// Install an observability handle: every subsequent [`Cursor::run`]
    /// installment records profiling spans (`engine.cursor.run` plus the
    /// root operator's tag) measured in meter work units, and mirrors the
    /// meter into the handle's metrics. A disabled handle (the default)
    /// costs one branch per installment.
    pub fn set_obs(&mut self, obs: mqpi_obs::Obs) {
        self.ctx.obs = obs;
    }

    /// Run until roughly `budget` more work units are consumed or the query
    /// finishes. A budget of 0 does nothing. Execution suspends *inside*
    /// operators (including mid-materialization of sorts, hash builds, and
    /// aggregations), so a single installment never exceeds the budget by
    /// more than one tuple's (or one subquery invocation's) worth of work.
    pub fn run(&mut self, budget: u64) -> Result<RunOutcome> {
        let start = self.ctx.meter.used();
        if self.finished || budget == 0 {
            return Ok(RunOutcome {
                used: 0,
                finished: self.finished,
            });
        }
        if self.page_fault_armed {
            self.page_fault_armed = false;
            return Err(EngineError::storage(
                "injected page-read fault (fault-injection hook)",
            ));
        }
        self.ctx.arm_budget(budget);
        let outcome = loop {
            match self.root.next(&self.ctx, &mut self.row) {
                Ok(Step::Row) => self.rows.push(std::mem::take(&mut self.row)),
                Ok(Step::Pending) => break Ok(()),
                Ok(Step::Done) => {
                    self.finished = true;
                    break Ok(());
                }
                Err(e) => break Err(e),
            }
        };
        self.ctx.disarm_budget();
        outcome?;
        let used = self.ctx.meter.used() - start;
        if self.ctx.obs.is_enabled() {
            let mut span = self.ctx.obs.span("engine.cursor.run");
            span.add_units(used as f64);
            drop(span);
            let mut op_span = self.ctx.obs.span(self.root.profile_tag());
            op_span.add_units(used as f64);
            drop(op_span);
            self.ctx.obs.counter_add("engine.meter.units", used);
            self.ctx.meter.observe_into(&self.ctx.obs, used);
        }
        Ok(RunOutcome {
            used,
            finished: self.finished,
        })
    }

    /// Run to completion; returns total units consumed by this call.
    pub fn run_to_completion(&mut self) -> Result<u64> {
        let start = self.ctx.meter.used();
        while !self.finished {
            self.run(u64::MAX)?;
        }
        Ok(self.ctx.meter.used() - start)
    }

    /// Whether the query has completed.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Total units consumed so far.
    pub fn units_used(&self) -> u64 {
        self.ctx.meter.used()
    }

    /// Current progress: exact work done, refined remaining estimate.
    pub fn progress(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            done: self.ctx.meter.used() as f64,
            remaining: if self.finished {
                0.0
            } else {
                self.root.remaining_units()
            },
            initial_estimate: self.initial_estimate,
            finished: self.finished,
        }
    }

    /// EXPLAIN-ANALYZE-style per-operator progress tree.
    pub fn progress_tree(&self) -> String {
        crate::exec::render_progress(self.root.as_ref())
    }

    /// Rows produced so far.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Take ownership of the produced rows.
    pub fn take_rows(&mut self) -> Vec<Tuple> {
        std::mem::take(&mut self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    /// The parallel experiment harness moves whole cursors into worker
    /// threads and shares a read-only `Database` between them.
    #[test]
    fn cursor_is_send_and_database_is_sync() {
        fn send<T: Send>() {}
        fn sync<T: Sync>() {}
        send::<Cursor>();
        sync::<Database>();
    }

    fn test_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "part",
            Schema::from_pairs(&[
                ("partkey", ColumnType::Int),
                ("retailprice", ColumnType::Float),
                ("name", ColumnType::Str),
            ])
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            "lineitem",
            Schema::from_pairs(&[
                ("partkey", ColumnType::Int),
                ("quantity", ColumnType::Int),
                ("extendedprice", ColumnType::Float),
            ])
            .unwrap(),
        )
        .unwrap();
        // 50 parts; each part k has k lineitems with price 10*k, qty 1.
        let parts: Vec<Vec<Value>> = (1..=50)
            .map(|k| {
                vec![
                    Value::Int(k),
                    Value::Float(k as f64),
                    Value::str(format!("part-{k}")),
                ]
            })
            .collect();
        db.insert("part", &parts).unwrap();
        let mut items = Vec::new();
        for k in 1..=50i64 {
            for _ in 0..k {
                items.push(vec![
                    Value::Int(k),
                    Value::Int(1),
                    Value::Float(10.0 * k as f64),
                ]);
            }
        }
        db.insert("lineitem", &items).unwrap();
        db.create_index("lineitem", "partkey").unwrap();
        db.analyze("part").unwrap();
        db.analyze("lineitem").unwrap();
        db
    }

    #[test]
    fn simple_select_star() {
        let db = test_db();
        let rows = db.execute("select * from part").unwrap();
        assert_eq!(rows.len(), 50);
        assert_eq!(rows[0][0], Value::Int(1));
    }

    #[test]
    fn where_filter_and_projection() {
        let db = test_db();
        let rows = db
            .execute("select name, retailprice * 2 from part where partkey <= 3")
            .unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], Value::str("part-1"));
        assert_eq!(rows[1][1], Value::Float(4.0));
    }

    #[test]
    fn aggregate_group_by_having_order() {
        let db = test_db();
        let rows = db
            .execute(
                "select partkey, count(*) c, sum(extendedprice) s from lineitem \
                 group by partkey having count(*) >= 48 order by partkey",
            )
            .unwrap();
        assert_eq!(rows.len(), 3); // partkeys 48, 49, 50
        assert_eq!(rows[0][0], Value::Int(48));
        assert_eq!(rows[0][1], Value::Int(48));
        assert_eq!(rows[0][2], Value::Float(480.0 * 48.0));
    }

    #[test]
    fn scalar_aggregate_over_empty_input_is_one_row() {
        let db = test_db();
        let rows = db
            .execute("select count(*), sum(quantity) from lineitem where partkey = 999")
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(0));
        assert_eq!(rows[0][1], Value::Null);
    }

    #[test]
    fn correlated_subquery_paper_shape() {
        let db = test_db();
        // avg price per unit for part k is 10k; retailprice is k, so
        // retailprice*20 > avg ⇔ 20k > 10k ⇔ always; retailprice*5 never.
        let all = db
            .execute(
                "select * from part p where p.retailprice*20 > \
                 (select sum(l.extendedprice)/sum(l.quantity) from lineitem l \
                  where l.partkey = p.partkey)",
            )
            .unwrap();
        assert_eq!(all.len(), 50);
        let none = db
            .execute(
                "select * from part p where p.retailprice*5 > \
                 (select sum(l.extendedprice)/sum(l.quantity) from lineitem l \
                  where l.partkey = p.partkey)",
            )
            .unwrap();
        assert_eq!(none.len(), 0);
    }

    #[test]
    fn order_by_desc_and_limit() {
        let db = test_db();
        let rows = db
            .execute("select partkey from part order by partkey desc limit 5")
            .unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0][0], Value::Int(50));
        assert_eq!(rows[4][0], Value::Int(46));
    }

    #[test]
    fn cursor_runs_in_installments_with_progress() {
        let db = test_db();
        let p = db
            .prepare(
                "select * from part p where p.retailprice*20 > \
                 (select sum(l.extendedprice)/sum(l.quantity) from lineitem l \
                  where l.partkey = p.partkey)",
            )
            .unwrap();
        assert!(p.est_cost > 0.0);
        let mut cur = p.open().unwrap();
        let p0 = cur.progress();
        assert_eq!(p0.done, 0.0);
        assert!(p0.remaining > 0.0);
        let mut steps = 0;
        loop {
            let out = cur.run(10).unwrap();
            steps += 1;
            if out.finished {
                break;
            }
            let pr = cur.progress();
            assert!(pr.done > 0.0);
            assert!(steps < 10_000, "query did not finish");
        }
        assert!(steps > 3, "expected multiple installments, got {steps}");
        let done = cur.progress();
        assert!(done.finished);
        assert_eq!(done.remaining, 0.0);
        assert_eq!(cur.rows().len(), 50);
    }

    #[test]
    fn remaining_estimate_converges_toward_truth() {
        let db = test_db();
        let sql = "select * from part p where p.retailprice*20 > \
                   (select sum(l.extendedprice)/sum(l.quantity) from lineitem l \
                    where l.partkey = p.partkey)";
        // Oracle: total actual cost.
        let total = {
            let mut c = db.prepare(sql).unwrap().open().unwrap();
            c.run_to_completion().unwrap() as f64
        };
        // Mid-flight estimate at ~50% done should be within 40% of truth.
        let mut c = db.prepare(sql).unwrap().open().unwrap();
        c.run((total / 2.0) as u64).unwrap();
        let pr = c.progress();
        let est_total = pr.done + pr.remaining;
        let err = (est_total - total).abs() / total;
        assert!(
            err < 0.4,
            "estimate {est_total} vs actual {total} (err {err})"
        );
    }

    #[test]
    fn insert_fails_while_cursor_open() {
        let mut db = test_db();
        let prepared = db.prepare("select * from part").unwrap();
        let _cur = prepared.open().unwrap();
        assert!(db
            .insert(
                "part",
                &[vec![Value::Int(51), Value::Float(1.0), Value::str("x")]]
            )
            .is_err());
        drop(_cur);
        drop(prepared);
        assert!(db
            .insert(
                "part",
                &[vec![Value::Int(51), Value::Float(1.0), Value::str("x")]]
            )
            .is_ok());
    }

    /// A batch with one bad row, last, writes nothing: not the rows before
    /// it, not their index entries, and the statistics stay those of the
    /// table as it was.
    #[test]
    fn failed_insert_leaves_the_table_unchanged() {
        let mut db = test_db();
        let counts = |db: &Database| {
            let t = db.table("lineitem").unwrap();
            (
                t.heap.row_count(),
                t.heap.page_count(),
                t.indexes[0].tree.entry_count(),
                t.stats.row_count,
                t.stats.page_count,
            )
        };
        let before = counts(&db);
        let good = |k: i64| vec![Value::Int(k), Value::Int(1), Value::Float(1.0)];
        let mut wrong_type: Vec<Vec<Value>> = (1..=400).map(good).collect();
        wrong_type.push(vec![Value::Int(1), Value::str("one"), Value::Float(1.0)]);
        let mut too_wide: Vec<Vec<Value>> = (1..=400).map(good).collect();
        too_wide.push(vec![
            Value::Int(1),
            Value::Int(1),
            Value::Float(1.0),
            Value::Null,
        ]);
        for batch in [&wrong_type, &too_wide] {
            assert!(db.insert("lineitem", batch).is_err());
            assert_eq!(counts(&db), before);
        }
        // A row no page can hold is refused before anything is written too.
        let part = db.table("part").unwrap().heap.row_count();
        let huge = vec![
            Value::Int(99),
            Value::Float(1.0),
            Value::str("x".repeat(9000)),
        ];
        let batch = [
            vec![Value::Int(98), Value::Float(1.0), Value::str("ok")],
            huge,
        ];
        assert!(db.insert("part", &batch).is_err());
        assert_eq!(db.table("part").unwrap().heap.row_count(), part);
        db.insert("part", &batch[..1]).unwrap();
        assert_eq!(db.table("part").unwrap().heap.row_count(), part + 1);
        // The old rows are all a query finds.
        let rows = db
            .execute("select count(*) from lineitem where partkey = 1")
            .unwrap();
        assert_eq!(rows[0][0], Value::Int(1));
        let rows = db.execute("select count(*) from lineitem").unwrap();
        assert_eq!(rows[0][0], Value::Int(before.0 as i64));
    }

    #[test]
    fn explain_mentions_plan_shape() {
        // On the small test_db tables a sequential scan legitimately beats
        // an index probe, so build a table where the index wins: 200 keys ×
        // 20 duplicates = 4000 rows, ~20 matches per probe.
        let mut db = test_db();
        db.create_table(
            "bigitem",
            Schema::from_pairs(&[("partkey", ColumnType::Int), ("v", ColumnType::Int)]).unwrap(),
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..4000)
            .map(|i| vec![Value::Int(i % 200), Value::Int(i)])
            .collect();
        db.insert("bigitem", &rows).unwrap();
        db.create_index("bigitem", "partkey").unwrap();
        db.analyze("bigitem").unwrap();
        let p = db
            .prepare("select count(*) from bigitem where partkey = 3")
            .unwrap();
        let text = p.explain();
        assert!(text.contains("Aggregate"), "{text}");
        assert!(text.contains("IndexScan"), "{text}");
        // And the scan choice flips to sequential without a usable index.
        let p2 = db
            .prepare("select count(*) from bigitem where v = 3")
            .unwrap();
        assert!(p2.explain().contains("SeqScan"), "{}", p2.explain());
    }

    #[test]
    fn errors_surface() {
        let db = test_db();
        assert!(db.execute("select * from nosuch").is_err());
        assert!(db.execute("select nosuchcol from part").is_err());
        assert!(db.execute("select frobnicate(partkey) from part").is_err());
    }
}
