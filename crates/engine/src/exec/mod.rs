//! Volcano-style execution with work accounting and progress refinement.
//!
//! Operators implement [`Operator`]: a pull-based `next` that writes each
//! row into a buffer the caller owns, plus two *refinement* methods used by
//! progress indicators — [`Operator::remaining_units`] (how much work this
//! subtree still needs, continuously refined from observed behaviour) and
//! [`Operator::remaining_rows`]. Work done is not attributed per-operator:
//! the shared [`WorkMeter`] records total units consumed by the query, and
//! the cursor reports `done = meter.used()`, `remaining =
//! root.remaining_units()`. This mirrors the paper's PI model, where a query
//! has a single refined remaining-cost number `c`.

pub mod agg;
pub mod eval;
pub mod filter;
pub mod join;
pub mod progress;
pub mod scan;
pub mod sort;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::db::Table;
use crate::error::{EngineError, Result};
use crate::meter::WorkMeter;
use crate::plan::physical::{PlanNode, PlanOp, SiteId};
use crate::tuple::Tuple;
use crate::value::Value;

/// Tables visible to an executing plan, keyed by table name.
pub type TableSet = BTreeMap<String, Arc<Table>>;

/// Execution context shared down an operator tree (and into subquery
/// invocations, which clone it with fresh params).
#[derive(Clone)]
pub struct ExecContext {
    /// Work-unit meter (shared by the whole query including subqueries).
    pub meter: WorkMeter,
    /// Observability handle (disabled by default; shared with subqueries).
    /// Emission through a disabled handle is a single `Option` check, so
    /// the executor pays nothing when tracing is off.
    pub obs: mqpi_obs::Obs,
    /// Correlation parameter values for the current subquery invocation.
    pub params: Vec<Value>,
    /// Catalog snapshot for building subquery operators.
    pub tables: Arc<TableSet>,
    /// Work-unit deadline for the current installment: operators suspend
    /// ([`Step::Pending`]) once `meter.used()` reaches it. Relaxed atomics:
    /// only the query's own thread touches it (atomics are for `Send`, not
    /// for cross-thread signalling).
    deadline: Arc<AtomicU64>,
    /// The operator tree of each subquery site between two evaluations,
    /// indexed by [`SiteId`] and shared by the query's whole context family.
    /// The lock is held only to take a tree out or put it back, never while
    /// one runs, so a nested site can use the table from inside its parent.
    sites: Arc<Mutex<Vec<Option<Subplan>>>>,
}

/// A subquery site's operator tree, parameter vector and result row. Kept
/// from one outer row to the next: the tree is rewound, the vector
/// refilled, and the row and the buffers inside the operators (an index
/// probe's rid list) keep their capacity. It holds no [`ExecContext`],
/// which would tie the site table into a reference cycle.
pub(crate) struct Subplan {
    /// Root operator, in its just-built state.
    pub op: Box<dyn Operator>,
    /// Storage for the correlation parameters of the next evaluation.
    pub params: Vec<Value>,
    /// The buffer the tree's rows are pulled into.
    pub row: Tuple,
}

/// Shared "no deadline" sentinel for subquery contexts. Subquery invocations
/// never arm a budget (they run to completion), so every invocation can share
/// one immutable `u64::MAX` cell instead of allocating a fresh one per outer
/// row — this is on the correlated-probe hot path.
fn unbudgeted() -> Arc<AtomicU64> {
    static SENTINEL: OnceLock<Arc<AtomicU64>> = OnceLock::new();
    Arc::clone(SENTINEL.get_or_init(|| Arc::new(AtomicU64::new(u64::MAX))))
}

impl ExecContext {
    /// Root context for a query.
    pub fn new(tables: Arc<TableSet>) -> Self {
        ExecContext {
            meter: WorkMeter::new(),
            obs: mqpi_obs::Obs::disabled(),
            params: Vec::new(),
            tables,
            deadline: Arc::new(AtomicU64::new(u64::MAX)),
            sites: Arc::default(),
        }
    }

    /// Child context for one subquery invocation. Subquery invocations run
    /// to completion without suspension (their cost is bounded, and
    /// suspending mid-invocation would require resumable expression state);
    /// the parent's budget check happens between outer tuples.
    pub fn subquery(&self, params: Vec<Value>) -> Self {
        ExecContext {
            meter: self.meter.clone(),
            obs: self.obs.clone(),
            params,
            tables: Arc::clone(&self.tables),
            deadline: unbudgeted(),
            sites: Arc::clone(&self.sites),
        }
    }

    /// Take the tree kept for `site`, if there is one. Site 0 keeps none.
    pub(crate) fn take_subplan(&self, site: SiteId) -> Option<Subplan> {
        // Poisoning cannot leave the table half-updated: each critical
        // section is one `take` or one slot assignment.
        let mut sites = self.sites.lock().unwrap_or_else(PoisonError::into_inner);
        sites.get_mut(site)?.take()
    }

    /// Keep `sub`, rewound by the caller, for the next evaluation of `site`.
    pub(crate) fn keep_subplan(&self, site: SiteId, sub: Subplan) {
        if site == 0 {
            return;
        }
        let mut sites = self.sites.lock().unwrap_or_else(PoisonError::into_inner);
        if sites.len() <= site {
            sites.resize_with(site + 1, || None);
        }
        sites[site] = Some(sub);
    }

    /// Set the installment deadline to `budget` more units from now.
    pub fn arm_budget(&self, budget: u64) {
        debug_assert!(
            !Arc::ptr_eq(&self.deadline, &unbudgeted()),
            "subquery contexts never arm a budget"
        );
        self.deadline
            .store(self.meter.used().saturating_add(budget), Ordering::Relaxed);
    }

    /// Remove the installment deadline.
    pub fn disarm_budget(&self) {
        self.deadline.store(u64::MAX, Ordering::Relaxed);
    }

    /// Whether the current installment's work budget is used up.
    #[inline]
    pub fn exhausted(&self) -> bool {
        self.meter.used() >= self.deadline.load(Ordering::Relaxed)
    }

    /// Pay off a lump-sum work debt in budget-sized installments. Returns
    /// true when the debt is fully paid; false when the budget ran out
    /// first (call again in the next installment).
    pub fn pay_debt(&self, debt: &mut u64) -> bool {
        while *debt > 0 {
            if self.exhausted() {
                return false;
            }
            let room = self
                .deadline
                .load(Ordering::Relaxed)
                .saturating_sub(self.meter.used())
                .max(1);
            let pay = room.min(*debt);
            self.meter.charge(pay);
            *debt -= pay;
        }
        true
    }
}

/// Result of one pull on an operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The caller's buffer holds the next output tuple.
    Row,
    /// The installment's work budget ran out mid-stream; call `next` again
    /// in the next installment to resume exactly where execution stopped.
    Pending,
    /// The operator has produced all of its output.
    Done,
}

/// A physical operator.
///
/// `Send` so that a whole cursor (and with it a simulated system) can move
/// into a worker thread of the parallel experiment harness.
pub trait Operator: Send {
    /// Produce the next output tuple into `row`, charging work to
    /// `ctx.meter` and suspending with [`Step::Pending`] when the budget
    /// deadline passes. On [`Step::Row`] the operator has overwritten
    /// whatever `row` held; on `Pending` and `Done` its contents are
    /// unspecified. The caller owns the buffer and reuses it across pulls,
    /// so a row crosses an operator edge without a `Vec` of its own.
    fn next(&mut self, ctx: &ExecContext, row: &mut Tuple) -> Result<Step>;

    /// Put the subtree back into its just-built state, wherever execution
    /// stopped, keeping what its buffers have allocated: a subquery site
    /// runs one tree once per outer row.
    fn rewind(&mut self);

    /// Refined estimate of the work units this subtree still needs.
    fn remaining_units(&self) -> f64;

    /// Refined estimate of the rows this subtree will still emit.
    fn remaining_rows(&self) -> f64;

    /// Short human-readable operator label (for progress displays).
    fn label(&self) -> String;

    /// Stable static tag naming the operator type, used as the profiling
    /// span key (`op.seq_scan`, `op.hash_join`, …). Unlike [`Self::label`]
    /// it carries no per-instance detail, so span names stay `'static`.
    fn profile_tag(&self) -> &'static str;

    /// Child operators (for progress-tree rendering).
    fn progress_children(&self) -> Vec<&dyn Operator> {
        Vec::new()
    }
}

/// Render an EXPLAIN-ANALYZE-style progress tree: one line per operator
/// with its refined remaining work — the per-plan-node view a GUI progress
/// indicator would display (the paper's PIs began life as GUI tools).
pub fn render_progress(root: &dyn Operator) -> String {
    let mut out = String::new();
    fn rec(op: &dyn Operator, depth: usize, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "{}{}  (≈{:.1} U, ≈{:.0} rows left)",
            "  ".repeat(depth),
            op.label(),
            op.remaining_units(),
            op.remaining_rows()
        );
        for c in op.progress_children() {
            rec(c, depth + 1, out);
        }
    }
    rec(root, 0, &mut out);
    out
}

/// Build the operator tree for a plan.
pub fn build(plan: &PlanNode, tables: &TableSet) -> Result<Box<dyn Operator>> {
    let est = plan.est;
    Ok(match &plan.op {
        PlanOp::SeqScan { table, needed } => {
            Box::new(scan::SeqScan::new(get(tables, table)?, *needed))
        }
        PlanOp::IndexScanEq {
            table,
            column,
            key,
            needed,
        } => Box::new(scan::IndexScanEq::new(
            get(tables, table)?,
            *column,
            key.clone(),
            *needed,
            est,
        )?),
        PlanOp::IndexScanRange {
            table,
            column,
            lo,
            hi,
            needed,
        } => Box::new(scan::IndexScanRange::new(
            get(tables, table)?,
            *column,
            lo.clone(),
            hi.clone(),
            *needed,
            est,
        )?),
        PlanOp::Filter { input, pred } => Box::new(filter::Filter::new(
            build(input, tables)?,
            pred.clone(),
            est,
        )),
        PlanOp::Project { input, exprs } => {
            Box::new(filter::Project::new(build(input, tables)?, exprs.clone()))
        }
        PlanOp::Limit { input, n } => Box::new(filter::Limit::new(build(input, tables)?, *n)),
        PlanOp::NestedLoopJoin { left, right, pred } => Box::new(join::NestedLoopJoin::new(
            build(left, tables)?,
            build(right, tables)?,
            pred.clone(),
            est,
        )),
        PlanOp::HashJoin {
            left,
            right,
            left_key,
            right_key,
        } => Box::new(join::HashJoin::new(
            build(left, tables)?,
            build(right, tables)?,
            left_key.clone(),
            right_key.clone(),
            est,
        )),
        PlanOp::IndexNLJoin {
            left,
            table,
            column,
            key,
            needed,
        } => Box::new(join::IndexNLJoin::new(
            build(left, tables)?,
            get(tables, table)?,
            *column,
            key.clone(),
            *needed,
            est,
        )?),
        PlanOp::Sort { input, keys } => {
            Box::new(sort::Sort::new(build(input, tables)?, keys.clone(), est))
        }
        PlanOp::Aggregate { input, group, aggs } => Box::new(agg::Aggregate::new(
            build(input, tables)?,
            group.clone(),
            aggs.clone(),
            est,
        )),
        PlanOp::Distinct { input } => Box::new(agg::Distinct::new(build(input, tables)?)),
    })
}

fn get(tables: &TableSet, name: &str) -> Result<Arc<Table>> {
    tables
        .get(name)
        .cloned()
        .ok_or_else(|| EngineError::catalog(format!("plan references unknown table '{name}'")))
}
