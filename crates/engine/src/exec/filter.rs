//! Tuple-at-a-time operators: Filter (with online cost refinement), Project,
//! and Limit.

use crate::error::Result;
use crate::exec::eval::{eval, eval_pred};
use crate::exec::progress::SmoothedMean;
use crate::exec::{ExecContext, Operator, Step};
use crate::meter::CPU_TICKS_PER_UNIT;
use crate::plan::physical::{NodeEst, PhysExpr};
use crate::tuple::Tuple;

/// Filter with **measured** per-tuple evaluation cost.
///
/// Every predicate evaluation is bracketed by meter readings, so subquery
/// work (the dominant cost in the paper's workload) is observed exactly and
/// the remaining-cost estimate converges to reality as tuples flow — this is
/// the engine-level mechanism behind "the PI refines the estimated remaining
/// query cost" (§2).
pub struct Filter {
    child: Box<dyn Operator>,
    pred: PhysExpr,
    /// Per-input-tuple evaluation cost, seeded from the optimizer.
    eval_cost: SmoothedMean,
    /// Observed selectivity, seeded from the optimizer.
    selectivity: SmoothedMean,
    consumed: u64,
    emitted: u64,
    done: bool,
}

impl Filter {
    /// `est` is this node's estimate; the child's estimate supplies the
    /// priors for per-tuple cost and selectivity.
    pub fn new(child: Box<dyn Operator>, pred: PhysExpr, est: NodeEst) -> Self {
        // Reconstruct priors from the cumulative estimates: the planner made
        // est.cost = child.cost + child.rows * per_tuple; child rows estimate
        // is recoverable from the child operator itself.
        let child_rows = child.remaining_rows().max(1.0);
        let child_units = child.remaining_units();
        let per_tuple =
            ((est.cost - child_units) / child_rows).max(1.0 / CPU_TICKS_PER_UNIT as f64);
        let prior_sel = (est.rows / child_rows).clamp(0.0, 1.0);
        Filter {
            child,
            pred,
            eval_cost: SmoothedMean::with_prior(per_tuple, 0.05),
            selectivity: SmoothedMean::with_prior(prior_sel, 0.02),
            consumed: 0,
            emitted: 0,
            done: false,
        }
    }
}

impl Operator for Filter {
    fn label(&self) -> String {
        "Filter".to_string()
    }

    fn profile_tag(&self) -> &'static str {
        "op.filter"
    }
    fn progress_children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }

    fn next(&mut self, ctx: &ExecContext, row: &mut Tuple) -> Result<Step> {
        loop {
            if ctx.exhausted() {
                return Ok(Step::Pending);
            }
            match self.child.next(ctx, row)? {
                Step::Row => {}
                Step::Pending => return Ok(Step::Pending),
                Step::Done => {
                    self.done = true;
                    return Ok(Step::Done);
                }
            }
            self.consumed += 1;
            let before = ctx.meter.used();
            ctx.meter.cpu_tick();
            let pass = eval_pred(&self.pred, row, ctx)?;
            let after = ctx.meter.used();
            self.eval_cost.observe((after - before) as f64);
            self.selectivity.observe(f64::from(pass));
            if pass {
                self.emitted += 1;
                return Ok(Step::Row);
            }
        }
    }

    fn rewind(&mut self) {
        self.child.rewind();
        self.eval_cost.reset();
        self.selectivity.reset();
        self.consumed = 0;
        self.emitted = 0;
        self.done = false;
    }

    fn remaining_units(&self) -> f64 {
        if self.done {
            return 0.0;
        }
        self.child.remaining_units() + self.child.remaining_rows() * self.eval_cost.get()
    }

    fn remaining_rows(&self) -> f64 {
        if self.done {
            return 0.0;
        }
        self.child.remaining_rows() * self.selectivity.get()
    }
}

/// Compute output expressions for each input row.
pub struct Project {
    child: Box<dyn Operator>,
    exprs: Vec<PhysExpr>,
    /// The child's current row.
    input: Tuple,
    done: bool,
}

impl Project {
    /// Create a projection.
    pub fn new(child: Box<dyn Operator>, exprs: Vec<PhysExpr>) -> Self {
        Project {
            child,
            exprs,
            input: Tuple::new(),
            done: false,
        }
    }
}

impl Operator for Project {
    fn label(&self) -> String {
        "Project".to_string()
    }

    fn profile_tag(&self) -> &'static str {
        "op.project"
    }
    fn progress_children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }

    fn next(&mut self, ctx: &ExecContext, row: &mut Tuple) -> Result<Step> {
        match self.child.next(ctx, &mut self.input)? {
            Step::Row => {}
            Step::Pending => return Ok(Step::Pending),
            Step::Done => {
                self.done = true;
                return Ok(Step::Done);
            }
        }
        ctx.meter.cpu_tick();
        row.clear();
        for e in &self.exprs {
            row.push(eval(e, &self.input, ctx)?);
        }
        Ok(Step::Row)
    }

    fn rewind(&mut self) {
        self.child.rewind();
        self.done = false;
    }

    fn remaining_units(&self) -> f64 {
        if self.done {
            return 0.0;
        }
        self.child.remaining_units() + self.child.remaining_rows() / CPU_TICKS_PER_UNIT as f64
    }

    fn remaining_rows(&self) -> f64 {
        if self.done {
            0.0
        } else {
            self.child.remaining_rows()
        }
    }
}

/// Emit at most `n` rows.
pub struct Limit {
    child: Box<dyn Operator>,
    n: u64,
    emitted: u64,
}

impl Limit {
    /// Create a limit.
    pub fn new(child: Box<dyn Operator>, n: u64) -> Self {
        Limit {
            child,
            n,
            emitted: 0,
        }
    }
}

impl Operator for Limit {
    fn label(&self) -> String {
        format!("Limit {}", self.n)
    }

    fn profile_tag(&self) -> &'static str {
        "op.limit"
    }
    fn progress_children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }

    fn next(&mut self, ctx: &ExecContext, row: &mut Tuple) -> Result<Step> {
        if self.emitted >= self.n {
            return Ok(Step::Done);
        }
        let step = self.child.next(ctx, row)?;
        match step {
            Step::Row => self.emitted += 1,
            Step::Pending => {}
            Step::Done => self.emitted = self.n, // exhausted
        }
        Ok(step)
    }

    fn rewind(&mut self) {
        self.child.rewind();
        self.emitted = 0;
    }

    fn remaining_units(&self) -> f64 {
        if self.emitted >= self.n {
            return 0.0;
        }
        // A limit may stop early; scale the child's remaining work by the
        // fraction of rows still wanted.
        let want = (self.n - self.emitted) as f64;
        let have = self.child.remaining_rows();
        let frac = if have > 0.0 {
            (want / have).min(1.0)
        } else {
            1.0
        };
        self.child.remaining_units() * frac
    }

    fn remaining_rows(&self) -> f64 {
        ((self.n - self.emitted) as f64).min(self.child.remaining_rows())
    }
}
