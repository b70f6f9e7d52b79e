//! The last planning step: one top-down pass over a finished plan that
//! tells every scan which columns to decode and numbers the subquery sites.
//!
//! **Column masks.** Every operator is asked which columns of its input it
//! reads itself, plus which it hands up to a parent that reads them; the
//! answer reaches the scans as a [`ColumnMask`], and the scans materialise
//! only those columns (`tuple::decode_into`). The rule is conservative: the
//! plan root, the root of every subquery plan and the input of `Distinct`
//! need all columns, and a scan this pass does not reach keeps the
//! [`ColumnMask::ALL`] the planner built it with.
//!
//! **Subquery sites.** Each subquery expression the pass reaches gets a
//! [`SiteId`](crate::plan::physical::SiteId) from 1 up, under which the
//! executor keeps that site's operator tree between outer rows. One it does
//! not reach keeps 0 and is built per evaluation.

use crate::plan::physical::{PhysExpr, PlanNode, PlanOp, SiteId};
use crate::tuple::ColumnMask;

/// Set the `needed` mask of every scan under `root` and the `site` of every
/// subquery expression (nested plans included). `root`'s own rows go to the
/// caller whole.
pub(crate) fn finish_plan(root: &mut PlanNode) {
    Finish { sites: 0 }.node(root, ColumnMask::ALL);
}

struct Finish {
    /// Subquery sites numbered so far.
    sites: usize,
}

impl Finish {
    /// `needed`: the columns of `node`'s output that its parent reads.
    fn node(&mut self, node: &mut PlanNode, needed: ColumnMask) {
        match &mut node.op {
            PlanOp::SeqScan { needed: mask, .. } => *mask = needed,
            PlanOp::IndexScanEq {
                key, needed: mask, ..
            } => {
                *mask = needed;
                // Probe keys and range bounds have no input row to read.
                let mut no_input = ColumnMask::NONE;
                self.expr(key, &mut no_input);
            }
            PlanOp::IndexScanRange {
                lo,
                hi,
                needed: mask,
                ..
            } => {
                *mask = needed;
                let mut no_input = ColumnMask::NONE;
                for e in lo.iter_mut().chain(hi) {
                    self.expr(e, &mut no_input);
                }
            }
            PlanOp::Filter { input, pred } => {
                let mut below = needed;
                self.expr(pred, &mut below);
                self.node(input, below);
            }
            PlanOp::Project { input, exprs } => {
                let mut below = ColumnMask::NONE;
                for e in exprs {
                    self.expr(e, &mut below);
                }
                self.node(input, below);
            }
            PlanOp::Sort { input, keys } => {
                let mut below = needed;
                for k in keys {
                    self.expr(&mut k.expr, &mut below);
                }
                self.node(input, below);
            }
            PlanOp::Aggregate { input, group, aggs } => {
                let mut below = ColumnMask::NONE;
                let args = aggs.iter_mut().filter_map(|a| a.arg.as_mut());
                for e in group.iter_mut().chain(args) {
                    self.expr(e, &mut below);
                }
                self.node(input, below);
            }
            PlanOp::Limit { input, .. } => self.node(input, needed),
            PlanOp::Distinct { input } => self.node(input, ColumnMask::ALL),
        }
    }

    /// Add to `reads` every column of the operator's input row that
    /// evaluating `e` reads, number the subquery sites in `e` and finish
    /// their plans. A nested plan reads this row only through its
    /// `outer_args`, and whatever consumes its rows gets them whole.
    fn expr(&mut self, e: &mut PhysExpr, reads: &mut ColumnMask) {
        match e {
            PhysExpr::Input(i) => reads.insert(*i),
            PhysExpr::Literal(_) | PhysExpr::Param(_) => {}
            PhysExpr::Unary { expr, .. } | PhysExpr::Like { expr, .. } => self.expr(expr, reads),
            PhysExpr::Binary { left, right, .. } => {
                self.expr(left, reads);
                self.expr(right, reads);
            }
            PhysExpr::Scalar { args, .. } => args.iter_mut().for_each(|a| self.expr(a, reads)),
            PhysExpr::Subquery {
                plan,
                outer_args,
                site,
            }
            | PhysExpr::Exists {
                plan,
                outer_args,
                site,
            } => self.subquery(plan, outer_args, site, reads),
            PhysExpr::InSubquery {
                expr,
                plan,
                outer_args,
                site,
                ..
            } => {
                self.expr(expr, reads);
                self.subquery(plan, outer_args, site, reads);
            }
        }
    }

    fn subquery(
        &mut self,
        plan: &mut PlanNode,
        outer_args: &mut [PhysExpr],
        site: &mut SiteId,
        reads: &mut ColumnMask,
    ) {
        self.sites += 1;
        *site = self.sites;
        self.node(plan, ColumnMask::ALL);
        outer_args.iter_mut().for_each(|a| self.expr(a, reads));
    }
}
