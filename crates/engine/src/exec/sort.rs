//! Full sort operator (resumable).
//!
//! The input is drained incrementally (suspending on budget exhaustion);
//! the `n·log2 n` comparison cost is charged as a *debt* paid off across
//! installments, so even the sort itself cannot blow through a quantum.

use crate::error::Result;
use crate::exec::eval::eval;
use crate::exec::{ExecContext, Operator, Step};
use crate::plan::cost;
use crate::plan::physical::{NodeEst, SortKey};
use crate::tuple::Tuple;
use crate::value::Value;

enum Phase {
    /// Accumulating input rows.
    Drain,
    /// Input drained; paying off the comparison-cost debt.
    PayDebt { debt: u64 },
    /// Emitting sorted rows.
    Emit,
}

/// Materializing sort.
pub struct Sort {
    child: Box<dyn Operator>,
    keys: Vec<SortKey>,
    /// Rows with their precomputed keys; each row is moved out as it is
    /// emitted.
    buffer: Vec<(Vec<Value>, Tuple)>,
    phase: Phase,
    pos: usize,
    est: NodeEst,
}

impl Sort {
    /// Create a sort.
    pub fn new(child: Box<dyn Operator>, keys: Vec<SortKey>, est: NodeEst) -> Self {
        Sort {
            child,
            keys,
            buffer: Vec::new(),
            phase: Phase::Drain,
            pos: 0,
            est,
        }
    }
}

impl Operator for Sort {
    fn label(&self) -> String {
        "Sort".to_string()
    }

    fn profile_tag(&self) -> &'static str {
        "op.sort"
    }
    fn progress_children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }

    fn next(&mut self, ctx: &ExecContext, row: &mut Tuple) -> Result<Step> {
        loop {
            match &mut self.phase {
                Phase::Drain => {
                    if ctx.exhausted() {
                        return Ok(Step::Pending);
                    }
                    match self.child.next(ctx, row)? {
                        Step::Row => {
                            ctx.meter.cpu_tick();
                            // Schwartzian transform: precompute key vectors.
                            let kv: Result<Vec<Value>> =
                                self.keys.iter().map(|k| eval(&k.expr, row, ctx)).collect();
                            self.buffer.push((kv?, std::mem::take(row)));
                        }
                        Step::Pending => return Ok(Step::Pending),
                        Step::Done => {
                            // Sorting is cheap in real time; its work-unit
                            // cost becomes a debt paid across installments.
                            let keys = &self.keys;
                            self.buffer.sort_by(|(ka, _), (kb, _)| {
                                for (i, k) in keys.iter().enumerate() {
                                    let ord = ka[i].total_cmp(&kb[i]);
                                    let ord = if k.desc { ord.reverse() } else { ord };
                                    if !ord.is_eq() {
                                        return ord;
                                    }
                                }
                                std::cmp::Ordering::Equal
                            });
                            let debt = cost::sort_cost(self.buffer.len() as f64).ceil() as u64;
                            self.phase = Phase::PayDebt { debt };
                        }
                    }
                }
                Phase::PayDebt { debt } => {
                    if ctx.pay_debt(debt) {
                        self.phase = Phase::Emit;
                    } else {
                        return Ok(Step::Pending);
                    }
                }
                Phase::Emit => {
                    if self.pos >= self.buffer.len() {
                        return Ok(Step::Done);
                    }
                    if ctx.exhausted() {
                        return Ok(Step::Pending);
                    }
                    *row = std::mem::take(&mut self.buffer[self.pos].1);
                    self.pos += 1;
                    ctx.meter.cpu_tick();
                    return Ok(Step::Row);
                }
            }
        }
    }

    fn rewind(&mut self) {
        self.child.rewind();
        self.buffer.clear();
        self.phase = Phase::Drain;
        self.pos = 0;
    }

    fn remaining_units(&self) -> f64 {
        match &self.phase {
            Phase::Drain => {
                let n = self.buffer.len() as f64 + self.child.remaining_rows();
                self.child.remaining_units() + cost::sort_cost(n) + cost::cpu_units(2.0 * n)
            }
            Phase::PayDebt { debt } => {
                *debt as f64 + cost::cpu_units((self.buffer.len() - self.pos) as f64)
            }
            Phase::Emit => cost::cpu_units((self.buffer.len() - self.pos) as f64),
        }
    }

    fn remaining_rows(&self) -> f64 {
        match &self.phase {
            Phase::Drain => {
                (self.buffer.len() as f64 + self.child.remaining_rows()).max(self.est.rows.min(1.0))
            }
            Phase::PayDebt { .. } | Phase::Emit => (self.buffer.len() - self.pos) as f64,
        }
    }
}
