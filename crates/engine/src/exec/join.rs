//! Join operators: materialized nested-loop join, hash join, and index
//! nested-loop join with measured per-probe cost refinement.
//!
//! All three are fully resumable: materialization (the NLJ's inner, the
//! hash join's build side) proceeds incrementally and suspends with
//! [`Step::Pending`] when the installment budget runs out.

use std::collections::HashMap;
use std::sync::Arc;

use crate::db::Table;
use crate::error::{EngineError, Result};
use crate::exec::eval::{eval, eval_pred};
use crate::exec::progress::SmoothedMean;
use crate::exec::{ExecContext, Operator, Step};
use crate::heap::Rid;
use crate::meter::CPU_TICKS_PER_UNIT;
use crate::plan::cost::cpu_units;
use crate::plan::physical::{NodeEst, PhysExpr};
use crate::tuple::{ColumnMask, Tuple};
use crate::value::Value;

/// Hashable, normalized join key (NULLs never join and yield `None`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum HKey {
    Int(i64),
    Bits(u64),
    Str(String),
}

fn hkey(v: &Value) -> Option<HKey> {
    match v {
        Value::Null => None,
        Value::Int(i) => Some(HKey::Int(*i)),
        Value::Float(f) => {
            // Normalize integral floats so Int(2) joins Float(2.0).
            if f.fract() == 0.0 && f.is_finite() && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 {
                Some(HKey::Int(*f as i64))
            } else {
                Some(HKey::Bits(f.to_bits()))
            }
        }
        Value::Str(s) => Some(HKey::Str(s.clone())),
    }
}

/// Nested-loop join with a materialized inner side.
pub struct NestedLoopJoin {
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    pred: Option<PhysExpr>,
    inner: Vec<Tuple>,
    inner_done: bool,
    /// The outer row being joined with `inner`, when `has_outer`.
    outer: Tuple,
    has_outer: bool,
    pos: usize,
    est: NodeEst,
    emitted: u64,
    done: bool,
}

impl NestedLoopJoin {
    /// Create the join.
    pub fn new(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        pred: Option<PhysExpr>,
        est: NodeEst,
    ) -> Self {
        NestedLoopJoin {
            left,
            right,
            pred,
            inner: Vec::new(),
            inner_done: false,
            outer: Tuple::new(),
            has_outer: false,
            pos: 0,
            est,
            emitted: 0,
            done: false,
        }
    }
}

impl Operator for NestedLoopJoin {
    fn label(&self) -> String {
        "NestedLoopJoin".to_string()
    }

    fn profile_tag(&self) -> &'static str {
        "op.nl_join"
    }
    fn progress_children(&self) -> Vec<&dyn Operator> {
        vec![self.left.as_ref(), self.right.as_ref()]
    }

    fn next(&mut self, ctx: &ExecContext, row: &mut Tuple) -> Result<Step> {
        if self.done {
            return Ok(Step::Done);
        }
        while !self.inner_done {
            if ctx.exhausted() {
                return Ok(Step::Pending);
            }
            match self.right.next(ctx, row)? {
                Step::Row => self.inner.push(std::mem::take(row)),
                Step::Pending => return Ok(Step::Pending),
                Step::Done => self.inner_done = true,
            }
        }
        loop {
            if ctx.exhausted() {
                return Ok(Step::Pending);
            }
            if !self.has_outer {
                match self.left.next(ctx, &mut self.outer)? {
                    Step::Row => {
                        self.has_outer = true;
                        self.pos = 0;
                    }
                    Step::Pending => return Ok(Step::Pending),
                    Step::Done => {
                        self.done = true;
                        return Ok(Step::Done);
                    }
                }
            }
            while self.pos < self.inner.len() {
                if ctx.exhausted() {
                    return Ok(Step::Pending);
                }
                let r = &self.inner[self.pos];
                self.pos += 1;
                ctx.meter.cpu_tick();
                row.clear();
                row.extend_from_slice(&self.outer);
                row.extend_from_slice(r);
                let pass = match &self.pred {
                    Some(p) => eval_pred(p, row, ctx)?,
                    None => true,
                };
                if pass {
                    self.emitted += 1;
                    return Ok(Step::Row);
                }
            }
            self.has_outer = false;
        }
    }

    fn rewind(&mut self) {
        self.left.rewind();
        self.right.rewind();
        self.inner.clear();
        self.inner_done = false;
        self.has_outer = false;
        self.pos = 0;
        self.emitted = 0;
        self.done = false;
    }

    fn remaining_units(&self) -> f64 {
        if self.done {
            return 0.0;
        }
        let inner_n = if self.inner_done {
            self.inner.len() as f64
        } else {
            self.inner.len() as f64 + self.right.remaining_rows()
        };
        let build = if self.inner_done {
            0.0
        } else {
            self.right.remaining_units()
        };
        let pending = if self.has_outer {
            (inner_n - self.pos as f64).max(0.0)
        } else {
            0.0
        };
        build
            + self.left.remaining_units()
            + cpu_units(self.left.remaining_rows() * inner_n.max(1.0) + pending)
    }

    fn remaining_rows(&self) -> f64 {
        if self.done {
            return 0.0;
        }
        (self.est.rows - self.emitted as f64).max(0.0)
    }
}

/// Hash equi-join (build = right side, probe = left side).
pub struct HashJoin {
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    left_key: PhysExpr,
    right_key: PhysExpr,
    table: HashMap<HKey, Vec<Tuple>>,
    build_done: bool,
    /// The probe row being expanded.
    probe: Tuple,
    /// `probe`'s key into `table` and the next match position, while it
    /// has matches left. Storing the key (not a clone of the match vector)
    /// avoids deep-copying every matching build tuple once per probe row.
    current: Option<(HKey, usize)>,
    est: NodeEst,
    emitted: u64,
    done: bool,
}

impl HashJoin {
    /// Create the join.
    pub fn new(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        left_key: PhysExpr,
        right_key: PhysExpr,
        est: NodeEst,
    ) -> Self {
        HashJoin {
            left,
            right,
            left_key,
            right_key,
            table: HashMap::new(),
            build_done: false,
            probe: Tuple::new(),
            current: None,
            est,
            emitted: 0,
            done: false,
        }
    }
}

impl Operator for HashJoin {
    fn label(&self) -> String {
        "HashJoin".to_string()
    }

    fn profile_tag(&self) -> &'static str {
        "op.hash_join"
    }
    fn progress_children(&self) -> Vec<&dyn Operator> {
        vec![self.left.as_ref(), self.right.as_ref()]
    }

    fn next(&mut self, ctx: &ExecContext, row: &mut Tuple) -> Result<Step> {
        if self.done {
            return Ok(Step::Done);
        }
        while !self.build_done {
            if ctx.exhausted() {
                return Ok(Step::Pending);
            }
            match self.right.next(ctx, row)? {
                Step::Row => {
                    ctx.meter.cpu_tick();
                    let k = eval(&self.right_key, row, ctx)?;
                    if let Some(hk) = hkey(&k) {
                        self.table.entry(hk).or_default().push(std::mem::take(row));
                    }
                }
                Step::Pending => return Ok(Step::Pending),
                Step::Done => self.build_done = true,
            }
        }
        loop {
            if let Some((hk, pos)) = &mut self.current {
                let matches = self.table.get(hk).expect("key present at probe time");
                if *pos < matches.len() {
                    row.clear();
                    row.extend_from_slice(&self.probe);
                    row.extend_from_slice(&matches[*pos]);
                    *pos += 1;
                    self.emitted += 1;
                    return Ok(Step::Row);
                }
                self.current = None;
            }
            if ctx.exhausted() {
                return Ok(Step::Pending);
            }
            match self.left.next(ctx, &mut self.probe)? {
                Step::Row => {
                    ctx.meter.cpu_tick();
                    let k = eval(&self.left_key, &self.probe, ctx)?;
                    if let Some(hk) = hkey(&k) {
                        if self.table.contains_key(&hk) {
                            self.current = Some((hk, 0));
                        }
                    }
                }
                Step::Pending => return Ok(Step::Pending),
                Step::Done => {
                    self.done = true;
                    return Ok(Step::Done);
                }
            }
        }
    }

    fn rewind(&mut self) {
        self.left.rewind();
        self.right.rewind();
        self.table.clear();
        self.build_done = false;
        self.current = None;
        self.emitted = 0;
        self.done = false;
    }

    fn remaining_units(&self) -> f64 {
        if self.done {
            return 0.0;
        }
        let build = if self.build_done {
            0.0
        } else {
            self.right.remaining_units() + cpu_units(self.right.remaining_rows())
        };
        build + self.left.remaining_units() + cpu_units(self.left.remaining_rows())
    }

    fn remaining_rows(&self) -> f64 {
        if self.done {
            return 0.0;
        }
        (self.est.rows - self.emitted as f64).max(0.0)
    }
}

/// Index nested-loop join: probe the inner table's index once per outer
/// tuple. Per-probe cost and fan-out are *measured* (meter deltas), so the
/// remaining-cost estimate self-corrects when optimizer statistics are off.
pub struct IndexNLJoin {
    left: Box<dyn Operator>,
    table: Arc<Table>,
    column: usize,
    key: PhysExpr,
    /// Columns of the inner row that anything above the join reads.
    needed: ColumnMask,
    /// The outer row being expanded, its matching rids, and the next of
    /// them to fetch. The buffers outlive a rewind.
    outer: Tuple,
    rids: Vec<Rid>,
    pos: usize,
    /// Scratch row reused across heap fetches (one fetch per match).
    fetch_buf: Tuple,
    probe_cost: SmoothedMean,
    fanout: SmoothedMean,
    done: bool,
}

impl IndexNLJoin {
    /// Create the join, materialising the `needed` columns of each inner
    /// row; errors if the inner table has no index on `column`.
    pub fn new(
        left: Box<dyn Operator>,
        table: Arc<Table>,
        column: usize,
        key: PhysExpr,
        needed: ColumnMask,
        est: NodeEst,
    ) -> Result<Self> {
        if table.index_on(column).is_none() {
            return Err(EngineError::plan(format!(
                "table '{}' has no index on column {column}",
                table.name
            )));
        }
        let left_rows = left.remaining_rows().max(1.0);
        let left_units = left.remaining_units();
        let prior_probe = ((est.cost - left_units) / left_rows).max(1.0);
        let prior_fanout = (est.rows / left_rows).max(0.0);
        Ok(IndexNLJoin {
            left,
            table,
            column,
            key,
            needed,
            outer: Tuple::new(),
            rids: Vec::new(),
            pos: 0,
            fetch_buf: Tuple::new(),
            probe_cost: SmoothedMean::with_prior(prior_probe, 0.05),
            fanout: SmoothedMean::with_prior(prior_fanout, 0.05),
            done: false,
        })
    }
}

impl Operator for IndexNLJoin {
    fn label(&self) -> String {
        format!("IndexNLJoin with {}", self.table.name)
    }

    fn profile_tag(&self) -> &'static str {
        "op.index_nl_join"
    }
    fn progress_children(&self) -> Vec<&dyn Operator> {
        vec![self.left.as_ref()]
    }

    fn next(&mut self, ctx: &ExecContext, row: &mut Tuple) -> Result<Step> {
        if self.done {
            return Ok(Step::Done);
        }
        loop {
            if ctx.exhausted() {
                return Ok(Step::Pending);
            }
            if let Some(&rid) = self.rids.get(self.pos) {
                self.pos += 1;
                let fetched = &mut self.fetch_buf;
                self.table
                    .heap
                    .fetch_into(rid, &ctx.meter, self.needed, fetched)?;
                ctx.meter.cpu_tick();
                row.clear();
                row.extend_from_slice(&self.outer);
                row.append(fetched);
                return Ok(Step::Row);
            }
            match self.left.next(ctx, &mut self.outer)? {
                Step::Row => {
                    let before = ctx.meter.used();
                    let k = eval(&self.key, &self.outer, ctx)?;
                    self.rids.clear();
                    self.pos = 0;
                    if !k.is_null() {
                        self.table
                            .index_on(self.column)
                            .expect("index checked at build")
                            .tree
                            .lookup_into(&k, &ctx.meter, &mut self.rids);
                    }
                    let matches = self.rids.len() as f64;
                    let lookup_units = (ctx.meter.used() - before) as f64;
                    // Full per-outer-tuple cost: index descent + one heap
                    // fetch per match + per-match CPU (fetches happen as we
                    // stream, but they are deterministic, so fold them in).
                    let total = lookup_units + matches * (1.0 + 1.0 / CPU_TICKS_PER_UNIT as f64);
                    self.probe_cost.observe(total);
                    self.fanout.observe(matches);
                    self.table.heap.resolve(&self.rids);
                }
                Step::Pending => return Ok(Step::Pending),
                Step::Done => {
                    self.done = true;
                    return Ok(Step::Done);
                }
            }
        }
    }

    fn rewind(&mut self) {
        self.left.rewind();
        self.rids.clear();
        self.pos = 0;
        self.probe_cost.reset();
        self.fanout.reset();
        self.done = false;
    }

    fn remaining_units(&self) -> f64 {
        if self.done {
            return 0.0;
        }
        let pending = (self.rids.len() - self.pos) as f64;
        self.left.remaining_units()
            + self.left.remaining_rows() * self.probe_cost.get()
            + pending * (1.0 + 1.0 / CPU_TICKS_PER_UNIT as f64)
    }

    fn remaining_rows(&self) -> f64 {
        if self.done {
            return 0.0;
        }
        let pending = (self.rids.len() - self.pos) as f64;
        self.left.remaining_rows() * self.fanout.get() + pending
    }
}
