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
    current: Option<Tuple>,
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
            current: None,
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

    fn next(&mut self, ctx: &ExecContext) -> Result<Step> {
        if self.done {
            return Ok(Step::Done);
        }
        while !self.inner_done {
            if ctx.exhausted() {
                return Ok(Step::Pending);
            }
            match self.right.next(ctx)? {
                Step::Row(r) => self.inner.push(r),
                Step::Pending => return Ok(Step::Pending),
                Step::Done => self.inner_done = true,
            }
        }
        loop {
            if ctx.exhausted() {
                return Ok(Step::Pending);
            }
            if self.current.is_none() {
                match self.left.next(ctx)? {
                    Step::Row(l) => {
                        self.current = Some(l);
                        self.pos = 0;
                    }
                    Step::Pending => return Ok(Step::Pending),
                    Step::Done => {
                        self.done = true;
                        return Ok(Step::Done);
                    }
                }
            }
            let l = self
                .current
                .as_ref()
                .expect("invariant: outer row refilled by the loop above");
            while self.pos < self.inner.len() {
                if ctx.exhausted() {
                    return Ok(Step::Pending);
                }
                let r = &self.inner[self.pos];
                self.pos += 1;
                ctx.meter.cpu_tick();
                let mut out = Vec::with_capacity(l.len() + r.len());
                out.extend_from_slice(l);
                out.extend_from_slice(r);
                let pass = match &self.pred {
                    Some(p) => eval_pred(p, &out, ctx)?,
                    None => true,
                };
                if pass {
                    self.emitted += 1;
                    return Ok(Step::Row(out));
                }
            }
            self.current = None;
        }
    }

    fn rewind(&mut self) {
        self.left.rewind();
        self.right.rewind();
        self.inner.clear();
        self.inner_done = false;
        self.current = None;
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
        let pending = self
            .current
            .as_ref()
            .map(|_| (inner_n - self.pos as f64).max(0.0))
            .unwrap_or(0.0);
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
    /// Probe tuple being expanded, its key into `table`, and the next match
    /// position. Storing the key (not a clone of the match vector) avoids
    /// deep-copying every matching build tuple once per probe row.
    current: Option<(Tuple, HKey, usize)>,
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

    fn next(&mut self, ctx: &ExecContext) -> Result<Step> {
        if self.done {
            return Ok(Step::Done);
        }
        while !self.build_done {
            if ctx.exhausted() {
                return Ok(Step::Pending);
            }
            match self.right.next(ctx)? {
                Step::Row(r) => {
                    ctx.meter.cpu_tick();
                    let k = eval(&self.right_key, &r, ctx)?;
                    if let Some(hk) = hkey(&k) {
                        self.table.entry(hk).or_default().push(r);
                    }
                }
                Step::Pending => return Ok(Step::Pending),
                Step::Done => self.build_done = true,
            }
        }
        loop {
            if let Some((l, hk, pos)) = &mut self.current {
                let matches = self.table.get(hk).expect("key present at probe time");
                if *pos < matches.len() {
                    let m = &matches[*pos];
                    let mut out = Vec::with_capacity(l.len() + m.len());
                    out.extend_from_slice(l);
                    out.extend_from_slice(m);
                    *pos += 1;
                    self.emitted += 1;
                    return Ok(Step::Row(out));
                }
                self.current = None;
            }
            if ctx.exhausted() {
                return Ok(Step::Pending);
            }
            match self.left.next(ctx)? {
                Step::Row(l) => {
                    ctx.meter.cpu_tick();
                    let k = eval(&self.left_key, &l, ctx)?;
                    if let Some(hk) = hkey(&k) {
                        if self.table.contains_key(&hk) {
                            self.current = Some((l, hk, 0));
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
    current: Option<(Tuple, Vec<Rid>, usize)>,
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
            current: None,
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

    fn next(&mut self, ctx: &ExecContext) -> Result<Step> {
        if self.done {
            return Ok(Step::Done);
        }
        loop {
            if ctx.exhausted() {
                return Ok(Step::Pending);
            }
            if let Some((l, rids, pos)) = &mut self.current {
                if *pos < rids.len() {
                    let rid = rids[*pos];
                    *pos += 1;
                    let row = &mut self.fetch_buf;
                    self.table
                        .heap
                        .fetch_into(rid, &ctx.meter, self.needed, row)?;
                    ctx.meter.cpu_tick();
                    let mut out = Vec::with_capacity(l.len() + row.len());
                    out.extend_from_slice(l);
                    out.append(row);
                    return Ok(Step::Row(out));
                }
                self.current = None;
            }
            match self.left.next(ctx)? {
                Step::Row(l) => {
                    let before = ctx.meter.used();
                    let k = eval(&self.key, &l, ctx)?;
                    let rids = if k.is_null() {
                        Vec::new()
                    } else {
                        self.table
                            .index_on(self.column)
                            .expect("index checked at build")
                            .tree
                            .lookup(&k, &ctx.meter)
                    };
                    let lookup_units = (ctx.meter.used() - before) as f64;
                    // Full per-outer-tuple cost: index descent + one heap
                    // fetch per match + per-match CPU (fetches happen as we
                    // stream, but they are deterministic, so fold them in).
                    let total =
                        lookup_units + rids.len() as f64 * (1.0 + 1.0 / CPU_TICKS_PER_UNIT as f64);
                    self.probe_cost.observe(total);
                    self.fanout.observe(rids.len() as f64);
                    self.table.heap.resolve(&rids);
                    self.current = Some((l, rids, 0));
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
        self.current = None;
        self.probe_cost.reset();
        self.fanout.reset();
        self.done = false;
    }

    fn remaining_units(&self) -> f64 {
        if self.done {
            return 0.0;
        }
        let pending = self
            .current
            .as_ref()
            .map(|(_, rids, pos)| (rids.len() - pos) as f64)
            .unwrap_or(0.0);
        self.left.remaining_units()
            + self.left.remaining_rows() * self.probe_cost.get()
            + pending * (1.0 + 1.0 / CPU_TICKS_PER_UNIT as f64)
    }

    fn remaining_rows(&self) -> f64 {
        if self.done {
            return 0.0;
        }
        let pending = self
            .current
            .as_ref()
            .map(|(_, rids, pos)| (rids.len() - pos) as f64)
            .unwrap_or(0.0);
        self.left.remaining_rows() * self.fanout.get() + pending
    }
}
