//! Hash aggregation (grouped and scalar), resumable.
//!
//! Input is drained incrementally into the group table (suspending on
//! budget exhaustion); output rows are then emitted in first-seen group
//! order for determinism.

use std::collections::HashMap;

use crate::error::{EngineError, Result};
use crate::exec::eval::eval;
use crate::exec::{ExecContext, Operator, Step};
use crate::plan::cost::cpu_units;
use crate::plan::physical::{AggFunc, AggSpec, NodeEst, PhysExpr};
use crate::tuple::Tuple;
use crate::value::Value;

/// Normalized group key (mirrors the join-key normalization; NULL groups
/// are legal in GROUP BY, unlike join keys).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GKey {
    Null,
    Int(i64),
    Bits(u64),
    Str(String),
}

fn gkey(v: &Value) -> GKey {
    match v {
        Value::Null => GKey::Null,
        Value::Int(i) => GKey::Int(*i),
        Value::Float(f) => {
            if f.fract() == 0.0 && f.is_finite() && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 {
                GKey::Int(*f as i64)
            } else {
                GKey::Bits(f.to_bits())
            }
        }
        Value::Str(s) => GKey::Str(s.clone()),
    }
}

/// A `sum()` total: exact while every input is an `Int`, in `f64` from the
/// first `Float` on.
#[derive(Debug, Clone, Copy)]
enum Total {
    Int(i128),
    Float(f64),
}

/// Accumulator for one aggregate in one group.
#[derive(Debug, Clone)]
enum AggState {
    Count(u64),
    /// (total, saw any non-null)
    Sum(Total, bool),
    /// (sum, count) — NULLs excluded
    Avg(f64, u64),
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(Total::Int(0), false),
            AggFunc::Avg => AggState::Avg(0.0, 0),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, v: Option<&Value>) -> Result<()> {
        match self {
            AggState::Count(n) => {
                // count(*) gets None (count every row); count(e) skips NULL.
                match v {
                    None => *n += 1,
                    Some(Value::Null) => {}
                    Some(_) => *n += 1,
                }
            }
            AggState::Sum(total, seen) => {
                if let Some(v) = v {
                    *total = match (*total, v) {
                        (_, Value::Null) => return Ok(()),
                        (Total::Int(t), Value::Int(x)) => Total::Int(t + i128::from(*x)),
                        // The exact total converts once, at the first Float.
                        (Total::Int(t), Value::Float(x)) => Total::Float(t as f64 + x),
                        (Total::Float(t), Value::Int(x)) => Total::Float(t + *x as f64),
                        (Total::Float(t), Value::Float(x)) => Total::Float(t + x),
                        (_, Value::Str(_)) => {
                            return Err(EngineError::exec(format!("sum() over non-numeric {v:?}")))
                        }
                    };
                    *seen = true;
                }
            }
            AggState::Avg(total, n) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        let x = v.as_f64().ok_or_else(|| {
                            EngineError::exec(format!("avg() over non-numeric {v:?}"))
                        })?;
                        *total += x;
                        *n += 1;
                    }
                }
            }
            AggState::Min(cur) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        let replace = cur.as_ref().map(|c| v.total_cmp(c).is_lt()).unwrap_or(true);
                        if replace {
                            *cur = Some(v.clone());
                        }
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        let replace = cur.as_ref().map(|c| v.total_cmp(c).is_gt()).unwrap_or(true);
                        if replace {
                            *cur = Some(v.clone());
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(&self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(*n as i64),
            AggState::Sum(_, false) => Value::Null,
            AggState::Sum(Total::Int(t), true) => match i64::try_from(*t) {
                Ok(t) => Value::Int(t),
                Err(_) => Value::Float(*t as f64),
            },
            AggState::Sum(Total::Float(t), true) => Value::Float(*t),
            AggState::Avg(total, n) => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(*total / *n as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Null),
        }
    }
}

/// Per-group accumulator bundle: group values, one state per aggregate, and
/// per-aggregate distinct-value sets (None when not DISTINCT).
type GroupEntry = (
    Tuple,
    Vec<AggState>,
    Vec<Option<std::collections::HashSet<GKey>>>,
);

/// Where an aggregate's argument comes from, decided when the operator is
/// built.
enum Arg {
    /// `count(*)`: no argument.
    Star,
    /// A plain input column (`PhysExpr::Input`), read by reference from the
    /// row buffer: no clone, no `Result<Value>` per row.
    Column(usize),
    /// A computed argument, evaluated per row.
    Expr(PhysExpr),
}

/// One aggregate as the operator runs it.
struct Agg {
    func: AggFunc,
    distinct: bool,
    arg: Arg,
}

impl From<AggSpec> for Agg {
    fn from(spec: AggSpec) -> Self {
        let arg = match spec.arg {
            None => Arg::Star,
            Some(PhysExpr::Input(i)) => Arg::Column(i),
            Some(e) => Arg::Expr(e),
        };
        Agg {
            func: spec.func,
            distinct: spec.distinct,
            arg,
        }
    }
}

fn new_entry(gvals: Tuple, aggs: &[Agg]) -> GroupEntry {
    (
        gvals,
        aggs.iter().map(|a| AggState::new(a.func)).collect(),
        aggs.iter()
            .map(|a| a.distinct.then(Default::default))
            .collect(),
    )
}

/// Hash aggregate. With an empty `group` list it is a scalar aggregate and
/// emits exactly one row even over empty input (SQL semantics: `count` is
/// 0, `sum`/`avg`/`min`/`max` are NULL) — the paper's correlated subquery
/// depends on this behaviour for parts with no matching lineitems.
pub struct Aggregate {
    child: Box<dyn Operator>,
    group: Vec<PhysExpr>,
    aggs: Vec<Agg>,
    /// Groups in first-seen order, which is the output order. A scalar
    /// aggregate has its one group here from the start and never hashes.
    groups: Vec<GroupEntry>,
    /// Group key -> position in `groups`.
    index: HashMap<Vec<GKey>, usize>,
    /// The child's current row; input is only read, so one buffer serves
    /// every pull.
    input: Tuple,
    input_done: bool,
    pos: usize,
    est: NodeEst,
}

impl Aggregate {
    /// Create an aggregation.
    pub fn new(
        child: Box<dyn Operator>,
        group: Vec<PhysExpr>,
        aggs: Vec<AggSpec>,
        est: NodeEst,
    ) -> Self {
        let mut agg = Aggregate {
            child,
            group,
            aggs: aggs.into_iter().map(Agg::from).collect(),
            groups: Vec::new(),
            index: HashMap::new(),
            input: Tuple::new(),
            input_done: false,
            pos: 0,
            est,
        };
        agg.start_groups();
        agg
    }

    /// The groups before any input.
    fn start_groups(&mut self) {
        self.groups.clear();
        self.index.clear();
        if self.group.is_empty() {
            // Scalar aggregation has exactly one group, even over no input.
            self.groups.push(new_entry(Tuple::new(), &self.aggs));
        }
    }
}

impl Operator for Aggregate {
    fn label(&self) -> String {
        format!("Aggregate ({} groups seen)", self.groups.len())
    }

    fn profile_tag(&self) -> &'static str {
        "op.aggregate"
    }
    fn progress_children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }

    fn next(&mut self, ctx: &ExecContext, out: &mut Tuple) -> Result<Step> {
        while !self.input_done {
            if ctx.exhausted() {
                return Ok(Step::Pending);
            }
            match self.child.next(ctx, &mut self.input)? {
                Step::Row => {
                    ctx.meter.cpu_tick();
                    let row = &self.input;
                    let at = if self.group.is_empty() {
                        0
                    } else {
                        let gvals: Result<Tuple> =
                            self.group.iter().map(|g| eval(g, row, ctx)).collect();
                        let gvals = gvals?;
                        let key: Vec<GKey> = gvals.iter().map(gkey).collect();
                        match self.index.get(&key) {
                            Some(&at) => at,
                            None => {
                                self.index.insert(key, self.groups.len());
                                self.groups.push(new_entry(gvals, &self.aggs));
                                self.groups.len() - 1
                            }
                        }
                    };
                    let (_, states, seen) = &mut self.groups[at];
                    for ((agg, state), seen) in self.aggs.iter().zip(states).zip(seen) {
                        let evaluated;
                        let v = match &agg.arg {
                            Arg::Star => None,
                            Arg::Column(i) => Some(row.get(*i).ok_or_else(|| {
                                EngineError::exec(format!("input column {i} out of range"))
                            })?),
                            Arg::Expr(e) => {
                                evaluated = eval(e, row, ctx)?;
                                Some(&evaluated)
                            }
                        };
                        if let (Some(seen), Some(v)) = (seen, v) {
                            // DISTINCT: fold each value only once (NULLs
                            // are skipped by update anyway).
                            if !v.is_null() && !seen.insert(gkey(v)) {
                                continue;
                            }
                        }
                        state.update(v)?;
                    }
                }
                Step::Pending => return Ok(Step::Pending),
                Step::Done => self.input_done = true,
            }
        }
        let Some((gvals, states, _)) = self.groups.get(self.pos) else {
            return Ok(Step::Done);
        };
        if ctx.exhausted() {
            return Ok(Step::Pending);
        }
        self.pos += 1;
        ctx.meter.cpu_tick();
        out.clear();
        out.extend_from_slice(gvals);
        out.extend(states.iter().map(|s| s.finish()));
        Ok(Step::Row)
    }

    fn rewind(&mut self) {
        self.child.rewind();
        self.start_groups();
        self.input_done = false;
        self.pos = 0;
    }

    fn remaining_units(&self) -> f64 {
        if self.input_done {
            cpu_units((self.groups.len() - self.pos) as f64)
        } else {
            self.child.remaining_units()
                + cpu_units(self.child.remaining_rows())
                + cpu_units(self.est.rows)
        }
    }

    fn remaining_rows(&self) -> f64 {
        if self.input_done {
            (self.groups.len() - self.pos) as f64
        } else {
            self.est
                .rows
                .max(if self.group.is_empty() { 1.0 } else { 0.0 })
        }
    }
}

/// Duplicate elimination for `SELECT DISTINCT` (streaming: emits a row the
/// first time its normalized key is seen).
pub struct Distinct {
    child: Box<dyn Operator>,
    seen: std::collections::HashSet<Vec<GKey>>,
    done: bool,
}

impl Distinct {
    /// Create a duplicate eliminator.
    pub fn new(child: Box<dyn Operator>) -> Self {
        Distinct {
            child,
            seen: Default::default(),
            done: false,
        }
    }
}

impl Operator for Distinct {
    fn label(&self) -> String {
        "Distinct".to_string()
    }

    fn profile_tag(&self) -> &'static str {
        "op.distinct"
    }
    fn progress_children(&self) -> Vec<&dyn Operator> {
        vec![self.child.as_ref()]
    }

    fn next(&mut self, ctx: &ExecContext, row: &mut Tuple) -> Result<Step> {
        if self.done {
            return Ok(Step::Done);
        }
        loop {
            if ctx.exhausted() {
                return Ok(Step::Pending);
            }
            match self.child.next(ctx, row)? {
                Step::Row => {
                    ctx.meter.cpu_tick();
                    let key: Vec<GKey> = row.iter().map(gkey).collect();
                    if self.seen.insert(key) {
                        return Ok(Step::Row);
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
        self.child.rewind();
        self.seen.clear();
        self.done = false;
    }

    fn remaining_units(&self) -> f64 {
        if self.done {
            0.0
        } else {
            self.child.remaining_units() + cpu_units(self.child.remaining_rows())
        }
    }

    fn remaining_rows(&self) -> f64 {
        if self.done {
            0.0
        } else {
            // Heuristic: half the remaining input survives deduplication.
            (self.child.remaining_rows() / 2.0).max(0.0)
        }
    }
}
