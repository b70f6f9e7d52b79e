//! Access-path operators: sequential scan and index scans.

use std::sync::Arc;

use crate::db::Table;
use crate::error::{EngineError, Result};
use crate::exec::eval::eval;
use crate::exec::{ExecContext, Operator, Step};
use crate::heap::{Rid, ScanState};
use crate::meter::CPU_TICKS_PER_UNIT;
use crate::plan::cost::cpu_units;
use crate::plan::physical::{NodeEst, PhysExpr};
use crate::tuple::{ColumnMask, Tuple};

/// Full sequential scan. Progress is exact: pages remaining are known.
pub struct SeqScan {
    table: Arc<Table>,
    needed: ColumnMask,
    st: ScanState,
    emitted: u64,
    done: bool,
}

impl SeqScan {
    /// Create a scan of `table` that materialises the `needed` columns.
    pub fn new(table: Arc<Table>, needed: ColumnMask) -> Self {
        SeqScan {
            table,
            needed,
            st: ScanState::new(),
            emitted: 0,
            done: false,
        }
    }
}

impl Operator for SeqScan {
    fn label(&self) -> String {
        format!("SeqScan on {}", self.table.name)
    }

    fn profile_tag(&self) -> &'static str {
        "op.seq_scan"
    }

    fn next(&mut self, ctx: &ExecContext, row: &mut Tuple) -> Result<Step> {
        if self.done {
            return Ok(Step::Done);
        }
        if ctx.exhausted() {
            return Ok(Step::Pending);
        }
        let heap = &self.table.heap;
        match heap.scan_next(&mut self.st, &ctx.meter, self.needed, row)? {
            Some(_) => {
                ctx.meter.cpu_tick();
                self.emitted += 1;
                Ok(Step::Row)
            }
            None => {
                self.done = true;
                Ok(Step::Done)
            }
        }
    }

    fn rewind(&mut self) {
        self.st = ScanState::new();
        self.emitted = 0;
        self.done = false;
    }

    fn remaining_units(&self) -> f64 {
        if self.done {
            return 0.0;
        }
        self.table.heap.pages_remaining(&self.st) as f64 + cpu_units(self.remaining_rows())
    }

    fn remaining_rows(&self) -> f64 {
        if self.done {
            return 0.0;
        }
        (self.table.heap.row_count() as f64 - self.emitted as f64).max(0.0)
    }
}

/// Index equality probe: one lookup, then heap fetches for each match.
pub struct IndexScanEq {
    table: Arc<Table>,
    column: usize,
    key: PhysExpr,
    needed: ColumnMask,
    est: NodeEst,
    /// Whether the index has been probed; `rids` holds the matches then.
    /// The buffer outlives a rewind, so a probe per outer row reuses it.
    probed: bool,
    rids: Vec<Rid>,
    pos: usize,
}

impl IndexScanEq {
    /// Create a probe that materialises the `needed` columns; errors if the
    /// table has no index on `column`.
    pub fn new(
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
        Ok(IndexScanEq {
            table,
            column,
            key,
            needed,
            est,
            probed: false,
            rids: Vec::new(),
            pos: 0,
        })
    }
}

impl Operator for IndexScanEq {
    fn label(&self) -> String {
        format!("IndexScan(eq) on {}", self.table.name)
    }

    fn profile_tag(&self) -> &'static str {
        "op.index_scan_eq"
    }

    fn next(&mut self, ctx: &ExecContext, row: &mut Tuple) -> Result<Step> {
        if ctx.exhausted() {
            return Ok(Step::Pending);
        }
        let heap = &self.table.heap;
        if !self.probed {
            let k = eval(&self.key, &[], ctx)?;
            // NULL never matches under SQL equality.
            if !k.is_null() {
                let idx = self
                    .table
                    .index_on(self.column)
                    .expect("index checked at build");
                idx.tree.lookup_into(&k, &ctx.meter, &mut self.rids);
                heap.resolve(&self.rids);
            }
            self.probed = true;
        }
        let Some(&rid) = self.rids.get(self.pos) else {
            return Ok(Step::Done);
        };
        self.pos += 1;
        heap.fetch_into(rid, &ctx.meter, self.needed, row)?;
        ctx.meter.cpu_tick();
        Ok(Step::Row)
    }

    fn rewind(&mut self) {
        self.probed = false;
        self.rids.clear();
        self.pos = 0;
    }

    fn remaining_units(&self) -> f64 {
        if !self.probed {
            return self.est.cost;
        }
        self.remaining_rows() * (1.0 + 1.0 / CPU_TICKS_PER_UNIT as f64)
    }

    fn remaining_rows(&self) -> f64 {
        if !self.probed {
            return self.est.rows;
        }
        (self.rids.len() - self.pos) as f64
    }
}

/// Index range scan over inclusive bounds (strict bounds are re-checked by
/// the residual filter above).
pub struct IndexScanRange {
    table: Arc<Table>,
    column: usize,
    lo: Option<PhysExpr>,
    hi: Option<PhysExpr>,
    needed: ColumnMask,
    est: NodeEst,
    st: Option<crate::btree::RangeState>,
    /// In-range rids of the leaf the scan stands in, and the next to fetch.
    rids: Vec<Rid>,
    pos: usize,
    emitted: u64,
    done: bool,
}

impl IndexScanRange {
    /// Create a range scan that materialises the `needed` columns; errors
    /// if the table has no index on `column`.
    pub fn new(
        table: Arc<Table>,
        column: usize,
        lo: Option<PhysExpr>,
        hi: Option<PhysExpr>,
        needed: ColumnMask,
        est: NodeEst,
    ) -> Result<Self> {
        if table.index_on(column).is_none() {
            return Err(EngineError::plan(format!(
                "table '{}' has no index on column {column}",
                table.name
            )));
        }
        Ok(IndexScanRange {
            table,
            column,
            lo,
            hi,
            needed,
            est,
            st: None,
            rids: Vec::new(),
            pos: 0,
            emitted: 0,
            done: false,
        })
    }
}

impl Operator for IndexScanRange {
    fn label(&self) -> String {
        format!("IndexScan(range) on {}", self.table.name)
    }

    fn profile_tag(&self) -> &'static str {
        "op.index_scan_range"
    }

    fn next(&mut self, ctx: &ExecContext, row: &mut Tuple) -> Result<Step> {
        if self.done {
            return Ok(Step::Done);
        }
        if ctx.exhausted() {
            return Ok(Step::Pending);
        }
        let heap = &self.table.heap;
        if self.pos == self.rids.len() {
            let idx = self
                .table
                .index_on(self.column)
                .expect("index checked at build");
            let st = match &mut self.st {
                Some(st) => st,
                None => {
                    let lo = self.lo.as_ref().map(|e| eval(e, &[], ctx)).transpose()?;
                    let hi = self.hi.as_ref().map(|e| eval(e, &[], ctx)).transpose()?;
                    self.st
                        .insert(idx.tree.range_start(lo.as_ref(), hi.as_ref(), &ctx.meter))
                }
            };
            self.rids.clear();
            self.pos = 0;
            let leaf = idx.tree.range_next_leaf(st, &ctx.meter);
            self.rids.extend(leaf.iter().map(|(_, rid)| *rid));
            heap.resolve(&self.rids);
        }
        let Some(&rid) = self.rids.get(self.pos) else {
            self.done = true;
            return Ok(Step::Done);
        };
        self.pos += 1;
        heap.fetch_into(rid, &ctx.meter, self.needed, row)?;
        ctx.meter.cpu_tick();
        self.emitted += 1;
        Ok(Step::Row)
    }

    fn rewind(&mut self) {
        self.st = None;
        self.rids.clear();
        self.pos = 0;
        self.emitted = 0;
        self.done = false;
    }

    fn remaining_units(&self) -> f64 {
        if self.done {
            return 0.0;
        }
        if self.st.is_none() {
            return self.est.cost;
        }
        self.remaining_rows() * (1.0 + 1.0 / CPU_TICKS_PER_UNIT as f64)
    }

    fn remaining_rows(&self) -> f64 {
        if self.done {
            return 0.0;
        }
        (self.est.rows - self.emitted as f64).max(0.0)
    }
}
