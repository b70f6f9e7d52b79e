//! The planner: lowers a parsed [`Query`] onto catalog tables, chooses
//! access paths and join strategies with the page-based cost model, and
//! annotates every node with cost/cardinality estimates.
//!
//! Strategy choices (kept deliberately close to a classic System-R-lite):
//!
//! * predicates are split into conjuncts and pushed to the lowest level that
//!   can evaluate them;
//! * single-table equality/range predicates on indexed columns become index
//!   scans when the cost model says they beat a sequential scan;
//! * joins are left-deep in FROM order; an equi-join picks an index
//!   nested-loop join when the inner table has a usable index and the cost
//!   model prefers it, otherwise a hash join; non-equi joins fall back to a
//!   materialized nested-loop join;
//! * correlated scalar subqueries compile to nested plans with correlation
//!   parameters (`PhysExpr::Param`), which is what turns the paper's
//!   workload query into an outer scan driving per-tuple index probes.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::db::{Database, Table};
use crate::error::{EngineError, Result};
use crate::plan::cost;
use crate::plan::finish::finish_plan;
use crate::plan::physical::*;
use crate::sql::ast::{BinOp, Expr, OrderItem, Query, SelectItem};
use crate::tuple::ColumnMask;
use crate::value::Value;

/// A fully planned query.
#[derive(Clone)]
pub struct PlannedQuery {
    /// Root of the physical plan.
    pub root: PlanNode,
    /// Output column names.
    pub columns: Vec<String>,
    /// Tables referenced by the plan (including inside subqueries).
    pub tables: BTreeMap<String, Arc<Table>>,
}

/// Plan a parsed query against the database catalog.
pub fn plan_query(db: &Database, q: &Query) -> Result<PlannedQuery> {
    let mut tables = BTreeMap::new();
    let (mut root, columns) = plan_select(db, q, None, &mut tables)?;
    finish_plan(&mut root, &tables);
    Ok(PlannedQuery {
        root,
        columns,
        tables,
    })
}

/// One FROM-list entry resolved against the catalog.
#[derive(Clone)]
struct ScopeItem {
    alias: String,
    table: Arc<Table>,
    offset: usize,
}

/// Name-resolution scope: the tables visible to expressions of one query,
/// with a parent link for correlated subqueries.
struct Scope<'a> {
    items: Vec<ScopeItem>,
    parent: Option<&'a Scope<'a>>,
}

impl<'a> Scope<'a> {
    /// Resolve `alias.column` / bare `column` to an input index in this
    /// scope only.
    fn resolve_local(&self, table: Option<&str>, name: &str) -> Result<Option<usize>> {
        let mut found: Option<usize> = None;
        for item in &self.items {
            if let Some(t) = table {
                if item.alias != t {
                    continue;
                }
            }
            if let Ok(ci) = item.table.schema.index_of(name) {
                if found.is_some() {
                    return Err(EngineError::plan(format!(
                        "ambiguous column reference '{name}'"
                    )));
                }
                found = Some(item.offset + ci);
            }
        }
        Ok(found)
    }
}

/// Correlation collector used while compiling a subquery: resolutions that
/// fall through to the outer scope become params, and the outer-side
/// expressions are accumulated here.
struct Correlation {
    /// Expressions (over the *outer* input tuple) producing param values.
    outer_args: Vec<PhysExpr>,
}

/// Everything the expression compiler needs.
struct CompileCtx<'a> {
    db: &'a Database,
    tables: &'a mut BTreeMap<String, Arc<Table>>,
    correlation: Option<&'a mut Correlation>,
}

fn plan_select(
    db: &Database,
    q: &Query,
    outer: Option<&Scope<'_>>,
    tables: &mut BTreeMap<String, Arc<Table>>,
) -> Result<(PlanNode, Vec<String>)> {
    if q.from.is_empty() {
        return Err(EngineError::plan("FROM clause is required"));
    }
    // Resolve FROM items.
    let mut items = Vec::new();
    let mut offset = 0usize;
    for tr in &q.from {
        let table = db.table(&tr.table)?;
        if items.iter().any(|i: &ScopeItem| i.alias == tr.alias) {
            return Err(EngineError::plan(format!(
                "duplicate table alias '{}'",
                tr.alias
            )));
        }
        tables.insert(tr.table.clone(), Arc::clone(table));
        items.push(ScopeItem {
            alias: tr.alias.clone(),
            table: Arc::clone(table),
            offset,
        });
        offset += table.schema.len();
    }
    let scope = Scope {
        items: items.clone(),
        parent: outer,
    };

    // Classify predicate conjuncts by the FROM items they reference.
    let mut scan_preds: Vec<Vec<&Expr>> = vec![Vec::new(); items.len()];
    let mut multi_preds: Vec<(Vec<usize>, &Expr)> = Vec::new(); // (referenced items, pred)
    for p in &q.predicates {
        let refs = referenced_items(p, &scope)?;
        match refs.items.len() {
            0 => {
                // Constant or purely-correlated predicate: apply at the
                // first scan (it filters everything uniformly).
                scan_preds[0].push(p);
            }
            1 => scan_preds[refs.items[0]].push(p),
            _ => multi_preds.push((refs.items, p)),
        }
    }

    // Cost each item's filtered scan once; these are the join-order leaves.
    let mut correlation_dummy = None;
    let mut scans = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        scans.push(scan_plan(
            db,
            item,
            &scan_preds[i],
            tables,
            outer,
            &mut correlation_dummy,
        )?);
    }

    // Greedy cost-based join ordering: start from the smallest filtered
    // scan, then repeatedly join the candidate whose join node has the
    // lowest cumulative cost estimate. Connected candidates win naturally
    // (a cross product estimate dwarfs an equi join).
    let first = (0..items.len())
        .min_by(|&a, &b| {
            scans[a]
                .est
                .rows
                .total_cmp(&scans[b].est.rows)
                .then(scans[a].est.cost.total_cmp(&scans[b].est.cost))
        })
        .expect("FROM is non-empty");
    let mut joined_idx = vec![first];
    let mut joined_items = vec![ScopeItem {
        offset: 0,
        ..items[first].clone()
    }];
    let mut node = scans[first].clone();
    let mut pending = multi_preds;
    let mut remaining: Vec<usize> = (0..items.len()).filter(|i| *i != first).collect();
    while !remaining.is_empty() {
        let prefix_width: usize = joined_items.iter().map(|i| i.table.schema.len()).sum();
        let mut best: Option<(usize, PlanNode, Vec<usize>, ScopeItem)> = None;
        for (pos, &c) in remaining.iter().enumerate() {
            let applicable_idx: Vec<usize> = pending
                .iter()
                .enumerate()
                .filter(|(_, (refs, _))| refs.iter().all(|r| joined_idx.contains(r) || *r == c))
                .map(|(k, _)| k)
                .collect();
            let applicable: Vec<&Expr> = applicable_idx.iter().map(|k| pending[*k].1).collect();
            let cand = ScopeItem {
                offset: prefix_width,
                ..items[c].clone()
            };
            let n = join_step(
                db,
                node.clone(),
                &joined_items,
                &cand,
                &scan_preds[c],
                &applicable,
                tables,
                outer,
            )?;
            let beats = best
                .as_ref()
                .map(|(_, b, _, _)| n.est.cost < b.est.cost)
                .unwrap_or(true);
            if beats {
                best = Some((pos, n, applicable_idx, cand));
            }
        }
        let (pos, n, mut consumed, cand) = best.expect("remaining non-empty");
        node = n;
        joined_idx.push(remaining.remove(pos));
        joined_items.push(cand);
        consumed.sort_unstable_by(|a, b| b.cmp(a));
        for k in consumed {
            pending.remove(k);
        }
    }
    // The joined-order scope is what all later expressions compile against.
    let scope = Scope {
        items: joined_items,
        parent: outer,
    };
    // Defensive: any predicate not consumed by the join loop.
    for (_, p) in pending.iter() {
        let mut ctx = CompileCtx {
            db,
            tables,
            correlation: None,
        };
        let pred = compile_expr(p, &scope, &mut ctx)?;
        node = filter_node(node, pred);
    }

    // Aggregation.
    let has_aggs = !q.group_by.is_empty()
        || q.select.iter().any(|s| match s {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Star => false,
        })
        || q.having
            .as_ref()
            .map(|h| h.contains_aggregate())
            .unwrap_or(false);

    let (mut node, columns) = if has_aggs {
        plan_aggregate(db, q, node, &scope, tables)?
    } else {
        if let Some(h) = &q.having {
            return Err(EngineError::plan(format!(
                "HAVING without aggregation: {h:?}"
            )));
        }
        plan_projection(db, q, node, &scope, tables)?
    };

    if q.distinct {
        node = distinct_node(node);
    }
    // ORDER BY over the output columns.
    if !q.order_by.is_empty() {
        node = plan_order_by(&q.order_by, node, &columns)?;
    }
    if let Some(n) = q.limit {
        let est = NodeEst {
            rows: node.est.rows.min(n as f64),
            cost: node.est.cost,
        };
        node = PlanNode {
            op: PlanOp::Limit {
                input: Box::new(node),
                n,
            },
            est,
        };
    }
    Ok((node, columns))
}

/// Wrap a plan in a duplicate-eliminating node.
fn distinct_node(input: PlanNode) -> PlanNode {
    let est = NodeEst {
        rows: (input.est.rows / 2.0).max(1.0),
        cost: input.est.cost + cost::per_tuple_cost(input.est.rows),
    };
    PlanNode {
        op: PlanOp::Distinct {
            input: Box::new(input),
        },
        est,
    }
}

/// Which FROM items a predicate references.
struct ItemRefs {
    /// Indices (into the FROM list) of referenced items, in first-seen order.
    items: Vec<usize>,
}

fn referenced_items(p: &Expr, scope: &Scope<'_>) -> Result<ItemRefs> {
    let mut seen: Vec<usize> = Vec::new();
    let mut err: Option<EngineError> = None;
    // Descend into subqueries: a correlated EXISTS/IN predicate must be
    // classified by the outer tables its subquery references, or it would
    // be applied at a scan that cannot resolve them.
    p.walk_with_subqueries(&mut |e| {
        if let Expr::Column { table, name } = e {
            match scope.resolve_local(table.as_deref(), name) {
                Ok(Some(idx)) => {
                    // Map absolute index back to the item.
                    for (i, item) in scope.items.iter().enumerate() {
                        let end = item.offset + item.table.schema.len();
                        if idx >= item.offset && idx < end {
                            if !seen.contains(&i) {
                                seen.push(i);
                            }
                            break;
                        }
                    }
                }
                // Resolved later (outer scope) or an error at compile time.
                Ok(None) => {}
                Err(e) => err = Some(e),
            }
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    Ok(ItemRefs { items: seen })
}

/// Plan a single-table access path with its pushed-down predicates.
///
/// The predicates are compiled against a *local* scope (the table's columns
/// at offset 0), because the scan's output is just that table's row. Outer
/// scope is still reachable for correlation.
#[allow(clippy::too_many_arguments)]
fn scan_plan(
    db: &Database,
    item: &ScopeItem,
    preds: &[&Expr],
    tables: &mut BTreeMap<String, Arc<Table>>,
    outer: Option<&Scope<'_>>,
    correlation: &mut Option<&mut Correlation>,
) -> Result<PlanNode> {
    let local_scope = Scope {
        items: vec![ScopeItem {
            alias: item.alias.clone(),
            table: Arc::clone(&item.table),
            offset: 0,
        }],
        parent: outer,
    };
    let t = &item.table;
    let stats = &t.stats;
    let seq_cost = cost::seq_scan_cost(stats);

    // Find the best index-usable predicate: `col = expr` or range bounds,
    // where `expr` has no Input references at this level.
    let mut best: Option<(usize, PlanNode, Vec<usize>)> = None; // (pred indexes used…)
    for (pi, p) in preds.iter().enumerate() {
        let Some((col, op, other)) = index_candidate(p, &local_scope)? else {
            continue;
        };
        let Some(meta) = t.index_meta(col) else {
            continue;
        };
        // Compile the comparison value; it may reference outer params but
        // not this table's columns.
        let mut ctx = CompileCtx {
            db,
            tables,
            correlation: correlation.as_deref_mut(),
        };
        let key = compile_expr(other, &local_scope, &mut ctx)?;
        if key.uses_input() {
            continue;
        }
        let col_stats = stats.columns.get(col);
        let (est_rows, opnode) = match op {
            BinOp::Eq => {
                // Value-aware cardinality when the key is a literal (MCV).
                let matches = col_stats
                    .map(|c| match &key {
                        PhysExpr::Literal(v) => stats.row_count as f64 * c.eq_selectivity_for(v),
                        _ => stats.row_count as f64 * c.eq_selectivity(),
                    })
                    .unwrap_or(1.0)
                    .max(1.0);
                (
                    matches,
                    PlanOp::IndexScanEq {
                        table: t.name.clone(),
                        column: col,
                        key,
                        needed: ColumnMask::ALL,
                    },
                )
            }
            BinOp::Lt | BinOp::LtEq => {
                let sel = match (&key, col_stats) {
                    (PhysExpr::Literal(v), Some(c)) => c.le_selectivity(v),
                    _ => 1.0 / 3.0,
                };
                (
                    (stats.row_count as f64 * sel).max(1.0),
                    PlanOp::IndexScanRange {
                        table: t.name.clone(),
                        column: col,
                        lo: None,
                        hi: Some(key),
                        needed: ColumnMask::ALL,
                    },
                )
            }
            BinOp::Gt | BinOp::GtEq => {
                let sel = match (&key, col_stats) {
                    (PhysExpr::Literal(v), Some(c)) => 1.0 - c.le_selectivity(v),
                    _ => 1.0 / 3.0,
                };
                (
                    (stats.row_count as f64 * sel).max(1.0),
                    PlanOp::IndexScanRange {
                        table: t.name.clone(),
                        column: col,
                        lo: Some(key),
                        hi: None,
                        needed: ColumnMask::ALL,
                    },
                )
            }
            _ => continue,
        };
        let c = cost::index_probe_cost(meta, est_rows);
        let beats_best = best
            .as_ref()
            .map(|(_, n, _)| c < n.est.cost)
            .unwrap_or(true);
        if c < seq_cost && beats_best {
            let node = PlanNode {
                op: opnode,
                est: NodeEst {
                    rows: est_rows,
                    cost: c,
                },
            };
            // Equality probes are exact; range scans keep the predicate as a
            // residual (strict vs inclusive bounds).
            let residual = !matches!(op, BinOp::Eq);
            let consumed = if residual { vec![] } else { vec![pi] };
            best = Some((pi, node, consumed));
        }
    }

    let (mut node, consumed) = match best {
        Some((_, node, consumed)) => (node, consumed),
        None => (
            PlanNode {
                op: PlanOp::SeqScan {
                    table: t.name.clone(),
                    needed: ColumnMask::ALL,
                },
                est: NodeEst {
                    rows: stats.row_count as f64,
                    cost: seq_cost,
                },
            },
            vec![],
        ),
    };

    // Apply remaining predicates as a filter.
    let rest: Vec<&&Expr> = preds
        .iter()
        .enumerate()
        .filter(|(i, _)| !consumed.contains(i))
        .map(|(_, p)| p)
        .collect();
    if !rest.is_empty() {
        let mut ctx = CompileCtx {
            db,
            tables,
            correlation: correlation.as_deref_mut(),
        };
        let mut sel = 1.0;
        let mut compiled = Vec::new();
        for p in &rest {
            sel *= predicate_selectivity(p, t, &local_scope);
            compiled.push(compile_expr(p, &local_scope, &mut ctx)?);
        }
        let pred = conjoin(compiled);
        let rows_out = (node.est.rows * sel).max(0.0);
        // Subquery predicates add their estimated per-invocation cost.
        let sub_cost = subquery_cost_estimate(&pred);
        let est = NodeEst {
            rows: rows_out,
            cost: node.est.cost + cost::per_tuple_cost(node.est.rows) + node.est.rows * sub_cost,
        };
        node = PlanNode {
            op: PlanOp::Filter {
                input: Box::new(node),
                pred,
            },
            est,
        };
    }
    Ok(node)
}

/// Is `p` of the form `col ⊕ expr` (or `expr ⊕ col`) usable for an index on
/// this scan's table? Returns (column ordinal, normalized op, value expr).
fn index_candidate<'e>(p: &'e Expr, local: &Scope<'_>) -> Result<Option<(usize, BinOp, &'e Expr)>> {
    let Expr::Binary { op, left, right } = p else {
        return Ok(None);
    };
    if !op.is_comparison() || matches!(op, BinOp::NotEq) {
        return Ok(None);
    }
    let try_side =
        |col_side: &Expr, other: &'e Expr, op: BinOp| -> Result<Option<(usize, BinOp, &'e Expr)>> {
            if let Expr::Column { table, name } = col_side {
                if let Some(idx) = local.resolve_local(table.as_deref(), name)? {
                    // `other` must not reference this table.
                    let mut local_ref = false;
                    other.walk(&mut |e| {
                        if let Expr::Column { table, name } = e {
                            if matches!(local.resolve_local(table.as_deref(), name), Ok(Some(_))) {
                                local_ref = true;
                            }
                        }
                    });
                    if !local_ref {
                        return Ok(Some((idx, op, other)));
                    }
                }
            }
            Ok(None)
        };
    if let Some(hit) = try_side(left, right, *op)? {
        return Ok(Some(hit));
    }
    let flipped = match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => *other,
    };
    try_side(right, left, flipped)
}

/// Heuristic selectivity of a single-table predicate.
fn predicate_selectivity(p: &Expr, table: &Table, local: &Scope<'_>) -> f64 {
    if let Expr::Binary { op, left, right } = p {
        let col_of = |e: &Expr| -> Option<usize> {
            if let Expr::Column { table: t, name } = e {
                local.resolve_local(t.as_deref(), name).ok().flatten()
            } else {
                None
            }
        };
        let lit_of = |e: &Expr| -> Option<Value> {
            if let Expr::Literal(v) = e {
                Some(v.clone())
            } else {
                None
            }
        };
        let (col, lit, op) = match (col_of(left), lit_of(right), col_of(right), lit_of(left)) {
            (Some(c), Some(v), _, _) => (Some(c), Some(v), *op),
            (_, _, Some(c), Some(v)) => {
                let flipped = match op {
                    BinOp::Lt => BinOp::Gt,
                    BinOp::LtEq => BinOp::GtEq,
                    BinOp::Gt => BinOp::Lt,
                    BinOp::GtEq => BinOp::LtEq,
                    o => *o,
                };
                (Some(c), Some(v), flipped)
            }
            _ => (None, None, *op),
        };
        if let (Some(c), Some(v)) = (col, lit) {
            if let Some(cs) = table.stats.columns.get(c) {
                return match op {
                    BinOp::Eq => cs.eq_selectivity_for(&v),
                    BinOp::NotEq => (1.0 - cs.eq_selectivity_for(&v)).max(0.0),
                    BinOp::Lt | BinOp::LtEq => cs.le_selectivity(&v),
                    BinOp::Gt | BinOp::GtEq => (1.0 - cs.le_selectivity(&v)).max(0.0),
                    _ => 0.5,
                };
            }
        }
    }
    // Subquery comparisons and anything else: textbook default.
    if p.any(&mut |e| {
        matches!(
            e,
            Expr::Subquery(_) | Expr::Exists(_) | Expr::InSubquery { .. }
        )
    }) {
        0.5
    } else {
        1.0 / 3.0
    }
}

/// Estimated per-invocation cost of subqueries inside a compiled predicate.
fn subquery_cost_estimate(p: &PhysExpr) -> f64 {
    match p {
        PhysExpr::Subquery { plan, .. } | PhysExpr::InSubquery { plan, .. } => plan.est.cost,
        // EXISTS short-circuits; assume half the subplan on average.
        PhysExpr::Exists { plan, .. } => plan.est.cost / 2.0,
        PhysExpr::Unary { expr, .. } | PhysExpr::Like { expr, .. } => subquery_cost_estimate(expr),
        PhysExpr::Binary { left, right, .. } => {
            subquery_cost_estimate(left) + subquery_cost_estimate(right)
        }
        PhysExpr::Scalar { args, .. } => args.iter().map(subquery_cost_estimate).sum(),
        _ => 0.0,
    }
}

fn conjoin(mut preds: Vec<PhysExpr>) -> PhysExpr {
    let mut e = preds.pop().expect("conjoin of empty list");
    while let Some(p) = preds.pop() {
        e = PhysExpr::Binary {
            op: BinOp::And,
            left: Box::new(p),
            right: Box::new(e),
        };
    }
    e
}

fn filter_node(input: PlanNode, pred: PhysExpr) -> PlanNode {
    let sub_cost = subquery_cost_estimate(&pred);
    let est = NodeEst {
        rows: input.est.rows * (1.0 / 3.0),
        cost: input.est.cost + cost::per_tuple_cost(input.est.rows) + input.est.rows * sub_cost,
    };
    PlanNode {
        op: PlanOp::Filter {
            input: Box::new(input),
            pred,
        },
        est,
    }
}

/// Join the running plan (`left`, whose output is the concatenation of
/// `joined_items` in order) with the candidate `item` (whose `offset` is
/// the current prefix width).
#[allow(clippy::too_many_arguments)]
fn join_step(
    db: &Database,
    left: PlanNode,
    joined_items: &[ScopeItem],
    item: &ScopeItem,
    item_preds: &[&Expr],
    applicable: &[&Expr],
    tables: &mut BTreeMap<String, Arc<Table>>,
    outer: Option<&Scope<'_>>,
) -> Result<PlanNode> {
    // Scope of the joined prefix including the candidate.
    let mut prefix_items = joined_items.to_vec();
    prefix_items.push(item.clone());
    let prefix_scope = Scope {
        items: prefix_items,
        parent: outer,
    };

    // Look for an equi-join predicate `left_expr = right_col` where the
    // right side is a bare column of item i.
    let mut equi: Option<(&Expr, usize, &Expr)> = None; // (left side, right col, whole pred)
    for p in applicable.iter().copied() {
        if let Expr::Binary {
            op: BinOp::Eq,
            left: a,
            right: b,
        } = p
        {
            for (x, y) in [(a, b), (b, a)] {
                if let Expr::Column { table, name } = &**y {
                    // y must be a column of item i…
                    let item_scope = Scope {
                        items: vec![ScopeItem {
                            alias: item.alias.clone(),
                            table: Arc::clone(&item.table),
                            offset: 0,
                        }],
                        parent: None,
                    };
                    if let Some(col) = item_scope.resolve_local(table.as_deref(), name)? {
                        // …and x must not reference item i.
                        let mut refs_item = false;
                        x.walk(&mut |e| {
                            if let Expr::Column { table, name } = e {
                                if matches!(
                                    item_scope.resolve_local(table.as_deref(), name),
                                    Ok(Some(_))
                                ) {
                                    refs_item = true;
                                }
                            }
                        });
                        if !refs_item {
                            equi = Some((x, col, p));
                            break;
                        }
                    }
                }
            }
        }
        if equi.is_some() {
            break;
        }
    }

    // Scope for compiling expressions over the left side only.
    let left_scope = Scope {
        items: joined_items.to_vec(),
        parent: outer,
    };

    let node = if let Some((left_expr, right_col, equi_pred)) = equi {
        let mut ctx = CompileCtx {
            db,
            tables,
            correlation: None,
        };
        let left_key = compile_expr(left_expr, &left_scope, &mut ctx)?;
        let t = &item.table;
        let matches = t
            .stats
            .columns
            .get(right_col)
            .map(|c| t.stats.row_count as f64 * c.eq_selectivity())
            .unwrap_or(1.0)
            .max(1.0);
        let use_index = t.index_meta(right_col).map(|meta| {
            // Index NLJ only wins when probing is cheaper than building a
            // hash table over the full inner scan — and only if item i has
            // no pushed-down predicates of its own (the probe bypasses them;
            // they would need re-checking, which we apply as a post filter).
            let inlj = left.est.rows * cost::index_probe_cost(meta, matches);
            let hash = cost::seq_scan_cost(&t.stats)
                + cost::hash_join_cost(left.est.rows, t.stats.row_count as f64);
            (inlj < hash, meta)
        });
        match use_index {
            Some((true, meta)) => {
                let est_rows = (left.est.rows * matches).max(1.0);
                let est = NodeEst {
                    rows: est_rows,
                    cost: left.est.cost + left.est.rows * cost::index_probe_cost(meta, matches),
                };
                let mut n = PlanNode {
                    op: PlanOp::IndexNLJoin {
                        left: Box::new(left),
                        table: t.name.clone(),
                        column: right_col,
                        key: left_key,
                        needed: ColumnMask::ALL,
                    },
                    est,
                };
                // Re-apply item-local predicates (probe bypassed them) and
                // any other applicable join predicates.
                let mut post: Vec<&Expr> = item_preds.to_vec();
                post.extend(
                    applicable
                        .iter()
                        .filter(|p| !std::ptr::eq(**p, equi_pred))
                        .copied(),
                );
                if !post.is_empty() {
                    let mut ctx = CompileCtx {
                        db,
                        tables,
                        correlation: None,
                    };
                    let compiled: Result<Vec<PhysExpr>> = post
                        .iter()
                        .map(|p| compile_expr(p, &prefix_scope, &mut ctx))
                        .collect();
                    n = filter_node(n, conjoin(compiled?));
                }
                n
            }
            _ => {
                // Hash join: plan the inner scan with its own predicates.
                let mut corr = None;
                let right_plan = scan_plan(db, item, item_preds, tables, outer, &mut corr)?;
                let mut ctx = CompileCtx {
                    db,
                    tables,
                    correlation: None,
                };
                // Right key over the inner scan output (local offsets).
                let item_scope = Scope {
                    items: vec![ScopeItem {
                        alias: item.alias.clone(),
                        table: Arc::clone(&item.table),
                        offset: 0,
                    }],
                    parent: outer,
                };
                let Expr::Binary {
                    left: a, right: b, ..
                } = equi_pred
                else {
                    unreachable!()
                };
                // Re-derive which side is the right column.
                let (right_side, _left_side) = if matches!(&**b, Expr::Column { .. })
                    && item_scope
                        .resolve_local(
                            match &**b {
                                Expr::Column { table, .. } => table.as_deref(),
                                _ => None,
                            },
                            match &**b {
                                Expr::Column { name, .. } => name,
                                _ => "",
                            },
                        )?
                        .is_some()
                {
                    (&**b, &**a)
                } else {
                    (&**a, &**b)
                };
                let right_key = compile_expr(right_side, &item_scope, &mut ctx)?;
                let ndv = item
                    .table
                    .stats
                    .columns
                    .get(right_col)
                    .map(|c| c.ndv)
                    .unwrap_or(1.0)
                    .max(1.0);
                let est_rows = (left.est.rows * right_plan.est.rows / ndv).max(1.0);
                let est = NodeEst {
                    rows: est_rows,
                    cost: left.est.cost
                        + right_plan.est.cost
                        + cost::hash_join_cost(left.est.rows, right_plan.est.rows),
                };
                let mut n = PlanNode {
                    op: PlanOp::HashJoin {
                        left: Box::new(left),
                        right: Box::new(right_plan),
                        left_key,
                        right_key,
                    },
                    est,
                };
                let post: Vec<&Expr> = applicable
                    .iter()
                    .filter(|p| !std::ptr::eq(**p, equi_pred))
                    .copied()
                    .collect();
                if !post.is_empty() {
                    let mut ctx = CompileCtx {
                        db,
                        tables,
                        correlation: None,
                    };
                    let compiled: Result<Vec<PhysExpr>> = post
                        .iter()
                        .map(|p| compile_expr(p, &prefix_scope, &mut ctx))
                        .collect();
                    n = filter_node(n, conjoin(compiled?));
                }
                n
            }
        }
    } else {
        // No equi predicate: materialized nested-loop join.
        let mut corr = None;
        let right_plan = scan_plan(db, item, item_preds, tables, outer, &mut corr)?;
        let pred = if applicable.is_empty() {
            None
        } else {
            let mut ctx = CompileCtx {
                db,
                tables,
                correlation: None,
            };
            let compiled: Result<Vec<PhysExpr>> = applicable
                .iter()
                .map(|p| compile_expr(p, &prefix_scope, &mut ctx))
                .collect();
            Some(conjoin(compiled?))
        };
        let sel = if pred.is_some() { 1.0 / 3.0 } else { 1.0 };
        let est_rows = (left.est.rows * right_plan.est.rows * sel).max(1.0);
        let est = NodeEst {
            rows: est_rows,
            cost: left.est.cost
                + right_plan.est.cost
                + cost::nested_loop_cost(left.est.rows, right_plan.est.rows),
        };
        PlanNode {
            op: PlanOp::NestedLoopJoin {
                left: Box::new(left),
                right: Box::new(right_plan),
                pred,
            },
            est,
        }
    };

    Ok(node)
}

/// Plan the non-aggregate projection.
fn plan_projection(
    db: &Database,
    q: &Query,
    input: PlanNode,
    scope: &Scope<'_>,
    tables: &mut BTreeMap<String, Arc<Table>>,
) -> Result<(PlanNode, Vec<String>)> {
    let mut exprs = Vec::new();
    let mut names = Vec::new();
    let mut star_only = true;
    for item in &q.select {
        match item {
            SelectItem::Star => {
                // Expand in FROM order regardless of the join order the
                // optimizer chose (SQL semantics; offsets come from the
                // joined-order scope).
                for tr in &q.from {
                    let si = scope
                        .items
                        .iter()
                        .find(|i| i.alias == tr.alias)
                        .expect("FROM item present in scope");
                    for (ci, col) in si.table.schema.columns().iter().enumerate() {
                        exprs.push(PhysExpr::Input(si.offset + ci));
                        names.push(col.name.clone());
                    }
                }
            }
            SelectItem::Expr { expr, alias } => {
                star_only = false;
                let mut ctx = CompileCtx {
                    db,
                    tables,
                    correlation: None,
                };
                exprs.push(compile_expr(expr, scope, &mut ctx)?);
                names.push(output_name(expr, alias.as_deref()));
            }
        }
    }
    if star_only && q.select.len() == 1 {
        // Pure `SELECT *`: skip the Project node when the physical column
        // order already matches FROM order (identity projection).
        let identity = exprs
            .iter()
            .enumerate()
            .all(|(i, e)| matches!(e, PhysExpr::Input(j) if *j == i));
        if identity {
            return Ok((input, names));
        }
    }
    let est = NodeEst {
        rows: input.est.rows,
        cost: input.est.cost + cost::per_tuple_cost(input.est.rows),
    };
    Ok((
        PlanNode {
            op: PlanOp::Project {
                input: Box::new(input),
                exprs,
            },
            est,
        },
        names,
    ))
}

fn output_name(expr: &Expr, alias: Option<&str>) -> String {
    if let Some(a) = alias {
        return a.to_owned();
    }
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Func { name, .. } => name.clone(),
        _ => "?column?".to_owned(),
    }
}

/// Plan aggregation: Aggregate node, HAVING filter, then projection.
fn plan_aggregate(
    db: &Database,
    q: &Query,
    input: PlanNode,
    scope: &Scope<'_>,
    tables: &mut BTreeMap<String, Arc<Table>>,
) -> Result<(PlanNode, Vec<String>)> {
    // Compile group expressions against the pre-aggregation scope.
    let mut ctx = CompileCtx {
        db,
        tables,
        correlation: None,
    };
    let mut group = Vec::new();
    for g in &q.group_by {
        group.push(compile_expr(g, scope, &mut ctx)?);
    }
    // Collect aggregate calls from SELECT and HAVING.
    let mut agg_asts: Vec<&Expr> = Vec::new();
    let mut sources: Vec<&Expr> = Vec::new();
    for item in &q.select {
        if let SelectItem::Expr { expr, .. } = item {
            sources.push(expr);
        }
    }
    if let Some(h) = &q.having {
        sources.push(h);
    }
    for s in &sources {
        collect_aggs(s, &mut agg_asts);
    }
    let mut aggs = Vec::new();
    for a in &agg_asts {
        let Expr::Func {
            name,
            args,
            star,
            distinct,
        } = a
        else {
            unreachable!()
        };
        let func = match name.as_str() {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            other => return Err(EngineError::plan(format!("unknown aggregate '{other}'"))),
        };
        let arg = if *star {
            None
        } else {
            if args.len() != 1 {
                return Err(EngineError::plan(format!(
                    "aggregate {name} takes exactly one argument"
                )));
            }
            let mut ctx = CompileCtx {
                db,
                tables,
                correlation: None,
            };
            Some(compile_expr(&args[0], scope, &mut ctx)?)
        };
        aggs.push(AggSpec {
            func,
            arg,
            distinct: *distinct,
        });
    }

    let groups_est = if group.is_empty() {
        1.0
    } else {
        (input.est.rows / 10.0).max(1.0)
    };
    let est = NodeEst {
        rows: groups_est,
        cost: input.est.cost + cost::aggregate_cost(input.est.rows, groups_est),
    };
    let mut node = PlanNode {
        op: PlanOp::Aggregate {
            input: Box::new(input),
            group: group.clone(),
            aggs,
        },
        est,
    };

    // Rewrite HAVING and SELECT over the post-aggregation row:
    // columns [0..g) are group values, [g..g+a) aggregate results.
    let ng = group.len();
    if let Some(h) = &q.having {
        let pred = rewrite_post_agg(h, q, &agg_asts, ng)?;
        let est = NodeEst {
            rows: node.est.rows / 2.0,
            cost: node.est.cost + cost::per_tuple_cost(node.est.rows),
        };
        node = PlanNode {
            op: PlanOp::Filter {
                input: Box::new(node),
                pred,
            },
            est,
        };
    }
    let mut exprs = Vec::new();
    let mut names = Vec::new();
    for item in &q.select {
        match item {
            SelectItem::Star => {
                return Err(EngineError::plan(
                    "SELECT * is not valid with GROUP BY / aggregates",
                ))
            }
            SelectItem::Expr { expr, alias } => {
                exprs.push(rewrite_post_agg(expr, q, &agg_asts, ng)?);
                names.push(output_name(expr, alias.as_deref()));
            }
        }
    }
    let est = NodeEst {
        rows: node.est.rows,
        cost: node.est.cost + cost::per_tuple_cost(node.est.rows),
    };
    Ok((
        PlanNode {
            op: PlanOp::Project {
                input: Box::new(node),
                exprs,
            },
            est,
        },
        names,
    ))
}

fn collect_aggs<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::Func { name, .. }
            if matches!(name.as_str(), "count" | "sum" | "avg" | "min" | "max")
                && !out.contains(&e) =>
        {
            out.push(e);
        }
        Expr::Unary { expr, .. } => collect_aggs(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_aggs(left, out);
            collect_aggs(right, out);
        }
        Expr::Func { args, .. } => {
            for a in args {
                collect_aggs(a, out);
            }
        }
        Expr::Like { expr, .. } | Expr::InSubquery { expr, .. } => collect_aggs(expr, out),
        _ => {}
    }
}

/// Rewrite an expression over the post-aggregation row.
fn rewrite_post_agg(e: &Expr, q: &Query, agg_asts: &[&Expr], ng: usize) -> Result<PhysExpr> {
    // Whole expression equals a GROUP BY expression?
    for (i, g) in q.group_by.iter().enumerate() {
        if e == g {
            return Ok(PhysExpr::Input(i));
        }
    }
    // An aggregate call?
    if let Some(i) = agg_asts.iter().position(|a| *a == e) {
        return Ok(PhysExpr::Input(ng + i));
    }
    match e {
        Expr::Literal(v) => Ok(PhysExpr::Literal(v.clone())),
        Expr::Unary { op, expr } => Ok(PhysExpr::Unary {
            op: *op,
            expr: Box::new(rewrite_post_agg(expr, q, agg_asts, ng)?),
        }),
        Expr::Binary { op, left, right } => Ok(PhysExpr::Binary {
            op: *op,
            left: Box::new(rewrite_post_agg(left, q, agg_asts, ng)?),
            right: Box::new(rewrite_post_agg(right, q, agg_asts, ng)?),
        }),
        Expr::Func { name, args, .. } => {
            let func = scalar_func(name, args.len())?;
            let cargs: Result<Vec<PhysExpr>> = args
                .iter()
                .map(|a| rewrite_post_agg(a, q, agg_asts, ng))
                .collect();
            Ok(PhysExpr::Scalar { func, args: cargs? })
        }
        Expr::Column { table, name } => Err(EngineError::plan(format!(
            "column '{}{}' must appear in GROUP BY or inside an aggregate",
            table
                .as_deref()
                .map(|t| format!("{t}."))
                .unwrap_or_default(),
            name
        ))),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Ok(PhysExpr::Like {
            expr: Box::new(rewrite_post_agg(expr, q, agg_asts, ng)?),
            pattern: pattern.clone(),
            negated: *negated,
        }),
        Expr::Subquery(_) | Expr::Exists(_) | Expr::InSubquery { .. } => Err(EngineError::plan(
            "subqueries are not supported in the SELECT list of an aggregate query",
        )),
    }
}

/// Plan ORDER BY over the output columns.
fn plan_order_by(order: &[OrderItem], input: PlanNode, columns: &[String]) -> Result<PlanNode> {
    let mut keys = Vec::new();
    for o in order {
        let key = resolve_output_expr(&o.expr, columns)?;
        keys.push(SortKey {
            expr: key,
            desc: o.desc,
        });
    }
    let est = NodeEst {
        rows: input.est.rows,
        cost: input.est.cost + cost::sort_cost(input.est.rows),
    };
    Ok(PlanNode {
        op: PlanOp::Sort {
            input: Box::new(input),
            keys,
        },
        est,
    })
}

/// Resolve an ORDER BY expression against output column names.
fn resolve_output_expr(e: &Expr, columns: &[String]) -> Result<PhysExpr> {
    match e {
        // Qualified references resolve by bare column name (the projected
        // output has plain names); a name appearing more than once in the
        // output is ambiguous and rejected rather than silently bound to
        // the first match.
        Expr::Column { name, .. } => {
            let mut hits = columns.iter().enumerate().filter(|(_, c)| *c == name);
            let idx = hits.next().map(|(i, _)| i).ok_or_else(|| {
                EngineError::plan(format!("ORDER BY column '{name}' is not in the output"))
            })?;
            if hits.next().is_some() {
                return Err(EngineError::plan(format!(
                    "ORDER BY column '{name}' is ambiguous: it appears more than once in the output"
                )));
            }
            Ok(PhysExpr::Input(idx))
        }
        Expr::Literal(Value::Int(n)) if *n >= 1 && (*n as usize) <= columns.len() => {
            // ORDER BY ordinal.
            Ok(PhysExpr::Input(*n as usize - 1))
        }
        Expr::Literal(v) => Ok(PhysExpr::Literal(v.clone())),
        Expr::Unary { op, expr } => Ok(PhysExpr::Unary {
            op: *op,
            expr: Box::new(resolve_output_expr(expr, columns)?),
        }),
        Expr::Binary { op, left, right } => Ok(PhysExpr::Binary {
            op: *op,
            left: Box::new(resolve_output_expr(left, columns)?),
            right: Box::new(resolve_output_expr(right, columns)?),
        }),
        other => Err(EngineError::plan(format!(
            "unsupported ORDER BY expression: {other:?}"
        ))),
    }
}

fn scalar_func(name: &str, arity: usize) -> Result<ScalarFunc> {
    let (func, expected) = match name {
        "abs" => (ScalarFunc::Abs, Some(1)),
        "is_null" => (ScalarFunc::IsNull, Some(1)),
        "length" => (ScalarFunc::Length, Some(1)),
        "lower" => (ScalarFunc::Lower, Some(1)),
        "upper" => (ScalarFunc::Upper, Some(1)),
        "round" => (ScalarFunc::Round, Some(1)),
        "coalesce" => (ScalarFunc::Coalesce, None), // variadic, ≥ 1
        other => return Err(EngineError::plan(format!("unknown function '{other}'"))),
    };
    match expected {
        Some(n) if arity != n => Err(EngineError::plan(format!(
            "{name}() takes {n} argument{}, got {arity}",
            if n == 1 { "" } else { "s" }
        ))),
        None if arity == 0 => Err(EngineError::plan(format!(
            "{name}() takes at least one argument"
        ))),
        _ => Ok(func),
    }
}

/// Compile an AST expression against a scope.
fn compile_expr(e: &Expr, scope: &Scope<'_>, ctx: &mut CompileCtx<'_>) -> Result<PhysExpr> {
    match e {
        Expr::Literal(v) => Ok(PhysExpr::Literal(v.clone())),
        Expr::Column { table, name } => {
            if let Some(idx) = scope.resolve_local(table.as_deref(), name)? {
                return Ok(PhysExpr::Input(idx));
            }
            // Correlation: resolve in the parent scope.
            if let (Some(parent), Some(corr)) = (scope.parent, ctx.correlation.as_deref_mut()) {
                if let Some(outer_idx) = parent.resolve_local(table.as_deref(), name)? {
                    let outer_expr = PhysExpr::Input(outer_idx);
                    let pos = corr
                        .outer_args
                        .iter()
                        .position(|a| *a == outer_expr)
                        .unwrap_or_else(|| {
                            corr.outer_args.push(outer_expr.clone());
                            corr.outer_args.len() - 1
                        });
                    return Ok(PhysExpr::Param(pos));
                }
            }
            Err(EngineError::plan(format!(
                "unresolved column '{}{}'",
                table
                    .as_deref()
                    .map(|t| format!("{t}."))
                    .unwrap_or_default(),
                name
            )))
        }
        Expr::Unary { op, expr } => Ok(PhysExpr::Unary {
            op: *op,
            expr: Box::new(compile_expr(expr, scope, ctx)?),
        }),
        Expr::Binary { op, left, right } => Ok(PhysExpr::Binary {
            op: *op,
            left: Box::new(compile_expr(left, scope, ctx)?),
            right: Box::new(compile_expr(right, scope, ctx)?),
        }),
        Expr::Func {
            name, args, star, ..
        } => {
            if *star || matches!(name.as_str(), "count" | "sum" | "avg" | "min" | "max") {
                return Err(EngineError::plan(format!(
                    "aggregate '{name}' is not allowed here"
                )));
            }
            let func = scalar_func(name, args.len())?;
            let cargs: Result<Vec<PhysExpr>> =
                args.iter().map(|a| compile_expr(a, scope, ctx)).collect();
            Ok(PhysExpr::Scalar { func, args: cargs? })
        }
        Expr::Subquery(q) => {
            // Plan the subquery with the current scope as its parent; its
            // correlated references to *this* scope become params.
            let mut corr = Correlation {
                outer_args: Vec::new(),
            };
            let (plan, cols) = plan_subquery(ctx.db, q, scope, ctx.tables, &mut corr)?;
            if cols.len() != 1 {
                return Err(EngineError::plan(format!(
                    "scalar subquery must return exactly one column, got {}",
                    cols.len()
                )));
            }
            Ok(PhysExpr::Subquery {
                plan: Box::new(plan),
                outer_args: corr.outer_args,
                site: 0,
            })
        }
        Expr::Exists(q) => {
            let mut corr = Correlation {
                outer_args: Vec::new(),
            };
            let (plan, _cols) = plan_subquery(ctx.db, q, scope, ctx.tables, &mut corr)?;
            Ok(PhysExpr::Exists {
                plan: Box::new(plan),
                outer_args: corr.outer_args,
                site: 0,
            })
        }
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => {
            let tested = compile_expr(expr, scope, ctx)?;
            let mut corr = Correlation {
                outer_args: Vec::new(),
            };
            let (plan, cols) = plan_subquery(ctx.db, query, scope, ctx.tables, &mut corr)?;
            if cols.len() != 1 {
                return Err(EngineError::plan(format!(
                    "IN subquery must return exactly one column, got {}",
                    cols.len()
                )));
            }
            Ok(PhysExpr::InSubquery {
                expr: Box::new(tested),
                plan: Box::new(plan),
                outer_args: corr.outer_args,
                negated: *negated,
                site: 0,
            })
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Ok(PhysExpr::Like {
            expr: Box::new(compile_expr(expr, scope, ctx)?),
            pattern: pattern.clone(),
            negated: *negated,
        }),
    }
}

/// Plan a correlated subquery. Equivalent to [`plan_select`] but threads the
/// correlation collector down so inner compiles can emit params.
fn plan_subquery(
    db: &Database,
    q: &Query,
    outer: &Scope<'_>,
    tables: &mut BTreeMap<String, Arc<Table>>,
    corr: &mut Correlation,
) -> Result<(PlanNode, Vec<String>)> {
    // A correlated subquery plan needs the correlation collector during
    // compilation of *its* expressions. `plan_select` compiles with a fresh
    // context per call site, so we re-implement the narrow path here by
    // planning with the parent scope attached and intercepting compiles via
    // `Correlation`. To keep one code path, we wrap plan_select with a
    // thread-local-style handoff: plan_select_corr.
    plan_select_corr(db, q, outer, tables, corr)
}

/// `plan_select` variant used for subqueries: all expression compiles share
/// the given correlation collector.
fn plan_select_corr(
    db: &Database,
    q: &Query,
    outer: &Scope<'_>,
    tables: &mut BTreeMap<String, Arc<Table>>,
    corr: &mut Correlation,
) -> Result<(PlanNode, Vec<String>)> {
    if q.from.is_empty() {
        return Err(EngineError::plan("FROM clause is required"));
    }
    let mut items = Vec::new();
    let mut offset = 0usize;
    for tr in &q.from {
        let table = db.table(&tr.table)?;
        tables.insert(tr.table.clone(), Arc::clone(table));
        items.push(ScopeItem {
            alias: tr.alias.clone(),
            table: Arc::clone(table),
            offset,
        });
        offset += table.schema.len();
    }
    if items.len() != 1 {
        return Err(EngineError::plan(
            "correlated subqueries over multiple tables are not supported",
        ));
    }
    let scope = Scope {
        items: items.clone(),
        parent: Some(outer),
    };
    let preds: Vec<&Expr> = q.predicates.iter().collect();
    let mut corr_opt = Some(&mut *corr);
    let node = scan_plan(db, &items[0], &preds, tables, Some(outer), &mut corr_opt)?;

    let has_aggs = !q.group_by.is_empty()
        || q.select.iter().any(|s| match s {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Star => false,
        });
    let (mut node, columns) = if has_aggs {
        plan_aggregate(db, q, node, &scope, tables)?
    } else {
        plan_projection(db, q, node, &scope, tables)?
    };
    if q.distinct {
        node = distinct_node(node);
    }
    if !q.order_by.is_empty() {
        node = plan_order_by(&q.order_by, node, &columns)?;
    }
    if let Some(n) = q.limit {
        let est = NodeEst {
            rows: node.est.rows.min(n as f64),
            cost: node.est.cost,
        };
        node = PlanNode {
            op: PlanOp::Limit {
                input: Box::new(node),
                n,
            },
            est,
        };
    }
    Ok((node, columns))
}

#[cfg(test)]
mod tests {
    // Planner behaviour is exercised end-to-end in `db.rs` tests and the
    // crate's integration tests, where a catalog exists to plan against.
}
