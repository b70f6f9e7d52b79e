//! Query planning: physical plan representation, the page-based cost model,
//! and the planner that lowers parsed SQL onto tables and indexes.

pub mod cost;
mod finish;
pub mod physical;
pub mod planner;

pub use physical::{AggFunc, AggSpec, NodeEst, PhysExpr, PlanNode, PlanOp, ScalarFunc, SortKey};
pub use planner::plan_query;
