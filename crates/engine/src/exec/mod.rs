//! Pull-based pipelined executor with one protocol: batches.
//!
//! Every physical operator implements [`ExecNode`], whose single pull
//! method [`ExecNode::next_batch`] returns the next [`RowBatch`] of about
//! [`BATCH_SIZE`](crate::batch::BATCH_SIZE) rows, or `None` when
//! exhausted. This is the paper's pipelining model — their
//! `ExecAdjustment` (Fig. 10) "is integrated into the pipelining
//! architecture of PostgreSQL and on each invocation either a single
//! result tuple is returned, or ω" — with a chunk of tuples per invocation
//! instead of one, so virtual dispatch and expression-tree walks are paid
//! per batch (expression evaluation is vectorized via
//! [`crate::expr::Expr::eval_batch`]). The temporal crate's adjustment
//! node implements this same trait. Consumers that want rows (LIMIT,
//! DISTINCT, merge join, the blocking operators) iterate over batches.

mod aggregate;
mod distinct;
mod exchange;
mod filter;
mod hash_join;
pub mod instrument;
mod interval_join;
mod limit;
mod merge_join;
mod project;
mod scan;
mod setops;
mod sort;
mod state;
mod storage_scan;
mod values;
pub mod workers;

pub use aggregate::{aggregate_rows, HashAggregateExec};
pub use distinct::DistinctExec;
pub use exchange::ExchangeExec;
pub use filter::FilterExec;
pub use hash_join::HashJoinExec;
pub use instrument::{Instrumentation, InstrumentedExec, OperatorStats};
pub use interval_join::IntervalJoinExec;
pub use limit::LimitExec;
pub use merge_join::MergeJoinExec;
pub use project::ProjectExec;
pub use scan::SeqScanExec;
pub use setops::HashSetOpExec;
pub use sort::{sort_rows, sort_rows_parallel, SortExec};
pub use state::{ExecStats, ExecutionState};
pub use storage_scan::StorageScanExec;
pub use values::ValuesExec;

use crate::batch::RowBatch;
use crate::error::EngineResult;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Row;

/// A pipelined executor node.
///
/// Nodes are `Send` so an exchange operator can hand a partition's subtree
/// to a worker thread; shared read-only inputs (`Arc<Relation>`, stored
/// tables) make that safe. All per-query context arrives through the
/// [`ExecutionState`] passed to every pull — nodes hold no config copies.
pub trait ExecNode: Send {
    /// The output schema.
    fn schema(&self) -> &Schema;

    /// Produce the next batch of output rows, or `None` when exhausted.
    /// Batches are never empty; their size is *about*
    /// [`BATCH_SIZE`](crate::batch::BATCH_SIZE)
    /// (operators may emit fewer or more rows per call).
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>>;
}

/// Owned, type-erased executor node.
pub type BoxedExec = Box<dyn ExecNode>;

/// Drain a node into a materialized [`Relation`], batch-wise. This is the
/// engine's default result collection (used by `PhysicalPlan::collect` and
/// therefore `Planner::run`).
pub fn collect(mut node: BoxedExec, state: &ExecutionState) -> EngineResult<Relation> {
    let mut rel = Relation::empty(node.schema().clone());
    while let Some(batch) = node.next_batch(state)? {
        state.check_cancelled()?;
        state
            .stats
            .rows_emitted
            .fetch_add(batch.len() as u64, std::sync::atomic::Ordering::Relaxed);
        state
            .stats
            .batches_emitted
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        rel.push_batch(batch)?;
    }
    Ok(rel)
}

/// Drain a node into a row vector (schema discarded) — the
/// materialization step of blocking operators.
pub fn collect_rows(node: &mut dyn ExecNode, state: &ExecutionState) -> EngineResult<Vec<Row>> {
    let mut rows = Vec::new();
    while let Some(batch) = node.next_batch(state)? {
        state.check_cancelled()?;
        rows.extend(batch.into_rows());
    }
    Ok(rows)
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use crate::schema::{Column, DataType};
    use crate::value::Value;

    /// Build a one-column Int relation for executor tests.
    pub fn int_rel(name: &str, vals: &[i64]) -> Relation {
        Relation::from_values(
            Schema::new(vec![Column::new(name, DataType::Int)]),
            vals.iter().map(|&v| vec![Value::Int(v)]).collect(),
        )
        .unwrap()
    }

    /// Build a two-column (Int, Int) relation.
    pub fn int2_rel(names: (&str, &str), vals: &[(i64, i64)]) -> Relation {
        Relation::from_values(
            Schema::new(vec![
                Column::new(names.0, DataType::Int),
                Column::new(names.1, DataType::Int),
            ]),
            vals.iter()
                .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
                .collect(),
        )
        .unwrap()
    }

    pub fn rows_of(rel: &Relation) -> Vec<Vec<Value>> {
        rel.rows().iter().map(|r| r.to_vec()).collect()
    }
}
