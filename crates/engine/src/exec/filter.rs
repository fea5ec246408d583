//! Selection σ: stream rows satisfying a predicate.

use crate::batch::RowBatch;
use crate::error::EngineResult;
use crate::exec::{BoxedExec, ExecNode, ExecutionState};
use crate::expr::Expr;
use crate::schema::Schema;

/// Filters input rows by a predicate (NULL ⇒ dropped, per SQL).
pub struct FilterExec {
    input: BoxedExec,
    predicate: Expr,
}

impl FilterExec {
    pub fn new(input: BoxedExec, predicate: Expr) -> Self {
        FilterExec { input, predicate }
    }
}

impl ExecNode for FilterExec {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    /// One vectorized predicate evaluation per input batch.
    /// Loops past batches the predicate empties — `Some` batches are never
    /// empty.
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        while let Some(batch) = self.input.next_batch(state)? {
            let keep = self.predicate.eval_pred_batch(batch.rows())?;
            let (schema, mut rows) = batch.into_parts();
            let mut it = keep.into_iter();
            rows.retain(|_| it.next().expect("mask covers the batch"));
            if !rows.is_empty() {
                return Ok(Some(RowBatch::new(schema, rows)));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_util::int_rel;
    use crate::exec::{collect, ExecutionState, SeqScanExec};
    use crate::expr::{col, lit};
    use crate::value::Value;

    #[test]
    fn keeps_matching_rows() {
        let rel = int_rel("a", &[1, 5, 3, 7]).into_shared();
        let scan = Box::new(SeqScanExec::new(rel));
        let filter = Box::new(FilterExec::new(scan, col(0).gt(lit(3i64))));
        let out = collect(filter, &ExecutionState::default()).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows()[0][0], Value::Int(5));
        assert_eq!(out.rows()[1][0], Value::Int(7));
    }

    #[test]
    fn null_predicate_drops_row() {
        use crate::relation::Relation;
        use crate::schema::{Column, DataType};
        let rel = Relation::from_values(
            Schema::new(vec![Column::new("a", DataType::Int)]),
            vec![vec![Value::Null], vec![Value::Int(4)]],
        )
        .unwrap()
        .into_shared();
        let scan = Box::new(SeqScanExec::new(rel));
        let filter = Box::new(FilterExec::new(scan, col(0).gt(lit(0i64))));
        let out = collect(filter, &ExecutionState::default()).unwrap();
        assert_eq!(out.len(), 1);
    }
}
