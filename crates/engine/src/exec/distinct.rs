//! Duplicate elimination (set semantics), streaming.

use crate::batch::RowBatch;
use crate::error::EngineResult;
use crate::exec::{BoxedExec, ExecNode, ExecutionState};
use crate::hashing::FxHashSet;
use crate::schema::Schema;
use crate::tuple::Row;

/// Emits each distinct row once, in first-occurrence order. Structural row
/// equality: NULL = NULL (SQL `DISTINCT` semantics).
pub struct DistinctExec {
    input: BoxedExec,
    seen: FxHashSet<Row>,
}

impl DistinctExec {
    pub fn new(input: BoxedExec) -> Self {
        DistinctExec {
            input,
            seen: FxHashSet::default(),
        }
    }
}

impl ExecNode for DistinctExec {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    /// Keeps each batch's first occurrences; loops past batches that hold
    /// only duplicates — `Some` batches are never empty.
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        while let Some(batch) = self.input.next_batch(state)? {
            let (schema, mut rows) = batch.into_parts();
            rows.retain(|row| self.seen.insert(row.clone()));
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
    use crate::exec::test_util::int2_rel;
    use crate::exec::{collect, ExecutionState, SeqScanExec};
    use crate::relation::Relation;
    use crate::schema::{Column, DataType};
    use crate::value::Value;

    #[test]
    fn removes_duplicates_preserving_order() {
        let rel = int2_rel(("a", "b"), &[(1, 1), (2, 2), (1, 1), (2, 2), (3, 3)]).into_shared();
        let scan = Box::new(SeqScanExec::new(rel));
        let out = collect(
            Box::new(DistinctExec::new(scan)),
            &ExecutionState::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.rows()[2][0], Value::Int(3));
    }

    #[test]
    fn null_rows_are_duplicates_of_each_other() {
        let rel = Relation::from_values(
            Schema::new(vec![Column::new("a", DataType::Int)]),
            vec![vec![Value::Null], vec![Value::Null]],
        )
        .unwrap()
        .into_shared();
        let scan = Box::new(SeqScanExec::new(rel));
        let out = collect(
            Box::new(DistinctExec::new(scan)),
            &ExecutionState::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
    }
}
