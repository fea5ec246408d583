//! LIMIT: stop after `n` rows.

use crate::batch::RowBatch;
use crate::error::EngineResult;
use crate::exec::{BoxedExec, ExecNode, ExecutionState};
use crate::schema::Schema;

/// Emits at most `n` input rows.
pub struct LimitExec {
    input: BoxedExec,
    remaining: usize,
}

impl LimitExec {
    pub fn new(input: BoxedExec, n: usize) -> Self {
        LimitExec {
            input,
            remaining: n,
        }
    }
}

impl ExecNode for LimitExec {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    /// Truncates the batch that reaches the limit; never pulls the input
    /// again once `n` rows are out.
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let Some(batch) = self.input.next_batch(state)? else {
            self.remaining = 0;
            return Ok(None);
        };
        let (schema, mut rows) = batch.into_parts();
        rows.truncate(self.remaining);
        self.remaining -= rows.len();
        Ok(Some(RowBatch::new(schema, rows)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_util::int_rel;
    use crate::exec::{collect, ExecutionState, SeqScanExec};

    #[test]
    fn caps_output() {
        let scan = Box::new(SeqScanExec::new(int_rel("a", &[1, 2, 3]).into_shared()));
        let out = collect(
            Box::new(LimitExec::new(scan, 2)),
            &ExecutionState::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let scan = Box::new(SeqScanExec::new(int_rel("a", &[1]).into_shared()));
        let out = collect(
            Box::new(LimitExec::new(scan, 5)),
            &ExecutionState::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        let scan = Box::new(SeqScanExec::new(int_rel("a", &[1]).into_shared()));
        let out = collect(
            Box::new(LimitExec::new(scan, 0)),
            &ExecutionState::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn stops_pulling_input_at_the_limit() {
        use crate::batch::BATCH_SIZE;
        let vals: Vec<i64> = (0..3 * BATCH_SIZE as i64).collect();
        let scan = Box::new(SeqScanExec::new(int_rel("a", &vals).into_shared()));
        let mut limit = LimitExec::new(scan, BATCH_SIZE + 1);
        let state = ExecutionState::default();
        assert_eq!(limit.next_batch(&state).unwrap().unwrap().len(), BATCH_SIZE);
        assert_eq!(limit.next_batch(&state).unwrap().unwrap().len(), 1);
        assert!(limit.next_batch(&state).unwrap().is_none());
        // The third input batch was never pulled.
        let rest = limit.input.next_batch(&state).unwrap().unwrap();
        assert_eq!(rest.rows()[0][0].as_int(), Some(2 * BATCH_SIZE as i64));
    }
}
