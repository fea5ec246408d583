//! Sequential scan over a materialized relation.

use std::sync::Arc;

use crate::batch::{RowBatch, BATCH_SIZE};
use crate::error::EngineResult;
use crate::exec::{ExecNode, ExecutionState};
use crate::relation::Relation;
use crate::schema::Schema;

/// Scans an `Arc<Relation>`; row clones are `Arc` bumps, not deep copies.
/// A scan may cover only a contiguous row range — the morsel shape the
/// parallel planner hands to exchange partitions.
pub struct SeqScanExec {
    rel: Arc<Relation>,
    pos: usize,
    end: usize,
}

impl SeqScanExec {
    pub fn new(rel: Arc<Relation>) -> Self {
        let end = rel.len();
        SeqScanExec { rel, pos: 0, end }
    }

    /// Scan only rows `start..end` (clamped to the relation) — one morsel
    /// of a partitioned scan.
    pub fn with_range(rel: Arc<Relation>, start: usize, end: usize) -> Self {
        let end = end.min(rel.len());
        SeqScanExec {
            rel,
            pos: start.min(end),
            end,
        }
    }
}

impl ExecNode for SeqScanExec {
    fn schema(&self) -> &Schema {
        self.rel.schema()
    }

    /// Clone a contiguous chunk of the backing relation (each clone is an
    /// `Arc` bump).
    fn next_batch(&mut self, _state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        if self.pos >= self.end {
            return Ok(None);
        }
        let end = (self.pos + BATCH_SIZE).min(self.end);
        let chunk = self.rel.rows()[self.pos..end].to_vec();
        self.pos = end;
        Ok(Some(RowBatch::new(self.rel.schema().clone(), chunk)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_util::int_rel;
    use crate::exec::{collect, BoxedExec};

    #[test]
    fn scans_all_rows_in_order() {
        let rel = int_rel("a", &[3, 1, 2]).into_shared();
        let scan: BoxedExec = Box::new(SeqScanExec::new(rel.clone()));
        let out = collect(scan, &ExecutionState::default()).unwrap();
        assert_eq!(out.rows(), rel.rows());
    }

    #[test]
    fn empty_scan() {
        let rel = int_rel("a", &[]).into_shared();
        let mut scan = SeqScanExec::new(rel);
        let state = ExecutionState::default();
        assert!(scan.next_batch(&state).unwrap().is_none());
        assert!(scan.next_batch(&state).unwrap().is_none());
    }

    #[test]
    fn ranged_scan_covers_exactly_its_morsel() {
        let rel = int_rel("a", &[0, 1, 2, 3, 4]).into_shared();
        let scan: BoxedExec = Box::new(SeqScanExec::with_range(rel.clone(), 1, 4));
        let out = collect(scan, &ExecutionState::default()).unwrap();
        let vals: Vec<i64> = out.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(vals, vec![1, 2, 3]);
        // Out-of-bounds ranges clamp.
        let scan: BoxedExec = Box::new(SeqScanExec::with_range(rel, 4, 99));
        let out = collect(scan, &ExecutionState::default()).unwrap();
        assert_eq!(out.len(), 1);
    }
}
