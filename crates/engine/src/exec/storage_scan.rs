//! Sequential scan over a heap-file table, streaming pages through the
//! buffer pool.
//!
//! Unlike [`crate::exec::SeqScanExec`], which walks an already
//! materialized `Arc<Relation>`, this node decodes slotted pages into
//! [`RowBatch`]es *as they are pulled*: at any moment only the pages the
//! buffer pool holds are in memory, so a table larger than the pool (or
//! than RAM) scans in constant space. A scan may cover only a contiguous
//! page range — the morsel shape
//! the parallel planner hands to exchange partitions; concurrent
//! partitions share the table's buffer pool, whose pin path is per-frame
//! (see `temporal_store::buffer`).

use std::collections::VecDeque;
use std::sync::Arc;

use temporal_store::HeapSnapshot;

use crate::batch::{RowBatch, BATCH_SIZE};
use crate::error::EngineResult;
use crate::exec::instrument::OperatorStats;
use crate::exec::{ExecNode, ExecutionState};
use crate::schema::Schema;
use crate::storage::StoredTable;
use crate::tuple::Row;

/// Scans a [`StoredTable`] page by page. The page set is either a
/// contiguous range (the classic full-scan morsel) or an explicit list of
/// surviving pages handed down by the pruning access paths.
pub struct StorageScanExec {
    table: Arc<StoredTable>,
    /// When `Some`, `next_page..end_page` index into this list instead of
    /// being page numbers themselves.
    pages: Option<Arc<Vec<u32>>>,
    next_page: u32,
    end_page: u32,
    /// The statement snapshot this scan is clamped to, resolved from the
    /// execution state on first pull (constructors don't see the state).
    /// Pages past the snapshot are skipped and the snapshot's tail page is
    /// decoded as a prefix, so the scan never observes a concurrent
    /// writer's in-flight appends.
    snapshot: Option<HeapSnapshot>,
    pending: VecDeque<Row>,
    /// Per-plan-node page ledger (`EXPLAIN ANALYZE`): when attached, page
    /// reads are credited to the originating plan node as well as to the
    /// query-wide stats. All morsels of one scan share one ledger.
    ledger: Option<Arc<OperatorStats>>,
}

impl StorageScanExec {
    pub fn new(table: Arc<StoredTable>) -> Self {
        let end_page = table.page_count();
        StorageScanExec {
            table,
            pages: None,
            next_page: 0,
            end_page,
            snapshot: None,
            pending: VecDeque::new(),
            ledger: None,
        }
    }

    /// Scan only pages `start..end` (clamped) — one morsel of a
    /// partitioned heap scan.
    pub fn with_page_range(table: Arc<StoredTable>, start: u32, end: u32) -> Self {
        let end_page = end.min(table.page_count());
        StorageScanExec {
            table,
            pages: None,
            next_page: start.min(end_page),
            end_page,
            snapshot: None,
            pending: VecDeque::new(),
            ledger: None,
        }
    }

    /// Scan positions `start..end` (clamped) of an explicit page list —
    /// one morsel of a pruned scan, where `pages` is the surviving page
    /// set resolved by a zone-map sweep or an interval-index probe.
    pub fn with_page_list(
        table: Arc<StoredTable>,
        pages: Arc<Vec<u32>>,
        start: u32,
        end: u32,
    ) -> Self {
        let end_page = end.min(pages.len() as u32);
        StorageScanExec {
            table,
            pages: Some(pages),
            next_page: start.min(end_page),
            end_page,
            snapshot: None,
            pending: VecDeque::new(),
            ledger: None,
        }
    }

    /// Attach a per-plan-node page ledger (see the `ledger` field).
    pub fn with_ledger(mut self, ledger: Arc<OperatorStats>) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// Decode pages until `pending` holds at least a batch of rows or the
    /// morsel's page set is exhausted. Every decode is clamped to the
    /// statement snapshot (shared across all morsels of the query via
    /// [`ExecutionState::snapshot_for`]): fully-visible pages decode
    /// whole, the snapshot's tail page decodes as a tuple prefix, and
    /// pages appended after the snapshot are skipped entirely.
    fn refill(&mut self, state: &ExecutionState) -> EngineResult<()> {
        let snap = *self
            .snapshot
            .get_or_insert_with(|| state.snapshot_for(&self.table));
        while self.pending.len() < BATCH_SIZE && self.next_page < self.end_page {
            let page_no = match &self.pages {
                Some(list) => list[self.next_page as usize],
                None => self.next_page,
            };
            self.next_page += 1;
            let rows = match snap.visible_tuples(page_no) {
                None => self.table.decode_page(page_no)?,
                Some(0) => continue,
                Some(tail) => self.table.decode_page_prefix(page_no, tail)?,
            };
            state.note_page_read();
            if let Some(ledger) = &self.ledger {
                ledger.note_page_read();
            }
            self.pending.extend(rows);
        }
        Ok(())
    }
}

impl ExecNode for StorageScanExec {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        self.refill(state)?;
        if self.pending.is_empty() {
            return Ok(None);
        }
        let take = self.pending.len().min(BATCH_SIZE);
        let rows: Vec<Row> = self.pending.drain(..take).collect();
        Ok(Some(RowBatch::new(self.table.schema().clone(), rows)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, BoxedExec};
    use crate::schema::{Column, DataType};
    use crate::value::Value;

    fn stored(name: &str, n: i64, pool: usize) -> Arc<StoredTable> {
        let dir = std::env::temp_dir().join("talign_engine_scan_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("label", DataType::Str),
        ]);
        let t = StoredTable::create(&path, "t", schema, pool).unwrap();
        for i in 0..n {
            t.append_row(&Row::new(vec![Value::Int(i), Value::str(format!("r{i}"))]))
                .unwrap();
        }
        t.flush().unwrap();
        Arc::new(t)
    }

    #[test]
    fn batch_scan_streams_and_preserves_order() {
        let t = stored("order.heap", 5000, 2);
        assert!(t.page_count() > 2);
        let scan: BoxedExec = Box::new(StorageScanExec::new(t.clone()));
        let out = collect(scan, &ExecutionState::default()).unwrap();
        assert_eq!(out.len(), 5000);
        for (i, r) in out.rows().iter().enumerate() {
            assert_eq!(r[0], Value::Int(i as i64));
        }
    }

    #[test]
    fn batches_are_full_until_the_last() {
        let t = stored("batches.heap", 3000, 2);
        let state = ExecutionState::default();
        let mut scan = StorageScanExec::new(t);
        let mut sizes = Vec::new();
        while let Some(b) = scan.next_batch(&state).unwrap() {
            sizes.push(b.len());
        }
        assert_eq!(sizes, vec![BATCH_SIZE, BATCH_SIZE, 3000 - 2 * BATCH_SIZE]);
        assert!(scan.next_batch(&state).unwrap().is_none());
    }

    #[test]
    fn empty_table_scans_empty() {
        let t = stored("empty.heap", 0, 2);
        let mut scan = StorageScanExec::new(t);
        let state = ExecutionState::default();
        assert!(scan.next_batch(&state).unwrap().is_none());
        assert!(scan.next_batch(&state).unwrap().is_none());
    }

    #[test]
    fn page_list_scan_reads_only_listed_pages() {
        let t = stored("pagelist.heap", 4000, 4);
        let pages = t.page_count();
        assert!(pages >= 4);
        let list: Arc<Vec<u32>> = Arc::new((0..pages).step_by(2).collect());
        let state = ExecutionState::default();
        let out = collect(
            Box::new(StorageScanExec::with_page_list(
                t.clone(),
                list.clone(),
                0,
                list.len() as u32,
            )) as BoxedExec,
            &state,
        )
        .unwrap();
        assert_eq!(state.stats.pages().0, list.len() as u64);
        let whole = collect(
            Box::new(StorageScanExec::new(t)) as BoxedExec,
            &ExecutionState::default(),
        )
        .unwrap();
        assert!(!out.is_empty() && out.len() < whole.len());
        // Rows on even pages only, in page order.
        let ids: Vec<i64> = out
            .rows()
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn scan_is_clamped_to_the_statement_snapshot() {
        let t = stored("snapclamp.heap", 1000, 4);
        let state = ExecutionState::default();
        // Pin the statement snapshot, then race in more rows.
        let snap = state.snapshot_for(&t);
        assert_eq!(snap.rows, 1000);
        for i in 1000..2500 {
            t.append_row(&Row::new(vec![Value::Int(i), Value::str(format!("r{i}"))]))
                .unwrap();
        }
        assert_eq!(t.row_count(), 2500);
        // Full scan under the pinned state sees exactly the old prefix…
        let out = collect(
            Box::new(StorageScanExec::new(t.clone())) as BoxedExec,
            &state,
        )
        .unwrap();
        assert_eq!(out.len(), 1000);
        assert_eq!(out.rows().last().unwrap()[0], Value::Int(999));
        // …and so does a morsel over the (now larger) live page range.
        let part = collect(
            Box::new(StorageScanExec::with_page_range(
                t.clone(),
                0,
                t.page_count(),
            )) as BoxedExec,
            &state,
        )
        .unwrap();
        assert_eq!(part.len(), 1000);
        // A fresh state snapshots the current heap and sees everything.
        let fresh = collect(
            Box::new(StorageScanExec::new(t)) as BoxedExec,
            &ExecutionState::default(),
        )
        .unwrap();
        assert_eq!(fresh.len(), 2500);
    }

    #[test]
    fn page_range_morsels_cover_the_table_exactly() {
        let t = stored("morsels.heap", 4000, 4);
        let pages = t.page_count();
        assert!(pages >= 2);
        let state = ExecutionState::default();
        let whole = collect(
            Box::new(StorageScanExec::new(t.clone())) as BoxedExec,
            &state,
        )
        .unwrap();
        let mid = pages / 2;
        let mut rows = Vec::new();
        for (s, e) in [(0, mid), (mid, pages)] {
            let part = collect(
                Box::new(StorageScanExec::with_page_range(t.clone(), s, e)) as BoxedExec,
                &state,
            )
            .unwrap();
            rows.extend(part.rows().to_vec());
        }
        assert_eq!(rows, whole.rows());
    }
}
