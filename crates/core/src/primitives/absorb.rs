//! The absorb operator α (Def. 12).
//!
//! Alignment adjusts each argument tuple independently, so the reduced
//! tuple-based operators can emit *temporal duplicates*: result tuples
//! whose interval is a proper subset of a value-equivalent tuple's interval
//! (paper Example 9). α removes them in a post-processing step. Our
//! implementation also removes exact duplicate rows, which the surrounding
//! set semantics requires anyway.

use std::sync::Arc;

use temporal_engine::batch::{next_chunk, RowBatch};
use temporal_engine::exec::{ExecNode, ExecutionState, SortExec};
use temporal_engine::plan::ExtensionNode;
use temporal_engine::prelude::*;

use crate::error::TemporalResult;
use crate::interval::Interval;
use crate::trel::TemporalRelation;

/// Quadratic reference implementation of Def. 12:
/// `α(r) = { r ∈ r | ¬∃ r' ∈ r (r.A = r'.A ∧ r.T ⊂ r'.T) }` (plus exact
/// de-duplication).
pub fn absorb_ref(r: &TemporalRelation) -> TemporalResult<TemporalRelation> {
    let mut out: Vec<(Vec<Value>, Interval)> = Vec::new();
    for (data, iv) in r.iter() {
        let absorbed = r
            .iter()
            .any(|(d2, iv2)| d2 == data && iv2.properly_contains(&iv));
        let duplicate = out
            .iter()
            .any(|(d2, iv2)| d2.as_slice() == data && *iv2 == iv);
        if !absorbed && !duplicate {
            out.push((data.to_vec(), iv));
        }
    }
    TemporalRelation::from_rows(r.data_schema(), out)
}

/// Plane-sweep absorb: sort value-equivalent tuples by (ts ASC, te DESC);
/// a tuple survives iff its `te` exceeds every earlier `te` in its group.
pub fn absorb(r: &TemporalRelation) -> TemporalResult<TemporalRelation> {
    let node = AbsorbNode::new(LogicalPlan::inline_scan(r.rel().clone()));
    let plan = LogicalPlan::extension(Arc::new(node));
    let out = Planner::default().run(&plan, &temporal_engine::catalog::Catalog::new())?;
    TemporalRelation::new(out)
}

/// Logical extension node for α. Self-contained: sorts its input itself.
#[derive(Debug)]
pub struct AbsorbNode {
    input: LogicalPlan,
    schema: Schema,
}

impl AbsorbNode {
    /// `input`'s last two columns must be the interval.
    pub fn new(input: LogicalPlan) -> AbsorbNode {
        let schema = input.schema();
        AbsorbNode { input, schema }
    }

    /// Convenience: α as a logical plan.
    pub fn plan(input: LogicalPlan) -> LogicalPlan {
        LogicalPlan::extension(Arc::new(AbsorbNode::new(input)))
    }
}

impl ExtensionNode for AbsorbNode {
    fn name(&self) -> &str {
        "Absorb"
    }

    fn inputs(&self) -> Vec<&LogicalPlan> {
        vec![&self.input]
    }

    fn with_new_inputs(&self, mut inputs: Vec<LogicalPlan>) -> Arc<dyn ExtensionNode> {
        assert_eq!(inputs.len(), 1);
        Arc::new(AbsorbNode::new(inputs.remove(0)))
    }

    fn schema(&self) -> Schema {
        self.schema.clone()
    }

    fn estimate(
        &self,
        input_stats: &[temporal_engine::plan::PlanStats],
        model: &temporal_engine::plan::CostModel,
    ) -> temporal_engine::plan::PlanStats {
        // Sorting dominates; absorb itself is one comparison per tuple.
        let sorted = model.sort(input_stats[0]);
        model.sweep(sorted, input_stats[0].rows * 0.9, 1.0)
    }

    /// Absorption groups are keyed by *all* data columns, so a selection on
    /// any of them drops whole groups and commutes with α; the interval
    /// columns decide absorption and must stay above.
    fn passthrough_column(&self, out_col: usize) -> Option<(usize, usize)> {
        (out_col + 2 < self.schema.len()).then_some((0, out_col))
    }

    fn build_exec(&self, mut children: Vec<BoxedExec>) -> EngineResult<BoxedExec> {
        let child = children.remove(0);
        let n = child.schema().len();
        let (ts, te) = (n - 2, n - 1);
        // Sort by all data columns, then ts ASC, te DESC.
        let mut keys: Vec<SortKey> = (0..ts).map(|i| SortKey::asc(col(i))).collect();
        keys.push(SortKey::asc(col(ts)));
        keys.push(SortKey::desc(col(te)));
        let sorted = Box::new(SortExec::new(child, keys));
        Ok(Box::new(AbsorbExec::new(sorted)))
    }

    fn explain(&self) -> String {
        "Absorb (α): drop value-equivalent tuples with properly contained intervals".to_string()
    }
}

/// Streaming absorb over sorted input: each `next_batch()` call filters a
/// whole input batch through the same group state, so groups may span
/// batch boundaries freely.
pub struct AbsorbExec {
    input: BoxedExec,
    /// Data values of the current value-equivalence group.
    group: Option<Row>,
    /// Largest `te` seen so far within the group.
    max_te: i64,
    data_width: usize,
    ts_idx: usize,
    te_idx: usize,
    /// Last emitted row (for exact-duplicate elimination).
    last: Option<Row>,
    /// May this node split its input into data-run partitions and absorb
    /// them on workers? False for the per-partition sub-sweeps.
    allow_parallel: bool,
    /// Output of a partitioned parallel absorb, drained a batch at a time.
    outbuf: Option<std::vec::IntoIter<Row>>,
}

impl AbsorbExec {
    pub fn new(input: BoxedExec) -> AbsorbExec {
        let n = input.schema().len();
        AbsorbExec {
            input,
            group: None,
            max_te: i64::MIN,
            data_width: n - 2,
            ts_idx: n - 2,
            te_idx: n - 1,
            last: None,
            allow_parallel: true,
            outbuf: None,
        }
    }

    /// Partitioned absorb: materialize the sorted input, cut it at data-run
    /// boundaries (absorption groups never straddle a cut — the cut snaps
    /// forward past any group that would) and run an independent serial
    /// absorb per partition on workers. The absorb state fully resets at
    /// every data change, so the concatenation in partition order is
    /// row-identical to one serial pass (see
    /// [`crate::primitives::parallel`]). Falls back to serving the
    /// materialized rows serially when the input is small or one giant run.
    fn try_parallel(&mut self, state: &ExecutionState) -> EngineResult<()> {
        use crate::primitives::parallel::data_partition_ranges;
        use temporal_engine::exec::workers::par_run;
        use temporal_engine::exec::{collect_rows, ValuesExec};
        self.allow_parallel = false;
        let schema = self.input.schema().clone();
        let rows = collect_rows(self.input.as_mut(), state)?;
        let ranges = data_partition_ranges(&rows, self.data_width, state.threads());
        if !state.parallel(rows.len()) || ranges.len() <= 1 {
            self.input = Box::new(ValuesExec::new(schema, rows));
            return Ok(());
        }
        let chunks = par_run(state.threads(), ranges.len(), |i| {
            let (a, b) = ranges[i];
            let mut sub = AbsorbExec::new(Box::new(ValuesExec::new(
                schema.clone(),
                rows[a..b].to_vec(),
            )));
            sub.allow_parallel = false;
            collect_rows(&mut sub, state)
        })?;
        state.note_partitions(ranges.len());
        self.outbuf = Some(chunks.concat().into_iter());
        Ok(())
    }

    /// Feed one sorted input row through the absorb state; returns the row
    /// if it survives. Input is sorted by (data…, ts ASC, te DESC): a row
    /// is absorbed iff some earlier tuple of its group covers it, i.e.
    /// `max_te ≥ te`; exact duplicates are dropped too.
    fn admit(&mut self, row: Row) -> EngineResult<Option<Row>> {
        let te = row[self.te_idx].expect_int("absorb te")?;
        row[self.ts_idx].expect_int("absorb ts")?;
        let same_group = match &self.group {
            Some(g) => g.values()[..self.data_width] == row.values()[..self.data_width],
            None => false,
        };
        if !same_group {
            self.group = Some(row.clone());
            self.max_te = te;
            self.last = Some(row.clone());
            return Ok(Some(row));
        }
        if te > self.max_te && self.last.as_ref() != Some(&row) {
            self.max_te = te;
            self.last = Some(row.clone());
            return Ok(Some(row));
        }
        self.max_te = self.max_te.max(te);
        Ok(None)
    }
}

impl ExecNode for AbsorbExec {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    /// Filter a whole sorted input batch through the absorb state per
    /// call. Loops past fully absorbed batches — `Some` batches are never
    /// empty.
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        if self.allow_parallel && self.group.is_none() && state.threads() > 1 {
            self.try_parallel(state)?;
        }
        if let Some(it) = &mut self.outbuf {
            return Ok(next_chunk(self.input.schema(), it));
        }
        while let Some(batch) = self.input.next_batch(state)? {
            let (schema, rows) = batch.into_parts();
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                if let Some(kept) = self.admit(row)? {
                    out.push(kept);
                }
            }
            if !out.is_empty() {
                return Ok(Some(RowBatch::new(schema, out)));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(rows: &[(&str, i64, i64)]) -> TemporalRelation {
        TemporalRelation::from_rows(
            Schema::new(vec![Column::new("v", DataType::Str)]),
            rows.iter()
                .map(|&(v, s, e)| (vec![Value::str(v)], Interval::of(s, e)))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn removes_properly_contained_value_equivalent_tuples() {
        // Paper Example 9: (a,c,[1,9)) absorbs (a,c,[3,7)).
        let r = rel(&[("ac", 1, 9), ("ac", 3, 7), ("ad", 3, 7)]);
        let expected = rel(&[("ac", 1, 9), ("ad", 3, 7)]);
        let fast = absorb(&r).unwrap();
        let slow = absorb_ref(&r).unwrap();
        assert!(fast.same_set(&expected), "{fast}");
        assert!(slow.same_set(&expected));
    }

    #[test]
    fn keeps_equal_intervals_and_overlapping_non_contained() {
        // equal intervals: kept once; overlap without containment: both.
        let r = rel(&[("x", 0, 5), ("x", 3, 8)]);
        let out = absorb(&r).unwrap();
        assert!(out.same_set(&r));
    }

    #[test]
    fn dedups_exact_duplicates() {
        let rel_dup = Relation::from_values(
            crate::trel::temporal_schema(vec![Column::new("v", DataType::Str)]),
            vec![
                vec![Value::str("x"), Value::Int(0), Value::Int(5)],
                vec![Value::str("x"), Value::Int(0), Value::Int(5)],
            ],
        )
        .unwrap();
        let r = TemporalRelation::new(rel_dup).unwrap();
        let out = absorb(&r).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn same_start_longer_interval_absorbs_shorter() {
        let r = rel(&[("x", 0, 9), ("x", 0, 5)]);
        let out = absorb(&r).unwrap();
        assert!(out.same_set(&rel(&[("x", 0, 9)])));
    }

    #[test]
    fn same_end_earlier_start_absorbs() {
        let r = rel(&[("x", 0, 9), ("x", 4, 9)]);
        let out = absorb(&r).unwrap();
        assert!(out.same_set(&rel(&[("x", 0, 9)])));
    }

    #[test]
    fn chains_of_absorption() {
        let r = rel(&[("x", 0, 10), ("x", 1, 9), ("x", 2, 8), ("y", 2, 8)]);
        let out = absorb(&r).unwrap();
        assert!(out.same_set(&rel(&[("x", 0, 10), ("y", 2, 8)])));
    }

    #[test]
    fn fast_and_reference_agree_on_tricky_inputs() {
        let cases: Vec<Vec<(&str, i64, i64)>> = vec![
            vec![],
            vec![("a", 0, 1)],
            vec![("a", 0, 5), ("a", 5, 9)],
            vec![("a", 0, 5), ("b", 0, 5), ("a", 1, 4), ("b", 1, 6)],
            vec![("a", 0, 8), ("a", 0, 8), ("a", 2, 8), ("a", 0, 3)],
        ];
        for rows in cases {
            let r = rel(&rows);
            let fast = absorb(&r).unwrap();
            let slow = absorb_ref(&r).unwrap();
            assert!(fast.same_set(&slow), "case {rows:?}: {fast} vs {slow}");
        }
    }

    #[test]
    fn parallel_absorb_is_row_identical_to_serial() {
        // Long runs per value (runs straddle naive cut points), nested and
        // duplicated intervals.
        let names = ["a", "b", "c"];
        let mut rows: Vec<(&str, i64, i64)> = Vec::new();
        for i in 0..150i64 {
            let v = names[(i % 3) as usize];
            rows.push((v, i % 11, i % 11 + 1 + i % 13));
            if i % 10 == 0 {
                rows.push((v, i % 11, i % 11 + 1 + i % 13)); // exact duplicate
            }
        }
        let r = rel(&rows);
        let plan = AbsorbNode::plan(LogicalPlan::inline_scan(r.rel().clone()));
        let catalog = temporal_engine::catalog::Catalog::new();
        let serial = Planner::default().run(&plan, &catalog).unwrap();
        let par = Planner::new(PlannerConfig {
            threads: 4,
            parallel_min_rows: 1,
            ..Default::default()
        })
        .run(&plan, &catalog)
        .unwrap();
        assert_eq!(serial.rows(), par.rows(), "absorb must be row-identical");
    }

    #[test]
    fn absorb_ref_ignores_different_values() {
        let r = rel(&[("a", 0, 10), ("b", 2, 4)]);
        let out = absorb_ref(&r).unwrap();
        assert!(out.same_set(&r));
    }
}
