//! Sweep-based interval overlap join.
//!
//! Implements the paper's *future work* direction (Sec. 8: "investigate
//! indexing or merge sort techniques to improve the performance of the
//! temporal primitives for cases when conventional join techniques cannot
//! be evaluated efficiently"): when a join condition is an interval
//! overlap `l.ts < r.te ∧ r.ts < l.te` **without** useful equi keys, the
//! generic engine falls back to a quadratic nested loop. This operator
//! sorts both inputs by interval start and sweeps, touching only the
//! overlapping pairs plus bookkeeping — `O(n log n + m log m + matches)`
//! for well-behaved inputs.
//!
//! Disabled for the paper-faithful configuration
//! (`PlannerConfig::paper()`); the default planner auto-considers it when
//! it detects the overlap pattern, and the ablation bench measures the
//! improvement.
//!
//! The sweep is **incremental**: both inputs are materialized and sorted
//! (inherent to a sort-based sweep), but each pull advances over left rows
//! only until a batch worth of output has accumulated, so working memory
//! beyond the inputs stays proportional to the active window plus one
//! batch — never to the (potentially quadratic) output.

use crate::batch::{RowBatch, BATCH_SIZE};
use crate::error::EngineResult;
use crate::exec::{collect_rows, BoxedExec, ExecNode, ExecutionState};
use crate::expr::{CompiledPred, Expr};
use crate::plan::JoinType;
use crate::schema::Schema;
use crate::tuple::Row;

/// One side of the sweep: materialized rows, their endpoints, and the
/// start-order permutation.
struct SweepSide {
    rows: Vec<Row>,
    /// `None` for rows with NULL (or non-int) endpoints — they never match.
    pts: Vec<Option<(i64, i64)>>,
    order: Vec<usize>,
}

impl SweepSide {
    fn new(rows: Vec<Row>, ts: usize, te: usize) -> SweepSide {
        let pts: Vec<Option<(i64, i64)>> = rows
            .iter()
            .map(|r| Some((r[ts].as_int()?, r[te].as_int()?)))
            .collect();
        // Sort indices by interval start (NULL-endpoint rows sort first
        // and are handled as never-matching).
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&i| pts[i].map(|(s, _)| s));
        SweepSide { rows, pts, order }
    }
}

/// The sweep's mutable cursor state, built on first pull.
struct SweepState {
    l: SweepSide,
    r: SweepSide,
    /// Position in `l.order` of the next left row to process.
    next_l: usize,
    /// Position in `r.order` of the next right row to admit.
    next_r: usize,
    /// Active right candidates (their start precedes the current left
    /// end); pruned of intervals that ended before the current left
    /// start — valid because left starts are non-decreasing.
    active: Vec<usize>,
}

/// Interval overlap join (Inner or Left). Column indices address each
/// side's own row; the overlap condition is
/// `left[l_ts] < right[r_te] && right[r_ts] < left[l_te]`, with an
/// optional residual over the concatenated row.
pub struct IntervalJoinExec {
    left: BoxedExec,
    right: BoxedExec,
    l_ts: usize,
    l_te: usize,
    r_ts: usize,
    r_te: usize,
    residual: Option<Expr>,
    join_type: JoinType,
    schema: Schema,
    right_width: usize,
    state: Option<SweepState>,
}

impl IntervalJoinExec {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        left: BoxedExec,
        right: BoxedExec,
        l_ts: usize,
        l_te: usize,
        r_ts: usize,
        r_te: usize,
        residual: Option<Expr>,
        join_type: JoinType,
    ) -> Self {
        assert!(
            matches!(join_type, JoinType::Inner | JoinType::Left),
            "interval join supports Inner/Left, got {join_type:?}"
        );
        let right_width = right.schema().len();
        let schema = left.schema().concat(right.schema());
        IntervalJoinExec {
            left,
            right,
            l_ts,
            l_te,
            r_ts,
            r_te,
            residual,
            join_type,
            schema,
            right_width,
            state: None,
        }
    }

    /// Materialize and sort both sides (once).
    fn ensure_state(&mut self, state: &ExecutionState) -> EngineResult<()> {
        if self.state.is_some() {
            return Ok(());
        }
        let l_rows = collect_rows(self.left.as_mut(), state)?;
        let r_rows = collect_rows(self.right.as_mut(), state)?;
        self.state = Some(SweepState {
            l: SweepSide::new(l_rows, self.l_ts, self.l_te),
            r: SweepSide::new(r_rows, self.r_ts, self.r_te),
            next_l: 0,
            next_r: 0,
            active: Vec::new(),
        });
        Ok(())
    }

    /// Advance the sweep over **one** left row, appending its join output
    /// to `out`. Returns `false` when the left side is exhausted.
    /// `compiled` is the residual pre-compiled by the caller (once per
    /// batch) and evaluated over the row *pair*, with the combined row
    /// materialized only for passing candidates; `None` for a
    /// non-compilable residual, which is evaluated vectorized over the
    /// materialized candidates.
    fn sweep_one_left(
        &mut self,
        out: &mut Vec<Row>,
        compiled: Option<&CompiledPred>,
    ) -> EngineResult<bool> {
        let st = self.state.as_mut().expect("state built");
        if st.next_l >= st.l.order.len() {
            return Ok(false);
        }
        let li = st.l.order[st.next_l];
        st.next_l += 1;
        let Some((lts, lte)) = st.l.pts[li] else {
            if self.join_type == JoinType::Left {
                out.push(st.l.rows[li].concat_nulls(self.right_width));
            }
            return Ok(true);
        };
        // Admit right rows starting before this left interval ends.
        while st.next_r < st.r.order.len() {
            let j = st.r.order[st.next_r];
            match st.r.pts[j] {
                Some((rts, _)) if rts < lte => {
                    st.active.push(j);
                    st.next_r += 1;
                }
                Some(_) => break,
                None => {
                    st.next_r += 1; // NULL endpoints never match
                }
            }
        }
        // Drop candidates that ended at or before this left start —
        // they can never match later lefts either (starts ascend).
        let r_pts = &st.r.pts;
        st.active.retain(|&j| r_pts[j].expect("admitted").1 > lts);

        let left_width = self.schema.len() - self.right_width;
        let mut matched = false;
        match (&self.residual, compiled) {
            (None, _) => {
                for &j in &st.active {
                    let (rts, rte) = st.r.pts[j].expect("admitted");
                    // `rte > lts` holds by the retain; re-check the start
                    // side because left ends are not monotonic.
                    if rts < lte && rte > lts {
                        matched = true;
                        out.push(st.l.rows[li].concat(&st.r.rows[j]));
                    }
                }
            }
            (Some(_), Some(pred)) => {
                for &j in &st.active {
                    let (rts, rte) = st.r.pts[j].expect("admitted");
                    if rts < lte
                        && rte > lts
                        && pred.matches_pair(
                            st.l.rows[li].values(),
                            st.r.rows[j].values(),
                            left_width,
                        )?
                    {
                        matched = true;
                        out.push(st.l.rows[li].concat(&st.r.rows[j]));
                    }
                }
            }
            (Some(e), None) => {
                let mut cands: Vec<Row> = Vec::new();
                for &j in &st.active {
                    let (rts, rte) = st.r.pts[j].expect("admitted");
                    if rts < lte && rte > lts {
                        cands.push(st.l.rows[li].concat(&st.r.rows[j]));
                    }
                }
                let pass = e.eval_pred_batch(&cands)?;
                for (c, p) in cands.into_iter().zip(pass) {
                    if p {
                        matched = true;
                        out.push(c);
                    }
                }
            }
        }
        if !matched && self.join_type == JoinType::Left {
            out.push(st.l.rows[li].concat_nulls(self.right_width));
        }
        Ok(true)
    }
}

impl ExecNode for IntervalJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Streaming batched sweep: advance over left rows until a batch worth
    /// of output has accumulated. The residual is compiled once
    /// per call (from a clone of the expression, so the borrow doesn't pin
    /// `self`), not once per left row.
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        self.ensure_state(state)?;
        let residual = self.residual.clone();
        let compiled = residual.as_ref().and_then(CompiledPred::compile);
        let mut out: Vec<Row> = Vec::new();
        while out.len() < BATCH_SIZE {
            if !self.sweep_one_left(&mut out, compiled.as_ref())? {
                break;
            }
        }
        if out.is_empty() {
            return Ok(None);
        }
        Ok(Some(RowBatch::new(self.schema.clone(), out)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, ExecutionState, HashJoinExec, SeqScanExec};
    use crate::expr::col;
    use crate::relation::Relation;
    use crate::schema::{Column, DataType};
    use crate::value::Value;

    fn rel(rows: &[(i64, i64, i64)]) -> Relation {
        Relation::from_values(
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("ts", DataType::Int),
                Column::new("te", DataType::Int),
            ]),
            rows.iter()
                .map(|&(k, s, e)| vec![Value::Int(k), Value::Int(s), Value::Int(e)])
                .collect(),
        )
        .unwrap()
    }

    fn scan(r: &Relation) -> BoxedExec {
        Box::new(SeqScanExec::new(r.clone().into_shared()))
    }

    fn run_sweep(l: &Relation, r: &Relation, jt: JoinType, residual: Option<Expr>) -> Relation {
        let node = IntervalJoinExec::new(scan(l), scan(r), 1, 2, 1, 2, residual, jt);
        collect(Box::new(node), &ExecutionState::default()).unwrap()
    }

    fn run_nl(l: &Relation, r: &Relation, jt: JoinType, residual: Option<Expr>) -> Relation {
        let overlap = col(1).lt(col(5)).and(col(4).lt(col(2)));
        let cond = match residual {
            Some(res) => overlap.and(res),
            None => overlap,
        };
        let node = HashJoinExec::new(scan(l), scan(r), vec![], Some(cond), jt);
        collect(Box::new(node), &ExecutionState::default()).unwrap()
    }

    #[test]
    fn agrees_with_nested_loop() {
        let l = rel(&[(1, 0, 5), (2, 3, 9), (3, 10, 12), (4, 1, 2)]);
        let r = rel(&[(7, 4, 6), (8, 0, 1), (9, 11, 15), (10, 2, 3)]);
        for jt in [JoinType::Inner, JoinType::Left] {
            let sweep = run_sweep(&l, &r, jt, None);
            let nl = run_nl(&l, &r, jt, None);
            assert!(sweep.same_bag(&nl), "{jt:?}:\n{sweep}\nvs\n{nl}");
        }
    }

    #[test]
    fn agrees_with_nested_loop_with_residual() {
        let l = rel(&[(1, 0, 5), (2, 3, 9), (1, 6, 8)]);
        let r = rel(&[(1, 4, 6), (2, 0, 10), (3, 5, 7)]);
        let residual = Some(col(0).eq(col(3))); // k = k
        for jt in [JoinType::Inner, JoinType::Left] {
            let sweep = run_sweep(&l, &r, jt, residual.clone());
            let nl = run_nl(&l, &r, jt, residual.clone());
            assert!(sweep.same_bag(&nl), "{jt:?}");
        }
    }

    #[test]
    fn randomized_agreement() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let mk = |rng: &mut StdRng| {
                let rows: Vec<(i64, i64, i64)> = (0..rng.gen_range(0..15))
                    .map(|i| {
                        let s = rng.gen_range(0..30);
                        (i, s, s + rng.gen_range(1..10))
                    })
                    .collect();
                rel(&rows)
            };
            let l = mk(&mut rng);
            let r = mk(&mut rng);
            for jt in [JoinType::Inner, JoinType::Left] {
                let sweep = run_sweep(&l, &r, jt, None);
                let nl = run_nl(&l, &r, jt, None);
                assert!(sweep.same_bag(&nl), "{jt:?}:\n{sweep}\nvs\n{nl}");
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let l = rel(&[(1, 0, 5)]);
        let e = rel(&[]);
        assert_eq!(run_sweep(&l, &e, JoinType::Left, None).len(), 1);
        assert_eq!(run_sweep(&e, &l, JoinType::Left, None).len(), 0);
        assert_eq!(run_sweep(&l, &e, JoinType::Inner, None).len(), 0);
    }

    #[test]
    fn sweep_is_incremental() {
        // Every left row overlaps every right row: the full output is
        // quadratic, but one pull stops at the first left row that takes
        // the batch past BATCH_SIZE rows.
        let n = 64i64;
        let l = rel(&(0..n).map(|k| (k, 0, 10)).collect::<Vec<_>>());
        let r = rel(&(0..n).map(|k| (k, 0, 10)).collect::<Vec<_>>());
        let mut node = IntervalJoinExec::new(scan(&l), scan(&r), 1, 2, 1, 2, None, JoinType::Inner);
        let state = ExecutionState::default();
        let first = node.next_batch(&state).unwrap().unwrap();
        assert_eq!(first.len(), BATCH_SIZE);
        let mut total = first.len();
        while let Some(b) = node.next_batch(&state).unwrap() {
            total += b.len();
        }
        assert_eq!(total, (n * n) as usize);
    }

    #[test]
    fn null_endpoints_never_match_but_pad_in_left() {
        let l = Relation::from_values(
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("ts", DataType::Int),
                Column::new("te", DataType::Int),
            ]),
            vec![vec![Value::Int(1), Value::Null, Value::Int(5)]],
        )
        .unwrap();
        let r = rel(&[(9, 0, 10)]);
        let out = run_sweep(&l, &r, JoinType::Left, None);
        assert_eq!(out.len(), 1);
        assert!(out.rows()[0][3].is_null());
    }
}
