//! The pipelined adjustment primitive: the paper's `ExecAdjustment`
//! executor function (Fig. 10) plus the plan constructions that feed it
//! (Figs. 8, 9 and 12).
//!
//! Both temporal alignment (Def. 11, `isalign = true`) and temporal
//! normalization (Def. 9, `isalign = false`) are implemented as:
//!
//! 1. a **nontemporal left outer join** that attaches, to every `r` tuple,
//!    its group of matching `s` tuples (for alignment) or the candidate
//!    split points (for normalization). The engine's optimizer is free to
//!    pick nested-loop/hash/merge for this join — which is precisely what
//!    the paper's Fig. 13 experiment measures;
//! 2. a projection computing `P1`/`P2` (the precomputed intersection of
//!    the r- and s-timestamps, or the split point);
//! 3. a **sort** that partitions by the complete `r` tuple and orders each
//!    group by `(P1, P2)` (Fig. 9);
//! 4. the **plane sweep** over each sorted group ([`AdjustmentExec`]),
//!    fully pipelined: each pull sweeps on until a batch of adjusted
//!    tuples is ready.

use std::sync::Arc;

use temporal_engine::batch::{next_chunk, RowBatch, BATCH_SIZE};
use temporal_engine::exec::{ExecNode, ExecutionState};
use temporal_engine::plan::{CostModel, ExtensionNode, PlanStats};
use temporal_engine::prelude::*;

use crate::error::{TemporalError, TemporalResult};
use crate::trel::TemporalRelation;

/// Internal column names for the adjusted-point columns of the sweep input.
const P1: &str = "__p1";
const P2: &str = "__p2";

/// What the plane sweep emits (paper Fig. 10, plus the Sec. 8 future-work
/// specialization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdjustMode {
    /// Alignment (Def. 11): intersections and maximal uncovered pieces.
    Align,
    /// Normalization (Def. 9): split at the group's interior points.
    Normalize,
    /// Only the maximal uncovered pieces — the customized primitive for
    /// the anti join (Sec. 8: "customize the temporal primitives for
    /// specific temporal operators to not produce adjusted tuples that do
    /// not contribute to the result"): `r ▷ᵀ_θ s` *is* the gaps, so the
    /// intersections the generic aligner would emit (and the nontemporal
    /// anti join would then discard) are never produced.
    GapsOnly,
}

/// Build the logical plan for the temporal alignment `r Φ_θ s` (Def. 11)
/// following Fig. 8/9. `theta` is expressed over the concatenation of a
/// full `r` row and a full `s` row; the output schema equals `r`'s schema.
pub fn align_plan(
    r: LogicalPlan,
    s: LogicalPlan,
    theta: Option<Expr>,
) -> TemporalResult<LogicalPlan> {
    let r_schema = r.schema();
    let s_schema = s.schema();
    let (wr, ws) = (r_schema.len(), s_schema.len());
    if wr < 2 || ws < 2 {
        return Err(TemporalError::InvalidRelation(
            "alignment arguments must carry ts/te columns".into(),
        ));
    }
    if let Some(e) = &theta {
        if let Some(m) = e.max_col() {
            if m >= wr + ws {
                return Err(TemporalError::Incompatible(format!(
                    "θ references column {m}, combined width is {}",
                    wr + ws
                )));
            }
        }
    }
    let (r_ts, r_te) = (wr - 2, wr - 1);
    let (s_ts, s_te) = (wr + ws - 2, wr + ws - 1);

    // θ ∧ r.T ∩ s.T ≠ ∅ — as in Fig. 8, the overlap test joins the groups.
    let overlap = col(r_ts).lt(col(s_te)).and(col(s_ts).lt(col(r_te)));
    let cond = match theta {
        Some(t) => t.and(overlap),
        None => overlap,
    };
    let joined = r.join(s, JoinType::Left, Some(cond));

    // Project to (r.*, P1, P2) where [P1, P2) = r.T ∩ s.T (NULL for ω rows).
    let mut items: Vec<(Expr, String)> = (0..wr)
        .map(|i| (col(i), r_schema.col(i).name.clone()))
        .collect();
    items.push((
        Expr::Func(Func::Greatest, vec![col(r_ts), col(s_ts)]),
        P1.to_string(),
    ));
    items.push((
        Expr::Func(Func::Least, vec![col(r_te), col(s_te)]),
        P2.to_string(),
    ));
    let projected = joined.project_named(items)?;

    // Partition by the full r tuple, order groups by (P1, P2) — Fig. 9.
    let mut keys: Vec<SortKey> = (0..wr).map(|i| SortKey::asc(col(i))).collect();
    keys.push(SortKey::asc(col(wr)));
    keys.push(SortKey::asc(col(wr + 1)));
    let sorted = projected.sort(keys);

    Ok(LogicalPlan::extension(Arc::new(AdjustmentNode {
        input: sorted,
        out_schema: r_schema,
        mode: AdjustMode::Align,
    })))
}

/// The customized anti-join primitive (Sec. 8 future work): the plan that
/// directly produces `r ▷ᵀ_θ s` — each `r` tuple's *maximal sub-intervals
/// not covered by any matching `s` tuple* — using the same group
/// construction as [`align_plan`] but a gaps-only plane sweep. No second
/// alignment and no nontemporal anti join are needed.
pub fn antijoin_gaps_plan(
    r: LogicalPlan,
    s: LogicalPlan,
    theta: Option<Expr>,
) -> TemporalResult<LogicalPlan> {
    let r_schema = r.schema();
    let s_schema = s.schema();
    let (wr, ws) = (r_schema.len(), s_schema.len());
    if wr < 2 || ws < 2 {
        return Err(TemporalError::InvalidRelation(
            "anti-join arguments must carry ts/te columns".into(),
        ));
    }
    if let Some(e) = &theta {
        if let Some(m) = e.max_col() {
            if m >= wr + ws {
                return Err(TemporalError::Incompatible(format!(
                    "θ references column {m}, combined width is {}",
                    wr + ws
                )));
            }
        }
    }
    let (r_ts, r_te) = (wr - 2, wr - 1);
    let (s_ts, s_te) = (wr + ws - 2, wr + ws - 1);
    let overlap = col(r_ts).lt(col(s_te)).and(col(s_ts).lt(col(r_te)));
    let cond = match theta {
        Some(t) => t.and(overlap),
        None => overlap,
    };
    let joined = r.join(s, JoinType::Left, Some(cond));
    let mut items: Vec<(Expr, String)> = (0..wr)
        .map(|i| (col(i), r_schema.col(i).name.clone()))
        .collect();
    items.push((
        Expr::Func(Func::Greatest, vec![col(r_ts), col(s_ts)]),
        P1.to_string(),
    ));
    items.push((
        Expr::Func(Func::Least, vec![col(r_te), col(s_te)]),
        P2.to_string(),
    ));
    let projected = joined.project_named(items)?;
    let mut keys: Vec<SortKey> = (0..wr).map(|i| SortKey::asc(col(i))).collect();
    keys.push(SortKey::asc(col(wr)));
    keys.push(SortKey::asc(col(wr + 1)));
    let sorted = projected.sort(keys);
    Ok(LogicalPlan::extension(Arc::new(AdjustmentNode {
        input: sorted,
        out_schema: r_schema,
        mode: AdjustMode::GapsOnly,
    })))
}

/// Build the logical plan for the temporal normalization `N_B(r; s)`
/// (Def. 9) following Sec. 6.3: join `r` not with `s` directly but with the
/// union of its start and end points `π_{B,Ts/P1}(s) ∪ π_{B,Te/P1}(s)`,
/// keeping only points strictly inside `r.T`, then plane-sweep from split
/// point to split point. `b` pairs `(r data column, s data column)` define
/// the grouping equality; empty `b` means every `s` tuple is in the group.
pub fn normalize_plan(
    r: LogicalPlan,
    s: LogicalPlan,
    b: &[(usize, usize)],
) -> TemporalResult<LogicalPlan> {
    let r_schema = r.schema();
    let s_schema = s.schema();
    let (wr, ws) = (r_schema.len(), s_schema.len());
    if wr < 2 || ws < 2 {
        return Err(TemporalError::InvalidRelation(
            "normalization arguments must carry ts/te columns".into(),
        ));
    }
    for &(br, bs) in b {
        if br >= wr - 2 || bs >= ws - 2 {
            return Err(TemporalError::Incompatible(format!(
                "grouping pair ({br}, {bs}) out of bounds for data widths {} and {}",
                wr - 2,
                ws - 2
            )));
        }
    }
    let (s_ts, s_te) = (ws - 2, ws - 1);

    // Endpoint relation: π_{B, Ts as P1}(s) ∪ π_{B, Te as P1}(s).
    // The set-semantics union also removes duplicate split points early.
    let mut start_items: Vec<(Expr, String)> = b
        .iter()
        .map(|&(_, bs)| (col(bs), s_schema.col(bs).name.clone()))
        .collect();
    let mut end_items = start_items.clone();
    start_items.push((col(s_ts), P1.to_string()));
    end_items.push((col(s_te), P1.to_string()));
    let endpoints = s
        .clone()
        .project_named(start_items)?
        .set_op(SetOpKind::Union, s.project_named(end_items)?);

    // Join condition: B-equality plus the split point strictly inside r.T.
    let (r_ts, r_te) = (wr - 2, wr - 1);
    let p1_col = wr + b.len();
    let mut conjuncts: Vec<Expr> = b
        .iter()
        .enumerate()
        .map(|(i, &(br, _))| col(br).eq(col(wr + i)))
        .collect();
    conjuncts.push(col(p1_col).gt(col(r_ts)));
    conjuncts.push(col(p1_col).lt(col(r_te)));
    let cond = Expr::and_all(conjuncts).expect("non-empty");
    let joined = r.join(endpoints, JoinType::Left, Some(cond));

    // Project to (r.*, P1, P2 = NULL).
    let mut items: Vec<(Expr, String)> = (0..wr)
        .map(|i| (col(i), r_schema.col(i).name.clone()))
        .collect();
    items.push((col(p1_col), P1.to_string()));
    items.push((Expr::Lit(Value::Null), P2.to_string()));
    let projected = joined.project_named(items)?;

    // Partition by the full r tuple, order by split point.
    let mut keys: Vec<SortKey> = (0..wr).map(|i| SortKey::asc(col(i))).collect();
    keys.push(SortKey::asc(col(wr)));
    let sorted = projected.sort(keys);

    Ok(LogicalPlan::extension(Arc::new(AdjustmentNode {
        input: sorted,
        out_schema: r_schema,
        mode: AdjustMode::Normalize,
    })))
}

/// Evaluate `r Φ_θ s` to a materialized relation with the given planner.
pub fn align_eval(
    r: &TemporalRelation,
    s: &TemporalRelation,
    theta: Option<Expr>,
    planner: &Planner,
) -> TemporalResult<TemporalRelation> {
    let plan = align_plan(
        LogicalPlan::inline_scan(r.rel().clone()),
        LogicalPlan::inline_scan(s.rel().clone()),
        theta,
    )?;
    let out = planner.run(&plan, &temporal_engine::catalog::Catalog::new())?;
    TemporalRelation::new(out)
}

/// Evaluate `N_B(r; s)` to a materialized relation with the given planner.
pub fn normalize_eval(
    r: &TemporalRelation,
    s: &TemporalRelation,
    b: &[(usize, usize)],
    planner: &Planner,
) -> TemporalResult<TemporalRelation> {
    let plan = normalize_plan(
        LogicalPlan::inline_scan(r.rel().clone()),
        LogicalPlan::inline_scan(s.rel().clone()),
        b,
    )?;
    let out = planner.run(&plan, &temporal_engine::catalog::Catalog::new())?;
    TemporalRelation::new(out)
}

/// Logical extension node wrapping the plane sweep. Its child plan already
/// produces partitioned, sorted rows of shape `r_full ++ [P1, P2]`.
#[derive(Debug)]
pub struct AdjustmentNode {
    input: LogicalPlan,
    out_schema: Schema,
    mode: AdjustMode,
}

impl ExtensionNode for AdjustmentNode {
    fn name(&self) -> &str {
        match self.mode {
            AdjustMode::Align => "TemporalAligner",
            AdjustMode::Normalize => "TemporalNormalizer",
            AdjustMode::GapsOnly => "TemporalAntiAligner",
        }
    }

    fn inputs(&self) -> Vec<&LogicalPlan> {
        vec![&self.input]
    }

    fn with_new_inputs(&self, mut inputs: Vec<LogicalPlan>) -> Arc<dyn ExtensionNode> {
        assert_eq!(inputs.len(), 1);
        Arc::new(AdjustmentNode {
            input: inputs.remove(0),
            out_schema: self.out_schema.clone(),
            mode: self.mode,
        })
    }

    fn schema(&self) -> Schema {
        self.out_schema.clone()
    }

    /// The cost estimates of Sec. 6.2/6.3: every input tuple yields at most
    /// three (alignment) or two (normalization) output tuples, at a cost of
    /// two (resp. one) tuple comparisons each — expressed through the
    /// planner's [`CostModel`] so composed temporal plans cost as one tree.
    fn estimate(&self, input_stats: &[PlanStats], model: &CostModel) -> PlanStats {
        let x = input_stats[0];
        let num_cols = self.out_schema.len() as f64;
        match self.mode {
            AdjustMode::Align => model.sweep(x, 3.0 * x.rows, 2.0 * num_cols),
            AdjustMode::Normalize => model.sweep(x, 2.0 * x.rows, num_cols),
            // Gaps only: at most one gap per input tuple plus the tails.
            AdjustMode::GapsOnly => model.sweep(x, x.rows, num_cols),
        }
    }

    /// The data columns of the sweep input pass through verbatim and key
    /// the partition into independent groups, so a selection on them
    /// commutes with the adjustment (a dropped group produces exactly the
    /// output tuples the selection would drop). The adjusted `ts`/`te`
    /// columns do **not** pass through.
    fn passthrough_column(&self, out_col: usize) -> Option<(usize, usize)> {
        (out_col + 2 < self.out_schema.len()).then_some((0, out_col))
    }

    fn build_exec(&self, mut children: Vec<BoxedExec>) -> EngineResult<BoxedExec> {
        let child = children.remove(0);
        Ok(Box::new(AdjustmentExec::new(
            child,
            self.out_schema.clone(),
            self.mode,
        )))
    }

    fn explain(&self) -> String {
        format!(
            "{} (plane sweep, {})",
            self.name(),
            match self.mode {
                AdjustMode::Align => "intersections + gaps",
                AdjustMode::Normalize => "split points",
                AdjustMode::GapsOnly => "gaps only",
            }
        )
    }
}

/// The paper's `ExecAdjustment` (Fig. 10): a pipelined plane sweep over
/// groups of join tuples. Where the PostgreSQL original returns a single
/// result tuple per invocation, each `next_batch()` call runs the same
/// sweep on until a batch of adjusted tuples is ready (or the input ends),
/// pulling its input a batch at a time.
pub struct AdjustmentExec {
    input: BoxedExec,
    schema: Schema,
    mode: AdjustMode,
    r_width: usize,
    ts_idx: usize,
    te_idx: usize,
    p1_idx: usize,
    p2_idx: usize,
    started: bool,
    /// Last tuple of the group currently being finished.
    prev: Option<Row>,
    /// Tuple currently under the sweep line.
    curr: Option<Row>,
    /// Are `prev` and `curr` from the same group (same full r tuple)?
    sameleft: bool,
    sweepline: i64,
    /// Last produced tuple — consecutive duplicate suppression (the
    /// `out ≠ (curr.A, curr.P1, curr.P2)` test of Fig. 10).
    last_out: Option<Row>,
    /// Input buffer, refilled a batch at a time.
    inbuf: std::collections::VecDeque<Row>,
    input_done: bool,
    /// May this node split its input into data-run partitions and sweep
    /// them on workers? True for planner-built nodes, false for the
    /// per-partition sub-sweeps (no nested fan-out).
    allow_parallel: bool,
    /// Output of a partitioned parallel sweep, drained a batch at a time.
    outbuf: Option<std::vec::IntoIter<Row>>,
}

impl AdjustmentExec {
    /// `input` rows are `r_full ++ [P1, P2]`, partitioned by the full
    /// `r` tuple and sorted by `(P1, P2)` within each partition;
    /// `out_schema` is `r`'s schema.
    pub fn new(input: BoxedExec, out_schema: Schema, mode: AdjustMode) -> AdjustmentExec {
        let r_width = out_schema.len();
        debug_assert_eq!(input.schema().len(), r_width + 2);
        AdjustmentExec {
            input,
            schema: out_schema,
            mode,
            r_width,
            ts_idx: r_width - 2,
            te_idx: r_width - 1,
            p1_idx: r_width,
            p2_idx: r_width + 1,
            started: false,
            prev: None,
            curr: None,
            sameleft: true,
            sweepline: 0,
            last_out: None,
            inbuf: std::collections::VecDeque::new(),
            input_done: false,
            allow_parallel: true,
            outbuf: None,
        }
    }

    /// Partitioned sweep: materialize the (already sorted) input, cut it at
    /// data-run boundaries and sweep each partition with an independent
    /// serial sub-sweep on a worker. Concatenated in partition order this is
    /// row-identical to one serial sweep (see [`super::parallel`]); groups
    /// that would straddle a cut are pushed whole into the earlier
    /// partition. Falls back to the serial machinery (input pre-buffered)
    /// when the input is too small or collapses into one run.
    fn try_parallel(&mut self, state: &ExecutionState) -> EngineResult<()> {
        use super::parallel::data_partition_ranges;
        use temporal_engine::exec::workers::par_run;
        use temporal_engine::exec::{collect_rows, ValuesExec};
        self.allow_parallel = false;
        let in_schema = self.input.schema().clone();
        let rows = collect_rows(self.input.as_mut(), state)?;
        let ranges = data_partition_ranges(&rows, self.ts_idx, state.threads());
        if !state.parallel(rows.len()) || ranges.len() <= 1 {
            self.inbuf = rows.into();
            self.input_done = true;
            return Ok(());
        }
        let (schema, mode) = (self.schema.clone(), self.mode);
        let chunks = par_run(state.threads(), ranges.len(), |i| {
            let (a, b) = ranges[i];
            let mut sub = AdjustmentExec::new(
                Box::new(ValuesExec::new(in_schema.clone(), rows[a..b].to_vec())),
                schema.clone(),
                mode,
            );
            sub.allow_parallel = false;
            collect_rows(&mut sub, state)
        })?;
        state.note_partitions(ranges.len());
        self.started = true;
        self.prev = None; // serial machinery is done; serve from outbuf
        self.outbuf = Some(chunks.concat().into_iter());
        Ok(())
    }

    /// Build an output tuple: the r tuple's data values over `[s, e)`.
    fn make_out(&self, row: &Row, s: i64, e: i64) -> Row {
        let mut vals = Vec::with_capacity(self.r_width);
        vals.extend_from_slice(&row.values()[..self.ts_idx]);
        vals.push(Value::Int(s));
        vals.push(Value::Int(e));
        Row::new(vals)
    }

    /// Pull the next input tuple from the batch buffer, refilling it from
    /// the input a batch at a time.
    fn fetch_input(&mut self, state: &ExecutionState) -> EngineResult<Option<Row>> {
        loop {
            if let Some(row) = self.inbuf.pop_front() {
                return Ok(Some(row));
            }
            if self.input_done {
                return Ok(None);
            }
            match self.input.next_batch(state)? {
                Some(batch) => self.inbuf.extend(batch.into_rows()),
                None => self.input_done = true,
            }
        }
    }
}

impl ExecNode for AdjustmentExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The plane sweep of Fig. 10, run over whole sorted groups per call:
    /// the sweep state (`prev`, `curr`, `sameleft`, `sweepline`,
    /// `last_out`) persists across calls, and the loop emits into a buffer
    /// until a batch of adjusted tuples is ready or the input ends.
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        if self.allow_parallel && !self.started && state.threads() > 1 {
            self.try_parallel(state)?;
        }
        if let Some(it) = &mut self.outbuf {
            return Ok(next_chunk(&self.schema, it));
        }
        if !self.started {
            self.started = true;
            self.curr = self.fetch_input(state)?;
            self.prev = self.curr.clone();
            self.sameleft = true;
            if let Some(c) = &self.curr {
                self.sweepline = c[self.ts_idx].expect_int("adjustment ts")?;
            }
        }
        let mut out: Vec<Row> = Vec::with_capacity(BATCH_SIZE);
        while out.len() < BATCH_SIZE {
            if self.prev.is_none() {
                break; // prev = ω: input exhausted
            }
            if self.sameleft {
                let curr_row = self
                    .curr
                    .take()
                    .expect("sameleft group has a current tuple");
                let p1 = curr_row[self.p1_idx].as_int();
                if let Some(p1v) = p1 {
                    if self.sweepline < p1v {
                        // Fig. 10, first block: emit the uncovered piece
                        // [sweepline, P1), advance the sweep line and
                        // revisit the same tuple.
                        let o = self.make_out(&curr_row, self.sweepline, p1v);
                        self.sweepline = p1v;
                        self.last_out = Some(o.clone());
                        out.push(o);
                        self.curr = Some(curr_row);
                        continue;
                    }
                }
                // Fig. 10, second block (also entered when P1 is ω, i.e.
                // the r tuple matched nothing): emit the precomputed
                // intersection [P1, P2) unless it repeats the previous
                // output, then fetch the next tuple.
                let mut produced: Option<Row> = None;
                match self.mode {
                    AdjustMode::Align => {
                        if let (Some(p1v), Some(p2v)) = (p1, curr_row[self.p2_idx].as_int()) {
                            let candidate = self.make_out(&curr_row, p1v, p2v);
                            if self.last_out.as_ref() != Some(&candidate) {
                                self.sweepline = self.sweepline.max(p2v);
                                produced = Some(candidate);
                            }
                        }
                    }
                    AdjustMode::GapsOnly => {
                        // Advance over the covered region without emitting
                        // the intersection.
                        if let Some(p2v) = curr_row[self.p2_idx].as_int() {
                            self.sweepline = self.sweepline.max(p2v);
                        }
                    }
                    AdjustMode::Normalize => {}
                }
                // On an input error, put the taken tuple back so the node
                // stays re-entrant and re-errors cleanly on the next poll.
                let next = match self.fetch_input(state) {
                    Ok(n) => n,
                    Err(e) => {
                        self.curr = Some(curr_row);
                        return Err(e);
                    }
                };
                self.sameleft = match &next {
                    Some(n) => n.values()[..self.r_width] == curr_row.values()[..self.r_width],
                    None => false,
                };
                self.prev = Some(curr_row);
                self.curr = next;
                if let Some(o) = produced {
                    self.last_out = Some(o.clone());
                    out.push(o);
                }
            } else {
                // Fig. 10, third block: the group ended — emit the tail of
                // the r tuple's timestamp if uncovered, then reset for the
                // next group.
                let prev_row = self.prev.as_ref().expect("checked above");
                let prev_te = prev_row[self.te_idx].expect_int("adjustment te")?;
                let produced = (self.sweepline < prev_te)
                    .then(|| self.make_out(prev_row, self.sweepline, prev_te));
                self.prev = self.curr.clone();
                if let Some(c) = &self.curr {
                    self.sweepline = c[self.ts_idx].expect_int("adjustment ts")?;
                }
                self.sameleft = true;
                if let Some(o) = produced {
                    self.last_out = Some(o.clone());
                    out.push(o);
                }
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
    use crate::interval::Interval;
    use crate::primitives::aligner::{align_ref, Theta};
    use crate::primitives::splitter::{normalize_ref, self_normalize_ref};

    fn rel(name: &str, rows: &[(&str, i64, i64)]) -> TemporalRelation {
        TemporalRelation::from_rows(
            Schema::new(vec![Column::qualified(name, "v", DataType::Str)]),
            rows.iter()
                .map(|&(v, s, e)| (vec![Value::str(v)], Interval::of(s, e)))
                .collect(),
        )
        .unwrap()
    }

    fn planner() -> Planner {
        Planner::default()
    }

    #[test]
    fn align_matches_reference_no_theta() {
        let r = rel("r", &[("a", 0, 10), ("b", 2, 8), ("a", 12, 15)]);
        let s = rel("s", &[("x", 1, 3), ("y", 4, 6), ("z", 5, 9), ("w", 20, 22)]);
        let fast = align_eval(&r, &s, None, &planner()).unwrap();
        let slow = align_ref(&r, &s, &Theta::True).unwrap();
        assert!(fast.same_set(&slow), "fast:\n{fast}\nslow:\n{slow}");
    }

    #[test]
    fn align_matches_reference_with_theta() {
        // θ: r.v = s.v; columns r=(v,ts,te), s=(v,ts,te) → r.v=0, s.v=3.
        let r = rel("r", &[("a", 0, 10), ("b", 0, 10)]);
        let s = rel("s", &[("a", 2, 4), ("a", 3, 6), ("b", 8, 12)]);
        let theta = col(0).eq(col(3));
        let fast = align_eval(&r, &s, Some(theta.clone()), &planner()).unwrap();
        let slow = align_ref(&r, &s, &Theta::Predicate(theta)).unwrap();
        assert!(fast.same_set(&slow), "fast:\n{fast}\nslow:\n{slow}");
    }

    #[test]
    fn align_paper_fig8_fig11_trace() {
        // Fig. 8: r1=(a,β,[1,7)), r2=(b,β,[3,9)), r3=(c,γ,[8,10));
        // s1=(1,β,[2,5)), s2=(2,β,[3,4)), s3=(3,β,[7,9));
        // θ ≡ B = D (the overlap is added by the plan itself).
        let r = TemporalRelation::from_rows(
            Schema::new(vec![
                Column::new("a", DataType::Str),
                Column::new("b", DataType::Str),
            ]),
            vec![
                (
                    vec![Value::str("a"), Value::str("beta")],
                    Interval::of(1, 7),
                ),
                (
                    vec![Value::str("b"), Value::str("beta")],
                    Interval::of(3, 9),
                ),
                (
                    vec![Value::str("c"), Value::str("gamma")],
                    Interval::of(8, 10),
                ),
            ],
        )
        .unwrap();
        let s = TemporalRelation::from_rows(
            Schema::new(vec![
                Column::new("c", DataType::Int),
                Column::new("d", DataType::Str),
            ]),
            vec![
                (vec![Value::Int(1), Value::str("beta")], Interval::of(2, 5)),
                (vec![Value::Int(2), Value::str("beta")], Interval::of(3, 4)),
                (vec![Value::Int(3), Value::str("beta")], Interval::of(7, 9)),
            ],
        )
        .unwrap();
        // concat columns: r = (a,b,ts,te) s = (c,d,ts,te) → b = 1, d = 5.
        let theta = col(1).eq(col(5));
        let fast = align_eval(&r, &s, Some(theta.clone()), &planner()).unwrap();
        // Expected (from walking Fig. 9/11):
        // r1: gap [1,2), ∩s1 [2,5), ∩s2 [3,4), tail [5,7)
        // r2: ∩s2 [3,4), ∩s1 [3,5), gap [5,7), ∩s3 [7,9)
        // r3: whole [8,10)
        let expected = TemporalRelation::from_rows(
            r.data_schema(),
            vec![
                (
                    vec![Value::str("a"), Value::str("beta")],
                    Interval::of(1, 2),
                ),
                (
                    vec![Value::str("a"), Value::str("beta")],
                    Interval::of(2, 5),
                ),
                (
                    vec![Value::str("a"), Value::str("beta")],
                    Interval::of(3, 4),
                ),
                (
                    vec![Value::str("a"), Value::str("beta")],
                    Interval::of(5, 7),
                ),
                (
                    vec![Value::str("b"), Value::str("beta")],
                    Interval::of(3, 4),
                ),
                (
                    vec![Value::str("b"), Value::str("beta")],
                    Interval::of(3, 5),
                ),
                (
                    vec![Value::str("b"), Value::str("beta")],
                    Interval::of(5, 7),
                ),
                (
                    vec![Value::str("b"), Value::str("beta")],
                    Interval::of(7, 9),
                ),
                (
                    vec![Value::str("c"), Value::str("gamma")],
                    Interval::of(8, 10),
                ),
            ],
        )
        .unwrap();
        assert!(fast.same_set(&expected), "got:\n{fast}");
        let slow = align_ref(&r, &s, &Theta::Predicate(theta)).unwrap();
        assert!(fast.same_set(&slow));
    }

    #[test]
    fn normalize_matches_reference() {
        let r = rel("r", &[("a", 0, 10), ("b", 2, 8), ("a", 12, 15)]);
        let s = rel("s", &[("a", 1, 3), ("b", 4, 6), ("a", 5, 9), ("a", 20, 22)]);
        // N_{} — every s tuple splits every r tuple.
        let fast = normalize_eval(&r, &s, &[], &planner()).unwrap();
        let slow = normalize_ref(&r, &s, &[]).unwrap();
        assert!(fast.same_set(&slow), "fast:\n{fast}\nslow:\n{slow}");
        // N_{v} — only same-letter tuples split.
        let fast = normalize_eval(&r, &s, &[(0, 0)], &planner()).unwrap();
        let slow = normalize_ref(&r, &s, &[(0, 0)]).unwrap();
        assert!(fast.same_set(&slow), "fast:\n{fast}\nslow:\n{slow}");
    }

    #[test]
    fn self_normalization_matches_paper_fig3() {
        let r = rel("r", &[("ann", 1, 8), ("joe", 2, 6), ("ann", 8, 12)]);
        let fast = normalize_eval(&r, &r, &[], &planner()).unwrap();
        let slow = self_normalize_ref(&r, &[]).unwrap();
        assert!(fast.same_set(&slow), "fast:\n{fast}\nslow:\n{slow}");
        assert_eq!(fast.len(), 5); // Fig. 3 has five result tuples
    }

    #[test]
    fn sweep_reerrors_cleanly_after_input_error() {
        // An input that yields one tuple, then fails: the sweep must
        // surface the error on every poll (no panic on re-poll — it puts
        // the taken tuple back before propagating).
        struct FailingInput {
            schema: Schema,
            emitted: bool,
        }
        impl FailingInput {
            fn row() -> Row {
                Row::new(vec![
                    Value::Int(1),
                    Value::Int(0),
                    Value::Int(10),
                    Value::Null,
                    Value::Null,
                ])
            }
        }
        impl ExecNode for FailingInput {
            fn schema(&self) -> &Schema {
                &self.schema
            }
            // Deliver the tuple as a whole batch so the failure arrives on
            // the *second* pull — mid-group, after the sweep has taken its
            // current tuple.
            fn next_batch(
                &mut self,
                _state: &ExecutionState,
            ) -> EngineResult<Option<temporal_engine::batch::RowBatch>> {
                if !self.emitted {
                    self.emitted = true;
                    Ok(Some(temporal_engine::batch::RowBatch::new(
                        self.schema.clone(),
                        vec![Self::row()],
                    )))
                } else {
                    Err(EngineError::Internal("input failed".into()))
                }
            }
        }
        let out_schema = Schema::new(vec![
            Column::new("v", DataType::Int),
            Column::new("ts", DataType::Int),
            Column::new("te", DataType::Int),
        ]);
        let mk = |out_schema: &Schema| {
            let in_schema = Schema::new(vec![
                Column::new("v", DataType::Int),
                Column::new("ts", DataType::Int),
                Column::new("te", DataType::Int),
                Column::new("__p1", DataType::Int),
                Column::new("__p2", DataType::Int),
            ]);
            AdjustmentExec::new(
                Box::new(FailingInput {
                    schema: in_schema,
                    emitted: false,
                }),
                out_schema.clone(),
                AdjustMode::Align,
            )
        };
        let mut exec = mk(&out_schema);
        let state = ExecutionState::default();
        assert!(exec.next_batch(&state).is_err());
        assert!(exec.next_batch(&state).is_err(), "re-poll must re-error");
    }

    #[test]
    fn parallel_sweep_is_row_identical_to_serial() {
        // Many groups with shared data values (so data-runs span several
        // r-tuples and some runs straddle naive cut points), gaps, overlaps
        // and unmatched tuples. Compare the full planned pipeline under a
        // 4-worker state against the serial planner, for every sweep mode.
        let mut r_rows: Vec<(&str, i64, i64)> = Vec::new();
        let names = ["a", "b", "c", "d", "e"];
        for i in 0..120i64 {
            let v = names[(i % 5) as usize];
            r_rows.push((v, i % 37, i % 37 + 3 + i % 7));
        }
        let mut s_rows: Vec<(&str, i64, i64)> = Vec::new();
        for i in 0..90i64 {
            let v = names[(i % 4) as usize];
            s_rows.push((v, i % 29, i % 29 + 2 + i % 5));
        }
        let r = rel("r", &r_rows);
        let s = rel("s", &s_rows);
        let theta = col(0).eq(col(3));
        let serial = Planner::default();
        let par = Planner::new(PlannerConfig {
            threads: 4,
            parallel_min_rows: 1,
            ..Default::default()
        });
        // Alignment (with and without θ).
        for theta in [None, Some(theta)] {
            let a = align_eval(&r, &s, theta.clone(), &serial).unwrap();
            let b = align_eval(&r, &s, theta, &par).unwrap();
            assert_eq!(
                a.rel().rows(),
                b.rel().rows(),
                "align must be row-identical"
            );
        }
        // Normalization (grouped and ungrouped).
        for b in [&[][..], &[(0usize, 0usize)][..]] {
            let x = normalize_eval(&r, &s, b, &serial).unwrap();
            let y = normalize_eval(&r, &s, b, &par).unwrap();
            assert_eq!(
                x.rel().rows(),
                y.rel().rows(),
                "normalize must be row-identical"
            );
        }
        // Gaps-only (anti-join primitive).
        let catalog = temporal_engine::catalog::Catalog::new();
        let gaps = |p: &Planner| {
            let plan = antijoin_gaps_plan(
                LogicalPlan::inline_scan(r.rel().clone()),
                LogicalPlan::inline_scan(s.rel().clone()),
                None,
            )
            .unwrap();
            p.run(&plan, &catalog).unwrap()
        };
        assert_eq!(gaps(&serial).rows(), gaps(&par).rows());
    }

    #[test]
    fn adjustment_handles_empty_inputs() {
        let r = rel("r", &[]);
        let s = rel("s", &[("x", 0, 5)]);
        let out = align_eval(&r, &s, None, &planner()).unwrap();
        assert!(out.is_empty());
        let out = normalize_eval(&s, &r, &[], &planner()).unwrap();
        assert!(out.same_set(&s)); // nothing to split against
    }

    #[test]
    fn alignment_cardinality_respects_lemma1() {
        let r = rel("r", &[("a", 0, 30), ("b", 5, 25), ("c", 10, 20)]);
        let s = rel(
            "s",
            &[
                ("x", 2, 4),
                ("y", 6, 9),
                ("z", 11, 14),
                ("w", 16, 23),
                ("v", 26, 28),
            ],
        );
        let out = align_eval(&r, &s, None, &planner()).unwrap();
        let (n, m) = (r.len() as i64, s.len() as i64);
        assert!((out.len() as i64) <= 2 * n * m + n, "|out| = {}", out.len());
    }

    #[test]
    fn join_method_switches_do_not_change_results() {
        let r = rel("r", &[("a", 0, 10), ("b", 3, 12), ("a", 15, 20)]);
        let s = rel("s", &[("a", 2, 6), ("b", 4, 8), ("a", 9, 18)]);
        let theta = col(0).eq(col(3));
        let reference = align_eval(
            &r,
            &s,
            Some(theta.clone()),
            &Planner::new(PlannerConfig::nestloop_only()),
        )
        .unwrap();
        for config in [PlannerConfig::all_enabled(), PlannerConfig::no_merge()] {
            let out = align_eval(&r, &s, Some(theta.clone()), &Planner::new(config)).unwrap();
            assert!(out.same_set(&reference));
        }
    }

    #[test]
    fn plan_rejects_theta_out_of_range() {
        let r = rel("r", &[("a", 0, 1)]);
        let s = rel("s", &[("b", 0, 1)]);
        let res = align_plan(
            LogicalPlan::inline_scan(r.rel().clone()),
            LogicalPlan::inline_scan(s.rel().clone()),
            Some(col(42).eq(col(0))),
        );
        assert!(res.is_err());
    }

    #[test]
    fn normalize_rejects_bad_grouping() {
        let r = rel("r", &[("a", 0, 1)]);
        let s = rel("s", &[("b", 0, 1)]);
        assert!(normalize_plan(
            LogicalPlan::inline_scan(r.rel().clone()),
            LogicalPlan::inline_scan(s.rel().clone()),
            &[(0, 7)],
        )
        .is_err());
    }
}
