//! Hash join on equi-key pairs with an optional residual predicate.
//!
//! The reduction rules conjoin `r.T = s.T` to every θ, so reduced temporal
//! joins always expose hashable keys — the mechanism behind the paper's
//! fast Fig. 15d results.
//!
//! With no keys every build row is a candidate for every probe row, which
//! is exactly a nested-loop join over the residual: the planner runs
//! `PhysicalPlan::NestedLoopJoin` (the fallback for arbitrary θ, and the
//! reason the paper's `sql` baseline degenerates on `Ddisj`/`Drand`,
//! Sec. 7.4) through this operator with an empty key list.
//!
//! A serial pull probes left rows only until the output reaches
//! `BATCH_SIZE`, keeping the rest of the left batch for the next pull, so
//! one call emits at most a batch plus one probe row's matches and LIMIT
//! over a cross or θ join never builds the quadratic output.
//!
//! Under a parallel [`ExecutionState`] a keyed join partitions both
//! sides: the build table is assembled from per-worker hash shards
//! (disjoint key ranges, merged without overlap), and the probe input is
//! split into contiguous morsels probed on workers against the shared
//! read-only table. Matched-flags on the build side are atomic booleans —
//! monotonic false→true marks, order-independent — so even Right/Full
//! joins probe in parallel and the trailing unmatched-scan observes the
//! same flags as a serial probe. Morsel outputs concatenate in input
//! order, keeping the parallel probe row-identical to the serial one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::batch::{next_chunk, RowBatch, BATCH_SIZE};
use crate::error::EngineResult;
use crate::exec::workers::{par_run, split_ranges};
use crate::exec::{BoxedExec, ExecNode, ExecutionState};
use crate::expr::{CompiledPred, Expr};
use crate::hashing::{FxHashMap, FxHasher};
use crate::plan::JoinType;
use crate::schema::Schema;
use crate::tuple::Row;
use crate::value::Value;

enum Phase {
    /// Probing left batches: the partly probed batch and its next row.
    Probe(Option<(RowBatch, usize)>),
    /// Morsel-parallel probe output, drained a batch at a time.
    Buffered(std::vec::IntoIter<Row>),
    BuildUnmatched(usize),
    Done,
}

/// Hash join. Builds on the right input, probes with the left. Output
/// order: each probe row's matches in build order (then its NULL-padded
/// row for Left/Full), probe rows in input order, then the unmatched build
/// rows in build order for Right/Full.
pub struct HashJoinExec {
    left: BoxedExec,
    right: Option<BoxedExec>,
    /// `(left column, right column)` equality pairs; SQL semantics (NULL
    /// keys never match).
    keys: Vec<(usize, usize)>,
    /// Extra predicate over the concatenated row.
    residual: Option<Expr>,
    join_type: JoinType,
    schema: Schema,
    left_width: usize,
    right_width: usize,

    table: FxHashMap<Vec<Value>, Vec<usize>>,
    build_rows: Vec<Row>,
    build_matched: Vec<AtomicBool>,
    built: bool,
    phase: Phase,
}

/// One shard's build input: `(key, build index)` pairs, indices ascending.
type ShardEntries = Vec<(Vec<Value>, usize)>;

/// Deterministic shard of a build key (FxHash, same per process).
fn key_shard(key: &[Value], shards: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = FxHasher::default();
    key.hash(&mut h);
    (h.finish() as usize) % shards
}

impl HashJoinExec {
    pub fn new(
        left: BoxedExec,
        right: BoxedExec,
        keys: Vec<(usize, usize)>,
        residual: Option<Expr>,
        join_type: JoinType,
    ) -> Self {
        let left_width = left.schema().len();
        let right_width = right.schema().len();
        let schema = if join_type.emits_right() {
            left.schema().concat(right.schema())
        } else {
            left.schema().clone()
        };
        HashJoinExec {
            left,
            right: Some(right),
            keys,
            residual,
            join_type,
            schema,
            left_width,
            right_width,
            table: FxHashMap::default(),
            build_rows: Vec::new(),
            build_matched: Vec::new(),
            built: false,
            phase: Phase::Probe(None),
        }
    }

    fn build(&mut self, state: &ExecutionState) -> EngineResult<()> {
        if self.built {
            return Ok(());
        }
        let mut right = self.right.take().expect("build called once");
        let rows = crate::exec::collect_rows(right.as_mut(), state)?;
        if state.parallel(rows.len()) {
            self.build_parallel(state, &rows)?;
        } else {
            for (idx, row) in rows.iter().enumerate() {
                let key: Vec<Value> = self.keys.iter().map(|&(_, r)| row[r].clone()).collect();
                // NULL keys never join, but the row may still surface as
                // unmatched for Right/Full joins.
                if !key.iter().any(Value::is_null) {
                    self.table.entry(key).or_default().push(idx);
                }
            }
        }
        self.build_matched = (0..rows.len()).map(|_| AtomicBool::new(false)).collect();
        self.build_rows = rows;
        self.built = true;
        Ok(())
    }

    /// Partitioned build: extract keys over contiguous chunks on workers,
    /// bucketing each chunk's keys by a deterministic key hash, then let
    /// each worker own one hash shard (disjoint key sets) and build its map
    /// from the moved-in buckets — no key is cloned or rescanned. Chunks
    /// are transposed in order and bucket entries carry ascending build
    /// indices, so candidate lists stay in build-row order — the same table
    /// a serial build produces.
    fn build_parallel(&mut self, state: &ExecutionState, rows: &[Row]) -> EngineResult<()> {
        let threads = state.threads();
        let ranges = split_ranges(rows.len(), threads);
        let keys = &self.keys;
        // chunk → shard → (key, build index), indices ascending per bucket.
        let chunk_buckets = par_run(threads, ranges.len(), |i| {
            let (a, b) = ranges[i];
            let mut buckets: Vec<Vec<(Vec<Value>, usize)>> = vec![Vec::new(); threads];
            for (idx, row) in rows[a..b].iter().enumerate() {
                let key: Vec<Value> = keys.iter().map(|&(_, r)| row[r].clone()).collect();
                // NULL keys never join, but the row may still surface as
                // unmatched for Right/Full joins.
                if !key.iter().any(Value::is_null) {
                    let shard = key_shard(&key, threads);
                    buckets[shard].push((key, a + idx));
                }
            }
            Ok(buckets)
        })?;
        // Transpose by move: shard → entries in ascending index order
        // (chunks are visited in range order).
        let mut shard_entries: Vec<ShardEntries> = vec![Vec::new(); threads];
        for mut chunk in chunk_buckets {
            for (shard, bucket) in chunk.drain(..).enumerate() {
                shard_entries[shard].extend(bucket);
            }
        }
        let shard_slots: Vec<Mutex<Option<ShardEntries>>> = shard_entries
            .into_iter()
            .map(|e| Mutex::new(Some(e)))
            .collect();
        let shards = par_run(threads, threads, |w| {
            let entries = shard_slots[w]
                .lock()
                .expect("shard input claimed once")
                .take()
                .expect("each shard consumed once");
            let mut m: FxHashMap<Vec<Value>, Vec<usize>> = FxHashMap::default();
            for (key, idx) in entries {
                m.entry(key).or_default().push(idx);
            }
            Ok(m)
        })?;
        state.note_partitions(ranges.len() + threads);
        for m in shards {
            self.table.extend(m);
        }
        Ok(())
    }

    /// The phase once the probe input is exhausted.
    fn after_probe(&self) -> Phase {
        if self.join_type.emits_right_unmatched() {
            Phase::BuildUnmatched(0)
        } else {
            Phase::Done
        }
    }

    /// The immutable probe context: everything a worker needs to probe a
    /// morsel of left rows against the built table.
    fn probe_side(&self) -> ProbeSide<'_> {
        ProbeSide {
            table: &self.table,
            build_rows: &self.build_rows,
            build_matched: &self.build_matched,
            keys: &self.keys,
            residual: self.residual.as_ref(),
            join_type: self.join_type,
            right_width: self.right_width,
        }
    }
}

/// Shared read-only probe state (see [`HashJoinExec::probe_side`]). All
/// fields are `Sync`; matched-marks go through atomics, so any number of
/// workers can probe disjoint morsels concurrently.
struct ProbeSide<'a> {
    table: &'a FxHashMap<Vec<Value>, Vec<usize>>,
    build_rows: &'a [Row],
    build_matched: &'a [AtomicBool],
    keys: &'a [(usize, usize)],
    residual: Option<&'a Expr>,
    join_type: JoinType,
    right_width: usize,
}

impl ProbeSide<'_> {
    /// Probe a run of left rows. Candidate lists are read in place (no
    /// per-row clone). Simple residuals (every reduced temporal condition:
    /// equality leftovers, interval overlaps) are compiled once and
    /// evaluated over the *pair* of rows, so the combined row is only
    /// materialized for candidates that actually join — late
    /// materialization, the batch path's main win on high-fanout probes.
    /// Stops before the first row probed once the output holds `limit`
    /// rows; returns the output and how many left rows it probed.
    fn probe(
        &self,
        lrows: &[Row],
        left_width: usize,
        limit: usize,
    ) -> EngineResult<(Vec<Row>, usize)> {
        let compiled = self.residual.map(|e| (CompiledPred::compile(e), e));
        let mut out: Vec<Row> = Vec::new();
        let mut key: Vec<Value> = Vec::with_capacity(self.keys.len());
        // Scratch for the general (non-compilable) residual: candidate
        // build indices and their materialized combined rows.
        let mut cand_idx: Vec<usize> = Vec::new();
        let mut combined: Vec<Row> = Vec::new();
        for (probed, l) in lrows.iter().enumerate() {
            if out.len() >= limit {
                return Ok((out, probed));
            }
            key.clear();
            key.extend(self.keys.iter().map(|&(lk, _)| l[lk].clone()));
            let cands: &[usize] = if key.iter().any(Value::is_null) {
                &[]
            } else {
                self.table.get(&key).map(Vec::as_slice).unwrap_or(&[])
            };
            let mut matched = false;
            match &compiled {
                Some((Some(pred), _)) => {
                    // Compiled fast path: evaluate over references, concat
                    // only on a pass.
                    for &bi in cands {
                        let build = &self.build_rows[bi];
                        if !pred.matches_pair(l.values(), build.values(), left_width)? {
                            continue;
                        }
                        matched = true;
                        self.build_matched[bi].store(true, Ordering::Relaxed);
                        match self.join_type {
                            JoinType::Inner | JoinType::Left | JoinType::Right | JoinType::Full => {
                                out.push(l.concat(build));
                            }
                            JoinType::Semi => {
                                out.push(l.clone());
                                break;
                            }
                            JoinType::Anti => break,
                        }
                    }
                }
                Some((None, e)) if matches!(self.join_type, JoinType::Semi | JoinType::Anti) => {
                    // Semi/Anti stop at the first passing candidate and
                    // never evaluate the residual past it (nor its
                    // errors), so evaluate candidate-by-candidate —
                    // batching buys nothing here anyway (at most one
                    // output row per probe row).
                    for &bi in cands {
                        let c = l.concat(&self.build_rows[bi]);
                        if !e.eval_pred(c.values())? {
                            continue;
                        }
                        matched = true;
                        self.build_matched[bi].store(true, Ordering::Relaxed);
                        if self.join_type == JoinType::Semi {
                            out.push(l.clone());
                        }
                        break;
                    }
                }
                Some((None, e)) => {
                    // General residual: materialize this row's candidates
                    // and evaluate the predicate vectorized over them.
                    cand_idx.clear();
                    cand_idx.extend_from_slice(cands);
                    combined.clear();
                    combined.extend(cand_idx.iter().map(|&bi| l.concat(&self.build_rows[bi])));
                    let pass = e.eval_pred_batch(&combined)?;
                    for ((&bi, c), ok) in cand_idx.iter().zip(combined.drain(..)).zip(pass) {
                        if !ok {
                            continue;
                        }
                        matched = true;
                        self.build_matched[bi].store(true, Ordering::Relaxed);
                        match self.join_type {
                            JoinType::Inner | JoinType::Left | JoinType::Right | JoinType::Full => {
                                out.push(c);
                            }
                            JoinType::Semi | JoinType::Anti => unreachable!("handled above"),
                        }
                    }
                }
                None => {
                    for &bi in cands {
                        matched = true;
                        self.build_matched[bi].store(true, Ordering::Relaxed);
                        match self.join_type {
                            JoinType::Inner | JoinType::Left | JoinType::Right | JoinType::Full => {
                                out.push(l.concat(&self.build_rows[bi]));
                            }
                            JoinType::Semi => {
                                out.push(l.clone());
                                break;
                            }
                            JoinType::Anti => break,
                        }
                    }
                }
            }
            if !matched {
                match self.join_type {
                    JoinType::Left | JoinType::Full => out.push(l.concat_nulls(self.right_width)),
                    JoinType::Anti => out.push(l.clone()),
                    _ => {}
                }
            }
        }
        Ok((out, lrows.len()))
    }
}

impl ExecNode for HashJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Probe left rows until a batch of output is ready (serial), or —
    /// a keyed join under a parallel state — drain the left side once and
    /// probe contiguous morsels on workers, then emit the buffered output
    /// a batch at a time. A keyless join always probes serially: its
    /// buffered output would be the whole quadratic product.
    fn next_batch(&mut self, state: &ExecutionState) -> EngineResult<Option<RowBatch>> {
        self.build(state)?;
        loop {
            match self.phase {
                Phase::Done => return Ok(None),
                Phase::Buffered(ref mut it) => {
                    if let Some(batch) = next_chunk(&self.schema, it) {
                        return Ok(Some(batch));
                    }
                    self.phase = self.after_probe();
                }
                Phase::BuildUnmatched(ref mut i) => {
                    let mut out = Vec::new();
                    while *i < self.build_rows.len() && out.len() < BATCH_SIZE {
                        let idx = *i;
                        *i += 1;
                        if !self.build_matched[idx].load(Ordering::Relaxed) {
                            out.push(self.build_rows[idx].nulls_concat(self.left_width));
                        }
                    }
                    if matches!(self.phase, Phase::BuildUnmatched(i) if i >= self.build_rows.len())
                    {
                        self.phase = Phase::Done;
                    }
                    if !out.is_empty() {
                        return Ok(Some(RowBatch::new(self.schema.clone(), out)));
                    }
                }
                Phase::Probe(None) if state.threads() > 1 && !self.keys.is_empty() => {
                    // Morsel-parallel probe: materialize the probe input,
                    // split it into contiguous morsels, probe them on
                    // workers and concatenate in morsel order.
                    let lrows = crate::exec::collect_rows(self.left.as_mut(), state)?;
                    let out = if state.parallel(lrows.len()) {
                        let threads = state.threads();
                        let ranges = split_ranges(lrows.len(), threads);
                        let side = self.probe_side();
                        let left_width = self.left_width;
                        let chunks = par_run(threads, ranges.len(), |i| {
                            let (a, b) = ranges[i];
                            Ok(side.probe(&lrows[a..b], left_width, usize::MAX)?.0)
                        })?;
                        state.note_partitions(ranges.len());
                        chunks.concat()
                    } else {
                        self.probe_side()
                            .probe(&lrows, self.left_width, usize::MAX)?
                            .0
                    };
                    self.phase = Phase::Buffered(out.into_iter());
                }
                Phase::Probe(ref mut pending) => {
                    let (batch, pos) = match pending.take() {
                        Some(p) => p,
                        None => match self.left.next_batch(state)? {
                            Some(batch) => (batch, 0),
                            None => {
                                self.phase = self.after_probe();
                                continue;
                            }
                        },
                    };
                    let (out, probed) = self.probe_side().probe(
                        &batch.rows()[pos..],
                        self.left_width,
                        BATCH_SIZE,
                    )?;
                    if pos + probed < batch.len() {
                        self.phase = Phase::Probe(Some((batch, pos + probed)));
                    }
                    if !out.is_empty() {
                        return Ok(Some(RowBatch::new(self.schema.clone(), out)));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_util::int2_rel;
    use crate::exec::{collect, ExecutionState, SeqScanExec};
    use crate::expr::col;
    use crate::plan::PlannerConfig;
    use crate::relation::Relation;
    use crate::schema::{Column, DataType};

    const ALL_JOIN_TYPES: [JoinType; 6] = [
        JoinType::Inner,
        JoinType::Left,
        JoinType::Right,
        JoinType::Full,
        JoinType::Semi,
        JoinType::Anti,
    ];

    fn scan(vals: &[(i64, i64)]) -> BoxedExec {
        Box::new(SeqScanExec::new(int2_rel(("k", "v"), vals).into_shared()))
    }

    /// A (k, v) relation whose rows may hold NULLs.
    fn nullable_scan(rows: Vec<Vec<Value>>) -> BoxedExec {
        let rel = Relation::from_values(
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("v", DataType::Int),
            ]),
            rows,
        )
        .unwrap();
        Box::new(SeqScanExec::new(rel.into_shared()))
    }

    fn run_hash(
        l: &[(i64, i64)],
        r: &[(i64, i64)],
        jt: JoinType,
        residual: Option<Expr>,
    ) -> Relation {
        let node = HashJoinExec::new(scan(l), scan(r), vec![(0, 0)], residual, jt);
        collect(Box::new(node), &ExecutionState::default()).unwrap()
    }

    /// The same join with no keys and the key equality folded into the
    /// condition: a nested loop.
    fn run_nl(
        l: &[(i64, i64)],
        r: &[(i64, i64)],
        jt: JoinType,
        residual: Option<Expr>,
    ) -> Relation {
        let cond = match residual {
            None => col(0).eq(col(2)),
            Some(res) => col(0).eq(col(2)).and(res),
        };
        join(l, r, jt, Some(cond))
    }

    /// Keyless (nested-loop) join under an arbitrary condition.
    fn join(l: &[(i64, i64)], r: &[(i64, i64)], jt: JoinType, cond: Option<Expr>) -> Relation {
        let node = HashJoinExec::new(scan(l), scan(r), vec![], cond, jt);
        collect(Box::new(node), &ExecutionState::default()).unwrap()
    }

    fn vals(rel: &Relation) -> Vec<Vec<Value>> {
        rel.rows().iter().map(|r| r.to_vec()).collect()
    }

    /// Condition `l.k = r.k` (left width 2).
    fn keq() -> Option<Expr> {
        Some(col(0).eq(col(2)))
    }

    #[test]
    fn keyed_and_keyless_agree_row_for_row_on_all_join_types() {
        let l = [(1, 10), (2, 20), (2, 21), (4, 40), (5, 50)];
        let r = [(2, 200), (2, 201), (3, 300), (5, 55)];
        for jt in ALL_JOIN_TYPES {
            for residual in [None, Some(col(1).lt(col(3)))] {
                let h = run_hash(&l, &r, jt, residual.clone());
                let n = run_nl(&l, &r, jt, residual);
                assert_eq!(h.rows(), n.rows(), "join type {jt:?}: {h} vs {n}");
            }
        }
    }

    #[test]
    fn residual_predicate_applies() {
        let l = [(2, 20), (2, 25)];
        let r = [(2, 22), (2, 24)];
        // residual: l.v < r.v
        let residual = Some(col(1).lt(col(3)));
        let inner = run_hash(&l, &r, JoinType::Inner, residual.clone());
        assert_eq!(inner.len(), 2); // 20<22, 20<24
        let anti = run_hash(&l, &r, JoinType::Anti, residual);
        assert_eq!(vals(&anti), vec![vec![Value::Int(2), Value::Int(25)]]);
    }

    #[test]
    fn null_keys_never_match_but_surface_in_outer() {
        let l = nullable_scan(vec![
            vec![Value::Null, Value::Int(1)],
            vec![Value::Int(2), Value::Int(2)],
        ]);
        let r = nullable_scan(vec![
            vec![Value::Null, Value::Int(9)],
            vec![Value::Int(2), Value::Int(8)],
        ]);
        let node = HashJoinExec::new(l, r, vec![(0, 0)], None, JoinType::Full);
        let out = collect(Box::new(node), &ExecutionState::default()).unwrap();
        // matched (2,2,2,8); unmatched left (ω,1,ω,ω); unmatched right (ω,ω,ω,9)
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn empty_sides() {
        assert_eq!(run_hash(&[], &[(1, 1)], JoinType::Full, None).len(), 1);
        assert_eq!(run_hash(&[(1, 1)], &[], JoinType::Full, None).len(), 1);
        assert_eq!(run_hash(&[], &[], JoinType::Full, None).len(), 0);
        assert_eq!(run_hash(&[(1, 1)], &[], JoinType::Anti, None).len(), 1);
    }

    #[test]
    fn keyless_inner_join() {
        let out = vals(&join(
            &[(1, 10), (2, 20)],
            &[(2, 200), (3, 300)],
            JoinType::Inner,
            keq(),
        ));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], Value::Int(2));
        assert_eq!(out[0][3], Value::Int(200));
    }

    #[test]
    fn keyless_cross_product_with_none_condition() {
        let out = join(
            &[(1, 1), (2, 2)],
            &[(3, 3), (4, 4), (5, 5)],
            JoinType::Inner,
            None,
        );
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn keyless_left_outer_pads_nulls() {
        let out = vals(&join(
            &[(1, 10), (2, 20)],
            &[(2, 200)],
            JoinType::Left,
            keq(),
        ));
        assert_eq!(out.len(), 2);
        let unmatched = out.iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert!(unmatched[2].is_null() && unmatched[3].is_null());
    }

    #[test]
    fn keyless_right_and_full_emit_right_unmatched_last_in_build_order() {
        let l = [(2, 20)];
        let r = [(4, 400), (2, 200), (3, 300)];
        let right = vals(&join(&l, &r, JoinType::Right, keq()));
        let null = Value::Null;
        assert_eq!(
            right,
            vec![
                vec![
                    Value::Int(2),
                    Value::Int(20),
                    Value::Int(2),
                    Value::Int(200)
                ],
                vec![null.clone(), null.clone(), Value::Int(4), Value::Int(400)],
                vec![null.clone(), null.clone(), Value::Int(3), Value::Int(300)],
            ]
        );
        let full = vals(&join(&[(1, 10), (2, 20)], &r, JoinType::Full, keq()));
        assert_eq!(full.len(), 4);
        assert_eq!(
            full[0],
            vec![Value::Int(1), Value::Int(10), null.clone(), null]
        );
        assert_eq!(full[2][2], Value::Int(4));
        assert_eq!(full[3][2], Value::Int(3));
    }

    #[test]
    fn keyless_semi_join_emits_left_once() {
        let out = vals(&join(
            &[(1, 10), (2, 20)],
            &[(2, 200), (2, 201)],
            JoinType::Semi,
            keq(),
        ));
        assert_eq!(out, vec![vec![Value::Int(2), Value::Int(20)]]);
    }

    #[test]
    fn keyless_anti_join_emits_non_matching_left() {
        let out = vals(&join(
            &[(1, 10), (2, 20)],
            &[(2, 200), (2, 201)],
            JoinType::Anti,
            keq(),
        ));
        assert_eq!(out, vec![vec![Value::Int(1), Value::Int(10)]]);
        let all = join(&[(1, 10), (2, 20)], &[], JoinType::Anti, keq());
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn keyless_theta_join_non_equi() {
        // l.v < r.v
        let cond = Some(col(1).lt(col(3)));
        let out = join(
            &[(0, 5), (0, 25)],
            &[(0, 10), (0, 20)],
            JoinType::Inner,
            cond,
        );
        assert_eq!(out.len(), 2); // 5<10, 5<20
    }

    #[test]
    fn keyless_null_condition_never_matches() {
        // l.k = r.k where right k is NULL
        let right = nullable_scan(vec![vec![Value::Null, Value::Int(9)]]);
        let node = HashJoinExec::new(scan(&[(1, 10)]), right, vec![], keq(), JoinType::Left);
        let out = collect(Box::new(node), &ExecutionState::default()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.rows()[0][2].is_null());
    }

    #[test]
    fn parallel_probe_is_row_identical_to_serial() {
        // Enough rows to trip the parallel gate with parallel_min_rows=1,
        // duplicate keys for fanout, NULL keys, unmatched rows both sides.
        let l: Vec<(i64, i64)> = (0..500).map(|i| (i % 23, i)).collect();
        let r: Vec<(i64, i64)> = (0..300).map(|i| (i % 31, 1000 + i)).collect();
        let par_state = ExecutionState::new(PlannerConfig {
            threads: 4,
            parallel_min_rows: 1,
            ..Default::default()
        });
        let serial_state = ExecutionState::default();
        let residuals = [None, Some(col(1).lt(col(3)))];
        for jt in ALL_JOIN_TYPES {
            for residual in &residuals {
                let mk = || {
                    Box::new(HashJoinExec::new(
                        scan(&l),
                        scan(&r),
                        vec![(0, 0)],
                        residual.clone(),
                        jt,
                    ))
                };
                let serial = collect(mk(), &serial_state).unwrap();
                let par = collect(mk(), &par_state).unwrap();
                assert_eq!(serial.rows(), par.rows(), "join type {jt:?}");
            }
        }
        let (_, _, partitions) = par_state.stats.snapshot();
        assert!(partitions > 0, "parallel probe must actually partition");
    }

    #[test]
    fn keyless_probe_is_incremental_serial_and_parallel() {
        // A 2,000 × 2,000 cross join: one pull stops at the first probe
        // row that takes the output past BATCH_SIZE, also under a parallel
        // state, so LIMIT never waits for the 4M-row product.
        let rows: Vec<(i64, i64)> = (0..2000).map(|i| (i, i)).collect();
        let par_state = ExecutionState::new(PlannerConfig {
            threads: 4,
            parallel_min_rows: 1,
            ..Default::default()
        });
        for state in [ExecutionState::default(), par_state] {
            let mk = || {
                Box::new(HashJoinExec::new(
                    scan(&rows),
                    scan(&rows),
                    vec![],
                    None,
                    JoinType::Inner,
                ))
            };
            let mut node = mk();
            let first = node.next_batch(&state).unwrap().unwrap();
            assert!(first.len() >= BATCH_SIZE && first.len() <= BATCH_SIZE + rows.len());
            let rest = node.left.next_batch(&state).unwrap();
            assert!(rest.is_some(), "one pull must not drain the probe side");
            let limited = collect(Box::new(crate::exec::LimitExec::new(mk(), 10)), &state).unwrap();
            assert_eq!(limited.len(), 10);
            assert_eq!(
                limited.rows()[9][3],
                Value::Int(9),
                "first probe row's matches in build order"
            );
        }
    }
}
