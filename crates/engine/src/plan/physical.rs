//! Physical plans: the engine's "plan tree" with concrete algorithm
//! choices, executable into a pipelined executor tree.

use std::sync::Arc;

use std::sync::atomic::Ordering;

use crate::error::EngineResult;
use crate::exec::{
    collect, BoxedExec, DistinctExec, ExchangeExec, ExecutionState, FilterExec, HashAggregateExec,
    HashJoinExec, HashSetOpExec, InstrumentedExec, IntervalJoinExec, LimitExec, MergeJoinExec,
    OperatorStats, ProjectExec, SeqScanExec, SortExec, StorageScanExec,
};
use crate::expr::{AggCall, Expr, SortKey};
use crate::plan::cost::{CostModel, PlanStats};
use crate::plan::logical::ExtensionNode;
use crate::plan::{JoinType, PlannerConfig, SetOpKind};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::storage::{StoredTable, ZoneBounds};

/// A pruned-scan resolution: the stored table plus the sorted list of
/// heap pages that survived zone-map / interval-index pruning.
type PrunedScan = (Arc<StoredTable>, Arc<Vec<u32>>);

/// A physical (executable) plan.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    SeqScan {
        rel: Arc<Relation>,
        label: String,
    },
    /// Streaming scan over a heap-file table: pages decode into batches
    /// through the table's buffer pool, never materializing the heap.
    /// With `bounds` set, page zone maps prune pages whose min/max
    /// summaries cannot satisfy the bounds — header-only checks, no row
    /// decoding; the planner keeps the originating filter on top, so the
    /// over-approximate page set never changes results.
    StorageScan {
        table: Arc<StoredTable>,
        label: String,
        bounds: Option<ZoneBounds>,
    },
    /// Probe the table's persistent interval index (a B+tree on
    /// valid-start with max-valid-end augmentation) for the page set that
    /// can overlap the bounds, then scan only those pages. Degrades to a
    /// zone-map sweep or a full scan when the index or the GUCs are
    /// unavailable at execution time — never errors on a missing index.
    IndexScan {
        table: Arc<StoredTable>,
        label: String,
        bounds: ZoneBounds,
    },
    Filter {
        input: Box<PhysicalPlan>,
        predicate: Expr,
    },
    Project {
        input: Box<PhysicalPlan>,
        exprs: Vec<Expr>,
        schema: Schema,
    },
    Sort {
        input: Box<PhysicalPlan>,
        keys: Vec<SortKey>,
    },
    HashAggregate {
        input: Box<PhysicalPlan>,
        group: Vec<Expr>,
        aggs: Vec<AggCall>,
        schema: Schema,
    },
    Distinct {
        input: Box<PhysicalPlan>,
    },
    /// Runs as a [`HashJoinExec`] with no keys: every build row is a
    /// candidate for every probe row.
    NestedLoopJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        join_type: JoinType,
        condition: Option<Expr>,
    },
    HashJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        join_type: JoinType,
        keys: Vec<(usize, usize)>,
        residual: Option<Expr>,
    },
    /// Children are already wrapped in the required sorts by the planner.
    MergeJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        join_type: JoinType,
        keys: Vec<(usize, usize)>,
        residual: Option<Expr>,
    },
    /// Sweep-based interval overlap join (opt-in; the paper's future-work
    /// extension). Sorts internally.
    IntervalJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        join_type: JoinType,
        endpoints: (usize, usize, usize, usize), // (l_ts, l_te, r_ts, r_te)
        residual: Option<Expr>,
    },
    HashSetOp {
        kind: SetOpKind,
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
    },
    Limit {
        input: Box<PhysicalPlan>,
        n: usize,
    },
    Extension {
        node: Arc<dyn ExtensionNode>,
        children: Vec<PhysicalPlan>,
    },
}

impl PhysicalPlan {
    /// Output schema.
    pub fn schema(&self) -> Schema {
        match self {
            PhysicalPlan::SeqScan { rel, .. } => rel.schema().clone(),
            PhysicalPlan::StorageScan { table, .. } | PhysicalPlan::IndexScan { table, .. } => {
                table.schema().clone()
            }
            PhysicalPlan::Filter { input, .. } => input.schema(),
            PhysicalPlan::Project { schema, .. } => schema.clone(),
            PhysicalPlan::Sort { input, .. } => input.schema(),
            PhysicalPlan::HashAggregate { schema, .. } => schema.clone(),
            PhysicalPlan::Distinct { input } => input.schema(),
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                join_type,
                ..
            } => {
                if join_type.emits_right() {
                    left.schema().concat(&right.schema())
                } else {
                    left.schema()
                }
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                join_type,
                ..
            } => {
                if join_type.emits_right() {
                    left.schema().concat(&right.schema())
                } else {
                    left.schema()
                }
            }
            PhysicalPlan::MergeJoin { left, right, .. } => left.schema().concat(&right.schema()),
            PhysicalPlan::IntervalJoin { left, right, .. } => left.schema().concat(&right.schema()),
            PhysicalPlan::HashSetOp { left, .. } => left.schema(),
            PhysicalPlan::Limit { input, .. } => input.schema(),
            PhysicalPlan::Extension { node, .. } => node.schema(),
        }
    }

    /// Direct children in left-to-right order (empty for leaves) — the one
    /// place that knows each variant's child layout; every generic
    /// traversal below goes through it.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::SeqScan { .. }
            | PhysicalPlan::StorageScan { .. }
            | PhysicalPlan::IndexScan { .. } => vec![],
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Limit { input, .. } => vec![input],
            PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::MergeJoin { left, right, .. }
            | PhysicalPlan::IntervalJoin { left, right, .. }
            | PhysicalPlan::HashSetOp { left, right, .. } => vec![left, right],
            PhysicalPlan::Extension { children, .. } => children.iter().collect(),
        }
    }

    /// Build the executor tree for one execution under `state`. Plans
    /// carry no per-execution state (a spool's cache lives in `state`'s
    /// registry), so the same plan can be executed repeatedly — each run
    /// under a fresh [`ExecutionState`] observes current table contents.
    /// When the state's GUC snapshot enables parallelism, scan pipelines
    /// are partitioned into morsels behind an exchange operator.
    pub fn execute(&self, state: &ExecutionState) -> EngineResult<BoxedExec> {
        self.build_subtree(state)
    }

    /// Recursive build entry: partition this subtree behind an exchange
    /// when it is a scan pipeline worth splitting, otherwise build the
    /// serial operator and recurse on children (which get the same
    /// chance).
    fn build_subtree(&self, state: &ExecutionState) -> EngineResult<BoxedExec> {
        if state.threads() > 1 {
            if let Some(exec) = self.build_parallel(state)? {
                // The per-partition pipelines are already instrumented
                // node by node (`build_ranged`); wrapping the exchange
                // under the same keys again would double-count.
                return Ok(exec);
            }
        }
        let exec = self.build_exec_tree(state)?;
        Ok(self.instrumented(exec, state))
    }

    /// This plan node's identity in the instrumentation registry: its
    /// address, stable for as long as the caller borrows the plan (which
    /// covers both execution and a subsequent `explain_analyze` render).
    fn node_key(&self) -> usize {
        self as *const PhysicalPlan as usize
    }

    /// Wrap `exec` in a metering shim when the state instruments; the
    /// no-instrumentation path returns `exec` untouched.
    fn instrumented(&self, exec: BoxedExec, state: &ExecutionState) -> BoxedExec {
        match state.instrumentation() {
            Some(ins) => Box::new(InstrumentedExec::new(exec, ins.op(self.node_key()))),
            None => exec,
        }
    }

    /// Box a storage scan, attaching this plan node's page ledger when
    /// the state instruments.
    fn boxed_scan(&self, scan: StorageScanExec, state: &ExecutionState) -> BoxedExec {
        match state.instrumentation() {
            Some(ins) => Box::new(scan.with_ledger(ins.op(self.node_key()))),
            None => Box::new(scan),
        }
    }

    /// The leaf scan of a filter/project pipeline (`self` when not a
    /// pipeline) — the node page-skip accounting attributes to.
    fn pipeline_leaf(&self) -> &PhysicalPlan {
        match self {
            PhysicalPlan::Filter { input, .. } | PhysicalPlan::Project { input, .. } => {
                input.pipeline_leaf()
            }
            leaf => leaf,
        }
    }

    /// If this subtree is a partitionable scan pipeline (filter/project
    /// chains over a single scan) large enough to be worth splitting,
    /// build it as up to `state.threads()` contiguous-range partitions
    /// behind an [`ExchangeExec`]; otherwise `None`. Partitions concatenate
    /// in input order, so the exchange output is row-identical to the
    /// serial pipeline.
    fn build_parallel(&self, state: &ExecutionState) -> EngineResult<Option<BoxedExec>> {
        let Some(units) = self.pipeline_units() else {
            return Ok(None);
        };
        let rows = self.pipeline_rows().unwrap_or(0);
        if !state.parallel(rows) {
            return Ok(None);
        }
        // Resolve page pruning at the pipeline's leaf first, so partitions
        // are formed over the *surviving* page set — pruning and
        // parallelism compose instead of fighting over the range layout.
        let pruned = self.pipeline_pruning(state)?;
        let units = pruned.as_ref().map_or(units, |(_, pages)| pages.len());
        let ranges = crate::exec::workers::split_ranges(units, state.threads());
        if ranges.len() <= 1 {
            // Too little left to split: fall back to the serial build,
            // which re-resolves the page set and accounts the skips.
            return Ok(None);
        }
        let parts = ranges
            .iter()
            .map(|&(a, b)| self.build_ranged(a, b, pruned.as_ref(), state))
            .collect::<EngineResult<Vec<_>>>()?;
        if let Some((table, pages)) = &pruned {
            let skipped = u64::from(table.page_count()).saturating_sub(pages.len() as u64);
            state.note_pages_skipped(skipped);
            if let Some(ins) = state.instrumentation() {
                ins.op(self.pipeline_leaf().node_key())
                    .note_pages_skipped(skipped);
            }
        }
        if let Some(ins) = state.instrumentation() {
            ins.op(self.node_key())
                .partitions
                .fetch_add(ranges.len() as u64, Ordering::Relaxed);
        }
        Ok(Some(Box::new(ExchangeExec::new(self.schema(), parts))))
    }

    /// Resolve the pruned page set at the leaf of a scan pipeline, if the
    /// leaf is a pruning scan and the GUC snapshot keeps pruning on.
    fn pipeline_pruning(&self, state: &ExecutionState) -> EngineResult<Option<PrunedScan>> {
        match self {
            PhysicalPlan::Filter { input, .. } | PhysicalPlan::Project { input, .. } => {
                input.pipeline_pruning(state)
            }
            leaf => leaf.resolve_scan_pages(state),
        }
    }

    /// The page set this scan should read, resolved against the table's
    /// zone maps and interval index under the execution-time GUC snapshot.
    /// `None` means "read everything" — either the node carries no bounds
    /// or every pruning structure is disabled/absent. The result is
    /// conservative: pages are only dropped when their zone or index
    /// evidence proves no row can match. Resolved page sets are clamped to
    /// the statement's heap snapshot, so a zone sweep or index probe that
    /// races a concurrent appender never hands the scan a page past the
    /// snapshot watermark.
    fn resolve_scan_pages(&self, state: &ExecutionState) -> EngineResult<Option<PrunedScan>> {
        Ok(match self {
            PhysicalPlan::StorageScan {
                table,
                bounds: Some(bounds),
                ..
            } if state.config().enable_zonemaps => {
                let snap = state.snapshot_for(table);
                let mut pages = table.zone_surviving_pages(bounds)?;
                pages.retain(|&p| snap.sees_page(p));
                Some((table.clone(), Arc::new(pages)))
            }
            PhysicalPlan::IndexScan { table, bounds, .. } => {
                let config = state.config();
                let snap = state.snapshot_for(table);
                if config.enable_interval_index {
                    if let Some(index) = table.index() {
                        let mut pages = index
                            .probe(bounds.ts_le, bounds.te_gt)
                            .map_err(crate::error::EngineError::from)?;
                        pages.retain(|&p| snap.sees_page(p));
                        if config.enable_zonemaps {
                            // Zone re-check: the index only knows ts/te, the
                            // zones also carry key bounds and lower ts bounds.
                            let mut kept = Vec::with_capacity(pages.len());
                            for page in pages {
                                if table.zone_of(page)?.may_match(bounds) {
                                    kept.push(page);
                                }
                            }
                            pages = kept;
                        }
                        return Ok(Some((table.clone(), Arc::new(pages))));
                    }
                }
                // Index missing or disabled: degrade to a zone sweep, or a
                // full scan when zone maps are off too.
                if config.enable_zonemaps {
                    let mut pages = table.zone_surviving_pages(bounds)?;
                    pages.retain(|&p| snap.sees_page(p));
                    Some((table.clone(), Arc::new(pages)))
                } else {
                    None
                }
            }
            _ => None,
        })
    }

    /// Partition units of a scan pipeline: rows for an in-memory scan,
    /// pages for a storage scan; `None` when the subtree is not a pure
    /// pipeline over a single scan.
    fn pipeline_units(&self) -> Option<usize> {
        match self {
            PhysicalPlan::SeqScan { rel, .. } => Some(rel.len()),
            PhysicalPlan::StorageScan { table, .. } | PhysicalPlan::IndexScan { table, .. } => {
                Some(table.page_count() as usize)
            }
            PhysicalPlan::Filter { input, .. } | PhysicalPlan::Project { input, .. } => {
                input.pipeline_units()
            }
            _ => None,
        }
    }

    /// Source row count of a scan pipeline (for the parallelism size
    /// gate); `None` when not a pipeline.
    fn pipeline_rows(&self) -> Option<usize> {
        match self {
            PhysicalPlan::SeqScan { rel, .. } => Some(rel.len()),
            PhysicalPlan::StorageScan { table, .. } | PhysicalPlan::IndexScan { table, .. } => {
                Some(table.row_count() as usize)
            }
            PhysicalPlan::Filter { input, .. } | PhysicalPlan::Project { input, .. } => {
                input.pipeline_rows()
            }
            _ => None,
        }
    }

    /// Build one ranged partition of a scan pipeline: the leaf scan is
    /// restricted to `[start, end)` partition units, the filter/project
    /// chain above it is rebuilt per partition. With `pruned` set, the
    /// units index into the surviving page list rather than the raw page
    /// range. Under instrumentation every partition's node is wrapped
    /// under its plan node's key, so the partitions of one node aggregate
    /// into one stats slot.
    fn build_ranged(
        &self,
        start: usize,
        end: usize,
        pruned: Option<&PrunedScan>,
        state: &ExecutionState,
    ) -> EngineResult<BoxedExec> {
        let exec: BoxedExec = match self {
            PhysicalPlan::SeqScan { rel, .. } => {
                Box::new(SeqScanExec::with_range(rel.clone(), start, end))
            }
            PhysicalPlan::StorageScan { table, .. } | PhysicalPlan::IndexScan { table, .. } => {
                let scan = match pruned {
                    Some((_, pages)) => StorageScanExec::with_page_list(
                        table.clone(),
                        pages.clone(),
                        start as u32,
                        end as u32,
                    ),
                    None => {
                        StorageScanExec::with_page_range(table.clone(), start as u32, end as u32)
                    }
                };
                self.boxed_scan(scan, state)
            }
            PhysicalPlan::Filter { input, predicate } => Box::new(FilterExec::new(
                input.build_ranged(start, end, pruned, state)?,
                predicate.clone(),
            )),
            PhysicalPlan::Project {
                input,
                exprs,
                schema,
            } => Box::new(ProjectExec::new(
                input.build_ranged(start, end, pruned, state)?,
                exprs.clone(),
                schema.clone(),
            )),
            other => unreachable!("build_ranged on non-pipeline node {other:?}"),
        };
        Ok(self.instrumented(exec, state))
    }

    fn build_exec_tree(&self, state: &ExecutionState) -> EngineResult<BoxedExec> {
        Ok(match self {
            PhysicalPlan::SeqScan { rel, .. } => Box::new(SeqScanExec::new(rel.clone())),
            PhysicalPlan::StorageScan { table, .. } | PhysicalPlan::IndexScan { table, .. } => {
                match self.resolve_scan_pages(state)? {
                    Some((table, pages)) => {
                        // The single serial accounting site for page skips;
                        // the parallel path accounts in `build_parallel`.
                        let skipped =
                            u64::from(table.page_count()).saturating_sub(pages.len() as u64);
                        state.note_pages_skipped(skipped);
                        if let Some(ins) = state.instrumentation() {
                            ins.op(self.node_key()).note_pages_skipped(skipped);
                        }
                        let n = pages.len() as u32;
                        self.boxed_scan(StorageScanExec::with_page_list(table, pages, 0, n), state)
                    }
                    None => self.boxed_scan(StorageScanExec::new(table.clone()), state),
                }
            }
            PhysicalPlan::Filter { input, predicate } => Box::new(FilterExec::new(
                input.build_subtree(state)?,
                predicate.clone(),
            )),
            PhysicalPlan::Project {
                input,
                exprs,
                schema,
            } => Box::new(ProjectExec::new(
                input.build_subtree(state)?,
                exprs.clone(),
                schema.clone(),
            )),
            PhysicalPlan::Sort { input, keys } => {
                Box::new(SortExec::new(input.build_subtree(state)?, keys.clone()))
            }
            PhysicalPlan::HashAggregate {
                input,
                group,
                aggs,
                schema,
            } => Box::new(HashAggregateExec::new(
                input.build_subtree(state)?,
                group.clone(),
                aggs.clone(),
                schema.clone(),
            )),
            PhysicalPlan::Distinct { input } => {
                Box::new(DistinctExec::new(input.build_subtree(state)?))
            }
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                join_type,
                condition,
            } => Box::new(HashJoinExec::new(
                left.build_subtree(state)?,
                right.build_subtree(state)?,
                vec![],
                condition.clone(),
                *join_type,
            )),
            PhysicalPlan::HashJoin {
                left,
                right,
                join_type,
                keys,
                residual,
            } => Box::new(HashJoinExec::new(
                left.build_subtree(state)?,
                right.build_subtree(state)?,
                keys.clone(),
                residual.clone(),
                *join_type,
            )),
            PhysicalPlan::MergeJoin {
                left,
                right,
                join_type,
                keys,
                residual,
            } => Box::new(MergeJoinExec::new(
                left.build_subtree(state)?,
                right.build_subtree(state)?,
                keys.clone(),
                residual.clone(),
                *join_type,
            )),
            PhysicalPlan::IntervalJoin {
                left,
                right,
                join_type,
                endpoints,
                residual,
            } => Box::new(IntervalJoinExec::new(
                left.build_subtree(state)?,
                right.build_subtree(state)?,
                endpoints.0,
                endpoints.1,
                endpoints.2,
                endpoints.3,
                residual.clone(),
                *join_type,
            )),
            PhysicalPlan::HashSetOp { kind, left, right } => Box::new(HashSetOpExec::new(
                *kind,
                left.build_subtree(state)?,
                right.build_subtree(state)?,
            )?),
            PhysicalPlan::Limit { input, n } => {
                Box::new(LimitExec::new(input.build_subtree(state)?, *n))
            }
            PhysicalPlan::Extension { node, children } => {
                let mut built = Vec::with_capacity(children.len());
                for c in children {
                    built.push(c.build_subtree(state)?);
                }
                node.build_exec(built)?
            }
        })
    }

    /// Execute and materialize the result, draining the executor tree
    /// batch by batch ([`crate::exec::ExecNode::next_batch`]).
    pub fn collect(&self, state: &ExecutionState) -> EngineResult<Relation> {
        collect(self.execute(state)?, state)
    }

    /// Estimated rows/cost for this subtree.
    pub fn stats(&self, model: &CostModel) -> PlanStats {
        match self {
            PhysicalPlan::SeqScan { rel, .. } => model.scan(rel.len() as f64),
            // StorageScan keeps the page-blind estimate even when bounds
            // are attached: pruning narrows pages read, not rows emitted
            // (the filter above does the row-level work), and the legacy
            // shape is pinned by golden EXPLAIN output.
            PhysicalPlan::StorageScan { table, .. } => model.scan(table.row_count() as f64),
            PhysicalPlan::IndexScan { table, bounds, .. } => {
                let rows = table.row_count() as f64;
                let pages = (table.page_count() as f64).max(1.0);
                let sel = 0.33f64.powi(bounds.bound_count() as i32);
                let levels = table.index().and_then(|i| i.levels().ok()).unwrap_or(1) as f64;
                PlanStats::new(
                    (rows * sel).max(1.0),
                    model.index_scan_cost(rows, pages, levels, sel),
                )
            }
            PhysicalPlan::Filter { input, predicate } => {
                model.filter(input.stats(model), predicate)
            }
            PhysicalPlan::Project { input, exprs, .. } => {
                model.project(input.stats(model), exprs.len())
            }
            PhysicalPlan::Sort { input, .. } => model.sort(input.stats(model)),
            PhysicalPlan::HashAggregate {
                input, group, aggs, ..
            } => model.aggregate(input.stats(model), group.len(), aggs.len()),
            PhysicalPlan::Distinct { input } => model.distinct(input.stats(model)),
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                join_type,
                condition,
            } => {
                let (l, r) = (left.stats(model), right.stats(model));
                let rows = model.join_rows(
                    l,
                    r,
                    0,
                    join_type.emits_left_unmatched(),
                    join_type.emits_right_unmatched(),
                );
                let n_conj = condition.as_ref().map_or(0, |c| c.conjuncts().len());
                model.nested_loop_join(l, r, rows, n_conj)
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                join_type,
                keys,
                ..
            } => {
                let (l, r) = (left.stats(model), right.stats(model));
                let rows = model.join_rows(
                    l,
                    r,
                    keys.len(),
                    join_type.emits_left_unmatched(),
                    join_type.emits_right_unmatched(),
                );
                model.hash_join(l, r, rows)
            }
            PhysicalPlan::MergeJoin {
                left,
                right,
                join_type,
                keys,
                ..
            } => {
                let (l, r) = (left.stats(model), right.stats(model));
                let rows = model.join_rows(
                    l,
                    r,
                    keys.len(),
                    join_type.emits_left_unmatched(),
                    join_type.emits_right_unmatched(),
                );
                model.merge_join(l, r, rows)
            }
            PhysicalPlan::IntervalJoin {
                left,
                right,
                join_type,
                ..
            } => {
                let (l, r) = (left.stats(model), right.stats(model));
                let rows = model.join_rows(
                    l,
                    r,
                    0,
                    join_type.emits_left_unmatched(),
                    join_type.emits_right_unmatched(),
                );
                // sort both sides + sweep
                model.merge_join(model.sort(l), model.sort(r), rows)
            }
            PhysicalPlan::HashSetOp { left, right, .. } => {
                model.set_op(left.stats(model), right.stats(model))
            }
            PhysicalPlan::Limit { input, n } => model.limit(input.stats(model), *n),
            PhysicalPlan::Extension { node, children } => {
                let stats: Vec<PlanStats> = children.iter().map(|c| c.stats(model)).collect();
                node.estimate(&stats, model)
            }
        }
    }

    /// Pretty-printed physical plan with row estimates (EXPLAIN).
    pub fn explain(&self) -> String {
        let model = CostModel::default();
        let mut out = String::new();
        self.explain_into(&mut out, 0, &model, None);
        out
    }

    /// EXPLAIN with the parallelism the given GUC snapshot would produce:
    /// a header with the effective worker count, and an `Exchange` line
    /// above every scan pipeline that execution would split into ranged
    /// partitions (`execute` inserts the exchange at build time, so the
    /// plan tree itself stays serial — this prints the execution shape).
    pub fn explain_parallel(&self, config: &PlannerConfig) -> String {
        let state = ExecutionState::new(*config);
        let model = CostModel::default();
        let mut out = format!(
            "Parallelism: threads={} (parallel_min_rows={})\n",
            state.threads(),
            state.parallel_min_rows()
        );
        self.explain_into(&mut out, 0, &model, Some(&state));
        out
    }

    fn explain_into(
        &self,
        out: &mut String,
        indent: usize,
        model: &CostModel,
        par: Option<&ExecutionState>,
    ) {
        // Would execution put an exchange over this pipeline? Mirror the
        // `build_parallel` gate exactly, then print the partition shape and
        // the (serial, per-partition) pipeline below it.
        if let Some(state) = par {
            if state.threads() > 1 {
                if let Some(units) = self.pipeline_units() {
                    let rows = self.pipeline_rows().unwrap_or(0);
                    let ranges = crate::exec::workers::split_ranges(units, state.threads());
                    if state.parallel(rows) && ranges.len() > 1 {
                        let pad = "  ".repeat(indent);
                        out.push_str(&format!(
                            "{pad}Exchange ({} partitions over {} units, gather in order)\n",
                            ranges.len(),
                            units,
                        ));
                        self.explain_into(out, indent + 1, model, None);
                        return;
                    }
                }
            }
        }
        let pad = "  ".repeat(indent);
        let st = self.stats(model);
        out.push_str(&format!(
            "{pad}{}  (rows≈{:.0} cost≈{:.2})\n",
            self.node_label(),
            st.rows,
            st.cost
        ));
        for c in self.children() {
            c.explain_into(out, indent + 1, model, par);
        }
    }

    /// The head-line label of this node, shared by `EXPLAIN` and
    /// `EXPLAIN ANALYZE` so the two surfaces print identical trees.
    fn node_label(&self) -> String {
        match self {
            PhysicalPlan::SeqScan { rel, label } => {
                format!("SeqScan on {label} [{} rows]", rel.len())
            }
            PhysicalPlan::StorageScan {
                table,
                label,
                bounds,
            } => {
                let zone = match bounds {
                    Some(b) => format!(" using zonemap ({b})"),
                    None => String::new(),
                };
                format!(
                    "StorageScan on {label}{zone} [{} pages, {} rows]",
                    table.page_count(),
                    table.row_count()
                )
            }
            PhysicalPlan::IndexScan {
                table,
                label,
                bounds,
            } => format!(
                "IndexScan on {label} using interval index ({bounds}) [{} pages, {} rows]",
                table.page_count(),
                table.row_count()
            ),
            PhysicalPlan::Filter { input, predicate } => {
                format!("Filter: {}", predicate.display(Some(&input.schema())))
            }
            PhysicalPlan::Project { .. } => "Project".to_string(),
            PhysicalPlan::Sort { keys, .. } => format!("Sort ({} keys)", keys.len()),
            PhysicalPlan::HashAggregate { group, .. } => {
                format!("HashAggregate ({} group cols)", group.len())
            }
            PhysicalPlan::Distinct { .. } => "Distinct".to_string(),
            PhysicalPlan::NestedLoopJoin { join_type, .. } => {
                format!("NestedLoopJoin[{}]", join_type.name())
            }
            PhysicalPlan::HashJoin {
                join_type, keys, ..
            } => format!("HashJoin[{}] on {} key(s)", join_type.name(), keys.len()),
            PhysicalPlan::MergeJoin {
                join_type, keys, ..
            } => format!("MergeJoin[{}] on {} key(s)", join_type.name(), keys.len()),
            PhysicalPlan::IntervalJoin { join_type, .. } => {
                format!("IntervalJoin[{}] (sweep)", join_type.name())
            }
            PhysicalPlan::HashSetOp { kind, .. } => format!("HashSetOp[{}]", kind.name()),
            PhysicalPlan::Limit { n, .. } => format!("Limit {n}"),
            PhysicalPlan::Extension { node, .. } => node.explain(),
        }
    }

    /// Render this (already executed) plan annotated with the actual
    /// per-operator counters the instrumented `state` collected: rows and
    /// batches emitted, wall time inside the operator (inclusive of
    /// children; parallel partitions sum), pages read/skipped for storage
    /// scans, and the partition count at the root of an exchanged
    /// pipeline. The tree shape and estimates are exactly [`Self::explain`]'s,
    /// so plan-shape assertions hold across both.
    ///
    /// `state` must be the state the plan was executed under — operator
    /// identity is the plan node address, so a different plan clone (or a
    /// fresh state) renders every node as `never executed`.
    pub fn explain_analyze(&self, state: &ExecutionState) -> String {
        let model = CostModel::default();
        let mut out = String::new();
        self.explain_analyze_into(&mut out, 0, &model, state);
        out
    }

    fn explain_analyze_into(
        &self,
        out: &mut String,
        indent: usize,
        model: &CostModel,
        state: &ExecutionState,
    ) {
        let pad = "  ".repeat(indent);
        let st = self.stats(model);
        let actual = match state
            .instrumentation()
            .and_then(|ins| ins.get(self.node_key()))
        {
            Some(op) => {
                let mut s = format!(
                    " (actual rows={} batches={} time={:.3}ms",
                    op.rows.load(Ordering::Relaxed),
                    op.batches.load(Ordering::Relaxed),
                    op.millis(),
                );
                let pages_read = op.pages_read.load(Ordering::Relaxed);
                let pages_skipped = op.pages_skipped.load(Ordering::Relaxed);
                if pages_read > 0 || pages_skipped > 0 {
                    s.push_str(&format!(
                        " pages_read={pages_read} pages_skipped={pages_skipped}"
                    ));
                }
                let partitions = op.partitions.load(Ordering::Relaxed);
                if partitions > 0 {
                    s.push_str(&format!(" partitions={partitions}"));
                }
                s.push(')');
                s
            }
            None => " (never executed)".to_string(),
        };
        out.push_str(&format!(
            "{pad}{}  (rows≈{:.0} cost≈{:.2}){actual}\n",
            self.node_label(),
            st.rows,
            st.cost
        ));
        for c in self.children() {
            c.explain_analyze_into(out, indent + 1, model, state);
        }
    }

    /// `(depth, label, stats)` for every node of this tree that executed
    /// under `state`, in explain (pre-)order — powers operator trace spans
    /// and slow-query breakdowns without re-rendering the whole tree.
    pub fn operator_stats(
        &self,
        state: &ExecutionState,
    ) -> Vec<(usize, String, Arc<OperatorStats>)> {
        let mut out = Vec::new();
        self.operator_stats_into(state, 0, &mut out);
        out
    }

    fn operator_stats_into(
        &self,
        state: &ExecutionState,
        depth: usize,
        out: &mut Vec<(usize, String, Arc<OperatorStats>)>,
    ) {
        if let Some(op) = state
            .instrumentation()
            .and_then(|ins| ins.get(self.node_key()))
        {
            out.push((depth, self.node_label(), op));
        }
        for c in self.children() {
            c.operator_stats_into(state, depth + 1, out);
        }
    }

    /// Count the nodes of this (single) physical tree satisfying `pred` —
    /// used by tests asserting that composed temporal queries plan without
    /// intermediate materialization barriers.
    pub fn count_nodes(&self, pred: &dyn Fn(&PhysicalPlan) -> bool) -> usize {
        usize::from(pred(self))
            + self
                .children()
                .into_iter()
                .map(|c| c.count_nodes(pred))
                .sum::<usize>()
    }

    /// The name of the join algorithm at the root, if the root is a join —
    /// convenient for tests asserting planner choices (Fig. 13).
    pub fn root_join_algorithm(&self) -> Option<&'static str> {
        match self {
            PhysicalPlan::NestedLoopJoin { .. } => Some("nestloop"),
            PhysicalPlan::HashJoin { .. } => Some("hash"),
            PhysicalPlan::MergeJoin { .. } => Some("merge"),
            PhysicalPlan::IntervalJoin { .. } => Some("interval"),
            _ => None,
        }
    }

    /// Find the first join algorithm in a pre-order walk of the plan.
    pub fn first_join_algorithm(&self) -> Option<&'static str> {
        if let Some(a) = self.root_join_algorithm() {
            return Some(a);
        }
        self.children()
            .into_iter()
            .find_map(|c| c.first_join_algorithm())
    }
}
