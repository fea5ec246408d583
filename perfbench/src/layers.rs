//! The traced run's instruments: spans kept in memory and written once
//! as chrome-trace JSON, a statement executed layer by layer through each
//! layer's public functions, and per-operator self times.
//!
//! Nothing here reaches into the program: spans wrap calls made from
//! this file, and the operator split reads the `OperatorStats` the
//! engine's own instrumentation already keeps.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use temporal_core::prelude::Database;
use temporal_engine::prelude::*;
use temporal_sql::ast::Statement;
use temporal_sql::{parse_statement, Analyzer, Session};

use crate::stats::{Latencies, Report};

/// One recorded span. `parent` indexes the same recorder's spans.
#[derive(Debug, Clone)]
struct SpanRec {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    stmt: u64,
    lane: u64,
}

/// In-memory span recorder, dumped once at the end of a run.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    spans: Vec<SpanRec>,
}

impl Spans {
    pub fn new(t0: Instant) -> Spans {
        Spans {
            t0,
            spans: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Record a finished span; returns its id for children to name.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        stmt: u64,
        lane: u64,
    ) -> usize {
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.spans.push(SpanRec {
            name: name.to_string(),
            start_us,
            end_us,
            parent,
            stmt,
            lane,
        });
        self.spans.len() - 1
    }

    /// Take over another recorder's spans (a client thread's), keeping
    /// their parent links.
    pub fn absorb(&mut self, other: Spans) {
        let shift = self.spans.len();
        let skew = other.t0.saturating_duration_since(self.t0).as_secs_f64() * 1e6;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s.start_us += skew;
            s.end_us += skew;
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, the parent and statement id in its args.
    pub fn chrome_trace_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                     \"args\":{{\"id\":{id},\"parent\":{parent},\"stmt\":{}}}}}",
                    s.name.replace('\\', "\\\\").replace('"', "\\\""),
                    s.start_us,
                    (s.end_us - s.start_us).max(0.0),
                    s.lane,
                    s.stmt
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

/// Operator families the per-layer split reports, by plan node.
fn family(plan: &PhysicalPlan) -> &'static str {
    match plan {
        PhysicalPlan::SeqScan { .. }
        | PhysicalPlan::StorageScan { .. }
        | PhysicalPlan::IndexScan { .. } => "exec.scan",
        PhysicalPlan::HashJoin { .. } => "exec.hashjoin",
        PhysicalPlan::IntervalJoin { .. } => "exec.intervaljoin",
        PhysicalPlan::Sort { .. } => "exec.sort",
        PhysicalPlan::Project { .. } => "exec.project",
        PhysicalPlan::HashAggregate { .. } => "exec.aggregate",
        PhysicalPlan::Extension { node, .. } => match node.name() {
            "TemporalAligner" => "primitives.aligner",
            "TemporalNormalizer" => "primitives.normalizer",
            "Absorb" => "primitives.absorb",
            _ => "exec.other",
        },
        _ => "exec.other",
    }
}

/// A span name for one plan node.
fn kind(plan: &PhysicalPlan) -> String {
    let name = match plan {
        PhysicalPlan::SeqScan { .. } => "SeqScan",
        PhysicalPlan::StorageScan { .. } => "StorageScan",
        PhysicalPlan::IndexScan { .. } => "IndexScan",
        PhysicalPlan::Filter { .. } => "Filter",
        PhysicalPlan::Project { .. } => "Project",
        PhysicalPlan::Sort { .. } => "Sort",
        PhysicalPlan::HashAggregate { .. } => "HashAggregate",
        PhysicalPlan::Distinct { .. } => "Distinct",
        PhysicalPlan::NestedLoopJoin { .. } => "NestedLoopJoin",
        PhysicalPlan::HashJoin { .. } => "HashJoin",
        PhysicalPlan::MergeJoin { .. } => "MergeJoin",
        PhysicalPlan::IntervalJoin { .. } => "IntervalJoin",
        PhysicalPlan::HashSetOp { .. } => "HashSetOp",
        PhysicalPlan::Limit { .. } => "Limit",
        PhysicalPlan::Extension { node, .. } => return node.name().to_string(),
    };
    name.to_string()
}

/// Every family [`family`] can return, in report order.
pub const FAMILIES: [&str; 10] = [
    "exec.hashjoin",
    "exec.intervaljoin",
    "exec.sort",
    "exec.project",
    "exec.aggregate",
    "exec.scan",
    "exec.other",
    "primitives.aligner",
    "primitives.normalizer",
    "primitives.absorb",
];

/// One operator occurrence of an executed plan, shared subtrees once.
#[derive(Debug, Clone)]
pub struct OpSelf {
    pub family: &'static str,
    pub label: String,
    pub depth: usize,
    pub self_ns: u64,
    pub incl_ns: u64,
    pub rows: u64,
}

fn stats_of(plan: &PhysicalPlan, state: &ExecutionState) -> Option<Arc<OperatorStats>> {
    state
        .instrumentation()?
        .get(plan as *const PhysicalPlan as usize)
}

fn incl_ns(plan: &PhysicalPlan, state: &ExecutionState) -> u64 {
    stats_of(plan, state).map_or(0, |s| s.nanos.load(Ordering::Relaxed))
}

/// Identity of a shared `Spool` node: every occurrence of one spool holds
/// the same `Arc`.
fn spool_id(plan: &PhysicalPlan) -> Option<usize> {
    match plan {
        PhysicalPlan::Extension { node, .. } if node.name() == "Spool" => {
            Some(Arc::as_ptr(node) as *const () as usize)
        }
        _ => None,
    }
}

/// For each spool identity, the occurrence whose input subtree actually
/// ran (the copies were built but never pulled, so their stats are zero).
fn live_spools(
    plan: &PhysicalPlan,
    state: &ExecutionState,
    best: &mut HashMap<usize, (usize, u64)>,
) {
    if let Some(id) = spool_id(plan) {
        let child = plan.children().first().map_or(0, |c| incl_ns(c, state));
        let here = plan as *const PhysicalPlan as usize;
        let entry = best.entry(id).or_insert((here, child));
        if child > entry.1 {
            *entry = (here, child);
        }
    }
    for c in plan.children() {
        live_spools(c, state, best);
    }
}

/// Self time of every operator of an executed, instrumented plan:
/// inclusive time minus the children's inclusive time, with each shared
/// spool subtree listed once (under the occurrence that ran it).
pub fn operator_self_times(plan: &PhysicalPlan, state: &ExecutionState) -> Vec<OpSelf> {
    let mut best = HashMap::new();
    live_spools(plan, state, &mut best);
    let mut out = Vec::new();
    walk(plan, state, &best, 0, &mut out);
    out
}

fn walk(
    plan: &PhysicalPlan,
    state: &ExecutionState,
    live: &HashMap<usize, (usize, u64)>,
    depth: usize,
    out: &mut Vec<OpSelf>,
) {
    let incl = incl_ns(plan, state);
    let rows = stats_of(plan, state).map_or(0, |s| s.rows.load(Ordering::Relaxed));
    let here = plan as *const PhysicalPlan as usize;
    let descend = match spool_id(plan) {
        Some(id) => live.get(&id).is_some_and(|&(at, _)| at == here),
        None => true,
    };
    let children = if descend { plan.children() } else { Vec::new() };
    let child_incl: u64 = children.iter().map(|c| incl_ns(c, state)).sum();
    out.push(OpSelf {
        family: family(plan),
        label: kind(plan),
        depth,
        self_ns: incl.saturating_sub(child_incl),
        incl_ns: incl,
        rows,
    });
    for c in children {
        walk(c, state, live, depth + 1, out);
    }
}

/// Per-layer cost of one statement run through the layers by hand.
#[derive(Debug, Default, Clone)]
pub struct Split {
    pub parse_ns: u64,
    pub analyze_ns: u64,
    pub plan_ns: u64,
    pub collect_ns: u64,
    pub pages_read: u64,
    pub pages_skipped: u64,
    pub op_rows: u64,
    pub result_rows: u64,
    /// Self nanoseconds per operator family.
    pub families: BTreeMap<&'static str, u64>,
}

impl Split {
    pub fn add(&mut self, o: &Split) {
        self.parse_ns += o.parse_ns;
        self.analyze_ns += o.analyze_ns;
        self.plan_ns += o.plan_ns;
        self.collect_ns += o.collect_ns;
        self.pages_read += o.pages_read;
        self.pages_skipped += o.pages_skipped;
        self.op_rows += o.op_rows;
        self.result_rows += o.result_rows;
        for (k, v) in &o.families {
            *self.families.entry(k).or_default() += v;
        }
    }
}

fn ns(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// Run one SELECT the way `Session::execute` does, one layer at a time:
/// `parse_statement`; `Analyzer::analyze` and `Planner::plan` under
/// `Database::read`; `PhysicalPlan::collect` on an instrumented state.
/// Records a statement span with one child per layer and one per
/// operator (operators carry inclusive time from the collect start).
pub fn traced_select(
    db: &Database,
    sql: &str,
    spans: &mut Spans,
    stmt: u64,
    lane: u64,
) -> Result<(Relation, Split), String> {
    let t0 = Instant::now();
    let parsed = parse_statement(sql).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let Statement::Select(sel) = parsed else {
        return Err(format!("not a SELECT: {sql}"));
    };
    let (t2, planned) = db.read(|catalog, planner| {
        let logical = Analyzer::new(catalog).analyze(&sel);
        let t2 = Instant::now();
        let physical = logical
            .map_err(|e| e.to_string())
            .and_then(|l| planner.plan(&l, catalog).map_err(|e| e.to_string()));
        (t2, physical)
    });
    let physical = planned?;
    let t3 = Instant::now();
    let state = ExecutionState::new(db.config()).with_instrumentation();
    let rel = physical.collect(&state).map_err(|e| e.to_string())?;
    let t4 = Instant::now();

    let ops = operator_self_times(&physical, &state);
    let (pages_read, pages_skipped) = state.stats.pages();
    let mut split = Split {
        parse_ns: ns(t0, t1),
        analyze_ns: ns(t1, t2),
        plan_ns: ns(t2, t3),
        collect_ns: ns(t3, t4),
        pages_read,
        pages_skipped,
        op_rows: ops.iter().map(|o| o.rows).sum(),
        result_rows: rel.len() as u64,
        families: BTreeMap::new(),
    };
    let root = spans.record("statement", t0, t4, None, stmt, lane);
    spans.record("sql.parse", t0, t1, Some(root), stmt, lane);
    spans.record("sql.analyze", t1, t2, Some(root), stmt, lane);
    spans.record("plan.plan", t2, t3, Some(root), stmt, lane);
    let collect = spans.record("exec.collect", t3, t4, Some(root), stmt, lane);
    let mut parents = vec![collect];
    for op in &ops {
        *split.families.entry(op.family).or_default() += op.self_ns;
        parents.truncate(op.depth + 1);
        let end = t3 + Duration::from_nanos(op.incl_ns);
        let id = spans.record(&op.label, t3, end, parents.last().copied(), stmt, lane);
        parents.push(id);
    }
    Ok((rel, split))
}

/// Report a traced phase's layer split: `split` covers `ops` primary ops
/// of `stmts` statements, `scan` covers `scans` range statements, and the
/// primary ops' traced latencies are set against the untraced ones.
/// Times per statement for the SQL layers, per primary op for operator
/// self times; the unattributed share is what the layer spans leave of
/// the untraced median.
#[allow(clippy::too_many_arguments)]
pub fn report_split(
    report: &mut Report,
    split: &Split,
    ops: f64,
    stmts: f64,
    scan: &Split,
    scans: f64,
    untraced: &Latencies,
    traced: &Latencies,
) {
    let per_stmt_us = |ns: u64| ns as f64 / stmts / 1e3;
    report.metric("sql.parse_us", per_stmt_us(split.parse_ns), "us");
    report.metric("sql.analyze_us", per_stmt_us(split.analyze_ns), "us");
    report.metric("plan.plan_us", per_stmt_us(split.plan_ns), "us");
    report.metric("exec.collect_us", per_stmt_us(split.collect_ns), "us");
    let scan_us = scan.collect_ns as f64 / scans / 1e3;
    report.metric("exec.collect_scan_us", scan_us, "us");
    for fam in FAMILIES {
        let ns = split.families.get(fam).copied().unwrap_or(0);
        report.metric(&format!("{fam}_self_ms"), ns as f64 / ops / 1e6, "ms");
    }
    let amplification = split.op_rows as f64 / split.result_rows as f64;
    report.metric("exec.rows_per_result_row", amplification, "ratio");
    let operators: u64 = split.families.values().sum();
    let attributed_ms =
        (split.parse_ns + split.analyze_ns + split.plan_ns + operators) as f64 / ops / 1e6;
    let base_p50 = untraced.p50();
    report.metric("trace.overhead_frac", traced.p50() / base_p50 - 1.0, "frac");
    report.metric(
        "trace.unattributed_frac",
        1.0 - attributed_ms / base_p50,
        "frac",
    );
}

/// Runs SELECT statements through a session: `Session::execute` when
/// untraced, [`traced_select`] (with spans and a layer split) when traced.
pub struct Runner {
    pub session: Session,
    pub spans: Spans,
    /// Statements that returned an error.
    pub failed: u64,
    stmt: u64,
}

impl Runner {
    pub fn new(session: Session) -> Runner {
        Runner {
            session,
            spans: Spans::new(Instant::now()),
            failed: 0,
            stmt: 0,
        }
    }

    /// Execute `sql`; with a `split` the statement runs traced and adds
    /// its layer split there.
    pub fn select(
        &mut self,
        sql: &str,
        split: Option<&mut Split>,
    ) -> (Duration, Result<Relation, String>) {
        self.stmt += 1;
        let t = Instant::now();
        let out = match split {
            Some(split) => {
                let db = self.session.database().clone();
                traced_select(&db, sql, &mut self.spans, self.stmt, 0).map(|(rel, s)| {
                    split.add(&s);
                    rel
                })
            }
            None => self
                .session
                .execute(sql)
                .and_then(|o| o.rows())
                .map_err(|e| e.to_string()),
        };
        let dt = t.elapsed();
        self.failed += u64::from(out.is_err());
        (dt, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temporal_core::prelude::*;
    use temporal_datasets::{incumben, IncumbenSpec};

    /// A temporal aggregation over a temporal join normalizes the join
    /// against itself, so the plan holds the join twice behind one shared
    /// spool. `operator_stats` lists both copies (one all zeros); the
    /// self-time walk lists the shared subtree once and still accounts
    /// for the whole root time.
    #[test]
    fn shared_spool_subtrees_are_listed_once() {
        let r = incumben(IncumbenSpec::scaled(300));
        let plan = TemporalPlan::scan(&r)
            .join(TemporalPlan::scan(&r), Some(col(1).eq(col(5))))
            .unwrap()
            .aggregation(&[1], vec![(AggCall::count_star(), "cnt".to_string())])
            .unwrap();
        let planner = Planner::new(PlannerConfig::default());
        let physical = plan.physical(&planner, &Catalog::new()).unwrap();
        let state = ExecutionState::new(PlannerConfig::default()).with_instrumentation();
        let out = physical.collect(&state).unwrap();
        assert!(!out.is_empty());

        let listed = physical.operator_stats(&state);
        let spools = listed
            .iter()
            .filter(|(_, l, _)| l.contains("Spool"))
            .count();
        assert!(
            spools >= 2,
            "expected a shared spool:\n{}",
            physical.explain()
        );
        let ops = operator_self_times(&physical, &state);
        assert!(
            ops.len() < listed.len(),
            "{} vs {}",
            ops.len(),
            listed.len()
        );
        // Every listed operator below a spool actually ran.
        for op in &ops {
            assert!(op.incl_ns > 0 || op.rows == 0, "{op:?}");
        }
        let total: u64 = ops.iter().map(|o| o.self_ns).sum();
        assert_eq!(total, ops[0].incl_ns);
    }
}
