//! # temporal-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! paper's evaluation (Sec. 7). The queries:
//!
//! * **O1** = `r ⟕ᵀ_true s` (Figs. 15a/15b),
//! * **O2** = `r ⟕ᵀ_{Min ≤ DUR(r.T) ≤ Max} s` (Fig. 15c),
//! * **O3** = `r ⟗ᵀ_{r.pcn = s.pcn} s` (Figs. 15d/16),
//! * the **normalizations** `N_{}`, `N_{pcn}`, `N_{ssn}` (Figs. 13/14);
//!
//! each runnable through three strategies: `align` (the paper's reduction
//! rules), `sql` (overlap predicates + NOT EXISTS) and `sql+normalize`.
//!
//! Criterion benches (one per figure) live in `benches/`; the `reproduce`
//! binary runs the full parameter sweeps and writes `bench_results/*.csv`.

use std::time::{Duration, Instant};

use temporal_baselines::{
    sql_full_outer_join, sql_left_outer_join, sqlnorm_full_outer_join, sqlnorm_left_outer_join,
};
use temporal_core::prelude::*;
use temporal_engine::prelude::*;

/// Evaluation strategy (the series of Figs. 15/16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    /// The paper's solution: reduction rules with the alignment primitive.
    Align,
    /// Standard SQL: overlap join + NOT EXISTS negative part (Sec. 7.4).
    Sql,
    /// SQL join part + normalization-based temporal difference (Sec. 7.5).
    SqlNormalize,
}

impl Approach {
    pub fn label(&self) -> &'static str {
        match self {
            Approach::Align => "align",
            Approach::Sql => "sql",
            Approach::SqlNormalize => "sql+normalize",
        }
    }
}

/// O1 = `r ⟕ᵀ_true s`. Returns the output cardinality.
pub fn run_o1(
    approach: Approach,
    r: &TemporalRelation,
    s: &TemporalRelation,
    planner: &Planner,
) -> usize {
    match approach {
        Approach::Align => TemporalAlgebra::new(planner.config)
            .left_outer_join(r, s, None)
            .expect("O1 align")
            .len(),
        Approach::Sql => sql_left_outer_join(r, s, None, planner)
            .expect("O1 sql")
            .len(),
        Approach::SqlNormalize => sqlnorm_left_outer_join(r, s, None, planner)
            .expect("O1 sqlnorm")
            .len(),
    }
}

/// O2 = `r ⟕ᵀ_{Min ≤ DUR(r.T) ≤ Max} s` on the `Drand` schema
/// (`r = (id, ts, te)`, `s = (a, min, max, ts, te)`). The predicate
/// references r's original timestamp, so r is extended first; θ over
/// `U(r) ++ s` = `(id, us, ue, ts, te, a, min, max, ts, te)`.
pub fn run_o2(
    approach: Approach,
    r: &TemporalRelation,
    s: &TemporalRelation,
    planner: &Planner,
) -> usize {
    let ur = extend(r).expect("extend r");
    let theta = Expr::Func(Func::Dur, vec![col(1), col(2)]).between(col(6), col(7));
    match approach {
        Approach::Align => TemporalAlgebra::new(planner.config)
            .left_outer_join(&ur, s, Some(theta))
            .expect("O2 align")
            .len(),
        Approach::Sql => sql_left_outer_join(&ur, s, Some(theta), planner)
            .expect("O2 sql")
            .len(),
        Approach::SqlNormalize => sqlnorm_left_outer_join(&ur, s, Some(theta), planner)
            .expect("O2 sqlnorm")
            .len(),
    }
}

/// O3 = `r ⟗ᵀ_{r.pcn = s.pcn} s` on the Incumben schema
/// (`(ssn, pcn, ts, te)`; pcn columns 1 and 5 in concat coordinates).
pub fn run_o3(
    approach: Approach,
    r: &TemporalRelation,
    s: &TemporalRelation,
    planner: &Planner,
) -> usize {
    let theta = col(1).eq(col(5));
    match approach {
        Approach::Align => TemporalAlgebra::new(planner.config)
            .full_outer_join(r, s, Some(theta))
            .expect("O3 align")
            .len(),
        Approach::Sql => sql_full_outer_join(r, s, Some(theta), planner)
            .expect("O3 sql")
            .len(),
        Approach::SqlNormalize => sqlnorm_full_outer_join(r, s, Some(theta), planner)
            .expect("O3 sqlnorm")
            .len(),
    }
}

/// `N_B(r; r)` where `b` are data-column indices of `r` (Figs. 13/14:
/// `N_{}` = `&[]`, `N_{ssn}` = `&[0]`, `N_{pcn}` = `&[1]` on Incumben).
pub fn run_normalization(r: &TemporalRelation, b: &[usize], planner: &Planner) -> usize {
    let pairs: Vec<(usize, usize)> = b.iter().map(|&i| (i, i)).collect();
    normalize_eval(r, r, &pairs, planner)
        .expect("normalization")
        .len()
}

/// How a multi-operator temporal query is evaluated (the chain benchmark).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainMode {
    /// One `TemporalAlgebra` call per operator: every stage materializes a
    /// `TemporalRelation` and the next stage rescans it — the pre-plan-first
    /// evaluation style, kept as the baseline.
    Eager,
    /// The whole chain compiled into one `TemporalPlan` and executed with a
    /// single `Planner::run`; the rewrite pass pushes the selection across
    /// the alignment boundaries into the base scans.
    PlanFirst,
    /// Plan-first compilation with `enable_rewrites = false`: isolates the
    /// benefit of cross-operator optimization from the benefit of removing
    /// materialization barriers.
    PlanFirstNoRewrites,
}

impl ChainMode {
    pub fn label(&self) -> &'static str {
        match self {
            ChainMode::Eager => "eager",
            ChainMode::PlanFirst => "plan-first",
            ChainMode::PlanFirstNoRewrites => "plan-first-norw",
        }
    }
}

/// The multi-operator chain `ϑᵀ_{pcn; COUNT}(σᵀ_{ssn < cap}(r ⋈ᵀ_{r.pcn =
/// s.pcn} s))` on the Incumben schema `(ssn, pcn, ts, te)`. Returns the
/// output cardinality.
pub fn run_chain(
    mode: ChainMode,
    r: &TemporalRelation,
    s: &TemporalRelation,
    ssn_cap: i64,
    planner: &Planner,
) -> usize {
    // θ over (r.ssn, r.pcn, r.ts, r.te, s.ssn, s.pcn, s.ts, s.te).
    let theta = col(1).eq(col(5));
    // The join output is (r.ssn, r.pcn, s.ssn, s.pcn, ts, te).
    let pred = col(0).lt(lit(Value::Int(ssn_cap)));
    let aggs = vec![(AggCall::count_star(), "cnt".to_string())];
    match mode {
        ChainMode::Eager => {
            let alg = TemporalAlgebra::new(planner.config);
            let joined = alg.join(r, s, Some(theta)).expect("chain join");
            let selected = alg.selection(&joined, pred).expect("chain selection");
            alg.aggregation(&selected, &[1], aggs)
                .expect("chain aggregation")
                .len()
        }
        ChainMode::PlanFirst | ChainMode::PlanFirstNoRewrites => {
            let mut config = planner.config;
            config.enable_rewrites = mode != ChainMode::PlanFirstNoRewrites;
            let plan = TemporalPlan::scan(r)
                .join(TemporalPlan::scan(s), Some(theta))
                .expect("chain join")
                .selection(pred)
                .expect("chain selection")
                .aggregation(&[1], aggs)
                .expect("chain aggregation");
            plan.execute(&Planner::new(config))
                .expect("chain run")
                .len()
        }
    }
}

/// Wall-clock one invocation.
pub fn time<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed(), out)
}

/// A measured sweep point.
#[derive(Debug, Clone)]
pub struct Point {
    pub series: String,
    pub n: usize,
    pub seconds: f64,
    pub output_rows: usize,
}

/// Write sweep points as CSV (`series,n,seconds,output_rows`).
pub fn write_csv(path: &std::path::Path, points: &[Point]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "series,n,seconds,output_rows")?;
    for p in points {
        writeln!(f, "{},{},{:.6},{}", p.series, p.n, p.seconds, p.output_rows)?;
    }
    f.flush()
}

/// Write sweep points as machine-readable JSON — an array of
/// `{"series", "n", "seconds", "output_rows"}` objects — so the perf
/// trajectory can be tracked PR-over-PR by tooling without parsing CSVs.
/// Hand-rolled (the workspace is offline, no serde); series strings are
/// escaped per RFC 8259.
pub fn write_json(path: &std::path::Path, points: &[Point]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let escape = |s: &str| -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    };
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "[")?;
    for (i, p) in points.iter().enumerate() {
        writeln!(
            f,
            "  {{\"series\": \"{}\", \"n\": {}, \"seconds\": {:.6}, \"output_rows\": {}}}{}",
            escape(&p.series),
            p.n,
            p.seconds,
            p.output_rows,
            if i + 1 < points.len() { "," } else { "" }
        )?;
    }
    writeln!(f, "]")?;
    f.flush()
}

/// Render sweep points as an aligned text table grouped by `n`
/// (series as columns), the shape the paper's figures plot.
pub fn render_table(points: &[Point], value: impl Fn(&Point) -> String) -> String {
    use std::collections::BTreeMap;
    let mut series: Vec<String> = Vec::new();
    for p in points {
        if !series.contains(&p.series) {
            series.push(p.series.clone());
        }
    }
    let mut by_n: BTreeMap<usize, BTreeMap<&str, String>> = BTreeMap::new();
    for p in points {
        by_n.entry(p.n)
            .or_default()
            .insert(p.series.as_str(), value(p));
    }
    let mut out = String::new();
    out.push_str(&format!("{:>10}", "n"));
    for s in &series {
        out.push_str(&format!("{s:>16}"));
    }
    out.push('\n');
    for (n, vals) in by_n {
        out.push_str(&format!("{n:>10}"));
        for s in &series {
            out.push_str(&format!(
                "{:>16}",
                vals.get(s.as_str()).cloned().unwrap_or_else(|| "-".into())
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use temporal_datasets::{ddisj, deq, drand, incumben, prefix, IncumbenSpec};

    fn planner() -> Planner {
        Planner::default()
    }

    #[test]
    fn o1_approaches_agree_on_small_inputs() {
        let (r, s) = ddisj(25);
        let a = run_o1(Approach::Align, &r, &s, &planner());
        let b = run_o1(Approach::Sql, &r, &s, &planner());
        let c = run_o1(Approach::SqlNormalize, &r, &s, &planner());
        assert_eq!(a, b);
        assert_eq!(a, c);
        // disjoint: every r tuple survives whole
        assert_eq!(a, r.len());

        let (r, s) = deq(6);
        let a = run_o1(Approach::Align, &r, &s, &planner());
        let b = run_o1(Approach::Sql, &r, &s, &planner());
        assert_eq!(a, b);
        assert_eq!(a, 36); // n·m all-equal intersections
    }

    #[test]
    fn o2_approaches_agree() {
        let (r, s) = drand(30, 5);
        let a = run_o2(Approach::Align, &r, &s, &planner());
        let b = run_o2(Approach::Sql, &r, &s, &planner());
        let c = run_o2(Approach::SqlNormalize, &r, &s, &planner());
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn o3_approaches_agree() {
        let data = incumben(IncumbenSpec {
            rows: 60,
            employees: 40,
            positions: 6,
            days: 365,
            ..Default::default()
        });
        let r = prefix(&data, 60);
        let a = run_o3(Approach::Align, &r, &r, &planner());
        let b = run_o3(Approach::Sql, &r, &r, &planner());
        let c = run_o3(Approach::SqlNormalize, &r, &r, &planner());
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn chain_modes_agree() {
        let data = incumben(IncumbenSpec {
            rows: 80,
            employees: 50,
            positions: 8,
            days: 400,
            ..Default::default()
        });
        let r = prefix(&data, 80);
        let a = run_chain(ChainMode::Eager, &r, &r, 25, &planner());
        let b = run_chain(ChainMode::PlanFirst, &r, &r, 25, &planner());
        let c = run_chain(ChainMode::PlanFirstNoRewrites, &r, &r, 25, &planner());
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert!(a > 0);
    }

    #[test]
    fn normalization_output_ordering_matches_fig14() {
        // |N_{}| ≥ |N_{pcn}| ≥ |N_{ssn}| ≥ n — the premise of Fig. 14b.
        let data = incumben(IncumbenSpec {
            rows: 400,
            employees: 230,
            positions: 30,
            days: 2000,
            ..Default::default()
        });
        let n_all = run_normalization(&data, &[], &planner());
        let n_pcn = run_normalization(&data, &[1], &planner());
        let n_ssn = run_normalization(&data, &[0], &planner());
        assert!(n_all >= n_pcn, "{n_all} vs {n_pcn}");
        assert!(n_pcn >= n_ssn, "{n_pcn} vs {n_ssn}");
        assert!(n_ssn >= data.len());
    }

    #[test]
    fn join_method_settings_produce_same_normalization() {
        let data = incumben(IncumbenSpec {
            rows: 150,
            employees: 90,
            positions: 12,
            days: 900,
            ..Default::default()
        });
        let a = run_normalization(&data, &[0], &Planner::new(PlannerConfig::all_enabled()));
        let b = run_normalization(&data, &[0], &Planner::new(PlannerConfig::no_merge()));
        let c = run_normalization(&data, &[0], &Planner::new(PlannerConfig::nestloop_only()));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn csv_and_table_rendering() {
        let pts = vec![
            Point {
                series: "align".into(),
                n: 10,
                seconds: 0.5,
                output_rows: 100,
            },
            Point {
                series: "sql".into(),
                n: 10,
                seconds: 1.5,
                output_rows: 100,
            },
        ];
        let table = render_table(&pts, |p| format!("{:.1}", p.seconds));
        assert!(table.contains("align"));
        assert!(table.contains("0.5"));
        let dir = std::env::temp_dir().join("talign_bench_test");
        let path = dir.join("out.csv");
        write_csv(&path, &pts).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("align,10,0.5"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn json_rendering() {
        let pts = vec![Point {
            series: "with \"quotes\" and \\slashes\\".into(),
            n: 8000,
            seconds: 0.125,
            output_rows: 42,
        }];
        let dir = std::env::temp_dir().join("talign_bench_json_test");
        let path = dir.join("out.json");
        write_json(&path, &pts).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("[\n"));
        assert!(content.trim_end().ends_with(']'));
        assert!(content.contains("\"n\": 8000"));
        assert!(content.contains("\"seconds\": 0.125"));
        assert!(content.contains("\"output_rows\": 42"));
        assert!(content.contains("with \\\"quotes\\\" and \\\\slashes\\\\"));
        std::fs::remove_dir_all(dir).ok();
    }
}
