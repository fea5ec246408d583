//! Regenerate every table and figure of the paper's evaluation (Sec. 7).
//!
//! ```text
//! cargo run --release -p temporal-bench --bin reproduce [-- <exp> [--full]]
//! ```
//!
//! `<exp>` ∈ {table1, fig13, fig14, fig15a, fig15b, fig15c, fig15d,
//! fig16a, fig16b, ablation, chain, storage, timeslice, wal, serve,
//! observe, all} (default: all). Default sweeps are scaled to run
//! in minutes on a laptop; `--full` uses the paper's input sizes (up to
//! 80k–200k tuples — the quadratic `sql` baselines then take a long time,
//! exactly as in the paper where they run for 1000+ seconds).
//!
//! Absolute times differ from the paper (different hardware and substrate);
//! the *shapes* — who wins, by what factor, where curves cross — are the
//! reproduction target. Results are written to `bench_results/*.csv` and,
//! machine-readably, `bench_results/*.json` (series, n, seconds,
//! output_rows) so the perf trajectory is trackable PR-over-PR.
//!
//! Every figure runs with the paper-faithful [`PlannerConfig::paper`]
//! (the engine's default config auto-enables the sweep interval join,
//! which would change the shapes; the `ablation` experiment measures that
//! extension explicitly).

use std::path::PathBuf;

use temporal_bench::{
    render_table, run_chain, run_normalization, run_o1, run_o2, run_o3, time, write_csv, Approach,
    ChainMode, Point,
};
use temporal_core::semantics::properties::render_table1;
use temporal_datasets::{ddisj, deq, drand, incumben, prefix, random_like_incumben, IncumbenSpec};
use temporal_engine::prelude::*;

fn out_dir() -> PathBuf {
    PathBuf::from("bench_results")
}

/// The paper-faithful planner: PostgreSQL 9.0's join methods only — the
/// sweep interval join extension is neither forced nor auto-selected (the
/// engine's *default* config auto-enables it on overlap patterns, which
/// would change the shape of Figs. 15a–c).
fn paper_planner() -> Planner {
    Planner::new(PlannerConfig::paper())
}

fn print_points(title: &str, points: &[Point]) {
    println!("\n=== {title}");
    // Microseconds, so sub-millisecond series (storage, timeslice) do not
    // round to zero; the CSV/JSON files keep `seconds`.
    println!("runtime [µs]:");
    println!(
        "{}",
        render_table(points, |p| format!("{:.1}", p.seconds * 1e6))
    );
    println!("output tuples:");
    println!("{}", render_table(points, |p| p.output_rows.to_string()));
}

fn save(name: &str, points: &[Point]) {
    let path = out_dir().join(format!("{name}.csv"));
    write_csv(&path, points).expect("write csv");
    println!("→ {}", path.display());
    let path = out_dir().join(format!("{name}.json"));
    temporal_bench::write_json(&path, points).expect("write json");
    println!("→ {}", path.display());
}

/// Fig. 13: normalization N_{ssn} under the three join-method settings.
fn fig13(full: bool) {
    let sizes: &[usize] = if full {
        &[10_000, 20_000, 40_000, 80_000]
    } else {
        &[1_000, 2_000, 4_000, 8_000]
    };
    let data = incumben(IncumbenSpec::default());
    // The paper's settings walk the preference list of ITS optimizer:
    // (a) all → merge, (b) merge off → hash, (c) merge+hash off → nestloop.
    // Our cost model prefers hash, so the equivalent walk disables hash in
    // (b) — every setting still runs the best *enabled* method, which is
    // the experiment's claim.
    let settings: [(&str, PlannerConfig); 3] = [
        ("(a) all", PlannerConfig::all_enabled()),
        (
            "(b) -hash",
            PlannerConfig {
                enable_hashjoin: false,
                ..PlannerConfig::paper()
            },
        ),
        ("(c) nestloop", PlannerConfig::nestloop_only()),
    ];
    let mut points = Vec::new();
    for &(label, config) in &settings {
        let planner = Planner::new(config);
        // Report the join algorithm the planner actually picks for the
        // group-construction join under this setting.
        let probe = prefix(&data, sizes[0]);
        let plan = temporal_core::prelude::normalize_plan(
            LogicalPlan::inline_scan(probe.rel().clone()),
            LogicalPlan::inline_scan(probe.rel().clone()),
            &[(0, 0)],
        )
        .expect("normalize plan");
        let physical = planner
            .plan(&plan, &temporal_engine::catalog::Catalog::new())
            .expect("plan");
        let algo = physical.first_join_algorithm().unwrap_or("?");
        let series = format!("{label}={algo}");
        for &n in sizes {
            let r = prefix(&data, n);
            let (dt, rows) = time(|| run_normalization(&r, &[0], &planner));
            points.push(Point {
                series: series.clone(),
                n,
                seconds: dt.as_secs_f64(),
                output_rows: rows,
            });
        }
    }
    print_points(
        "Fig. 13: N_{ssn}(Incumben) — join-method settings (a) all→best, (b) merge off, (c) merge+hash off",
        &points,
    );
    save("fig13_join_methods", &points);
}

/// Fig. 14: normalization with different attribute sets.
fn fig14(full: bool) {
    let sizes: &[usize] = if full {
        &[10_000, 20_000, 40_000, 80_000]
    } else {
        &[500, 1_000, 2_000, 4_000]
    };
    let data = incumben(IncumbenSpec::default());
    let planner = paper_planner();
    let variants: [(&str, &[usize]); 3] = [("N{}", &[]), ("N{pcn}", &[1]), ("N{ssn}", &[0])];
    let mut points = Vec::new();
    for &(label, b) in &variants {
        for &n in sizes {
            // N{} splits every tuple at every endpoint; cap its input so
            // the quick mode finishes (the paper's Fig. 14 runs it to 80k
            // in ~1000 s — same shape, larger constants).
            if label == "N{}" && !full && n > 2_000 {
                continue;
            }
            let r = prefix(&data, n);
            let (dt, rows) = time(|| run_normalization(&r, b, &planner));
            points.push(Point {
                series: label.to_string(),
                n,
                seconds: dt.as_secs_f64(),
                output_rows: rows,
            });
        }
    }
    print_points("Fig. 14: N_{}, N_{pcn}, N_{ssn} on Incumben", &points);
    save("fig14_normalization", &points);
}

fn sweep_two(
    title: &str,
    csv: &str,
    sizes: &[usize],
    approaches: &[Approach],
    mut run: impl FnMut(Approach, usize) -> (f64, usize),
) {
    let mut points = Vec::new();
    for &a in approaches {
        for &n in sizes {
            let (secs, rows) = run(a, n);
            points.push(Point {
                series: a.label().to_string(),
                n,
                seconds: secs,
                output_rows: rows,
            });
        }
    }
    print_points(title, &points);
    save(csv, &points);
}

/// Fig. 15a: O1 on Ddisj (sql's NOT EXISTS degenerates: quadratic).
fn fig15a(full: bool) {
    let sizes: &[usize] = if full {
        &[20_000, 40_000, 60_000, 80_000, 100_000]
    } else {
        &[2_000, 4_000, 8_000, 16_000]
    };
    sweep_two(
        "Fig. 15a: O1 = r ⟕ᵀ_true s on Ddisj",
        "fig15a_o1_ddisj",
        sizes,
        &[Approach::Sql, Approach::Align],
        |a, n| {
            let (r, s) = ddisj(n);
            let planner = paper_planner();
            let (dt, rows) = time(|| run_o1(a, &r, &s, &planner));
            (dt.as_secs_f64(), rows)
        },
    );
}

/// Fig. 15b: O1 on Deq (sql's best case; align pays adjustment overhead).
fn fig15b(full: bool) {
    let sizes: &[usize] = if full {
        &[2_000, 4_000, 6_000, 8_000, 10_000]
    } else {
        &[250, 500, 1_000, 2_000]
    };
    sweep_two(
        "Fig. 15b: O1 = r ⟕ᵀ_true s on Deq",
        "fig15b_o1_deq",
        sizes,
        &[Approach::Align, Approach::Sql],
        |a, n| {
            let (r, s) = deq(n);
            let planner = paper_planner();
            let (dt, rows) = time(|| run_o1(a, &r, &s, &planner));
            (dt.as_secs_f64(), rows)
        },
    );
}

/// Fig. 15c: O2 on Drand (θ with DUR defeats efficient NOT EXISTS).
fn fig15c(full: bool) {
    let sizes: &[usize] = if full {
        &[40_000, 80_000, 120_000, 160_000, 200_000]
    } else {
        &[1_000, 2_000, 4_000, 8_000]
    };
    sweep_two(
        "Fig. 15c: O2 = r ⟕ᵀ(Min ≤ DUR(r.T) ≤ Max) s on Drand",
        "fig15c_o2_drand",
        sizes,
        &[Approach::Sql, Approach::Align],
        |a, n| {
            let (r, s) = drand(n, 20120520);
            let planner = paper_planner();
            let (dt, rows) = time(|| run_o2(a, &r, &s, &planner));
            (dt.as_secs_f64(), rows)
        },
    );
}

/// Fig. 15d: O3 on Incumben (equality predicate → both fast; align wins).
fn fig15d(full: bool) {
    let sizes: &[usize] = if full {
        &[10_000, 20_000, 40_000, 80_000]
    } else {
        &[2_000, 4_000, 8_000, 16_000]
    };
    let data = incumben(IncumbenSpec::default());
    sweep_two(
        "Fig. 15d: O3 = r ⟗ᵀ(r.pcn = s.pcn) s on Incumben",
        "fig15d_o3_incumben",
        sizes,
        &[Approach::Sql, Approach::Align],
        |a, n| {
            let r = prefix(&data, n);
            let planner = paper_planner();
            let (dt, rows) = time(|| run_o3(a, &r, &r, &planner));
            (dt.as_secs_f64(), rows)
        },
    );
}

/// Fig. 16a: O3 on Incumben — align vs sql+normalize.
fn fig16a(full: bool) {
    let sizes: &[usize] = if full {
        &[10_000, 20_000, 40_000, 80_000]
    } else {
        &[1_000, 2_000, 4_000, 8_000]
    };
    let data = incumben(IncumbenSpec::default());
    sweep_two(
        "Fig. 16a: O3 on Incumben — align vs sql+normalize",
        "fig16a_o3_incumben",
        sizes,
        &[Approach::SqlNormalize, Approach::Align],
        |a, n| {
            let r = prefix(&data, n);
            let planner = paper_planner();
            let (dt, rows) = time(|| run_o3(a, &r, &r, &planner));
            (dt.as_secs_f64(), rows)
        },
    );
}

/// Fig. 16b: O3 on the random dataset (more splitting points).
fn fig16b(full: bool) {
    let sizes: &[usize] = if full {
        &[40_000, 80_000, 120_000, 160_000, 200_000]
    } else {
        &[1_000, 2_000, 4_000, 8_000]
    };
    sweep_two(
        "Fig. 16b: O3 on the random dataset — align vs sql+normalize",
        "fig16b_o3_random",
        sizes,
        &[Approach::SqlNormalize, Approach::Align],
        |a, n| {
            let positions = (n / 12).max(4);
            let r = random_like_incumben(n, positions, 433);
            let planner = paper_planner();
            let (dt, rows) = time(|| run_o3(a, &r, &r, &planner));
            (dt.as_secs_f64(), rows)
        },
    );
}

/// Ablation (future work, Sec. 8): alignment with the sweep-based
/// interval join vs. the paper-faithful nested loop on O1/Ddisj.
fn ablation(full: bool) {
    let sizes: &[usize] = if full {
        &[10_000, 20_000, 40_000]
    } else {
        &[1_000, 2_000, 4_000, 8_000]
    };
    let paper = paper_planner();
    let extended = Planner::new(PlannerConfig {
        enable_intervaljoin: true,
        ..PlannerConfig::paper()
    });
    let mut points = Vec::new();
    for &n in sizes {
        let (r, s) = ddisj(n);
        let (dt, rows) = time(|| run_o1(Approach::Align, &r, &s, &paper));
        points.push(Point {
            series: "align (nestloop)".into(),
            n,
            seconds: dt.as_secs_f64(),
            output_rows: rows,
        });
        let (dt, rows) = time(|| run_o1(Approach::Align, &r, &s, &extended));
        points.push(Point {
            series: "align (sweep)".into(),
            n,
            seconds: dt.as_secs_f64(),
            output_rows: rows,
        });
    }
    print_points(
        "Ablation (Sec. 8 future work): sweep interval join for group construction, O1 on Ddisj",
        &points,
    );
    save("ablation_interval_join", &points);

    // Second ablation: the customized anti-join primitive (gaps-only
    // sweep) vs the generic Table 2 reduction, on Incumben.
    let data = incumben(IncumbenSpec::default());
    let alg = temporal_core::prelude::TemporalAlgebra::new(PlannerConfig::paper());
    // Sole incumbency: spans of an assignment with no overlapping
    // assignment of the same position by a *different* employee (a self
    // anti join with pcn = pcn would be vacuously empty).
    let theta = || Some(col(1).eq(col(5)).and(col(0).ne(col(4))));
    let mut points = Vec::new();
    for &n in sizes {
        let r = prefix(&data, n);
        let (dt, out) = time(|| alg.anti_join(&r, &r, theta()).unwrap().len());
        points.push(Point {
            series: "antijoin (generic)".into(),
            n,
            seconds: dt.as_secs_f64(),
            output_rows: out,
        });
        let (dt, out) = time(|| alg.anti_join_optimized(&r, &r, theta()).unwrap().len());
        points.push(Point {
            series: "antijoin (gaps-only)".into(),
            n,
            seconds: dt.as_secs_f64(),
            output_rows: out,
        });
    }
    print_points(
        "Ablation (Sec. 8 future work): customized anti-join primitive, r ▷ᵀ(pcn=pcn ∧ ssn≠ssn) r on Incumben",
        &points,
    );
    save("ablation_antijoin", &points);
}

/// The plan-first chain benchmark (not a paper figure): the 3-operator
/// query ϑᵀ ∘ σᵀ ∘ ⋈ᵀ evaluated eagerly (one `Planner::run` per operator,
/// materializing between) vs compiled into one `TemporalPlan`, with
/// (`plan-first`) and without (`plan-first-norw`) the rewrite pass. Each
/// point is the best of three runs, so one-off allocator/scheduler noise
/// does not distort the ratios the CI smoke step records.
fn chain(full: bool) {
    let sizes: &[usize] = if full {
        &[2_000, 4_000, 8_000, 16_000]
    } else {
        &[500, 1_000, 2_000, 4_000, 8_000]
    };
    let data = incumben(IncumbenSpec::default());
    let planner = paper_planner();
    let mut points = Vec::new();
    for &n in sizes {
        let r = prefix(&data, n);
        let cap = (n / 10) as i64;
        for mode in [
            ChainMode::Eager,
            ChainMode::PlanFirst,
            ChainMode::PlanFirstNoRewrites,
        ] {
            let (dt, rows) = (0..3)
                .map(|_| time(|| run_chain(mode, &r, &r, cap, &planner)))
                .min_by(|a, b| a.0.cmp(&b.0))
                .expect("three runs");
            points.push(Point {
                series: mode.label().into(),
                n,
                seconds: dt.as_secs_f64(),
                output_rows: rows,
            });
        }
    }
    print_points(
        "Chain (plan-first): ϑᵀ_{pcn} ∘ σᵀ_{ssn<n/10} ∘ ⋈ᵀ_{pcn} on Incumben — eager vs plan-first",
        &points,
    );
    save("chain_pipeline", &points);

    // Thread scaling: the same compiled plan through the morsel-driven
    // executor at threads ∈ {1, 2, 4}. Only the larger sizes — below a few
    // thousand tuples the `parallel_min_rows` gate (correctly) keeps
    // everything serial and the series would just repeat itself.
    let scaling_sizes = &sizes[sizes.len().saturating_sub(3)..];
    let mut scaling = Vec::new();
    for &n in scaling_sizes {
        let r = prefix(&data, n);
        let cap = (n / 10) as i64;
        for threads in [1usize, 2, 4] {
            let planner = Planner::new(PlannerConfig {
                threads,
                ..planner.config
            });
            let (dt, rows) = (0..3)
                .map(|_| time(|| run_chain(ChainMode::PlanFirst, &r, &r, cap, &planner)))
                .min_by(|a, b| a.0.cmp(&b.0))
                .expect("three runs");
            scaling.push(Point {
                series: format!("plan-first(threads={threads})"),
                n,
                seconds: dt.as_secs_f64(),
                output_rows: rows,
            });
        }
    }
    print_points(
        "Chain thread scaling: the same plan-first chain at threads ∈ {1, 2, 4}",
        &scaling,
    );
    if let Some(&n_max) = scaling_sizes.last() {
        let secs = |threads: usize| {
            scaling
                .iter()
                .find(|p| p.n == n_max && p.series.ends_with(&format!("threads={threads})")))
                .map(|p| p.seconds)
        };
        if let (Some(t1), Some(t4)) = (secs(1), secs(4)) {
            println!(
                "speedup at n={n_max}: threads=4 is {:.2}× over threads=1",
                t1 / t4
            );
        }
    }
    save("thread_scaling", &scaling);
}

/// The paged-storage scan benchmark (not a paper figure): a full-table
/// scan + temporal aggregation over the same relation backed (a) by the
/// in-memory catalog (`SeqScan`) and (b) by a heap file behind a buffer
/// pool capped well below the table's page count (`StorageScan`), so the
/// paged series measures genuine page streaming, not a warm cache. Each
/// point is the best of three runs.
fn storage(full: bool) {
    use temporal_core::prelude::Database;
    let sizes: &[usize] = if full {
        &[25_000, 50_000, 100_000, 200_000]
    } else {
        &[2_500, 5_000, 10_000, 20_000]
    };
    const POOL: usize = 8;
    let dir = std::env::temp_dir().join("talign_bench_scan_storage");
    let _ = std::fs::remove_dir_all(&dir);
    let mut points = Vec::new();
    for &n in sizes {
        let (r, _) = drand(n, 7);
        // A full-table scan with a selective filter: the work is page
        // fetch + tuple decode (paged) vs row-clone (in-memory), without
        // result materialization dominating either series. `te - ts < 5`
        // keeps the ~1% of drand's 1..=400-long intervals that are
        // shortest, and neither zone maps nor the interval index can prune
        // on it, so every page is read. Returns (rows, pages read).
        let scan = |db: &Database| {
            let frame = db
                .table("r")
                .unwrap()
                .filter(col("te").sub(col("ts")).lt(lit(5i64)));
            let physical = db.physical(frame.plan().expect("plan")).expect("physical");
            let state = ExecutionState::new(db.config());
            let rows = physical.collect(&state).expect("scan").len();
            (rows, state.stats.pages().0)
        };

        let mem = Database::new();
        mem.register("r", &r).expect("register in-memory");
        let (dt, (rows, _)) = (0..3)
            .map(|_| time(|| scan(&mem)))
            .min_by(|a, b| a.0.cmp(&b.0))
            .expect("three runs");
        assert!(rows > 0, "benchmark invariant: the filter must keep rows");
        points.push(Point {
            series: "in-memory".into(),
            n,
            seconds: dt.as_secs_f64(),
            output_rows: rows,
        });

        let db = Database::open_with_pool(dir.join(n.to_string()), POOL).expect("open storage dir");
        db.register("r", &r).expect("register persisted");
        let pages = db.read(|catalog, _| match catalog.source("r").expect("source") {
            TableSource::Stored(t) => t.page_count(),
            TableSource::Mem(_) => unreachable!("durable register backs with a heap"),
        });
        assert!(
            pages as usize > POOL,
            "benchmark invariant: table ({pages} pages) must exceed the {POOL}-frame pool"
        );
        let (dt, (rows, pages_read)) = (0..3)
            .map(|_| time(|| scan(&db)))
            .min_by(|a, b| a.0.cmp(&b.0))
            .expect("three runs");
        assert!(rows > 0, "benchmark invariant: the filter must keep rows");
        assert_eq!(
            pages_read, pages as u64,
            "benchmark invariant: the paged scan must read every page"
        );
        points.push(Point {
            series: format!("paged(pool={POOL})"),
            n,
            seconds: dt.as_secs_f64(),
            output_rows: rows,
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    print_points(
        "Storage: full-table filter scan over heap pages (pool below table size) vs in-memory rows",
        &points,
    );
    save("scan_storage", &points);
}

/// Timeslice (`AS OF`) over a persisted table under the three access
/// paths: full scan (pruning off), zone-map pruned scan (index off), and
/// the interval-index probe (defaults). Ddisj data is time-clustered in
/// heap order — the page-pruning best case, and the shape the paper's
/// timeslice queries assume.
fn timeslice(full: bool) {
    use temporal_core::prelude::Database;
    let sizes: &[usize] = if full {
        &[25_000, 50_000, 100_000, 200_000]
    } else {
        &[2_500, 5_000, 10_000, 20_000]
    };
    const POOL: usize = 8;
    let dir = std::env::temp_dir().join("talign_bench_timeslice");
    let _ = std::fs::remove_dir_all(&dir);
    let settings: [(&str, bool, bool); 3] = [
        ("full-scan", false, false),
        ("zonemap", true, false),
        ("index", true, true),
    ];
    let mut points = Vec::new();
    let mut per_n: Vec<(usize, f64, f64)> = Vec::new(); // (n, full, best-pruned)
    for &n in sizes {
        let (r, _) = ddisj(n);
        // Mid-timeline instant: hits exactly one ddisj slot.
        let v = 20 * (n as i64 / 2) + 2;
        let db = Database::open_with_pool(dir.join(n.to_string()), POOL).expect("open storage dir");
        db.register("r", &r).expect("register persisted");
        let (mut t_full, mut t_pruned) = (f64::MAX, f64::MAX);
        for &(series, zonemaps, index) in &settings {
            db.set("enable_zonemaps", zonemaps).expect("set zonemaps");
            db.set("enable_interval_index", index).expect("set index");
            let (dt, rows) = (0..3)
                .map(|_| {
                    time(|| {
                        db.table("r")
                            .unwrap()
                            .as_of(v)
                            .collect()
                            .expect("as of")
                            .len()
                    })
                })
                .min_by(|a, b| a.0.cmp(&b.0))
                .expect("three runs");
            let secs = dt.as_secs_f64();
            if zonemaps {
                t_pruned = t_pruned.min(secs);
            } else {
                t_full = secs;
            }
            points.push(Point {
                series: series.into(),
                n,
                seconds: secs,
                output_rows: rows,
            });
        }
        per_n.push((n, t_full, t_pruned));
    }
    let _ = std::fs::remove_dir_all(&dir);
    print_points(
        "Timeslice: AS OF over a persisted table — full scan vs zone maps vs interval index",
        &points,
    );
    for (n, t_full, t_pruned) in &per_n {
        println!(
            "n={n}: pruned timeslice {:.1}× over full scan",
            t_full / t_pruned.max(1e-9)
        );
    }
    save("timeslice", &points);
}

/// Durability cost and recovery speed (ISSUE 8): single-row insert
/// throughput under the three `sync_mode` policies, and the time to
/// reopen after a simulated crash (the handle is leaked, so every
/// insert since the last checkpoint exists only in the WAL and must be
/// replayed). `off` never fsyncs, `commit` fsyncs once per insert
/// batch, `always` fsyncs every record — the spread between the series
/// is the price of each durability guarantee.
fn wal(full: bool) {
    use temporal_core::prelude::Database;
    let sizes: &[usize] = if full {
        &[2_000, 5_000, 10_000]
    } else {
        &[250, 500, 1_000]
    };
    let dir = std::env::temp_dir().join("talign_bench_wal");
    let _ = std::fs::remove_dir_all(&dir);
    let mut points = Vec::new();
    for &n in sizes {
        for mode in ["off", "commit", "always"] {
            let d = dir.join(format!("{mode}-{n}"));
            let db = Database::open(&d).expect("open wal bench dir");
            db.set_str("sync_mode", mode).expect("set sync_mode");
            let (base, _) = ddisj(16);
            db.register("t", &base).expect("register");
            let (dt, rows) = time(|| {
                for i in 0..n as i64 {
                    let row = vec![Value::Int(i), Value::Int(2 * i), Value::Int(2 * i + 1)];
                    db.insert_rows("t", vec![row.into()]).expect("insert");
                }
                n
            });
            points.push(Point {
                series: format!("insert({mode})"),
                n,
                seconds: dt.as_secs_f64(),
                output_rows: rows,
            });
            // Crash by leaking the handle: no flush, no checkpoint — the
            // reopen below replays every insert from the log and rebuilds
            // the interval index, which is what this series times.
            std::mem::forget(db);
            let (dt, rows) = time(|| {
                let db = Database::open(&d).expect("recover");
                db.table("t").expect("table").collect().expect("scan").len()
            });
            points.push(Point {
                series: format!("recover({mode})"),
                n,
                seconds: dt.as_secs_f64(),
                output_rows: rows,
            });
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    print_points(
        "WAL: per-row insert cost under sync_mode ∈ {off, commit, always} and crash-recovery replay",
        &points,
    );
    save("wal", &points);
}

/// Group commit under concurrent clients (ISSUE 9): 1–8 connections
/// hammer one *served* database with single-batch `INSERT`s over the
/// wire under `sync_mode = commit`. Commits overlap, so the WAL's
/// group-commit flusher satisfies several of them with one fsync —
/// the reported `fsyncs/commit` drops below 1 as soon as committers
/// run concurrently, while `commits/s` holds or rises.
fn serve(full: bool) {
    use temporal_core::prelude::Database;
    use temporal_server::{Client, Response, Server};
    let commits_per_client: usize = if full { 400 } else { 100 };
    let dir = std::env::temp_dir().join("talign_bench_serve");
    let _ = std::fs::remove_dir_all(&dir);
    let mut points = Vec::new();
    for &clients in &[1usize, 2, 4, 8] {
        let d = dir.join(format!("c{clients}"));
        let db = Database::open(&d).expect("open serve bench dir");
        db.set_str("sync_mode", "commit").expect("set sync_mode");
        let (base, _) = ddisj(16);
        db.register("t", &base).expect("register");
        let w0 = db.wal_stats().expect("wal stats");
        let server = Server::bind(db.clone(), "127.0.0.1:0").expect("bind");
        let addr = server.addr().to_string();
        let handle = server.spawn();
        let (dt, _) = time(|| {
            let threads: Vec<_> = (0..clients)
                .map(|c| {
                    let addr = addr.clone();
                    std::thread::spawn(move || {
                        let mut cl = Client::connect(&addr).expect("connect");
                        for i in 0..commits_per_client {
                            let j = (c * commits_per_client + i) as i64;
                            let sql =
                                format!("INSERT INTO t VALUES ({j}, {}, {})", 2 * j, 2 * j + 1);
                            loop {
                                match cl.execute(&sql).expect("insert") {
                                    Response::Affected(_) => break,
                                    Response::Error(e) if e.contains("busy") => continue,
                                    other => panic!("insert: {other:?}"),
                                }
                            }
                        }
                        let _ = cl.quit();
                    })
                })
                .collect();
            for t in threads {
                t.join().expect("client thread");
            }
            clients * commits_per_client
        });
        let w1 = db.wal_stats().expect("wal stats");
        handle.stop();
        let commits = (w1.commits - w0.commits).max(1);
        let syncs = w1.syncs - w0.syncs;
        println!(
            "clients={clients}: {:.0} commits/s, {:.3} fsyncs/commit ({commits} commits, {syncs} fsyncs)",
            commits as f64 / dt.as_secs_f64(),
            syncs as f64 / commits as f64
        );
        points.push(Point {
            series: "commits".into(),
            n: clients,
            seconds: dt.as_secs_f64(),
            output_rows: commits as usize,
        });
        points.push(Point {
            series: "io_syncs".into(),
            n: clients,
            seconds: dt.as_secs_f64(),
            output_rows: syncs as usize,
        });
        db.close().expect("close");
    }
    let _ = std::fs::remove_dir_all(&dir);
    print_points(
        "Serve: group commit — concurrent committers share WAL fsyncs (fsyncs/commit = io_syncs ÷ commits per row pair)",
        &points,
    );
    save("serve", &points);
}

/// Observability overhead smoke (ISSUE 10): the plan-first chain pipeline
/// run with per-operator instrumentation **off** vs **on** (the wrappers
/// `EXPLAIN ANALYZE`, `trace` and `slow_query_ms` insert). Both arms run
/// the identical physical plan; best-of-N of each, interleaved so
/// allocator/scheduler drift hits both arms alike. Asserts the "free when
/// off, cheap when on" contract: instrumented runtime within 5% of plain
/// (with a half-millisecond absolute floor so micro-runs don't flake),
/// and identical output cardinality.
fn observe(full: bool) {
    use std::time::Duration;
    use temporal_core::prelude::TemporalPlan;
    let n: usize = if full { 16_000 } else { 8_000 };
    let reps = 5;
    let data = incumben(IncumbenSpec::default());
    let r = prefix(&data, n);
    let cap = (n / 10) as i64;
    let config = PlannerConfig::paper();
    let planner = Planner::new(config);
    // The chain benchmark's pipeline: ϑᵀ_{pcn} ∘ σᵀ_{ssn<cap} ∘ ⋈ᵀ_{pcn}.
    let plan = TemporalPlan::scan(&r)
        .join(TemporalPlan::scan(&r), Some(col(1).eq(col(5))))
        .expect("chain join")
        .selection(col(0).lt(lit(Value::Int(cap))))
        .expect("chain selection")
        .aggregation(&[1], vec![(AggCall::count_star(), "cnt".to_string())])
        .expect("chain aggregation");
    let physical = plan
        .physical(&planner, &temporal_engine::catalog::Catalog::new())
        .expect("chain plan");
    let run_once = |instrument: bool| {
        let state = if instrument {
            ExecutionState::new(config).with_instrumentation()
        } else {
            ExecutionState::new(config)
        };
        physical.collect(&state).expect("chain run").len()
    };
    let (mut best_off, mut best_on) = (Duration::MAX, Duration::MAX);
    let (mut rows_off, mut rows_on) = (0usize, 0usize);
    for _ in 0..reps {
        let (dt, rows) = time(|| run_once(false));
        best_off = best_off.min(dt);
        rows_off = rows;
        let (dt, rows) = time(|| run_once(true));
        best_on = best_on.min(dt);
        rows_on = rows;
    }
    let overhead = best_on.as_secs_f64() / best_off.as_secs_f64() - 1.0;
    let points = vec![
        Point {
            series: "instrument=off".into(),
            n,
            seconds: best_off.as_secs_f64(),
            output_rows: rows_off,
        },
        Point {
            series: "instrument=on".into(),
            n,
            seconds: best_on.as_secs_f64(),
            output_rows: rows_on,
        },
    ];
    print_points(
        "Observe: chain pipeline, EXPLAIN ANALYZE instrumentation off vs on (< 5% budget)",
        &points,
    );
    println!("instrumentation overhead: {:+.2}%", overhead * 100.0);
    // Show the artifact the instrumentation buys: the annotated tree of
    // one instrumented run.
    let state = ExecutionState::new(config).with_instrumentation();
    physical.collect(&state).expect("chain run");
    println!("\n{}", physical.explain_analyze(&state));
    save("observe", &points);
    assert_eq!(
        rows_off, rows_on,
        "instrumentation changed the result cardinality"
    );
    assert!(
        overhead < 0.05 || best_on.saturating_sub(best_off) < Duration::from_micros(500),
        "instrumentation overhead {:.2}% exceeds the 5% budget ({best_off:?} off, {best_on:?} on)",
        overhead * 100.0
    );
}

fn table1() {
    println!("\n=== Table 1 (verified executably in semantics::properties)");
    println!("{}", render_table1());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let exp = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());

    println!(
        "Temporal Alignment (SIGMOD 2012) — evaluation reproduction ({} mode)",
        if full { "full" } else { "quick" }
    );

    match exp.as_str() {
        "table1" => table1(),
        "fig13" => fig13(full),
        "fig14" => fig14(full),
        "fig15a" => fig15a(full),
        "fig15b" => fig15b(full),
        "fig15c" => fig15c(full),
        "fig15d" => fig15d(full),
        "fig16a" => fig16a(full),
        "fig16b" => fig16b(full),
        "ablation" => ablation(full),
        "chain" => chain(full),
        "storage" => storage(full),
        "timeslice" => timeslice(full),
        "wal" => wal(full),
        "serve" => serve(full),
        "observe" => observe(full),
        "all" => {
            table1();
            fig13(full);
            fig14(full);
            fig15a(full);
            fig15b(full);
            fig15c(full);
            fig15d(full);
            fig16a(full);
            fig16b(full);
            ablation(full);
            chain(full);
            storage(full);
            timeslice(full);
            wal(full);
            serve(full);
            observe(full);
        }
        other => {
            eprintln!(
                "unknown experiment '{other}'; use table1|fig13|fig14|fig15a|fig15b|fig15c|fig15d|fig16a|fig16b|ablation|chain|storage|timeslice|wal|serve|observe|all"
            );
            std::process::exit(2);
        }
    }
}
