//! The repository benchmark: the time a user waits from SQL text (or a
//! wire request) to the last row (or the acknowledgement), on three
//! workloads that stress different layers, plus a traced run that splits
//! that time across the layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload analytic|lookup|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Every statement goes through a public
//! front door: `temporal_sql::Session::execute` for `analytic` and
//! `lookup`, `temporal_server::Client::execute` over loopback TCP for
//! `ingest`. Each workload is a closed loop in this process under the
//! engine's built-in defaults (see [`common::pin_config`]). With
//! `--trace 0` the run prints the end-to-end metrics, with `--trace 1`
//! the per-layer metrics; the last line of standard output is one JSON
//! object, and the process exits non-zero when a correctness or
//! intended-work check fails. Scratch databases and the chrome-trace
//! file go under `.bench_run/`.
//!
//! Op types: `latency_*` times the primary op (a round of four paper
//! queries on `analytic`, a point `AS OF` read on `lookup`, a single-row
//! `INSERT` commit on `ingest`), `scan_*` a range-window SELECT and
//! `read_*` a point `AS OF` SELECT (on `lookup` that is the primary op).
//! `recovery_s` and, except on `lookup`, `bytes_per_user_byte` come from
//! a fixed-work durability probe ([`common::durability_probe`]) that
//! runs in a child process (`--probe <dir>`), so its work never depends
//! on the timed phase and its memory never counts toward `peak_rss_mb`.

mod analytic;
mod common;
mod ingest;
mod layers;
mod lookup;
mod stats;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use stats::Report;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("scan_p50_ms", "ms"),
    ("scan_tail_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("recovery_s", "s"),
    ("bytes_per_user_byte", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("sql.parse_us", "us"),
    ("sql.analyze_us", "us"),
    ("plan.plan_us", "us"),
    ("exec.collect_us", "us"),
    ("exec.collect_scan_us", "us"),
    ("exec.hashjoin_self_ms", "ms"),
    ("exec.intervaljoin_self_ms", "ms"),
    ("exec.sort_self_ms", "ms"),
    ("exec.project_self_ms", "ms"),
    ("exec.aggregate_self_ms", "ms"),
    ("exec.scan_self_ms", "ms"),
    ("exec.other_self_ms", "ms"),
    ("primitives.aligner_self_ms", "ms"),
    ("primitives.normalizer_self_ms", "ms"),
    ("primitives.absorb_self_ms", "ms"),
    ("exec.rows_per_result_row", "ratio"),
    ("exec.pages_read_per_op", "count"),
    ("exec.pages_skipped_per_op", "count"),
    ("store.pool.fetches_per_point", "count"),
    ("store.pool.reads_per_point", "count"),
    ("store.pool.reads_per_range", "count"),
    ("store.pool.hit_rate", "ratio"),
    ("store.pool.evictions_per_op", "count"),
    ("server.roundtrip_us", "us"),
    ("server.statement_us", "us"),
    ("server.wire_wait_us", "us"),
    ("store.wal.fsyncs_per_commit", "ratio"),
    ("store.wal.bytes_per_commit", "B"),
    ("store.insert_us", "us"),
    ("recovery.replay_rows_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
    ("trace.spans", "count"),
];

/// Data sizes. [`Sizes::FULL`] is what the benchmark measures; tests run
/// [`Sizes::SMALL`].
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `analytic`: rows of `r` (an Incumben prefix) and of `d`, `e`.
    pub analytic_rows: usize,
    /// `lookup`: Ddisj rows of `d`.
    pub lookup_d_rows: usize,
    /// `lookup`: Incumben rows of `r` (`None`: the paper's full size).
    pub lookup_r_rows: Option<usize>,
    /// Buffer pool frames per table (`None`: the engine default).
    pub pool_pages: Option<usize>,
    /// `ingest`: Ddisj rows of the served table.
    pub ingest_rows: usize,
    /// Fewest set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Set-up time after which a run makes no more set-ups than `setups`.
    pub setup_budget: Duration,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        analytic_rows: 16_000,
        lookup_d_rows: 200_000,
        lookup_r_rows: None,
        pool_pages: None,
        ingest_rows: 2_000,
        setups: 9,
        setup_budget: Duration::from_secs(1),
    };

    pub const SMALL: Sizes = Sizes {
        analytic_rows: 150,
        lookup_d_rows: 4_000,
        lookup_r_rows: Some(2_000),
        pool_pages: Some(8),
        ingest_rows: 200,
        setups: 1,
        setup_budget: Duration::ZERO,
    };
}

/// One benchmark run's parameters.
#[derive(Debug, Clone)]
pub struct Run {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub sizes: Sizes,
    /// This run's scratch databases; removed when the run ends.
    pub scratch: PathBuf,
}

impl Run {
    pub fn new(seed: u64, seconds: Duration, trace: bool, sizes: Sizes) -> Run {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let n = RUNS.fetch_add(1, Ordering::Relaxed);
        let scratch = Path::new(RUN_DIR).join(format!("{}-{n}", std::process::id()));
        Run {
            seed,
            seconds,
            trace,
            sizes,
            scratch,
        }
    }
}

pub const WORKLOADS: [&str; 3] = ["analytic", "lookup", "ingest"];

/// Where runs keep scratch databases and write trace files, relative to
/// the directory the benchmark runs in.
pub const RUN_DIR: &str = ".bench_run";

/// Run one workload and keep the metrics of the requested mode. Every
/// metric of that mode must be present (per-layer ones default to 0).
pub fn run_workload(workload: &str, run: &Run) -> Report {
    let mut report = Report::default();
    let mut spans = layers::Spans::new(std::time::Instant::now());
    match workload {
        "analytic" => analytic::run(run, &mut report, &mut spans),
        "lookup" => lookup::run(run, &mut report, &mut spans),
        "ingest" => ingest::run(run, &mut report, &mut spans),
        other => panic!("unknown workload {other}"),
    }
    report.metric("peak_rss_mb", common::peak_rss_mb(), "MiB");
    // Late handle drops checkpoint into their directories, so the
    // scratch root goes only once the workload is done with it.
    let _ = std::fs::remove_dir_all(&run.scratch);
    if run.trace {
        report.metric("trace.spans", spans.len() as f64, "count");
        let path = Path::new(RUN_DIR).join(format!("trace-{workload}-{}.json", run.seed));
        let written = std::fs::create_dir_all(RUN_DIR)
            .and_then(|()| std::fs::write(&path, spans.chrome_trace_json()));
        match written {
            Ok(()) => println!("trace: {} spans -> {}", spans.len(), path.display()),
            Err(e) => report.check("trace file", false, e),
        }
    }
    let wanted: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    report.keep(wanted, run.trace);
    report
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload analytic|lookup|ingest --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn main() {
    common::pin_config();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut probe = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = matches!(value.as_str(), "1" | "true" | "on"),
            "--probe" => probe = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    if let Some(dir) = probe {
        let ok = common::probe_child(dir, seed);
        std::process::exit(if ok { 0 } else { 1 });
    }
    let Some(workload) = workload else { usage() };
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage();
    }
    let run = Run::new(seed, Duration::from_secs_f64(seconds), trace, Sizes::FULL);
    println!(
        "workload {workload} seed {seed} seconds {seconds} trace {} nproc {}",
        u8::from(trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let report = run_workload(&workload, &run);
    report.print();
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool, seed: u64) -> Report {
        let run = Run::new(seed, Duration::from_millis(300), trace, Sizes::SMALL);
        run_workload(workload, &run)
    }

    #[test]
    fn every_workload_passes_its_checks_and_prints_every_metric() {
        for workload in WORKLOADS {
            for (trace, wanted) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let report = smoke(workload, trace, 3);
                assert!(report.correct(), "{workload} trace={trace}: {report:?}");
                assert_eq!(report.names(), wanted.to_vec(), "{workload} trace={trace}");
                if !trace {
                    for (name, _) in wanted {
                        let v = report.get(name).unwrap();
                        assert!(v.is_finite() && v > 0.0, "{workload}: {name} = {v}");
                    }
                }
            }
        }
    }

    /// With a zero-length timed phase every loop runs exactly its minimum
    /// sample count, so the work counts of one seed must repeat exactly.
    #[test]
    fn counts_repeat_exactly_on_one_seed() {
        let counts = [
            "exec.rows_per_result_row",
            "exec.pages_read_per_op",
            "exec.pages_skipped_per_op",
            "store.pool.fetches_per_point",
            "store.pool.reads_per_point",
            "store.pool.reads_per_range",
            "store.pool.evictions_per_op",
            "store.wal.bytes_per_commit",
            "trace.spans",
        ];
        for workload in WORKLOADS {
            let run = Run::new(11, Duration::ZERO, true, Sizes::SMALL);
            let a = run_workload(workload, &run);
            let b = run_workload(workload, &run);
            assert!(a.correct() && b.correct(), "{workload}");
            assert_eq!(a.attempted, b.attempted, "{workload}");
            for name in counts {
                assert_eq!(a.get(name), b.get(name), "{workload}: {name}");
            }
        }
    }

    #[test]
    fn benchmark_json_names_the_metrics_printed() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }
}
