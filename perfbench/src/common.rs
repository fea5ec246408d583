//! Pieces every workload shares: the seeded op-stream generator, config
//! pinning, scratch directories, memory and space readings, and the
//! fixed-work durability probe.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use temporal_core::prelude::*;
use temporal_datasets::ddisj;
use temporal_engine::prelude::*;
use temporal_engine::storage::SyncMode;

use temporal_sql::Session;

use crate::stats::{median, Report};
use crate::{Run, Sizes};

/// SplitMix64: a tiny seeded generator for op streams (AS OF instants,
/// range windows, insert keys), so a seed fixes every op of a run.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Rows of `r` inside the range window `ts < v + 30 AND te > v`.
pub fn window_count(r: &TemporalRelation, v: i64) -> usize {
    r.iter()
        .filter(|(_, iv)| iv.start() < v + 30 && iv.end() > v)
        .count()
}

/// Whether a point `AS OF 20i+2` over Ddisj returned exactly slot `i`'s
/// row `(i, 20i, 20i+5)`.
pub fn is_slot_row(out: &Result<Relation, String>, i: i64) -> bool {
    out.as_ref().is_ok_and(|rel| {
        rel.len() == 1
            && rel.rows()[0].values()[..3]
                == [Value::Int(i), Value::Int(20 * i), Value::Int(20 * i + 5)]
    })
}

/// Environment variables the program reads once per process to change
/// its defaults. The benchmark measures the built-in defaults, so none
/// of them may reach it.
pub const PINNED_ENV: [&str; 6] = [
    "TEMPORAL_THREADS",
    "TEMPORAL_ZONEMAPS",
    "TEMPORAL_INTERVAL_INDEX",
    "TEMPORAL_TRACE",
    "TEMPORAL_SYNC_MODE",
    "TEMPORAL_WRITER_WAIT_MS",
];

/// Drop the [`PINNED_ENV`] overrides. Call before anything reads them
/// (first thing in `main`, while the process has one thread).
pub fn pin_config() {
    for var in PINNED_ENV {
        std::env::remove_var(var);
    }
}

/// Print the effective configuration of `db` and check it is the
/// built-in default: one thread, zone maps and interval index on, tracing
/// off, and `sync_mode=commit` on a persisted database.
pub fn check_config(db: &Database, report: &mut Report) {
    let c = db.config();
    let sync = db.sync_mode();
    println!(
        "config: threads={} zonemaps={} interval_index={} trace={} slow_query_ms={} sync_mode={} \
         pool_frames={}",
        c.threads,
        c.enable_zonemaps,
        c.enable_interval_index,
        c.trace,
        c.slow_query_ms,
        sync.map_or("n/a (in-memory)".to_string(), |m| m.to_string()),
        db.pool_stats()
            .map_or("n/a".to_string(), |p| p.capacity.to_string()),
    );
    let defaults = c.threads == 1
        && c.enable_zonemaps
        && c.enable_interval_index
        && !c.trace
        && c.slow_query_ms == 0
        && sync.is_none_or(|m| m == SyncMode::Commit);
    report.check(
        "config",
        defaults,
        "effective config is not the built-in default",
    );
}

/// A fresh scratch directory under the run's scratch root.
pub fn scratch_dir(run: &Run, tag: &str) -> PathBuf {
    let dir = run.scratch.join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the benchmark's scratch directory");
    dir
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Stored Int values of a table (every column of these tables is Int).
pub fn int_values(db: &Database, table: &str) -> u64 {
    let width = db
        .read(|catalog, _| catalog.schema_of(table))
        .map_or(0, |s| s.len()) as i64;
    count_rows(db, table).map_or(0, |n| (n * width) as u64)
}

/// Most set-ups one run makes, however fast they are.
pub const MAX_SETUPS: usize = 200;

/// Run `setup` at least `sizes.setups` times, and again while the
/// set-ups together took less than `sizes.setup_budget` (up to
/// [`MAX_SETUPS`]), so a set-up of a few milliseconds is sampled as
/// often as it takes for its median to hold still. Returns the last
/// result with the median set-up time, in seconds; each earlier result
/// is handed to `discard`.
pub fn timed_setup<T>(
    sizes: &Sizes,
    mut setup: impl FnMut(usize) -> T,
    mut discard: impl FnMut(T),
) -> (T, f64) {
    let mut secs = Vec::new();
    let mut last = None;
    let mut spent = Duration::ZERO;
    while secs.len() < sizes.setups || (spent < sizes.setup_budget && secs.len() < MAX_SETUPS) {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let t = Instant::now();
        last = Some(setup(secs.len()));
        let dt = t.elapsed();
        spent += dt;
        secs.push(dt.as_secs_f64());
    }
    println!("  setup: median of {} set-ups", secs.len());
    (last.expect("at least one set-up"), median(&secs))
}

/// Rows in the durability probe's base table (the `ingest` base).
pub const PROBE_BASE_ROWS: usize = 2_000;
/// Commits in the probe's WAL tail, and rows per commit.
pub const PROBE_TAIL_COMMITS: usize = 40;
pub const PROBE_ROWS_PER_COMMIT: usize = 1_000;
/// The probe's `wal_checkpoint_pages`: large enough that no automatic
/// checkpoint truncates the tail before the crash.
const PROBE_WAL_PAGES: i64 = 1 << 16;
/// Crash-and-reopen repetitions per probe call, each on a fresh
/// directory. Workloads call the probe before and after their timed
/// phase, so one slow stretch of the host does not set the median.
const PROBE_REPEATS: usize = 8;

/// Rows of a table, counted by a scan through the SQL front door.
pub fn count_rows(db: &Database, table: &str) -> Result<i64, String> {
    let rel = Session::with_database(db.clone())
        .execute(&format!("SELECT count(*) FROM {table}"))
        .and_then(|out| out.rows())
        .map_err(|e| e.to_string())?;
    match rel.rows().first().map(|r| &r[0]) {
        Some(Value::Int(n)) => Ok(*n),
        other => Err(format!("count(*) returned {other:?}")),
    }
}

/// What the durability probe measured.
#[derive(Debug, Default)]
pub struct Durability {
    /// `Database::open` time of each crash recovery, in seconds.
    times: Vec<f64>,
    /// Directory bytes after an explicit checkpoint per 8-byte Int.
    pub bytes_per_user_byte: f64,
}

impl Durability {
    /// Median time to recover the fixed WAL tail.
    pub fn recovery_s(&self) -> f64 {
        median(&self.times)
    }

    /// Tail rows replayed per second of recovery.
    pub fn replay_rows_per_s(&self) -> f64 {
        (PROBE_TAIL_COMMITS * PROBE_ROWS_PER_COMMIT) as f64 / self.recovery_s()
    }
}

/// Run [`probe_reps`] in a child process of this binary (`--probe`), so
/// the handles its simulated crashes leak never count toward the
/// workload's memory. Unit tests, whose binary is the test harness, run
/// it in-process.
pub fn durability_probe(run: &Run, dur: &mut Durability, report: &mut Report) {
    if cfg!(test) {
        probe_reps(run, dur, report);
        return;
    }
    let dir = run.scratch.join("probe");
    let out = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .arg("--probe")
            .arg(&dir)
            .args(["--seed", &run.seed.to_string()])
            .output()
    });
    let out = match out {
        Ok(out) => out,
        Err(e) => return report.check("probe process", false, e),
    };
    report.check("probe process", out.status.success(), out.status);
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        match line.split_once(' ') {
            Some(("recovery_s", v)) => dur.times.extend(v.parse::<f64>().ok()),
            Some(("bytes_per_user_byte", v)) => {
                dur.bytes_per_user_byte = v.parse().unwrap_or(f64::NAN)
            }
            Some(("fail", msg)) => report.check("probe", false, msg),
            _ => {}
        }
    }
}

/// The child side of [`durability_probe`]: run the probe in `dir` and
/// print what the parent parses. Returns whether every check passed.
pub fn probe_child(dir: PathBuf, seed: u64) -> bool {
    let run = Run {
        scratch: dir,
        ..Run::new(seed, Duration::ZERO, false, Sizes::FULL)
    };
    let mut dur = Durability::default();
    let mut report = Report::default();
    probe_reps(&run, &mut dur, &mut report);
    for t in &dur.times {
        println!("recovery_s {t}");
    }
    println!("bytes_per_user_byte {}", dur.bytes_per_user_byte);
    for f in report.failures() {
        println!("fail {f}");
    }
    let _ = std::fs::remove_dir_all(&run.scratch);
    report.failures().is_empty()
}

/// The fixed-work durability probe: a persisted Ddisj table of
/// [`PROBE_BASE_ROWS`] rows, checkpointed; a WAL tail of
/// [`PROBE_TAIL_COMMITS`] commits of [`PROBE_ROWS_PER_COMMIT`] rows; a
/// simulated crash (the handle is leaked, so nothing more is flushed);
/// and a timed `Database::open` that replays the tail. The work is the
/// same whatever the timed phase did, so a faster timed phase never
/// reads as a recovery or space change. Checks that every acknowledged
/// row survives, then measures space after an explicit checkpoint.
fn probe_reps(run: &Run, dur: &mut Durability, report: &mut Report) {
    let mut rng = Rng::new(run.seed, 7);
    let expected = PROBE_BASE_ROWS + PROBE_TAIL_COMMITS * PROBE_ROWS_PER_COMMIT;
    for rep in 0..PROBE_REPEATS {
        let dir = scratch_dir(run, &format!("probe{}", dur.times.len()));
        let db = Database::open(&dir).expect("open the probe database");
        db.register("t", &ddisj(PROBE_BASE_ROWS).0)
            .expect("persist the probe table");
        db.set_int("wal_checkpoint_pages", PROBE_WAL_PAGES)
            .expect("room for the whole tail in the WAL");
        db.checkpoint().expect("checkpoint before the tail");
        let checkpoints = db.wal_stats().map_or(0, |w| w.checkpoints);
        for c in 0..PROBE_TAIL_COMMITS {
            let rows = (0..PROBE_ROWS_PER_COMMIT)
                .map(|k| {
                    let ts = 1_000_000 + 20 * (c * PROBE_ROWS_PER_COMMIT + k) as i64;
                    let id = rng.below(1 << 40) as i64;
                    Row::new(vec![Value::Int(id), Value::Int(ts), Value::Int(ts + 5)])
                })
                .collect();
            let n = db.insert_rows("t", rows).expect("probe commit");
            report.check(
                "probe commit",
                n == PROBE_ROWS_PER_COMMIT,
                format!("{n} rows"),
            );
        }
        let after = db.wal_stats().map_or(0, |w| w.checkpoints);
        report.check("probe tail stays in the WAL", after == checkpoints, rep);
        std::mem::forget(db);
        let t = Instant::now();
        let db = Database::open(&dir).expect("reopen after the simulated crash");
        dur.times.push(t.elapsed().as_secs_f64());
        let rows = count_rows(&db, "t");
        report.check(
            "probe recovery keeps every acknowledged row",
            rows == Ok(expected as i64),
            format!("{rows:?} rows after reopen, expected {expected}"),
        );
        db.checkpoint().expect("checkpoint before measuring space");
        dur.bytes_per_user_byte = dir_bytes(&dir) as f64 / (8.0 * 3.0 * expected as f64);
        db.close().expect("close the probe database");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
