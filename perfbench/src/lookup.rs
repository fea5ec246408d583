//! `lookup`: one session over a persisted database whose two tables are
//! both larger than the buffer pool. Point `AS OF` reads probe the
//! interval index of the time-clustered `d`; one range window per
//! [`POINTS_PER_RANGE`] points streams most pages of the unclustered `r`
//! through the same pool, evicting the points' pages.

use std::path::PathBuf;
use std::time::Instant;

use temporal_core::prelude::*;
use temporal_datasets::{ddisj, incumben, IncumbenSpec};
use temporal_engine::prelude::*;
use temporal_sql::Session;

use crate::common::{
    check_config, count_rows, dir_bytes, durability_probe, int_values, is_slot_row, scratch_dir,
    timed_setup, window_count, Durability, Rng,
};
use crate::layers::{report_split, Runner, Spans, Split};
use crate::stats::{Latencies, Report, MIN_SAMPLES};
use crate::Run;

/// Point reads between two range windows.
pub const POINTS_PER_RANGE: usize = 50;

struct Setup {
    db: Database,
    dir: PathBuf,
    r: TemporalRelation,
    d_rows: usize,
}

fn setup(run: &Run, i: usize) -> Setup {
    let dir = scratch_dir(run, &format!("lookup{i}"));
    let db = match run.sizes.pool_pages {
        Some(pages) => Database::open_with_pool(&dir, pages),
        None => Database::open(&dir),
    }
    .expect("open the lookup database");
    let d_rows = run.sizes.lookup_d_rows;
    let spec = match run.sizes.lookup_r_rows {
        Some(rows) => IncumbenSpec::scaled(rows),
        None => IncumbenSpec::default(),
    };
    let r = incumben(IncumbenSpec {
        seed: run.seed,
        ..spec
    });
    db.register("d", &ddisj(d_rows).0).expect("persist d");
    db.register("r", &r).expect("persist r");
    db.checkpoint().expect("checkpoint the loaded tables");
    Setup { db, dir, r, d_rows }
}

fn discard(s: Setup) {
    let _ = s.db.close();
    drop(s.db);
    let _ = std::fs::remove_dir_all(&s.dir);
}

/// Heap pages of a stored table and the frames of its buffer pool.
fn pages(db: &Database, table: &str) -> (u64, u64) {
    db.read(|catalog, _| match catalog.source(table) {
        Ok(TableSource::Stored(t)) => (t.page_count() as u64, t.pool_pages() as u64),
        _ => (0, 0),
    })
}

/// The timed phase's samples. A traced run alternates cycles of
/// [`POINTS_PER_RANGE`] points and one range, traced and untraced, so
/// both halves see the same stretch of the host; only untraced cycles
/// give latency samples, only traced ones layer splits and pool counts.
#[derive(Default)]
struct Phase {
    points: Latencies,
    ranges: Latencies,
    ops: u64,
    secs: f64,
    traced_points: Latencies,
    traced_ranges: usize,
    point_split: Split,
    range_split: Split,
    point_pool: PoolStats,
    range_pool: PoolStats,
}

fn pool_delta(after: PoolStats, before: PoolStats) -> PoolStats {
    PoolStats {
        fetches: after.fetches - before.fetches,
        io_reads: after.io_reads - before.io_reads,
        io_writes: after.io_writes - before.io_writes,
        io_syncs: after.io_syncs - before.io_syncs,
        evictions: after.evictions - before.evictions,
        capacity: after.capacity,
    }
}

fn phase(runner: &mut Runner, s: &Setup, rng: &mut Rng, run: &Run, report: &mut Report) -> Phase {
    let mut p = Phase::default();
    let days = IncumbenSpec::default().days;
    let pool = || s.db.pool_stats().unwrap_or_default();
    let mut ranges = Vec::new();
    let start = Instant::now();
    loop {
        let cycles = p.ranges.len() + p.traced_ranges;
        if start.elapsed() >= run.seconds && cycles >= MIN_SAMPLES {
            break;
        }
        let traced = run.trace && cycles % 2 == 1;
        for _ in 0..POINTS_PER_RANGE {
            let i = rng.below(s.d_rows as u64) as i64;
            let sql = format!("SELECT * FROM d AS OF {}", 20 * i + 2);
            let before = traced.then(pool);
            let (dt, out) = runner.select(&sql, traced.then_some(&mut p.point_split));
            match before {
                Some(before) => {
                    p.point_pool.merge(&pool_delta(pool(), before));
                    p.traced_points.push(dt);
                }
                None => p.points.push(dt),
            }
            if !is_slot_row(&out, i) {
                report.check("point", false, format!("{sql}: {out:?}"));
            }
        }
        let v = rng.below(days as u64) as i64;
        let sql = format!(
            "SELECT ssn, pcn, ts, te FROM r WHERE ts < {} AND te > {v}",
            v + 30
        );
        let before = traced.then(pool);
        let (dt, out) = runner.select(&sql, traced.then_some(&mut p.range_split));
        match before {
            Some(before) => {
                p.range_pool.merge(&pool_delta(pool(), before));
                p.traced_ranges += 1;
            }
            None => p.ranges.push(dt),
        }
        ranges.push((v, out.map(|rel| rel.len())));
        p.ops += POINTS_PER_RANGE as u64 + 1;
    }
    p.secs = start.elapsed().as_secs_f64();
    // Range counts are checked after the timed phase, so the in-memory
    // count never lands in the throughput window.
    for (v, got) in ranges {
        let want = window_count(&s.r, v);
        if got != Ok(want) {
            report.check(
                "range",
                false,
                format!("window at {v}: {got:?} rows, expected {want}"),
            );
        }
    }
    p
}

pub fn run(run: &Run, report: &mut Report, spans: &mut Spans) {
    let (s, setup_s) = timed_setup(&run.sizes, |i| setup(run, i), discard);
    report.metric("setup_s", setup_s, "s");
    check_config(&s.db, report);
    let mut dur = Durability::default();
    durability_probe(run, &mut dur, report);
    for t in ["d", "r"] {
        let (n, frames) = pages(&s.db, t);
        let rows = count_rows(&s.db, t).unwrap_or(0);
        println!("  table {t}: {n} pages, {rows} rows, pool of {frames} frames");
        report.check(
            "table exceeds the pool",
            n > frames,
            format!("{t}: {n} pages"),
        );
    }
    let mut runner = Runner::new(Session::with_database(s.db.clone()));

    // Warm-up, traced once, to check the intended work: a point reads a
    // page or two through the index, a range decodes most pages of `r`.
    let mut point = Split::default();
    let (_, out) = runner.select("SELECT * FROM d AS OF 2", Some(&mut point));
    report.check("warm-up point", out.is_ok(), format!("{out:?}"));
    let mut range = Split::default();
    let sql = "SELECT ssn, pcn, ts, te FROM r WHERE ts < 1030 AND te > 1000";
    let (_, out) = runner.select(sql, Some(&mut range));
    report.check("warm-up range", out.is_ok(), format!("{out:?}"));
    let r_pages = pages(&s.db, "r").0;
    report.check(
        "point reads few pages",
        point.pages_read <= 4,
        point.pages_read,
    );
    report.check(
        "range reads most pages",
        range.pages_read * 2 > r_pages,
        format!("{} of {r_pages} pages", range.pages_read),
    );

    let mut rng = Rng::new(run.seed, 2);
    let p = phase(&mut runner, &s, &mut rng, run, report);
    report.attempted += p.ops;
    report.failed += runner.failed;
    if !run.trace {
        report.latency("latency", &p.points);
        report.latency("scan", &p.ranges);
        report.latency("read", &p.points);
        report.metric("throughput_ops_s", p.ops as f64 / p.secs, "1/s");
        s.db.checkpoint()
            .expect("checkpoint before measuring space");
        let user = 8.0 * (int_values(&s.db, "d") + int_values(&s.db, "r")) as f64;
        report.metric(
            "bytes_per_user_byte",
            dir_bytes(&s.dir) as f64 / user,
            "ratio",
        );
        drop(runner);
        discard(s);
        durability_probe(run, &mut dur, report);
        report.metric("recovery_s", dur.recovery_s(), "s");
        return;
    }

    spans.absorb(runner.spans);
    discard(s);
    let points = p.traced_points.len() as f64;
    let ranges = p.traced_ranges as f64;
    let (ps, rs) = (&p.point_split, &p.range_split);
    report_split(
        report,
        ps,
        points,
        points,
        rs,
        ranges,
        &p.points,
        &p.traced_points,
    );
    let all_ops = points + ranges;
    let pages_read = (ps.pages_read + rs.pages_read) as f64;
    let pages_skipped = (ps.pages_skipped + rs.pages_skipped) as f64;
    report.metric("exec.pages_read_per_op", pages_read / all_ops, "count");
    report.metric(
        "exec.pages_skipped_per_op",
        pages_skipped / all_ops,
        "count",
    );
    let (pp, rp) = (p.point_pool, p.range_pool);
    report.metric(
        "store.pool.fetches_per_point",
        pp.fetches as f64 / points,
        "count",
    );
    report.metric(
        "store.pool.reads_per_point",
        pp.io_reads as f64 / points,
        "count",
    );
    report.metric(
        "store.pool.reads_per_range",
        rp.io_reads as f64 / ranges,
        "count",
    );
    let mut all = pp;
    all.merge(&rp);
    report.metric("store.pool.hit_rate", all.hit_rate(), "ratio");
    let evictions = all.evictions as f64 / all_ops;
    report.metric("store.pool.evictions_per_op", evictions, "count");
    durability_probe(run, &mut dur, report);
    report.metric("recovery.replay_rows_per_s", dur.replay_rows_per_s(), "1/s");
}
