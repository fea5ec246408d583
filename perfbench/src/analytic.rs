//! `analytic`: one session over in-memory tables, running rounds of four
//! of the paper's queries. `exec` and `primitives` do nearly all of the
//! work; `sql`, `plan` and `store` almost none.
//!
//! Tables: `r` is the first rows of the seeded Incumben generator at its
//! default (paper) spec; `d` and `e` are Ddisj. Each round also runs one
//! range window over `r` and one point `AS OF` over `d`, which give this
//! workload's `scan_*` and `read_*` figures.

use std::time::Instant;

use temporal_core::prelude::*;
use temporal_datasets::{ddisj, incumben, prefix, IncumbenSpec};
use temporal_engine::prelude::*;
use temporal_sql::Session;

use crate::common::{
    check_config, durability_probe, is_slot_row, timed_setup, window_count, Durability, Rng,
};
use crate::layers::{report_split, Runner, Spans, Split};
use crate::stats::{Latencies, Report, MIN_SAMPLES};
use crate::Run;

/// The round: `(name, SQL)`.
pub const QUERIES: [(&str, &str); 4] = [
    ("N_pcn", "SELECT * FROM (r r1 NORMALIZE r r2 USING(pcn)) x"),
    (
        "O3",
        "SELECT ABSORB x.ssn, y.ssn, coalesce(x.ts,y.ts) ts, coalesce(x.te,y.te) te \
         FROM (r r1 ALIGN r r2 ON r1.pcn = r2.pcn) x \
         FULL OUTER JOIN (r r3 ALIGN r r4 ON r3.pcn = r4.pcn) y \
         ON x.pcn = y.pcn AND x.ts = y.ts AND x.te = y.te",
    ),
    (
        "T_pcn",
        "SELECT pcn, count(*) cnt, ts, te FROM (r r1 NORMALIZE r r2 USING(pcn)) x \
         GROUP BY pcn, ts, te",
    ),
    (
        "O1",
        "SELECT ABSORB x.id, y.id, x.ts, x.te \
         FROM (d ALIGN e ON true) x LEFT OUTER JOIN (e ALIGN d ON true) y \
         ON x.ts = y.ts AND x.te = y.te",
    ),
];

/// The generated inputs.
pub struct Data {
    pub r: TemporalRelation,
    pub d: TemporalRelation,
    pub e: TemporalRelation,
}

pub fn generate(seed: u64, rows: usize) -> Data {
    let spec = IncumbenSpec {
        seed,
        ..IncumbenSpec::default()
    };
    let r = prefix(&incumben(spec), rows);
    let (d, e) = ddisj(rows);
    Data { r, d, e }
}

/// A session over a fresh in-memory database holding `r`, `d` and `e`.
pub fn load(data: &Data) -> Session {
    let mut session = Session::new();
    for (name, rel) in [("r", &data.r), ("d", &data.d), ("e", &data.e)] {
        session
            .register_temporal(name, rel)
            .expect("register an in-memory table");
    }
    session
}

/// The four queries built with `TemporalFrame` instead of SQL. O3's SQL
/// keeps only the two `ssn` columns before ABSORB, so its frame result
/// gets the same plain projection and absorb.
pub fn frame_results(db: &Database) -> TemporalResult<Vec<TemporalRelation>> {
    let r = || db.table("r");
    let n_pcn = r()?.normalize_using(r()?, &["pcn"]).collect()?;
    let o3 = r()?.full_outer_join(r()?, col(1).eq(col(5))).collect()?;
    let o3 = absorb(&o3.project_data(&[0, 2])?)?;
    let t_pcn = r()?
        .aggregate(&["pcn"], vec![(AggCall::count_star(), "cnt")])
        .collect()?;
    let o1 = db
        .table("d")?
        .left_outer_join(db.table("e")?, None::<Expr>)
        .collect()?;
    Ok(vec![n_pcn, o3, t_pcn, o1])
}

/// The timed phase's samples. A traced run alternates rounds, traced
/// and untraced, so both halves see the same stretch of the host; only
/// untraced rounds give latency samples, only traced ones layer splits.
#[derive(Default)]
struct Phase {
    rounds: Latencies,
    scans: Latencies,
    reads: Latencies,
    statements: u64,
    secs: f64,
    traced_rounds: Latencies,
    traced_scans: usize,
    round_split: Split,
    scan_split: Split,
}

fn phase(
    runner: &mut Runner,
    data: &Data,
    counts: &[usize],
    rng: &mut Rng,
    run: &Run,
    report: &mut Report,
) -> Phase {
    let mut p = Phase::default();
    let mut ranges = Vec::new();
    let days = IncumbenSpec::default().days;
    let start = Instant::now();
    loop {
        let rounds = p.rounds.len() + p.traced_rounds.len();
        if start.elapsed() >= run.seconds && rounds >= MIN_SAMPLES {
            break;
        }
        let traced = run.trace && rounds % 2 == 1;
        // Only the statements are timed: results are reduced to their
        // row counts inside the round and checked after it.
        let mut got = [Ok(0), Ok(0), Ok(0), Ok(0)];
        let t = Instant::now();
        for ((_, sql), got) in QUERIES.iter().zip(&mut got) {
            let (_, out) = runner.select(sql, traced.then_some(&mut p.round_split));
            *got = out.map(|rel| rel.len());
        }
        let dt = t.elapsed();
        if traced {
            p.traced_rounds.push(dt);
        } else {
            p.rounds.push(dt);
        }
        for (((name, _), got), &want) in QUERIES.iter().zip(got).zip(counts) {
            if got != Ok(want) {
                report.check(name, false, format!("{got:?} rows, expected {want}"));
            }
        }

        let v = rng.below(days as u64) as i64;
        let sql = format!(
            "SELECT ssn, pcn, ts, te FROM r WHERE ts < {} AND te > {v}",
            v + 30
        );
        let (dt, out) = runner.select(&sql, traced.then_some(&mut p.scan_split));
        if traced {
            p.traced_scans += 1;
        } else {
            p.scans.push(dt);
        }
        ranges.push((v, out.map(|rel| rel.len())));

        let i = rng.below(data.d.len() as u64) as i64;
        let sql = format!("SELECT * FROM d AS OF {}", 20 * i + 2);
        let (dt, out) = runner.select(&sql, None);
        if !traced {
            p.reads.push(dt);
        }
        if !is_slot_row(&out, i) {
            report.check("point", false, format!("{sql}: {out:?}"));
        }
        p.statements += QUERIES.len() as u64 + 2;
    }
    p.secs = start.elapsed().as_secs_f64();
    // Range counts are checked after the timed phase, so the in-memory
    // count never lands in the throughput window.
    for (v, got) in ranges {
        let want = window_count(&data.r, v);
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
    let rows = run.sizes.analytic_rows;
    let ((data, session), setup_s) = timed_setup(
        &run.sizes,
        |_| {
            let data = generate(run.seed, rows);
            let session = load(&data);
            (data, session)
        },
        drop,
    );
    report.metric("setup_s", setup_s, "s");
    let db = session.database().clone();
    check_config(&db, report);
    let mut dur = Durability::default();
    durability_probe(run, &mut dur, report);

    // Warm-up round, checked against the TemporalFrame results; its row
    // counts are what every timed round must return.
    let frames = frame_results(&db).expect("TemporalFrame reference results");
    let mut runner = Runner::new(session);
    let mut counts = Vec::new();
    for ((name, sql), want) in QUERIES.iter().zip(&frames) {
        let (_, out) = runner.select(sql, None);
        let same = out
            .map_err(|e| e.to_string())
            .and_then(|rel| TemporalRelation::new(rel).map_err(|e| e.to_string()))
            .map(|got| {
                counts.push(got.len());
                got.same_set(want)
            });
        report.check(
            name,
            same == Ok(true),
            format!("SQL result differs from the TemporalFrame result: {same:?}"),
        );
        println!("  {name}: {} rows", want.len());
    }
    if counts.len() != QUERIES.len() {
        return;
    }

    let mut rng = Rng::new(run.seed, 1);
    let p = phase(&mut runner, &data, &counts, &mut rng, run, report);
    report.attempted += p.statements;
    report.failed += runner.failed;
    if !run.trace {
        report.latency("latency", &p.rounds);
        report.latency("scan", &p.scans);
        report.latency("read", &p.reads);
        report.metric("throughput_ops_s", p.statements as f64 / p.secs, "1/s");
        durability_probe(run, &mut dur, report);
        report.metric("recovery_s", dur.recovery_s(), "s");
        report.metric("bytes_per_user_byte", dur.bytes_per_user_byte, "ratio");
        return;
    }

    spans.absorb(runner.spans);
    let rounds = p.traced_rounds.len() as f64;
    report_split(
        report,
        &p.round_split,
        rounds,
        rounds * QUERIES.len() as f64,
        &p.scan_split,
        p.traced_scans as f64,
        &p.rounds,
        &p.traced_rounds,
    );
    durability_probe(run, &mut dur, report);
    report.metric("recovery.replay_rows_per_s", dur.replay_rows_per_s(), "1/s");
}

#[cfg(test)]
mod tests {
    use super::*;
    use temporal_core::reference::evaluate_oracle;
    use temporal_core::semantics::TemporalOp;

    /// Each SQL query against the reduction-free oracle (and the
    /// reference splitter for the normalization) at a small size.
    #[test]
    fn the_four_queries_match_the_reference_oracle() {
        let data = generate(5, 40);
        let mut session = load(&data);
        let sql = |session: &mut Session, i: usize| {
            let rel = session.execute(QUERIES[i].1).unwrap().rows().unwrap();
            TemporalRelation::new(rel).unwrap()
        };
        let r = &data.r;
        let n_pcn = self_normalize_ref(r, &[1]).unwrap();
        assert!(sql(&mut session, 0).same_set(&n_pcn));

        let theta = Some(col(1).eq(col(5)));
        let o3 = evaluate_oracle(&TemporalOp::FullOuterJoin { theta }, &[r, r]).unwrap();
        let o3 = absorb(&o3.project_data(&[0, 2]).unwrap()).unwrap();
        assert!(sql(&mut session, 1).same_set(&o3));

        let agg = TemporalOp::Aggregation {
            group: vec![1],
            aggs: vec![(AggCall::count_star(), "cnt".to_string())],
        };
        assert!(sql(&mut session, 2).same_set(&evaluate_oracle(&agg, &[r]).unwrap()));

        let o1 = TemporalOp::LeftOuterJoin { theta: None };
        let o1 = evaluate_oracle(&o1, &[&data.d, &data.e]).unwrap();
        assert!(sql(&mut session, 3).same_set(&o1));
    }
}
