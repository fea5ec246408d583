//! `ingest`: a persisted database served by `Server::spawn` in this
//! process, with [`CLIENTS`] `Client` connections over loopback TCP.
//! Each client loops: three single-row `INSERT` commits, one point
//! `AS OF` read, and every [`LOOPS_PER_RANGE`]th loop one range window.
//! `server`, `store.wal` and heap appends do the work; `exec` and `plan`
//! are trivial. The benchmark sets no socket option: it measures the
//! server and client as they are.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use temporal_core::prelude::*;
use temporal_datasets::ddisj;
use temporal_engine::prelude::*;
use temporal_server::{Client, Response, Server, ServerHandle};
use temporal_sql::{parse_statement, Session, SqlOutput};

use crate::common::{
    check_config, count_rows, durability_probe, scratch_dir, timed_setup, Durability, Rng,
};
use crate::layers::{traced_select, Spans, Split};
use crate::stats::{mean, median, Latencies, Report, MIN_SAMPLES};
use crate::Run;

/// Client connections (this machine's core count).
pub const CLIENTS: usize = 2;
/// Inserts per client loop.
pub const INSERTS_PER_LOOP: usize = 3;
/// Client loops per range window.
pub const LOOPS_PER_RANGE: usize = 2;
/// Direct calls per layer in the traced run.
const DIRECT_CALLS: usize = 100;

struct Setup {
    db: Database,
    server: ServerHandle,
    dir: PathBuf,
    base_rows: usize,
}

fn setup(run: &Run, i: usize) -> Setup {
    let dir = scratch_dir(run, &format!("ingest{i}"));
    let db = Database::open(&dir).expect("open the ingest database");
    let base_rows = run.sizes.ingest_rows;
    db.register("d", &ddisj(base_rows).0).expect("persist d");
    let server = Server::bind(db.clone(), "127.0.0.1:0")
        .expect("bind a loopback port")
        .spawn();
    Setup {
        db,
        server,
        dir,
        base_rows,
    }
}

fn discard(s: Setup) {
    s.server.stop();
    let _ = s.db.close();
    drop(s.db);
    let _ = std::fs::remove_dir_all(&s.dir);
}

/// The timed phase's latency samples, shared by the client threads. A
/// traced run alternates cycles of [`LOOPS_PER_RANGE`] client loops,
/// traced and untraced, so both halves see the same stretch of the host;
/// untraced cycles give `inserts`, `reads` and `scans`, traced ones
/// `traced_inserts`.
#[derive(Default)]
struct Samples {
    inserts: Latencies,
    reads: Latencies,
    scans: Latencies,
    traced_inserts: Latencies,
}

/// What one client did in the timed phase: ops by type, and outcomes.
#[derive(Default)]
struct ClientOut {
    inserts: usize,
    reads: usize,
    scans: usize,
    acked: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    roundtrip_ns: u64,
    spans: Option<Spans>,
}

/// Rows of the base Ddisj table inside `ts < v + 30 AND te > v`
/// (inserted rows lie after the base table's time range).
fn base_window_count(base_rows: usize, v: i64) -> usize {
    (0..base_rows as i64)
        .filter(|i| 20 * i < v + 30 && 20 * i + 5 > v)
        .count()
}

/// One statement over the wire, with a span when `traced`. A `busy`
/// reply is retried and counted as a failed attempt.
fn execute(
    c: &mut Client,
    sql: &str,
    out: &mut ClientOut,
    traced: bool,
    stmt: u64,
    lane: u64,
) -> (Duration, Option<Response>) {
    loop {
        out.attempted += 1;
        let t = Instant::now();
        let resp = c.execute(sql);
        let end = Instant::now();
        let dt = end - t;
        out.roundtrip_ns += dt.as_nanos() as u64;
        if let Some(spans) = out.spans.as_mut().filter(|_| traced) {
            spans.record("server.roundtrip", t, end, None, stmt, lane);
        }
        match resp {
            Ok(Response::Error(msg)) if msg.contains("busy") || msg.contains("retry") => {
                out.failed += 1;
            }
            Ok(resp) => return (dt, Some(resp)),
            Err(e) => {
                out.failed += 1;
                out.failures.push(format!("{sql}: {e}"));
                return (dt, None);
            }
        }
    }
}

/// What every client loop shares.
#[derive(Clone, Copy)]
struct LoopSpec {
    seed: u64,
    base_rows: usize,
    until: Duration,
    trace: bool,
}

fn client_loop(addr: &str, client: usize, spec: LoopSpec, samples: &Mutex<Samples>) -> ClientOut {
    let LoopSpec {
        seed,
        base_rows,
        until,
        trace,
    } = spec;
    let record = |pick: fn(&mut Samples) -> &mut Latencies, dt| {
        pick(&mut samples.lock().expect("no client panicked while recording")).push(dt)
    };
    let mut out = ClientOut {
        spans: trace.then(|| Spans::new(Instant::now())),
        ..ClientOut::default()
    };
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.failures.push(format!("connect {addr}: {e}"));
            return out;
        }
    };
    let mut rng = Rng::new(seed, 100 + client as u64);
    let lane = client as u64 + 1;
    let start = Instant::now();
    let mut stmt = 0u64;
    let mut k = 0usize;
    let mut loops = 0usize;
    while start.elapsed() < until
        || out.reads < MIN_SAMPLES / CLIENTS
        || out.scans < MIN_SAMPLES / CLIENTS
    {
        let traced = trace && (loops / LOOPS_PER_RANGE) % 2 == 1;
        loops += 1;
        for _ in 0..INSERTS_PER_LOOP {
            // Slots after the base table's range, disjoint per client.
            let slot = (base_rows + CLIENTS * k + client) as i64;
            k += 1;
            let id = rng.below(1 << 40);
            let sql = format!(
                "INSERT INTO d VALUES ({id}, {}, {})",
                20 * slot,
                20 * slot + 5
            );
            stmt += 1;
            let (dt, resp) = execute(&mut c, &sql, &mut out, traced, stmt, lane);
            out.inserts += 1;
            if traced {
                record(|s| &mut s.traced_inserts, dt);
            } else {
                record(|s| &mut s.inserts, dt);
            }
            match resp {
                Some(Response::Affected(1)) => out.acked += 1,
                other => out.failures.push(format!("{sql}: {other:?}")),
            }
        }
        let i = rng.below(base_rows as u64) as i64;
        let sql = format!("SELECT * FROM d AS OF {}", 20 * i + 2);
        stmt += 1;
        let (dt, resp) = execute(&mut c, &sql, &mut out, traced, stmt, lane);
        out.reads += 1;
        if !traced {
            record(|s| &mut s.reads, dt);
        }
        let want = [
            i.to_string(),
            (20 * i).to_string(),
            (20 * i + 5).to_string(),
        ];
        match resp {
            Some(Response::Rows { rows, .. })
                if rows.len() == 1
                    && rows[0]
                        .iter()
                        .map(|v| v.clone().unwrap_or_default())
                        .eq(want.clone()) => {}
            other => out.failures.push(format!("{sql}: {other:?}")),
        }
        if loops.is_multiple_of(LOOPS_PER_RANGE) {
            let v = rng.below(20 * base_rows as u64 - 30) as i64;
            let sql = format!(
                "SELECT id, ts, te FROM d WHERE ts < {} AND te > {v}",
                v + 30
            );
            stmt += 1;
            let (dt, resp) = execute(&mut c, &sql, &mut out, traced, stmt, lane);
            out.scans += 1;
            if !traced {
                record(|s| &mut s.scans, dt);
            }
            let want = base_window_count(base_rows, v);
            match resp {
                Some(Response::Rows { rows, .. }) if rows.len() == want => {}
                other => out
                    .failures
                    .push(format!("{sql}: expected {want} rows, got {other:?}")),
            }
        }
    }
    let _ = c.quit();
    out
}

/// The timed phase: every client runs its loop for the run's length.
struct Phase {
    clients: Vec<ClientOut>,
    samples: Samples,
    secs: f64,
    wal: WalStats,
    statement_us: f64,
}

fn phase(s: &Setup, run: &Run, report: &mut Report) -> Phase {
    let wal0 = s.db.wal_stats().unwrap_or_default();
    let m0 = s.db.metrics_snapshot();
    let samples = Mutex::new(Samples::default());
    let start = Instant::now();
    let clients: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = s.server.addr().to_string();
                let spec = LoopSpec {
                    seed: run.seed,
                    base_rows: s.base_rows,
                    until: run.seconds,
                    trace: run.trace,
                };
                let samples = &samples;
                scope.spawn(move || client_loop(&addr, c, spec, samples))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let wal1 = s.db.wal_stats().unwrap_or_default();
    let hist =
        s.db.metrics_snapshot()
            .diff(&m0)
            .histograms
            .get("session.statement_us")
            .map_or((0, 1), |h| (h.sum, h.count.max(1)));
    let wal = WalStats {
        commits: wal1.commits - wal0.commits,
        syncs: wal1.syncs - wal0.syncs,
        bytes: wal1.bytes - wal0.bytes,
        checkpoints: wal1.checkpoints - wal0.checkpoints,
    };
    let acked: u64 = clients.iter().map(|c| c.acked).sum();
    for c in &clients {
        report.attempted += c.attempted;
        report.failed += c.failed;
        for f in &c.failures {
            report.check("ingest op", false, f);
        }
    }
    report.check(
        "wal.commits equals acknowledged inserts",
        wal.commits == acked,
        format!("{} commits, {acked} acknowledged", wal.commits),
    );
    report.check(
        "wal.syncs > 0",
        wal.syncs > 0,
        format!("{} syncs", wal.syncs),
    );
    Phase {
        clients,
        samples: samples
            .into_inner()
            .expect("no client panicked while recording"),
        secs,
        wal,
        statement_us: hist.0 as f64 / hist.1 as f64,
    }
}

impl Phase {
    fn acked(&self) -> u64 {
        self.clients.iter().map(|c| c.acked).sum()
    }

    /// The first insert slot after every slot the phase used.
    fn next_slot(&self) -> usize {
        let most = self.clients.iter().map(|c| c.inserts).max().unwrap_or(0);
        CLIENTS * (most + 1)
    }

    fn statements(&self) -> usize {
        let s = &self.samples;
        s.inserts.len() + s.reads.len() + s.scans.len()
    }
}

/// Crash the served database (leak the handle), reopen it, and check the
/// table holds exactly the base rows plus every acknowledged row.
fn crash_check(s: Setup, expected: usize, report: &mut Report) {
    s.server.stop();
    std::mem::forget(s.db);
    let db = Database::open(&s.dir).expect("reopen after the simulated crash");
    let rows = count_rows(&db, "d");
    report.check(
        "crash keeps every acknowledged insert",
        rows == Ok(expected as i64),
        format!("{rows:?} rows after reopen, expected {expected}"),
    );
    let _ = db.close();
    drop(db);
    let _ = std::fs::remove_dir_all(&s.dir);
}

/// A single-row INSERT statement for `slot`, and its row.
fn insert_at(rng: &mut Rng, slot: usize) -> (String, Row) {
    let (id, ts) = (rng.below(1 << 40) as i64, 20 * slot as i64);
    let sql = format!("INSERT INTO d VALUES ({id}, {ts}, {})", ts + 5);
    let row = Row::new(vec![Value::Int(id), Value::Int(ts), Value::Int(ts + 5)]);
    (sql, row)
}

pub fn run(run: &Run, report: &mut Report, spans: &mut Spans) {
    let (s, setup_s) = timed_setup(&run.sizes, |i| setup(run, i), discard);
    report.metric("setup_s", setup_s, "s");
    check_config(&s.db, report);
    let mut dur = Durability::default();
    durability_probe(run, &mut dur, report);
    let mut p = phase(&s, run, report);
    let mut expected = s.base_rows + p.acked() as usize;
    if !run.trace {
        report.latency("latency", &p.samples.inserts);
        report.latency("scan", &p.samples.scans);
        report.latency("read", &p.samples.reads);
        report.metric("throughput_ops_s", p.statements() as f64 / p.secs, "1/s");
        crash_check(s, expected, report);
        durability_probe(run, &mut dur, report);
        report.metric("recovery_s", dur.recovery_s(), "s");
        report.metric("bytes_per_user_byte", dur.bytes_per_user_byte, "ratio");
        return;
    }

    // Server side against client side, over every statement of the phase
    // (the histogram counts them all).
    let round_trips: u64 = p.clients.iter().map(|c| c.attempted).sum();
    let roundtrip_ns: u64 = p.clients.iter().map(|c| c.roundtrip_ns).sum();
    let roundtrip_us = roundtrip_ns as f64 / round_trips as f64 / 1e3;
    report.metric("server.roundtrip_us", roundtrip_us, "us");
    report.metric("server.statement_us", p.statement_us, "us");
    report.metric("server.wire_wait_us", roundtrip_us - p.statement_us, "us");
    let commits = p.wal.commits as f64;
    report.metric(
        "store.wal.fsyncs_per_commit",
        p.wal.syncs as f64 / commits,
        "ratio",
    );
    report.metric(
        "store.wal.bytes_per_commit",
        p.wal.bytes as f64 / commits,
        "B",
    );
    for c in &mut p.clients {
        if let Some(client_spans) = c.spans.take() {
            spans.absorb(client_spans);
        }
    }

    // Direct calls under the wire: the INSERT statement as the server's
    // session runs it, its parse, and its `Database::insert_rows` commit;
    // then the point read run layer by layer.
    let mut rng = Rng::new(run.seed, 3);
    let (mut statement_us, mut parse_us, mut insert_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut session = Session::scoped(s.db.clone());
    let mut slot = s.base_rows + p.next_slot();
    for _ in 0..DIRECT_CALLS {
        let (sql, _) = insert_at(&mut rng, slot);
        let t0 = Instant::now();
        let n = session.execute(&sql);
        statement_us.push(t0.elapsed().as_secs_f64() * 1e6);
        report.check(
            "direct INSERT",
            matches!(n, Ok(SqlOutput::Affected(1))),
            format!("{n:?}"),
        );
        let (sql, row) = insert_at(&mut rng, slot + 1);
        slot += 2;
        let t0 = Instant::now();
        let parsed = parse_statement(&sql);
        parse_us.push(t0.elapsed().as_secs_f64() * 1e6);
        report.check("parse insert", parsed.is_ok(), &sql);
        let t0 = Instant::now();
        let n = s.db.insert_rows("d", vec![row]);
        insert_us.push(t0.elapsed().as_secs_f64() * 1e6);
        report.check("direct insert", matches!(n, Ok(1)), format!("{n:?}"));
        report.attempted += 2;
    }
    drop(session);
    expected += 2 * DIRECT_CALLS;
    report.metric("store.insert_us", mean(&insert_us), "us");
    let mut split = Split::default();
    let mut stmt = 1_000_000u64;
    for _ in 0..DIRECT_CALLS {
        let i = rng.below(s.base_rows as u64) as i64;
        let sql = format!("SELECT * FROM d AS OF {}", 20 * i + 2);
        stmt += 1;
        match traced_select(&s.db, &sql, spans, stmt, 0) {
            Ok((rel, one)) => {
                report.check("direct point", rel.len() == 1, &sql);
                split.add(&one);
            }
            Err(e) => report.check("direct point", false, e),
        }
        report.attempted += 1;
    }
    let n = DIRECT_CALLS as f64;
    report.metric("sql.parse_us", split.parse_ns as f64 / n / 1e3, "us");
    report.metric("sql.analyze_us", split.analyze_ns as f64 / n / 1e3, "us");
    report.metric("plan.plan_us", split.plan_ns as f64 / n / 1e3, "us");
    report.metric("exec.collect_us", split.collect_ns as f64 / n / 1e3, "us");
    report.metric(
        "exec.pages_read_per_op",
        split.pages_read as f64 / n,
        "count",
    );
    report.metric(
        "exec.pages_skipped_per_op",
        split.pages_skipped as f64 / n,
        "count",
    );

    // An INSERT's wire wait is its traced round trip less the time the
    // server's session takes for it; the rest is attributed to the parse
    // and the commit.
    let base_p50 = p.samples.inserts.p50();
    let traced_p50 = p.samples.traced_inserts.p50();
    report.metric("trace.overhead_frac", traced_p50 / base_p50 - 1.0, "frac");
    let insert_wire_us = traced_p50 * 1e3 - median(&statement_us);
    let attributed_ms = (insert_wire_us + median(&parse_us) + median(&insert_us)) / 1e3;
    report.metric(
        "trace.unattributed_frac",
        1.0 - attributed_ms / base_p50,
        "frac",
    );
    crash_check(s, expected, report);
    durability_probe(run, &mut dur, report);
    report.metric("recovery.replay_rows_per_s", dur.replay_rows_per_s(), "1/s");
}
