//! The serving loop: one shared [`Database`], one [`Session`] per
//! connection.
//!
//! The server binds either a TCP address (`host:port`) or — when the
//! address contains a `/` — a Unix-domain socket path. Each accepted
//! connection gets its own OS thread and its own [`Session::scoped`]:
//! planner `SET`s are connection-local, the session counts itself in
//! [`Database::open_sessions`] (so a concurrent `close()` or `Drop`
//! never tears the buffer pools out from under a live connection), and
//! all statements execute against the one shared catalog, buffer pool
//! and WAL.
//!
//! Concurrency comes from the layers below, not from the server:
//! readers run against statement-level heap snapshots and never take the
//! writer lock; writers serialize on the database writer mutex and batch
//! their WAL fsyncs through the group-commit flusher. The server itself
//! holds no locks across statements.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use temporal_core::prelude::Database;
use temporal_engine::prelude::{Column, DataType, Relation, Row, Schema, Value};
use temporal_sql::{Session, SqlOutput};

use crate::protocol;

/// Longest request line the server accepts, in bytes (newline excluded).
/// A longer request is answered with an in-band `ERR` and the connection
/// is closed, so a client that streams bytes without a newline cannot
/// grow server memory without bound.
pub const MAX_REQUEST_BYTES: usize = 16 << 20;

/// Does `addr` name a Unix-domain socket (any address containing `/`)?
pub fn is_unix_addr(addr: &str) -> bool {
    addr.contains('/')
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

/// A bound, not-yet-running server. Call [`Server::serve`] to accept
/// connections (blocking), or [`Server::spawn`] to run it on a
/// background thread and keep a [`ServerHandle`] for shutdown.
pub struct Server {
    listener: Listener,
    db: Database,
    addr: String,
    stop: Arc<AtomicBool>,
}

/// Shutdown handle for a spawned server: [`ServerHandle::stop`] makes
/// the accept loop exit after at most one more connection.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: String,
    stop: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The concrete address the server listens on (the resolved port for
    /// `host:0` TCP binds, the path for Unix sockets).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Ask the accept loop to exit. Existing connections finish their
    /// current statement stream; the listener stops taking new ones.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        // Poke the listener so a blocked `accept` returns.
        if is_unix_addr(&self.addr) {
            let _ = UnixStream::connect(&self.addr);
        } else {
            let _ = TcpStream::connect(&self.addr);
        }
    }
}

impl Server {
    /// Bind `addr` (TCP `host:port`, or a Unix socket path if it
    /// contains `/`) over the shared database. A stale socket file from
    /// a previous run is removed before binding.
    pub fn bind(db: Database, addr: &str) -> std::io::Result<Server> {
        if is_unix_addr(addr) {
            let path = PathBuf::from(addr);
            // Best-effort cleanup of a leftover socket file; bind reports
            // the real error if the path is genuinely busy.
            let _ = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path)?;
            Ok(Server {
                listener: Listener::Unix(listener, path.clone()),
                db,
                addr: path.display().to_string(),
                stop: Arc::new(AtomicBool::new(false)),
            })
        } else {
            let listener = TcpListener::bind(addr)?;
            let addr = listener.local_addr()?.to_string();
            Ok(Server {
                listener: Listener::Tcp(listener),
                db,
                addr,
                stop: Arc::new(AtomicBool::new(false)),
            })
        }
    }

    /// The concrete bound address (see [`ServerHandle::addr`]).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// A shutdown handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr.clone(),
            stop: Arc::clone(&self.stop),
        }
    }

    /// Accept connections until [`ServerHandle::stop`] is called,
    /// spawning one session thread per connection.
    pub fn serve(self) -> std::io::Result<()> {
        match self.listener {
            Listener::Tcp(listener) => {
                for stream in listener.incoming() {
                    if self.stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let db = self.db.clone();
                    thread::spawn(move || {
                        if let Ok(peer) = stream.try_clone() {
                            let _ = serve_connection(
                                Session::scoped(db),
                                BufReader::new(peer),
                                BufWriter::new(stream),
                            );
                        }
                    });
                }
            }
            Listener::Unix(listener, path) => {
                for stream in listener.incoming() {
                    if self.stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let db = self.db.clone();
                    thread::spawn(move || {
                        if let Ok(peer) = stream.try_clone() {
                            let _ = serve_connection(
                                Session::scoped(db),
                                BufReader::new(peer),
                                BufWriter::new(stream),
                            );
                        }
                    });
                }
                let _ = std::fs::remove_file(&path);
            }
        }
        Ok(())
    }

    /// Run the accept loop on a background thread; returns the shutdown
    /// handle. Used by tests and by `tsql --serve` under the hood.
    pub fn spawn(self) -> ServerHandle {
        let handle = self.handle();
        thread::spawn(move || {
            let _ = self.serve();
        });
        handle
    }
}

/// Build the server's `.stats` result: one `(name, value)` row per
/// metric. Counters and gauges come from one [`Database::metrics_snapshot`]
/// (which polls the buffer pools and the WAL into `pool.*` / `wal.*`
/// gauges); the derived ratios — group-commit fsyncs-per-commit and
/// buffer-pool hit rate — and the statement-latency percentiles
/// (`session.statement_us.p50_us` …) are appended after it.
pub fn stats_relation(db: &Database) -> Relation {
    let snap = db.metrics_snapshot();
    let mut pairs: Vec<(String, String)> = Vec::new();
    pairs.push(("active_sessions".into(), db.open_sessions().to_string()));
    for (k, v) in &snap.counters {
        pairs.push((k.clone(), v.to_string()));
    }
    for (k, v) in &snap.gauges {
        pairs.push((k.clone(), v.to_string()));
    }
    if let Some(wal) = db.wal_stats() {
        pairs.push((
            "wal.group_commit_ratio".into(),
            format!("{:.3}", wal.group_commit_ratio()),
        ));
    }
    if let Some(pool) = db.pool_stats() {
        pairs.push(("pool.hit_rate".into(), format!("{:.3}", pool.hit_rate())));
    }
    let pct = |p: Option<u64>| p.map_or("-".to_string(), |v| v.to_string());
    for (k, h) in &snap.histograms {
        pairs.push((format!("{k}.count"), h.count.to_string()));
        pairs.push((format!("{k}.p50"), pct(h.p50)));
        pairs.push((format!("{k}.p95"), pct(h.p95)));
        pairs.push((format!("{k}.p99"), pct(h.p99)));
    }
    let schema = Schema::new(vec![
        Column::new("name", DataType::Str),
        Column::new("value", DataType::Str),
    ]);
    let rows = pairs
        .into_iter()
        .map(|(n, v)| Row::new(vec![Value::str(n), Value::str(v)]))
        .collect();
    Relation::new(schema, rows).expect("stats relation is well-formed")
}

/// One request read off the wire by [`read_request`].
enum Request {
    Line(String),
    TooLong,
    Eof,
}

/// Read one `\n`-terminated request line (a trailing `\r` is dropped, as
/// `BufRead::lines` does), buffering at most [`MAX_REQUEST_BYTES`]: a
/// longer line yields [`Request::TooLong`] without reading further. A
/// final line without a newline still counts as a request.
fn read_request<R: BufRead>(reader: &mut R) -> std::io::Result<Request> {
    let mut buf = Vec::new();
    let limit = MAX_REQUEST_BYTES as u64 + 1;
    if reader.take(limit).read_until(b'\n', &mut buf)? == 0 {
        return Ok(Request::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_REQUEST_BYTES {
        return Ok(Request::TooLong);
    }
    String::from_utf8(buf)
        .map(Request::Line)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Drive one connection: read a statement per line, execute it on the
/// connection's session, write one framed response. Lines starting with
/// `.` are server commands (currently `.stats`); everything else is SQL.
/// Errors are reported in-band as `ERR …`; only I/O failures and an
/// over-long request (see [`MAX_REQUEST_BYTES`]) end the loop early.
fn serve_connection<R: BufRead, W: Write>(
    mut session: Session,
    mut reader: R,
    mut writer: W,
) -> std::io::Result<()> {
    session
        .database()
        .metrics()
        .counter("server.connections")
        .inc();
    let statements = session.database().metrics().counter("server.statements");
    loop {
        let line = match read_request(&mut reader)? {
            Request::Line(line) => line,
            Request::Eof => break,
            Request::TooLong => {
                protocol::write_error(
                    &mut writer,
                    &format!("request exceeds {MAX_REQUEST_BYTES} bytes; closing the connection"),
                )?;
                writer.flush()?;
                break;
            }
        };
        let stmt = line.trim();
        if stmt.is_empty() {
            continue;
        }
        if stmt == "\\q" {
            break;
        }
        if let Some(cmd) = stmt.strip_prefix('.') {
            match cmd.split_whitespace().next() {
                Some("stats") => {
                    let rel = stats_relation(session.database());
                    protocol::write_output(&mut writer, &SqlOutput::Rows(rel))?;
                }
                _ => protocol::write_error(
                    &mut writer,
                    &format!("unknown server command .{cmd} (supported: .stats)"),
                )?,
            }
            writer.flush()?;
            continue;
        }
        let stmt = stmt.trim_end_matches(';').trim();
        statements.inc();
        match session.execute(stmt) {
            Ok(out) => protocol::write_output(&mut writer, &out)?,
            Err(e) => protocol::write_error(&mut writer, &e.to_string())?,
        }
        writer.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::Response;

    #[test]
    fn tcp_server_round_trip() {
        let db = Database::default();
        let server = Server::bind(db, "127.0.0.1:0").expect("bind");
        let addr = server.addr().to_string();
        let handle = server.spawn();

        let mut c = Client::connect(&addr).expect("connect");
        assert_eq!(
            c.execute("CREATE TABLE t (name str, ts int, te int)")
                .unwrap(),
            Response::Ok
        );
        assert_eq!(
            c.execute("INSERT INTO t VALUES ('ann', 0, 7), ('joe', 1, 5);")
                .unwrap(),
            Response::Affected(2)
        );
        match c.execute("SELECT name FROM t ORDER BY name").unwrap() {
            Response::Rows { columns, rows } => {
                assert_eq!(columns, vec!["name"]);
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][0].as_deref(), Some("ann"));
            }
            other => panic!("expected rows, got {other:?}"),
        }
        match c.execute("SELECT nope FROM t").unwrap() {
            Response::Error(msg) => assert!(!msg.is_empty(), "error should carry a message"),
            other => panic!("expected error, got {other:?}"),
        }
        handle.stop();
    }

    #[test]
    fn unix_socket_server_round_trip() {
        let dir = std::env::temp_dir().join(format!("tsql-sock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("db.sock");
        let addr = sock.display().to_string();
        assert!(is_unix_addr(&addr));

        let db = Database::default();
        let handle = Server::bind(db, &addr).expect("bind unix").spawn();
        let mut c = Client::connect(&addr).expect("connect unix");
        assert_eq!(
            c.execute("CREATE TABLE u (x int, ts int, te int)").unwrap(),
            Response::Ok
        );
        assert_eq!(
            c.execute("INSERT INTO u VALUES (1, 0, 2)").unwrap(),
            Response::Affected(1)
        );
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn over_long_request_gets_err_and_close() {
        let db = Database::default();
        let handle = Server::bind(db, "127.0.0.1:0").expect("bind").spawn();
        let addr = handle.addr().to_string();

        // One byte past the limit, no newline: the server must answer
        // in-band and hang up rather than keep buffering.
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1]).unwrap();
        let mut reply = String::new();
        raw.read_to_string(&mut reply).unwrap(); // returns at EOF
        assert!(reply.starts_with("ERR "), "got {reply:?}");
        assert!(reply.contains("exceeds"), "got {reply:?}");
        assert_eq!(reply.lines().count(), 1, "one response, then EOF");

        // The server keeps serving other connections.
        let mut c = Client::connect(&addr).unwrap();
        assert_eq!(
            c.execute("CREATE TABLE t (x int, ts int, te int)").unwrap(),
            Response::Ok
        );
        assert_eq!(
            c.execute("INSERT INTO t VALUES (1, 0, 2)").unwrap(),
            Response::Affected(1)
        );
        handle.stop();
    }

    #[test]
    fn request_lines_are_split_and_bounded() {
        let mut input: &[u8] = b"SELECT 1;\r\n\nlast";
        let mut lines = Vec::new();
        loop {
            match read_request(&mut input).unwrap() {
                Request::Line(l) => lines.push(l),
                Request::Eof => break,
                Request::TooLong => panic!("short lines are never too long"),
            }
        }
        assert_eq!(lines, vec!["SELECT 1;", "", "last"]);
        let exact = vec![b'y'; MAX_REQUEST_BYTES];
        assert!(matches!(
            read_request(&mut &exact[..]).unwrap(),
            Request::Line(l) if l.len() == MAX_REQUEST_BYTES
        ));
        let over = vec![b'y'; MAX_REQUEST_BYTES + 1];
        assert!(matches!(
            read_request(&mut &over[..]).unwrap(),
            Request::TooLong
        ));
    }

    #[test]
    fn sessions_do_not_share_planner_sets() {
        let db = Database::default();
        let handle = Server::bind(db, "127.0.0.1:0").expect("bind").spawn();
        let addr = handle.addr().to_string();

        let mut a = Client::connect(&addr).unwrap();
        let mut b = Client::connect(&addr).unwrap();
        assert_eq!(
            a.execute("SET enable_mergejoin = off").unwrap(),
            Response::Ok
        );
        // A planner SET on a scoped session lands in the per-connection
        // overlay, so b keeps the shared default and both keep working.
        assert_eq!(
            b.execute("SET enable_mergejoin = on").unwrap(),
            Response::Ok
        );
        match a.execute("SET not_a_guc = on").unwrap() {
            Response::Error(msg) => assert!(msg.contains("not_a_guc")),
            other => panic!("expected error, got {other:?}"),
        }
        handle.stop();
    }
}
