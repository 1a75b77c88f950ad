//! End-to-end tests against a live `scanbistd` on an ephemeral port:
//! happy-path NDJSON batches, bounded-queue backpressure (429),
//! deadline expiry (504), drain semantics (/readyz flip + 503), and
//! deterministic chaos injection.
//!
//! The daemon publishes readiness through process-global scan-obs
//! state, so every test serializes on [`lock`].

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use scan_daemon::{ChaosConfig, Daemon, DaemonConfig};

fn lock() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn lines(&self) -> Vec<&str> {
        self.body.lines().filter(|l| !l.trim().is_empty()).collect()
    }
}

fn roundtrip(addr: std::net::SocketAddr, raw: &str) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("send");
    let mut buffer = Vec::new();
    stream.read_to_end(&mut buffer).expect("read");
    let text = String::from_utf8_lossy(&buffer).into_owned();
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in: {text:?}"));
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {status_line}"));
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
        .collect();
    Reply {
        status,
        headers,
        body: body.to_owned(),
    }
}

fn post_diagnose(addr: std::net::SocketAddr, ndjson: &str) -> Reply {
    let raw = format!(
        "POST /diagnose HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
        ndjson.len(),
        ndjson
    );
    roundtrip(addr, &raw)
}

fn get(addr: std::net::SocketAddr, path: &str) -> Reply {
    roundtrip(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

/// One valid request line against the tiny s27 circuit (4 scan
/// cells): partition 0 reports group 1 failing, the rest pass.
fn s27_line(id: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"circuit\":\"s27\",\"groups\":2,\"partitions\":3,\
         \"patterns\":16,\"failing\":[[1],[],[]]}}"
    )
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\":");
    let rest = &line[line.find(&marker)? + marker.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

#[test]
fn happy_path_batch_returns_ranked_candidates() {
    let _gate = lock();
    let daemon = Daemon::start(DaemonConfig::default()).expect("start");
    let addr = daemon.addr();

    let batch = format!("{}\n{}\n", s27_line("a"), s27_line("b"));
    let reply = post_diagnose(addr, &batch);
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    assert_eq!(
        reply.header("content-type"),
        Some("application/x-ndjson"),
        "NDJSON content type"
    );
    assert!(reply.header("x-scanbist-trace").is_some(), "trace id header");
    let lines = reply.lines();
    assert_eq!(lines.len(), 2, "one response line per request line");
    for line in &lines {
        assert_eq!(field(line, "status"), Some("ok"), "line: {line}");
        assert!(line.contains("\"candidates\":["), "line: {line}");
        assert_eq!(field(line, "cells"), Some("4"), "s27 scan view has 4 cells");
    }
    // Request ids round-trip in order.
    assert_eq!(field(lines[0], "id"), Some("a"));
    assert_eq!(field(lines[1], "id"), Some("b"));

    daemon.shutdown();
}

#[test]
fn obs_routes_and_statz_are_mounted() {
    let _gate = lock();
    let daemon = Daemon::start(DaemonConfig::default()).expect("start");
    let addr = daemon.addr();

    assert_eq!(get(addr, "/healthz").status, 200);
    assert_eq!(get(addr, "/readyz").status, 200, "ready while serving");
    assert_eq!(get(addr, "/metrics").status, 200);
    let statz = get(addr, "/statz");
    assert_eq!(statz.status, 200);
    assert!(statz.body.contains("\"queue_depth\""), "{}", statz.body);
    assert!(statz.body.contains("\"queue_capacity\""), "{}", statz.body);
    assert_eq!(get(addr, "/nope").status, 404);

    // Wrong methods on the two POST routes.
    let bad = roundtrip(addr, "PUT /diagnose HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(bad.status, 405);

    daemon.shutdown();
}

#[test]
fn malformed_lines_get_error_lines_not_connection_drops() {
    let _gate = lock();
    let daemon = Daemon::start(DaemonConfig::default()).expect("start");
    let addr = daemon.addr();

    // Line 1 is valid, line 2 is garbage, line 3 references a circuit
    // that does not exist.
    let batch = format!(
        "{}\nnot json at all\n{{\"id\":\"c\",\"circuit\":\"sNOPE\",\"groups\":2,\
         \"partitions\":3,\"patterns\":16,\"failing\":[[1],[],[]]}}\n",
        s27_line("a")
    );
    let reply = post_diagnose(addr, &batch);
    assert_eq!(reply.status, 200, "batch survives bad lines: {}", reply.body);
    let lines = reply.lines();
    assert_eq!(lines.len(), 3);
    assert_eq!(field(lines[0], "status"), Some("ok"));
    assert_eq!(field(lines[1], "status"), Some("error"));
    assert_eq!(field(lines[2], "status"), Some("error"));
    assert_eq!(field(lines[2], "id"), Some("c"), "id echoes even on error");
    assert_eq!(field(lines[2], "code"), Some("unknown-circuit"));

    // An empty batch is a request-level 400.
    assert_eq!(post_diagnose(addr, "\n\n").status, 400);

    daemon.shutdown();
}

#[test]
fn more_groups_than_cells_is_a_bad_plan_not_a_worker_panic() {
    let _gate = lock();
    let daemon = Daemon::start(DaemonConfig::default()).expect("start");
    let addr = daemon.addr();

    // s27's scan view has 4 cells; 8 groups cannot be formed.
    let line = "{\"id\":\"g\",\"circuit\":\"s27\",\"groups\":8,\"partitions\":3,\
                \"patterns\":16,\"failing\":[[1],[],[]]}\n";
    let reply = post_diagnose(addr, line);
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    let lines = reply.lines();
    assert_eq!(lines.len(), 1);
    assert_eq!(field(lines[0], "status"), Some("error"), "{}", lines[0]);
    assert_eq!(field(lines[0], "code"), Some("bad-plan"), "{}", lines[0]);
    assert_eq!(field(lines[0], "http"), Some("400"), "{}", lines[0]);
    // The daemon still serves a valid request afterwards.
    let ok = post_diagnose(addr, &format!("{}\n", s27_line("after")));
    assert_eq!(field(ok.lines()[0], "status"), Some("ok"), "{}", ok.body);

    daemon.shutdown();
}

#[test]
fn full_queue_sheds_the_batch_with_429_and_retry_after() {
    let _gate = lock();
    let daemon = Daemon::start(DaemonConfig {
        workers: 1,
        queue_capacity: 2,
        default_deadline_ms: 30_000,
        ..DaemonConfig::default()
    })
    .expect("start");
    let addr = daemon.addr();

    // One batch with more lines than the queue can hold, against a
    // circuit whose first plan build pins the single worker long
    // enough for admission to hit the bound.
    let mut batch = String::new();
    for i in 0..8 {
        batch.push_str(&format!(
            "{{\"id\":\"q{i}\",\"circuit\":\"s953\",\"groups\":8,\"partitions\":6,\
             \"patterns\":64,\"failing\":[[1],[2],[],[],[],[]]}}\n"
        ));
    }
    let reply = post_diagnose(addr, &batch);
    assert_eq!(reply.status, 429, "body: {}", reply.body);
    assert_eq!(reply.header("retry-after"), Some("1"), "shed says when to retry");
    assert!(reply.body.contains("queue-full"), "{}", reply.body);

    // The daemon is still healthy afterwards: a small batch succeeds.
    let ok = post_diagnose(addr, &format!("{}\n", s27_line("after")));
    assert_eq!(ok.status, 200, "body: {}", ok.body);

    daemon.shutdown();
}

#[test]
fn expired_deadline_returns_504_and_cancels_work() {
    let _gate = lock();
    let daemon = Daemon::start(DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    })
    .expect("start");
    let addr = daemon.addr();

    // deadline_ms=1 cannot cover a cold plan build of the largest
    // circuit (s953's now takes about 1 ms, too close to the deadline).
    let batch = "{\"id\":\"late\",\"circuit\":\"s38417\",\"groups\":8,\"partitions\":6,\
                 \"patterns\":64,\"deadline_ms\":1,\"failing\":[[1],[2],[],[],[],[]]}\n";
    let reply = post_diagnose(addr, batch);
    assert_eq!(reply.status, 504, "body: {}", reply.body);
    assert!(reply.body.contains("deadline"), "{}", reply.body);
    assert!(reply.header("x-scanbist-trace").is_some());

    daemon.shutdown();
}

#[test]
fn drain_flips_readyz_sheds_new_work_and_exits_cleanly() {
    let _gate = lock();
    let daemon = Daemon::start(DaemonConfig {
        drain_ms: 2_000,
        ..DaemonConfig::default()
    })
    .expect("start");
    let addr = daemon.addr();
    assert_eq!(get(addr, "/readyz").status, 200);

    let drain = roundtrip(
        addr,
        "POST /admin/drain HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(drain.status, 200);
    assert!(drain.body.contains("draining"), "{}", drain.body);

    // Readiness goes false immediately; new diagnosis work is shed
    // with a retryable 503.
    assert_eq!(get(addr, "/readyz").status, 503, "draining is not ready");
    let shed = post_diagnose(addr, &format!("{}\n", s27_line("x")));
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("retry-after"), Some("1"));

    // wait() observes the drain request and joins everything.
    daemon.wait();
}

#[test]
fn chaos_injections_are_labeled_and_contained() {
    let _gate = lock();
    // latency=1.0 and panic=1.0 fire on every request: the response
    // carries the chaos header, and the injected worker panic becomes
    // a line-level `injected-panic` error inside an HTTP 200 — never
    // a crash, never an unlabeled 5xx.
    let chaos = ChaosConfig::parse("seed=11,latency=1.0,latency_ms=1,panic=1.0")
        .expect("valid chaos spec");
    let daemon = Daemon::start(DaemonConfig {
        chaos: Some(chaos),
        ..DaemonConfig::default()
    })
    .expect("start");
    let addr = daemon.addr();

    let batch = format!("{}\n{}\n", s27_line("a"), s27_line("b"));
    let reply = post_diagnose(addr, &batch);
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    let chaos_header = reply.header("x-scanbist-chaos").expect("chaos header");
    assert!(chaos_header.contains("latency"), "{chaos_header}");
    let lines = reply.lines();
    assert_eq!(lines.len(), 2);
    // Exactly one injected panic per batch: the first job dies with a
    // labeled error, the second still completes.
    assert_eq!(field(lines[0], "status"), Some("error"));
    assert_eq!(field(lines[0], "code"), Some("injected-panic"));
    assert_eq!(field(lines[1], "status"), Some("ok"), "line: {}", lines[1]);

    daemon.shutdown();
}
