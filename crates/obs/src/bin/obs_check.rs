//! `obs-check` — validates observability export files.
//!
//! Usage: `obs-check <file>…` where each file is one of
//!
//! * an NDJSON stream (`.ndjson`), checked record by record and as a
//!   whole by [`scan_obs::schema::check_stream`];
//! * a collapsed-stack profile (`.folded`, or any non-JSON text):
//!   every line must be `frame[;frame…] <count>`;
//! * a JSON document: the daemon goodput document when it has a
//!   `scenarios` member, a metrics snapshot otherwise.
//!
//! Record and document shapes live in `scan_obs::schema`, the one
//! table the emitters' tests check against too.
//!
//! Two extra modes:
//!
//! * `obs-check --join <trace.ndjson>…` — verifies a *merged
//!   multi-process trace*: every stream shares one trace id, exactly
//!   one stream is the root (no `parent_span`), and every other
//!   stream's `parent_span` resolves to a span recorded in another
//!   stream reachable from the root (no orphans, no cycles).
//! * `obs-check --scrape <host:port>` — a std-only HTTP client for the
//!   live `--serve-metrics` endpoint: GETs `/healthz`, `/metrics`
//!   (validated as Prometheus text exposition), `/metrics.json` and
//!   `/alerts.json`.
//!
//! Exits nonzero with a message on the first failure.

use std::process::ExitCode;

use scan_obs::json::{parse, Value};
use scan_obs::schema;

fn check_ndjson(path: &str, text: &str) -> Result<Vec<Value>, String> {
    let records = schema::check_stream(text).map_err(|e| format!("{path}: {e}"))?;
    let count = |kinds: &[&str]| {
        records
            .iter()
            .filter(|r| {
                r.get("type")
                    .and_then(Value::as_str)
                    .is_some_and(|k| kinds.contains(&k))
            })
            .count()
    };
    eprintln!(
        "obs-check: {path}: {} event(s), {} span(s), {} fault audit(s), \
         {} recovery event(s), {} lint finding(s), {} alert(s), \
         {} series, {} context(s) OK",
        records.len(),
        count(&["span"]),
        count(&["fault"]),
        count(&["retry", "vote", "fallback"]),
        count(&["finding"]),
        count(&["alert"]),
        count(&["ts"]),
        count(&["context"]),
    );
    Ok(records)
}

fn check_folded(path: &str, text: &str) -> Result<(), String> {
    let lines = scan_obs::profile::check_folded(text).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("obs-check: {path}: folded profile OK ({lines} stack(s))");
    Ok(())
}

fn check_document(path: &str, doc: &schema::Document, value: &Value) -> Result<(), String> {
    doc.check(value).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("obs-check: {path}: {} OK", doc.name);
    Ok(())
}

fn check(path: &str) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    if path.ends_with(".ndjson") {
        return check_ndjson(path, &text).map(drop);
    }
    if path.ends_with(".folded") {
        return check_folded(path, &text);
    }
    // Dispatch the rest on content: JSON documents are either a daemon
    // goodput document (`scenarios`) or a metrics snapshot; anything
    // that is not JSON is expected to be a collapsed-stack profile.
    if text.trim_start().starts_with('{') {
        let value = parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let doc = if value.get("scenarios").is_some() {
            &schema::DAEMON_BENCH
        } else {
            &schema::METRICS
        };
        return check_document(path, doc, &value);
    }
    check_folded(path, &text)
}

/// One parsed per-process stream in a `--join` set.
struct JoinStream {
    path: String,
    trace_id: Option<String>,
    parent_span: Option<String>,
    process: String,
    span_paths: std::collections::BTreeSet<String>,
}

fn load_join_stream(path: &str) -> Result<JoinStream, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    // Full per-stream validation first, so join errors are about the
    // join, not about malformed lines.
    let records = check_ndjson(path, &text)?;
    let mut stream = JoinStream {
        path: path.to_owned(),
        trace_id: None,
        parent_span: None,
        process: path.to_owned(),
        span_paths: std::collections::BTreeSet::new(),
    };
    for value in &records {
        match value.get("type").and_then(Value::as_str) {
            Some("context") => {
                stream.trace_id = value
                    .get("trace_id")
                    .and_then(Value::as_str)
                    .map(str::to_owned);
                stream.parent_span = value
                    .get("parent_span")
                    .and_then(Value::as_str)
                    .map(str::to_owned);
                if let Some(process) = value.get("process").and_then(Value::as_str) {
                    stream.process = process.to_owned();
                }
            }
            Some("span") => {
                if let Some(span_path) = value.get("path").and_then(Value::as_str) {
                    stream.span_paths.insert(span_path.to_owned());
                }
            }
            _ => {}
        }
    }
    Ok(stream)
}

/// Verifies a merged multi-process trace: one shared trace id, exactly
/// one root stream, and every child's `parent_span` resolving to a
/// span in another stream reachable from the root.
fn check_join(paths: &[String]) -> Result<(), String> {
    if paths.len() < 2 {
        return Err("--join needs at least 2 trace streams".to_owned());
    }
    let streams = paths
        .iter()
        .map(|p| load_join_stream(p))
        .collect::<Result<Vec<_>, _>>()?;
    let trace_id = streams[0]
        .trace_id
        .clone()
        .ok_or_else(|| format!("{}: no context record (no trace id)", streams[0].path))?;
    for s in &streams {
        match &s.trace_id {
            None => return Err(format!("{}: no context record (no trace id)", s.path)),
            Some(id) if *id == trace_id => {}
            Some(id) => {
                return Err(format!(
                    "{}: trace id `{id}` does not match `{trace_id}`",
                    s.path
                ))
            }
        }
    }
    let roots: Vec<usize> = (0..streams.len())
        .filter(|&i| streams[i].parent_span.is_none())
        .collect();
    let [root] = roots.as_slice() else {
        return Err(format!(
            "want exactly 1 root stream (no parent_span), found {}",
            roots.len()
        ));
    };
    // Attach each child to the stream that recorded its parent span.
    let mut parent_of: Vec<Option<usize>> = vec![None; streams.len()];
    for (i, s) in streams.iter().enumerate() {
        let Some(parent_span) = &s.parent_span else {
            continue;
        };
        let owner = (0..streams.len())
            .find(|&j| j != i && streams[j].span_paths.contains(parent_span));
        match owner {
            Some(j) => parent_of[i] = Some(j),
            None => {
                return Err(format!(
                    "{}: orphan: parent span `{parent_span}` not recorded by any other stream",
                    s.path
                ))
            }
        }
    }
    // Every stream must reach the root through its parents (no cycles).
    for (i, s) in streams.iter().enumerate() {
        let mut cursor = i;
        let mut hops = 0;
        while cursor != *root {
            cursor = parent_of[cursor].ok_or_else(|| {
                format!("{}: does not reach the root stream", s.path)
            })?;
            hops += 1;
            if hops > streams.len() {
                return Err(format!("{}: parent chain contains a cycle", s.path));
            }
        }
    }
    eprintln!("obs-check: joined trace `{trace_id}` OK: {} process(es)", streams.len());
    for (i, s) in streams.iter().enumerate() {
        let indent = if i == *root { "" } else { "  " };
        match &s.parent_span {
            None => eprintln!("obs-check:   {indent}{} (root)", s.process),
            Some(p) => eprintln!("obs-check:   {indent}{} under `{p}`", s.process),
        }
    }
    Ok(())
}

/// A std-only HTTP/1.1 GET against the live metrics endpoint.
fn http_get(addr: &str, target: &str) -> Result<(u16, String), String> {
    use std::io::{Read as _, Write as _};
    let mut conn = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    conn.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    write!(conn, "GET {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("write to `{addr}` failed: {e}"))?;
    let mut response = String::new();
    conn.read_to_string(&mut response)
        .map_err(|e| format!("read from `{addr}` failed: {e}"))?;
    let status = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("`{addr}{target}`: malformed status line"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_owned())
        .unwrap_or_default();
    Ok((status, body))
}

/// Scrapes a live `--serve-metrics` endpoint and validates all three
/// routes.
fn check_scrape(addr: &str) -> Result<(), String> {
    let (status, health) = http_get(addr, "/healthz")?;
    if status != 200 || !health.contains("\"status\":\"ok\"") {
        return Err(format!("/healthz: status {status}, body `{health}`"));
    }
    let (status, text) = http_get(addr, "/metrics")?;
    if status != 200 {
        return Err(format!("/metrics: status {status}"));
    }
    let samples = scan_obs::serve::validate_exposition(&text)
        .map_err(|e| format!("/metrics exposition invalid: {e}"))?;
    let (status, json) = http_get(addr, "/metrics.json")?;
    if status != 200 {
        return Err(format!("/metrics.json: status {status}"));
    }
    let value = parse(&json).map_err(|e| format!("/metrics.json: {e}"))?;
    check_document(&format!("{addr}/metrics.json"), &schema::METRICS, &value)?;
    let (status, json) = http_get(addr, "/alerts.json")?;
    if status != 200 {
        return Err(format!("/alerts.json: status {status}"));
    }
    let value = parse(&json).map_err(|e| format!("/alerts.json: {e}"))?;
    check_document(&format!("{addr}/alerts.json"), &schema::ALERTS, &value)?;
    eprintln!("obs-check: scrape {addr} OK ({samples} exposition sample(s))");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!(
            "usage: obs-check <trace.ndjson|metrics.json>… \
             | obs-check --join <trace.ndjson>… | obs-check --scrape <host:port>"
        );
        return ExitCode::from(2);
    }
    let result = match args[0].as_str() {
        "--join" => check_join(&args[1..]),
        "--scrape" => match args.get(1) {
            Some(addr) if args.len() == 2 => check_scrape(addr),
            _ => Err("--scrape takes exactly one <host:port>".to_owned()),
        },
        _ => args.iter().try_for_each(|path| check(path)),
    };
    if let Err(message) = result {
        eprintln!("obs-check: FAILED: {message}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
