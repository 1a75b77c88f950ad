//! The live `/metrics` + `/healthz` endpoint.
//!
//! A tiny HTTP/1.1 server on `std::net::TcpListener`, enabled by
//! `--serve-metrics <addr>` on `scanbist` and the experiment bins, so
//! a long campaign can be scraped *while it runs* — the layer the
//! `scanbistd` daemon (ROADMAP) will stand on. Zero dependencies, and
//! deliberately minimal: GET only, `Connection: close`, no TLS, no
//! keep-alive.
//!
//! Routes:
//!
//! * `GET /metrics` — Prometheus-style text exposition
//!   ([`exposition`]) of the registry snapshot plus windowed
//!   time-series rollups when a sampler is active.
//! * `GET /metrics.json` — the workspace's own JSON metrics snapshot
//!   (same document `--metrics-out` writes).
//! * `GET /healthz` — `{"status":"ok","uptime_ns":…}`.
//! * `GET /readyz` — `{"status":"ready"}` (200) until [`set_ready`]
//!   flips it to `{"status":"draining"}` (503); load balancers and the
//!   `scanbistd` drain sequence key off this.
//!
//! **Bounded connections:** requests are handled serially on the one
//! accept thread with read/write timeouts and an 8 KiB request cap, so
//! a slow or malicious scraper can stall at most one connection slot
//! and the OS listen backlog — never the campaign, which runs on other
//! threads and shares nothing with the server but the registry locks.
//! A client that connects and then sends nothing (slow loris) is cut
//! off by the read timeout with a `408`; a declared request body over
//! [`DEFAULT_BODY_LIMIT`] is rejected with `413` without ever being
//! read.
//!
//! **Clean shutdown:** [`MetricsServer::stop`] flips a flag and nudges
//! the listener with a loopback connect so the accept loop observes it
//! immediately, then joins the thread.
//!
//! All server logging goes to stderr (lint L006 keeps stdout for
//! results), and the handler's socket writes are the span's own
//! subject — see the justified L009 allowance in `lint.toml`.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::registry::{self, Snapshot};
use crate::timeseries::{self, SeriesRollup};

const REQUEST_CAP: usize = 8 * 1024;
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Ceiling for declared request bodies (`Content-Length`); larger
/// requests are refused with `413 Payload Too Large`. Metrics routes
/// are GET-only, so anything nontrivial is suspicious; the limit exists
/// so a misdirected upload is refused instead of being read to EOF.
pub const DEFAULT_BODY_LIMIT: usize = 64 * 1024;

static READY: AtomicBool = AtomicBool::new(true);

/// Flips the process-wide readiness bit behind `GET /readyz`.
/// `true` (the default) answers `200 {"status":"ready"}`; `false`
/// answers `503 {"status":"draining"}` so load balancers stop routing
/// new work while in-flight requests finish.
pub fn set_ready(ready: bool) {
    READY.store(ready, Ordering::Release);
}

/// Whether `GET /readyz` currently reports ready.
#[must_use]
pub fn is_ready() -> bool {
    READY.load(Ordering::Acquire)
}

/// A running metrics endpoint; dropping or [`stop`](MetricsServer::stop)ping
/// it shuts the listener down.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the accept thread. Logs the bound address to stderr as
    /// `obs: serving metrics on http://IP:PORT`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, with the offending address in the
    /// message.
    pub fn start(addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr).map_err(|e| {
            std::io::Error::new(e.kind(), format!("cannot bind metrics endpoint `{addr}`: {e}"))
        })?;
        let local = listener.local_addr()?;
        eprintln!("obs: serving metrics on http://{local}");
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("obs-serve".into())
            .spawn(move || accept_loop(&listener, &thread_stop))?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, unblocks the listener, and joins the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if self.handle.is_none() {
            return;
        }
        self.stop.store(true, Ordering::Release);
        // Nudge the blocking accept so it observes the flag now.
        if let Ok(nudge) = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT) {
            drop(nudge);
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool) {
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        match stream {
            Ok(conn) => handle_connection(conn),
            Err(e) => {
                eprintln!("obs: metrics accept error: {e}");
            }
        }
    }
    // The accept thread's shard (serve.* counters, scrape spans) folds
    // into the global registry here, before `finish` snapshots it.
    registry::flush_thread();
}

/// Why a request head could not be turned into a routable target.
enum HeadError {
    /// Not a well-formed `GET <target> HTTP/1.x` head.
    Malformed,
    /// The client stalled past the read timeout (slow loris).
    Timeout,
    /// The declared `Content-Length` exceeds [`DEFAULT_BODY_LIMIT`].
    BodyTooLarge,
}

fn handle_connection(mut conn: TcpStream) {
    let _span = crate::span!("serve/scrape");
    let _ = conn.set_read_timeout(Some(IO_TIMEOUT));
    let _ = conn.set_write_timeout(Some(IO_TIMEOUT));
    let target = match read_request_target(&mut conn) {
        Ok(target) => target,
        Err(HeadError::Timeout) => {
            crate::metrics::incr("serve.timeouts");
            let _ = write_response(
                &mut conn,
                408,
                "text/plain; charset=utf-8",
                "request timed out\n",
            );
            return;
        }
        Err(HeadError::BodyTooLarge) => {
            crate::metrics::incr("serve.oversized_bodies");
            let _ = write_response(
                &mut conn,
                413,
                "text/plain; charset=utf-8",
                "request body exceeds limit\n",
            );
            return;
        }
        Err(HeadError::Malformed) => {
            crate::metrics::incr("serve.bad_requests");
            let _ = write_response(&mut conn, 400, "text/plain; charset=utf-8", "bad request\n");
            return;
        }
    };
    crate::metrics::incr("serve.requests");
    let (status, content_type, body) = route(&target);
    let _ = write_response(&mut conn, status, content_type, &body);
}

/// Reads the request head (up to [`REQUEST_CAP`]) and returns the
/// request target of a well-formed `GET <target> HTTP/1.x` line.
/// Declared bodies over [`DEFAULT_BODY_LIMIT`] are refused without being read.
fn read_request_target(conn: &mut TcpStream) -> Result<String, HeadError> {
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        let n = match conn.read(&mut buf) {
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(HeadError::Timeout);
            }
            Err(_) => return Err(HeadError::Malformed),
        };
        if n == 0 {
            break;
        }
        // lint:allow(L012): `read()` guarantees `n <= buf.len()`
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= REQUEST_CAP {
            break;
        }
    }
    let text = String::from_utf8_lossy(&head);
    let mut lines = text.lines();
    let line = lines.next().ok_or(HeadError::Malformed)?;
    // Reject declared bodies over the limit before touching the route:
    // a metrics endpoint never needs an upload, so an oversized
    // Content-Length is refused outright instead of read to EOF.
    for header in lines.by_ref() {
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            match value.trim().parse::<usize>() {
                Ok(len) if len > DEFAULT_BODY_LIMIT => return Err(HeadError::BodyTooLarge),
                Ok(_) => {}
                Err(_) => return Err(HeadError::Malformed),
            }
        }
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or(HeadError::Malformed)?;
    let target = parts.next().ok_or(HeadError::Malformed)?;
    let version = parts.next().ok_or(HeadError::Malformed)?;
    if method != "GET" || !version.starts_with("HTTP/1.") {
        return Err(HeadError::Malformed);
    }
    Ok(target.to_owned())
}

/// Routes a request target to `(status, content type, body)` — the
/// shared observability surface. Public so daemons building on this
/// crate (`scanbistd`) can mount the exact same `/metrics`,
/// `/metrics.json`, `/alerts.json`, `/healthz`, and `/readyz` routes
/// on their own listeners.
#[must_use]
pub fn route(target: &str) -> (u16, &'static str, String) {
    let path = target.split('?').next().unwrap_or(target);
    match path {
        "/metrics" => {
            let rollups = timeseries::active().map(|s| s.rollups()).unwrap_or_default();
            (
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                exposition(
                    &registry::snapshot(),
                    &rollups,
                    &crate::slo::active_alerts(),
                    registry::epoch_elapsed_ns(),
                ),
            )
        }
        "/metrics.json" => (
            200,
            "application/json",
            crate::export::metrics_json(&registry::snapshot()),
        ),
        "/alerts.json" => (
            200,
            "application/json",
            alerts_json(&crate::slo::active_alerts()),
        ),
        "/healthz" => (
            200,
            "application/json",
            format!(
                r#"{{"status":"ok","uptime_ns":{},"pid":{}}}"#,
                registry::epoch_elapsed_ns(),
                std::process::id()
            ),
        ),
        "/readyz" => {
            if is_ready() {
                (200, "application/json", "{\"status\":\"ready\"}".to_owned())
            } else {
                (
                    503,
                    "application/json",
                    "{\"status\":\"draining\"}".to_owned(),
                )
            }
        }
        _ => (404, "text/plain; charset=utf-8", "not found\n".to_owned()),
    }
}

fn write_response(
    conn: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Not Found",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    conn.write_all(head.as_bytes())?;
    conn.write_all(body.as_bytes())?;
    conn.flush()
}

/// Renders the `/alerts.json` document: the live state of every
/// installed SLO rule.
#[must_use]
pub fn alerts_json(alerts: &[crate::slo::AlertStatus]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"version\":1,\"alerts\":[");
    for (i, a) in alerts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":{},\"series\":{},\"state\":{},\"value\":{},\"threshold\":{},\"since_ns\":{}}}",
            crate::export::escape(&a.rule),
            crate::export::escape(&a.series),
            if a.firing { "\"firing\"" } else { "\"ok\"" },
            crate::slo::fmt_num(a.value),
            crate::slo::fmt_num(a.threshold),
            a.since_ns
        );
    }
    out.push_str("]}");
    out
}

// ---- Prometheus-style text exposition ----

/// Maps a workspace metric name (`robust.retry.success`,
/// `fault_sim#p95`) to a Prometheus metric name: `scanbist_` prefix,
/// every non-`[a-zA-Z0-9_]` byte folded to `_`.
#[must_use]
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 9);
    out.push_str("scanbist_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders the Prometheus text exposition (format 0.0.4) of a registry
/// snapshot plus optional time-series rollups: counters as `counter`
/// samples, histograms as cumulative `histogram` families
/// (`_bucket{le=…}`/`_sum`/`_count`), span stats as labelled counter
/// families, rollups as `gauge` samples, and SLO alert states as
/// `scanbist_alert_active{rule=…}` gauges. Always leads with
/// synthesized `scanbist_up`/`scanbist_uptime_ns` gauges so a scrape
/// early in a campaign — before any worker shard has folded into the
/// global registry — still yields a parseable, non-empty exposition.
#[must_use]
pub fn exposition(
    snapshot: &Snapshot,
    rollups: &[SeriesRollup],
    alerts: &[crate::slo::AlertStatus],
    uptime_ns: u64,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("# TYPE scanbist_up gauge\nscanbist_up 1\n");
    out.push_str("# TYPE scanbist_uptime_ns gauge\n");
    let _ = writeln!(out, "scanbist_uptime_ns {uptime_ns}");
    for (name, value) in &snapshot.counters {
        let metric = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {value}");
    }
    for (name, hist) in &snapshot.histograms {
        let metric = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {metric} histogram");
        let mut cumulative = 0u64;
        for (edge, count) in hist.edges.iter().zip(&hist.counts) {
            cumulative += count;
            let _ = writeln!(out, "{metric}_bucket{{le=\"{edge}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", hist.total);
        let _ = writeln!(out, "{metric}_sum {}", hist.sum);
        let _ = writeln!(out, "{metric}_count {}", hist.total);
    }
    if !snapshot.span_stats.is_empty() {
        out.push_str("# TYPE scanbist_span_count counter\n");
        for (path, stat) in &snapshot.span_stats {
            let _ = writeln!(
                out,
                "scanbist_span_count{{path=\"{}\"}} {}",
                escape_label(path),
                stat.count
            );
        }
        out.push_str("# TYPE scanbist_span_total_ns counter\n");
        for (path, stat) in &snapshot.span_stats {
            let _ = writeln!(
                out,
                "scanbist_span_total_ns{{path=\"{}\"}} {}",
                escape_label(path),
                stat.total_ns
            );
        }
    }
    if !rollups.is_empty() {
        out.push_str("# TYPE scanbist_series_last gauge\n");
        for r in rollups {
            let _ = writeln!(
                out,
                "scanbist_series_last{{name=\"{}\"}} {}",
                escape_label(&r.name),
                r.last
            );
        }
        out.push_str("# TYPE scanbist_series_rate_per_sec gauge\n");
        for r in rollups {
            let _ = writeln!(
                out,
                "scanbist_series_rate_per_sec{{name=\"{}\"}} {:.6}",
                escape_label(&r.name),
                r.rate_per_sec
            );
        }
    }
    if !alerts.is_empty() {
        out.push_str("# TYPE scanbist_alert_active gauge\n");
        for a in alerts {
            let _ = writeln!(
                out,
                "scanbist_alert_active{{rule=\"{}\",series=\"{}\"}} {}",
                escape_label(&a.rule),
                escape_label(&a.series),
                u8::from(a.firing)
            );
        }
    }
    out
}

/// Validates that `text` parses as Prometheus text exposition: every
/// line is a `# TYPE`/`# HELP` comment or a
/// `name[{labels}] <float>` sample with a well-formed metric name and
/// balanced, quoted labels. Returns the number of samples.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let c = comment.trim_start();
            if !(c.starts_with("TYPE ") || c.starts_with("HELP ")) {
                return Err(format!("line {lineno}: unknown comment form: {line}"));
            }
            continue;
        }
        parse_sample_line(line).map_err(|e| format!("line {lineno}: {e}: {line}"))?;
        samples += 1;
    }
    if samples == 0 {
        return Err("exposition contains no samples".to_owned());
    }
    Ok(samples)
}

fn parse_sample_line(line: &str) -> Result<(), String> {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len()
        && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b':')
    {
        i += 1;
    }
    if i == 0 || bytes[0].is_ascii_digit() {
        return Err("bad metric name".to_owned());
    }
    let rest = &line[i..];
    let rest = if let Some(after_brace) = rest.strip_prefix('{') {
        let close = find_label_close(after_brace).ok_or("unterminated label set")?;
        validate_labels(&after_brace[..close])?;
        &after_brace[close + 1..]
    } else {
        rest
    };
    let value = rest.trim();
    if value.is_empty() {
        return Err("missing value".to_owned());
    }
    // Prometheus floats include +Inf/-Inf/NaN, which Rust's f64 parser
    // accepts as "inf"/"NaN" only, so normalize first.
    let normalized = match value {
        "+Inf" => "inf",
        "-Inf" => "-inf",
        v => v,
    };
    normalized
        .split_whitespace()
        .next()
        .unwrap_or("")
        .parse::<f64>()
        .map(|_| ())
        .map_err(|_| format!("bad sample value `{value}`"))
}

/// Index of the `}` closing the label set, honouring quoted values.
fn find_label_close(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_quotes => escaped = true,
            b'"' => in_quotes = !in_quotes,
            b'}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

fn validate_labels(labels: &str) -> Result<(), String> {
    if labels.trim().is_empty() {
        return Ok(());
    }
    // Split on commas outside quotes.
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, &b) in labels.as_bytes().iter().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_quotes => escaped = true,
            b'"' => in_quotes = !in_quotes,
            b',' if !in_quotes => {
                parts.push(&labels[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&labels[start..]);
    for part in parts {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, value) = part.split_once('=').ok_or("label missing `=`")?;
        if name.is_empty() || name.as_bytes()[0].is_ascii_digit() {
            return Err("bad label name".to_owned());
        }
        let v = value.trim();
        if !(v.len() >= 2 && v.starts_with('"') && v.ends_with('"')) {
            return Err("label value not quoted".to_owned());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Histogram;

    fn sample_snapshot() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert("robust.retry.success".into(), 7);
        snap.histograms.insert(
            "diag.latency".into(),
            Histogram {
                edges: vec![1, 2, 4],
                counts: vec![1, 2, 3, 4],
                total: 10,
                sum: 30,
            },
        );
        snap.span_stats.insert(
            "campaign/fault_sim".into(),
            crate::SpanStat {
                count: 3,
                total_ns: 900,
                self_ns: 900,
                max_ns: 400,
            },
        );
        snap
    }

    #[test]
    fn exposition_is_valid_and_complete() {
        let rollups = vec![SeriesRollup {
            name: "robust.retry.success".into(),
            last: 7,
            min: 0,
            max: 7,
            rate_per_sec: 3.5,
            samples: 4,
            window_ns: 2_000_000_000,
        }];
        let alerts = vec![crate::slo::AlertStatus {
            rule: "p99-latency".into(),
            series: "diag.latency#p99".into(),
            firing: true,
            value: 9.0,
            threshold: 5.0,
            since_ns: 17,
        }];
        let text = exposition(&sample_snapshot(), &rollups, &alerts, 42);
        assert!(text.contains("scanbist_up 1"));
        assert!(text.contains("scanbist_uptime_ns 42"));
        assert!(text.contains("scanbist_robust_retry_success 7"));
        assert!(text.contains("scanbist_diag_latency_bucket{le=\"+Inf\"} 10"));
        assert!(text.contains("scanbist_diag_latency_sum 30"));
        assert!(text.contains("scanbist_span_count{path=\"campaign/fault_sim\"} 3"));
        assert!(text.contains("scanbist_series_rate_per_sec{name=\"robust.retry.success\"} 3.5"));
        assert!(
            text.contains(
                "scanbist_alert_active{rule=\"p99-latency\",series=\"diag.latency#p99\"} 1"
            ),
            "{text}"
        );
        let samples = validate_exposition(&text).expect("exposition must parse");
        assert!(samples >= 10, "expected many samples, got {samples}");
    }

    #[test]
    fn exposition_survives_hostile_names_under_the_validator() {
        // Span paths and metric names flow straight out of span! call
        // sites: bracketed experiment names, quotes, backslashes, and
        // newlines must all sanitize/escape into a body the 0.0.4
        // grammar (the same one obs-check --scrape enforces) accepts.
        let mut snap = Snapshot::default();
        snap.counters.insert("experiment[s27].faults".into(), 3);
        snap.counters.insert("weird name{with=braces}".into(), 1);
        snap.histograms.insert(
            "lat[q]#hist".into(),
            Histogram {
                edges: vec![1],
                counts: vec![1, 0],
                total: 1,
                sum: 1,
            },
        );
        for path in [
            "all_experiments/experiment[s27]",
            "odd\"quote",
            "back\\slash",
            "multi\nline",
        ] {
            snap.span_stats.insert(
                path.into(),
                crate::SpanStat {
                    count: 1,
                    total_ns: 10,
                    self_ns: 10,
                    max_ns: 10,
                },
            );
        }
        let rollups = vec![SeriesRollup {
            name: "experiment[s27].faults".into(),
            last: 3,
            min: 0,
            max: 3,
            rate_per_sec: 0.5,
            samples: 2,
            window_ns: 1,
        }];
        let alerts = vec![crate::slo::AlertStatus {
            rule: "odd\"rule".into(),
            series: "lat[q]#hist#p99".into(),
            firing: false,
            value: 0.0,
            threshold: 1.0,
            since_ns: 0,
        }];
        let text = exposition(&snap, &rollups, &alerts, 1);
        let samples = validate_exposition(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        assert!(samples >= 12, "{samples}\n{text}");
        // Pinned: brackets fold to underscores in metric names, stay
        // escaped-verbatim inside label values.
        assert!(text.contains("scanbist_experiment_s27__faults 3"), "{text}");
        assert!(
            text.contains("scanbist_span_count{path=\"all_experiments/experiment[s27]\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("scanbist_span_count{path=\"odd\\\"quote\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("scanbist_span_count{path=\"back\\\\slash\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("scanbist_span_count{path=\"multi\\nline\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn alerts_json_renders_states() {
        let doc = alerts_json(&[crate::slo::AlertStatus {
            rule: "r1".into(),
            series: "s1".into(),
            firing: true,
            value: 2.5,
            threshold: 2.0,
            since_ns: 7,
        }]);
        let value = crate::json::parse(&doc).expect("valid json");
        crate::schema::ALERTS.check(&value).unwrap();
        let alerts = value
            .get("alerts")
            .and_then(crate::json::Value::as_array)
            .expect("alerts array");
        assert_eq!(alerts.len(), 1);
        assert_eq!(
            alerts[0].get("state").and_then(crate::json::Value::as_str),
            Some("firing")
        );
        assert_eq!(
            alerts[0].get("value").and_then(crate::json::Value::as_f64),
            Some(2.5)
        );
        assert_eq!(alerts_json(&[]), "{\"version\":1,\"alerts\":[]}");
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_exposition("").is_err());
        assert!(validate_exposition("# FOO bar\n").is_err());
        assert!(validate_exposition("1bad_name 3\n").is_err());
        assert!(validate_exposition("name{unterminated 3\n").is_err());
        assert!(validate_exposition("name{l=unquoted} 3\n").is_err());
        assert!(validate_exposition("name notafloat\n").is_err());
        assert!(validate_exposition("ok_metric 3\nok{a=\"b\",c=\"d\"} +Inf\n").is_ok());
    }

    #[test]
    fn server_serves_and_stops_cleanly() {
        use std::io::{Read as _, Write as _};
        let server = MetricsServer::start("127.0.0.1:0").expect("bind ephemeral");
        let addr = server.addr();
        let get = |target: &str| -> String {
            let mut conn = TcpStream::connect(addr).expect("connect");
            write!(conn, "GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut body = String::new();
            conn.read_to_string(&mut body).unwrap();
            body
        };
        let health = get("/healthz");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        let json = get("/metrics.json");
        assert!(json.contains("\"version\":1"), "{json}");
        let missing = get("/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        server.stop();
        // The port is released once stop returns; a fresh bind on the
        // same address must succeed.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "port not released: {rebound:?}");
    }
}
