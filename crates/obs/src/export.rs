//! Exporters: the human-readable span tree, the NDJSON event stream,
//! and the JSON metrics snapshot.
//!
//! All three render from one [`Snapshot`], so a driver can take the
//! snapshot once and emit every format consistently. Output formats
//! are documented in `docs/OBSERVABILITY.md`.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use crate::context::{self, TraceContext};
use crate::registry::{Histogram, Snapshot, SpanStat};
use crate::timeseries::{self, Sample};

/// Escapes a string for embedding in JSON output, surrounding quotes
/// included.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn join_u64(values: &[u64]) -> String {
    values
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

fn fmt_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

fn hist_json(hist: &Histogram) -> String {
    format!(
        r#"{{"edges":[{}],"counts":[{}],"total":{},"sum":{}}}"#,
        join_u64(&hist.edges),
        join_u64(&hist.counts),
        hist.total,
        hist.sum
    )
}

fn span_stat_json(stat: &SpanStat) -> String {
    format!(
        r#"{{"count":{},"total_ns":{},"self_ns":{},"max_ns":{}}}"#,
        stat.count, stat.total_ns, stat.self_ns, stat.max_ns
    )
}

/// Renders the JSON metrics snapshot document:
/// `{"version":1,"counters":{…},"histograms":{…},"spans":{…}}`.
#[must_use]
pub fn metrics_json(snapshot: &Snapshot) -> String {
    let mut out = String::from("{\"version\":1,\"counters\":{");
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{value}", escape(name));
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, hist)) in snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", escape(name), hist_json(hist));
    }
    out.push_str("},\"spans\":{");
    for (i, (path, stat)) in snapshot.span_stats.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", escape(path), span_stat_json(stat));
    }
    out.push_str("}}");
    out
}

/// Renders the NDJSON event stream: a `meta` line, one `span` line per
/// completed span (sorted by start time for reproducible ordering),
/// then final `counter` and `hist` lines carrying the merged metrics.
#[must_use]
pub fn ndjson(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"{{"type":"meta","version":1,"spans":{},"counters":{},"histograms":{}}}"#,
        snapshot.events.len(),
        snapshot.counters.len(),
        snapshot.histograms.len()
    );
    for event in &snapshot.events {
        let _ = writeln!(
            out,
            r#"{{"type":"span","path":{},"thread":{},"start_ns":{},"end_ns":{},"dur_ns":{}}}"#,
            escape(&event.path),
            event.thread,
            event.start_ns,
            event.end_ns,
            event.end_ns.saturating_sub(event.start_ns)
        );
    }
    for (name, value) in &snapshot.counters {
        let _ = writeln!(
            out,
            r#"{{"type":"counter","name":{},"value":{value}}}"#,
            escape(name)
        );
    }
    for (name, hist) in &snapshot.histograms {
        let _ = writeln!(
            out,
            r#"{{"type":"hist","name":{},"hist":{}}}"#,
            escape(name),
            hist_json(hist)
        );
    }
    out
}

/// Renders one `{"type":"context",…}` NDJSON record carrying the
/// session's trace-correlation identity.
#[must_use]
pub fn context_line(ctx: &TraceContext) -> String {
    let parent = match &ctx.parent_span {
        Some(span) => escape(span),
        None => "null".to_owned(),
    };
    format!(
        r#"{{"type":"context","trace_id":{},"parent_span":{},"process":{}}}"#,
        escape(&ctx.trace_id),
        parent,
        escape(&ctx.process)
    )
}

/// Renders one `{"type":"ts",…}` NDJSON record per time series:
/// `samples` is an array of `[offset_ns, value]` pairs in monotonic
/// offset order.
#[must_use]
pub fn ts_lines(series: &std::collections::BTreeMap<String, Vec<Sample>>) -> String {
    let mut out = String::new();
    for (name, samples) in series {
        let pairs = samples
            .iter()
            .map(|(t, v)| format!("[{t},{v}]"))
            .collect::<Vec<_>>()
            .join(",");
        let _ = writeln!(
            out,
            r#"{{"type":"ts","name":{},"samples":[{pairs}]}}"#,
            escape(name)
        );
    }
    out
}

/// Stamps `"trace":"<id>"` into every NDJSON object in `text` (as the
/// first member), correlating the records with a cross-process trace.
/// Non-object lines are passed through untouched.
#[must_use]
pub fn stamp_ndjson(text: &str, trace_id: &str) -> String {
    let stamp = format!(r#"{{"trace":{},""#, escape(trace_id));
    let mut out = String::with_capacity(text.len() + text.lines().count() * (stamp.len() + 8));
    for line in text.lines() {
        // Only lines that open an object member list can take the
        // stamp; anything else (including `{}`) passes through.
        if let Some(rest) = line.strip_prefix("{\"") {
            out.push_str(&stamp);
            out.push_str(rest);
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Renders the full session NDJSON stream: the [`ndjson`] event stream
/// plus the active time-series (`ts` records), the session's SLO alert
/// transitions (`alert` records) and, when a trace context is
/// installed, a `context` record and a `"trace"` stamp on every line.
/// This is what [`crate::finish`] writes to
/// [`crate::ObsConfig::trace_path`].
#[must_use]
pub fn session_ndjson(snapshot: &Snapshot) -> String {
    let mut out = ndjson(snapshot);
    if let Some(store) = timeseries::active() {
        out.push_str(&ts_lines(&store.series()));
    }
    out.push_str(&crate::slo::ndjson_lines());
    if let Some(ctx) = context::current() {
        out.push_str(&context_line(&ctx));
        out.push('\n');
        out = stamp_ndjson(&out, &ctx.trace_id);
    }
    out
}

/// Stamps `text` with the installed trace context (if any) and writes
/// it to `path`: the NDJSON-file twin of [`write_file`], used for
/// audit trails and any stream that must join a cross-process trace.
///
/// # Errors
///
/// Propagates I/O failures, with the offending path in the message.
pub fn write_ndjson(path: &Path, text: &str) -> std::io::Result<()> {
    match context::current() {
        Some(ctx) => write_file(path, &stamp_ndjson(text, &ctx.trace_id)),
        None => write_file(path, text),
    }
}

/// Renders the span tree for humans: one line per path, indented by
/// nesting depth, with call count, total, self, and max wall times.
/// Counters follow the tree so a stderr dump is self-contained.
#[must_use]
pub fn tree_summary(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    if snapshot.span_stats.is_empty() && snapshot.counters.is_empty() {
        out.push_str("obs: nothing recorded\n");
        return out;
    }
    out.push_str("obs span tree (total wall time; self = excluding children)\n");
    // BTreeMap iterates paths lexicographically, which visits parents
    // (`a`) before children (`a/b`) for the workspace's naming scheme.
    for (path, stat) in &snapshot.span_stats {
        let depth = path.matches('/').count();
        let label = path.rsplit('/').next().unwrap_or(path);
        let _ = writeln!(
            out,
            "{:indent$}{label:<28} count {:>6}   total {:>10}   self {:>10}   max {:>10}",
            "",
            stat.count,
            fmt_ns(stat.total_ns),
            fmt_ns(stat.self_ns),
            fmt_ns(stat.max_ns),
            indent = depth * 2,
        );
    }
    if !snapshot.counters.is_empty() {
        out.push_str("obs counters\n");
        for (name, value) in &snapshot.counters {
            let _ = writeln!(out, "  {name:<40} {value}");
        }
    }
    for (name, hist) in &snapshot.histograms {
        let mean = if hist.total == 0 {
            0.0
        } else {
            hist.sum as f64 / hist.total as f64
        };
        let _ = writeln!(
            out,
            "obs hist {name}: n={} mean={mean:.1} buckets={:?}",
            hist.total, hist.counts
        );
    }
    out
}

/// Writes `text` to `path`, creating parent directories as needed.
///
/// # Errors
///
/// Propagates I/O failures, wrapped so the message names the offending
/// path (a bare `io::Error` such as "No such file or directory" is
/// useless when several export files are in flight).
pub fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    let with_path = |e: std::io::Error| {
        std::io::Error::new(e.kind(), format!("cannot write `{}`: {e}", path.display()))
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(with_path)?;
        }
    }
    let mut file = std::fs::File::create(path).map_err(with_path)?;
    file.write_all(text.as_bytes()).map_err(with_path)
}

#[cfg(test)]
mod tests {
    use super::escape;

    #[test]
    fn escape_quotes_and_handles_specials() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b"), "\"a\\\"b\"");
        assert_eq!(escape("a\\b\nc"), "\"a\\\\b\\nc\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }
}
