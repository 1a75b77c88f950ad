//! The traced run's in-memory span recorder.
//!
//! Spans are taken by the benchmark's own code around its calls into
//! each layer, kept in memory while the run measures, and written at
//! exit as NDJSON in `scan-obs`'s span-record shape, so `obs-check`
//! and `scanbist report` read them as they read any trace.
//!
//! A span's leaf name is `<layer>.<call>` optionally followed by a
//! `[detail]`; its layer is the text before the first dot. Spans of
//! the benchmark's own glue are named `bench.*`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The benchmark's single clock read.
pub fn now() -> Instant {
    // lint:allow(L003): the benchmark measures wall time; it is the timing harness
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// One closed span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Slash-separated path from the root span.
    pub path: String,
    /// Small per-process thread number.
    pub thread: u64,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl SpanRecord {
    /// The last path component.
    pub fn leaf(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }

    /// The layer the span belongs to.
    pub fn layer(&self) -> &str {
        let leaf = self.leaf();
        leaf.split('.').next().unwrap_or(leaf)
    }

    /// The call name: the leaf without its `[detail]`.
    pub fn call(&self) -> &str {
        let leaf = self.leaf();
        leaf.split('[').next().unwrap_or(leaf)
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Records spans and counters when enabled; costs one branch per
/// span when not.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<BTreeMap<String, u64>>,
}

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the current thread's innermost open span.
    pub fn span(&self, name: impl Into<String>) -> Span<'_> {
        if !self.enabled {
            return Span {
                tracer: self,
                open: None,
            };
        }
        let path = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = match stack.last() {
                Some(parent) => format!("{parent}/{}", name.into()),
                None => name.into(),
            };
            stack.push(path.clone());
            path
        });
        Span {
            tracer: self,
            open: Some((path, now())),
        }
    }

    /// The current thread's innermost open span path, for handing to
    /// worker threads.
    pub fn scope(&self) -> Option<String> {
        STACK.with(|s| s.borrow().last().cloned())
    }

    /// On a worker thread: opens a span whose parent is `parent`, a
    /// path taken with [`Tracer::scope`] on the spawning thread.
    pub fn span_under(&self, parent: Option<&str>, name: &str) -> Span<'_> {
        if !self.enabled {
            return Span {
                tracer: self,
                open: None,
            };
        }
        let path = match parent {
            Some(parent) => format!("{parent}/{name}"),
            None => name.to_owned(),
        };
        STACK.with(|s| s.borrow_mut().push(path.clone()));
        Span {
            tracer: self,
            open: Some((path, now())),
        }
    }

    /// Records a span that was timed elsewhere, under `parent`.
    pub fn record(&self, parent: Option<&str>, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let path = match parent {
            Some(parent) => format!("{parent}/{name}"),
            None => name.to_owned(),
        };
        let record = SpanRecord {
            path,
            thread: THREAD.with(|t| *t),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span list lock").push(record);
    }

    /// Adds to a named counter (recorded only when enabled).
    pub fn add(&self, name: &str, value: u64) {
        if !self.enabled {
            return;
        }
        let mut counters = self.counters.lock().expect("counter lock");
        *counters.entry(name.to_owned()).or_insert(0) += value;
    }

    /// Every closed span, in start order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut spans = self.spans.lock().expect("span list lock").clone();
        spans.sort_by(|a, b| (a.start_ns, &a.path).cmp(&(b.start_ns, &b.path)));
        spans
    }

    /// A counter's value (0 when never added to).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("counter lock")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Total seconds of spans whose call name is `call`.
    pub fn seconds_in(&self, call: &str) -> f64 {
        let ns: u64 = self
            .spans
            .lock()
            .expect("span list lock")
            .iter()
            .filter(|s| s.call() == call)
            .map(SpanRecord::dur_ns)
            .sum();
        secs(ns)
    }

    /// The trace as NDJSON: a `meta` line stamped with `stamp`, one
    /// `span` line per span, one `counter` line per counter.
    pub fn ndjson(&self, stamp: &str) -> String {
        let spans = self.spans();
        let counters = self.counters.lock().expect("counter lock").clone();
        let mut out = String::new();
        let _ = writeln!(
            out,
            r#"{{"type":"meta","version":1,"spans":{},"counters":{},"histograms":0,{stamp}}}"#,
            spans.len(),
            counters.len()
        );
        for s in &spans {
            let _ = writeln!(
                out,
                r#"{{"type":"span","path":{},"thread":{},"start_ns":{},"end_ns":{},"dur_ns":{}}}"#,
                json_string(&s.path),
                s.thread,
                s.start_ns,
                s.end_ns,
                s.dur_ns()
            );
        }
        for (name, value) in &counters {
            let _ = writeln!(
                out,
                r#"{{"type":"counter","name":{},"value":{value}}}"#,
                json_string(name)
            );
        }
        out
    }
}

/// An open span; closes (and is recorded) on drop.
pub struct Span<'a> {
    tracer: &'a Tracer,
    open: Option<(String, Instant)>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some((path, start)) = self.open.take() else {
            return;
        };
        let end = now();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let record = SpanRecord {
            path,
            thread: THREAD.with(|t| *t),
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(record);
        }
    }
}

/// Nanoseconds to seconds.
#[allow(clippy::cast_precision_loss)]
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Length of the union of half-open intervals.
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match current {
            Some((s, e)) if start <= e => current = Some((s, end.max(e))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

/// Each layer's self time in seconds: every span's duration minus the
/// part of its interval that its direct children cover, summed per
/// layer. Spans on parallel threads each count, so a layer's self time
/// is busy time, which can exceed wall time.
pub fn self_seconds(spans: &[SpanRecord]) -> BTreeMap<String, f64> {
    // Children grouped by parent path, each group sorted by start.
    let mut children: BTreeMap<&str, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some((parent, _)) = s.path.rsplit_once('/') {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    for group in children.values_mut() {
        group.sort_unstable();
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        let covered = children.get(s.path.as_str()).map_or(0, |group| {
            let first = group.partition_point(|&(start, _)| start < s.start_ns);
            let mut inside: Vec<(u64, u64)> = group[first..]
                .iter()
                .take_while(|&&(start, _)| start < s.end_ns)
                .map(|&(start, end)| (start, end.min(s.end_ns)))
                .collect();
            union_ns(&mut inside)
        });
        *out.entry(s.layer().to_owned()).or_insert(0.0) += secs(s.dur_ns().saturating_sub(covered));
    }
    out
}

/// Share of the windows `[start, end)` covered by spans of the real
/// layers (every span not named `bench.*`).
#[allow(clippy::cast_precision_loss)]
pub fn layer_coverage(spans: &[SpanRecord], windows: &[(u64, u64)]) -> f64 {
    let mut layer: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.layer() != "bench")
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    layer.sort_unstable();
    let total: u64 = windows.iter().map(|(s, e)| e - s).sum();
    if total == 0 {
        return 0.0;
    }
    let covered: u64 = windows
        .iter()
        .map(|&(ws, we)| {
            let mut clipped: Vec<(u64, u64)> = layer
                .iter()
                .filter(|&&(s, e)| s < we && e > ws)
                .map(|&(s, e)| (s.max(ws), e.min(we)))
                .collect();
            union_ns(&mut clipped)
        })
        .sum();
    covered as f64 / total as f64
}

/// A JSON string literal.
pub fn json_string(text: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn span(path: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            path: path.to_owned(),
            thread: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(&mut [(0, 10), (5, 20), (30, 40)]), 30);
        assert_eq!(union_ns(&mut []), 0);
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        // Two parallel children covering the same 60 ns count once
        // against their parent; each is its own layer's busy time.
        let spans = [
            span("bench.run", 0, 100),
            span("bench.run/diagnosis.cases", 20, 80),
            span("bench.run/diagnosis.cases", 20, 80),
            span("bench.run/diagnosis.plan", 0, 10),
        ];
        let selfs = self_seconds(&spans);
        assert!((selfs["bench"] - 30e-9).abs() < 1e-15);
        assert!((selfs["diagnosis"] - 130e-9).abs() < 1e-15);
    }

    #[test]
    fn coverage_counts_only_layer_spans_inside_windows() {
        let spans = [
            span("bench.round", 0, 100),
            span("bench.round/netlist.generate", 0, 50),
            span("bench.round/sim.golden", 40, 90),
        ];
        let c = layer_coverage(&spans, &[(0, 100)]);
        assert!((c - 0.9).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let _s = t.span("netlist.generate");
        }
        t.add("netlist.nets", 3);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("netlist.nets"), 0);
    }

    #[test]
    fn nested_spans_carry_paths_and_ndjson_shape() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("bench.round");
            let _inner = t.span("sim.golden[s27]");
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans
            .iter()
            .any(|s| s.path == "bench.round/sim.golden[s27]"));
        assert_eq!(spans[1].call(), "sim.golden");
        assert_eq!(spans[1].layer(), "sim");
        let text = t.ndjson(r#""benchmark":"perfbench""#);
        let first = text.lines().next().expect("meta line");
        assert!(first.starts_with(r#"{"type":"meta","version":1,"spans":2"#));
        for line in text.lines() {
            scan_obs::json::parse(line).expect("valid JSON");
        }
    }
}
