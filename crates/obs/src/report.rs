//! `scanbist report`: self-contained HTML dashboards from NDJSON.
//!
//! Renders one or more exported streams — traces, audits, metrics
//! snapshots — into a single static HTML file with zero external
//! assets: no scripts, no fonts, no links, nothing fetched. The file
//! works from `file://` on an air-gapped bench machine, matching the
//! workspace's offline constraint.
//!
//! Layout: stat tiles (wall time, span/process counts, robust-retry
//! and fault-drop totals), the SLO alert panel (from `alert`
//! records), the cross-process trace tree, a span waterfall (SVG, one
//! lane colour per process), per-series sparklines from `ts` records,
//! and counter/histogram tables. Both capped charts (waterfall ≤ 96
//! rows, sparklines ≤ 48 series) say "showing N of M" whenever they
//! truncate. Every
//! value shown in a chart is also in a table, charts carry native
//! `<title>` tooltips, and text always uses ink tokens while marks
//! carry the series colour; the categorical palette is a fixed-order,
//! CVD-validated eight-hue set with light and dark steps.
//!
//! The renderer is pure (`&str` in, `String` out); the CLI writes the
//! file and logs only to stderr, keeping stdout clean (lint L006).

use std::collections::BTreeMap;

use crate::json::Value;
use crate::timeseries::hist_quantile;
use crate::Histogram;

/// One input stream: a display label (usually the file name) and its
/// raw text (NDJSON lines, or one JSON metrics-snapshot document).
pub struct ReportInput {
    /// Name shown in the dashboard for this stream.
    pub label: String,
    /// Raw file contents.
    pub text: String,
}

/// Everything harvested from one input stream.
#[derive(Default)]
struct Stream {
    label: String,
    trace_id: Option<String>,
    parent_span: Option<String>,
    process: Option<String>,
    spans: Vec<(String, u64, u64)>, // (path, start_ns, end_ns)
}

/// One SLO alert transition harvested from an `alert` record.
struct AlertRow {
    rule: String,
    series: String,
    state: String,
    value: f64,
    threshold: f64,
    at_ns: u64,
}

/// Everything harvested from all inputs, merged.
#[derive(Default)]
struct Harvest {
    streams: Vec<Stream>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, Vec<(u64, u64)>>,
    alerts: Vec<AlertRow>,
    graph: Option<GraphSummary>,
    audit_events: BTreeMap<String, u64>, // fault/retry/vote/fallback/... counts
}

/// Workspace call-graph totals from a `scan-lint --graph` export's
/// trailing summary record.
#[derive(Clone, Copy, Default)]
struct GraphSummary {
    files: u64,
    functions: u64,
    edges: u64,
    unresolved: u64,
    panic_sites: u64,
    lock_sites: u64,
    taint_sites: u64,
}

/// Categorical slots in the stylesheet (`--s0`…`--s7`): a validated
/// fixed-order eight-hue palette with separate light/dark steps,
/// assigned to processes in order and never cycled — streams past the
/// eighth fold to the muted ink colour.
const SERIES_SLOTS: usize = 8;
const MAX_WATERFALL_ROWS: usize = 96;
const MAX_SPARKLINES: usize = 48;

/// Renders the dashboard.
///
/// # Errors
///
/// Returns a message naming the offending input when nothing in it can
/// be parsed as NDJSON records or a metrics snapshot.
pub fn render(inputs: &[ReportInput], title: &str) -> Result<String, String> {
    let mut harvest = Harvest::default();
    for input in inputs {
        ingest(input, &mut harvest)?;
    }
    Ok(render_html(&harvest, title))
}

fn ingest(input: &ReportInput, harvest: &mut Harvest) -> Result<(), String> {
    let mut stream = Stream {
        label: input.label.clone(),
        ..Stream::default()
    };
    let mut records = 0usize;
    for line in input.text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let value = crate::json::parse(line)
            .map_err(|e| format!("{}: unparseable line: {e}", input.label))?;
        if ingest_record(&value, &mut stream, harvest) || ingest_snapshot(&value, harvest) {
            records += 1;
        }
    }
    if records == 0 {
        return Err(format!(
            "{}: no NDJSON records or metrics snapshot found",
            input.label
        ));
    }
    harvest.streams.push(stream);
    Ok(())
}

/// Ingests one NDJSON record; returns false when `value` is not a
/// typed record (e.g. a whole metrics-snapshot document).
fn ingest_record(value: &Value, stream: &mut Stream, harvest: &mut Harvest) -> bool {
    let Some(kind) = value.get("type").and_then(Value::as_str) else {
        return false;
    };
    match kind {
        "context" => {
            stream.trace_id = value
                .get("trace_id")
                .and_then(Value::as_str)
                .map(str::to_owned);
            stream.parent_span = value
                .get("parent_span")
                .and_then(Value::as_str)
                .map(str::to_owned);
            stream.process = value
                .get("process")
                .and_then(Value::as_str)
                .map(str::to_owned);
        }
        "span" => {
            if let (Some(path), Some(start), Some(end)) = (
                value.get("path").and_then(Value::as_str),
                value.get("start_ns").and_then(Value::as_f64),
                value.get("end_ns").and_then(Value::as_f64),
            ) {
                stream
                    .spans
                    .push((path.to_owned(), as_u64(start), as_u64(end)));
            }
        }
        "counter" => {
            if let (Some(name), Some(v)) = (
                value.get("name").and_then(Value::as_str),
                value.get("value").and_then(Value::as_f64),
            ) {
                *harvest.counters.entry(name.to_owned()).or_insert(0) += as_u64(v);
            }
        }
        "hist" => {
            if let (Some(name), Some(hist)) = (
                value.get("name").and_then(Value::as_str),
                value.get("hist").and_then(parse_hist),
            ) {
                harvest.histograms.insert(name.to_owned(), hist);
            }
        }
        "ts" => {
            if let (Some(name), Some(samples)) = (
                value.get("name").and_then(Value::as_str),
                value.get("samples").and_then(Value::as_array),
            ) {
                let points = samples
                    .iter()
                    .filter_map(|pair| {
                        let pair = pair.as_array()?;
                        Some((
                            as_u64(pair.first()?.as_f64()?),
                            as_u64(pair.get(1)?.as_f64()?),
                        ))
                    })
                    .collect::<Vec<_>>();
                harvest.series.insert(name.to_owned(), points);
            }
        }
        "alert" => {
            if let (Some(rule), Some(series), Some(state)) = (
                value.get("rule").and_then(Value::as_str),
                value.get("series").and_then(Value::as_str),
                value.get("state").and_then(Value::as_str),
            ) {
                harvest.alerts.push(AlertRow {
                    rule: rule.to_owned(),
                    series: series.to_owned(),
                    state: state.to_owned(),
                    value: value.get("value").and_then(Value::as_f64).unwrap_or(0.0),
                    threshold: value
                        .get("threshold")
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0),
                    at_ns: as_u64(value.get("at_ns").and_then(Value::as_f64).unwrap_or(0.0)),
                });
            }
        }
        "graph" => harvest.graph = Some(parse_graph_summary(value)),
        // Per-node and per-edge graph records are raw material for the
        // summary above — tallying thousands of them in the audit tile
        // row would drown the actual audit events.
        "graph_fn" | "graph_edge" | "meta" => {}
        other => {
            // Audit-trail records (fault/retry/vote/fallback/finding/…):
            // tally by type for the audit tile row.
            *harvest.audit_events.entry(other.to_owned()).or_insert(0) += 1;
        }
    }
    true
}

/// One `scan-lint --graph` trailing summary record, totals clamped to
/// non-negative integers.
fn parse_graph_summary(value: &Value) -> GraphSummary {
    let field = |name: &str| as_u64(value.get(name).and_then(Value::as_f64).unwrap_or(0.0));
    GraphSummary {
        files: field("files"),
        functions: field("functions"),
        edges: field("edges"),
        unresolved: field("unresolved"),
        panic_sites: field("panic_sites"),
        lock_sites: field("lock_sites"),
        taint_sites: field("taint_sites"),
    }
}

/// Ingests a whole metrics-snapshot document
/// (`{"version":1,"counters":{…},…}`); returns false otherwise.
fn ingest_snapshot(value: &Value, harvest: &mut Harvest) -> bool {
    let Some(counters) = value.get("counters").and_then(Value::as_object) else {
        return false;
    };
    for (name, v) in counters {
        if let Some(v) = v.as_f64() {
            *harvest.counters.entry(name.clone()).or_insert(0) += as_u64(v);
        }
    }
    if let Some(hists) = value.get("histograms").and_then(Value::as_object) {
        for (name, h) in hists {
            if let Some(hist) = parse_hist(h) {
                harvest.histograms.insert(name.clone(), hist);
            }
        }
    }
    true
}

fn parse_hist(value: &Value) -> Option<Histogram> {
    let nums = |key: &str| -> Option<Vec<u64>> {
        value
            .get(key)?
            .as_array()?
            .iter()
            .map(|v| v.as_f64().map(as_u64))
            .collect()
    };
    Some(Histogram {
        edges: nums("edges")?,
        counts: nums("counts")?,
        total: as_u64(value.get("total")?.as_f64()?),
        sum: as_u64(value.get("sum")?.as_f64()?),
    })
}

#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
// NDJSON values are u64-origin; negative/fractional inputs clamp to 0
fn as_u64(v: f64) -> u64 {
    if v.is_finite() && v > 0.0 {
        v as u64
    } else {
        0
    }
}

// ---- HTML rendering ----

fn escape_html(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

fn fmt_duration(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

fn fmt_count(v: u64) -> String {
    // Thousands separators for table/tile readability.
    let digits = v.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

fn process_name(stream: &Stream) -> String {
    stream
        .process
        .clone()
        .unwrap_or_else(|| stream.label.clone())
}

/// The categorical colour class for stream `i`: one of the eight
/// palette slots, or the muted fold colour past the eighth. Every
/// identity mark — waterfall bar, legend swatch, tree swatch — uses
/// this one mapping, so a ninth process can never wear the first
/// slot's colour in one view and the fold colour in another.
fn series_class(i: usize) -> String {
    if i < SERIES_SLOTS {
        format!("s{i}")
    } else {
        "sother".to_owned()
    }
}

fn tile(label: &str, value: &str, note: &str) -> String {
    format!(
        "<div class=\"tile\"><div class=\"tile-label\">{}</div>\
         <div class=\"tile-value\">{}</div><div class=\"tile-note\">{}</div></div>\n",
        escape_html(label),
        escape_html(value),
        escape_html(note)
    )
}

fn render_html(harvest: &Harvest, title: &str) -> String {
    use std::fmt::Write as _;
    let mut body = String::new();
    let trace_id = harvest
        .streams
        .iter()
        .find_map(|s| s.trace_id.clone())
        .unwrap_or_else(|| "untraced".to_owned());
    let _ = writeln!(
        body,
        "<header><h1>{}</h1><p class=\"sub\">trace <code>{}</code> · {} stream{}</p></header>",
        escape_html(title),
        escape_html(&trace_id),
        harvest.streams.len(),
        if harvest.streams.len() == 1 { "" } else { "s" }
    );
    body.push_str(&render_tiles(harvest));
    body.push_str(&render_alerts(harvest));
    body.push_str(&render_graph_panel(harvest));
    body.push_str(&render_trace_tree(harvest));
    body.push_str(&render_waterfall(harvest));
    body.push_str(&render_sparklines(harvest));
    body.push_str(&render_counter_table(harvest));
    body.push_str(&render_hist_table(harvest));
    format!(
        "<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
         <meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\
         <title>{}</title>\n<style>{}</style></head>\n\
         <body class=\"viz-root\">\n{}\n\
         <footer>generated by scanbist report · self-contained, no external assets</footer>\n\
         </body></html>\n",
        escape_html(title),
        STYLE,
        body
    )
}

fn render_tiles(harvest: &Harvest) -> String {
    let total_spans: usize = harvest.streams.iter().map(|s| s.spans.len()).sum();
    let wall_ns = harvest
        .streams
        .iter()
        .flat_map(|s| s.spans.iter().map(|&(_, _, end)| end))
        .max()
        .unwrap_or(0);
    let retry_total: u64 = harvest
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("robust."))
        .map(|(_, v)| *v)
        .sum();
    let dropped = harvest
        .counters
        .get("ppsfp.faults_dropped")
        .copied()
        .unwrap_or(0);
    let mut out = String::from("<section class=\"tiles\">\n");
    out.push_str(&tile("Wall time", &fmt_duration(wall_ns), "longest stream"));
    out.push_str(&tile("Spans", &fmt_count(total_spans as u64), "all processes"));
    out.push_str(&tile(
        "Processes",
        &fmt_count(harvest.streams.len() as u64),
        "NDJSON streams",
    ));
    out.push_str(&tile(
        "Robust retries",
        &fmt_count(retry_total),
        "robust.* counters",
    ));
    out.push_str(&tile(
        "Faults dropped",
        &fmt_count(dropped),
        "ppsfp.faults_dropped",
    ));
    if !harvest.audit_events.is_empty() {
        let audit_total: u64 = harvest.audit_events.values().sum();
        let kinds = harvest
            .audit_events
            .keys()
            .cloned()
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&tile("Audit events", &fmt_count(audit_total), &kinds));
    }
    out.push_str("</section>\n");
    out
}

/// The call-graph panel: one row of totals from a `scan-lint --graph`
/// export. Absent when no graph summary record was ingested.
fn render_graph_panel(harvest: &Harvest) -> String {
    use std::fmt::Write as _;
    let Some(g) = &harvest.graph else {
        return String::new();
    };
    let mut out = String::from(
        "<section><h2>Call graph</h2><table><thead><tr>\
         <th>files</th><th>functions</th><th>edges</th><th>unresolved calls</th>\
         <th>panic sites</th><th>lock sites</th><th>taint sites</th>\
         </tr></thead><tbody>\n",
    );
    let _ = writeln!(
        out,
        "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
        fmt_count(g.files),
        fmt_count(g.functions),
        fmt_count(g.edges),
        fmt_count(g.unresolved),
        fmt_count(g.panic_sites),
        fmt_count(g.lock_sites),
        fmt_count(g.taint_sites),
    );
    out.push_str("</tbody></table></section>\n");
    out
}

fn render_trace_tree(harvest: &Harvest) -> String {
    use std::fmt::Write as _;
    if harvest.streams.len() < 2 {
        return String::new();
    }
    let mut out = String::from("<section><h2>Trace tree</h2><ul class=\"tree\">\n");
    // Roots first, then children indented under the parent span they
    // reference; unresolvable parents are flagged inline.
    for (i, stream) in harvest.streams.iter().enumerate() {
        if stream.parent_span.is_none() {
            let _ = writeln!(
                out,
                "<li><span class=\"swatch {}\"></span><code>{}</code> (root)</li>",
                series_class(i),
                escape_html(&process_name(stream))
            );
        }
    }
    for (i, stream) in harvest.streams.iter().enumerate() {
        if let Some(parent) = &stream.parent_span {
            let resolved = harvest
                .streams
                .iter()
                .any(|other| other.spans.iter().any(|(path, _, _)| path == parent));
            let _ = writeln!(
                out,
                "<li class=\"child\"><span class=\"swatch {}\"></span><code>{}</code> under <code>{}</code>{}</li>",
                series_class(i),
                escape_html(&process_name(stream)),
                escape_html(parent),
                if resolved { "" } else { " <em>(orphan: parent span not found)</em>" }
            );
        }
    }
    out.push_str("</ul></section>\n");
    out
}

fn render_waterfall(harvest: &Harvest) -> String {
    use std::fmt::Write as _;
    let mut rows: Vec<(usize, &(String, u64, u64))> = harvest
        .streams
        .iter()
        .enumerate()
        .flat_map(|(i, s)| s.spans.iter().map(move |span| (i, span)))
        .collect();
    if rows.is_empty() {
        return String::new();
    }
    rows.sort_by(|a, b| (a.1 .1, a.1 .2, &a.1 .0).cmp(&(b.1 .1, b.1 .2, &b.1 .0)));
    let total = rows.len();
    rows.truncate(MAX_WATERFALL_ROWS);
    let t_max = rows
        .iter()
        .map(|&(_, &(_, _, end))| end)
        .max()
        .unwrap_or(1)
        .max(1);
    let row_h = 18.0;
    let label_w = 240.0;
    let plot_w = 640.0;
    let height = rows.len() as f64 * row_h + 8.0;
    let mut out = String::from("<section><h2>Span waterfall</h2>\n");
    if total > rows.len() {
        let _ = writeln!(
            out,
            "<p class=\"note\">showing the first {} of {} spans by start time</p>",
            rows.len(),
            total
        );
    }
    let _ = writeln!(
        out,
        "<svg class=\"waterfall\" viewBox=\"0 0 {} {height:.0}\" role=\"img\" \
         aria-label=\"span waterfall\">",
        label_w + plot_w + 16.0
    );
    // Recessive hairline grid: quarters of the time range.
    for q in 0..=4u32 {
        let x = label_w + plot_w * f64::from(q) / 4.0;
        let _ = writeln!(
            out,
            "<line class=\"grid\" x1=\"{x:.1}\" y1=\"0\" x2=\"{x:.1}\" y2=\"{height:.0}\"/>"
        );
    }
    for (row, &(stream_idx, &(ref path, start, end))) in rows.iter().enumerate() {
        let y = row as f64 * row_h + 4.0;
        let x = label_w + plot_w * start as f64 / t_max as f64;
        let w = (plot_w * (end.saturating_sub(start)) as f64 / t_max as f64).max(1.5);
        let color_class = series_class(stream_idx);
        let label = path.rsplit('/').next().unwrap_or(path);
        let depth = path.matches('/').count();
        let _ = writeln!(
            out,
            "<text class=\"rowlabel\" x=\"{:.1}\" y=\"{:.1}\">{}</text>",
            4.0 + depth as f64 * 10.0,
            y + 10.5,
            escape_html(label)
        );
        let _ = writeln!(
            out,
            "<rect class=\"bar {color_class}\" x=\"{x:.1}\" y=\"{y:.1}\" width=\"{w:.1}\" \
             height=\"12\" rx=\"2\"><title>{} · {} · {}–{}</title></rect>",
            escape_html(path),
            fmt_duration(end.saturating_sub(start)),
            fmt_duration(start),
            fmt_duration(end),
        );
    }
    out.push_str("</svg>\n");
    // Legend: identity channel for the per-process lane colours.
    if harvest.streams.len() > 1 {
        out.push_str("<ul class=\"legend\">");
        for (i, stream) in harvest.streams.iter().enumerate() {
            let _ = write!(
                out,
                "<li><span class=\"swatch {}\"></span>{}</li>",
                series_class(i),
                escape_html(&process_name(stream))
            );
        }
        out.push_str("</ul>\n");
    }
    out.push_str("</section>\n");
    out
}

fn render_sparklines(harvest: &Harvest) -> String {
    use std::fmt::Write as _;
    // Filter empty series *before* applying the cap: the cap counts
    // rendered sparklines, so the "showing N of M" marker below never
    // overstates what is on screen.
    let drawable: Vec<(&String, &Vec<(u64, u64)>)> = harvest
        .series
        .iter()
        .filter(|(_, samples)| !samples.is_empty())
        .collect();
    if drawable.is_empty() {
        return String::new();
    }
    let shown = &drawable[..drawable.len().min(MAX_SPARKLINES)];
    let mut out = String::from("<section><h2>Time series</h2>\n<div class=\"sparks\">\n");
    for &(name, samples) in shown {
        let w = 220.0;
        let h = 44.0;
        let t0 = samples[0].0;
        let t1 = samples[samples.len() - 1].0.max(t0 + 1);
        let v_max = samples.iter().map(|&(_, v)| v).max().unwrap_or(1).max(1);
        let point = |&(t, v): &(u64, u64)| -> (f64, f64) {
            (
                w * (t.saturating_sub(t0)) as f64 / (t1 - t0) as f64,
                h - 4.0 - (h - 8.0) * v as f64 / v_max as f64,
            )
        };
        let path = samples
            .iter()
            .map(point)
            .map(|(x, y)| format!("{x:.1},{y:.1}"))
            .collect::<Vec<_>>()
            .join(" ");
        let (ex, ey) = point(&samples[samples.len() - 1]);
        let last = samples[samples.len() - 1].1;
        let _ = writeln!(
            out,
            "<figure class=\"spark\"><figcaption>{}</figcaption>\
             <svg viewBox=\"0 0 {w:.0} {h:.0}\" role=\"img\" aria-label=\"{}\">\
             <title>{} · {} samples · last {}</title>\
             <polyline class=\"line\" points=\"{path}\"/>\
             <circle class=\"dot\" cx=\"{ex:.1}\" cy=\"{ey:.1}\" r=\"4\"/></svg>\
             <div class=\"spark-last\">{}</div></figure>",
            escape_html(name),
            escape_html(name),
            escape_html(name),
            samples.len(),
            fmt_count(last),
            fmt_count(last),
        );
    }
    out.push_str("</div>\n");
    if shown.len() < drawable.len() {
        let _ = writeln!(
            out,
            "<p class=\"note\">showing {} of {} series</p>",
            shown.len(),
            drawable.len()
        );
    }
    out.push_str("</section>\n");
    out
}

fn render_alerts(harvest: &Harvest) -> String {
    use std::fmt::Write as _;
    if harvest.alerts.is_empty() {
        return String::new();
    }
    let firing = harvest
        .alerts
        .iter()
        .filter(|a| a.state == "firing")
        .count();
    let mut out = String::from("<section><h2>SLO alerts</h2>\n");
    let _ = writeln!(
        out,
        "<p class=\"note\">{} transition{} · {} firing</p>",
        harvest.alerts.len(),
        if harvest.alerts.len() == 1 { "" } else { "s" },
        firing
    );
    out.push_str(
        "<table><thead><tr><th>rule</th><th>series</th><th>state</th>\
         <th class=\"num\">value</th><th class=\"num\">threshold</th>\
         <th class=\"num\">at</th></tr></thead><tbody>\n",
    );
    for alert in &harvest.alerts {
        let badge = if alert.state == "firing" {
            "badge-firing"
        } else {
            "badge-ok"
        };
        let _ = writeln!(
            out,
            "<tr><td><code>{}</code></td><td><code>{}</code></td>\
             <td><span class=\"badge {badge}\">{}</span></td>\
             <td class=\"num\">{:.2}</td><td class=\"num\">{:.2}</td>\
             <td class=\"num\">{}</td></tr>",
            escape_html(&alert.rule),
            escape_html(&alert.series),
            escape_html(&alert.state),
            alert.value,
            alert.threshold,
            fmt_duration(alert.at_ns),
        );
    }
    out.push_str("</tbody></table></section>\n");
    out
}

fn render_counter_table(harvest: &Harvest) -> String {
    use std::fmt::Write as _;
    if harvest.counters.is_empty() {
        return String::new();
    }
    let mut out = String::from(
        "<section><h2>Counters</h2><table><thead><tr>\
         <th>counter</th><th class=\"num\">value</th></tr></thead><tbody>\n",
    );
    for (name, value) in &harvest.counters {
        let _ = writeln!(
            out,
            "<tr><td><code>{}</code></td><td class=\"num\">{}</td></tr>",
            escape_html(name),
            fmt_count(*value)
        );
    }
    out.push_str("</tbody></table></section>\n");
    out
}

fn render_hist_table(harvest: &Harvest) -> String {
    use std::fmt::Write as _;
    if harvest.histograms.is_empty() {
        return String::new();
    }
    let mut out = String::from(
        "<section><h2>Histograms</h2><table><thead><tr><th>histogram</th>\
         <th class=\"num\">n</th><th class=\"num\">mean</th><th class=\"num\">p50</th>\
         <th class=\"num\">p95</th><th class=\"num\">p99</th></tr></thead><tbody>\n",
    );
    for (name, hist) in &harvest.histograms {
        let mean = if hist.total == 0 {
            0.0
        } else {
            hist.sum as f64 / hist.total as f64
        };
        let _ = writeln!(
            out,
            "<tr><td><code>{}</code></td><td class=\"num\">{}</td><td class=\"num\">{mean:.1}</td>\
             <td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td></tr>",
            escape_html(name),
            fmt_count(hist.total),
            fmt_count(hist_quantile(hist, 0.50)),
            fmt_count(hist_quantile(hist, 0.95)),
            fmt_count(hist_quantile(hist, 0.99)),
        );
    }
    out.push_str("</tbody></table></section>\n");
    out
}

/// Inline stylesheet: role-named custom properties from the validated
/// reference palette, light and dark, ink tokens for all text, series
/// colours only on marks.
const STYLE: &str = r#"
:root { color-scheme: light dark; }
.viz-root {
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink-1: #0b0b0b; --ink-2: #52514e; --ink-muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --s0: #2a78d6; --s1: #eb6834; --s2: #1baf7a; --s3: #eda100;
  --s4: #e87ba4; --s5: #008300; --s6: #4a3aa7; --s7: #e34948;
  margin: 0; padding: 24px; background: var(--page); color: var(--ink-1);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --s0: #3987e5; --s1: #d95926; --s2: #199e70; --s3: #c98500;
    --s4: #d55181; --s5: #008300; --s6: #9085e9; --s7: #e66767;
  }
}
header h1 { font-size: 20px; margin: 0 0 4px; }
.sub { color: var(--ink-2); margin: 0 0 20px; }
section { background: var(--surface-1); border-radius: 8px; padding: 16px 20px;
  margin: 0 0 16px; border: 1px solid var(--grid); }
h2 { font-size: 14px; margin: 0 0 12px; color: var(--ink-2);
  font-weight: 600; text-transform: none; }
.tiles { display: flex; flex-wrap: wrap; gap: 24px; }
.tile-label { color: var(--ink-2); }
.tile-value { font-size: 28px; font-weight: 600; }
.tile-note { color: var(--ink-muted); font-size: 12px; }
.tree { list-style: none; margin: 0; padding: 0; }
.tree .child { padding-left: 24px; }
.tree em { color: var(--ink-muted); }
.swatch { display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin-right: 6px; }
.s0 { fill: var(--s0); background: var(--s0); } .s1 { fill: var(--s1); background: var(--s1); }
.s2 { fill: var(--s2); background: var(--s2); } .s3 { fill: var(--s3); background: var(--s3); }
.s4 { fill: var(--s4); background: var(--s4); } .s5 { fill: var(--s5); background: var(--s5); }
.s6 { fill: var(--s6); background: var(--s6); } .s7 { fill: var(--s7); background: var(--s7); }
.sother { fill: var(--ink-muted); background: var(--ink-muted); }
.waterfall { width: 100%; height: auto; }
.waterfall .grid { stroke: var(--grid); stroke-width: 1; }
.waterfall .rowlabel { fill: var(--ink-2); font-size: 10px;
  font-family: ui-monospace, monospace; }
.waterfall .bar { stroke: var(--surface-1); stroke-width: 1; }
.legend { list-style: none; margin: 8px 0 0; padding: 0; display: flex;
  flex-wrap: wrap; gap: 16px; color: var(--ink-2); }
.sparks { display: flex; flex-wrap: wrap; gap: 20px; }
.spark figcaption { color: var(--ink-2); font-size: 12px;
  font-family: ui-monospace, monospace; }
.spark { margin: 0; }
.spark .line { fill: none; stroke: var(--s0); stroke-width: 2;
  stroke-linejoin: round; stroke-linecap: round; }
.spark .dot { fill: var(--s0); stroke: var(--surface-1); stroke-width: 2; }
.spark-last { color: var(--ink-1); font-weight: 600; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: 4px 12px 4px 0;
  border-bottom: 1px solid var(--grid); }
th { color: var(--ink-muted); font-weight: 500; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.note { color: var(--ink-muted); font-size: 12px; }
.badge { display: inline-block; padding: 1px 8px; border-radius: 9px;
  font-size: 12px; font-weight: 600; }
.badge-firing { background: var(--s7); color: #ffffff; }
.badge-ok { background: var(--grid); color: var(--ink-2); }
footer { color: var(--ink-muted); font-size: 12px; margin-top: 8px; }
code { font-family: ui-monospace, monospace; }
"#;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_input() -> ReportInput {
        ReportInput {
            label: "trace.ndjson".into(),
            text: concat!(
                "{\"type\":\"meta\",\"version\":1,\"spans\":2,\"counters\":2,\"histograms\":1}\n",
                "{\"type\":\"context\",\"trace_id\":\"00aabbccddeeff11\",\"parent_span\":null,\"process\":\"scanbist\"}\n",
                "{\"type\":\"span\",\"path\":\"campaign\",\"thread\":0,\"start_ns\":0,\"end_ns\":900,\"dur_ns\":900}\n",
                "{\"type\":\"span\",\"path\":\"campaign/fault_sim\",\"thread\":0,\"start_ns\":10,\"end_ns\":500,\"dur_ns\":490}\n",
                "{\"type\":\"counter\",\"name\":\"robust.retry.success\",\"value\":4}\n",
                "{\"type\":\"counter\",\"name\":\"ppsfp.faults_dropped\",\"value\":17}\n",
                "{\"type\":\"hist\",\"name\":\"lat\",\"hist\":{\"edges\":[1,2],\"counts\":[1,1,0],\"total\":2,\"sum\":3}}\n",
                "{\"type\":\"ts\",\"name\":\"work.items\",\"samples\":[[0,0],[100,5],[200,9]]}\n",
                "{\"type\":\"retry\",\"fault\":3,\"round\":0,\"sessions\":4}\n",
            )
            .to_owned(),
        }
    }

    #[test]
    fn renders_self_contained_dashboard() {
        // The fixture is a stream the emitters could have written.
        crate::schema::check_stream(&sample_input().text).expect("fixture matches the schema");
        let html = render(&[sample_input()], "test report").expect("render");
        // Structure.
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("<style>"));
        assert!(html.contains("<svg class=\"waterfall\""));
        assert!(html.contains("campaign/fault_sim"));
        assert!(html.contains("work.items"));
        assert!(html.contains("00aabbccddeeff11"));
        // Required counters surface in tiles.
        assert!(html.contains("Robust retries"));
        assert!(html.contains("Faults dropped"));
        assert!(html.contains("ppsfp.faults_dropped"));
        // Self-contained: no external assets of any kind.
        assert!(!html.contains("http://"));
        assert!(!html.contains("https://"));
        assert!(!html.contains("<script"));
        assert!(!html.contains("<link"));
        assert!(!html.contains("src="));
    }

    #[test]
    fn merges_multiple_streams_into_one_tree() {
        let parent = sample_input();
        let child = ReportInput {
            label: "trace_child.ndjson".into(),
            text: concat!(
                "{\"type\":\"context\",\"trace_id\":\"00aabbccddeeff11\",\"parent_span\":\"campaign/fault_sim\",\"process\":\"table1\"}\n",
                "{\"type\":\"span\",\"path\":\"experiment\",\"thread\":0,\"start_ns\":5,\"end_ns\":50,\"dur_ns\":45}\n",
            )
            .to_owned(),
        };
        let html = render(&[parent, child], "joined").expect("render");
        assert!(html.contains("Trace tree"));
        assert!(html.contains("table1"));
        assert!(!html.contains("orphan"), "parent span resolves");
    }

    #[test]
    fn rejects_unparseable_input() {
        let bad = ReportInput {
            label: "junk.txt".into(),
            text: "this is not json\n".into(),
        };
        let err = render(&[bad], "t").unwrap_err();
        assert!(err.contains("junk.txt"), "{err}");
    }

    #[test]
    fn accepts_metrics_snapshot_document() {
        let snap = ReportInput {
            label: "metrics.json".into(),
            text: r#"{"version":1,"counters":{"a.b":3},"histograms":{},"spans":{}}"#.into(),
        };
        let html = render(&[snap], "snap").expect("render");
        assert!(html.contains("a.b"));
    }

    #[test]
    fn renders_call_graph_panel_from_graph_summary() {
        let input = ReportInput {
            label: "graph.ndjson".into(),
            text: concat!(
                "{\"type\":\"graph_fn\",\"id\":0,\"fn\":\"a::f\",\"file\":\"a.rs\",\"line\":1,\"test\":false,\"calls\":1,\"panics\":0,\"locks\":0,\"io\":0,\"taints\":0}\n",
                "{\"type\":\"graph_edge\",\"from\":0,\"to\":0,\"from_fn\":\"a::f\",\"to_fn\":\"a::f\",\"file\":\"a.rs\",\"line\":2}\n",
                "{\"type\":\"graph\",\"files\":3,\"functions\":1,\"edges\":1,\"unresolved\":4,\"panic_sites\":5,\"lock_sites\":6,\"taint_sites\":7}\n",
            )
            .to_owned(),
        };
        let html = render(&[input], "graph").expect("render");
        assert!(html.contains("Call graph"));
        assert!(html.contains("panic sites"));
        // Raw node/edge records feed the summary, not the audit tally.
        assert!(!html.contains("Audit events"));
    }

    #[test]
    fn renders_alert_panel_from_alert_records() {
        let input = ReportInput {
            label: "trace.ndjson".into(),
            text: concat!(
                "{\"type\":\"alert\",\"rule\":\"diag-p99\",\"series\":\"diagnose#p99\",\"state\":\"firing\",\"value\":120.5,\"threshold\":100,\"at_ns\":1000000}\n",
                "{\"type\":\"alert\",\"rule\":\"diag-p99\",\"series\":\"diagnose#p99\",\"state\":\"resolved\",\"value\":80,\"threshold\":100,\"at_ns\":2000000}\n",
            )
            .to_owned(),
        };
        let html = render(&[input], "alerts").expect("render");
        assert!(html.contains("SLO alerts"));
        assert!(html.contains("diag-p99"));
        assert!(html.contains("badge-firing"));
        assert!(html.contains("badge-ok"));
        assert!(html.contains("1 firing"));
        // Alerts are a first-class panel, not a generic audit tally.
        assert!(!html.contains("Audit events"));
    }

    #[test]
    fn waterfall_truncation_says_showing_n_of_m() {
        use std::fmt::Write as _;
        let mut text = String::from(
            "{\"type\":\"context\",\"trace_id\":\"00aabbccddeeff11\",\"parent_span\":null,\"process\":\"p\"}\n",
        );
        for i in 0..(MAX_WATERFALL_ROWS + 10) {
            let _ = writeln!(
                text,
                "{{\"type\":\"span\",\"path\":\"s{i}\",\"thread\":0,\"start_ns\":{i},\"end_ns\":{},\"dur_ns\":10}}",
                i + 10
            );
        }
        let input = ReportInput {
            label: "trace.ndjson".into(),
            text,
        };
        let html = render(&[input], "big").expect("render");
        assert!(
            html.contains(&format!(
                "showing the first {MAX_WATERFALL_ROWS} of {} spans",
                MAX_WATERFALL_ROWS + 10
            )),
            "explicit truncation marker"
        );
    }

    #[test]
    fn sparkline_truncation_counts_rendered_series_only() {
        // MAX_SPARKLINES + 4 non-empty series plus 3 empty ones mixed
        // in: the empty ones draw nothing, so the marker must count
        // only what was actually rendered and what was drawable.
        use std::fmt::Write as _;
        let mut text = String::new();
        for i in 0..(MAX_SPARKLINES + 4) {
            let _ = writeln!(
                text,
                "{{\"type\":\"ts\",\"name\":\"series.{i:03}\",\"samples\":[[0,1],[100,{i}]]}}"
            );
        }
        for i in 0..3 {
            let _ = writeln!(text, "{{\"type\":\"ts\",\"name\":\"empty.{i:03}\",\"samples\":[]}}");
        }
        let input = ReportInput {
            label: "trace.ndjson".into(),
            text,
        };
        let html = render(&[input], "sparks").expect("render");
        let figures = html.matches("<figure class=\"spark\">").count();
        assert_eq!(figures, MAX_SPARKLINES, "cap counts rendered sparklines");
        assert!(
            html.contains(&format!(
                "showing {MAX_SPARKLINES} of {} series",
                MAX_SPARKLINES + 4
            )),
            "marker counts drawable series, not raw map size"
        );
    }

    #[test]
    fn sparklines_under_cap_have_no_marker() {
        let input = sample_input();
        let html = render(&[input], "small").expect("render");
        assert!(!html.contains("of 1 series"), "no marker when nothing truncated");
    }

    #[test]
    fn legend_folds_past_eighth_stream_like_the_bars() {
        // Ten streams: bars for streams 8+ use the muted fold class, so
        // their legend and tree swatches must too.
        let mut inputs = Vec::new();
        for i in 0..10 {
            inputs.push(ReportInput {
                label: format!("t{i}.ndjson"),
                text: format!(
                    "{{\"type\":\"context\",\"trace_id\":\"00aabbccddeeff11\",{}\"process\":\"proc{i}\"}}\n{{\"type\":\"span\",\"path\":\"{}\",\"thread\":0,\"start_ns\":0,\"end_ns\":10,\"dur_ns\":10}}\n",
                    if i == 0 {
                        String::new()
                    } else {
                        "\"parent_span\":\"root\",".to_owned()
                    },
                    if i == 0 { "root".to_owned() } else { format!("w{i}") }
                ),
            });
        }
        let html = render(&inputs, "many").expect("render");
        assert!(
            html.contains("<span class=\"swatch sother\"></span>proc9"),
            "ninth-plus legend swatch folds to sother"
        );
        assert!(
            !html.contains("swatch s8"),
            "no out-of-palette class is ever emitted"
        );
    }
}
