//! The one definition of every exported record shape.
//!
//! [`RECORDS`] maps each NDJSON record `type` the workspace writes to
//! its [`Field`]s: trace events, live telemetry, flight-recorder dumps,
//! diagnosis and recovery audits, `scan-lint` findings and call graphs,
//! and SLO alerts. The same [`Field`] lists describe the three JSON
//! documents: [`METRICS`], [`ALERTS`] and [`DAEMON_BENCH`]. `obs-check`
//! and the emitters' tests check against these tables, so a shape is
//! written down once.
//!
//! Unlisted members are allowed (a robust audit's `fault` adds
//! `confidence`, a finding adds `hint`). A string `"trace"` stamp must
//! be the same on every line of a stream.

use std::collections::BTreeMap;

use crate::json::{parse, Value};
use Kind::{
    Bool, NonEmptyObjects, NonNeg, NullOrNonEmpty, Num, Numbers, Object, Objects, OneOf, Positive,
    Samples, Str, TraceId, Version, Zero,
};

/// The JSON kind a [`Field`] must hold.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// Any string.
    Str,
    /// Any number.
    Num,
    /// A number ≥ 0.
    NonNeg,
    /// A number ≥ 1 (source lines and columns).
    Positive,
    /// The number 0 (a count that must stay empty).
    Zero,
    /// `true` or `false`.
    Bool,
    /// One of the listed strings.
    OneOf(&'static [&'static str]),
    /// The number 1: the format version of a versioned shape.
    Version,
    /// An array of numbers.
    Numbers,
    /// `[offset_ns, value]` number pairs with non-decreasing offsets.
    Samples,
    /// 16 lowercase hex digits.
    TraceId,
    /// `null` or a non-empty string.
    NullOrNonEmpty,
    /// An object with these fields.
    Object(&'static [Field]),
    /// An array of objects, each with these fields.
    Objects(&'static [Field]),
    /// A non-empty array of objects, each with these fields.
    NonEmptyObjects(&'static [Field]),
}

/// One member of a record or document.
#[derive(Clone, Copy, Debug)]
pub struct Field {
    /// Member name.
    pub name: &'static str,
    /// The kind its value must have.
    pub kind: Kind,
    /// Whether the member must be present; an optional member is
    /// checked only when present.
    pub required: bool,
}

const fn req(name: &'static str, kind: Kind) -> Field {
    Field {
        name,
        kind,
        required: true,
    }
}

const fn opt(name: &'static str, kind: Kind) -> Field {
    Field {
        name,
        kind,
        required: false,
    }
}

/// A JSON document shape: a name for messages plus its fields.
#[derive(Clone, Copy, Debug)]
pub struct Document {
    /// What the document is, for messages.
    pub name: &'static str,
    /// Its top-level members.
    pub fields: &'static [Field],
}

impl Document {
    /// Checks `value` against this document's fields.
    ///
    /// # Errors
    ///
    /// Names the document and the first offending member.
    pub fn check(&self, value: &Value) -> Result<(), String> {
        check_fields(value, self.fields, "").map_err(|e| format!("{}: {e}", self.name))
    }
}

/// Every NDJSON record type, by its `"type"` member.
#[rustfmt::skip]
pub const RECORDS: &[(&str, &[Field])] = &[
    // Trace events (`crate::export::ndjson`; `span` also from the flight recorder).
    ("meta", &[req("version", Version)]),
    ("span", &[req("path", Str), req("thread", NonNeg), req("start_ns", NonNeg),
               req("end_ns", NonNeg), req("dur_ns", NonNeg)]),
    ("counter", &[req("name", Str), req("value", NonNeg)]),
    ("hist", &[req("name", Str), req("hist", Object(&[req("edges", Numbers),
               req("counts", Numbers), req("total", NonNeg), req("sum", NonNeg)]))]),
    // Live telemetry, trace correlation and SLO alert transitions.
    ("ts", &[req("name", Str), req("samples", Samples)]),
    ("context", &[req("trace_id", TraceId), req("process", Str),
                  opt("parent_span", NullOrNonEmpty)]),
    ("alert", &[req("rule", Str), req("series", Str),
                req("state", OneOf(&["firing", "resolved"])), req("value", Num),
                req("threshold", Num), req("at_ns", NonNeg)]),
    // Flight-recorder dumps (`crate::recorder`).
    ("flight", &[req("version", Version), req("reason", OneOf(&["panic", "error"])),
                 req("process", Str), req("at_ns", NonNeg), req("events", NonNeg)]),
    ("delta", &[req("name", Str), req("delta", NonNeg), req("total", NonNeg),
                req("at_ns", NonNeg)]),
    ("tick", &[req("at_ns", NonNeg), req("counters", NonNeg), req("histograms", NonNeg)]),
    // Diagnosis audits: per-fault candidate-set convergence with one step
    // per partition, and the fault-tolerant engine's recovery actions.
    ("fault", &[req("index", NonNeg), req("actual", NonNeg), req("final", NonNeg),
                req("steps", Objects(&[req("partition", NonNeg), req("kind", Str),
                    req("failing_groups", Numbers), req("candidates", NonNeg)]))]),
    ("retry", &[req("fault", NonNeg), req("round", NonNeg), req("sessions", NonNeg)]),
    ("vote", &[req("fault", NonNeg), req("partition", NonNeg), req("group", NonNeg),
               req("fail", NonNeg), req("pass", NonNeg), req("lost", NonNeg),
               req("verdict", OneOf(&["pass", "fail", "lost"]))]),
    ("fallback", &[req("fault", NonNeg), req("partition", NonNeg), req("support", NonNeg),
                   req("candidates", NonNeg)]),
    // `scan-lint` findings (with an optional witness call chain), run
    // summary, and call-graph export.
    ("finding", &[req("rule", Str), req("name", Str), req("severity", OneOf(&["deny", "warn"])),
                  req("file", Str), req("line", Positive), req("col", Positive),
                  req("message", Str), opt("chain", Objects(&[req("fn", Str),
                      req("file", Str), req("line", Positive)]))]),
    ("lint", &[req("files", NonNeg), req("manifests", NonNeg), req("findings", NonNeg),
               req("suppressed", NonNeg), req("unsafe_sites", NonNeg)]),
    ("graph_fn", &[req("id", NonNeg), req("fn", Str), req("file", Str), req("line", NonNeg),
                   req("test", Bool), req("calls", NonNeg), req("panics", NonNeg),
                   req("locks", NonNeg), req("io", NonNeg), req("taints", NonNeg)]),
    ("graph_edge", &[req("from", NonNeg), req("to", NonNeg), req("from_fn", Str),
                     req("to_fn", Str), req("file", Str), req("line", NonNeg)]),
    ("graph", &[req("files", NonNeg), req("functions", NonNeg), req("edges", NonNeg),
                req("unresolved", NonNeg), req("panic_sites", NonNeg),
                req("lock_sites", NonNeg), req("taint_sites", NonNeg)]),
];

/// The JSON metrics snapshot (`crate::export::metrics_json`, `/metrics.json`).
#[rustfmt::skip]
pub const METRICS: Document = Document {
    name: "metrics snapshot",
    fields: &[req("version", Version), req("counters", Object(&[])),
              req("histograms", Object(&[])), req("spans", Object(&[]))],
};

/// The `/alerts.json` document (`crate::serve::alerts_json`).
#[rustfmt::skip]
pub const ALERTS: Document = Document {
    name: "alerts document",
    fields: &[req("version", Version), req("alerts", Objects(&[req("rule", Str),
              req("series", Str), req("state", OneOf(&["firing", "ok"])), req("value", Num),
              req("threshold", Num), req("since_ns", NonNeg)]))],
};

/// The `scanbistd-loadgen` goodput document (`BENCH_daemon.json`):
/// per-scenario overload evidence, with zero real failures.
#[rustfmt::skip]
pub const DAEMON_BENCH: Document = Document {
    name: "daemon goodput document",
    fields: &[req("version", Version), req("suite", Str), req("scenarios", NonEmptyObjects(&[
        req("label", Str), req("offered_rps", NonNeg), req("sent", NonNeg), req("ok", NonNeg),
        req("shed_429", NonNeg), req("deadline_504", NonNeg), req("real_failures", Zero),
        req("max_queue_depth", NonNeg), req("goodput_rps", NonNeg),
        req("latency_us", Object(&[req("p50", NonNeg), req("p95", NonNeg), req("p99", NonNeg)])),
    ]))],
};

/// Checks one NDJSON record against its type's schema and returns the
/// type.
///
/// # Errors
///
/// Names the record type and the first offending member; an absent or
/// unknown `type` is an error.
pub fn check_record(value: &Value) -> Result<&'static str, String> {
    let kind = value
        .get("type")
        .and_then(Value::as_str)
        .ok_or("missing \"type\"")?;
    let &(name, fields) = RECORDS
        .iter()
        .find(|(name, _)| *name == kind)
        .ok_or_else(|| format!("unknown event type `{kind}`"))?;
    check_fields(value, fields, "").map_err(|e| format!("`{name}` record: {e}"))?;
    Ok(name)
}

/// Checks a whole NDJSON stream and returns its records. Beyond each
/// record's schema, a stream must hold at least one record, carry one
/// consistent `trace` stamp, at most one `context` record and at most
/// one `flight` header; no `span` may end before it starts; and a
/// `graph` summary's totals must equal the `graph_fn` and `graph_edge`
/// records before it.
///
/// # Errors
///
/// The first violation, prefixed with its 1-based line number when it
/// belongs to one line.
pub fn check_stream(text: &str) -> Result<Vec<Value>, String> {
    let mut records = Vec::new();
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    let mut stamp: Option<String> = None;
    for (index, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", index + 1);
        let value = parse(line).map_err(|e| at(e.to_string()))?;
        let kind = check_record(&value).map_err(at)?;
        if let Some(trace) = value.get("trace").and_then(Value::as_str) {
            match &stamp {
                None => stamp = Some(trace.to_owned()),
                Some(seen) if seen == trace => {}
                Some(seen) => {
                    return Err(at(format!("trace stamp `{trace}` conflicts with `{seen}`")))
                }
            }
        }
        let number = |member| value.get(member).and_then(Value::as_f64);
        if kind == "span" && number("start_ns") > number("end_ns") {
            return Err(at("span ends before it starts".to_owned()));
        }
        if kind == "graph" {
            for (member, kind) in [("functions", "graph_fn"), ("edges", "graph_edge")] {
                let carried = counts.get(kind).copied().unwrap_or(0);
                if number(member) != Some(carried as f64) {
                    let claimed = number(member).unwrap_or(f64::NAN);
                    return Err(at(format!(
                        "graph summary claims {claimed} {member}, stream carried {carried}"
                    )));
                }
            }
        }
        *counts.entry(kind).or_insert(0) += 1;
        records.push(value);
    }
    if records.is_empty() {
        return Err("empty NDJSON stream".to_owned());
    }
    for kind in ["context", "flight"] {
        match counts.get(kind) {
            Some(&n) if n > 1 => return Err(format!("{n} `{kind}` records (want at most 1)")),
            _ => {}
        }
    }
    Ok(records)
}

impl Kind {
    fn describe(self) -> &'static str {
        match self {
            Str => "a string",
            Num => "a number",
            NonNeg => "a non-negative number",
            Positive => "a positive number",
            Zero => "zero",
            Bool => "a bool",
            OneOf(_) => "one of its choices",
            Version => "version 1",
            Numbers => "a number array",
            Samples => "an array of [offset_ns, value] samples",
            TraceId => "a 16-hex-digit trace id",
            NullOrNonEmpty => "null or a non-empty string",
            Object(_) => "an object",
            Objects(_) => "an object array",
            NonEmptyObjects(_) => "a non-empty object array",
        }
    }

    fn check(self, value: &Value, path: &str) -> Result<(), String> {
        let number = value.as_f64();
        let ok = match self {
            Str => value.as_str().is_some(),
            Num => number.is_some(),
            NonNeg => number.is_some_and(|v| v >= 0.0),
            Positive => number.is_some_and(|v| v >= 1.0),
            Zero => number == Some(0.0),
            Bool => matches!(value, Value::Bool(_)),
            OneOf(choices) if !value.as_str().is_some_and(|s| choices.contains(&s)) => {
                return Err(format!("\"{path}\" is not {}", choices.join("|")));
            }
            OneOf(_) => true,
            Version => number == Some(1.0),
            Numbers => value
                .as_array()
                .is_some_and(|a| a.iter().all(|v| v.as_f64().is_some())),
            Samples => return check_samples(value, path),
            TraceId => value
                .as_str()
                .is_some_and(crate::context::is_valid_trace_id),
            NullOrNonEmpty => {
                matches!(value, Value::Null) || value.as_str().is_some_and(|s| !s.is_empty())
            }
            Object(fields) if matches!(value, Value::Object(_)) => {
                return check_fields(value, fields, &format!("{path}."));
            }
            Object(_) => false,
            Objects(fields) | NonEmptyObjects(fields) => match value.as_array() {
                Some([]) if matches!(self, NonEmptyObjects(_)) => false,
                Some(items) => {
                    for (i, item) in items.iter().enumerate() {
                        Object(fields).check(item, &format!("{path}[{i}]"))?;
                    }
                    true
                }
                None => false,
            },
        };
        if ok {
            Ok(())
        } else {
            Err(format!("\"{path}\" is not {}", self.describe()))
        }
    }
}

/// `[offset_ns, value]` pairs whose offsets never go backwards (the
/// sampler's monotonic guarantee).
fn check_samples(value: &Value, path: &str) -> Result<(), String> {
    let samples = value
        .as_array()
        .ok_or_else(|| format!("\"{path}\" is not {}", Samples.describe()))?;
    let mut prev = f64::NEG_INFINITY;
    for (i, pair) in samples.iter().enumerate() {
        let pair = pair.as_array().unwrap_or_default();
        let (Some(offset), Some(_)) = (
            pair.first().and_then(Value::as_f64),
            pair.get(1).and_then(Value::as_f64),
        ) else {
            return Err(format!("\"{path}\"[{i}] is not [offset_ns, value]"));
        };
        if offset < prev {
            return Err(format!("\"{path}\"[{i}] offset went backwards"));
        }
        prev = offset;
    }
    Ok(())
}

fn check_fields(value: &Value, fields: &[Field], prefix: &str) -> Result<(), String> {
    for field in fields {
        let path = format!("{prefix}{}", field.name);
        match value.get(field.name) {
            Some(member) => field.kind.check(member, &path)?,
            None if field.required => {
                return Err(format!("missing \"{path}\" ({})", field.kind.describe()));
            }
            None => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs every corruption of the valid `value` (see [`mutants`])
    /// through `check`, which must reject each one with an error naming
    /// `label` and the member. Returns the number of corruptions.
    fn reject_mutants(
        value: &Value,
        fields: &[Field],
        label: &str,
        check: impl Fn(&Value) -> Result<(), String>,
    ) -> Result<usize, String> {
        let mutants = mutants(value, fields);
        for (member, mutant) in &mutants {
            match check(mutant) {
                Ok(()) => return Err(format!("{label} accepted a bad \"{member}\"")),
                Err(e) if !(e.contains(label) && e.contains(member.as_str())) => {
                    return Err(format!(
                        "rejecting a bad {label} \"{member}\" named neither: {e}"
                    ));
                }
                Err(_) => {}
            }
        }
        Ok(mutants.len())
    }

    /// The single-member corruptions of the object `value`, each labelled
    /// with the member it corrupts: every required member dropped, and
    /// every member given a value of the wrong kind — its own members,
    /// then those of each nested object and of the first element of each
    /// nested object array.
    fn mutants(value: &Value, fields: &[Field]) -> Vec<(String, Value)> {
        let Value::Object(map) = value else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for field in fields {
            let Some(member) = map.get(field.name) else {
                continue;
            };
            let with = |to: Option<Value>| {
                let mut copy = map.clone();
                match to {
                    Some(v) => copy.insert(field.name.to_owned(), v),
                    None => copy.remove(field.name),
                };
                Value::Object(copy)
            };
            let label = || field.name.to_owned();
            if field.required {
                out.push((label(), with(None)));
            }
            out.extend(
                wrong_values(field.kind)
                    .into_iter()
                    .map(|bad| (label(), with(Some(bad)))),
            );
            let nested = match (field.kind, member) {
                (Object(inner), _) => mutants(member, inner),
                (Objects(inner) | NonEmptyObjects(inner), Value::Array(items))
                    if !items.is_empty() =>
                {
                    let mut rows = mutants(&items[0], inner);
                    for (_, first) in &mut rows {
                        let mut items = items.clone();
                        items[0] = std::mem::replace(first, Value::Null);
                        *first = Value::Array(items);
                    }
                    rows
                }
                _ => Vec::new(),
            };
            out.extend(
                nested
                    .into_iter()
                    .map(|(name, inner)| (name, with(Some(inner)))),
            );
        }
        out
    }

    /// Values that a member of `kind` must reject.
    fn wrong_values(kind: Kind) -> Vec<Value> {
        let text = || Value::String("x".to_owned());
        let number = Value::Number;
        match kind {
            Str | Bool | Object(_) => vec![number(1.0)],
            OneOf(_) | TraceId => vec![number(1.0), Value::String("not-a-choice".to_owned())],
            Num => vec![text()],
            NonNeg => vec![text(), number(-1.0)],
            Positive => vec![text(), number(0.0)],
            Zero => vec![text(), number(1.0)],
            Version => vec![text(), number(2.0)],
            NullOrNonEmpty => vec![number(1.0), Value::String(String::new())],
            Numbers => vec![text(), Value::Array(vec![text()])],
            Samples => vec![
                text(),
                Value::Array(vec![text()]),
                Value::Array(vec![
                    Value::Array(vec![number(5.0), number(0.0)]),
                    Value::Array(vec![number(1.0), number(0.0)]),
                ]),
            ],
            Objects(_) => vec![text(), Value::Array(vec![number(1.0)])],
            NonEmptyObjects(_) => vec![text(), Value::Array(Vec::new())],
        }
    }

    /// One valid line per record type, in the layout its emitter writes
    /// (`crate::export`, `crate::recorder`, `crate::slo`, and the
    /// `scan-diagnosis` audit and `scan-lint` writers, whose own tests
    /// run their real output through [`check_stream`]).
    const VALID: &[&str] = &[
        r#"{"type":"meta","version":1,"spans":1,"counters":1,"histograms":1}"#,
        r#"{"type":"span","path":"a/b","thread":0,"start_ns":5,"end_ns":9,"dur_ns":4}"#,
        r#"{"type":"counter","name":"c","value":3}"#,
        r#"{"type":"hist","name":"h","hist":{"edges":[1,2],"counts":[1,0,2],"total":3,"sum":9}}"#,
        r#"{"type":"ts","name":"work.items","samples":[[0,0],[100,5],[100,9]]}"#,
        r#"{"type":"context","trace_id":"00aabbccddeeff11","parent_span":"a/b","process":"p"}"#,
        r#"{"type":"alert","rule":"r","series":"s#p99","state":"firing","value":1.5,"threshold":1,"at_ns":3}"#,
        r#"{"type":"flight","version":1,"reason":"panic","process":"p","at_ns":7,"events":2}"#,
        r#"{"type":"delta","name":"c","delta":2,"total":5,"at_ns":4}"#,
        r#"{"type":"tick","at_ns":4,"counters":1,"histograms":0}"#,
        r#"{"type":"fault","index":0,"actual":2,"final":5,"steps":[{"partition":0,"kind":"interval","failing_groups":[1,3],"candidates":40}]}"#,
        r#"{"type":"retry","fault":3,"round":0,"sessions":4}"#,
        r#"{"type":"vote","fault":0,"partition":1,"group":2,"fail":2,"pass":1,"lost":0,"verdict":"fail"}"#,
        r#"{"type":"fallback","fault":0,"partition":1,"support":1.5,"candidates":5}"#,
        r#"{"type":"finding","rule":"L012","name":"n","severity":"deny","file":"a.rs","line":3,"col":1,"message":"m","hint":"h","chain":[{"fn":"a::f","file":"a.rs","line":1}]}"#,
        r#"{"type":"lint","files":3,"manifests":1,"findings":1,"suppressed":0,"unsafe_sites":0}"#,
        r#"{"type":"graph_fn","id":0,"fn":"a::f","file":"a.rs","line":1,"test":false,"calls":1,"panics":0,"locks":0,"io":0,"taints":0}"#,
        r#"{"type":"graph_edge","from":0,"to":0,"from_fn":"a::f","to_fn":"a::f","file":"a.rs","line":2}"#,
        r#"{"type":"graph","files":1,"functions":0,"edges":0,"unresolved":0,"panic_sites":0,"lock_sites":0,"taint_sites":0}"#,
    ];

    #[test]
    fn every_record_type_has_one_entry_and_rejects_every_corruption() {
        let mut covered = Vec::new();
        for line in VALID {
            let value = parse(line).unwrap();
            let kind = check_record(&value).unwrap();
            let fields = RECORDS.iter().find(|r| r.0 == kind).unwrap().1;
            let n = reject_mutants(&value, fields, kind, |v| check_record(v).map(drop))
                .unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(n > 0, "{line}: no corruption tried");
            covered.push(kind);
        }
        let mut table: Vec<&str> = RECORDS.iter().map(|&(kind, _)| kind).collect();
        assert_eq!(
            table, covered,
            "one VALID line per table entry, in table order"
        );
        table.dedup();
        assert_eq!(table.len(), RECORDS.len(), "duplicate table entry");
    }

    #[test]
    fn stream_rules_reject_each_violation() {
        let span = |start, end| {
            format!(
                r#"{{"type":"span","path":"a","thread":0,"start_ns":{start},"end_ns":{end},"dur_ns":0}}"#
            )
        };
        let context =
            r#"{"type":"context","trace_id":"00aabbccddeeff11","parent_span":null,"process":"p"}"#;
        let flight =
            r#"{"type":"flight","version":1,"reason":"error","process":"p","at_ns":0,"events":0}"#;
        let graph_fn = r#"{"type":"graph_fn","id":0,"fn":"f","file":"a.rs","line":1,"test":true,"calls":0,"panics":0,"locks":0,"io":0,"taints":0}"#;
        let graph_edge = r#"{"type":"graph_edge","from":0,"to":0,"from_fn":"f","to_fn":"f","file":"a.rs","line":1}"#;
        let graph = |functions, edges| {
            format!(
                r#"{{"type":"graph","files":1,"functions":{functions},"edges":{edges},"unresolved":0,"panic_sites":0,"lock_sites":0,"taint_sites":0}}"#
            )
        };
        let stamped =
            |id: &str| format!(r#"{{"trace":"{id}","type":"counter","name":"c","value":1}}"#);

        let valid = [
            context.to_owned(),
            flight.to_owned(),
            span(3, 3),
            graph_fn.to_owned(),
            graph_edge.to_owned(),
            graph(1, 1),
            stamped("00aabbccddeeff11"),
            stamped("00aabbccddeeff11"),
            // A non-string `trace` member (perfbench's traced-run flag)
            // is not a stamp.
            r#"{"type":"meta","version":1,"trace":true}"#.to_owned(),
        ]
        .join("\n");
        assert_eq!(check_stream(&valid).unwrap().len(), 9);

        let cases: &[(String, &str)] = &[
            (String::new(), "empty NDJSON stream"),
            ("\n\n".to_owned(), "empty NDJSON stream"),
            (format!("{context}\n{context}"), "2 `context` records"),
            (format!("{flight}\n{flight}"), "2 `flight` records"),
            (
                format!(
                    "{}\n{}",
                    stamped("00aabbccddeeff11"),
                    stamped("00aabbccddeeff22")
                ),
                "line 2: trace stamp `00aabbccddeeff22` conflicts",
            ),
            (
                format!("{graph_fn}\n{}", graph(2, 0)),
                "claims 2 functions, stream carried 1",
            ),
            (
                format!("{graph_fn}\n{graph_edge}\n{}", graph(1, 0)),
                "claims 0 edges, stream carried 1",
            ),
            (span(9, 5), "line 1: span ends before it starts"),
            (
                r#"{"type":"mystery"}"#.to_owned(),
                "unknown event type `mystery`",
            ),
            (r#"{"name":"c","value":1}"#.to_owned(), "missing \"type\""),
            (format!("{context}\nnot json"), "line 2: JSON error"),
        ];
        for (stream, want) in cases {
            let err = check_stream(stream).expect_err(want);
            assert!(err.contains(want), "want `{want}`, got `{err}`");
        }
    }

    #[test]
    fn documents_reject_every_corruption() {
        let cases = [
            (
                METRICS,
                r#"{"version":1,"counters":{"a":1},"histograms":{},"spans":{}}"#,
            ),
            (
                ALERTS,
                r#"{"version":1,"alerts":[{"rule":"r","series":"s","state":"ok","value":0,"threshold":1,"since_ns":0}]}"#,
            ),
            (
                DAEMON_BENCH,
                r#"{"version":1,"suite":"daemon","scenarios":[{"label":"l","offered_rps":1,"sent":1,"ok":1,"shed_429":0,"deadline_504":0,"real_failures":0,"max_queue_depth":1,"goodput_rps":1,"latency_us":{"p50":1,"p95":2,"p99":3}}]}"#,
            ),
        ];
        for (doc, text) in cases {
            let value = parse(text).unwrap();
            doc.check(&value).unwrap();
            let n = reject_mutants(&value, doc.fields, doc.name, |v| doc.check(v))
                .unwrap_or_else(|e| panic!("{e}"));
            assert!(n > 0);
        }
        let failed = parse(
            &cases[2]
                .1
                .replace(r#""real_failures":0"#, r#""real_failures":2"#),
        )
        .unwrap();
        let err = DAEMON_BENCH.check(&failed).unwrap_err();
        assert!(
            err.contains("scenarios[0].real_failures\" is not zero"),
            "{err}"
        );
    }

    #[test]
    fn checked_in_documents_match_their_schemas() {
        let metrics = parse(include_str!("../../../results/metrics_table1.json")).unwrap();
        METRICS.check(&metrics).unwrap();
        let daemon = parse(include_str!("../../../BENCH_daemon.json")).unwrap();
        DAEMON_BENCH.check(&daemon).unwrap();
    }
}
