//! Declarative SLO alert rules evaluated on the sampler tick.
//!
//! A long-running campaign (or the future `scanbistd` daemon) should
//! not need an operator staring at `/metrics` to notice that p99
//! diagnosis latency or the robust-retry rate has breached its budget.
//! This module loads alert rules from a checked-in `slo.toml` (the
//! same zero-dependency TOML subset `lint.toml` uses), and the
//! background snapshotter thread ([`crate::timeseries::Sampler`])
//! evaluates them on every tick against the in-memory time series, on
//! the monotonic epoch clock.
//!
//! Two rule kinds cover the paper-relevant budgets:
//!
//! * **`static`** — fires when the latest sample of a series exceeds
//!   `max`, resolves when it falls back to `clear` or below. `clear`
//!   defaults to `max`; setting it *below* `max` gives the rule a
//!   hysteresis band so a boundary-riding series fires once and
//!   resolves once instead of flapping.
//! * **`burn_rate`** — the classic multi-window burn-rate alert: fires
//!   only when the series' rate per second exceeds `rate_max` over
//!   *both* a long and a short trailing window (fast burn that is also
//!   sustained), and resolves as soon as the short-window rate drops
//!   back to the budget. Window rates come from
//!   [`crate::timeseries::windowed_rate`], which clamps to the
//!   observed sample span rather than extrapolating.
//!
//! Rules target any series the sampler records: counter totals
//! (`robust.retries`, `ppsfp.faults_dropped`), histogram-derived
//! quantile series (`diagnose#p95`, `fault_sim#p99`), or counts
//! (`diagnose#count`).
//!
//! Firing and resolving transitions are appended to the session
//! history: the exporters emit them as `{"type":"alert"}` NDJSON
//! records (shape in [`crate::schema`]), the `/metrics` endpoint exposes
//! the live state as `scanbist_alert_active{rule="…"}` gauges plus a
//! `/alerts.json` route, `scanbist report` renders an alert panel, and
//! the flight recorder ([`crate::recorder`]) keeps the most recent
//! transitions in its black-box ring.

use std::fmt;
use std::path::Path;
use std::sync::Mutex;

use crate::timeseries::{windowed_rate, Sample, TimeSeriesStore};

/// How a rule decides it is breached.
#[derive(Clone, Debug, PartialEq)]
pub enum RuleKind {
    /// Threshold on the latest sample: fire above `max`, resolve at or
    /// below `clear` (`clear <= max`; equal means no hysteresis band).
    Static {
        /// Fire when the latest sample exceeds this.
        max: f64,
        /// Resolve when the latest sample is at or below this.
        clear: f64,
    },
    /// Multi-window burn rate: fire when the per-second rate over both
    /// trailing windows exceeds `rate_max`, resolve when the
    /// short-window rate returns to budget.
    BurnRate {
        /// Budgeted rate per second.
        rate_max: f64,
        /// Long (sustained) window, milliseconds.
        long_ms: u64,
        /// Short (fast-burn) window, milliseconds.
        short_ms: u64,
    },
}

/// One declarative alert rule from `slo.toml`.
#[derive(Clone, Debug, PartialEq)]
pub struct SloRule {
    /// Rule name (the `[rule.<name>]` section header).
    pub name: String,
    /// Series the rule watches: a counter name or a derived
    /// `hist#p95`-style series.
    pub series: String,
    /// Breach condition.
    pub kind: RuleKind,
}

/// The parsed `slo.toml`: an ordered list of rules.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SloConfig {
    /// Rules in file order.
    pub rules: Vec<SloRule>,
}

/// Error produced for a malformed `slo.toml`.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct SloError {
    /// 1-based line of the offending construct (0 for file-level).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for SloError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slo.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for SloError {}

/// A rule section mid-parse, before validation.
#[derive(Default)]
struct PendingRule {
    name: String,
    line: usize,
    series: Option<String>,
    kind: Option<String>,
    max: Option<f64>,
    clear: Option<f64>,
    rate_max: Option<f64>,
    long_ms: Option<u64>,
    short_ms: Option<u64>,
}

impl SloConfig {
    /// Parses the `slo.toml` text (see the module docs for the
    /// format).
    ///
    /// # Errors
    ///
    /// Returns [`SloError`] on unknown sections/keys, malformed
    /// values, or a rule missing its required fields.
    pub fn parse(text: &str) -> Result<SloConfig, SloError> {
        let mut config = SloConfig::default();
        let mut pending: Option<PendingRule> = None;
        for (index, raw) in text.lines().enumerate() {
            let line_no = index + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let header = header.strip_suffix(']').ok_or_else(|| SloError {
                    line: line_no,
                    message: format!("unterminated section header `{raw}`"),
                })?;
                finish_rule(&mut pending, &mut config)?;
                let name = header.trim().strip_prefix("rule.").ok_or_else(|| SloError {
                    line: line_no,
                    message: format!("unknown section `[{}]` (expected [rule.<name>])", header.trim()),
                })?;
                if name.is_empty() || !name.chars().all(is_rule_name_char) {
                    return Err(SloError {
                        line: line_no,
                        message: format!(
                            "bad rule name `{name}` (letters, digits, `-`, `_`, `.` only)"
                        ),
                    });
                }
                pending = Some(PendingRule {
                    name: name.to_owned(),
                    line: line_no,
                    ..PendingRule::default()
                });
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| SloError {
                line: line_no,
                message: format!("expected `key = value`, got `{raw}`"),
            })?;
            let Some(rule) = pending.as_mut() else {
                return Err(SloError {
                    line: line_no,
                    message: format!("key `{}` outside any [rule.<name>] section", key.trim()),
                });
            };
            let value = value.trim();
            match key.trim() {
                "series" => rule.series = Some(parse_string(value, line_no)?),
                "kind" => rule.kind = Some(parse_string(value, line_no)?),
                "max" => rule.max = Some(parse_number(value, line_no)?),
                "clear" => rule.clear = Some(parse_number(value, line_no)?),
                "rate_max" => rule.rate_max = Some(parse_number(value, line_no)?),
                "long_ms" => rule.long_ms = Some(parse_millis(value, line_no)?),
                "short_ms" => rule.short_ms = Some(parse_millis(value, line_no)?),
                other => {
                    return Err(SloError {
                        line: line_no,
                        message: format!("unknown key `{other}`"),
                    })
                }
            }
        }
        finish_rule(&mut pending, &mut config)?;
        Ok(config)
    }

    /// Reads and parses `path`.
    ///
    /// # Errors
    ///
    /// I/O failures carry the path; parse failures surface as
    /// [`std::io::ErrorKind::InvalidData`] with the [`SloError`]
    /// message.
    pub fn load(path: &Path) -> std::io::Result<SloConfig> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            std::io::Error::new(e.kind(), format!("{}: {e}", path.display()))
        })?;
        SloConfig::parse(&text).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }
}

fn is_rule_name_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.')
}

fn finish_rule(
    pending: &mut Option<PendingRule>,
    config: &mut SloConfig,
) -> Result<(), SloError> {
    let Some(rule) = pending.take() else {
        return Ok(());
    };
    let err = |message: String| SloError {
        line: rule.line,
        message,
    };
    let series = rule
        .series
        .clone()
        .filter(|s| !s.is_empty())
        .ok_or_else(|| err(format!("[rule.{}] needs `series = \"…\"`", rule.name)))?;
    let kind = match rule.kind.as_deref() {
        Some("static") => {
            let max = rule.max.ok_or_else(|| {
                err(format!("[rule.{}] kind `static` needs `max = <number>`", rule.name))
            })?;
            let clear = rule.clear.unwrap_or(max);
            if clear > max {
                return Err(err(format!(
                    "[rule.{}] `clear` ({clear}) must not exceed `max` ({max})",
                    rule.name
                )));
            }
            if rule.rate_max.is_some() || rule.long_ms.is_some() || rule.short_ms.is_some() {
                return Err(err(format!(
                    "[rule.{}] kind `static` takes only `max`/`clear`",
                    rule.name
                )));
            }
            RuleKind::Static { max, clear }
        }
        Some("burn_rate") => {
            let rate_max = rule.rate_max.ok_or_else(|| {
                err(format!(
                    "[rule.{}] kind `burn_rate` needs `rate_max = <number>`",
                    rule.name
                ))
            })?;
            let long_ms = rule.long_ms.ok_or_else(|| {
                err(format!("[rule.{}] kind `burn_rate` needs `long_ms`", rule.name))
            })?;
            let short_ms = rule.short_ms.ok_or_else(|| {
                err(format!("[rule.{}] kind `burn_rate` needs `short_ms`", rule.name))
            })?;
            if short_ms == 0 || long_ms < short_ms {
                return Err(err(format!(
                    "[rule.{}] needs `long_ms >= short_ms > 0` (got {long_ms}/{short_ms})",
                    rule.name
                )));
            }
            if rule.max.is_some() || rule.clear.is_some() {
                return Err(err(format!(
                    "[rule.{}] kind `burn_rate` takes only `rate_max`/`long_ms`/`short_ms`",
                    rule.name
                )));
            }
            RuleKind::BurnRate {
                rate_max,
                long_ms,
                short_ms,
            }
        }
        Some(other) => {
            return Err(err(format!(
                "[rule.{}] unknown kind `{other}` (expected static|burn_rate)",
                rule.name
            )))
        }
        None => {
            return Err(err(format!(
                "[rule.{}] needs `kind = \"static\"|\"burn_rate\"`",
                rule.name
            )))
        }
    };
    config.rules.push(SloRule {
        name: rule.name,
        series,
        kind,
    });
    Ok(())
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str, line: usize) -> Result<String, SloError> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_owned)
        .ok_or_else(|| SloError {
            line,
            message: format!("expected a double-quoted string, got `{value}`"),
        })
}

fn parse_number(value: &str, line: usize) -> Result<f64, SloError> {
    value
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| SloError {
            line,
            message: format!("`{value}` is not a finite number"),
        })
}

fn parse_millis(value: &str, line: usize) -> Result<u64, SloError> {
    value.parse::<u64>().map_err(|_| SloError {
        line,
        message: format!("`{value}` is not a millisecond count"),
    })
}

/// One firing or resolving edge in a rule's lifetime.
#[derive(Clone, Debug, PartialEq)]
pub struct AlertTransition {
    /// Rule name.
    pub rule: String,
    /// Series the rule watches.
    pub series: String,
    /// `true` for a fire edge, `false` for a resolve edge.
    pub firing: bool,
    /// The observed value that crossed the threshold (latest sample
    /// for static rules, short-window rate for burn-rate rules).
    pub value: f64,
    /// The threshold it crossed.
    pub threshold: f64,
    /// Monotonic offset from the obs epoch, nanoseconds.
    pub at_ns: u64,
}

impl AlertTransition {
    /// The transition as one `{"type":"alert"}` NDJSON record.
    #[must_use]
    pub fn ndjson_line(&self) -> String {
        format!(
            "{{\"type\":\"alert\",\"rule\":{},\"series\":{},\"state\":{},\"value\":{},\"threshold\":{},\"at_ns\":{}}}",
            crate::export::escape(&self.rule),
            crate::export::escape(&self.series),
            if self.firing { "\"firing\"" } else { "\"resolved\"" },
            fmt_num(self.value),
            fmt_num(self.threshold),
            self.at_ns,
        )
    }
}

/// The live state of one rule, for `/alerts.json` and the
/// `scanbist_alert_active` gauges.
#[derive(Clone, Debug, PartialEq)]
pub struct AlertStatus {
    /// Rule name.
    pub rule: String,
    /// Series the rule watches.
    pub series: String,
    /// Currently firing?
    pub firing: bool,
    /// Last evaluated value (0 before the first evaluation with data).
    pub value: f64,
    /// The fire threshold.
    pub threshold: f64,
    /// Epoch offset of the last state change (0 if never changed).
    pub since_ns: u64,
}

/// Formats an `f64` for JSON: integral values print without a
/// fractional part so counter-derived numbers stay bit-exact.
#[must_use]
pub(crate) fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_owned();
    }
    #[allow(clippy::cast_possible_truncation)]
    if v.fract() == 0.0 && v.abs() < 9_007_199_254_740_992.0 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Per-rule evaluation state.
struct RuleState {
    firing: bool,
    value: f64,
    since_ns: u64,
}

/// The rule evaluator: state machine over a fixed rule list. The
/// process-global instance lives behind [`install`]; tests drive a
/// local one directly.
pub struct Evaluator {
    rules: Vec<SloRule>,
    states: Vec<RuleState>,
}

impl Evaluator {
    /// An evaluator with every rule initially resolved.
    #[must_use]
    pub fn new(config: SloConfig) -> Evaluator {
        let states = config
            .rules
            .iter()
            .map(|_| RuleState {
                firing: false,
                value: 0.0,
                since_ns: 0,
            })
            .collect();
        Evaluator {
            rules: config.rules,
            states,
        }
    }

    /// Evaluates every rule against `store` at epoch offset `now_ns`,
    /// returning the transitions (fire/resolve edges) this tick
    /// produced. Rules whose series has no samples yet are skipped.
    pub fn evaluate(&mut self, store: &TimeSeriesStore, now_ns: u64) -> Vec<AlertTransition> {
        let series = store.series();
        let mut transitions = Vec::new();
        for (rule, state) in self.rules.iter().zip(self.states.iter_mut()) {
            let Some(samples) = series.get(&rule.series).filter(|s| !s.is_empty()) else {
                continue;
            };
            let (value, threshold, next) = decide(&rule.kind, samples, state.firing);
            state.value = value;
            if next != state.firing {
                state.firing = next;
                state.since_ns = now_ns;
                transitions.push(AlertTransition {
                    rule: rule.name.clone(),
                    series: rule.series.clone(),
                    firing: next,
                    value,
                    threshold,
                    at_ns: now_ns,
                });
            }
        }
        transitions
    }

    /// The live status of every rule.
    #[must_use]
    pub fn statuses(&self) -> Vec<AlertStatus> {
        self.rules
            .iter()
            .zip(self.states.iter())
            .map(|(rule, state)| AlertStatus {
                rule: rule.name.clone(),
                series: rule.series.clone(),
                firing: state.firing,
                value: state.value,
                threshold: match rule.kind {
                    RuleKind::Static { max, .. } => max,
                    RuleKind::BurnRate { rate_max, .. } => rate_max,
                },
                since_ns: state.since_ns,
            })
            .collect()
    }
}

/// One rule decision: (observed value, crossed threshold, next firing
/// state).
fn decide(kind: &RuleKind, samples: &[Sample], firing: bool) -> (f64, f64, bool) {
    match *kind {
        RuleKind::Static { max, clear } => {
            let value = samples.last().map_or(0.0, |&(_, v)| v as f64);
            let next = if firing { value > clear } else { value > max };
            (value, if firing { clear } else { max }, next)
        }
        RuleKind::BurnRate {
            rate_max,
            long_ms,
            short_ms,
        } => {
            let long = windowed_rate(samples, long_ms.saturating_mul(1_000_000));
            let short = windowed_rate(samples, short_ms.saturating_mul(1_000_000));
            let next = if firing {
                short > rate_max
            } else {
                long > rate_max && short > rate_max
            };
            (short, rate_max, next)
        }
    }
}

// ---- the process-wide active evaluator (installed by
// ---- `start_telemetry` when the config names an slo.toml, driven by
// ---- the sampler tick) ----

struct Active {
    evaluator: Evaluator,
    history: Vec<AlertTransition>,
}

static ACTIVE: Mutex<Option<Active>> = Mutex::new(None);

fn lock_active() -> std::sync::MutexGuard<'static, Option<Active>> {
    ACTIVE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Installs `config` as the process-wide rule set, with every rule
/// initially resolved and an empty transition history.
pub fn install(config: SloConfig) {
    *lock_active() = Some(Active {
        evaluator: Evaluator::new(config),
        history: Vec::new(),
    });
}

/// True if a rule set is installed.
#[must_use]
pub fn is_installed() -> bool {
    lock_active().is_some()
}

/// Uninstalls the rule set and history. Called by [`crate::reset`].
pub fn clear() {
    *lock_active() = None;
}

/// One sampler tick: evaluates the installed rules (no-op otherwise),
/// records transitions in the session history, and forwards them to
/// the flight recorder.
pub fn evaluate_tick(store: &TimeSeriesStore, now_ns: u64) {
    let transitions = {
        let mut guard = lock_active();
        let Some(active) = guard.as_mut() else {
            return;
        };
        let transitions = active.evaluator.evaluate(store, now_ns);
        active.history.extend(transitions.iter().cloned());
        transitions
    };
    for t in &transitions {
        crate::recorder::record_alert(t);
    }
}

/// The live status of every installed rule (empty when none).
#[must_use]
pub fn active_alerts() -> Vec<AlertStatus> {
    lock_active()
        .as_ref()
        .map(|a| a.evaluator.statuses())
        .unwrap_or_default()
}

/// Every transition recorded this session, in order.
#[must_use]
pub fn transitions() -> Vec<AlertTransition> {
    lock_active()
        .as_ref()
        .map(|a| a.history.clone())
        .unwrap_or_default()
}

/// The session's alert transitions as `{"type":"alert"}` NDJSON lines
/// (empty string when there are none), for the session exporter.
#[must_use]
pub fn ndjson_lines() -> String {
    let mut out = String::new();
    for t in transitions() {
        out.push_str(&t.ndjson_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Snapshot;

    fn store_with(samples: &[(u64, u64)]) -> TimeSeriesStore {
        let store = TimeSeriesStore::new(64);
        let mut snap = Snapshot::default();
        for &(t, v) in samples {
            snap.counters.insert("robust.retries".into(), v);
            store.sample(&snap, t);
        }
        store
    }

    #[test]
    fn parses_both_rule_kinds() {
        let config = SloConfig::parse(
            r#"
# session budgets
[rule.p99-latency]
series = "diagnose#p99"   # derived quantile series
kind = "static"
max = 50000000
clear = 40000000

[rule.retry-burn]
series = "robust.retries"
kind = "burn_rate"
rate_max = 5.5
long_ms = 2000
short_ms = 250
"#,
        )
        .unwrap();
        assert_eq!(config.rules.len(), 2);
        assert_eq!(config.rules[0].name, "p99-latency");
        assert_eq!(
            config.rules[0].kind,
            RuleKind::Static {
                max: 50_000_000.0,
                clear: 40_000_000.0
            }
        );
        assert_eq!(
            config.rules[1].kind,
            RuleKind::BurnRate {
                rate_max: 5.5,
                long_ms: 2000,
                short_ms: 250
            }
        );
    }

    #[test]
    fn rejects_malformed_configs() {
        assert!(SloConfig::parse("[slo]\n").is_err());
        assert!(SloConfig::parse("series = \"x\"\n").is_err());
        assert!(SloConfig::parse("[rule.a]\nkind = \"static\"\nmax = 1\n").is_err()); // no series
        assert!(SloConfig::parse("[rule.a]\nseries = \"x\"\nmax = 1\n").is_err()); // no kind
        assert!(SloConfig::parse("[rule.a]\nseries = \"x\"\nkind = \"static\"\n").is_err());
        assert!(
            SloConfig::parse("[rule.a]\nseries = \"x\"\nkind = \"static\"\nmax = 1\nclear = 2\n")
                .is_err(),
            "clear above max must be rejected"
        );
        assert!(SloConfig::parse(
            "[rule.a]\nseries = \"x\"\nkind = \"burn_rate\"\nrate_max = 1\nlong_ms = 10\nshort_ms = 20\n"
        )
        .is_err());
        assert!(SloConfig::parse("[rule.a]\nseries = \"x\"\nkind = \"psychic\"\n").is_err());
        assert!(SloConfig::parse("[rule.a]\nseries = \"x\"\nbogus = 1\n").is_err());
        assert!(SloConfig::parse("[rule.bad name]\n").is_err());
    }

    #[test]
    fn static_rule_fires_once_and_resolves_once_on_boundary_rider() {
        // Hysteresis: max 100, clear 90. The series rides the fire
        // boundary (101, 99, 101, 95) after breaching — with the clear
        // band it must NOT flap: one fire edge, then one resolve edge
        // when it finally drops to 90 or below.
        let config = SloConfig::parse(
            "[rule.ride]\nseries = \"robust.retries\"\nkind = \"static\"\nmax = 100\nclear = 90\n",
        )
        .unwrap();
        let mut eval = Evaluator::new(config);
        let values = [50u64, 120, 101, 99, 101, 95, 91, 80, 85, 70];
        let mut edges = Vec::new();
        let store = TimeSeriesStore::new(64);
        let mut snap = Snapshot::default();
        for (i, &v) in values.iter().enumerate() {
            let t = (i as u64 + 1) * 1_000_000;
            snap.counters.insert("robust.retries".into(), v);
            store.sample(&snap, t);
            edges.extend(eval.evaluate(&store, t));
        }
        assert_eq!(edges.len(), 2, "exactly one fire + one resolve: {edges:?}");
        assert!(edges[0].firing && edges[0].value > 100.0);
        assert!(!edges[1].firing && edges[1].value <= 90.0);
        #[allow(clippy::float_cmp)] // the sample value is copied verbatim
        {
            assert_eq!(edges[1].value, 80.0);
        }
        let status = &eval.statuses()[0];
        assert!(!status.firing);
        assert_eq!(status.since_ns, edges[1].at_ns);
    }

    #[test]
    fn burn_rate_needs_both_windows_hot() {
        let config = SloConfig::parse(
            "[rule.burn]\nseries = \"robust.retries\"\nkind = \"burn_rate\"\n\
             rate_max = 100\nlong_ms = 1000\nshort_ms = 200\n",
        )
        .unwrap();
        let mut eval = Evaluator::new(config);
        // 50ms cadence; counter climbing 1/tick (20/s) stays quiet.
        let mut samples: Vec<(u64, u64)> = (0..20).map(|i| (i * 50_000_000, i)).collect();
        let store = store_with(&samples);
        assert!(eval.evaluate(&store, 1_000_000_000).is_empty());
        // A short spike alone (one hot short window, cold long window)
        // must not fire.
        samples.push((1_000_000_000, 19 + 30));
        let store = store_with(&samples);
        let edges = eval.evaluate(&store, 1_000_000_000);
        assert!(edges.is_empty(), "short-only spike fired: {edges:?}");
        // Sustained burn: climb 50/tick for a full second → both
        // windows exceed 100/s → fire; then flatline → resolve.
        let mut v = 49u64;
        for i in 1..=20u64 {
            v += 50;
            samples.push((1_000_000_000 + i * 50_000_000, v));
        }
        let store = store_with(&samples);
        let edges = eval.evaluate(&store, 2_000_000_000);
        assert_eq!(edges.len(), 1, "{edges:?}");
        assert!(edges[0].firing);
        for i in 1..=10u64 {
            samples.push((2_000_000_000 + i * 50_000_000, v));
        }
        let store = store_with(&samples);
        let edges = eval.evaluate(&store, 2_500_000_000);
        assert_eq!(edges.len(), 1, "{edges:?}");
        assert!(!edges[0].firing);
    }

    #[test]
    fn transition_ndjson_is_well_formed() {
        let mut t = AlertTransition {
            rule: "p99".into(),
            series: "diagnose#p99".into(),
            firing: true,
            value: 123.0,
            threshold: 100.5,
            at_ns: 42,
        };
        for (firing, state) in [(true, "firing"), (false, "resolved")] {
            t.firing = firing;
            let line = t.ndjson_line();
            assert_eq!(line, line.trim(), "single line");
            let records = crate::schema::check_stream(&line).unwrap();
            assert_eq!(records.len(), 1, "single line");
            assert_eq!(
                records[0].get("state").and_then(crate::json::Value::as_str),
                Some(state)
            );
        }
    }

    #[test]
    fn fmt_num_keeps_integers_exact() {
        assert_eq!(fmt_num(123.0), "123");
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(1.5), "1.5");
        assert_eq!(fmt_num(f64::NAN), "0");
        assert_eq!(fmt_num(4_294_967_296.0), "4294967296");
    }
}
