//! Finding representation and the two report formats: a human table
//! (stderr) and NDJSON (`--out`, record shapes in `scan_obs::schema`).

use std::fmt::Write as _;

/// How serious an unsuppressed finding is. Every shipped rule is
/// `Deny` — under `--deny` any unsuppressed finding fails the build —
/// but the severity travels with each finding so future advisory rules
/// slot in without a format change.
#[derive(Clone, Copy, Eq, PartialEq, Debug)]
pub enum Severity {
    /// Fails `--deny` runs.
    Deny,
    /// Reported but never fatal.
    Warn,
}

impl Severity {
    /// Lowercase wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// One hop in a semantic rule's witness call chain: the function the
/// chain passes through and the line of the call (or, for the final hop,
/// the offending site itself).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainHop {
    /// Fully qualified function path (`scan_daemon::server::handle`).
    pub func: String,
    /// Root-relative file the hop lives in.
    pub file: String,
    /// 1-based line of the call site / final site.
    pub line: u32,
}

/// One rule violation at a source location.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule id (`L001` … `L008`).
    pub rule: &'static str,
    /// Rule short name (`no-external-deps`, …).
    pub name: &'static str,
    /// Severity of the rule.
    pub severity: Severity,
    /// Root-relative file path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
    /// `Some(reason)` when suppressed by `lint.toml` or an inline
    /// `// lint:allow`.
    pub suppressed: Option<String>,
    /// Witness call chain for semantic rules (L009/L012/L013/L014):
    /// root → … → offending site. Empty for lexical rules.
    pub chain: Vec<ChainHop>,
}

/// The result of linting a workspace.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Every finding, suppressed ones included (they still appear in
    /// the NDJSON stream, marked, so suppressions are auditable).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub rust_files: usize,
    /// Number of `Cargo.toml` manifests scanned.
    pub manifests: usize,
    /// Location of every `unsafe` keyword in code (geiger-style
    /// inventory, printed in the summary even when all carry SAFETY
    /// comments).
    pub unsafe_sites: Vec<(String, u32)>,
}

impl LintReport {
    /// Findings not suppressed by config or inline allows.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }

    /// Number of unsuppressed findings (what `--deny` gates on).
    #[must_use]
    pub fn deny_count(&self) -> usize {
        self.unsuppressed()
            .filter(|f| f.severity == Severity::Deny)
            .count()
    }

    /// Renders the human-readable report: one line per unsuppressed
    /// finding, then the unsafe inventory and a summary.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for finding in self.unsuppressed() {
            let _ = writeln!(
                out,
                "{}:{}:{}: {} [{} {}] {}",
                finding.file,
                finding.line,
                finding.col,
                finding.severity.as_str(),
                finding.rule,
                finding.name,
                finding.message,
            );
            for hop in &finding.chain {
                let _ = writeln!(out, "    via {} ({}:{})", hop.func, hop.file, hop.line);
            }
            let _ = writeln!(out, "    fix: {}", finding.hint);
        }
        let suppressed = self.findings.len() - self.unsuppressed().count();
        let _ = writeln!(
            out,
            "scan-lint: {} file(s) ({} manifest(s)): {} finding(s), {} suppressed",
            self.rust_files + self.manifests,
            self.manifests,
            self.deny_count(),
            suppressed,
        );
        if self.unsafe_sites.is_empty() {
            let _ = writeln!(out, "unsafe inventory: 0 site(s) — workspace is unsafe-free");
        } else {
            let _ = writeln!(out, "unsafe inventory: {} site(s):", self.unsafe_sites.len());
            for (file, line) in &self.unsafe_sites {
                let _ = writeln!(out, "    {file}:{line}");
            }
        }
        out
    }

    /// Renders the NDJSON stream: one `finding` event per finding
    /// (suppressed included, marked) and one trailing `lint` summary
    /// event — so the stream is never empty and always has something to
    /// validate against `scan_obs::schema`.
    #[must_use]
    pub fn render_ndjson(&self) -> String {
        let mut out = String::new();
        for finding in &self.findings {
            let mut line = String::from("{\"type\":\"finding\"");
            let _ = write!(
                line,
                ",\"rule\":{},\"name\":{},\"severity\":{},\"file\":{},\"line\":{},\"col\":{},\"message\":{},\"hint\":{}",
                json_string(finding.rule),
                json_string(finding.name),
                json_string(finding.severity.as_str()),
                json_string(&finding.file),
                finding.line,
                finding.col,
                json_string(&finding.message),
                json_string(finding.hint),
            );
            if let Some(reason) = &finding.suppressed {
                let _ = write!(line, ",\"suppressed\":{}", json_string(reason));
            }
            if !finding.chain.is_empty() {
                line.push_str(",\"chain\":[");
                for (i, hop) in finding.chain.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    let _ = write!(
                        line,
                        "{{\"fn\":{},\"file\":{},\"line\":{}}}",
                        json_string(&hop.func),
                        json_string(&hop.file),
                        hop.line,
                    );
                }
                line.push(']');
            }
            line.push('}');
            out.push_str(&line);
            out.push('\n');
        }
        let suppressed = self.findings.len() - self.unsuppressed().count();
        let _ = writeln!(
            out,
            "{{\"type\":\"lint\",\"files\":{},\"manifests\":{},\"findings\":{},\"suppressed\":{},\"unsafe_sites\":{}}}",
            self.rust_files + self.manifests,
            self.manifests,
            self.deny_count(),
            suppressed,
            self.unsafe_sites.len(),
        );
        out
    }
}

/// Escapes `text` as a JSON string literal (with quotes).
#[must_use]
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

    fn sample() -> LintReport {
        LintReport {
            findings: vec![
                Finding {
                    rule: "L002",
                    name: "no-ambient-rng",
                    severity: Severity::Deny,
                    file: "crates/x/src/lib.rs".into(),
                    line: 3,
                    col: 9,
                    message: "call to `thread_rng`".into(),
                    hint: "derive a scan-rng stream instead",
                    suppressed: None,
                    chain: Vec::new(),
                },
                Finding {
                    rule: "L004",
                    name: "no-unordered-iteration",
                    severity: Severity::Deny,
                    file: "crates/core/src/a.rs".into(),
                    line: 8,
                    col: 1,
                    message: "`HashMap` in deterministic crate".into(),
                    hint: "use BTreeMap",
                    suppressed: Some("membership-only".into()),
                    chain: Vec::new(),
                },
            ],
            rust_files: 2,
            manifests: 1,
            unsafe_sites: vec![("crates/x/src/lib.rs".into(), 12)],
        }
    }

    #[test]
    fn table_shows_only_unsuppressed() {
        let table = sample().render_table();
        assert!(table.contains("L002"));
        assert!(!table.contains("L004"));
        assert!(table.contains("1 finding(s), 1 suppressed"));
        assert!(table.contains("unsafe inventory: 1 site(s)"));
    }

    #[test]
    fn ndjson_includes_suppressed_marked() {
        let ndjson = sample().render_ndjson();
        let records = scan_obs::schema::check_stream(&ndjson).expect("export matches the schema");
        assert_eq!(records.len(), 3);
        let lines: Vec<&str> = ndjson.lines().collect();
        assert!(lines[1].contains("\"suppressed\":\"membership-only\""));
        assert!(lines[2].contains("\"type\":\"lint\""));
        assert!(lines[2].contains("\"findings\":1"));
    }

    #[test]
    fn chain_renders_in_table_and_ndjson() {
        let mut report = sample();
        report.findings[0].chain = vec![
            ChainHop {
                func: "scan_daemon::server::handle".into(),
                file: "crates/daemon/src/server.rs".into(),
                line: 100,
            },
            ChainHop {
                func: "scan_x::helper".into(),
                file: "crates/x/src/lib.rs".into(),
                line: 3,
            },
        ];
        let table = report.render_table();
        assert!(table.contains("via scan_daemon::server::handle (crates/daemon/src/server.rs:100)"));
        let ndjson = report.render_ndjson();
        scan_obs::schema::check_stream(&ndjson).expect("export matches the schema");
        let first = ndjson.lines().next().unwrap();
        assert!(
            first.contains(
                "\"chain\":[{\"fn\":\"scan_daemon::server::handle\",\"file\":\"crates/daemon/src/server.rs\",\"line\":100},"
            ),
            "line: {first}"
        );
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
