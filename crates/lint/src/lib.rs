//! `scan-lint` — vendored zero-dependency static analysis for the
//! scan-BIST workspace.
//!
//! The workspace's load-bearing invariants — bit-identical serial vs
//! parallel diagnosis, the offline zero-dependency build, every random
//! draw flowing through pinned `scan-rng` streams, stdout reserved for
//! machine-readable payloads — were enforced only by convention.
//! This crate makes them machine-checked: a small line/column-tracking
//! Rust lexer (no external parser) feeds a rule engine that walks
//! every `.rs` file and every `Cargo.toml` in the workspace and
//! reports violations with an id, severity, span, and fix-hint.
//!
//! The rule set (see `docs/LINTS.md` for the full catalogue):
//!
//! | id | name | contract |
//! |---|---|---|
//! | L001 | `no-external-deps` | every dependency is a workspace path dep |
//! | L002 | `no-ambient-rng` | no `thread_rng`/`rand::`/`from_entropy` |
//! | L003 | `no-wall-clock-in-core` | clocks only in `crates/obs`+`crates/daemon` |
//! | L004 | `no-unordered-iteration` | no `HashMap`/`HashSet` in deterministic crates |
//! | L005 | `unsafe-needs-safety-comment` | every `unsafe` carries `// SAFETY:` |
//! | L006 | `stdout-cleanliness` | stdout only in `crates/cli` + experiment bins |
//! | L007 | `nonexhaustive-public-errors` | pub error enums are `#[non_exhaustive]` |
//! | L008 | `no-silent-empty-intersection` | call `diagnose_checked`, not `diagnose` |
//! | L009 | `no-blocking-io-inside-span` | no (transitive) blocking I/O under a live span |
//! | L010 | `no-unwrap-in-obs-hot-path` | no `unwrap`/`expect` in obs serve/slo/recorder/timeseries |
//! | L011 | `no-unbounded-queue` | no `VecDeque`/`mpsc::channel()` in the daemon's admission path |
//! | L012 | `panic-freedom` | no panic site reachable from configured `[roots]` |
//! | L013 | `lock-order` | nested lock acquisitions follow one global order |
//! | L014 | `determinism-taint` | core functions never (transitively) reach RNG/clock/`HashMap` |
//!
//! L009 and L012–L014 are *semantic* rules: they run on a workspace
//! call graph ([`model`] → [`graph`] → [`reach`]) and report witness
//! call chains. The rest are lexical token rules.
//!
//! Suppression is always explicit and always justified: a per-rule
//! path allowance in the checked-in `lint.toml` (with a mandatory
//! `reason`), or an inline `// lint:allow(L00x): reason` on (or one
//! line above) the offending line. A directive without a reason is
//! itself a finding.
//!
//! `scan-lint --deny` runs as a gating step in `scripts/verify.sh`;
//! the same engine backs the `scanbist lint` subcommand.

pub mod config;
pub mod findings;
pub mod graph;
pub mod lexer;
pub mod model;
pub mod reach;
pub mod rules;
pub mod walk;

use std::path::Path;

pub use config::{Config, ConfigError};
pub use findings::{ChainHop, Finding, LintReport, Severity};

/// Lints the workspace rooted at `root` under `config`.
///
/// Findings suppressed by `lint.toml` allow-paths or inline
/// `// lint:allow` directives are returned with their
/// [`Finding::suppressed`] reason set; everything else counts toward
/// [`LintReport::deny_count`].
///
/// # Errors
///
/// Returns an error when the tree cannot be walked or a file cannot
/// be read.
pub fn lint_workspace(root: &Path, config: &Config) -> std::io::Result<LintReport> {
    lint_workspace_with_graph(root, config).map(|(report, _)| report)
}

/// Like [`lint_workspace`], but also returns the workspace call graph
/// the semantic rules ran on, for `--graph` NDJSON export.
///
/// # Errors
///
/// Returns an error when the tree cannot be walked or a file cannot
/// be read.
pub fn lint_workspace_with_graph(
    root: &Path,
    config: &Config,
) -> std::io::Result<(LintReport, graph::Graph)> {
    let (rust_files, manifests) = walk::collect(root, config)?;
    let mut manifest_sources = Vec::with_capacity(manifests.len());
    for file in &manifests {
        manifest_sources.push((file.rel.clone(), std::fs::read_to_string(&file.path)?));
    }
    let mut rust_sources = Vec::with_capacity(rust_files.len());
    for file in &rust_files {
        rust_sources.push((file.rel.clone(), std::fs::read_to_string(&file.path)?));
    }
    Ok(lint_sources(&rust_sources, &manifest_sources, config))
}

/// The in-memory lint core: runs every rule over already-read sources.
/// `rust` and `manifests` are `(root-relative path, contents)` pairs.
/// Exposed so tests can lint synthetic workspaces without touching the
/// filesystem.
#[must_use]
pub fn lint_sources(
    rust: &[(String, String)],
    manifests: &[(String, String)],
    config: &Config,
) -> (LintReport, graph::Graph) {
    let mut report = LintReport {
        rust_files: rust.len(),
        manifests: manifests.len(),
        ..LintReport::default()
    };
    let crate_map = crate_idents(manifests);
    for (rel, text) in manifests {
        let mut found = rules::check_manifest(rel, text);
        apply_config_allows(config, &mut found);
        report.findings.append(&mut found);
    }
    let mut models = Vec::with_capacity(rust.len());
    let mut allows_by_file: Vec<(usize, Vec<rules::InlineAllow>)> = Vec::new();
    for (idx, (rel, text)) in rust.iter().enumerate() {
        let tokens = lexer::tokenize(text);
        let (allows, mut malformed) = rules::inline_allows(rel, &tokens);
        let (mut found, unsafe_lines) = rules::check_rust(rel, &tokens);
        for line in unsafe_lines {
            report.unsafe_sites.push((rel.clone(), line));
        }
        for finding in &mut found {
            suppress(config, &allows, finding);
        }
        report.findings.append(&mut found);
        report.findings.append(&mut malformed);
        models.push(model::build_file_model(rel, &crate_ident_for(rel, &crate_map), &tokens));
        if !allows.is_empty() {
            allows_by_file.push((idx, allows));
        }
    }
    let workspace_graph = graph::Graph::build(&models);
    let mut semantic = rules::check_semantic(&workspace_graph, config);
    for finding in &mut semantic {
        let allows = allows_by_file
            .iter()
            .find(|(idx, _)| rust[*idx].0 == finding.file)
            .map_or(&[][..], |(_, a)| a.as_slice());
        suppress(config, allows, finding);
    }
    report.findings.append(&mut semantic);
    (report, workspace_graph)
}

/// Applies `lint.toml` allow-paths and inline allows to one finding.
fn suppress(config: &Config, allows: &[rules::InlineAllow], finding: &mut Finding) {
    if let Some(reason) = config.allow_reason(finding.rule, &finding.file) {
        finding.suppressed = Some(format!("lint.toml: {reason}"));
        return;
    }
    if let Some(allow) = allows
        .iter()
        .find(|a| a.rule == finding.rule && (finding.line == a.line || finding.line == a.line + 1))
    {
        finding.suppressed = Some(allow.reason.clone());
    }
}

/// Parses each manifest's `[package] name` into a (directory-prefix,
/// crate-ident) map; the root manifest maps the empty prefix.
fn crate_idents(manifests: &[(String, String)]) -> Vec<(String, String)> {
    let mut map = Vec::new();
    for (rel, text) in manifests {
        let dir = rel.strip_suffix("Cargo.toml").unwrap_or(rel);
        let dir = dir.trim_end_matches('/').to_string();
        let mut in_package = false;
        for raw in text.lines() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.starts_with('[') {
                in_package = line == "[package]";
                continue;
            }
            if !in_package {
                continue;
            }
            if let Some((key, value)) = line.split_once('=') {
                if key.trim() == "name" {
                    let name = value.trim().trim_matches('"');
                    map.push((dir.clone(), name.replace('-', "_")));
                    break;
                }
            }
        }
    }
    // Longest prefix first so nested crates win over the root package.
    map.sort_by_key(|(prefix, _)| std::cmp::Reverse(prefix.len()));
    map
}

/// Crate ident for a file: the longest manifest directory prefix, or
/// the path-derived fallback.
fn crate_ident_for(rel: &str, crate_map: &[(String, String)]) -> String {
    for (dir, ident) in crate_map {
        if dir.is_empty() || rel == dir || rel.strip_prefix(dir.as_str()).is_some_and(|r| r.starts_with('/')) {
            if dir.is_empty() && rel.starts_with("crates/") {
                continue; // the umbrella package does not own crate members
            }
            return ident.clone();
        }
    }
    graph::fallback_crate_ident(rel)
}

/// Applies `lint.toml` allow-paths to manifest findings (inline
/// allows do not exist in TOML files).
fn apply_config_allows(config: &Config, findings: &mut [Finding]) {
    for finding in findings {
        if let Some(reason) = config.allow_reason(finding.rule, &finding.file) {
            finding.suppressed = Some(format!("lint.toml: {reason}"));
        }
    }
}

/// Loads `lint.toml` from `root` if present, or an empty config.
///
/// # Errors
///
/// Returns the rendered [`ConfigError`] when the file exists but does
/// not parse — a broken suppression file must fail loudly, not lint
/// with defaults.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint.toml");
    match std::fs::read_to_string(&path) {
        Ok(text) => Config::parse(&text).map_err(|e| e.to_string()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Config::default()),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}
