//! The NDJSON diagnosis protocol.
//!
//! One request per line, one response line per request, in order:
//!
//! ```text
//! {"id":"r1","circuit":"s953","groups":8,"partitions":6,"patterns":64,
//!  "scheme":"two-step","signatures":[[..],[..]],"deadline_ms":500,
//!  "robust":{"flip":0.02,"seed":7},"top":16}
//! ```
//!
//! Evidence is either `"signatures"` (`u64` MISR error signature per
//! group per partition; nonzero = failed) or `"failing"` (failing
//! group indices per partition) — exactly one of the two. Responses:
//!
//! ```text
//! {"id":"r1","status":"ok","mode":"full","confidence":"exact",
//!  "candidates":[[17,1.0]],"cells":125,"elapsed_us":412,"trace":"…"}
//! {"id":"r2","status":"error","error":{"code":"contradictory","http":422,
//!  "message":"…"}}
//! ```
//!
//! Every error variant the engine can raise maps to one stable
//! `(code, http)` pair — pinned by round-trip tests so daemon clients
//! can match on codes without fear of drift.

use scan_diagnosis::{
    CampaignError, DiagnoseError, DiagnosisStatus, NoiseConfig, RobustPolicy, SessionOutcome,
};
use scan_obs::export::escape;

use crate::http::HttpError;

/// The stable wire shape of a failure: a machine-matchable `code`, the
/// HTTP status the same condition maps to when it is request-level,
/// and a human message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorBody {
    /// Stable machine-readable code (kebab-case, never renamed).
    pub code: &'static str,
    /// The HTTP status this condition carries at the request level.
    pub http: u16,
    /// Human-readable detail; not stable, not for matching.
    pub message: String,
}

impl ErrorBody {
    /// A malformed-request error (bad JSON, bad field, bad shape).
    #[must_use]
    pub fn bad_request(message: String) -> ErrorBody {
        ErrorBody {
            code: "bad-request",
            http: 400,
            message,
        }
    }

    /// Maps a [`DiagnoseError`] to its pinned wire shape.
    #[must_use]
    pub fn from_diagnose_error(e: &DiagnoseError) -> ErrorBody {
        let (code, http) = match e {
            DiagnoseError::AllSessionsPassed => ("all-passed", 422),
            DiagnoseError::ContradictoryHistory { .. } => ("contradictory", 422),
            DiagnoseError::Cancelled { .. } => ("cancelled", 504),
            // `DiagnoseError` is non_exhaustive: future variants must
            // not silently reuse an existing code.
            _ => ("internal", 500),
        };
        ErrorBody {
            code,
            http,
            message: e.to_string(),
        }
    }

    /// Maps a [`CampaignError`] to its pinned wire shape.
    #[must_use]
    pub fn from_campaign_error(e: &CampaignError) -> ErrorBody {
        let (code, http) = match e {
            CampaignError::Patterns(_) => ("bad-patterns", 400),
            CampaignError::Plan(_) => ("bad-plan", 400),
            CampaignError::NoSuchCore { .. } => ("no-such-core", 404),
            CampaignError::NoDetectedFaults => ("no-detected-faults", 422),
            CampaignError::NotSocCampaign => ("not-soc-campaign", 400),
            CampaignError::Noise(_) => ("bad-noise", 400),
            // `CampaignError` is non_exhaustive: future variants must
            // not silently reuse an existing code.
            _ => ("internal", 500),
        };
        ErrorBody {
            code,
            http,
            message: e.to_string(),
        }
    }

    /// Maps a checked [`DiagnosisStatus`] to a wire shape; `None` for
    /// [`DiagnosisStatus::Consistent`] (which is not an error).
    #[must_use]
    pub fn from_status(status: &DiagnosisStatus) -> Option<ErrorBody> {
        match status {
            DiagnosisStatus::Consistent => None,
            DiagnosisStatus::AllPassed => Some(ErrorBody {
                code: "all-passed",
                http: 422,
                message: "every BIST session passed; nothing to diagnose".to_owned(),
            }),
            DiagnosisStatus::Contradictory { partition } => Some(ErrorBody {
                code: "contradictory",
                http: 422,
                message: format!(
                    "session history contradicts itself at partition {partition}"
                ),
            }),
        }
    }

    /// Maps an [`HttpError`] to a wire shape (connection-level codes).
    #[must_use]
    pub fn from_http_error(e: &HttpError) -> ErrorBody {
        ErrorBody {
            code: "http",
            http: e.status().unwrap_or(400),
            message: e.message().to_owned(),
        }
    }

    /// Renders the response line: `{"id":…,"status":"error","error":{…}}`.
    #[must_use]
    pub fn render(&self, id: Option<&str>) -> String {
        let id = match id {
            Some(id) => escape(id),
            None => "null".to_owned(),
        };
        format!(
            "{{\"id\":{id},\"status\":\"error\",\"error\":{{\"code\":\"{}\",\"http\":{},\"message\":{}}}}}",
            self.code,
            self.http,
            escape(&self.message)
        )
    }
}

/// Failing-session evidence, in one of the two accepted encodings.
#[derive(Clone, Debug, PartialEq)]
pub enum Evidence {
    /// `signatures[partition][group]` — MISR error signatures, zero
    /// for passing sessions.
    Signatures(Vec<Vec<u64>>),
    /// `failing[partition]` — indices of the failing groups.
    Failing(Vec<Vec<usize>>),
}

/// Requested fault-tolerance replay parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RobustParams {
    /// Verdict flip probability.
    pub flip: f64,
    /// Session dropout probability.
    pub dropout: f64,
    /// Noise stream seed.
    pub seed: u64,
    /// Maximum retry rounds.
    pub retries: usize,
    /// Ballots per retried session.
    pub votes: usize,
}

impl RobustParams {
    /// The engine-facing noise configuration.
    #[must_use]
    pub fn noise_config(&self) -> NoiseConfig {
        NoiseConfig {
            seed: self.seed,
            flip_rate: self.flip,
            dropout_rate: self.dropout,
            ..NoiseConfig::noiseless(self.seed)
        }
    }

    /// The engine-facing retry policy.
    #[must_use]
    pub fn policy(&self) -> RobustPolicy {
        RobustPolicy {
            max_retry_rounds: self.retries,
            votes: self.votes,
        }
    }
}

/// One parsed NDJSON diagnosis request.
#[derive(Clone, Debug, PartialEq)]
pub struct DiagnoseRequest {
    /// Client-chosen correlation id, echoed in the response line.
    pub id: String,
    /// Benchmark circuit name (e.g. `s953`).
    pub circuit: String,
    /// Session groups per partition.
    pub groups: u16,
    /// Number of partitions.
    pub partitions: usize,
    /// BIST patterns per session.
    pub patterns: usize,
    /// Partitioning scheme label (`two-step|random|interval|fixed`).
    pub scheme: &'static str,
    /// The failing-session evidence.
    pub evidence: Evidence,
    /// Per-request deadline override, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Robust-replay parameters, when requested.
    pub robust: Option<RobustParams>,
    /// Maximum candidates to return.
    pub top: usize,
}

const DEFAULT_GROUPS: u16 = 16;
const DEFAULT_PARTITIONS: usize = 16;
const DEFAULT_PATTERNS: usize = 64;
const DEFAULT_TOP: usize = 32;

/// The engine scheme for a protocol label.
///
/// # Errors
///
/// Rejects unknown labels with the accepted set.
pub fn scheme_from_label(label: &str) -> Result<scan_bist::Scheme, String> {
    match label {
        "two-step" => Ok(scan_bist::Scheme::TWO_STEP_DEFAULT),
        "random" => Ok(scan_bist::Scheme::RandomSelection),
        "interval" => Ok(scan_bist::Scheme::IntervalBased),
        "fixed" => Ok(scan_bist::Scheme::FixedInterval),
        other => Err(format!(
            "unknown scheme `{other}` (expected two-step|random|interval|fixed)"
        )),
    }
}

fn canonical_scheme(label: &str) -> Result<&'static str, String> {
    // Validate against the engine mapping, then intern the label so
    // the request can carry a `&'static str` cache-key component.
    scheme_from_label(label)?;
    Ok(match label {
        "two-step" => "two-step",
        "random" => "random",
        "interval" => "interval",
        _ => "fixed",
    })
}

fn get_u64(value: &scan_obs::json::Value, key: &str) -> Result<Option<u64>, String> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => {
            let n = v
                .as_f64()
                .ok_or_else(|| format!("`{key}` must be a number"))?;
            if n < 0.0 || n.fract() != 0.0 || n > 9_007_199_254_740_992.0 {
                return Err(format!("`{key}` must be a non-negative integer"));
            }
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Ok(Some(n as u64))
        }
    }
}

fn get_f64(value: &scan_obs::json::Value, key: &str) -> Result<Option<f64>, String> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a number")),
    }
}

impl DiagnoseRequest {
    /// Parses one NDJSON line.
    ///
    /// # Errors
    ///
    /// Returns a `bad-request` [`ErrorBody`] naming the offending
    /// field; the caller still gets the request `id` when one could be
    /// extracted (so the error line can be correlated).
    pub fn parse_line(line: &str) -> Result<DiagnoseRequest, (Option<String>, ErrorBody)> {
        let value = scan_obs::json::parse(line)
            .map_err(|e| (None, ErrorBody::bad_request(format!("malformed JSON: {e}"))))?;
        let id = value
            .get("id")
            .and_then(|v| v.as_str())
            .map(str::to_owned);
        Self::parse_value(&value, id.clone()).map_err(|e| (id, e))
    }

    fn parse_value(
        value: &scan_obs::json::Value,
        id: Option<String>,
    ) -> Result<DiagnoseRequest, ErrorBody> {
        let bad = |m: String| ErrorBody::bad_request(m);
        let id = id.ok_or_else(|| bad("`id` (string) is required".to_owned()))?;
        let circuit = value
            .get("circuit")
            .and_then(|v| v.as_str())
            .ok_or_else(|| bad("`circuit` (string) is required".to_owned()))?
            .to_owned();
        let groups = get_u64(value, "groups").map_err(&bad)?;
        let groups = match groups {
            None => DEFAULT_GROUPS,
            Some(g) if (1..=u64::from(u16::MAX)).contains(&g) =>
            {
                #[allow(clippy::cast_possible_truncation)]
                {
                    g as u16
                }
            }
            Some(g) => return Err(bad(format!("`groups` out of range: {g}"))),
        };
        let partitions = get_u64(value, "partitions")
            .map_err(&bad)?
            .map_or(DEFAULT_PARTITIONS, |p| p as usize);
        if partitions == 0 || partitions > 4096 {
            return Err(bad(format!("`partitions` out of range: {partitions}")));
        }
        let patterns = get_u64(value, "patterns")
            .map_err(&bad)?
            .map_or(DEFAULT_PATTERNS, |p| p as usize);
        if patterns == 0 || patterns > 1 << 20 {
            return Err(bad(format!("`patterns` out of range: {patterns}")));
        }
        let scheme_label = value
            .get("scheme")
            .map(|v| {
                v.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| bad("`scheme` must be a string".to_owned()))
            })
            .transpose()?
            .unwrap_or_else(|| "two-step".to_owned());
        let scheme = canonical_scheme(&scheme_label).map_err(&bad)?;
        let evidence = Self::parse_evidence(value, groups, partitions)?;
        let deadline_ms = get_u64(value, "deadline_ms").map_err(&bad)?;
        let robust = Self::parse_robust(value)?;
        let top = get_u64(value, "top")
            .map_err(&bad)?
            .map_or(DEFAULT_TOP, |t| (t as usize).clamp(1, 4096));
        Ok(DiagnoseRequest {
            id,
            circuit,
            groups,
            partitions,
            patterns,
            scheme,
            evidence,
            deadline_ms,
            robust,
            top,
        })
    }

    fn parse_evidence(
        value: &scan_obs::json::Value,
        groups: u16,
        partitions: usize,
    ) -> Result<Evidence, ErrorBody> {
        let bad = |m: String| ErrorBody::bad_request(m);
        let signatures = value.get("signatures");
        let failing = value.get("failing");
        match (signatures, failing) {
            (Some(_), Some(_)) => Err(bad(
                "exactly one of `signatures` or `failing` is required, not both".to_owned(),
            )),
            (None, None) => Err(bad(
                "exactly one of `signatures` or `failing` is required".to_owned(),
            )),
            (Some(sig), None) => {
                let rows = sig
                    .as_array()
                    .ok_or_else(|| bad("`signatures` must be an array".to_owned()))?;
                if rows.len() != partitions {
                    return Err(bad(format!(
                        "`signatures` has {} rows; expected one per partition ({partitions})",
                        rows.len()
                    )));
                }
                let mut grid = Vec::with_capacity(rows.len());
                for (p, row) in rows.iter().enumerate() {
                    let cells = row
                        .as_array()
                        .ok_or_else(|| bad(format!("`signatures[{p}]` must be an array")))?;
                    if cells.len() != usize::from(groups) {
                        return Err(bad(format!(
                            "`signatures[{p}]` has {} entries; expected one per group ({groups})",
                            cells.len()
                        )));
                    }
                    let mut out = Vec::with_capacity(cells.len());
                    for (g, cell) in cells.iter().enumerate() {
                        let n = cell.as_f64().ok_or_else(|| {
                            bad(format!("`signatures[{p}][{g}]` must be a number"))
                        })?;
                        if n < 0.0 || n.fract() != 0.0 {
                            return Err(bad(format!(
                                "`signatures[{p}][{g}]` must be a non-negative integer"
                            )));
                        }
                        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                        out.push(n as u64);
                    }
                    grid.push(out);
                }
                Ok(Evidence::Signatures(grid))
            }
            (None, Some(fail)) => {
                let rows = fail
                    .as_array()
                    .ok_or_else(|| bad("`failing` must be an array".to_owned()))?;
                if rows.len() != partitions {
                    return Err(bad(format!(
                        "`failing` has {} rows; expected one per partition ({partitions})",
                        rows.len()
                    )));
                }
                let mut grid = Vec::with_capacity(rows.len());
                for (p, row) in rows.iter().enumerate() {
                    let indices = row
                        .as_array()
                        .ok_or_else(|| bad(format!("`failing[{p}]` must be an array")))?;
                    let mut out = Vec::with_capacity(indices.len());
                    for (i, idx) in indices.iter().enumerate() {
                        let n = idx.as_f64().ok_or_else(|| {
                            bad(format!("`failing[{p}][{i}]` must be a number"))
                        })?;
                        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                        let g = n as usize;
                        if n < 0.0 || n.fract() != 0.0 || g >= usize::from(groups) {
                            return Err(bad(format!(
                                "`failing[{p}][{i}]` = {n} is not a group index < {groups}"
                            )));
                        }
                        out.push(g);
                    }
                    grid.push(out);
                }
                Ok(Evidence::Failing(grid))
            }
        }
    }

    fn parse_robust(
        value: &scan_obs::json::Value,
    ) -> Result<Option<RobustParams>, ErrorBody> {
        let bad = |m: String| ErrorBody::bad_request(m);
        let Some(robust) = value.get("robust") else {
            return Ok(None);
        };
        if robust.as_object().is_none() {
            return Err(bad("`robust` must be an object".to_owned()));
        }
        let flip = get_f64(robust, "flip").map_err(&bad)?.unwrap_or(0.0);
        let dropout = get_f64(robust, "dropout").map_err(&bad)?.unwrap_or(0.0);
        for (key, rate) in [("flip", flip), ("dropout", dropout)] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(bad(format!("`robust.{key}` must be in [0,1], got {rate}")));
            }
        }
        let seed = get_u64(robust, "seed").map_err(&bad)?.unwrap_or(1);
        let retries = get_u64(robust, "retries").map_err(&bad)?.map_or(2, |r| {
            #[allow(clippy::cast_possible_truncation)]
            {
                (r as usize).min(8)
            }
        });
        let votes = get_u64(robust, "votes").map_err(&bad)?.map_or(3, |v| {
            #[allow(clippy::cast_possible_truncation)]
            {
                (v as usize).clamp(1, 15)
            }
        });
        Ok(Some(RobustParams {
            flip,
            dropout,
            seed,
            retries,
            votes,
        }))
    }

    /// The plan-cache key: every field that shapes the
    /// [`DiagnosisPlan`](scan_diagnosis::DiagnosisPlan).
    #[must_use]
    pub fn cache_key(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}",
            self.circuit, self.groups, self.partitions, self.patterns, self.scheme
        )
    }

    /// The request's evidence as an engine [`SessionOutcome`].
    #[must_use]
    pub fn outcome(&self) -> SessionOutcome {
        match &self.evidence {
            Evidence::Signatures(grid) => SessionOutcome::from_signatures(grid.clone()),
            Evidence::Failing(grid) => {
                let fails = grid
                    .iter()
                    .map(|row| {
                        let mut flags = vec![false; usize::from(self.groups)];
                        for &g in row {
                            flags[g] = true;
                        }
                        flags
                    })
                    .collect();
                SessionOutcome::from_verdicts(fails)
            }
        }
    }
}

/// The fields of a success response line; [`OkLine::render`] turns it
/// into the wire string.
pub struct OkLine<'a> {
    /// Echoed correlation id.
    pub id: &'a str,
    /// Service mode: `full`, `robust`, or `degraded`.
    pub mode: &'a str,
    /// Confidence label from the engine.
    pub confidence: &'a str,
    /// Inconclusive reason, when there is one.
    pub reason: Option<&'a str>,
    /// Ranked `[cell, score]` pairs.
    pub candidates: &'a [(usize, f64)],
    /// Scan-chain length the candidate indices refer to.
    pub cells: usize,
    /// Wall time spent on the job.
    pub elapsed_us: u64,
    /// Trace id stamped on the batch.
    pub trace: &'a str,
}

impl OkLine<'_> {
    /// Renders the success line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut line = format!(
            "{{\"id\":{},\"status\":\"ok\",\"mode\":\"{}\",\"confidence\":\"{}\"",
            escape(self.id),
            self.mode,
            self.confidence
        );
        if let Some(reason) = self.reason {
            line.push_str(&format!(",\"reason\":\"{reason}\""));
        }
        line.push_str(",\"candidates\":[");
        for (i, (cell, score)) in self.candidates.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("[{cell},{score:.6}]"));
        }
        line.push_str(&format!(
            "],\"cells\":{},\"elapsed_us\":{},\"trace\":{}}}",
            self.cells,
            self.elapsed_us,
            escape(self.trace)
        ));
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{"id":"r1","circuit":"s27","groups":4,"partitions":2,
        "patterns":8,"failing":[[0],[1,2]]}"#;

    #[test]
    fn minimal_request_parses_with_defaults() {
        let req = DiagnoseRequest::parse_line(MINIMAL).expect("parses");
        assert_eq!(req.id, "r1");
        assert_eq!(req.circuit, "s27");
        assert_eq!(req.groups, 4);
        assert_eq!(req.partitions, 2);
        assert_eq!(req.scheme, "two-step");
        assert_eq!(req.top, 32);
        assert!(req.robust.is_none());
        assert_eq!(
            req.evidence,
            Evidence::Failing(vec![vec![0], vec![1, 2]])
        );
        let outcome = req.outcome();
        assert!(outcome.failed(0, 0));
        assert!(!outcome.failed(0, 1));
        assert!(outcome.failed(1, 2));
    }

    #[test]
    fn signatures_request_round_trips_to_outcome() {
        let line = r#"{"id":"s","circuit":"s27","groups":2,"partitions":2,
            "signatures":[[5,0],[0,9]]}"#;
        let req = DiagnoseRequest::parse_line(line).expect("parses");
        let outcome = req.outcome();
        assert!(outcome.failed(0, 0));
        assert_eq!(outcome.error_signature(0, 0), 5);
        assert!(!outcome.failed(0, 1));
        assert!(outcome.failed(1, 1));
    }

    #[test]
    fn shape_errors_name_the_field() {
        let cases: &[(&str, &str)] = &[
            (r#"{"circuit":"s27","failing":[[0]]}"#, "`id`"),
            (r#"{"id":"x","failing":[[0]]}"#, "`circuit`"),
            (r#"{"id":"x","circuit":"s27"}"#, "`signatures` or `failing`"),
            (
                r#"{"id":"x","circuit":"s27","failing":[[0]],"signatures":[[1]]}"#,
                "not both",
            ),
            (
                r#"{"id":"x","circuit":"s27","partitions":2,"failing":[[0]]}"#,
                "one per partition",
            ),
            (
                r#"{"id":"x","circuit":"s27","groups":4,"partitions":1,"failing":[[9]]}"#,
                "group index",
            ),
            (
                r#"{"id":"x","circuit":"s27","scheme":"zigzag","failing":[[0]]}"#,
                "unknown scheme",
            ),
            (
                r#"{"id":"x","circuit":"s27","partitions":1,"groups":2,"signatures":[[1]]}"#,
                "one per group",
            ),
        ];
        for (line, needle) in cases {
            let (_, err) = DiagnoseRequest::parse_line(line).expect_err(line);
            assert_eq!(err.code, "bad-request", "{line}");
            assert_eq!(err.http, 400, "{line}");
            assert!(err.message.contains(needle), "{line} -> {}", err.message);
        }
    }

    #[test]
    fn malformed_json_still_reports_cleanly() {
        let (id, err) = DiagnoseRequest::parse_line("{nope").expect_err("bad json");
        assert!(id.is_none());
        assert_eq!(err.code, "bad-request");
        assert!(err.message.contains("malformed JSON"));
    }

    #[test]
    fn robust_block_parses_with_defaults_and_bounds() {
        let line = r#"{"id":"x","circuit":"s27","partitions":1,"groups":2,
            "failing":[[0]],"robust":{"flip":0.1,"seed":9}}"#;
        let req = DiagnoseRequest::parse_line(line).expect("parses");
        let robust = req.robust.expect("robust set");
        assert!((robust.flip - 0.1).abs() < f64::EPSILON);
        assert_eq!(robust.seed, 9);
        assert_eq!(robust.retries, 2);
        assert_eq!(robust.votes, 3);
        assert!((robust.noise_config().flip_rate - 0.1).abs() < f64::EPSILON);

        let bad = r#"{"id":"x","circuit":"s27","partitions":1,"groups":2,
            "failing":[[0]],"robust":{"flip":1.5}}"#;
        let (_, err) = DiagnoseRequest::parse_line(bad).expect_err("rate bound");
        assert!(err.message.contains("robust.flip"));
    }

    #[test]
    fn cache_key_covers_all_plan_inputs() {
        let req = DiagnoseRequest::parse_line(MINIMAL).expect("parses");
        assert_eq!(req.cache_key(), "s27/4/2/8/two-step");
    }

    #[test]
    fn ok_line_renders_valid_json() {
        let line = OkLine {
            id: "r\"1",
            mode: "full",
            confidence: "exact",
            reason: None,
            candidates: &[(17, 1.0), (20, 0.5)],
            cells: 125,
            elapsed_us: 412,
            trace: "0123456789abcdef",
        }
        .render();
        let value = scan_obs::json::parse(&line).expect("valid JSON");
        assert_eq!(value.get("id").and_then(|v| v.as_str()), Some("r\"1"));
        assert_eq!(value.get("status").and_then(|v| v.as_str()), Some("ok"));
        let cands = value.get("candidates").and_then(|v| v.as_array()).unwrap();
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].as_array().unwrap()[0].as_f64(), Some(17.0));
    }

    #[test]
    fn error_line_renders_valid_json() {
        let body = ErrorBody::from_diagnose_error(&DiagnoseError::ContradictoryHistory {
            partition: 3,
        });
        let line = body.render(Some("r9"));
        let value = scan_obs::json::parse(&line).expect("valid JSON");
        assert_eq!(value.get("status").and_then(|v| v.as_str()), Some("error"));
        let error = value.get("error").unwrap();
        assert_eq!(
            error.get("code").and_then(|v| v.as_str()),
            Some("contradictory")
        );
        assert_eq!(error.get("http").and_then(|v| v.as_f64()), Some(422.0));
        // Without an id the field is null, still valid JSON.
        let anon = scan_obs::json::parse(&body.render(None)).expect("valid JSON");
        assert_eq!(anon.get("id"), Some(&scan_obs::json::Value::Null));
    }
}
