//! The observability front end shared by every binary in the
//! workspace: the nine observability flags, their usage text, and the
//! session lifecycle around a run.
//!
//! `scanbist` reads the flags before its subcommand; the experiment
//! binaries read them anywhere in their arguments. Both hand each word
//! to [`parse_flag`], the one place the flags are recognised, and both
//! run inside a [`Session`]. With no flag given, observability stays
//! disabled and a binary's output is byte-identical to an
//! uninstrumented build.

use crate::{recorder, ObsConfig, Telemetry};

/// Help text for the nine observability flags, one indented entry per
/// flag. `scanbist help` prints it among its global flags; the
/// experiment binaries print it for `--help`.
pub const USAGE: &str = "  \
  --trace               record spans/metrics; write trace_<binary>.ndjson
                        and print a span-tree summary to stderr
  --trace-out <path>    like --trace, NDJSON stream to <path>
  --metrics-out <path>  write a JSON metrics snapshot to <path>
  --profile             print a span self-time hot-spot table to stderr
  --profile-out <path>  like --profile, plus a collapsed-stack
                        (flamegraph folded format) export to <path>
  --progress            periodic per-shard progress lines on stderr
  --serve-metrics <addr>  serve live /metrics (Prometheus text),
                        /metrics.json, /alerts.json, and /healthz
                        over HTTP on <addr> (e.g. 127.0.0.1:0) for
                        the run's duration; implies background
                        sampling
  --slo <slo.toml>      load declarative alert rules and evaluate
                        them on every sampler tick; firing/resolving
                        alerts land in the NDJSON stream, /metrics,
                        /alerts.json, and `scanbist report`
  --flight-recorder <path>  keep a bounded in-memory ring of recent
                        spans/counter deltas/alerts and dump it as a
                        versioned NDJSON black box (plus a .txt
                        summary) on panic or nonzero exit
";

/// Applies `flag` to `config` when it is one of the nine observability
/// flags, taking its value (if it has one) from `rest`. Returns
/// `Ok(false)`, with `config` and `rest` untouched, for any other word.
/// `--trace` defaults the stream path to `trace_<binary>.ndjson`.
///
/// # Errors
///
/// A flag whose value is missing; the message names the flag.
pub fn parse_flag<S: Into<String>>(
    config: &mut ObsConfig,
    binary: &str,
    flag: &str,
    rest: &mut impl Iterator<Item = S>,
) -> Result<bool, String> {
    let mut value = || {
        rest.next()
            .map(Into::into)
            .ok_or_else(|| format!("flag `{flag}` needs a value"))
    };
    match flag {
        "--trace" => {
            config.trace = true;
            config
                .trace_path
                .get_or_insert_with(|| format!("trace_{binary}.ndjson").into());
        }
        "--trace-out" => {
            config.trace_path = Some(value()?.into());
            config.trace = true;
        }
        "--metrics-out" => {
            config.metrics_path = Some(value()?.into());
            config.metrics = true;
        }
        "--profile" => config.profile = true,
        "--profile-out" => {
            config.profile_path = Some(value()?.into());
            config.profile = true;
        }
        "--progress" => config.progress = true,
        "--serve-metrics" => config.serve_addr = Some(value()?),
        "--slo" => config.slo_path = Some(value()?.into()),
        "--flight-recorder" => config.flight_path = Some(value()?.into()),
        _ => return Ok(false),
    }
    Ok(true)
}

/// The observability session of one process run: the installed
/// configuration plus its live telemetry. [`Session::start`] it before
/// the work and [`Session::finish`] it after.
#[must_use = "call finish() so exports are written"]
pub struct Session {
    config: ObsConfig,
    telemetry: Telemetry,
}

impl Session {
    /// Starts the session of an experiment binary from its process
    /// arguments, which may carry the observability flags anywhere.
    /// Returns the session and the remaining arguments in order.
    /// `--help` / `-h` prints the usage text to stderr and exits 0; a
    /// flag missing its value exits 2. stdout stays untouched either
    /// way: it carries only the binary's payload.
    pub fn from_args(binary: &str) -> (Session, Vec<String>) {
        let mut config = ObsConfig::disabled();
        let mut rest = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match parse_flag(&mut config, binary, &arg, &mut args) {
                Ok(true) => {}
                Ok(false) => rest.push(arg),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            }
        }
        if rest.iter().any(|a| a == "--help" || a == "-h") {
            eprint!(
                "usage: {binary} [ARGS] [FLAGS]\n\
                 Experiment binary from the scan-BIST workspace. The payload goes\n\
                 to stdout; diagnostics, progress, and observability summaries go\n\
                 to stderr. See EXPERIMENTS.md for the binary's own arguments.\n\
                 \n\
                 FLAGS (anywhere in the arguments):\n{USAGE}"
            );
            std::process::exit(0);
        }
        (Session::start(binary, &config), rest)
    }

    /// Installs `config` process-wide, adopts the cross-process trace
    /// context handed down in `SCANBIST_TRACE_ID` /
    /// `SCANBIST_PARENT_SPAN` (or opens a new one), and starts the live
    /// telemetry `config` asks for. `binary` names the trace context's
    /// process. A telemetry start failure (endpoint bind, `slo.toml`)
    /// is reported on stderr and exits 2.
    ///
    /// # Panics
    ///
    /// Panics deliberately when `SCANBIST_CRASH_EXPERIMENT` names
    /// `binary` — the fault-injection hook `scripts/verify.sh` uses to
    /// exercise the flight recorder's crash dump path.
    pub fn start(binary: &str, config: &ObsConfig) -> Session {
        crate::init(config);
        if config.is_enabled() {
            crate::context::init_from_env(binary);
        }
        let telemetry = crate::start_telemetry(config).unwrap_or_else(|e| {
            eprintln!("error: could not start live telemetry: {e}");
            std::process::exit(2);
        });
        // Deliberately undocumented in the usage text. Firing *after*
        // telemetry is up means the recorder's panic hook is installed
        // and the ring exists, exactly like a mid-campaign crash. An
        // injected crash reads clearer as an explicit panic than as a
        // negated assert.
        #[allow(clippy::manual_assert)]
        if std::env::var("SCANBIST_CRASH_EXPERIMENT").as_deref() == Ok(binary) {
            panic!("injected crash in `{binary}` (SCANBIST_CRASH_EXPERIMENT)");
        }
        Session {
            config: config.clone(),
            telemetry,
        }
    }

    /// Stops live telemetry, dumps the flight recorder when the run
    /// failed (`exit_code != 0`), then writes the requested exports.
    /// Export failures are reported on stderr but never change the
    /// outcome: returns `exit_code` for the caller to exit with.
    pub fn finish(self, exit_code: i32) -> i32 {
        self.telemetry.stop();
        if exit_code != 0 {
            // No-op unless --flight-recorder installed a ring; panics
            // dump via the recorder's hook before ever getting here.
            match recorder::dump_on_error() {
                Ok(Some(path)) => eprintln!("flight recorder: dumped to {}", path.display()),
                Ok(None) => {}
                Err(e) => eprintln!("warning: could not write flight-recorder dump: {e}"),
            }
        }
        if let Err(e) = crate::finish(&self.config) {
            eprintln!("warning: could not write observability exports: {e}");
        }
        exit_code
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(ObsConfig, Vec<String>), String> {
        let mut config = ObsConfig::disabled();
        let mut rest = Vec::new();
        let mut words = args.iter().copied();
        while let Some(word) = words.next() {
            if !parse_flag(&mut config, "table1", word, &mut words)? {
                rest.push(word.to_owned());
            }
        }
        Ok((config, rest))
    }

    #[test]
    fn each_flag_sets_its_field_and_rejects_a_missing_value() {
        type Check = fn(&ObsConfig) -> bool;
        // (flag, value it takes, what the parsed config must show)
        let cases: [(&str, Option<&str>, Check); 9] = [
            ("--trace", None, |c| {
                c.trace && c.trace_path.as_deref() == Some("trace_table1.ndjson".as_ref())
            }),
            ("--trace-out", Some("t.ndjson"), |c| {
                c.trace && c.trace_path.as_deref() == Some("t.ndjson".as_ref())
            }),
            ("--metrics-out", Some("m.json"), |c| {
                c.metrics && c.metrics_path.as_deref() == Some("m.json".as_ref())
            }),
            ("--profile", None, |c| c.profile && c.profile_path.is_none()),
            ("--profile-out", Some("p.folded"), |c| {
                c.profile && c.profile_path.as_deref() == Some("p.folded".as_ref())
            }),
            ("--progress", None, |c| c.progress),
            ("--serve-metrics", Some("127.0.0.1:0"), |c| {
                c.sampling() && c.serve_addr.as_deref() == Some("127.0.0.1:0")
            }),
            ("--slo", Some("slo.toml"), |c| {
                c.sampling() && c.slo_path.as_deref() == Some("slo.toml".as_ref())
            }),
            ("--flight-recorder", Some("f.ndjson"), |c| {
                c.sampling() && c.flight_path.as_deref() == Some("f.ndjson".as_ref())
            }),
        ];
        for (flag, value, check) in cases {
            // With its value (if any), between two positionals.
            let mut args = vec!["out", flag];
            args.extend(value);
            args.push("extra");
            let (config, rest) = parse(&args).unwrap_or_else(|e| panic!("{flag}: {e}"));
            assert!(check(&config) && config.is_enabled(), "{flag}: {config:?}");
            assert_eq!(rest, ["out", "extra"], "{flag} leaves positionals in order");

            // Missing its value at the end of the arguments.
            let missing = parse(&[flag]);
            match value {
                Some(_) => assert_eq!(missing.unwrap_err(), format!("flag `{flag}` needs a value")),
                None => assert!(missing.is_ok(), "{flag} takes no value"),
            }
        }
    }

    #[test]
    fn explicit_trace_path_wins_over_the_default_in_either_order() {
        for args in [
            &["--trace", "--trace-out", "t.ndjson"][..],
            &["--trace-out", "t.ndjson", "--trace"][..],
        ] {
            let (config, _) = parse(args).unwrap();
            assert_eq!(config.trace_path.as_deref(), Some("t.ndjson".as_ref()));
        }
    }

    #[test]
    fn other_words_pass_through_and_leave_the_config_disabled() {
        let (config, rest) = parse(&["results", "--help", "--only", "table1"]).unwrap();
        assert!(!config.is_enabled());
        assert_eq!(rest, ["results", "--help", "--only", "table1"]);
    }

    #[test]
    fn usage_documents_every_flag() {
        for flag in [
            "--trace ",
            "--trace-out",
            "--metrics-out",
            "--profile ",
            "--profile-out",
            "--progress",
            "--serve-metrics",
            "--slo",
            "--flight-recorder",
        ] {
            assert!(USAGE.contains(flag), "usage misses {flag}");
        }
    }
}
