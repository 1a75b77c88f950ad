//! `perfbench`: the workspace's end-to-end benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` it prints every
//! end-to-end metric; with `--trace 1` it makes a separate traced run
//! and prints every per-layer metric, writing the spans as NDJSON to
//! `.bench_out/`. The last stdout line is the one-line JSON result;
//! the exit code is nonzero when any operation failed or any output
//! check did not match. `perfbench/README.md` says why each workload
//! exists and which end-to-end metric each layer metric should move.

mod batch;
mod campaign;
mod child;
mod daemon;
mod host;
mod loadgen;
mod pins;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::batch::Artifact;
use crate::host::Host;
use crate::report::Outcome;
use crate::trace::{json_string, Tracer};

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `table2` regenerated from nothing by its release binary.
    Table2Cold,
    /// `coverage` regenerated by its release binary.
    CoverageSweep,
    /// Table-2 and Table-4 campaigns over netlists already in memory.
    CampaignWarm,
    /// `scanbist serve` under an open-loop Poisson stream.
    DaemonOpen,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("table2-cold", Workload::Table2Cold),
        ("coverage-sweep", Workload::CoverageSweep),
        ("campaign-warm", Workload::CampaignWarm),
        ("daemon-open", Workload::DaemonOpen),
    ];

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("?", |(name, _)| name)
    }
}

/// Parsed command line plus where things live.
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is drawn from.
    pub seed: u64,
    /// How long the timed phase runs.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The repository checkout (the working directory).
    pub root: PathBuf,
    /// Directory of the release binaries (beside this one).
    pub bins: PathBuf,
}

const USAGE: &str =
    "usage: perfbench --workload <table2-cold|coverage-sweep|campaign-warm|daemon-open> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut words = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, pins::DEFAULT_SEED, 12.0, false);
    while let Some(flag) = words.next() {
        let value = words
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(name, _)| *name == value)
                        .map(|(_, w)| *w)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_owned());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    if !root.join("crates").is_dir() {
        return Err(format!("{} is not the repository root", root.display()));
    }
    let bins = std::env::current_exe()
        .map_err(|e| format!("own path: {e}"))?
        .parent()
        .ok_or("own path has no directory")?
        .to_path_buf();
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        root,
        bins,
    })
}

/// Writes the result and, for a traced run, the spans under
/// `.bench_out/`, each stamped with the host.
fn write_files(args: &Args, stamp: &str, rendered: &str, tracer: &Tracer) -> std::io::Result<()> {
    let dir = args.root.join(".bench_out");
    std::fs::create_dir_all(&dir)?;
    let base = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let result = rendered.lines().last().unwrap_or("{}");
    std::fs::write(
        dir.join(format!("{base}.json")),
        format!("{{{stamp},\"result\":{result}}}\n"),
    )?;
    if args.trace {
        std::fs::write(dir.join(format!("{base}.ndjson")), tracer.ndjson(stamp))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::detect(&args.root);
    let tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    match (args.workload, args.trace) {
        (Workload::Table2Cold, false) => batch::measure(&args, Artifact::Table2, &mut out),
        (Workload::Table2Cold, true) => batch::trace(&args, Artifact::Table2, &mut out, &tracer),
        (Workload::CoverageSweep, false) => batch::measure(&args, Artifact::Coverage, &mut out),
        (Workload::CoverageSweep, true) => {
            batch::trace(&args, Artifact::Coverage, &mut out, &tracer);
        }
        (Workload::CampaignWarm, false) => campaign::measure(&args, &mut out),
        (Workload::CampaignWarm, true) => campaign::trace(&args, &mut out, &tracer),
        (Workload::DaemonOpen, false) => daemon::measure(&args, &mut out),
        (Workload::DaemonOpen, true) => daemon::trace(&args, &mut out, &tracer),
    }
    let header = format!(
        "perfbench {} seed={} seconds={} trace={}\nhost: nproc={} cpu={} rustc={} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.nproc,
        json_string(&host.cpu),
        json_string(&host.rustc),
        host.commit
    );
    let rendered = out.render(args.trace, &header);
    let stamp = format!(
        r#""benchmark":"perfbench","workload":"{}","seed":{},"seconds":{},"trace":{},"host":{{{}}}"#,
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        host.json_members()
    );
    if let Err(e) = write_files(&args, &stamp, &rendered, &tracer) {
        eprintln!("perfbench: could not write .bench_out: {e}");
    }
    // lint:allow(L006): the report and the one-line JSON result are the benchmark's stdout payload
    print!("{rendered}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
