//! `table2-cold` and `coverage-sweep`: a paper artifact regenerated
//! from nothing by its release binary, as a user regenerates it.
//!
//! The traced run makes the same library calls in-process on the same
//! inputs, one span per layer call, and must reproduce the binary's
//! stdout byte for byte.

use std::time::Duration;

use scan_bench::{fmt_dr, render_table, table2_spec};
use scan_bist::Scheme;
use scan_diagnosis::lfsr_patterns;
use scan_netlist::generate::{self, SIX_LARGEST};
use scan_netlist::{Netlist, ScanView};
use scan_sim::{FaultSimulator, FaultUniverse};

use crate::campaign;
use crate::child;
use crate::pins;
use crate::report::{Measured, Op, Outcome};
use crate::stats::{median, Digest};
use crate::trace::{layer_coverage, now, Tracer};
use crate::Args;

/// Longest a single artifact run may take before it is killed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);

/// Times set-up is repeated in an untraced run. Starting a binary
/// takes about a millisecond, so many starts make a steady median.
const SETUPS: usize = 15;

/// Circuits and pattern budgets of the coverage artifact.
const COVERAGE_CIRCUITS: [&str; 4] = ["s27", "s298", "s953", "s5378"];
const COVERAGE_BUDGETS: [usize; 5] = [16, 32, 64, 128, 256];

/// A paper artifact with a release binary.
#[derive(Clone, Copy, Debug)]
pub enum Artifact {
    /// Table 2: DR of the six largest circuits under both schemes.
    Table2,
    /// Pseudorandom stuck-at coverage per pattern budget.
    Coverage,
}

impl Artifact {
    fn binary(self) -> &'static str {
        match self {
            Artifact::Table2 => "table2",
            Artifact::Coverage => "coverage",
        }
    }

    fn pin(self) -> u64 {
        match self {
            Artifact::Table2 => pins::TABLE2_STDOUT,
            Artifact::Coverage => pins::COVERAGE_STDOUT,
        }
    }

    /// Fault cases one regeneration processes, read from its table:
    /// diagnosed cases per scheme for Table 2, classified faults per
    /// pattern budget for coverage.
    fn cases(self, stdout: &str) -> Result<u64, String> {
        let mut lines = stdout.lines();
        let header = lines
            .by_ref()
            .find(|l| l.starts_with("circuit"))
            .ok_or("no table header")?;
        let per_fault = match self {
            Artifact::Table2 => 2,
            Artifact::Coverage => header.split_whitespace().filter(|w| *w == "pat").count() as u64,
        };
        let mut faults = 0;
        for row in lines
            .skip_while(|l| l.starts_with('-'))
            .take_while(|l| !l.trim().is_empty())
        {
            let column = row.split_whitespace().nth(1).ok_or("short table row")?;
            faults += column
                .parse::<u64>()
                .map_err(|e| format!("faults column: {e}"))?;
        }
        if faults == 0 || per_fault == 0 {
            return Err("table holds no fault cases".to_owned());
        }
        Ok(faults * per_fault)
    }
}

/// Runs the artifact's binary once; its stdout must match the pin.
fn regenerate(args: &Args, art: Artifact) -> Result<(child::Captured, u64), String> {
    let bin = args.bins.join(art.binary());
    let run =
        child::run(&bin, &[], CHILD_TIMEOUT).map_err(|e| format!("{}: {e}", bin.display()))?;
    if run.exit.code != Some(0) {
        return Err(format!("{} exited with {:?}", art.binary(), run.exit.code));
    }
    pins::expect(
        &format!("{} stdout", art.binary()),
        art.pin(),
        Digest::of(&run.stdout),
    )?;
    let cases = art.cases(&String::from_utf8_lossy(&run.stdout))?;
    Ok((run, cases))
}

/// The untraced run: set-up is starting the binary (`--help`, which
/// exits at once); then regenerations until the time is spent.
pub fn measure(args: &Args, art: Artifact, out: &mut Outcome) {
    let bin = args.bins.join(art.binary());
    let mut setups_s = Vec::new();
    for _ in 0..SETUPS {
        let started = child::run(&bin, &["--help"], CHILD_TIMEOUT)
            .map_err(|e| format!("{}: {e}", bin.display()))
            .and_then(|run| match run.exit.code {
                Some(0) => Ok(run.wall_s),
                code => Err(format!("{} --help exited with {code:?}", art.binary())),
            });
        match started {
            Ok(wall) => setups_s.push(wall),
            Err(e) => {
                out.attempt(Err(e));
                return;
            }
        }
    }
    let (mut ops, mut walls, mut cases, mut peak, mut elapsed_s) =
        (Vec::new(), Vec::new(), 0, 0.0f64, 0.0);
    while ops.is_empty() || elapsed_s < args.seconds {
        let t = now();
        let result = regenerate(args, art);
        let wall = match &result {
            Ok((run, _)) => run.wall_s,
            Err(_) => t.elapsed().as_secs_f64(),
        };
        let ok = out.attempt(result.map(|(run, n)| {
            cases += n;
            peak = peak.max(run.exit.peak_rss_mb());
        }));
        ops.push(Op {
            latency_s: wall,
            ok,
        });
        walls.push(wall);
        elapsed_s += wall;
        if !ok {
            break;
        }
    }
    out.end_to_end(&Measured {
        setups_s,
        ops,
        elapsed_s,
        wall_s: median(&walls),
        cases,
        limit_s: f64::INFINITY,
        peak_rss_mb: peak,
    });
}

/// The traced run: one untraced regeneration by the binary, then the
/// traced in-process replica, whose stdout must match the same pin.
pub fn trace(args: &Args, art: Artifact, out: &mut Outcome, tr: &Tracer) {
    let untraced = regenerate(args, art).map(|(run, _)| run.wall_s);
    let wall_untraced = untraced.as_ref().copied().unwrap_or(0.0);
    out.attempt(untraced.map(|_| ()));
    let t = now();
    let text = {
        let _r = tr.span(format!("bench.regenerate[{}]", art.binary()));
        match art {
            Artifact::Table2 => table2(tr),
            Artifact::Coverage => Ok(coverage(tr)),
        }
    };
    let end = now();
    let wall_traced = end.duration_since(t).as_secs_f64();
    out.attempt(text.and_then(|text| {
        pins::expect(
            &format!("traced {} replica stdout", art.binary()),
            art.pin(),
            Digest::of(text.as_bytes()),
        )
    }));
    out.layers_from(tr);
    out.set(
        "trace.overhead_frac",
        (wall_traced - wall_untraced) / wall_untraced.max(f64::MIN_POSITIVE),
    );
    out.set(
        "trace.coverage_frac",
        layer_coverage(&tr.spans(), &[(tr.ns(t), tr.ns(end))]),
    );
}

fn generated(tr: &Tracer, name: &str) -> Netlist {
    let _g = tr.span("netlist.generate");
    let netlist = generate::benchmark(name);
    tr.add("netlist.nets", netlist.num_nets() as u64);
    netlist
}

/// What `table2` prints, from the layers' public calls.
fn table2(tr: &Tracer) -> Result<String, String> {
    let spec = table2_spec();
    let mut text = format!(
        "Table 2 — six largest ISCAS-89, {} patterns, {} groups, {} partitions, {} faults\n\n",
        spec.num_patterns, spec.groups, spec.partitions, spec.num_faults
    );
    let mut rows = Vec::new();
    for name in SIX_LARGEST {
        let _c = tr.span(format!("bench.circuit[{name}]"));
        let netlist = generated(tr, name);
        let campaign = campaign::prepare(tr, &netlist, &spec)?;
        let random = campaign::run(tr, &campaign, Scheme::RandomSelection)?;
        let two_step = campaign::run(tr, &campaign, Scheme::TWO_STEP_DEFAULT)?;
        rows.push(vec![
            name.to_owned(),
            campaign.num_faults().to_string(),
            fmt_dr(random.dr),
            fmt_dr(two_step.dr),
            fmt_dr(random.dr_pruned),
            fmt_dr(two_step.dr_pruned),
        ]);
    }
    let headers = [
        "circuit",
        "faults",
        "DR random",
        "DR two-step",
        "DR random (pruned)",
        "DR two-step (pruned)",
    ];
    text.push_str(&render_table(&headers, &rows));
    text.push('\n');
    Ok(text)
}

/// What `coverage` prints, from the layers' public calls.
#[allow(clippy::cast_precision_loss)]
fn coverage(tr: &Tracer) -> String {
    let mut text =
        "Pseudorandom stuck-at coverage (collapsed faults, LFSR PRPG seed 0xACE1)\n\n".to_owned();
    let mut rows = Vec::new();
    for name in COVERAGE_CIRCUITS {
        let _c = tr.span(format!("bench.circuit[{name}]"));
        let circuit = generated(tr, name);
        let view = {
            let _s = tr.span("netlist.scan_view");
            ScanView::natural(&circuit, true)
        };
        let universe = {
            let _s = tr.span("sim.universe");
            FaultUniverse::collapsed(&circuit)
        };
        let mut cells = vec![name.to_owned(), universe.len().to_string()];
        for &n in &COVERAGE_BUDGETS {
            let patterns = {
                let _s = tr.span("bist.prpg");
                lfsr_patterns(&circuit, n, 0xACE1)
            };
            let fsim = {
                let _s = tr.span("sim.golden");
                FaultSimulator::new(&circuit, &view, &patterns).expect("shapes match")
            };
            let t = now();
            let detected = {
                let _s = tr.span(format!("sim.detect[{n}]"));
                universe
                    .faults()
                    .iter()
                    .filter(|f| fsim.is_detected(f))
                    .count()
            };
            tr.add(
                "sim.detect_ns",
                u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
            tr.add("sim.detect_calls", universe.len() as u64);
            cells.push(format!(
                "{:.1}%",
                100.0 * detected as f64 / universe.len() as f64
            ));
        }
        rows.push(cells);
    }
    let headers: Vec<String> = ["circuit".to_owned(), "faults".to_owned()]
        .into_iter()
        .chain(COVERAGE_BUDGETS.iter().map(|n| format!("{n} pat")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    text.push_str(&render_table(&header_refs, &rows));
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_cases_are_read_from_the_table() {
        let table2 = "Table 2\n\ncircuit  faults  DR random  DR two-step\n------\ns9234  500  0.1  0.1\ns13207  400  0.7  0.3\n";
        assert_eq!(Artifact::Table2.cases(table2), Ok(1800));
        let coverage = "Cov\n\ncircuit  faults  16 pat  32 pat\n-----\ns27  39  87.2%  92.3%\n";
        assert_eq!(Artifact::Coverage.cases(coverage), Ok(78));
        assert!(Artifact::Table2.cases("no table").is_err());
    }
}
