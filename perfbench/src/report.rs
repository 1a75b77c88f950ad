//! Metric names, units and the result every run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::trace::{json_string, self_seconds, Tracer};

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
/// The p99 latency is reported beside them but not bounded: on a
/// 2-vCPU host its run-to-run spread exceeds any bound a regression
/// gate could use, while goodput under the latency limit, which counts
/// the tail, stays steady.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cases_per_s", "cases/s"),
    ("req_p50_ms", "ms"),
    ("goodput_rps", "req/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Every
/// workload reports all of them; a layer the workload does not call
/// reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("netlist.generate_s", "s"),
    ("netlist.nets", "count"),
    ("netlist.ns_per_net", "ns"),
    ("sim.golden_s", "s"),
    ("sim.fault_sim_s", "s"),
    ("sim.faults_mapped", "count"),
    ("sim.us_per_fault_mapped", "us"),
    ("sim.detect_s", "s"),
    ("sim.detect_calls", "count"),
    ("sim.us_per_detect", "us"),
    ("bist.prpg_s", "s"),
    ("bist.partitions_s", "s"),
    ("bist.partitions", "count"),
    ("diagnosis.plan_s", "s"),
    ("diagnosis.analyze_s", "s"),
    ("diagnosis.error_words", "count"),
    ("diagnosis.ns_per_error_word", "ns"),
    ("diagnosis.intersect_s", "s"),
    ("diagnosis.prune_s", "s"),
    ("diagnosis.cases", "count"),
    ("diagnosis.parallel_speedup", "ratio"),
    ("diagnosis.soc_sweep_s", "s"),
    ("soc.build_s", "s"),
    ("daemon.job_us_p50", "us"),
    ("daemon.job_us_p99", "us"),
    ("daemon.wait_us_p50", "us"),
    ("daemon.wait_us_p99", "us"),
    ("daemon.queue_depth_max", "count"),
    ("daemon.cache_miss_frac", "ratio"),
    ("daemon.degraded_frac", "ratio"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.sent", "count"),
    ("netlist.self_s", "s"),
    ("sim.self_s", "s"),
    ("bist.self_s", "s"),
    ("diagnosis.self_s", "s"),
    ("soc.self_s", "s"),
    ("daemon.self_s", "s"),
    ("loadgen.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
    ("trace.spans", "count"),
];

/// Consecutive operations per latency window. Latency percentiles are
/// taken per window and the median across windows is reported, so one
/// disturbed stretch of a run does not set the figure; at this size
/// every window's p99 has at least 10 samples beyond it.
pub const WINDOW: usize = 1000;

/// Median over windows of [`WINDOW`] consecutive latencies (the last
/// window takes the remainder) of each window's nearest-rank `pct`
/// percentile; one window when there are fewer.
pub fn windowed_percentile(latencies: &[f64], pct: f64) -> f64 {
    let windows = (latencies.len() / WINDOW).max(1);
    let per: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                latencies.len()
            } else {
                (w + 1) * WINDOW
            };
            percentile(&sorted(&latencies[w * WINDOW..end]), pct)
        })
        .collect();
    median(&per)
}

/// One timed operation: an artifact regeneration, a campaign round,
/// or a daemon request.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Seconds from when the operation was due to when it completed.
    pub latency_s: f64,
    /// Whether it succeeded and its output checked out.
    pub ok: bool,
}

/// What a workload's untraced run measured, before reduction to the
/// end-to-end metrics.
pub struct Measured {
    /// Duration of each set-up, seconds.
    pub setups_s: Vec<f64>,
    /// Every timed operation.
    pub ops: Vec<Op>,
    /// Seconds the timed phase took.
    pub elapsed_s: f64,
    /// Time to regenerate the workload's artifact, seconds.
    pub wall_s: f64,
    /// Fault cases the timed phase processed.
    pub cases: u64,
    /// Latency limit an `ok` operation must meet to count as goodput.
    pub limit_s: f64,
    /// Peak resident set of the process doing the work, MB.
    pub peak_rss_mb: f64,
}

/// A run's verdict and figures.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (set-up requests, timed operations and
    /// output checks that stand alone).
    pub attempted: u64,
    /// Operations that failed or whose output did not check out.
    pub failed: u64,
    /// One line per failure, for the report.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Extra report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one attempted operation and whether it succeeded.
    pub fn attempt(&mut self, result: Result<(), String>) -> bool {
        self.attempted += 1;
        let Err(why) = result else { return true };
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
        false
    }

    /// Whether every operation succeeded and checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Reduces an untraced run to the end-to-end metrics.
    #[allow(clippy::cast_precision_loss)]
    pub fn end_to_end(&mut self, m: &Measured) {
        let latencies_ms: Vec<f64> = m.ops.iter().map(|op| op.latency_s * 1e3).collect();
        let good = m
            .ops
            .iter()
            .filter(|op| op.ok && op.latency_s <= m.limit_s)
            .count();
        let elapsed = m.elapsed_s.max(f64::MIN_POSITIVE);
        self.set("setup_s", median(&m.setups_s));
        self.set("wall_s", m.wall_s);
        self.set("cases_per_s", m.cases as f64 / elapsed);
        self.set("req_p50_ms", windowed_percentile(&latencies_ms, 50.0));
        self.set("goodput_rps", good as f64 / elapsed);
        self.set("peak_rss_mb", m.peak_rss_mb);
        let n = latencies_ms.len();
        let windows = (n / WINDOW).max(1);
        let tail = match tail_percentile(n / windows) {
            Some(p) => format!("p{p} = {:.3} ms", windowed_percentile(&latencies_ms, p)),
            None => "none".to_owned(),
        };
        self.notes.push(format!(
            "req_p99_ms (reported, not bounded): {:.3} ms; latency samples: {n} in {windows} window(s); \
             highest percentile with >=10 samples beyond it: {tail}",
            windowed_percentile(&latencies_ms, 99.0)
        ));
        self.notes.push(format!(
            "failed_frac: {} ({} failed / {} attempted)",
            self.failed_frac(),
            self.failed,
            self.attempted
        ));
    }

    /// Failed operations over attempted ones.
    #[allow(clippy::cast_precision_loss)]
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Fills the per-layer metrics the tracer's spans and counters
    /// give; workload-specific ones are set by the workload.
    #[allow(clippy::cast_precision_loss)]
    pub fn layers_from(&mut self, tracer: &Tracer) {
        let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
        let generate = tracer.seconds_in("netlist.generate");
        let nets = tracer.counter("netlist.nets");
        self.set("netlist.generate_s", generate);
        self.set("netlist.nets", nets as f64);
        self.set("netlist.ns_per_net", per(generate * 1e9, nets));
        let fault_sim = tracer.seconds_in("sim.fault_sim");
        let mapped = tracer.counter("sim.faults_mapped");
        self.set("sim.golden_s", tracer.seconds_in("sim.golden"));
        self.set("sim.fault_sim_s", fault_sim);
        self.set("sim.faults_mapped", mapped as f64);
        self.set("sim.us_per_fault_mapped", per(fault_sim * 1e6, mapped));
        let detect_ns = tracer.counter("sim.detect_ns");
        let detect_calls = tracer.counter("sim.detect_calls");
        self.set("sim.detect_s", detect_ns as f64 / 1e9);
        self.set("sim.detect_calls", detect_calls as f64);
        self.set(
            "sim.us_per_detect",
            per(detect_ns as f64 / 1e3, detect_calls),
        );
        self.set("bist.prpg_s", tracer.seconds_in("bist.prpg"));
        self.set("bist.partitions_s", tracer.seconds_in("bist.partitions"));
        self.set("bist.partitions", tracer.counter("bist.partitions") as f64);
        let analyze_ns = tracer.counter("diagnosis.analyze_ns");
        let words = tracer.counter("diagnosis.error_words");
        self.set("diagnosis.plan_s", tracer.seconds_in("diagnosis.plan"));
        self.set("diagnosis.analyze_s", analyze_ns as f64 / 1e9);
        self.set("diagnosis.error_words", words as f64);
        self.set("diagnosis.ns_per_error_word", per(analyze_ns as f64, words));
        self.set(
            "diagnosis.intersect_s",
            tracer.counter("diagnosis.intersect_ns") as f64 / 1e9,
        );
        self.set(
            "diagnosis.prune_s",
            tracer.counter("diagnosis.prune_ns") as f64 / 1e9,
        );
        self.set("diagnosis.cases", tracer.counter("diagnosis.cases") as f64);
        self.set(
            "diagnosis.soc_sweep_s",
            tracer.seconds_in("diagnosis.soc_sweep"),
        );
        self.set("soc.build_s", tracer.seconds_in("soc.build"));
        let spans = tracer.spans();
        self.set("trace.spans", spans.len() as f64);
        let selfs = self_seconds(&spans);
        for (layer, metric) in [
            ("netlist", "netlist.self_s"),
            ("sim", "sim.self_s"),
            ("bist", "bist.self_s"),
            ("diagnosis", "diagnosis.self_s"),
            ("soc", "soc.self_s"),
            ("daemon", "daemon.self_s"),
            ("loadgen", "loadgen.self_s"),
            ("bench", "bench.self_s"),
        ] {
            self.set(metric, selfs.get(layer).copied().unwrap_or(0.0));
        }
    }

    /// The report lines and, last, the one-line JSON result.
    pub fn render(&self, trace: bool, header: &str) -> String {
        let names: Vec<(&str, &str)> = if trace {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.to_vec()
        };
        let mut out = String::new();
        let _ = writeln!(out, "{header}");
        for (name, unit) in &names {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(out, "  {name:<28} {value:>16.6} {unit}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        for why in &self.failures {
            let _ = writeln!(out, "  FAILED: {why}");
        }
        let verdict = if self.correct() { "PASS" } else { "FAIL" };
        let _ = writeln!(
            out,
            "checks: {verdict} ({} attempted, {} failed)",
            self.attempted, self.failed
        );
        let _ = writeln!(out, "{}", self.json(&names));
        out
    }

    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    fn json(&self, names: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                metrics,
                "{}{}:{{\"value\":{value},\"unit\":{}}}",
                if i == 0 { "" } else { "," },
                json_string(name),
                json_string(unit)
            );
        }
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{metrics}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_fails_the_run() {
        let mut outcome = Outcome::default();
        assert!(outcome.attempt(Ok(())));
        assert!(outcome.correct());
        assert!(!outcome.attempt(Err("stdout digest mismatch".to_owned())));
        assert!(!outcome.correct());
        assert_eq!(outcome.failed, 1);
        let text = outcome.render(false, "perfbench");
        let last = text.lines().last().expect("result line");
        let value = scan_obs::json::parse(last).expect("result line is JSON");
        assert_eq!(value.get("attempted").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(value.get("failed").and_then(|v| v.as_f64()), Some(1.0));
        assert!(last.starts_with(r#"{"correct":false"#));
        assert!(text.contains("FAILED: stdout digest mismatch"));
    }

    #[test]
    fn windowed_percentiles_ignore_one_disturbed_window() {
        // Three windows; the middle one holds a stall.
        let mut lat = vec![1.0; 3 * WINDOW];
        for x in &mut lat[WINDOW..2 * WINDOW] {
            *x = 50.0;
        }
        assert_eq!(windowed_percentile(&lat, 99.0), 1.0);
        assert_eq!(windowed_percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        // The remainder joins the last window instead of forming a
        // short one.
        assert_eq!(windowed_percentile(&vec![1.0; WINDOW + 10], 99.0), 1.0);
    }

    #[test]
    fn end_to_end_reduction_counts_goodput_within_the_limit() {
        let mut outcome = Outcome::default();
        let ops = [
            Op {
                latency_s: 0.010,
                ok: true,
            },
            Op {
                latency_s: 0.030,
                ok: true,
            },
            Op {
                latency_s: 0.005,
                ok: false,
            },
        ];
        outcome.end_to_end(&Measured {
            setups_s: vec![3.0, 1.0, 2.0],
            ops: ops.to_vec(),
            elapsed_s: 2.0,
            wall_s: 2.0,
            cases: 10,
            limit_s: 0.020,
            peak_rss_mb: 5.0,
        });
        assert_eq!(outcome.values["setup_s"], 2.0);
        assert_eq!(outcome.values["goodput_rps"], 0.5);
        assert_eq!(outcome.values["cases_per_s"], 5.0);
        assert_eq!(outcome.values["req_p50_ms"], 10.0);
        let text = outcome.render(false, "h");
        let last = text.lines().last().expect("result line");
        let value = scan_obs::json::parse(last).expect("JSON");
        let metrics = value
            .get("metrics")
            .and_then(|m| m.as_object())
            .expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
    }
}
