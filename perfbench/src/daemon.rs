//! `daemon-open`: `scanbist serve` under an open-loop Poisson stream.
//!
//! The only workload through the HTTP, admission-queue and plan-cache
//! layers. Requests carry `failing`, `signatures` and `robust`
//! evidence of real s953 faults; configurations follow a skewed (Zipf)
//! distribution over more entries than the daemon's 8-plan cache, so a
//! small steady share of requests misses and rebuilds a plan beside
//! the hits. After the timed phase a sample of the `ok`
//! answers is re-derived in-process through the scan-diagnosis calls
//! the daemon makes.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use scan_bist::partition::{generate_partitions, PartitionConfig};
use scan_bist::Scheme;
use scan_diagnosis::ranking::SuspectRanking;
use scan_diagnosis::{
    diagnose_checked, diagnose_reported, diagnose_robust_cancellable, lfsr_patterns, BistConfig,
    CancelToken, ChainLayout, DiagnosisPlan, NoiseConfig, NoiseModel, RobustPolicy, SessionOutcome,
};
use scan_netlist::{generate, ScanView};
use scan_obs::json::{self, Value};
use scan_rng::ScanRng;
use scan_sim::PpsfpSimulator;

use crate::child;
use crate::loadgen::{self, Broken, Reply, Sample};
use crate::report::{Measured, Op, Outcome};
use crate::stats::{median, percentile, sorted};
use crate::trace::{layer_coverage, now, since, Tracer};
use crate::Args;

/// Every request asks about s953, so every cache miss costs the same
/// work: generating s953 and building its plan, a few milliseconds.
const CIRCUIT: &str = "s953";
const SCHEMES: [(&str, Scheme); 2] = [
    ("two-step", Scheme::TWO_STEP_DEFAULT),
    ("random", Scheme::RandomSelection),
];
/// `(groups, partitions)` of the six hot configurations (with both
/// schemes), drawn with Zipf weights; they stay in the daemon's
/// 8-plan cache.
const HOT: [(u16, usize); 3] = [(8, 6), (16, 6), (8, 8)];
/// The 30 cold configurations (with both schemes), drawn uniformly
/// for [`COLD_SHARE`] of the requests. Two cache slots rotate among
/// them, so nearly every cold request misses and rebuilds a plan: a
/// steady miss share of about 4%, enough that every latency window's
/// p99 falls among misses.
const COLD_GROUPS: [u16; 3] = [4, 6, 12];
const COLD_PARTITIONS: [usize; 5] = [4, 5, 7, 9, 10];
const COLD_SHARE: f64 = 0.04;
const PATTERNS: usize = 64;
const TOP: usize = 16;
/// Faults per configuration the requests draw their evidence from.
const CASES: usize = 24;
/// Skew of the hot configurations: weight of rank `k` is
/// `1 / (k + 1)^ZIPF`.
const ZIPF: f64 = 1.0;
/// Verdict-flip rate of robust requests, and their retry budget.
const FLIP: f64 = 0.05;
const RETRIES: usize = 2;
const VOTES: usize = 3;

/// The offered rate, requests per second: fixed, so two commits are
/// offered the same load. About an eighth of what two back-to-back
/// connections sustain on a 2-core host. At a quarter and above, both
/// connections are often held at once (one by a plan rebuild), sends
/// queue in the generator, and the p99 is set by that queueing, which
/// scatters from run to run; at this rate the p99 is the misses' own
/// latency.
pub const RATE: f64 = 500.0;
/// Latency limit a request must meet to count as goodput.
pub const LIMIT_S: f64 = 0.020;

/// Random requests after one per configuration, in each warm-up.
const WARMUP: usize = 50;
/// Every n-th `ok` answer is re-derived in-process.
const VERIFY_EVERY: usize = 4;
/// Times set-up is repeated in an untraced run.
const SETUPS: usize = 3;

/// One plan configuration of the request mix.
struct Config {
    label: &'static str,
    scheme: Scheme,
    groups: u16,
    partitions: usize,
}

/// The hot configurations first (in popularity order), then the cold.
fn configs() -> Vec<Config> {
    let hot = HOT.iter().copied();
    let cold = COLD_PARTITIONS
        .iter()
        .flat_map(|&p| COLD_GROUPS.iter().map(move |&g| (g, p)));
    hot.chain(cold)
        .flat_map(|(groups, partitions)| {
            SCHEMES.iter().map(move |&(label, scheme)| Config {
                label,
                scheme,
                groups,
                partitions,
            })
        })
        .collect()
}

/// A configuration's plan, built as the daemon builds it, and the
/// error signatures of its sampled faults.
struct Entry {
    config: Config,
    plan: DiagnosisPlan,
    cells: usize,
    cases: Vec<Vec<Vec<u64>>>,
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Builds every configuration's plan, and evidence from the same real
/// faults, keeping the faults whose strict diagnosis is consistent.
fn corpus(tr: &Tracer, seed: u64) -> Result<Vec<Entry>, String> {
    let _s = tr.span("bench.corpus");
    let netlist = {
        let _g = tr.span(format!("netlist.generate[{CIRCUIT}]"));
        generate::benchmark(CIRCUIT)
    };
    tr.add("netlist.nets", netlist.num_nets() as u64);
    let view = {
        let _s = tr.span("netlist.scan_view");
        ScanView::natural(&netlist, true)
    };
    let cells = view.len();
    let patterns = {
        let _s = tr.span("bist.prpg");
        lfsr_patterns(&netlist, PATTERNS, seed)
    };
    let mut psim = {
        let _s = tr.span("sim.golden");
        PpsfpSimulator::new(&netlist, &view, &patterns).map_err(|e| e.to_string())?
    };
    let maps = {
        let _s = tr.span("sim.fault_sim");
        psim.sample_detected_with_maps(2 * CASES, seed)
    };
    tr.add("sim.faults_mapped", maps.len() as u64);
    let mut entries = Vec::new();
    for config in configs() {
        let plan = {
            let _s = tr.span("diagnosis.plan");
            DiagnosisPlan::new(
                ChainLayout::single_chain(cells),
                PATTERNS,
                &BistConfig::new(config.groups, config.partitions, config.scheme),
            )
            .map_err(|e| format!("{CIRCUIT} {}: {e}", config.label))?
        };
        let partitions = {
            let _s = tr.span("bist.partitions");
            generate_partitions(
                &PartitionConfig::new(cells, config.groups),
                config.scheme,
                config.partitions,
            )
        };
        if partitions != plan.partitions() {
            return Err("generate_partitions disagrees with the plan's partitions".to_owned());
        }
        tr.add("bist.partitions", partitions.len() as u64);
        let mut cases = Vec::new();
        for (_, errors) in &maps {
            let t = now();
            let mut words = 0;
            let outcome = plan.analyze_packed(errors.iter_words().inspect(|_| words += 1));
            tr.add("diagnosis.analyze_ns", elapsed_ns(t));
            tr.add("diagnosis.error_words", words);
            let t = now();
            let consistent = diagnose_checked(&plan, &outcome).is_ok();
            tr.add("diagnosis.intersect_ns", elapsed_ns(t));
            tr.add("diagnosis.cases", 1);
            if consistent && cases.len() < CASES {
                cases.push(
                    (0..config.partitions)
                        .map(|p| {
                            (0..config.groups)
                                .map(|g| outcome.error_signature(p, g))
                                .collect()
                        })
                        .collect(),
                );
            }
        }
        if cases.is_empty() {
            return Err(format!("{CIRCUIT} {}: no diagnosable fault", config.label));
        }
        entries.push(Entry {
            config,
            plan,
            cells,
            cases,
        });
    }
    Ok(entries)
}

/// How a request presents its evidence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Failing,
    Signatures,
    Robust,
}

/// One request of the stream.
struct Request {
    id: String,
    entry: usize,
    case: usize,
    kind: Kind,
    noise_seed: u64,
    body: String,
}

fn render(id: &str, entry: &Entry, case: usize, kind: Kind, noise_seed: u64) -> String {
    let sigs = &entry.cases[case];
    let grid = |cell: &dyn Fn(usize, u64) -> Option<String>| {
        let rows: Vec<String> = sigs
            .iter()
            .map(|row| {
                let cells: Vec<String> = row
                    .iter()
                    .enumerate()
                    .filter_map(|(g, &s)| cell(g, s))
                    .collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        format!("[{}]", rows.join(","))
    };
    let evidence = match kind {
        Kind::Signatures => format!(r#""signatures":{}"#, grid(&|_, s| Some(s.to_string()))),
        Kind::Failing | Kind::Robust => {
            format!(
                r#""failing":{}"#,
                grid(&|g, s| (s != 0).then(|| g.to_string()))
            )
        }
    };
    let robust = if kind == Kind::Robust {
        format!(
            r#","robust":{{"flip":{FLIP},"seed":{noise_seed},"retries":{RETRIES},"votes":{VOTES}}}"#
        )
    } else {
        String::new()
    };
    format!(
        r#"{{"id":"{id}","circuit":"{CIRCUIT}","groups":{},"partitions":{},"patterns":{PATTERNS},"scheme":"{}","top":{TOP},{evidence}{robust}}}"#,
        entry.config.groups, entry.config.partitions, entry.config.label
    ) + "\n"
}

/// `n` requests: a cold configuration with probability
/// [`COLD_SHARE`], else a hot one by Zipf rank; the fault uniformly;
/// evidence 40% `failing`, 40% `signatures`, 20% `robust`.
fn requests(corpus: &[Entry], n: usize, seed: u64, prefix: &str) -> Vec<Request> {
    let hot = 2 * HOT.len();
    let weights: Vec<f64> = (0..hot)
        .map(|k| 1.0 / ((k + 1) as f64).powf(ZIPF))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut rng = ScanRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let entry = if rng.next_f64() < COLD_SHARE {
                hot + rng.gen_index(corpus.len() - hot)
            } else {
                let mut u = rng.next_f64() * total;
                weights
                    .iter()
                    .position(|&w| {
                        u -= w;
                        u < 0.0
                    })
                    .unwrap_or(hot - 1)
            };
            let case = rng.gen_index(corpus[entry].cases.len());
            let kind = match rng.next_f64() {
                x if x < 0.4 => Kind::Failing,
                x if x < 0.8 => Kind::Signatures,
                _ => Kind::Robust,
            };
            let noise_seed = rng.gen_range_u64(1, 1 << 40);
            let id = format!("{prefix}{i}");
            let body = render(&id, &corpus[entry], case, kind, noise_seed);
            Request {
                id,
                entry,
                case,
                kind,
                noise_seed,
                body,
            }
        })
        .collect()
}

/// A `scanbist serve` child.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    metrics: PathBuf,
    stdout: BufReader<ChildStdout>,
    reaped: bool,
}

impl Daemon {
    /// Starts the daemon with its default workers, queue and cache and
    /// chaos off, and waits for its listening line.
    fn start(args: &Args, nth: usize) -> Result<Daemon, String> {
        let dir = args.root.join(".bench_out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let metrics = dir.join(format!("daemon-metrics-{}-{nth}.json", std::process::id()));
        let _ = std::fs::remove_file(&metrics);
        let bin = args.bins.join("scanbist");
        let mut child = Command::new(&bin)
            .arg("--metrics-out")
            .arg(&metrics)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .env_remove("SCANBIST_CHAOS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child::reap(&mut child, Duration::from_secs(10));
            return Err("daemon stdout not piped".to_owned());
        };
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            metrics,
            stdout: BufReader::new(stdout),
            reaped: false,
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        daemon.addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("no listening address in `{}`", line.trim()))?;
        Ok(daemon)
    }

    /// Drains the daemon and reaps it; returns its exit and the
    /// counters of its post-drain metrics snapshot. The drain must
    /// show in the daemon's exit 0 and its `drained` line. Its HTTP
    /// reply may be lost: the daemon does not wait for the connection
    /// thread answering the drain before it exits. That is noted, not
    /// failed, since the drain itself happened.
    fn stop(mut self, out: &mut Outcome) -> Result<(child::Exit, Value), String> {
        let reply = loadgen::post(self.addr, "/admin/drain", "");
        self.reaped = true;
        let exit =
            child::reap(&mut self.child, Duration::from_secs(30)).map_err(|e| e.to_string())?;
        if exit.code != Some(0) {
            return Err(format!("daemon exited with {:?} after drain", exit.code));
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        if !rest.contains("scanbistd: drained") {
            return Err("daemon exited without its `drained` line".to_owned());
        }
        if reply.status != 200 {
            out.notes.push(format!(
                "drain reply lost ({} {:?}): the daemon exited before answering POST /admin/drain",
                reply.status, reply.broken
            ));
        }
        let text = std::fs::read_to_string(&self.metrics)
            .map_err(|e| format!("{}: {e}", self.metrics.display()))?;
        let _ = std::fs::remove_file(&self.metrics);
        let snapshot = json::parse(&text).map_err(|e| format!("metrics snapshot: {e}"))?;
        let counters = snapshot
            .get("counters")
            .cloned()
            .ok_or("metrics snapshot has no counters")?;
        Ok((exit, counters))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = child::reap(&mut self.child, Duration::from_secs(10));
        }
    }
}

/// What an `ok` answer line says.
struct Answer {
    mode: String,
    elapsed_us: f64,
}

/// Classifies a reply: `ok` answers parse; everything else is a
/// failure with its reason.
fn answer(request: &Request, reply: &Reply) -> Result<Answer, String> {
    match reply.broken {
        Some(Broken::Connect) => return Err("connect failure".to_owned()),
        Some(Broken::Io) => return Err("I/O error".to_owned()),
        Some(Broken::Truncated) => return Err("truncated reply".to_owned()),
        None => {}
    }
    if reply.status != 200 {
        return Err(format!("HTTP {}", reply.status));
    }
    let line = reply.body.lines().next().unwrap_or("");
    let value = json::parse(line).map_err(|e| format!("answer is not JSON: {e}"))?;
    let field = |key: &str| value.get(key).and_then(Value::as_str).unwrap_or("");
    if field("id") != request.id {
        return Err(format!(
            "answer id `{}` for request `{}`",
            field("id"),
            request.id
        ));
    }
    if field("status") != "ok" {
        return Err(format!("non-ok line: {line}"));
    }
    Ok(Answer {
        mode: field("mode").to_owned(),
        elapsed_us: value
            .get("elapsed_us")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
    })
}

/// Re-derives an `ok` answer in-process, through the calls the daemon
/// makes for the mode it reported.
fn verify(corpus: &[Entry], request: &Request, reply: &Reply, mode: &str) -> Result<(), String> {
    let entry = &corpus[request.entry];
    let sigs = &entry.cases[request.case];
    let outcome = match request.kind {
        Kind::Signatures => SessionOutcome::from_signatures(sigs.clone()),
        Kind::Failing | Kind::Robust => SessionOutcome::from_verdicts(
            sigs.iter()
                .map(|row| row.iter().map(|&s| s != 0).collect())
                .collect(),
        ),
    };
    let cancel = CancelToken::new();
    let diagnosis = match (request.kind, mode) {
        (Kind::Robust, "full") => {
            let noise = NoiseModel::new(NoiseConfig {
                flip_rate: FLIP,
                ..NoiseConfig::noiseless(request.noise_seed)
            })
            .map_err(|e| e.to_string())?;
            let policy = RobustPolicy {
                max_retry_rounds: RETRIES,
                votes: VOTES,
            };
            diagnose_robust_cancellable(
                &entry.plan,
                &outcome,
                &noise,
                &policy,
                request.noise_seed,
                &cancel,
            )
        }
        (Kind::Robust, "degraded") | (Kind::Failing | Kind::Signatures, "full") => {
            diagnose_reported(&entry.plan, &outcome, &cancel)
        }
        (kind, mode) => {
            return Err(format!(
                "{}: mode `{mode}` for a {kind:?} request",
                request.id
            ))
        }
    }
    .map_err(|e| format!("{}: in-process diagnosis failed: {e}", request.id))?;
    let ranking = SuspectRanking::compute(
        &entry.plan,
        &diagnosis.verdicts.to_outcome(),
        &diagnosis.candidates,
    );
    let candidates: Vec<String> = ranking
        .suspects()
        .iter()
        .take(TOP)
        .map(|(cell, score)| format!("[{cell},{score:.6}]"))
        .collect();
    let reason = diagnosis
        .inconclusive
        .map(|r| format!(r#","reason":"{}""#, r.label()))
        .unwrap_or_default();
    let expected = format!(
        r#""mode":"{mode}","confidence":"{}"{reason},"candidates":[{}],"cells":{},"elapsed_us":"#,
        diagnosis.confidence.label(),
        candidates.join(","),
        entry.cells
    );
    if reply.body.contains(&expected) {
        Ok(())
    } else {
        Err(format!(
            "{}: answer differs from the in-process derivation\n    got:      {}\n    expected: …{expected}",
            request.id,
            reply.body.trim()
        ))
    }
}

/// Sends requests one after another, each answered `ok`: one per
/// configuration, cold ones first so the hot ones end up cached, then
/// a few from the stream's mix.
fn warm(daemon: &Daemon, corpus: &[Entry], seed: u64, out: &mut Outcome) -> bool {
    let hot = 2 * HOT.len();
    let mut reqs: Vec<Request> = (hot..corpus.len())
        .chain(0..hot)
        .map(|k| {
            let id = format!("c{k}");
            let body = render(&id, &corpus[k], 0, Kind::Failing, 1);
            Request {
                id,
                entry: k,
                case: 0,
                kind: Kind::Failing,
                noise_seed: 1,
                body,
            }
        })
        .collect();
    reqs.extend(requests(corpus, WARMUP, seed, "w"));
    reqs.iter().all(|request| {
        let reply = loadgen::post(daemon.addr, "/diagnose", &request.body);
        out.attempt(answer(request, &reply).map(|_| ()))
    })
}

/// Everything the timed phase saw.
struct Phase {
    samples: Vec<Sample<Reply>>,
    answers: Vec<Result<Answer, String>>,
    elapsed_s: f64,
}

fn phase(daemon: &Daemon, stream: &[Request], schedule: &[f64]) -> Phase {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (samples, elapsed_s) = loadgen::run(schedule, threads, |i| {
        loadgen::post(daemon.addr, "/diagnose", &stream[i].body)
    });
    let answers = samples
        .iter()
        .map(|s| answer(&stream[s.index], &s.reply))
        .collect();
    Phase {
        samples,
        answers,
        elapsed_s,
    }
}

/// Counts every request of a phase: failures, and a sample of `ok`
/// answers re-derived in-process.
fn score(phase: &Phase, stream: &[Request], corpus: &[Entry], out: &mut Outcome) -> Vec<Op> {
    let mut ops = Vec::with_capacity(phase.samples.len());
    let mut oks = 0;
    for (sample, answer) in phase.samples.iter().zip(&phase.answers) {
        let request = &stream[sample.index];
        let result = match answer {
            Ok(a) => {
                oks += 1;
                if oks % VERIFY_EVERY == 0 {
                    verify(corpus, request, &sample.reply, &a.mode)
                } else {
                    Ok(())
                }
            }
            Err(e) => Err(format!("{}: {e}", request.id)),
        };
        let ok = out.attempt(result);
        ops.push(Op {
            latency_s: sample.latency_s(),
            ok,
        });
    }
    ops
}

fn counter(counters: &Value, name: &str) -> f64 {
    counters.get(name).and_then(Value::as_f64).unwrap_or(0.0)
}

/// One set-up: evidence corpus, request streams, daemon start and
/// warm-up.
struct Ready {
    corpus: Vec<Entry>,
    daemon: Daemon,
}

fn set_up(args: &Args, tr: &Tracer, nth: usize, out: &mut Outcome) -> Option<Ready> {
    let corpus = match corpus(tr, args.seed) {
        Ok(corpus) => corpus,
        Err(e) => {
            out.attempt(Err(e));
            return None;
        }
    };
    let daemon = {
        let _s = tr.span("daemon.start");
        match Daemon::start(args, nth) {
            Ok(daemon) => daemon,
            Err(e) => {
                out.attempt(Err(e));
                return None;
            }
        }
    };
    let warmed = {
        let _s = tr.span("daemon.warmup");
        warm(
            &daemon,
            &corpus,
            scan_rng::derive(args.seed, 0x5741_524d),
            out,
        )
    };
    warmed.then_some(Ready { corpus, daemon })
}

fn timed_stream(corpus: &[Entry], seed: u64, seconds: f64) -> (Vec<f64>, Vec<Request>) {
    let schedule = loadgen::poisson_schedule(RATE, seconds, scan_rng::derive(seed, 0x5343_4544));
    let stream = requests(
        corpus,
        schedule.len(),
        scan_rng::derive(seed, 0x5245_5153),
        "r",
    );
    (schedule, stream)
}

/// The untraced run.
pub fn measure(args: &Args, out: &mut Outcome) {
    let quiet = Tracer::new(false);
    let mut setups_s = Vec::new();
    let mut ready = None;
    for nth in 0..SETUPS {
        if let Some(previous) = ready.take() {
            let Ready { daemon, .. } = previous;
            if let Err(e) = daemon.stop(out) {
                out.attempt(Err(e));
                return;
            }
        }
        let t = now();
        match set_up(args, &quiet, nth, out) {
            Some(r) => ready = Some(r),
            None => return,
        }
        setups_s.push(since(t));
    }
    let Some(Ready { corpus, daemon }) = ready else {
        return;
    };
    let (schedule, stream) = timed_stream(&corpus, args.seed, args.seconds);
    let phase = phase(&daemon, &stream, &schedule);
    let stopped = daemon.stop(out);
    let ops = score(&phase, &stream, &corpus, out);
    let peak_rss_mb = match stopped {
        Ok((exit, _)) => exit.peak_rss_mb(),
        Err(e) => {
            out.attempt(Err(e));
            0.0
        }
    };
    let oks = phase.answers.iter().filter(|a| a.is_ok()).count();
    out.end_to_end(&Measured {
        setups_s,
        ops,
        elapsed_s: phase.elapsed_s,
        wall_s: phase.elapsed_s,
        cases: oks as u64,
        limit_s: LIMIT_S,
        peak_rss_mb,
    });
    out.notes.push(format!(
        "offered rate {RATE} req/s, latency limit {} ms",
        LIMIT_S * 1e3
    ));
}

/// The traced run: the same half-length stream twice, untraced then
/// traced. Spans are built after the phase from the generator's own
/// timestamps, one per request split into generator wait (`loadgen`)
/// and time in the daemon's hands (`daemon`), so the overhead is the
/// difference of the two phases' median latency.
#[allow(clippy::cast_precision_loss)]
pub fn trace(args: &Args, out: &mut Outcome, tr: &Tracer) {
    let Some(Ready { corpus, daemon }) = ({
        let _s = tr.span("bench.setup");
        set_up(args, tr, 0, out)
    }) else {
        return;
    };
    let half = args.seconds / 2.0;
    let (schedule, stream) = timed_stream(&corpus, args.seed, half);
    let untraced = phase(&daemon, &stream, &schedule);
    let t = now();
    let traced = phase(&daemon, &stream, &schedule);
    let end = now();
    let stopped = daemon.stop(out);
    for s in &traced.samples {
        let path = format!("loadgen.request[{}]", stream[s.index].id);
        tr.record(None, &path, s.due, s.done);
        tr.record(Some(&path), "daemon.request", s.sent, s.done);
    }
    let untraced_ops = score(&untraced, &stream, &corpus, out);
    let traced_ops = score(&traced, &stream, &corpus, out);
    let counters = match stopped {
        Ok((_, counters)) => Some(counters),
        Err(e) => {
            out.attempt(Err(e));
            None
        }
    };
    out.layers_from(tr);
    let mut job_us = Vec::new();
    let mut wait_us = Vec::new();
    let mut robust = 0;
    let mut degraded = 0;
    for (s, a) in traced.samples.iter().zip(&traced.answers) {
        if let Ok(a) = a {
            job_us.push(a.elapsed_us);
            wait_us.push(s.latency_s() * 1e6 - a.elapsed_us);
            if stream[s.index].kind == Kind::Robust {
                robust += 1;
                degraded += usize::from(a.mode == "degraded");
            }
        }
    }
    let (job_us, wait_us) = (sorted(&job_us), sorted(&wait_us));
    out.set("daemon.job_us_p50", percentile(&job_us, 50.0));
    out.set("daemon.job_us_p99", percentile(&job_us, 99.0));
    out.set("daemon.wait_us_p50", percentile(&wait_us, 50.0));
    out.set("daemon.wait_us_p99", percentile(&wait_us, 99.0));
    let depth = traced
        .samples
        .iter()
        .filter_map(|s| s.reply.queue_depth)
        .max()
        .unwrap_or(0);
    out.set("daemon.queue_depth_max", depth as f64);
    if let Some(counters) = counters {
        let hits = counter(&counters, "daemon.cache.hits");
        let misses = counter(&counters, "daemon.cache.misses");
        out.set("daemon.cache_miss_frac", misses / (hits + misses).max(1.0));
    }
    out.set(
        "daemon.degraded_frac",
        degraded as f64 / robust.max(1) as f64,
    );
    let late_ms: Vec<f64> = traced.samples.iter().map(|s| s.late_s() * 1e3).collect();
    out.set("loadgen.late_ms_p99", percentile(&sorted(&late_ms), 99.0));
    out.set("loadgen.sent", traced.samples.len() as f64);
    let latency = |ops: &[Op]| median(&ops.iter().map(|o| o.latency_s).collect::<Vec<_>>());
    let (lu, lt) = (latency(&untraced_ops), latency(&traced_ops));
    out.set("trace.overhead_frac", (lt - lu) / lu.max(f64::MIN_POSITIVE));
    out.set(
        "trace.coverage_frac",
        layer_coverage(&tr.spans(), &[(tr.ns(t), tr.ns(end))]),
    );
    out.notes.push(format!(
        "traced phase: {} requests, median latency {:.3} ms; cache counters cover the daemon's whole life",
        traced.samples.len(),
        median(&traced_ops.iter().map(|o| o.latency_s * 1e3).collect::<Vec<_>>())
    ));
}
