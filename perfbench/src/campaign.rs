//! `campaign-warm`: the steady state of a user who already holds the
//! netlists, and the traced composition of a campaign from the
//! layers' public calls that the batch workloads share.

use scan_bench::{table2_spec, table4_spec, PAPER_SCHEMES};
use scan_bist::partition::{generate_partitions, PartitionConfig};
use scan_bist::Scheme;
use scan_diagnosis::soc_diag::diagnose_each_core_parallel;
use scan_diagnosis::{
    diagnose, lfsr_patterns, prune_by_cover, BistConfig, CampaignSpec, ChainLayout, DiagnosisPlan,
    DrAccumulator, PreparedCampaign, SchemeReport,
};
use scan_netlist::generate::{self, SIX_LARGEST};
use scan_netlist::{Netlist, ScanView};
use scan_sim::{ErrorMap, PpsfpSimulator};
use scan_soc::d695::{D695_CORES, D695_TAM_WIDTH};
use scan_soc::{d695, CoreModule, Soc};

use crate::pins;
use crate::report::{Measured, Op, Outcome};
use crate::stats::{median, Digest};
use crate::trace::{layer_coverage, now, since, Tracer};
use crate::Args;

/// Fault seeds a run cycles through. Cycling makes every round after
/// the first few a repeat whose bits must match the first.
pub const ROUND_SEEDS: usize = 4;

/// Times set-up is repeated in an untraced run.
const SETUPS: usize = 3;

/// The fault seed of round `round` under benchmark seed `seed`.
pub fn fault_seed(seed: u64, round: usize) -> u64 {
    scan_rng::derive(seed, (round % ROUND_SEEDS) as u64)
}

/// Digest of every bit of a list of reports.
pub fn digest_reports(reports: &[SchemeReport]) -> u64 {
    let mut d = Digest::default();
    for r in reports {
        d.bytes(format!("{:?}", r.scheme).as_bytes())
            .word(r.partitions as u64)
            .word(r.faults as u64)
            .float(r.dr)
            .float(r.dr_pruned)
            .float(r.mean_candidates)
            .float(r.mean_actual)
            .word(r.lost_cells);
        for &dr in &r.dr_by_prefix {
            d.float(dr);
        }
    }
    d.finish()
}

/// A campaign prepared from the layers' public calls, as
/// `PreparedCampaign::from_circuit` prepares it.
pub struct Composed {
    spec: CampaignSpec,
    cells: usize,
    cases: Vec<ErrorMap>,
}

impl Composed {
    /// Prepared fault cases.
    pub fn num_faults(&self) -> usize {
        self.cases.len()
    }
}

/// Prepares a single-circuit campaign, one span per layer call.
pub fn prepare(tr: &Tracer, netlist: &Netlist, spec: &CampaignSpec) -> Result<Composed, String> {
    if spec.x_mask_fraction != 0.0 {
        return Err("the composed campaign models unmasked specs only".to_owned());
    }
    let view = {
        let _s = tr.span("netlist.scan_view");
        ScanView::ordered(netlist, spec.ordering, spec.include_outputs)
    };
    let patterns = {
        let _s = tr.span("bist.prpg");
        lfsr_patterns(netlist, spec.num_patterns, spec.prpg_seed)
    };
    let mut psim = {
        let _s = tr.span("sim.golden");
        PpsfpSimulator::new(netlist, &view, &patterns).map_err(|e| e.to_string())?
    };
    let maps = {
        let _s = tr.span("sim.fault_sim");
        psim.sample_detected_with_maps(spec.num_faults, spec.fault_seed)
    };
    tr.add("sim.faults_mapped", maps.len() as u64);
    if maps.is_empty() {
        return Err(format!("{}: no detected faults", netlist.name()));
    }
    Ok(Composed {
        spec: *spec,
        cells: view.len(),
        cases: maps.into_iter().map(|(_, errors)| errors).collect(),
    })
}

/// What one case contributes to a report.
struct CaseStats {
    candidates: usize,
    actual: usize,
    pruned: usize,
    prefix_counts: Vec<usize>,
    lost: u64,
}

/// Per-worker call timers, folded into the tracer's counters.
#[derive(Default)]
struct CallTimes {
    analyze_ns: u64,
    intersect_ns: u64,
    prune_ns: u64,
    words: u64,
}

fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn case_stats(plan: &DiagnosisPlan, errors: &ErrorMap, times: &mut CallTimes) -> CaseStats {
    let failing = errors.failing_positions();
    let t = now();
    let mut words = 0u64;
    let outcome = plan.analyze_packed(errors.iter_words().inspect(|_| words += 1));
    times.analyze_ns += elapsed_ns(t);
    times.words += words;
    let t = now();
    // lint:allow(L008): this replays the campaign's strict intersection; an empty set is a measured result
    let diag = diagnose(plan, &outcome);
    times.intersect_ns += elapsed_ns(t);
    let lost = failing
        .iter()
        .filter(|&pos| !diag.candidates().contains(pos))
        .count() as u64;
    let t = now();
    let pruned = prune_by_cover(plan, &outcome, diag.candidates());
    times.prune_ns += elapsed_ns(t);
    CaseStats {
        candidates: diag.num_candidates(),
        actual: failing.len(),
        pruned: pruned.len(),
        prefix_counts: diag.prefix_counts().to_vec(),
        lost,
    }
}

/// Runs one scheme over a composed campaign: plan, partitions, then
/// every case's analysis, intersection and pruning, sharded across
/// the available cores like `run_parallel(·, 0)`, folded in case order.
pub fn run(tr: &Tracer, campaign: &Composed, scheme: Scheme) -> Result<SchemeReport, String> {
    let spec = &campaign.spec;
    let _run = tr.span(format!("bench.run[{scheme:?}]"));
    let config = BistConfig {
        groups: spec.groups,
        partitions: spec.partitions,
        scheme,
        misr_degree: spec.misr_degree,
        partition_lfsr_degree: spec.partition_lfsr_degree,
        partition_seed: spec.partition_seed,
    };
    let plan = {
        let _s = tr.span("diagnosis.plan");
        DiagnosisPlan::new(
            ChainLayout::single_chain(campaign.cells),
            spec.num_patterns,
            &config,
        )
        .map_err(|e| e.to_string())?
    };
    // The plan generates its partitions internally; generating them
    // again here times that layer on its own and checks it agrees.
    let partitions = {
        let _s = tr.span("bist.partitions");
        let mut pc = PartitionConfig::new(plan.layout().max_len(), spec.groups);
        pc.lfsr_degree = spec.partition_lfsr_degree;
        pc.seed = spec.partition_seed;
        generate_partitions(&pc, scheme, spec.partitions)
    };
    if partitions != plan.partitions() {
        return Err("generate_partitions disagrees with the plan's partitions".to_owned());
    }
    tr.add("bist.partitions", partitions.len() as u64);
    let cases = &campaign.cases;
    let threads = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .clamp(1, cases.len().max(1));
    let chunk = cases.len().div_ceil(threads);
    let parent = tr.scope();
    let plan = &plan;
    let stats: Vec<CaseStats> = std::thread::scope(|scope| {
        let workers: Vec<_> = cases
            .chunks(chunk)
            .map(|shard| {
                let parent = parent.as_deref();
                scope.spawn(move || {
                    let _w = tr.span_under(parent, "diagnosis.cases");
                    let mut times = CallTimes::default();
                    let stats: Vec<CaseStats> = shard
                        .iter()
                        .map(|errors| case_stats(plan, errors, &mut times))
                        .collect();
                    tr.add("diagnosis.analyze_ns", times.analyze_ns);
                    tr.add("diagnosis.intersect_ns", times.intersect_ns);
                    tr.add("diagnosis.prune_ns", times.prune_ns);
                    tr.add("diagnosis.error_words", times.words);
                    tr.add("diagnosis.cases", shard.len() as u64);
                    stats
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("diagnosis worker panicked"))
            .collect()
    });
    let mut final_acc = DrAccumulator::new();
    let mut pruned_acc = DrAccumulator::new();
    let mut prefix_accs = vec![DrAccumulator::new(); spec.partitions];
    let mut lost_cells = 0u64;
    for case in &stats {
        final_acc.add(case.candidates, case.actual);
        pruned_acc.add(case.pruned, case.actual);
        for (k, &count) in case.prefix_counts.iter().enumerate() {
            prefix_accs[k].add(count, case.actual);
        }
        lost_cells += case.lost;
    }
    Ok(SchemeReport {
        scheme,
        partitions: spec.partitions,
        faults: cases.len(),
        dr: final_acc.dr(),
        dr_pruned: pruned_acc.dr(),
        dr_by_prefix: prefix_accs.iter().map(DrAccumulator::dr).collect(),
        mean_candidates: final_acc.mean_candidates(),
        mean_actual: final_acc.mean_actual(),
        lost_cells,
    })
}

/// Indices of the six largest cores of a SOC.
fn six_largest(soc: &Soc) -> Vec<usize> {
    soc.cores()
        .iter()
        .enumerate()
        .filter(|(_, c)| SIX_LARGEST.contains(&c.name()))
        .map(|(i, _)| i)
        .collect()
}

fn with_fault_seed(mut spec: CampaignSpec, fault_seed: u64) -> CampaignSpec {
    spec.fault_seed = fault_seed;
    spec
}

/// One untraced round: the library's own campaign path.
struct Round {
    reports: Vec<SchemeReport>,
    campaigns: Vec<PreparedCampaign>,
    parallel_s: f64,
}

fn round(soc: &Soc, six: &[usize], fault_seed: u64) -> Result<Round, String> {
    let spec2 = with_fault_seed(table2_spec(), fault_seed);
    let mut reports = Vec::new();
    let mut campaigns = Vec::new();
    let mut parallel_s = 0.0;
    for &i in six {
        let core = &soc.cores()[i];
        let campaign = PreparedCampaign::from_circuit(core.netlist(), &spec2)
            .map_err(|e| format!("campaign for {}: {e}", core.name()))?;
        for scheme in PAPER_SCHEMES {
            let t = now();
            let report = campaign
                .run_parallel(scheme, 0)
                .map_err(|e| format!("{} {scheme:?}: {e}", core.name()))?;
            parallel_s += since(t);
            reports.push(report);
        }
        campaigns.push(campaign);
    }
    reports.extend(soc_sweep(soc, fault_seed)?);
    Ok(Round {
        reports,
        campaigns,
        parallel_s,
    })
}

fn soc_sweep(soc: &Soc, fault_seed: u64) -> Result<Vec<SchemeReport>, String> {
    let spec4 = with_fault_seed(table4_spec(), fault_seed);
    let rows = diagnose_each_core_parallel(soc, &spec4, &PAPER_SCHEMES, 0)
        .map_err(|e| format!("SOC 2 sweep: {e}"))?;
    Ok(rows.into_iter().flat_map(|row| row.reports).collect())
}

fn cases_in(reports: &[SchemeReport]) -> u64 {
    reports.iter().map(|r| r.faults as u64).sum()
}

/// The untraced run: repeated set-up, then rounds until the time is
/// spent, each checked against the pins (default seed) or against the
/// first round with the same fault seed.
pub fn measure(args: &Args, out: &mut Outcome) {
    let mut setups_s = Vec::new();
    let mut soc = None;
    for _ in 0..SETUPS {
        drop(soc.take());
        let t = now();
        match d695::soc2() {
            Ok(built) => soc = Some(built),
            Err(e) => {
                out.attempt(Err(format!("SOC 2 build: {e}")));
                return;
            }
        }
        setups_s.push(since(t));
    }
    let Some(soc) = soc else { return };
    let six = six_largest(&soc);
    let mut firsts: [Option<u64>; ROUND_SEEDS] = [None; ROUND_SEEDS];
    let mut ops = Vec::new();
    let mut walls = Vec::new();
    let mut cases = 0;
    let start = now();
    let mut r = 0;
    while r == 0 || since(start) < args.seconds {
        let t = now();
        let result = round(&soc, &six, fault_seed(args.seed, r));
        let dt = since(t);
        let check = result.and_then(|round| {
            cases += cases_in(&round.reports);
            let digest = digest_reports(&round.reports);
            let k = r % ROUND_SEEDS;
            if args.seed == pins::DEFAULT_SEED {
                pins::expect(
                    &format!("campaign-warm round {r} reports"),
                    pins::CAMPAIGN_ROUNDS[k],
                    digest,
                )
            } else {
                match firsts[k] {
                    Some(first) => {
                        pins::expect(&format!("campaign-warm round {r} repeat"), first, digest)
                    }
                    None => {
                        firsts[k] = Some(digest);
                        Ok(())
                    }
                }
            }
        });
        let ok = out.attempt(check);
        ops.push(Op { latency_s: dt, ok });
        walls.push(dt);
        r += 1;
    }
    let elapsed_s = since(start);
    out.end_to_end(&Measured {
        setups_s,
        ops,
        elapsed_s,
        wall_s: median(&walls),
        cases,
        limit_s: f64::INFINITY,
        peak_rss_mb: crate::child::own_peak_rss_mb(),
    });
}

/// Builds SOC 2 as `d695::soc2` does, with generation and SOC
/// assembly in their own spans.
fn traced_soc2(tr: &Tracer) -> Result<Soc, String> {
    let _s = tr.span("bench.setup");
    let netlists: Vec<Netlist> = D695_CORES
        .iter()
        .map(|name| {
            let _g = tr.span(format!("netlist.generate[{name}]"));
            let netlist = generate::benchmark(name);
            tr.add("netlist.nets", netlist.num_nets() as u64);
            netlist
        })
        .collect();
    let _b = tr.span("soc.build");
    let cores = netlists.into_iter().map(CoreModule::new).collect();
    Soc::balanced("d695", cores, D695_TAM_WIDTH).map_err(|e| e.to_string())
}

fn same(what: &str, a: &[SchemeReport], b: &[SchemeReport]) -> Result<(), String> {
    pins::expect(what, digest_reports(a), digest_reports(b))
}

/// The traced run: per round, the untraced library round (checked
/// against the pins at the default seed), the serial `run` on the same
/// campaigns, and the traced composition, all required to agree bit
/// for bit.
pub fn trace(args: &Args, out: &mut Outcome, tr: &Tracer) {
    let soc = match traced_soc2(tr) {
        Ok(soc) => soc,
        Err(e) => {
            out.attempt(Err(format!("SOC 2 build: {e}")));
            return;
        }
    };
    let six = six_largest(&soc);
    let (mut wall_untraced, mut wall_traced, mut serial_s, mut parallel_s) = (0.0, 0.0, 0.0, 0.0);
    let mut windows = Vec::new();
    let start = now();
    let mut r = 0;
    while r == 0 || since(start) < args.seconds {
        let fs = fault_seed(args.seed, r);
        r += 1;
        let t = now();
        let untraced = match round(&soc, &six, fs) {
            Ok(round) => round,
            Err(e) => {
                out.attempt(Err(e));
                continue;
            }
        };
        wall_untraced += since(t);
        parallel_s += untraced.parallel_s;
        if args.seed == pins::DEFAULT_SEED {
            out.attempt(pins::expect(
                &format!("round {r} reports"),
                pins::CAMPAIGN_ROUNDS[(r - 1) % ROUND_SEEDS],
                digest_reports(&untraced.reports),
            ));
        }
        let mut serial = Vec::new();
        for campaign in &untraced.campaigns {
            for scheme in PAPER_SCHEMES {
                let t = now();
                match campaign.run(scheme) {
                    Ok(report) => serial.push(report),
                    Err(e) => {
                        out.attempt(Err(format!("serial run: {e}")));
                        return;
                    }
                }
                serial_s += since(t);
            }
        }
        let n2 = serial.len();
        out.attempt(same(
            &format!("round {r}: run_parallel vs serial run"),
            &serial,
            &untraced.reports[..n2],
        ));
        let t = now();
        let traced = traced_round(tr, &soc, &six, fs);
        let end = now();
        wall_traced += end.duration_since(t).as_secs_f64();
        windows.push((tr.ns(t), tr.ns(end)));
        out.attempt(traced.and_then(|reports| {
            same(
                &format!("round {r}: traced composition vs serial run"),
                &reports,
                &untraced.reports,
            )
        }));
    }
    out.layers_from(tr);
    out.set(
        "diagnosis.parallel_speedup",
        serial_s / parallel_s.max(f64::MIN_POSITIVE),
    );
    out.set(
        "trace.overhead_frac",
        (wall_traced - wall_untraced) / wall_untraced.max(f64::MIN_POSITIVE),
    );
    out.set("trace.coverage_frac", layer_coverage(&tr.spans(), &windows));
}

fn traced_round(
    tr: &Tracer,
    soc: &Soc,
    six: &[usize],
    fault_seed: u64,
) -> Result<Vec<SchemeReport>, String> {
    let _round = tr.span("bench.round");
    let spec2 = with_fault_seed(table2_spec(), fault_seed);
    let mut reports = Vec::new();
    for &i in six {
        let core = &soc.cores()[i];
        let _c = tr.span(format!("bench.circuit[{}]", core.name()));
        let campaign = prepare(tr, core.netlist(), &spec2)?;
        for scheme in PAPER_SCHEMES {
            reports.push(run(tr, &campaign, scheme)?);
        }
    }
    let _s = tr.span("diagnosis.soc_sweep");
    reports.extend(soc_sweep(soc, fault_seed)?);
    Ok(reports)
}
