//! Figure 3: the paper's worked example on s953 — a single stuck-at
//! fault observed under one pattern produces two clustered failing scan
//! cells; a single 4-group interval-based partition isolates them far
//! better than a single random-selection partition.
//!
//! The binary reproduces the figure's artifacts: the true failing-cell
//! bitmap, each scheme's groups, and the resulting suspect counts.

use scan_bist::Scheme;
use scan_diagnosis::{diagnose, BistConfig, ChainLayout, DiagnosisPlan};
use scan_netlist::{generate, ScanView};
use scan_sim::{ErrorMap, FaultSimulator};

fn main() {
    let (obs, _rest) = scan_obs::Session::from_args("figure3");
    let circuit = generate::benchmark("s953");
    let view = ScanView::natural(&circuit, true);
    let patterns = scan_diagnosis::lfsr_patterns(&circuit, 200, 0xACE1);
    let fsim = FaultSimulator::new(&circuit, &view, &patterns).expect("shapes match");

    // Find a fault and a detecting pattern with a small cluster of
    // failing cells, like the paper's example (2 failing cells). The
    // paper's instance has the cluster inside one interval, so require
    // that of the interval partition we are about to show.
    let interval_plan = DiagnosisPlan::new(
        ChainLayout::single_chain(view.len()),
        200,
        &BistConfig::new(4, 1, Scheme::IntervalBased),
    )
    .expect("plan builds");
    let interval_partition = &interval_plan.partitions()[0];
    let sample = fsim.sample_detected_faults(200, 2003);
    let mut chosen: Option<(scan_sim::Fault, usize, Vec<usize>)> = None;
    'outer: for fault in &sample {
        let errors = fsim.error_map(fault);
        for pattern in 0..patterns_detecting(&errors) {
            let cells: Vec<usize> = (0..view.len())
                .filter(|&pos| errors.bit(pos, pattern))
                .collect();
            // The paper's example has two *adjacent* failing cells — the
            // clustered case Fig. 2 predicts — falling into a single
            // interval.
            if cells.len() == 2
                && cells[1] - cells[0] <= 3
                && interval_partition.group_of(cells[0]) == interval_partition.group_of(cells[1])
            {
                chosen = Some((*fault, pattern, cells));
                break 'outer;
            }
        }
    }
    let (fault, pattern, failing) = chosen.expect("an example fault exists");
    println!(
        "Figure 3 — s953 ({} observation positions), fault {}, pattern {}",
        view.len(),
        fault.describe(&circuit),
        pattern
    );
    println!(
        "True failing scan cells: {}",
        failing
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("{}", bitmap(view.len(), &failing));
    println!();

    let bits: Vec<(usize, usize)> = failing.iter().map(|&pos| (pos, pattern)).collect();
    for scheme in [Scheme::IntervalBased, Scheme::RandomSelection] {
        let plan = DiagnosisPlan::new(
            ChainLayout::single_chain(view.len()),
            200,
            &BistConfig::new(4, 1, scheme),
        )
        .expect("plan builds");
        let outcome = plan.analyze(bits.iter().copied());
        let diag = diagnose(&plan, &outcome);
        println!("{} partitioning:", scheme.name());
        let partition = &plan.partitions()[0];
        for g in 0..partition.num_groups() {
            let members: Vec<usize> = partition.members(g).collect();
            let span = if partition.is_interval() {
                format!("{}-{}", members[0], members[members.len() - 1])
            } else {
                members
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let verdict = if outcome.failed(0, g) { "FAIL" } else { "pass" };
            println!("  group {g} [{verdict}]: {span}");
        }
        println!("  suspect failing scan cells: {}", diag.num_candidates());
        println!();
    }
    obs.finish(0);
}

fn patterns_detecting(errors: &ErrorMap) -> usize {
    errors.num_patterns()
}

fn bitmap(len: usize, failing: &[usize]) -> String {
    (0..len)
        .map(|pos| if failing.contains(&pos) { '1' } else { '0' })
        .collect()
}
