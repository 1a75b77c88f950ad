//! Extension experiment: fault-dictionary (cause–effect) resolution
//! under partition-based syndromes.
//!
//! Builds a dictionary of per-fault session syndromes and measures how
//! well the syndromes separate faults: number of equivalence classes
//! and expected suspect-list size, per scheme and partition count, for
//! both exact-signature and pass/fail matching.

use scan_bench::render_table;
use scan_bist::Scheme;
use scan_diagnosis::dictionary::FaultDictionary;
use scan_diagnosis::{lfsr_patterns, BistConfig, ChainLayout, DiagnosisPlan};
use scan_netlist::{generate, ScanView};
use scan_sim::FaultSimulator;

fn main() {
    let (obs, _rest) = scan_obs::Session::from_args("dictionary");
    let circuit = generate::benchmark("s953");
    let view = ScanView::natural(&circuit, true);
    let num_patterns = 128usize;
    let patterns = lfsr_patterns(&circuit, num_patterns, 0xACE1);
    let fsim = FaultSimulator::new(&circuit, &view, &patterns).expect("shapes match");
    let faults = fsim.sample_detected_faults(400, 2003);
    println!(
        "Fault dictionary resolution — s953, {} faults, 4 groups/partition",
        faults.len()
    );
    println!();
    let mut rows = Vec::new();
    for partitions in [1usize, 2, 4, 8] {
        for scheme in [Scheme::RandomSelection, Scheme::TWO_STEP_DEFAULT] {
            let plan = DiagnosisPlan::new(
                ChainLayout::single_chain(view.len()),
                num_patterns,
                &BistConfig::new(4, partitions, scheme),
            )
            .expect("plan builds");
            let dict = FaultDictionary::build(&plan, &fsim, &faults);
            rows.push(vec![
                partitions.to_string(),
                scheme.name().to_owned(),
                dict.num_passfail_classes().to_string(),
                format!("{:.2}", dict.expected_passfail_suspects()),
                dict.num_exact_classes().to_string(),
                format!("{:.2}", dict.expected_exact_suspects()),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "partitions",
                "scheme",
                "P/F classes",
                "P/F suspects",
                "exact classes",
                "exact suspects",
            ],
            &rows
        )
    );
    println!();
    println!("suspects = expected suspect-fault list size for a uniformly drawn dictionary fault");
    obs.finish(0);
}
