//! Extension experiment: scan chain integrity defects.
//!
//! The paper assumes a healthy chain carrying system-fault evidence;
//! the dual failure mode is a stuck shift stage in the chain itself.
//! This experiment (a) verifies flush-test localization finds every
//! injected chain defect exactly, and (b) shows what a chain defect
//! does to the partition-based diagnosis if it is *mis*-diagnosed as a
//! system fault — motivating the standard practice of flushing the
//! chain before logic diagnosis.

use scan_bench::render_table;
use scan_bist::Scheme;
use scan_diagnosis::{diagnose, lfsr_patterns, BistConfig, ChainLayout, DiagnosisPlan};
use scan_netlist::{generate, ScanView};
use scan_sim::chain_fault::flush_observation;
use scan_sim::{locate_chain_fault, simulate_chain_fault, ChainFault, FaultSimulator};

fn main() {
    let (obs, _rest) = scan_obs::Session::from_args("chain_defects");
    let circuit = generate::benchmark("s953");
    let view = ScanView::natural(&circuit, true);
    let patterns = lfsr_patterns(&circuit, 128, 0xACE1);
    let chain_cells = view.num_cells();
    println!("Scan chain defects — s953 ({chain_cells} scan cells), 128 patterns");
    println!();

    // (a) Flush-test localization sweep.
    let mut located = 0usize;
    for position in 0..chain_cells {
        for stuck in [false, true] {
            let fault = ChainFault { position, stuck };
            let zeros = flush_observation(chain_cells, Some(&fault), false);
            let ones = flush_observation(chain_cells, Some(&fault), true);
            if position + 1 < chain_cells {
                // Defects at the last position are invisible to flushes
                // (nothing shifts through them).
                if locate_chain_fault(&zeros, &ones) == Some(fault) {
                    located += 1;
                }
            }
        }
    }
    println!(
        "flush localization: {located}/{} interior defects located exactly",
        2 * (chain_cells - 1)
    );
    println!();

    // (b) What logic diagnosis sees if the flush step is skipped.
    let fsim = FaultSimulator::new(&circuit, &view, &patterns).expect("shapes match");
    let plan = DiagnosisPlan::new(
        ChainLayout::single_chain(view.len()),
        128,
        &BistConfig::new(4, 4, Scheme::TWO_STEP_DEFAULT),
    )
    .expect("plan builds");
    let mut rows = Vec::new();
    for position in [0usize, chain_cells / 2, chain_cells - 2] {
        let fault = ChainFault {
            position,
            stuck: true,
        };
        let observed =
            simulate_chain_fault(&circuit, &view, &patterns, &fault).expect("shapes match");
        let errors = observed.xor(fsim.golden());
        let failing = errors.failing_positions().len();
        let outcome = plan.analyze(errors.iter_bits());
        let diag = diagnose(&plan, &outcome);
        rows.push(vec![
            position.to_string(),
            failing.to_string(),
            diag.num_candidates().to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "defect position",
                "failing positions",
                "logic-diagnosis candidates",
            ],
            &rows
        )
    );
    println!();
    println!(
        "a chain defect floods the response — flush the chain first, then run logic diagnosis"
    );
    obs.finish(0);
}
