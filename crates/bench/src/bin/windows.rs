//! Extension experiment: intermediate-signature windows (time + space
//! information, the paper's reference \[2\]).
//!
//! Sweeps the snapshot window size and reports the failing-*vector*
//! resolution achieved alongside the signature-unload cost (snapshots
//! per session), on the same fault evidence as the cell-axis
//! experiments.

use scan_bench::render_table;
use scan_bist::Scheme;
use scan_diagnosis::windows::analyze_windows;
use scan_diagnosis::{lfsr_patterns, BistConfig, ChainLayout, DiagnosisPlan, DrAccumulator};
use scan_netlist::{generate, ScanView};
use scan_sim::FaultSimulator;

fn main() {
    let (obs, _rest) = scan_obs::Session::from_args("windows");
    let circuit = generate::benchmark("s5378");
    let view = ScanView::natural(&circuit, true);
    let num_patterns = 128usize;
    let patterns = lfsr_patterns(&circuit, num_patterns, 0xACE1);
    let fsim = FaultSimulator::new(&circuit, &view, &patterns).expect("shapes match");
    let faults = fsim.sample_detected_faults(300, 2003);
    let plan = DiagnosisPlan::new(
        ChainLayout::single_chain(view.len()),
        num_patterns,
        &BistConfig::new(8, 4, Scheme::TWO_STEP_DEFAULT),
    )
    .expect("plan builds");
    println!(
        "Windowed signatures — s5378, {} faults, two-step 4×8 sessions, {} patterns",
        faults.len(),
        num_patterns
    );
    println!();
    let mut rows = Vec::new();
    for window in [128usize, 32, 16, 8, 4, 1] {
        let mut acc = DrAccumulator::new();
        for fault in &faults {
            let errors = fsim.error_map(fault);
            let bits: Vec<(usize, usize)> = errors.iter_bits().collect();
            let outcome = analyze_windows(&plan, window, bits.iter().copied());
            let candidates = outcome.candidate_vectors();
            let actual: std::collections::HashSet<usize> = bits.iter().map(|&(_, t)| t).collect();
            acc.add(candidates.len(), actual.len());
        }
        rows.push(vec![
            window.to_string(),
            (num_patterns.div_ceil(window)).to_string(),
            format!("{:.3}", acc.dr()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["window (patterns)", "snapshots/session", "vector-DR"],
            &rows
        )
    );
    println!();
    println!(
        "window 128 = one final signature (no time information); window 1 = per-pattern snapshots"
    );
    obs.finish(0);
}
