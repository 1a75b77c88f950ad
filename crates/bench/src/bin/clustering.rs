//! Figure 2's premise, measured: errors caused by a fault are confined
//! to the fault's output cone, whose observation points occupy a narrow
//! band of the scan chain. This binary quantifies the clustering both
//! structurally (cone spans) and dynamically (observed failing-cell
//! spans over injected faults).

use scan_netlist::stats::ClusteringStats;
use scan_netlist::{generate, ScanView};
use scan_sim::FaultSimulator;

fn main() {
    let (obs, _rest) = scan_obs::Session::from_args("clustering");
    println!("Fault-cone clustering statistics (Fig. 2 premise)");
    println!();
    println!(
        "{:<10} {:>6} {:>14} {:>12} {:>14} {:>16}",
        "circuit", "cells", "mean cone", "mean span", "span fraction", "observed span"
    );
    for name in ["s953", "s5378", "s9234", "s13207", "s15850", "s38584"] {
        let circuit = generate::benchmark(name);
        let view = ScanView::natural(&circuit, true);
        let structural = ClusteringStats::compute(&circuit, &view);

        // Dynamic check: mean span of actually failing cells over a
        // fault sample.
        let patterns = scan_diagnosis::lfsr_patterns(&circuit, 64, 0xACE1);
        let fsim = FaultSimulator::new(&circuit, &view, &patterns).expect("shapes match");
        let faults = fsim.sample_detected_faults(100, 2003);
        let mut spans = 0usize;
        let mut counted = 0usize;
        for fault in &faults {
            let failing = fsim.error_map(fault).failing_positions();
            if let (Some(min), Some(max)) = (failing.first(), failing.iter().last()) {
                spans += max - min + 1;
                counted += 1;
            }
        }
        let observed = if counted == 0 {
            0.0
        } else {
            spans as f64 / counted as f64 / view.len() as f64
        };
        println!(
            "{:<10} {:>6} {:>14.1} {:>12.1} {:>14.3} {:>16.3}",
            name,
            view.len(),
            structural.mean_cone_size,
            structural.mean_span,
            structural.mean_span_fraction,
            observed
        );
    }
    println!();
    println!("span fraction = mean structural cone span / chain length");
    println!("observed span = mean failing-cell span over 100 faults / chain length");
    obs.finish(0);
}
