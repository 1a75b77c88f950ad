//! Ablation: how many interval-based partitions should two-step use?
//!
//! The paper uses one interval partition "for the sake of simplicity"
//! but observes that "in some cases, the use of more interval-based
//! partitions leads to higher diagnostic resolution". This sweep varies
//! the interval prefix length of the two-step scheme from 0 (pure
//! random selection) to all-interval and reports DR per partition
//! count.

use scan_bench::{fmt_dr, render_table};
use scan_bist::Scheme;
use scan_diagnosis::{CampaignSpec, PreparedCampaign};
use scan_netlist::generate;

fn main() {
    let (obs, _rest) = scan_obs::Session::from_args("ablation_interval_count");
    let circuit = generate::benchmark("s953");
    let mut spec = CampaignSpec::new(200, 4, 8);
    spec.num_faults = 300;
    println!(
        "Ablation — interval partitions in two-step, s953, {} groups, {} partitions, {} faults",
        spec.groups, spec.partitions, spec.num_faults
    );
    println!();
    let campaign = PreparedCampaign::from_circuit(&circuit, &spec).expect("campaign prepares");
    let variants: Vec<usize> = vec![0, 1, 2, 3, 8];
    let mut reports = Vec::new();
    for &k in &variants {
        let scheme = if k == 0 {
            Scheme::RandomSelection
        } else {
            Scheme::TwoStep {
                interval_partitions: k,
            }
        };
        reports.push(campaign.run_parallel(scheme, 0).expect("scheme runs"));
    }
    let headers: Vec<String> = std::iter::once("partitions".to_owned())
        .chain(variants.iter().map(|&k| {
            if k == 0 {
                "0 (random)".to_owned()
            } else if k == 8 {
                "8 (all interval)".to_owned()
            } else {
                k.to_string()
            }
        }))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = (0..spec.partitions)
        .map(|p| {
            std::iter::once((p + 1).to_string())
                .chain(reports.iter().map(|r| fmt_dr(r.dr_by_prefix[p])))
                .collect()
        })
        .collect();
    println!("{}", render_table(&header_refs, &rows));
    println!("(column = number of leading interval-based partitions in the two-step scheme)");
    obs.finish(0);
}
