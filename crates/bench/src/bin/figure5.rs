//! Figure 5: the number of partitions needed to reach a diagnostic
//! resolution of 0.5 (without pruning) on SOC 1 with a single meta scan
//! chain, for random-selection vs two-step partitioning, per failing
//! core. Fewer partitions means shorter diagnosis time.

use scan_bench::{render_table, table3_spec, PAPER_SCHEMES};
use scan_diagnosis::soc_diag::diagnose_each_core_parallel;
use scan_soc::d695;

const TARGET_DR: f64 = 0.5;
const MAX_PARTITIONS: usize = 16;

fn main() {
    let (obs, _rest) = scan_obs::Session::from_args("figure5");
    let mut spec = table3_spec();
    spec.partitions = MAX_PARTITIONS;
    let soc = d695::soc1().expect("SOC 1 builds");
    println!(
        "Figure 5 — partitions to reach DR ≤ {TARGET_DR} (no pruning), SOC 1, {} groups, up to {MAX_PARTITIONS} partitions",
        spec.groups
    );
    println!();
    let rows_data =
        diagnose_each_core_parallel(&soc, &spec, &PAPER_SCHEMES, 0).expect("SOC campaign runs");
    let fmt = |n: Option<usize>| n.map_or_else(|| format!(">{MAX_PARTITIONS}"), |v| v.to_string());
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|row| {
            vec![
                row.core.clone(),
                fmt(row.reports[0].partitions_to_reach(TARGET_DR)),
                fmt(row.reports[1].partitions_to_reach(TARGET_DR)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["failing core", "random-selection", "two-step"], &rows)
    );
    obs.finish(0);
}
