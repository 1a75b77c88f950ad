//! Ablation: scan chain ordering vs interval-based effectiveness.
//!
//! Section 3 of the paper grounds interval partitioning in the
//! correlation between scan order and circuit structure. This ablation
//! destroys (shuffled) or strengthens (cone-clustered) that correlation
//! and measures the impact per scheme: interval-based resolution should
//! degrade on a shuffled chain while random selection is indifferent to
//! ordering.

use scan_bench::{fmt_dr, render_table};
use scan_bist::Scheme;
use scan_diagnosis::{CampaignSpec, PreparedCampaign};
use scan_netlist::{generate, ScanOrdering};

fn main() {
    let (obs, _rest) = scan_obs::Session::from_args("ablation_ordering");
    let mut spec = CampaignSpec::new(128, 8, 4);
    spec.num_faults = 300;
    println!(
        "Ablation — scan ordering, {} patterns, {} groups, {} partitions, {} faults",
        spec.num_patterns, spec.groups, spec.partitions, spec.num_faults
    );
    println!();
    for name in ["s953", "s5378"] {
        let circuit = generate::benchmark(name);
        let mut rows = Vec::new();
        for (label, ordering) in [
            ("natural", ScanOrdering::Natural),
            ("shuffled", ScanOrdering::Shuffled(99)),
            ("cone-clustered", ScanOrdering::ConeClustered),
        ] {
            let mut s = spec;
            s.ordering = ordering;
            let campaign = PreparedCampaign::from_circuit(&circuit, &s).expect("campaign prepares");
            let interval = campaign
                .run_parallel(Scheme::IntervalBased, 0)
                .expect("interval run");
            let random = campaign
                .run_parallel(Scheme::RandomSelection, 0)
                .expect("random run");
            let two_step = campaign
                .run_parallel(Scheme::TWO_STEP_DEFAULT, 0)
                .expect("two-step run");
            rows.push(vec![
                label.to_owned(),
                fmt_dr(interval.dr_by_prefix[0]),
                fmt_dr(random.dr_by_prefix[0]),
                fmt_dr(interval.dr),
                fmt_dr(random.dr),
                fmt_dr(two_step.dr),
            ]);
        }
        println!("{name}:");
        println!(
            "{}",
            render_table(
                &[
                    "ordering",
                    "interval @1",
                    "random @1",
                    "interval @4",
                    "random @4",
                    "two-step @4",
                ],
                &rows
            )
        );
    }
    obs.finish(0);
}
