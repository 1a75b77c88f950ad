//! Noise sweep: fault-tolerant diagnosis quality vs verdict-noise rate
//! on the Table 1 configuration (s953, 200 patterns, 4 groups per
//! partition, 8 partitions, 500 faults, two-step scheme).
//!
//! Each row injects session-verdict noise at a given flip rate and
//! reports how the robust engine (retry + best-of-3 voting + weighted
//! fallback, see `docs/ROBUSTNESS.md`) degrades: the fraction of faults
//! resolved exactly, resolved with degraded confidence, or left
//! inconclusive, plus the DR over conclusive faults and how many
//! strict-intersection failures the recovery machinery repaired. A
//! final stress row combines flips with session dropout, intermittent
//! faults, and X-corrupted cells.
//!
//! ```sh
//! cargo run --release -p scan-bench --bin noise_sweep
//! ```

use scan_bench::{fmt_dr, render_table, table1_spec};
use scan_bist::Scheme;
use scan_diagnosis::{NoiseConfig, NoiseModel, PreparedCampaign, RobustPolicy};
use scan_netlist::generate;

/// Verdict flip rates swept in the plain rows.
const FLIP_RATES: [f64; 5] = [0.0, 0.005, 0.01, 0.02, 0.05];

/// Noise stream seed: fixed so the sweep is reproducible bit-for-bit.
const NOISE_SEED: u64 = 2003;

fn main() {
    let (obs, _rest) = scan_obs::Session::from_args("noise_sweep");
    let spec = table1_spec();
    let circuit = generate::benchmark("s953");
    println!(
        "Noise sweep — s953, {} patterns, {} groups/partition, {} partitions, {} faults, two-step",
        spec.num_patterns, spec.groups, spec.partitions, spec.num_faults
    );
    println!("(retry budget 2 rounds, best-of-3 voting, weighted fallback; seed {NOISE_SEED})");
    let campaign =
        PreparedCampaign::from_circuit(&circuit, &spec).expect("s953 campaign must prepare");
    eprintln!("(diagnosing {} detected faults)", campaign.num_faults());
    let policy = RobustPolicy::default();

    let mut configs: Vec<(String, NoiseConfig)> = FLIP_RATES
        .iter()
        .map(|&flip| {
            let mut cfg = NoiseConfig::noiseless(NOISE_SEED);
            cfg.flip_rate = flip;
            (format!("flip {flip:.3}"), cfg)
        })
        .collect();
    let mut stress = NoiseConfig::noiseless(NOISE_SEED);
    stress.flip_rate = 0.02;
    stress.dropout_rate = 0.02;
    stress.intermittent_rate = 0.2;
    stress.intermittent_miss = 0.5;
    stress.x_corrupt_fraction = 0.02;
    configs.push(("stress".to_owned(), stress));

    let rows: Vec<Vec<String>> = configs
        .iter()
        .map(|(label, cfg)| {
            let noise = NoiseModel::new(*cfg).expect("sweep rates are valid");
            let report = campaign
                .run_robust_parallel(Scheme::TWO_STEP_DEFAULT, &noise, &policy, 0)
                .expect("robust run");
            eprintln!(
                "noise_sweep: {label}: {}/{} conclusive, {} strict failure(s), {} recovered",
                report.exact + report.degraded,
                report.faults,
                report.strict_failures,
                report.recovered
            );
            let n = report.faults as f64;
            vec![
                label.clone(),
                format!("{:.1}%", 100.0 * report.exact as f64 / n),
                format!("{:.1}%", 100.0 * report.degraded as f64 / n),
                format!("{:.1}%", 100.0 * report.inconclusive as f64 / n),
                fmt_dr(report.dr),
                report.strict_failures.to_string(),
                report.recovered.to_string(),
                report.retry_rounds.to_string(),
                report.fallbacks.to_string(),
            ]
        })
        .collect();
    println!();
    println!(
        "{}",
        render_table(
            &[
                "noise",
                "exact",
                "degraded",
                "inconclusive",
                "DR (conclusive)",
                "strict failures",
                "recovered",
                "retry rounds",
                "fallbacks",
            ],
            &rows
        )
    );
    println!(
        "Strict intersection alone loses every `strict failures` fault (empty or\n\
         contradictory candidate set); the robust engine keeps all but the\n\
         `inconclusive` column diagnosable."
    );
    obs.finish(0);
}
