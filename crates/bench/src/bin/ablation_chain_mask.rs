//! Ablation: per-chain session masking on a multi-chain TAM.
//!
//! The baseline shift-cycle selection logic cannot distinguish the `w`
//! cells sharing a shift position on a `w`-chain TAM, putting a DR
//! floor of about `w − 1` under Table 4. One extra comparator (chain
//! select) splits each session per chain — `w×` the sessions, full
//! cross-chain resolution. This ablation runs SOC 2 both ways.

use scan_bench::{fmt_dr, render_table, table4_spec};
use scan_bist::Scheme;
use scan_diagnosis::chain_mask::{analyze_chain_masked, diagnose_chain_masked};
use scan_diagnosis::{diagnose, BistConfig, ChainLayout, DiagnosisPlan, DrAccumulator};
use scan_netlist::generate::SIX_LARGEST;
use scan_sim::FaultSimulator;
use scan_soc::d695;

fn main() {
    let (obs, _rest) = scan_obs::Session::from_args("ablation_chain_mask");
    let spec = table4_spec();
    let soc = d695::soc2().expect("SOC 2 builds");
    println!(
        "Ablation — per-chain masking on SOC 2 ({} chains), two-step, {} groups, {} partitions, 200 faults/core",
        soc.num_chains(),
        spec.groups,
        spec.partitions
    );
    println!();
    let layout = ChainLayout::from_soc(&soc);
    let plan = DiagnosisPlan::new(
        layout,
        spec.num_patterns,
        &BistConfig::new(spec.groups, spec.partitions, Scheme::TWO_STEP_DEFAULT),
    )
    .expect("plan builds");
    let baseline_sessions = spec.partitions * usize::from(spec.groups);
    let masked_sessions = baseline_sessions * soc.num_chains();

    let mut rows = Vec::new();
    for name in SIX_LARGEST {
        let core_index = soc.core_index(name).expect("core exists");
        let core = &soc.cores()[core_index];
        let core_seed = spec
            .prpg_seed
            .wrapping_add((core_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let patterns = scan_diagnosis::lfsr_patterns(core.netlist(), spec.num_patterns, core_seed);
        let fsim =
            FaultSimulator::new(core.netlist(), core.view(), &patterns).expect("shapes match");
        let faults = fsim.sample_detected_faults(200, spec.fault_seed);
        // Local→global mapping for this core.
        let mut local_to_global = vec![usize::MAX; core.view().len()];
        for (global, (cell, _, _)) in soc.layout().into_iter().enumerate() {
            if cell.core as usize == core_index {
                local_to_global[cell.local as usize] = global;
            }
        }
        let mut base_acc = DrAccumulator::new();
        let mut mask_acc = DrAccumulator::new();
        for fault in &faults {
            let errors = fsim.error_map(fault);
            let bits: Vec<(usize, usize)> = errors
                .iter_bits()
                .map(|(pos, pat)| (local_to_global[pos], pat))
                .collect();
            let actual = errors.failing_positions().len();
            let baseline = diagnose(&plan, &plan.analyze(bits.iter().copied()));
            base_acc.add(baseline.num_candidates(), actual);
            let masked =
                diagnose_chain_masked(&plan, &analyze_chain_masked(&plan, bits.iter().copied()));
            mask_acc.add(masked.len(), actual);
        }
        rows.push(vec![
            name.to_owned(),
            fmt_dr(base_acc.dr()),
            fmt_dr(mask_acc.dr()),
        ]);
        eprintln!("  {name}: done");
    }
    println!(
        "{}",
        render_table(&["failing core", "baseline DR", "chain-masked DR"], &rows)
    );
    println!();
    println!(
        "sessions: baseline {baseline_sessions}, chain-masked {masked_sessions} (×{} chains)",
        soc.num_chains()
    );
    obs.finish(0);
}
