//! Differential harness between the production fault-simulation engine
//! and its reference oracle.
//!
//! The bit-parallel PPSFP engine ([`PpsfpSimulator`]) is the only
//! engine campaigns run on; the whole-circuit resimulator
//! ([`FaultSimulator`]) is the deliberately simple oracle it must
//! match. These tests drive both over `scan_rng::testkit`-generated
//! circuits, scan orders and pattern sets, and require *bit-identical*
//! results for everything diagnosis reads from fault simulation:
//!
//! * golden responses and per-fault error maps (with the fault-dropping
//!   verdict of [`PpsfpSimulator::detects`]),
//! * the detected-fault sample — its *order* and each fault's map —
//!   from [`PpsfpSimulator::sample_detected_with_maps`],
//! * the multiplet sample from
//!   [`PpsfpSimulator::sample_detected_multiplets_with_maps`] against
//!   `sample_detected_multiplets` + `error_map_multi`.
//!
//! Pattern counts are always ragged (never a multiple of 64), so the
//! masked last word is in play in every case; a single pattern (the
//! sets ATPG fault dropping simulates) is one of the draws. Patterns
//! are uniform pseudo-random or weighted per input (the sets the
//! weighted-coverage experiment simulates).

use scan_netlist::generate::{generate_with, profile, GeneratorConfig};
use scan_netlist::{Netlist, ScanOrdering, ScanView};
use scan_rng::testkit::{Gen, Runner};
use scan_rng::ScanRng;
use scan_sim::{FaultSimulator, FaultUniverse, PatternSet, PpsfpSimulator};

fn random_circuit(g: &mut Gen) -> Netlist {
    let name = g.pick("profile", &["s298", "s344", "s386"]);
    let seed = g.u64("circuit_seed", 0, 31);
    generate_with(profile(name).unwrap(), seed, &GeneratorConfig::default())
}

fn random_view(g: &mut Gen, n: &Netlist) -> ScanView {
    let ordering = if g.bool("shuffled_chain") {
        ScanOrdering::Shuffled(g.u64("chain_seed", 0, 1 << 10))
    } else {
        ScanOrdering::Natural
    };
    ScanView::ordered(n, ordering, g.bool("include_outputs"))
}

/// A pattern set of exactly one pattern or of `64·k + tail` patterns
/// with `1 ≤ tail ≤ 63`, so the last word is always partially masked;
/// its bits are uniform pseudo-random or drawn with per-input weights.
fn ragged_patterns(g: &mut Gen, n: &Netlist) -> PatternSet {
    let num_patterns = if g.bool("single_pattern") {
        1
    } else {
        64 * g.usize("full_words", 0, 3) + g.usize("tail", 1, 63)
    };
    let seed = g.u64("pattern_seed", 0, 1 << 20);
    if g.bool("weighted") {
        let (pis, dffs) = (n.num_inputs(), n.num_dffs());
        let pi_weights = g.vec("pi_weights", pis, pis, ScanRng::next_f64);
        let state_weights = g.vec("state_weights", dffs, dffs, ScanRng::next_f64);
        PatternSet::weighted(num_patterns, seed, &pi_weights, &state_weights)
    } else {
        PatternSet::pseudo_random(n.num_inputs(), n.num_dffs(), num_patterns, seed)
    }
}

/// Golden responses and every fault's error map agree, and fault
/// dropping never changes a detection verdict.
#[test]
fn error_maps_match_oracle() {
    Runner::new(10).run("error_maps_match_oracle", |g| {
        let n = random_circuit(g);
        let view = random_view(g, &n);
        let patterns = ragged_patterns(g, &n);
        let fsim = FaultSimulator::new(&n, &view, &patterns).unwrap();
        let mut psim = PpsfpSimulator::new(&n, &view, &patterns).unwrap();
        assert_eq!(fsim.golden(), psim.golden());
        for fault in FaultUniverse::collapsed(&n).faults().iter().take(60) {
            let reference = fsim.error_map(fault);
            assert_eq!(reference, psim.error_map(fault), "{}", fault.describe(&n));
            assert_eq!(
                reference.is_detected(),
                psim.detects(fault),
                "fault dropping changed the verdict of {}",
                fault.describe(&n)
            );
        }
    });
}

/// The single-pass sample returns the oracle's detected faults in the
/// oracle's order, each with the oracle's error map.
#[test]
fn detected_sample_matches_oracle() {
    Runner::new(10).run("detected_sample_matches_oracle", |g| {
        let n = random_circuit(g);
        let view = random_view(g, &n);
        let patterns = ragged_patterns(g, &n);
        let count = g.usize("faults", 5, 40);
        let seed = g.u64("fault_seed", 0, 1 << 20);
        let fsim = FaultSimulator::new(&n, &view, &patterns).unwrap();
        let mut psim = PpsfpSimulator::new(&n, &view, &patterns).unwrap();
        let reference = fsim.sample_detected_faults(count, seed);
        let sampled = psim.sample_detected_with_maps(count, seed);
        assert!(reference.len() >= 2, "sample too small to pin an order");
        let order: Vec<_> = sampled.iter().map(|(f, _)| *f).collect();
        assert_eq!(reference, order, "sampled fault order diverged");
        for (fault, map) in &sampled {
            assert_eq!(map, &fsim.error_map(fault), "{}", fault.describe(&n));
        }
    });
}

/// The multiplet sample matches `sample_detected_multiplets` (order
/// included) and `error_map_multi` for every chunk.
#[test]
fn multiplet_sample_matches_oracle() {
    Runner::new(8).run("multiplet_sample_matches_oracle", |g| {
        let n = random_circuit(g);
        let view = random_view(g, &n);
        let patterns = ragged_patterns(g, &n);
        let count = g.usize("multiplets", 3, 20);
        let size = g.usize("multiplet_size", 2, 3);
        let seed = g.u64("fault_seed", 0, 1 << 20);
        let fsim = FaultSimulator::new(&n, &view, &patterns).unwrap();
        let mut psim = PpsfpSimulator::new(&n, &view, &patterns).unwrap();
        let reference = fsim.sample_detected_multiplets(count, size, seed);
        let sampled = psim.sample_detected_multiplets_with_maps(count, size, seed);
        assert!(reference.len() >= 2, "sample too small to pin an order");
        let order: Vec<_> = sampled.iter().map(|(fs, _)| fs.clone()).collect();
        assert_eq!(reference, order, "sampled multiplet order diverged");
        for (faults, map) in &sampled {
            assert_eq!(map, &fsim.error_map_multi(faults));
        }
    });
}
