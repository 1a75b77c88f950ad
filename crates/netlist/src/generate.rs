//! Synthetic benchmark-class circuit generation.
//!
//! The original ISCAS-89 netlists are distribution-restricted artifacts.
//! This module generates *synthetic* sequential circuits matching the
//! published interface statistics (#PI, #PO, #DFF, approximate gate
//! count) of each benchmark, with **structurally local** connectivity:
//! every net has a spatial position in `[0, 1)`, gates draw their inputs
//! from a bounded window around their own position, and flip-flops are
//! indexed in position order (which becomes the natural scan order).
//!
//! Locality is the property the DATE 2003 experiments rely on: the cone
//! of a fault reaches a *contiguous-ish* band of scan cells, so failing
//! scan cells cluster in the scan chain — exactly the behaviour
//! interval-based partitioning exploits. See `DESIGN.md` §5 for the full
//! substitution rationale.
//!
//! # Input draw
//!
//! A gate draws its inputs one at a time from every finished layer (the
//! sources, then each finished level of the gate cloud), among the nets
//! within `locality` of its own position; the window doubles until it
//! holds a candidate. Nets no gate reads yet ("fresh") are preferred
//! four to one over nets already read ("seen"). Each layer keeps its
//! nets in position order with a Fenwick tree over their read flags, so
//! a window's fresh and seen counts are two prefix sums per layer and
//! the k-th candidate is one tree descent: a draw costs
//! O(levels · log n) rather than a scan of the window.
//!
//! **Determinism contract.** The netlist is a pure function of
//! `(profile, seed, config)`. The random draws are exactly those of
//! listing the window's candidates (layers in order, each in position
//! order, nets already picked for this gate left out) and indexing that
//! list: one `gen_bool(0.8)` only when both the fresh and the seen list
//! are non-empty, then one `gen_index`. Nets are numbered in creation
//! order. `tests/generate_digests.rs` pins the `to_bench_string()`
//! digest of every shipped profile, so any change to this sequence
//! shows up as a test failure.

use scan_rng::ScanRng;

use crate::gate::GateKind;
use crate::{NetId, Netlist, NetlistBuilder};

/// Published interface statistics of a benchmark circuit.
#[derive(Clone, Copy, Eq, PartialEq, Debug)]
pub struct CircuitProfile {
    /// Benchmark name (e.g. `"s953"`).
    pub name: &'static str,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of D flip-flops.
    pub dffs: usize,
    /// Approximate number of combinational gates.
    pub gates: usize,
}

/// Interface statistics of the ISCAS-89 benchmark family (from the
/// benchmark documentation; gate counts include inverters).
pub const ISCAS89_PROFILES: &[CircuitProfile] = &[
    CircuitProfile { name: "s27", inputs: 4, outputs: 1, dffs: 3, gates: 10 },
    CircuitProfile { name: "s298", inputs: 3, outputs: 6, dffs: 14, gates: 119 },
    CircuitProfile { name: "s344", inputs: 9, outputs: 11, dffs: 15, gates: 160 },
    CircuitProfile { name: "s349", inputs: 9, outputs: 11, dffs: 15, gates: 161 },
    CircuitProfile { name: "s382", inputs: 3, outputs: 6, dffs: 21, gates: 158 },
    CircuitProfile { name: "s386", inputs: 7, outputs: 7, dffs: 6, gates: 159 },
    CircuitProfile { name: "s400", inputs: 3, outputs: 6, dffs: 21, gates: 162 },
    CircuitProfile { name: "s420", inputs: 18, outputs: 1, dffs: 16, gates: 218 },
    CircuitProfile { name: "s444", inputs: 3, outputs: 6, dffs: 21, gates: 181 },
    CircuitProfile { name: "s510", inputs: 19, outputs: 7, dffs: 6, gates: 211 },
    CircuitProfile { name: "s526", inputs: 3, outputs: 6, dffs: 21, gates: 193 },
    CircuitProfile { name: "s641", inputs: 35, outputs: 24, dffs: 19, gates: 379 },
    CircuitProfile { name: "s713", inputs: 35, outputs: 23, dffs: 19, gates: 393 },
    CircuitProfile { name: "s820", inputs: 18, outputs: 19, dffs: 5, gates: 289 },
    CircuitProfile { name: "s832", inputs: 18, outputs: 19, dffs: 5, gates: 287 },
    CircuitProfile { name: "s838", inputs: 34, outputs: 1, dffs: 32, gates: 446 },
    CircuitProfile { name: "s953", inputs: 16, outputs: 23, dffs: 29, gates: 395 },
    CircuitProfile { name: "s1196", inputs: 14, outputs: 14, dffs: 18, gates: 529 },
    CircuitProfile { name: "s1238", inputs: 14, outputs: 14, dffs: 18, gates: 508 },
    CircuitProfile { name: "s1423", inputs: 17, outputs: 5, dffs: 74, gates: 657 },
    CircuitProfile { name: "s5378", inputs: 35, outputs: 49, dffs: 179, gates: 2779 },
    CircuitProfile { name: "s9234", inputs: 36, outputs: 39, dffs: 211, gates: 5597 },
    CircuitProfile { name: "s13207", inputs: 62, outputs: 152, dffs: 638, gates: 7951 },
    CircuitProfile { name: "s15850", inputs: 77, outputs: 150, dffs: 534, gates: 9772 },
    CircuitProfile { name: "s35932", inputs: 35, outputs: 320, dffs: 1728, gates: 16065 },
    CircuitProfile { name: "s38417", inputs: 28, outputs: 106, dffs: 1636, gates: 22179 },
    CircuitProfile { name: "s38584", inputs: 38, outputs: 304, dffs: 1426, gates: 19253 },
];

/// Interface statistics of the ISCAS-85 combinational benchmark family
/// (no flip-flops; the full d695 SOC includes two of these alongside
/// the ISCAS-89 modules).
pub const ISCAS85_PROFILES: &[CircuitProfile] = &[
    CircuitProfile { name: "c432", inputs: 36, outputs: 7, dffs: 0, gates: 160 },
    CircuitProfile { name: "c499", inputs: 41, outputs: 32, dffs: 0, gates: 202 },
    CircuitProfile { name: "c880", inputs: 60, outputs: 26, dffs: 0, gates: 383 },
    CircuitProfile { name: "c1355", inputs: 41, outputs: 32, dffs: 0, gates: 546 },
    CircuitProfile { name: "c1908", inputs: 33, outputs: 25, dffs: 0, gates: 880 },
    CircuitProfile { name: "c2670", inputs: 233, outputs: 140, dffs: 0, gates: 1193 },
    CircuitProfile { name: "c3540", inputs: 50, outputs: 22, dffs: 0, gates: 1669 },
    CircuitProfile { name: "c5315", inputs: 178, outputs: 123, dffs: 0, gates: 2307 },
    CircuitProfile { name: "c6288", inputs: 32, outputs: 32, dffs: 0, gates: 2416 },
    CircuitProfile { name: "c7552", inputs: 207, outputs: 108, dffs: 0, gates: 3512 },
];

/// The six largest ISCAS-89 benchmarks, as used in Table 2 of the paper.
pub const SIX_LARGEST: [&str; 6] = ["s9234", "s13207", "s15850", "s35932", "s38417", "s38584"];

/// Looks up the published profile for a benchmark name (ISCAS-89 or
/// ISCAS-85).
#[must_use]
pub fn profile(name: &str) -> Option<&'static CircuitProfile> {
    ISCAS89_PROFILES
        .iter()
        .chain(ISCAS85_PROFILES)
        .find(|p| p.name == name)
}

/// Tunable knobs for the synthetic generator.
#[derive(Clone, Copy, Debug)]
pub struct GeneratorConfig {
    /// Half-width of the positional window gates draw their inputs from,
    /// as a fraction of the unit position space. Smaller values produce
    /// tighter fault cones (more clustered failing scan cells).
    pub locality: f64,
    /// Number of combinational levels the gate cloud is spread over.
    pub levels: usize,
    /// Maximum gate fan-in (2..=this) for non-unary gates.
    pub max_fanin: usize,
    /// Fraction of gates that are inverters/buffers.
    pub unary_fraction: f64,
    /// Fraction of non-unary gates that are XOR/XNOR.
    pub xor_fraction: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        // Tuned so pseudorandom stuck-at coverage lands in the
        // benchmark-typical range (~70% with 128 patterns on the s953
        // profile): shallow-ish clouds with fan-in ≤ 3 and a healthy
        // XOR fraction keep fault effects observable, while the small
        // locality window keeps fault cones clustered in scan order.
        GeneratorConfig {
            locality: 0.06,
            levels: 5,
            max_fanin: 3,
            unary_fraction: 0.10,
            xor_fraction: 0.20,
        }
    }
}

/// Generates a synthetic circuit matching `profile`, deterministically
/// from `seed`.
///
/// The same `(profile, seed, config)` always yields the same netlist.
/// Flip-flops are created in position order, so
/// [`ScanView::natural`](crate::ScanView::natural) yields a
/// locality-respecting scan chain.
///
/// # Panics
///
/// As [`generate_with`].
///
/// # Examples
///
/// ```
/// use scan_netlist::generate::{generate, profile};
///
/// let p = profile("s953").expect("known benchmark");
/// let n = generate(p, 1);
/// assert_eq!(n.num_dffs(), 29);
/// assert_eq!(n.num_inputs(), 16);
/// ```
#[must_use]
pub fn generate(profile: &CircuitProfile, seed: u64) -> Netlist {
    generate_with(profile, seed, &GeneratorConfig::default())
}

/// [`generate`] with explicit generator configuration.
///
/// # Panics
///
/// Panics if `config.locality` is not positive (the window would never
/// widen), or if a gate needs more distinct inputs than the profile has
/// nets to offer at that point, as in a one-input, flip-flop-free
/// profile with two-input gates; the message names the profile. Every
/// shipped profile generates without panicking.
#[must_use]
pub fn generate_with(profile: &CircuitProfile, seed: u64, config: &GeneratorConfig) -> Netlist {
    assert!(
        config.locality > 0.0,
        "generator locality must be positive, got {}",
        config.locality
    );
    let mut rng = ScanRng::seed_from_u64(seed ^ hash_name(profile.name));
    let mut b = NetlistBuilder::new(profile.name);

    // Source nets with positions: PIs spread uniformly, FF outputs at
    // their index position (scan order == position order).
    let mut sources: Vec<(f64, NetId)> = Vec::new();
    for i in 0..profile.inputs {
        let pos = (i as f64 + 0.5) / profile.inputs.max(1) as f64;
        sources.push((pos, b.input(&format!("pi{i}"))));
    }
    let mut ff_d_names = Vec::with_capacity(profile.dffs);
    for i in 0..profile.dffs {
        let d = format!("d{i}");
        let q = b.dff(&format!("q{i}"), &d);
        let pos = (i as f64 + 0.5) / profile.dffs.max(1) as f64;
        sources.push((pos, q));
        ff_d_names.push((pos, d));
    }
    let mut pool = NetPool {
        profile: profile.name,
        locality: config.locality,
        layers: vec![Layer::new(sources)],
    };

    // Gate cloud: `levels` layers; each layer draws inputs from a window
    // around its position in all previous layers (and the sources).
    let levels = config.levels.max(1);
    let mut remaining = profile.gates;
    // Reserve one gate per FF D-input and per PO for the final hookup
    // stage so total gate count ≈ profile.gates.
    let hookups = profile.dffs + profile.outputs;
    let cloud = remaining.saturating_sub(hookups);
    let mut gate_counter = 0usize;
    for level in 0..levels {
        let this_level = if level + 1 == levels {
            cloud - cloud / levels * (levels - 1)
        } else {
            cloud / levels
        };
        let mut layer = Vec::with_capacity(this_level);
        for _ in 0..this_level {
            let pos: f64 = rng.next_f64();
            let name = format!("w{gate_counter}");
            gate_counter += 1;
            let kind = pick_kind(&mut rng, config);
            let fanin = if kind.is_unary() {
                1
            } else {
                rng.gen_range_inclusive(2, config.max_fanin)
            };
            let inputs = pool.pick_inputs(&mut rng, pos, fanin);
            layer.push((pos, b.gate_from_ids(kind, &name, inputs)));
        }
        pool.layers.push(Layer::new(layer));
    }
    remaining = remaining.saturating_sub(cloud);

    // Hook up FF D-inputs: a gate near the FF's own position, so state
    // feedback is local.
    for (pos, d) in &ff_d_names {
        let kind = pick_kind_nonunary(&mut rng, config);
        let fanin = rng.gen_range_inclusive(2, config.max_fanin);
        let inputs = pool.pick_inputs(&mut rng, *pos, fanin);
        b.gate_from_ids(kind, d, inputs);
        remaining = remaining.saturating_sub(1);
    }
    // Hook up POs similarly.
    for i in 0..profile.outputs {
        let name = format!("po{i}");
        let pos = (i as f64 + 0.5) / profile.outputs.max(1) as f64;
        let kind = pick_kind_nonunary(&mut rng, config);
        let fanin = rng.gen_range_inclusive(2, config.max_fanin);
        let inputs = pool.pick_inputs(&mut rng, pos, fanin);
        b.gate_from_ids(kind, &name, inputs);
        b.output(&name);
    }

    b.finish()
        .expect("generator produces structurally valid netlists")
}

/// Generates the synthetic stand-in for a named ISCAS-89 benchmark with
/// the workspace's default seed, or parses the embedded real netlist for
/// `s27`.
///
/// This is the single entry point experiments use to obtain benchmark
/// circuits, keeping every table/figure reproducible.
///
/// # Panics
///
/// Panics if `name` is not an ISCAS-89 benchmark name.
#[must_use]
pub fn benchmark(name: &str) -> Netlist {
    if name == "s27" {
        return crate::bench::s27();
    }
    let p = profile(name).unwrap_or_else(|| panic!("unknown benchmark `{name}`"));
    generate(p, DEFAULT_BENCHMARK_SEED)
}

/// Seed used by [`benchmark`] for reproducible experiment circuits.
pub const DEFAULT_BENCHMARK_SEED: u64 = 0xDA7E_2003;

fn hash_name(name: &str) -> u64 {
    // FNV-1a, so each profile gets decorrelated streams for equal seeds.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn pick_kind(rng: &mut ScanRng, config: &GeneratorConfig) -> GateKind {
    if rng.gen_bool(config.unary_fraction) {
        if rng.gen_bool(0.8) {
            GateKind::Not
        } else {
            GateKind::Buf
        }
    } else {
        pick_kind_nonunary(rng, config)
    }
}

fn pick_kind_nonunary(rng: &mut ScanRng, config: &GeneratorConfig) -> GateKind {
    if rng.gen_bool(config.xor_fraction) {
        if rng.gen_bool(0.5) {
            GateKind::Xor
        } else {
            GateKind::Xnor
        }
    } else {
        match rng.gen_index(4) {
            0 => GateKind::And,
            1 => GateKind::Nand,
            2 => GateKind::Or,
            _ => GateKind::Nor,
        }
    }
}

/// One layer of drawable nets (the sources, or one finished level of
/// the gate cloud) in position order, with a Fenwick tree over the
/// "already read by some gate" flags so that windowed counts and
/// rank selection are O(log n).
struct Layer {
    nets: Vec<(f64, NetId)>,
    used: Vec<bool>,
    /// 1-based Fenwick tree: `tree[i]` counts the used nets in
    /// `(i - lowbit(i), i]` (1-based positions).
    tree: Vec<u32>,
}

impl Layer {
    fn new(mut nets: Vec<(f64, NetId)>) -> Self {
        // Stable, so nets at equal positions keep their creation order.
        nets.sort_by(|a, b| a.0.total_cmp(&b.0));
        Layer {
            used: vec![false; nets.len()],
            tree: vec![0; nets.len() + 1],
            nets,
        }
    }

    /// The index range of nets whose position lies in
    /// `[pos - window, pos + window]`.
    fn window(&self, pos: f64, window: f64) -> (usize, usize) {
        let lo = self.nets.partition_point(|(p, _)| *p < pos - window);
        let hi = self.nets.partition_point(|(p, _)| *p <= pos + window);
        (lo, hi)
    }

    /// Number of nets of class `used` among indices `0..end`.
    fn count_before(&self, end: usize, used: bool) -> usize {
        let mut ones = 0;
        let mut i = end;
        while i > 0 {
            ones += self.tree[i] as usize;
            i &= i - 1;
        }
        if used {
            ones
        } else {
            end - ones
        }
    }

    /// Index of the `rank`-th (0-based) net of class `used`, by Fenwick
    /// descent.
    fn select(&self, mut rank: usize, used: bool) -> usize {
        let len = self.used.len();
        let mut at = 0;
        let mut step = len.checked_ilog2().map_or(0, |bit| 1 << bit);
        while step > 0 {
            let next = at + step;
            if next <= len {
                // Node `next` covers exactly the `step` positions after `at`.
                let ones = self.tree[next] as usize;
                let count = if used { ones } else { step - ones };
                if count <= rank {
                    at = next;
                    rank -= count;
                }
            }
            step >>= 1;
        }
        at
    }

    fn mark_used(&mut self, index: usize) {
        // A seen net drawn again is already counted.
        if self.used[index] {
            return;
        }
        self.used[index] = true;
        let mut i = index + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }
}

/// One layer's share of a draw window: its index range and how many
/// nets of each class (`[fresh, seen]`) it holds, this gate's earlier
/// picks left out.
struct Span {
    lo: usize,
    hi: usize,
    count: [usize; 2],
}

/// Every net a gate may read so far, layer by layer.
struct NetPool {
    profile: &'static str,
    locality: f64,
    layers: Vec<Layer>,
}

impl NetPool {
    /// Picks `fanin` distinct nets, preferring nets whose position lies
    /// within `locality` of `pos`. The window is widened geometrically
    /// until it holds a candidate. Among the window's candidates, nets
    /// not yet read by any gate ("fresh") are preferred, which keeps the
    /// dangling-logic fraction (and hence the unobservable-fault
    /// fraction) low. The module docs give the draw sequence this must
    /// keep.
    fn pick_inputs(&mut self, rng: &mut ScanRng, pos: f64, fanin: usize) -> Vec<NetId> {
        let nets: usize = self.layers.iter().map(|layer| layer.nets.len()).sum();
        // Otherwise the fallback below would re-draw picked nets forever.
        assert!(
            nets >= fanin,
            "profile `{}`: a gate needs {fanin} distinct inputs, more than the {nets} nets generated so far",
            self.profile,
        );
        // (layer, index) of each pick, in pick order.
        let mut chosen: Vec<(usize, usize)> = Vec::with_capacity(fanin);
        let mut spans: Vec<Span> = Vec::with_capacity(self.layers.len());
        let mut window = self.locality;
        while chosen.len() < fanin {
            let mut totals = [0, 0];
            spans.clear();
            for (l, layer) in self.layers.iter().enumerate() {
                let (lo, hi) = layer.window(pos, window);
                let seen = layer.count_before(hi, true) - layer.count_before(lo, true);
                let mut count = [hi - lo - seen, seen];
                for &(_, i) in chosen
                    .iter()
                    .filter(|&&(cl, i)| cl == l && (lo..hi).contains(&i))
                {
                    count[usize::from(layer.used[i])] -= 1;
                }
                totals[0] += count[0];
                totals[1] += count[1];
                spans.push(Span { lo, hi, count });
            }
            // Prefer unread nets most of the time; mixing in some reuse
            // keeps fanout (and therefore branch faults) realistic.
            let want_fresh = totals[0] > 0 && (totals[1] == 0 || rng.gen_bool(0.8));
            let class = !want_fresh;
            let total = totals[usize::from(class)];
            if total == 0 {
                window *= 2.0;
                if window > 1.0 {
                    // Whole-space fallback: any source net, which is
                    // not marked used.
                    let any = (0, rng.gen_index(self.layers[0].nets.len()));
                    if !chosen.contains(&any) {
                        chosen.push(any);
                    }
                }
                continue;
            }
            let mut k = rng.gen_index(total);
            for (l, span) in spans.iter().enumerate() {
                let in_span = span.count[usize::from(class)];
                if k >= in_span {
                    k -= in_span;
                    continue;
                }
                // The k-th candidate of this span is the class member of
                // rank `rank`, once every chosen class member at or below
                // that rank (taken in ascending order) is stepped past.
                let layer = &mut self.layers[l];
                let mut skip: Vec<usize> = chosen
                    .iter()
                    .filter(|&&(cl, i)| {
                        cl == l && (span.lo..span.hi).contains(&i) && layer.used[i] == class
                    })
                    .map(|&(_, i)| i)
                    .collect();
                skip.sort_unstable();
                let mut rank = layer.count_before(span.lo, class) + k;
                for i in skip {
                    if layer.count_before(i, class) <= rank {
                        rank += 1;
                    }
                }
                let index = layer.select(rank, class);
                layer.mark_used(index);
                chosen.push((l, index));
                break;
            }
            window = self.locality;
        }
        chosen
            .into_iter()
            .map(|(l, i)| self.layers[l].nets[i].1)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_cover_the_paper_circuits() {
        for name in ["s953", "s838", "s5378"].iter().chain(SIX_LARGEST.iter()) {
            assert!(profile(name).is_some(), "missing profile {name}");
        }
    }

    #[test]
    fn generated_interface_matches_profile() {
        let p = profile("s953").unwrap();
        let n = generate(p, 7);
        assert_eq!(n.num_inputs(), p.inputs);
        assert_eq!(n.num_outputs(), p.outputs);
        assert_eq!(n.num_dffs(), p.dffs);
        // Gate count is approximate but close (hookups may slightly
        // exceed the cloud budget on tiny profiles).
        let got = n.num_gates() as f64;
        let want = p.gates as f64;
        assert!(
            (got - want).abs() / want < 0.15,
            "gate count {got} too far from {want}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let p = profile("s386").unwrap();
        let a = generate(p, 42).to_bench_string();
        let b = generate(p, 42).to_bench_string();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let p = profile("s386").unwrap();
        let a = generate(p, 1).to_bench_string();
        let b = generate(p, 2).to_bench_string();
        assert_ne!(a, b);
    }

    #[test]
    fn combinational_iscas85_profiles_generate() {
        let p = profile("c880").unwrap();
        let n = generate(p, 2);
        assert_eq!(n.num_dffs(), 0);
        assert_eq!(n.num_inputs(), 60);
        assert_eq!(n.num_outputs(), 26);
        assert!(n.num_gates() > 100);
    }

    #[test]
    fn benchmark_returns_real_s27() {
        let n = benchmark("s27");
        assert_eq!(n.num_gates(), 10);
        assert!(n.find_net("G17").is_some());
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn benchmark_rejects_unknown_names() {
        let _ = benchmark("s999999");
    }

    #[test]
    #[should_panic(expected = "profile `tiny`: a gate needs")]
    fn too_few_nets_for_a_gate_panics_instead_of_hanging() {
        let p = CircuitProfile {
            name: "tiny",
            inputs: 1,
            outputs: 1,
            dffs: 0,
            gates: 4,
        };
        let _ = generate(&p, 1);
    }

    #[test]
    #[should_panic(expected = "locality must be positive")]
    fn zero_locality_panics_instead_of_hanging() {
        let config = GeneratorConfig {
            locality: 0.0,
            ..GeneratorConfig::default()
        };
        let _ = generate_with(profile("s27").unwrap(), 1, &config);
    }

    #[test]
    fn layer_select_inverts_count_before() {
        let mut layer = Layer::new((0..37).map(|i| (f64::from(i), NetId(i))).collect());
        for i in [0, 3, 4, 10, 31, 36] {
            layer.mark_used(i);
        }
        layer.mark_used(4);
        for used in [false, true] {
            let members: Vec<usize> = (0..37).filter(|&i| layer.used[i] == used).collect();
            for (rank, &index) in members.iter().enumerate() {
                assert_eq!(layer.select(rank, used), index);
                assert_eq!(layer.count_before(index, used), rank);
            }
        }
    }

    #[test]
    fn medium_profile_generates_quickly_and_validates() {
        let p = profile("s5378").unwrap();
        let n = generate(p, 3);
        assert_eq!(n.num_dffs(), 179);
        assert!(n.depth() >= 2);
    }
}
