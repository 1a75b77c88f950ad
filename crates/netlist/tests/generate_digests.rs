//! Pins the synthetic generator's output byte for byte: FNV-1a digests
//! of `to_bench_string()` for every shipped profile at
//! [`DEFAULT_BENCHMARK_SEED`], plus `(profile, seed, config)` triples
//! with non-default knobs. Every paper artifact runs on these netlists,
//! so any change to the generator's draw sequence must show up here.

use scan_netlist::generate::{
    generate, generate_with, profile, CircuitProfile, GeneratorConfig, DEFAULT_BENCHMARK_SEED,
    ISCAS85_PROFILES, ISCAS89_PROFILES,
};

fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of every shipped profile at the default seed.
const DEFAULT_SEED_DIGESTS: &[(&str, u64)] = &[
    ("s27", 0x83f9_9146_1ce0_650b),
    ("s298", 0xdf14_17ec_1945_d4d6),
    ("s344", 0x1c9c_47c9_2c2f_0e53),
    ("s349", 0x960b_eace_3632_fd33),
    ("s382", 0x2354_3683_63b3_ab8a),
    ("s386", 0x03cd_0015_b01b_b9d1),
    ("s400", 0x507d_a851_d994_59a2),
    ("s420", 0xa047_a7dd_5882_791e),
    ("s444", 0x8db2_8532_c071_e43b),
    ("s510", 0x41f6_647b_be03_4af1),
    ("s526", 0x594d_adc5_0458_d5c6),
    ("s641", 0x9aec_fa98_406f_9af8),
    ("s713", 0x7396_d81c_5e63_7371),
    ("s820", 0xb121_4a5d_688e_dcfb),
    ("s832", 0xdcc5_4d61_277d_fc02),
    ("s838", 0xf17d_6a98_bd95_7eb7),
    ("s953", 0xdaf3_0124_44ba_df30),
    ("s1196", 0x6232_72d0_4cc5_028b),
    ("s1238", 0xa4ff_148c_aaa2_10bd),
    ("s1423", 0x2858_fdc2_91d4_b189),
    ("s5378", 0x311e_26a7_411d_ec8d),
    ("s9234", 0x98e4_d66d_ef44_d084),
    ("s13207", 0x066b_b848_a717_5ad1),
    ("s15850", 0x675c_3557_4d6d_08cf),
    ("s35932", 0x79db_c294_163a_bc36),
    ("s38417", 0x8995_02bd_3277_48dd),
    ("s38584", 0x0c75_db91_67f3_d43a),
    ("c432", 0x32b5_f455_0c14_b503),
    ("c499", 0xc8a7_cb49_6394_6a04),
    ("c880", 0xd438_0d98_285c_71b6),
    ("c1355", 0x4475_3c86_e8ca_46c5),
    ("c1908", 0x78ae_4f79_b38a_ed05),
    ("c2670", 0xf5d2_4f2c_62c5_dc8c),
    ("c3540", 0xffd6_ebb4_6fae_a2b7),
    ("c5315", 0x911d_dfc0_146b_1e75),
    ("c6288", 0x2574_a9cc_8a08_ee54),
    ("c7552", 0xaaf8_dbee_ab49_51b2),
];

fn config(
    locality: f64,
    levels: usize,
    max_fanin: usize,
    unary_fraction: f64,
    xor_fraction: f64,
) -> GeneratorConfig {
    GeneratorConfig {
        locality,
        levels,
        max_fanin,
        unary_fraction,
        xor_fraction,
    }
}

/// `(profile, seed, config, digest)` with non-default generator knobs:
/// tight and wide windows (window widening and the whole-space
/// fallback), many and few levels, high fan-in on tiny profiles.
fn pinned_triples() -> Vec<(&'static str, u64, GeneratorConfig, u64)> {
    vec![
        (
            "s27",
            1,
            config(0.01, 3, 4, 0.0, 0.5),
            0xc456_5c98_b148_464d,
        ),
        (
            "s298",
            7,
            config(0.2, 1, 2, 0.3, 0.0),
            0x4813_588c_89ee_14b8,
        ),
        (
            "s953",
            42,
            config(0.001, 8, 5, 0.05, 0.1),
            0xd50e_a5d4_b75e_13a0,
        ),
        (
            "s1423",
            3,
            config(0.5, 2, 3, 0.2, 0.9),
            0x8ae3_6e1d_a64a_dba6,
        ),
        (
            "c432",
            11,
            config(0.03, 12, 6, 0.0, 0.3),
            0x617d_afd8_91cd_6101,
        ),
        (
            "s5378",
            99,
            config(0.02, 4, 4, 0.15, 0.25),
            0x63a5_2a28_b4c9_222a,
        ),
        (
            "c6288",
            5,
            config(0.1, 6, 2, 0.5, 0.5),
            0x96fb_ea1e_e9bf_9a93,
        ),
        (
            "s386",
            0,
            config(1.5, 2, 3, 0.1, 0.2),
            0xc2b4_ebbe_8d57_e8d3,
        ),
        (
            "s27",
            123,
            config(0.06, 20, 7, 0.0, 0.0),
            0x82be_9750_9392_73cc,
        ),
        (
            "s838",
            2024,
            config(0.004, 5, 3, 0.9, 0.2),
            0xc980_94bc_93ad_2822,
        ),
        (
            "s13207",
            17,
            config(0.01, 7, 4, 0.1, 0.2),
            0xb963_b8e1_9508_a3fb,
        ),
        // These two reach the `window > 1.0` fallback (three and two
        // times): a tiny source layer, many empty levels, wide fan-in.
        (
            "s27",
            6,
            config(0.3, 10, 7, 0.0, 0.0),
            0x82ec_5f7e_cad5_189f,
        ),
        (
            "s298",
            1,
            config(0.3, 4, 12, 0.0, 0.3),
            0xc53c_8b13_634b_0306,
        ),
    ]
}

#[test]
fn shipped_profiles_match_pinned_digests() {
    let profiles: Vec<&CircuitProfile> = ISCAS89_PROFILES.iter().chain(ISCAS85_PROFILES).collect();
    let got: Vec<(&str, u64)> = profiles
        .iter()
        .map(|p| {
            (
                p.name,
                fnv1a(&generate(p, DEFAULT_BENCHMARK_SEED).to_bench_string()),
            )
        })
        .collect();
    assert_eq!(got, DEFAULT_SEED_DIGESTS, "generator output moved");
}

#[test]
fn non_default_configs_match_pinned_digests() {
    for (name, seed, config, want) in pinned_triples() {
        let p = profile(name).expect("known profile");
        let got = fnv1a(&generate_with(p, seed, &config).to_bench_string());
        assert_eq!(got, want, "{name} seed {seed} {config:?}: got {got:#018x}");
    }
}
