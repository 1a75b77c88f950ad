//! Stdout-cleanliness harness for every experiment binary.
//!
//! The contract (see `scan_obs::session`): stdout carries the
//! machine-readable table/figure payload and *nothing else*;
//! diagnostics, progress, and usage text go to stderr. Running a
//! binary with `--help` must exit 0 before any campaign work, print
//! the shared usage text to stderr, and leave stdout empty — which is
//! the degenerate "parses cleanly" payload. A binary that ever prints
//! banners or diagnostics to stdout fails here.

use std::process::Command;

/// Every binary in `src/bin`, paired with its compiled path. The env
/// vars are set by cargo for integration tests, so a new binary that
/// is not added here is caught by `all_binaries_are_listed`.
const BINS: &[(&str, &str)] = &[
    (
        "ablation_chain_mask",
        env!("CARGO_BIN_EXE_ablation_chain_mask"),
    ),
    (
        "ablation_interval_count",
        env!("CARGO_BIN_EXE_ablation_interval_count"),
    ),
    ("ablation_misr", env!("CARGO_BIN_EXE_ablation_misr")),
    ("ablation_ordering", env!("CARGO_BIN_EXE_ablation_ordering")),
    ("ablation_xmask", env!("CARGO_BIN_EXE_ablation_xmask")),
    ("adaptive_compare", env!("CARGO_BIN_EXE_adaptive_compare")),
    ("all_experiments", env!("CARGO_BIN_EXE_all_experiments")),
    ("chain_defects", env!("CARGO_BIN_EXE_chain_defects")),
    ("clustering", env!("CARGO_BIN_EXE_clustering")),
    ("compactors", env!("CARGO_BIN_EXE_compactors")),
    ("coverage", env!("CARGO_BIN_EXE_coverage")),
    ("diagnosis_time", env!("CARGO_BIN_EXE_diagnosis_time")),
    ("dictionary", env!("CARGO_BIN_EXE_dictionary")),
    ("figure3", env!("CARGO_BIN_EXE_figure3")),
    ("figure5", env!("CARGO_BIN_EXE_figure5")),
    ("localization", env!("CARGO_BIN_EXE_localization")),
    ("multifault", env!("CARGO_BIN_EXE_multifault")),
    ("noise_sweep", env!("CARGO_BIN_EXE_noise_sweep")),
    ("overhead", env!("CARGO_BIN_EXE_overhead")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table2", env!("CARGO_BIN_EXE_table2")),
    ("table3", env!("CARGO_BIN_EXE_table3")),
    ("table4", env!("CARGO_BIN_EXE_table4")),
    ("topoff", env!("CARGO_BIN_EXE_topoff")),
    ("two_faulty_cores", env!("CARGO_BIN_EXE_two_faulty_cores")),
    ("vectors", env!("CARGO_BIN_EXE_vectors")),
    ("weighted", env!("CARGO_BIN_EXE_weighted")),
    ("windows", env!("CARGO_BIN_EXE_windows")),
];

#[test]
fn all_binaries_are_listed() {
    let mut on_disk: Vec<String> =
        std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin"))
            .expect("src/bin listable")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .trim_end_matches(".rs")
                    .to_owned()
            })
            .collect();
    on_disk.sort();
    let mut listed: Vec<String> = BINS.iter().map(|(name, _)| (*name).to_owned()).collect();
    listed.sort();
    assert_eq!(
        on_disk, listed,
        "src/bin and the harness list disagree — add the new binary to BINS"
    );
}

#[test]
fn help_exits_zero_with_clean_stdout() {
    for (name, exe) in BINS {
        let output = Command::new(exe)
            .arg("--help")
            .output()
            .unwrap_or_else(|e| panic!("{name}: failed to spawn: {e}"));
        assert!(
            output.status.success(),
            "{name} --help exited {:?}",
            output.status.code()
        );
        let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
        assert!(
            stdout.is_empty(),
            "{name} --help wrote to stdout (payload channel): {stdout:?}"
        );
        let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
        assert!(
            stderr.starts_with(&format!("usage: {name}")),
            "{name} --help stderr does not lead with its usage line: {stderr:?}"
        );
        assert!(
            stderr.contains("--profile-out") && stderr.contains("--trace-out"),
            "{name} --help does not document the shared observability flags"
        );
    }
}

#[test]
fn flag_missing_its_value_exits_2_before_any_work() {
    let output = Command::new(env!("CARGO_BIN_EXE_table1"))
        .arg("--metrics-out")
        .output()
        .expect("spawn table1");
    assert_eq!(output.status.code(), Some(2), "table1 --metrics-out");
    assert!(
        output.stdout.is_empty(),
        "a rejected invocation wrote to stdout (payload channel)"
    );
    let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
    assert!(
        stderr.contains("`--metrics-out`"),
        "stderr does not name the flag: {stderr:?}"
    );
}

/// `scan-lint` lives in another package, so cargo sets no
/// `CARGO_BIN_EXE_` var for it here — locate it as a sibling of this
/// package's binaries instead. `None` (not built yet) skips the test
/// so `cargo test -p scan-bench` alone still passes.
fn scan_lint_exe() -> Option<std::path::PathBuf> {
    let sibling = std::path::Path::new(env!("CARGO_BIN_EXE_table1")).with_file_name("scan-lint");
    sibling.exists().then_some(sibling)
}

#[test]
fn scan_lint_follows_the_same_help_contract() {
    let Some(exe) = scan_lint_exe() else {
        eprintln!("scan-lint not built alongside scan-bench; skipping");
        return;
    };
    let output = Command::new(&exe).arg("--help").output().expect("spawn");
    assert!(output.status.success(), "scan-lint --help failed");
    assert!(
        output.stdout.is_empty(),
        "scan-lint --help wrote to stdout (payload channel)"
    );
    let stderr = String::from_utf8(output.stderr.clone()).expect("stderr is UTF-8");
    assert!(
        stderr.starts_with("usage: scan-lint"),
        "scan-lint --help stderr does not lead with its usage line: {stderr:?}"
    );

    let short = Command::new(&exe).arg("-h").output().expect("spawn");
    assert!(short.status.success());
    assert_eq!(output.stderr, short.stderr);
    assert!(short.stdout.is_empty());
}

#[test]
fn short_help_matches_long_help() {
    // One representative is enough — the flag handling is shared code.
    let (name, exe) = BINS[0];
    let long = Command::new(exe).arg("--help").output().expect("spawn");
    let short = Command::new(exe).arg("-h").output().expect("spawn");
    assert!(short.status.success(), "{name} -h failed");
    assert_eq!(long.stderr, short.stderr);
    assert!(short.stdout.is_empty());
}
