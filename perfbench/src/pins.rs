//! Output digests pinned when the benchmark was defined. A program
//! change that alters any pinned output fails the run; re-pin only
//! with a change that means to alter results.

/// The seed whose campaign-warm reports are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// FNV-1a digest of `table2`'s stdout.
pub const TABLE2_STDOUT: u64 = 0x9a42_0db5_7942_933e;

/// FNV-1a digest of `coverage`'s stdout.
pub const COVERAGE_STDOUT: u64 = 0x5011_72aa_f75d_39db;

/// Digest of every `SchemeReport` of a campaign-warm round at
/// [`DEFAULT_SEED`], by round modulo `campaign::ROUND_SEEDS`.
pub const CAMPAIGN_ROUNDS: [u64; 4] = [
    0xa72e_71c9_44e2_95e2,
    0x4b32_5b7b_a4df_9775,
    0x0bcc_7b64_46d3_5c40,
    0xe117_257c_b63e_75fe,
];

/// Compares a digest with the one expected.
pub fn expect(what: &str, expected: u64, got: u64) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!(
            "{what}: digest {got:016x}, expected {expected:016x}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Outcome;

    #[test]
    fn a_digest_mismatch_becomes_a_failed_operation() {
        let mut outcome = Outcome::default();
        assert!(outcome.attempt(expect("table2 stdout", 7, 7)));
        let ok = outcome.attempt(expect("table2 stdout", TABLE2_STDOUT, TABLE2_STDOUT ^ 1));
        assert!(!ok);
        assert!(!outcome.correct());
        assert!(outcome.failures[0].contains("table2 stdout"));
        assert!((outcome.failed_frac() - 0.5).abs() < 1e-12);
    }
}
