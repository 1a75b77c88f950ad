//! BIST session scheduling and signature analysis.
//!
//! A diagnosis run executes `partitions × groups` BIST sessions: session
//! `(p, g)` re-applies the whole pattern set with only the cells of
//! group `g` of partition `p` feeding the MISR. A group *fails* when its
//! signature differs from the fault-free signature.
//!
//! Because the MISR is linear, the signature difference (the *error
//! signature*) of a session equals the XOR of the contributions of the
//! error bits it compacts (see [`MisrModel`]); [`ResponseModel`]
//! precomputes the contribution tables and [`DiagnosisPlan`] computes
//! every session's pass/fail verdict directly from the sparse error map
//! — bit-exact with replaying the hardware, including signature
//! aliasing, at a small fraction of the cost.

use scan_bist::partition::{generate_partitions, PartitionConfig};
use scan_bist::{MisrModel, Partition, Scheme};

use crate::error::BuildPlanError;
use crate::layout::ChainLayout;

/// Configuration of the diagnosis BIST setup.
#[derive(Clone, Copy, Debug)]
pub struct BistConfig {
    /// Groups per partition (`b`; one BIST session per group).
    pub groups: u16,
    /// Number of partitions.
    pub partitions: usize,
    /// Partitioning scheme.
    pub scheme: Scheme,
    /// MISR width (the error-signature register).
    pub misr_degree: u32,
    /// Degree of the partition-generating LFSR (the paper uses 16).
    pub partition_lfsr_degree: u32,
    /// IVR seed for partition generation.
    pub partition_seed: u64,
}

impl BistConfig {
    /// The paper's defaults: degree-16 partition LFSR, 16-bit MISR,
    /// seed 1.
    #[must_use]
    pub fn new(groups: u16, partitions: usize, scheme: Scheme) -> Self {
        BistConfig {
            groups,
            partitions,
            scheme,
            misr_degree: 16,
            partition_lfsr_degree: 16,
            partition_seed: 1,
        }
    }
}

/// Pass/fail outcome of every session of a diagnosis run.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct SessionOutcome {
    /// `fails[p][g]` — whether group `g` of partition `p` failed.
    fails: Vec<Vec<bool>>,
    /// `signatures[p][g]` — the error signature of that session
    /// (zero for passing groups).
    signatures: Vec<Vec<u64>>,
}

impl SessionOutcome {
    /// Builds an outcome from raw per-session error signatures
    /// (`signatures[partition][group]`; a group fails iff its signature
    /// is nonzero).
    #[must_use]
    pub fn from_signatures(signatures: Vec<Vec<u64>>) -> Self {
        let fails = signatures
            .iter()
            .map(|row| row.iter().map(|&s| s != 0).collect())
            .collect();
        SessionOutcome { fails, signatures }
    }

    /// Builds an outcome from bare per-session pass/fail verdicts
    /// (`fails[partition][group]`), e.g. verdicts perturbed by the
    /// [`noise`](crate::noise) layer where true signatures no longer
    /// exist. Error signatures are synthesized as `1` for failing
    /// sessions; callers that need real signatures must use
    /// [`SessionOutcome::from_signatures`].
    #[must_use]
    pub fn from_verdicts(fails: Vec<Vec<bool>>) -> Self {
        let signatures = fails
            .iter()
            .map(|row| row.iter().map(|&f| u64::from(f)).collect())
            .collect();
        SessionOutcome { fails, signatures }
    }

    /// Whether group `g` of partition `p` failed.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn failed(&self, partition: usize, group: u16) -> bool {
        self.fails[partition][usize::from(group)]
    }

    /// The error signature of a session.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn error_signature(&self, partition: usize, group: u16) -> u64 {
        self.signatures[partition][usize::from(group)]
    }

    /// Number of partitions.
    #[must_use]
    pub fn num_partitions(&self) -> usize {
        self.fails.len()
    }

    /// Number of session groups recorded for one partition.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    #[must_use]
    pub fn num_groups(&self, partition: usize) -> usize {
        self.fails[partition].len()
    }

    /// Failing groups of one partition.
    pub fn failing_groups(&self, partition: usize) -> impl Iterator<Item = u16> + '_ {
        self.fails[partition]
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f)
            .map(|(g, _)| g as u16)
    }

    /// Returns `true` if no session failed (the fault aliased away or
    /// was undetected).
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.fails.iter().flatten().all(|&f| !f)
    }
}

/// The linear response-compaction model of one BIST setup: chain
/// layout, pattern count, MISR, and the precomputed contribution tables
/// that make error-signature computation linear in the number of error
/// bits.
///
/// Shared by partition-based diagnosis ([`DiagnosisPlan`]), failing-
/// vector diagnosis ([`vector_diag`](crate::vector_diag)), and the
/// adaptive binary-search baseline
/// ([`adaptive`](crate::adaptive)).
#[derive(Clone, Debug)]
pub struct ResponseModel {
    layout: ChainLayout,
    num_patterns: usize,
    misr: MisrModel,
    /// `x^(max_len − 1 − pos) mod p` per shift position.
    pos_pow: Vec<u64>,
    /// `x^((num_patterns − 1 − t) · max_len) mod p` per pattern `t`.
    pat_pow: Vec<u64>,
    /// `x^stage mod p` per chain index.
    stage_pow: Vec<u64>,
}

impl ResponseModel {
    /// Builds the model and its contribution tables.
    ///
    /// # Errors
    ///
    /// Returns [`BuildPlanError`] if the layout is empty, the MISR is
    /// narrower than the number of chains, or the degree is
    /// unsupported.
    pub fn new(
        layout: ChainLayout,
        num_patterns: usize,
        misr_degree: u32,
    ) -> Result<Self, BuildPlanError> {
        if layout.num_cells() == 0 {
            return Err(BuildPlanError::EmptyLayout);
        }
        if num_patterns == 0 {
            return Err(BuildPlanError::DegenerateConfig);
        }
        if layout.num_chains() > misr_degree as usize {
            return Err(BuildPlanError::MisrTooNarrow {
                misr_degree,
                chains: layout.num_chains(),
            });
        }
        let misr = MisrModel::new(misr_degree)
            .map_err(|_| BuildPlanError::UnsupportedDegree { degree: misr_degree })?;

        // Contribution of an error bit at (chain, pos, pattern t):
        //   x^(stage + T − 1 − clock),  clock = t·L + pos,  T = P·L
        // = x^stage · x^((P−1−t)·L) · x^(L−1−pos)   (mod p)
        let len = layout.max_len();
        let mut pos_pow = vec![0u64; len];
        let mut acc = 1u64;
        for pos in (0..len).rev() {
            pos_pow[pos] = acc;
            acc = misr.mul_mod(acc, 2); // ·x
        }
        let x_pow_len = misr.x_pow_mod(len as u64);
        let mut pat_pow = vec![0u64; num_patterns];
        let mut acc = 1u64;
        for t in (0..num_patterns).rev() {
            pat_pow[t] = acc;
            acc = misr.mul_mod(acc, x_pow_len);
        }
        let stage_pow: Vec<u64> = (0..layout.num_chains() as u64)
            .map(|s| misr.x_pow_mod(s))
            .collect();
        Ok(ResponseModel {
            layout,
            num_patterns,
            misr,
            pos_pow,
            pat_pow,
            stage_pow,
        })
    }

    /// The chain layout.
    #[must_use]
    pub fn layout(&self) -> &ChainLayout {
        &self.layout
    }

    /// Pattern count per session.
    #[must_use]
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// The MISR model.
    #[must_use]
    pub fn misr(&self) -> MisrModel {
        self.misr
    }

    /// Total MISR clocks per session.
    #[must_use]
    pub fn total_clocks(&self) -> u64 {
        (self.num_patterns * self.layout.max_len()) as u64
    }

    /// The contribution of one error bit (`cell`, `pattern`) to its
    /// session signature, via the precomputed tables.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn contribution(&self, cell: usize, pattern: usize) -> u64 {
        let (chain, pos) = self.layout.coord(cell);
        let a = self
            .misr
            .mul_mod(self.pat_pow[pattern], self.pos_pow[pos as usize]);
        self.misr.mul_mod(a, self.stage_pow[chain as usize])
    }

    /// The error signature of one session that compacts exactly the
    /// error bits accepted by `selected`.
    #[must_use]
    pub fn masked_signature<I, F>(&self, error_bits: I, mut selected: F) -> u64
    where
        I: IntoIterator<Item = (usize, usize)>,
        F: FnMut(usize, usize) -> bool,
    {
        let mut signature = 0u64;
        for (cell, pattern) in error_bits {
            if selected(cell, pattern) {
                signature ^= self.contribution(cell, pattern);
            }
        }
        signature
    }
}

/// A fully elaborated diagnosis setup: the response model plus the
/// scheme's partitions over shift positions.
#[derive(Clone, Debug)]
pub struct DiagnosisPlan {
    model: ResponseModel,
    partitions: Vec<Partition>,
}

impl DiagnosisPlan {
    /// Builds the plan: generates the scheme's partitions over the
    /// layout's shift positions and precomputes contribution tables.
    ///
    /// # Errors
    ///
    /// Returns [`BuildPlanError`] if the configuration is degenerate,
    /// the MISR cannot host one stage per chain, a degree is
    /// unsupported, or there are more groups than cells in the longest
    /// chain.
    pub fn new(
        layout: ChainLayout,
        num_patterns: usize,
        config: &BistConfig,
    ) -> Result<Self, BuildPlanError> {
        if config.partitions == 0 || config.groups == 0 {
            return Err(BuildPlanError::DegenerateConfig);
        }
        let model = ResponseModel::new(layout, num_patterns, config.misr_degree)?;
        let cells = model.layout().max_len();
        if usize::from(config.groups) > cells {
            return Err(BuildPlanError::TooManyGroups {
                groups: config.groups,
                cells,
            });
        }
        let mut partition_config = PartitionConfig::new(cells, config.groups);
        partition_config.lfsr_degree = config.partition_lfsr_degree;
        partition_config.seed = config.partition_seed;
        let partitions = generate_partitions(&partition_config, config.scheme, config.partitions);
        Ok(DiagnosisPlan { model, partitions })
    }

    /// The underlying response model.
    #[must_use]
    pub fn model(&self) -> &ResponseModel {
        &self.model
    }

    /// The chain layout diagnosed by this plan.
    #[must_use]
    pub fn layout(&self) -> &ChainLayout {
        self.model.layout()
    }

    /// The generated partitions.
    #[must_use]
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Pattern count per session.
    #[must_use]
    pub fn num_patterns(&self) -> usize {
        self.model.num_patterns()
    }

    /// The MISR model.
    #[must_use]
    pub fn misr(&self) -> MisrModel {
        self.model.misr()
    }

    /// Total MISR clocks per session.
    #[must_use]
    pub fn total_clocks(&self) -> u64 {
        self.model.total_clocks()
    }

    /// The contribution of one error bit (`cell`, `pattern`) to its
    /// session signature, via the precomputed tables.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn contribution(&self, cell: usize, pattern: usize) -> u64 {
        self.model.contribution(cell, pattern)
    }

    /// Runs every session over a sparse error map (iterator of
    /// `(global cell, pattern)` error bits) and returns the pass/fail
    /// verdicts.
    ///
    /// # Panics
    ///
    /// Panics if any error bit is out of range.
    #[must_use]
    pub fn analyze<I>(&self, error_bits: I) -> SessionOutcome
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let groups = usize::from(
            self.partitions
                .iter()
                .map(Partition::num_groups)
                .max()
                .unwrap_or(0),
        );
        let mut signatures = vec![vec![0u64; groups]; self.partitions.len()];
        for (cell, pattern) in error_bits {
            let (_, pos) = self.model.layout().coord(cell);
            let contribution = self.model.contribution(cell, pattern);
            for (p, partition) in self.partitions.iter().enumerate() {
                let g = usize::from(partition.group_of(pos as usize));
                signatures[p][g] ^= contribution;
            }
        }
        SessionOutcome::from_signatures(signatures)
    }

    /// Word-level [`DiagnosisPlan::analyze`]: consumes *packed* error
    /// words — `(global cell, word_index, bits)` triples where bit `l`
    /// of `bits` is the error bit of pattern `word_index * 64 + l` —
    /// as produced by `ErrorMap::iter_words` or streamed straight from
    /// the PPSFP simulator's word sweep.
    ///
    /// MISR compaction is thereby fused into the word-level data path:
    /// signatures accumulate per packed word with no intermediate
    /// per-bit pair materialization. Bit-identical to
    /// [`DiagnosisPlan::analyze`] over the expanded bits (signature
    /// accumulation is XOR, so order never matters).
    ///
    /// # Panics
    ///
    /// Panics if any encoded error bit is out of range.
    #[must_use]
    pub fn analyze_packed<I>(&self, error_words: I) -> SessionOutcome
    where
        I: IntoIterator<Item = (usize, usize, u64)>,
    {
        self.analyze(error_words.into_iter().flat_map(|(cell, w, bits)| {
            std::iter::successors(
                (bits != 0).then_some(bits),
                |&rest| {
                    let rest = rest & (rest - 1);
                    (rest != 0).then_some(rest)
                },
            )
            .map(move |rest| (cell, w * 64 + rest.trailing_zeros() as usize))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_bist::Misr;

    fn plan(chain_len: usize, patterns: usize, groups: u16, parts: usize) -> DiagnosisPlan {
        DiagnosisPlan::new(
            ChainLayout::single_chain(chain_len),
            patterns,
            &BistConfig::new(groups, parts, Scheme::RandomSelection),
        )
        .unwrap()
    }

    #[test]
    fn more_groups_than_cells_is_an_error_not_a_panic() {
        let config = BistConfig::new(8, 3, Scheme::RandomSelection);
        let err = DiagnosisPlan::new(ChainLayout::single_chain(4), 16, &config).unwrap_err();
        assert_eq!(err, BuildPlanError::TooManyGroups { groups: 8, cells: 4 });
        // One group per cell is still a valid plan.
        assert_eq!(plan(4, 16, 4, 3).partitions().len(), 3);
    }

    #[test]
    fn contribution_matches_model_directly() {
        let p = plan(37, 10, 4, 2);
        let total = p.total_clocks();
        for (cell, pattern) in [(0usize, 0usize), (36, 9), (17, 5), (0, 9), (36, 0)] {
            let clock = (pattern * 37 + cell) as u64;
            assert_eq!(
                p.contribution(cell, pattern),
                p.misr().contribution(total, clock, 0),
                "cell {cell} pattern {pattern}"
            );
        }
    }

    #[test]
    fn analyze_matches_bit_true_misr_emulation() {
        // Emulate the full hardware per session: shift every cell of
        // every pattern through a real MISR, masking unselected cells,
        // for both the golden and the faulty stream; compare verdicts.
        let chain_len = 23;
        let patterns = 7;
        let p = plan(chain_len, patterns, 4, 3);
        let error_bits = [(3usize, 0usize), (3, 4), (9, 2), (22, 6), (10, 2)];
        let outcome = p.analyze(error_bits.iter().copied());

        for (pi, part) in p.partitions().iter().enumerate() {
            for g in 0..part.num_groups() {
                let mut golden = Misr::from_model(p.misr());
                let mut faulty = Misr::from_model(p.misr());
                for t in 0..patterns {
                    for pos in 0..chain_len {
                        let selected = part.group_of(pos) == g;
                        // Arbitrary golden bit; the error flips it.
                        let gbit = (pos * 7 + t) % 3 == 0;
                        let ebit = error_bits.contains(&(pos, t));
                        golden.clock(u64::from(gbit && selected));
                        faulty.clock(u64::from((gbit ^ ebit) && selected));
                    }
                }
                let failed = golden.signature() != faulty.signature();
                assert_eq!(outcome.failed(pi, g), failed, "partition {pi} group {g}");
            }
        }
    }

    #[test]
    fn analyze_packed_matches_analyze() {
        // 100 patterns spans a full word plus a ragged tail; the packed
        // path must reproduce the per-bit path exactly, signatures
        // included.
        let p = plan(23, 100, 4, 3);
        let bits = [
            (3usize, 0usize),
            (3, 63),
            (3, 64),
            (9, 99),
            (22, 70),
            (10, 2),
        ];
        let mut words: Vec<(usize, usize, u64)> = Vec::new();
        for &(cell, pattern) in &bits {
            let (w, lane) = (pattern / 64, pattern % 64);
            if let Some(entry) = words.iter_mut().find(|(c, ww, _)| *c == cell && *ww == w) {
                entry.2 |= 1 << lane;
            } else {
                words.push((cell, w, 1 << lane));
            }
        }
        assert_eq!(
            p.analyze_packed(words.iter().copied()),
            p.analyze(bits.iter().copied())
        );
        assert_eq!(
            p.analyze_packed(std::iter::empty()),
            p.analyze(std::iter::empty())
        );
    }

    #[test]
    fn empty_error_map_passes_everything() {
        let p = plan(50, 8, 4, 4);
        let outcome = p.analyze(std::iter::empty());
        assert!(outcome.all_passed());
    }

    #[test]
    fn single_error_bit_fails_exactly_one_group_per_partition() {
        let p = plan(64, 4, 8, 5);
        let outcome = p.analyze([(13usize, 2usize)]);
        for pi in 0..outcome.num_partitions() {
            let failing: Vec<u16> = outcome.failing_groups(pi).collect();
            assert_eq!(failing.len(), 1);
            assert_eq!(failing[0], p.partitions()[pi].group_of(13));
        }
    }

    #[test]
    fn cancelling_bits_alias() {
        // Two identical (cell, pattern) bits XOR to nothing.
        let p = plan(10, 2, 2, 1);
        let outcome = p.analyze([(4usize, 1usize), (4, 1)]);
        assert!(outcome.all_passed());
    }

    #[test]
    fn misr_too_narrow_rejected() {
        let layout = ChainLayout::from_coords((0..40).map(|i| (i, 0)).collect());
        let err = DiagnosisPlan::new(layout, 4, &BistConfig::new(2, 1, Scheme::RandomSelection));
        assert!(matches!(err, Err(BuildPlanError::MisrTooNarrow { .. })));
    }

    #[test]
    fn degenerate_configs_rejected() {
        let layout = ChainLayout::single_chain(10);
        assert!(DiagnosisPlan::new(
            layout.clone(),
            0,
            &BistConfig::new(2, 1, Scheme::RandomSelection)
        )
        .is_err());
        assert!(DiagnosisPlan::new(
            layout,
            4,
            &BistConfig::new(2, 0, Scheme::RandomSelection)
        )
        .is_err());
    }

    #[test]
    fn multi_chain_contributions_use_stages() {
        let layout = ChainLayout::from_coords(vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
        let plan =
            DiagnosisPlan::new(layout, 3, &BistConfig::new(2, 1, Scheme::RandomSelection))
                .unwrap();
        // Same (pos, pattern), different chains → different stages →
        // different contributions.
        assert_ne!(plan.contribution(0, 1), plan.contribution(1, 1));
        // Direct model cross-check for chain 1.
        let total = plan.total_clocks();
        assert_eq!(
            plan.contribution(1, 2),
            plan.misr().contribution(total, 2 * 2, 1)
        );
    }

    #[test]
    fn masked_signature_matches_analyze() {
        let p = plan(32, 6, 4, 2);
        let bits = [(5usize, 1usize), (6, 2), (20, 3)];
        let outcome = p.analyze(bits.iter().copied());
        for (pi, part) in p.partitions().iter().enumerate() {
            for g in 0..part.num_groups() {
                let sig = p.model().masked_signature(bits.iter().copied(), |cell, _| {
                    part.group_of(cell) == g
                });
                assert_eq!(sig, outcome.error_signature(pi, g));
            }
        }
    }
}
