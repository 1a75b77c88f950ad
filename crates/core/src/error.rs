//! Error types for the diagnosis engine.

use std::error::Error;
use std::fmt;

/// Error returned when a diagnosis plan cannot be constructed.
#[derive(Clone, Copy, Eq, PartialEq, Debug)]
#[non_exhaustive]
pub enum BuildPlanError {
    /// The chain layout is empty.
    EmptyLayout,
    /// The MISR is narrower than the number of parallel chains, so some
    /// chains have no injection stage.
    MisrTooNarrow {
        /// MISR width.
        misr_degree: u32,
        /// Parallel chains to compact.
        chains: usize,
    },
    /// Zero partitions or zero groups were requested.
    DegenerateConfig,
    /// An unsupported LFSR/MISR degree was requested.
    UnsupportedDegree {
        /// The offending degree.
        degree: u32,
    },
    /// More groups were requested than the longest chain has cells, so
    /// some group would select no shift position.
    TooManyGroups {
        /// Requested groups per partition.
        groups: u16,
        /// Cells in the longest chain.
        cells: usize,
    },
}

impl fmt::Display for BuildPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildPlanError::EmptyLayout => write!(f, "chain layout has no cells"),
            BuildPlanError::MisrTooNarrow {
                misr_degree,
                chains,
            } => write!(
                f,
                "MISR of width {misr_degree} cannot compact {chains} parallel chains"
            ),
            BuildPlanError::DegenerateConfig => {
                write!(f, "partitions and groups must both be nonzero")
            }
            BuildPlanError::UnsupportedDegree { degree } => {
                write!(f, "unsupported LFSR/MISR degree {degree}")
            }
            BuildPlanError::TooManyGroups { groups, cells } => write!(
                f,
                "{groups} groups exceed the {cells} cells of the longest scan chain"
            ),
        }
    }
}

impl Error for BuildPlanError {}

/// Explicit outcome of a strict intersection diagnosis that could not
/// produce a meaningful candidate set.
///
/// The plain [`diagnose`](crate::diagnose) function returns an empty
/// candidate set in both situations below, which is ambiguous: "no
/// session failed" and "the sessions contradict each other" demand
/// very different responses from a production diagnosis service. The
/// checked entry point [`diagnose_checked`](crate::diagnose_checked)
/// surfaces them as errors instead, and the robust engine
/// ([`crate::robust`]) uses them to decide when to retry and when to
/// fall back to weighted voting.
#[derive(Clone, Copy, Eq, PartialEq, Debug)]
#[non_exhaustive]
pub enum DiagnoseError {
    /// Every session of every partition passed: either the device is
    /// fault-free or the fault aliased away entirely. There is no
    /// evidence to intersect.
    AllSessionsPassed,
    /// The session history is internally inconsistent: intersecting
    /// this partition's failing groups with the candidates surviving
    /// all earlier partitions leaves nothing, so at least one recorded
    /// verdict must be wrong (a flipped verdict, MISR aliasing, or an
    /// intermittent fault that fired in some sessions but not others).
    ContradictoryHistory {
        /// The 0-based partition whose intersection step first emptied
        /// the candidate set.
        partition: usize,
    },
    /// The run was cancelled cooperatively (deadline expiry, shutdown
    /// drain) before all partitions were intersected. Any partial
    /// candidate set is discarded — a prefix intersection is an
    /// over-approximation, not a diagnosis.
    Cancelled {
        /// Partitions fully intersected before the cancellation was
        /// observed.
        completed_partitions: usize,
    },
}

impl fmt::Display for DiagnoseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagnoseError::AllSessionsPassed => {
                write!(f, "every BIST session passed; nothing to diagnose")
            }
            DiagnoseError::ContradictoryHistory { partition } => write!(
                f,
                "session history is contradictory: partition {partition} leaves an empty \
                 intersection"
            ),
            DiagnoseError::Cancelled {
                completed_partitions,
            } => write!(
                f,
                "diagnosis cancelled after {completed_partitions} completed partition(s)"
            ),
        }
    }
}

impl Error for DiagnoseError {}

/// Error returned when a [`NoiseConfig`](crate::noise::NoiseConfig)
/// carries an unusable rate.
#[derive(Clone, Copy, PartialEq, Debug)]
#[non_exhaustive]
pub enum NoiseConfigError {
    /// A probability field is outside `[0, 1]` or NaN.
    InvalidRate {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for NoiseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoiseConfigError::InvalidRate { field, value } => {
                write!(f, "noise rate `{field}` must be in [0, 1], got {value}")
            }
        }
    }
}

impl Error for NoiseConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_plan_errors_display() {
        assert_eq!(
            BuildPlanError::EmptyLayout.to_string(),
            "chain layout has no cells"
        );
        let text = BuildPlanError::MisrTooNarrow {
            misr_degree: 8,
            chains: 12,
        }
        .to_string();
        assert!(text.contains('8') && text.contains("12"), "{text}");
        let text = BuildPlanError::TooManyGroups {
            groups: 8,
            cells: 4,
        }
        .to_string();
        assert!(
            text.contains("8 groups") && text.contains("4 cells"),
            "{text}"
        );
    }

    #[test]
    fn diagnose_errors_display_and_are_std_errors() {
        let all = DiagnoseError::AllSessionsPassed;
        assert!(all.to_string().contains("passed"));
        let contra = DiagnoseError::ContradictoryHistory { partition: 3 };
        assert!(contra.to_string().contains("partition 3"), "{contra}");
        let cancelled = DiagnoseError::Cancelled {
            completed_partitions: 2,
        };
        assert!(cancelled.to_string().contains("cancelled"), "{cancelled}");
        assert!(cancelled.to_string().contains('2'), "{cancelled}");
        // Both participate in the std error ecosystem.
        let boxed: Box<dyn Error> = Box::new(contra);
        assert!(boxed.source().is_none());
    }

    #[test]
    fn noise_config_error_displays_field_and_value() {
        let e = NoiseConfigError::InvalidRate {
            field: "flip_rate",
            value: 1.5,
        };
        let text = e.to_string();
        assert!(text.contains("flip_rate") && text.contains("1.5"), "{text}");
        let _: &dyn Error = &e;
    }
}
