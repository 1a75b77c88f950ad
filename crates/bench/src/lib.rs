//! Shared experiment-harness utilities for the table/figure binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! DATE 2003 paper; this crate provides the common campaign
//! configuration and plain-text table rendering they share. See
//! `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md` for
//! recorded results.

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::must_use_candidate, clippy::cast_precision_loss)]

use scan_bist::Scheme;
use scan_diagnosis::CampaignSpec;

/// The schemes compared throughout the paper, in reporting order.
pub const PAPER_SCHEMES: [Scheme; 2] = [Scheme::RandomSelection, Scheme::TWO_STEP_DEFAULT];

/// Campaign spec for Table 1 (s953: 200 patterns, 4 groups/partition,
/// up to 8 partitions, 500 faults).
#[must_use]
pub fn table1_spec() -> CampaignSpec {
    CampaignSpec::new(200, 4, 8)
}

/// Campaign spec for Table 2 (six largest ISCAS-89: 128 patterns per
/// session, 16 groups, 8 partitions, 500 faults, degree-16 partition
/// LFSR).
#[must_use]
pub fn table2_spec() -> CampaignSpec {
    CampaignSpec::new(128, 16, 8)
}

/// Campaign spec for Table 3 (SOC 1 on a single meta chain: 32 groups,
/// 8 partitions).
#[must_use]
pub fn table3_spec() -> CampaignSpec {
    CampaignSpec::new(128, 32, 8)
}

/// Campaign spec for Table 4 (SOC 2 / d695 variant on 8 meta chains: 8
/// groups, 8 partitions).
#[must_use]
pub fn table4_spec() -> CampaignSpec {
    CampaignSpec::new(128, 8, 8)
}

/// Renders a plain-text table with a header row and aligned columns.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|&h| h.to_owned()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a DR value the way the paper's tables do.
#[must_use]
pub fn fmt_dr(dr: f64) -> String {
    format!("{dr:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let out = render_table(
            &["name", "dr"],
            &[
                vec!["s953".to_owned(), "0.5".to_owned()],
                vec!["s38584".to_owned(), "12.25".to_owned()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("s953"));
        // Columns aligned: "dr" column starts at the same offset.
        let col = lines[0].find("dr").unwrap();
        assert_eq!(&lines[3][col..col + 5], "12.25");
    }

    #[test]
    fn specs_match_paper_parameters() {
        assert_eq!(table1_spec().num_patterns, 200);
        assert_eq!(table1_spec().groups, 4);
        assert_eq!(table2_spec().num_patterns, 128);
        assert_eq!(table3_spec().groups, 32);
        assert_eq!(table4_spec().groups, 8);
        assert_eq!(table1_spec().num_faults, 500);
    }
}
