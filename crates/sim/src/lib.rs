//! Bit-parallel gate-level logic and stuck-at fault simulation for
//! full-scan circuits.
//!
//! This crate is the simulation substrate of the scan-BIST diagnosis
//! workspace:
//!
//! * [`PatternSet`] — bit-packed full-scan stimuli (64 patterns/word),
//!   buildable from any serial bit stream (e.g. an LFSR PRPG);
//! * [`Simulator`] — levelized bit-parallel evaluation with optional
//!   stuck-at fault injection (stem or fanout-branch pin);
//! * [`Fault`] / [`FaultUniverse`] — stuck-at fault enumeration with
//!   classical equivalence collapsing;
//! * [`FaultSimulator`] — golden/faulty response computation and
//!   [`ErrorMap`] extraction over a
//!   [`ScanView`](scan_netlist::ScanView), plus reproducible sampling
//!   of detected faults (the paper's 500-fault campaigns);
//! * [`PpsfpSimulator`] — the 64-wide PPSFP campaign engine: cone-
//!   limited word sweeps, fault dropping, and single-pass sampling
//!   that keeps each detection's error map. It is the one production
//!   engine; [`FaultSimulator`] is its deliberately simple reference
//!   oracle (`tests/oracle_diff.rs` keeps the two bit-identical).
//!
//! # Examples
//!
//! ```
//! use scan_netlist::{bench, ScanView};
//! use scan_sim::{FaultSimulator, FaultUniverse, PatternSet};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let s27 = bench::s27();
//! let view = ScanView::natural(&s27, true);
//! let patterns = PatternSet::pseudo_random(4, 3, 128, 1);
//! let fsim = FaultSimulator::new(&s27, &view, &patterns)?;
//!
//! let universe = FaultUniverse::collapsed(&s27);
//! let detected = universe
//!     .faults()
//!     .iter()
//!     .filter(|f| fsim.is_detected(f))
//!     .count();
//! assert!(detected > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::must_use_candidate, clippy::module_name_repetitions)]
#![allow(clippy::cast_possible_truncation)]

pub mod chain_fault;
mod error;
mod fault;
mod fault_sim;
mod pattern;
mod ppsfp;
mod response;
mod sequential;
mod simulator;

pub use chain_fault::{locate_chain_fault, simulate_chain_fault, ChainFault};
pub use error::PatternShapeError;
pub use fault::{site_has_fanout, Fault, FaultSite, FaultUniverse};
pub use fault_sim::FaultSimulator;
pub use ppsfp::PpsfpSimulator;
pub use sequential::SequentialSimulator;
pub use pattern::PatternSet;
pub use response::{ErrorMap, ResponseMap};
pub use simulator::Simulator;
