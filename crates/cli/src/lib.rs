//! Library backing the `scanbist` command-line tool.
//!
//! Command execution is separated from `main` so it can be tested
//! directly: [`run`] takes parsed arguments and a writer, returns a
//! process exit code, and never panics on user errors.

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::must_use_candidate, clippy::cast_precision_loss)]

pub mod args;
mod commands;
pub mod json;

pub use args::{help, parse_args, parse_invocation, Command, Invocation, ParseArgsError};
pub use commands::{run, run_invocation};
