//! # viz-bench — experiment harnesses
//!
//! Shared plumbing for the figure/table regeneration binaries (one binary
//! per table or figure of the paper; see DESIGN.md for the index).

#![warn(missing_docs)]

mod env;
mod opts;

pub use env::{Env, D_MAX, D_MIN, VIEW_ANGLE_DEG};
pub use opts::Opts;
