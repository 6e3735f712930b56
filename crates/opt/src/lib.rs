//! `stack-opt` — IR optimization passes and compiler profiles.
//!
//! This crate plays two roles in the reproduction of the STACK paper
//! (Wang et al., SOSP 2013):
//!
//! 1. **Substrate for the checker.** The frontend lowers every local to a
//!    stack slot; [`mem2reg`] promotes them to SSA, and [`simplify`],
//!    [`simplifycfg`], and [`dce`] provide the ordinary, UB-agnostic cleanup
//!    that corresponds to optimizations legal under the paper's C* dialect.
//!
//! 2. **The compilers being studied.** [`ub_rewrites`] implements the
//!    UB-exploiting optimizations surveyed in §2 (null-check elimination,
//!    pointer/signed overflow folding, shift and `abs` reasoning, value-range
//!    propagation), and [`profile`] encodes which of the paper's 16 surveyed
//!    compiler versions performs which rewrite at which `-O` level. Running
//!    [`pipeline::run_profile`] therefore reproduces Figure 4 by actually
//!    optimizing the example programs, not by reading back a table.

pub mod dce;
pub mod mem2reg;
pub mod pipeline;
pub mod profile;
mod replace;
pub mod simplify;
pub mod simplifycfg;
pub mod ub_rewrites;

pub use pipeline::{
    lowest_discarding_level, optimize_for_analysis, optimize_with_rewrites, run_profile,
    PipelineStats,
};
pub use profile::{
    most_aggressive, survey_compilers, with_fno_delete_null_pointer_checks,
    with_fno_strict_overflow, with_fwrapv, CompilerProfile,
};
pub use ub_rewrites::{OptEvent, UbRewrite};
