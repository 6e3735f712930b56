//! `stack-corpus` — unstable-code corpora for the STACK reproduction.
//!
//! The paper evaluates STACK on real systems (Figure 9), on six hand-picked
//! compiler-survey idioms (Figure 4 / §2.2), on a ten-test completeness
//! benchmark (§6.6), and on the whole Debian Wheezy archive (§6.5, Figures
//! 17–18). None of those code bases ship with this reproduction, so this
//! crate provides their stand-ins:
//!
//! * [`patterns`] — the paper's own examples, transcribed as mini-C programs
//!   (Figures 1, 2, 10–15; the §2.2 idioms; stable control programs; and the
//!   completeness benchmark);
//! * [`systems`] — one generated program per bug of Figure 9, with row and
//!   column totals matching the paper;
//! * [`synth`] — a seeded synthetic "Debian archive" whose population-level
//!   statistics are calibrated to §6.5;
//! * [`archive`] — an overlap-heavy archive population (a fixed idiom pool
//!   re-instantiated across packages) for the cross-run persistence
//!   workload: repeated scans of it exercise the disk-backed query store.

pub mod archive;
pub mod patterns;
pub mod synth;
pub mod systems;

/// Compile-check a generated population with a caller-supplied front end,
/// stopping at the first failure and rendering it as a `file: error`
/// string. The generators are seeded and deterministic, so a failure here
/// means a generator bug; drivers (`stack gen-archive`, this crate's own
/// tests) surface it as a clean user-facing error instead of panicking
/// mid-write. Returns how many files validated.
pub fn validate_sources<'a, E: std::fmt::Display>(
    files: impl IntoIterator<Item = (&'a str, &'a str)>,
    mut compile: impl FnMut(&'a str, &'a str) -> Result<(), E>,
) -> Result<usize, String> {
    let mut checked = 0;
    for (name, source) in files {
        compile(name, source).map_err(|e| format!("{name}: {e}"))?;
        checked += 1;
    }
    Ok(checked)
}

pub use archive::{
    churn_archive, churn_functions, churn_functions_count, duplicate_files, generate_archive,
    write_archive, ArchiveConfig, ArchiveFile, ChurnedArchive, FunctionChurn,
};
pub use patterns::{
    all_patterns, completeness_benchmark, CompletenessTest, Pattern, FIG10_POSTGRES_DIVISION,
    FIG11_STRCHR_NULL_CHECK, FIG12_FFMPEG_BOUNDS, FIG13_PLAN9_PDEC, FIG14_POSTGRES_TIMEBOMB,
    FIG15_REDUNDANT_NULL, FIG1_POINTER_OVERFLOW, FIG2_TUN_NULL_CHECK, SEC22_EXAMPLES,
    STABLE_CONTROLS,
};
pub use synth::{generate, SynthConfig, SynthFile, SynthPackage};
pub use systems::{
    bug_template, figure9_corpus, figure9_rows, table1_idioms, BugInstance, SystemIdiom, SystemRow,
    UB_COLUMNS,
};
