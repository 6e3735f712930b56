//! The front-end pin behind file records.
//!
//! A scan-store file record maps a file's *bytes* to its functions' replay
//! keys, which is sound only while the front end (`stack-minic` and
//! `stack-opt`) turns equal bytes into equal functions. The file key mixes
//! in `FRONTEND_REVISION` for that; this test notices when the front end's
//! output moves without it. It compiles and optimizes the CI archive and
//! every pattern idiom, folds each function's structural digest and origin
//! signature in order, and compares the fold with a checked-in constant. It
//! also serves as the IR-identity check of a front-end refactor that must
//! not change its output.

use stack_repro::core::{function_digest, origin_signature, FRONTEND_REVISION};
use stack_repro::corpus::{all_patterns, generate_archive, ArchiveConfig};
use stack_repro::solver::mix;

/// The fold of every pinned function's digest and origin signature.
const FRONTEND_PIN: u128 = 0x10b9_2579_f927_b2c7_c580_af11_f38a_be4f;

/// The pinned inputs, as (file name, source): the CI archive's files and
/// every pattern idiom.
fn pinned_inputs() -> Vec<(String, String)> {
    let archive = generate_archive(&ArchiveConfig {
        packages: 8,
        ..ArchiveConfig::default()
    });
    archive
        .into_iter()
        .map(|f| (f.name, f.source))
        .chain(
            all_patterns()
                .into_iter()
                .map(|p| (format!("{}.c", p.id), p.source.to_string())),
        )
        .collect()
}

/// Compile, optimize and fold every function of every input, in order.
fn frontend_fold() -> (u128, usize) {
    let (mut fold, mut functions) = (0u128, 0);
    for (name, source) in pinned_inputs() {
        let mut module = stack_repro::minic::compile(&source, &name)
            .unwrap_or_else(|e| panic!("{name} must compile: {e}"));
        stack_repro::opt::optimize_for_analysis(&mut module);
        for func in module.functions() {
            fold = mix(mix(fold, function_digest(func)), origin_signature(func));
            functions += 1;
        }
    }
    (fold, functions)
}

#[test]
fn frontend_output_is_pinned() {
    let (fold, functions) = frontend_fold();
    assert!(functions > 80, "the pin must cover the archive and idioms");
    assert_eq!(
        fold, FRONTEND_PIN,
        "the front end's output changed ({functions} functions fold to {fold:#x}). If that \
         is intended, bump FRONTEND_REVISION (now {FRONTEND_REVISION}) so scan stores stop \
         trusting file records written by the old front end, and set FRONTEND_PIN to {fold:#x}"
    );
}

/// A file cut anywhere, as an editor may save it, compiles or is diagnosed:
/// the front end never panics on it.
#[test]
fn every_prefix_compiles_or_is_diagnosed() {
    let (mut prefixes, mut panics) = (0, Vec::new());
    for (name, source) in pinned_inputs() {
        let cuts = source.char_indices().map(|(cut, _)| cut);
        for cut in cuts.chain([source.len()]) {
            prefixes += 1;
            let prefix = &source[..cut];
            if std::panic::catch_unwind(|| stack_repro::minic::compile(prefix, &name)).is_err() {
                panics.push(format!("{name} cut at byte {cut}"));
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{} of {prefixes} prefixes panic: {panics:?}",
        panics.len()
    );
}
