//! The front-end pin behind file records.
//!
//! A scan-store file record maps a file's *bytes* to its functions' replay
//! keys, which is sound only while the front end (`stack-minic` and
//! `stack-opt`) turns equal bytes into equal functions. The file key mixes
//! in `FRONTEND_REVISION` for that; this test notices when the front end's
//! output moves without it. It compiles and optimizes the CI archive and
//! every pattern idiom, folds each function's structural digest and origin
//! signature in order, and compares the fold with a checked-in constant. A
//! second, wider pin does the same for the benchmark corpora, the paper's
//! corpora and the UB-exploiting rewrite path. Both also serve as the
//! IR-identity check of a front-end refactor that must not change its
//! output.

use stack_repro::core::{function_digest, origin_signature, FRONTEND_REVISION};
use stack_repro::corpus::{
    all_patterns, churn_functions_count, completeness_benchmark, figure9_corpus, generate_archive,
    table1_idioms, ArchiveConfig, SynthConfig,
};
use stack_repro::ir::Module;
use stack_repro::opt::{optimize_for_analysis, run_profile, survey_compilers, CompilerProfile};
use stack_repro::solver::{mix, mix_bytes};

/// The fold of every pinned function's digest and origin signature.
const FRONTEND_PIN: u128 = 0x10b9_2579_f927_b2c7_c580_af11_f38a_be4f;

/// The fold of [`frontend_output_is_pinned_wide`]'s inputs.
const FRONTEND_PIN_WIDE: u128 = 0xc68e_2894_6ffd_48b7_bde9_4eac_4cf7_6434;

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

/// Compile a pinned input; every one must compile.
fn compile(name: &str, source: &str) -> Module {
    stack_repro::minic::compile(source, name).unwrap_or_else(|e| panic!("{name} must compile: {e}"))
}

/// Fold every function of a module, in order, into `fold`.
fn fold_module(fold: u128, module: &Module) -> u128 {
    module.functions().iter().fold(fold, |h, func| {
        mix(mix(h, function_digest(func)), origin_signature(func))
    })
}

/// Compile, optimize and fold every function of every input, in order.
fn frontend_fold() -> (u128, usize) {
    let (mut fold, mut functions) = (0u128, 0);
    for (name, source) in pinned_inputs() {
        let mut module = compile(&name, &source);
        optimize_for_analysis(&mut module);
        fold = fold_module(fold, &module);
        functions += module.len();
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

/// Hand-written functions that make the analysis pre-pass fold a branch,
/// collapse a phi, delete a dead instruction, promote a loop counter, and
/// merge two variables in one block.
const CLEANUP_INPUTS: &[(&str, &str)] = &[
    (
        "fold.c",
        "int constant_branch(int x) { if (1 > 0) return x; return 0; }\n\
         int collapsed_phi(int x) { int r = 0; if (0) r = 1; return r + x; }\n\
         int dead_product(int x) { int y = x * 3; return x; }\n",
    ),
    (
        "merge.c",
        "int sum(int n) { int i = 0; int s = 0; while (i < n) { s = s + i; i = i + 1; } return s; }\n\
         int pair(int x) { int a = 0; int b = 0; if (x > 0) { a = 1; b = 2; } else { a = 3; b = 4; } \
         return a + b; }\n",
    ),
];

/// The wider pin's inputs through the analysis pre-pass, as (file name,
/// source): novel-cold's archive, edit-tail's input, the default synthetic
/// population, the Figure 9 corpus, the Table 1 idioms, the completeness
/// benchmark and [`CLEANUP_INPUTS`].
fn wide_inputs() -> Vec<(String, String)> {
    let novel = generate_archive(&ArchiveConfig {
        packages: 100,
        variants: 4096,
        seed: 41,
        ..ArchiveConfig::default()
    });
    let tail_base = generate_archive(&ArchiveConfig {
        packages: 48,
        seed: 41,
        ..ArchiveConfig::default()
    });
    let tail = churn_functions_count(&tail_base, 41, 12).files;
    let synth = stack_repro::corpus::generate(&SynthConfig::default());
    novel
        .into_iter()
        .chain(tail)
        .map(|f| (f.name, f.source))
        .chain(
            synth
                .into_iter()
                .flat_map(|p| p.files)
                .map(|f| (f.name, f.source)),
        )
        .chain(figure9_corpus().into_iter().map(|b| (b.file, b.source)))
        .chain(
            table1_idioms()
                .into_iter()
                .map(|i| (format!("{}.c", i.id), i.source.to_string())),
        )
        .chain(completeness_benchmark().into_iter().map(|t| {
            let p = t.pattern;
            (format!("{}.c", p.id), p.source.to_string())
        }))
        .chain(
            CLEANUP_INPUTS
                .iter()
                .map(|(name, source)| (name.to_string(), source.to_string())),
        )
        .collect()
}

/// The wider pin: [`wide_inputs`] through the analysis pre-pass, then every
/// pattern idiom through each surveyed compiler at each level (the
/// UB-exploiting rewrites), folding the optimized functions and every
/// rewrite event.
#[test]
fn frontend_output_is_pinned_wide() {
    let (mut fold, mut functions) = (0u128, 0);
    let (mut folded, mut removed) = (0, 0);
    for (name, source) in wide_inputs() {
        let mut module = compile(&name, &source);
        let stats = optimize_for_analysis(&mut module);
        (folded, removed) = (
            folded + stats.folded_branches,
            removed + stats.removed_insts,
        );
        fold = fold_module(fold, &module);
        functions += module.len();
    }
    assert!(
        folded > 0 && removed > 0,
        "the pin must fold a branch and remove an instruction"
    );
    for profile in survey_compilers() {
        for level in 0..=CompilerProfile::MAX_LEVEL {
            for pattern in all_patterns() {
                let mut module = compile(pattern.id, pattern.source);
                for event in run_profile(&mut module, &profile, level) {
                    fold = mix(fold, u128::from(event.origin.loc.line));
                    fold = mix_bytes(
                        mix_bytes(fold, event.rewrite.name().as_bytes()),
                        event.description.as_bytes(),
                    );
                }
                fold = fold_module(fold, &module);
                functions += module.len();
            }
        }
    }
    assert_eq!(
        fold, FRONTEND_PIN_WIDE,
        "the front end's output changed ({functions} functions fold to {fold:#x}). If that \
         is intended, bump FRONTEND_REVISION (now {FRONTEND_REVISION}) and set \
         FRONTEND_PIN_WIDE to {fold:#x}"
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
