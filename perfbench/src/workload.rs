//! The four archive workloads: what each scans, and the ground truth its
//! verdicts are checked against. Every input is a pure function of the
//! workload and the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stack_core::{ScanSource, ScanTask};
use stack_corpus::{
    churn_archive, churn_functions_count, generate_archive, ArchiveConfig, ArchiveFile,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold scan where nearly every unstable idiom is a new query shape.
    NovelCold,
    /// Cold scan of the default idiom pool: the query store answers almost
    /// everything.
    SharedCold,
    /// Re-scan of a 5%-churned archive against filled stores.
    AppendRescan,
    /// Cold scan after a few in-place function edits: the hard-query tail.
    EditTail,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "novel-cold" => Some(Workload::NovelCold),
            "shared-cold" => Some(Workload::SharedCold),
            "append-rescan" => Some(Workload::AppendRescan),
            "edit-tail" => Some(Workload::EditTail),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::NovelCold => "novel-cold",
            Workload::SharedCold => "shared-cold",
            Workload::AppendRescan => "append-rescan",
            Workload::EditTail => "edit-tail",
        }
    }
}

/// Archive seed of the novel-cold and edit-tail content. Their cost is set
/// by a few multiplication guards whose constants the generator draws, and
/// that cost varies between seeds: over eight seeds, edit-tail's checking
/// time ranged tenfold, and over five seeds novel-cold's propagations varied
/// by a quarter even at twice its size. So their content is pinned to this seed (whose
/// edit-tail edits put three queries over the budget) and the run's seed
/// only shuffles the file order. The other workloads draw their content
/// from the run's seed: their work counters vary by under 2% between seeds.
const PINNED_CONTENT_SEED: u64 = 41;
/// Archive size of the novel-cold workload (10 functions per package).
const NOVEL_PACKAGES: usize = 100;
/// Constant variants per unstable template in novel-cold: far more than
/// the archive instantiates, so nearly every unstable idiom is new.
const NOVEL_VARIANTS: usize = 4096;
/// Archive size of the append-rescan and shared-cold workloads.
const LARGE_ARCHIVE_PACKAGES: usize = 1200;
/// Share of append-rescan files that gain one function between scans.
const APPEND_CHURN: f64 = 0.05;
/// Archive size of the edit-tail workload.
const TAIL_PACKAGES: usize = 48;
/// In-place function edits of the edit-tail workload.
const TAIL_EDITS: usize = 12;

/// One workload's generated inputs.
pub struct Inputs {
    /// The files every repetition scans, as the pipeline's tasks.
    pub tasks: Vec<ScanTask>,
    /// Per task: the generator's count of unstable functions
    /// (`ArchiveFile::injected`), the reference for its verdict. `None` for
    /// a file with an in-place edit, which changes what a function means.
    pub expected: Vec<Option<usize>>,
    /// The archive whose cold scan fills the stores before the first
    /// repetition (store-backed workloads only).
    pub prefill: Option<Vec<ScanTask>>,
    /// (replayed, fresh) functions every repetition must show
    /// (store-backed workloads only).
    pub expect_split: Option<(usize, usize)>,
}

fn task(file: ArchiveFile) -> ScanTask {
    ScanTask {
        name: file.name,
        source: ScanSource::Inline(file.source),
    }
}

fn archive(packages: usize, variants: usize, seed: u64) -> Vec<ArchiveFile> {
    generate_archive(&ArchiveConfig {
        packages,
        variants,
        seed,
        ..ArchiveConfig::default()
    })
}

/// Fisher–Yates shuffle driven by `seed`.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn cold(files: Vec<ArchiveFile>) -> Inputs {
    Inputs {
        expected: files.iter().map(|f| Some(f.injected)).collect(),
        tasks: files.into_iter().map(task).collect(),
        prefill: None,
        expect_split: None,
    }
}

pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let default_variants = ArchiveConfig::default().variants;
    match workload {
        Workload::NovelCold => {
            let mut files = archive(NOVEL_PACKAGES, NOVEL_VARIANTS, PINNED_CONTENT_SEED);
            shuffle(&mut files, seed);
            cold(files)
        }
        Workload::SharedCold => cold(archive(LARGE_ARCHIVE_PACKAGES, default_variants, seed)),
        Workload::AppendRescan => {
            let base = archive(LARGE_ARCHIVE_PACKAGES, default_variants, seed);
            let churn = churn_archive(&base, seed, APPEND_CHURN);
            let base_functions = base.len() * ArchiveConfig::default().functions_per_file;
            let mut inputs = cold(churn.files);
            inputs.prefill = Some(base.into_iter().map(task).collect());
            inputs.expect_split = Some((base_functions, churn.semantic_edits));
            inputs
        }
        Workload::EditTail => {
            let base = archive(TAIL_PACKAGES, default_variants, PINNED_CONTENT_SEED);
            let churn = churn_functions_count(&base, PINNED_CONTENT_SEED, TAIL_EDITS);
            let mut files: Vec<(ArchiveFile, Option<usize>)> = churn
                .files
                .into_iter()
                .zip(&base)
                .map(|(after, before)| {
                    let expected = (after.source == before.source).then_some(after.injected);
                    (after, expected)
                })
                .collect();
            shuffle(&mut files, seed);
            let (files, expected): (Vec<ArchiveFile>, _) = files.into_iter().unzip();
            Inputs {
                tasks: files.into_iter().map(task).collect(),
                expected,
                prefill: None,
                expect_split: None,
            }
        }
    }
}
