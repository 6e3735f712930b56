//! The untraced repetition: the real scan path, timed only from outside.

use crate::sys;
use crate::verdict::Verdict;
use crate::workload::Inputs;
use stack_core::{
    AnalysisSession, CheckStats, CheckerConfig, ScanOutcome, ScanPipeline, ScanStore,
};
use stack_solver::DiskQueryStore;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The one configuration every workload runs: defaults, one checker thread
/// (and one file-level job), so every work counter repeats exactly.
fn config() -> CheckerConfig {
    CheckerConfig {
        threads: Some(1),
        ..CheckerConfig::default()
    }
}

/// The two persisted stores of a store-backed workload, filled once, plus
/// their bytes, so every repetition starts from the same files.
pub struct Stores {
    pub query_path: PathBuf,
    pub scan_path: PathBuf,
    query_image: Vec<u8>,
    scan_image: Vec<u8>,
}

/// Both stores, opened: the `--cache-file` and `--scan-cache` of a scan.
pub type Opened = (Arc<DiskQueryStore>, Arc<ScanStore>);

impl Stores {
    /// Fill both stores in the fresh directory `dir` with a cold scan of
    /// `prefill` and keep their saved bytes.
    pub fn fill(dir: &Path, prefill: &[stack_core::ScanTask]) -> io::Result<Stores> {
        std::fs::create_dir_all(dir)?;
        let mut stores = Stores {
            query_path: dir.join("query.store"),
            scan_path: dir.join("scan.store"),
            query_image: Vec::new(),
            scan_image: Vec::new(),
        };
        let (query, scan) = stores.open()?;
        ScanPipeline::new(&session(Some(&query)), 1)
            .with_scan_store(scan.clone())
            .run(prefill, &mut |_| {});
        query.save()?;
        scan.save()?;
        stores.query_image = std::fs::read(&stores.query_path)?;
        stores.scan_image = std::fs::read(&stores.scan_path)?;
        Ok(stores)
    }

    /// Put the filled files back byte for byte.
    pub fn restore(&self) -> io::Result<()> {
        std::fs::write(&self.query_path, &self.query_image)?;
        std::fs::write(&self.scan_path, &self.scan_image)
    }

    fn open(&self) -> io::Result<Opened> {
        Ok((
            Arc::new(DiskQueryStore::open(&self.query_path)?),
            Arc::new(ScanStore::open(&self.scan_path)?),
        ))
    }
}

/// A session on the disk query store `query`, or on a fresh in-memory one
/// (a scan without `--cache-file`).
pub fn session(query: Option<&Arc<DiskQueryStore>>) -> AnalysisSession {
    match query {
        Some(query) => AnalysisSession::with_store(config(), query.clone() as _),
        None => AnalysisSession::new(config()),
    }
}

/// One untraced repetition's measurements and outputs.
pub struct Rep {
    /// Session creation plus opening and loading the stores.
    pub setup: Duration,
    /// Session creation until both stores are saved.
    pub wall: Duration,
    pub peak_rss_mb: Option<f64>,
    pub stats: CheckStats,
    pub outcome: ScanOutcome,
    pub verdict: Verdict,
}

impl Rep {
    pub fn functions_per_s(&self) -> f64 {
        self.stats.functions as f64 / self.wall.as_secs_f64()
    }
}

/// Scan `inputs` once through `AnalysisSession` and `ScanPipeline::run`,
/// exactly as `stack scan --jobs 1 --threads 1` does (with
/// `--cache-file`/`--scan-cache` when `stores` is given).
pub fn untraced(inputs: &Inputs, stores: Option<&Stores>) -> io::Result<Rep> {
    if let Some(stores) = stores {
        stores.restore()?;
    }
    let rss_reset = sys::reset_peak_rss();
    let start = Instant::now();
    let opened = stores.map(Stores::open).transpose()?;
    let session = session(opened.as_ref().map(|(query, _)| query));
    let setup = start.elapsed();
    let mut pipeline = ScanPipeline::new(&session, 1);
    if let Some((_, scan)) = &opened {
        pipeline = pipeline.with_scan_store(scan.clone());
    }
    let mut events = Vec::new();
    let outcome = pipeline.run(&inputs.tasks, &mut |event| events.push(event));
    if let Some((query, scan)) = &opened {
        query.save()?;
        scan.save()?;
    }
    let wall = start.elapsed();
    Ok(Rep {
        setup,
        wall,
        peak_rss_mb: if rss_reset { sys::peak_rss_mb() } else { None },
        stats: session.stats(),
        outcome,
        verdict: Verdict::of(inputs, &events),
    })
}
