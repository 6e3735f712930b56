//! The file-parallel scan pipeline: the archive-scale driver above
//! [`AnalysisSession`].
//!
//! Files are the unit of parallel work. STACK checks each function on its
//! own (§4.4) and its deployment scans an archive of many small files
//! (§6.5), so `jobs` scoped worker threads draw file indices from a shared
//! atomic counter (dynamic self-scheduling: a worker that drew cheap files
//! steals the remaining work of slower ones), and each checks its module's
//! functions in order through the shared session.
//!
//! **Determinism.** Workers finish out of order, but results are emitted in
//! task order through a small reorder buffer: a finishing worker parks its
//! run, and whichever worker holds the turn emits every consecutive parked
//! run from the head. The buffer holds only the out-of-order window,
//! preserving the scan's bounded-memory property.
//!
//! Emitting in order is not enough on its own. A function's SAT instance
//! carries clauses from one query to the next, and which of its queries
//! reach it depends on what the shared query store answered, so under a
//! query budget *which* queries end `Unknown` depends on what the store
//! held when the function ran. The pipeline
//! therefore gives every task the store a `--jobs 1` scan would give it:
//!
//! * A task reads only *published* entries — those of tasks already
//!   emitted — plus its own pending inserts, in both the query store and
//!   the scan store. It records every query key and replay key it missed.
//! * At its turn to emit, the task is run again if any key it missed has
//!   been published since. Then its pending inserts are published, its
//!   statistics absorbed into the session, and its events handed to the
//!   sink.
//!
//! This is exact. A published entry always comes from an earlier task, so
//! a hit is a hit at `jobs` 1 too. A miss that is still a miss at emit time
//! is a miss at `jobs` 1 too, because every earlier task has published by
//! then. So a task that passes the check saw exactly what it would see at
//! `jobs` 1, and a re-run (all earlier tasks published) sees exactly that.
//! The event stream, every counter and both stores' contents are therefore
//! identical to a sequential scan's at any `jobs` width and any budget. At
//! `jobs` 1 every task starts after its predecessors are published, so
//! nothing runs twice; [`ScanOutcome::reruns`] counts the re-runs wider
//! scans pay.
//!
//! **Incremental re-scan.** With a [`ScanStore`] attached, every function
//! of a compiled module is keyed
//! ([`function_replay_key`]) before any solver work: a hit replays the
//! function's stored raw reports — path-rewritten to the scanning module's
//! name — without touching the solver and counts the function as skipped
//! ([`CheckStats::functions_skipped`]); a miss analyzes just that function
//! and, when its budget was never exhausted, records it for the next run.
//! An edited module therefore pays the solver only for its edited
//! functions; a module whose functions all replay additionally counts as
//! skipped ([`CheckStats::modules_skipped`]). The replay key is
//! path-independent, so identical vendored files across an archive share
//! one analysis (cross-path dedup). Replayed and fresh raw reports are
//! re-assembled in function order and run through the *module-level*
//! dedup/suppression filter, so the surviving stream is byte-identical to
//! a cold scan's by construction — the key guarantees the checker would
//! have produced identical raw reports under identical semantics, and the
//! filter sees the same assembled stream either way.
//!
//! Keying a function needs the file compiled and optimized, which is most
//! of a re-scan's cost when most files did not change. So before compiling,
//! a task looks up its **file record**: under the hash of the file's bytes
//! ([`file_replay_key`]), the replay keys its functions had when a scan
//! last compiled those bytes. When the record is there and the store still
//! holds every function record it names, the task replays them through the
//! same assembly and filter without compiling, optimizing or keying
//! anything, and counts the file in [`ScanOutcome::files_replayed`]. The
//! statistics equal those of a compile whose functions all replayed.
//! Otherwise the task compiles as above, and once every function has a
//! record (none was degraded) it stages the file record beside the
//! function records. A missed file key is re-checked at the task's turn to
//! emit like a missed replay key.
//!
//! **Panic containment.** Each task's compile-and-analyze body runs under
//! `catch_unwind`: a panic anywhere in the front end, the optimizer, or
//! the checker degrades that one module to a
//! [`ScanEvent::Failure`] carrying the panic payload — the scan, the
//! other workers, and the exit-code semantics continue as if the module
//! had failed to compile. A panicking module is never recorded in the
//! scan store (its staged function and file records are dropped), and
//! never persisted as a query answer (the unwound query never returned
//! one). Because failures are emitted through the same reorder buffer as
//! reports, a panicking module produces the identical event stream at
//! every `jobs` width.

use crate::checker::CheckStats;
use crate::fingerprint::{file_replay_key, function_replay_key, FunctionKey};
use crate::report::BugReport;
use crate::scanstore::{FunctionRecord, ScanStore};
use crate::session::{AnalysisSession, FunctionCheck};
use serde::Serialize;
use stack_solver::{CacheKey, CacheStats, QueryResult, QueryStore};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Where one scan task's source comes from. Paths are read only when their
/// turn comes, so one unreadable file fails that task, not the scan — and a
/// scan never holds the whole archive's text in memory.
#[derive(Clone, Debug)]
pub enum ScanSource {
    /// Read from disk when the task is picked up.
    Path(PathBuf),
    /// Source generated in-process (synthetic archives).
    Inline(String),
}

/// One unit of scan work.
#[derive(Clone, Debug)]
pub struct ScanTask {
    /// The module name reports will carry (usually the source path).
    pub name: String,
    /// Where the source text comes from.
    pub source: ScanSource,
}

/// One event of the (deterministically ordered) scan output stream.
#[derive(Debug)]
pub enum ScanEvent {
    /// A surviving report of the task named. Reports of task *i* are always
    /// emitted before any event of task *i + 1*.
    Report(BugReport),
    /// The named task failed to read or compile; the scan continues.
    Failure { name: String, error: String },
}

/// Aggregate outcome of one pipeline run (per-module statistics are merged
/// into the session as usual; this is the scan-level layer on top).
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanOutcome {
    /// Tasks attempted.
    pub files: usize,
    /// Tasks that failed to read or compile.
    pub failures: usize,
    /// Reports handed to the sink.
    pub reports: usize,
    /// Modules all of whose functions replayed from the scan store.
    pub modules_skipped: usize,
    /// Functions replayed from the scan store without solver work.
    pub functions_skipped: usize,
    /// Files replayed from their file records without being compiled.
    pub files_replayed: usize,
    /// Tasks analyzed a second time at their turn to emit, because an
    /// earlier task published a store entry they had missed. Always 0 at
    /// `jobs` 1.
    pub reruns: usize,
}

/// The summary of one scan: what `stack scan` prints and emits as `--json`,
/// and the row every `BENCH_checker.json` section reports.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct ScanSummary {
    pub files: usize,
    pub failures: usize,
    pub modules_skipped: usize,
    /// Functions replayed from the scan cache without solver work (the
    /// per-function incremental re-scan counter).
    pub functions_skipped: usize,
    /// Files replayed from the scan cache's file records without being
    /// compiled (the per-file incremental re-scan counter).
    pub files_replayed: usize,
    pub functions: usize,
    pub reports: usize,
    pub queries: u64,
    /// Degraded queries: budget-exhausted, answered `Unknown`, never
    /// cached or persisted.
    pub degraded_queries: u64,
    /// Modules with at least one degraded query — analyzed under the
    /// budget, never recorded in the scan cache.
    pub degraded_modules: usize,
    /// Total SAT-core propagations — the deterministic currency query
    /// budgets are denominated in.
    pub propagations: u64,
    /// Total SAT-core conflicts.
    pub conflicts: u64,
    /// Total SAT-core restarts.
    pub restarts: u64,
    /// Clauses learned by conflict analysis.
    pub learned_clauses: u64,
    /// Learned clauses evicted by clause-database reduction.
    pub deleted_clauses: u64,
    /// Average learn-time literal-block-distance ("glue") of learned
    /// clauses; 0 when nothing was learned.
    pub avg_lbd: f64,
    /// Queries answered Sat.
    pub sat_queries: u64,
    /// Queries answered Unsat.
    pub unsat_queries: u64,
    /// Queries answered Sat by simulation, without reaching the SAT core.
    pub simulated: u64,
    /// Assumption cores extracted from final conflicts.
    pub cores_recorded: u64,
    /// Average literal count of extracted assumption cores; 0 when none
    /// were recorded.
    pub avg_core_size: f64,
    /// `minimal_ub_set` queries skipped because the last extracted
    /// assumption core proved the candidate condition irrelevant.
    pub minimization_queries_saved: u64,
    /// SAT-core propagations spent on queries that ended Unsat.
    pub unsat_propagations: u64,
    /// Queries decided in the SAT core, on their function's persistent
    /// instance.
    pub incremental_queries: u64,
    /// Clause slots already loaded when those queries started, reused
    /// instead of re-blasted.
    pub reused_clauses: u64,
    pub store_hits: u64,
    pub store_misses: u64,
    pub store_hit_rate: f64,
    pub cache_file_loaded_entries: u64,
    pub scan_cache_loaded_entries: u64,
    pub jobs: usize,
    /// Tasks analyzed twice because an earlier task published a store
    /// entry they had missed (the cost of `--jobs` determinism; 0 at
    /// `--jobs 1`).
    pub rerun_tasks: usize,
    /// Which content-keyed shard this scan analyzed (1-based; `1` of `1`
    /// when unsharded).
    pub shard_index: usize,
    pub shard_count: usize,
    pub elapsed_ms: u64,
}

impl ScanSummary {
    /// Summarize one pipeline run from its outcome, the session's
    /// statistics after it, the width it ran at and its wall time. The
    /// loaded-entry counts start at 0 and the shard at 1 of 1: a caller
    /// that opened disk stores or sharded its input sets those.
    pub fn new(
        outcome: &ScanOutcome,
        stats: &CheckStats,
        jobs: usize,
        elapsed: Duration,
    ) -> ScanSummary {
        ScanSummary {
            files: outcome.files,
            failures: outcome.failures,
            modules_skipped: outcome.modules_skipped,
            functions_skipped: outcome.functions_skipped,
            files_replayed: outcome.files_replayed,
            functions: stats.functions,
            reports: outcome.reports,
            queries: stats.queries,
            degraded_queries: stats.timeouts,
            degraded_modules: stats.degraded_modules,
            propagations: stats.propagations,
            conflicts: stats.conflicts,
            restarts: stats.restarts,
            learned_clauses: stats.learned_clauses,
            deleted_clauses: stats.deleted_clauses,
            avg_lbd: stats.avg_lbd(),
            sat_queries: stats.sat_queries,
            unsat_queries: stats.unsat_queries,
            simulated: stats.simulated,
            cores_recorded: stats.cores_recorded,
            avg_core_size: stats.avg_core_size(),
            minimization_queries_saved: stats.minimization_queries_saved,
            unsat_propagations: stats.unsat_propagations,
            incremental_queries: stats.incremental_queries,
            reused_clauses: stats.reused_clauses,
            store_hits: stats.cache_hits,
            store_misses: stats.cache_misses,
            store_hit_rate: stats.cache_hit_rate(),
            cache_file_loaded_entries: 0,
            scan_cache_loaded_entries: 0,
            jobs,
            rerun_tasks: outcome.reruns,
            shard_index: 1,
            shard_count: 1,
            elapsed_ms: u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX),
        }
    }
}

/// The file-parallel scan driver. See the module docs for the pipeline
/// shape and the determinism contract.
pub struct ScanPipeline<'s> {
    session: &'s AnalysisSession,
    scan_store: Option<Arc<ScanStore>>,
    jobs: usize,
    /// Fault injection: panic while analyzing any module whose name
    /// contains this fragment (tests of the containment boundary).
    panic_on: Option<String>,
}

/// What one task produced: a module's surviving reports and statistics, or
/// the error it failed with.
type TaskResult = Result<(Vec<BugReport>, CheckStats), String>;

/// One attempt at one task, parked until its turn to emit.
struct TaskRun {
    result: TaskResult,
    staged: Staged,
}

/// What one attempt read from and would write to the shared stores.
struct Staged {
    /// The task's query-store view: its pending inserts and missed keys.
    queries: Arc<TaskQueries>,
    /// Scan-store function records to publish.
    records: Vec<(FunctionKey, FunctionRecord)>,
    /// The scan-store file record to publish: the file key and its
    /// functions' replay keys, staged once every function has a record.
    file_record: Option<(FunctionKey, Box<[FunctionKey]>)>,
    /// Replay keys and file keys the scan store missed.
    missed_replays: Vec<FunctionKey>,
    /// Whether the attempt replayed its file from a file record, without
    /// compiling it.
    replayed_file: bool,
}

impl Staged {
    /// Whether an entry this attempt missed has been published since: then
    /// it did not see what a `jobs` 1 scan would have, and must run again.
    fn is_stale(&self, scan_store: Option<&ScanStore>) -> bool {
        let missed = lock(&self.queries.missed);
        missed
            .iter()
            .any(|key| self.queries.published.contains(key))
            || scan_store
                .is_some_and(|store| self.missed_replays.iter().any(|&key| store.contains(key)))
    }

    /// Move the attempt's pending inserts into the shared stores.
    fn publish(&mut self, scan_store: Option<&ScanStore>) {
        for (key, result) in lock(&self.queries.pending).drain() {
            self.queries.published.insert(key, &result);
        }
        if let Some(store) = scan_store {
            for (key, record) in self.records.drain(..) {
                store.insert(key, record);
            }
            if let Some((key, keys)) = self.file_record.take() {
                store.insert_file(key, keys);
            }
        }
    }
}

/// A task's view of the session's query store. Lookups see the entries
/// already published (by tasks emitted before) plus this task's own
/// inserts, which stay pending until the task's turn to emit; every key
/// that missed is recorded, so the emitter can tell whether the task saw
/// what a `jobs` 1 scan would have. (The shared store's own hit counter
/// never sees the hits answered from the pending inserts; the solver's
/// `cache_hits`, which the scan reports, counts them all.)
#[derive(Debug)]
struct TaskQueries {
    published: Arc<dyn QueryStore>,
    pending: Mutex<HashMap<CacheKey, QueryResult>>,
    missed: Mutex<Vec<CacheKey>>,
}

impl QueryStore for TaskQueries {
    fn lookup(&self, key: &CacheKey) -> Option<QueryResult> {
        if let Some(result) = lock(&self.pending).get(key) {
            return Some(result.clone());
        }
        let found = self.published.lookup(key);
        if found.is_none() {
            lock(&self.missed).push(key.clone());
        }
        found
    }

    fn insert(&self, key: CacheKey, result: &QueryResult) {
        if !result.is_unknown() {
            lock(&self.pending).insert(key, result.clone());
        }
    }

    fn contains(&self, key: &CacheKey) -> bool {
        lock(&self.pending).contains_key(key) || self.published.contains(key)
    }

    fn stats(&self) -> CacheStats {
        self.published.stats()
    }
}

impl<'s> ScanPipeline<'s> {
    /// A pipeline over `session` with `jobs` file-level workers (clamped to
    /// at least 1).
    pub fn new(session: &'s AnalysisSession, jobs: usize) -> ScanPipeline<'s> {
        ScanPipeline {
            session,
            scan_store: None,
            jobs: jobs.max(1),
            panic_on: None,
        }
    }

    /// Attach a persisted report cache: function replay-key hits replay
    /// their recorded reports instead of re-analyzing, misses are recorded.
    pub fn with_scan_store(mut self, store: Arc<ScanStore>) -> ScanPipeline<'s> {
        self.scan_store = Some(store);
        self
    }

    /// Arm fault injection for this pipeline: analyzing any module whose
    /// name contains `fragment` panics on purpose, inside the containment
    /// boundary, exercising it. The one injection path: `stack scan` arms
    /// it from the [`faultinject::PANIC_ENV`](crate::faultinject::PANIC_ENV)
    /// variable, and tests call it directly. Scoped to this pipeline, so
    /// concurrent tests never interfere.
    pub fn with_injected_panic(mut self, fragment: impl Into<String>) -> ScanPipeline<'s> {
        self.panic_on = Some(fragment.into());
        self
    }

    /// Run the pipeline over `tasks`, handing every event to `sink` in task
    /// order. `sink` must be `Send` because out-of-order workers take turns
    /// emitting; it is never called concurrently.
    pub fn run(&self, tasks: &[ScanTask], sink: &mut (dyn FnMut(ScanEvent) + Send)) -> ScanOutcome {
        let reorder = Mutex::new(Reorder {
            next: 0,
            parked: HashMap::new(),
            emitting: false,
        });
        let emitter = Mutex::new(Emitter {
            outcome: ScanOutcome {
                files: tasks.len(),
                ..ScanOutcome::default()
            },
            sink,
        });
        let next_task = AtomicUsize::new(0);
        let workers = self.jobs.min(tasks.len()).max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next_task.fetch_add(1, Ordering::Relaxed);
                    let Some(task) = tasks.get(i) else { break };
                    let run = self.run_task(task);
                    self.park(i, run, tasks, &reorder, &emitter);
                });
            }
        });
        debug_assert_eq!(reorder.into_inner().unwrap().next, tasks.len());
        emitter.into_inner().unwrap().outcome
    }

    /// Park task `index`'s run. Unless another worker holds the turn, take
    /// it and emit every consecutive parked run from the head. The reorder
    /// lock is released while a run is emitted, so the other workers keep
    /// analyzing and parking while a stale task runs again.
    fn park(
        &self,
        index: usize,
        run: TaskRun,
        tasks: &[ScanTask],
        reorder: &Mutex<Reorder>,
        emitter: &Mutex<Emitter<'_>>,
    ) {
        let mut state = lock(reorder);
        state.parked.insert(index, run);
        if state.emitting {
            return;
        }
        state.emitting = true;
        loop {
            let next = state.next;
            let Some(run) = state.parked.remove(&next) else {
                break;
            };
            drop(state);
            self.emit(&tasks[next], run, &mut lock(emitter));
            state = lock(reorder);
            state.next += 1;
        }
        state.emitting = false;
    }

    /// Emit one task, in task order: run it again if it missed an entry
    /// published since, then publish its pending store inserts, absorb its
    /// statistics and hand its events to the sink.
    fn emit(&self, task: &ScanTask, mut run: TaskRun, out: &mut Emitter<'_>) {
        let scan_store = self.scan_store.as_deref();
        if run.staged.is_stale(scan_store) {
            run = self.run_task(task);
            out.outcome.reruns += 1;
        }
        run.staged.publish(scan_store);
        match run.result {
            Ok((reports, stats)) => {
                self.session.absorb_stats(&stats);
                out.outcome.modules_skipped += stats.modules_skipped;
                out.outcome.functions_skipped += stats.functions_skipped;
                out.outcome.files_replayed += usize::from(run.staged.replayed_file);
                out.outcome.reports += reports.len();
                for report in reports {
                    (out.sink)(ScanEvent::Report(report));
                }
            }
            Err(error) => {
                out.outcome.failures += 1;
                (out.sink)(ScanEvent::Failure {
                    name: task.name.clone(),
                    error,
                });
            }
        }
    }

    /// Process one task end to end: load, compile, key, replay or
    /// analyze. Everything past the source read runs under
    /// `catch_unwind`, so a panic anywhere in the stack degrades the task
    /// to a failure instead of aborting the scan.
    fn run_task(&self, task: &ScanTask) -> TaskRun {
        let mut staged = Staged {
            queries: Arc::new(TaskQueries {
                published: Arc::clone(self.session.store()),
                pending: Mutex::new(HashMap::new()),
                missed: Mutex::new(Vec::new()),
            }),
            records: Vec::new(),
            file_record: None,
            missed_replays: Vec::new(),
            replayed_file: false,
        };
        let read;
        let source: &str = match &task.source {
            ScanSource::Inline(source) => source,
            ScanSource::Path(path) => match std::fs::read_to_string(path) {
                Ok(text) => {
                    read = text;
                    &read
                }
                Err(e) => {
                    let result = Err(format!("cannot read: {e}"));
                    return TaskRun { result, staged };
                }
            },
        };
        // AssertUnwindSafe: the shared state the closure touches (session
        // aggregate, caches, scan store) guards every structure behind
        // mutexes whose contents stay structurally valid at any unwind
        // point, and their locks recover from poisoning.
        let result = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.analyze_task(source, &task.name, &mut staged)
        })) {
            Ok(result) => result,
            Err(payload) => {
                // A panicking module is never recorded. Its completed
                // queries were decided, so they publish as at `jobs` 1.
                staged.records.clear();
                staged.file_record = None;
                Err(format!("panic: {}", panic_message(payload.as_ref())))
            }
        };
        TaskRun { result, staged }
    }

    /// The panic-containable body of one task: replay the file from its
    /// file record, or compile it, key every function, replay hits, analyze
    /// misses and stage clean results for the scan store; then re-assemble
    /// and filter the module's report stream.
    fn analyze_task(&self, source: &str, name: &str, staged: &mut Staged) -> TaskResult {
        if let Some(fragment) = &self.panic_on {
            if name.contains(fragment.as_str()) {
                panic!("injected fault: panic while analyzing {name}");
            }
        }
        let config = self.session.config();
        let file_key = self
            .scan_store
            .as_ref()
            .map(|store| (store, file_replay_key(source.as_bytes(), config)));
        if let Some((store, file_key)) = file_key {
            match store.lookup_file(file_key) {
                // Equal bytes compile to equal functions, so the recorded
                // keys are the ones compiling would compute.
                Some(keys) if keys.iter().all(|&key| store.contains(key)) => {
                    let replayed = keys.iter().map(|&key| store.lookup(key)).collect();
                    let result = self.assemble(name, replayed, Vec::new(), CheckStats::default());
                    staged.replayed_file = true;
                    return Ok(result);
                }
                // Some of its function records were pruned or salvaged
                // away: compile, and replay what is left.
                Some(_) => {}
                None => staged.missed_replays.push(file_key),
            }
        }
        let mut module = match stack_minic::compile(source, name) {
            Ok(module) => module,
            Err(e) => return Err(e.to_string()),
        };
        stack_opt::optimize_for_analysis(&mut module);

        let (keys, replayed): (Vec<FunctionKey>, Vec<Option<FunctionRecord>>) = match file_key {
            Some((store, _)) => {
                let keys: Vec<FunctionKey> = module
                    .functions()
                    .iter()
                    .map(|f| function_replay_key(f, config))
                    .collect();
                let replayed = keys
                    .iter()
                    .map(|&key| {
                        let found = store.lookup(key);
                        if found.is_none() {
                            staged.missed_replays.push(key);
                        }
                        found
                    })
                    .collect();
                (keys, replayed)
            }
            None => (Vec::new(), vec![None; module.len()]),
        };
        let select: Vec<bool> = replayed.iter().map(Option::is_none).collect();

        let queries: Arc<dyn QueryStore> = staged.queries.clone();
        let (checks, stats) = if select.contains(&true) {
            self.session
                .check_functions_with(&module, &select, &queries)
        } else {
            (Vec::new(), CheckStats::default())
        };
        // A function with budget-exhausted (degraded) queries is never
        // recorded: its report set reflects the budget, not the function,
        // and a later run with a higher budget must re-analyze it. Its
        // healthy siblings still record and will replay next run. The file
        // record is staged only when every function has a record.
        if let Some((_, file_key)) = file_key {
            for check in checks.iter().filter(|c| c.timeouts == 0) {
                staged.records.push((
                    keys[check.index],
                    FunctionRecord::normalized(&check.reports, name),
                ));
            }
            if checks.iter().all(|c| c.timeouts == 0) {
                staged.file_record = Some((file_key, keys.into_boxed_slice()));
            }
        }
        Ok(self.assemble(name, replayed, checks, stats))
    }

    /// Re-assemble a module's raw report stream in function order —
    /// replays (`Some` slots of `replayed`) path-rewritten to this module's
    /// name, fresh analyses from `checks` — and apply the module-level
    /// dedup/suppression filter exactly as a cold analysis would. `stats`
    /// are the fresh analyses'; the module and replay counts are added.
    fn assemble(
        &self,
        name: &str,
        replayed: Vec<Option<FunctionRecord>>,
        checks: Vec<FunctionCheck>,
        mut stats: CheckStats,
    ) -> (Vec<BugReport>, CheckStats) {
        let skipped = replayed.iter().filter(|r| r.is_some()).count();
        let functions = replayed.len();
        let mut fresh: HashMap<usize, Vec<BugReport>> =
            checks.into_iter().map(|c| (c.index, c.reports)).collect();
        let raw: Vec<BugReport> = replayed
            .into_iter()
            .enumerate()
            .flat_map(|(i, slot)| match slot {
                Some(record) => record.replay(name),
                None => fresh.remove(&i).unwrap_or_default(),
            })
            .collect();
        let reports = self.session.filter_module_reports(raw);

        stats.modules = 1;
        stats.modules_skipped = usize::from(skipped == functions && functions > 0);
        stats.functions += skipped;
        stats.functions_skipped = skipped;
        (reports, stats)
    }
}

/// Lock a pipeline mutex, recovering from poisoning: every structure
/// behind one stays valid at any unwind point.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Render a caught panic payload: `panic!` carries a `String` or `&str`
/// in practice; anything else gets a stable placeholder (payload types
/// must not leak nondeterminism into the event stream).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<opaque panic payload>")
}

/// The reorder buffer: workers park finished runs under their task index,
/// and the worker holding the turn (`emitting`) emits the consecutive
/// parked prefix, so the sink sees events in task order no matter which
/// worker finished first.
struct Reorder {
    next: usize,
    parked: HashMap<usize, TaskRun>,
    emitting: bool,
}

/// What only the worker holding the turn touches.
struct Emitter<'a> {
    outcome: ScanOutcome,
    sink: &'a mut (dyn FnMut(ScanEvent) + Send),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::CheckerConfig;
    use std::sync::atomic::AtomicU64;

    fn temp_path(tag: &str) -> PathBuf {
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "stack-scan-pipeline-{tag}-{}-{}.ss",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// A small mixed task list: unstable, stable, and broken modules.
    /// Every compiling module has 2 functions.
    fn tasks() -> Vec<ScanTask> {
        let mut out = Vec::new();
        for i in 0..6 {
            out.push(ScanTask {
                name: format!("mod{i}.c"),
                source: ScanSource::Inline(format!(
                    "int f{i}(int x) {{ if (x + {} < x) return 1; return 0; }}\n\
                     int g{i}(int a, int b) {{ if (b == 0) return -1; return a / b; }}\n",
                    i + 1
                )),
            });
        }
        out.push(ScanTask {
            name: "broken.c".to_string(),
            source: ScanSource::Inline("int (((".to_string()),
        });
        out
    }

    fn events_to_strings(
        session: &AnalysisSession,
        jobs: usize,
        tasks: &[ScanTask],
    ) -> Vec<String> {
        let mut events = Vec::new();
        ScanPipeline::new(session, jobs).run(tasks, &mut |e| events.push(format!("{e:?}")));
        events
    }

    #[test]
    fn parallel_jobs_emit_the_sequential_event_stream() {
        let tasks = tasks();
        let sequential = events_to_strings(&AnalysisSession::default(), 1, &tasks);
        assert!(sequential.iter().any(|e| e.starts_with("Report")));
        assert!(sequential.iter().any(|e| e.starts_with("Failure")));
        for jobs in [2, 4, 8] {
            let parallel = events_to_strings(&AnalysisSession::default(), jobs, &tasks);
            assert_eq!(sequential, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn rescan_with_scan_store_skips_every_module_and_replays_reports() {
        let path = temp_path("rescan");
        let tasks = tasks();
        let config = CheckerConfig::default();

        let store = Arc::new(ScanStore::open(&path).unwrap());
        let cold_session = AnalysisSession::new(config);
        let mut cold = Vec::new();
        let outcome = ScanPipeline::new(&cold_session, 2)
            .with_scan_store(store.clone())
            .run(&tasks, &mut |e| cold.push(format!("{e:?}")));
        assert_eq!(outcome.modules_skipped, 0);
        assert_eq!(outcome.functions_skipped, 0);
        assert_eq!(outcome.failures, 1);
        assert!(store.save().unwrap() > 0);

        let rescan_store = Arc::new(ScanStore::open(&path).unwrap());
        let warm_session = AnalysisSession::new(config);
        let mut warm = Vec::new();
        let outcome = ScanPipeline::new(&warm_session, 2)
            .with_scan_store(rescan_store)
            .run(&tasks, &mut |e| warm.push(format!("{e:?}")));
        assert_eq!(cold, warm, "replayed stream must be byte-identical");
        // Every compiling module is skipped, without being compiled; the
        // broken file (never recorded) still fails.
        assert_eq!(outcome.modules_skipped, tasks.len() - 1);
        assert_eq!(outcome.functions_skipped, 2 * (tasks.len() - 1));
        assert_eq!(outcome.files_replayed, tasks.len() - 1);
        assert_eq!(outcome.failures, 1);
        let stats = warm_session.stats();
        assert_eq!(stats.modules_skipped, tasks.len() - 1);
        assert_eq!(stats.functions_skipped, 2 * (tasks.len() - 1));
        assert_eq!(
            stats.queries, 0,
            "a full-skip re-scan never touches the solver"
        );
        assert_eq!(stats.functions, 2 * (tasks.len() - 1));
        assert!(warm.iter().any(|e| e.starts_with("Report")));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn changed_modules_miss_and_reanalyze() {
        let path = temp_path("changed");
        let config = CheckerConfig::default();
        let store = Arc::new(ScanStore::open(&path).unwrap());
        let before = vec![ScanTask {
            name: "m.c".to_string(),
            source: ScanSource::Inline(
                "int f(int x) { if (x + 1 < x) return 1; return 0; }\n".to_string(),
            ),
        }];
        let session = AnalysisSession::new(config);
        ScanPipeline::new(&session, 1)
            .with_scan_store(store.clone())
            .run(&before, &mut |_| {});
        store.save().unwrap();

        // A semantic edit (changed constant) must miss; a cosmetic one hits.
        let edited = |src: &str| {
            vec![ScanTask {
                name: "m.c".to_string(),
                source: ScanSource::Inline(src.to_string()),
            }]
        };
        let store2 = Arc::new(ScanStore::open(&path).unwrap());
        let session2 = AnalysisSession::new(config);
        let outcome = ScanPipeline::new(&session2, 1)
            .with_scan_store(store2.clone())
            .run(
                &edited("int f(int x) { if (x + 2 < x) return 1; return 0; }\n"),
                &mut |_| {},
            );
        assert_eq!(outcome.modules_skipped, 0);
        assert_eq!(outcome.functions_skipped, 0);
        let outcome = ScanPipeline::new(&session2, 1).with_scan_store(store2).run(
            &edited("int f(int x) {  /* note */ if (x + 1 < x) return 1; return 0; }\n"),
            &mut |_| {},
        );
        assert_eq!(outcome.modules_skipped, 1);
        assert_eq!(outcome.functions_skipped, 1);
        // New bytes: the file compiles, and its function replays.
        assert_eq!(outcome.files_replayed, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn edited_function_reanalyzes_while_siblings_replay() {
        let path = temp_path("partial");
        let config = CheckerConfig::default();
        let src = |k: u32| {
            format!(
                "int f(int x) {{ if (x + {k} < x) return 1; return 0; }}\n\
                 int g(int a, int b) {{ if (b == 0) return -1; return a / b; }}\n\
                 int h(int x) {{ return x; }}\n"
            )
        };
        let task = |source: String| {
            vec![ScanTask {
                name: "m.c".to_string(),
                source: ScanSource::Inline(source),
            }]
        };
        let store = Arc::new(ScanStore::open(&path).unwrap());
        let session = AnalysisSession::new(config);
        let mut cold = Vec::new();
        ScanPipeline::new(&session, 1)
            .with_scan_store(store.clone())
            .run(&task(src(1)), &mut |e| cold.push(format!("{e:?}")));
        store.save().unwrap();

        // Edit only f: g and h replay, f re-analyzes; the module is NOT
        // counted skipped, and the stream matches a cold scan of the
        // edited source.
        let cold_session = AnalysisSession::new(config);
        let mut reference = Vec::new();
        ScanPipeline::new(&cold_session, 1)
            .run(&task(src(2)), &mut |e| reference.push(format!("{e:?}")));
        let store2 = Arc::new(ScanStore::open(&path).unwrap());
        let warm_session = AnalysisSession::new(config);
        let mut warm = Vec::new();
        let outcome = ScanPipeline::new(&warm_session, 1)
            .with_scan_store(store2.clone())
            .run(&task(src(2)), &mut |e| warm.push(format!("{e:?}")));
        assert_eq!(reference, warm);
        assert_eq!(outcome.modules_skipped, 0);
        assert_eq!(outcome.functions_skipped, 2, "g and h replayed");
        let stats = warm_session.stats();
        assert_eq!(stats.functions, 3);
        assert_eq!(stats.functions_skipped, 2);
        assert!(
            stats.queries > 0 && stats.queries < cold_session.stats().queries,
            "only the edited function touched the solver: {} vs cold {}",
            stats.queries,
            cold_session.stats().queries
        );
        // The edited f was recorded: a further rescan is a full skip.
        store2.save().unwrap();
        let store3 = Arc::new(ScanStore::open(&path).unwrap());
        let session3 = AnalysisSession::new(config);
        let outcome = ScanPipeline::new(&session3, 1)
            .with_scan_store(store3)
            .run(&task(src(2)), &mut |_| {});
        assert_eq!(outcome.modules_skipped, 1);
        assert_eq!(outcome.functions_skipped, 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_files_share_one_analysis() {
        let path = temp_path("dedup");
        let config = CheckerConfig::default();
        let src = "int f(int x) { if (x + 7 < x) return 1; return 0; }\n";
        let single = vec![ScanTask {
            name: "a/vendored.c".to_string(),
            source: ScanSource::Inline(src.to_string()),
        }];
        let cold_session = AnalysisSession::new(config);
        ScanPipeline::new(&cold_session, 1).run(&single, &mut |_| {});
        let one_file_queries = cold_session.stats().queries;
        assert!(one_file_queries > 0);

        // Two copies under different paths, cold store, jobs 1: the second
        // copy replays the first's record — path-rewritten.
        let both = vec![
            single[0].clone(),
            ScanTask {
                name: "b/deep/copy.c".to_string(),
                source: ScanSource::Inline(src.to_string()),
            },
        ];
        let store = Arc::new(ScanStore::open(&path).unwrap());
        let session = AnalysisSession::new(config);
        let mut events = Vec::new();
        let outcome = ScanPipeline::new(&session, 1)
            .with_scan_store(store.clone())
            .run(&both, &mut |e| events.push(e));
        assert_eq!(
            session.stats().queries,
            one_file_queries,
            "the duplicate must not issue new queries"
        );
        assert_eq!(outcome.functions_skipped, 1);
        assert_eq!(outcome.modules_skipped, 1);
        assert_eq!(outcome.files_replayed, 1, "the copy is never compiled");
        assert_eq!(store.function_records(), 1, "one record serves both paths");
        assert_eq!(store.file_records(), 1, "and one file record");
        // Each copy's reports carry its own path.
        let files: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                ScanEvent::Report(r) => Some(r.file.as_str()),
                ScanEvent::Failure { .. } => None,
            })
            .collect();
        assert!(files.contains(&"a/vendored.c"), "{files:?}");
        assert!(files.contains(&"b/deep/copy.c"), "{files:?}");
        // The store was never saved to disk in this test; nothing to clean.
        assert!(!path.exists());
    }

    #[test]
    fn budget_degraded_function_is_not_recorded_but_siblings_are() {
        let path = temp_path("budget");
        // f is query-hungry (multiplication guards only the SAT core
        // decides), h is trivial; a tiny budget degrades f but leaves h
        // clean.
        let src = "int f(int x, int y) { int p = x * 3; if (p / 3 != x) return 1; \
                   int q = y * 5; if (q / 5 != y) return 2; return x / y; }\n\
                   int h(int x) { return x; }\n";
        let tasks = vec![ScanTask {
            name: "m.c".to_string(),
            source: ScanSource::Inline(src.to_string()),
        }];
        let config = CheckerConfig {
            query_budget: 1,
            ..CheckerConfig::default()
        };
        let store = Arc::new(ScanStore::open(&path).unwrap());
        let session = AnalysisSession::new(config);
        ScanPipeline::new(&session, 1)
            .with_scan_store(store.clone())
            .run(&tasks, &mut |_| {});
        assert!(session.stats().timeouts > 0, "budget must actually bite");
        assert_eq!(
            store.stats().entries,
            1,
            "only the clean sibling is recorded"
        );
        assert_eq!(
            store.file_records(),
            0,
            "a degraded file has no file record"
        );
        store.save().unwrap();

        // Rescan at the same budget: h replays, f re-analyzes (and again
        // fails to record).
        let store2 = Arc::new(ScanStore::open(&path).unwrap());
        let session2 = AnalysisSession::new(config);
        let outcome = ScanPipeline::new(&session2, 1)
            .with_scan_store(store2.clone())
            .run(&tasks, &mut |_| {});
        assert_eq!(outcome.functions_skipped, 1);
        assert_eq!(outcome.modules_skipped, 0);
        assert!(session2.stats().queries > 0);
        assert_eq!(store2.stats().entries, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_panic_degrades_to_a_failure_event_and_is_never_recorded() {
        let path = temp_path("panic");
        let tasks = tasks();
        let store = Arc::new(ScanStore::open(&path).unwrap());
        let session = AnalysisSession::default();
        let mut events = Vec::new();
        let outcome = ScanPipeline::new(&session, 2)
            .with_scan_store(store.clone())
            .with_injected_panic("mod3")
            .run(&tasks, &mut |e| events.push(format!("{e:?}")));
        // The parse failure plus the injected panic; everything else scans.
        assert_eq!(outcome.failures, 2);
        assert!(
            events
                .iter()
                .any(|e| e.contains("injected fault: panic while analyzing mod3.c")),
            "{events:?}"
        );
        // The panicking module's functions are never cached: only the
        // clean compiles' are (2 functions per compiling module), and so
        // are their file records.
        assert_eq!(store.function_records(), 2 * (tasks.len() as u64 - 2));
        assert_eq!(store.file_records(), tasks.len() as u64 - 2);
        store.save().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn panicking_module_emits_the_same_stream_at_every_jobs_width() {
        let tasks = tasks();
        let stream = |jobs: usize| {
            let session = AnalysisSession::default();
            let mut events = Vec::new();
            ScanPipeline::new(&session, jobs)
                .with_injected_panic("mod2")
                .run(&tasks, &mut |e| events.push(format!("{e:?}")));
            events
        };
        let sequential = stream(1);
        assert!(sequential
            .iter()
            .any(|e| e.contains("panic: injected fault")));
        for jobs in [2, 4] {
            assert_eq!(sequential, stream(jobs), "jobs={jobs}");
        }
    }

    #[test]
    fn summary_counts_what_the_run_did() {
        let path = temp_path("summary");
        let tasks = tasks();
        let compiling = tasks.len() - 1;
        // Cold, then warm from the saved scan store: every compiling
        // module replays on the second run.
        for (run, skipped_modules) in [("cold", 0), ("warm", compiling)] {
            let store = Arc::new(ScanStore::open(&path).unwrap());
            let session = AnalysisSession::default();
            let mut report_events = 0;
            let outcome = ScanPipeline::new(&session, 2)
                .with_scan_store(store.clone())
                .run(&tasks, &mut |e| {
                    report_events += usize::from(matches!(e, ScanEvent::Report(_)))
                });
            store.save().unwrap();
            let stats = session.stats();
            let summary = ScanSummary::new(&outcome, &stats, 2, Duration::from_millis(7));
            assert_eq!(summary.files, tasks.len(), "{run}");
            assert_eq!(summary.failures, 1, "{run}: the broken file");
            assert!(report_events > 0, "{run}");
            assert_eq!(summary.reports, report_events, "{run}");
            assert_eq!(summary.modules_skipped, skipped_modules, "{run}");
            assert_eq!(summary.modules_skipped, stats.modules_skipped, "{run}");
            assert_eq!(summary.functions_skipped, 2 * skipped_modules, "{run}");
            assert_eq!(summary.functions_skipped, stats.functions_skipped, "{run}");
            assert_eq!(summary.files_replayed, skipped_modules, "{run}");
            assert_eq!(summary.degraded_queries, stats.timeouts, "{run}");
            assert_eq!(summary.store_hits, stats.cache_hits, "{run}");
            assert_eq!(summary.store_misses, stats.cache_misses, "{run}");
            assert_eq!(
                summary.store_misses > 0,
                skipped_modules == 0,
                "{run}: only the cold run consults the query store"
            );
            assert_eq!((summary.jobs, summary.elapsed_ms), (2, 7), "{run}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unreadable_path_fails_only_that_task() {
        let tasks = vec![
            ScanTask {
                name: "missing.mc".to_string(),
                source: ScanSource::Path(PathBuf::from("/nonexistent/missing.mc")),
            },
            ScanTask {
                name: "ok.c".to_string(),
                source: ScanSource::Inline("int f(int x) { return x; }\n".to_string()),
            },
        ];
        let session = AnalysisSession::default();
        let mut events = Vec::new();
        let outcome = ScanPipeline::new(&session, 2).run(&tasks, &mut |e| events.push(e));
        assert_eq!(outcome.failures, 1);
        assert_eq!(outcome.files, 2);
        assert!(matches!(
            &events[0],
            ScanEvent::Failure { name, .. } if name == "missing.mc"
        ));
    }
}
