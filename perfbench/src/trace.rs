//! The traced repetition: the scan pipeline's steps replayed from the
//! benchmark, with a span around every call into a layer's public API.
//!
//! `ScanPipeline::run` cannot be timed from inside without changing the
//! program, so this module drives the same public calls in the same order
//! (compile, optimize, replay key, store lookup, check, store insert, save)
//! and re-applies the module-level report filter. The caller checks that the
//! result is the untraced run's: the same report digest and the same solver
//! counters. The one difference is that each function is checked by its own
//! `check_functions_selected` call, so each has its own span.

use crate::scan::{session, Opened, Stores};
use crate::verdict::Verdict;
use crate::workload::Inputs;
use stack_core::{
    collect_ub_conditions, function_replay_key, BugReport, CheckStats, FunctionEncoder,
    FunctionKey, FunctionRecord, ScanEvent, ScanSource, ScanStore,
};
use stack_solver::DiskQueryStore;
use std::collections::HashSet;
use std::io;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A layer boundary the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    SessionNew,
    QueryStoreOpen,
    ScanStoreOpen,
    Compile,
    Optimize,
    ReplayKey,
    ScanStoreLookup,
    Check,
    ScanStoreInsert,
    QueryStoreSave,
    ScanStoreSave,
    /// Standalone probe after the clock stops; not part of the scan.
    UbCondCollect,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::SessionNew => "core.session.new",
            Layer::QueryStoreOpen => "solver.store.open",
            Layer::ScanStoreOpen => "core.scanstore.open",
            Layer::Compile => "minic.compile",
            Layer::Optimize => "opt.optimize",
            Layer::ReplayKey => "core.fingerprint.replay_key",
            Layer::ScanStoreLookup => "core.scanstore.lookup",
            Layer::Check => "core.session.check",
            Layer::ScanStoreInsert => "core.scanstore.insert",
            Layer::QueryStoreSave => "solver.store.save",
            Layer::ScanStoreSave => "core.scanstore.save",
            Layer::UbCondCollect => "core.ubcond.collect",
        }
    }
}

/// One timed call. `task` is the scan task it served (the span's request
/// id); spans outside any task carry `u32::MAX`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub start: Duration,
    pub dur: Duration,
    pub task: u32,
}

const NO_TASK: usize = u32::MAX as usize;

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn span<T>(&mut self, layer: Layer, task: usize, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        self.spans.push(Span {
            layer,
            start: start - self.origin,
            dur: end - start,
            task: task as u32,
        });
        out
    }
}

/// One traced repetition's spans and counts.
pub struct TracedRep {
    /// Session creation until both stores are saved (the probe excluded).
    pub wall: Duration,
    pub spans: Vec<Span>,
    /// Propagations of each checked function, in check-span order.
    pub fn_propagations: Vec<u64>,
    /// Solver counters summed over every per-function check.
    pub stats: CheckStats,
    pub source_bytes: usize,
    pub insts_after: usize,
    /// Scan-store lookups that hit / missed (store-backed workloads).
    pub scan_hits: u64,
    pub scan_misses: u64,
    pub query_store_bytes: u64,
    pub scan_store_bytes: u64,
    pub verdict: Verdict,
    pub failures: usize,
}

impl TracedRep {
    pub fn layer_total(&self, layer: Layer) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur)
            .sum()
    }

    /// Write the spans as Chrome trace events (`chrome://tracing`,
    /// Perfetto); `args.task` is the scan task a span served.
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, span) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"task\":{}}}}}{sep}",
                span.layer.name(),
                span.start.as_secs_f64() * 1e6,
                span.dur.as_secs_f64() * 1e6,
                span.task
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Scan `inputs` once with a span around every layer call.
pub fn traced(inputs: &Inputs, stores: Option<&Stores>) -> io::Result<TracedRep> {
    if let Some(stores) = stores {
        stores.restore()?;
    }
    let mut tr = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let opened: Option<Opened> = match stores {
        Some(stores) => Some((
            Arc::new(tr.span(Layer::QueryStoreOpen, NO_TASK, || {
                DiskQueryStore::open(&stores.query_path)
            })?),
            Arc::new(tr.span(Layer::ScanStoreOpen, NO_TASK, || {
                ScanStore::open(&stores.scan_path)
            })?),
        )),
        None => None,
    };
    let session = tr.span(Layer::SessionNew, NO_TASK, || {
        session(opened.as_ref().map(|(query, _)| query))
    });
    let mut events = Vec::new();
    let mut stats = CheckStats::default();
    let mut fn_propagations = Vec::new();
    let mut source_bytes = 0;
    let mut insts_after = 0;
    let mut failures = 0;
    // Each module with the functions the checker analyzed, kept for the
    // UB-condition probe.
    let mut analyzed = Vec::new();
    for (i, task) in inputs.tasks.iter().enumerate() {
        let ScanSource::Inline(source) = &task.source else {
            unreachable!("generated workloads scan inline sources")
        };
        source_bytes += source.len();
        let compiled = tr.span(Layer::Compile, i, || {
            stack_minic::compile(source, &task.name)
        });
        let mut module = match compiled {
            Ok(module) => module,
            Err(e) => {
                failures += 1;
                events.push(ScanEvent::Failure {
                    name: task.name.clone(),
                    error: e.to_string(),
                });
                continue;
            }
        };
        tr.span(Layer::Optimize, i, || {
            stack_opt::optimize_for_analysis(&mut module)
        });
        insts_after += module
            .functions()
            .iter()
            .map(|f| f.all_insts().len())
            .sum::<usize>();
        let n = module.len();
        let (keys, replayed): (Vec<FunctionKey>, Vec<Option<FunctionRecord>>) = match &opened {
            Some((_, scan)) => {
                let keys: Vec<FunctionKey> = module
                    .functions()
                    .iter()
                    .map(|f| {
                        tr.span(Layer::ReplayKey, i, || {
                            function_replay_key(f, session.config())
                        })
                    })
                    .collect();
                let replayed = keys
                    .iter()
                    .map(|&key| tr.span(Layer::ScanStoreLookup, i, || scan.lookup(key)))
                    .collect();
                (keys, replayed)
            }
            None => (Vec::new(), vec![None; n]),
        };
        let mut raw = Vec::new();
        let mut checked = Vec::new();
        for (f, slot) in replayed.into_iter().enumerate() {
            if let Some(record) = slot {
                raw.extend(record.replay(&task.name));
                continue;
            }
            let mut select = vec![false; n];
            select[f] = true;
            let (mut checks, check_stats) = tr.span(Layer::Check, i, || {
                session.check_functions_selected(&module, &select)
            });
            let check = checks.pop().expect("one function was selected");
            fn_propagations.push(check_stats.propagations);
            stats.merge(&check_stats);
            if let Some((_, scan)) = &opened {
                // Budget-degraded functions are never recorded.
                if check.timeouts == 0 {
                    let record = FunctionRecord::normalized(&check.reports, &task.name);
                    tr.span(Layer::ScanStoreInsert, i, || scan.insert(keys[f], record));
                }
            }
            raw.extend(check.reports);
            checked.push(f);
        }
        filter_module_reports(raw, session.config().report_compiler_generated, &mut events);
        analyzed.push((i, module, checked));
    }
    let (mut query_store_bytes, mut scan_store_bytes) = (0, 0);
    if let Some((query, scan)) = &opened {
        tr.span(Layer::QueryStoreSave, NO_TASK, || query.save())?;
        tr.span(Layer::ScanStoreSave, NO_TASK, || scan.save())?;
        query_store_bytes = std::fs::metadata(query.path())?.len();
        scan_store_bytes = std::fs::metadata(scan.path())?.len();
    }
    let wall = tr.origin.elapsed();

    // The UB-condition probe repeats the first step of every check, so it
    // runs after the clock stops and stays out of the scan's span sum.
    for (task, module, checked) in &analyzed {
        for &f in checked {
            let func = &module.functions()[f];
            tr.span(Layer::UbCondCollect, *task, || {
                let mut enc = FunctionEncoder::new(func);
                std::hint::black_box(collect_ub_conditions(func, &mut enc));
            });
        }
    }

    let (scan_hits, scan_misses) = opened.as_ref().map_or((0, 0), |(_, scan)| {
        let s = scan.stats();
        (s.hits, s.misses)
    });
    Ok(TracedRep {
        wall,
        spans: tr.spans,
        fn_propagations,
        stats,
        source_bytes,
        insts_after,
        scan_hits,
        scan_misses,
        query_store_bytes,
        scan_store_bytes,
        verdict: Verdict::of(inputs, &events),
        failures,
    })
}

/// The pipeline's module-level report filter, re-applied here because the
/// program keeps it crate-private: drop repeated (location, function,
/// algorithm) reports, then compiler-generated ones unless asked for.
fn filter_module_reports(raw: Vec<BugReport>, keep_generated: bool, out: &mut Vec<ScanEvent>) {
    let mut seen = HashSet::new();
    for report in raw {
        if !seen.insert((report.location(), report.function.clone(), report.algorithm)) {
            continue;
        }
        if !keep_generated && report.compiler_generated {
            continue;
        }
        out.push(ScanEvent::Report(report));
    }
}
