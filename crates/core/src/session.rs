//! Long-lived analysis sessions: the layer between "check one module" and
//! "scan an archive".
//!
//! The paper's flagship deployment (§6.5) analyzes every package of the
//! Debian Wheezy archive — thousands of modules that instantiate the same
//! unstable idioms over and over. An [`AnalysisSession`] is the unit of
//! state that makes that workload cheap to repeat:
//!
//! * it owns the **query store** ([`QueryStore`]) shared by every module
//!   checked through it — the in-memory [`QueryCache`] by default, or a
//!   [`DiskQueryStore`](stack_solver::DiskQueryStore) so the *next process*
//!   starts warm too;
//! * it owns the **configuration** ([`CheckerConfig`]) applied uniformly to
//!   every module;
//! * it accumulates **aggregate statistics** ([`CheckStats`]) across
//!   modules, so an archive scan can report totals without retaining
//!   per-module results.
//!
//! It is the one way to check a source string
//! ([`check_source`](AnalysisSession::check_source)) or a module
//! ([`check_module`](AnalysisSession::check_module)). A session checks a
//! module's functions in order on one solver, so its reports and counters
//! are a function of the module and the store's contents alone. Files are
//! the unit of parallel work: the [`ScanPipeline`](crate::ScanPipeline)
//! runs several modules at once through one session, streaming each
//! module's reports as it finishes, and keeps that guarantee at every
//! width.

use crate::checker::{CheckResult, CheckStats, CheckerConfig};
use crate::encoder::FunctionEncoder;
use crate::report::{origin_info, Algorithm, BugReport, UbSource};
use crate::ubcond::{collect_ub_conditions, UbCondition};
use stack_ir::{CmpPred, Function, InstKind, Module, Operand, Origin};
use stack_solver::{Budget, BvSolver, QueryCache, QueryResult, QueryStore, TermId};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// A long-lived analysis session: one query store, one configuration, many
/// modules. See the module docs for the role it plays in archive scans.
#[derive(Debug)]
pub struct AnalysisSession {
    config: CheckerConfig,
    store: Arc<dyn QueryStore>,
    aggregate: Mutex<CheckStats>,
}

/// The outcome of checking one selected function of a module: its **raw**
/// reports — in discovery order, before the module-level dedup/suppression
/// filter — and its per-function solver degradation. Produced by
/// [`AnalysisSession::check_functions_selected`]; the scan pipeline
/// persists exactly this unit per replay key.
#[derive(Debug)]
pub struct FunctionCheck {
    /// Index of the function in the module's function list.
    pub index: usize,
    /// The function's raw (pre-filter) reports.
    pub reports: Vec<BugReport>,
    /// Budget-exhausted queries this function's analysis hit. A function
    /// with `timeouts > 0` has a budget-shaped report set, so it is never
    /// recorded for replay — its healthy siblings still are.
    pub timeouts: u64,
}

impl Default for AnalysisSession {
    fn default() -> AnalysisSession {
        AnalysisSession::new(CheckerConfig::default())
    }
}

impl AnalysisSession {
    /// A session backed by a fresh in-memory [`QueryCache`].
    pub fn new(config: CheckerConfig) -> AnalysisSession {
        AnalysisSession::with_store(config, Arc::new(QueryCache::new()))
    }

    /// A session backed by an explicit store — share one store between
    /// sessions, or pass a [`DiskQueryStore`](stack_solver::DiskQueryStore)
    /// to warm-start from (and later persist to) a cache file. The store is
    /// only consulted when [`CheckerConfig::query_cache`] is on.
    pub fn with_store(config: CheckerConfig, store: Arc<dyn QueryStore>) -> AnalysisSession {
        AnalysisSession {
            config,
            store,
            aggregate: Mutex::new(CheckStats::default()),
        }
    }

    /// The session's configuration.
    pub fn config(&self) -> &CheckerConfig {
        &self.config
    }

    /// The session's query store.
    pub fn store(&self) -> &Arc<dyn QueryStore> {
        &self.store
    }

    /// Aggregate statistics over every module checked through this session.
    pub fn stats(&self) -> CheckStats {
        *self
            .aggregate
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Fold one module's statistics into the session aggregate — called by
    /// [`check_module`](AnalysisSession::check_module), and by the scan
    /// pipeline for the modules it checked or replayed from the scan store.
    pub(crate) fn absorb_stats(&self, stats: &CheckStats) {
        self.aggregate
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .merge(stats);
    }

    /// A solver wired to this session's budget and (if enabled) the query
    /// store `store`.
    fn make_solver(&self, store: &Arc<dyn QueryStore>) -> BvSolver {
        let budget = match self.config.query_budget {
            0 => Budget::unlimited(),
            n => Budget::propagations(n),
        };
        let solver = BvSolver::with_budget(budget);
        if self.config.query_cache {
            solver.with_store(Arc::clone(store))
        } else {
            solver
        }
    }

    /// Compile a mini-C source string, run the analysis pre-pass, and check
    /// it, collecting the reports.
    pub fn check_source(&self, src: &str, file: &str) -> Result<CheckResult, stack_minic::Diag> {
        let mut module = stack_minic::compile(src, file)?;
        stack_opt::optimize_for_analysis(&mut module);
        Ok(self.check_module(&module))
    }

    /// Check every function of an (already optimized-for-analysis) module,
    /// collecting the reports that survive the module filter and returning
    /// them with the module's statistics (also merged into the session
    /// aggregate).
    ///
    /// Functions are checked in order on one solver. Parallel work is
    /// across files: see [`ScanPipeline`](crate::ScanPipeline).
    pub fn check_module(&self, module: &Module) -> CheckResult {
        let select = vec![true; module.len()];
        let (checks, stats) = self.check_functions_selected(module, &select);
        let reports = self.filter_module_reports(checks.into_iter().flat_map(|c| c.reports));
        self.absorb_stats(&stats);
        CheckResult { reports, stats }
    }

    /// Check a *selected subset* of a module's functions — the primitive
    /// under both [`check_module`] (everything selected) and the
    /// scan pipeline's per-function incremental re-scan (only the functions
    /// whose replay keys missed the scan store). Returns one
    /// [`FunctionCheck`] per selected function, in function order, carrying
    /// **raw** reports — the crate-internal module-level dedup/suppression
    /// filter is the caller's job, because replayed and fresh reports must
    /// pass through it together — plus the statistics of the work done
    /// (`functions` counts only the selection; nothing is merged into the
    /// session aggregate — callers compose the final per-module statistics
    /// and absorb them once).
    ///
    /// [`check_module`]: AnalysisSession::check_module
    pub fn check_functions_selected(
        &self,
        module: &Module,
        select: &[bool],
    ) -> (Vec<FunctionCheck>, CheckStats) {
        self.check_functions_with(module, select, &self.store)
    }

    /// [`check_functions_selected`] against an explicit query store in
    /// place of the session's — the scan pipeline's per-task hook, through
    /// which a task sees only published entries plus its own (see
    /// [`ScanPipeline`](crate::ScanPipeline)).
    ///
    /// [`check_functions_selected`]: AnalysisSession::check_functions_selected
    pub(crate) fn check_functions_with(
        &self,
        module: &Module,
        select: &[bool],
        store: &Arc<dyn QueryStore>,
    ) -> (Vec<FunctionCheck>, CheckStats) {
        let functions = module.functions();
        assert_eq!(
            select.len(),
            functions.len(),
            "one select flag per function"
        );
        let mut solver = self.make_solver(store);
        let checks: Vec<FunctionCheck> = (0..functions.len())
            .filter(|&i| select[i])
            .map(|i| {
                let before = solver.stats().timeouts;
                let reports = self.check_function(&module.name, &functions[i], &mut solver);
                FunctionCheck {
                    index: i,
                    reports,
                    timeouts: solver.stats().timeouts - before,
                }
            })
            .collect();
        let s = solver.stats();
        let stats = CheckStats {
            modules: 1,
            functions: checks.len(),
            degraded_modules: usize::from(s.timeouts > 0),
            ..s
        };
        (checks, stats)
    }

    /// The module-level report filter: deduplicate identical (location,
    /// function, algorithm) reports, then apply the macro/inline
    /// suppression, returning what survives. Order-sensitive (the seen-set
    /// is first-wins), so callers feed the assembled per-function streams in
    /// function order — which is why the scan store records raw pre-filter
    /// reports.
    pub(crate) fn filter_module_reports(
        &self,
        raw: impl IntoIterator<Item = BugReport>,
    ) -> Vec<BugReport> {
        let mut seen = HashSet::new();
        raw.into_iter()
            .filter(|report| {
                seen.insert((report.location(), report.function.clone(), report.algorithm))
                    && (self.config.report_compiler_generated || !report.compiler_generated)
            })
            .collect()
    }

    /// Check a single function of the module compiled from `file`.
    fn check_function(&self, file: &str, func: &Function, solver: &mut BvSolver) -> Vec<BugReport> {
        let mut enc = FunctionEncoder::new(func);
        let ub_conds = collect_ub_conditions(func, &mut enc);
        let mut reports = Vec::new();

        // Negate each UB condition exactly once, in condition order:
        // `neg_terms[i]` is the Δ conjunct "¬ub_conds[i]" that every query
        // below assumes for the conditions dominating its fragment. Each
        // negation becomes an assumption literal on the function's SAT
        // instance the first time a query that reaches the SAT core uses it
        // — encoded once (blaster-memoized), then only toggled by every
        // later such query, fragment or Figure 8 minimization iteration.
        let neg_terms: Vec<TermId> = ub_conds.iter().map(|c| enc.negation(c.term)).collect();

        // Index UB conditions by the instruction they attach to.
        let mut by_inst: HashMap<stack_ir::InstId, Vec<usize>> = HashMap::new();
        for (i, c) in ub_conds.iter().enumerate() {
            by_inst.entry(c.inst).or_default().push(i);
        }

        // --- Elimination over basic blocks (Figure 5) -------------------------
        for block in func.block_ids() {
            if block == func.entry() || !enc.cfg.is_reachable(block) {
                continue;
            }
            let reach = enc.reach_term(block);
            match solver.check(&enc.pool, &[reach]) {
                QueryResult::Unsat | QueryResult::Unknown => continue, // trivially dead / timeout
                QueryResult::Sat(_) => {}
            }
            // Δ over the dominators of the block (strictly dominating blocks).
            let dom_conds = dominating_conditions(func, &enc, &by_inst, block, None);
            if dom_conds.is_empty() {
                continue;
            }
            let mut assertions = vec![reach];
            assertions.extend(dom_conds.iter().map(|&ci| neg_terms[ci]));
            if solver.check(&enc.pool, &assertions).is_unsat() {
                let minimal = minimal_ub_set(&enc.pool, solver, &[reach], &dom_conds, &neg_terms);
                let origin = block_report_origin(func, block);
                reports.push(build_report(
                    file,
                    func,
                    &origin,
                    Algorithm::Elimination,
                    format!(
                        "code in block {} is reachable only by inputs that trigger undefined behavior; \
                         an optimizing compiler may delete it",
                        func.block(block)
                            .name
                            .clone()
                            .unwrap_or_else(|| format!("{block}"))
                    ),
                    &minimal,
                    &ub_conds,
                ));
            }
        }

        // --- Simplification over comparisons (Figure 6) -----------------------
        for (block, inst_id) in func.all_insts() {
            if !enc.cfg.is_reachable(block) {
                continue;
            }
            let InstKind::Cmp { pred, lhs, rhs } = func.inst(inst_id).kind else {
                continue;
            };
            let index = enc.positions.get(inst_id).map_or(0, |(_, i)| i);
            let e_term = enc.bool_term(Operand::Inst(inst_id));
            let reach = enc.reach_term(block);
            let dom_conds = dominating_conditions(func, &enc, &by_inst, block, Some(index));
            if dom_conds.is_empty() {
                continue;
            }
            let negations: Vec<TermId> = dom_conds.iter().map(|&ci| neg_terms[ci]).collect();

            // Boolean oracle: propose `true`, then `false`.
            let mut reported = false;
            for proposed in [true, false] {
                let prop = enc.pool.bool_const(proposed);
                let diff = enc.pool.xor(e_term, prop);
                match solver.check(&enc.pool, &[diff, reach]) {
                    QueryResult::Unsat => break, // trivially constant: not unstable
                    QueryResult::Unknown => break,
                    QueryResult::Sat(_) => {}
                }
                let mut assertions = vec![diff, reach];
                assertions.extend(&negations);
                if solver.check(&enc.pool, &assertions).is_unsat() {
                    let minimal =
                        minimal_ub_set(&enc.pool, solver, &[diff, reach], &dom_conds, &neg_terms);
                    let origin = func.inst(inst_id).origin.clone();
                    reports.push(build_report(
                        file,
                        func,
                        &origin,
                        Algorithm::SimplifyBoolean,
                        format!(
                            "check always evaluates to {proposed} under the well-defined program \
                             assumption; an optimizing compiler may discard it"
                        ),
                        &minimal,
                        &ub_conds,
                    ));
                    reported = true;
                    break;
                }
            }
            if reported {
                continue;
            }

            // Algebra oracle: cancel a common term on both sides.
            if let Some((proposed_term, description)) =
                algebra_proposal(&mut enc, func, pred, lhs, rhs)
            {
                let diff = enc.pool.xor(e_term, proposed_term);
                if let QueryResult::Sat(_) = solver.check(&enc.pool, &[diff, reach]) {
                    let mut assertions = vec![diff, reach];
                    assertions.extend(&negations);
                    if solver.check(&enc.pool, &assertions).is_unsat() {
                        let minimal = minimal_ub_set(
                            &enc.pool,
                            solver,
                            &[diff, reach],
                            &dom_conds,
                            &neg_terms,
                        );
                        let origin = func.inst(inst_id).origin.clone();
                        reports.push(build_report(
                            file,
                            func,
                            &origin,
                            Algorithm::SimplifyAlgebra,
                            description,
                            &minimal,
                            &ub_conds,
                        ));
                    }
                }
            }
        }

        reports
    }
}

/// UB-condition indices attached to the dominators of a program point.
/// `index = None` means "the start of the block" (used for block
/// elimination); `Some(i)` means the instruction at position `i`.
fn dominating_conditions(
    func: &Function,
    enc: &FunctionEncoder<'_>,
    by_inst: &HashMap<stack_ir::InstId, Vec<usize>>,
    block: stack_ir::BlockId,
    index: Option<usize>,
) -> Vec<usize> {
    let mut out = Vec::new();
    let dom_insts = match index {
        Some(i) => enc.dom.dominating_insts(func, block, i),
        None => {
            let mut v = Vec::new();
            for d in enc.dom.dominators(block) {
                if d == block {
                    continue;
                }
                v.extend(func.block(d).insts.iter().copied());
            }
            v
        }
    };
    for inst in dom_insts {
        if let Some(indices) = by_inst.get(&inst) {
            out.extend(indices.iter().copied());
        }
    }
    out
}

/// The greedy minimal-UB-set computation of Figure 8: drop each condition in
/// turn; if the query becomes satisfiable, that condition is essential.
///
/// Every iteration asserts the same `base` fragment encoding plus all but one
/// of the precomputed condition negations (`neg_terms[ci]`, indexed like
/// `dom_conds`). The triggering query registered these terms as assumption
/// literals on the function's SAT instance, so an iteration that reaches
/// the SAT core only toggles assumptions instead of re-bit-blasting; the
/// query store still short-circuits iterations repeated across structurally
/// identical functions.
///
/// When the solver extracted an assumption core for the triggering query
/// (always the `check` call immediately preceding this one), the loop seeds
/// its search from it: a core is a subset of `base` plus the asserted
/// negations that is unsatisfiable on its own, so dropping a condition whose
/// negation is *outside* the core leaves the whole core asserted and the
/// query inevitably `Unsat` — the iteration is skipped without entering the
/// solver (counted as `minimization_queries_saved`). Iterations that do run
/// and answer `Unsat` refresh the core, shrinking it as the loop proceeds.
/// Because every iteration tests the full set minus exactly one condition
/// (never an accumulated subset), a skip reproduces the exact verdict the
/// query would have returned, so the resulting minimal set — and with it
/// every report — is byte-identical to the unseeded greedy loop's.
fn minimal_ub_set(
    pool: &stack_solver::TermPool,
    solver: &mut BvSolver,
    base: &[TermId],
    dom_conds: &[usize],
    neg_terms: &[TermId],
) -> Vec<usize> {
    let mut core: Option<Vec<TermId>> = solver.last_unsat_core().map(<[TermId]>::to_vec);
    let mut essential = Vec::new();
    for &skip in dom_conds {
        if let Some(c) = &core {
            if !c.contains(&neg_terms[skip]) {
                solver.note_minimization_saved();
                continue;
            }
        }
        let mut assertions = base.to_vec();
        assertions.extend(
            dom_conds
                .iter()
                .filter(|&&ci| ci != skip)
                .map(|&ci| neg_terms[ci]),
        );
        match solver.check(pool, &assertions) {
            QueryResult::Sat(_) | QueryResult::Unknown => essential.push(skip),
            QueryResult::Unsat => {
                // A fresh core (absent on store hits, which leave the
                // previous — still valid — one in place) is a subset of this
                // query's assertions, so the invariant "core ⊆ base ∪
                // still-asserted negations" holds.
                if let Some(fresh) = solver.last_unsat_core() {
                    core = Some(fresh.to_vec());
                }
            }
        }
    }
    if essential.is_empty() {
        // Degenerate case (e.g. a single condition): keep everything.
        essential = dom_conds.to_vec();
    }
    essential
}

/// Propose a simpler expression by cancelling a common term on both sides of
/// a comparison (the algebra oracle).
fn algebra_proposal(
    enc: &mut FunctionEncoder<'_>,
    func: &Function,
    pred: CmpPred,
    lhs: Operand,
    rhs: Operand,
) -> Option<(TermId, String)> {
    // Pointer form: (p + x) pred p  ==>  x pred' 0 with signed ordering.
    if let Operand::Inst(id) = lhs {
        if let InstKind::PtrAdd {
            ptr,
            offset,
            elem_size,
            ..
        } = func.inst(id).kind
        {
            if ptr == rhs {
                let off = enc.scaled_offset(offset, elem_size);
                let zero = enc.pool.bv_const(64, 0);
                let term = match pred {
                    CmpPred::Ult | CmpPred::Slt => enc.pool.bv_slt(off, zero),
                    CmpPred::Ule | CmpPred::Sle => enc.pool.bv_sle(off, zero),
                    CmpPred::Ugt | CmpPred::Sgt => enc.pool.bv_sgt(off, zero),
                    CmpPred::Uge | CmpPred::Sge => enc.pool.bv_sge(off, zero),
                    CmpPred::Eq => enc.pool.eq(off, zero),
                    CmpPred::Ne => enc.pool.ne(off, zero),
                };
                return Some((
                    term,
                    "pointer check `p + x < p` can be simplified to a sign test on `x`; \
                     compilers perform the same rewrite"
                        .to_string(),
                ));
            }
        }
        // Integer form: (x + y) pred x  ==>  y pred 0.
        if let InstKind::Bin {
            op: stack_ir::BinOp::Add,
            lhs: a,
            rhs: b,
        } = func.inst(id).kind
        {
            let other = if a == rhs {
                Some(b)
            } else if b == rhs {
                Some(a)
            } else {
                None
            };
            if let Some(y) = other {
                let yt = enc.bv_term(y);
                let width = enc.pool.width(yt);
                let zero = enc.pool.bv_const(width, 0);
                let term = match pred {
                    CmpPred::Slt | CmpPred::Ult => enc.pool.bv_slt(yt, zero),
                    CmpPred::Sle | CmpPred::Ule => enc.pool.bv_sle(yt, zero),
                    CmpPred::Sgt | CmpPred::Ugt => enc.pool.bv_sgt(yt, zero),
                    CmpPred::Sge | CmpPred::Uge => enc.pool.bv_sge(yt, zero),
                    CmpPred::Eq => enc.pool.eq(yt, zero),
                    CmpPred::Ne => enc.pool.ne(yt, zero),
                };
                return Some((
                    term,
                    "comparison `x + y < x` can be simplified to a sign test on `y`".to_string(),
                ));
            }
        }
    }
    None
}

/// Pick a representative origin for a block that may be eliminated: its first
/// instruction, or the condition of the branch that leads to it.
fn block_report_origin(func: &Function, block: stack_ir::BlockId) -> Origin {
    if let Some(&first) = func.block(block).insts.first() {
        return func.inst(first).origin.clone();
    }
    // Empty block (e.g. a lone `return`): walk predecessors until we find the
    // branch condition (or the last instruction) that decides whether this
    // block runs, so the report points at the check being bypassed.
    let mut visited = std::collections::HashSet::new();
    let mut work = vec![block];
    while let Some(cur) = work.pop() {
        if !visited.insert(cur) {
            continue;
        }
        for b in func.block_ids() {
            let term = &func.block(b).terminator;
            if !term.successors().any(|s| s == cur) {
                continue;
            }
            if let stack_ir::Terminator::CondBr {
                cond: Operand::Inst(id),
                ..
            } = term
            {
                return func.inst(*id).origin.clone();
            }
            if let Some(&last) = func.block(b).insts.last() {
                return func.inst(last).origin.clone();
            }
            work.push(b);
        }
    }
    Origin::unknown()
}

/// A report on `func`, of the module compiled from `file`, at `origin`.
fn build_report(
    file: &str,
    func: &Function,
    origin: &Origin,
    algorithm: Algorithm,
    description: String,
    minimal: &[usize],
    ub_conds: &[UbCondition],
) -> BugReport {
    let (report_file, line, compiler_generated) = origin_info(origin, file);
    let mut ub_sources: Vec<UbSource> = minimal
        .iter()
        .map(|&i| {
            let loc = func.inst(ub_conds[i].inst).origin.loc;
            UbSource {
                kind: ub_conds[i].kind,
                location: format!("{}:{}", loc.file(file), loc.line),
            }
        })
        .collect();
    ub_sources.sort_by(|a, b| (a.kind, &a.location).cmp(&(b.kind, &b.location)));
    ub_sources.dedup();
    BugReport {
        function: func.name.clone(),
        file: report_file,
        line,
        algorithm,
        description,
        ub_sources,
        compiler_generated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ubcond::UbKind;
    use stack_solver::DiskQueryStore;

    const TWO_FUNCTION_SRC: &str = "\
        int s0(int x) { if (x + 7 < x) return 1; return 0; }\n\
        int s1(int *p) { int v = *p; if (!p) return 1; return v; }\n";

    #[test]
    fn session_aggregates_stats_across_modules() {
        let session = AnalysisSession::new(CheckerConfig::default());
        let first = session.check_source(TWO_FUNCTION_SRC, "a.c").unwrap();
        let second = session.check_source(TWO_FUNCTION_SRC, "b.c").unwrap();
        let total = session.stats();
        assert_eq!(total.modules, 2);
        assert_eq!(total.functions, 4);
        assert_eq!(
            total.queries,
            first.stats.queries + second.stats.queries,
            "aggregate queries must be the sum of per-module queries"
        );
        assert!(!first.reports.is_empty());
        assert_eq!(first.reports.len(), second.reports.len());
        // The second, structurally identical module is answered from the
        // shared store.
        assert!(second.stats.cache_hits > 0);
    }

    #[test]
    fn disk_store_backed_session_warm_starts() {
        let path =
            std::env::temp_dir().join(format!("stack-session-warm-{}.qs", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let cold_store = Arc::new(DiskQueryStore::open(&path).unwrap());
        let cold = AnalysisSession::with_store(CheckerConfig::default(), cold_store.clone() as _);
        let cold_result = cold.check_source(TWO_FUNCTION_SRC, "a.c").unwrap();
        assert!(cold_store.save().unwrap() > 0);

        let warm_store = Arc::new(DiskQueryStore::open(&path).unwrap());
        assert!(warm_store.loaded_entries() > 0);
        let warm = AnalysisSession::with_store(CheckerConfig::default(), warm_store as _);
        let warm_result = warm.check_source(TWO_FUNCTION_SRC, "a.c").unwrap();
        assert_eq!(
            format!("{:?}", cold_result.reports),
            format!("{:?}", warm_result.reports)
        );
        // Every decided query of the warm run is answered from disk.
        assert_eq!(warm_result.stats.cache_misses, 0, "{:?}", warm_result.stats);
        assert!(warm_result.stats.cache_hits > 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// The §2.2 guards are decided at the word level: each guard and the UB
    /// condition of its operand intern to one bound on `x`, so every query
    /// is answered before the SAT core, with the reports the SAT core gave.
    #[test]
    fn section_2_2_guards_are_decided_before_the_sat_core() {
        let src = "\
            int f1(int x) { if (x + 100 < x) return 1; return 0; }\n\
            int f2(int x) { if (x - 100 > x) return 1; return 0; }\n\
            int f3(int x) { if (x + 7 > x) return 0; return 1; }\n\
            int f4(int x) { if (abs(x) < -3) return 1; return 0; }\n";
        let session = AnalysisSession::new(CheckerConfig {
            query_cache: false,
            ..CheckerConfig::default()
        });
        let result = session.check_source(src, "g.c").unwrap();
        let reports: Vec<(&str, u32, Algorithm, Vec<UbKind>)> = result
            .reports
            .iter()
            .map(|r| {
                let kinds = r.ub_sources.iter().map(|s| s.kind).collect();
                (r.function.as_str(), r.line, r.algorithm, kinds)
            })
            .collect();
        let mut expected = Vec::new();
        for (line, function, kind) in [
            (1, "f1", UbKind::SignedIntegerOverflow),
            (2, "f2", UbKind::SignedIntegerOverflow),
            (3, "f3", UbKind::SignedIntegerOverflow),
            (4, "f4", UbKind::AbsoluteValueOverflow),
        ] {
            for algorithm in [Algorithm::Elimination, Algorithm::SimplifyBoolean] {
                expected.push((function, line, algorithm, vec![kind]));
            }
        }
        assert_eq!(reports, expected);
        let stats = &result.stats;
        assert_eq!((stats.propagations, stats.incremental_queries), (0, 0));
        assert_eq!(stats.timeouts, 0);
    }
}
