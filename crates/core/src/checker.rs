//! The STACK checker: solver-based identification of unstable code.
//!
//! This implements the paper's two algorithms (§3.2) with the per-function
//! approximations of §4.4:
//!
//! * **Elimination** (Figure 5): a fragment whose reachability condition is
//!   satisfiable on its own but unsatisfiable in conjunction with the
//!   well-defined program assumption Δ over its dominators is unstable — a
//!   compiler may delete it.
//! * **Simplification** (Figure 6): an expression that is not trivially
//!   constant but becomes equal to an oracle-proposed simpler form under Δ is
//!   unstable — a compiler may rewrite it. The boolean oracle proposes
//!   `true`/`false`; the algebra oracle cancels common terms
//!   (`p + x < p  ⇒  x < 0`).
//!
//! Each report carries the minimal set of UB conditions that makes the query
//! unsatisfiable, computed with the greedy algorithm of Figure 8.
//!
//! The algorithms themselves live in [`crate::session`]: an
//! [`AnalysisSession`] is the long-lived layer (owning the query store, the
//! configuration, and aggregate statistics across modules), and the
//! [`Checker`] defined here is the historical one-shot wrapper over a
//! session, kept as the convenient entry point for single-file use.

use crate::report::{Algorithm, BugReport};
use crate::session::AnalysisSession;
use stack_ir::{Function, Module};
use stack_solver::{BvSolver, CacheStats};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// Checker configuration.
#[derive(Clone, Copy, Debug)]
pub struct CheckerConfig {
    /// Per-query solver budget in propagations (the deterministic analogue of
    /// the paper's 5-second query timeout, §6.4). `0` means unlimited. A
    /// query that exhausts its budget degrades to `Unknown`, is counted in
    /// [`CheckStats::timeouts`], and is never cached or persisted; its
    /// module is counted in [`CheckStats::degraded_modules`].
    pub query_budget: u64,
    /// Whether to keep reports whose unstable fragment was produced by a
    /// macro expansion or inlining (the paper suppresses them, §4.2).
    pub report_compiler_generated: bool,
    /// Worker threads for [`Checker::check_module`]. `None` uses the
    /// machine's available parallelism; `Some(1)` preserves the sequential
    /// behavior exactly. Per-function checking (§4.4) makes every function's
    /// queries independent, so the driver scales near-linearly.
    pub threads: Option<usize>,
    /// Whether to memoize solver queries in a store shared across functions,
    /// modules, and worker threads (structurally identical queries are
    /// answered without re-entering the SAT core). The store is in-memory by
    /// default; [`AnalysisSession::with_store`] swaps in a disk-backed one.
    pub query_cache: bool,
    /// Whether to solve incrementally: one persistent SAT instance per
    /// function (per worker), with every UB-condition negation registered as
    /// an assumption literal, so the Figure 8 minimal-UB-set loop toggles
    /// assumptions on an already-encoded formula instead of re-bit-blasting
    /// each near-identical query. Composes with `query_cache` (the store
    /// still answers structurally repeated queries across functions; the
    /// instance absorbs the misses) and with `threads` (each worker's solver
    /// owns its own instances).
    pub incremental: bool,
    /// Whether the SAT core runs its layers around the search loop: clause
    /// vivification between restarts, binary watch lists, trail reuse
    /// across assumption sets, and the model cache. Vivification is charged
    /// to `query_budget`, so degraded verdicts stay deterministic. Decided
    /// verdicts — and therefore reports — are identical with the layers on
    /// or off; off (`--no-preprocess`) leaves the plain CDCL loop as the
    /// benchmark baseline.
    pub preprocess: bool,
    /// Incremental-instance granularity: `false` (default) shares one
    /// persistent SAT instance across a whole function; `true` starts a
    /// fresh instance per fragment. Sharing wins on the cache-disabled
    /// `solver_speed` scan of `BENCH_checker.json`, because later fragments
    /// reuse the function's encoding and learned clauses, but per-fragment
    /// wins on the edit-tail archive (`docs/ARCHITECTURE.md` records both
    /// measurements). No effect unless `incremental` is on.
    pub fragment_instances: bool,
}

impl Default for CheckerConfig {
    fn default() -> CheckerConfig {
        CheckerConfig {
            query_budget: 2_000_000,
            report_compiler_generated: false,
            threads: None,
            query_cache: true,
            incremental: true,
            preprocess: true,
            fragment_instances: false,
        }
    }
}

/// Aggregate statistics of a checker run (drives the Figure 16 columns).
/// Also the unit of [`AnalysisSession`]'s cross-module aggregate: see
/// [`CheckStats::merge`].
#[derive(Clone, Debug, Default)]
pub struct CheckStats {
    /// Number of modules these statistics cover (1 for a single
    /// `check_module` call; the number of modules checked so far for a
    /// session aggregate).
    pub modules: usize,
    /// Modules whose results were replayed from a persisted scan store
    /// (fingerprint hit) instead of analyzed — the incremental re-scan
    /// counter. Always ≤ `modules`; 0 outside scan-store-backed pipelines.
    pub modules_skipped: usize,
    /// Number of functions covered (analyzed or replayed).
    pub functions: usize,
    /// Functions whose reports were replayed from a persisted scan store
    /// (per-function replay-key hit) instead of analyzed — the
    /// function-granular incremental re-scan counter. Always ≤ `functions`;
    /// 0 outside scan-store-backed pipelines.
    pub functions_skipped: usize,
    /// Total solver queries issued (merged across worker threads).
    pub queries: u64,
    /// Degraded queries: queries that exhausted their propagation budget and
    /// were answered `Unknown` (merged across worker threads). The checker
    /// treats an `Unknown` conservatively — never a report, never cached,
    /// never persisted.
    pub timeouts: u64,
    /// Modules with at least one degraded (budget-exhausted) query. Such a
    /// module's report set reflects the budget, not just the module, so it
    /// is never recorded in the scan store. Always ≤ `modules`.
    pub degraded_modules: usize,
    /// Queries answered from the shared query store.
    pub cache_hits: u64,
    /// Queries that consulted the store and missed.
    pub cache_misses: u64,
    /// Total SAT-core propagations across all queries, including those of
    /// vivification between restarts (merged across worker threads). This
    /// is the deterministic currency solver budgets are denominated in, and
    /// the `solver_speed` benchmark's measure of raw solver work.
    pub propagations: u64,
    /// SAT-core propagations spent on queries that ended `Unsat`.
    pub unsat_propagations: u64,
    /// Total SAT-core conflicts across all queries.
    pub conflicts: u64,
    /// Total SAT-core restarts across all queries.
    pub restarts: u64,
    /// Clauses learned by conflict analysis across all queries.
    pub learned_clauses: u64,
    /// Learned clauses evicted by clause-database reduction.
    pub deleted_clauses: u64,
    /// Sum of learn-time literal-block-distance values over all learned
    /// clauses; `lbd_sum / learned_clauses` is the average glue.
    pub lbd_sum: u64,
    /// Learned clauses shortened by vivification.
    pub preprocess_eliminations: u64,
    /// Queries decided by a persistent incremental solver instance (merged
    /// across worker threads; 0 when `CheckerConfig::incremental` is off).
    pub incremental_queries: u64,
    /// Clause slots reused by incremental queries instead of re-blasted
    /// (summed over queries; the clause-reuse counter of the solver layer).
    pub reused_clauses: u64,
    /// Queries answered `Sat` (merged across worker threads). Together with
    /// `unsat_queries`, `timeouts`, and `model_cache_hits` this is the
    /// per-scan verdict breakdown.
    pub sat_queries: u64,
    /// Queries answered `Unsat` (merged across worker threads).
    pub unsat_queries: u64,
    /// `Sat` answers the SAT core served from its model cache in zero
    /// propagations.
    pub model_cache_hits: u64,
    /// Always 0: no query is answered from memoized assumption cores. The
    /// field stays because the `perfbench` scan benchmark reads it.
    pub core_cache_hits: u64,
    /// Assumption cores extracted after `Unsat` answers.
    pub cores_recorded: u64,
    /// Sum of literal counts over recorded cores (`core_size_sum /
    /// cores_recorded` is the average core size).
    pub core_size_sum: u64,
    /// Minimal-UB-set queries skipped because an extracted assumption core
    /// already proved them `Unsat`.
    pub minimization_queries_saved: u64,
    /// Worker threads the run actually used (maximum across modules for an
    /// aggregate).
    pub threads: usize,
    /// Wall-clock analysis time (summed across modules for an aggregate).
    pub elapsed: Duration,
    /// Reports per algorithm.
    pub by_algorithm: HashMap<Algorithm, usize>,
}

impl CheckStats {
    /// Fraction of queries answered from the store (0 when none consulted).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Average learn-time literal-block-distance across all learned clauses
    /// (0 when nothing was learned).
    pub fn avg_lbd(&self) -> f64 {
        if self.learned_clauses == 0 {
            0.0
        } else {
            self.lbd_sum as f64 / self.learned_clauses as f64
        }
    }

    /// Average literal count of recorded assumption cores (0 when none were
    /// recorded).
    pub fn avg_core_size(&self) -> f64 {
        if self.cores_recorded == 0 {
            0.0
        } else {
            self.core_size_sum as f64 / self.cores_recorded as f64
        }
    }

    /// Fold another run's counters into this one (the session aggregate):
    /// counts and times add, `threads` takes the maximum, and the
    /// per-algorithm report counts merge keywise.
    pub fn merge(&mut self, other: &CheckStats) {
        self.modules += other.modules;
        self.modules_skipped += other.modules_skipped;
        self.functions += other.functions;
        self.functions_skipped += other.functions_skipped;
        self.queries += other.queries;
        self.timeouts += other.timeouts;
        self.degraded_modules += other.degraded_modules;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.propagations += other.propagations;
        self.unsat_propagations += other.unsat_propagations;
        self.conflicts += other.conflicts;
        self.restarts += other.restarts;
        self.learned_clauses += other.learned_clauses;
        self.deleted_clauses += other.deleted_clauses;
        self.lbd_sum += other.lbd_sum;
        self.preprocess_eliminations += other.preprocess_eliminations;
        self.incremental_queries += other.incremental_queries;
        self.reused_clauses += other.reused_clauses;
        self.sat_queries += other.sat_queries;
        self.unsat_queries += other.unsat_queries;
        self.model_cache_hits += other.model_cache_hits;
        self.cores_recorded += other.cores_recorded;
        self.core_size_sum += other.core_size_sum;
        self.minimization_queries_saved += other.minimization_queries_saved;
        self.threads = self.threads.max(other.threads);
        self.elapsed += other.elapsed;
        for (algorithm, count) in &other.by_algorithm {
            *self.by_algorithm.entry(*algorithm).or_insert(0) += count;
        }
    }
}

/// Result of checking a module.
#[derive(Clone, Debug, Default)]
pub struct CheckResult {
    pub reports: Vec<BugReport>,
    pub stats: CheckStats,
}

impl CheckResult {
    /// Reports grouped by the UB kinds they involve (Figure 18's breakdown).
    pub fn reports_by_ub_kind(&self) -> HashMap<crate::ubcond::UbKind, usize> {
        let mut map = HashMap::new();
        for r in &self.reports {
            let kinds: HashSet<_> = r.ub_sources.iter().map(|s| s.kind).collect();
            for k in kinds {
                *map.entry(k).or_insert(0) += 1;
            }
        }
        map
    }
}

/// The one-shot checker: a thin wrapper over an [`AnalysisSession`].
///
/// One `Checker` owns one session — and therefore one query store: every
/// [`check_module`] / [`check_source`] call through the same instance shares
/// it, so repeated idioms are answered from memory across files and modules
/// (the synthetic Debian population re-instantiates the same unstable
/// patterns thousands of times). For archive-scale work — disk-backed
/// stores, streaming reports, aggregate statistics — use the session
/// directly.
///
/// [`check_module`]: Checker::check_module
/// [`check_source`]: Checker::check_source
#[derive(Debug, Default)]
pub struct Checker {
    session: AnalysisSession,
}

impl Checker {
    /// A checker with the default configuration.
    pub fn new() -> Checker {
        Checker::default()
    }

    /// A checker with an explicit configuration.
    pub fn with_config(config: CheckerConfig) -> Checker {
        Checker {
            session: AnalysisSession::new(config),
        }
    }

    /// The underlying session.
    pub fn session(&self) -> &AnalysisSession {
        &self.session
    }

    /// Counters of the checker-owned query store (lifetime of this instance).
    pub fn cache_stats(&self) -> CacheStats {
        self.session.store_stats()
    }

    /// Compile a mini-C source string, run the analysis pre-pass, and check it.
    pub fn check_source(&self, src: &str, file: &str) -> Result<CheckResult, stack_minic::Diag> {
        self.session.check_source(src, file)
    }

    /// Check every function of an (already optimized-for-analysis) module.
    /// See [`AnalysisSession::check_module_streaming`] for the driver's
    /// parallelism and determinism contract.
    pub fn check_module(&self, module: &Module) -> CheckResult {
        self.session.check_module(module)
    }

    /// Check a single function.
    pub fn check_function(&self, func: &Function, solver: &mut BvSolver) -> Vec<BugReport> {
        self.session.check_function(func, solver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ubcond::UbKind;

    fn check(src: &str) -> CheckResult {
        Checker::new().check_source(src, "test.c").unwrap()
    }

    #[test]
    fn figure2_null_check_is_unstable() {
        let result = check(
            "int tun_chr_poll(struct tun_struct *tun) {\n\
               long sk = tun->sk;\n\
               if (!tun) return 1;\n\
               return 0;\n\
             }",
        );
        assert!(!result.reports.is_empty(), "expected a report");
        assert!(result
            .reports
            .iter()
            .any(|r| r.involves(UbKind::NullPointerDereference)));
        // The elimination algorithm flags the return under the check.
        assert!(result
            .reports
            .iter()
            .any(|r| r.algorithm == Algorithm::Elimination));
    }

    #[test]
    fn figure1_pointer_overflow_check_is_unstable() {
        let result = check(
            "int check(char *buf, char *buf_end, unsigned int len) {\n\
               if (buf + len >= buf_end) return -1;\n\
               if (buf + len < buf) return -1;\n\
               return 0;\n\
             }",
        );
        assert!(
            result
                .reports
                .iter()
                .any(|r| r.involves(UbKind::PointerOverflow)),
            "{:?}",
            result.reports
        );
    }

    #[test]
    fn signed_overflow_check_is_unstable_but_unsigned_is_not() {
        let signed_result = check("int f(int x) { if (x + 100 < x) return 1; return 0; }");
        assert!(
            signed_result
                .reports
                .iter()
                .any(|r| r.involves(UbKind::SignedIntegerOverflow)),
            "{:?}",
            signed_result.reports
        );
        let unsigned_result =
            check("int f(unsigned int x) { if (x + 100 < x) return 1; return 0; }");
        assert!(
            unsigned_result.reports.is_empty(),
            "unsigned wraparound is well defined: {:?}",
            unsigned_result.reports
        );
    }

    #[test]
    fn stable_code_produces_no_reports() {
        let result = check(
            "int f(int x, int y) {\n\
               if (y == 0) return -1;\n\
               if (x > 1000) return -2;\n\
               return x / y;\n\
             }",
        );
        assert!(result.reports.is_empty(), "{:?}", result.reports);
        assert!(result.stats.queries > 0);
    }

    #[test]
    fn macro_generated_checks_are_suppressed() {
        let src = "#define IS_VALID(p) (p != NULL)\n\
                   int f(char *p) {\n\
                     long v = *p;\n\
                     if (IS_VALID(p)) return 1;\n\
                     return 0;\n\
                   }";
        let default_result = check(src);
        assert!(
            default_result.reports.is_empty(),
            "macro-origin reports must be suppressed: {:?}",
            default_result.reports
        );
        let permissive = Checker::with_config(CheckerConfig {
            report_compiler_generated: true,
            ..CheckerConfig::default()
        });
        let all = permissive.check_source(src, "test.c").unwrap();
        assert!(!all.reports.is_empty());
    }

    #[test]
    fn abs_check_is_unstable() {
        let result = check("int f(int x) { if (abs(x) < 0) return 1; return 0; }");
        assert!(
            result
                .reports
                .iter()
                .any(|r| r.involves(UbKind::AbsoluteValueOverflow)),
            "{:?}",
            result.reports
        );
    }

    #[test]
    fn shift_check_is_unstable() {
        let result = check("int f(int x) { if (!(1 << x)) return 1; return 0; }");
        assert!(
            result
                .reports
                .iter()
                .any(|r| r.involves(UbKind::OversizedShift)),
            "{:?}",
            result.reports
        );
    }

    #[test]
    fn ffmpeg_algebra_simplification_is_reported() {
        let result = check(
            "int parse(char *data, char *data_end, int size) {\n\
               if (data + size >= data_end || data + size < data) return -1;\n\
               return 0;\n\
             }",
        );
        assert!(
            result
                .reports
                .iter()
                .any(|r| r.algorithm == Algorithm::SimplifyAlgebra),
            "{:?}",
            result.reports
        );
    }

    #[test]
    fn postgres_division_check_is_unstable() {
        let result = check(
            "int64_t int8div(int64_t arg1, int64_t arg2) {\n\
               if (arg2 == 0) return -1;\n\
               int64_t result = arg1 / arg2;\n\
               if (arg2 == -1 && arg1 < 0 && result <= 0) return -2;\n\
               return result;\n\
             }",
        );
        assert!(
            result
                .reports
                .iter()
                .any(|r| r.involves(UbKind::SignedIntegerOverflow)),
            "{:?}",
            result.reports
        );
    }

    #[test]
    fn minimal_ub_set_is_reported() {
        let result = check("int f(int *p) { int v = *p; if (!p) return 1; return v; }");
        let report = result
            .reports
            .iter()
            .find(|r| r.involves(UbKind::NullPointerDereference))
            .expect("expected a null-deref-based report");
        assert_eq!(report.ub_sources.len(), 1);
    }

    #[test]
    fn stats_accumulate() {
        let result = check("int f(int x) { if (x + 1 < x) return 1; return 0; }");
        assert_eq!(result.stats.modules, 1);
        assert_eq!(result.stats.functions, 1);
        assert!(result.stats.queries >= 2);
        assert_eq!(result.stats.timeouts, 0);
        assert!(result.stats.by_algorithm.values().sum::<usize>() >= 1);
        assert!(result.stats.threads >= 1);
    }

    #[test]
    fn stats_merge_adds_counts_and_merges_algorithms() {
        let a = check("int f(int x) { if (x + 1 < x) return 1; return 0; }");
        let b = check("int g(int *p) { int v = *p; if (!p) return 1; return v; }");
        let mut merged = a.stats.clone();
        merged.merge(&b.stats);
        assert_eq!(merged.modules, 2);
        assert_eq!(merged.functions, 2);
        assert_eq!(merged.queries, a.stats.queries + b.stats.queries);
        assert_eq!(
            merged.by_algorithm.values().sum::<usize>(),
            a.stats.by_algorithm.values().sum::<usize>()
                + b.stats.by_algorithm.values().sum::<usize>()
        );
        assert!(merged.elapsed >= a.stats.elapsed.max(b.stats.elapsed));
    }

    /// A module with several functions, mixing unstable and stable code, so
    /// the parallel driver has real work to distribute.
    const MULTI_FUNCTION_SRC: &str = "\
        int f0(struct s *tun) { long sk = tun->sk; if (!tun) return 1; return 0; }\n\
        int f1(int x) { if (x + 100 < x) return 1; return 0; }\n\
        int f2(int x, int y) { if (y == 0) return -1; return x / y; }\n\
        int f3(char *buf, char *buf_end, unsigned int len) {\n\
          if (buf + len >= buf_end) return -1;\n\
          if (buf + len < buf) return -1;\n\
          return 0;\n\
        }\n\
        int f4(int x) { if (!(1 << x)) return 1; return 0; }\n\
        int f5(int x) { if (x + 100 < x) return 1; return 0; }\n";

    fn check_with(threads: Option<usize>, query_cache: bool) -> CheckResult {
        check_with_inc(threads, query_cache, true)
    }

    fn check_with_inc(threads: Option<usize>, query_cache: bool, incremental: bool) -> CheckResult {
        Checker::with_config(CheckerConfig {
            threads,
            query_cache,
            incremental,
            ..CheckerConfig::default()
        })
        .check_source(MULTI_FUNCTION_SRC, "multi.c")
        .unwrap()
    }

    #[test]
    fn parallel_run_matches_sequential_run() {
        let sequential = check_with(Some(1), true);
        for threads in [2, 4] {
            let parallel = check_with(Some(threads), true);
            assert_eq!(
                format!("{:?}", sequential.reports),
                format!("{:?}", parallel.reports),
                "threads={threads}"
            );
            assert_eq!(sequential.stats.queries, parallel.stats.queries);
            assert_eq!(sequential.stats.timeouts, parallel.stats.timeouts);
        }
    }

    #[test]
    fn cache_disabled_matches_cache_enabled() {
        let cached = check_with(Some(1), true);
        let uncached = check_with(Some(1), false);
        assert_eq!(
            format!("{:?}", cached.reports),
            format!("{:?}", uncached.reports)
        );
        assert_eq!(uncached.stats.cache_hits, 0);
        assert_eq!(uncached.stats.cache_misses, 0);
        // f1 and f5 are structurally identical, so the cached run must
        // answer at least one query from memory.
        assert!(cached.stats.cache_hits > 0, "{:?}", cached.stats);
    }

    #[test]
    fn incremental_matches_non_incremental() {
        // Same reports and the same query count, with and without the cache,
        // sequential and parallel: incremental solving changes how a query is
        // decided, never what it decides.
        let baseline = check_with_inc(Some(1), false, false);
        for (threads, cache) in [(1, false), (1, true), (4, true)] {
            let incremental = check_with_inc(Some(threads), cache, true);
            assert_eq!(
                format!("{:?}", baseline.reports),
                format!("{:?}", incremental.reports),
                "threads={threads} cache={cache}"
            );
            assert_eq!(baseline.stats.queries, incremental.stats.queries);
        }
    }

    #[test]
    fn preprocessing_off_and_granularity_match_defaults() {
        // Every clause the solver's vivification derives is implied by the
        // formula, and instance granularity only changes which persistent
        // instance decides a query — so reports must be identical with the
        // layers off, with per-fragment instances, across thread counts.
        let baseline = Checker::new()
            .check_source(MULTI_FUNCTION_SRC, "multi.c")
            .unwrap();
        for (threads, preprocess, fragment_instances) in [
            (1, false, false),
            (4, false, false),
            (1, true, true),
            (4, true, true),
        ] {
            let variant = Checker::with_config(CheckerConfig {
                threads: Some(threads),
                preprocess,
                fragment_instances,
                ..CheckerConfig::default()
            })
            .check_source(MULTI_FUNCTION_SRC, "multi.c")
            .unwrap();
            assert_eq!(
                format!("{:?}", baseline.reports),
                format!("{:?}", variant.reports),
                "threads={threads} preprocess={preprocess} fragments={fragment_instances}"
            );
            assert_eq!(baseline.stats.queries, variant.stats.queries);
        }
    }

    /// The in-place edit behind the edit-tail archive's hardest queries
    /// (`gen-archive --packages 48 --seed 41 --edit-functions 12`, module
    /// `archive-0023_0`): the guard multiplies and divides by different
    /// constants.
    const EDITED_OVERFLOW_GUARD: &str =
        "int fn_234(int a, int b) { int p = a * 20005; int q = p / 55; \
         if (q != a) return -1; return p + b; }";

    #[test]
    fn solver_counters_surface_in_check_stats() {
        let result = check_with_inc(Some(1), false, true);
        assert!(result.stats.propagations > 0, "{:?}", result.stats);
        assert!(result.stats.conflicts > 0, "{:?}", result.stats);
        assert!(result.stats.learned_clauses > 0, "{:?}", result.stats);
        assert!(result.stats.avg_lbd() > 0.0, "{:?}", result.stats);
        // The bit-blaster folds the constants of MULTI_FUNCTION_SRC away, so
        // the vivification counter is exercised on the edited overflow
        // guard, whose queries restart often enough for vivification rounds
        // (every fourth restart) to run.
        let check_guard = |preprocess: bool| {
            Checker::with_config(CheckerConfig {
                threads: Some(1),
                query_cache: false,
                preprocess,
                ..CheckerConfig::default()
            })
            .check_source(EDITED_OVERFLOW_GUARD, "guard.c")
            .unwrap()
        };
        let on = check_guard(true);
        assert!(on.stats.preprocess_eliminations > 0, "{:?}", on.stats);
        let off = check_guard(false);
        assert_eq!(off.stats.preprocess_eliminations, 0, "{:?}", off.stats);
        assert!(off.stats.propagations > 0);
    }

    #[test]
    fn edited_overflow_guard_stays_within_the_default_budget() {
        // Blasted without constant folding, three of the edited guard's
        // queries exceeded the default 2M-propagation budget.
        let result = Checker::with_config(CheckerConfig::default())
            .check_source(EDITED_OVERFLOW_GUARD, "archive-0023_0.mc")
            .unwrap();
        assert_eq!(result.stats.timeouts, 0, "{:?}", result.stats);
        assert_eq!(result.stats.degraded_modules, 0, "{:?}", result.stats);
    }

    #[test]
    fn budget_exhausted_during_search_degrades_and_never_persists() {
        // A one-propagation budget is exhausted by the CDCL search itself:
        // the query must degrade to `Unknown`, be counted as a timeout and
        // a degraded module, and leave nothing behind in the query store.
        let checker = Checker::with_config(CheckerConfig {
            threads: Some(1),
            query_budget: 1,
            ..CheckerConfig::default()
        });
        let src = "int f(int x, int y) { if (x * y + 1 < x * y) return 1; return 0; }";
        let first = checker.check_source(src, "deg.c").unwrap();
        assert!(first.stats.timeouts > 0, "{:?}", first.stats);
        assert_eq!(first.stats.degraded_modules, 1);
        assert!(
            first.reports.is_empty(),
            "Unknown must never become a report"
        );
        assert_eq!(
            checker.cache_stats().entries,
            0,
            "degraded verdicts must never be persisted"
        );
        // Re-running reproduces the same degradation — nothing was cached.
        let second = checker.check_source(src, "deg.c").unwrap();
        assert_eq!(first.stats.timeouts, second.stats.timeouts);
        assert_eq!(checker.cache_stats().hits, 0);
    }

    #[test]
    fn incremental_counters_accumulate() {
        let incremental = check_with_inc(Some(1), false, true);
        // Without the cache, every non-trivial query is decided on a
        // persistent instance; later queries against the same function must
        // reuse its clauses.
        assert!(
            incremental.stats.incremental_queries > 0,
            "{:?}",
            incremental.stats
        );
        assert!(
            incremental.stats.reused_clauses > 0,
            "{:?}",
            incremental.stats
        );
        let off = check_with_inc(Some(1), false, false);
        assert_eq!(off.stats.incremental_queries, 0);
        assert_eq!(off.stats.reused_clauses, 0);
    }

    #[test]
    fn cache_is_shared_across_check_calls() {
        let checker = Checker::new();
        let src = "int f(int x) { if (x + 1 < x) return 1; return 0; }";
        let first = checker.check_source(src, "a.c").unwrap();
        let second = checker.check_source(src, "b.c").unwrap();
        assert_eq!(first.reports.len(), second.reports.len());
        // The second pass re-issues structurally identical queries, so every
        // decided query hits the cache built by the first pass.
        assert!(
            second.stats.cache_hits >= first.stats.cache_hits,
            "first={:?} second={:?}",
            first.stats,
            second.stats
        );
        assert!(second.stats.cache_hits > 0);
        let cache = checker.cache_stats();
        assert_eq!(
            cache.hits + cache.misses,
            first.stats.cache_hits
                + first.stats.cache_misses
                + second.stats.cache_hits
                + second.stats.cache_misses
        );
    }
}
