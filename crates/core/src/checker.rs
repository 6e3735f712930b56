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
//! [`AnalysisSession`](crate::AnalysisSession) owns the query store, the
//! configuration and aggregate statistics across modules, and is the one
//! entry point for checking a source string or a module. This module holds
//! the configuration and result types it shares with its callers.
//!
//! A module's functions are checked in order on one solver, and every store
//! miss that simulation cannot answer is solved on the function's SAT
//! instance. Parallel work happens across files, in
//! [`ScanPipeline`](crate::ScanPipeline).

use crate::report::BugReport;

/// Checker configuration. No field selects how a query is solved: a query
/// the store and simulation leave open is decided on the function's one
/// persistent SAT instance, where each assertion becomes an assumption
/// literal the first time a query uses it, so the Figure 8 minimal-UB-set
/// loop toggles assumptions on an already-encoded formula instead of
/// re-bit-blasting each near-identical query.
#[derive(Clone, Copy, Debug)]
pub struct CheckerConfig {
    /// Per-query solver budget in propagations (the deterministic analogue of
    /// the paper's 5-second query timeout, §6.4). `0` means unlimited. A
    /// query that exhausts its budget degrades to `Unknown`, is counted in
    /// [`CheckStats::timeouts`], and is never cached or persisted; its
    /// module is counted in [`CheckStats::degraded_modules`].
    pub query_budget: u64,
    /// Whether to keep reports whose unstable fragment was produced by a
    /// macro expansion (the paper suppresses them, §4.2).
    pub report_compiler_generated: bool,
    /// Unread: a module's functions are always checked sequentially, and
    /// files are the unit of parallel work
    /// ([`ScanPipeline`](crate::ScanPipeline)'s `jobs`). The field stays
    /// because the `perfbench` scan benchmark's configuration names it.
    pub threads: Option<usize>,
    /// Whether to memoize solver queries in a store shared across functions,
    /// modules, and scan workers (structurally identical queries are
    /// answered without re-entering the SAT core). The store is in-memory by
    /// default;
    /// [`AnalysisSession::with_store`](crate::AnalysisSession::with_store)
    /// swaps in a disk-backed one.
    pub query_cache: bool,
}

impl Default for CheckerConfig {
    fn default() -> CheckerConfig {
        CheckerConfig {
            query_budget: 2_000_000,
            report_compiler_generated: false,
            threads: None,
            query_cache: true,
        }
    }
}

/// The pipeline's one counter struct, declared in `stack-solver` so the SAT
/// core and the query layer count into it too. The checker counts
/// `modules`, `functions` and `degraded_modules`; an
/// [`AnalysisSession`](crate::AnalysisSession) sums it across modules with
/// [`CheckStats::merge`].
pub use stack_solver::CheckStats;

/// Result of checking a module.
#[derive(Clone, Debug, Default)]
pub struct CheckResult {
    pub reports: Vec<BugReport>,
    pub stats: CheckStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Algorithm;
    use crate::session::AnalysisSession;
    use crate::ubcond::UbKind;

    fn check(src: &str) -> CheckResult {
        AnalysisSession::default()
            .check_source(src, "test.c")
            .unwrap()
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
        let permissive = AnalysisSession::new(CheckerConfig {
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
        assert!(!result.reports.is_empty());
    }

    #[test]
    fn stats_merge_adds_counts() {
        let a = check("int f(int x) { if (x + 1 < x) return 1; return 0; }");
        let b = check("int g(int *p) { int v = *p; if (!p) return 1; return v; }");
        assert!(!a.reports.is_empty() && !b.reports.is_empty());
        let mut merged = a.stats;
        merged.merge(&b.stats);
        assert_eq!(merged.modules, 2);
        assert_eq!(merged.functions, 2);
        assert_eq!(merged.queries, a.stats.queries + b.stats.queries);
    }

    /// A module with several functions, mixing unstable and stable code, two
    /// of them structurally identical.
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

    fn check_with(query_cache: bool) -> CheckResult {
        AnalysisSession::new(CheckerConfig {
            query_cache,
            ..CheckerConfig::default()
        })
        .check_source(MULTI_FUNCTION_SRC, "multi.c")
        .unwrap()
    }

    #[test]
    fn cache_disabled_matches_cache_enabled() {
        let cached = check_with(true);
        let uncached = check_with(false);
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

    /// The in-place edit behind the edit-tail archive's hardest queries
    /// (`gen-archive --packages 48 --seed 41 --edit-functions 12`, module
    /// `archive-0023_0`): the guard multiplies and divides by different
    /// constants.
    const EDITED_OVERFLOW_GUARD: &str =
        "int fn_234(int a, int b) { int p = a * 20005; int q = p / 55; \
         if (q != a) return -1; return p + b; }";

    #[test]
    fn solver_counters_surface_in_check_stats() {
        let result = check_with(false);
        assert!(result.stats.propagations > 0, "{:?}", result.stats);
        assert!(result.stats.conflicts > 0, "{:?}", result.stats);
        assert!(result.stats.learned_clauses > 0, "{:?}", result.stats);
        assert!(result.stats.avg_lbd() > 0.0, "{:?}", result.stats);
        assert!(result.stats.simulated > 0, "{:?}", result.stats);
    }

    #[test]
    fn edited_overflow_guard_stays_within_the_default_budget() {
        // Blasted without constant folding, three of the edited guard's
        // queries exceeded the default 2M-propagation budget.
        let result = AnalysisSession::new(CheckerConfig::default())
            .check_source(EDITED_OVERFLOW_GUARD, "archive-0023_0.mc")
            .unwrap();
        assert_eq!(result.stats.timeouts, 0, "{:?}", result.stats);
        assert_eq!(result.stats.degraded_modules, 0, "{:?}", result.stats);
    }

    #[test]
    fn sequential_branch_diamonds_stay_linear_in_model_checks() {
        // Every `if` diamond shares the reach terms of the ones before it,
        // so evaluating a model by walking the term tree (as the checks on
        // every Sat answer once did) doubles with each diamond: twelve took
        // minutes in a debug build.
        let mut src = String::from("int f(int x, int y, int z) { int s = 0;\n");
        for i in 0..12 {
            src.push_str(&format!(
                "if (x > {}) {{ s = s + y; }} else {{ s = s ^ z; }} if (z < {}) {{ s = s + 1; }}\n",
                i * 7,
                i * 3
            ));
        }
        src.push_str("if (s + 100 < s) return 1; return s; }\n");
        let result = check(&src);
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
    fn budget_exhausted_during_search_degrades_and_never_persists() {
        // A one-propagation budget is exhausted by the CDCL search itself:
        // the queries that reach it must degrade to `Unknown`, be counted as
        // timeouts and a degraded module, and leave nothing behind in the
        // query store. Simulation decides the Sat queries at any budget, and
        // those are stored like any decided result.
        let session = AnalysisSession::new(CheckerConfig {
            query_budget: 1,
            ..CheckerConfig::default()
        });
        let src = "int f(int x, int y) { if (x * y + 1 < x * y) return 1; return 0; }";
        let first = session.check_source(src, "deg.c").unwrap();
        assert!(first.stats.timeouts > 0, "{:?}", first.stats);
        assert_eq!(first.stats.degraded_modules, 1);
        assert!(
            first.reports.is_empty(),
            "Unknown must never become a report"
        );
        assert_eq!(
            session.store().stats().entries,
            first.stats.cache_misses - first.stats.timeouts,
            "degraded verdicts must never be persisted"
        );
        // Re-running reproduces the same degradation: every degraded query
        // is re-derived, none is served from the store.
        let second = session.check_source(src, "deg.c").unwrap();
        assert_eq!(first.stats.timeouts, second.stats.timeouts);
        assert_eq!(second.stats.cache_misses, first.stats.timeouts);
    }

    #[test]
    fn incremental_counters_accumulate() {
        let incremental = check_with(false);
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
    }

    #[test]
    fn cache_is_shared_across_check_calls() {
        let session = AnalysisSession::default();
        let src = "int f(int x) { if (x + 1 < x) return 1; return 0; }";
        let first = session.check_source(src, "a.c").unwrap();
        let second = session.check_source(src, "b.c").unwrap();
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
        let cache = session.store().stats();
        assert_eq!(
            cache.hits + cache.misses,
            first.stats.cache_hits
                + first.stats.cache_misses
                + second.stats.cache_hits
                + second.stats.cache_misses
        );
    }
}
