//! The pipeline's one counter struct.
//!
//! Every layer from the SAT core to the scan summary counts into a
//! [`CheckStats`], each adding to the fields it owns, and one
//! [`merge`](CheckStats::merge) combines them:
//!
//! * the SAT core ([`SatSolver`](crate::sat::SatSolver)) counts its search:
//!   `propagations`, `conflicts`, `restarts`, `learned_clauses`,
//!   `deleted_clauses`, `lbd_sum`, `cores_recorded` and `core_size_sum`;
//! * the query layer ([`BvSolver`](crate::solver::BvSolver)) counts queries
//!   and their verdicts (`queries`, `timeouts`, `cache_hits`,
//!   `cache_misses`, `sat_queries`, `unsat_queries`, `simulated`,
//!   `incremental_queries`, `reused_clauses`, `unsat_propagations`,
//!   `minimization_queries_saved`) and merges in the SAT core's work query
//!   by query;
//! * the checker in `stack-core` counts `modules`, `functions` and
//!   `degraded_modules` for each module it analyzes;
//! * the scan pipeline in `stack-core` adds the replayed functions and
//!   counts `modules_skipped` and `functions_skipped`.
//!
//! `model_cache_hits` and `core_cache_hits` are always 0.

/// Counters of the work behind a query, a module, or a whole scan (the
/// Figure 16 columns: queries and timeouts). See the [module
/// documentation](self) for which layer counts which field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Number of modules these statistics cover (1 for one module; the
    /// number of modules checked so far for a session aggregate).
    pub modules: usize,
    /// Modules whose results were replayed from a persisted scan store
    /// instead of analyzed — the incremental re-scan counter. Always ≤
    /// `modules`; 0 outside scan-store-backed pipelines.
    pub modules_skipped: usize,
    /// Number of functions covered (analyzed or replayed).
    pub functions: usize,
    /// Functions whose reports were replayed from a persisted scan store
    /// (per-function replay-key hit) instead of analyzed — the
    /// function-granular incremental re-scan counter. Always ≤ `functions`;
    /// 0 outside scan-store-backed pipelines.
    pub functions_skipped: usize,
    /// Total solver queries issued.
    pub queries: u64,
    /// Degraded queries: queries that exhausted their propagation budget and
    /// were answered `Unknown`. The checker treats an `Unknown`
    /// conservatively — never a report, never cached, never persisted.
    pub timeouts: u64,
    /// Modules with at least one degraded (budget-exhausted) query. Such a
    /// module's report set reflects the budget, not just the module, so it
    /// is never recorded in the scan store. Always ≤ `modules`.
    pub degraded_modules: usize,
    /// Queries answered from the attached query store.
    pub cache_hits: u64,
    /// Queries that consulted the store and missed.
    pub cache_misses: u64,
    /// Total SAT-core propagations, including those made while a query's
    /// assertions were blasted into the instance. This is the deterministic
    /// currency solver budgets are denominated in, and the `solver_speed`
    /// benchmark's measure of raw solver work.
    pub propagations: u64,
    /// SAT-core propagations spent on queries that ended `Unsat`.
    pub unsat_propagations: u64,
    /// Total SAT-core conflicts.
    pub conflicts: u64,
    /// Total SAT-core restarts.
    pub restarts: u64,
    /// Clauses learned by conflict analysis.
    pub learned_clauses: u64,
    /// Learned clauses evicted by clause-database reduction.
    pub deleted_clauses: u64,
    /// Sum of learn-time literal-block-distance values over all learned
    /// clauses; `lbd_sum / learned_clauses` is the average glue.
    pub lbd_sum: u64,
    /// Queries decided in the SAT core: store misses simulation could not
    /// answer, solved on their pool's persistent instance.
    pub incremental_queries: u64,
    /// Clause slots already loaded in the pool's instance when a SAT-core
    /// query started, before it registered its own assertions — formula
    /// reused across queries instead of re-emitted. Summed over SAT-core
    /// queries.
    pub reused_clauses: u64,
    /// Queries answered `Sat`. Together with `unsat_queries`, `timeouts`,
    /// and `simulated` this is the verdict breakdown.
    pub sat_queries: u64,
    /// Queries answered `Unsat`.
    pub unsat_queries: u64,
    /// Store misses answered `Sat` by simulation, without reaching the SAT
    /// core (a subset of `sat_queries`).
    pub simulated: u64,
    /// Always 0: the SAT core keeps no model cache. The field stays because
    /// the `perfbench` scan benchmark reads it.
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

    /// Add every counter of `other` to this one.
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
        self.incremental_queries += other.incremental_queries;
        self.reused_clauses += other.reused_clauses;
        self.sat_queries += other.sat_queries;
        self.unsat_queries += other.unsat_queries;
        self.simulated += other.simulated;
        self.model_cache_hits += other.model_cache_hits;
        self.core_cache_hits += other.core_cache_hits;
        self.cores_recorded += other.cores_recorded;
        self.core_size_sum += other.core_size_sum;
        self.minimization_queries_saved += other.minimization_queries_saved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every field, so a new field breaks the build here until the test
    /// names it.
    fn all(n: u64) -> CheckStats {
        let m = n as usize;
        CheckStats {
            modules: m,
            modules_skipped: m,
            functions: m,
            functions_skipped: m,
            queries: n,
            timeouts: n,
            degraded_modules: m,
            cache_hits: n,
            cache_misses: n,
            propagations: n,
            unsat_propagations: n,
            conflicts: n,
            restarts: n,
            learned_clauses: n,
            deleted_clauses: n,
            lbd_sum: n,
            incremental_queries: n,
            reused_clauses: n,
            sat_queries: n,
            unsat_queries: n,
            simulated: n,
            model_cache_hits: n,
            core_cache_hits: n,
            cores_recorded: n,
            core_size_sum: n,
            minimization_queries_saved: n,
        }
    }

    #[test]
    fn merge_adds_every_field() {
        let mut merged = all(1);
        merged.merge(&all(1));
        assert_eq!(merged, all(2));
    }
}
