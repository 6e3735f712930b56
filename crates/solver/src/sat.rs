//! A CDCL SAT solver.
//!
//! The solver implements the standard conflict-driven clause learning loop:
//! two-watched-literal unit propagation, first-UIP conflict analysis with
//! clause minimization by self-subsumption against reason clauses, VSIDS
//! variable activity with phase saving, Luby restarts, and learned-clause
//! database reduction keyed on literal block distance (LBD, "glue"). It
//! supports solving under assumptions (needed by the minimal-UB-set
//! computation in the checker) and a deterministic resource budget measured
//! in propagations so that "timeouts" are reproducible.
//!
//! On top of the search loop sits a deterministic simplification layer
//! ([`preprocess`](SatSolver::preprocess)): failed-literal probing at the
//! root level and clause subsumption + self-subsumption strengthening, plus
//! periodic clause vivification between restarts. All of it is charged
//! against the same propagation budget as the search itself, so a degraded
//! `Unknown` verdict is byte-reproducible no matter where the budget ran
//! out.

use crate::cnf::{Clause, ClauseDb, ClauseRef};
use crate::lit::{LBool, Lit, Var};

/// Result of a satisfiability query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// A satisfying assignment was found.
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The resource budget was exhausted before a decision was reached.
    Unknown,
}

/// A watcher entry: a clause reference plus a "blocker" literal that is often
/// already true, letting propagation skip the clause without touching it.
#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Deterministic resource budget for a single `solve` call.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Maximum number of unit propagations; `u64::MAX` means unlimited.
    pub max_propagations: u64,
    /// Maximum number of conflicts; `u64::MAX` means unlimited.
    pub max_conflicts: u64,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget {
            max_propagations: u64::MAX,
            max_conflicts: u64::MAX,
        }
    }
}

impl Budget {
    /// An unlimited budget.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A budget bounded by a number of propagations.
    pub fn propagations(n: u64) -> Budget {
        Budget {
            max_propagations: n,
            max_conflicts: u64::MAX,
        }
    }
}

/// Statistics accumulated across `solve` calls.
#[derive(Clone, Copy, Default, Debug)]
pub struct SatStats {
    pub decisions: u64,
    pub propagations: u64,
    /// The subset of `propagations` spent inside the pre/inprocessing
    /// passes (probing + HBR harvest, subsumption, vivification).
    /// Instance setup and restart-time maintenance, not per-query search —
    /// callers attributing propagation cost to individual queries subtract
    /// this so the query that happens to trigger a pass is not charged for
    /// work amortized across the whole instance.
    pub preprocess_propagations: u64,
    pub conflicts: u64,
    pub restarts: u64,
    pub learned_literals: u64,
    /// Clauses learned by conflict analysis.
    pub learned_clauses: u64,
    /// Learned clauses evicted by database reduction.
    pub deleted_clauses: u64,
    /// Sum of learn-time LBD over all learned clauses; the average glue is
    /// `lbd_sum / learned_clauses`.
    pub lbd_sum: u64,
    /// Facts removed by pre/inprocessing: subsumed clauses, strengthened
    /// literals, failed literals, vivified clauses.
    pub preprocess_eliminations: u64,
    /// `Sat` answers served from the still-valid trail or the cached-model
    /// store in zero propagations.
    pub model_cache_hits: u64,
    /// Assumption cores extracted after `Unsat` answers.
    pub cores_recorded: u64,
    /// Sum of literal counts over recorded cores; the average core size is
    /// `core_size_sum / cores_recorded`.
    pub core_size_sum: u64,
    /// Binary clauses added by hyper-binary resolution during probing.
    pub hbr_binaries_added: u64,
    /// Learned clauses evicted from the mid (tier2) tier for staying unused
    /// across a whole sweep interval.
    pub deleted_tier2: u64,
    /// Learned clauses evicted from the local (high-LBD) tier.
    pub deleted_local: u64,
}

impl SatStats {
    /// Average learn-time LBD over all learned clauses (0 when nothing was
    /// learned).
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
}

/// The CDCL solver.
pub struct SatSolver {
    clauses: ClauseDb,
    watches: Vec<Vec<Watcher>>,
    /// Binary clauses get a dedicated implication list per literal (the
    /// other literal plus the clause reference for conflict analysis), so
    /// propagating them never dereferences clause memory — on blasted
    /// circuits binary clauses dominate the watch traffic, and this is the
    /// difference between one cache line and three per implication. Only
    /// populated when `preprocessing` is on; with it off every clause goes
    /// through the plain watch lists, reproducing the prior solver.
    binary_watches: Vec<Vec<(Lit, ClauseRef)>>,
    assigns: Vec<LBool>,
    /// Saved phase per variable, used as the decision polarity.
    phases: Vec<bool>,
    levels: Vec<u32>,
    reasons: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    /// Head of the propagation queue within the trail.
    qhead: usize,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    /// Binary-heap order of unassigned variables by activity.
    heap: Vec<Var>,
    heap_index: Vec<Option<usize>>,
    /// Scratch space for conflict analysis.
    seen: Vec<bool>,
    /// Whether the root-level formula is already known to be unsatisfiable.
    unsat: bool,
    stats: SatStats,
    budget_propagations: u64,
    budget_conflicts: u64,
    /// Conflicts seen in the current solve call (for budget accounting).
    solve_conflicts: u64,
    solve_propagations: u64,
    /// Budget-charged work a `preprocess` call performed; consumed (counted
    /// against the budget) by the next `solve_with` call.
    carryover: u64,
    max_learned: usize,
    /// Whether pre/inprocessing and LBD-aware reduction are enabled
    /// (disabling reverts to the plain activity-only CDCL loop).
    preprocessing: bool,
    /// The assumption sequence the current trail's decision levels were
    /// established for (level i+1 holds assumption i). Lets the next
    /// `solve_with` keep the still-matching prefix of the trail instead of
    /// re-propagating the whole circuit from the root — consecutive queries
    /// on one instance typically share all but one assumption. Only
    /// maintained when `preprocessing` is on.
    last_assumptions: Vec<Lit>,
    /// Whether the trail currently holds the total assignment of the last
    /// `Sat` answer with the formula unchanged since. If that model already
    /// satisfies the next query's assumptions it is a witness for that query
    /// too, and the solve is answered in zero propagations. Cleared by
    /// anything that touches the formula or the trail from outside.
    model_valid: bool,
    /// Recent total models (newest last), kept in side storage so they
    /// survive Unsat queries and trail churn. Every derived clause (learned,
    /// probed, strengthened) is entailed by the original formula, so a total
    /// model stays a model until `add_clause` grows the formula — the only
    /// point that clears this cache. Checked at solve entry: any cached
    /// model satisfying all assumptions answers `Sat` in zero propagations.
    cached_models: Vec<Vec<bool>>,
    /// Index into `cached_models` the last `Sat` answer was served from,
    /// so `model_value` reads the witness that was actually returned rather
    /// than whatever the trail holds. Cleared at the next solve call.
    cached_model_hit: Option<usize>,
    /// Whether hyper-binary resolution runs during failed-literal probing.
    hbr: bool,
    /// The assumption core of the last `Unsat` answer (empty when the
    /// formula itself is root-unsat), for callers seeding minimization.
    /// `None` after `Sat`/`Unknown` answers.
    last_core: Option<Vec<Lit>>,
    /// Count of `reduce_db` invocations, pacing the tier2 sweep cadence.
    reduce_calls: u64,
}

impl Default for SatSolver {
    fn default() -> SatSolver {
        SatSolver::new()
    }
}

impl SatSolver {
    /// Create an empty solver.
    pub fn new() -> SatSolver {
        SatSolver {
            clauses: ClauseDb::new(),
            watches: Vec::new(),
            binary_watches: Vec::new(),
            last_assumptions: Vec::new(),
            model_valid: false,
            cached_models: Vec::new(),
            cached_model_hit: None,
            assigns: Vec::new(),
            phases: Vec::new(),
            levels: Vec::new(),
            reasons: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: Vec::new(),
            heap_index: Vec::new(),
            seen: Vec::new(),
            unsat: false,
            stats: SatStats::default(),
            budget_propagations: u64::MAX,
            budget_conflicts: u64::MAX,
            solve_conflicts: 0,
            solve_propagations: 0,
            carryover: 0,
            max_learned: 4000,
            preprocessing: true,
            hbr: true,
            last_core: None,
            reduce_calls: 0,
        }
    }

    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.phases.push(false);
        self.levels.push(0);
        self.reasons.push(None);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.binary_watches.push(Vec::new());
        self.binary_watches.push(Vec::new());
        self.heap_index.push(None);
        self.heap_insert(v);
        v
    }

    /// Enable or disable pre/inprocessing and LBD-aware clause management.
    /// With it off, [`preprocess`](SatSolver::preprocess) is a no-op, no
    /// vivification runs between restarts, and database reduction falls back
    /// to the plain activity ordering — the pre-LBD solver, kept reachable
    /// as the benchmark baseline and via `--no-preprocess`.
    pub fn set_preprocessing(&mut self, on: bool) {
        self.preprocessing = on;
    }

    /// Enable or disable hyper-binary resolution during failed-literal
    /// probing (`--no-hbr` reverts to plain probing).
    pub fn set_hbr(&mut self, on: bool) {
        self.hbr = on;
    }

    /// The assumption core of the last `Unsat` answer: a subset of the
    /// query's assumptions that is already unsatisfiable with the formula
    /// (empty when the formula is root-unsat, so *any* assumption set is
    /// Unsat). `None` after non-`Unsat` answers.
    pub fn last_core(&self) -> Option<&[Lit]> {
        self.last_core.as_deref()
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of clause slots in the database (original and learned,
    /// including slots whose clause was deleted by database reduction).
    /// Incremental callers use this to measure how much already-loaded
    /// formula a [`solve_with`](SatSolver::solve_with) call reuses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Undo every assignment above the root decision level.
    ///
    /// After a `Sat` answer the trail is intentionally left intact so
    /// [`model_value`](SatSolver::model_value) can read the assignment;
    /// incremental callers must return to the root level before adding more
    /// clauses. Calling this at the root level is a no-op.
    pub fn cancel_until_root(&mut self) {
        self.model_valid = false;
        self.backtrack(0);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SatStats {
        self.stats
    }

    /// Current truth value of a literal.
    fn value_lit(&self, lit: Lit) -> LBool {
        let v = self.assigns[lit.var().index()];
        if lit.is_positive() {
            v
        } else {
            v.negate()
        }
    }

    /// Current decision level.
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Add a clause to the formula. Returns `false` if the clause makes the
    /// formula trivially unsatisfiable at the root level.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        // Clauses join the formula at the root: cancel any leftover trail
        // (kept around between solves so a later query can reuse it) before
        // normalizing against root values. The old models no longer speak
        // for the grown formula.
        self.model_valid = false;
        self.cached_models.clear();
        self.cached_model_hit = None;
        self.backtrack(0);
        if self.unsat {
            return false;
        }
        // Normalize: drop duplicate and false literals, detect tautologies
        // and already-satisfied clauses.
        let mut norm: Vec<Lit> = Vec::with_capacity(lits.len());
        for &lit in lits {
            match self.value_lit(lit) {
                LBool::True => return true,
                LBool::False => continue,
                LBool::Undef => {}
            }
            if norm.contains(&!lit) {
                return true; // tautology
            }
            if !norm.contains(&lit) {
                norm.push(lit);
            }
        }
        match norm.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.enqueue(norm[0], None);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                let cref = self.clauses.add(Clause::new(norm, false));
                self.attach(cref);
                true
            }
        }
    }

    /// Attach the first two literals of a clause to the watch lists. Binary
    /// clauses go to the dedicated implication lists when pre/inprocessing
    /// is enabled (see `binary_watches`); a clause stays wherever it was
    /// attached until detached, so flipping the flag mid-life is safe.
    fn attach(&mut self, cref: ClauseRef) {
        let (l0, l1, binary) = {
            let c = self.clauses.get(cref);
            (c.lits[0], c.lits[1], c.len() == 2)
        };
        if binary && self.preprocessing {
            self.binary_watches[(!l0).index()].push((l1, cref));
            self.binary_watches[(!l1).index()].push((l0, cref));
        } else {
            self.watches[(!l0).index()].push(Watcher { cref, blocker: l1 });
            self.watches[(!l1).index()].push(Watcher { cref, blocker: l0 });
        }
    }

    /// Assign a literal true, recording its reason clause.
    fn enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) {
        debug_assert!(self.value_lit(lit).is_undef());
        let v = lit.var();
        self.assigns[v.index()] = LBool::from_bool(lit.is_positive());
        self.phases[v.index()] = lit.is_positive();
        self.levels[v.index()] = self.decision_level();
        self.reasons[v.index()] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation. Returns the conflicting clause if a conflict arises.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            self.solve_propagations += 1;

            // Binary implications first: the watch entry carries everything
            // needed, so no clause memory is touched. The list is never
            // mutated while scanning (enqueue only grows the trail).
            let mut k = 0;
            while k < self.binary_watches[p.index()].len() {
                let (other, cref) = self.binary_watches[p.index()][k];
                k += 1;
                match self.value_lit(other) {
                    LBool::True => {}
                    LBool::Undef => self.enqueue(other, Some(cref)),
                    LBool::False => {
                        conflict = Some(cref);
                        self.qhead = self.trail.len();
                        break;
                    }
                }
            }
            if conflict.is_some() {
                break;
            }

            let mut i = 0;
            let mut j = 0;
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Fast path: the blocker literal is already true.
                if self.value_lit(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                if self.clauses.get(cref).deleted {
                    continue;
                }
                // Make sure the false literal (!p) is at position 1.
                {
                    let c = self.clauses.get_mut(cref);
                    if c.lits[0] == !p {
                        c.lits.swap(0, 1);
                    }
                }
                let first = self.clauses.get(cref).lits[0];
                if first != w.blocker && self.value_lit(first) == LBool::True {
                    ws[j] = Watcher {
                        cref,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.clauses.get(cref).len();
                for k in 2..len {
                    let lk = self.clauses.get(cref).lits[k];
                    if self.value_lit(lk) != LBool::False {
                        self.clauses.get_mut(cref).lits.swap(1, k);
                        self.watches[(!lk).index()].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // No new watch: the clause is unit or conflicting.
                ws[j] = Watcher {
                    cref,
                    blocker: first,
                };
                j += 1;
                if self.value_lit(first) == LBool::False {
                    // Conflict: copy the remaining watchers back and stop.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                } else {
                    self.enqueue(first, Some(cref));
                }
            }
            ws.truncate(j);
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    /// Bump a variable's VSIDS activity.
    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if let Some(pos) = self.heap_index[v.index()] {
            self.heap_sift_up(pos);
        }
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let c = self.clauses.get_mut(cref);
        if !c.learned {
            return;
        }
        c.used = true;
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            let refs = self.clauses.learned_refs();
            for r in refs {
                self.clauses.get_mut(r).activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Returns the learned clause (with the
    /// asserting literal first), the backtrack level, and the clause's
    /// literal block distance.
    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32, u32) {
        let mut learned: Vec<Lit> = vec![Lit::new(Var(0), true)]; // placeholder slot 0
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut cref = conflict;
        let mut trail_idx = self.trail.len();
        let current_level = self.decision_level();

        loop {
            self.bump_clause(cref);
            let lits: Vec<Lit> = self.clauses.get(cref).lits.clone();
            // Skip the implied literal by variable, not by position: long
            // clauses keep it at slot 0, but binary implications enqueue
            // straight off the implication list without reordering.
            for &q in &lits {
                if p.is_some_and(|pl| pl.var() == q.var()) {
                    continue;
                }
                let v = q.var();
                if !self.seen[v.index()] && self.levels[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.levels[v.index()] >= current_level {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Find the next literal on the trail that participates in the
            // conflict at the current level.
            loop {
                trail_idx -= 1;
                let lit = self.trail[trail_idx];
                if self.seen[lit.var().index()] {
                    p = Some(lit);
                    break;
                }
            }
            let pv = p.unwrap().var();
            self.seen[pv.index()] = false;
            counter -= 1;
            if counter == 0 {
                learned[0] = !p.unwrap();
                break;
            }
            cref = self.reasons[pv.index()].expect("non-decision literal must have a reason");
        }

        // Clause minimization: drop literals whose reason clause is entirely
        // covered by the rest of the learned clause (local minimization).
        // Note: the `seen` flags must be cleared for the *original* clause
        // afterwards, not the minimized one, or stale flags corrupt the next
        // conflict analysis.
        let original = learned.clone();
        let mut minimized = vec![learned[0]];
        for &lit in &learned[1..] {
            let v = lit.var();
            let redundant = match self.reasons[v.index()] {
                None => false,
                Some(reason) => self.clauses.get(reason).lits.iter().all(|&q| {
                    q.var() == v || self.seen[q.var().index()] || self.levels[q.var().index()] == 0
                }),
            };
            if !redundant {
                minimized.push(lit);
            }
        }
        let learned = minimized;

        // Compute the backtrack level: the highest level among the non-asserting
        // literals (0 for unit learned clauses).
        let backtrack_level = if learned.len() == 1 {
            0
        } else {
            let mut max_level = 0;
            for &lit in &learned[1..] {
                max_level = max_level.max(self.levels[lit.var().index()]);
            }
            max_level
        };

        // LBD: the number of distinct decision levels among the (minimized)
        // learned clause's literals. Computed before backtracking, while the
        // levels are still those of the conflicting assignment.
        let mut lbd_levels: Vec<u32> = learned
            .iter()
            .map(|&lit| self.levels[lit.var().index()])
            .collect();
        lbd_levels.sort_unstable();
        lbd_levels.dedup();
        let lbd = lbd_levels.len() as u32;

        for &lit in &original {
            self.seen[lit.var().index()] = false;
        }
        self.stats.learned_literals += learned.len() as u64;
        self.stats.learned_clauses += 1;
        self.stats.lbd_sum += u64::from(lbd);
        (learned, backtrack_level, lbd)
    }

    /// Undo assignments above the given decision level.
    fn backtrack(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level as usize];
        for idx in (target..self.trail.len()).rev() {
            let lit = self.trail[idx];
            let v = lit.var();
            self.assigns[v.index()] = LBool::Undef;
            self.phases[v.index()] = lit.is_positive();
            self.reasons[v.index()] = None;
            if self.heap_index[v.index()].is_none() {
                self.heap_insert(v);
            }
        }
        self.trail.truncate(target);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    /// Record the learned clause and assert its first literal.
    fn learn(&mut self, learned: Vec<Lit>, lbd: u32) {
        let asserting = learned[0];
        if learned.len() == 1 {
            self.enqueue(asserting, None);
        } else {
            // Ensure the second watched literal has the highest level so the
            // clause becomes unit exactly at the backtrack level.
            let mut lits = learned;
            let mut best = 1;
            for k in 2..lits.len() {
                if self.levels[lits[k].var().index()] > self.levels[lits[best].var().index()] {
                    best = k;
                }
            }
            lits.swap(1, best);
            let cref = self.clauses.add(Clause::learned_with_lbd(lits, lbd));
            self.attach(cref);
            self.bump_clause(cref);
            self.enqueue(asserting, Some(cref));
        }
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    /// Learned-clause database reduction. With preprocessing on, the
    /// database is managed in three tiers by learn-time LBD:
    ///
    /// - **core** (`lbd <= 2`): glue clauses, never evicted;
    /// - **tier2** (`2 < lbd <= TIER2_MAX_LBD`): kept while recently used.
    ///   Every second reduction sweeps the tier, evicting clauses whose
    ///   `used` stamp stayed clear since the previous sweep and clearing
    ///   the stamp on survivors;
    /// - **local** (`lbd > TIER2_MAX_LBD`): half evicted on every call,
    ///   worst first.
    ///
    /// With preprocessing off this is the plain lowest-activity-first
    /// halving of the pre-LBD solver. All orderings end with the clause id
    /// so float-equal activities cannot make eviction order run-dependent.
    fn reduce_db(&mut self) {
        const TIER2_MAX_LBD: u32 = 6;
        self.reduce_calls += 1;
        let mut refs = self.clauses.learned_refs();
        refs.retain(|&r| {
            let c = self.clauses.get(r);
            if self.preprocessing && c.lbd <= 2 {
                return false; // glue: never an eviction candidate
            }
            // Keep clauses that are the reason of a current assignment.
            !c.lits
                .first()
                .map(|&l| self.reasons[l.var().index()] == Some(r))
                .unwrap_or(false)
        });
        if self.preprocessing {
            // Local tier: halve, worst (highest LBD, lowest activity) first.
            let mut local: Vec<ClauseRef> = refs
                .iter()
                .copied()
                .filter(|&r| self.clauses.get(r).lbd > TIER2_MAX_LBD)
                .collect();
            local.sort_by(|&a, &b| {
                let (ca, cb) = (self.clauses.get(a), self.clauses.get(b));
                cb.lbd
                    .cmp(&ca.lbd)
                    .then(
                        ca.activity
                            .partial_cmp(&cb.activity)
                            .unwrap_or(std::cmp::Ordering::Equal),
                    )
                    .then(a.0.cmp(&b.0))
            });
            let evict = local.len() / 2;
            for &r in local.iter().take(evict) {
                self.detach(r);
                self.clauses.delete(r);
                self.stats.deleted_clauses += 1;
                self.stats.deleted_local += 1;
            }
            // Tier2 sweep on alternate calls: evict what stayed unused over
            // the whole interval, re-arm survivors for the next one.
            if self.reduce_calls.is_multiple_of(2) {
                let tier2: Vec<ClauseRef> = refs
                    .iter()
                    .copied()
                    .filter(|&r| self.clauses.get(r).lbd <= TIER2_MAX_LBD)
                    .collect();
                for r in tier2 {
                    if self.clauses.get(r).used {
                        self.clauses.get_mut(r).used = false;
                    } else {
                        self.detach(r);
                        self.clauses.delete(r);
                        self.stats.deleted_clauses += 1;
                        self.stats.deleted_tier2 += 1;
                    }
                }
            }
        } else {
            refs.sort_by(|&a, &b| {
                self.clauses
                    .get(a)
                    .activity
                    .partial_cmp(&self.clauses.get(b).activity)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });
            for &r in refs.iter().take(refs.len() / 2) {
                self.detach(r);
                self.clauses.delete(r);
                self.stats.deleted_clauses += 1;
            }
        }
    }

    /// Remove a clause from the watch lists. Binary clauses scrub both the
    /// implication lists and the plain lists: which one the clause lives in
    /// depends on the preprocessing flag at attach time, not now.
    fn detach(&mut self, cref: ClauseRef) {
        let (l0, l1, binary) = {
            let c = self.clauses.get(cref);
            (c.lits[0], c.lits[1], c.len() == 2)
        };
        if binary {
            self.binary_watches[(!l0).index()].retain(|&(_, r)| r != cref);
            self.binary_watches[(!l1).index()].retain(|&(_, r)| r != cref);
        }
        self.watches[(!l0).index()].retain(|w| w.cref != cref);
        self.watches[(!l1).index()].retain(|w| w.cref != cref);
    }

    // ---- VSIDS order heap -------------------------------------------------

    fn heap_less(&self, a: Var, b: Var) -> bool {
        self.activity[a.index()] > self.activity[b.index()]
    }

    fn heap_insert(&mut self, v: Var) {
        let pos = self.heap.len();
        self.heap.push(v);
        self.heap_index[v.index()] = Some(pos);
        self.heap_sift_up(pos);
    }

    fn heap_sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.heap_less(self.heap[pos], self.heap[parent]) {
                self.heap_swap(pos, parent);
                pos = parent;
            } else {
                break;
            }
        }
    }

    fn heap_sift_down(&mut self, mut pos: usize) {
        loop {
            let left = 2 * pos + 1;
            let right = 2 * pos + 2;
            let mut best = pos;
            if left < self.heap.len() && self.heap_less(self.heap[left], self.heap[best]) {
                best = left;
            }
            if right < self.heap.len() && self.heap_less(self.heap[right], self.heap[best]) {
                best = right;
            }
            if best == pos {
                break;
            }
            self.heap_swap(pos, best);
            pos = best;
        }
    }

    fn heap_swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.heap_index[self.heap[a].index()] = Some(a);
        self.heap_index[self.heap[b].index()] = Some(b);
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.len() - 1;
        self.heap_swap(0, last);
        self.heap.pop();
        self.heap_index[top.index()] = None;
        if !self.heap.is_empty() {
            self.heap_sift_down(0);
        }
        Some(top)
    }

    /// Pick the next decision variable: the unassigned variable with the
    /// highest activity, assigned its saved phase.
    fn decide(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap_pop() {
            if self.assigns[v.index()].is_undef() {
                self.stats.decisions += 1;
                return Some(Lit::new(v, self.phases[v.index()]));
            }
        }
        None
    }

    // ---- Top-level solving ------------------------------------------------

    /// Solve the formula with no assumptions and no budget.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with(&[], Budget::unlimited())
    }

    /// Solve under assumptions, with a resource budget.
    ///
    /// Assumptions are treated as forced decisions at the bottom of the
    /// search; if any assumption conflicts with the formula the result is
    /// `Unsat` (for this call only — the formula itself is untouched).
    pub fn solve_with(&mut self, assumptions: &[Lit], budget: Budget) -> SatResult {
        self.last_core = None;
        if self.unsat {
            // Root-unsat: the empty core. Any assumption set is a superset.
            self.last_core = Some(Vec::new());
            return SatResult::Unsat;
        }
        // Model shortcut: the last query's total assignment is still on the
        // trail and the formula has not changed since. If it satisfies every
        // assumption it is a witness for this query too — answer without a
        // single propagation. Alternating easy Sat queries on one instance
        // hit this constantly.
        self.cached_model_hit = None;
        if self.preprocessing
            && self.model_valid
            && !assumptions.is_empty()
            && assumptions
                .iter()
                .all(|&a| self.value_lit(a) == LBool::True)
        {
            self.stats.model_cache_hits += 1;
            return SatResult::Sat;
        }
        // Second chance: a slightly older cached model. Unlike the trail,
        // the cache survives intervening Unsat answers, so a run of mixed
        // verdicts doesn't forfeit every later Sat shortcut. Scanned newest
        // first; the trail and saved phases are left untouched so the kept
        // decision levels stay reusable for the next full search.
        if self.preprocessing && !assumptions.is_empty() {
            let hit = self.cached_models.iter().rposition(|m| {
                assumptions
                    .iter()
                    .all(|&a| m.get(a.var().index()).copied() == Some(a.is_positive()))
            });
            if let Some(i) = hit {
                self.cached_model_hit = Some(i);
                self.stats.model_cache_hits += 1;
                return SatResult::Sat;
            }
        }
        self.budget_propagations = budget.max_propagations;
        self.budget_conflicts = budget.max_conflicts;
        self.solve_conflicts = 0;
        // Work a preceding `preprocess` call performed counts against this
        // call's budget, so a budget-degraded verdict lands on exactly the
        // same query no matter how the work was split between the phases.
        self.solve_propagations = std::mem::take(&mut self.carryover);

        // Trail reuse: consecutive queries on one instance typically share
        // most of their assumptions, and re-establishing a shared assumption
        // re-propagates the whole blasted circuit. Reorder the new
        // assumptions to front-load the overlap with the previous query and
        // keep the still-matching decision levels. Kept literals are entailed
        // by the formula plus the kept assumptions, and learned clauses are
        // formula-entailed, so delayed propagation of them is sound: a Sat
        // answer is still checked by every original clause, and Unsat
        // derivations only resolve existing clauses. Anything that touches
        // the clause set (add_clause, preprocess, cancel_until_root)
        // backtracks to the root first, which disables reuse on its own.
        let ordered: Vec<Lit>;
        let assumptions: &[Lit] = if self.preprocessing && !assumptions.is_empty() {
            ordered = self.reorder_assumptions(assumptions);
            let mut keep = 0u32;
            while (keep as usize) < ordered.len()
                && keep < self.decision_level()
                && self.last_assumptions.get(keep as usize) == Some(&ordered[keep as usize])
            {
                keep += 1;
            }
            self.backtrack(keep);
            self.last_assumptions.clone_from(&ordered);
            &ordered
        } else {
            self.backtrack(0);
            self.last_assumptions.clear();
            assumptions
        };
        if self.decision_level() == 0 && self.propagate().is_some() {
            self.unsat = true;
            self.last_core = Some(Vec::new());
            return SatResult::Unsat;
        }

        let mut restart_count = 0u64;
        let mut conflicts_since_restart = 0u64;
        let result = loop {
            // (Re-)establish the assumptions after any restart.
            if self.decision_level() < assumptions.len() as u32 {
                let a = assumptions[self.decision_level() as usize];
                match self.value_lit(a) {
                    LBool::True => {
                        // Already implied; open an empty decision level so the
                        // remaining assumptions keep their positions.
                        self.trail_lim.push(self.trail.len());
                        continue;
                    }
                    LBool::False => {
                        // The assumption is already falsified: the trail
                        // implies `!a` from the formula plus earlier
                        // assumptions. The core is `a` itself plus whatever
                        // assumptions forced `!a`.
                        let core = self.analyze_final_from(&[!a], vec![a]);
                        self.record_core(core);
                        break SatResult::Unsat;
                    }
                    LBool::Undef => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(a, None);
                    }
                }
            } else if let Some(decision) = self.decide() {
                self.trail_lim.push(self.trail.len());
                self.enqueue(decision, None);
            } else {
                break SatResult::Sat;
            }

            loop {
                match self.propagate() {
                    None => break,
                    Some(conflict) => {
                        self.stats.conflicts += 1;
                        self.solve_conflicts += 1;
                        conflicts_since_restart += 1;
                        if self.decision_level() == 0 {
                            self.unsat = true;
                            self.last_core = Some(Vec::new());
                            return SatResult::Unsat;
                        }
                        if self.decision_level() <= assumptions.len() as u32 {
                            // Conflict within the assumption levels: the
                            // assumptions are inconsistent with the formula.
                            // Extract the responsible assumption subset from
                            // the conflicting clause before the trail goes.
                            let seeds = self.clauses.get(conflict).lits.clone();
                            let core = self.analyze_final_from(&seeds, Vec::new());
                            self.record_core(core);
                            self.backtrack(0);
                            return SatResult::Unsat;
                        }
                        let (learned, level, lbd) = self.analyze(conflict);
                        let level = level.max(assumptions.len() as u32);
                        self.backtrack(level);
                        // If backtracking landed inside assumption levels and
                        // the asserting literal is already false there, the
                        // assumptions are inconsistent.
                        if self.value_lit(learned[0]) == LBool::False {
                            // The learned clause is formula-entailed and all
                            // its literals are falsified by the remaining
                            // (assumption-level) trail: its seeds trace to an
                            // assumption core.
                            let core = self.analyze_final_from(&learned, Vec::new());
                            self.record_core(core);
                            self.backtrack(0);
                            return SatResult::Unsat;
                        }
                        if self.value_lit(learned[0]) == LBool::True {
                            // Already satisfied after backtracking (can happen
                            // when clamped to the assumption level); just
                            // record the clause if it is not unit.
                            if learned.len() > 1 {
                                let mut lits = learned;
                                let cref = {
                                    let mut best = 1;
                                    for k in 2..lits.len() {
                                        if self.levels[lits[k].var().index()]
                                            > self.levels[lits[best].var().index()]
                                        {
                                            best = k;
                                        }
                                    }
                                    lits.swap(1, best);
                                    self.clauses.add(Clause::learned_with_lbd(lits, lbd))
                                };
                                self.attach(cref);
                            }
                        } else {
                            self.learn(learned, lbd);
                        }
                    }
                }
                if self.solve_propagations > self.budget_propagations
                    || self.solve_conflicts > self.budget_conflicts
                {
                    self.backtrack(0);
                    return SatResult::Unknown;
                }
            }

            if self.solve_propagations > self.budget_propagations
                || self.solve_conflicts > self.budget_conflicts
            {
                self.backtrack(0);
                return SatResult::Unknown;
            }

            // Luby restarts, with periodic clause vivification between them
            // (inprocessing; its propagations are budget-charged like any
            // other, so degraded verdicts stay deterministic).
            let restart_limit = 64 * luby(restart_count);
            if conflicts_since_restart >= restart_limit {
                restart_count += 1;
                self.stats.restarts += 1;
                conflicts_since_restart = 0;
                self.backtrack(0);
                if self.preprocessing && restart_count.is_multiple_of(4) {
                    let pre_start = self.stats.propagations;
                    self.vivify_round(24);
                    self.stats.preprocess_propagations += self.stats.propagations - pre_start;
                    if self.unsat {
                        self.last_core = Some(Vec::new());
                        return SatResult::Unsat;
                    }
                }
            }

            if self.clauses.num_learned > self.max_learned + self.trail.len() {
                self.reduce_db();
            }
        };

        self.model_valid = result == SatResult::Sat;
        if result == SatResult::Sat && self.preprocessing {
            self.cache_model();
        }
        result
    }

    /// Snapshot the current total model (as [`model_value`] reports it)
    /// into the bounded model cache.
    fn cache_model(&mut self) {
        const MODEL_CACHE: usize = 4;
        let m: Vec<bool> = (0..self.assigns.len())
            .map(|i| self.model_value(Var(i as u32)))
            .collect();
        if self.cached_models.last() == Some(&m) {
            return;
        }
        if self.cached_models.len() == MODEL_CACHE {
            self.cached_models.remove(0);
        }
        self.cached_models.push(m);
    }

    /// Final-conflict analysis: compute the subset of the current query's
    /// assumptions responsible for falsifying the seed literals' negations —
    /// i.e. every seed's variable is assigned on the trail and the walk
    /// explains those assignments down to assumption decisions. `core`
    /// arrives pre-seeded with literals already known to belong (the
    /// directly falsified assumption at the establish-assumption exit) and
    /// is returned sorted by literal index, making cores canonical.
    ///
    /// Soundness relies on an invariant of the assumption exits: every
    /// reason-`None` trail literal above the root level is an assumption of
    /// the current query, because conflicts at or below the assumption
    /// levels occur before any real decision survives on the trail.
    fn analyze_final_from(&mut self, seeds: &[Lit], mut core: Vec<Lit>) -> Vec<Lit> {
        let root = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        for s in seeds {
            if self.levels[s.var().index()] > 0 {
                self.seen[s.var().index()] = true;
            }
        }
        for idx in (root..self.trail.len()).rev() {
            let lit = self.trail[idx];
            let v = lit.var();
            if !self.seen[v.index()] {
                continue;
            }
            self.seen[v.index()] = false;
            match self.reasons[v.index()] {
                None => core.push(lit),
                Some(reason) => {
                    let lits: Vec<Lit> = self.clauses.get(reason).lits.clone();
                    for q in lits {
                        if q.var() != v && self.levels[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
        }
        // Every marked variable sits at or above `root` on the trail and is
        // visited by the walk; scrub the seeds anyway so a future invariant
        // slip cannot leak flags into conflict analysis.
        for s in seeds {
            self.seen[s.var().index()] = false;
        }
        core.sort_unstable_by_key(|l| l.index());
        core.dedup();
        core
    }

    /// Publish a freshly extracted assumption core as `last_core` and
    /// account it in the stats.
    fn record_core(&mut self, core: Vec<Lit>) {
        self.stats.cores_recorded += 1;
        self.stats.core_size_sum += core.len() as u64;
        self.last_core = Some(core);
    }

    /// Value of a variable in the model found by the last successful solve.
    pub fn model_value(&self, v: Var) -> bool {
        // A `Sat` served from the model cache reports that cached witness,
        // not whatever older assignment the (untouched) trail holds.
        if let Some(i) = self.cached_model_hit {
            if let Some(&b) = self.cached_models[i].get(v.index()) {
                return b;
            }
        }
        match self.assigns[v.index()] {
            LBool::True => true,
            LBool::False => false,
            // Variables not constrained by any clause may remain unassigned;
            // any value satisfies the formula, pick the saved phase.
            LBool::Undef => self.phases[v.index()],
        }
    }

    // ---- Pre/inprocessing -------------------------------------------------

    /// One-shot deterministic preprocessing, run at the root level before
    /// (or between) solves: failed-literal probing and clause subsumption +
    /// self-subsumption strengthening. Both preserve logical equivalence, so
    /// they are safe under later incremental additions.
    ///
    /// All work is charged against `budget` and carried into the next
    /// `solve_with` call. Returns `Some(Unsat)` if simplification refutes
    /// the formula, `Some(Unknown)` if the budget ran out mid-pass (partial
    /// simplification is kept — every committed step preserves
    /// satisfiability), and `None` when solving should proceed.
    pub fn preprocess(&mut self, budget: Budget) -> Option<SatResult> {
        if !self.preprocessing {
            return None;
        }
        if self.unsat {
            return Some(SatResult::Unsat);
        }
        self.model_valid = false;
        self.backtrack(0);
        let pre_start = self.stats.propagations;
        self.solve_propagations = std::mem::take(&mut self.carryover);
        if self.propagate().is_some() {
            self.unsat = true;
            self.stats.preprocess_propagations += self.stats.propagations - pre_start;
            return Some(SatResult::Unsat);
        }
        let mut outcome = self.probe_failed_literals(&budget);
        if outcome.is_none() {
            outcome = self.simplify_clauses(&budget);
        }
        self.stats.preprocess_propagations += self.stats.propagations - pre_start;
        match outcome {
            Some(result) => {
                // The budget is spent (Unknown) or the answer is final
                // (Unsat); either way nothing carries over.
                self.solve_propagations = 0;
                Some(result)
            }
            None => {
                self.carryover = self.solve_propagations;
                self.solve_propagations = 0;
                None
            }
        }
    }

    /// Order a query's assumptions to maximize trail reuse: the literals
    /// shared with the previous query's assumption sequence first (in that
    /// sequence's order, stopping at the first mismatch, since decision
    /// levels beyond it cannot be kept anyway), then the rest. Assumption
    /// order never changes Sat/Unsat, and the ordering is a pure function of
    /// this instance's query history, so determinism is preserved.
    fn reorder_assumptions(&self, assumptions: &[Lit]) -> Vec<Lit> {
        let mut ordered: Vec<Lit> = Vec::with_capacity(assumptions.len());
        for &a in &self.last_assumptions {
            if assumptions.contains(&a) && !ordered.contains(&a) {
                ordered.push(a);
            } else {
                break;
            }
        }
        for &a in assumptions {
            if !ordered.contains(&a) {
                ordered.push(a);
            }
        }
        ordered
    }

    /// Whether the preprocessing work done so far exceeds the budget.
    fn over_budget(&self, budget: &Budget) -> bool {
        self.solve_propagations > budget.max_propagations
    }

    /// Per-pass effort ceiling for pre/inprocessing, in budget-charge units:
    /// a constant floor (so small formulas are always fully simplified) plus
    /// a term linear in the formula size. Each pass stops — cleanly, keeping
    /// whatever it simplified so far — once its own charge exceeds this, so
    /// total preprocessing charge stays proportional to the formula and can
    /// never eat a solve-sized share of the query budget on big circuits.
    /// A pure function of the formula, so degraded verdicts stay
    /// deterministic.
    fn pass_cap(&self) -> u64 {
        4_000 + 4 * self.clauses.len() as u64
    }

    /// Failed-literal probing at the root: for every variable watched by a
    /// binary clause, assume each polarity in turn and propagate; a conflict
    /// proves the negation, which is asserted at the root. Variable order is
    /// index order, so the pass is deterministic.
    fn probe_failed_literals(&mut self, budget: &Budget) -> Option<SatResult> {
        // Only probe variables that head implication chains: those occurring
        // in some binary clause. Probing everything is quadratic pain on
        // blasted circuits for little extra root knowledge — and even the
        // binary-clause subset is capped so a large circuit can't turn a
        // cheap query into a probing marathon. The cap takes a deterministic
        // prefix in index order, which on blasted formulas means the
        // problem's input variables (created first) are probed before gate
        // variables. On top of the variable cap, the pass stops once its
        // budget charge exceeds a linear function of the formula size
        // (see `pass_cap`): preprocessing effort must stay proportional to
        // the formula, or its budget charge would eat the solve's budget on
        // large instances.
        const PROBE_CAP: usize = 64;
        let cap = self.pass_cap();
        let pass_start = self.solve_propagations;
        // Probe propagations overwrite saved phases as a side effect of
        // enqueue/backtrack; snapshot and restore them so probing leaves the
        // search heuristics exactly as it found them (probing is supposed to
        // extract root facts, not steer the upcoming search).
        let saved_phases = self.phases.clone();
        let mut candidate = vec![false; self.num_vars()];
        for idx in 0..self.clauses.len() {
            let c = self.clauses.get(ClauseRef(idx as u32));
            if !c.deleted && c.len() == 2 {
                candidate[c.lits[0].var().index()] = true;
                candidate[c.lits[1].var().index()] = true;
            }
        }
        // Hyper-binary resolution piggybacks on the same probes: every
        // literal `q` the probe `lit` forced through a *long* (len > 2)
        // reason chain is a transitive implication `lit -> q` the binary
        // implication lists don't know yet. Materializing it as a binary
        // clause (entailed, so cached models stay valid) lets future
        // propagation reach `q` in one cache-friendly step and future
        // probes/vivification resolve against it. Capped per pass and
        // budget-charged like everything else here.
        const HBR_CAP: usize = 64;
        let mut hbr_added = 0usize;
        let mut probed = 0usize;
        let mut result = None;
        'probe: for (idx, &is_candidate) in candidate.iter().enumerate() {
            if self.over_budget(budget) {
                result = Some(SatResult::Unknown);
                break;
            }
            if probed >= PROBE_CAP || self.solve_propagations - pass_start > cap {
                break;
            }
            if !is_candidate || !self.assigns[idx].is_undef() {
                continue;
            }
            probed += 1;
            let v = Var(idx as u32);
            for positive in [true, false] {
                let lit = Lit::new(v, positive);
                if !self.value_lit(lit).is_undef() {
                    break; // the other phase's failure already decided it
                }
                self.trail_lim.push(self.trail.len());
                let level_start = self.trail.len();
                self.enqueue(lit, None);
                let failed = self.propagate().is_some();
                let mut hyper: Vec<Lit> = Vec::new();
                if !failed && self.hbr && hbr_added < HBR_CAP {
                    for &q in &self.trail[level_start + 1..] {
                        if let Some(r) = self.reasons[q.var().index()] {
                            if self.clauses.get(r).len() > 2
                                && !self.binary_watches[lit.index()]
                                    .iter()
                                    .any(|&(other, _)| other == q)
                            {
                                hyper.push(q);
                            }
                        }
                    }
                }
                self.backtrack(0);
                if failed {
                    self.stats.preprocess_eliminations += 1;
                    self.enqueue(!lit, None);
                    if self.propagate().is_some() {
                        self.unsat = true;
                        result = Some(SatResult::Unsat);
                        break 'probe;
                    }
                } else {
                    for q in hyper {
                        if hbr_added >= HBR_CAP {
                            break;
                        }
                        let cref = self.clauses.add(Clause::learned_with_lbd(vec![!lit, q], 2));
                        self.attach(cref);
                        self.stats.hbr_binaries_added += 1;
                        self.solve_propagations += 1;
                        hbr_added += 1;
                    }
                }
            }
        }
        for (idx, &phase) in saved_phases.iter().enumerate() {
            if self.assigns[idx].is_undef() {
                self.phases[idx] = phase;
            }
        }
        result
    }

    /// Remove root-satisfied clauses, strip root-false literals, then run
    /// one backward subsumption + self-subsumption pass over the remaining
    /// clauses. Everything here preserves logical equivalence of the
    /// (clauses + root trail) representation.
    fn simplify_clauses(&mut self, budget: &Budget) -> Option<SatResult> {
        let n_clauses = self.clauses.len();
        // Pass 1: clean up against the root trail.
        for idx in 0..n_clauses {
            if self.over_budget(budget) {
                return Some(SatResult::Unknown);
            }
            let cref = ClauseRef(idx as u32);
            if self.clauses.get(cref).deleted {
                continue;
            }
            let len = self.clauses.get(cref).len();
            self.solve_propagations += len as u64;
            let lits = self.clauses.get(cref).lits.clone();
            if lits.iter().any(|&l| self.value_lit(l) == LBool::True) {
                self.detach(cref);
                self.clauses.delete(cref);
                self.stats.preprocess_eliminations += 1;
                continue;
            }
            if lits.iter().any(|&l| self.value_lit(l) == LBool::False) {
                let kept: Vec<Lit> = lits
                    .into_iter()
                    .filter(|&l| self.value_lit(l).is_undef())
                    .collect();
                self.stats.preprocess_eliminations += 1;
                if let Some(result) = self.replace_clause(cref, kept) {
                    return Some(result);
                }
            }
        }
        // Pass 2: backward subsumption. For each clause C, candidates are
        // the clauses sharing C's least-occurring literal (either phase);
        // C ⊆ D deletes D, and C matching D except for one flipped literal
        // strengthens D by removing that literal. Effort-capped like every
        // pass (see `pass_cap`).
        let cap = self.pass_cap();
        let pass_start = self.solve_propagations;
        let mut occ: Vec<Vec<ClauseRef>> = vec![Vec::new(); 2 * self.num_vars()];
        for idx in 0..n_clauses {
            let cref = ClauseRef(idx as u32);
            let c = self.clauses.get(cref);
            if c.deleted {
                continue;
            }
            for &l in &c.lits {
                occ[l.index()].push(cref);
            }
        }
        for idx in 0..n_clauses {
            if self.over_budget(budget) {
                return Some(SatResult::Unknown);
            }
            if self.solve_propagations - pass_start > cap {
                break;
            }
            let cref = ClauseRef(idx as u32);
            if self.clauses.get(cref).deleted {
                continue;
            }
            let c_lits = self.clauses.get(cref).lits.clone();
            // Long clauses subsume almost nothing; clauses whose every
            // literal is ubiquitous would drag in huge candidate lists. Both
            // caps keep the pass near-linear on blasted circuits.
            const MAX_SUBSUMER_LEN: usize = 12;
            const MAX_CANDIDATES: usize = 32;
            if c_lits.len() > MAX_SUBSUMER_LEN {
                continue;
            }
            // A tautological C subsumes nothing, and self-subsuming
            // resolution against it is the identity — `subsumes` would
            // still report a flipped literal and unsoundly strengthen D.
            if c_lits.iter().any(|&l| c_lits.contains(&!l)) {
                continue;
            }
            let key = c_lits
                .iter()
                .copied()
                .min_by_key(|l| occ[l.index()].len() + occ[(!*l).index()].len());
            let Some(key) = key else { continue };
            if occ[key.index()].len() + occ[(!key).index()].len() > MAX_CANDIDATES {
                continue;
            }
            let mut candidates: Vec<ClauseRef> = occ[key.index()].clone();
            candidates.extend_from_slice(&occ[(!key).index()]);
            for dref in candidates {
                if dref == cref || self.clauses.get(dref).deleted {
                    continue;
                }
                if self.clauses.get(cref).deleted {
                    break; // C itself got strengthened away meanwhile
                }
                let d_lits = &self.clauses.get(dref).lits;
                self.solve_propagations += (c_lits.len() + d_lits.len()) as u64;
                if d_lits.len() < c_lits.len() {
                    continue;
                }
                match subsumes(&c_lits, d_lits) {
                    None => {}
                    Some(None) => {
                        // C ⊆ D: D is redundant.
                        self.detach(dref);
                        self.clauses.delete(dref);
                        self.stats.preprocess_eliminations += 1;
                    }
                    Some(Some(remove)) => {
                        // Self-subsumption: resolve C against D on `remove`.
                        let kept: Vec<Lit> = self
                            .clauses
                            .get(dref)
                            .lits
                            .iter()
                            .copied()
                            .filter(|&l| l != remove)
                            .collect();
                        self.stats.preprocess_eliminations += 1;
                        if let Some(result) = self.replace_clause(dref, kept) {
                            return Some(result);
                        }
                    }
                }
            }
        }
        None
    }

    /// Replace an attached clause's literals with a (shorter) implied set,
    /// maintaining the watch lists. An empty set refutes the formula; a unit
    /// is asserted at the root and the clause deleted. Returns `Some` only
    /// for a final verdict.
    fn replace_clause(&mut self, cref: ClauseRef, kept: Vec<Lit>) -> Option<SatResult> {
        self.detach(cref);
        match kept.len() {
            0 => {
                self.unsat = true;
                Some(SatResult::Unsat)
            }
            1 => {
                self.clauses.delete(cref);
                match self.value_lit(kept[0]) {
                    LBool::True => None,
                    LBool::False => {
                        self.unsat = true;
                        Some(SatResult::Unsat)
                    }
                    LBool::Undef => {
                        self.enqueue(kept[0], None);
                        if self.propagate().is_some() {
                            self.unsat = true;
                            Some(SatResult::Unsat)
                        } else {
                            None
                        }
                    }
                }
            }
            _ => {
                self.clauses.get_mut(cref).lits = kept;
                self.attach(cref);
                None
            }
        }
    }

    /// One bounded round of clause vivification: re-derive learned clauses
    /// under their own negation and keep the (often shorter) implied prefix.
    /// Runs at the root between restarts; examines at most `max_clauses`
    /// live learned clauses in reference order.
    fn vivify_round(&mut self, max_clauses: usize) {
        debug_assert_eq!(self.decision_level(), 0);
        // Vivification propagates assumed negations and backtracks, which
        // overwrites saved phases; mid-search those encode the trajectory the
        // restart is about to resume, so snapshot and restore them.
        let saved_phases = self.phases.clone();
        let refs = self.clauses.learned_refs();
        let mut examined = 0usize;
        for r in refs {
            if examined >= max_clauses {
                break;
            }
            let c = self.clauses.get(r);
            if c.deleted || c.len() < 3 {
                continue;
            }
            if self
                .clauses
                .get(r)
                .lits
                .first()
                .map(|&l| self.reasons[l.var().index()] == Some(r))
                .unwrap_or(false)
            {
                continue; // reason of a root assignment
            }
            examined += 1;
            let lits = self.clauses.get(r).lits.clone();
            let lbd = self.clauses.get(r).lbd;
            let mut kept: Vec<Lit> = Vec::with_capacity(lits.len());
            let mut shortened = false;
            self.trail_lim.push(self.trail.len());
            for &l in &lits {
                match self.value_lit(l) {
                    LBool::True => {
                        // l is implied by the negation of the kept prefix:
                        // (kept ∪ {l}) is an implied subclause.
                        kept.push(l);
                        shortened = true;
                        break;
                    }
                    LBool::False => {
                        // l is falsified by the kept prefix alone (or the
                        // root): it contributes nothing.
                        shortened = true;
                        continue;
                    }
                    LBool::Undef => {
                        kept.push(l);
                        self.enqueue(!l, None);
                        if self.propagate().is_some() {
                            // ¬kept refutes the formula: `kept` is implied.
                            shortened = true;
                            break;
                        }
                    }
                }
            }
            self.backtrack(0);
            if shortened && !kept.is_empty() && kept.len() < lits.len() {
                self.stats.preprocess_eliminations += 1;
                self.detach(r);
                self.clauses.delete(r);
                match kept.len() {
                    1 => {
                        if self.value_lit(kept[0]).is_undef() {
                            self.enqueue(kept[0], None);
                            if self.propagate().is_some() {
                                self.unsat = true;
                                return;
                            }
                        } else if self.value_lit(kept[0]) == LBool::False {
                            self.unsat = true;
                            return;
                        }
                    }
                    _ => {
                        let new_lbd = lbd.min(kept.len() as u32);
                        let cref = self.clauses.add(Clause::learned_with_lbd(kept, new_lbd));
                        self.attach(cref);
                    }
                }
            }
        }
        for (idx, &phase) in saved_phases.iter().enumerate() {
            if self.assigns[idx].is_undef() {
                self.phases[idx] = phase;
            }
        }
    }
}

/// Subsumption check: does clause `c` subsume `d` (`Some(None)`), strengthen
/// it by resolving on exactly one flipped literal (`Some(Some(lit))` — the
/// literal to drop from `d`), or neither (`None`)?
fn subsumes(c: &[Lit], d: &[Lit]) -> Option<Option<Lit>> {
    let mut flipped: Option<Lit> = None;
    for &lc in c {
        if d.contains(&lc) {
            continue;
        }
        if d.contains(&!lc) {
            if flipped.is_some() {
                return None;
            }
            flipped = Some(!lc);
            continue;
        }
        return None;
    }
    Some(flipped)
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, ...
fn luby(i: u64) -> u64 {
    // Work with the 1-based index x = i + 1; if x = 2^k - 1 the value is
    // 2^(k-1), otherwise recurse on x minus the largest full block below it.
    let mut x = i + 1;
    loop {
        let k = 64 - u64::from(x.leading_zeros()); // 2^(k-1) <= x < 2^k
        if x == (1u64 << k) - 1 {
            return 1u64 << (k - 1);
        }
        x -= (1u64 << (k - 1)) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(solver: &mut SatSolver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = SatSolver::new();
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn single_unit_clause() {
        let mut s = SatSolver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[v.positive()]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model_value(v));
    }

    #[test]
    fn contradictory_units_unsat() {
        let mut s = SatSolver::new();
        let v = s.new_var();
        s.add_clause(&[v.positive()]);
        assert!(!s.add_clause(&[v.negative()]) || s.solve() == SatResult::Unsat);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        // (a -> b), (b -> c), a  =>  c must be true.
        let mut s = SatSolver::new();
        let v = vars(&mut s, 3);
        s.add_clause(&[v[0].negative(), v[1].positive()]);
        s.add_clause(&[v[1].negative(), v[2].positive()]);
        s.add_clause(&[v[0].positive()]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model_value(v[2]));
    }

    #[test]
    fn pigeonhole_2_into_1_unsat() {
        // Two pigeons, one hole: x0 and x1 each must be placed (true), but
        // they cannot both be true.
        let mut s = SatSolver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[v[0].positive()]);
        s.add_clause(&[v[1].positive()]);
        s.add_clause(&[v[0].negative(), v[1].negative()]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // p[i][j]: j indexes the inner dim
    fn pigeonhole_3_into_2_unsat() {
        // p[i][j]: pigeon i in hole j. Each pigeon in some hole; no two
        // pigeons share a hole. Classic small UNSAT instance that requires
        // real search.
        let mut s = SatSolver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in p.iter_mut() {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[row[0].positive(), row[1].positive()]);
        }
        for j in [0, 1] {
            for i in 0..3 {
                for k in (i + 1)..3 {
                    s.add_clause(&[p[i][j].negative(), p[k][j].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn xor_chain_sat_with_model() {
        // x0 xor x1 = 1, x1 xor x2 = 1, x0 = 1  =>  x1 = 0, x2 = 1.
        let mut s = SatSolver::new();
        let v = vars(&mut s, 3);
        let xor_clauses = |s: &mut SatSolver, a: Var, b: Var| {
            s.add_clause(&[a.positive(), b.positive()]);
            s.add_clause(&[a.negative(), b.negative()]);
        };
        xor_clauses(&mut s, v[0], v[1]);
        xor_clauses(&mut s, v[1], v[2]);
        s.add_clause(&[v[0].positive()]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model_value(v[0]));
        assert!(!s.model_value(v[1]));
        assert!(s.model_value(v[2]));
    }

    #[test]
    fn assumptions_do_not_persist() {
        let mut s = SatSolver::new();
        let v = s.new_var();
        let w = s.new_var();
        s.add_clause(&[v.positive(), w.positive()]);
        assert_eq!(
            s.solve_with(&[v.negative(), w.negative()], Budget::unlimited()),
            SatResult::Unsat
        );
        // The formula itself is still satisfiable.
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(
            s.solve_with(&[v.negative()], Budget::unlimited()),
            SatResult::Sat
        );
        assert!(s.model_value(w));
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // p[i][j]: j indexes the inner dim
    fn budget_exhaustion_returns_unknown() {
        // A hard-ish pigeonhole instance with a tiny budget must give Unknown.
        let n = 7usize; // pigeons
        let m = 6usize; // holes
        let mut s = SatSolver::new();
        let mut p = vec![vec![Var(0); m]; n];
        for row in p.iter_mut() {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            let clause: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&clause);
        }
        for j in 0..m {
            for i in 0..n {
                for k in (i + 1)..n {
                    s.add_clause(&[p[i][j].negative(), p[k][j].negative()]);
                }
            }
        }
        let result = s.solve_with(&[], Budget::propagations(50));
        assert_eq!(result, SatResult::Unknown);
        // With an unlimited budget it is UNSAT.
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn preprocess_keeps_pigeonhole_unsat() {
        let mut s = SatSolver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in p.iter_mut() {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[row[0].positive(), row[1].positive()]);
        }
        for j in [0, 1] {
            for i in 0..3 {
                for k in (i + 1)..3 {
                    s.add_clause(&[p[i][j].negative(), p[k][j].negative()]);
                }
            }
        }
        let pre = s.preprocess(Budget::unlimited());
        match pre {
            Some(SatResult::Unsat) | None => {}
            other => panic!("unexpected preprocess outcome {other:?}"),
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn probing_derives_failed_literals() {
        // a implies both b and ¬b, so probing a must fail and assert ¬a at
        // the root; the model then has a = false.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.negative(), b.positive()]);
        s.add_clause(&[a.negative(), b.negative()]);
        assert_eq!(s.preprocess(Budget::unlimited()), None);
        assert!(s.stats().preprocess_eliminations > 0);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(!s.model_value(a));
    }

    #[test]
    fn subsumption_strengthens_and_stays_equisatisfiable() {
        // (a ∨ b) subsumes (a ∨ b ∨ c); (¬a ∨ b) self-subsumes (a ∨ b)
        // down to the unit b.
        let mut s = SatSolver::new();
        let v = vars(&mut s, 3);
        s.add_clause(&[v[0].positive(), v[1].positive(), v[2].positive()]);
        s.add_clause(&[v[0].positive(), v[1].positive()]);
        s.add_clause(&[v[0].negative(), v[1].positive()]);
        assert_eq!(s.preprocess(Budget::unlimited()), None);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model_value(v[1]), "b is implied by resolution");
    }

    #[test]
    fn preprocessed_model_satisfies_original_clauses() {
        // Random-ish low-density mix of binary and ternary clauses, so both
        // probing and subsumption find work: the model found afterwards must
        // satisfy every *original* clause, including the ones preprocessing
        // deleted or strengthened.
        let nv = 24usize;
        let mut s = SatSolver::new();
        let v = vars(&mut s, nv);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut clauses = Vec::new();
        for i in 0..40 {
            let mut clause = Vec::new();
            for _ in 0..2 + i % 2 {
                clause.push(Lit::new(v[next() % nv], next() % 2 == 0));
            }
            clauses.push(clause.clone());
            s.add_clause(&clause);
        }
        assert_eq!(s.preprocess(Budget::unlimited()), None);
        assert!(s.stats().preprocess_eliminations > 0);
        assert_eq!(s.solve(), SatResult::Sat);
        for clause in &clauses {
            assert!(
                clause
                    .iter()
                    .any(|&l| s.model_value(l.var()) == l.is_positive()),
                "model must satisfy original clause {clause:?}"
            );
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // p[i][j]: j indexes the inner dim
    fn preprocess_budget_exhaustion_returns_unknown() {
        let n = 7usize;
        let m = 6usize;
        let mut s = SatSolver::new();
        let mut p = vec![vec![Var(0); m]; n];
        for row in p.iter_mut() {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            let clause: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&clause);
        }
        for j in 0..m {
            for i in 0..n {
                for k in (i + 1)..n {
                    s.add_clause(&[p[i][j].negative(), p[k][j].negative()]);
                }
            }
        }
        assert_eq!(
            s.preprocess(Budget::propagations(1)),
            Some(SatResult::Unknown),
            "probing alone must exhaust a one-propagation budget"
        );
        // A later call with an unlimited budget still decides the formula.
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn preprocessing_off_is_a_noop() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.negative(), b.positive()]);
        s.add_clause(&[a.negative(), b.negative()]);
        s.set_preprocessing(false);
        assert_eq!(s.preprocess(Budget::unlimited()), None);
        assert_eq!(s.stats().preprocess_eliminations, 0);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn luby_sequence_prefix() {
        let prefix: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(prefix[0], 1);
        assert_eq!(prefix[1], 1);
        assert_eq!(prefix[2], 2);
        // The sequence must be positive and bounded by powers of two.
        assert!(prefix.iter().all(|&x| x >= 1 && x.is_power_of_two()));
    }

    #[test]
    fn many_random_like_clauses_stay_consistent() {
        // A deterministic pseudo-random 3-SAT instance at low clause density
        // (should be SAT) — checks the model against the clauses.
        let nv = 30usize;
        let mut s = SatSolver::new();
        let v = vars(&mut s, nv);
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut clauses = Vec::new();
        for _ in 0..60 {
            let mut clause = Vec::new();
            for _ in 0..3 {
                let var = v[next() % nv];
                let pos = next() % 2 == 0;
                clause.push(Lit::new(var, pos));
            }
            clauses.push(clause.clone());
            s.add_clause(&clause);
        }
        if s.solve() == SatResult::Sat {
            for clause in &clauses {
                assert!(clause.iter().any(|&l| {
                    let val = s.model_value(l.var());
                    if l.is_positive() {
                        val
                    } else {
                        !val
                    }
                }));
            }
        }
    }
}
