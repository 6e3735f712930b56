//! A CDCL SAT solver.
//!
//! The solver implements the standard conflict-driven clause learning loop:
//! two-watched-literal unit propagation, first-UIP conflict analysis with
//! clause minimization by self-subsumption against reason clauses, VSIDS
//! variable activity with phase saving, Luby restarts, and activity-based
//! learned-clause database reduction. It supports solving under assumptions
//! (needed by the minimal-UB-set computation in the checker) and a
//! deterministic resource budget measured in propagations so that
//! "timeouts" are reproducible.

use crate::cnf::{Clause, ClauseDb, ClauseRef};
use crate::lit::{LBool, Lit, Var};
use crate::stats::CheckStats;

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
}

impl Default for Budget {
    fn default() -> Budget {
        Budget {
            max_propagations: u64::MAX,
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
        }
    }
}

/// The CDCL solver.
pub struct SatSolver {
    clauses: ClauseDb,
    watches: Vec<Vec<Watcher>>,
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
    /// The search counters of [`CheckStats`] this core owns (see
    /// [`crate::stats`]).
    stats: CheckStats,
    budget_propagations: u64,
    solve_propagations: u64,
    max_learned: usize,
    /// The assumption core of the last `Unsat` answer (empty when the
    /// formula itself is root-unsat), for callers seeding minimization.
    /// `None` after `Sat`/`Unknown` answers.
    last_core: Option<Vec<Lit>>,
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
            stats: CheckStats::default(),
            budget_propagations: u64::MAX,
            solve_propagations: 0,
            max_learned: 4000,
            last_core: None,
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
        self.heap_index.push(None);
        self.heap_insert(v);
        v
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
    /// [`BvSolver`](crate::solver::BvSolver) counts the slots loaded before
    /// a query registers its assertions as formula that query reuses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Statistics accumulated since the last [`take_stats`](Self::take_stats).
    pub fn stats(&self) -> CheckStats {
        self.stats
    }

    /// The statistics accumulated since the last call, resetting them.
    pub fn take_stats(&mut self) -> CheckStats {
        std::mem::take(&mut self.stats)
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
        // Clauses join the formula at the root: cancel the last model's
        // trail before normalizing against root values.
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

    /// Attach the first two literals of a clause to the watch lists.
    fn attach(&mut self, cref: ClauseRef) {
        let (l0, l1) = {
            let c = self.clauses.get(cref);
            (c.lits[0], c.lits[1])
        };
        self.watches[(!l0).index()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).index()].push(Watcher { cref, blocker: l0 });
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
    /// asserting literal first) and the backtrack level.
    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learned: Vec<Lit> = vec![Lit::new(Var(0), true)]; // placeholder slot 0
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut cref = conflict;
        let mut trail_idx = self.trail.len();
        let current_level = self.decision_level();

        loop {
            self.bump_clause(cref);
            let lits: Vec<Lit> = self.clauses.get(cref).lits.clone();
            // Skip the literal this clause implied (`p`, kept at slot 0).
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
        // learned clause's literals, reported as a statistic. Computed before
        // backtracking, while the levels are still those of the conflicting
        // assignment.
        let mut lbd_levels: Vec<u32> = learned
            .iter()
            .map(|&lit| self.levels[lit.var().index()])
            .collect();
        lbd_levels.sort_unstable();
        lbd_levels.dedup();

        for &lit in &original {
            self.seen[lit.var().index()] = false;
        }
        self.stats.learned_clauses += 1;
        self.stats.lbd_sum += lbd_levels.len() as u64;
        (learned, backtrack_level)
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
    fn learn(&mut self, learned: Vec<Lit>) {
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
            let cref = self.clauses.add(Clause::new(lits, true));
            self.attach(cref);
            self.bump_clause(cref);
            self.enqueue(asserting, Some(cref));
        }
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    /// Learned-clause database reduction: evict the less active half of the
    /// learned clauses, sparing those that are the reason of a current
    /// assignment. The ordering ends with the clause id so float-equal
    /// activities cannot make eviction order run-dependent.
    fn reduce_db(&mut self) {
        let mut refs = self.clauses.learned_refs();
        refs.retain(|&r| {
            !self
                .clauses
                .get(r)
                .lits
                .first()
                .is_some_and(|&l| self.reasons[l.var().index()] == Some(r))
        });
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

    /// Remove a clause from the watch lists.
    fn detach(&mut self, cref: ClauseRef) {
        let (l0, l1) = {
            let c = self.clauses.get(cref);
            (c.lits[0], c.lits[1])
        };
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
        self.budget_propagations = budget.max_propagations;
        self.solve_propagations = 0;
        self.backtrack(0);
        if self.propagate().is_some() {
            self.unsat = true;
            self.last_core = Some(Vec::new());
            return SatResult::Unsat;
        }

        let mut restart_count = 0u64;
        let mut conflicts_since_restart = 0u64;
        loop {
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
                        let (learned, level) = self.analyze(conflict);
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
                                    self.clauses.add(Clause::new(lits, true))
                                };
                                self.attach(cref);
                            }
                        } else {
                            self.learn(learned);
                        }
                    }
                }
                if self.solve_propagations > self.budget_propagations {
                    self.backtrack(0);
                    return SatResult::Unknown;
                }
            }

            if self.solve_propagations > self.budget_propagations {
                self.backtrack(0);
                return SatResult::Unknown;
            }

            // Luby restarts.
            let restart_limit = 64 * luby(restart_count);
            if conflicts_since_restart >= restart_limit {
                restart_count += 1;
                self.stats.restarts += 1;
                conflicts_since_restart = 0;
                self.backtrack(0);
            }

            if self.clauses.num_learned > self.max_learned + self.trail.len() {
                self.reduce_db();
            }
        }
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
        match self.assigns[v.index()] {
            LBool::True => true,
            LBool::False => false,
            // Variables not constrained by any clause may remain unassigned;
            // any value satisfies the formula, pick the saved phase.
            LBool::Undef => self.phases[v.index()],
        }
    }
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

    /// Load the pigeonhole formula PHP(pigeons, holes) — every pigeon in
    /// some hole, no two pigeons in one hole — with `guard` (if any) added
    /// to every clause. Returns the clauses as loaded.
    #[allow(clippy::needless_range_loop)] // p[i][j]: j indexes the inner dim
    fn pigeonhole(
        s: &mut SatSolver,
        pigeons: usize,
        holes: usize,
        guard: Option<Lit>,
    ) -> Vec<Vec<Lit>> {
        let p: Vec<Vec<Var>> = (0..pigeons).map(|_| vars(s, holes)).collect();
        let mut clauses: Vec<Vec<Lit>> = p
            .iter()
            .map(|row| row.iter().map(|v| v.positive()).collect())
            .collect();
        for j in 0..holes {
            for i in 0..pigeons {
                for k in (i + 1)..pigeons {
                    clauses.push(vec![p[i][j].negative(), p[k][j].negative()]);
                }
            }
        }
        for clause in &mut clauses {
            clause.extend(guard);
            s.add_clause(clause);
        }
        clauses
    }

    #[test]
    fn budget_exhaustion_returns_unknown() {
        // A hard-ish pigeonhole instance with a tiny budget must give Unknown.
        let mut s = SatSolver::new();
        pigeonhole(&mut s, 7, 6, None);
        let result = s.solve_with(&[], Budget::propagations(50));
        assert_eq!(result, SatResult::Unknown);
        // With an unlimited budget it is UNSAT.
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn reduce_db_evicts_and_pigeonhole_stays_unsat() {
        // PHP(9,8) takes tens of thousands of conflicts, so the learned
        // clauses outgrow `max_learned` and database reduction has to evict
        // some.
        let mut s = SatSolver::new();
        pigeonhole(&mut s, 9, 8, None);
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().deleted_clauses > 0, "{:?}", s.stats());
    }

    #[test]
    fn reduce_db_keeps_incremental_answers_under_a_selector() {
        // Every clause is guarded by `¬sel`: assuming `sel` switches the
        // pigeonhole formula on, assuming `¬sel` switches it off. Evicting
        // learned clauses in the first solve must not change any later
        // answer on the same instance.
        let mut s = SatSolver::new();
        let sel = s.new_var();
        let clauses = pigeonhole(&mut s, 8, 7, Some(sel.negative()));
        assert_eq!(
            s.solve_with(&[sel.positive()], Budget::unlimited()),
            SatResult::Unsat
        );
        assert!(s.stats().deleted_clauses > 0, "{:?}", s.stats());
        assert_eq!(
            s.solve_with(&[sel.negative()], Budget::unlimited()),
            SatResult::Sat
        );
        assert!(!s.model_value(sel));
        for clause in &clauses {
            assert!(
                clause
                    .iter()
                    .any(|&l| s.model_value(l.var()) == l.is_positive()),
                "model must satisfy {clause:?}"
            );
        }
        assert_eq!(
            s.solve_with(&[sel.positive()], Budget::unlimited()),
            SatResult::Unsat
        );
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
