//! Clause storage for the SAT core.
//!
//! Clauses live in a flat arena indexed by [`ClauseRef`]; the SAT core holds
//! watch lists of clause references rather than owning clause data itself.
//! Learned clauses carry an activity score so that clause-database reduction
//! can evict the least useful ones.

use crate::lit::Lit;

/// Index of a clause in the [`ClauseDb`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClauseRef(pub u32);

/// A disjunction of literals.
#[derive(Clone, Debug)]
pub struct Clause {
    /// Literals of the clause. For clauses under two-watched-literal
    /// maintenance, the watched literals are kept at positions 0 and 1.
    pub lits: Vec<Lit>,
    /// Whether this clause was learned during conflict analysis (as opposed
    /// to being part of the original problem).
    pub learned: bool,
    /// Activity for learned-clause eviction.
    pub activity: f64,
    /// Marked for deletion by clause-database reduction.
    pub deleted: bool,
}

impl Clause {
    /// Create a new clause over the given literals.
    pub fn new(lits: Vec<Lit>, learned: bool) -> Clause {
        Clause {
            lits,
            learned,
            activity: 0.0,
            deleted: false,
        }
    }

    /// Number of literals in the clause.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Whether the clause is empty (an immediate contradiction).
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }
}

/// Arena of clauses referenced by [`ClauseRef`].
#[derive(Default, Debug)]
pub struct ClauseDb {
    clauses: Vec<Clause>,
    /// Number of live (non-deleted) learned clauses, used to trigger
    /// clause-database reduction.
    pub num_learned: usize,
}

impl ClauseDb {
    /// Create an empty clause database.
    pub fn new() -> ClauseDb {
        ClauseDb::default()
    }

    /// Add a clause and return its reference.
    pub fn add(&mut self, clause: Clause) -> ClauseRef {
        if clause.learned {
            self.num_learned += 1;
        }
        let idx = self.clauses.len() as u32;
        self.clauses.push(clause);
        ClauseRef(idx)
    }

    /// Borrow a clause.
    pub fn get(&self, cref: ClauseRef) -> &Clause {
        &self.clauses[cref.0 as usize]
    }

    /// Mutably borrow a clause.
    pub fn get_mut(&mut self, cref: ClauseRef) -> &mut Clause {
        &mut self.clauses[cref.0 as usize]
    }

    /// Mark a learned clause as deleted. The slot is kept (references remain
    /// valid) but the clause is skipped by the watch lists after detachment.
    pub fn delete(&mut self, cref: ClauseRef) {
        let clause = &mut self.clauses[cref.0 as usize];
        if clause.learned && !clause.deleted {
            self.num_learned -= 1;
        }
        clause.deleted = true;
    }

    /// Total number of clause slots (including deleted ones).
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether the database holds no clauses at all.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Iterate over references of all live learned clauses.
    pub fn learned_refs(&self) -> Vec<ClauseRef> {
        self.clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| c.learned && !c.deleted)
            .map(|(i, _)| ClauseRef(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    #[test]
    fn clause_db_add_get_delete() {
        let mut db = ClauseDb::new();
        let a = Var(0).positive();
        let b = Var(1).negative();
        let c1 = db.add(Clause::new(vec![a, b], false));
        let c2 = db.add(Clause::new(vec![!a], true));
        assert_eq!(db.get(c1).len(), 2);
        assert!(db.get(c2).learned);
        assert_eq!(db.num_learned, 1);
        db.delete(c2);
        assert_eq!(db.num_learned, 0);
        assert!(db.get(c2).deleted);
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn learned_refs_skips_deleted() {
        let mut db = ClauseDb::new();
        let a = Var(0).positive();
        let r1 = db.add(Clause::new(vec![a], true));
        let _r2 = db.add(Clause::new(vec![!a], true));
        db.delete(r1);
        let refs = db.learned_refs();
        assert_eq!(refs.len(), 1);
    }
}
