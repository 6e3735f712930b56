//! Memoized SAT/UNSAT query cache.
//!
//! The checker re-issues structurally identical QF_BV queries across
//! fragments and functions: the same `p != NULL` / overflow side conditions
//! appear in the elimination query of every block a condition dominates, and
//! the synthetic Debian population (§6.5) instantiates the same unstable
//! idioms over and over. The paper reports that solver time dominates the
//! analysis (Figure 16), so answering a repeated query from a lookup instead
//! of a bit-blast + CDCL run is the single highest-leverage shortcut.
//!
//! Keys are *structural*: each assertion is reduced to a 128-bit fingerprint
//! of its term DAG (operator tags, constant payloads, variable names), and a
//! query's key is the sorted, deduplicated multiset of its assertions'
//! fingerprints. This makes the key
//!
//! * **pool-independent** — every function is encoded in its own
//!   [`TermPool`], so raw [`TermId`]s never coincide
//!   across functions, but structurally identical formulas do;
//! * **order-insensitive** — `check(&[a, b])` and `check(&[b, a])` hit the
//!   same entry, as does `check(&[and(a, b)])` after conjunction flattening;
//! * cheap — hash-consing means the DAG walk is linear in distinct subterms,
//!   and the per-solver fingerprint memo amortizes it across the many
//!   queries the checker issues against one function encoding.
//!
//! Only decided results are cached: `Sat` (with its witness model — variable
//! names are part of the fingerprint, so a cached model is valid for every
//! structurally identical query) and `Unsat`. Budget-exhausted `Unknown`
//! results are never cached, so raising the budget can never be masked by a
//! stale timeout. The witness is an in-process convenience only: it is
//! whatever assignment the search landed on, not a canonical property of
//! the query, so the disk-backed store persists the decided fact without it
//! (see `store.rs`).
//!
//! The cache is one [`Table`] shared across the scan pipeline's worker
//! threads through an [`Arc`](std::sync::Arc): the table the disk-backed
//! store loads its file into, here without a file.

use crate::recordfile::Table;
use crate::solver::QueryResult;
use crate::term::{Sort, TermId, TermKind, TermPool};
use std::collections::{HashMap, HashSet};

/// A canonical, pool-independent key for an assertion set: the sorted,
/// deduplicated structural fingerprints of the assertions.
pub type CacheKey = Vec<u128>;

/// The in-memory, thread-shared memoization table for solver queries. It
/// holds decided results only: its [`QueryStore`](crate::QueryStore)
/// implementation drops `Unknown`.
pub type QueryCache = Table<CacheKey, QueryResult>;

// ---- Structural fingerprints ------------------------------------------------

/// Per-solver fingerprint memo. [`TermId`]s are only meaningful within one
/// pool, so the owning [`BvSolver`](crate::solver::BvSolver) clears the memo
/// whenever it sees a different pool (the checker drives one function — one
/// pool — at a time through a solver, so this is a clear-per-function).
#[derive(Debug, Default)]
pub(crate) struct FingerprintMemo {
    memo: HashMap<TermId, u128>,
}

impl FingerprintMemo {
    /// Forget every fingerprint (the pool changed).
    pub(crate) fn clear(&mut self) {
        self.memo.clear();
    }

    /// Canonicalize an assertion set: the assertions sorted by structural
    /// fingerprint (ties are impossible within one pool — hash-consing makes
    /// structurally equal terms the *same* `TermId`, and duplicates are
    /// assumed already removed). The solver registers assertions with its
    /// SAT instance in this order, so the clauses a query adds depend on the
    /// canonical key and the instance's history, never on the order the
    /// checker happened to list the assertions in.
    pub(crate) fn canonicalize(&mut self, pool: &TermPool, assertions: &mut [TermId]) -> CacheKey {
        let mut pairs: Vec<(u128, TermId)> = assertions
            .iter()
            .map(|&a| (fingerprint(pool, a, &mut self.memo), a))
            .collect();
        pairs.sort_unstable();
        for (slot, (_, term)) in assertions.iter_mut().zip(&pairs) {
            *slot = *term;
        }
        let mut key: Vec<u128> = pairs.into_iter().map(|(fp, _)| fp).collect();
        key.dedup();
        key
    }
}

/// Canonical key for an assertion set (sorted, deduplicated structural
/// fingerprints), with a throwaway memo. Prefer a long-lived
/// [`BvSolver`](crate::solver::BvSolver) (which keeps a memo across
/// queries); this entry point exists for tests and diagnostics.
pub fn canonical_key(pool: &TermPool, assertions: &[TermId]) -> CacheKey {
    let mut seen = HashSet::new();
    let mut unique: Vec<TermId> = assertions
        .iter()
        .copied()
        .filter(|&t| seen.insert(t))
        .collect();
    FingerprintMemo::default().canonicalize(pool, &mut unique)
}

/// 128-bit mixing step: a splitmix-style finalizer over the two halves,
/// cross-fed so both halves depend on all inputs. Stable across processes
/// and platforms (no `RandomState`), which is what lets fingerprints and
/// the keys built from them live in a file between runs.
#[inline]
pub fn mix(acc: u128, value: u128) -> u128 {
    let mut lo = (acc as u64) ^ (value as u64);
    let mut hi = ((acc >> 64) as u64) ^ ((value >> 64) as u64);
    lo = lo.wrapping_add(0x9e37_79b9_7f4a_7c15).rotate_left(27);
    hi ^= lo.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hi = hi.rotate_left(31).wrapping_mul(0x94d0_49bb_1331_11eb);
    lo ^= hi >> 29;
    ((hi as u128) << 64) | lo as u128
}

/// Fold a byte string into `acc`: 16-byte blocks through [`mix`], then the
/// length, so a prefix never collides with its extensions.
#[inline]
pub fn mix_bytes(acc: u128, bytes: &[u8]) -> u128 {
    let mut h = acc;
    for chunk in bytes.chunks(16) {
        let mut block = [0u8; 16];
        block[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u128::from_le_bytes(block));
    }
    mix(h, bytes.len() as u128)
}

/// Operator tag and direct children of a term (for the DAG walk).
fn node_shape(pool: &TermPool, id: TermId) -> (u64, [Option<TermId>; 3]) {
    use TermKind::*;
    match &pool.term(id).kind {
        BoolConst(_) => (1, [None; 3]),
        BvConst { .. } => (2, [None; 3]),
        Var { .. } => (3, [None; 3]),
        Not(a) => (4, [Some(*a), None, None]),
        And(a, b) => (5, [Some(*a), Some(*b), None]),
        Or(a, b) => (6, [Some(*a), Some(*b), None]),
        Xor(a, b) => (7, [Some(*a), Some(*b), None]),
        Implies(a, b) => (8, [Some(*a), Some(*b), None]),
        Ite(c, a, b) => (9, [Some(*c), Some(*a), Some(*b)]),
        Eq(a, b) => (10, [Some(*a), Some(*b), None]),
        BvNot(a) => (11, [Some(*a), None, None]),
        BvNeg(a) => (12, [Some(*a), None, None]),
        BvAdd(a, b) => (13, [Some(*a), Some(*b), None]),
        BvSub(a, b) => (14, [Some(*a), Some(*b), None]),
        BvMul(a, b) => (15, [Some(*a), Some(*b), None]),
        BvUdiv(a, b) => (16, [Some(*a), Some(*b), None]),
        BvSdiv(a, b) => (17, [Some(*a), Some(*b), None]),
        BvUrem(a, b) => (18, [Some(*a), Some(*b), None]),
        BvSrem(a, b) => (19, [Some(*a), Some(*b), None]),
        BvAnd(a, b) => (20, [Some(*a), Some(*b), None]),
        BvOr(a, b) => (21, [Some(*a), Some(*b), None]),
        BvXor(a, b) => (22, [Some(*a), Some(*b), None]),
        BvShl(a, b) => (23, [Some(*a), Some(*b), None]),
        BvLshr(a, b) => (24, [Some(*a), Some(*b), None]),
        BvAshr(a, b) => (25, [Some(*a), Some(*b), None]),
        BvUlt(a, b) => (26, [Some(*a), Some(*b), None]),
        BvUle(a, b) => (27, [Some(*a), Some(*b), None]),
        BvSlt(a, b) => (28, [Some(*a), Some(*b), None]),
        BvSle(a, b) => (29, [Some(*a), Some(*b), None]),
        ZExt { value, .. } => (30, [Some(*value), None, None]),
        SExt { value, .. } => (31, [Some(*value), None, None]),
        Extract { value, .. } => (32, [Some(*value), None, None]),
        Concat(a, b) => (33, [Some(*a), Some(*b), None]),
    }
}

/// Leaf/operator payload folded into the hash alongside the tag.
fn node_payload(pool: &TermPool, id: TermId) -> u128 {
    use TermKind::*;
    match &pool.term(id).kind {
        BoolConst(b) => u128::from(*b),
        BvConst { width, value } => ((*width as u128) << 64) | *value as u128,
        Var { name, sort } => {
            let sort_tag: u128 = match sort {
                Sort::Bool => 1 << 96,
                Sort::BitVec(w) => (2u128 << 96) | ((*w as u128) << 64),
            };
            mix_bytes(sort_tag, name.as_bytes())
        }
        ZExt { width, .. } | SExt { width, .. } => *width as u128,
        Extract { hi, lo, .. } => ((*hi as u128) << 32) | *lo as u128,
        _ => 0,
    }
}

/// Structural fingerprint of a term: a 128-bit hash over the DAG below it.
/// Iterative post-order walk (encoded reachability conditions can nest
/// deeply, so recursion is off the table), memoized per node.
fn fingerprint(pool: &TermPool, root: TermId, memo: &mut HashMap<TermId, u128>) -> u128 {
    if let Some(&fp) = memo.get(&root) {
        return fp;
    }
    let mut stack = vec![root];
    while let Some(&id) = stack.last() {
        if memo.contains_key(&id) {
            stack.pop();
            continue;
        }
        let (tag, children) = node_shape(pool, id);
        let mut ready = true;
        for child in children.iter().flatten() {
            if !memo.contains_key(child) {
                stack.push(*child);
                ready = false;
            }
        }
        if !ready {
            continue;
        }
        let mut h = mix(0x0005_7ac4_c0de_0001_u128, tag as u128);
        h = mix(h, node_payload(pool, id));
        for child in children.iter().flatten() {
            h = mix(h, memo[child]);
        }
        memo.insert(id, h);
        stack.pop();
    }
    memo[&root]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryStore;

    #[test]
    fn key_is_order_insensitive_and_dedups() {
        let mut pool = TermPool::new();
        let x = pool.bv_var("x", 32);
        let y = pool.bv_var("y", 32);
        let a = pool.bv_ult(x, y);
        let b = pool.bv_ult(y, x);
        assert_eq!(canonical_key(&pool, &[a, b]), canonical_key(&pool, &[b, a]));
        assert_eq!(
            canonical_key(&pool, &[a, b, a]),
            canonical_key(&pool, &[b, a])
        );
        assert_ne!(canonical_key(&pool, &[a]), canonical_key(&pool, &[b]));
    }

    #[test]
    fn key_is_pool_independent() {
        let build = |pool: &mut TermPool| {
            // Interleave some pool-local garbage so TermIds differ.
            let x = pool.bv_var("x", 16);
            let y = pool.bv_var("y", 16);
            let sum = pool.bv_add(x, y);
            pool.bv_ult(sum, x)
        };
        let mut p1 = TermPool::new();
        let _noise = p1.bv_var("noise", 8);
        let a1 = build(&mut p1);
        let mut p2 = TermPool::new();
        let a2 = build(&mut p2);
        assert_eq!(canonical_key(&p1, &[a1]), canonical_key(&p2, &[a2]));
    }

    #[test]
    fn distinct_structures_get_distinct_keys() {
        let mut pool = TermPool::new();
        let x = pool.bv_var("x", 32);
        let zero = pool.bv_const(32, 0);
        let slt = pool.bv_slt(x, zero);
        let ult = pool.bv_ult(x, zero);
        let z = pool.bv_var("z", 32);
        let slt_z = pool.bv_slt(z, zero);
        assert_ne!(canonical_key(&pool, &[slt]), canonical_key(&pool, &[ult]));
        assert_ne!(canonical_key(&pool, &[slt]), canonical_key(&pool, &[slt_z]));
    }

    #[test]
    fn cache_roundtrip_and_counters() {
        let cache = QueryCache::new();
        let key = vec![1u128, 2u128];
        assert!(QueryStore::lookup(&cache, &key).is_none());
        QueryStore::insert(&cache, key.clone(), &QueryResult::Unsat);
        assert!(matches!(
            QueryStore::lookup(&cache, &key),
            Some(QueryResult::Unsat)
        ));
        // Unknown is never stored.
        let key2 = vec![3u128];
        QueryStore::insert(&cache, key2.clone(), &QueryResult::Unknown);
        assert!(QueryStore::lookup(&cache, &key2).is_none());
        let stats = QueryStore::stats(&cache);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 1);
    }
}
