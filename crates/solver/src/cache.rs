//! Memoized SAT/UNSAT query cache.
//!
//! The checker re-issues structurally identical QF_BV queries across
//! fragments and functions: the same `p != NULL` / overflow side conditions
//! appear in the elimination query of every block a condition dominates, and
//! the synthetic Debian population (§6.5) instantiates the same unstable
//! idioms over and over. The paper reports that solver time dominates the
//! analysis (Figure 16), so answering a repeated query from a lookup instead
//! of a fresh bit-blast + CDCL run is the single highest-leverage shortcut.
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
//! The cache is sharded (`Mutex<HashMap>` per shard, shard picked by key
//! hash) and shared across the scan pipeline's worker threads through an
//! [`Arc`](std::sync::Arc).

use crate::model::Model;
use crate::solver::QueryResult;
use crate::term::{Sort, TermId, TermKind, TermPool};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independent shards; a small power of two keeps contention low
/// without bloating the structure.
const SHARDS: usize = 16;

/// A canonical, pool-independent key for an assertion set: the sorted,
/// deduplicated structural fingerprints of the assertions.
pub type CacheKey = Vec<u128>;

/// A decided query outcome, as stored in the cache (`Unknown` is excluded by
/// construction).
#[derive(Clone, Debug)]
enum CachedResult {
    Sat(Model),
    Unsat,
}

/// Aggregate cache counters (process-wide for one cache instance).
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (and, for decided queries, later inserted).
    pub misses: u64,
    /// Entries currently stored.
    pub entries: u64,
}

/// Fold the (already well-mixed) fingerprints of a key into a shard index.
/// Shared with the disk store's last-used-generation side table so both
/// structures split contention identically.
pub(crate) fn shard_index(key: &CacheKey) -> usize {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for fp in key {
        acc ^= (*fp as u64) ^ ((*fp >> 64) as u64);
        acc = acc.wrapping_mul(0x100_0000_01b3);
    }
    (acc as usize) % SHARDS
}

/// Number of shards [`shard_index`] distributes over (the cache's own
/// shard count).
pub(crate) const STAMP_SHARDS: usize = SHARDS;

/// A sharded, thread-safe memoization table for solver queries.
#[derive(Debug, Default)]
pub struct QueryCache {
    shards: [Mutex<HashMap<CacheKey, CachedResult>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    entries: AtomicU64,
}

impl QueryCache {
    /// An empty cache.
    pub fn new() -> QueryCache {
        QueryCache::default()
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<HashMap<CacheKey, CachedResult>> {
        &self.shards[shard_index(key)]
    }

    /// Look up a decided result for `key`, updating hit/miss counters.
    pub(crate) fn lookup(&self, key: &CacheKey) -> Option<QueryResult> {
        let found = self
            .shard(key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(key)
            .cloned();
        match found {
            Some(CachedResult::Sat(model)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(QueryResult::Sat(model))
            }
            Some(CachedResult::Unsat) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(QueryResult::Unsat)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether `key` has a decided result, without counting a lookup.
    pub(crate) fn contains(&self, key: &CacheKey) -> bool {
        self.shard(key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .contains_key(key)
    }

    /// Store a decided result. `Unknown` is silently ignored: a budget
    /// exhaustion is a property of the budget, not of the formula.
    pub(crate) fn insert(&self, key: CacheKey, result: &QueryResult) {
        let value = match result {
            QueryResult::Sat(model) => CachedResult::Sat(model.clone()),
            QueryResult::Unsat => CachedResult::Unsat,
            QueryResult::Unknown => return,
        };
        let mut shard = self
            .shard(&key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if shard.insert(key, value).is_none() {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A copy of every stored entry, as `(key, decided result)` pairs, in
    /// unspecified order. Used by the disk-backed store to persist the table
    /// and by diagnostics; not a hot path.
    pub fn entries_snapshot(&self) -> Vec<(CacheKey, QueryResult)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (key, value) in shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .iter()
            {
                let result = match value {
                    CachedResult::Sat(model) => QueryResult::Sat(model.clone()),
                    CachedResult::Unsat => QueryResult::Unsat,
                };
                out.push((key.clone(), result));
            }
        }
        out
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
        }
    }

    /// Fraction of lookups answered from the cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let s = self.stats();
        let total = s.hits + s.misses;
        if total == 0 {
            0.0
        } else {
            s.hits as f64 / total as f64
        }
    }
}

// ---- Structural fingerprints ------------------------------------------------

/// Per-solver fingerprint memo. [`TermId`]s are only meaningful within one
/// pool, so the memo records the pool's epoch and resets itself whenever it
/// sees a different pool (the checker drives one function — one pool — at a
/// time through a solver, so in practice this is a clear-per-function).
#[derive(Debug, Default)]
pub(crate) struct FingerprintMemo {
    epoch: u64,
    memo: HashMap<TermId, u128>,
}

impl FingerprintMemo {
    /// Canonicalize an assertion set: the assertions sorted by structural
    /// fingerprint (ties are impossible within one pool — hash-consing makes
    /// structurally equal terms the *same* `TermId`, and duplicates are
    /// assumed already removed). The solver bit-blasts in this order, so the
    /// CNF it builds — and therefore a budget-boundary `Unknown` outcome —
    /// is a function of the canonical key alone, not of the order the
    /// checker happened to list the assertions in. That property is what
    /// makes a cache hit indistinguishable from recomputation.
    pub(crate) fn canonicalize(&mut self, pool: &TermPool, assertions: &mut [TermId]) -> CacheKey {
        if self.epoch != pool.epoch() {
            self.epoch = pool.epoch();
            self.memo.clear();
        }
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

/// 128-bit mixing step (two rounds of a splitmix-style finalizer over the
/// halves, cross-fed so both halves depend on all inputs).
#[inline]
fn mix(acc: u128, value: u128) -> u128 {
    let mut lo = (acc as u64) ^ (value as u64);
    let mut hi = ((acc >> 64) as u64) ^ ((value >> 64) as u64);
    lo = lo.wrapping_add(0x9e37_79b9_7f4a_7c15).rotate_left(27);
    hi ^= lo.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hi = hi.rotate_left(31).wrapping_mul(0x94d0_49bb_1331_11eb);
    lo ^= hi >> 29;
    ((hi as u128) << 64) | lo as u128
}

#[inline]
fn mix_str(acc: u128, s: &str) -> u128 {
    let mut h = acc;
    for chunk in s.as_bytes().chunks(16) {
        let mut block = [0u8; 16];
        block[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u128::from_le_bytes(block));
    }
    mix(h, s.len() as u128)
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
            mix_str(sort_tag, name)
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
        assert!(cache.lookup(&key).is_none());
        cache.insert(key.clone(), &QueryResult::Unsat);
        assert!(matches!(cache.lookup(&key), Some(QueryResult::Unsat)));
        // Unknown is never stored.
        let key2 = vec![3u128];
        cache.insert(key2.clone(), &QueryResult::Unknown);
        assert!(cache.lookup(&key2).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 1);
        assert!((cache.hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }
}
