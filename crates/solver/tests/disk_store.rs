//! Property coverage for the disk-backed query store: a random population
//! of fingerprint→result entries survives a save/open round trip exactly
//! (same keys, same decided facts — witness models are deliberately
//! process-local and elided on disk), saving is byte-deterministic,
//! merging is commutative and idempotent byte for byte, and a
//! store-backed solver answers real queries identically before and after
//! the round trip.

use proptest::prelude::*;
use stack_solver::{BvSolver, DiskQueryStore, Model, QueryResult, QueryStore, TermId, TermPool};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn temp_path(tag: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "stack-disk-store-{tag}-{}-{}.qs",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A random canonical key: 1–4 distinct fingerprints, sorted (matching what
/// `FingerprintMemo::canonicalize` produces).
fn random_key(state: &mut u64) -> Vec<u128> {
    let len = 1 + (lcg(state) % 4) as usize;
    let mut key: Vec<u128> = (0..len)
        .map(|_| (u128::from(lcg(state)) << 64) | u128::from(lcg(state)))
        .collect();
    key.sort_unstable();
    key.dedup();
    key
}

/// A random variable name, deliberately including characters the line
/// format must escape (spaces, `=`, `%`, commas, non-ASCII).
fn random_name(state: &mut u64) -> String {
    const ALPHABET: &[&str] = &[
        "a", "b", "x", "_", "0", " ", "=", "%", ",", "é", "arg0_", "call3_",
    ];
    let len = 1 + (lcg(state) % 6) as usize;
    (0..len)
        .map(|_| ALPHABET[(lcg(state) as usize) % ALPHABET.len()])
        .collect()
}

/// A random decided result: UNSAT, or SAT with a small random model.
fn random_result(state: &mut u64) -> QueryResult {
    if lcg(state).is_multiple_of(2) {
        return QueryResult::Unsat;
    }
    let mut model = Model::new();
    for _ in 0..(lcg(state) % 4) {
        let name = random_name(state);
        let value = lcg(state);
        model.set(&name, value);
    }
    QueryResult::Sat(model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_population_roundtrips(seed in 0u64..1_000_000) {
        let mut state = seed.wrapping_mul(0x9e37_79b9).wrapping_add(1);
        let path = temp_path("roundtrip");
        let store = DiskQueryStore::open(&path).unwrap();
        let mut expected: Vec<(Vec<u128>, QueryResult)> = Vec::new();
        for _ in 0..(1 + lcg(&mut state) % 24) {
            let key = random_key(&mut state);
            if expected.iter().any(|(k, _)| *k == key) {
                continue; // first insert wins, mirroring the cache
            }
            let result = random_result(&mut state);
            store.insert(key.clone(), &result);
            expected.push((key, result));
        }
        let written = store.save().unwrap();
        prop_assert_eq!(written, expected.len());
        let first_bytes = std::fs::read_to_string(&path).unwrap();
        // Within one run (one generation), saving again is byte-identical.
        store.save().unwrap();
        prop_assert_eq!(&std::fs::read_to_string(&path).unwrap(), &first_bytes);

        let reloaded = DiskQueryStore::open(&path).unwrap();
        prop_assert_eq!(reloaded.loaded_entries(), expected.len() as u64);
        prop_assert!(!reloaded.was_invalidated());
        prop_assert_eq!(reloaded.generation(), store.generation() + 1);
        for (key, result) in &expected {
            let got = reloaded.lookup(key);
            match (result, got) {
                (QueryResult::Unsat, Some(QueryResult::Unsat)) => {}
                (QueryResult::Sat(_), Some(QueryResult::Sat(have))) => {
                    // The fact roundtrips; the witness does not (elided on
                    // disk so store bytes stay history-independent).
                    prop_assert_eq!(have.len(), 0, "witness must be elided");
                }
                (want, have) => prop_assert!(false, "want {:?}, got {:?}", want, have),
            }
        }
        // Saving the reloaded store reproduces the same logical content:
        // every lookup above re-stamped its entry with the new generation,
        // so the files coincide after the generation stamps are normalized.
        reloaded.save().unwrap();
        let second_bytes = std::fs::read_to_string(&path).unwrap();
        let strip = |text: &str| -> Vec<String> {
            text.lines()
                .skip(1) // header carries the generation
                .map(|l| {
                    // The checksum covers the stamp, so drop it too.
                    let (payload, _checksum) =
                        l.rsplit_once(" !").expect("saved lines carry a checksum");
                    let (kind, rest) = payload.split_at(2);
                    let (_stamp, entry) = rest.split_once(' ').unwrap();
                    format!("{kind}{entry}")
                })
                .collect()
        };
        prop_assert_eq!(strip(&first_bytes), strip(&second_bytes));
        std::fs::remove_file(&path).unwrap();
    }

    /// The merge laws the distributed-scan fan-in relies on: merging is
    /// order-independent byte for byte, and merging a store with itself
    /// reproduces it exactly.
    #[test]
    fn merge_is_commutative_and_idempotent(seed in 0u64..1_000_000) {
        let mut state = seed.wrapping_mul(0x51ed_270b).wrapping_add(7);
        let a = temp_path("prop-merge-a");
        let b = temp_path("prop-merge-b");
        // Entries both stores hold (shards overlap on shared queries);
        // random 128-bit keys never collide with the disjoint extras.
        let mut shared: Vec<(Vec<u128>, QueryResult)> = Vec::new();
        for _ in 0..lcg(&mut state) % 8 {
            let key = random_key(&mut state);
            if shared.iter().any(|(k, _)| *k == key) {
                continue;
            }
            let result = random_result(&mut state);
            shared.push((key, result));
        }
        for path in [&a, &b] {
            let store = DiskQueryStore::open(path).unwrap();
            for (key, result) in &shared {
                store.insert(key.clone(), result);
            }
            for _ in 0..lcg(&mut state) % 8 {
                store.insert(random_key(&mut state), &random_result(&mut state));
            }
            store.save().unwrap();
        }
        let ab = temp_path("prop-merge-ab");
        let ba = temp_path("prop-merge-ba");
        let stats_ab = DiskQueryStore::merge(&ab, &[a.clone(), b.clone()], None).unwrap();
        let stats_ba = DiskQueryStore::merge(&ba, &[b.clone(), a.clone()], None).unwrap();
        prop_assert_eq!(
            &std::fs::read_to_string(&ab).unwrap(),
            &std::fs::read_to_string(&ba).unwrap(),
            "merge(a, b) and merge(b, a) must coincide byte for byte"
        );
        prop_assert_eq!(stats_ab.duplicates as usize, shared.len());
        prop_assert_eq!(stats_ba.duplicates as usize, shared.len());
        prop_assert_eq!(stats_ab.entries_out, stats_ba.entries_out);

        let self_out = temp_path("prop-merge-self");
        DiskQueryStore::merge(&self_out, &[a.clone(), a.clone()], None).unwrap();
        prop_assert_eq!(
            &std::fs::read_to_string(&a).unwrap(),
            &std::fs::read_to_string(&self_out).unwrap(),
            "merge(a, a) must reproduce a byte for byte"
        );
        for path in [a, b, ab, ba, self_out] {
            std::fs::remove_file(path).unwrap();
        }
    }
}

/// End-to-end: drive real bit-vector queries through a disk-backed store,
/// persist it, and check that a fresh solver answers every query from the
/// reloaded store with results that still satisfy the original assertions.
#[test]
fn solver_answers_match_after_roundtrip() {
    let path = temp_path("solver");
    let mut pool = TermPool::new();
    let x = pool.bv_var("x", 16);
    let y = pool.bv_var("y", 16);
    let c1 = pool.bv_const(16, 1);
    let sum = pool.bv_add(x, c1);
    let wrap = pool.bv_slt(sum, x);
    let zero = pool.bv_const(16, 0);
    let pos = pool.bv_sgt(x, zero);
    let neg = pool.bv_slt(x, zero);
    let xy = pool.bv_ult(x, y);
    let queries: Vec<Vec<TermId>> = vec![
        vec![wrap],
        vec![wrap, pos],
        vec![wrap, neg],
        vec![pos, neg],
        vec![xy, pos],
    ];

    let store = Arc::new(DiskQueryStore::open(&path).unwrap());
    let mut cold = BvSolver::new().with_store(store.clone() as _);
    let cold_answers: Vec<QueryResult> = queries.iter().map(|q| cold.check(&pool, q)).collect();
    store.save().unwrap();

    let reloaded = Arc::new(DiskQueryStore::open(&path).unwrap());
    assert!(reloaded.loaded_entries() > 0);
    let mut warm = BvSolver::new().with_store(reloaded.clone() as _);
    for (q, cold_answer) in queries.iter().zip(&cold_answers) {
        let warm_answer = warm.check(&pool, q);
        assert_eq!(cold_answer.is_sat(), warm_answer.is_sat(), "query {q:?}");
        assert_eq!(
            cold_answer.is_unsat(),
            warm_answer.is_unsat(),
            "query {q:?}"
        );
        if let QueryResult::Sat(model) = &warm_answer {
            // Disk hits answer with the fact alone; the witness was elided
            // at save time.
            assert!(model.is_empty(), "disk-served witness must be elided");
        }
    }
    // Every warm query was answered from disk: no misses.
    let stats = warm.stats();
    assert_eq!(stats.cache_misses, 0, "{stats:?}");
    assert_eq!(stats.cache_hits, queries.len() as u64);
    std::fs::remove_file(&path).unwrap();
}
