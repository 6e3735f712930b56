//! Pluggable query stores: where decided solver answers live between queries
//! — and, for the disk-backed store, between *processes*.
//!
//! The [`QueryStore`] trait abstracts the destination of memoized query
//! results. [`BvSolver`](crate::solver::BvSolver) only ever talks to the
//! trait: on every query it looks the canonical fingerprint key up, and on
//! every decided (never `Unknown`) miss it inserts the result back. Two
//! implementations exist:
//!
//! * [`QueryCache`] — the sharded in-memory table of `cache.rs`, shared
//!   across the scan pipeline's worker threads. Dies with the process.
//! * [`DiskQueryStore`] — the same table bracketed by [`open`] and
//!   [`save`]: `open` loads every persisted fingerprint→result pair, `save`
//!   writes the table back, so the next process — the next package of an
//!   archive scan, or the next scan of the same archive entirely — starts
//!   warm. This is the §6.5 deployment mode: the paper's Debian-scale runs
//!   re-analyze thousands of packages that instantiate the same unstable
//!   idioms, and a cross-run store turns all but the first instance into a
//!   lookup.
//!
//! The store file follows the shared discipline of
//! [`recordfile`](crate::recordfile) — versioned header, generation
//! stamps and compaction, per-line checksums and salvage, atomic
//! byte-deterministic saves, strict merge — through [`QueryCodec`]:
//!
//! ```text
//! stack-query-store v4 enc1 gen7
//! U g<gen> <fp>,<fp>,... !<crc32>
//! S g<gen> <fp>,<fp>,... !<crc32>
//! ```
//!
//! One `U`/`S` line carries one UNSAT/SAT entry: its last-used generation
//! stamp and the canonical cache key (sorted 128-bit structural
//! fingerprints, lower-case hex). The header's `enc` field is
//! [`ENCODING_REVISION`]: fingerprints bake in the term encoding, so a store
//! produced by an older encoder or solver self-invalidates rather than
//! serving wrong answers. `Unknown` results are never inserted (a budget
//! exhaustion is a property of the budget, not the formula), so they are
//! never persisted either.
//!
//! SAT entries persist the decided **fact**, never the witness model. The
//! fact is canonical — structurally identical queries decide identically —
//! but a witness is whatever assignment the search happened to land on: in
//! incremental mode it is extracted from a per-function instance whose
//! variables and phases depend on every query that instance answered
//! before, so two runs (or two shards of a distributed scan) legitimately
//! find different witnesses for the same key. A persisted witness would
//! make store bytes history-dependent, and [`merge`] — which insists that
//! duplicate keys carry equal values — would reject honest shard stores.
//! Witnesses therefore stay process-local (the in-memory [`QueryCache`]
//! keeps them); a warm `Sat` hit from disk carries an empty model, which no
//! checker algorithm inspects.
//!
//! [`open`]: DiskQueryStore::open
//! [`save`]: DiskQueryStore::save
//! [`merge`]: DiskQueryStore::merge

use crate::cache::{shard_index, CacheKey, CacheStats, QueryCache, STAMP_SHARDS};
use crate::model::Model;
use crate::recordfile::{BodyLines, Codec, EntryWriter, MergeError, MergeStats, RecordFile};
use crate::solver::QueryResult;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// On-disk layout version of the store file. Bump when the file syntax
/// changes. (v2 added the header generation and per-entry last-used
/// stamps; v3 dropped witness models from `S` lines — witnesses are
/// search-history-dependent, and a mergeable artifact must not be; v4
/// added the per-line ` !<crc32>` checksum that makes torn or truncated
/// stores salvageable line by line. Older files self-invalidate, as any
/// stale cache does.)
pub const STORE_FORMAT_VERSION: u32 = 4;

/// Revision of everything a fingerprint's meaning depends on: the term
/// encoding, the structural fingerprint function, and the solver's decided
/// semantics. Bump whenever any of those change observably — persisted
/// entries from a different revision are discarded at `open`, so stale
/// caches self-invalidate instead of serving answers computed under
/// different semantics.
pub const ENCODING_REVISION: u32 = 1;

/// Destination of memoized query results.
///
/// `lookup` returns a previously decided result for a canonical key (and
/// counts a hit or miss); `insert` stores a decided result (`Unknown` must
/// be ignored). Implementations are shared across worker threads through an
/// `Arc`, so both methods take `&self`.
pub trait QueryStore: Send + Sync + std::fmt::Debug {
    /// Look up a decided result for `key`, updating hit/miss counters.
    fn lookup(&self, key: &CacheKey) -> Option<QueryResult>;

    /// Store a decided result. `Unknown` is silently ignored.
    fn insert(&self, key: CacheKey, result: &QueryResult);

    /// Whether a decided result for `key` is stored: a probe that counts
    /// nothing and refreshes no stamp.
    fn contains(&self, key: &CacheKey) -> bool;

    /// Counters accumulated so far.
    fn stats(&self) -> CacheStats;
}

impl QueryStore for QueryCache {
    fn lookup(&self, key: &CacheKey) -> Option<QueryResult> {
        QueryCache::lookup(self, key)
    }

    fn insert(&self, key: CacheKey, result: &QueryResult) {
        QueryCache::insert(self, key, result);
    }

    fn contains(&self, key: &CacheKey) -> bool {
        QueryCache::contains(self, key)
    }

    fn stats(&self) -> CacheStats {
        QueryCache::stats(self)
    }
}

/// The query store's entry lines: one `U` (UNSAT) or `S` (SAT) line per
/// entry, carrying the canonical key.
#[derive(Debug)]
pub struct QueryCodec;

impl Codec for QueryCodec {
    type Key = CacheKey;
    type Value = QueryResult;
    const PREFIX: &'static str = "stack-query-store";
    const KIND: &'static str = "query";
    const REVISIONS: &'static [(&'static str, u64)] = &[
        ("v", STORE_FORMAT_VERSION as u64),
        ("enc", ENCODING_REVISION as u64),
    ];

    /// `Unknown` cannot appear: the in-memory table never stores it.
    fn tag(result: &QueryResult) -> char {
        match result {
            QueryResult::Unsat => 'U',
            QueryResult::Sat(_) => 'S',
            QueryResult::Unknown => unreachable!("Unknown is never stored"),
        }
    }

    /// `Sat` writes the fact alone: witnesses are process-local (see the
    /// module docs).
    fn write(key: &CacheKey, _: &QueryResult, out: &mut EntryWriter<'_>) {
        let _ = out.write_str(&Self::key_text(key));
    }

    fn read(tag: char, rest: &str, _: &mut BodyLines<'_>) -> Option<(CacheKey, QueryResult)> {
        let result = match tag {
            'U' => QueryResult::Unsat,
            // The empty model is the "witness elided" marker lookups hand
            // back.
            'S' => QueryResult::Sat(Model::new()),
            _ => return None,
        };
        let key = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',')
                .map(|fp| u128::from_str_radix(fp, 16).ok())
                .collect::<Option<_>>()?
        };
        Some((key, result))
    }

    fn key_text(key: &CacheKey) -> String {
        let fps: Vec<String> = key.iter().map(|fp| format!("{fp:032x}")).collect();
        fps.join(",")
    }
}

/// A disk-backed query store: the in-memory sharded table plus its store
/// file. Dereferences to the [`RecordFile`] for the file's lifecycle state
/// (`path`, `generation`, `loaded_entries`, `salvage`, `set_compaction`).
#[derive(Debug)]
pub struct DiskQueryStore {
    file: RecordFile<QueryCodec>,
    mem: QueryCache,
    /// Last-used generation per key (loaded stamps, overwritten with this
    /// run's generation on every hit or insert). Sharded with the cache's
    /// own shard function so the stamp refresh on the parallel hot path
    /// contends exactly like the cache itself, never globally.
    last_used: [Mutex<HashMap<CacheKey, u64>>; STAMP_SHARDS],
}

impl std::ops::Deref for DiskQueryStore {
    type Target = RecordFile<QueryCodec>;

    fn deref(&self) -> &RecordFile<QueryCodec> {
        &self.file
    }
}

impl DiskQueryStore {
    /// Open a store backed by `path`, loading every persisted entry that
    /// verifies and starting the next generation (see
    /// [`RecordFile::open`]). Only I/O failures are errors.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<DiskQueryStore> {
        let (file, entries) = RecordFile::open(path)?;
        let mut store = DiskQueryStore {
            file,
            mem: QueryCache::new(),
            last_used: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        };
        for (key, (result, stamp)) in entries {
            store.last_used[shard_index(&key)]
                .get_mut()
                .unwrap()
                .insert(key.clone(), stamp);
            store.mem.insert(key, &result);
        }
        Ok(store)
    }

    /// Write every entry back to the backing file, minus those past the
    /// compaction horizon ([`RecordFile::set_compaction`]). Returns the
    /// number of entries written. Saving the same logical store twice
    /// within one run produces byte-identical files.
    pub fn save(&self) -> io::Result<usize> {
        let entries = self.mem.entries_snapshot();
        self.file.save(entries.iter().map(|(key, result)| {
            // Entries inserted through the QueryStore interface are always
            // stamped; the default covers direct test populations of the
            // inner cache.
            let stamp = self.last_used[shard_index(key)]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .get(key)
                .copied()
                .unwrap_or(self.generation());
            (key, result, stamp)
        }))
    }

    /// Merge the query stores at `inputs` into one at `out` — the fan-in of
    /// a sharded scan. See [`RecordFile::merge`].
    pub fn merge(
        out: impl AsRef<Path>,
        inputs: &[PathBuf],
        compact_after: Option<u64>,
    ) -> Result<MergeStats, MergeError> {
        RecordFile::<QueryCodec>::merge(out, inputs, compact_after)
    }
}

impl QueryStore for DiskQueryStore {
    fn lookup(&self, key: &CacheKey) -> Option<QueryResult> {
        let result = self.mem.lookup(key)?;
        // A hit refreshes the entry's last-used generation, which is what
        // keeps live entries out of compaction's reach. Idempotent within
        // a run, so a key already stamped this generation skips the
        // key-clone insert entirely (the common case on warm scans).
        let mut stamps = self.last_used[shard_index(key)]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match stamps.get(key) {
            Some(&g) if g == self.generation() => {}
            _ => {
                stamps.insert(key.clone(), self.generation());
            }
        }
        drop(stamps);
        Some(result)
    }

    fn insert(&self, key: CacheKey, result: &QueryResult) {
        if matches!(result, QueryResult::Unknown) {
            return; // mirror the cache: never stored, so never stamped
        }
        self.last_used[shard_index(&key)]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key.clone(), self.generation());
        self.mem.insert(key, result);
    }

    fn contains(&self, key: &CacheKey) -> bool {
        self.mem.contains(key)
    }

    fn stats(&self) -> CacheStats {
        self.mem.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recordfile::crc32;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("stack-store-{tag}-{}.qs", std::process::id()))
    }

    /// The header line this binary writes at `generation`.
    fn header(generation: u64) -> String {
        format!("stack-query-store v{STORE_FORMAT_VERSION} enc{ENCODING_REVISION} gen{generation}")
    }

    fn sat(pairs: &[(&str, u64)]) -> QueryResult {
        let mut model = Model::new();
        for (name, value) in pairs {
            model.set(name, *value);
        }
        QueryResult::Sat(model)
    }

    #[test]
    fn roundtrip_preserves_facts_and_elides_witnesses() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let store = DiskQueryStore::open(&path).unwrap();
        store.insert(vec![1, 2, 3], &QueryResult::Unsat);
        store.insert(vec![9], &sat(&[("arg0_x", 42), ("weird name=%,", 7)]));
        store.insert(vec![5, 6], &sat(&[]));
        store.insert(vec![7], &QueryResult::Unknown); // must not persist
        assert_eq!(store.save().unwrap(), 3);

        let reloaded = DiskQueryStore::open(&path).unwrap();
        assert_eq!(reloaded.loaded_entries(), 3);
        assert!(!reloaded.was_invalidated());
        assert!(matches!(
            reloaded.lookup(&vec![1, 2, 3]),
            Some(QueryResult::Unsat)
        ));
        match reloaded.lookup(&vec![9]) {
            Some(QueryResult::Sat(model)) => {
                // The fact survives; the witness is process-local and does
                // not (see the module docs on why it must not).
                assert_eq!(model.len(), 0, "witness models are never persisted");
            }
            other => panic!("expected SAT, got {other:?}"),
        }
        assert!(matches!(
            reloaded.lookup(&vec![5, 6]),
            Some(QueryResult::Sat(_))
        ));
        assert!(reloaded.lookup(&vec![7]).is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn save_is_deterministic_within_a_generation() {
        let path = temp_path("deterministic");
        let _ = std::fs::remove_file(&path);
        let store = DiskQueryStore::open(&path).unwrap();
        store.insert(vec![3, 4], &QueryResult::Unsat);
        store.insert(vec![1], &sat(&[("b", 2), ("a", 1)]));
        store.save().unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        // Saving the same store again (same run, same generation) is
        // byte-identical.
        store.save().unwrap();
        let second = std::fs::read_to_string(&path).unwrap();
        assert_eq!(first, second);
        // A re-open starts the next generation: an untouched store differs
        // from the previous file only in the header's generation.
        let reloaded = DiskQueryStore::open(&path).unwrap();
        assert_eq!(reloaded.generation(), store.generation() + 1);
        reloaded.save().unwrap();
        let third = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            first.split_once('\n').unwrap().1,
            third.split_once('\n').unwrap().1,
            "entry lines (incl. last-used stamps) unchanged when nothing was touched"
        );
        assert!(third.starts_with(&header(reloaded.generation())));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_revision_self_invalidates() {
        let path = temp_path("stale");
        std::fs::write(
            &path,
            format!(
                "stack-query-store v{STORE_FORMAT_VERSION} enc{} gen1\nU g1 1,2\n",
                ENCODING_REVISION + 1
            ),
        )
        .unwrap();
        let store = DiskQueryStore::open(&path).unwrap();
        assert!(store.was_invalidated());
        assert_eq!(store.loaded_entries(), 0);
        assert!(store.lookup(&vec![1, 2]).is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn old_format_version_self_invalidates() {
        let path = temp_path("v1");
        std::fs::write(
            &path,
            format!("stack-query-store v1 enc{ENCODING_REVISION}\nU 1,2\n"),
        )
        .unwrap();
        let store = DiskQueryStore::open(&path).unwrap();
        assert!(store.was_invalidated());
        assert_eq!(store.generation(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crc32_known_answer() {
        // The standard CRC-32 (IEEE) check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // A line loads only under its own checksum.
        let path = temp_path("crc");
        for (body, loaded) in [
            (line("U g1 2a"), 1),
            ("U g1 2a !deadbeef\n".to_string(), 0),
            ("U g1 2a\n".to_string(), 0),
        ] {
            std::fs::write(&path, format!("{}\n{body}", header(1))).unwrap();
            assert_eq!(
                DiskQueryStore::open(&path).unwrap().loaded_entries(),
                loaded
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// One checksummed body line (payload + valid CRC + newline).
    fn line(payload: &str) -> String {
        format!("{payload} !{:08x}\n", crc32(payload.as_bytes()))
    }

    #[test]
    fn bad_lines_are_salvaged_not_fatal() {
        for bad in [
            "garbage\n".to_string(),
            line("U g1 not-hex"),            // checksums, does not parse
            line("S g1 1,2 m x=1"),          // v2-style witness payload
            line("X g1 3"),                  // unknown entry kind
            line("U 4,5"),                   // missing stamp
            line("U g9 6,7"),                // stamp from the future
            "U g1 8 !0000000\n".to_string(), // truncated checksum
        ] {
            let path = temp_path("salvage");
            std::fs::write(
                &path,
                format!("{}\n{}{bad}{}", header(1), line("U g1 a"), line("U g1 b,c")),
            )
            .unwrap();
            let store = DiskQueryStore::open(&path).unwrap();
            assert!(!store.was_invalidated(), "bad line {bad:?}");
            assert_eq!(store.loaded_entries(), 2, "bad line {bad:?}");
            assert!(store.lookup(&vec![0xa]).is_some());
            assert!(store.lookup(&vec![0xb, 0xc]).is_some());
            let salvage = store.salvage().expect("damage must be reported");
            assert_eq!(salvage.dropped_lines, 1);
            assert_eq!(salvage.valid_prefix_entries, 1);
            assert_eq!(salvage.salvaged_entries, 2);
            let header_len = header(1).len() as u64 + 1;
            assert_eq!(
                salvage.first_bad_offset,
                Some(header_len + line("U g1 a").len() as u64),
                "bad line {bad:?}"
            );
            // A save rewrites the file canonically; the re-open is clean.
            store.save().unwrap();
            let healed = DiskQueryStore::open(&path).unwrap();
            assert_eq!(healed.loaded_entries(), 2);
            assert!(healed.salvage().is_none());
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn duplicate_keys_keep_the_first_occurrence() {
        // A torn write that splices two file versions can duplicate a key;
        // salvage keeps the first line and drops (and counts) the second.
        let path = temp_path("dup");
        std::fs::write(
            &path,
            format!(
                "{}\n{}{}{}",
                header(3),
                line("U g3 1"),
                line("U g1 1"),
                line("S g2 2")
            ),
        )
        .unwrap();
        let store = DiskQueryStore::open(&path).unwrap();
        assert!(!store.was_invalidated());
        assert_eq!(store.loaded_entries(), 2);
        assert!(matches!(store.lookup(&vec![1]), Some(QueryResult::Unsat)));
        let salvage = store.salvage().unwrap();
        assert_eq!(salvage.dropped_lines, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_store_salvages_the_intact_prefix() {
        let path = temp_path("truncate");
        store_with(
            &path,
            &[
                (vec![1], QueryResult::Unsat),
                (vec![2], QueryResult::Unsat),
                (vec![3], QueryResult::Unsat),
            ],
        );
        let full = std::fs::read(&path).unwrap();
        let header_len = full.iter().position(|&b| b == b'\n').unwrap() + 1;
        // Cut mid-way through the last line: the final fragment is dropped
        // (unterminated), the first two entries survive.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let store = DiskQueryStore::open(&path).unwrap();
        assert!(!store.was_invalidated());
        assert_eq!(store.loaded_entries(), 2);
        let salvage = store.salvage().unwrap();
        assert_eq!(salvage.dropped_lines, 1);
        assert_eq!(salvage.valid_prefix_entries, 2);
        assert!(salvage.first_bad_offset.unwrap() >= header_len as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn merge_rejects_stores_that_need_salvage() {
        let good = temp_path("merge-salvage-good");
        let torn = temp_path("merge-salvage-torn");
        let out = temp_path("merge-salvage-out");
        store_with(&good, &[(vec![1], QueryResult::Unsat)]);
        std::fs::write(&torn, format!("{}\n{}garbage\n", header(1), line("U g1 2"))).unwrap();
        let err = DiskQueryStore::merge(&out, &[good.clone(), torn.clone()], None).unwrap_err();
        match &err {
            MergeError::Incompatible { path, reason } => {
                assert_eq!(path, &torn);
                assert!(reason.contains("salvage"), "{reason}");
            }
            other => panic!("expected Incompatible, got {other:?}"),
        }
        assert!(!out.exists());
        std::fs::remove_file(&good).unwrap();
        std::fs::remove_file(&torn).unwrap();
    }

    #[test]
    fn compaction_prunes_only_entries_unused_for_n_generations() {
        let path = temp_path("compaction");
        let _ = std::fs::remove_file(&path);
        // Generation 1: two entries.
        let store = DiskQueryStore::open(&path).unwrap();
        assert_eq!(store.generation(), 1);
        store.insert(vec![1], &QueryResult::Unsat);
        store.insert(vec![2], &sat(&[("x", 5)]));
        store.save().unwrap();
        // Generations 2 and 3: only entry [1] is ever looked up.
        for expected_gen in [2, 3] {
            let store = DiskQueryStore::open(&path).unwrap();
            assert_eq!(store.generation(), expected_gen);
            assert!(store.lookup(&vec![1]).is_some());
            store.save().unwrap();
        }
        // Generation 4, compaction horizon 2: entry [2] was last used at
        // generation 1 (3 generations ago) and is pruned; entry [1] (used at
        // 3) survives, as does a fresh insert.
        let store = DiskQueryStore::open(&path).unwrap();
        store.set_compaction(Some(2));
        store.insert(vec![3], &QueryResult::Unsat);
        assert_eq!(store.save().unwrap(), 2);
        let reloaded = DiskQueryStore::open(&path).unwrap();
        assert_eq!(reloaded.loaded_entries(), 2);
        assert!(reloaded.lookup(&vec![1]).is_some());
        assert!(reloaded.lookup(&vec![3]).is_some());
        assert!(reloaded.lookup(&vec![2]).is_none(), "aged-out entry pruned");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_store() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        let store = DiskQueryStore::open(&path).unwrap();
        assert_eq!(store.loaded_entries(), 0);
        assert!(!store.was_invalidated());
        assert_eq!(store.stats().entries, 0);
    }

    /// Build a store file at `path` holding the given entries, saved at
    /// generation 1.
    fn store_with(path: &PathBuf, entries: &[(Vec<u128>, QueryResult)]) {
        let _ = std::fs::remove_file(path);
        let store = DiskQueryStore::open(path).unwrap();
        for (key, result) in entries {
            store.insert(key.clone(), result);
        }
        store.save().unwrap();
    }

    #[test]
    fn merge_unions_entries_and_counts_duplicates() {
        let a = temp_path("merge-a");
        let b = temp_path("merge-b");
        let out = temp_path("merge-out");
        store_with(
            &a,
            &[(vec![1], QueryResult::Unsat), (vec![2], sat(&[("x", 3)]))],
        );
        store_with(
            &b,
            &[(vec![2], sat(&[("x", 3)])), (vec![5], QueryResult::Unsat)],
        );
        let stats = DiskQueryStore::merge(&out, &[a.clone(), b.clone()], None).unwrap();
        assert_eq!(stats.inputs, 2);
        assert_eq!(stats.entries_in, 4);
        assert_eq!(stats.entries_out, 3);
        assert_eq!(stats.duplicates, 1);
        assert_eq!(stats.pruned, 0);
        let merged = DiskQueryStore::open(&out).unwrap();
        assert!(!merged.was_invalidated());
        assert_eq!(merged.loaded_entries(), 3);
        assert!(matches!(merged.lookup(&vec![1]), Some(QueryResult::Unsat)));
        assert!(matches!(merged.lookup(&vec![2]), Some(QueryResult::Sat(_))));
        assert!(matches!(merged.lookup(&vec![5]), Some(QueryResult::Unsat)));
        for p in [a, b, out] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn merge_with_itself_is_the_identity() {
        let a = temp_path("merge-self");
        let out = temp_path("merge-self-out");
        store_with(
            &a,
            &[
                (vec![9, 10], sat(&[("a", 1), ("b", 2)])),
                (vec![4], QueryResult::Unsat),
            ],
        );
        DiskQueryStore::merge(&out, &[a.clone(), a.clone()], None).unwrap();
        assert_eq!(
            std::fs::read_to_string(&a).unwrap(),
            std::fs::read_to_string(&out).unwrap(),
            "merge(a, a) must reproduce a byte for byte"
        );
        std::fs::remove_file(&a).unwrap();
        std::fs::remove_file(&out).unwrap();
    }

    #[test]
    fn merge_takes_max_stamps_and_compacts() {
        let a = temp_path("merge-stamp-a");
        let b = temp_path("merge-stamp-b");
        let out = temp_path("merge-stamp-out");
        // `a`: entry [1] stamped at generation 1, never touched again, plus
        // a younger entry; re-open twice so the header reaches generation 3.
        store_with(&a, &[(vec![1], QueryResult::Unsat)]);
        for _ in 0..2 {
            let store = DiskQueryStore::open(&a).unwrap();
            store.insert(vec![2], &QueryResult::Unsat);
            store.save().unwrap();
        }
        // `b`: the same old entry, but freshly used at generation 1.
        store_with(&b, &[(vec![1], QueryResult::Unsat)]);
        let stats = DiskQueryStore::merge(&out, &[a.clone(), b.clone()], Some(2)).unwrap();
        assert_eq!(stats.generation, 3, "output generation is the max input's");
        // [1]'s stamp is max(1, 1) = 1, which is 2 generations old at
        // generation 3: pruned. [2] (stamped 3) survives.
        assert_eq!(stats.pruned, 1);
        let merged = DiskQueryStore::open(&out).unwrap();
        assert!(merged.lookup(&vec![1]).is_none(), "aged-out entry pruned");
        assert!(merged.lookup(&vec![2]).is_some());
        for p in [a, b, out] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn merge_rejects_incompatible_inputs_loudly() {
        let good = temp_path("merge-good");
        let bad = temp_path("merge-bad");
        let out = temp_path("merge-bad-out");
        store_with(&good, &[(vec![1], QueryResult::Unsat)]);
        std::fs::write(
            &bad,
            format!(
                "stack-query-store v{STORE_FORMAT_VERSION} enc{} gen1\nU g1 1,2\n",
                ENCODING_REVISION + 1
            ),
        )
        .unwrap();
        let err = DiskQueryStore::merge(&out, &[good.clone(), bad.clone()], None).unwrap_err();
        match &err {
            MergeError::Incompatible { path, reason } => {
                assert_eq!(path, &bad);
                assert!(reason.contains("enc"), "reason names the field: {reason}");
                assert!(
                    reason.contains(&format!("enc{}", ENCODING_REVISION + 1)),
                    "reason names the found revision: {reason}"
                );
            }
            other => panic!("expected Incompatible, got {other:?}"),
        }
        assert!(!out.exists(), "a failed merge writes nothing");
        std::fs::remove_file(&good).unwrap();
        std::fs::remove_file(&bad).unwrap();
    }

    #[test]
    fn merge_rejects_conflicting_values_loudly() {
        let a = temp_path("merge-conflict-a");
        let b = temp_path("merge-conflict-b");
        let out = temp_path("merge-conflict-out");
        // The same key deciding SAT in one store and UNSAT in another means
        // one of them is corrupt (the fact is canonical per key).
        store_with(&a, &[(vec![7], sat(&[("x", 1)]))]);
        store_with(&b, &[(vec![7], QueryResult::Unsat)]);
        let err = DiskQueryStore::merge(&out, &[a.clone(), b.clone()], None).unwrap_err();
        match &err {
            MergeError::Conflict { path, key } => {
                assert_eq!(path, &b);
                assert_eq!(key, &QueryCodec::key_text(&vec![7]));
            }
            other => panic!("expected Conflict, got {other:?}"),
        }
        assert!(!out.exists());
        std::fs::remove_file(&a).unwrap();
        std::fs::remove_file(&b).unwrap();
    }

    #[test]
    fn inspect_reads_headers_even_when_incompatible() {
        let path = temp_path("inspect");
        store_with(
            &path,
            &[(vec![1], QueryResult::Unsat), (vec![2], QueryResult::Unsat)],
        );
        let info = RecordFile::<QueryCodec>::inspect(&path).unwrap();
        assert_eq!(info.kind, "query");
        assert_eq!(info.format_version, u64::from(STORE_FORMAT_VERSION));
        assert_eq!(info.encoding_revision, u64::from(ENCODING_REVISION));
        assert_eq!(info.fingerprint_revision, None);
        assert_eq!(info.generation, 1);
        assert!(info.compatible);
        assert!(!info.malformed);
        assert_eq!(info.entries, 2);
        assert_eq!(info.last_used.get(&1), Some(&2));
        assert!(info.render().contains("entries"));

        // A future encoding revision: open/merge reject it, inspect still
        // reports what the header says.
        std::fs::write(
            &path,
            format!(
                "stack-query-store v{STORE_FORMAT_VERSION} enc{} gen4\n{}{}",
                ENCODING_REVISION + 9,
                line("U g2 1"),
                line("U g4 2")
            ),
        )
        .unwrap();
        let info = RecordFile::<QueryCodec>::inspect(&path).unwrap();
        assert!(!info.compatible);
        assert_eq!(info.encoding_revision, u64::from(ENCODING_REVISION) + 9);
        assert_eq!(info.generation, 4);
        assert!(!info.malformed, "same line format still counts entries");
        assert_eq!(info.entries, 2);
        assert_eq!(info.last_used.get(&2), Some(&1));
        assert_eq!(info.last_used.get(&4), Some(&1));
        // A torn body: inspect reports the salvageable prefix and the byte
        // offset of the first bad line instead of a bare `malformed`.
        let header = header(2);
        std::fs::write(
            &path,
            format!("{header}\n{}corrupt\n{}", line("U g1 1"), line("U g2 2")),
        )
        .unwrap();
        let info = RecordFile::<QueryCodec>::inspect(&path).unwrap();
        assert!(info.compatible);
        assert!(info.malformed);
        assert_eq!(info.entries, 2);
        assert_eq!(info.salvageable_prefix, 1);
        assert_eq!(info.dropped_lines, 1);
        assert_eq!(
            info.first_bad_offset,
            Some((header.len() + 1 + line("U g1 1").len()) as u64)
        );
        let rendered = info.render();
        assert!(rendered.contains("1 bad line"), "{rendered}");
        assert!(rendered.contains("salvageable"), "{rendered}");
        // Not a store file at all: a loud error.
        std::fs::write(&path, "something else\n").unwrap();
        assert!(matches!(
            RecordFile::<QueryCodec>::inspect(&path),
            Err(MergeError::Incompatible { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_fields_parse_and_reject() {
        let path = temp_path("header-fields");
        let inspect = |header: &str| {
            std::fs::write(&path, format!("{header}\n")).unwrap();
            RecordFile::<QueryCodec>::inspect(&path)
                .ok()
                .map(|info| (info.format_version, info.encoding_revision, info.generation))
        };
        assert_eq!(inspect("stack-query-store v2 enc1 gen7"), Some((2, 1, 7)));
        assert_eq!(inspect("stack-query-store"), Some((0, 0, 0)));
        assert_eq!(inspect("stack-query-storev2"), None);
        assert_eq!(inspect("other v2"), None);
        assert_eq!(inspect("stack-query-store vv"), None);
        std::fs::remove_file(&path).unwrap();
    }
}
