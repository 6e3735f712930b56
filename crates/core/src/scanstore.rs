//! The persisted report cache: function replay key → replayable reports,
//! and file key → the file's function replay keys.
//!
//! [`ScanStore`] is the second persistence layer of incremental re-scan,
//! sibling to the query-level
//! [`DiskQueryStore`](stack_solver::DiskQueryStore). Where the query store
//! makes a repeated *query* free, the scan store makes a repeated
//! *function* free: a function whose replay key
//! ([`function_replay_key`](crate::fingerprint::function_replay_key)) is
//! already recorded replays its saved raw [`BugReport`]s — in their
//! original discovery order — without issuing a single solver query, and is
//! counted as skipped
//! ([`CheckStats::functions_skipped`](crate::CheckStats)). An edited module
//! therefore pays the solver only for its edited functions; a module whose
//! functions all replay is additionally counted in
//! [`CheckStats::modules_skipped`](crate::CheckStats).
//!
//! A second entry kind, the **file record**, makes a repeated *file* free
//! of the front end as well: under a file's
//! [`file_replay_key`](crate::fingerprint::file_replay_key) (its bytes, not
//! its path) the store keeps the replay keys of its functions in order, so
//! a byte-identical file finds its function records without being
//! compiled, optimized or keyed. A file record is only a shortcut to
//! function records: it holds no reports, and a file whose function
//! records are gone compiles again.
//!
//! **Path normalization.** Replay keys are path-independent, so one record
//! serves the same function under every path — identical vendored files
//! across an archive share one analysis. To make that sound, records are
//! stored *path-normalized*: at insert, every occurrence of the recording
//! module's file name in a report (the `file` field and the `file:line`
//! prefixes of `ub_sources`) is replaced with a reserved placeholder;
//! [`FunctionRecord::replay`] substitutes the scanning module's name back
//! in. Records for one key are thus byte-identical no matter which path
//! recorded them — which is exactly what lets shard scans that saw the
//! same function under different paths merge without conflict. The first
//! insert of a key wins.
//!
//! The store follows the discipline both persisted stores share,
//! implemented once in [`stack_solver::recordfile`]: the records live in
//! the same entry table the query store keeps its answers in, and the file
//! has a versioned header, generation stamps and compaction, per-line
//! checksums and salvage, atomic byte-deterministic saves and strict merge.
//! The header adds [`FINGERPRINT_REVISION`]; any revision mismatch discards
//! the whole file (a v4 store without file records self-invalidates the
//! same way — that *is* the migration). The keys additionally bake both
//! revisions and the semantics-relevant config knobs into their own bits,
//! so even a same-format file can never replay reports computed under
//! different semantics.
//!
//! ## Format
//!
//! ```text
//! stack-scan-store v5 enc2 fpr2 gen3
//! F g<gen> <key> r<reports> !<crc32>
//! R <alg> <line> <cg> <function> <file> <description> u <kind>@<loc> ... !<crc32>
//! M g<gen> <file key> n<count> <key> ... !<crc32>
//! ```
//!
//! `F` opens one function entry (last-used generation stamp, replay key in
//! lower-case hex, report count); exactly `r` `R` lines follow, one per
//! raw report in discovery order, and the record is kept or dropped as a
//! unit. String fields are percent-escaped so they never contain
//! whitespace, `@` or `%`; the path placeholder is the (never-graphic) byte
//! `0x01`, escaped as `%01`. `M` is one file entry on one line: the file
//! key, the function count, then that many function replay keys in
//! definition order (v5 added it).

use crate::fingerprint::{FunctionKey, FINGERPRINT_REVISION};
use crate::report::{Algorithm, BugReport, UbSource};
use crate::ubcond::UbKind;
use stack_solver::recordfile::{BodyLines, Codec, EntryWriter};
use stack_solver::{CacheStats, MergeError, MergeStats, RecordFile};
use std::fmt::{self, Write as _};
use std::io;
use std::path::{Path, PathBuf};

/// On-disk layout version of the scan-store file. Bump when the syntax
/// changes. (v2 added the header generation and per-record last-used
/// stamps; v3 added the per-line ` !<crc32>` checksum that makes torn or
/// truncated stores salvageable record by record; v4 moved from
/// module-fingerprint entries to per-function replay keys with
/// path-normalized reports; v5 added file records. Older files
/// self-invalidate, as any stale cache does.)
pub const SCAN_STORE_FORMAT_VERSION: u32 = 5;

/// The in-record stand-in for the recording module's file name. A control
/// byte, so it can never collide with a real (percent-escaped, graphic)
/// path, and never survives into user-visible reports — replay always
/// substitutes the scanning module's name.
const PATH_PLACEHOLDER: &str = "\u{1}";

/// The replayable record of one analyzed function: its raw (pre-filter)
/// reports in discovery order, path-normalized. Build with
/// [`normalized`](FunctionRecord::normalized), read back with
/// [`replay`](FunctionRecord::replay).
#[derive(Clone, Debug, PartialEq)]
pub struct FunctionRecord {
    /// The function's raw reports with the recording path replaced by the
    /// placeholder. Not user-visible as-is — replay rewrites them.
    pub reports: Vec<BugReport>,
}

impl FunctionRecord {
    /// Normalize a function's freshly computed raw reports for storage:
    /// every mention of `file` (the recording module's name) becomes the
    /// placeholder, so the record is identical no matter which path the
    /// function was analyzed under.
    pub fn normalized(reports: &[BugReport], file: &str) -> FunctionRecord {
        FunctionRecord {
            reports: reports
                .iter()
                .map(|r| rewrite_report_path(r, file, PATH_PLACEHOLDER))
                .collect(),
        }
    }

    /// Reconstitute the raw reports for a replay under `file` (the
    /// scanning module's name): the placeholder is substituted back, so
    /// the replayed stream is byte-identical to what a fresh analysis of
    /// this function in that module would produce.
    pub fn replay(&self, file: &str) -> Vec<BugReport> {
        self.reports
            .iter()
            .map(|r| rewrite_report_path(r, PATH_PLACEHOLDER, file))
            .collect()
    }
}

/// Rewrite every mention of file name `from` in a report to `to`: the
/// report's own `file` field and the `from:`-prefixed `ub_sources`
/// locations. Locations naming *other* files (or no file — unknown
/// origins render as `:0`) pass through untouched.
fn rewrite_report_path(report: &BugReport, from: &str, to: &str) -> BugReport {
    if from.is_empty() {
        return report.clone();
    }
    let mut out = report.clone();
    if out.file == from {
        out.file = to.to_string();
    }
    let prefix = format!("{from}:");
    for src in &mut out.ub_sources {
        if let Some(rest) = src.location.strip_prefix(&prefix) {
            src.location = format!("{to}:{rest}");
        }
    }
    out
}

/// One scan-store entry.
#[derive(Clone, Debug, PartialEq)]
pub enum ScanEntry {
    /// Under a function replay key: the function's record.
    Function(FunctionRecord),
    /// Under a file key: the file's function replay keys in definition
    /// order. A boxed slice, not a `Vec`, so the entry stays as small as a
    /// function record and the table's buckets do not grow.
    File(Box<[FunctionKey]>),
}

/// The scan store's entries: one `F` line per function record, followed
/// by one `R` line per report, and one `M` line per file record.
#[derive(Debug)]
pub struct ScanCodec;

impl Codec for ScanCodec {
    type Key = FunctionKey;
    type Value = ScanEntry;
    const PREFIX: &'static str = "stack-scan-store";
    const KIND: &'static str = "scan";
    const REVISIONS: &'static [(&'static str, u64)] = &[
        ("v", SCAN_STORE_FORMAT_VERSION as u64),
        ("enc", stack_solver::ENCODING_REVISION as u64),
        ("fpr", FINGERPRINT_REVISION as u64),
    ];

    fn tag(entry: &ScanEntry) -> char {
        match entry {
            ScanEntry::Function(_) => 'F',
            ScanEntry::File(_) => 'M',
        }
    }

    fn write(key: &FunctionKey, entry: &ScanEntry, out: &mut EntryWriter<'_>) {
        let _ = write!(out, "{key:032x}");
        match entry {
            ScanEntry::File(keys) => {
                let _ = write!(out, " n{}", keys.len());
                for key in keys {
                    let _ = write!(out, " {key:032x}");
                }
            }
            ScanEntry::Function(record) => {
                let _ = write!(out, " r{}", record.reports.len());
                for report in &record.reports {
                    out.end_line();
                    let _ = write!(
                        out,
                        "R {} {} {} {} {} {}",
                        algorithm_tag(report.algorithm),
                        report.line,
                        u8::from(report.compiler_generated),
                        Escaped(&report.function),
                        Escaped(&report.file),
                        Escaped(&report.description)
                    );
                    for src in &report.ub_sources {
                        let _ = write!(
                            out,
                            " u {}@{}",
                            src.kind.short_name(),
                            Escaped(&src.location)
                        );
                    }
                }
            }
        }
    }

    fn read(tag: char, rest: &str, more: &mut BodyLines<'_>) -> Option<(FunctionKey, ScanEntry)> {
        let mut parts = rest.split(' ');
        let key = parse_key(parts.next()?)?;
        let entry = match tag {
            'F' => {
                let count: usize = parts.next()?.strip_prefix('r')?.parse().ok()?;
                if parts.next().is_some() {
                    return None;
                }
                // `count` comes from the file, so it bounds the
                // preallocation only up to what a real record holds.
                let mut reports = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    reports.push(more.line(parse_report)?);
                }
                ScanEntry::Function(FunctionRecord { reports })
            }
            'M' => {
                let count: usize = parts.next()?.strip_prefix('n')?.parse().ok()?;
                let keys: Box<[FunctionKey]> = parts.map(parse_key).collect::<Option<_>>()?;
                if keys.len() != count {
                    return None;
                }
                ScanEntry::File(keys)
            }
            _ => return None,
        };
        Some((key, entry))
    }

    fn key_text(key: &FunctionKey) -> String {
        format!("{key:032x}")
    }
}

/// Parse one hex key.
fn parse_key(text: &str) -> Option<FunctionKey> {
    u128::from_str_radix(text, 16).ok()
}

/// A disk-backed table of function records and file records: the store
/// file's [`RecordFile`], with keys and records passed by value. Shared
/// across the scan pipeline's file-level workers through an `Arc`, so all
/// methods take `&self`. Dereferences to the [`RecordFile`] for the file's
/// lifecycle (`path`, `generation`, `loaded_entries`, `salvage`,
/// `set_compaction`, `save`).
#[derive(Debug)]
pub struct ScanStore {
    file: RecordFile<ScanCodec>,
}

impl std::ops::Deref for ScanStore {
    type Target = RecordFile<ScanCodec>;

    fn deref(&self) -> &RecordFile<ScanCodec> {
        &self.file
    }
}

impl ScanStore {
    /// Open a store backed by `path`, loading every persisted record that
    /// verifies and starting the next generation (see
    /// [`RecordFile::open`]). Only I/O failures are errors.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<ScanStore> {
        RecordFile::open(path).map(|file| ScanStore { file })
    }

    /// Whether an entry for `key` is stored: a probe that counts nothing
    /// and refreshes no stamp.
    pub(crate) fn contains(&self, key: FunctionKey) -> bool {
        self.table().contains(&key)
    }

    /// Look up the function record for a replay key, counting a hit or
    /// miss. A hit refreshes the record's last-used stamp to this run's
    /// generation.
    pub fn lookup(&self, key: FunctionKey) -> Option<FunctionRecord> {
        match self.table().lookup(&key)? {
            ScanEntry::Function(record) => Some(record),
            ScanEntry::File(_) => None,
        }
    }

    /// Record a freshly analyzed function, stamped with this run's
    /// generation. First insert wins for the record itself (normalized
    /// records for one key are identical by construction).
    pub fn insert(&self, key: FunctionKey, record: FunctionRecord) {
        self.table().insert(key, ScanEntry::Function(record));
    }

    /// Look up the file record for a file key
    /// ([`file_replay_key`](crate::fingerprint::file_replay_key)): its
    /// function replay keys in order. Counts and stamps like
    /// [`lookup`](Self::lookup).
    pub fn lookup_file(&self, key: FunctionKey) -> Option<Box<[FunctionKey]>> {
        match self.table().lookup(&key)? {
            ScanEntry::File(keys) => Some(keys),
            ScanEntry::Function(_) => None,
        }
    }

    /// Record a file's function replay keys under its file key. First
    /// insert wins, like [`insert`](Self::insert): the keys are a pure
    /// function of the file key.
    pub fn insert_file(&self, key: FunctionKey, keys: Box<[FunctionKey]>) {
        self.table().insert(key, ScanEntry::File(keys));
    }

    /// Merge several scan-store files into one at `out` — the
    /// distributed-scan fan-in. Path normalization makes the records two
    /// shards took of one function under different paths equal, so they
    /// union instead of conflicting. See [`RecordFile::merge`].
    pub fn merge(
        out: impl AsRef<Path>,
        inputs: &[PathBuf],
        compact_after: Option<u64>,
    ) -> Result<MergeStats, MergeError> {
        RecordFile::<ScanCodec>::merge(out, inputs, compact_after)
    }

    /// Counters accumulated so far: lookups answered (functions skipped,
    /// and file records found), lookups missed, and entries stored.
    pub fn stats(&self) -> CacheStats {
        self.table().stats()
    }

    /// Function records stored.
    pub fn function_records(&self) -> u64 {
        self.table()
            .count(|entry| matches!(entry, ScanEntry::Function(_)))
    }

    /// File records stored.
    pub fn file_records(&self) -> u64 {
        self.table()
            .count(|entry| matches!(entry, ScanEntry::File(_)))
    }
}

/// Parse one `R` line back into a report.
fn parse_report(line: &str) -> Option<BugReport> {
    let rest = line.strip_prefix("R ")?;
    let mut parts = rest.split(' ');
    let algorithm = parse_algorithm(parts.next()?)?;
    let line_no: u32 = parts.next()?.parse().ok()?;
    let compiler_generated = match parts.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let function = unescape(parts.next()?)?;
    let file = unescape(parts.next()?)?;
    let description = unescape(parts.next()?)?;
    let mut ub_sources = Vec::new();
    while let Some(marker) = parts.next() {
        if marker != "u" {
            return None;
        }
        let (kind_text, loc_text) = parts.next()?.split_once('@')?;
        let kind = parse_ub_kind(kind_text)?;
        ub_sources.push(UbSource {
            kind,
            location: unescape(loc_text)?,
        });
    }
    Some(BugReport {
        function,
        file,
        line: line_no,
        algorithm,
        description,
        ub_sources,
        compiler_generated,
    })
}

/// Stable one-word tag per algorithm (round-tripped by
/// [`parse_algorithm`]).
fn algorithm_tag(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::Elimination => "elim",
        Algorithm::SimplifyBoolean => "bool",
        Algorithm::SimplifyAlgebra => "algebra",
    }
}

fn parse_algorithm(tag: &str) -> Option<Algorithm> {
    match tag {
        "elim" => Some(Algorithm::Elimination),
        "bool" => Some(Algorithm::SimplifyBoolean),
        "algebra" => Some(Algorithm::SimplifyAlgebra),
        _ => None,
    }
}

/// Invert [`UbKind::short_name`] (the Figure 9 column labels, already
/// unique).
fn parse_ub_kind(tag: &str) -> Option<UbKind> {
    UbKind::all()
        .iter()
        .copied()
        .find(|k| k.short_name() == tag)
}

/// A string percent-escaped so it never contains whitespace, `@`, or `%`
/// (the characters the line format relies on). The path placeholder byte
/// `0x01` is non-graphic, so it always renders as `%01`.
struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut plain = 0;
        for (i, byte) in self.0.bytes().enumerate() {
            if byte.is_ascii_graphic() && byte != b'%' && byte != b'@' {
                continue;
            }
            if plain < i {
                // Bytes since `plain` are ASCII, so both ends are char
                // boundaries.
                f.write_str(&self.0[plain..i])?;
            }
            write!(f, "%{byte:02x}")?;
            plain = i + 1;
        }
        f.write_str(&self.0[plain..])
    }
}

/// Invert [`Escaped`]. `None` on malformed escapes or invalid UTF-8.
fn unescape(text: &str) -> Option<String> {
    let mut out = Vec::with_capacity(text.len());
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stack_solver::ENCODING_REVISION;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "stack-scan-store-{tag}-{}-{}.ss",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// The header line this binary writes at `generation`.
    fn header(generation: u64) -> String {
        format!(
            "stack-scan-store v{SCAN_STORE_FORMAT_VERSION} enc{ENCODING_REVISION} fpr{FINGERPRINT_REVISION} gen{generation}"
        )
    }

    fn sample_report(line: u32) -> BugReport {
        BugReport {
            function: "tun chr/poll".to_string(), // space + slash exercise escaping
            file: "drivers/net@tun.c".to_string(),
            line,
            algorithm: Algorithm::Elimination,
            description: "code is reachable only by inputs that trigger UB; 100% gone".to_string(),
            ub_sources: vec![
                UbSource {
                    kind: UbKind::NullPointerDereference,
                    location: "tun.c:3".to_string(),
                },
                UbSource {
                    kind: UbKind::SignedIntegerOverflow,
                    location: "tun.c:9".to_string(),
                },
            ],
            compiler_generated: line.is_multiple_of(2),
        }
    }

    fn record(lines: &[u32]) -> FunctionRecord {
        FunctionRecord {
            reports: lines.iter().map(|&l| sample_report(l)).collect(),
        }
    }

    #[test]
    fn roundtrip_preserves_records_and_report_order() {
        let path = temp_path("roundtrip");
        let store = ScanStore::open(&path).unwrap();
        store.insert(7, record(&[5, 2]));
        store.insert(u128::MAX, record(&[]));
        assert_eq!(store.save().unwrap(), 2);

        let reloaded = ScanStore::open(&path).unwrap();
        assert_eq!(reloaded.loaded_entries(), 2);
        assert!(!reloaded.was_invalidated());
        let found = reloaded.lookup(7).expect("record survives");
        assert_eq!(
            found.reports,
            vec![sample_report(5), sample_report(2)],
            "reports replay in their recorded order"
        );
        assert_eq!(reloaded.lookup(u128::MAX).unwrap().reports.len(), 0);
        assert!(reloaded.lookup(8).is_none());
        let stats = reloaded.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_records_roundtrip_beside_function_records() {
        let path = temp_path("file-records");
        let store = ScanStore::open(&path).unwrap();
        store.insert(7, record(&[5]));
        store.insert(9, record(&[]));
        store.insert_file(0x42, vec![9, 7].into_boxed_slice());
        store.insert_file(0x43, Box::new([]));
        assert_eq!((store.function_records(), store.file_records()), (2, 2));
        assert_eq!(store.save().unwrap(), 4);
        let text = std::fs::read_to_string(&path).unwrap();
        let hex = |k: u128| format!("{k:032x}");
        assert!(
            text.contains(&format!("M g1 {} n2 {} {} !", hex(0x42), hex(9), hex(7))),
            "{text}"
        );
        assert!(text.contains(&format!("M g1 {} n0 !", hex(0x43))), "{text}");

        let reloaded = ScanStore::open(&path).unwrap();
        assert!(reloaded.salvage().is_none());
        assert_eq!(reloaded.loaded_entries(), 4);
        assert_eq!(
            (reloaded.function_records(), reloaded.file_records()),
            (2, 2)
        );
        assert_eq!(reloaded.lookup_file(0x42).as_deref(), Some(&[9, 7][..]));
        assert_eq!(reloaded.lookup_file(0x43).as_deref(), Some(&[][..]));
        // A key names one kind of entry: the other lookup finds nothing.
        assert!(reloaded.lookup(0x42).is_none());
        assert!(reloaded.lookup_file(7).is_none());
        assert_eq!(reloaded.lookup(7).unwrap(), record(&[5]));

        // Merge stays strict for file records: the same file key with
        // other function keys is a conflict.
        let other = temp_path("file-records-other");
        let conflicting = ScanStore::open(&other).unwrap();
        conflicting.insert_file(0x42, vec![7, 9].into_boxed_slice());
        conflicting.save().unwrap();
        let out = temp_path("file-records-out");
        match ScanStore::merge(&out, &[path.clone(), other.clone()], None) {
            Err(MergeError::Conflict { key, .. }) => assert_eq!(key, hex(0x42)),
            result => panic!("expected Conflict, got {result:?}"),
        }
        assert!(!out.exists());
        for p in [path, other] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn normalization_makes_records_path_independent_and_replay_rewrites() {
        // The same function analyzed under two paths: reports differ only in
        // the file they name.
        let report_under = |file: &str| BugReport {
            function: "f".to_string(),
            file: file.to_string(),
            line: 2,
            algorithm: Algorithm::SimplifyBoolean,
            description: "check always true".to_string(),
            ub_sources: vec![
                UbSource {
                    kind: UbKind::SignedIntegerOverflow,
                    location: format!("{file}:1"),
                },
                UbSource {
                    kind: UbKind::NullPointerDereference,
                    location: "other.c:9".to_string(), // inlined from elsewhere
                },
            ],
            compiler_generated: false,
        };
        let a = FunctionRecord::normalized(&[report_under("a/vendored.c")], "a/vendored.c");
        let b = FunctionRecord::normalized(&[report_under("b/deep/copy.c")], "b/deep/copy.c");
        assert_eq!(a, b, "normalized records must not depend on the path");
        // Replay under a third path reconstructs exactly what a fresh
        // analysis there would report — including the untouched foreign
        // ub-source location.
        assert_eq!(a.replay("c/new.c"), vec![report_under("c/new.c")]);
        // And the normalized form survives a disk roundtrip (the
        // placeholder byte is escaped).
        let path = temp_path("normalized");
        let store = ScanStore::open(&path).unwrap();
        store.insert(1, a.clone());
        store.save().unwrap();
        let reloaded = ScanStore::open(&path).unwrap();
        assert_eq!(reloaded.lookup(1).unwrap(), a);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn save_is_byte_deterministic() {
        let path = temp_path("deterministic");
        let store = ScanStore::open(&path).unwrap();
        for key in [9u128, 1, 4] {
            store.insert(key, record(&[key as u32]));
        }
        store.save().unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        // Saving the same store again (same run, same generation) is
        // byte-identical.
        store.save().unwrap();
        let second = std::fs::read_to_string(&path).unwrap();
        assert_eq!(first, second);
        // A re-open starts the next generation: an untouched store differs
        // from the previous file only in the header's generation.
        let reloaded = ScanStore::open(&path).unwrap();
        assert_eq!(reloaded.generation(), store.generation() + 1);
        reloaded.save().unwrap();
        let third = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            first.split_once('\n').unwrap().1,
            third.split_once('\n').unwrap().1,
            "record lines (incl. last-used stamps) unchanged when nothing was touched"
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// One checksummed body line (payload + valid CRC + newline), with
    /// the CRC-32 (IEEE) computed bit by bit, independently of the store.
    fn line(payload: &str) -> String {
        let mut crc = u32::MAX;
        for &byte in payload.as_bytes() {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        format!("{payload} !{:08x}\n", !crc)
    }

    #[test]
    fn mismatched_revision_self_invalidates() {
        let bad_headers = [
            // The v3 module-keyed format (its fpr1 keys died with it).
            "stack-scan-store v3 enc1 fpr1 gen1\n".to_string(),
            // The v4 format, which had no file records.
            format!("stack-scan-store v4 enc{ENCODING_REVISION} fpr{FINGERPRINT_REVISION} gen1\n"),
            format!(
                "stack-scan-store v{SCAN_STORE_FORMAT_VERSION} enc999 fpr{FINGERPRINT_REVISION} gen1\n"
            ),
        ];
        for header in &bad_headers {
            let path = temp_path("stale");
            std::fs::write(&path, format!("{header}{}", line("F g1 1 r0"))).unwrap();
            let store = ScanStore::open(&path).unwrap();
            assert!(store.was_invalidated(), "header {header:?}");
            assert_eq!(store.loaded_entries(), 0);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn bad_records_are_salvaged_not_fatal() {
        for bad in [
            "garbage\n".to_string(),
            line("F 3 r0"),                           // stamp missing
            line("F g2 3 r0"),                        // stamp beyond the header generation
            line("F g1 nothex r0"),                   // bad key
            line("F g1 3 r1"),                        // missing R line
            line(&format!("F g1 3 r{}", usize::MAX)), // absurd report count
            line("M g1 3 n2 1"),                      // fewer keys than counted
            line("M g1 3 n1 1 2"),                    // more keys than counted
            line("M g1 3 n1 nothex"),                 // bad function key
            line("M g1 3 1"),                         // count missing
        ] {
            let path = temp_path("salvaged");
            // One good record on each side of the damage.
            std::fs::write(
                &path,
                format!(
                    "{}\n{}{bad}{}",
                    header(1),
                    line("F g1 1 r0"),
                    line("F g1 2 r0")
                ),
            )
            .unwrap();
            let store = ScanStore::open(&path).unwrap();
            assert!(!store.was_invalidated(), "bad {bad:?}");
            assert_eq!(store.loaded_entries(), 2, "bad {bad:?}");
            assert!(store.lookup(1).is_some());
            assert!(store.lookup(2).is_some());
            let salvage = *store.salvage().expect("damage must be reported");
            assert_eq!(salvage.dropped_lines, 1, "bad {bad:?}");
            assert_eq!(salvage.valid_prefix_entries, 1);
            assert_eq!(salvage.salvaged_entries, 2);
            assert_eq!(
                salvage.first_bad_offset,
                Some((header(1).len() + 1 + line("F g1 1 r0").len()) as u64)
            );
            // A save rewrites the file canonically; the re-open is clean.
            store.save().unwrap();
            let healed = ScanStore::open(&path).unwrap();
            assert_eq!(healed.loaded_entries(), 2);
            assert!(healed.salvage().is_none());
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn record_with_bad_report_line_drops_as_a_unit() {
        // The F line verifies but its R line does not: the whole record
        // drops (F counted, then the orphan R line counted on resync) and
        // the following record still loads.
        let path = temp_path("bad-report");
        std::fs::write(
            &path,
            format!(
                "{}\n{}{}{}",
                header(1),
                line("F g1 1 r1"),
                line("R wat 1 0 f g d"),
                line("F g1 2 r0")
            ),
        )
        .unwrap();
        let store = ScanStore::open(&path).unwrap();
        assert!(!store.was_invalidated());
        assert_eq!(store.loaded_entries(), 1);
        assert!(store.lookup(1).is_none());
        assert!(store.lookup(2).is_some());
        let salvage = store.salvage().unwrap();
        assert_eq!(salvage.dropped_lines, 2);
        assert_eq!(salvage.valid_prefix_entries, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_keys_keep_the_first_record() {
        let path = temp_path("dup");
        std::fs::write(
            &path,
            format!(
                "{}\n{}{}{}",
                header(2),
                line("F g2 1 r1"),
                line("R elim 3 0 f g d"),
                line("F g1 1 r0")
            ),
        )
        .unwrap();
        let store = ScanStore::open(&path).unwrap();
        assert!(!store.was_invalidated());
        assert_eq!(store.loaded_entries(), 1);
        assert_eq!(
            store.lookup(1).unwrap().reports.len(),
            1,
            "first record wins"
        );
        assert_eq!(store.salvage().unwrap().dropped_lines, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_store_salvages_the_intact_prefix() {
        let path = store_with("truncate", &[(1, 1), (2, 2), (3, 3)]);
        let full = std::fs::read(&path).unwrap();
        // Cut mid-way through the final record's R line: records 1 and 2
        // survive, the torn record drops.
        std::fs::write(&path, &full[..full.len() - 4]).unwrap();
        let store = ScanStore::open(&path).unwrap();
        assert!(!store.was_invalidated());
        assert_eq!(store.loaded_entries(), 2);
        assert!(store.lookup(1).is_some());
        assert!(store.lookup(2).is_some());
        assert!(store.lookup(3).is_none());
        let salvage = store.salvage().unwrap();
        assert_eq!(salvage.valid_prefix_entries, 2);
        assert!(salvage.dropped_lines >= 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn merge_rejects_stores_that_need_salvage() {
        let good = store_with("merge-salvage-good", &[(1, 1)]);
        let torn = temp_path("merge-salvage-torn");
        std::fs::write(
            &torn,
            format!("{}\n{}garbage\n", header(1), line("F g1 2 r0")),
        )
        .unwrap();
        let out = temp_path("merge-salvage-out");
        match ScanStore::merge(&out, &[good.clone(), torn.clone()], None) {
            Err(MergeError::Incompatible { reason, .. }) => {
                assert!(reason.contains("salvage"), "{reason}");
            }
            other => panic!("expected Incompatible, got {other:?}"),
        }
        assert!(!out.exists());
        for path in [good, torn] {
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn missing_file_is_an_empty_store() {
        let path = temp_path("missing");
        let store = ScanStore::open(&path).unwrap();
        assert_eq!(store.loaded_entries(), 0);
        assert_eq!(store.generation(), 1);
        assert!(!store.was_invalidated());
    }

    /// Build a store file at a fresh temp path holding the given
    /// (key, report line number) pairs, each with one sample report.
    fn store_with(tag: &str, entries: &[(u128, u32)]) -> PathBuf {
        let path = temp_path(tag);
        let store = ScanStore::open(&path).unwrap();
        for &(key, report_line) in entries {
            store.insert(key, record(&[report_line]));
        }
        store.save().unwrap();
        path
    }

    #[test]
    fn generations_advance_and_stamps_refresh_on_use() {
        let path = store_with("generations", &[(1, 1), (2, 2)]);
        // Generation 2: touch only key 1.
        let store = ScanStore::open(&path).unwrap();
        assert_eq!(store.generation(), 2);
        assert!(store.lookup(1).is_some());
        store.save().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(&header(2)), "{text}");
        assert!(
            text.contains("F g2 00000000000000000000000000000001"),
            "{text}"
        );
        assert!(
            text.contains("F g1 00000000000000000000000000000002"),
            "{text}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_prunes_unused_records() {
        let path = store_with("compaction", &[(1, 1), (2, 2)]);
        // Two more generations touching only key 1.
        for expected_gen in [2, 3] {
            let store = ScanStore::open(&path).unwrap();
            assert_eq!(store.generation(), expected_gen);
            assert!(store.lookup(1).is_some());
            store.set_compaction(Some(2));
            store.save().unwrap();
        }
        // Key 2 (last used at generation 1) fell behind the 2-generation
        // horizon at the generation-3 save.
        let reloaded = ScanStore::open(&path).unwrap();
        assert_eq!(reloaded.loaded_entries(), 1);
        assert!(reloaded.lookup(1).is_some());
        assert!(reloaded.lookup(2).is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn merge_unions_entries_and_counts_duplicates() {
        let a = store_with("merge-a", &[(1, 1), (2, 2)]);
        let b = store_with("merge-b", &[(2, 2), (3, 3)]);
        let out = temp_path("merge-out");
        let stats = ScanStore::merge(&out, &[a.clone(), b.clone()], None).unwrap();
        // Fan-in must not depend on the order shard stores arrive in.
        let reversed = temp_path("merge-out-rev");
        ScanStore::merge(&reversed, &[b.clone(), a.clone()], None).unwrap();
        assert_eq!(
            std::fs::read_to_string(&out).unwrap(),
            std::fs::read_to_string(&reversed).unwrap(),
            "merge(a, b) and merge(b, a) must coincide byte for byte"
        );
        std::fs::remove_file(&reversed).unwrap();
        assert_eq!(stats.inputs, 2);
        assert_eq!(stats.entries_in, 4);
        assert_eq!(stats.entries_out, 3);
        assert_eq!(stats.duplicates, 1);
        assert_eq!(stats.pruned, 0);
        let merged = ScanStore::open(&out).unwrap();
        assert_eq!(merged.loaded_entries(), 3);
        for key in [1u128, 2, 3] {
            assert_eq!(
                merged.lookup(key).expect("merged record").reports[0].line,
                key as u32
            );
        }
        for path in [a, b, out] {
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn merge_with_itself_is_the_identity() {
        let a = store_with("merge-self", &[(7, 2), (9, 1)]);
        let out = temp_path("merge-self-out");
        ScanStore::merge(&out, &[a.clone(), a.clone()], None).unwrap();
        assert_eq!(
            std::fs::read_to_string(&a).unwrap(),
            std::fs::read_to_string(&out).unwrap(),
            "merging a store with itself must reproduce it byte for byte"
        );
        std::fs::remove_file(&a).unwrap();
        std::fs::remove_file(&out).unwrap();
    }

    #[test]
    fn merge_rejects_incompatible_and_conflicting_inputs_loudly() {
        let good = store_with("merge-good", &[(1, 1)]);
        let stale = temp_path("merge-stale");
        std::fs::write(
            &stale,
            format!(
                "stack-scan-store v{SCAN_STORE_FORMAT_VERSION} enc{ENCODING_REVISION} fpr{} gen1\n",
                FINGERPRINT_REVISION + 1
            ),
        )
        .unwrap();
        let out = temp_path("merge-reject-out");
        match ScanStore::merge(&out, &[good.clone(), stale.clone()], None) {
            Err(MergeError::Incompatible { reason, .. }) => {
                assert!(
                    reason.contains(&format!("fpr{}", FINGERPRINT_REVISION + 1)),
                    "reason must name the mismatch: {reason}"
                );
            }
            other => panic!("expected Incompatible, got {other:?}"),
        }
        assert!(!out.exists(), "a failed merge must not write an output");

        // Same key, different record: loud conflict.
        let conflicting = store_with("merge-conflict", &[(1, 5)]);
        match ScanStore::merge(&out, &[good.clone(), conflicting.clone()], None) {
            Err(MergeError::Conflict { key, .. }) => {
                assert!(key.contains('1'), "key names the replay key: {key}");
            }
            other => panic!("expected Conflict, got {other:?}"),
        }
        for path in [good, stale, conflicting] {
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn merge_takes_max_stamps_and_compacts() {
        // Store a: generation 3, key 1 stamped g3, key 2 stamped g1.
        let a = temp_path("merge-stamps-a");
        std::fs::write(
            &a,
            format!(
                "{}\n{}{}",
                header(3),
                line("F g3 00000000000000000000000000000001 r0"),
                line("F g1 00000000000000000000000000000002 r0")
            ),
        )
        .unwrap();
        // Store b: generation 2, key 1 stamped g2 (older than a's).
        let b = temp_path("merge-stamps-b");
        std::fs::write(
            &b,
            format!(
                "{}\n{}",
                header(2),
                line("F g2 00000000000000000000000000000001 r0")
            ),
        )
        .unwrap();
        let out = temp_path("merge-stamps-out");
        let stats = ScanStore::merge(&out, &[b.clone(), a.clone()], Some(2)).unwrap();
        assert_eq!(stats.generation, 3, "output generation is the max");
        assert_eq!(
            stats.entries_out, 1,
            "the g1 record fell behind the horizon"
        );
        assert_eq!(stats.pruned, 1);
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(
            text.contains("F g3 00000000000000000000000000000001"),
            "{text}"
        );
        for path in [a, b, out] {
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn inspect_reads_headers_even_when_incompatible() {
        let path = store_with("inspect", &[(1, 1), (2, 2)]);
        let info = RecordFile::<ScanCodec>::inspect(&path).unwrap();
        assert_eq!(info.kind, "scan");
        assert_eq!(info.format_version, u64::from(SCAN_STORE_FORMAT_VERSION));
        assert_eq!(
            info.fingerprint_revision,
            Some(u64::from(FINGERPRINT_REVISION))
        );
        assert_eq!(info.generation, 1);
        assert!(info.compatible);
        assert!(!info.malformed);
        assert_eq!(info.entries, 2);
        assert_eq!(info.last_used.get(&1), Some(&2));

        // A future fingerprint revision: still inspectable, flagged
        // incompatible.
        let stale = temp_path("inspect-stale");
        std::fs::write(
            &stale,
            format!(
                "stack-scan-store v{SCAN_STORE_FORMAT_VERSION} enc{ENCODING_REVISION} fpr{} gen4\n{}",
                FINGERPRINT_REVISION + 9,
                line("F g2 1 r0")
            ),
        )
        .unwrap();
        let info = RecordFile::<ScanCodec>::inspect(&stale).unwrap();
        assert!(!info.compatible);
        assert_eq!(info.generation, 4);
        assert_eq!(info.entries, 1);
        assert!(info.render().contains("NO"), "{}", info.render());

        // Not a scan store at all: loud error.
        let other = temp_path("inspect-other");
        std::fs::write(&other, "stack-query-store v2 enc1 gen1\n").unwrap();
        assert!(matches!(
            RecordFile::<ScanCodec>::inspect(&other),
            Err(MergeError::Incompatible { .. })
        ));
        for p in [path, stale, other] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn escape_roundtrip() {
        for text in ["plain", "a b@c%d", "héllo\nworld", "", PATH_PLACEHOLDER] {
            assert_eq!(unescape(&Escaped(text).to_string()).as_deref(), Some(text));
        }
        let escaped = Escaped("a b@c").to_string();
        assert!(!escaped.contains(' '));
        assert!(!escaped.contains('@'));
        assert_eq!(Escaped(PATH_PLACEHOLDER).to_string(), "%01");
    }
}
