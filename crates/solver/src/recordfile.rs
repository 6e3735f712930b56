//! The file discipline every persisted store shares: the query store
//! ([`DiskQueryStore`](crate::DiskQueryStore)) here and the scan store
//! (`stack_core::ScanStore`) one crate up. A store kind plugs in through a
//! small [`Codec`] — its header prefix and revision fields, and how one
//! entry maps to and from checksummed payload lines — and [`RecordFile`]
//! does everything else.
//!
//! ## Layout
//!
//! ```text
//! <prefix> <tag><rev> ... gen<generation>
//! <tag> g<stamp> <payload> !<crc32>
//! <payload> !<crc32>
//! ```
//!
//! The header names the running binary's revision fields (the codec's
//! [`REVISIONS`](Codec::REVISIONS)) and the **generation** the file was
//! saved at. Each entry opens with a line starting with the codec's
//! one-letter tag and the entry's last-used generation stamp; a codec may
//! continue the entry on further lines. Every body line ends with a
//! ` !`-prefixed CRC-32 of its payload. Entries are written sorted by key,
//! so saving the same logical store at the same generation always produces
//! byte-identical files.
//!
//! ## Crash safety and salvage
//!
//! A save writes a sibling temp file (named after the full path plus the
//! pid, so concurrent savers of a shared file never collide) and renames
//! it over the target, so an interrupted save never replaces a good store.
//! A file can still arrive torn — a crashed copy, a truncated disk, a bit
//! flip in transit — and a cache must never serve a wrong answer because of
//! it. The per-line checksum makes the failure model per entry instead of
//! per file: at [`open`](RecordFile::open), an entry survives only if every
//! one of its lines is newline-terminated, valid UTF-8, checksums and
//! parses, its stamp is not from the future, and its key was not seen
//! before (a duplicate key is the signature of a torn write that spliced
//! two file versions; the first occurrence wins). Everything else is
//! dropped and counted in a [`SalvageReport`], and the next save rewrites
//! the file canonically. Only a header mismatch — a different format,
//! encoding or fingerprint revision, or a header that does not parse, i.e.
//! a file whose *semantics* cannot be trusted — discards the store
//! wholesale ([`was_invalidated`](RecordFile::was_invalidated)).
//!
//! ## Generations and compaction
//!
//! Every `open` starts a new generation: the persisted one plus one (1 for
//! a missing file). The stores stamp every entry a run touches — a lookup
//! hit or an insert — with it, and `save` writes the stamps back. With
//! [`set_compaction`](RecordFile::set_compaction)`(Some(n))` (the CLI's
//! `--compact-store n`), `save` drops every entry whose last use is `n` or
//! more generations old, so an archive-scale store ages out dead keys
//! instead of growing forever. Entries used this run are never dropped.
//!
//! ## Merging and inspection
//!
//! [`merge`](RecordFile::merge) folds several files of one kind into one —
//! the fan-in of a sharded scan — and is strict where `open` is forgiving:
//! an incompatible or salvage-needing input is a loud [`MergeError`], never
//! a silent discard. [`inspect`](RecordFile::inspect) reads any file of the
//! kind without trusting it.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::Hash;
use std::io;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// What one store kind contributes to the shared file discipline.
pub trait Codec {
    /// Entry key. Files are sorted by it and hold each key at most once.
    type Key: Eq + Hash + Ord;
    /// Entry value. A merge insists that inputs holding the same key hold
    /// equal values.
    type Value: PartialEq;
    /// The first token of the header line.
    const PREFIX: &'static str;
    /// The store kind as `stack store inspect` and `fsck` name it.
    const KIND: &'static str;
    /// The header's revision fields after the prefix, in order. Every one
    /// must match for `open` to load a file or `merge` to accept it.
    const REVISIONS: &'static [(&'static str, u64)];

    /// The tag that opens `value`'s first line.
    fn tag(value: &Self::Value) -> char;

    /// Write one entry: the rest of its first line after the shared
    /// `<tag> g<stamp> ` prefix, then any further lines, ending every line
    /// but the last with [`EntryWriter::end_line`].
    fn write(key: &Self::Key, value: &Self::Value, out: &mut EntryWriter<'_>);

    /// Read one entry back from its first line's tag and the payload after
    /// the stamp, taking any further lines from `more`. `None` drops the
    /// entry (and with it every line taken so far).
    fn read(tag: char, rest: &str, more: &mut BodyLines<'_>) -> Option<(Self::Key, Self::Value)>;

    /// The key as a merge conflict names it.
    fn key_text(key: &Self::Key) -> String;
}

/// Appends one entry's lines to a store file image, closing every line
/// with the CRC-32 of its payload.
pub struct EntryWriter<'a> {
    out: &'a mut String,
    line_start: usize,
}

impl EntryWriter<'_> {
    /// Close the current line; what is written next starts a new line.
    pub fn end_line(&mut self) {
        let sum = crc32(&self.out.as_bytes()[self.line_start..]);
        let _ = writeln!(self.out, " !{sum:08x}");
        self.line_start = self.out.len();
    }
}

impl std::fmt::Write for EntryWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.out.push_str(s);
        Ok(())
    }
}

/// The body lines of a store file, from which a [`Codec`] takes the
/// further lines of a multi-line entry.
#[derive(Clone, Copy)]
pub struct BodyLines<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The UTF-8 text from `pos` up to the next byte that is not UTF-8
    /// (for an undamaged file, the whole rest of it), validated once.
    run: &'a str,
}

impl<'a> BodyLines<'a> {
    /// Take the next line if it verifies and `parse` accepts its payload.
    /// Otherwise leave it in place: the salvage loop then counts it as a
    /// bad line of its own, and the caller drops its entry.
    pub fn line<T>(&mut self, parse: impl FnOnce(&'a str) -> Option<T>) -> Option<T> {
        let before = *self;
        let parsed = self
            .advance()
            .and_then(|(line, _)| verified(line?))
            .and_then(parse);
        if parsed.is_none() {
            *self = before;
        }
        parsed
    }

    /// The next non-empty line with its byte offset in the file. The text
    /// is `None` when the line cannot be trusted: an unterminated final
    /// line is truncation debris (every save terminates every line, so it
    /// is dropped even when its checksum happens to verify), and a line
    /// that is not UTF-8 was damaged.
    fn advance(&mut self) -> Option<(Option<&'a str>, u64)> {
        while self.pos < self.bytes.len() {
            if self.run.is_empty() {
                let rest = self.bytes[self.pos..].utf8_chunks().next();
                self.run = rest.map_or("", |chunk| chunk.valid());
            }
            let offset = self.pos as u64;
            // No newline in the run: the line runs into the end of the
            // file or into a byte that is not UTF-8.
            let (line, run) = self
                .run
                .split_once('\n')
                .map_or((None, ""), |(line, run)| (Some(line), run));
            self.run = run;
            let rest = &self.bytes[self.pos..];
            let len = line.map_or_else(
                || rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len()),
                str::len,
            );
            self.pos += len + 1;
            if len > 0 {
                return Some((line, offset));
            }
        }
        None
    }
}

/// Verify one body line's trailing ` !<crc32>`, returning the payload it
/// covers. `None` when the suffix is missing, not 8 hex digits, or does
/// not match.
fn verified(line: &str) -> Option<&str> {
    let (payload, sum) = line.rsplit_once(" !")?;
    if sum.len() != 8 || !sum.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let sum = u32::from_str_radix(sum, 16).ok()?;
    (crc32(payload.as_bytes()) == sum).then_some(payload)
}

/// CRC-32 (IEEE, reflected, polynomial `0xEDB88320`) lookup table,
/// computed at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the checksum every store line carries.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// One store file's lifecycle state: its path, this run's generation,
/// what `open` found, and the compaction horizon `save` applies. A store
/// pairs it with its in-memory table, loads the table from the entries
/// [`open`](Self::open) returns, and hands the table's entries back to
/// [`save`](Self::save).
#[derive(Debug)]
pub struct RecordFile<C: Codec> {
    path: PathBuf,
    generation: u64,
    /// Entries unused for this many generations are dropped at `save`;
    /// 0 means compaction is off.
    compact_after: AtomicU64,
    loaded: u64,
    invalidated: bool,
    /// Set when `open` had to drop bad lines from a torn or corrupted body.
    salvage: Option<SalvageReport>,
    codec: PhantomData<C>,
}

/// Every entry of a store body, with its last-used stamp.
pub type Entries<C> = HashMap<<C as Codec>::Key, (<C as Codec>::Value, u64)>;

impl<C: Codec> RecordFile<C> {
    /// Open the store file at `path`, returning its state and every entry
    /// that verifies, and starting the next generation. A missing file is
    /// an empty store at generation 1; a file whose header does not match
    /// the running binary is discarded wholesale
    /// ([`was_invalidated`](Self::was_invalidated)); a compatible file with
    /// torn or corrupted body lines loads every entry that verifies and
    /// reports the rest through [`salvage`](Self::salvage). Only I/O
    /// failures are errors.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<(RecordFile<C>, Entries<C>)> {
        let mut file = RecordFile {
            path: path.into(),
            generation: 1,
            compact_after: AtomicU64::new(0),
            loaded: 0,
            invalidated: false,
            salvage: None,
            codec: PhantomData,
        };
        let bytes = match std::fs::read(&file.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((file, HashMap::new())),
            Err(e) => return Err(e),
        };
        let (header, body_start) = split_header(&bytes);
        let Ok(generation) = check_header::<C>(&header) else {
            file.invalidated = true;
            return Ok((file, HashMap::new()));
        };
        let (entries, salvage) = read_body::<C>(&bytes, body_start, generation);
        file.generation = generation + 1;
        file.loaded = entries.len() as u64;
        file.salvage = (!salvage.is_clean()).then_some(salvage);
        Ok((file, entries))
    }

    /// Write `entries` (with their last-used stamps) to the file, dropping
    /// those the compaction horizon has passed. Returns the number written.
    pub fn save<'e>(
        &self,
        entries: impl IntoIterator<Item = (&'e C::Key, &'e C::Value, u64)>,
    ) -> io::Result<usize>
    where
        C: 'e,
    {
        let compact_after = self.compact_after.load(Ordering::Relaxed);
        write_file::<C>(&self.path, self.generation, compact_after, entries)
    }

    /// Merge the store files at `inputs` into one at `out`: the sorted
    /// union of their entries, saved the way [`save`](Self::save) saves.
    ///
    /// * An input whose header names a different revision, or that is not
    ///   a file of this kind, is [`MergeError::Incompatible`]; so is one
    ///   that needs salvage, which may have lost entries (`stack store fsck
    ///   --repair` heals it first).
    /// * A key present in several inputs must carry equal values;
    ///   otherwise [`MergeError::Conflict`].
    /// * Stamps take the max across inputs and the output header carries
    ///   the max input generation, so entry ages survive the merge.
    /// * With `compact_after = Some(n)`, entries unused for `n` or more
    ///   generations (relative to the output generation) are pruned.
    ///
    /// Merging a file with itself reproduces it byte for byte, and the
    /// result does not depend on input order.
    pub fn merge(
        out: impl AsRef<Path>,
        inputs: &[PathBuf],
        compact_after: Option<u64>,
    ) -> Result<MergeStats, MergeError> {
        let mut merged: Entries<C> = HashMap::new();
        let mut stats = MergeStats {
            inputs: inputs.len(),
            ..MergeStats::default()
        };
        for path in inputs {
            let incompatible = |reason| MergeError::Incompatible {
                path: path.clone(),
                reason,
            };
            let bytes = std::fs::read(path).map_err(|error| MergeError::Io {
                path: path.clone(),
                error,
            })?;
            let (header, body_start) = split_header(&bytes);
            let generation = check_header::<C>(&header).map_err(incompatible)?;
            let (entries, salvage) = read_body::<C>(&bytes, body_start, generation);
            if !salvage.is_clean() {
                return Err(incompatible(format!(
                    "store needs salvage ({} bad line{}); run fsck --repair before merging",
                    salvage.dropped_lines,
                    if salvage.dropped_lines == 1 { "" } else { "s" }
                )));
            }
            stats.generation = stats.generation.max(generation);
            stats.entries_in += entries.len() as u64;
            // Key order, so the conflict reported does not depend on
            // hashing.
            let mut entries: Vec<_> = entries.into_iter().collect();
            entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            for (key, (value, stamp)) in entries {
                match merged.entry(key) {
                    Entry::Occupied(mut occupied) => {
                        stats.duplicates += 1;
                        if occupied.get().0 != value {
                            return Err(MergeError::Conflict {
                                path: path.clone(),
                                key: C::key_text(occupied.key()),
                            });
                        }
                        let slot = occupied.get_mut();
                        slot.1 = slot.1.max(stamp);
                    }
                    Entry::Vacant(vacant) => {
                        vacant.insert((value, stamp));
                    }
                }
            }
        }
        stats.generation = stats.generation.max(1);
        let out = out.as_ref();
        let written = write_file::<C>(
            out,
            stats.generation,
            compact_after.unwrap_or(0),
            merged
                .iter()
                .map(|(key, (value, stamp))| (key, value, *stamp)),
        )
        .map_err(|error| MergeError::Io {
            path: out.to_path_buf(),
            error,
        })?;
        stats.entries_out = written as u64;
        stats.pruned = stats.entries_in - stats.duplicates - stats.entries_out;
        Ok(stats)
    }

    /// Read the store file at `path` for debugging: header revisions,
    /// generation, entry count, and a last-used-stamp histogram, without
    /// the wholesale discard [`open`](Self::open) applies, so a file a
    /// merge rejected can still be examined. Only the header must parse;
    /// the body is salvage-read, so a torn file shows how much of it is
    /// recoverable.
    pub fn inspect(path: impl AsRef<Path>) -> Result<StoreInspection, MergeError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|error| MergeError::Io {
            path: path.to_path_buf(),
            error,
        })?;
        let (header, body_start) = split_header(&bytes);
        let fields = header_fields(&header, C::PREFIX).ok_or_else(|| MergeError::Incompatible {
            path: path.to_path_buf(),
            reason: format!("not a {} file", C::PREFIX),
        })?;
        let field = |tag: &str| fields.iter().find(|(t, _)| *t == tag).map(|(_, n)| *n);
        // Formats that predate generations get an unbounded stamp horizon
        // so their bodies still count.
        let (entries, salvage) =
            read_body::<C>(&bytes, body_start, field("gen").unwrap_or(u64::MAX));
        let mut last_used = BTreeMap::new();
        for (_, stamp) in entries.values() {
            *last_used.entry(*stamp).or_insert(0) += 1;
        }
        Ok(StoreInspection {
            kind: C::KIND,
            format_version: field("v").unwrap_or(0),
            encoding_revision: field("enc").unwrap_or(0),
            fingerprint_revision: field("fpr"),
            generation: field("gen").unwrap_or(0),
            compatible: check_header::<C>(&header).is_ok(),
            malformed: !salvage.is_clean(),
            entries: entries.len() as u64,
            salvageable_prefix: salvage.valid_prefix_entries,
            first_bad_offset: salvage.first_bad_offset,
            dropped_lines: salvage.dropped_lines,
            last_used,
        })
    }

    /// Number of entries loaded at [`open`](Self::open).
    pub fn loaded_entries(&self) -> u64 {
        self.loaded
    }

    /// This run's generation: the persisted one plus one (1 for a fresh
    /// store). Every save stamps the header, and every entry this run
    /// touched, with it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Set (or clear) the compaction horizon: at [`save`](Self::save),
    /// entries whose last-used stamp is `n` or more generations old are
    /// pruned. `None` (the default) keeps everything forever.
    pub fn set_compaction(&self, n: Option<u64>) {
        self.compact_after.store(n.unwrap_or(0), Ordering::Relaxed);
    }

    /// Whether `open` found a file it had to discard: one written by a
    /// different format, encoding or fingerprint revision, or whose header
    /// does not parse.
    pub fn was_invalidated(&self) -> bool {
        self.invalidated
    }

    /// The damage report when `open` had to drop bad lines from a torn or
    /// corrupted body; `None` when the file loaded clean (or was missing
    /// or invalidated wholesale).
    pub fn salvage(&self) -> Option<&SalvageReport> {
        self.salvage.as_ref()
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Split a file image into its header line (bytes that are not UTF-8
/// replaced, so they fail every header check) and the offset its body
/// starts at.
fn split_header(bytes: &[u8]) -> (Cow<'_, str>, usize) {
    let end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .unwrap_or(bytes.len());
    let header = bytes[..end].strip_suffix(b"\r").unwrap_or(&bytes[..end]);
    (String::from_utf8_lossy(header), end + 1)
}

/// Split a header line like `stack-query-store v4 enc1 gen7` into its
/// tag/number fields (`[("v", 4), ("enc", 1), ("gen", 7)]`). `None` when
/// the prefix is absent or any token is not tag-then-digits.
fn header_fields<'a>(line: &'a str, prefix: &str) -> Option<Vec<(&'a str, u64)>> {
    let rest = line.strip_prefix(prefix)?;
    if !rest.is_empty() && !rest.starts_with(' ') {
        return None;
    }
    let mut fields = Vec::new();
    for token in rest.split_whitespace() {
        let digits = token.find(|c: char| c.is_ascii_digit())?;
        if digits == 0 {
            return None;
        }
        let (tag, number) = token.split_at(digits);
        fields.push((tag, number.parse().ok()?));
    }
    Some(fields)
}

/// Check a header line against the codec's revision fields and return the
/// generation it names, or a reason naming found vs. expected.
fn check_header<C: Codec>(line: &str) -> Result<u64, String> {
    let fields = header_fields(line, C::PREFIX)
        .ok_or_else(|| format!("not a {} file (header `{line}`)", C::PREFIX))?;
    let field = |tag: &str| fields.iter().find(|(t, _)| *t == tag).map(|(_, n)| *n);
    for &(tag, want) in C::REVISIONS {
        match field(tag) {
            Some(n) if n == want => {}
            Some(n) => {
                return Err(format!(
                    "{tag} revision mismatch: file has {tag}{n}, this binary expects {tag}{want}"
                ))
            }
            None => return Err(format!("header `{line}` lacks the {tag} field")),
        }
    }
    field("gen").ok_or_else(|| format!("header `{line}` lacks the gen field"))
}

/// Salvage-read the entries of a store body (everything from `body_start`
/// on). See the module docs for what survives; every dropped entry or
/// stray line is counted at its byte offset.
fn read_body<C: Codec>(
    bytes: &[u8],
    body_start: usize,
    generation: u64,
) -> (Entries<C>, SalvageReport) {
    let mut entries = HashMap::new();
    let mut salvage = SalvageReport::default();
    let mut lines = BodyLines {
        bytes,
        pos: body_start,
        run: "",
    };
    while let Some((line, offset)) = lines.advance() {
        let entry = line.and_then(verified).and_then(|payload| {
            let mut chars = payload.chars();
            let tag = chars.next()?;
            let (stamp, rest) = chars.as_str().strip_prefix(" g")?.split_once(' ')?;
            let stamp: u64 = stamp.parse().ok().filter(|&stamp| stamp <= generation)?;
            let (key, value) = C::read(tag, rest, &mut lines)?;
            Some((key, value, stamp))
        });
        match entry.map(|(key, value, stamp)| (entries.entry(key), value, stamp)) {
            Some((Entry::Vacant(slot), value, stamp)) => {
                slot.insert((value, stamp));
                salvage.entry();
            }
            _ => salvage.bad(offset),
        }
    }
    (entries, salvage)
}

/// Write a complete store file — the header at `generation`, then
/// `entries` minus those past the compaction horizon, sorted by key — via
/// a sibling temp file and a rename. Returns the number of entries
/// written.
fn write_file<'e, C: Codec + 'e>(
    path: &Path,
    generation: u64,
    compact_after: u64,
    entries: impl IntoIterator<Item = (&'e C::Key, &'e C::Value, u64)>,
) -> io::Result<usize> {
    let mut entries: Vec<_> = entries
        .into_iter()
        .filter(|&(_, _, stamp)| compact_after == 0 || generation - stamp < compact_after)
        .collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let mut out = C::PREFIX.to_string();
    for (tag, value) in C::REVISIONS {
        let _ = write!(out, " {tag}{value}");
    }
    let _ = writeln!(out, " gen{generation}");
    for (key, value, stamp) in &entries {
        let line_start = out.len();
        let _ = write!(out, "{} g{stamp} ", C::tag(value));
        let mut writer = EntryWriter {
            out: &mut out,
            line_start,
        };
        C::write(key, value, &mut writer);
        writer.end_line();
    }
    let mut tmp = path.to_path_buf().into_os_string();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, &out)?;
    std::fs::rename(&tmp, path)?;
    Ok(entries.len())
}

/// What a salvage pass over a store body recovered and what it dropped.
/// A clean body has zero dropped lines and no first-bad offset.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Body lines dropped because they failed to verify: the first line
    /// of every dropped entry, plus every stray line.
    pub dropped_lines: u64,
    /// Byte offset, from the start of the file, of the first bad line.
    pub first_bad_offset: Option<u64>,
    /// Entries recovered before the first bad line — the intact leading
    /// prefix a simple truncation leaves behind.
    pub valid_prefix_entries: u64,
    /// Total entries recovered (the prefix plus every verifiable entry
    /// after the damage).
    pub salvaged_entries: u64,
}

impl SalvageReport {
    /// Whether the body verified in full (nothing was dropped).
    pub fn is_clean(&self) -> bool {
        self.dropped_lines == 0
    }

    fn entry(&mut self) {
        if self.first_bad_offset.is_none() {
            self.valid_prefix_entries += 1;
        }
        self.salvaged_entries += 1;
    }

    fn bad(&mut self, offset: u64) {
        self.dropped_lines += 1;
        if self.first_bad_offset.is_none() {
            self.first_bad_offset = Some(offset);
        }
    }
}

/// Statistics of one store merge.
#[derive(Clone, Copy, Debug, Default)]
pub struct MergeStats {
    /// Input store files read.
    pub inputs: usize,
    /// Entries across all inputs (duplicates counted every time they
    /// appear beyond the first).
    pub entries_in: u64,
    /// Entries in the merged output.
    pub entries_out: u64,
    /// Input entries whose key was already present (value equality was
    /// asserted; stamps took the max).
    pub duplicates: u64,
    /// Entries dropped by the compaction horizon.
    pub pruned: u64,
    /// The output header's generation: the max across inputs.
    pub generation: u64,
}

/// Why a store merge (or inspection) failed. Merging is strict where
/// `open` is forgiving: a store that cannot be trusted byte for byte is
/// a loud error, never a silent discard — a fleet-shared cache built from
/// a half-read input would serve wrong answers forever.
#[derive(Debug)]
pub enum MergeError {
    /// Reading an input or writing the output failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying I/O error.
        error: io::Error,
    },
    /// An input was written by a different format or encoding/fingerprint
    /// revision, is not a store file of the kind at all, or needs salvage.
    Incompatible {
        /// The offending input.
        path: PathBuf,
        /// What exactly mismatched, naming found vs. expected.
        reason: String,
    },
    /// Two inputs store different values under the same key — one of them
    /// is corrupt or was produced under different semantics.
    Conflict {
        /// The input whose entry disagreed with an earlier one.
        path: PathBuf,
        /// The conflicting key, rendered in the store's line syntax.
        key: String,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            MergeError::Incompatible { path, reason } => {
                write!(f, "{}: incompatible store: {reason}", path.display())
            }
            MergeError::Conflict { path, key } => write!(
                f,
                "{}: conflicting value for key {key} (inputs disagree; refusing to merge)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// What [`RecordFile::inspect`] reads off a store file without trusting
/// it: the header fields, whether they match the running binary, and a
/// last-used histogram of the entries that verify.
#[derive(Clone, Debug)]
pub struct StoreInspection {
    /// `"query"` or `"scan"`.
    pub kind: &'static str,
    /// The header's format version.
    pub format_version: u64,
    /// The header's encoding revision.
    pub encoding_revision: u64,
    /// The header's fingerprint revision (scan stores only).
    pub fingerprint_revision: Option<u64>,
    /// The header's generation (0 for formats that predate generations).
    pub generation: u64,
    /// Whether every header field matches the running binary — i.e.
    /// whether `open` would load this file and `merge` would accept it.
    pub compatible: bool,
    /// Whether any body line failed to verify under the current line
    /// format (those lines were dropped; the rest counted).
    pub malformed: bool,
    /// Entries that verified (salvageable content).
    pub entries: u64,
    /// Entries in the intact leading prefix, before the first bad line.
    pub salvageable_prefix: u64,
    /// Byte offset of the first bad line, when `malformed`.
    pub first_bad_offset: Option<u64>,
    /// Body lines dropped as unverifiable.
    pub dropped_lines: u64,
    /// last-used generation stamp → entry count.
    pub last_used: BTreeMap<u64, u64>,
}

impl StoreInspection {
    /// Render as the aligned text block `stack store inspect` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} store", self.kind);
        let _ = writeln!(out, "  format version   {:>8}", self.format_version);
        let _ = writeln!(out, "  encoding rev     {:>8}", self.encoding_revision);
        if let Some(fpr) = self.fingerprint_revision {
            let _ = writeln!(out, "  fingerprint rev  {:>8}", fpr);
        }
        let _ = writeln!(out, "  generation       {:>8}", self.generation);
        let _ = writeln!(
            out,
            "  compatible       {:>8}",
            if self.compatible { "yes" } else { "NO" }
        );
        if self.malformed {
            let _ = writeln!(
                out,
                "  body             {} bad line{} (first at byte offset {})",
                self.dropped_lines,
                if self.dropped_lines == 1 { "" } else { "s" },
                self.first_bad_offset.unwrap_or(0)
            );
            let _ = writeln!(
                out,
                "  salvageable      {:>8} leading entr{} ({} total)",
                self.salvageable_prefix,
                if self.salvageable_prefix == 1 {
                    "y"
                } else {
                    "ies"
                },
                self.entries
            );
        }
        let _ = writeln!(out, "  entries          {:>8}", self.entries);
        if !self.last_used.is_empty() {
            let _ = writeln!(out, "  last used:");
            for (stamp, count) in &self.last_used {
                let age = self.generation.saturating_sub(*stamp);
                let _ = writeln!(
                    out,
                    "    gen {stamp:>6} ({age:>3} old)  {count:>8} entr{}",
                    if *count == 1 { "y" } else { "ies" }
                );
            }
        }
        out.trim_end().to_string()
    }
}
