//! Canonical fingerprints: the "unchanged" test of incremental re-scan.
//!
//! The paper's flagship deployment (§6.5) re-scans the Debian archive as it
//! evolves, and between runs almost nothing changes. Skipping unchanged
//! work entirely needs a key for "unchanged" — and raw source bytes are
//! the wrong key: a comment or a reformatting changes the bytes without
//! changing anything the checker could observe. Following the
//! structural-operational-semantics tradition (a program's meaning is its
//! derived transition structure, not its spelling), the key hashes the
//! **verified, lowered IR** in its pool-independent canonical print
//! instead:
//!
//! * formatting, comments, and macro-expansion spelling vanish during
//!   lexing/lowering, so cosmetic edits within a line keep the key stable;
//! * any instruction change — including a changed constant, type, or UB
//!   condition carrier — changes the print and therefore the key.
//!
//! [`function_replay_key`] is the per-function key the
//! [`ScanStore`](crate::ScanStore) uses, so an edited module replays the
//! reports of its unchanged functions and only the edited functions hit
//! the solver:
//!
//! - the **path does not participate** — records are stored
//!   path-normalized and rewritten to the scanning file on replay, so
//!   identical vendored files across an archive share one analysis
//!   (cross-path dedup);
//! - the **origin lines and kinds do participate** (via
//!   [`origin_signature`]: every instruction's source line and
//!   macro/inline provenance, but never its file) — replayed reports
//!   embed line numbers, so a function whose lines shifted must miss and
//!   re-analyze rather than replay stale locations.
//!
//! Two non-IR inputs are mixed into the key, because cached *reports*
//! are only replayable when they would be re-derived identically:
//!
//! * [`ENCODING_REVISION`] — a new encoder/solver revision may decide
//!   queries differently, so every key of the old revision dies;
//! * the semantics-relevant [`CheckerConfig`] knobs (`query_budget`,
//!   `report_compiler_generated`) — they change which reports a function
//!   yields. The pure performance knob `query_cache` deliberately does
//!   **not** participate: it changes how a result is computed, never what
//!   it is.

use crate::checker::CheckerConfig;
use stack_ir::{Function, OriginKind};
use stack_solver::ENCODING_REVISION;

/// A per-function replay key (128 bits): what the scan store is keyed on.
pub type FunctionKey = u128;

/// Revision of the fingerprint *scheme itself* (what is hashed and how).
/// Bump when the canonicalization changes — e.g. new fields mixed in — so
/// persisted scan stores from older schemes self-invalidate. (2: the scan
/// store moved from module fingerprints to per-function replay keys.)
pub const FINGERPRINT_REVISION: u32 = 2;

/// The structural digest of one function: a stable hash of its canonical
/// print, which excludes origins entirely — the same body at any path, or
/// shifted to different lines, digests identically.
pub fn function_digest(func: &Function) -> u128 {
    hash_bytes(stack_ir::print_function(func).as_bytes())
}

/// The origin signature of a function: every instruction's source *line*
/// and macro/inline provenance, in print order — and never its *file*.
/// Reports derive their locations and their suppression flag from exactly
/// these fields, so two functions with equal [`function_digest`]s and equal
/// origin signatures yield byte-identical reports up to the file name.
pub fn origin_signature(func: &Function) -> u128 {
    let mut h = 0x0717_51e6_0002_u128;
    for block in func.block_ids() {
        for &inst in &func.block(block).insts {
            let origin = &func.inst(inst).origin;
            h = mix(h, u128::from(origin.loc.line));
            h = match &origin.kind {
                OriginKind::Programmer => mix(h, 1),
                OriginKind::MacroExpansion { macro_name } => {
                    mix(mix(h, 2), hash_bytes(macro_name.as_bytes()))
                }
                OriginKind::Inlined { callee } => mix(mix(h, 3), hash_bytes(callee.as_bytes())),
            };
        }
    }
    h
}

/// The scan store's per-function replay key: structural digest + origin
/// signature + the revision and config bits that decide what reports the
/// function yields. Path-independent by construction — see the module docs
/// for why that is safe (stored reports are path-normalized) and what it
/// buys (cross-path dedup).
pub fn function_replay_key(func: &Function, config: &CheckerConfig) -> FunctionKey {
    let mut h = function_digest(func);
    h = mix(h, origin_signature(func));
    h = mix(h, u128::from(ENCODING_REVISION));
    h = mix(h, u128::from(FINGERPRINT_REVISION));
    h = mix(h, u128::from(config.query_budget));
    h = mix(h, u128::from(config.report_compiler_generated));
    h
}

/// The distributed-scan partition key of one scan input: a stable hash of
/// the raw source **content** only. Deliberately path-independent and
/// config-independent: the shard key must stay put when the archive around
/// the file grows, shrinks, or renames siblings, so a re-sharded scan
/// reassigns as few modules as possible (the consistent-hashing rationale
/// applied to scan partitioning).
pub fn content_key(source: &[u8]) -> u128 {
    hash_bytes(source)
}

/// Which shard (0-based, `< shard_count`) owns the input with the given
/// [`content_key`]. Deterministic in the key alone — never the position in
/// the module list — so every worker of a fan-out computes the same
/// partition without coordination.
pub fn shard_assignment(key: u128, shard_count: usize) -> usize {
    assert!(shard_count > 0, "shard_count must be positive");
    // Fold both halves so the assignment uses all 128 bits.
    (((key >> 64) as u64 ^ key as u64) % shard_count as u64) as usize
}

/// 128-bit mixing step: a splitmix-style finalizer over the two halves,
/// cross-fed so both halves depend on all inputs. Stable across processes
/// and platforms (no `RandomState`), which is what lets fingerprints live in
/// a file between runs.
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

/// Stable 128-bit hash of a byte string (16-byte blocks through [`mix`],
/// length-finalized so prefixes never collide with their extensions).
fn hash_bytes(bytes: &[u8]) -> u128 {
    let mut h = 0x5ca4_f1e6_0001_u128;
    for chunk in bytes.chunks(16) {
        let mut block = [0u8; 16];
        block[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u128::from_le_bytes(block));
    }
    mix(h, bytes.len() as u128)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-function replay keys of a compiled source, in definition order.
    fn keys(src: &str, file: &str, config: &CheckerConfig) -> Vec<FunctionKey> {
        let mut module = stack_minic::compile(src, file).unwrap();
        stack_opt::optimize_for_analysis(&mut module);
        module
            .functions()
            .iter()
            .map(|f| function_replay_key(f, config))
            .collect()
    }

    const TWO_FUNCS: &str = "\
        int f(int x) { if (x + 7 < x) return 1; return 0; }\n\
        int g(int *p) { int v = *p; if (!p) return 1; return v; }\n";

    #[test]
    fn semantic_edits_change_the_fingerprint() {
        let cfg = CheckerConfig::default();
        let base = keys(TWO_FUNCS, "test.c", &cfg);
        // A changed constant, a changed type (removes the signed-overflow
        // UB condition) and a renamed function (reports embed the name)
        // each re-key the edited function and leave its sibling's key.
        for f in [
            "int f(int x) { if (x + 8 < x) return 1; return 0; }",
            "int f(unsigned int x) { if (x + 7 < x) return 1; return 0; }",
            "int f2(int x) { if (x + 7 < x) return 1; return 0; }",
        ] {
            let edited = keys(
                &format!("{f}\nint g(int *p) {{ int v = *p; if (!p) return 1; return v; }}\n"),
                "test.c",
                &cfg,
            );
            assert_ne!(base[0], edited[0], "{f}");
            assert_eq!(base[1], edited[1], "{f}");
        }
    }

    #[test]
    fn function_keys_are_path_independent_but_config_dependent() {
        let cfg = CheckerConfig::default();
        assert_eq!(
            keys(TWO_FUNCS, "a/test.c", &cfg),
            keys(TWO_FUNCS, "b/nested/copy.c", &cfg),
            "the same bytes under any path must share one analysis"
        );
        let budget = CheckerConfig {
            query_budget: cfg.query_budget + 1,
            ..cfg
        };
        assert_ne!(
            keys(TWO_FUNCS, "test.c", &cfg),
            keys(TWO_FUNCS, "test.c", &budget)
        );
        let macros = CheckerConfig {
            report_compiler_generated: true,
            ..cfg
        };
        assert_ne!(
            keys(TWO_FUNCS, "test.c", &cfg),
            keys(TWO_FUNCS, "test.c", &macros)
        );
        let perf = CheckerConfig {
            query_cache: false,
            ..cfg
        };
        assert_eq!(
            keys(TWO_FUNCS, "test.c", &cfg),
            keys(TWO_FUNCS, "test.c", &perf)
        );
    }

    #[test]
    fn function_keys_track_lines_but_not_files() {
        let cfg = CheckerConfig::default();
        let base = keys(TWO_FUNCS, "test.c", &cfg);
        // A same-line cosmetic edit keeps every key.
        assert_eq!(
            base,
            keys(
                "int f(int x) {   if (x + 7 < x)   return 1;  return 0; }\n\
                 int g(int *p) { int v = *p; if (!p) return 1; return v; }\n",
                "test.c",
                &cfg
            )
        );
        // A line-shifting comment moves g to line 3: f's key survives, g's
        // dies — replayed reports embed line numbers, so a shifted function
        // must re-analyze.
        let shifted = keys(
            "int f(int x) { if (x + 7 < x) return 1; return 0; }\n\
             // pushed down\n\
             int g(int *p) { int v = *p; if (!p) return 1; return v; }\n",
            "test.c",
            &cfg,
        );
        assert_eq!(base[0], shifted[0]);
        assert_ne!(base[1], shifted[1]);
        // Editing one function leaves the sibling's key untouched.
        let edited = keys(
            "int f(int x) { if (x + 8 < x) return 1; return 0; }\n\
             int g(int *p) { int v = *p; if (!p) return 1; return v; }\n",
            "test.c",
            &cfg,
        );
        assert_ne!(base[0], edited[0]);
        assert_eq!(base[1], edited[1]);
    }

    #[test]
    fn origin_signature_separates_macro_provenance() {
        let cfg = CheckerConfig::default();
        // The same check spelled directly and via a macro lowers to the same
        // print but different provenance — and different suppression
        // behavior — so the keys must differ.
        let direct = keys(
            "int f(char *p) { long v = *p; if (p != 0) return 1; return 0; }\n",
            "test.c",
            &cfg,
        );
        let via_macro = keys(
            "#define IS_VALID(p) (p != 0)\n\
             int f(char *p) { long v = *p; if (IS_VALID(p)) return 1; return 0; }\n",
            "test.c",
            &cfg,
        );
        assert_ne!(direct, via_macro);
    }

    #[test]
    fn content_key_depends_on_bytes_alone() {
        let a = content_key(TWO_FUNCS.as_bytes());
        assert_eq!(a, content_key(TWO_FUNCS.as_bytes()), "stable");
        assert_ne!(a, content_key(b"int f(void) { return 0; }\n"));
        // Unlike replay keys, even a comment changes the key — the
        // shard key partitions *inputs*, not *meanings*, and must be
        // computable without compiling.
        assert_ne!(a, content_key(format!("// c\n{TWO_FUNCS}").as_bytes()));
    }

    #[test]
    fn shard_assignment_is_deterministic_and_in_range() {
        let keys: Vec<u128> = (0u32..64)
            .map(|i| content_key(format!("int f{i}(void) {{ return {i}; }}\n").as_bytes()))
            .collect();
        for n in [1usize, 2, 4, 7] {
            let mut seen = vec![0usize; n];
            for &k in &keys {
                let s = shard_assignment(k, n);
                assert!(s < n);
                assert_eq!(s, shard_assignment(k, n), "deterministic");
                seen[s] += 1;
            }
            if n > 1 {
                assert!(
                    seen.iter().filter(|&&c| c > 0).count() > 1,
                    "64 keys must not all land in one of {n} shards: {seen:?}"
                );
            }
        }
    }
}
