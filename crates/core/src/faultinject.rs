//! Reusable fault-injection harness: the deliberate-damage side of the
//! failure-containment layer.
//!
//! Two fault families are modeled, matching the acceptance criteria of the
//! fault-tolerance suite:
//!
//! * **Storage faults** — pure byte-level corruptions in the style of the
//!   crash-consistency literature's fault models (ALICE/ferrite-style
//!   injection): truncation at an arbitrary byte boundary
//!   ([`truncate_at`]), a torn in-place overwrite splicing the new file's
//!   prefix with the old file's suffix ([`torn_write`]), and a single
//!   flipped bit ([`flip_bit`]). Tests apply these to a saved store file
//!   and re-open it to prove the salvage path either recovers the intact
//!   entries or cleanly restarts — never serves a wrong answer.
//! * **Panic injection** —
//!   [`ScanPipeline::with_injected_panic`](crate::ScanPipeline::with_injected_panic)
//!   panics while analyzing the modules whose names contain a fragment,
//!   exercising the scan pipeline's `catch_unwind` containment boundary.
//!   Tests arm it directly, scoped to one pipeline so the test harness's
//!   thread-level parallelism stays safe. `stack scan` arms it from the
//!   [`PANIC_ENV`] environment variable, so CI exercises the boundary from
//!   outside the process without corrupting anything in the binary.

/// Truncate `bytes` at `offset` — the on-disk outcome of a crash (or a
/// torn copy) that stopped after `offset` bytes reached the file.
pub fn truncate_at(bytes: &[u8], offset: usize) -> Vec<u8> {
    bytes[..offset.min(bytes.len())].to_vec()
}

/// An in-place overwrite interrupted after `split` bytes: the new
/// version's prefix followed by whatever the old version held beyond it.
/// This is the splice a non-atomic rewrite leaves behind — the store's
/// own saves rename atomically, but files copied or synced by outside
/// tooling arrive exactly like this.
pub fn torn_write(new: &[u8], old: &[u8], split: usize) -> Vec<u8> {
    let split = split.min(new.len());
    let mut out = new[..split].to_vec();
    if old.len() > split {
        out.extend_from_slice(&old[split..]);
    }
    out
}

/// Flip bit `bit % 8` of the byte at `index` (out-of-range indices leave
/// the bytes unchanged) — a single-bit medium or transfer error.
pub fn flip_bit(bytes: &[u8], index: usize, bit: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if let Some(b) = out.get_mut(index) {
        *b ^= 1u8 << (bit % 8);
    }
    out
}

/// The environment variable `stack scan` arms panic injection from: a
/// non-empty value is matched as a substring against every scanned
/// module's name, and a match panics the analysis of exactly those modules.
pub const PANIC_ENV: &str = "STACK_FAULTINJECT_PANIC";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_clamps_to_length() {
        assert_eq!(truncate_at(b"abcdef", 3), b"abc");
        assert_eq!(truncate_at(b"abc", 99), b"abc");
        assert_eq!(truncate_at(b"abc", 0), b"");
    }

    #[test]
    fn torn_write_splices_new_prefix_with_old_suffix() {
        assert_eq!(torn_write(b"NEWNEW", b"oldold", 3), b"NEWold");
        assert_eq!(torn_write(b"NEW", b"oldold", 3), b"NEWold");
        assert_eq!(torn_write(b"NEWNEW", b"old", 3), b"NEW");
        assert_eq!(torn_write(b"NEWNEW", b"old", 6), b"NEWNEW");
        assert_eq!(torn_write(b"NEW", b"old", 0), b"old");
    }

    #[test]
    fn flip_bit_flips_exactly_one_bit() {
        assert_eq!(flip_bit(b"\x00", 0, 0), b"\x01");
        assert_eq!(flip_bit(b"\xff", 0, 7), b"\x7f");
        assert_eq!(flip_bit(b"ab", 1, 1), b"a`");
        assert_eq!(flip_bit(b"ab", 9, 0), b"ab", "out of range is a no-op");
    }
}
