//! The verdict oracle: a digest of the report stream, and the per-file
//! comparison against the generator's ground truth.

use crate::workload::Inputs;
use stack_core::ScanEvent;
use std::collections::{HashMap, HashSet};

/// What one repetition's report stream says.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// FNV-1a over the rendered report stream (the text `stack scan`
    /// prints) and every failure, in emission order.
    pub digest: u64,
    /// Files whose verdict was compared with the generator.
    pub checked: usize,
    /// Checked files whose count of functions with at least one report
    /// differs from `ArchiveFile::injected`.
    pub mismatches: usize,
}

impl Verdict {
    pub fn of(inputs: &Inputs, events: &[ScanEvent]) -> Verdict {
        let mut digest = Fnv64::default();
        let mut flagged: HashMap<&str, HashSet<&str>> = HashMap::new();
        for event in events {
            match event {
                ScanEvent::Report(report) => {
                    digest.write(report.to_string().as_bytes());
                    flagged
                        .entry(report.file.as_str())
                        .or_default()
                        .insert(report.function.as_str());
                }
                ScanEvent::Failure { name, error } => {
                    digest.write(format!("failure {name}: {error}\n").as_bytes());
                }
            }
        }
        let mut checked = 0;
        let mut mismatches = 0;
        for (task, expected) in inputs.tasks.iter().zip(&inputs.expected) {
            let Some(expected) = *expected else { continue };
            checked += 1;
            let functions = flagged.get(task.name.as_str()).map_or(0, HashSet::len);
            if functions != expected {
                mismatches += 1;
            }
        }
        Verdict {
            digest: digest.0,
            checked,
            mismatches,
        }
    }
}

/// 64-bit FNV-1a: stable across builds and processes, unlike the std hasher.
struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}
