//! The Linux kernel case studies: Figure 2 (null check after dereference) and
//! Figure 11 (the sysctl `strchr(...) + 1` check), including the
//! urgent-vs-time-bomb classification of §6.2.
//!
//! Run with: `cargo run --example kernel_null_check`

use stack_core::{classify_source, AnalysisSession};
use stack_corpus::{FIG11_STRCHR_NULL_CHECK, FIG2_TUN_NULL_CHECK};

fn main() {
    let session = AnalysisSession::default();
    for pattern in [FIG2_TUN_NULL_CHECK, FIG11_STRCHR_NULL_CHECK] {
        println!("=== {} ({}) ===", pattern.id, pattern.paper_ref);
        println!("{}\n", pattern.source);
        let result = session
            .check_source(pattern.source, &format!("{}.c", pattern.id))
            .unwrap();
        for report in &result.reports {
            print!("{report}");
            let class = classify_source(pattern.source, &format!("{}.c", pattern.id), report.line);
            println!("  classification: {}\n", class.label());
        }
    }
}
