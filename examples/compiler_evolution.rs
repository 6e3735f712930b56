//! The §2.3 compiler-evolution study: which compilers discard which unstable
//! checks, and how gcc's behaviour changes across a decade of releases
//! (Figure 4), plus the effect of the `-fwrapv` style opt-out flags (§7).
//!
//! Run with: `cargo run --example compiler_evolution`

use stack_opt::{lowest_discarding_level, survey_compilers, with_fwrapv};

fn main() {
    let signed_check = "int f(int x) { if (x + 100 < x) return 1; return 0; }";
    println!("check: if (x + 100 < x)   (signed overflow, §2.2 example 3)\n");
    for profile in survey_compilers() {
        let level = lowest_discarding_level(signed_check, &profile);
        let with_flag = lowest_discarding_level(signed_check, &with_fwrapv(&profile));
        println!(
            "  {:<18} discards at {:<4} with -fwrapv: {}",
            profile.name,
            level
                .map(|l| format!("-O{l}"))
                .unwrap_or_else(|| "–".into()),
            with_flag
                .map(|l| format!("-O{l}"))
                .unwrap_or_else(|| "kept".into()),
        );
    }
}
