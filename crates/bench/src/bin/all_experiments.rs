//! Regenerates the paper's evaluation: Figures 4, 9 and 16–18, the §6.3
//! precision run and the §6.6 completeness run, or the one experiment an
//! id names.
//!
//! Usage: `all_experiments [fig4|fig9|fig16|fig17|fig18|sec63|sec66]`.

use stack_bench::{experiments, positionals, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let only = match positionals(&args, &[], &[]).as_deref() {
        Ok([]) => None,
        Ok([id]) if EXPERIMENTS.contains(id) => Some(*id),
        Ok([id]) => usage_error(&format!("unknown experiment `{id}`")),
        Ok([_, stray, ..]) => usage_error(&format!("unexpected argument `{stray}`")),
        Err(e) => usage_error(e),
    };
    print!("{}", experiments(only));
}

/// Exit 2 with `message` and the usage line, before any experiment runs.
fn usage_error(message: &str) -> ! {
    eprintln!(
        "all_experiments: {message}\nusage: all_experiments [{}]",
        EXPERIMENTS.join("|")
    );
    std::process::exit(2);
}
