//! Quickstart: run the STACK checker on a small C fragment and print the
//! unstable-code reports.
//!
//! Run with: `cargo run --example quickstart`

use stack_core::AnalysisSession;

fn main() {
    // The null-pointer-check-after-dereference bug of the paper's Figure 2
    // (CVE-2009-1897 in the Linux TUN driver).
    let source = "int tun_chr_poll(struct tun_struct *tun) {\n\
                    long sk = tun->sk;\n\
                    if (!tun) return 1;\n\
                    return 0;\n\
                  }";
    let result = AnalysisSession::default()
        .check_source(source, "tun.c")
        .expect("the example compiles");

    println!(
        "analyzed {} function(s), {} solver queries\n",
        result.stats.functions, result.stats.queries
    );
    if result.reports.is_empty() {
        println!("no unstable code found");
    }
    for report in &result.reports {
        print!("{report}");
    }
}
