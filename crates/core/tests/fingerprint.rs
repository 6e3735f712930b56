//! Property coverage for the per-function replay key: for random modules
//! drawn from the unstable-idiom template pool, every function's key is
//! invariant under cosmetic edits that move no line, but an edited
//! function's key changes whenever one of its instructions or UB conditions
//! changes, and every key changes with a semantics-relevant config knob.

use proptest::prelude::*;
use stack_core::{function_replay_key, CheckerConfig, FunctionKey};

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// One random function definition drawn from a template pool spanning the
/// checker's UB-condition repertoire (null deref, signed overflow, pointer
/// overflow, oversized shift, division).
fn random_function(name: &str, state: &mut u64) -> String {
    let k = 1 + lcg(state) % 97;
    match lcg(state) % 6 {
        0 => format!("int {name}(struct pkt *p) {{ long s = p->seq; if (!p) return {k}; return (int)s; }}"),
        1 => format!("int {name}(int x) {{ if (x + {k} < x) return 1; return x; }}"),
        2 => format!("int {name}(char *b, unsigned int l) {{ if (b + l < b) return -{k}; return 0; }}"),
        3 => format!("int {name}(unsigned int v, int s) {{ unsigned int r = v << s; if (s >= 32) return {k}; return (int)r; }}"),
        4 => format!("int {name}(int a, int b) {{ int q = (a + {k}) / b; if (b == 0) return -1; return q; }}"),
        _ => format!("int {name}(int a, int b) {{ if (b == 0) return -1; return a / b + {k}; }}"),
    }
}

/// A random module of 1–5 functions, returned one definition per element.
fn random_module(state: &mut u64) -> Vec<String> {
    let n = 1 + (lcg(state) % 5) as usize;
    (0..n)
        .map(|i| random_function(&format!("fn_{i}"), state))
        .collect()
}

/// A same-line cosmetic rewrite of a module: doubled inter-token spacing
/// and a trailing comment, everything the lexer throws away, with every
/// definition kept on its line.
fn cosmetic_rewrite(functions: &[String], state: &mut u64) -> String {
    let mut out = String::new();
    for f in functions {
        let spaced = if lcg(state).is_multiple_of(2) {
            f.replace(" { ", "  {  ").replace("; ", ";   ")
        } else {
            f.clone()
        };
        out.push_str(&spaced);
        out.push('\n');
    }
    if lcg(state).is_multiple_of(2) {
        out.push_str("   \n/* trailing */\n");
    }
    out
}

/// The replay keys of a module's functions, in definition order.
fn keys(src: &str, config: &CheckerConfig) -> Vec<FunctionKey> {
    let mut module = stack_minic::compile(src, "prop.c").expect("module compiles");
    stack_opt::optimize_for_analysis(&mut module);
    module
        .functions()
        .iter()
        .map(|f| function_replay_key(f, config))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn same_line_cosmetic_rewrites_preserve_every_function_key(seed in 0u64..1_000_000) {
        let mut state = seed.wrapping_mul(0x9e37_79b9).wrapping_add(7);
        let functions = random_module(&mut state);
        let cfg = CheckerConfig::default();
        let base = keys(&(functions.join("\n") + "\n"), &cfg);

        // Two independent cosmetic rewrites agree with the plain rendering.
        for _ in 0..2 {
            prop_assert_eq!(&base, &keys(&cosmetic_rewrite(&functions, &mut state), &cfg));
        }
    }

    #[test]
    fn semantic_and_config_changes_break_the_fingerprint(seed in 0u64..1_000_000) {
        let mut state = seed.wrapping_mul(0x2545_f491).wrapping_add(11);
        let functions = random_module(&mut state);
        let source = functions.join("\n") + "\n";
        let cfg = CheckerConfig::default();
        let base = keys(&source, &cfg);

        // Bumping the first constant in the first function's body changes
        // that function's instructions, and so its key; its siblings keep
        // theirs.
        let idx = source
            .find('{')
            .and_then(|open| source[open..].find(|c: char| c.is_ascii_digit()).map(|off| open + off))
            .unwrap();
        let digits_end = source[idx..]
            .find(|c: char| !c.is_ascii_digit())
            .map(|off| idx + off)
            .unwrap();
        let value: u64 = source[idx..digits_end].parse().unwrap();
        let mutated = format!(
            "{}{}{}",
            &source[..idx],
            value + 1,
            &source[digits_end..]
        );
        let edited = keys(&mutated, &cfg);
        prop_assert!(base[0] != edited[0], "constant {} -> {}", value, value + 1);
        prop_assert_eq!(&base[1..], &edited[1..]);

        // Semantics-relevant config knobs re-key; the performance knob does not.
        let budget = CheckerConfig { query_budget: cfg.query_budget / 2, ..cfg };
        let rekeyed = keys(&source, &budget);
        prop_assert!(
            base.iter().zip(&rekeyed).all(|(a, b)| a != b),
            "query_budget must re-key every function"
        );
        let perf = CheckerConfig {
            query_cache: false,
            ..cfg
        };
        prop_assert_eq!(base, keys(&source, &perf));
    }
}
