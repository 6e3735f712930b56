//! Property coverage for the canonical module fingerprint: for random
//! modules drawn from the unstable-idiom template pool, the fingerprint is
//! invariant under formatting/comment-only source changes and under
//! function reordering, but changes whenever an instruction, a UB
//! condition, or a semantics-relevant config knob changes.

use proptest::prelude::*;
use stack_core::{source_fingerprint, CheckerConfig};

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

/// A cosmetic rewrite of a module: random comments and blank lines between
/// definitions (shifting later lines), plus doubled inter-token spacing —
/// everything the lexer throws away.
fn cosmetic_rewrite(functions: &[String], state: &mut u64) -> String {
    let mut out = String::new();
    for f in functions {
        match lcg(state) % 4 {
            0 => out.push_str("// a line comment\n"),
            1 => out.push_str("/* a block\n   comment */\n\n"),
            2 => out.push('\n'),
            _ => {}
        }
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

fn fp(src: &str) -> u128 {
    source_fingerprint(src, "prop.c", &CheckerConfig::default()).expect("module compiles")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cosmetic_rewrites_and_reordering_preserve_the_fingerprint(seed in 0u64..1_000_000) {
        let mut state = seed.wrapping_mul(0x9e37_79b9).wrapping_add(7);
        let functions = random_module(&mut state);
        let base = fp(&(functions.join("\n") + "\n"));

        // Two independent cosmetic rewrites agree with the plain rendering.
        for _ in 0..2 {
            prop_assert_eq!(base, fp(&cosmetic_rewrite(&functions, &mut state)));
        }

        // Any rotation of the definition order agrees (semantics per
        // function are untouched; only the order changes).
        if functions.len() > 1 {
            let rot = 1 + (lcg(&mut state) as usize) % (functions.len() - 1);
            let mut rotated = functions.clone();
            rotated.rotate_left(rot);
            prop_assert_eq!(base, fp(&(rotated.join("\n") + "\n")));
            // Reordering *and* reformatting at once still agrees.
            prop_assert_eq!(base, fp(&cosmetic_rewrite(&rotated, &mut state)));
        }
    }

    #[test]
    fn semantic_and_config_changes_break_the_fingerprint(seed in 0u64..1_000_000) {
        let mut state = seed.wrapping_mul(0x2545_f491).wrapping_add(11);
        let functions = random_module(&mut state);
        let source = functions.join("\n") + "\n";
        let base = fp(&source);

        // Appending a new function changes the module.
        prop_assert!(
            base != fp(&format!("{source}int extra(int x) {{ return x + 1; }}\n")),
            "appending a function must re-key"
        );

        // Changing any embedded constant changes some instruction. (Every
        // template embeds its `k` as a decimal literal; bump the first one.)
        let idx = source.find(|c: char| c.is_ascii_digit()).unwrap();
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
        if source.matches(&format!("{value}")).count() >= 1 {
            prop_assert!(base != fp(&mutated), "constant {} -> {}", value, value + 1);
        }

        // Semantics-relevant config knobs re-key; the performance knob does not.
        let cfg = CheckerConfig::default();
        let budget = CheckerConfig { query_budget: cfg.query_budget / 2, ..cfg };
        prop_assert!(
            base != source_fingerprint(&source, "prop.c", &budget).unwrap(),
            "query_budget must re-key"
        );
        let perf = CheckerConfig {
            query_cache: false,
            ..cfg
        };
        prop_assert_eq!(base, source_fingerprint(&source, "prop.c", &perf).unwrap());
    }
}
