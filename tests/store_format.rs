//! Both on-disk store formats, pinned byte for byte. Each test saves a
//! fixed set of entries at generation 1, compares the file with a
//! checked-in literal, then opens the literal and checks every entry. The
//! other store tests only round-trip within one binary, so a change to the
//! writer or the reader that stays self-consistent would pass them; these
//! catch any change to the bytes themselves.

use stack_repro::core::{Algorithm, BugReport, FunctionRecord, ScanStore, UbKind, UbSource};
use stack_repro::solver::{DiskQueryStore, Model, QueryResult, QueryStore};
use std::path::PathBuf;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("stack-store-format-{tag}-{}", std::process::id()))
}

const QUERY_STORE_FILE: &str = "\
stack-query-store v4 enc2 gen1
U g1  !2648e247
S g1 00000000000000000000000000000001,00000000000000000000000000000abc !bea8cd06
U g1 ffffffffffffffffffffffffffffffff !d1ce6f3f
";

#[test]
fn query_store_format_is_pinned() {
    let path = temp_path("qs");
    let _ = std::fs::remove_file(&path);
    let store = DiskQueryStore::open(&path).unwrap();
    let mut witness = Model::new();
    witness.set("x", 7);
    store.insert(vec![u128::MAX], &QueryResult::Unsat);
    store.insert(vec![1, 0xabc], &QueryResult::Sat(witness));
    store.insert(vec![], &QueryResult::Unsat);
    store.insert(vec![5], &QueryResult::Unknown);
    assert_eq!(store.save().unwrap(), 3);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), QUERY_STORE_FILE);

    std::fs::write(&path, QUERY_STORE_FILE).unwrap();
    let store = DiskQueryStore::open(&path).unwrap();
    assert!(!store.was_invalidated() && store.salvage().is_none());
    assert_eq!((store.loaded_entries(), store.generation()), (3, 2));
    assert!(matches!(store.lookup(&vec![]), Some(QueryResult::Unsat)));
    assert!(matches!(
        store.lookup(&vec![1, 0xabc]),
        Some(QueryResult::Sat(model)) if model.is_empty()
    ));
    assert!(matches!(
        store.lookup(&vec![u128::MAX]),
        Some(QueryResult::Unsat)
    ));
    assert!(store.lookup(&vec![5]).is_none());
    std::fs::remove_file(&path).unwrap();
}

const SCAN_STORE_FILE: &str = "\
stack-scan-store v5 enc2 fpr2 gen1
F g1 00000000000000000000000000000007 r2 !87651fa6
R elim 12 0 tun%20chr_poll %01 100%25%20gone%20%40%20exit u null@%01:3 u integer@lib/x%40y.c:9 !59c3f6f1
R bool 14 1 f%c3%a9 other.c always%20true !763e211f
M g1 00000000000000000000000000000042 n2 00000000000000000000000000000007 fffffffffffffffffffffffffffffffe !82b9a9cd
F g1 fffffffffffffffffffffffffffffffe r0 !81bc9211
";

/// The two reports of the pinned record, as analyzed under `file`.
fn reports_under(file: &str) -> Vec<BugReport> {
    vec![
        BugReport {
            function: "tun chr_poll".to_string(),
            file: file.to_string(),
            line: 12,
            algorithm: Algorithm::Elimination,
            description: "100% gone @ exit".to_string(),
            ub_sources: vec![
                UbSource {
                    kind: UbKind::NullPointerDereference,
                    location: format!("{file}:3"),
                },
                UbSource {
                    kind: UbKind::SignedIntegerOverflow,
                    location: "lib/x@y.c:9".to_string(),
                },
            ],
            compiler_generated: false,
        },
        BugReport {
            function: "fé".to_string(),
            file: "other.c".to_string(),
            line: 14,
            algorithm: Algorithm::SimplifyBoolean,
            description: "always true".to_string(),
            ub_sources: Vec::new(),
            compiler_generated: true,
        },
    ]
}

#[test]
fn scan_store_format_is_pinned() {
    let path = temp_path("ss");
    let _ = std::fs::remove_file(&path);
    let store = ScanStore::open(&path).unwrap();
    let record = FunctionRecord::normalized(&reports_under("drv/tun.c"), "drv/tun.c");
    store.insert(u128::MAX - 1, FunctionRecord::normalized(&[], "drv/tun.c"));
    store.insert(7, record.clone());
    store.insert_file(0x42, vec![7, u128::MAX - 1].into_boxed_slice());
    assert_eq!(store.save().unwrap(), 3);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), SCAN_STORE_FILE);

    std::fs::write(&path, SCAN_STORE_FILE).unwrap();
    let store = ScanStore::open(&path).unwrap();
    assert!(!store.was_invalidated() && store.salvage().is_none());
    assert_eq!(store.loaded_entries(), 3);
    assert_eq!((store.function_records(), store.file_records()), (2, 1));
    assert_eq!(
        store.lookup_file(0x42).as_deref(),
        Some(&[7, u128::MAX - 1][..]),
        "pinned file record loads"
    );
    let loaded = store.lookup(7).expect("pinned record loads");
    assert_eq!(loaded, record);
    assert_eq!(loaded.replay("b/copy.c"), reports_under("b/copy.c"));
    assert!(store.lookup(u128::MAX - 1).unwrap().reports.is_empty());
    std::fs::remove_file(&path).unwrap();
}
