//! The linter's strongest test: the shipped workspace itself must be
//! clean. Any regression that reintroduces hash-ordered iteration, ambient
//! time, thread identity, cross-shard locks, unaudited `unsafe` or an upward
//! dependency edge fails this test.

use nk_lint::{run_check, Options};
use std::path::PathBuf;

#[test]
fn the_shipped_workspace_lints_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let report = run_check(&Options {
        root,
        baseline: None,
    })
    .unwrap();

    assert!(
        report.findings.is_empty(),
        "the shipped tree must lint clean; found:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {}:{}: [{}] {}\n", f.file, f.line, f.rule, f.message))
            .collect::<String>()
    );

    // Every unsafe site in the tree carries a SAFETY justification.
    let unaudited: Vec<_> = report
        .unsafe_inventory
        .iter()
        .filter(|s| !s.has_safety)
        .collect();
    assert!(unaudited.is_empty(), "{unaudited:?}");
    assert!(
        !report.unsafe_inventory.is_empty(),
        "nk-queue's SPSC ring is unsafe by design; an empty inventory means the scan is broken"
    );

    // Sanity: the scan actually covered the workspace.
    assert!(report.crates_scanned >= 20, "{}", report.crates_scanned);
    assert!(report.files_scanned >= 100, "{}", report.files_scanned);
}
