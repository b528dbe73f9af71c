//! The datapath golden corpus, checked from the root package: every
//! window cell (10 images × 64 kernel/codec/threshold/policy cells) and
//! every integral cell must reproduce its checked-in output digest and
//! statistics.

use sw_conformance::corpus::{check, default_vectors_dir};

#[test]
fn golden_corpus_is_clean() {
    let report = check(&default_vectors_dir()).expect("golden vectors are readable");
    assert_eq!(report.cells, 660, "window and integral cells checked");
    assert!(
        report.is_clean(),
        "{} of {} golden cells diverged:\n{}",
        report.mismatches.len(),
        report.cells,
        report.mismatches.join("\n")
    );
}
