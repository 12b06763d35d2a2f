//! Golden file for the resource estimator on every shipped example: the
//! one-line summary plus the notes that explain an inexact estimate.
//! `tests/analysis_resources.rs` checks the exact examples against real
//! runs; this file also pins the upper bounds of the inexact ones, so a
//! change to the estimator that loosens (or tightens) any of them shows
//! up as a diff.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! QUTES_UPDATE_GOLDEN=1 cargo test --test estimate_golden
//! ```

use std::path::Path;

use qutes::analysis::estimate;
use qutes::parse;

fn render_estimates() -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/programs");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples dir exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "qut"))
        .collect();
    paths.sort();
    let mut out = String::new();
    for path in &paths {
        let source = std::fs::read_to_string(path).expect("example reads");
        let est = estimate(&parse(&source).expect("example parses"));
        let name = path.file_stem().expect("file name").to_string_lossy();
        out.push_str(&format!("{name}: {}\n", est.summary()));
        for note in &est.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
    }
    out
}

#[test]
fn every_example_matches_its_golden_estimate() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/estimate_golden.expected");
    let actual = render_estimates();
    assert!(
        actual.lines().filter(|l| !l.starts_with(' ')).count() >= 12,
        "example set unexpectedly small:\n{actual}"
    );
    if std::env::var_os("QUTES_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden, &actual).expect("golden file writes");
        return;
    }
    let expected = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with QUTES_UPDATE_GOLDEN=1",
            golden.display()
        )
    });
    assert_eq!(
        actual, expected,
        "estimate golden mismatch — rerun with QUTES_UPDATE_GOLDEN=1 if intended"
    );
}
