//! Golden file for what runs print: the `print` lines of
//! `qutes::run_source`, with the run's measurement and gate counts, for
//! every shipped example and three generated substring searches
//! (`pattern in qustring`, on 13, 16 and 20 qubits), each at seeds 0-7.
//! Any change to gate application, measurement sampling or RNG stream
//! order that alters a printed outcome shows up as a diff.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! QUTES_UPDATE_GOLDEN=1 cargo test --test run_golden
//! ```

use std::path::Path;

use qutes::core::RunConfig;
use qutes::run_source;

/// `(label, text, pattern)`: the text plus the position register give
/// the qubit count in the label (3 position bits for 8 windows, 4 for 12).
const SEARCHES: [(&str, &str, &str); 3] = [
    ("search13_absent", "0110111010", "000"),
    ("search16_present", "1011001110100", "001110"),
    ("search20_present", "0100110101110010", "10111"),
];

fn search_source(text: &str, pattern: &str) -> String {
    format!(
        "qustring text = \"{text}\"q;\nif (\"{pattern}\" in text) {{\n    print \"found\";\n}} else {{\n    print \"missing\";\n}}\n"
    )
}

fn render(out: &mut String, label: &str, source: &str, seed: u64) {
    let config = RunConfig {
        seed,
        ..RunConfig::default()
    };
    out.push_str(&format!("{label} seed {seed}:\n"));
    match run_source(source, &config) {
        Ok(outcome) => {
            for line in &outcome.output {
                out.push_str(&format!("  {line}\n"));
            }
            out.push_str(&format!(
                "  [{} measurements, {} gates]\n",
                outcome.measurements,
                outcome.circuit.len()
            ));
        }
        Err(e) => out.push_str(&format!("  error: {e}\n")),
    }
}

fn render_runs() -> String {
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
        let name = path.file_stem().expect("file name").to_string_lossy();
        for seed in 0..8 {
            render(&mut out, &name, &source, seed);
        }
    }
    for (label, text, pattern) in SEARCHES {
        for seed in 0..8 {
            render(&mut out, label, &search_source(text, pattern), seed);
        }
    }
    out
}

#[test]
fn every_run_prints_its_golden_lines() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/run_golden.expected");
    let actual = render_runs();
    assert!(
        actual.lines().filter(|l| !l.starts_with(' ')).count() >= (12 + SEARCHES.len()) * 8,
        "run set unexpectedly small:\n{actual}"
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
        "run golden mismatch — rerun with QUTES_UPDATE_GOLDEN=1 if intended"
    );
}
