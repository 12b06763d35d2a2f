//! The facade pipeline parses each program once and estimates it once,
//! whatever the lint and verify settings: the lint report's estimate
//! also resolves the backend.
//!
//! The obs collector is process-global, so this file holds a single test
//! that runs its cases one after another.

use qutes::{obs, run_source, RunConfig};

fn bell() -> String {
    let path = format!("{}/examples/programs/bell.qut", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Runs `bell.qut` under `cfg` and returns how often each stage ran.
fn stage_counts(cfg: &RunConfig) -> (u64, u64, u64) {
    obs::reset();
    run_source(&bell(), cfg).expect("bell runs");
    let snap = obs::snapshot();
    obs::set_enabled(false);
    let count = |name: &str| snap.timers.get(name).map_or(0, |t| t.count);
    (
        count("stage.parse"),
        count("stage.estimate"),
        count("stage.analyze"),
    )
}

#[test]
fn each_run_parses_once_and_estimates_once() {
    let base = RunConfig {
        observe: true,
        ..RunConfig::default()
    };
    assert_eq!(stage_counts(&base), (1, 1, 0), "lint off");
    let lint = RunConfig {
        lint: qutes::core::LintOptions::enabled(),
        ..base.clone()
    };
    assert_eq!(stage_counts(&lint), (1, 1, 1), "lint on");
    let verify = RunConfig {
        verify: true,
        ..base
    };
    assert_eq!(stage_counts(&verify), (1, 1, 0), "verify on");
}
