//! Deterministic kernel work counters for the paper's headline
//! construct, a Grover substring search (`pattern in qustring`), run
//! live by the handler. The counters depend only on the program and the
//! seed, never on the machine, so they are pinned exactly: a change in
//! how many amplitudes the kernels sweep, or in how many X gates the
//! Pauli-X frame absorbs, shows up here.
//!
//! The obs collector is process-global, so this file holds one test.

use qutes::{obs, run_source, RunConfig};

/// 13 qubits: a 10-bit text, and 3 position bits for its 8 windows. The
/// pattern is absent, so every BBHT round runs.
const ABSENT_SEARCH_13Q: &str = "qustring text = \"0110111010\"q;\nif (\"000\" in text) {\n    print \"found\";\n} else {\n    print \"missing\";\n}\n";

#[test]
fn absent_13_qubit_search_sweeps_a_pinned_number_of_amplitudes() {
    obs::reset();
    let cfg = RunConfig {
        observe: true,
        ..RunConfig::default()
    };
    let outcome = run_source(ABSENT_SEARCH_13Q, &cfg).expect("search runs");
    let snap = obs::snapshot();
    obs::set_enabled(false);
    assert_eq!(outcome.output, vec!["missing".to_string()]);
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let timer_calls = |name: &str| snap.timers.get(name).map_or(0, |t| t.count);
    // Every X the live run applies is absorbed by the frame; only the
    // one-gate runs (the text's initial X gates and the position resets
    // between BBHT rounds) end with a frame to settle.
    assert_eq!(counter("gate.x"), 3776);
    assert_eq!(counter("kernel.frame_x"), 3776);
    assert_eq!(timer_calls("kernel.flip"), 38);
    assert_eq!(counter("kernel.amps_touched"), 13_367_296);
}
