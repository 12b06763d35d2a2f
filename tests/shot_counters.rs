//! Deterministic work counters for per-shot replays: the
//! Bernstein-Vazirani example at 1024 shots under depolarizing noise on
//! the statevector, and a noise-free teleportation on the tableau.
//! Every shot walks the circuit's fault-free prefix drawing noise only;
//! the shots that clear it without a fault start from one shared
//! prefix state, and only the rest rebuild their state. The counters
//! depend on the program and seed, never on the machine or the worker
//! count, so they are pinned exactly.
//!
//! The obs collector is process-global, so this file holds one test.

use qutes::sim::NoiseModel;
use qutes::{obs, run_source, RunConfig};
use std::collections::BTreeMap;

#[test]
fn noisy_bernstein_vazirani_replay_shares_its_prefix_state() {
    let source = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/programs/bernstein_vazirani.qut"
    ))
    .expect("example reads");
    obs::reset();
    // No optimizer pass: a debug build validates each rewrite by
    // simulating it, which would add to the counters.
    let cfg = RunConfig {
        shots: 1024,
        seed: 0,
        noise: Some(NoiseModel::depolarizing(0.002)),
        opt_level: 0,
        observe: true,
        ..RunConfig::default()
    };
    let outcome = run_source(&source, &cfg).expect("program runs");
    let snap = obs::snapshot();
    obs::set_enabled(false);
    assert_eq!(outcome.counts.map(|c| c.shots()), Some(1024));
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    // 1024 shots less the 88 that see a fault inside the prefix.
    assert_eq!(counter("shots.prefix_shared"), 936);
    assert_eq!(counter("noise.faults.depolarizing"), 95);
    // Every logical gate still counts once per shot.
    assert_eq!(counter("gate.h"), 13_325);
    assert_eq!(counter("gate.measure"), 3075);
    // Replaying the prefix in every shot swept 411,392 amplitudes.
    assert_eq!(counter("kernel.amps_touched"), 37_392);

    // Teleportation's measurements are all terminal, so it samples in
    // one batch; measuring the message qubit again after a further
    // Hadamard makes every shot replay it. The circuit is Clifford and
    // noise-free, so the tableau runs it, and each shot copies the
    // 5-gate prefix state instead of rebuilding it.
    let mut source = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/programs/teleport.qut"
    ))
    .expect("example reads");
    source.push_str("hadamard message;\nprint message;\n");
    obs::reset();
    let cfg = RunConfig {
        shots: 1024,
        seed: 0,
        opt_level: 0,
        observe: true,
        ..RunConfig::default()
    };
    let outcome = run_source(&source, &cfg).expect("program runs");
    let snap = obs::snapshot();
    obs::set_enabled(false);
    assert_eq!(outcome.counts.map(|c| c.shots()), Some(1024));
    assert_eq!(snap.counters.get("shots.prefix_shared"), Some(&1024));
    // Sharing the prefix moves no gate, simulation or backend counter:
    // each gate counts once in the live run and once per shot.
    let work: BTreeMap<&str, u64> = snap
        .counters
        .iter()
        .filter(|(name, _)| {
            ["gate.", "sim.", "backend."]
                .iter()
                .any(|p| name.starts_with(p))
        })
        .map(|(&name, &count)| (name, count))
        .collect();
    let expected = BTreeMap::from([
        ("backend.mode.per_shot", 1),
        ("backend.tableau", 2),
        ("gate.cx", 2050),
        ("gate.h", 3075),
        ("gate.measure", 4100),
        ("gate.x", 1025),
        ("sim.shots", 1024),
        ("sim.slow_path", 1),
    ]);
    assert_eq!(work, expected);
}
