//! Golden file for shot histograms: the exact sorted histogram of
//! `qutes::run_source` at 1024 shots for every shipped example that
//! measures, at seeds 0-3, under five noise settings, plus one run on
//! three shot workers and one gate-budget run that fails before the
//! first measurement. Any change to per-shot replay, noise draws,
//! readout flips or RNG stream order that moves a single count shows up
//! as a diff.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! QUTES_UPDATE_GOLDEN=1 cargo test --test shots_golden
//! ```

use std::path::Path;

use qutes::core::RunConfig;
use qutes::qcirc::execute::{run_shots_cfg, ExecutionConfig};
use qutes::run_source;
use qutes::sim::NoiseModel;

const SHOTS: usize = 1024;

fn noise_settings() -> Vec<(&'static str, Option<NoiseModel>)> {
    vec![
        ("noiseless", None),
        ("depolarizing 0.002", Some(NoiseModel::depolarizing(0.002))),
        (
            "depolarizing 0.01 + readout 0.02",
            Some(NoiseModel::depolarizing(0.01).with_readout_error(0.02)),
        ),
        (
            "bit-flip 0.01 + phase-flip 0.01",
            Some(NoiseModel::none().with_bit_flip(0.01).with_phase_flip(0.01)),
        ),
        (
            "amplitude damping 0.01",
            Some(NoiseModel::none().with_amplitude_damping(0.01)),
        ),
    ]
}

/// Histogram keys are 64-bit, so a run whose circuit records more
/// classical bits than that has no histogram worth pinning: the
/// per-shot replay packs clbit `k` at bit `k` of a `usize`. Under noise
/// the `grover` program can take the long search path and measure over
/// a hundred bits. Such runs are recorded as skipped.
const KEY_BITS: usize = 64;

fn render(out: &mut String, header: &str, source: &str, config: &RunConfig) {
    out.push_str(header);
    out.push_str(":\n");
    let live = RunConfig {
        shots: 0,
        ..config.clone()
    };
    if let Ok(outcome) = run_source(source, &live) {
        let clbits = outcome.circuit.num_clbits();
        if clbits > KEY_BITS {
            out.push_str(&format!(
                "  skipped: {clbits} clbits exceed the {KEY_BITS}-bit histogram key\n"
            ));
            return;
        }
    }
    match run_source(source, config) {
        Ok(outcome) => match outcome.counts {
            Some(counts) => {
                for line in counts.to_string().lines() {
                    out.push_str(&format!("  {line}\n"));
                }
            }
            None => out.push_str("  no histogram\n"),
        },
        Err(e) => out.push_str(&format!("  error: {e}\n")),
    }
}

fn examples() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/programs");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples dir exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "qut"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let name = p.file_stem().expect("file name").to_string_lossy();
            let source = std::fs::read_to_string(p).expect("example reads");
            (name.into_owned(), source)
        })
        .collect()
}

/// Examples left out: `language_tour` replays a ~20-qubit circuit with
/// mid-circuit measurements at about 70 ms a shot (release build), so
/// its twenty 1024-shot runs would take over 20 minutes. Its printed
/// output is pinned in `tests/run_golden.expected`.
const TOO_SLOW_PER_SHOT: &[&str] = &["language_tour"];

/// True when a noise-free run of `source` leaves a histogram to record.
fn measures(source: &str) -> bool {
    let config = RunConfig {
        shots: 1,
        ..RunConfig::default()
    };
    run_source(source, &config).is_ok_and(|o| o.counts.is_some())
}

fn render_histograms() -> String {
    let mut out = String::new();
    let examples = examples();
    let recorded = examples
        .iter()
        .filter(|(n, s)| !TOO_SLOW_PER_SHOT.contains(&n.as_str()) && measures(s));
    for (name, source) in recorded {
        for (label, noise) in noise_settings() {
            for seed in 0..4 {
                let config = RunConfig {
                    seed,
                    shots: SHOTS,
                    noise: noise.clone(),
                    ..RunConfig::default()
                };
                render(
                    &mut out,
                    &format!("{name} {label} seed {seed}"),
                    source,
                    &config,
                );
            }
        }
    }

    let (_, bv) = examples
        .iter()
        .find(|(n, _)| n == "bernstein_vazirani")
        .expect("bernstein_vazirani example exists");
    let pooled = RunConfig {
        shots: SHOTS,
        noise: Some(NoiseModel::depolarizing(0.002)),
        shot_threads: 3,
        ..RunConfig::default()
    };
    render(
        &mut out,
        "bernstein_vazirani depolarizing 0.002 seed 0 on 3 shot workers",
        bv,
        &pooled,
    );

    // The circuit's first measurement comes after more than five gates,
    // so a five-gate budget runs out before it.
    let circuit = run_source(bv, &RunConfig::default())
        .expect("bernstein_vazirani runs")
        .circuit;
    let budgeted = ExecutionConfig::default()
        .with_shots(SHOTS)
        .with_noise(NoiseModel::depolarizing(0.002))
        .with_max_gate_applications(5);
    out.push_str("bernstein_vazirani depolarizing 0.002 seed 0 with a 5-gate budget:\n");
    match run_shots_cfg(&circuit, &budgeted) {
        Ok(counts) => out.push_str(&format!(
            "  unexpected histogram over {} shots\n",
            counts.shots()
        )),
        Err(e) => out.push_str(&format!("  error: {e}\n")),
    }
    out
}

#[test]
fn every_shot_histogram_matches_its_golden_counts() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/shots_golden.expected");
    let actual = render_histograms();
    assert!(
        actual.lines().filter(|l| !l.starts_with(' ')).count() >= 5 * 4 * 5,
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
        "shot golden mismatch — rerun with QUTES_UPDATE_GOLDEN=1 if intended"
    );
}
