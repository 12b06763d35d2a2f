//! # qutes
//!
//! A high-level quantum programming language, reproduced in Rust from
//! "Qutes: A High-Level Quantum Programming Language for Simplified
//! Quantum Computing" (Faro, Marino & Messina, HPDC 2025).
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`frontend`] — lexer, parser, AST, pretty-printer,
//! * [`core`] — type system, symbol table, casting, the
//!   `QuantumCircuitHandler`, and the interpreter,
//! * [`qcirc`] — the quantum-circuit IR (the Qiskit stand-in),
//! * [`sim`] — the dense statevector simulator (the Aer stand-in),
//! * [`algos`] — Grover/substring search, Deutsch-Jozsa, constant-depth
//!   rotation, quantum arithmetic, entanglement swap, QFT, state prep,
//! * [`qasm`] — OpenQASM 2/3 export and import,
//! * [`analysis`] — quantum-aware static lints and resource estimation
//!   (`qutes lint`; see `docs/analysis.md`),
//! * [`obs`] — the zero-cost-when-disabled observability collector
//!   (spans, per-stage timers, per-kernel counters; see
//!   `docs/observability.md`).
//!
//! ## Quickstart
//!
//! ```
//! use qutes::{run_source, RunConfig};
//!
//! let program = r#"
//!     quint a = [1, 2]q;      // superposition of 1 and 2
//!     quint sum = a + 3;      // quantum ripple-carry addition
//!     print sum;              // auto-measures: prints 4 or 5
//! "#;
//! let out = run_source(program, &RunConfig::default()).unwrap();
//! let v: i64 = out.output[0].parse().unwrap();
//! assert!(v == 4 || v == 5);
//! ```

pub use qutes_algos as algos;
pub use qutes_analysis as analysis;
pub use qutes_core as core;
pub use qutes_frontend as frontend;
pub use qutes_obs as obs;
pub use qutes_qasm as qasm;
pub use qutes_qcirc as qcirc;
pub use qutes_sim as sim;
pub use qutes_supervisor as supervisor;

pub use qutes_core::{DegradePolicy, QutesError, QutesResult, RunConfig, RunOutcome};
pub use qutes_frontend::{parse, print_program};
pub use qutes_qasm::{to_qasm2, to_qasm3};
pub use qutes_supervisor::{Interrupt, StopReason};

/// Compiles and runs the Rust examples of `docs/noise.md` as doctests.
#[cfg(doctest)]
#[doc = include_str!("../docs/noise.md")]
pub struct NoiseDocExamples;

/// Parses, type-checks, optionally lints, and runs a Qutes program —
/// [`run_pipeline`], with its lint and verification reports folded into
/// the result:
///
/// * any lint finding resolved to deny level (see
///   [`qutes_core::LintOptions`]) refuses execution with a
///   [`QutesError::Compile`] carrying the findings as diagnostics, and
/// * a rewrite that translation validation proves inequivalent (when
///   `config.verify` is set) fails the run with [`QutesError::Verify`];
///   an `Unknown` verdict is sound to execute and accepted silently
///   (the CLI surfaces it as a warning — see docs/verification.md).
pub fn run_source(source: &str, config: &RunConfig) -> QutesResult<RunOutcome> {
    let run = run_pipeline(source, config);
    let outcome = run.outcome?;
    if let Some(v) = run.verification {
        if v.verdict == analysis::Verdict::Inequivalent {
            let problem = v.first_problem();
            return Err(QutesError::Verify {
                pass: problem.map_or("pipeline", |b| b.pass).to_string(),
                detail: problem
                    .and_then(|b| b.report.detail.clone())
                    .unwrap_or_else(|| "proven inequivalent".to_string()),
            });
        }
    }
    Ok(outcome)
}

/// Everything one pass through [`run_pipeline`] produced.
#[derive(Debug)]
pub struct PipelineRun {
    /// The engine the program ran on: `config.backend`, with
    /// [`qcirc::BackendChoice::Auto`] resolved.
    pub backend: qcirc::BackendChoice,
    /// The analyzer's report, when `config.lint.enabled` is set and the
    /// program type-checked.
    pub lint: Option<analysis::AnalysisReport>,
    /// Translation validation of the run's circuit, when `config.verify`
    /// is set and the run succeeded.
    pub verification: Option<analysis::OptimizationVerification>,
    /// The run itself, or why it did not happen.
    pub outcome: QutesResult<RunOutcome>,
}

/// The whole pipeline, parsing the source once and sharing one
/// [`Interrupt`] from parse through shot replay:
///
/// 1. parse;
/// 2. type-check;
/// 3. when `config.lint.enabled` is set, analyze ([`analysis::analyze`])
///    and refuse to run on a deny-level finding;
/// 4. resolve [`qcirc::BackendChoice::Auto`] to an engine from the
///    resource estimate — the lint report's, when there is one, so the
///    estimator runs once ([`resolve_backend`]);
/// 5. run ([`qutes_core::run_program`]);
/// 6. when `config.verify` is set, translation-validate the optimizer
///    over the run's circuit.
///
/// The pipeline runs inside a panic-containment boundary
/// ([`qutes_supervisor::contain`]): a panic anywhere in the stack
/// surfaces as a typed [`QutesError::Internal`] naming the active stage,
/// never an unwind across the library API.
pub fn run_pipeline(source: &str, config: &RunConfig) -> PipelineRun {
    let mut run = PipelineRun {
        backend: config.backend,
        lint: None,
        verification: None,
        outcome: Err(QutesError::runtime(
            "the pipeline did not run",
            frontend::Span::default(),
        )),
    };
    run.outcome = qutes_supervisor::contain(|| pipeline(source, config, &mut run))
        .unwrap_or_else(|p| Err(QutesError::from(p)));
    run
}

fn pipeline(source: &str, config: &RunConfig, run: &mut PipelineRun) -> QutesResult<RunOutcome> {
    if config.observe {
        obs::set_enabled(true);
    }
    // Translation validation inside the optimizer: debug/CI builds
    // check every rewrite of every run through this facade; release
    // builds never consult the validator (see
    // `analysis::install_optimizer_guard`). Installing is idempotent
    // and costs one OnceLock read.
    analysis::install_optimizer_guard();
    let intr = config.effective_interrupt();
    let program = core::parse_checked(source, &intr)?;
    if config.lint.enabled {
        let _stage = qutes_supervisor::enter_stage("facade.lint");
        let report = run.lint.insert(analysis::analyze(&program, &config.lint));
        let denied = report.denied();
        if !denied.is_empty() {
            return Err(QutesError::Compile(
                denied.iter().map(|f| f.to_diagnostic()).collect(),
            ));
        }
    }
    run.backend = {
        let _stage = qutes_supervisor::enter_stage("facade.dispatch");
        dispatch(&program, config, run.lint.as_ref().map(|r| &r.resources))
    };
    let outcome = {
        let _stage = qutes_supervisor::enter_stage("facade.run");
        let cfg = RunConfig {
            backend: run.backend,
            interrupt: Some(intr),
            time_budget: None,
            ..config.clone()
        };
        core::run_program(&program, &cfg)?
    };
    if config.verify {
        let _stage = qutes_supervisor::enter_stage("facade.verify");
        run.verification = Some(
            analysis::verify_optimization(&outcome.circuit, config.opt_level)
                .map_err(QutesError::from)?,
        );
    }
    Ok(outcome)
}

/// Resolves [`qcirc::BackendChoice::Auto`] to a concrete engine from the
/// program's statically estimated gate composition (see
/// `docs/backends.md` for the decision table):
///
/// * estimator proves the program Clifford-only
///   ([`analysis::ResourceEstimate::clifford_only`]), no noise model is
///   configured, and the estimated width fits the tableau → **tableau**;
/// * otherwise → **statevector** (always sound).
///
/// Non-`Auto` choices pass through untouched — a forced `--backend
/// tableau` on an unsupported program fails later with the typed
/// [`qcirc::CircError::BackendUnsupported`] rather than being silently
/// rewritten. A program that fails to parse also passes through: the
/// run will report the parse error itself, with its proper span.
/// [`run_pipeline`] makes the same decision on the program it already
/// parsed.
pub fn resolve_backend(source: &str, config: &RunConfig) -> qcirc::BackendChoice {
    if config.backend != qcirc::BackendChoice::Auto {
        return config.backend;
    }
    match parse(source) {
        Ok(program) => dispatch(&program, config, None),
        Err(_) => qcirc::BackendChoice::Statevector,
    }
}

/// The dispatch decision, from `estimate` when the caller has one.
fn dispatch(
    program: &frontend::Program,
    config: &RunConfig,
    estimate: Option<&analysis::ResourceEstimate>,
) -> qcirc::BackendChoice {
    if config.backend != qcirc::BackendChoice::Auto {
        return config.backend;
    }
    let _span = obs::span("stage.dispatch");
    let noisy = config.noise.as_ref().is_some_and(|nm| !nm.is_noiseless());
    let fresh;
    let est = match estimate {
        Some(est) => est,
        None => {
            fresh = analysis::estimate(program);
            &fresh
        }
    };
    // Cross-check the two dispatch oracles: the syntactic Clifford
    // classifier is strictly weaker than the estimator's trace-based
    // bit, so whenever it certifies a program the estimator must agree
    // (the converse is not true: the estimator also certifies programs
    // whose *executed trace* happens to be Clifford).
    debug_assert!(
        !analysis::program_is_clifford(program) || est.clifford_only,
        "syntactic Clifford classifier certified a program the estimator rejected"
    );
    if est.clifford_only && !noisy && est.qubits <= sim::TABLEAU_MAX_QUBITS {
        qcirc::BackendChoice::Tableau
    } else {
        qcirc::BackendChoice::Statevector
    }
}
