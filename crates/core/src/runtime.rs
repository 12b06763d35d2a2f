//! The Qutes interpreter: executes the AST, running classical operations
//! natively and lowering quantum operations into an effect [`Domain`]
//! (the paper's two-pass design, §3 — a symbol/declaration pass, then an
//! operation pass that "translates quantum operations into corresponding
//! quantum circuit instructions, while non-quantum operations are
//! executed directly").
//!
//! The same interpreter runs in two domains. A run uses the live
//! [`QuantumCircuitHandler`]. The resource estimator in `qutes-analysis`
//! uses a shadow circuit that never simulates: measurement outcomes are
//! [`Value::Unknown`], so the interpreter also handles unknown values —
//! it forks on undecided conditions, walks loops of unknown length once,
//! and reports imprecision to the domain. A run never produces an
//! unknown, so those paths cost it nothing.

use crate::casting::{bits_for, TypeCastingHandler as Cast};
use crate::domain::{pack_bits, Domain, Merge, Slack};
use crate::error::{QutesError, QutesResult};
use crate::handler::QuantumCircuitHandler;
use crate::symbols::{FunctionTable, SymbolTable};
use crate::types;
use crate::value::{cell, Cell, QKind, QuantumRef, Unknown, Value};
use qutes_algos::{arithmetic, rotation, state_prep, substring_oracle};
use qutes_frontend::ast::*;
use qutes_frontend::{parse_with_interrupt, ParseFailure, Span};
use qutes_qcirc::{Gate, QuantumCircuit};
use qutes_supervisor::{failpoint, Interrupt, StopReason};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// How the runtime responds when a run is cut short (deadline,
/// cancellation) or refused resources. See `docs/robustness.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Return a partial shot histogram flagged [`RunOutcome::degraded`]
    /// (instead of an error) when the deadline trips mid-replay with at
    /// least one shot completed. Default `true`.
    pub allow_partial: bool,
    /// Retry a *transient* failure (see [`QutesError::is_transient`])
    /// once, after a short backoff, at reduced settings: half the shots
    /// and `opt_level <= 1`. Never retries deadline trips or
    /// cancellations. Default `false`.
    pub auto_retry: bool,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy {
            allow_partial: true,
            auto_retry: false,
        }
    }
}

/// Execution configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// RNG seed (measurements are reproducible given a seed).
    pub seed: u64,
    /// Statement-execution budget (guards against infinite `while`).
    pub max_steps: u64,
    /// Function-call nesting budget (guards against runaway recursion —
    /// each Qutes frame costs native stack, so this errors cleanly long
    /// before the process would overflow).
    pub max_call_depth: usize,
    /// Optional fault model applied to every gate and measurement as the
    /// interpreter plays them onto the live state, and to the `shots`
    /// histogram re-execution.
    pub noise: Option<qutes_sim::NoiseModel>,
    /// When non-zero, the accumulated circuit is re-executed this many
    /// shots after the program completes (under the same noise model) and
    /// the histogram is returned in [`RunOutcome::counts`].
    pub shots: usize,
    /// Cap on the dense-statevector allocation in bytes (`16 * 2^n`),
    /// enforced before every qubit allocation.
    pub memory_budget_bytes: Option<u64>,
    /// Circuit-optimization level for the post-run shot replay
    /// (0 = off, 1 = cancel/merge, 2 = +fusion). Default 1.
    pub opt_level: u8,
    /// Enables the process-global `qutes-obs` collector before the run:
    /// stage spans (lex/parse/typecheck/decl_pass/op_pass/optimize/
    /// simulate), per-kernel timers, and per-gate counters. The caller
    /// snapshots with `qutes_obs::snapshot()` afterwards. Off by default;
    /// a disabled collector costs one atomic load per recording site.
    pub observe: bool,
    /// Static-analysis (lint) configuration. `qutes-core` itself never
    /// runs the analyzer — the `qutes` facade consults this to run
    /// `qutes-analysis` before execution and refuse to execute programs
    /// with deny-level findings. Disabled by default.
    pub lint: crate::lint::LintOptions,
    /// Wall-clock budget for the whole run (parse through shot replay).
    /// When it expires, cooperative checkpoints return
    /// [`QutesError::Interrupted`] (or a degraded partial outcome, per
    /// [`DegradePolicy::allow_partial`]). `None` (the default) means
    /// unbounded.
    pub time_budget: Option<Duration>,
    /// External interrupt handle. Supply one to cancel a run from
    /// another thread ([`Interrupt::cancel`]); the same handle is armed
    /// with [`Self::time_budget`] when set. `None` creates a private
    /// handle per run.
    pub interrupt: Option<Interrupt>,
    /// Graceful-degradation policy for deadline trips and transient
    /// resource refusals.
    pub degrade: DegradePolicy,
    /// Which simulation engine executes the program (live interpretation
    /// *and* the shot replay). `qutes-core` has no resource estimator, so
    /// it treats [`qutes_qcirc::BackendChoice::Auto`] as the dense statevector; the
    /// `qutes` facade resolves `Auto` to a concrete engine from the
    /// static gate composition before calling in (see `docs/backends.md`).
    pub backend: qutes_qcirc::BackendChoice,
    /// Worker threads for the per-shot replay paths (`0` = auto-size
    /// from [`std::thread::available_parallelism`], `1` = serial).
    /// Histograms are bit-for-bit identical at every value because each
    /// shot draws from its own counter-derived RNG stream; batched
    /// (noise-free, measure-at-end) replays ignore this knob.
    pub shot_threads: usize,
    /// Statically verify every optimizer rewrite of the accumulated
    /// circuit after the run (translation validation, see
    /// `docs/verification.md`). `qutes-core` itself never verifies —
    /// the `qutes` facade consults this flag and refuses on a proven
    /// `Inequivalent` (the CLI also warns on `Unknown`). Off by default;
    /// costs nothing when off.
    pub verify: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 0,
            max_steps: 1_000_000,
            max_call_depth: 100,
            noise: None,
            shots: 0,
            memory_budget_bytes: None,
            opt_level: 1,
            observe: false,
            lint: crate::lint::LintOptions::default(),
            time_budget: None,
            interrupt: None,
            degrade: DegradePolicy::default(),
            backend: qutes_qcirc::BackendChoice::Auto,
            shot_threads: 0,
            verify: false,
        }
    }
}

impl RunConfig {
    /// The interrupt handle this run will observe: the configured one
    /// (or a fresh one), with [`Self::time_budget`] armed as a deadline
    /// counted from *now*.
    pub fn effective_interrupt(&self) -> Interrupt {
        let intr = self.interrupt.clone().unwrap_or_default();
        if let Some(budget) = self.time_budget {
            intr.set_deadline(budget);
        }
        intr
    }
}

/// Result of executing a program.
#[derive(Debug)]
pub struct RunOutcome {
    /// Lines produced by `print`.
    pub output: Vec<String>,
    /// The accumulated quantum circuit.
    pub circuit: QuantumCircuit,
    /// Number of collapsing measurements performed.
    pub measurements: usize,
    /// Total qubits allocated.
    pub qubits_used: usize,
    /// Shot histogram of the accumulated circuit, present when
    /// [`RunConfig::shots`] was non-zero and the program measured
    /// anything.
    pub counts: Option<qutes_qcirc::Counts>,
    /// True when the outcome is partial: the shot replay was cut short
    /// by a deadline/cancellation and [`DegradePolicy::allow_partial`]
    /// let it return the shots completed so far.
    pub degraded: bool,
    /// Why the run stopped early, when [`Self::degraded`] is set.
    pub stop_reason: Option<StopReason>,
}

/// Parses, type-checks, and runs a Qutes source file.
///
/// The whole pipeline — parse, typecheck, interpretation, shot replay —
/// shares one [`Interrupt`] handle (see
/// [`RunConfig::effective_interrupt`]), so a deadline set here bounds
/// the run end to end.
pub fn run_source(source: &str, config: &RunConfig) -> QutesResult<RunOutcome> {
    if config.observe {
        qutes_obs::set_enabled(true);
    }
    let intr = config.effective_interrupt();
    let program = parse_checked(source, &intr)?;
    run_supervised(&program, config, &intr)
}

/// Parses and type-checks `source`, observing `intr`.
pub fn parse_checked(source: &str, intr: &Interrupt) -> QutesResult<Program> {
    let program = match parse_with_interrupt(source, intr) {
        Ok(p) => p,
        Err(ParseFailure::Diagnostics(ds)) => return Err(QutesError::Compile(ds)),
        Err(ParseFailure::Interrupted(reason)) => return Err(QutesError::Interrupted(reason)),
    };
    let _span = qutes_obs::span("stage.typecheck");
    intr.check()?;
    let diags = types::check_program(&program);
    if !diags.is_empty() {
        return Err(QutesError::Compile(diags));
    }
    Ok(program)
}

/// Runs an already-parsed program, without type-checking it.
pub fn run_program(program: &Program, config: &RunConfig) -> QutesResult<RunOutcome> {
    let intr = config.effective_interrupt();
    run_supervised(program, config, &intr)
}

/// One run with retry-once degradation: a transient failure (resource
/// refusal) is retried at reduced settings when
/// [`DegradePolicy::auto_retry`] is set and the interrupt has not
/// tripped.
fn run_supervised(
    program: &Program,
    config: &RunConfig,
    intr: &Interrupt,
) -> QutesResult<RunOutcome> {
    match run_attempt(program, config, intr) {
        Err(e) if e.is_transient() && config.degrade.auto_retry && intr.check().is_ok() => {
            qutes_obs::counter_add("supervisor.retries", 1);
            // Brief backoff so a momentarily-contended allocator gets a
            // chance to recover before the (single) retry.
            std::thread::sleep(Duration::from_millis(25));
            let mut reduced = config.clone();
            reduced.shots = if config.shots > 1 {
                config.shots / 2
            } else {
                config.shots
            };
            reduced.opt_level = config.opt_level.min(1);
            reduced.degrade.auto_retry = false;
            run_attempt(program, &reduced, intr)
        }
        other => other,
    }
}

fn run_attempt(program: &Program, config: &RunConfig, intr: &Interrupt) -> QutesResult<RunOutcome> {
    if config.observe {
        qutes_obs::set_enabled(true);
    }
    failpoint("core.run")
        .map_err(|_| QutesError::Sim(qutes_sim::SimError::AllocationFailed { bytes: 0 }))?;
    // Pass 1 (declaration pass): collect functions.
    let functions = {
        let _span = qutes_obs::span("stage.decl_pass");
        FunctionTable::of_program(program).map_err(QutesError::Compile)?
    };

    // Reject malformed noise probabilities before anything executes.
    if let Some(nm) = &config.noise {
        nm.validate().map_err(|e| {
            QutesError::runtime(format!("invalid noise model: {e}"), Span::default())
        })?;
    }

    // Pass 2 (operation pass): execute.
    let mut handler = QuantumCircuitHandler::with_backend_kind(
        config.seed,
        config.noise.clone(),
        config.memory_budget_bytes,
        // No estimator at this layer: `Auto` means the always-sound
        // dense engine unless the caller resolved it already.
        match config.backend {
            qutes_qcirc::BackendChoice::Tableau => qutes_qcirc::BackendKind::Tableau,
            _ => qutes_qcirc::BackendKind::Statevector,
        },
    )?;
    handler.set_interrupt(intr.clone());
    let output = {
        let _span = qutes_obs::span("stage.op_pass");
        interpret(program, functions, &mut handler, config, intr)?
    };
    let circuit = handler.circuit().clone();

    // Optional post-run histogram: replay the accumulated circuit under
    // the same seed/noise/budget configuration. The replay observes the
    // run's interrupt handle, and — when the policy allows — degrades
    // to the shots completed so far instead of discarding them.
    let (counts, degraded, stop_reason) = if config.shots > 0 && circuit.num_clbits() > 0 {
        let mut exec_cfg = qutes_qcirc::ExecutionConfig::default()
            .with_shots(config.shots)
            .with_seed(config.seed)
            .with_opt_level(config.opt_level)
            .with_observe(config.observe)
            .with_shot_threads(config.shot_threads)
            .with_interrupt(intr.clone())
            .with_backend(match config.backend {
                qutes_qcirc::BackendChoice::Auto => qutes_qcirc::BackendChoice::Statevector,
                other => other,
            });
        if let Some(nm) = &config.noise {
            exec_cfg = exec_cfg.with_noise(nm.clone());
        }
        if let Some(b) = config.memory_budget_bytes {
            exec_cfg = exec_cfg.with_memory_budget(b);
        }
        if config.degrade.allow_partial {
            let outcome = qutes_qcirc::execute::run_shots_supervised(&circuit, &exec_cfg)?;
            (Some(outcome.counts), outcome.degraded, outcome.stop)
        } else {
            let counts = qutes_qcirc::execute::run_shots_cfg(&circuit, &exec_cfg)?;
            (Some(counts), false, None)
        }
    } else {
        (None, false, None)
    };

    Ok(RunOutcome {
        output,
        measurements: handler.measurements(),
        qubits_used: handler.num_qubits(),
        circuit,
        counts,
        degraded,
        stop_reason,
    })
}

/// Runs the operation pass of `program` over `domain` and returns the
/// lines its `print` statements produced. `config` supplies the step and
/// call-depth budgets; `interrupt` is checked as statements execute.
///
/// A run calls this with the live [`QuantumCircuitHandler`]; the
/// resource estimator calls it with its shadow circuit. An error means
/// the program would fail at this point (for the estimator: it gives up).
pub fn interpret<D: Domain>(
    program: &Program,
    functions: FunctionTable<'_>,
    domain: &mut D,
    config: &RunConfig,
    interrupt: &Interrupt,
) -> QutesResult<Vec<String>> {
    let mut interp = Interp {
        symbols: SymbolTable::new(),
        functions,
        dom: domain,
        output: Vec::new(),
        steps: 0,
        max_steps: config.max_steps,
        call_depth: 0,
        max_call_depth: config.max_call_depth,
        anon_counter: 0,
        interrupt: interrupt.clone(),
        interrupt_ck: 0,
    };
    for item in &program.items {
        if let Item::Statement(s) = item {
            if let Flow::Return(_) = interp.exec_stmt(s)? {
                break;
            }
        }
    }
    Ok(interp.output)
}

enum Flow {
    Normal,
    Return(Value),
}

/// A value of unknown type.
const LOST: Value = Value::Unknown(Unknown::Any);
const LOST_REGISTER: &str = "gate applied to a register the estimator lost track of";
const UNKNOWN_SHIFT: &str = "cyclic shift by a run-dependent amount: rotation network unknown";

struct Interp<'a, 'p, D> {
    symbols: SymbolTable,
    functions: FunctionTable<'p>,
    dom: &'a mut D,
    output: Vec<String>,
    steps: u64,
    max_steps: u64,
    call_depth: usize,
    max_call_depth: usize,
    anon_counter: usize,
    interrupt: Interrupt,
    interrupt_ck: u64,
}

impl<D: Domain> Interp<'_, '_, D> {
    fn step(&mut self, span: Span) -> QutesResult<()> {
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err(QutesError::runtime(
                format!(
                    "execution exceeded {} steps (infinite loop?)",
                    self.max_steps
                ),
                span,
            ));
        }
        // Cooperative checkpoint: amortised over 16 statements so tight
        // classical loops stay cheap, but an expired deadline or a
        // cancellation from another thread stops interpretation promptly.
        self.interrupt
            .checkpoint_named(&mut self.interrupt_ck, 16, "stage.interp.checkpoints")?;
        Ok(())
    }

    fn fresh_name(&mut self, base: &str) -> String {
        self.anon_counter += 1;
        format!("{base}_{}", self.anon_counter)
    }

    fn note(&mut self, note: &str) {
        self.dom.imprecise(note, Slack::default());
    }

    fn measure(&mut self, q: &QuantumRef) -> QutesResult<Value> {
        Cast::measure_to_classical(self.dom, q)
    }

    /// Measures `v` when it is quantum (auto-measurement).
    fn classical(&mut self, v: Value) -> QutesResult<Value> {
        match v {
            Value::Quantum(q) => self.measure(&q),
            v => Ok(v),
        }
    }

    // ---- undecided control flow (abstract domain only) ---------------------

    /// Runs both sides of a condition the domain cannot decide, each on
    /// its own copy of the state, and joins them. Variables are restored
    /// in place between the two sides, so every cell keeps its identity
    /// (loop and reference bindings stay valid). When the worlds differ,
    /// the domain keeps the larger one and every visible classical value
    /// becomes unknown.
    fn fork(
        &mut self,
        first: impl FnOnce(&mut Self) -> QutesResult<Flow>,
        second: impl FnOnce(&mut Self) -> QutesResult<Flow>,
    ) -> QutesResult<Flow> {
        let cells = self.symbols.reachable_cells();
        let snapshot =
            |cells: &[Cell]| -> Vec<Value> { cells.iter().map(|c| c.borrow().clone()).collect() };
        let before = snapshot(&cells);
        let steps = self.steps;
        let second_world = self.dom.split()?;
        let first_flow = first(self)?;
        let after_first = snapshot(&cells);
        let first_world = std::mem::replace(&mut *self.dom, second_world);
        let first_steps = std::mem::replace(&mut self.steps, steps);
        for (c, v) in cells.iter().zip(before) {
            *c.borrow_mut() = v;
        }
        let second_flow = second(self)?;
        self.steps = self.steps.max(first_steps);
        let envs_agree = cells
            .iter()
            .zip(&after_first)
            .all(|(c, v)| same_value(&c.borrow(), v));
        let merge = self.dom.join(first_world, envs_agree);
        if merge == Merge::KeptOther {
            for (c, v) in cells.iter().zip(after_first) {
                *c.borrow_mut() = v;
            }
        }
        if merge != Merge::Identical {
            // Quantum registers keep their identity (the qubits exist
            // either way); classical values diverge.
            for c in self.symbols.visible_cells() {
                let mut v = c.borrow_mut();
                if !v.is_quantum() {
                    *v = LOST;
                }
            }
        }
        Ok(match (first_flow, second_flow) {
            (Flow::Return(a), Flow::Return(b)) => {
                Flow::Return(if same_value(&a, &b) { a } else { LOST })
            }
            (Flow::Normal, Flow::Normal) => Flow::Normal,
            (Flow::Return(v), Flow::Normal) | (Flow::Normal, Flow::Return(v)) => {
                if merge == Merge::Identical {
                    self.note("a measurement-dependent branch may return early");
                }
                Flow::Return(v)
            }
        })
    }

    /// Forgets every variable `stmts` may write (after a loop whose trip
    /// count is unknown).
    fn havoc_assigned(&mut self, stmts: &[Stmt]) {
        for name in assigned_names(stmts) {
            if let Some(c) = self.symbols.cell(&name) {
                *c.borrow_mut() = LOST;
            }
        }
    }

    // ---- statements ------------------------------------------------------

    fn exec_block(&mut self, b: &Block) -> QutesResult<Flow> {
        self.symbols.push_scope();
        let r = self.exec_stmts(&b.stmts);
        self.symbols.pop_scope();
        r
    }

    fn exec_stmts(&mut self, stmts: &[Stmt]) -> QutesResult<Flow> {
        for s in stmts {
            if let Flow::Return(v) = self.exec_stmt(s)? {
                return Ok(Flow::Return(v));
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &Stmt) -> QutesResult<Flow> {
        self.step(s.span())?;
        match s {
            Stmt::VarDecl {
                ty,
                name,
                init,
                span,
            } => {
                let value = match init {
                    Some(e) => {
                        let v = self.eval_with_target(e, Some(ty))?;
                        self.coerce(v, ty, name, e.span)?
                    }
                    None => self.default_value(ty, name, *span)?,
                };
                self.symbols
                    .declare(name, ty.clone(), cell(value), *span)
                    .map_err(|d| QutesError::Compile(vec![d]))?;
                Ok(Flow::Normal)
            }
            Stmt::Assign {
                target,
                op,
                value,
                span,
            } => {
                self.exec_assign(target, *op, value, *span)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                ..
            } => self.exec_if(cond, then_block, else_block.as_ref()),
            Stmt::While { cond, body, span } => self.exec_while(cond, body, *span),
            Stmt::Foreach {
                var,
                iterable,
                body,
                span,
            } => self.exec_foreach(var, iterable, body, *span),
            Stmt::Return { value, .. } => {
                let v = match value {
                    Some(e) => self.eval(e)?,
                    None => Value::Void,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Print { value, .. } => {
                // Printing a quantum variable measures it (paper §5: "the
                // evaluation of a quantum variable — whether for verifying
                // its value or for printing — requires a measurement
                // operation").
                let v = self.eval(value)?;
                let line = self.classical(v)?.to_string();
                self.output.push(line);
                Ok(Flow::Normal)
            }
            Stmt::Expr { expr, .. } => {
                self.eval(expr)?;
                Ok(Flow::Normal)
            }
            Stmt::Gate { gate, args, span } => {
                self.exec_gate(*gate, args, *span)?;
                Ok(Flow::Normal)
            }
            Stmt::Measure { target, .. } => {
                let v = self.eval(target)?;
                self.measure_value(v, target.span)?;
                Ok(Flow::Normal)
            }
            Stmt::Barrier { .. } => {
                self.dom.barrier()?;
                Ok(Flow::Normal)
            }
            Stmt::Block(b) => self.exec_block(b),
        }
    }

    fn exec_if(
        &mut self,
        cond: &Expr,
        then_block: &Block,
        else_block: Option<&Block>,
    ) -> QutesResult<Flow> {
        let exec_else = |i: &mut Self| match else_block {
            Some(eb) => i.exec_block(eb),
            None => Ok(Flow::Normal),
        };
        match self.eval_condition(cond)? {
            Some(true) => self.exec_block(then_block),
            Some(false) => exec_else(self),
            None => self.fork(|i| i.exec_block(then_block), exec_else),
        }
    }

    fn exec_while(&mut self, cond: &Expr, body: &Block, span: Span) -> QutesResult<Flow> {
        loop {
            match self.eval_condition(cond)? {
                Some(false) => return Ok(Flow::Normal),
                Some(true) => {
                    self.step(span)?;
                    if let Flow::Return(v) = self.exec_block(body)? {
                        return Ok(Flow::Return(v));
                    }
                }
                None => {
                    // The trip count is not statically known: walk the
                    // body once (for declarations/uses), then forget
                    // everything it might have changed.
                    self.note(
                        "while loop with a run-dependent condition: iteration count \
                         (and any gates its body emits) cannot be bounded statically",
                    );
                    let flow = self.exec_block(body)?;
                    self.havoc_assigned(&body.stmts);
                    return Ok(flow);
                }
            }
        }
    }

    fn exec_foreach(
        &mut self,
        var: &str,
        iterable: &Expr,
        body: &Block,
        span: Span,
    ) -> QutesResult<Flow> {
        let items: Vec<Cell> = match self.eval(iterable)? {
            Value::Array(items) => items.borrow().clone(),
            Value::Quantum(q) if q.kind == QKind::Qustring => q
                .qubits
                .iter()
                .map(|&qb| {
                    cell(Value::Quantum(QuantumRef {
                        qubits: vec![qb],
                        kind: QKind::Qubit,
                    }))
                })
                .collect(),
            Value::Unknown(_) => {
                self.note(
                    "foreach over a run-dependent collection: iteration count cannot \
                     be bounded statically",
                );
                self.symbols.push_scope();
                self.symbols.bind(var, Type::Int, cell(LOST), span);
                let flow = self.exec_stmts(&body.stmts);
                self.symbols.pop_scope();
                self.havoc_assigned(&body.stmts);
                return flow;
            }
            other => {
                return Err(QutesError::runtime(
                    format!("cannot iterate over {}", other.type_name()),
                    iterable.span,
                ))
            }
        };
        for item in items {
            self.step(span)?;
            self.symbols.push_scope();
            // Bind by reference: the loop variable aliases the element
            // cell (mutations persist, paper §4).
            let ty = runtime_type(&item.borrow());
            self.symbols.bind(var, ty, Rc::clone(&item), span);
            let flow = self.exec_stmts(&body.stmts);
            self.symbols.pop_scope();
            if let Flow::Return(v) = flow? {
                return Ok(Flow::Return(v));
            }
        }
        Ok(Flow::Normal)
    }

    /// `measure` (statement or expression): collapses a quantum value
    /// into its classical reading.
    fn measure_value(&mut self, v: Value, span: Span) -> QutesResult<Value> {
        match v {
            Value::Quantum(q) => self.measure(&q),
            Value::Unknown(_) => {
                self.dom.imprecise(
                    "measure of a value the estimator lost track of",
                    Slack {
                        measurements: 1,
                        ..Slack::default()
                    },
                );
                Ok(LOST)
            }
            other => Err(QutesError::runtime(
                format!(
                    "measure expects a quantum value, found {}",
                    other.type_name()
                ),
                span,
            )),
        }
    }

    fn default_value(&mut self, ty: &Type, name: &str, span: Span) -> QutesResult<Value> {
        Ok(match ty {
            Type::Bool => Value::Bool(false),
            Type::Int => Value::Int(0),
            Type::Float => Value::Float(0.0),
            Type::String => Value::Str(String::new()),
            Type::Qubit => Value::Quantum(Cast::new_qubit_basis(self.dom, name, false)?),
            Type::Quint => Value::Quantum(Cast::new_quint(self.dom, name, 0, Some(1))?),
            Type::Qustring => {
                return Err(QutesError::runtime(
                    "qustring declarations need an initialiser (the width is the string length)",
                    span,
                ))
            }
            Type::Array(_) => Value::Array(Rc::new(RefCell::new(Vec::new()))),
            Type::Void => Value::Void,
        })
    }

    /// Coerces a value into a declared type: identity, numeric widening,
    /// promotion (classical -> quantum, via the `TypeCastingHandler`), or
    /// auto-measurement (quantum -> classical).
    fn coerce(&mut self, v: Value, ty: &Type, name: &str, span: Span) -> QutesResult<Value> {
        let ok = match (ty, &v) {
            (Type::Bool, Value::Bool(_))
            | (Type::Int, Value::Int(_))
            | (Type::Float, Value::Float(_))
            | (Type::String, Value::Str(_))
            | (Type::Array(_), Value::Array(_)) => true,
            (Type::Qubit, Value::Quantum(q)) => q.kind == QKind::Qubit,
            (Type::Quint, Value::Quantum(q)) => q.kind == QKind::Quint,
            (Type::Qustring, Value::Quantum(q)) => q.kind == QKind::Qustring,
            _ => false,
        };
        if ok {
            return Ok(v);
        }
        match (ty, v) {
            (ty, Value::Unknown(u)) => self.coerce_unknown(u, ty, name, span),
            (Type::Float, Value::Int(i)) => Ok(Value::Float(i as f64)),
            (Type::Qubit, v @ (Value::Bool(_) | Value::Int(_))) => Ok(Value::Quantum(
                Cast::promote(self.dom, name, &v, QKind::Qubit, span)?,
            )),
            (Type::Quint, v @ (Value::Bool(_) | Value::Int(_))) => Ok(Value::Quantum(
                Cast::promote(self.dom, name, &v, QKind::Quint, span)?,
            )),
            (Type::Qubit, Value::Quantum(q)) if q.width() == 1 => {
                // quint/qustring of width 1 reinterpreted as a qubit.
                Ok(Value::Quantum(QuantumRef {
                    qubits: q.qubits,
                    kind: QKind::Qubit,
                }))
            }
            (Type::Quint, Value::Quantum(q)) => Ok(Value::Quantum(QuantumRef {
                qubits: q.qubits,
                kind: QKind::Quint,
            })),
            (Type::Qustring, Value::Str(s)) => Ok(Value::Quantum(Cast::new_qustring(
                self.dom, name, &s, span,
            )?)),
            (Type::Qustring, Value::Quantum(q)) => Ok(Value::Quantum(QuantumRef {
                qubits: q.qubits,
                kind: QKind::Qustring,
            })),
            (classical, Value::Quantum(q)) => {
                let measured = self.measure(&q)?;
                match (classical, measured) {
                    (Type::Bool, m @ Value::Bool(_))
                    | (Type::Int, m @ Value::Int(_))
                    | (Type::String, m @ Value::Str(_)) => Ok(m),
                    (Type::Float, Value::Int(i)) => Ok(Value::Float(i as f64)),
                    (t, Value::Unknown(u)) => self.coerce_unknown(u, t, name, span),
                    (t, m) => Err(QutesError::runtime(
                        format!("cannot convert measured {} to {t}", m.type_name()),
                        span,
                    )),
                }
            }
            (ty, v) => Err(QutesError::runtime(
                format!("cannot use a {} value as {ty}", v.type_name()),
                span,
            )),
        }
    }

    /// [`Self::coerce`] for a value the domain cannot know. Promotion
    /// still allocates its register, at the narrowest width.
    fn coerce_unknown(
        &mut self,
        u: Unknown,
        ty: &Type,
        name: &str,
        span: Span,
    ) -> QutesResult<Value> {
        match (ty, u) {
            (_, Unknown::Any) => {
                if ty.is_quantum() {
                    self.dom.imprecise(
                        "value promoted to a quantum register of run-dependent width",
                        Slack {
                            qubits: 1,
                            ..Slack::default()
                        },
                    );
                }
                Ok(LOST)
            }
            (Type::Bool, Unknown::Bool)
            | (Type::Int, Unknown::Int)
            | (Type::Float, Unknown::Float)
            | (Type::String, Unknown::Str) => Ok(Value::Unknown(u)),
            (Type::Float, Unknown::Int) => Ok(Value::Unknown(Unknown::Float)),
            (Type::Qubit, Unknown::Bool | Unknown::Int) => {
                // The X gate is present only when the value is 1.
                let q = Cast::new_qubit_basis(self.dom, name, false)?;
                self.dom.imprecise(
                    "qubit prepared from a run-dependent classical bit",
                    Slack {
                        gates: 1,
                        depth: 1,
                        ..Slack::default()
                    },
                );
                Ok(Value::Quantum(q))
            }
            (Type::Quint, Unknown::Bool | Unknown::Int) => {
                let q = Cast::new_quint(self.dom, name, 0, None)?;
                self.note("quint promoted from a run-dependent integer: width unknown");
                Ok(Value::Quantum(q))
            }
            (Type::Qustring, Unknown::Str) => {
                let q = Cast::new_qustring(self.dom, name, "0", span)?;
                self.note("qustring promoted from a run-dependent string: width unknown");
                Ok(Value::Quantum(q))
            }
            (ty, u) => Err(QutesError::runtime(
                format!(
                    "cannot use a {} value as {ty}",
                    Value::Unknown(u).type_name()
                ),
                span,
            )),
        }
    }

    fn exec_assign(
        &mut self,
        target: &LValue,
        op: AssignOp,
        value_expr: &Expr,
        span: Span,
    ) -> QutesResult<()> {
        let undeclared = |name: &str| {
            QutesError::runtime(format!("assignment to undeclared variable '{name}'"), span)
        };
        // `None`: an element at a run-dependent index of this array.
        let (target_cell, target_ty) = match target {
            LValue::Name(name) => {
                let sym = self.symbols.lookup(name).ok_or_else(|| undeclared(name))?;
                (Ok(Rc::clone(&sym.value)), sym.ty.clone())
            }
            LValue::Index(name, idx_expr) => {
                let idx = self.eval_index(idx_expr)?;
                let sym = self.symbols.lookup(name).ok_or_else(|| undeclared(name))?;
                let elem_ty = match &sym.ty {
                    Type::Array(t) => (**t).clone(),
                    other => {
                        return Err(QutesError::runtime(
                            format!("cannot index-assign into {other}"),
                            span,
                        ))
                    }
                };
                let arr = sym.value.borrow().clone();
                match (arr, idx) {
                    (Value::Array(items), Some(idx)) => {
                        let items_ref = items.borrow();
                        let Some(slot) = items_ref.get(idx) else {
                            return Err(QutesError::runtime(
                                format!(
                                    "index {idx} out of bounds for array of length {}",
                                    items_ref.len()
                                ),
                                span,
                            ));
                        };
                        (Ok(Rc::clone(slot)), elem_ty)
                    }
                    (arr @ (Value::Array(_) | Value::Unknown(_)), _) => {
                        self.note("assignment through a run-dependent array index");
                        (Err(arr), elem_ty)
                    }
                    (other, _) => {
                        return Err(QutesError::runtime(
                            format!("cannot index into {}", other.type_name()),
                            span,
                        ))
                    }
                }
            }
        };
        let current = |target: &Result<Cell, Value>| match target {
            Ok(c) => c.borrow().clone(),
            Err(_) => LOST,
        };

        let result = match op {
            AssignOp::Set => {
                let name = match target {
                    LValue::Name(n) | LValue::Index(n, _) => n.clone(),
                };
                let v = self.eval_with_target(value_expr, Some(&target_ty))?;
                Some(self.coerce(v, &target_ty, &name, value_expr.span)?)
            }
            AssignOp::Add | AssignOp::Sub => {
                let current = current(&target_cell);
                let rhs = self.eval(value_expr)?;
                match current {
                    Value::Quantum(q) if q.kind == QKind::Quint => {
                        self.quint_add_sub_in_place(&q, rhs, op == AssignOp::Sub, span)?;
                        None
                    }
                    classical => {
                        let bin = if op == AssignOp::Add {
                            BinOp::Add
                        } else {
                            BinOp::Sub
                        };
                        Some(self.classical_binary(bin, classical, rhs, span)?)
                    }
                }
            }
            AssignOp::Shl | AssignOp::Shr => {
                let k = self.eval_shift_amount(value_expr)?;
                let left = op == AssignOp::Shl;
                match current(&target_cell) {
                    // Cyclic shift in constant depth (paper §5).
                    Value::Quantum(q) => {
                        match k {
                            Some(k) => self.rotate_in_place(&q, k, left)?,
                            None => self.note(UNKNOWN_SHIFT),
                        }
                        None
                    }
                    classical => {
                        let bin = if left { BinOp::Shl } else { BinOp::Shr };
                        let k = k.map_or(Value::Unknown(Unknown::Int), |k| Value::Int(k as i64));
                        Some(self.classical_binary(bin, classical, k, span)?)
                    }
                }
            }
        };
        match (result, target_cell) {
            (Some(v), Ok(c)) => *c.borrow_mut() = v,
            // Which element changed is unknown: forget them all.
            (Some(_), Err(Value::Array(items))) => {
                for c in items.borrow().iter() {
                    *c.borrow_mut() = LOST;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// The amount of a shift: `None` when it is unknown.
    fn eval_shift_amount(&mut self, e: &Expr) -> QutesResult<Option<usize>> {
        let v = self.eval(e)?;
        if let Value::Unknown(_) = v {
            return Ok(None);
        }
        let k = v
            .as_i64()
            .ok_or_else(|| QutesError::runtime("shift amount must be an integer", e.span))?;
        if k < 0 {
            return Err(QutesError::runtime("shift amount must be >= 0", e.span));
        }
        Ok(Some(k as usize))
    }

    /// An index value: `None` when it is unknown.
    fn eval_index(&mut self, e: &Expr) -> QutesResult<Option<usize>> {
        let v = self.eval(e)?;
        match self.classical(v)? {
            Value::Unknown(_) => Ok(None),
            v => v
                .as_i64()
                .filter(|&i| i >= 0)
                .map(|i| Some(i as usize))
                .ok_or_else(|| QutesError::runtime("index must be a non-negative integer", e.span)),
        }
    }

    // ---- gates -----------------------------------------------------------

    /// A quantum operand: `None` when the domain lost track of it.
    fn eval_quantum_operand(&mut self, e: &Expr, what: &str) -> QutesResult<Option<QuantumRef>> {
        match self.eval(e)? {
            Value::Quantum(q) => Ok(Some(q)),
            Value::Unknown(_) => Ok(None),
            other => Err(QutesError::runtime(
                format!(
                    "{what} needs a quantum operand, found {}",
                    other.type_name()
                ),
                e.span,
            )),
        }
    }

    fn exec_gate(&mut self, gate: GateKind, args: &[Expr], span: Span) -> QutesResult<()> {
        match gate {
            GateKind::Hadamard | GateKind::NotGate | GateKind::PauliY | GateKind::PauliZ => {
                let Some(q) = self.eval_quantum_operand(&args[0], gate.name())? else {
                    self.note(LOST_REGISTER);
                    return Ok(());
                };
                for &qb in &q.qubits {
                    let g = match gate {
                        GateKind::Hadamard => Gate::H(qb),
                        GateKind::NotGate => Gate::X(qb),
                        GateKind::PauliY => Gate::Y(qb),
                        GateKind::PauliZ => Gate::Z(qb),
                        _ => unreachable!(),
                    };
                    self.dom.apply(g)?;
                }
            }
            GateKind::Phase => {
                let q = self.eval_quantum_operand(&args[0], "phase")?;
                // An unknown angle changes no count (and a phase gate is
                // never Clifford, whatever its angle).
                let angle = match self.eval(&args[1])? {
                    Value::Unknown(_) => 0.0,
                    v => v.as_f64().ok_or_else(|| {
                        QutesError::runtime("phase angle must be numeric", args[1].span)
                    })?,
                };
                let Some(q) = q else {
                    self.note(LOST_REGISTER);
                    return Ok(());
                };
                for &qb in &q.qubits {
                    self.dom.apply(Gate::Phase {
                        target: qb,
                        lambda: angle,
                    })?;
                }
            }
            GateKind::CNot => {
                let c = self.eval_quantum_operand(&args[0], "cnot")?;
                let t = self.eval_quantum_operand(&args[1], "cnot")?;
                let (Some(c), Some(t)) = (c, t) else {
                    self.note(LOST_REGISTER);
                    return Ok(());
                };
                if c.width() == t.width() {
                    for (&cq, &tq) in c.qubits.iter().zip(&t.qubits) {
                        self.dom.apply(Gate::CX {
                            control: cq,
                            target: tq,
                        })?;
                    }
                } else if c.width() == 1 {
                    for &tq in &t.qubits {
                        self.dom.apply(Gate::CX {
                            control: c.qubits[0],
                            target: tq,
                        })?;
                    }
                } else {
                    return Err(QutesError::runtime(
                        format!(
                            "cnot operands must have equal width (or a single-qubit control); \
                             found {} and {}",
                            c.width(),
                            t.width()
                        ),
                        span,
                    ));
                }
            }
        }
        Ok(())
    }

    // ---- quantum arithmetic and shifts ------------------------------------

    /// Copies `src` into a fresh register of width `width` (CX fan-out;
    /// exact for basis states, entangling for superpositions — the
    /// ancilla is later uncomputed by the same CX pattern).
    fn cx_copy(&mut self, src: &[usize], width: usize, name: &str) -> QutesResult<Vec<usize>> {
        let dst = self.dom.acquire_ancillas(width, name)?;
        self.uncompute_cx_copy(src, &dst)?;
        Ok(dst)
    }

    fn uncompute_cx_copy(&mut self, src: &[usize], dst: &[usize]) -> QutesResult<()> {
        for (i, &s) in src.iter().enumerate().take(dst.len()) {
            self.dom.apply(Gate::CX {
                control: s,
                target: dst[i],
            })?;
        }
        Ok(())
    }

    /// In-place `target op= rhs` for quints.
    fn quint_add_sub_in_place(
        &mut self,
        target: &QuantumRef,
        rhs: Value,
        subtract: bool,
        span: Span,
    ) -> QutesResult<()> {
        match rhs {
            Value::Int(k) if k >= 0 && !subtract => {
                let mut frag = self.fragment();
                arithmetic::add_const(&mut frag, &target.qubits, k as u64)?;
                self.dom.apply_fragment(&frag)?;
            }
            Value::Int(k) if k >= 0 && subtract => {
                // b - k = b + (2^n - k) mod 2^n.
                let n = target.width() as u32;
                let modulus = 1u64.checked_shl(n).ok_or_else(|| {
                    QutesError::runtime("quint too wide for constant subtraction", span)
                })?;
                let k = (k as u64) % modulus;
                let mut frag = self.fragment();
                arithmetic::add_const(&mut frag, &target.qubits, (modulus - k) % modulus)?;
                self.dom.apply_fragment(&frag)?;
            }
            Value::Bool(b) => {
                return self.quint_add_sub_in_place(target, Value::Int(b as i64), subtract, span)
            }
            // The Draper adder emits the same gates for every constant —
            // only the phase angles differ — so an unknown addend still
            // lowers exactly.
            Value::Unknown(Unknown::Int | Unknown::Bool) => {
                return self.quint_add_sub_in_place(target, Value::Int(0), subtract, span)
            }
            Value::Unknown(_) => {
                self.note("quint arithmetic with an operand the estimator lost track of")
            }
            Value::Quantum(q) if q.kind == QKind::Quint => {
                let w = target.width();
                // Widen/narrow the addend into a temporary copy of the
                // target's width, add, then uncompute the copy.
                let name = self.fresh_name("addend");
                let tmp = self.cx_copy(&q.qubits, w, &name)?;
                let carry_name = self.fresh_name("carry");
                let carry = self.dom.acquire_ancillas(1, &carry_name)?[0];
                let mut frag = self.fragment();
                if subtract {
                    arithmetic::sub_in_place(&mut frag, &tmp, &target.qubits, carry)?;
                } else {
                    arithmetic::add_in_place(&mut frag, &tmp, &target.qubits, carry)?;
                }
                self.dom.apply_fragment(&frag)?;
                self.uncompute_cx_copy(&q.qubits, &tmp)?;
                // The addend copy and the carry are clean again: pool them.
                self.dom.release_ancillas(&tmp);
                self.dom.release_ancillas(&[carry]);
            }
            other => {
                return Err(QutesError::runtime(
                    format!(
                        "cannot {} a {} value {} a quint",
                        if subtract { "subtract" } else { "add" },
                        other.type_name(),
                        if subtract { "from" } else { "to" },
                    ),
                    span,
                ))
            }
        }
        Ok(())
    }

    /// `a + b` / `a - b` producing a fresh quint register.
    fn quint_add_sub_expr(
        &mut self,
        a: &QuantumRef,
        rhs: Value,
        subtract: bool,
        span: Span,
    ) -> QutesResult<Value> {
        // Result width: enough for the sum (one extra bit over the wider
        // operand when adding).
        let rhs_width = match &rhs {
            Value::Int(k) if *k >= 0 => bits_for(*k as u64),
            Value::Bool(_) | Value::Unknown(Unknown::Bool) => 1,
            Value::Quantum(q) if q.kind == QKind::Quint => q.width(),
            Value::Unknown(Unknown::Int | Unknown::Any) => {
                self.note("quint arithmetic with a run-dependent operand: result width unknown");
                return Ok(LOST);
            }
            other => {
                return Err(QutesError::runtime(
                    format!("cannot combine quint with {}", other.type_name()),
                    span,
                ))
            }
        };
        let w = a.width().max(rhs_width) + usize::from(!subtract);
        let name = self.fresh_name("sum");
        let result = QuantumRef {
            qubits: self.cx_copy(&a.qubits, w, &name)?,
            kind: QKind::Quint,
        };
        self.quint_add_sub_in_place(&result, rhs, subtract, span)?;
        Ok(Value::Quantum(result))
    }

    /// `a * b` producing a fresh quint product register (shift-and-add
    /// multiplier, paper §6 extension). Operands are preserved.
    fn quint_mul_expr(&mut self, a: &QuantumRef, rhs: Value, span: Span) -> QutesResult<Value> {
        let mut constant_factor: Option<(u64, Vec<usize>)> = None;
        let b: QuantumRef = match rhs {
            Value::Quantum(q) if q.kind == QKind::Quint => q,
            Value::Int(k) if k >= 0 => {
                // Encode the constant factor into a fresh register (left
                // in the basis state |k>, disentangled — uncomputed and
                // recycled after the product is formed).
                let name = self.fresh_name("factor");
                let r = Cast::new_quint(self.dom, &name, k as u64, None)?;
                constant_factor = Some((k as u64, r.qubits.clone()));
                r
            }
            Value::Bool(bit) => {
                let name = self.fresh_name("factor");
                let r = Cast::new_quint(self.dom, &name, bit as u64, None)?;
                constant_factor = Some((bit as u64, r.qubits.clone()));
                r
            }
            Value::Unknown(Unknown::Int | Unknown::Bool | Unknown::Any) => {
                self.note("quint multiplication by a run-dependent factor: width unknown");
                return Ok(LOST);
            }
            other => {
                return Err(QutesError::runtime(
                    format!("cannot multiply a quint by {}", other.type_name()),
                    span,
                ))
            }
        };
        let pw = a.width() + b.width();
        let prod_name = self.fresh_name("product");
        self.dom.check_capacity(pw + 1, &prod_name)?;
        let product = self.dom.allocate(&prod_name, pw)?;
        let carry_name = self.fresh_name("carry");
        let carry = self.dom.acquire_ancillas(1, &carry_name)?[0];
        let mut frag = self.fragment();
        arithmetic::mul_into(&mut frag, &a.qubits, &b.qubits, &product, carry)?;
        self.dom.apply_fragment(&frag)?;
        self.dom.release_ancillas(&[carry]);
        if let Some((k, factor)) = constant_factor {
            // The constant factor register still holds |k>: uncompute it
            // with classically-known X gates and recycle the qubits.
            for (i, &fq) in factor.iter().enumerate() {
                if k >> i & 1 == 1 {
                    self.dom.apply(Gate::X(fq))?;
                }
            }
            self.dom.release_ancillas(&factor);
        }
        Ok(Value::Quantum(QuantumRef {
            qubits: product,
            kind: QKind::Quint,
        }))
    }

    fn rotate_in_place(&mut self, q: &QuantumRef, k: usize, left: bool) -> QutesResult<()> {
        let mut frag = self.fragment();
        if left {
            rotation::rotate_left_constant_depth(&mut frag, &q.qubits, k)?;
        } else {
            rotation::rotate_right_constant_depth(&mut frag, &q.qubits, k)?;
        }
        self.dom.apply_fragment(&frag)?;
        Ok(())
    }

    /// An empty fragment sized to the domain's current width.
    fn fragment(&self) -> QuantumCircuit {
        QuantumCircuit::with_qubits(self.dom.num_qubits())
    }

    // ---- the `in` operator: Grover substring search ------------------------

    /// `pattern in haystack` where the haystack is a qustring: amplitude
    /// amplification over a **position register**, using the
    /// Boyer–Brassard–Høyer–Tapp schedule because the number of
    /// occurrences (the marked-set size) is unknown to the runtime.
    ///
    /// The domain draws each round's iteration count. A run draws at
    /// random and stops at the first verified match; the estimator draws
    /// the maximum and, not knowing any outcome, never stops early and
    /// resets every position bit — the schedule's worst case.
    fn quantum_substring_search(
        &mut self,
        pattern: &[bool],
        hay: &QuantumRef,
    ) -> QutesResult<Value> {
        let n = hay.width();
        let m = pattern.len();
        if m == 0 {
            return Ok(Value::Bool(true));
        }
        if m > n {
            return Ok(Value::Bool(false));
        }
        let positions = n - m + 1;
        let pw = usize::max(1, (usize::BITS - (positions - 1).leading_zeros()) as usize);
        let pos_name = self.fresh_name("grover_pos");
        let pos = self.dom.acquire_ancillas(pw, &pos_name)?;

        // A = uniform superposition over the valid positions 0..positions.
        let values: Vec<u64> = (0..positions as u64).collect();
        let mut prep = self.fragment();
        state_prep::prepare_uniform_over(&mut prep, &pos, &values)?;
        let prep_inv = prep.inverse()?;

        // Oracle: phase-flip |pos = i> ⊗ |text matching at i>.
        let mut oracle = self.fragment();
        for i in 0..positions {
            let mut conjugated: Vec<usize> = Vec::new();
            for (bit, &pq) in pos.iter().enumerate() {
                if i >> bit & 1 == 0 {
                    oracle.x(pq)?;
                    conjugated.push(pq);
                }
            }
            for (j, &pbit) in pattern.iter().enumerate() {
                if !pbit {
                    oracle.x(hay.qubits[i + j])?;
                    conjugated.push(hay.qubits[i + j]);
                }
            }
            let mut involved: Vec<usize> = pos.clone();
            involved.extend((0..m).map(|j| hay.qubits[i + j]));
            let (&last, rest) = involved.split_last().expect("non-empty");
            oracle.mcz(rest, last)?;
            for &q in conjugated.iter().rev() {
                oracle.x(q)?;
            }
        }

        // Generalised diffusion about A|0>: A (2|0><0| - I) A^dagger.
        let mut diffusion = self.fragment();
        diffusion.extend(&prep_inv)?;
        for &pq in &pos {
            diffusion.x(pq)?;
        }
        let (&last, rest) = pos.split_last().expect("non-empty position register");
        diffusion.mcz(rest, last)?;
        for &pq in &pos {
            diffusion.x(pq)?;
        }
        diffusion.extend(&prep)?;

        // BBHT loop: pick an iteration count below a growing bound,
        // amplify, measure a candidate position, and verify it against
        // the text window. Absent patterns exhaust the round budget and
        // return false; present patterns succeed with overwhelming
        // probability within O(sqrt(positions)) expected oracle calls.
        let sqrt_n = (positions as f64).sqrt();
        let max_rounds = 12 + 3 * sqrt_n.ceil() as usize;
        let mut bound = 1.0f64;
        let mut outcome = Value::Bool(false);
        for _ in 0..max_rounds {
            let k = self.dom.bbht_iterations(bound.ceil() as usize);
            self.dom.apply_fragment(&prep)?;
            for _ in 0..k {
                self.dom.apply_fragment(&oracle)?;
                self.dom.apply_fragment(&diffusion)?;
            }
            // Reset the (collapsed) position register to |0> so the next
            // round can re-prepare it, then verify the candidate window.
            match self.dom.measure_bits(&pos)? {
                Some(bits) => {
                    for (&b, &pq) in bits.iter().zip(&pos) {
                        if b {
                            self.dom.apply(Gate::X(pq))?;
                        }
                    }
                    let candidate = pack_bits(&bits) as usize;
                    if candidate < positions {
                        let window: Vec<usize> =
                            (0..m).map(|j| hay.qubits[candidate + j]).collect();
                        let observed = self.dom.measure_bits(&window)?;
                        if observed.is_some_and(|o| o == pattern) {
                            self.dom.release_ancillas(&pos);
                            return Ok(Value::Bool(true));
                        }
                    }
                }
                // Unknown candidate: every position bit may need its reset,
                // and some window is always verified.
                None => {
                    for &pq in &pos {
                        self.dom.apply(Gate::X(pq))?;
                    }
                    self.dom.measure_bits(&hay.qubits[..m])?;
                    outcome = Value::Unknown(Unknown::Bool);
                }
            }
            bound = (bound * 1.3).min(sqrt_n.max(1.0));
        }
        self.dom.release_ancillas(&pos);
        Ok(outcome)
    }

    /// `in` with a pattern the domain cannot know: it may have any
    /// length, so search for each (all-zero bits, the most X
    /// conjugation) on its own copy of the domain and join them all.
    fn search_every_length(&mut self, hay: &QuantumRef) -> QutesResult<Value> {
        let start = self.dom.split()?;
        for m in 1..=hay.width() {
            let done = std::mem::replace(&mut *self.dom, start.split()?);
            self.quantum_substring_search(&vec![false; m], hay)?;
            if m > 1 {
                self.dom.join(done, true);
            }
        }
        Ok(Value::Unknown(Unknown::Bool))
    }

    // ---- expressions -------------------------------------------------------

    fn eval(&mut self, e: &Expr) -> QutesResult<Value> {
        self.eval_with_target(e, None)
    }

    /// A condition's truth: `None` when the domain cannot know it.
    fn eval_condition(&mut self, e: &Expr) -> QutesResult<Option<bool>> {
        let v = self.eval(e)?;
        match self.classical(v)? {
            Value::Unknown(_) => Ok(None),
            v => v
                .as_bool()
                .map(Some)
                .ok_or_else(|| QutesError::runtime("condition is not boolean", e.span)),
        }
    }

    fn eval_with_target(&mut self, e: &Expr, target: Option<&Type>) -> QutesResult<Value> {
        match &e.kind {
            ExprKind::Int(v) => Ok(Value::Int(*v)),
            ExprKind::Float(v) => Ok(Value::Float(*v)),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Str(s) => Ok(Value::Str(s.clone())),
            ExprKind::Pi => Ok(Value::Float(std::f64::consts::PI)),
            ExprKind::Quint(v) => {
                let name = self.fresh_name("quint_lit");
                if matches!(target, Some(Type::Qubit)) && *v <= 1 {
                    Ok(Value::Quantum(Cast::new_qubit_basis(
                        self.dom,
                        &name,
                        *v == 1,
                    )?))
                } else {
                    Ok(Value::Quantum(Cast::new_quint(self.dom, &name, *v, None)?))
                }
            }
            ExprKind::Qustring(s) => {
                let name = self.fresh_name("qustring_lit");
                Ok(Value::Quantum(Cast::new_qustring(
                    self.dom, &name, s, e.span,
                )?))
            }
            ExprKind::Ket(k) => {
                let name = self.fresh_name("ket");
                Ok(Value::Quantum(Cast::new_qubit_ket(self.dom, &name, *k)?))
            }
            ExprKind::Array(elems) => self.eval_array(elems, target),
            ExprKind::QuantumArray(elems) => self.eval_quantum_array(elems, target, e.span),
            ExprKind::Var(name) => match self.symbols.lookup(name) {
                Some(sym) => Ok(sym.value.borrow().clone()),
                None => Err(QutesError::runtime(
                    format!("use of undeclared variable '{name}'"),
                    e.span,
                )),
            },
            ExprKind::Index(base, idx) => self.eval_index_expr(base, idx, e.span),
            ExprKind::Unary(op, inner) => self.eval_unary(*op, inner),
            ExprKind::Binary(op, l, r) => self.eval_binary(*op, l, r, e.span),
            ExprKind::Call(name, args) => self.eval_call(name, args, e.span),
            ExprKind::MeasureExpr(inner) => {
                let v = self.eval(inner)?;
                self.measure_value(v, inner.span)
            }
        }
    }

    fn eval_array(&mut self, elems: &[Expr], target: Option<&Type>) -> QutesResult<Value> {
        let elem_target = match target {
            Some(Type::Array(t)) => Some((**t).clone()),
            _ => None,
        };
        let mut items = Vec::with_capacity(elems.len());
        for el in elems {
            let v = self.eval_with_target(el, elem_target.as_ref())?;
            let v = match (&elem_target, v) {
                (Some(t), v) => {
                    let name = self.fresh_name("elem");
                    self.coerce(v, t, &name, el.span)?
                }
                (None, v) => v,
            };
            items.push(cell(v));
        }
        Ok(Value::Array(Rc::new(RefCell::new(items))))
    }

    fn eval_quantum_array(
        &mut self,
        elems: &[Expr],
        target: Option<&Type>,
        span: Span,
    ) -> QutesResult<Value> {
        let vals: Vec<Value> = elems
            .iter()
            .map(|el| self.eval(el))
            .collect::<QutesResult<_>>()?;
        let any_float = vals
            .iter()
            .any(|v| matches!(v, Value::Float(_) | Value::Unknown(Unknown::Float)));
        let amplitudes = any_float || matches!(target, Some(Type::Qubit));
        if vals.iter().any(|v| matches!(v, Value::Unknown(_))) {
            self.note(if amplitudes {
                "qubit amplitude literal with run-dependent amplitudes"
            } else {
                "superposition literal with run-dependent values: state \
                 preparation network unknown"
            });
            return Ok(LOST);
        }
        if amplitudes {
            if vals.len() != 2 {
                return Err(QutesError::runtime(
                    "a qubit amplitude literal needs exactly two entries [a, b]",
                    span,
                ));
            }
            let a = vals[0]
                .as_f64()
                .ok_or_else(|| QutesError::runtime("amplitudes must be numeric", span))?;
            let b = vals[1]
                .as_f64()
                .ok_or_else(|| QutesError::runtime("amplitudes must be numeric", span))?;
            let name = self.fresh_name("qubit_amp");
            Ok(Value::Quantum(Cast::new_qubit_amplitudes(
                self.dom, &name, a, b, span,
            )?))
        } else {
            let values: Vec<u64> = vals
                .iter()
                .map(|v| {
                    v.as_i64()
                        .filter(|&i| i >= 0)
                        .map(|i| i as u64)
                        .ok_or_else(|| {
                            QutesError::runtime(
                                "superposition values must be non-negative integers",
                                span,
                            )
                        })
                })
                .collect::<QutesResult<_>>()?;
            let name = self.fresh_name("superpos");
            Ok(Value::Quantum(Cast::new_quint_superposed(
                self.dom, &name, &values, span,
            )?))
        }
    }

    fn eval_index_expr(&mut self, base: &Expr, idx: &Expr, span: Span) -> QutesResult<Value> {
        let b = self.eval(base)?;
        let Some(i) = self.eval_index(idx)? else {
            if b.is_quantum() {
                self.note("quantum register indexed by a run-dependent value");
            }
            return Ok(LOST);
        };
        match b {
            Value::Array(items) => {
                let items = items.borrow();
                items.get(i).map(|c| c.borrow().clone()).ok_or_else(|| {
                    QutesError::runtime(
                        format!(
                            "index {i} out of bounds for array of length {}",
                            items.len()
                        ),
                        span,
                    )
                })
            }
            Value::Quantum(q) => {
                if i >= q.width() {
                    return Err(QutesError::runtime(
                        format!("index {i} out of bounds for {}-qubit register", q.width()),
                        span,
                    ));
                }
                Ok(Value::Quantum(QuantumRef {
                    qubits: vec![q.qubits[i]],
                    kind: QKind::Qubit,
                }))
            }
            Value::Str(s) => s
                .chars()
                .nth(i)
                .map(|c| Value::Str(c.to_string()))
                .ok_or_else(|| {
                    QutesError::runtime(
                        format!("index {i} out of bounds for string of length {}", s.len()),
                        span,
                    )
                }),
            Value::Unknown(_) => Ok(LOST),
            other => Err(QutesError::runtime(
                format!("cannot index into {}", other.type_name()),
                span,
            )),
        }
    }

    fn eval_unary(&mut self, op: UnOp, inner: &Expr) -> QutesResult<Value> {
        let v = self.eval(inner)?;
        match (op, self.classical(v)?) {
            (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(-i)),
            (UnOp::Neg, Value::Float(f)) => Ok(Value::Float(-f)),
            (UnOp::Neg, u @ Value::Unknown(Unknown::Int | Unknown::Float | Unknown::Any)) => Ok(u),
            (UnOp::Neg, other) => Err(QutesError::runtime(
                format!("cannot negate {}", other.type_name()),
                inner.span,
            )),
            (UnOp::Not, Value::Unknown(_)) => Ok(Value::Unknown(Unknown::Bool)),
            (UnOp::Not, v) => v
                .as_bool()
                .map(|b| Value::Bool(!b))
                .ok_or_else(|| QutesError::runtime("'!' needs a boolean", inner.span)),
        }
    }

    fn eval_binary(&mut self, op: BinOp, l: &Expr, r: &Expr, span: Span) -> QutesResult<Value> {
        use BinOp::*;
        // Short-circuit logicals first. When the left side is unknown,
        // whether the right side (and its measurements) runs is too.
        if matches!(op, And | Or) {
            return Ok(match (op, self.eval_condition(l)?) {
                (And, Some(false)) => Value::Bool(false),
                (Or, Some(true)) => Value::Bool(true),
                (_, Some(_)) => match self.eval_condition(r)? {
                    Some(b) => Value::Bool(b),
                    None => Value::Unknown(Unknown::Bool),
                },
                (_, None) => {
                    self.fork(
                        |i| {
                            i.eval_condition(r)?;
                            Ok(Flow::Normal)
                        },
                        |_| Ok(Flow::Normal),
                    )?;
                    Value::Unknown(Unknown::Bool)
                }
            });
        }

        let lv = self.eval(l)?;

        // `in`: Grover substring search when the haystack is quantum.
        if op == In {
            let rv = self.eval(r)?;
            return self.eval_in(lv, rv, span);
        }

        // Quantum arithmetic producing fresh registers.
        if let Value::Quantum(q) = &lv {
            if q.kind == QKind::Quint && matches!(op, Add | Sub) {
                let rv = self.eval(r)?;
                return self.quint_add_sub_expr(q, rv, op == Sub, span);
            }
            if q.kind == QKind::Quint && op == Mul {
                let rv = self.eval(r)?;
                let q = q.clone();
                return self.quint_mul_expr(&q, rv, span);
            }
            if matches!(op, Shl | Shr) {
                let rv = self.eval(r)?;
                if let Value::Unknown(_) = rv {
                    self.note(UNKNOWN_SHIFT);
                    return Ok(LOST);
                }
                let k = rv.as_i64().filter(|&k| k >= 0).ok_or_else(|| {
                    QutesError::runtime("shift amount must be a non-negative integer", r.span)
                })? as usize;
                let name = self.fresh_name("shifted");
                let copy = QuantumRef {
                    qubits: self.cx_copy(&q.qubits, q.width(), &name)?,
                    kind: q.kind,
                };
                self.rotate_in_place(&copy, k, op == Shl)?;
                return Ok(Value::Quantum(copy));
            }
        }
        // int + quint / int * quint (commute to the quint-first forms).
        if let (
            Add | Mul,
            Value::Int(_) | Value::Bool(_) | Value::Unknown(Unknown::Int | Unknown::Bool),
        ) = (op, &lv)
        {
            let rv = self.eval(r)?;
            if let Value::Quantum(q) = &rv {
                if q.kind == QKind::Quint {
                    return if op == Add {
                        self.quint_add_sub_expr(q, lv, false, span)
                    } else {
                        let q = q.clone();
                        self.quint_mul_expr(&q, lv, span)
                    };
                }
            }
            return self.classical_binary(op, lv, rv, span);
        }

        let rv = self.eval(r)?;
        self.classical_binary(op, lv, rv, span)
    }

    /// Classical binary semantics; quantum operands are auto-measured.
    /// An unknown operand makes the result unknown (a comparison stays
    /// a boolean).
    fn classical_binary(
        &mut self,
        op: BinOp,
        lv: Value,
        rv: Value,
        span: Span,
    ) -> QutesResult<Value> {
        use BinOp::*;
        let lv = self.classical(lv)?;
        let rv = self.classical(rv)?;
        match (&lv, &rv) {
            (Value::Unknown(Unknown::Any), _) | (_, Value::Unknown(Unknown::Any)) => {
                return Ok(LOST)
            }
            (Value::Unknown(_), _) | (_, Value::Unknown(_)) => {
                return Ok(match op {
                    Eq | Ne | Lt | Le | Gt | Ge | In => Value::Unknown(Unknown::Bool),
                    _ => LOST,
                })
            }
            _ => {}
        }
        let type_err = |lv: &Value, rv: &Value| {
            Err(QutesError::runtime(
                format!(
                    "operator '{op}' is not defined for {} and {}",
                    lv.type_name(),
                    rv.type_name()
                ),
                span,
            ))
        };
        match op {
            Add => match (&lv, &rv) {
                (Value::Str(a), Value::Str(b)) => Ok(Value::Str(format!("{a}{b}"))),
                (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
                _ => match (lv.as_f64(), rv.as_f64()) {
                    (Some(a), Some(b)) => Ok(Value::Float(a + b)),
                    _ => type_err(&lv, &rv),
                },
            },
            Sub => match (&lv, &rv) {
                (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_sub(*b))),
                _ => match (lv.as_f64(), rv.as_f64()) {
                    (Some(a), Some(b)) => Ok(Value::Float(a - b)),
                    _ => type_err(&lv, &rv),
                },
            },
            Mul => match (&lv, &rv) {
                (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_mul(*b))),
                _ => match (lv.as_f64(), rv.as_f64()) {
                    (Some(a), Some(b)) => Ok(Value::Float(a * b)),
                    _ => type_err(&lv, &rv),
                },
            },
            Div => match (&lv, &rv) {
                (Value::Int(a), Value::Int(b)) => {
                    if *b == 0 {
                        Err(QutesError::runtime("division by zero", span))
                    } else if a % b == 0 {
                        Ok(Value::Int(a / b))
                    } else {
                        Ok(Value::Float(*a as f64 / *b as f64))
                    }
                }
                _ => match (lv.as_f64(), rv.as_f64()) {
                    (Some(_), Some(0.0)) => Err(QutesError::runtime("division by zero", span)),
                    (Some(a), Some(b)) => Ok(Value::Float(a / b)),
                    _ => type_err(&lv, &rv),
                },
            },
            Mod => match (&lv, &rv) {
                (Value::Int(a), Value::Int(b)) => {
                    if *b == 0 {
                        Err(QutesError::runtime("modulo by zero", span))
                    } else {
                        Ok(Value::Int(a.rem_euclid(*b)))
                    }
                }
                _ => type_err(&lv, &rv),
            },
            Shl | Shr => match (&lv, rv.as_i64()) {
                (Value::Int(a), Some(k)) if k >= 0 => Ok(Value::Int(if op == Shl {
                    a.wrapping_shl(k as u32)
                } else {
                    a.wrapping_shr(k as u32)
                })),
                _ => type_err(&lv, &rv),
            },
            Eq | Ne => {
                let eq = match (&lv, &rv) {
                    (Value::Str(a), Value::Str(b)) => a == b,
                    (Value::Bool(a), Value::Bool(b)) => a == b,
                    _ => match (lv.as_f64(), rv.as_f64()) {
                        (Some(a), Some(b)) => a == b,
                        _ => return type_err(&lv, &rv),
                    },
                };
                Ok(Value::Bool(if op == Eq { eq } else { !eq }))
            }
            Lt | Le | Gt | Ge => {
                let ord = match (&lv, &rv) {
                    (Value::Str(a), Value::Str(b)) => a.partial_cmp(b),
                    _ => match (lv.as_f64(), rv.as_f64()) {
                        (Some(a), Some(b)) => a.partial_cmp(&b),
                        _ => return type_err(&lv, &rv),
                    },
                };
                let Some(ord) = ord else {
                    return type_err(&lv, &rv);
                };
                Ok(Value::Bool(match op {
                    Lt => ord.is_lt(),
                    Le => ord.is_le(),
                    Gt => ord.is_gt(),
                    Ge => ord.is_ge(),
                    _ => unreachable!(),
                }))
            }
            In => match (&lv, &rv) {
                (Value::Str(p), Value::Str(h)) => Ok(Value::Bool(h.contains(p.as_str()))),
                _ => type_err(&lv, &rv),
            },
            And | Or => unreachable!("handled with short-circuit"),
        }
    }

    /// `pattern in haystack` dispatch.
    fn eval_in(&mut self, pattern: Value, haystack: Value, span: Span) -> QutesResult<Value> {
        // The pattern must be classical bits; measure it if quantum.
        let pattern = self.classical(pattern)?;
        match haystack {
            Value::Quantum(hay) if hay.kind == QKind::Qustring => {
                let p = match &pattern {
                    Value::Str(p) => p,
                    Value::Unknown(Unknown::Str) => return self.search_every_length(&hay),
                    other => {
                        return Err(QutesError::runtime(
                            format!("'in' needs a string pattern, found {}", other.type_name()),
                            span,
                        ))
                    }
                };
                if !p.chars().all(|c| c == '0' || c == '1') {
                    return Err(QutesError::runtime(
                        "quantum substring search patterns must be bitstrings",
                        span,
                    ));
                }
                let bits = substring_oracle::bits_from_str(p);
                self.quantum_substring_search(&bits, &hay)
            }
            v => self.classical_binary(BinOp::In, pattern, v, span),
        }
    }

    // ---- calls -------------------------------------------------------------

    fn eval_call(&mut self, name: &str, args: &[Expr], span: Span) -> QutesResult<Value> {
        if let Some(v) = self.eval_builtin(name, args, span)? {
            return Ok(v);
        }
        let Some(decl) = self.functions.get(name) else {
            return Err(QutesError::runtime(
                format!("call to unknown function '{name}'"),
                span,
            ));
        };
        if args.len() != decl.params.len() {
            return Err(QutesError::runtime(
                format!(
                    "'{name}' expects {} argument(s), found {}",
                    decl.params.len(),
                    args.len()
                ),
                span,
            ));
        }
        // Bind arguments. Plain-variable arguments of matching type are
        // passed **by reference** (shared cell, paper §4); everything else
        // is evaluated and coerced into a fresh cell.
        let mut bindings: Vec<(&str, &Type, Cell)> = Vec::with_capacity(args.len());
        for (a, p) in args.iter().zip(&decl.params) {
            let bound = match &a.kind {
                ExprKind::Var(var_name) => self
                    .symbols
                    .lookup(var_name)
                    .filter(|sym| sym.ty == p.ty)
                    .map(|sym| Rc::clone(&sym.value)),
                _ => None,
            };
            let c = match bound {
                Some(c) => c,
                None => {
                    let v = self.eval_with_target(a, Some(&p.ty))?;
                    let v = self.coerce(v, &p.ty, &p.name, a.span)?;
                    cell(v)
                }
            };
            bindings.push((&p.name, &p.ty, c));
        }
        // Execute the body with caller locals hidden: only globals and the
        // parameters are visible inside a function.
        self.call_depth += 1;
        if self.call_depth > self.max_call_depth {
            self.call_depth -= 1;
            return Err(QutesError::runtime(
                format!(
                    "recursion exceeded {} nested calls (raise max_call_depth to allow more)",
                    self.max_call_depth
                ),
                span,
            ));
        }
        self.symbols.enter_function();
        self.symbols.push_scope();
        for (pname, pty, c) in bindings {
            self.symbols.bind(pname, pty.clone(), c, decl.span);
        }
        let flow = self.exec_stmts(&decl.body.stmts);
        self.symbols.exit_function();
        self.call_depth -= 1;
        match flow? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => {
                if decl.ret_type == Type::Void {
                    Ok(Value::Void)
                } else {
                    Err(QutesError::runtime(
                        format!(
                            "function '{name}' finished without returning a {} value",
                            decl.ret_type
                        ),
                        span,
                    ))
                }
            }
        }
    }

    /// Built-in functions. Returns `Ok(None)` when `name` is not builtin.
    fn eval_builtin(
        &mut self,
        name: &str,
        args: &[Expr],
        span: Span,
    ) -> QutesResult<Option<Value>> {
        let arity = |n: usize| -> QutesResult<()> {
            if args.len() != n {
                Err(QutesError::runtime(
                    format!(
                        "builtin '{name}' expects {n} argument(s), found {}",
                        args.len()
                    ),
                    span,
                ))
            } else {
                Ok(())
            }
        };
        let v = match name {
            "len" => {
                arity(1)?;
                let v = self.eval(&args[0])?;
                match v {
                    Value::Array(items) => Value::Int(items.borrow().len() as i64),
                    Value::Str(s) => Value::Int(s.chars().count() as i64),
                    Value::Quantum(q) => Value::Int(q.width() as i64),
                    Value::Unknown(_) => Value::Unknown(Unknown::Int),
                    other => {
                        return Err(QutesError::runtime(
                            format!("len() is not defined for {}", other.type_name()),
                            span,
                        ))
                    }
                }
            }
            "width" => {
                arity(1)?;
                match self.eval(&args[0])? {
                    Value::Quantum(q) => Value::Int(q.width() as i64),
                    Value::Unknown(_) => Value::Unknown(Unknown::Int),
                    other => {
                        return Err(QutesError::runtime(
                            format!("width() needs a quantum value, found {}", other.type_name()),
                            span,
                        ))
                    }
                }
            }
            "range" => {
                arity(1)?;
                let n = match self.eval(&args[0])? {
                    Value::Unknown(_) => return Ok(Some(LOST)),
                    v => v.as_i64().filter(|&n| n >= 0).ok_or_else(|| {
                        QutesError::runtime("range() needs a non-negative integer", span)
                    })?,
                };
                Value::Array(Rc::new(RefCell::new(
                    (0..n).map(|i| cell(Value::Int(i))).collect(),
                )))
            }
            "int" => {
                arity(1)?;
                let v = self.eval(&args[0])?;
                match self.classical(v)? {
                    Value::Int(i) => Value::Int(i),
                    Value::Float(f) => Value::Int(f.trunc() as i64),
                    Value::Bool(b) => Value::Int(b as i64),
                    Value::Str(s) => Value::Int(s.trim().parse::<i64>().map_err(|_| {
                        QutesError::runtime(format!("cannot parse '{s}' as int"), span)
                    })?),
                    Value::Unknown(_) => Value::Unknown(Unknown::Int),
                    other => {
                        return Err(QutesError::runtime(
                            format!("int() is not defined for {}", other.type_name()),
                            span,
                        ))
                    }
                }
            }
            "float" => {
                arity(1)?;
                let v = self.eval(&args[0])?;
                let v = self.classical(v)?;
                match v.as_f64() {
                    Some(f) => Value::Float(f),
                    None => match &v {
                        Value::Str(s) => Value::Float(s.trim().parse::<f64>().map_err(|_| {
                            QutesError::runtime(format!("cannot parse '{s}' as float"), span)
                        })?),
                        Value::Unknown(_) => Value::Unknown(Unknown::Float),
                        _ => {
                            return Err(QutesError::runtime(
                                format!("float() is not defined for {}", v.type_name()),
                                span,
                            ));
                        }
                    },
                }
            }
            "bool" => {
                arity(1)?;
                let v = self.eval(&args[0])?;
                match self.classical(v)? {
                    Value::Unknown(_) => Value::Unknown(Unknown::Bool),
                    v => Value::Bool(v.as_bool().ok_or_else(|| {
                        QutesError::runtime(
                            format!("bool() is not defined for {}", v.type_name()),
                            span,
                        )
                    })?),
                }
            }
            "str" => {
                arity(1)?;
                let v = self.eval(&args[0])?;
                match self.classical(v)? {
                    Value::Unknown(_) => Value::Unknown(Unknown::Str),
                    v => Value::Str(v.to_string()),
                }
            }
            "qmin" | "qmax" => {
                // Dürr–Høyer quantum extremum over a classical database
                // (paper §6). Runs Grover rounds on an auxiliary index
                // register; inputs and output are classical.
                arity(1)?;
                let v = self.eval(&args[0])?;
                let items = match v {
                    Value::Array(items) => items,
                    Value::Unknown(_) => {
                        self.note("qmin/qmax over a collection the estimator lost track of");
                        return Ok(Some(Value::Unknown(Unknown::Int)));
                    }
                    v => {
                        return Err(QutesError::runtime(
                            format!("{name}() needs an int array, found {}", v.type_name()),
                            span,
                        ))
                    }
                };
                let mut values = Vec::new();
                let mut known = true;
                for item in items.borrow().iter() {
                    let iv = item.borrow().clone();
                    let iv = self.classical(iv)?;
                    if let Value::Unknown(_) = iv {
                        known = false;
                        continue;
                    }
                    let Some(x) = iv.as_i64().filter(|&x| x >= 0) else {
                        return Err(QutesError::runtime(
                            format!("{name}() needs non-negative integers"),
                            span,
                        ));
                    };
                    values.push(x as u64);
                }
                if values.is_empty() && known {
                    return Err(QutesError::runtime(
                        format!("{name}() of an empty array"),
                        span,
                    ));
                }
                if known {
                    self.dom.extremum(&values, name == "qmax")?
                } else {
                    Value::Unknown(Unknown::Int)
                }
            }
            "rotl" | "rotr" => {
                arity(2)?;
                let q = self.eval_quantum_operand(&args[0], name)?;
                let k = match self.eval(&args[1])? {
                    Value::Unknown(_) => None,
                    k => Some(k.as_i64().filter(|&k| k >= 0).ok_or_else(|| {
                        QutesError::runtime("rotation amount must be a non-negative integer", span)
                    })?),
                };
                match (q, k) {
                    (Some(q), Some(k)) => self.rotate_in_place(&q, k as usize, name == "rotl")?,
                    _ => self.note(UNKNOWN_SHIFT),
                }
                Value::Void
            }
            _ => return Ok(None),
        };
        Ok(Some(v))
    }
}

/// Structural equality of two values as the fork's join sees it: arrays
/// are equal when they are the same array (their element cells are
/// compared on their own).
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Quantum(x), Value::Quantum(y)) => x == y,
        (Value::Array(x), Value::Array(y)) => Rc::ptr_eq(x, y),
        (Value::Void, Value::Void) => true,
        (Value::Unknown(x), Value::Unknown(y)) => x == y,
        _ => false,
    }
}

/// Best-effort runtime type of a value (for foreach bindings).
fn runtime_type(v: &Value) -> Type {
    match v {
        Value::Bool(_) | Value::Unknown(Unknown::Bool) => Type::Bool,
        Value::Int(_) | Value::Unknown(Unknown::Int | Unknown::Any) => Type::Int,
        Value::Float(_) | Value::Unknown(Unknown::Float) => Type::Float,
        Value::Str(_) | Value::Unknown(Unknown::Str) => Type::String,
        Value::Quantum(q) => q.kind.as_type(),
        Value::Array(_) => Type::Array(Box::new(Type::Int)),
        Value::Void => Type::Void,
    }
}

/// Syntactic set of variable names a statement list may write to
/// (assignment targets and by-reference call arguments), used to forget
/// state after loops whose trip count is unknown.
fn assigned_names(stmts: &[Stmt]) -> Vec<String> {
    fn add(out: &mut Vec<String>, n: &str) {
        if !out.iter().any(|o| o == n) {
            out.push(n.to_string());
        }
    }
    fn walk_expr(e: &Expr, out: &mut Vec<String>) {
        match &e.kind {
            ExprKind::Call(_, args) => {
                for a in args {
                    if let ExprKind::Var(n) = &a.kind {
                        add(out, n);
                    }
                    walk_expr(a, out);
                }
            }
            ExprKind::Unary(_, inner) | ExprKind::MeasureExpr(inner) => walk_expr(inner, out),
            ExprKind::Binary(_, l, r) | ExprKind::Index(l, r) => {
                walk_expr(l, out);
                walk_expr(r, out);
            }
            ExprKind::Array(items) | ExprKind::QuantumArray(items) => {
                for i in items {
                    walk_expr(i, out);
                }
            }
            _ => {}
        }
    }
    fn walk(stmts: &[Stmt], out: &mut Vec<String>) {
        for s in stmts {
            match s {
                Stmt::Assign { target, value, .. } => {
                    let (LValue::Name(n) | LValue::Index(n, _)) = target;
                    add(out, n);
                    walk_expr(value, out);
                }
                Stmt::If {
                    cond,
                    then_block,
                    else_block,
                    ..
                } => {
                    walk_expr(cond, out);
                    walk(&then_block.stmts, out);
                    if let Some(eb) = else_block {
                        walk(&eb.stmts, out);
                    }
                }
                Stmt::While { cond, body, .. } => {
                    walk_expr(cond, out);
                    walk(&body.stmts, out);
                }
                Stmt::Foreach { iterable, body, .. } => {
                    walk_expr(iterable, out);
                    walk(&body.stmts, out);
                }
                Stmt::VarDecl { init: Some(e), .. }
                | Stmt::Return { value: Some(e), .. }
                | Stmt::Print { value: e, .. }
                | Stmt::Expr { expr: e, .. }
                | Stmt::Measure { target: e, .. } => walk_expr(e, out),
                Stmt::Gate { args, .. } => {
                    for a in args {
                        walk_expr(a, out);
                    }
                }
                Stmt::Block(b) => walk(&b.stmts, out),
                Stmt::VarDecl { init: None, .. }
                | Stmt::Return { value: None, .. }
                | Stmt::Barrier { .. } => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(stmts, &mut out);
    out
}
