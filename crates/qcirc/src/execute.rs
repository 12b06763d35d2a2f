//! Circuit execution over the pluggable simulation backends (see
//! [`mod@crate::backend`] and `docs/backends.md`).
//!
//! Two modes mirror how the paper's runtime uses Qiskit:
//! * [`statevector`] — exact state of a measurement-free circuit (used by
//!   algorithm tests and fidelity checks);
//! * [`run_shots`] — repeated execution with measurement, producing a
//!   [`Counts`] histogram like a Qiskit job result. Every shots entry
//!   point first resolves a backend ([`crate::backend::resolve`]):
//!   Clifford-only noise-free circuits run on the stabilizer tableau,
//!   everything else on the dense statevector. One shot engine, generic
//!   over the two, then runs the job: when all measurements are terminal
//!   and unconditioned and no noise applies, the state is simulated once
//!   and sampled `shots` times (the standard Aer batched-sampling fast
//!   path); otherwise each shot replays the circuit. Histogram keys are
//!   64-bit, so a circuit with more classical bits is refused before any
//!   shot runs.
//!
//! ```
//! use qutes_qcirc::execute::statevector;
//! use qutes_qcirc::QuantumCircuit;
//!
//! let mut c = QuantumCircuit::with_qubits(1);
//! c.h(0).unwrap();
//! let sv = statevector(&c).unwrap();
//! assert!((sv.probability_one(0).unwrap() - 0.5).abs() < 1e-12);
//! ```
//!
//! The live runtime applies gates to a long-lived state with
//! [`apply_run`], one run (a gate, or a whole library fragment) at a
//! time: inside a run, X gates are absorbed into a Pauli-X frame rather
//! than swept through the state, and the frame is settled before any
//! instruction that needs the logical amplitudes and at the end of the
//! run, bit-exactly matching [`apply_gate_noisy`] gate by gate.
//!
//! Per-shot replay (noisy trajectories, mid-circuit measurement) builds
//! the circuit's prefix — its gates before the first measurement, reset
//! or conditional — noise-free once per run, on either engine. Each shot
//! walks the prefix drawing only its noise and starts the rest of the
//! circuit from a copy of that shared state; a shot whose draws put a
//! fault inside the prefix replays the prefix up to that gate itself and
//! carries on gate by gate. Histograms are bit-identical to replaying
//! every shot from `|0…0>`.
//!
//! The hardened entry points [`run_shots_cfg`] / [`run_once_cfg`] take an
//! [`ExecutionConfig`] adding a seed, an optional Monte-Carlo
//! [`NoiseModel`] (the fast path is disabled whenever noise is actually
//! non-zero, since every trajectory then differs), a pre-flight memory
//! check that rejects oversized states with
//! [`CircError::ResourceLimit`] *before* allocating, and a
//! gate-application budget that turns runaway circuits into
//! [`CircError::BudgetExhausted`] instead of hangs. A mitigation wrapper,
//! [`run_shots_majority`], re-runs a noisy circuit in independently
//! seeded batches and majority-votes the winning outcome.

use crate::backend::{BackendChoice, BackendKind};
use crate::circuit::QuantumCircuit;
use crate::error::{CircError, CircResult};
use crate::gate::Gate;
use qutes_sim::tableau::Tableau;
use qutes_sim::{gates, measure, Matrix2, NoiseModel, SimError, StateVector};
use qutes_supervisor::{failpoint, Interrupt, StopReason};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

pub mod shot_pool;

/// Gate applications between cooperative deadline checks in the
/// per-shot execution loop. Gates on small states run in nanoseconds,
/// so a modest stride keeps the check invisible; large states are
/// covered by the amortised checks inside the qsim kernels themselves.
const GATE_CHECK_STRIDE: u64 = 64;

/// How a circuit is executed: shot count, RNG seed, optional noise, and
/// resource ceilings. [`Default`] gives 1024 noiseless shots, seed 0,
/// and no resource limits.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutionConfig {
    /// Number of shots for [`run_shots_cfg`].
    pub shots: usize,
    /// Seed for the execution RNG; the whole run is a pure function of it.
    pub seed: u64,
    /// Optional fault model. A model for which
    /// [`NoiseModel::is_noiseless`] holds behaves exactly like `None`,
    /// including RNG-stream and fast-path selection.
    pub noise: Option<NoiseModel>,
    /// Cap on gate applications **per shot** (conditional bodies count).
    /// `None` means unlimited.
    pub max_gate_applications: Option<u64>,
    /// Cap on the dense-state allocation, checked pre-flight against the
    /// `16 * 2^n` bytes estimate. `None` means unlimited.
    pub memory_budget_bytes: Option<u64>,
    /// Optimization level applied by [`run_once_cfg`]/[`run_shots_cfg`]
    /// before execution: 0 = off, 1 = cancellation + rotation merging,
    /// 2 = additionally single-qubit gate fusion. See [`mod@crate::optimize`].
    pub opt_level: u8,
    /// Enables the process-global `qutes-obs` collector before this run
    /// (stage spans, per-kernel timers, per-gate counters). Collection
    /// stays on afterwards so the caller can snapshot; disabled runs pay
    /// only one atomic load per recording site.
    pub observe: bool,
    /// Wall-clock budget for the whole run (optimization included).
    /// Armed on the interrupt handle at entry; a trip surfaces as
    /// [`CircError::Interrupted`]. `None` means unbounded.
    pub time_budget: Option<Duration>,
    /// Externally shared cancellation handle. Lets a caller (server,
    /// Ctrl-C handler) stop the run from another thread; `None` gives
    /// each run a private handle. Compared by identity.
    pub interrupt: Option<Interrupt>,
    /// Which simulation engine to use (see [`mod@crate::backend`]).
    /// The default [`BackendChoice::Auto`] routes Clifford-only
    /// noise-free circuits to the stabilizer tableau and everything else
    /// to the dense statevector; forcing an unsound backend is a typed
    /// [`CircError::BackendUnsupported`].
    pub backend: BackendChoice,
    /// Worker threads for the per-shot replay paths (see
    /// [`mod@shot_pool`]): `0` (the default) sizes the pool from
    /// [`std::thread::available_parallelism`], `1` forces the serial
    /// path. Histograms are bit-for-bit identical at any value — every
    /// shot draws from its own counter-derived RNG stream — so this is
    /// purely a throughput knob. The batched fast paths (terminal
    /// measurements, no noise) ignore it.
    pub shot_threads: usize,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            shots: 1024,
            seed: 0,
            noise: None,
            max_gate_applications: None,
            memory_budget_bytes: None,
            opt_level: 1,
            observe: false,
            time_budget: None,
            interrupt: None,
            backend: BackendChoice::Auto,
            shot_threads: 0,
        }
    }
}

impl ExecutionConfig {
    /// Sets the shot count.
    pub fn with_shots(mut self, shots: usize) -> Self {
        self.shots = shots;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a noise model.
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Sets the per-shot gate-application budget.
    pub fn with_max_gate_applications(mut self, limit: u64) -> Self {
        self.max_gate_applications = Some(limit);
        self
    }

    /// Sets the memory budget in bytes.
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget_bytes = Some(bytes);
        self
    }

    /// Sets the optimization level (0 = off, 1 = cancel/merge,
    /// 2 = +fusion).
    pub fn with_opt_level(mut self, level: u8) -> Self {
        self.opt_level = level;
        self
    }

    /// Turns observability collection on for this run (see
    /// [`ExecutionConfig::observe`]).
    pub fn with_observe(mut self, on: bool) -> Self {
        self.observe = on;
        self
    }

    /// Sets the wall-clock budget for the whole run.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Attaches a shared cancellation handle.
    pub fn with_interrupt(mut self, interrupt: Interrupt) -> Self {
        self.interrupt = Some(interrupt);
        self
    }

    /// Selects the simulation backend (default [`BackendChoice::Auto`]).
    pub fn with_backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the shot-pool worker count (`0` = auto, `1` = serial); see
    /// [`ExecutionConfig::shot_threads`].
    pub fn with_shot_threads(mut self, threads: usize) -> Self {
        self.shot_threads = threads;
        self
    }

    /// The interrupt handle driving this run: the attached one (or a
    /// fresh private handle), with [`ExecutionConfig::time_budget`]
    /// armed as a deadline starting now.
    pub fn effective_interrupt(&self) -> Interrupt {
        let intr = self.interrupt.clone().unwrap_or_default();
        if let Some(budget) = self.time_budget {
            intr.set_deadline(budget);
        }
        intr
    }

    /// Enables the global collector when this config asks for it.
    fn arm_observability(&self) {
        if self.observe {
            qutes_obs::set_enabled(true);
        }
    }

    /// The circuit actually executed: the input rewritten by
    /// [`crate::optimize::optimize`] at this config's level, or an
    /// unmodified clone at level 0. Gate budgets are charged against this
    /// circuit, so optimized-away gates cost nothing.
    fn optimized(&self, circuit: &QuantumCircuit, intr: &Interrupt) -> CircResult<QuantumCircuit> {
        if self.opt_level == 0 {
            return Ok(circuit.clone());
        }
        let (opt, _) = crate::optimize::optimize_with_interrupt(circuit, self.opt_level, intr)?;
        Ok(opt)
    }

    /// Checks the noise probabilities (if any) are valid.
    pub fn validate(&self) -> CircResult<()> {
        if let Some(nm) = &self.noise {
            nm.validate()?;
        }
        Ok(())
    }

    /// The noise model to actually apply: `None` when absent **or**
    /// all-zero, so a silent model cannot knock execution off the fast
    /// path or desynchronise the RNG stream.
    fn effective_noise(&self) -> Option<&NoiseModel> {
        self.noise.as_ref().filter(|nm| !nm.is_noiseless())
    }

    /// Pre-flight resource check: estimates the dense statevector at
    /// `16 * 2^n` bytes and rejects it against the budget **without
    /// allocating anything**.
    pub fn check_memory(&self, num_qubits: usize) -> CircResult<()> {
        self.check_memory_backend(BackendKind::Statevector, num_qubits)
    }

    /// Backend-aware pre-flight resource check: estimates the state
    /// representation of `kind` ([`BackendKind::required_bytes`]) and
    /// rejects it against the budget **without allocating anything** —
    /// the same budget admits far wider circuits on the tableau.
    pub fn check_memory_backend(&self, kind: BackendKind, num_qubits: usize) -> CircResult<()> {
        let Some(budget) = self.memory_budget_bytes else {
            return Ok(());
        };
        let required = kind.required_bytes(num_qubits);
        if required > budget as u128 {
            return Err(CircError::ResourceLimit {
                required_bytes: u64::try_from(required).unwrap_or(u64::MAX),
                budget_bytes: budget,
            });
        }
        Ok(())
    }

    fn budget(&self) -> GateBudget {
        match self.max_gate_applications {
            Some(limit) => GateBudget::limited(limit),
            None => GateBudget::unlimited(),
        }
    }
}

/// Per-shot countdown of gate applications.
pub(crate) struct GateBudget {
    remaining: Option<u64>,
    limit: u64,
}

impl GateBudget {
    pub(crate) fn unlimited() -> Self {
        GateBudget {
            remaining: None,
            limit: 0,
        }
    }

    fn limited(limit: u64) -> Self {
        GateBudget {
            remaining: Some(limit),
            limit,
        }
    }

    fn charge(&mut self) -> CircResult<()> {
        self.charge_many(1)
    }

    /// Charges `n` applications at once, failing exactly when `n` calls
    /// to [`Self::charge`] would.
    fn charge_many(&mut self, n: u64) -> CircResult<()> {
        if let Some(r) = &mut self.remaining {
            if *r < n {
                return Err(CircError::BudgetExhausted { limit: self.limit });
            }
            *r -= n;
        }
        Ok(())
    }
}

/// Histogram of classical-register outcomes over many shots.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    map: HashMap<usize, usize>,
    num_clbits: usize,
    shots: usize,
}

impl Counts {
    /// Count for a specific outcome (clbit `k` = bit `k` of the key).
    pub fn get(&self, outcome: usize) -> usize {
        self.map.get(&outcome).copied().unwrap_or(0)
    }

    /// Total number of shots recorded.
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// Number of classical bits per outcome.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// Iterates `(outcome, count)` pairs (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }

    /// The most frequent outcome, ties broken toward the smaller key.
    pub fn most_frequent(&self) -> Option<usize> {
        self.map
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&k, _)| k)
    }

    /// Outcomes sorted by descending count.
    pub fn sorted(&self) -> Vec<(usize, usize)> {
        let mut v: Vec<_> = self.map.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Fraction of shots yielding `outcome`.
    pub fn frequency(&self, outcome: usize) -> f64 {
        if self.shots == 0 {
            0.0
        } else {
            self.get(outcome) as f64 / self.shots as f64
        }
    }

    /// Renders an outcome as a bitstring, clbit `num_clbits-1` first
    /// (Qiskit display convention).
    pub fn key_to_bitstring(&self, outcome: usize) -> String {
        (0..self.num_clbits)
            .rev()
            .map(|b| if outcome >> b & 1 == 1 { '1' } else { '0' })
            .collect()
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, c) in self.sorted() {
            writeln!(f, "{}: {}", self.key_to_bitstring(k), c)?;
        }
        Ok(())
    }
}

/// Applies one instruction to the live state, updating classical bits.
///
/// Classical-bit indices are bounds-checked (typed
/// [`CircError::ClbitOutOfRange`], never a panic) so even hand-built
/// [`Gate`] values that bypassed circuit construction fail cleanly.
pub fn apply_gate<R: Rng + ?Sized>(
    state: &mut StateVector,
    clbits: &mut [bool],
    g: &Gate,
    rng: &mut R,
) -> CircResult<()> {
    apply_gate_full(state, clbits, g, rng, None, &mut GateBudget::unlimited())
}

/// Like [`apply_gate`], but threading an optional noise model: unitary
/// gates get post-gate trajectory noise, measurements get readout
/// flips, and conditionals propagate the model into their body. This is
/// the gate-by-gate behaviour [`apply_run`] reproduces bit for bit.
pub fn apply_gate_noisy<R: Rng + ?Sized>(
    state: &mut StateVector,
    clbits: &mut [bool],
    g: &Gate,
    rng: &mut R,
    noise: Option<&NoiseModel>,
) -> CircResult<()> {
    let noise = noise.filter(|nm| !nm.is_noiseless());
    apply_gate_full(state, clbits, g, rng, noise, &mut GateBudget::unlimited())
}

/// Checks `clbit` indexes into `clbits`.
fn check_clbit(clbits: &[bool], clbit: usize) -> CircResult<()> {
    if clbit >= clbits.len() {
        return Err(CircError::ClbitOutOfRange {
            clbit,
            num_clbits: clbits.len(),
        });
    }
    Ok(())
}

/// Applies a *deterministic* instruction — any unitary gate, a global
/// phase, or a barrier — to `state`, with no randomness and no
/// classical bits. Branching instructions (measure/reset/conditional)
/// are a typed [`CircError::NonUnitary`].
///
/// This is the building block the translation validator's channel
/// domain uses to reconstruct Kraus operators column by column: it
/// needs gate application onto an *arbitrary* existing state, which
/// [`statevector`] (always starting from `|0…0>`) cannot provide.
pub fn apply_deterministic(state: &mut StateVector, g: &Gate) -> CircResult<()> {
    match g {
        Gate::GlobalPhase(t) => Ok(state.apply_global_phase(*t)?),
        Gate::Barrier(_) => Ok(()),
        _ => apply_unitary(state, g),
    }
}

/// Applies the unitary instruction `g` to `state`. Callers must route
/// non-unitary instructions (measure/reset/conditional/barrier/phase)
/// elsewhere; this function handles every remaining arm.
fn apply_unitary(state: &mut StateVector, g: &Gate) -> CircResult<()> {
    use Gate::*;
    if let Some(applied) = apply_controlled_gate(state, g, 0) {
        return Ok(applied?);
    }
    match g {
        Swap { a, b } => state.apply_swap(*a, *b)?,
        CSwap { control, a, b } => state.apply_controlled_swap(&[*control], *a, *b)?,
        Unitary2 { q0, q1, matrix } => {
            qutes_obs::counter_add("kernel.fused_unitary", 1);
            state.apply_two_fused(matrix, *q0, *q1)?;
        }
        Unitary3 { q0, q1, q2, matrix } => {
            qutes_obs::counter_add("kernel.fused_unitary", 1);
            state.apply_three(matrix, *q0, *q1, *q2)?;
        }
        _ => return Err(CircError::NonUnitary(g.name())),
    }
    Ok(())
}

/// Applies `g` with the controlled kernel when it is one of the gates
/// that kernel serves — every one-qubit gate (the fused `Unitary`
/// included) and CX/CY/CZ/CPhase/CCX/MCX/MCPhase — on a state held under
/// the Pauli-X frame `frame` (see [`apply_run`]; `0` is no frame).
/// Returns `None`, touching nothing, for every other instruction.
fn apply_controlled_gate(
    state: &mut StateVector,
    g: &Gate,
    frame: usize,
) -> Option<qutes_sim::SimResult<()>> {
    use Gate::*;
    let mut apply = |m: &Matrix2, controls: &[usize], target: usize| {
        let flipped = target < usize::BITS as usize && frame >> target & 1 == 1;
        let m = if flipped {
            let [[m00, m01], [m10, m11]] = m.m;
            Matrix2::new(m11, m10, m01, m00)
        } else {
            *m
        };
        state.apply_controlled_polarity(&m, controls, target, frame)
    };
    Some(match g {
        H(q) => apply(&gates::h(), &[], *q),
        X(q) => apply(&gates::x(), &[], *q),
        Y(q) => apply(&gates::y(), &[], *q),
        Z(q) => apply(&gates::z(), &[], *q),
        S(q) => apply(&gates::s(), &[], *q),
        Sdg(q) => apply(&gates::sdg(), &[], *q),
        T(q) => apply(&gates::t(), &[], *q),
        Tdg(q) => apply(&gates::tdg(), &[], *q),
        SX(q) => apply(&gates::sx(), &[], *q),
        SXdg(q) => apply(&gates::sx().adjoint(), &[], *q),
        Phase { target, lambda } => apply(&gates::phase(*lambda), &[], *target),
        RX { target, theta } => apply(&gates::rx(*theta), &[], *target),
        RY { target, theta } => apply(&gates::ry(*theta), &[], *target),
        RZ { target, theta } => apply(&gates::rz(*theta), &[], *target),
        U {
            target,
            theta,
            phi,
            lambda,
        } => apply(&gates::u(*theta, *phi, *lambda), &[], *target),
        Unitary { target, matrix } => {
            qutes_obs::counter_add("kernel.fused_unitary", 1);
            apply(matrix, &[], *target)
        }
        CX { control, target } => apply(&gates::x(), &[*control], *target),
        CY { control, target } => apply(&gates::y(), &[*control], *target),
        CZ { control, target } => apply(&gates::z(), &[*control], *target),
        CPhase {
            control,
            target,
            lambda,
        } => apply(&gates::phase(*lambda), &[*control], *target),
        CCX { c0, c1, target } => apply(&gates::x(), &[*c0, *c1], *target),
        MCX { controls, target } => apply(&gates::x(), controls, *target),
        MCPhase {
            controls,
            target,
            lambda,
        } => apply(&gates::phase(*lambda), controls, *target),
        _ => return None,
    })
}

/// Applies a run of instructions to the live state, updating classical
/// bits. The result is that of [`apply_gate_noisy`] on each gate in
/// turn — the same amplitudes (a `-0.0` may read `+0.0`), the same
/// classical bits and the same RNG draws — but X gates cost no sweep.
///
/// Inside the run, `X(q)` only toggles bit `q` of a **Pauli-X frame**,
/// an xor mask over basis indices: the amplitude of logical basis state
/// `i` is stored at `i ^ frame`. One-qubit and controlled gates apply
/// straight through the frame: a flipped control fires on `|0>`, and a
/// flipped target takes `X·M·X`, whose entries are those of `M` swapped,
/// so each new amplitude is the same two products summed in the other
/// order. Every other instruction — measure, reset, conditional,
/// swap/cswap, `Unitary2`/`Unitary3`, global phase, barrier — and every
/// noise step that touches the state first settles the frame with one
/// [`StateVector::flip_bits`] pass, then runs the gate-by-gate code. The
/// frame is settled at the end of the run too (also after an error), so
/// no caller ever sees it. A run that undoes its own X conjugations, as
/// Grover oracles and diffusions do, ends with an empty frame and never
/// settles.
///
/// `gate.*` counters count every instruction; `kernel.frame_x` counts
/// the X gates the frame absorbed.
pub fn apply_run<R: Rng + ?Sized>(
    state: &mut StateVector,
    clbits: &mut [bool],
    run: &[Gate],
    rng: &mut R,
    noise: Option<&NoiseModel>,
) -> CircResult<()> {
    let noise = noise.filter(|nm| !nm.is_noiseless());
    let mut frame = 0usize;
    let result = run
        .iter()
        .try_for_each(|g| apply_in_frame(state, clbits, g, rng, noise, &mut frame));
    result.and(settle(state, &mut frame).map_err(CircError::from))
}

/// Moves the amplitudes to where the frame says they belong and clears
/// the frame.
fn settle(state: &mut StateVector, frame: &mut usize) -> qutes_sim::SimResult<()> {
    state.flip_bits(std::mem::take(frame))
}

/// One instruction of [`apply_run`].
fn apply_in_frame<R: Rng + ?Sized>(
    state: &mut StateVector,
    clbits: &mut [bool],
    g: &Gate,
    rng: &mut R,
    noise: Option<&NoiseModel>,
    frame: &mut usize,
) -> CircResult<()> {
    if let Gate::X(q) = g {
        if *q >= state.num_qubits() {
            return Err(qutes_sim::SimError::QubitOutOfRange {
                qubit: *q,
                num_qubits: state.num_qubits(),
            }
            .into());
        }
        qutes_obs::counter_add(g.counter_name(), 1);
        qutes_obs::counter_add("kernel.frame_x", 1);
        *frame ^= 1 << q;
    } else {
        let Some(applied) = apply_controlled_gate(state, g, *frame) else {
            settle(state, frame)?;
            return apply_gate_full(state, clbits, g, rng, noise, &mut GateBudget::unlimited());
        };
        qutes_obs::counter_add(g.counter_name(), 1);
        applied?;
    }
    if let Some(nm) = noise {
        nm.apply_gate_noise_settled(state, &g.qubits(), rng, |s| settle(s, frame).map(|()| s))?;
    }
    Ok(())
}

/// What the shot engine needs of a simulation engine. Implemented on the
/// dense [`StateVector`] and the stabilizer [`Tableau`] and dispatched
/// statically, so per-shot replay pays no virtual call per gate. `Sync`
/// because the shot-pool workers share one prefix state.
pub(crate) trait Engine: Sized + Sync {
    /// Which engine this is (for its memory estimate).
    const KIND: BackendKind;

    /// `|0…0>` on `n` qubits under a run's interrupt handle and
    /// kernel-threading switch (the tableau has no kernel threads).
    fn zero(n: usize, intr: &Interrupt, kernel_parallel: bool) -> CircResult<Self>;

    /// A copy of this state.
    fn copy(&self) -> CircResult<Self>;

    /// Applies a unitary gate, a global phase or a barrier.
    fn apply(&mut self, g: &Gate) -> CircResult<()>;

    /// Measures `qubit`, collapsing the state.
    fn measure<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) -> CircResult<bool>;

    /// Measures `qubit` and returns it to `|0>`.
    fn reset<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) -> CircResult<()>;

    /// Draws `shots` joint samples of `qubits` without collapsing the
    /// state; bit `k` of each key is the outcome of `qubits[k]`.
    fn sample<R: Rng + ?Sized>(
        &self,
        qubits: &[usize],
        shots: usize,
        rng: &mut R,
    ) -> CircResult<HashMap<usize, usize>>;

    /// Post-gate trajectory noise on `qubits` of the state held behind
    /// `target`, handed out by `settle` only when a fault or damping step
    /// touches it (see [`NoiseModel::apply_gate_noise_settled`]). The
    /// hook's error type is the caller's, as there, so the per-gate call
    /// on the hot path returns the small [`SimError`].
    fn gate_noise<T, R: Rng + ?Sized, Er: From<SimError> + Into<CircError>>(
        nm: &NoiseModel,
        target: &mut T,
        qubits: &[usize],
        rng: &mut R,
        settle: impl FnMut(&mut T) -> Result<&mut Self, Er>,
    ) -> CircResult<()>;
}

impl Engine for Tableau {
    const KIND: BackendKind = BackendKind::Tableau;

    fn zero(n: usize, intr: &Interrupt, _kernel_parallel: bool) -> CircResult<Self> {
        let mut tab = Tableau::new(n)?;
        tab.set_interrupt(intr.clone());
        Ok(tab)
    }

    fn copy(&self) -> CircResult<Self> {
        Ok(self.clone())
    }

    fn apply(&mut self, g: &Gate) -> CircResult<()> {
        match g {
            Gate::H(q) => self.h(*q)?,
            Gate::X(q) => self.x(*q)?,
            Gate::Y(q) => self.y(*q)?,
            Gate::Z(q) => self.z(*q)?,
            Gate::S(q) => self.s(*q)?,
            Gate::Sdg(q) => self.sdg(*q)?,
            Gate::CX { control, target } => self.cx(*control, *target)?,
            Gate::CY { control, target } => self.cy(*control, *target)?,
            Gate::CZ { control, target } => self.cz(*control, *target)?,
            Gate::Swap { a, b } => self.swap(*a, *b)?,
            // Stabilizer states are defined up to global phase, so these are
            // exact no-ops rather than approximations.
            Gate::Barrier(_) | Gate::GlobalPhase(_) => {}
            other => return Err(crate::backend::tableau_unsupported_gate(other)),
        }
        Ok(())
    }

    fn measure<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) -> CircResult<bool> {
        Ok(Tableau::measure(self, qubit, rng)?)
    }

    fn reset<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) -> CircResult<()> {
        Tableau::reset(self, qubit, rng)?;
        Ok(())
    }

    fn sample<R: Rng + ?Sized>(
        &self,
        qubits: &[usize],
        shots: usize,
        rng: &mut R,
    ) -> CircResult<HashMap<usize, usize>> {
        Ok(Tableau::sample(self, qubits, shots, rng)?)
    }

    fn gate_noise<T, R: Rng + ?Sized, Er: From<SimError> + Into<CircError>>(
        _nm: &NoiseModel,
        _target: &mut T,
        _qubits: &[usize],
        _rng: &mut R,
        _settle: impl FnMut(&mut T) -> Result<&mut Self, Er>,
    ) -> CircResult<()> {
        Err(crate::backend::tableau_unsupported_noise())
    }
}

impl Engine for StateVector {
    const KIND: BackendKind = BackendKind::Statevector;

    fn zero(n: usize, intr: &Interrupt, kernel_parallel: bool) -> CircResult<Self> {
        let mut state = StateVector::new(n)?;
        state.set_parallel(kernel_parallel);
        state.set_interrupt(intr.clone());
        Ok(state)
    }

    fn copy(&self) -> CircResult<Self> {
        Ok(self.try_clone()?)
    }

    fn apply(&mut self, g: &Gate) -> CircResult<()> {
        apply_deterministic(self, g)
    }

    fn measure<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) -> CircResult<bool> {
        Ok(measure::measure_qubit(self, qubit, rng)?)
    }

    fn reset<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) -> CircResult<()> {
        measure::measure_and_reset(self, qubit, rng)?;
        Ok(())
    }

    fn sample<R: Rng + ?Sized>(
        &self,
        qubits: &[usize],
        shots: usize,
        rng: &mut R,
    ) -> CircResult<HashMap<usize, usize>> {
        Ok(measure::sample_counts(self, qubits, shots, rng)?)
    }

    fn gate_noise<T, R: Rng + ?Sized, Er: From<SimError> + Into<CircError>>(
        nm: &NoiseModel,
        target: &mut T,
        qubits: &[usize],
        rng: &mut R,
        settle: impl FnMut(&mut T) -> Result<&mut Self, Er>,
    ) -> CircResult<()> {
        nm.apply_gate_noise_settled(target, qubits, rng, settle)
            .map_err(Into::into)
    }
}

/// True for the instructions trajectory noise follows: every one except
/// a global phase and a barrier.
fn draws_noise(g: &Gate) -> bool {
    !matches!(g, Gate::GlobalPhase(_) | Gate::Barrier(_))
}

/// Full-featured gate application on either engine: bounds checks,
/// budget accounting, `gate.*` counters, readout flips and post-gate
/// trajectory noise.
pub(crate) fn apply_gate_full<E: Engine, R: Rng + ?Sized>(
    state: &mut E,
    clbits: &mut [bool],
    g: &Gate,
    rng: &mut R,
    noise: Option<&NoiseModel>,
    budget: &mut GateBudget,
) -> CircResult<()> {
    budget.charge()?;
    qutes_obs::counter_add(g.counter_name(), 1);
    match g {
        Gate::Measure { qubit, clbit } => {
            check_clbit(clbits, *clbit)?;
            let mut out = state.measure(*qubit, rng)?;
            if let Some(nm) = noise {
                out = nm.flip_readout(out, rng);
            }
            clbits[*clbit] = out;
        }
        Gate::Conditional { clbit, value, gate } => {
            check_clbit(clbits, *clbit)?;
            if clbits[*clbit] == *value {
                apply_gate_full(state, clbits, gate, rng, noise, budget)?;
            }
        }
        _ => {
            match g {
                Gate::Reset(q) => state.reset(*q, rng)?,
                _ => state.apply(g)?,
            }
            if let Some(nm) = noise.filter(|_| draws_noise(g)) {
                E::gate_noise(nm, state, &g.qubits(), rng, |s| Ok::<_, SimError>(s))?;
            }
        }
    }
    Ok(())
}

/// Translates a shot histogram, batched or merged from the pool, into
/// the shot-outcome contract: a mid-run interrupt yields a degraded
/// partial histogram when allowed and at least one shot completed
/// (`completed_shots` is exactly the histogram weight), and is a typed
/// error otherwise.
fn pool_outcome(
    pool: shot_pool::PoolOutcome,
    num_clbits: usize,
    shots: usize,
    allow_partial: bool,
) -> CircResult<ShotsOutcome> {
    match pool.stop {
        Some(reason) if allow_partial && pool.completed > 0 => {
            qutes_obs::counter_add("supervisor.degraded", 1);
            Ok(ShotsOutcome {
                counts: Counts {
                    map: pool.map,
                    num_clbits,
                    shots: pool.completed,
                },
                completed_shots: pool.completed,
                degraded: true,
                stop: Some(reason),
            })
        }
        Some(reason) => Err(CircError::Interrupted(reason)),
        None => Ok(ShotsOutcome {
            counts: Counts {
                map: pool.map,
                num_clbits,
                shots,
            },
            completed_shots: shots,
            degraded: false,
            stop: None,
        }),
    }
}

/// Result of a single end-to-end execution.
#[derive(Clone, Debug)]
pub struct Shot<S = StateVector> {
    /// Final (collapsed) state.
    pub state: S,
    /// Final classical-bit values.
    pub clbits: Vec<bool>,
}

impl<S> Shot<S> {
    /// Classical bits packed into an integer, clbit `k` = bit `k`. Only
    /// 64 clbits fit; the shots entry points refuse wider circuits.
    pub fn clbits_as_usize(&self) -> usize {
        pack_key(self.clbits.iter().copied().enumerate())
    }
}

/// Packs `(clbit, value)` pairs into a histogram key, clbit `k` at bit
/// `k`. Callers keep `k` below 64: the shot engine refuses wider
/// circuits before any shot runs.
fn pack_key(bits: impl IntoIterator<Item = (usize, bool)>) -> usize {
    bits.into_iter()
        .fold(0, |key, (k, b)| key | usize::from(b) << k)
}

/// Runs the circuit once, collapsing at each measurement.
pub fn run_once<R: Rng + ?Sized>(circuit: &QuantumCircuit, rng: &mut R) -> CircResult<Shot> {
    let budget = GateBudget::unlimited();
    run_once_kernel(circuit, rng, None, budget, &Interrupt::new(), true, None)
}

/// Runs the circuit once under an [`ExecutionConfig`]: seeded RNG,
/// optional noise, memory pre-flight, gate budget, and deadline.
pub fn run_once_cfg(circuit: &QuantumCircuit, cfg: &ExecutionConfig) -> CircResult<Shot> {
    cfg.arm_observability();
    let intr = cfg.effective_interrupt();
    intr.check().map_err(CircError::Interrupted)?;
    cfg.validate()?;
    cfg.check_memory(circuit.num_qubits())?;
    let circuit = cfg.optimized(circuit, &intr)?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let _span = qutes_obs::span("stage.simulate");
    let noise = cfg.effective_noise();
    run_once_kernel(&circuit, &mut rng, noise, cfg.budget(), &intr, true, None)
}

/// The noise-free `|0…0>` state on `n` qubits with `gates` applied,
/// under a run's interrupt handle and kernel-threading switch. Neither
/// counts `gate.*` nor charges a budget: callers do.
fn prefix_state<E: Engine>(
    n: usize,
    gates: &[Gate],
    intr: &Interrupt,
    kernel_parallel: bool,
) -> CircResult<E> {
    let mut state = E::zero(n, intr, kernel_parallel)?;
    for g in gates {
        state.apply(g)?;
    }
    Ok(state)
}

/// The state a circuit's per-shot replays share: its **prefix** (the
/// gates before the first measurement, reset or conditional) applied
/// noise-free to `|0…0>` once per run.
struct SharedPrefix<E> {
    len: usize,
    state: E,
}

impl<E: Engine> SharedPrefix<E> {
    /// Builds the shared prefix state of `circuit`, or `None` when there
    /// is nothing to share (the circuit opens with a measurement, reset
    /// or conditional), when `memory_budget_bytes` cannot hold it beside
    /// a shot's own state, or when the prefix fails to apply (each shot
    /// then replays from `|0…0>` and meets that failure itself).
    fn build(
        circuit: &QuantumCircuit,
        memory_budget_bytes: Option<u64>,
        intr: &Interrupt,
        kernel_parallel: bool,
    ) -> Option<Self> {
        let ops = circuit.ops();
        let len = ops
            .iter()
            .position(|g| {
                matches!(
                    g,
                    Gate::Measure { .. } | Gate::Reset(_) | Gate::Conditional { .. }
                )
            })
            .unwrap_or(ops.len());
        let two_states = 2 * E::KIND.required_bytes(circuit.num_qubits());
        if len == 0 || memory_budget_bytes.is_some_and(|b| two_states > u128::from(b)) {
            return None;
        }
        let state = prefix_state(circuit.num_qubits(), &ops[..len], intr, kernel_parallel).ok()?;
        Some(SharedPrefix { len, state })
    }
}

/// One run of `circuit` from `|0…0>` on engine `E`, with an explicit
/// kernel-threading switch (shot-pool workers pass `false` so per-shot
/// parallelism is the only threading level; dense kernels are
/// bit-identical either way, property-tested in `qsim::parallel`).
///
/// With a `shared` prefix the shot applies no prefix gate itself. It
/// walks the prefix drawing each gate's noise, and when the first fault
/// or damping step needs the state, replays the prefix noise-free up to
/// that gate and carries on gate by gate. A shot that clears the prefix
/// without one starts the rest of the circuit from a copy of the shared
/// state (`shots.prefix_shared`). Either way the draws, amplitudes and
/// classical bits are those of the plain gate-by-gate run, every prefix
/// gate counts in `gate.*`, and the gate budget is charged the prefix
/// length up front.
fn run_once_kernel<E: Engine, R: Rng + ?Sized>(
    circuit: &QuantumCircuit,
    rng: &mut R,
    noise: Option<&NoiseModel>,
    mut budget: GateBudget,
    intr: &Interrupt,
    kernel_parallel: bool,
    shared: Option<&SharedPrefix<E>>,
) -> CircResult<Shot<E>> {
    let ops = circuit.ops();
    let n = circuit.num_qubits();
    let prefix = &ops[..shared.map_or(0, |p| p.len)];
    budget.charge_many(prefix.len() as u64)?;
    let mut clbits = vec![false; circuit.num_clbits()];
    let mut gate_ck = 0u64;
    let mut faulted: Option<E> = None;
    for (i, g) in prefix.iter().enumerate() {
        intr.checkpoint_named(
            &mut gate_ck,
            GATE_CHECK_STRIDE,
            "stage.simulate.checkpoints",
        )
        .map_err(CircError::Interrupted)?;
        if let Some(state) = faulted.as_mut() {
            let mut unlimited = GateBudget::unlimited();
            apply_gate_full(state, &mut clbits, g, rng, noise, &mut unlimited)?;
            continue;
        }
        qutes_obs::counter_add(g.counter_name(), 1);
        if let Some(nm) = noise.filter(|_| draws_noise(g)) {
            E::gate_noise(nm, &mut faulted, &g.qubits(), rng, |slot| match slot {
                Some(state) => Ok::<_, CircError>(state),
                None => Ok(slot.insert(prefix_state(n, &prefix[..=i], intr, kernel_parallel)?)),
            })?;
        }
    }
    let mut state = match (faulted, shared) {
        (Some(state), _) => state,
        (None, Some(shared)) => {
            qutes_obs::counter_add("shots.prefix_shared", 1);
            shared.state.copy()?
        }
        (None, None) => E::zero(n, intr, kernel_parallel)?,
    };
    for g in &ops[prefix.len()..] {
        intr.checkpoint_named(
            &mut gate_ck,
            GATE_CHECK_STRIDE,
            "stage.simulate.checkpoints",
        )
        .map_err(CircError::Interrupted)?;
        apply_gate_full(&mut state, &mut clbits, g, rng, noise, &mut budget)?;
    }
    Ok(Shot { state, clbits })
}

/// The exact statevector of a unitary circuit. Errors if the circuit
/// contains measurement, reset, or classically-conditioned gates.
pub fn statevector(circuit: &QuantumCircuit) -> CircResult<StateVector> {
    let mut state = StateVector::new(circuit.num_qubits())?;
    for g in circuit.ops() {
        // Measurement, reset and conditionals are a typed `NonUnitary`.
        apply_deterministic(&mut state, g)?;
        qutes_obs::counter_add(g.counter_name(), 1);
    }
    Ok(state)
}

/// True when every measurement is terminal (no gate after it touches a
/// measured qubit) and no reset/conditional instruction exists — the
/// precondition for the sample-once fast path.
fn measurements_are_terminal(circuit: &QuantumCircuit) -> bool {
    let mut measured: Vec<Option<usize>> = vec![None; circuit.num_qubits()];
    for g in circuit.ops() {
        match g {
            Gate::Reset(_) | Gate::Conditional { .. } => return false,
            Gate::Measure { qubit, clbit } => {
                if measured[*qubit].is_some() {
                    return false; // double measurement of one qubit
                }
                measured[*qubit] = Some(*clbit);
            }
            Gate::Barrier(_) => {}
            _ => {
                if g.qubits().iter().any(|&q| measured[q].is_some()) {
                    return false;
                }
            }
        }
    }
    true
}

/// Outcome of a supervised shot run: the histogram plus degradation
/// metadata. A non-degraded run has `completed_shots` equal to the
/// configured shot count and `stop == None`.
#[derive(Clone, Debug)]
pub struct ShotsOutcome {
    /// Histogram over the shots that actually completed.
    pub counts: Counts,
    /// How many shots finished before the run ended.
    pub completed_shots: usize,
    /// True when the run was cut short by a deadline or cancellation
    /// and partial results were returned instead of an error.
    pub degraded: bool,
    /// Why the run stopped early, when `degraded` is set.
    pub stop: Option<StopReason>,
}

/// Runs the circuit `shots` times and histograms the classical register.
///
/// Backend dispatch applies here too: a Clifford-only circuit runs on
/// the stabilizer tableau, everything else on the dense statevector
/// (the input circuit is executed as-is, with no optimizer pass).
pub fn run_shots<R: Rng + ?Sized>(
    circuit: &QuantumCircuit,
    shots: usize,
    rng: &mut R,
) -> CircResult<Counts> {
    let cfg = ExecutionConfig::default().with_shots(shots);
    let kind = crate::backend::resolve(BackendChoice::Auto, circuit, false)?;
    qutes_obs::counter_add(kind.counter_name(), 1);
    let intr = Interrupt::new();
    run_shots_kind(kind, circuit, rng, None, &cfg, &intr, false).map(|o| o.counts)
}

/// Runs the circuit under an [`ExecutionConfig`] and histograms the
/// classical register.
///
/// The terminal-measurement fast path (simulate once, sample `shots`
/// times) is used only when the attached noise is absent or all-zero —
/// under real noise every trajectory differs, so each shot re-runs the
/// circuit. The pre-flight memory check runs before any state is
/// allocated, and the gate budget applies per shot.
pub fn run_shots_cfg(circuit: &QuantumCircuit, cfg: &ExecutionConfig) -> CircResult<Counts> {
    run_shots_entry(circuit, cfg, false).map(|o| o.counts)
}

/// Like [`run_shots_cfg`], but with graceful degradation: when the
/// deadline or a cancellation trips after at least one shot completed,
/// the partial histogram is returned (`degraded: true`, with the
/// [`StopReason`]) instead of an error. An interrupt before the first
/// completed shot is still the typed [`CircError::Interrupted`].
pub fn run_shots_supervised(
    circuit: &QuantumCircuit,
    cfg: &ExecutionConfig,
) -> CircResult<ShotsOutcome> {
    run_shots_entry(circuit, cfg, true)
}

fn run_shots_entry(
    circuit: &QuantumCircuit,
    cfg: &ExecutionConfig,
    allow_partial: bool,
) -> CircResult<ShotsOutcome> {
    cfg.arm_observability();
    let intr = cfg.effective_interrupt();
    intr.check().map_err(CircError::Interrupted)?;
    cfg.validate()?;
    let noise = cfg.effective_noise();
    let kind = crate::backend::resolve(cfg.backend, circuit, noise.is_some())?;
    qutes_obs::counter_add(kind.counter_name(), 1);
    cfg.check_memory_backend(kind, circuit.num_qubits())?;
    // The optimizer targets dense kernels (it may fuse Clifford runs into
    // float `Unitary` matrices), so the tableau executes the raw circuit;
    // gate budgets are charged against it directly.
    let optimized;
    let circuit = match kind {
        BackendKind::Tableau => circuit,
        BackendKind::Statevector => {
            optimized = cfg.optimized(circuit, &intr)?;
            &optimized
        }
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let _span = qutes_obs::span("stage.simulate");
    run_shots_kind(kind, circuit, &mut rng, noise, cfg, &intr, allow_partial)
}

/// Runs the shot engine on the engine of `kind`.
fn run_shots_kind<R: Rng + ?Sized>(
    kind: BackendKind,
    circuit: &QuantumCircuit,
    rng: &mut R,
    noise: Option<&NoiseModel>,
    cfg: &ExecutionConfig,
    intr: &Interrupt,
    allow_partial: bool,
) -> CircResult<ShotsOutcome> {
    match kind {
        BackendKind::Tableau => {
            run_shots_on::<Tableau, R>(circuit, rng, noise, cfg, intr, allow_partial)
        }
        BackendKind::Statevector => {
            run_shots_on::<StateVector, R>(circuit, rng, noise, cfg, intr, allow_partial)
        }
    }
}

/// The shot engine: `cfg.shots` runs of `circuit` on engine `E`,
/// histogrammed. When no noise applies and every measurement is
/// terminal, the state is simulated once and sampled (batched);
/// otherwise every shot replays the circuit from the shared prefix on
/// the shot pool (per-shot), with the degradation semantics of
/// [`ShotsOutcome::degraded`].
fn run_shots_on<E: Engine, R: Rng + ?Sized>(
    circuit: &QuantumCircuit,
    rng: &mut R,
    noise: Option<&NoiseModel>,
    cfg: &ExecutionConfig,
    intr: &Interrupt,
    allow_partial: bool,
) -> CircResult<ShotsOutcome> {
    if circuit.num_clbits() > usize::BITS as usize {
        return Err(CircError::Sim(SimError::InvalidState(format!(
            "cannot histogram {} classical bits (keys are {}-bit)",
            circuit.num_clbits(),
            usize::BITS
        ))));
    }
    let shots = cfg.shots;
    qutes_obs::counter_add("sim.shots", shots as u64);
    let pool = if noise.is_none() && measurements_are_terminal(circuit) {
        qutes_obs::counter_add("sim.fast_path", 1);
        qutes_obs::counter_add("backend.mode.batched", 1);
        // Simulate the unitary part once, then sample. The single
        // simulation is all-or-nothing, so no partial outcome is
        // possible here; interrupts surface as errors.
        let mut state = E::zero(circuit.num_qubits(), intr, true)?;
        let mut clbits = vec![false; circuit.num_clbits()];
        let mut budget = cfg.budget();
        let mut gate_ck = 0u64;
        let mut meas_pairs: Vec<(usize, usize)> = Vec::new();
        for g in circuit.ops() {
            intr.checkpoint_named(
                &mut gate_ck,
                GATE_CHECK_STRIDE,
                "stage.simulate.checkpoints",
            )
            .map_err(CircError::Interrupted)?;
            if let Gate::Measure { qubit, clbit } = g {
                check_clbit(&clbits, *clbit)?;
                budget.charge()?;
                meas_pairs.push((*qubit, *clbit));
            } else {
                apply_gate_full(&mut state, &mut clbits, g, rng, None, &mut budget)?;
            }
        }
        let qubits: Vec<usize> = meas_pairs.iter().map(|&(q, _)| q).collect();
        let mut map = HashMap::new();
        for (joint, count) in state.sample(&qubits, shots, rng)? {
            // Bit k of the joint outcome is the clbit of pair k.
            let bits = meas_pairs.iter().enumerate();
            let key = pack_key(bits.map(|(k, &(_, c))| (c, joint >> k & 1 == 1)));
            *map.entry(key).or_insert(0) += count;
        }
        shot_pool::PoolOutcome {
            map,
            completed: shots,
            stop: None,
        }
    } else {
        qutes_obs::counter_add("sim.slow_path", 1);
        qutes_obs::counter_add("backend.mode.per_shot", 1);
        // Counter-derived child streams (see `qutes_sim::rng_stream`):
        // one base draw from the caller's stream, then a private RNG per
        // shot index — the same derivation serial or pooled, so
        // histograms are thread-count invariant.
        let base_seed = rng.next_u64();
        let workers = shot_pool::resolve_workers(cfg.shot_threads, shots);
        let required = E::KIND.required_bytes(circuit.num_qubits());
        let denied_bytes = usize::try_from(required).unwrap_or(usize::MAX);
        // With several workers live, shot-level parallelism owns the
        // cores: nested kernel threading would only oversubscribe.
        let kernel_parallel = workers == 1;
        let budget_bytes = cfg.memory_budget_bytes;
        let shared = SharedPrefix::<E>::build(circuit, budget_bytes, intr, kernel_parallel);
        let run_shot = |s: usize| -> CircResult<usize> {
            intr.check().map_err(CircError::Interrupted)?;
            if intr.is_armed() {
                qutes_obs::counter_add("stage.shots.checkpoints", 1);
            }
            failpoint("qcirc.execute.shot").map_err(|_| {
                CircError::Sim(qutes_sim::SimError::AllocationFailed {
                    bytes: denied_bytes,
                })
            })?;
            let mut shot_rng = qutes_sim::rng_stream::shot_rng(base_seed, s as u64);
            let budget = cfg.budget();
            let shared = shared.as_ref();
            run_once_kernel(
                circuit,
                &mut shot_rng,
                noise,
                budget,
                intr,
                kernel_parallel,
                shared,
            )
            .map(|shot| shot.clbits_as_usize())
        };
        shot_pool::run_pool(shots, workers, denied_bytes, run_shot)?
    };
    pool_outcome(pool, circuit.num_clbits(), shots, allow_partial)
}

/// Result of a [`run_shots_majority`] mitigation run.
#[derive(Clone, Debug)]
pub struct MajorityOutcome {
    /// The outcome winning the most batches (`None` only for 0 batches).
    pub winner: Option<usize>,
    /// How many batches each candidate outcome won.
    pub votes: HashMap<usize, usize>,
    /// Number of batches run.
    pub batches: usize,
}

impl MajorityOutcome {
    /// Fraction of batches won by the winner (0 when there are none).
    pub fn confidence(&self) -> f64 {
        match self.winner {
            Some(w) if self.batches > 0 => {
                self.votes.get(&w).copied().unwrap_or(0) as f64 / self.batches as f64
            }
            _ => 0.0,
        }
    }
}

/// Error-mitigation wrapper: runs the circuit in `batches` independent
/// re-runs of `cfg.shots` shots each (batch `b` reseeded deterministically
/// from `cfg.seed`), takes each batch's most frequent outcome as that
/// batch's vote, and returns the majority winner.
///
/// Under stochastic noise a single histogram can be won by a faulty
/// outcome; voting across independent trajectories recovers the correct
/// answer whenever each batch is right with probability above one half —
/// graceful degradation at low noise rather than a silent wrong answer.
pub fn run_shots_majority(
    circuit: &QuantumCircuit,
    cfg: &ExecutionConfig,
    batches: usize,
) -> CircResult<MajorityOutcome> {
    let mut votes: HashMap<usize, usize> = HashMap::new();
    for b in 0..batches {
        let mut batch_cfg = cfg.clone();
        // Golden-ratio stride keeps batch streams well separated; batch 0
        // reproduces a plain `run_shots_cfg` run exactly.
        batch_cfg.seed = cfg
            .seed
            .wrapping_add((b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let counts = run_shots_cfg(circuit, &batch_cfg)?;
        if let Some(w) = counts.most_frequent() {
            *votes.entry(w).or_insert(0) += 1;
        }
    }
    let winner = votes
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
        .map(|(&k, _)| k);
    Ok(MajorityOutcome {
        winner,
        votes,
        batches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn statevector_of_bell_circuit() {
        let mut c = QuantumCircuit::with_qubits(2);
        c.h(0).unwrap().cx(0, 1).unwrap();
        let sv = statevector(&c).unwrap();
        let a = 1.0 / 2f64.sqrt();
        assert!((sv.amplitude(0).re - a).abs() < 1e-12);
        assert!((sv.amplitude(3).re - a).abs() < 1e-12);
    }

    #[test]
    fn statevector_rejects_measurement() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(1, 1);
        c.measure(0, 0).unwrap();
        assert!(matches!(statevector(&c), Err(CircError::NonUnitary(_))));
    }

    #[test]
    fn bell_counts_are_correlated() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(2, 2);
        c.h(0).unwrap().cx(0, 1).unwrap();
        c.measure(0, 0).unwrap().measure(1, 1).unwrap();
        let counts = run_shots(&c, 1000, &mut rng()).unwrap();
        assert_eq!(counts.shots(), 1000);
        assert_eq!(counts.get(0b00) + counts.get(0b11), 1000);
        assert!(counts.get(0b00) > 350);
        assert!(counts.get(0b11) > 350);
    }

    #[test]
    fn fast_and_slow_paths_agree_statistically() {
        // Same Bell circuit, but a trailing X on an unmeasured qubit after
        // measurement forces the slow path.
        let mut fast = QuantumCircuit::with_qubits_and_clbits(3, 2);
        fast.h(0).unwrap().cx(0, 1).unwrap();
        fast.measure(0, 0).unwrap().measure(1, 1).unwrap();
        let mut slow = fast.clone();
        slow.x(0).unwrap(); // touches a measured qubit -> slow path
        assert!(measurements_are_terminal(&fast));
        assert!(!measurements_are_terminal(&slow));
        let cf = run_shots(&fast, 4000, &mut rng()).unwrap();
        let cs = run_shots(&slow, 4000, &mut rng()).unwrap();
        for key in [0b00usize, 0b11] {
            let a = cf.frequency(key);
            let b = cs.frequency(key);
            assert!((a - b).abs() < 0.05, "key {key}: {a} vs {b}");
        }
    }

    #[test]
    fn conditional_gate_teleports_correction() {
        // Prepare |1>, measure into c0, then conditionally flip another
        // qubit: final qubit must always read 1.
        let mut c = QuantumCircuit::with_qubits_and_clbits(2, 2);
        c.x(0).unwrap();
        c.measure(0, 0).unwrap();
        c.c_if(0, true, Gate::X(1)).unwrap();
        c.measure(1, 1).unwrap();
        let counts = run_shots(&c, 100, &mut rng()).unwrap();
        assert_eq!(counts.get(0b11), 100);
    }

    #[test]
    fn reset_forces_zero() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(1, 1);
        c.h(0).unwrap();
        c.reset(0).unwrap();
        c.measure(0, 0).unwrap();
        let counts = run_shots(&c, 200, &mut rng()).unwrap();
        assert_eq!(counts.get(0), 200);
    }

    #[test]
    fn mid_circuit_measurement_collapses() {
        // H, measure, then re-measure: outcomes agree within each shot.
        let mut c = QuantumCircuit::with_qubits_and_clbits(1, 2);
        c.h(0).unwrap();
        c.measure(0, 0).unwrap();
        c.measure(0, 1).unwrap();
        let counts = run_shots(&c, 500, &mut rng()).unwrap();
        assert_eq!(counts.get(0b00) + counts.get(0b11), 500);
        assert_eq!(counts.get(0b01), 0);
        assert_eq!(counts.get(0b10), 0);
    }

    #[test]
    fn counts_helpers() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(2, 2);
        c.x(1).unwrap();
        c.measure(0, 0).unwrap().measure(1, 1).unwrap();
        let counts = run_shots(&c, 64, &mut rng()).unwrap();
        assert_eq!(counts.most_frequent(), Some(0b10));
        assert_eq!(counts.key_to_bitstring(0b10), "10");
        assert_eq!(counts.frequency(0b10), 1.0);
        assert_eq!(counts.sorted()[0], (0b10, 64));
        let shown = counts.to_string();
        assert!(shown.contains("10: 64"));
    }

    #[test]
    fn run_once_returns_final_state() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(2, 1);
        c.x(0).unwrap().measure(0, 0).unwrap();
        let shot = run_once(&c, &mut rng()).unwrap();
        assert!(shot.clbits[0]);
        assert_eq!(shot.clbits_as_usize(), 1);
        assert!((shot.state.probability_one(0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expired_deadline_is_typed_error() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(2, 2);
        c.h(0).unwrap().cx(0, 1).unwrap();
        c.measure(0, 0).unwrap().measure(1, 1).unwrap();
        let cfg = ExecutionConfig::default().with_time_budget(Duration::ZERO);
        let err = run_shots_cfg(&c, &cfg).unwrap_err();
        assert!(matches!(
            err,
            CircError::Interrupted(StopReason::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn cancelled_interrupt_is_typed_error() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(1, 1);
        c.h(0).unwrap().measure(0, 0).unwrap();
        let intr = Interrupt::new();
        intr.cancel();
        let cfg = ExecutionConfig::default().with_interrupt(intr);
        let err = run_once_cfg(&c, &cfg).unwrap_err();
        assert!(matches!(err, CircError::Interrupted(StopReason::Cancelled)));
    }

    #[test]
    fn generous_deadline_does_not_change_results() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(2, 2);
        c.h(0).unwrap().cx(0, 1).unwrap();
        c.measure(0, 0).unwrap().measure(1, 1).unwrap();
        let plain = run_shots_cfg(&c, &ExecutionConfig::default()).unwrap();
        let timed = run_shots_cfg(
            &c,
            &ExecutionConfig::default().with_time_budget(Duration::from_secs(600)),
        )
        .unwrap();
        assert_eq!(plain.sorted(), timed.sorted());
    }

    #[test]
    fn supervised_run_completes_normally() {
        let mut c = QuantumCircuit::with_qubits_and_clbits(1, 1);
        c.h(0).unwrap().measure(0, 0).unwrap();
        let cfg = ExecutionConfig::default().with_shots(100);
        let outcome = run_shots_supervised(&c, &cfg).unwrap();
        assert!(!outcome.degraded);
        assert_eq!(outcome.completed_shots, 100);
        assert_eq!(outcome.stop, None);
        assert_eq!(outcome.counts.shots(), 100);
    }

    #[test]
    fn supervised_run_degrades_to_partial_counts() {
        // Reset forces the slow per-shot path; cancel from a watcher
        // thread once at least one shot has landed.
        let mut c = QuantumCircuit::with_qubits_and_clbits(1, 1);
        c.h(0).unwrap();
        c.reset(0).unwrap();
        c.h(0).unwrap();
        c.measure(0, 0).unwrap();
        let intr = Interrupt::new();
        let cfg = ExecutionConfig::default()
            .with_shots(2_000_000_000)
            .with_interrupt(intr.clone());
        let watcher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            intr.cancel();
        });
        let outcome = run_shots_supervised(&c, &cfg).unwrap();
        watcher.join().map_err(|_| "watcher panicked").unwrap();
        assert!(outcome.degraded);
        assert!(outcome.completed_shots > 0);
        assert!(outcome.completed_shots < 2_000_000_000);
        assert_eq!(outcome.stop, Some(StopReason::Cancelled));
        assert_eq!(outcome.counts.shots(), outcome.completed_shots);
    }

    #[test]
    fn supervised_zero_budget_still_errors() {
        // No shot can complete under an already-expired deadline, so
        // there is nothing partial to salvage.
        let mut c = QuantumCircuit::with_qubits_and_clbits(1, 1);
        c.h(0).unwrap().measure(0, 0).unwrap();
        let cfg = ExecutionConfig::default().with_time_budget(Duration::ZERO);
        assert!(matches!(
            run_shots_supervised(&c, &cfg),
            Err(CircError::Interrupted(_))
        ));
    }

    #[test]
    fn mcx_and_mcphase_execute() {
        let mut c = QuantumCircuit::with_qubits(4);
        c.x(0).unwrap().x(1).unwrap().x(2).unwrap();
        c.mcx(&[0, 1, 2], 3).unwrap();
        let sv = statevector(&c).unwrap();
        assert!((sv.probability_one(3).unwrap() - 1.0).abs() < 1e-12);

        let mut c2 = QuantumCircuit::with_qubits(3);
        c2.x(0).unwrap().x(1).unwrap().x(2).unwrap();
        c2.mcz(&[0, 1], 2).unwrap();
        let sv2 = statevector(&c2).unwrap();
        assert!((sv2.amplitude(0b111).re + 1.0).abs() < 1e-12);
    }

    /// A 3-qubit circuit with a 10-gate prefix (global phase and barrier
    /// included) before a mid-circuit measurement, and gates after it.
    /// The Clifford variant swaps `RZ`/`T` for `S`/`S†` so the tableau
    /// can run it.
    fn prefixed_circuit(clifford: bool) -> QuantumCircuit {
        use Gate::*;
        let mut c = QuantumCircuit::with_qubits_and_clbits(3, 3);
        let (rz, t) = if clifford {
            (S(1), Sdg(2))
        } else {
            (
                RZ {
                    target: 1,
                    theta: 0.3,
                },
                T(2),
            )
        };
        let ops = [
            H(0),
            CX {
                control: 0,
                target: 1,
            },
            rz,
            t,
            GlobalPhase(0.2),
            Barrier(vec![0, 1]),
            Swap { a: 0, b: 2 },
            CZ {
                control: 1,
                target: 2,
            },
            X(0),
            H(2),
            Measure { qubit: 1, clbit: 0 },
            H(1),
            CX {
                control: 1,
                target: 0,
            },
            Measure { qubit: 0, clbit: 1 },
            Measure { qubit: 2, clbit: 2 },
        ];
        for g in ops {
            c.append(g).unwrap();
        }
        c
    }

    fn shared_prefix_matches<E: Engine + fmt::Debug>(
        c: &QuantumCircuit,
        models: &[Option<NoiseModel>],
    ) {
        let intr = Interrupt::new();
        let shared = SharedPrefix::<E>::build(c, None, &intr, false).unwrap();
        assert_eq!(shared.len, 10);
        for nm in models {
            for s in 0..200u64 {
                // Final clbits, final state, and the next draw.
                let run = |shared: Option<&SharedPrefix<E>>| {
                    let mut rng = qutes_sim::rng_stream::shot_rng(9, s);
                    let budget = GateBudget::unlimited();
                    let shot =
                        run_once_kernel(c, &mut rng, nm.as_ref(), budget, &intr, false, shared)
                            .unwrap();
                    (shot.clbits, format!("{:?}", shot.state), rng.next_u64())
                };
                assert_eq!(run(None), run(Some(&shared)), "shot {s} under {nm:?}");
            }
        }
    }

    #[test]
    fn shared_prefix_shots_match_replays_from_zero_bit_for_bit() {
        let models = [
            Some(NoiseModel::depolarizing(0.05).with_readout_error(0.1)),
            Some(NoiseModel::none().with_bit_flip(0.05).with_phase_flip(0.05)),
            Some(NoiseModel::none().with_amplitude_damping(0.1)),
        ];
        shared_prefix_matches::<StateVector>(&prefixed_circuit(false), &models);
        shared_prefix_matches::<Tableau>(&prefixed_circuit(true), &[None]);
    }

    fn budget_below_prefix_matches<E: Engine + fmt::Debug>(c: &QuantumCircuit) {
        let intr = Interrupt::new();
        let shared = SharedPrefix::<E>::build(c, None, &intr, false).unwrap();
        for limit in [0, 5, 9, 10, 11, 13, 14] {
            let run = |shared: Option<&SharedPrefix<E>>| {
                let mut rng = qutes_sim::rng_stream::shot_rng(1, 0);
                let budget = GateBudget::limited(limit);
                run_once_kernel(c, &mut rng, None, budget, &intr, false, shared)
                    .map(|shot| shot.clbits)
                    .map_err(|e| e.to_string())
            };
            assert_eq!(run(None), run(Some(&shared)), "limit {limit}");
        }
    }

    #[test]
    fn budget_below_the_prefix_fails_like_the_gate_by_gate_run() {
        budget_below_prefix_matches::<StateVector>(&prefixed_circuit(false));
        budget_below_prefix_matches::<Tableau>(&prefixed_circuit(true));
    }

    fn prefix_needs_two_states<E: Engine>(c: &QuantumCircuit) {
        let intr = Interrupt::new();
        let one_state = u64::try_from(E::KIND.required_bytes(c.num_qubits())).unwrap();
        assert!(SharedPrefix::<E>::build(c, Some(2 * one_state), &intr, false).is_some());
        assert!(SharedPrefix::<E>::build(c, Some(2 * one_state - 1), &intr, false).is_none());
        let mut opens_with_measure = QuantumCircuit::with_qubits_and_clbits(1, 1);
        opens_with_measure.measure(0, 0).unwrap().h(0).unwrap();
        assert!(SharedPrefix::<E>::build(&opens_with_measure, None, &intr, false).is_none());
    }

    #[test]
    fn prefix_is_not_shared_when_the_budget_cannot_hold_two_states() {
        prefix_needs_two_states::<StateVector>(&prefixed_circuit(false));
        prefix_needs_two_states::<Tableau>(&prefixed_circuit(true));
    }

    #[test]
    fn more_than_64_clbits_are_refused_on_both_engines_and_paths() {
        // Clbit 64 is written by a terminal measurement (batched) and by
        // a mid-circuit one (per-shot); neither fits a 64-bit key.
        let mut terminal = QuantumCircuit::with_qubits_and_clbits(1, 65);
        terminal.h(0).unwrap().measure(0, 64).unwrap();
        let mut mid_circuit = QuantumCircuit::with_qubits_and_clbits(1, 65);
        mid_circuit.h(0).unwrap().measure(0, 64).unwrap();
        mid_circuit.h(0).unwrap().measure(0, 0).unwrap();
        assert!(measurements_are_terminal(&terminal));
        assert!(!measurements_are_terminal(&mid_circuit));
        for c in [&terminal, &mid_circuit] {
            for backend in [BackendChoice::Statevector, BackendChoice::Tableau] {
                let cfg = ExecutionConfig::default()
                    .with_shots(16)
                    .with_backend(backend);
                let err = run_shots_cfg(c, &cfg).unwrap_err();
                assert!(
                    matches!(err, CircError::Sim(qutes_sim::SimError::InvalidState(_))),
                    "{backend}: {err}"
                );
                assert!(
                    err.to_string()
                        .contains("cannot histogram 65 classical bits (keys are 64-bit)"),
                    "{backend}: {err}"
                );
            }
        }
    }
}
