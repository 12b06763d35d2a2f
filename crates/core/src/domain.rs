//! The interpreter's effect domain: every quantum effect, random choice
//! and imprecision the operation pass produces goes through [`Domain`].
//!
//! There are two domains. The concrete one is the live
//! [`crate::QuantumCircuitHandler`]: gates hit a simulation backend,
//! measurements collapse it and yield known values, and random choices
//! draw from the run's seeded RNG. The abstract one is the resource
//! estimator's shadow circuit in `qutes-analysis`: it records the same
//! gates without simulating, so measurement outcomes become
//! [`Value::Unknown`], random choices take their worst case, and the
//! interpreter forks on conditions it cannot decide. One interpreter
//! ([`crate::runtime`]) serves both, statically dispatched.

use crate::error::{QutesError, QutesResult};
use crate::value::{Unknown, Value};
use qutes_qcirc::{Gate, QuantumCircuit};

/// Extra resources an imprecise step may have used beyond the circuit
/// the domain recorded; the estimator adds them to its totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Slack {
    /// Qubits.
    pub qubits: usize,
    /// Gates.
    pub gates: usize,
    /// Depth.
    pub depth: usize,
    /// Measurements.
    pub measurements: usize,
}

/// Which world survives a [`Domain::join`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    /// The two worlds built the same circuit and environment.
    Identical,
    /// The worlds differ; the joined domain kept the current (second)
    /// world, so its environment stays.
    KeptSelf,
    /// The worlds differ; the joined domain kept the other (first)
    /// world, whose environment must be restored.
    KeptOther,
}

/// The effects the interpreter delegates. [`Self::imprecise`],
/// [`Self::split`] and [`Self::join`] serve the abstract domain only; a
/// real run never reaches them, because its values are always known.
pub trait Domain: Sized {
    /// Errors when `extra` more qubits would not fit.
    fn check_capacity(&self, extra: usize, what: &str) -> QutesResult<()>;
    /// Allocates a fresh register; returns its global qubit indices.
    fn allocate(&mut self, name: &str, width: usize) -> QutesResult<Vec<usize>>;
    /// Acquires `n` clean work qubits, reusing released ones first.
    fn acquire_ancillas(&mut self, n: usize, name: &str) -> QutesResult<Vec<usize>>;
    /// Returns uncomputed work qubits to the pool.
    fn release_ancillas(&mut self, qubits: &[usize]);
    /// Appends (and, in a run, applies) one gate.
    fn apply(&mut self, gate: Gate) -> QutesResult<()>;
    /// Appends every instruction of a fragment on global indices.
    fn apply_fragment(&mut self, fragment: &QuantumCircuit) -> QutesResult<()> {
        for g in fragment.ops() {
            self.apply(g.clone())?;
        }
        Ok(())
    }
    /// Appends a barrier over the whole circuit.
    fn barrier(&mut self) -> QutesResult<()>;
    /// Qubits allocated so far.
    fn num_qubits(&self) -> usize;
    /// Measures `qubits` into fresh classical bits. Returns the observed
    /// bits, or `None` when the outcome cannot be known.
    fn measure_bits(&mut self, qubits: &[usize]) -> QutesResult<Option<Vec<bool>>>;
    /// Iteration count for one round of the BBHT schedule behind `in`,
    /// drawn from `0..=bound`. A run draws at random; the estimator
    /// takes the maximum.
    fn bbht_iterations(&mut self, bound: usize) -> usize;
    /// `qmin`/`qmax` (Dürr–Høyer) over known values.
    fn extremum(&mut self, values: &[u64], maximum: bool) -> QutesResult<Value>;
    /// Records that the figures from here on are bounds, not
    /// predictions: `note` says why, `slack` what may have been missed.
    fn imprecise(&mut self, _note: &str, _slack: Slack) {}
    /// A copy of this world, to run one side of a fork on.
    fn split(&self) -> QutesResult<Self> {
        Err(QutesError::runtime(
            "a live run cannot fork on an undecided condition",
            qutes_frontend::Span::default(),
        ))
    }
    /// Joins `other` (the first world of a fork) into `self` (the
    /// second). `envs_agree` says whether both left the variables in
    /// the same state.
    fn join(&mut self, _other: Self, _envs_agree: bool) -> Merge {
        Merge::KeptSelf
    }
}

/// The classical value a measurement of `bits` yields for a register of
/// `kind`, or the matching unknown when the outcome is not known.
pub(crate) fn measured_value(kind: crate::value::QKind, bits: Option<Vec<bool>>) -> Value {
    use crate::value::QKind;
    match (kind, bits) {
        (QKind::Qustring, Some(bits)) => {
            Value::Str(bits.iter().map(|&b| if b { '1' } else { '0' }).collect())
        }
        (QKind::Qubit, Some(bits)) => Value::Bool(bits.iter().any(|&b| b)),
        (QKind::Quint, Some(bits)) => Value::Int(pack_bits(&bits) as i64),
        (QKind::Qustring, None) => Value::Unknown(Unknown::Str),
        (QKind::Qubit, None) => Value::Unknown(Unknown::Bool),
        (QKind::Quint, None) => Value::Unknown(Unknown::Int),
    }
}

/// Packs the low 64 measured bits into an integer (bit `k` = `bits[k]`).
pub(crate) fn pack_bits(bits: &[bool]) -> u64 {
    bits.iter()
        .take(64)
        .enumerate()
        .filter(|(_, &b)| b)
        .fold(0, |acc, (k, _)| acc | 1 << k)
}
