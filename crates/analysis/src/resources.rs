//! Static resource estimation: bounds on qubit count, gate count, circuit
//! depth, and measurement count — computed **without simulating**.
//!
//! The estimator runs the runtime's own interpreter
//! ([`qutes_core::interpret`]) over an abstract effect domain, the
//! `Shadow` circuit. The interpreter lowers every quantum operation
//! exactly as in a real run — the same casts, arithmetic, rotations and
//! Grover oracles — but the shadow only records the gates: it never
//! allocates a statevector and never samples, so every measurement
//! outcome is an unknown value.
//!
//! On programs whose control flow does not depend on measurement outcomes
//! the resulting counts are **exact** (they match `qcirc`'s
//! [`CircuitStats`](qutes_qcirc::CircuitStats) for the circuit a real run
//! accumulates). On an undecided condition the interpreter runs both
//! branches on copies of the shadow: when the two worlds build identical
//! circuits the estimate stays exact, otherwise the shadow keeps the
//! larger world and the difference becomes additive slack, making every
//! figure an upper bound. Constructs whose circuit size is inherently
//! run-dependent (the Grover-based `in` operator's BBHT schedule, whose
//! worst case the shadow draws, and unbounded `while` loops) mark the
//! estimate inexact and leave a note.

use qutes_core::{interpret, Domain, FunctionTable, Merge, QutesError, QutesResult, RunConfig};
use qutes_core::{Interrupt, Slack, Unknown, Value};
use qutes_frontend::ast::Program;
use qutes_qcirc::{Gate, QuantumCircuit};

/// Static bounds on the circuit a program would build.
#[derive(Clone, Debug, PartialEq)]
pub struct ResourceEstimate {
    /// Total qubits allocated (shadow width plus branch slack).
    pub qubits: usize,
    /// Instructions excluding barriers (matches [`size`] semantics).
    ///
    /// [`size`]: qutes_qcirc::QuantumCircuit::size
    pub gates: usize,
    /// Circuit depth (matches [`depth`] semantics; an upper bound when
    /// the estimate is not exact).
    ///
    /// [`depth`]: qutes_qcirc::QuantumCircuit::depth
    pub depth: usize,
    /// Collapsing measurement operations.
    pub measurements: usize,
    /// True when every figure is exact for any run of the program.
    pub exact: bool,
    /// True when every gate the program can emit (on any branch the
    /// estimator explored) is Clifford — H/X/Y/Z/S/S†/CX/CY/CZ/Swap,
    /// measurement, reset. Such programs are exactly simulable on the
    /// stabilizer-tableau backend at hundreds of qubits; the `qutes`
    /// facade uses this bit to auto-dispatch (see `docs/backends.md`).
    /// When estimation gives up early the bit survives only if the
    /// syntactic Clifford classifier
    /// ([`crate::domains::syntactic::program_is_clifford`]) proves no
    /// construct in the program can lower to a non-Clifford gate, so a
    /// `true` here is a sound promise, never a guess.
    pub clifford_only: bool,
    /// Why the estimate is inexact (empty when `exact`).
    pub notes: Vec<String>,
}

impl Default for ResourceEstimate {
    fn default() -> Self {
        ResourceEstimate {
            qubits: 0,
            gates: 0,
            depth: 0,
            measurements: 0,
            exact: true,
            clifford_only: true,
            notes: Vec::new(),
        }
    }
}

impl ResourceEstimate {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "resources: {} qubit{}, {} gate{}, depth {}, {} measurement{} ({})",
            self.qubits,
            plural(self.qubits),
            self.gates,
            plural(self.gates),
            self.depth,
            self.measurements,
            plural(self.measurements),
            match (self.exact, self.clifford_only) {
                (true, true) => "exact, clifford-only",
                (true, false) => "exact",
                (false, true) => "upper bound, clifford-only",
                (false, false) => "upper bound",
            },
        )
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// Estimates the resources `program` would consume when run.
pub fn estimate(program: &Program) -> ResourceEstimate {
    let _span = qutes_obs::span("stage.estimate");
    let mut shadow = Shadow::default();
    // The run's own call-depth budget; a step budget far below the
    // run's, so that dispatch stays cheap on long classical loops.
    let limits = RunConfig {
        max_steps: MAX_STEPS,
        ..RunConfig::default()
    };
    let gave_up = FunctionTable::of_program(program)
        .map_err(QutesError::Compile)
        .and_then(|functions| {
            interpret(program, functions, &mut shadow, &limits, &Interrupt::new())
        })
        .is_err();
    if gave_up {
        shadow.note("estimation stopped early (budget exhausted or un-analyzable construct)");
        // Unknown gates may follow the stop point, so the trace-based
        // Clifford bit alone would be unsound. The syntactic classifier
        // rescues the common case: if *no construct in the whole
        // program* can lower to a non-Clifford gate, the claim stands
        // regardless of where estimation stopped (e.g. measurement-
        // terminated branches or unbounded while loops in an otherwise
        // Clifford program).
        shadow.non_clifford |= !crate::domains::syntactic::program_is_clifford(program);
    }
    ResourceEstimate {
        qubits: shadow.circ.num_qubits() + shadow.slack.qubits,
        gates: shadow.circ.size() + shadow.slack.gates,
        depth: shadow.circ.depth() + shadow.slack.depth,
        measurements: shadow.measurements + shadow.slack.measurements,
        exact: shadow.notes.is_empty(),
        clifford_only: !shadow.non_clifford,
        notes: shadow.notes,
    }
}

const MAX_SHADOW_QUBITS: usize = 1024;
const MAX_SHADOW_GATES: usize = 1 << 18;
const MAX_STEPS: u64 = 200_000;

/// The estimator's effect domain: a circuit that records gates without
/// simulating them, plus the slack and notes of every imprecise step.
#[derive(Clone, Default)]
struct Shadow {
    circ: QuantumCircuit,
    free: Vec<usize>,
    measurements: usize,
    /// Some gate either world recorded is not Clifford.
    non_clifford: bool,
    /// Why the estimate is inexact (empty while it is exact).
    notes: Vec<String>,
    slack: Slack,
}

impl Shadow {
    fn note(&mut self, note: &str) {
        if !self.notes.iter().any(|n| n == note) {
            self.notes.push(note.to_string());
        }
    }

    /// Totals with slack: gates, depth, qubits, measurements.
    fn totals(&self) -> [usize; 4] {
        [
            self.circ.size() + self.slack.gates,
            self.circ.depth() + self.slack.depth,
            self.circ.num_qubits() + self.slack.qubits,
            self.measurements + self.slack.measurements,
        ]
    }
}

/// Why the shadow stops: the estimate keeps what it recorded so far.
fn give_up() -> QutesError {
    QutesError::runtime("resource estimation budget exhausted", Default::default())
}

impl Domain for Shadow {
    fn check_capacity(&self, extra: usize, _what: &str) -> QutesResult<()> {
        if self.circ.num_qubits() + extra > MAX_SHADOW_QUBITS {
            return Err(give_up());
        }
        Ok(())
    }

    fn allocate(&mut self, _name: &str, width: usize) -> QutesResult<Vec<usize>> {
        self.check_capacity(width, "")?;
        Ok(self.circ.add_qreg("r", width).qubits())
    }

    fn acquire_ancillas(&mut self, n: usize, name: &str) -> QutesResult<Vec<usize>> {
        let keep = self.free.len().saturating_sub(n);
        let mut out: Vec<usize> = self.free.drain(keep..).rev().collect();
        if out.len() < n {
            out.extend(self.allocate(name, n - out.len())?);
        }
        Ok(out)
    }

    /// Every release site uncomputes its ancillas back to `|0>`
    /// deterministically, so (unlike the runtime's state-probing pool)
    /// the shadow always re-pools.
    fn release_ancillas(&mut self, qubits: &[usize]) {
        self.free.extend_from_slice(qubits);
    }

    fn apply(&mut self, gate: Gate) -> QutesResult<()> {
        if self.circ.len() >= MAX_SHADOW_GATES {
            return Err(give_up());
        }
        self.non_clifford |= !gate.is_clifford();
        Ok(self.circ.append(gate)?)
    }

    fn barrier(&mut self) -> QutesResult<()> {
        self.apply(Gate::Barrier(vec![]))
    }

    fn num_qubits(&self) -> usize {
        self.circ.num_qubits()
    }

    fn measure_bits(&mut self, qubits: &[usize]) -> QutesResult<Option<Vec<bool>>> {
        let creg = self
            .circ
            .add_creg(format!("m{}", self.measurements), qubits.len());
        self.measurements += 1;
        for (k, &q) in qubits.iter().enumerate() {
            self.apply(Gate::Measure {
                qubit: q,
                clbit: creg.bit(k),
            })?;
        }
        Ok(None)
    }

    fn bbht_iterations(&mut self, bound: usize) -> usize {
        self.note(
            "Grover substring search ('in'): the BBHT schedule is randomized, so the \
             mirrored counts are its worst case",
        );
        bound
    }

    /// Dürr–Høyer runs on its own internal circuit: it costs nothing in
    /// the accumulated circuit, and its answer is not predicted.
    fn extremum(&mut self, _values: &[u64], _maximum: bool) -> QutesResult<Value> {
        Ok(Value::Unknown(Unknown::Int))
    }

    fn imprecise(&mut self, note: &str, slack: Slack) {
        self.note(note);
        self.slack.qubits += slack.qubits;
        self.slack.gates += slack.gates;
        self.slack.depth += slack.depth;
        self.slack.measurements += slack.measurements;
    }

    fn split(&self) -> QutesResult<Self> {
        Ok(self.clone())
    }

    /// If both worlds end in the same circuit and environment the merge
    /// is exact; otherwise the world with more gates is kept and the
    /// other's excess on every metric becomes additive slack.
    fn join(&mut self, other: Self, envs_agree: bool) -> Merge {
        // A non-Clifford gate on *either* path poisons the Clifford claim
        // — the discarded world's gates survive only as slack counts.
        let non_clifford = self.non_clifford || other.non_clifford;
        let same_world = envs_agree
            && self.circ.ops() == other.circ.ops()
            && self.circ.num_qubits() == other.circ.num_qubits()
            && self.free == other.free
            && self.measurements == other.measurements
            && (self.slack.gates, self.slack.qubits, self.slack.measurements)
                == (
                    other.slack.gates,
                    other.slack.qubits,
                    other.slack.measurements,
                );
        // Ties keep the first world.
        let merge = if same_world {
            Merge::Identical
        } else if other.totals()[0] >= self.totals()[0] {
            Merge::KeptOther
        } else {
            Merge::KeptSelf
        };
        let dropped = match merge {
            Merge::KeptSelf => other,
            _ => std::mem::replace(self, other),
        };
        if merge != Merge::Identical {
            let (kept, lost) = (self.totals(), dropped.totals());
            let excess = |i: usize| lost[i].saturating_sub(kept[i]);
            self.imprecise(
                "measurement-dependent branches build different circuits: totals are the \
                 larger branch plus slack for the other",
                Slack {
                    gates: excess(0),
                    depth: excess(1),
                    qubits: excess(2),
                    measurements: excess(3),
                },
            );
        }
        for n in &dropped.notes {
            self.note(n);
        }
        self.non_clifford = non_clifford;
        merge
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qutes_frontend::parse;

    fn est(src: &str) -> ResourceEstimate {
        estimate(&parse(src).expect("test program parses"))
    }

    #[test]
    fn empty_program_is_exact_zero() {
        let e = est("int x = 1;\nprint x;\n");
        assert!(e.exact);
        assert_eq!(e.qubits, 0);
        assert_eq!(e.gates, 0);
        assert_eq!(e.measurements, 0);
    }

    #[test]
    fn bell_pair_counts() {
        let e =
            est("qubit a = |0>;\nqubit b = |0>;\nhadamard a;\ncnot a, b;\nprint a;\nprint b;\n");
        assert!(e.exact, "notes: {:?}", e.notes);
        assert_eq!(e.qubits, 2);
        // H + CX + 2 measure instructions.
        assert_eq!(e.gates, 4);
        assert_eq!(e.measurements, 2);
    }

    #[test]
    fn known_loops_unroll_exactly() {
        let e = est(
            "quint a = 3q;\nint i = 0;\nwhile (i < 3) {\n  a += 1;\n  i = i + 1;\n}\nprint a;\n",
        );
        assert!(e.exact, "notes: {:?}", e.notes);
        assert_eq!(e.qubits, 2);
        assert!(e.gates > 0);
    }

    #[test]
    fn unknown_condition_with_identical_branches_stays_exact() {
        let e = est(
            "qubit q = |+>;\nbool b = q;\nif (b) {\n  print \"yes\";\n} else {\n  print \"no\";\n}\n",
        );
        assert!(e.exact, "notes: {:?}", e.notes);
        assert_eq!(e.measurements, 1);
    }

    #[test]
    fn divergent_branches_become_upper_bounds() {
        let e = est(
            "qubit q = |+>;\nqubit t = |0>;\nbool b = q;\nif (b) {\n  not t;\n  not t;\n} else {\n}\nprint t;\n",
        );
        assert!(!e.exact);
        assert_eq!(e.gates, 1 + 2 + 2, "H, 2 X (larger branch), 2 measures");
        assert!(!e.notes.is_empty());
    }

    #[test]
    fn grover_in_is_flagged_inexact() {
        let e = est("qustring t = \"0110\"q;\nbool hit = \"11\" in t;\nprint hit;\n");
        assert!(!e.exact);
        assert!(e.notes.iter().any(|n| n.contains("BBHT")));
    }

    #[test]
    fn summary_mentions_exactness() {
        let e = est("qubit a = |1>;\nprint a;\n");
        assert!(e.summary().contains("exact"));
        assert!(e.summary().contains("1 qubit,"));
    }

    #[test]
    fn clifford_only_holds_for_ghz_style_programs() {
        let e =
            est("qubit a = |0>;\nqubit b = |0>;\nhadamard a;\ncnot a, b;\nprint a;\nprint b;\n");
        assert!(e.clifford_only, "H/CX/measure are all Clifford");
        assert!(e.summary().contains("clifford-only"), "{}", e.summary());
    }

    #[test]
    fn clifford_only_false_for_arithmetic_programs() {
        // Quint addition lowers to phase rotations — not Clifford.
        let e = est("quint a = 3q;\na += 1;\nprint a;\n");
        assert!(!e.clifford_only, "ripple adders use non-Clifford phases");
        assert!(!e.summary().contains("clifford-only"), "{}", e.summary());
    }

    #[test]
    fn clifford_only_poisoned_by_either_branch() {
        // The non-Clifford gate sits in the *smaller* (discarded) branch;
        // the merge must still poison the Clifford bit.
        let e = est(
            "qubit q = |+>;\nquint t = 0q;\nbool b = q;\nif (b) {\n  not t;\n  not t;\n  not t;\n} else {\n  t += 1;\n}\nprint t;\n",
        );
        assert!(!e.clifford_only, "notes: {:?}", e.notes);
    }

    #[test]
    fn clifford_only_false_when_estimation_gives_up() {
        // `in` search lowers via Grover/BBHT: inexact and non-Clifford.
        let e = est("qustring t = \"0110\"q;\nbool hit = \"11\" in t;\nprint hit;\n");
        assert!(!e.clifford_only);
    }

    #[test]
    fn clifford_only_survives_give_up_in_clifford_programs() {
        // The step budget trips mid-loop (gave_up = true), but every
        // construct in the program is syntactically Clifford, so the
        // classifier keeps the bit: a GHZ-style program with a long
        // classical preamble still dispatches to the tableau backend.
        let e = est("int i = 0;\nwhile (i < 10000000) {\n  i = i + 1;\n}\n\
             qubit a = |0>;\nqubit b = |0>;\nhadamard a;\ncnot a, b;\nprint a;\n");
        assert!(!e.exact, "the step budget must have tripped");
        assert!(
            e.clifford_only,
            "give-up must not poison the Clifford bit when the program \
             cannot emit non-Clifford gates; notes: {:?}",
            e.notes
        );
    }

    #[test]
    fn clifford_only_still_false_on_give_up_with_phase_gates() {
        // Same give-up shape, but a phase gate exists past the stop
        // point: the classifier must refuse to rescue the bit.
        let e = est("int i = 0;\nwhile (i < 10000000) {\n  i = i + 1;\n}\n\
             qubit q = |0>;\nphase(q, pi/4);\nprint q;\n");
        assert!(!e.exact);
        assert!(!e.clifford_only);
    }
}
