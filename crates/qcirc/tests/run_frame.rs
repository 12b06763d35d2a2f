//! Bit-exactness of the Pauli-X frame: a run applied with
//! [`apply_run`] must leave exactly the state, classical bits and RNG
//! position that applying the same gates one by one with
//! [`apply_gate_noisy`] leaves — amplitudes compared bit for bit, except
//! that `-0.0` and `+0.0` count as equal (an X applied as a matrix may
//! turn one into the other; the frame moves amplitudes untouched).
//!
//! Runs are random and X-heavy, and mix one-qubit, controlled and
//! multi-controlled gates (so controls and targets meet the frame
//! flipped), swaps, fused `Unitary`/`Unitary2`/`Unitary3` products,
//! measurement, reset, conditionals, global phases and barriers. States
//! go up to 16 qubits, above `PAR_THRESHOLD`, so the parallel kernels
//! are covered too.

// Test-support helpers sit outside `#[test]` fns, where clippy's
// `allow-unwrap-in-tests` does not reach.
#![allow(clippy::unwrap_used)]

use qutes_qcirc::execute::{apply_gate_noisy, apply_run};
use qutes_qcirc::Gate;
use qutes_sim::gates;
use qutes_sim::{Complex64, Matrix2, Matrix4, Matrix8, NoiseModel, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Qubit counts to test: tiny, mid-sized, and above the parallel
/// threshold (2^15 and 2^16 amplitudes).
const WIDTHS: [usize; 7] = [1, 2, 3, 5, 8, 15, 16];

/// `k` distinct qubits out of `0..n`, in random order.
fn distinct(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let mut qs: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.random_range(i..n);
        qs.swap(i, j);
    }
    qs.truncate(k);
    qs
}

fn angle(rng: &mut StdRng) -> f64 {
    rng.random_range(-3.0..3.0)
}

fn random_u(rng: &mut StdRng) -> Matrix2 {
    gates::u(angle(rng), angle(rng), angle(rng))
}

/// `b ⊗ a` with `a` on the low matrix index bit.
fn kron2(a: &Matrix2, b: &Matrix2) -> [[Complex64; 4]; 4] {
    let mut m = [[Complex64::ZERO; 4]; 4];
    for (r, row) in m.iter_mut().enumerate() {
        for (c, e) in row.iter_mut().enumerate() {
            *e = a.m[r & 1][c & 1] * b.m[r >> 1][c >> 1];
        }
    }
    m
}

fn random_u2(rng: &mut StdRng) -> Matrix4 {
    Matrix4::new(kron2(&random_u(rng), &random_u(rng)))
}

fn random_u3(rng: &mut StdRng) -> Matrix8 {
    let low = kron2(&random_u(rng), &random_u(rng));
    let high = random_u(rng);
    let mut m = Matrix8::identity();
    for (r, row) in m.m.iter_mut().enumerate() {
        for (c, e) in row.iter_mut().enumerate() {
            *e = low[r & 3][c & 3] * high.m[r >> 2][c >> 2];
        }
    }
    m
}

/// One random instruction on `n` qubits and `n` classical bits. About
/// 40% are X gates, so most other gates meet flipped wires.
fn random_gate(rng: &mut StdRng, n: usize) -> Gate {
    let q = rng.random_range(0..n);
    let roll = rng.random_range(0..100u32);
    match roll {
        0..=39 => Gate::X(q),
        40..=47 => match rng.random_range(0..6u32) {
            0 => Gate::H(q),
            1 => Gate::Y(q),
            2 => Gate::Z(q),
            3 => Gate::T(q),
            4 => Gate::RY {
                target: q,
                theta: angle(rng),
            },
            _ => Gate::Phase {
                target: q,
                lambda: angle(rng),
            },
        },
        48..=52 => Gate::Unitary {
            target: q,
            matrix: random_u(rng),
        },
        53..=74 if n >= 2 => {
            let k = rng.random_range(2..=n.min(5));
            let mut qs = distinct(rng, n, k);
            let target = qs.pop().unwrap();
            match (qs.len(), rng.random_range(0..4u32)) {
                (1, 0) => Gate::CX {
                    control: qs[0],
                    target,
                },
                (1, 1) => Gate::CY {
                    control: qs[0],
                    target,
                },
                (1, 2) => Gate::CZ {
                    control: qs[0],
                    target,
                },
                (1, _) => Gate::CPhase {
                    control: qs[0],
                    target,
                    lambda: angle(rng),
                },
                (2, 0) => Gate::CCX {
                    c0: qs[0],
                    c1: qs[1],
                    target,
                },
                (_, 1 | 3) => Gate::MCPhase {
                    controls: qs,
                    target,
                    lambda: angle(rng),
                },
                _ => Gate::MCX {
                    controls: qs,
                    target,
                },
            }
        }
        75..=79 if n >= 2 => {
            let qs = distinct(rng, n, 2);
            if n >= 3 && rng.random::<bool>() {
                let c = distinct(rng, n, 3);
                Gate::CSwap {
                    control: c[0],
                    a: c[1],
                    b: c[2],
                }
            } else {
                Gate::Swap { a: qs[0], b: qs[1] }
            }
        }
        80..=84 if n >= 2 => {
            if n >= 3 && rng.random::<bool>() {
                let qs = distinct(rng, n, 3);
                Gate::Unitary3 {
                    q0: qs[0],
                    q1: qs[1],
                    q2: qs[2],
                    matrix: Box::new(random_u3(rng)),
                }
            } else {
                let qs = distinct(rng, n, 2);
                Gate::Unitary2 {
                    q0: qs[0],
                    q1: qs[1],
                    matrix: Box::new(random_u2(rng)),
                }
            }
        }
        85..=89 => Gate::Measure {
            qubit: q,
            clbit: rng.random_range(0..n),
        },
        90..=92 => Gate::Reset(q),
        93..=96 => Gate::Conditional {
            clbit: rng.random_range(0..n),
            value: rng.random::<bool>(),
            gate: Box::new(if rng.random::<bool>() {
                Gate::X(q)
            } else {
                Gate::H(q)
            }),
        },
        97 => Gate::GlobalPhase(angle(rng)),
        98 => Gate::Barrier(vec![q]),
        _ => Gate::X(q),
    }
}

/// A state with distinct amplitudes everywhere, so a misplaced one shows.
fn scrambled(n: usize, rng: &mut StdRng) -> StateVector {
    let mut sv = StateVector::new(n).unwrap();
    for q in 0..n {
        sv.apply_single(&random_u(rng), q).unwrap();
    }
    for q in 1..n {
        sv.apply_controlled(&gates::t(), &[q - 1], q).unwrap();
    }
    sv
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0)
}

/// Applies `run` both ways from the same start and checks the results
/// are identical.
fn check_run(n: usize, seed: u64, run: &[Gate], noise: Option<&NoiseModel>) {
    let mut setup = StdRng::seed_from_u64(seed ^ 0x5eed);
    let start = scrambled(n, &mut setup);
    let clbits0: Vec<bool> = (0..n).map(|_| setup.random::<bool>()).collect();

    let mut framed = start.clone();
    let mut framed_bits = clbits0.clone();
    let mut framed_rng = StdRng::seed_from_u64(seed);
    let framed_result = apply_run(&mut framed, &mut framed_bits, run, &mut framed_rng, noise);

    let mut plain = start;
    let mut plain_bits = clbits0;
    let mut plain_rng = StdRng::seed_from_u64(seed);
    let plain_result = run
        .iter()
        .try_for_each(|g| apply_gate_noisy(&mut plain, &mut plain_bits, g, &mut plain_rng, noise));

    let ctx = format!("n {n}, seed {seed}, noise {}", noise.is_some());
    assert_eq!(
        framed_result.as_ref().err().map(ToString::to_string),
        plain_result.as_ref().err().map(ToString::to_string),
        "{ctx}: results differ"
    );
    if plain_result.is_err() {
        return;
    }
    for (i, (a, b)) in framed
        .amplitudes()
        .iter()
        .zip(plain.amplitudes())
        .enumerate()
    {
        assert!(
            same_bits(a.re, b.re) && same_bits(a.im, b.im),
            "{ctx}: amplitude {i} differs: {a:?} vs {b:?}"
        );
    }
    assert_eq!(framed_bits, plain_bits, "{ctx}: classical bits differ");
    assert_eq!(
        framed_rng.random::<u64>(),
        plain_rng.random::<u64>(),
        "{ctx}: RNG streams diverged"
    );
}

fn check_random_runs(noise: Option<&NoiseModel>) {
    for (w, &n) in WIDTHS.iter().enumerate() {
        // Fewer, shorter runs on the widest states keep debug builds quick.
        let (cases, len) = if n >= 15 { (3, 40) } else { (40, 60) };
        for case in 0..cases {
            let seed = (w * 1000 + case) as u64;
            let mut gen = StdRng::seed_from_u64(seed);
            let run: Vec<Gate> = (0..len).map(|_| random_gate(&mut gen, n)).collect();
            check_run(n, seed, &run, noise);
        }
    }
}

#[test]
fn noiseless_runs_match_gate_by_gate() {
    check_random_runs(None);
}

#[test]
fn depolarizing_and_readout_runs_match_gate_by_gate() {
    let nm = NoiseModel::depolarizing(0.05).with_readout_error(0.05);
    check_random_runs(Some(&nm));
}

#[test]
fn every_noise_channel_settles_before_touching_the_state() {
    // Bit and phase flips and amplitude damping as well, so every fault
    // site (and damping's state read) meets a non-empty frame.
    let nm = NoiseModel::depolarizing(0.05)
        .with_bit_flip(0.05)
        .with_phase_flip(0.05)
        .with_amplitude_damping(0.05)
        .with_readout_error(0.05);
    check_random_runs(Some(&nm));
}

#[test]
fn x_conjugated_runs_leave_no_frame_and_errors_match() {
    // An oracle-shaped run ends with an empty frame; a run that fails
    // midway still reports the gate-by-gate error.
    let n = 6;
    let mut run = vec![Gate::X(0), Gate::X(3)];
    run.push(Gate::MCPhase {
        controls: vec![0, 1, 2, 3, 4],
        target: 5,
        lambda: std::f64::consts::PI,
    });
    run.extend([Gate::X(3), Gate::X(0), Gate::H(2)]);
    check_run(n, 7, &run, None);
    let failing = [Gate::X(1), Gate::X(n), Gate::H(0)];
    check_run(n, 8, &failing, None);
    let bad_clbit = [
        Gate::X(2),
        Gate::Measure {
            qubit: 2,
            clbit: n + 4,
        },
    ];
    check_run(n, 9, &bad_clbit, None);
}
