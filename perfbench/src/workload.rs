//! Seeded job streams for the three workloads. Every job carries an
//! independent reference for its output: arithmetic, `str::contains`,
//! closed forms, or the hand-written annotations of the shipped
//! examples, never a value computed by the compiler under test.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Workload names, in the order `--self-test` checks them.
pub const WORKLOADS: [&str; 3] = ["frontdoor", "dense", "shots"];

/// Depolarizing rate of the noisy `shots` jobs (the CLI's `--noise P`).
pub const NOISE: f64 = 0.002;

/// SplitMix64: the benchmark's own generator, so the job stream does
/// not move when the program's RNG changes.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    pub fn bits(&mut self, n: usize) -> String {
        (0..n)
            .map(|_| if self.coin() { '1' } else { '0' })
            .collect()
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            v.swap(i, j);
        }
    }
}

/// What the printed lines must be.
#[derive(Clone, Debug, PartialEq)]
pub enum Lines {
    Exact(Vec<String>),
    /// `print sum; print a; print b;` of `quint sum = a + b` with `a`
    /// drawn from `choices` and `b` a basis literal.
    Adder {
        choices: [u64; 2],
        b: u64,
    },
    /// `n` printed qubits of one entangled group: all `true` or all `false`.
    SameBools(usize),
    /// One printed register of `width` equal bits.
    UniformBits(usize),
}

/// What every histogram key must satisfy (clbit `k` is bit `k` of a key).
#[derive(Clone, Debug, PartialEq)]
pub enum Keys {
    /// No key-level reference: only the shot total is checked.
    Any,
    /// Every clbit of the key is equal.
    AllEqual,
    Equals(u64),
    /// Clbits hold `sum`, then `a` (`wa` bits), then `b` (`wb` bits).
    Adder {
        wa: usize,
        wb: usize,
        choices: [u64; 2],
        b: u64,
    },
}

#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    pub id: usize,
    /// Place in the block's make-up before the shuffle: the same job
    /// kind, width and shot count in every block.
    pub slot: usize,
    /// `<template>` or `<template>*` for the unmodified shipped example.
    pub name: String,
    pub source: String,
    pub shots: usize,
    pub noisy: bool,
    /// Export the run's circuit with `to_qasm3` after the run.
    pub export: bool,
    pub lines: Lines,
    pub keys: Keys,
}

impl Job {
    pub fn shipped(&self) -> bool {
        self.name.ends_with('*')
    }
}

/// A histogram in a form that compares bit for bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    pub clbits: usize,
    pub shots: usize,
    /// `(key, count)` sorted by key.
    pub pairs: Vec<(usize, usize)>,
}

impl Histogram {
    pub fn from_counts(c: &qutes::qcirc::Counts) -> Self {
        let mut pairs: Vec<(usize, usize)> = c.iter().collect();
        pairs.sort_unstable();
        Histogram {
            clbits: c.num_clbits(),
            shots: c.shots(),
            pairs,
        }
    }
}

/// The shipped example sources, keyed by file stem.
pub type Examples = BTreeMap<String, String>;

pub fn load_examples(root: &Path) -> Result<Examples, String> {
    let dir = root.join("examples/programs");
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Examples::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "qut") {
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| format!("bad example name {}", path.display()))?
                .to_string();
            let src =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            out.insert(stem, src);
        }
    }
    Ok(out)
}

/// Generates block `block` of the job stream of `workload` for `seed`.
/// Every block has the same make-up (templates, widths, shot counts)
/// with fresh literals and texts, so a run that consumes more blocks
/// averages over more independent draws. The program sees only the
/// sources: every job runs with the default `RunConfig` seed, as
/// `qutes run` does.
pub fn generate(workload: &str, seed: u64, block: u64, ex: &Examples) -> Result<Vec<Job>, String> {
    let mut rng = Rng::new(seed ^ fnv(workload));
    for _ in 0..block {
        rng = Rng::new(rng.next_u64());
    }
    let mut jobs = match workload {
        "frontdoor" => frontdoor(&mut rng, ex)?,
        "dense" => dense(&mut rng, ex)?,
        "shots" => shots(&mut rng, ex)?,
        other => return Err(format!("unknown workload '{other}'")),
    };
    for (i, j) in jobs.iter_mut().enumerate() {
        j.slot = i;
    }
    rng.shuffle(&mut jobs);
    for (i, j) in jobs.iter_mut().enumerate() {
        j.id = i;
    }
    Ok(jobs)
}

fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Seed-independent jobs run once per set-up, next to the shipped jobs
/// of block 0, so the allocator and caches have seen the widest state
/// before timing starts.
pub fn warmup(workload: &str) -> Vec<Job> {
    match workload {
        "dense" => vec![quarter_search(&mut Rng::new(0), 16, 12, 0)],
        _ => Vec::new(),
    }
}

/// A job before the stream assigns its id.
fn job(name: &str, source: String, lines: Lines, keys: Keys) -> Job {
    Job {
        id: 0,
        slot: 0,
        name: name.to_string(),
        source,
        shots: 0,
        noisy: false,
        export: false,
        lines,
        keys,
    }
}

fn shipped(ex: &Examples, stem: &str, lines: Lines, keys: Keys) -> Result<Job, String> {
    let src = ex
        .get(stem)
        .ok_or_else(|| format!("examples/programs/{stem}.qut is missing"))?;
    Ok(job(&format!("{stem}*"), src.clone(), lines, keys))
}

/// The shipped examples with the outputs their comments and the paper
/// promise. `language_tour` is the dense workload's.
fn shipped_small(ex: &Examples) -> Result<Vec<Job>, String> {
    let db = [14, 2, 8, 27, 30, 11, 4, 19];
    Ok(vec![
        shipped(
            ex,
            "adder",
            Lines::Adder {
                choices: [1, 2],
                b: 3,
            },
            adder_keys([1, 2], 3),
        )?,
        shipped(ex, "bell", Lines::SameBools(2), Keys::AllEqual)?,
        shipped(ex, "bernstein_vazirani", exact(&["5"]), Keys::Equals(0b101))?,
        shipped(
            ex,
            "cyclic_shift",
            exact_u64(&[rotate(9, 1, true)]),
            Keys::Equals(rotate(9, 1, true)),
        )?,
        shipped(ex, "deutsch_jozsa", exact(&["balanced"]), Keys::Equals(1))?,
        shipped(ex, "entanglement", Lines::SameBools(2), Keys::AllEqual)?,
        shipped(ex, "fib", fib_lines(10), Keys::Any)?,
        shipped(ex, "ghz_100", Lines::UniformBits(100), Keys::AllEqual)?,
        shipped(ex, "grover", search_lines("0110100", "101"), Keys::Any)?,
        shipped(ex, "minmax", minmax_lines(&db, 3, 5), Keys::Any)?,
        shipped(ex, "teleport", exact(&["true"]), Keys::Any)?,
    ])
}

fn exact(lines: &[&str]) -> Lines {
    Lines::Exact(lines.iter().map(|s| s.to_string()).collect())
}

fn exact_u64(values: &[u64]) -> Lines {
    Lines::Exact(values.iter().map(|v| v.to_string()).collect())
}

/// Width of a quint literal: the bits of its value, at least one.
fn width(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).max(1)
}

fn adder_keys(choices: [u64; 2], b: u64) -> Keys {
    Keys::Adder {
        wa: width(choices[0].max(choices[1])),
        wb: width(b),
        choices,
        b,
    }
}

/// Cyclic rotation of a `width(v)`-bit register, by the qubit-index
/// definition: `<<= k` moves bit `i + k` to bit `i`, `>>= k` moves bit
/// `i - k` to bit `i` (indices modulo the width).
fn rotate(v: u64, k: usize, left: bool) -> u64 {
    let w = width(v);
    let k = k % w;
    let s = if left { k } else { (w - k) % w };
    let mask = if w == 64 { u64::MAX } else { (1 << w) - 1 };
    ((v >> s) | (v << ((w - s) % w))) & mask
}

/// Fibonacci numbers by Binet's closed form (exact in f64 far past n = 20).
fn fib(n: u32) -> u64 {
    let s5 = 5f64.sqrt();
    (((1.0 + s5) / 2.0).powi(n as i32) / s5).round() as u64
}

fn fib_lines(n: u32) -> Lines {
    exact_u64(&(0..n).map(fib).collect::<Vec<_>>())
}

fn search_lines(text: &str, pat: &str) -> Lines {
    exact(&[if text.contains(pat) {
        "found"
    } else {
        "missing"
    }])
}

fn minmax_lines(db: &[u64], a: u64, k: u64) -> Lines {
    let min = db.iter().min().copied().unwrap_or(0);
    let max = db.iter().max().copied().unwrap_or(0);
    exact_u64(&[min, max, a * k])
}

/// The expected lines of `language_tour.qut`, read from the hand-written
/// `// value` annotation on each annotated `print` line.
fn tour_lines(src: &str) -> Lines {
    let mut out = Vec::new();
    for line in src.lines() {
        let t = line.trim_start();
        if !t.starts_with("print ") {
            continue;
        }
        if let Some((_, comment)) = t.split_once("//") {
            if let Some(first) = comment.split_whitespace().next() {
                out.push(first.to_string());
            }
        }
    }
    Lines::Exact(out)
}

// ---- program builders --------------------------------------------------

fn adder(x: u64, y: u64, b: u64) -> Job {
    let src = format!(
        "quint a = [{x}, {y}]q;\nquint b = {b}q;\nquint sum = a + b;\nprint sum;\nprint a;\nprint b;\n"
    );
    job(
        "adder",
        src,
        Lines::Adder { choices: [x, y], b },
        adder_keys([x, y], b),
    )
}

fn bell(swap: bool) -> Job {
    let (c, t) = if swap { ("b", "a") } else { ("a", "b") };
    let src = format!(
        "qubit a = |0>;\nqubit b = |0>;\nhadamard {c};\ncnot {c}, {t};\nprint {t};\nprint {c};\n"
    );
    job("bell", src, Lines::SameBools(2), Keys::AllEqual)
}

/// A `w`-qubit quint register reset to zero.
fn zero_register(name: &str, w: usize) -> String {
    let all = (1u64 << w) - 1;
    format!("quint {name} = {all}q;\n{name} -= {all};\n")
}

fn bernstein_vazirani(w: usize, mask: u64) -> Job {
    let mut src = zero_register("x", w);
    src += "qubit y = |->;\nhadamard x;\n";
    for i in (0..w).filter(|i| mask >> i & 1 == 1) {
        let _ = writeln!(src, "cnot x[{i}], y;");
    }
    src += "hadamard x;\nprint x;\n";
    job(
        "bernstein_vazirani",
        src,
        exact_u64(&[mask]),
        Keys::Equals(mask),
    )
}

fn cyclic_shift(v: u64, k: usize, left: bool) -> Job {
    let op = if left { "<<=" } else { ">>=" };
    let src = format!("quint reg = {v}q;\nreg {op} {k};\nprint reg;\n");
    let r = rotate(v, k, left);
    job("cyclic_shift", src, exact_u64(&[r]), Keys::Equals(r))
}

/// Deutsch-Jozsa on a `w`-qubit input with the linear oracle
/// `f(x) = mask . x` (constant when `mask == 0`, then optionally
/// complemented by an X on the target).
fn deutsch_jozsa(w: usize, mask: u64, flip: bool) -> Job {
    let mut src = zero_register("x", w);
    src += "qubit y = |->;\nhadamard x;\n";
    for i in (0..w).filter(|i| mask >> i & 1 == 1) {
        let _ = writeln!(src, "cnot x[{i}], y;");
    }
    if flip {
        src += "not y;\n";
    }
    src += "hadamard x;\nif (x == 0) { print \"constant\"; } else { print \"balanced\"; }\n";
    let verdict = if mask == 0 { "constant" } else { "balanced" };
    job("deutsch_jozsa", src, exact(&[verdict]), Keys::Equals(mask))
}

fn entanglement(k: usize) -> Job {
    let mut src = String::new();
    for i in 0..k {
        let _ = writeln!(src, "qubit q{i} = |0>;");
    }
    src += "hadamard q0;\n";
    for i in 1..k {
        let _ = writeln!(src, "cnot q{}, q{i};", i - 1);
    }
    let _ = write!(src, "print q0;\nprint q{};\n", k - 1);
    job("entanglement", src, Lines::SameBools(2), Keys::AllEqual)
}

fn fib_program(n: u32) -> Job {
    let src = format!(
        "int fib(int n) {{\n    if (n < 2) {{ return n; }}\n    return fib(n - 1) + fib(n - 2);\n}}\nforeach i in range({n}) {{\n    print fib(i);\n}}\n"
    );
    job("fib", src, fib_lines(n), Keys::Any)
}

fn ghz(n: usize) -> Job {
    let zeros = "0".repeat(n);
    let src = format!(
        "qustring g = \"{zeros}\"q;\nhadamard g[0];\nint i = 0;\nwhile (i < {}) {{\n    cnot g[i], g[i + 1];\n    i += 1;\n}}\nprint g;\n",
        n - 1
    );
    job("ghz", src, Lines::UniformBits(n), Keys::AllEqual)
}

fn search(text: &str, pat: &str) -> Job {
    let src = format!(
        "qustring text = \"{text}\"q;\nif (\"{pat}\" in text) {{\n    print \"found\";\n}} else {{\n    print \"missing\";\n}}\n"
    );
    job("search", src, search_lines(text, pat), Keys::Any)
}

fn minmax(db: &[u64], a: u64, k: u64) -> Job {
    let items: Vec<String> = db.iter().map(|v| v.to_string()).collect();
    let src = format!(
        "int[] db = [{}];\nprint qmin(db);\nprint qmax(db);\nquint a = {a}q;\nquint p = a * {k};\nprint p;\n",
        items.join(", ")
    );
    job("minmax", src, minmax_lines(db, a, k), Keys::Any)
}

fn teleport(one: bool) -> Job {
    let state = if one { "|1>" } else { "|0>" };
    let src = format!(
        "qubit message = {state};\nqubit alice = |0>;\nqubit bob = |0>;\nhadamard alice;\ncnot alice, bob;\ncnot message, alice;\nhadamard message;\nbool phase_bit = message;\nbool flip_bit = alice;\nif (flip_bit) {{ not bob; }}\nif (phase_bit) {{ pauliz bob; }}\nprint bob;\n"
    );
    job(
        "teleport",
        src,
        exact(&[if one { "true" } else { "false" }]),
        Keys::Any,
    )
}

/// A text of `len` random bits that contains `pat` (present) or not.
fn text_for(rng: &mut Rng, len: usize, pat: &str, present: bool) -> String {
    loop {
        let text = rng.bits(len);
        if text.contains(pat) == present {
            return text;
        }
    }
}

/// `n` bits of which exactly `ones` are 1, in a random order.
fn weighted_bits(rng: &mut Rng, n: usize, ones: usize) -> String {
    let mut b: Vec<char> = (0..n).map(|i| if i < ones { '1' } else { '0' }).collect();
    rng.shuffle(&mut b);
    b.into_iter().collect()
}

/// A present pattern matching exactly a quarter of the text's windows,
/// at the fixed starts `offset + i * step` (`slot` picks the first or the
/// last offset that fits), with `plen / 2` ones in the pattern.
///
/// The job's cost is then a function of its width and slot alone, not
/// of the drawn bits: the position register sees the same marked set in
/// every draw, so with the program's fixed seed BBHT takes the same
/// rounds and measures the same candidates, and the oracle has the same
/// number of X conjugations. At a quarter occupancy one Grover iteration
/// finds a match with certainty, so BBHT stops within a few rounds.
/// `positions` is 4, 8 or 12.
fn quarter_search(rng: &mut Rng, len: usize, positions: usize, slot: usize) -> Job {
    let plen = len + 1 - positions;
    let hits = positions / 4;
    let step = plen.max(4);
    let last = positions - 1 - (hits - 1) * step;
    let offset = if slot == 0 { 0 } else { last };
    let starts: Vec<usize> = (0..hits).map(|i| offset + i * step).collect();
    loop {
        let pat = weighted_bits(rng, plen, plen / 2);
        let mut text = rng.bits(len).into_bytes();
        for &at in &starts {
            text[at..at + plen].copy_from_slice(pat.as_bytes());
        }
        let text = String::from_utf8(text).expect("bits are ASCII");
        let found: Vec<usize> = (0..positions)
            .filter(|&i| text[i..i + plen] == pat)
            .collect();
        if found == starts {
            return search(&text, &pat);
        }
    }
}

/// An absent pattern with `plen / 2` ones: every BBHT round runs, and
/// the oracle's X conjugations do not depend on the draw.
fn absent_search(rng: &mut Rng, len: usize, plen: usize) -> Job {
    let pat = weighted_bits(rng, plen, plen / 2);
    let text = text_for(rng, len, &pat, false);
    search(&text, &pat)
}

fn distinct_pair(rng: &mut Rng, lo: u64, hi: u64) -> (u64, u64) {
    let x = rng.range(lo, hi);
    let mut y = rng.range(lo, hi);
    while y == x {
        y = rng.range(lo, hi);
    }
    (x, y)
}

/// One seeded variant of each small template, at most 11 dense qubits.
fn small_variants(rng: &mut Rng) -> Vec<Job> {
    let (x, y) = distinct_pair(rng, 0, 3);
    let w_bv = rng.range(2, 5) as usize;
    let w_dj = rng.range(1, 3) as usize;
    let v = rng.range(2, 255);
    let k = rng.range(1, width(v) as u64) as usize;
    let dj_mask = if rng.coin() {
        0
    } else {
        rng.range(1, (1 << w_dj) - 1)
    };
    let text_len = rng.range(5, 8) as usize;
    // An absent pattern runs every BBHT round; at most 4 windows keep
    // it at 8 qubits, so simulation stays small next to the front half.
    let absent_len = rng.range(5, 6) as usize;
    let plen = absent_len - rng.range(2, 3) as usize;
    let db: Vec<u64> = (0..8).map(|_| rng.range(0, 31)).collect();
    vec![
        adder(x, y, rng.range(1, 3)),
        bell(rng.coin()),
        bernstein_vazirani(w_bv, rng.range(1, (1 << w_bv) - 1)),
        cyclic_shift(v, k, rng.coin()),
        deutsch_jozsa(w_dj, dj_mask, rng.coin()),
        entanglement(rng.range(3, 8) as usize),
        fib_program(rng.range(8, 12) as u32),
        ghz(rng.range(50, 100) as usize),
        if rng.coin() {
            let slot = rng.range(0, 1) as usize;
            quarter_search(rng, text_len, 4, slot)
        } else {
            absent_search(rng, absent_len, plen)
        },
        minmax(&db, rng.range(1, 3), rng.range(2, 5)),
        teleport(rng.coin()),
    ]
}

/// Variants per template in a `frontdoor` block, next to the shipped
/// example.
const FRONTDOOR_VARIANTS: usize = 350;

fn frontdoor(rng: &mut Rng, ex: &Examples) -> Result<Vec<Job>, String> {
    let mut jobs = shipped_small(ex)?;
    for _ in 0..FRONTDOOR_VARIANTS {
        jobs.extend(small_variants(rng));
    }
    // One deep recursion (~13,000 calls, run by the estimator and again
    // by the interpreter, 20-40 ms) is the slowest job of every block. At
    // 20-40 blocks a run, the tail percentile falls near the middle of
    // these rather than on host stalls among ~100,000 sub-millisecond
    // jobs, and near their middle it moves little with the share of the
    // run the host gave at full speed.
    jobs.push(fib_program(19));
    for j in &mut jobs {
        j.export = true;
    }
    Ok(jobs)
}

fn dense(rng: &mut Rng, ex: &Examples) -> Result<Vec<Job>, String> {
    let tour = ex
        .get("language_tour")
        .ok_or("examples/programs/language_tour.qut is missing")?;
    let mut jobs = vec![job(
        "language_tour*",
        tour.clone(),
        tour_lines(tour),
        Keys::Any,
    )];
    // Present patterns at every width from 13 to 20 qubits: the text
    // plus a 3-qubit (8 windows) or 4-qubit (12 windows) position register.
    for qubits in 13..=20 {
        let positions = if qubits <= 16 { 8 } else { 12 };
        let pos_bits = if qubits <= 16 { 3 } else { 4 };
        for slot in 0..2 {
            jobs.push(quarter_search(rng, qubits - pos_bits, positions, slot));
        }
    }
    // Absent patterns run every BBHT round, so they stay at 13-14 qubits,
    // with 8 windows: every measured position is a valid window, so every
    // round draws the same randomness and the cost is set by the width.
    // Six 13-qubit ones sit between the cheap (13-16 qubit) and the dear
    // (17-20 qubit) present searches, so the median job falls inside one
    // group of like jobs instead of on the gap between two.
    for (len, plen) in [
        (10, 3),
        (10, 3),
        (10, 3),
        (10, 3),
        (10, 3),
        (10, 3),
        (11, 4),
        (11, 4),
    ] {
        jobs.push(absent_search(rng, len, plen));
    }
    Ok(jobs)
}

fn shots(rng: &mut Rng, ex: &Examples) -> Result<Vec<Job>, String> {
    let all = shipped_small(ex)?;
    let pick = |stem: &str| {
        all.iter()
            .find(|j| j.name.trim_end_matches('*') == stem)
            .cloned()
            .ok_or_else(|| format!("no shipped job {stem}"))
    };
    // Noisy per-shot trajectories: shipped examples with a histogram
    // reference, plus four rounds of same-sized variants. A block sorts
    // by cost into 15 cheaper jobs, 33 3-qubit Bernstein-Vazirani
    // trajectories of equal cost (two-bit masks: the same CNOTs in every
    // draw) and 8 dearer jobs, so the median job of a block is in the
    // middle of a group of like jobs rather than between unlike ones.
    let mut noisy = vec![
        pick("bell")?,
        pick("entanglement")?,
        pick("bernstein_vazirani")?,
    ];
    // Noise-free per-shot replays (mid-circuit measurements).
    let mut clean = vec![pick("grover")?, pick("teleport")?];
    for round in 0..4 {
        noisy.extend([
            bell(rng.coin()),
            cyclic_shift(rng.range(8, 15), 1, rng.coin()),
            deutsch_jozsa(1, rng.range(0, 1), rng.coin()),
        ]);
        for _ in 0..8 {
            noisy.push(bernstein_vazirani(3, [3, 5, 6][rng.range(0, 2) as usize]));
        }
        clean.push(quarter_search(rng, 7, 4, round % 2));
    }
    for j in noisy.iter_mut().chain(&mut clean) {
        j.shots = 1024;
    }
    for j in &mut noisy {
        j.noisy = true;
    }
    // The noisy adder at 4096 shots is the slowest job of every block,
    // about a third of its time. At 20-45 blocks a run, the tail
    // percentile falls near the middle of these, where it moves little
    // with the share of the run the host gave at full speed.
    let mut heavy = pick("adder")?;
    heavy.noisy = true;
    heavy.shots = 4096;
    noisy.push(heavy);
    // Batched tableau sampling at two fixed widths, so the block's cost
    // does not follow the draw. Histogram keys are 64-bit and the tableau
    // refuses to histogram 64 or more measured qubits.
    for n in [32, 63] {
        let mut g = ghz(n);
        g.shots = 100_000;
        clean.push(g);
    }
    noisy.extend(clean);
    Ok(noisy)
}

// ---- checks ---------------------------------------------------------------

fn bit_count_ok(line: &str, n: usize) -> bool {
    line.len() == n && line.bytes().all(|b| b == b'0' || b == b'1')
}

/// Checks the printed lines against the job's reference. A noisy job's
/// printed lines come from one noisy trajectory, so only their count is
/// checked; its histogram carries the reference instead.
pub fn check_lines(job: &Job, out: &[String]) -> Result<(), String> {
    let want_len = match &job.lines {
        Lines::Exact(v) => v.len(),
        Lines::Adder { .. } => 3,
        Lines::SameBools(n) => *n,
        Lines::UniformBits(_) => 1,
    };
    if out.len() != want_len {
        return Err(format!(
            "printed {} lines, expected {want_len}: {out:?}",
            out.len()
        ));
    }
    if job.noisy {
        return Ok(());
    }
    let ok = match &job.lines {
        Lines::Exact(v) => out == v.as_slice(),
        Lines::Adder { choices, b } => {
            let n: Vec<Option<u64>> = out.iter().map(|s| s.parse().ok()).collect();
            match (n[0], n[1], n[2]) {
                (Some(sum), Some(a), Some(bb)) => choices.contains(&a) && bb == *b && sum == a + bb,
                _ => false,
            }
        }
        Lines::SameBools(_) => {
            (out[0] == "true" || out[0] == "false") && out.iter().all(|l| *l == out[0])
        }
        Lines::UniformBits(n) => {
            bit_count_ok(&out[0], *n) && out[0].bytes().all(|b| b == out[0].as_bytes()[0])
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!("printed {out:?}, reference {:?}", job.lines))
    }
}

fn key_ok(keys: &Keys, clbits: usize, key: usize) -> bool {
    let key = key as u64;
    match keys {
        Keys::Any => true,
        Keys::AllEqual => {
            let full = if clbits >= 64 {
                u64::MAX
            } else {
                (1 << clbits) - 1
            };
            key == 0 || key == full
        }
        Keys::Equals(v) => key == *v,
        Keys::Adder { wa, wb, choices, b } => {
            let Some(ws) = clbits.checked_sub(wa + wb).filter(|&w| w > 0) else {
                return false;
            };
            let sum = key & ((1 << ws) - 1);
            let a = (key >> ws) & ((1 << wa) - 1);
            let bb = key >> (ws + wa);
            choices.contains(&a) && bb == *b && sum == a + bb
        }
    }
}

/// Checks a histogram: the shot total, and every key against the
/// reference (a noisy job needs only a majority of its shots on
/// reference keys).
pub fn check_histogram(job: &Job, h: Option<&Histogram>) -> Result<(), String> {
    if job.shots == 0 {
        return match h {
            None => Ok(()),
            Some(_) => Err("histogram returned for a 0-shot job".into()),
        };
    }
    let h = h.ok_or("no histogram returned")?;
    let total: usize = h.pairs.iter().map(|p| p.1).sum();
    if h.shots != job.shots || total != job.shots {
        return Err(format!("histogram holds {total} of {} shots", job.shots));
    }
    let good: usize = h
        .pairs
        .iter()
        .filter(|(k, _)| key_ok(&job.keys, h.clbits, *k))
        .map(|p| p.1)
        .sum();
    let ok = if job.noisy {
        2 * good > total
    } else {
        good == total
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{good} of {total} shots on reference keys ({:?}, {} clbits)",
            job.keys, h.clbits
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_forms_match_definitions() {
        let mut a = (0u64, 1u64);
        for n in 0..40 {
            assert_eq!(fib(n), a.0, "fib({n})");
            a = (a.1, a.0 + a.1);
        }
        // 9 = 1001: `<<= 1` gives 1100, `>>= 1` of 13 = 1101 gives 1011.
        assert_eq!(rotate(9, 1, true), 12);
        assert_eq!(rotate(13, 1, false), 11);
        for v in 1..300u64 {
            let w = width(v);
            for k in 0..w {
                for i in 0..w {
                    assert_eq!(rotate(v, k, true) >> i & 1, v >> ((i + k) % w) & 1);
                    assert_eq!(rotate(v, k, false) >> i & 1, v >> ((i + w - k) % w) & 1);
                }
            }
        }
    }

    #[test]
    fn adder_keys_decode_sum_a_b() {
        // [0, 3]q + 1q: keys 111100 (sum 4, a 3, b 1) and 100001 (1, 0, 1).
        let k = adder_keys([0, 3], 1);
        assert!(key_ok(&k, 6, 0b111100));
        assert!(key_ok(&k, 6, 0b100001));
        assert!(!key_ok(&k, 6, 0b100010));
    }

    #[test]
    fn tour_annotations_are_read_in_print_order() {
        let src = "print 1 + 1;   // 2\nif (x) {\n    print \"a\";  // a (note)\n}\nprint 3;\n";
        assert_eq!(tour_lines(src), exact(&["2", "a"]));
    }

    /// The windows a search job's pattern matches, and its pattern.
    fn matches(job: &Job, positions: usize) -> (Vec<usize>, String) {
        let quoted: Vec<&str> = job.source.split('"').collect();
        let (text, pat) = (quoted[1], quoted[3]);
        let plen = pat.len();
        let found = (0..positions)
            .filter(|&i| text.get(i..i + plen) == Some(pat))
            .collect();
        (found, pat.to_string())
    }

    #[test]
    fn present_searches_match_the_same_windows_in_every_draw() {
        for (len, positions) in [(7, 4), (10, 8), (13, 8), (13, 12), (16, 12)] {
            for slot in 0..2 {
                let first = matches(
                    &quarter_search(&mut Rng::new(1), len, positions, slot),
                    positions,
                );
                for seed in 2..20 {
                    let (found, pat) = matches(
                        &quarter_search(&mut Rng::new(seed), len, positions, slot),
                        positions,
                    );
                    assert_eq!(found, first.0, "len {len}, slot {slot}, seed {seed}");
                    assert_eq!(found.len() * 4, positions);
                    assert_eq!(pat.bytes().filter(|&b| b == b'1').count(), pat.len() / 2);
                }
            }
        }
    }

    #[test]
    fn generator_is_a_function_of_the_seed() {
        let mut r = Rng::new(5);
        let a: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        let mut r = Rng::new(5);
        let b: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_eq!(a, b);
        let mut r = Rng::new(6);
        assert_ne!(a[0], r.next_u64());
    }
}
