#!/usr/bin/env bash
# Bench regression gate (see docs/performance.md).
#
# Compares freshly generated bench artifacts (crates/bench/BENCH_*.json,
# written by `cargo bench -p qutes-bench -- --test`) against the
# committed baselines in bench/baselines/.
#
# Deterministic facts FAIL on any mismatch:
#   * the set of benchmark names per group,
#   * counters in the attached obs snapshot that are machine-independent
#     (gate.*, opt.*, sim.*, noise.*, backend.*, shots.*, and kernel.*
#     except the machine-dependent kernel.dispatch.* split). The kernel
#     work counters are among them: kernel.amps_touched (amplitudes the
#     gate kernels read and write) and kernel.frame_x (X gates the Pauli-X
#     frame absorbed instead of sweeping), so a change in algorithmic cost
#     fails here exactly.
#
# Timing facts (timer mean_ns in the obs snapshot) only WARN when they
# drift more than 25% in either direction — CI runners are too noisy to
# gate on wall time, but the drift is worth a line in the log.
#
# To refresh the baselines after an intentional change:
#   cargo bench -p qutes-bench -- --test
#   cp crates/bench/BENCH_*.json bench/baselines/
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - <<'PY'
import glob
import json
import os
import re
import sys

BASELINE_DIR = "bench/baselines"
FRESH_DIR = "crates/bench"
# Deterministic counters: gate mix, optimizer decisions, simulator and
# noise-engine event counts, backend dispatch decisions, shot-pool
# shape (benches pin their thread counts, so shots.parallel.* is
# machine-independent), translation-validation tallies (segment domain
# counts, escalations, verdicts — all decided by the circuit, not the
# machine), and kernel invocation counts. The kernel.dispatch.*
# serial/parallel split depends on the runner's core count, so it is
# excluded.
COUNTER_RE = re.compile(r"^(gate|opt|sim|noise|backend|shots|verify)\.|^kernel\.(?!dispatch\.)")
DRIFT_RATIO = 1.25

failures = []
warnings = []

baselines = sorted(glob.glob(os.path.join(BASELINE_DIR, "BENCH_*.json")))
fresh_all = sorted(glob.glob(os.path.join(FRESH_DIR, "BENCH_*.json")))
if not baselines:
    failures.append(f"no baselines found under {BASELINE_DIR}/")
if not fresh_all:
    failures.append(
        f"no fresh artifacts under {FRESH_DIR}/ — "
        "run `cargo bench -p qutes-bench -- --test` first"
    )

base_names = {os.path.basename(p) for p in baselines}
fresh_names = {os.path.basename(p) for p in fresh_all}
for missing in sorted(base_names - fresh_names):
    failures.append(f"{missing}: baseline exists but the bench no longer emits it")
for extra in sorted(fresh_names - base_names):
    failures.append(
        f"{extra}: new bench artifact without a committed baseline "
        f"(cp {FRESH_DIR}/{extra} {BASELINE_DIR}/)"
    )

def load(path):
    with open(path) as f:
        return json.load(f)

def counters(doc):
    obs = doc.get("obs") or {}
    return {
        k: v
        for k, v in (obs.get("counters") or {}).items()
        if COUNTER_RE.search(k)
    }

def timers(doc):
    obs = doc.get("obs") or {}
    return obs.get("timers") or {}

for name in sorted(base_names & fresh_names):
    base = load(os.path.join(BASELINE_DIR, name))
    fresh = load(os.path.join(FRESH_DIR, name))

    bset = {b["name"] for b in base.get("benchmarks", [])}
    fset = {b["name"] for b in fresh.get("benchmarks", [])}
    for gone in sorted(bset - fset):
        failures.append(f"{name}: benchmark disappeared: {gone}")
    for new in sorted(fset - bset):
        failures.append(f"{name}: benchmark appeared without baseline refresh: {new}")

    bc, fc = counters(base), counters(fresh)
    for key in sorted(bc.keys() | fc.keys()):
        if bc.get(key) != fc.get(key):
            failures.append(
                f"{name}: counter {key} regressed: "
                f"baseline {bc.get(key)} vs fresh {fc.get(key)}"
            )

    bt, ft = timers(base), timers(fresh)
    for key in sorted(bt.keys() & ft.keys()):
        bm, fm = bt[key].get("mean_ns"), ft[key].get("mean_ns")
        if not bm or not fm:
            continue
        ratio = fm / bm
        if ratio > DRIFT_RATIO or ratio < 1.0 / DRIFT_RATIO:
            warnings.append(
                f"{name}: timer {key} drifted {ratio:.2f}x "
                f"(baseline mean {bm}ns, fresh {fm}ns)"
            )

for w in warnings:
    print(f"warning: {w}")
if failures:
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    print(f"\n{len(failures)} bench regression(s).", file=sys.stderr)
    sys.exit(1)
print(f"bench_check: {len(base_names & fresh_names)} artifact(s) match baselines"
      f" ({len(warnings)} timing drift warning(s)).")
PY
