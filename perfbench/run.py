#!/usr/bin/env python3
"""Builds the benchmark from source and runs it from the repository root.

    python3 perfbench/run.py --workload frontdoor --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default: .bench_build at the
repository root). Cargo's own output goes to stderr, so the last line of
stdout is the benchmark's JSON result. `--workload all` runs each workload
in its own process, one after the other. Exits non-zero, printing no
result, when the build or the run fails.

The benchmark itself runs pinned to one CPU, the last of those the
process may use, so the program under test sizes its kernel and shot
threads to one: on a host that shares its CPUs with others, a two-thread
phase waits for the slower CPU, and the run would measure the host's
scheduler rather than the program.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# What the benchmark builds: the repository's sources and its own.
SOURCES = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "examples/programs", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", ".bench_out", "__pycache__"}
WORKLOADS = ["frontdoor", "dense", "shots"]


def source_digest():
    """SHA-256 over the paths and bytes of every source file."""
    h = hashlib.sha256()
    files = []
    for entry in SOURCES:
        path = os.path.join(ROOT, entry)
        if os.path.isfile(path):
            files.append(path)
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
            files.extend(os.path.join(base, n) for n in names)
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def benchmark_cpu():
    """The CPU the benchmark runs on: the last one this process may use."""
    return max(os.sched_getaffinity(0))


def provenance():
    return {
        "host_cpus": len(os.sched_getaffinity(0)),
        "pinned_cpu": benchmark_cpu(),
        "rustc": command_output(["rustc", "--version"]),
        # The benchmark may run from an export that is not a git checkout;
        # the source digest identifies the code either way.
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
    }


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env["PERFBENCH_PROVENANCE"] = json.dumps(provenance())
    binary = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args:
        i = args.index("--workload") + 1
        if args[i:i + 1] == ["all"]:
            runs = [args[:i] + [w] + args[i + 1:] for w in WORKLOADS]
    cpu = benchmark_cpu()
    code = 0
    for run in runs:
        proc = subprocess.run(
            [binary] + run, cwd=ROOT, env=env,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        code = max(code, proc.returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
