#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Run from the root of the repository. The first form builds the
`perfbench` binary (release, offline, into $CARGO_TARGET_DIR or
`.bench_build`), runs one workload in a fresh process and prints, as the
last line of standard output, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The line before it is the stamp:
host cores, seed, commit, repeat counts and each metric's min, quartiles
and median. Both are also written to `perfbench/results/`.

With `--trace 1` the binary also writes its spans as Chrome trace-event
JSON (`perfbench/results/trace-<workload>-seed<n>.json`, loadable in
Perfetto or chrome://tracing); this script derives each layer's self time
from that file, adds each layer's share of the traced time to the
per-layer metrics and the seconds to the stamp's details.

`--self-check` runs every workload at a tiny size in both modes and
checks that each run prints exactly the metric names and units that
`BENCHMARK.json` declares for that mode.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
BUILD_TIMEOUT_S = 900
# Span categories of the traced run: the benchmark's own time and the
# layers it times from outside.
LAYERS = ("bench", "core", "graph", "overlay", "sim", "sharded")


def run_timeout_s(seconds):
    """Wall-clock limit of one run: set-up and checks take up to about a
    minute beyond the measured --seconds, and a slow host can double
    both."""
    return max(170, 60 + 4 * seconds)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary and returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    return target / "release" / "perfbench"


def commit_id():
    """The git commit, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for path in sorted(ROOT.glob("crates/*/src/**/*.rs")) + sorted(HERE.glob("src/*.rs")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def self_times(trace_path):
    """Seconds of self time per layer: each span's duration minus the time
    its child spans cover, summed over the spans of that layer."""
    events = json.loads(trace_path.read_text())["traceEvents"]
    spans = {e["args"]["span_id"]: e for e in events if e["ph"] == "X"}
    covered = {i: 0.0 for i in spans}
    for e in spans.values():
        parent = e["args"]["parent"]
        if parent is not None:
            covered[parent] += e["dur"]
    layers = dict.fromkeys(LAYERS, 0.0)
    for i, e in spans.items():
        if e["cat"] not in layers:
            fail(f"span {e['name']} belongs to no known layer")
        layers[e["cat"]] += (e["dur"] - covered[i]) / 1e6
    return layers


def run_once(binary, workload, seed, seconds, trace, tiny=False):
    """Runs one workload in a fresh process; returns (result, stamp)."""
    work = RESULTS / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work), "--commit", commit_id()]
    if tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=run_timeout_s(seconds))
        if done.returncode != 0:
            fail(f"{workload} exited with code {done.returncode}")
        lines = done.stdout.strip().splitlines()
        if not lines:
            fail(f"{workload} printed no result")
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        stamp = result.pop("stamp")
        if trace:
            name = f"trace-{workload}-seed{seed}.json"
            shutil.copyfile(work / "trace.json", RESULTS / name)
            stamp["labels"]["trace_file"] = f"perfbench/results/{name}"
            layers = self_times(RESULTS / name)
            total = sum(layers.values())
            for layer, secs in layers.items():
                result["metrics"][f"{layer}.self_share"] = {
                    "value": secs / total, "unit": "ratio"}
                stamp["details"][f"{layer}.self_s"] = {"value": secs, "unit": "s"}
        return result, stamp
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {run_timeout_s(seconds)} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def self_check(binary):
    """Every workload at a tiny size, both modes: each run must print
    exactly the metric names and units BENCHMARK.json declares for its
    mode, every end-to-end value non-zero."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for trace in (0, 1):
        for w in spec["workloads"]:
            where = f"self-check: {w['name']} --trace {trace}"
            result, _ = run_once(binary, w["name"], 1, 1, trace, tiny=True)
            if not result["correct"] or result["attempted"] < 1:
                fail(f"{where}: bad result")
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            if printed != declared[trace]:
                extra = sorted(set(printed.items()) - set(declared[trace].items()))
                missing = sorted(set(declared[trace].items()) - set(printed.items()))
                fail(f"{where}: printed but not declared {extra}, "
                     f"declared but not printed {missing}")
            zero = [n for n, m in result["metrics"].items() if m["value"] == 0]
            if trace == 0 and zero:
                fail(f"{where}: end-to-end metrics read 0: {zero}")
    print("perfbench: self-check passed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-check", action="store_true")
    a = p.parse_args()
    if not a.self_check and None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    RESULTS.mkdir(exist_ok=True)
    if a.self_check:
        self_check(binary)
        return
    result, stamp = run_once(binary, a.workload, a.seed, a.seconds, a.trace)
    stamped = {"stamp": stamp, **result}
    name = f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    (RESULTS / name).write_text(json.dumps(stamped, indent=1) + "\n")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
