"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement happens in a fresh
worker process (``worker.py``), one at a time, so a single closed-loop
client drives the library with no threads.

--trace 0 prints the end-to-end metrics: set-up time, pass time, median
and tail op time, and the peak RSS of the workload process.  Each pass runs
in a fresh process; a run makes MIN_PASSES passes, more if they fit in
--seconds, and reports medians over them: of the pass time and of each
op's time.  Set-up-only processes bring the set-up samples up to
MIN_SETUPS, and set-up time is their median.  Times are calibrated to the
machine's speed (``calibration.py``); the measured wall times are kept in
the notes.
--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics of ``layers.py``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full result, with the
environment and the input digest, is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYERS, OP_SPAN, per_layer_metrics
from workloads import NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIN_PASSES = 3  # a median over three passes can discard one disturbed pass
MIN_SETUPS = 5
DEADLINE_S = 170  # every worker must have ended by then
UNCONTROLLED = "no file-cache drop, no CPU pinning, shared machine with other tenants"
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


def tail_percentile(n):
    """The highest whole percentile with at least ten of n samples above its rank."""
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)  # nearest-rank, ceil(p * n / 100)
        if n - rank >= 10:
            return p, rank
    return None, None


def run_worker(args, mode, deadline, extra=()):
    workdir = OUT / f"work-{os.getpid()}-{mode}-{time.monotonic_ns()}"
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--workdir", str(workdir), *extra,
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed(f"{mode} worker not started: the {DEADLINE_S} s deadline has passed")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker killed at the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, deadline):
    """At least MIN_PASSES fresh-process passes, and more while the next
    one would end within --seconds."""
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_worker(args, "run", deadline))
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    setups = passes[:]
    while len(setups) < MIN_SETUPS:
        setups.append(run_worker(args, "setup", deadline))
    per_op = [statistics.median(ts) for ts in zip(*(w["per_op_s"] for w in passes))]
    ranked = sorted(per_op)
    p, rank = tail_percentile(len(ranked))
    values = {
        "setup_s": statistics.median(w["setup_s"] for w in setups),
        "run_s": statistics.median(w["pass_s"] for w in passes),
        "op_p50_ms": statistics.median(ranked) * 1e3,
        "op_tail_ms": ranked[rank - 1] * 1e3,
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in passes),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    notes = {
        "op_tail": f"p{p}: {len(ranked) - rank} of {len(ranked)} op times lie above it",
        "samples": f"{len(passes)} passes, {len(setups)} set-ups",
        "wall_setup_s": statistics.median(w["wall_setup_s"] for w in setups),
        "wall_run_s": statistics.median(w["wall_pass_s"] for w in passes),
        "slowdown": statistics.median(w["speed"] for w in passes),
    }
    attempted = sum(w["attempted"] for w in passes)
    failed = sum(w["failed"] for w in passes)
    return setups, attempted, failed, metrics, notes


def per_layer(args, deadline):
    run = run_worker(args, "run", deadline)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.bin"
    traced = run_worker(args, "trace", deadline, ("--spans", str(spans)))
    values = {}
    for target, names, _ in LAYERS:
        for name in names:
            key = f"{target}.{name}"
            if name == "calls":
                values[key] = traced["calls"].get(target, 0)
            elif name == "self_s":
                values[key] = traced["self_s"].get(target, 0.0)
            elif name == "distinct_ratio":
                values[key] = traced["distinct"][key]
            else:
                values[key] = traced["counters"].get(key, 0)
    values[f"{OP_SPAN}.self_s"] = traced["self_s"].get(OP_SPAN, 0.0)
    values["trace.overhead_ratio"] = traced["traced_run_s"] / run["pass_s"]
    metrics = {name: (values[name], unit) for name, unit in per_layer_metrics()}
    notes = {"spans": traced["spans"], "spans_file": str(spans.relative_to(ROOT)), "traced_run_s": traced["traced_run_s"]}
    return [run, traced], run["attempted"] + traced["attempted"], run["failed"] + traced["failed"], metrics, notes


def main():
    parser = argparse.ArgumentParser(description="eulerpart benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring budget of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run raises SystemExit, and subprocess.run then kills the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "eulerpart" / "__init__.py").is_file():
        print(f"error: no eulerpart sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    # the build: byte-compile once, so no timed set-up pays for compilation
    if not compileall.compile_dir(ROOT / "src", quiet=1) or not compileall.compile_dir(BENCH, quiet=1, maxlevels=0):
        print("error: byte-compilation failed", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    load_before = os.getloadavg()
    if load_before[0] > nproc:
        print(f"warning: 1-minute load {load_before[0]:.2f} exceeds nproc {nproc}; timings will be noisy", file=sys.stderr)
    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    try:
        workers, attempted, failed, metrics, notes = measure(args, deadline)
    except WorkerFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    load_after = os.getloadavg()
    digests = sorted({w["digest"] for w in workers})
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_digest": digests,
        "ops": workers[-1]["ops"],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failure_examples": [e for w in workers for e in w.get("examples", [])],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "environment": {
            "python": sys.version.split()[0],
            "nproc": nproc,
            "loadavg_before": load_before,
            "loadavg_after": load_after,
            "not_controlled": UNCONTROLLED,
        },
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    print_report(result)
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


def print_report(result):
    """Human-readable lines above the result line."""
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print(f"inputs: {result['ops']} ops, sha256 {', '.join(result['inputs_digest'])}")
    for name, metric in result["metrics"].items():
        print(f"  {name:52s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  fail_ratio {result['failed']}/{result['attempted']} = {result['fail_ratio']:.6g}")
    for key, value in result["notes"].items():
        print(f"  {key}: {json.dumps(value)}")
    for line in result["failure_examples"]:
        print(f"  failure: {line}")
    env = result["environment"]
    print(
        f"environment: python {env['python']}, nproc {env['nproc']}, load "
        f"{env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}; not controlled: {env['not_controlled']}"
    )


if __name__ == "__main__":
    sys.exit(main())
