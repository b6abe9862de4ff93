"""One fresh benchmark process: set up a workload, optionally run it, and
print one JSON object as the last line of standard output.

Modes (set-up is timed from before ``import eulerpart`` until the
workload's inputs exist):
  setup  set up only;
  run    set up, then run one pass of the operation list with tracing off;
  trace  install the layer wrappers, set up and run one pass traced.

Each pass runs in a fresh process, so no pass finds what an earlier pass
left in the library's caches.

Each op's result is checked right after the op, outside its timed region.
Before each op, also untimed, the cyclic GC makes a full collection and
freezes what survives, so an op pays for the collections its own
allocations trigger and not for a debt the ops before it left; otherwise
which op pays for a full collection would depend on the seeded op order.
Freezing keeps those collections cheap when a traced pass holds on to
every argument it has seen.
Every time is reported twice: as measured (``wall_*``) and divided by the
machine's speed around it (see ``calibration.py``).
``run.py`` starts this script with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import sys
from time import perf_counter

import workloads
from calibration import SETUP_SAMPLES, Calibration

EXAMPLES_KEPT = 3


def _check(workload, op, result):
    try:
        return bool(workload.check(op, result))
    except Exception:  # a result the check cannot read is a wrong result
        return False


def run_pass(workload, ops, on_op=None, calibration=None):
    """Run every op once, checking each result between ops, outside its
    timed region.  Return (seconds timed, per-op seconds, failure notes).

    The pass time is the sum of the op times, so it leaves the checks out.
    A calibration, if given, takes its samples between ops, also untimed.
    """
    times, failures = [], []
    for i, op in enumerate(ops):
        if calibration is not None and calibration.due():
            calibration.take(i)
        if on_op is not None:
            on_op(i)
        gc.collect()
        gc.freeze()
        t0 = perf_counter()
        try:
            result = workload.run_op(op)
        except Exception as err:  # counted as a failed op, never fatal
            times.append(perf_counter() - t0)
            failures.append(f"op {i}: {type(err).__name__}: {err}")
            continue
        times.append(perf_counter() - t0)
        if not _check(workload, op, result):
            failures.append(f"op {i}: wrong result")
        del result  # or the next collection would freeze it
    if calibration is not None:
        calibration.take(len(ops))
    return math.fsum(times), times, failures


def _calibrated(per_op, calibration):
    return [t / f for t, f in zip(per_op, calibration.op_factors(len(per_op)))]


def _traced(workload, ops, calibration, tracer, tracing, spans_path):
    """One pass with every op in a span and the checks left out of the trace.
    Self times are divided by the pass's median slowdown."""
    from layers import OP_SPAN

    def on_op(i):
        tracer.op_id = i

    def traced_op(op, run=workload.run_op):
        with tracer.span(OP_SPAN):
            return run(op)

    def untraced_check(op, result, check=workload.check):
        tracer.enabled = False
        try:
            return check(op, result)
        finally:
            tracer.enabled = True

    workload.run_op, workload.check = traced_op, untraced_check
    _, per_op, failures = run_pass(workload, ops, on_op, calibration)
    tracer.enabled = False
    speed = calibration.overall()
    expected = workload.expected_counters(ops)
    for key, value in expected.items():
        if tracer.counters[key] != value:
            failures.append(f"{key} = {tracer.counters[key]}, expected {value}")
    if spans_path:
        tracer.write(spans_path)
    return {
        "traced_run_s": math.fsum(_calibrated(per_op, calibration)),
        "attempted": len(ops) + len(expected),
        "failed": len(failures),
        "examples": failures[:EXAMPLES_KEPT],
        "self_s": {name: t / speed for name, t in tracer.self_s.items()},
        "calls": dict(tracer.calls),
        "counters": dict(tracer.counters),
        "distinct": tracing.distinct_ratios(tracer),
        "spans": len(tracer.span_start),
    }


def _untraced(workload, ops, calibration):
    """One pass with tracing off, and the process's peak RSS after it."""
    wall_s, per_op, failures = run_pass(workload, ops, calibration=calibration)
    per_op = _calibrated(per_op, calibration)
    return {
        "pass_s": math.fsum(per_op),
        "wall_pass_s": wall_s,
        "speed": calibration.overall(),
        "per_op_s": per_op,
        "attempted": len(ops),
        "failed": len(failures),
        "examples": failures[:EXAMPLES_KEPT],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--workdir", required=True, help="scratch directory, removed at exit")
    parser.add_argument("--spans", help="trace mode: file the spans are written to")
    args = parser.parse_args()

    workload = workloads.get(args.workload, os.path.join(args.workdir, "inputs"))
    try:
        t0 = perf_counter()
        import eulerpart  # noqa: F401  (set-up is timed from before this import)

        if args.mode == "trace":
            import tracer as tracing
            from layers import SETUP_SPAN

            tracer = tracing.Tracer()
            tracing.install(tracer)
            with tracer.span(SETUP_SPAN):
                ops = workload.make_inputs(args.seed)
        else:
            ops = workload.make_inputs(args.seed)
        setup_s = perf_counter() - t0
        calibration = Calibration()
        for _ in range(SETUP_SAMPLES):
            calibration.take(0)

        digest = hashlib.sha256()
        for op in ops:
            digest.update(workload.describe(op).encode())
        out = {
            "setup_s": setup_s / calibration.overall(),
            "wall_setup_s": setup_s,
            "ops": len(ops),
            "digest": digest.hexdigest(),
        }
        if args.mode == "trace":
            out.update(_traced(workload, ops, calibration, tracer, tracing, args.spans))
        elif args.mode == "run":
            out.update(_untraced(workload, ops, calibration))
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
