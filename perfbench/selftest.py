"""Self-test of the benchmark: on a few ops of each workload, the unchanged
library fails nothing, and each monkeypatched wrong result makes the
workload's checks fail.  harary-sachs plants three faults, one for each of
its checks: route agreement, the weight of a decomposable member, and
the two associated-coefficient routes.  Also checks that BENCHMARK.json names the metrics
run.py reports, with the same units.

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from layers import per_layer_metrics  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from worker import run_pass  # noqa: E402

OPS_PER_CASE = 24


def _martin_fault():
    from eulerpart import lattice

    original = lattice.circuit_partition_counts
    return lattice, "circuit_partition_counts", lambda d: (original(d)[0] + 1,) + original(d)[1:]


def _nbc_fault():
    from eulerpart import bonds
    from eulerpart.graphs import Digraph

    original = bonds.base_to_orientation_recursive

    def reversed_orientation(t, g, x, order):
        o = original(t, g, x, order)
        return Digraph(o.n, [(v, u) for u, v in o.arcs])

    return bonds, "base_to_orientation_recursive", reversed_orientation


def _route_fault():
    """A wrong weight inside hs_characteristic_polynomial only: the routes disagree."""
    from eulerpart import veblen

    original = veblen.weight
    return veblen, "weight", lambda x, n=0, _cache=None: original(x, n, _cache) + (_cache is not None)


def _member_fault():
    """A nonzero weight on every Veblen member the op asks about directly,
    decomposable ones included: only the member check can see it."""
    from eulerpart import veblen

    original = veblen.weight
    return veblen, "weight", lambda x, n=0, _cache=None: original(x, n, _cache) + (_cache is None)


def _coefficient_fault():
    from eulerpart import veblen

    original = veblen.associated_coefficient_via_rootings
    return veblen, "associated_coefficient_via_rootings", lambda x: original(x) + 1


def _chromatic_fault():
    from eulerpart import bonds

    original = bonds.chromatic_polynomial_whitney
    return bonds, "chromatic_polynomial_whitney", lambda g, order=None: 2 * original(g, order)


def _first_per_key(ops, key, per_key):
    """The first per_key ops of each value of key(op), in order."""
    seen = Counter()
    kept = []
    for op in ops:
        seen[key(op)] += 1
        if seen[key(op)] <= per_key:
            kept.append(op)
    return kept


# workload -> (the ops kept from seed 0's list, the faults that must each be caught)
CASES = {
    "martin-sweep": (lambda ops: [d for d in ops if d.m <= 6][:OPS_PER_CASE], (_martin_fault,)),
    "nbc-bijection": (lambda ops: [op for op in ops if op[0].n <= 4][:OPS_PER_CASE], (_nbc_fault,)),
    # charpoly routes and Veblen members alike
    "harary-sachs": (
        lambda ops: _first_per_key([op for op in ops if op[3].n <= 5], lambda op: op[0], OPS_PER_CASE // 2),
        (_route_fault, _member_fault, _coefficient_fault),
    ),
    # two requests of every command, valid and invalid
    "cli-requests": (
        lambda ops: _first_per_key(ops, lambda op: (op[0], op[4]), 2),
        (_martin_fault, _chromatic_fault),
    ),
}


def benchmark_file_matches():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    declared_layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    good = (
        declared == list(END_TO_END_UNITS.items())
        and declared_layers == per_layer_metrics()
        and [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    )
    print(f"BENCHMARK.json names the reported metrics and workloads: {'ok' if good else 'MISMATCH'}")
    return good


def main():
    workdir = BENCH / "out" / "selftest"
    ok = benchmark_file_matches()
    try:
        for name, (select, faults) in CASES.items():
            workload = workloads.get(name, str(workdir / name))
            ops = select(workload.make_inputs(0))
            _, _, clean = run_pass(workload, ops)
            good = not clean
            print(f"{name:14s} {len(ops)} ops: {len(clean)} failed unchanged: {'ok' if good else 'CHECK BROKEN'}")
            for fault in faults:
                module, attr, wrong = fault()
                original = getattr(module, attr)
                setattr(module, attr, wrong)
                try:
                    _, _, faulty = run_pass(workload, ops)
                finally:
                    setattr(module, attr, original)
                good = good and bool(faulty)
                print(
                    f"{'':14s} {len(faulty)} failed with {fault.__name__} on {module.__name__}.{attr}: "
                    f"{'ok' if faulty else 'CHECK BROKEN'}"
                )
            ok = ok and good
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
