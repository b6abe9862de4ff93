"""The walkthrough scripts, the docstring examples and the benchmark
self-test run end to end."""

import doctest
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import eulerpart

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


@pytest.mark.parametrize(
    "script, line",
    [
        ("worked_example.py", "semilattice of partitions into Eulerian parts: 16 elements"),
        ("corpus_census.py", "m=8:  67 classes, alternating sums {0: 66, -1: 1}, largest semilattice 131"),
    ],
)
def test_script_runs(script, line):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert line in done.stdout


def test_docstring_examples_pass():
    """Every ``>>>`` example in the package's modules runs and passes."""
    attempted = 0
    for info in pkgutil.iter_modules(eulerpart.__path__):
        if info.name != "__main__":  # importing it runs the command line
            result = doctest.testmod(importlib.import_module(f"eulerpart.{info.name}"))
            assert result.failed == 0, info.name
            attempted += result.attempted
    assert attempted >= 16


def test_benchmark_selftest_passes():
    """The benchmark's own self-test: the unchanged library fails no op, and
    each planted fault fails some, the f_k fault on martin-sweep and
    cli-requests alike.  It writes only under perfbench/out/, which is
    ignored by git, and removes its own directory there."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    fault = "failed with _martin_fault on eulerpart.lattice.circuit_partition_counts: ok"
    assert sum(fault in line for line in done.stdout.splitlines()) == 2
