"""The walkthrough scripts run end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
