"""Every layer the benchmark's tracer wraps must still exist under its name.

``perfbench/tracer.py`` looks each target up as ``vars(owner)[attr]``, so a
rename in the library would crash a traced benchmark run; this test reads
the target list and repeats that lookup.
"""

import importlib
from pathlib import Path

LAYERS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layer_targets():
    # executed from its source text, so nothing is written under perfbench/
    namespace = {}
    exec(compile(LAYERS_FILE.read_text(encoding="utf-8"), str(LAYERS_FILE), "exec"), namespace)
    return [target for target, _, _ in namespace["LAYERS"]]


def test_every_traced_layer_resolves():
    targets = _layer_targets()
    assert "lattice.build_eulerian_semilattice" in targets
    for target in targets:
        modname, *path = target.split(".")
        owner = importlib.import_module(f"eulerpart.{modname}")
        for part in path[:-1]:
            owner = getattr(owner, part)
        assert path[-1] in vars(owner), target
        assert callable(getattr(owner, path[-1])), target
