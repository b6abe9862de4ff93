"""Golden CLI outputs: every file subcommand on every sample graph.

Each case records the exit code, the stdout bytes and the stderr text of one
in-process invocation, run from the repository root with a relative path so
that the envelope's ``"input"`` field compares byte for byte.  The golden file
is written by running this module as a script:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

import eulerpart.cli as cli_module
from eulerpart.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
GRAPHS = sorted(p.name for p in (REPO / "graphs").glob("*.txt"))
FILE_COMMANDS = [
    "circuits",
    "martin",
    "cancellation",
    "identity",
    "lattice-dump",
    "nbc",
    "bijection-check",
    "chromatic",
    "pyramids",
    "charpoly",
    "weight",
]

CASES = [
    [command, f"graphs/{graph}", "--format", "json"]
    for command in FILE_COMMANDS
    for graph in GRAPHS
] + [
    ["verify", "--max-edges", "0", "--format", "json"],
    ["verify", "--max-vertices", "0", "--format", "json"],
    ["verify", "--max-edges", "5", "--max-vertices", "4", "--format", "json"],
] + [
    # heap output: every apex piece of the two undirected samples
    ["pyramids", f"graphs/{graph}", "--piece", str(v), "--format", "json"]
    for graph, n in (("triangle.txt", 3), ("k4.txt", 4))
    for v in range(1, n + 1)
] + [
    ["bijection-check", "graphs/k4.txt", "--seed", "7", "--format", "json"],
]


def _case_id(argv):
    return " ".join(argv[:-2] if argv[-2:] == ["--format", "json"] else argv)


def _load_golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case():
    assert len(CASES) == 66
    assert sorted(_load_golden()) == sorted(_case_id(a) for a in CASES)


@pytest.mark.parametrize("argv", CASES, ids=_case_id)
def test_cli_matches_golden(argv, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    status = main(list(argv))
    captured = capsys.readouterr()
    got = {"status": status, "stdout": captured.out, "stderr": captured.err}
    assert got == _load_golden()[_case_id(argv)]


def test_json_renderer_matches_json_dumps(capsys, monkeypatch):
    """The CLI's renderer writes what ``json.dumps(sort_keys=True,
    indent=2)`` writes, on the envelope of every golden case that prints
    one and of the default ``verify`` run."""
    monkeypatch.chdir(REPO)
    real = cli_module._json_text
    envelopes = []
    monkeypatch.setattr(cli_module, "_json_text", lambda v: envelopes.append(v) or real(v))
    for argv in CASES + [["verify", "--format", "json"]]:
        main(list(argv))
    capsys.readouterr()
    printed = [case for case in _load_golden().values() if case["stdout"]]
    assert len(envelopes) == len(printed) + 1
    for envelope in envelopes:
        assert real(envelope) == json.dumps(envelope, sort_keys=True, indent=2)


if __name__ == "__main__":
    os.chdir(REPO)
    golden = {}
    for argv in CASES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(list(argv))
        golden[_case_id(argv)] = {
            "status": status,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
        }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN.relative_to(REPO)}")
