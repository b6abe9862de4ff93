import json
import subprocess
import sys
from pathlib import Path

import eulerpart.bonds as bonds_module
import eulerpart.cli as cli_module
import eulerpart.lattice as lattice_module
import eulerpart.trails as trails_module
import eulerpart.veblen as veblen_module
from eulerpart.cli import main
from eulerpart.verify import (
    VerifyConfig,
    check_cancellation,
    check_weight_multiplicative,
    check_weight_via_cancellation,
)

REPO = Path(__file__).resolve().parent.parent
EXAMPLE = str(REPO / "graphs" / "example_digraph.txt")
TRIANGLE = str(REPO / "graphs" / "triangle.txt")


def run_cli(args, capsys):
    status = main(args)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_martin_example(capsys):
    status, out, _ = run_cli(["martin", EXAMPLE, "--format", "json"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["result"]["f"] == [6, 11, 6, 1]
    assert payload["result"]["s"] == [0, 2, 3, 1]


def test_circuits_json(capsys):
    status, out, _ = run_cli(["circuits", EXAMPLE, "--format", "json"], capsys)
    payload = json.loads(out)
    assert status == 0 and payload["result"]["count"] == 6
    first = payload["result"]["circuits"][0]
    assert len(first) == 8 and all(isinstance(lbl, str) for lbl in first)


def test_cancellation_and_identity(capsys):
    status, out, _ = run_cli(["cancellation", EXAMPLE, "--format", "json"], capsys)
    assert status == 0 and json.loads(out)["result"]["alternating_sum"] == 0
    status, out, _ = run_cli(["identity", EXAMPLE, "--format", "json"], capsys)
    payload = json.loads(out)
    assert status == 0 and payload["result"]["holds"]


def test_lattice_dump_counts(capsys):
    status, out, _ = run_cli(["lattice-dump", EXAMPLE, "--format", "json"], capsys)
    payload = json.loads(out)
    assert status == 0
    assert payload["result"]["size"] == 16
    products = sorted(e["signed_circuits"] for e in payload["result"]["elements"])
    assert products.count(-1) == 6 and -6 in products


def test_nbc_and_chromatic(capsys):
    status, out, _ = run_cli(
        ["nbc", TRIANGLE, "--order", "a,b,c", "--sink", "2", "--format", "json"],
        capsys,
    )
    payload = json.loads(out)
    assert status == 0 and payload["result"]["count"] == 2
    status, out, _ = run_cli(["chromatic", TRIANGLE, "--format", "json"], capsys)
    payload = json.loads(out)
    assert status == 0
    assert payload["result"]["chromatic"] == [0, 2, -3, 1]
    assert payload["result"]["routes_agree"]


def test_bijection_check(capsys):
    status, out, _ = run_cli(
        ["bijection-check", TRIANGLE, "--seed", "4", "--format", "json"], capsys
    )
    payload = json.loads(out)
    assert status == 0 and payload["result"]["ok"]


def test_charpoly_methods(capsys):
    status, out, _ = run_cli(
        ["charpoly", TRIANGLE, "--method", "det", "--format", "json"], capsys
    )
    payload = json.loads(out)
    assert status == 0 and payload["result"]["det"] == [-2, -3, 0, 1]


def test_weight_command(capsys):
    status, out, _ = run_cli(["weight", TRIANGLE, "-n", "3", "--format", "json"], capsys)
    payload = json.loads(out)
    assert status == 0 and payload["result"]["weight"] == "2"


def test_error_paths(tmp_path, capsys):
    status, _, err = run_cli(["martin", TRIANGLE], capsys)
    assert status == 2 and "digraph" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("digraph 2\ne 1 1\n")
    status, _, err = run_cli(["circuits", str(bad)], capsys)
    assert status == 2 and "loop" in err
    status, _, err = run_cli(["circuits", str(tmp_path / "missing.txt")], capsys)
    assert status == 2
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    status, _, err = run_cli(["circuits", str(empty)], capsys)
    assert status == 2 and "empty" in err
    # a 1500-arc directed cycle is deeper than the recursion limit
    deep = tmp_path / "deep.txt"
    deep.write_text("digraph 1500\n" + "".join(f"a{i} {i} {(i + 1) % 1500}\n" for i in range(1500)))
    for command in ("circuits", "martin", "cancellation"):
        status, out, err = run_cli([command, str(deep)], capsys)
        assert status == 2 and out == "" and "recursion limit" in err
    # the complete digraph on 5 vertices has 972000 circuits: counted, refused
    k5 = tmp_path / "k5.txt"
    arcs = [(u, v) for u in range(5) for v in range(5) if u != v]
    k5.write_text("digraph 5\n" + "".join(f"a{u}{v} {u + 1} {v + 1}\n" for u, v in arcs))
    status, out, err = run_cli(["circuits", str(k5)], capsys)
    assert status == 2 and out == "" and "972000" in err and "cap" in err
    # past its bound the undirected count sums 2^(m-1) orientations: refused by edge count
    bundle = tmp_path / "bundle.txt"
    bundle.write_text("multigraph 2\n" + "".join(f"e{i} 1 2\n" for i in range(18)))
    status, out, err = run_cli(["circuits", str(bundle)], capsys)
    assert status == 2 and out == "" and "16 edges" in err


def test_circuits_cap_counts_only_past_the_bound(tmp_path, monkeypatch, capsys):
    # a 17-edge cycle is over the edge cap, but its bound 2 needs no count
    cycle = tmp_path / "cycle.txt"
    cycle.write_text(
        "multigraph 17\n" + "".join(f"e{i} {i + 1} {(i + 1) % 17 + 1}\n" for i in range(17))
    )
    status, out, _ = run_cli(["circuits", str(cycle), "--format", "json"], capsys)
    assert status == 0 and json.loads(out)["result"]["count"] == 2
    # bidirected triangle: bound 2!^3 = 8, BEST count 3; bowtie: bound 2 * 3!! = 6, count 4
    bidirected = tmp_path / "bidirected.txt"
    bidirected.write_text("digraph 3\n" + "".join(
        f"a{u}{v} {u} {v}\n" for u in (1, 2, 3) for v in (1, 2, 3) if u != v
    ))
    bowtie = tmp_path / "bowtie.txt"
    bowtie.write_text("multigraph 5\na 1 2\nb 2 3\nc 3 1\nd 1 4\ne 4 5\nf 5 1\n")
    for path, count in ((bidirected, 3), (bowtie, 4)):
        status, full, _ = run_cli(["circuits", str(path), "--format", "json"], capsys)
        assert status == 0 and json.loads(full)["result"]["count"] == count
        monkeypatch.setattr(cli_module, "CIRCUITS_CAP", 5)
        status, out, _ = run_cli(["circuits", str(path), "--format", "json"], capsys)
        assert status == 0 and out == full
        monkeypatch.setattr(cli_module, "CIRCUITS_CAP", count - 1)
        status, out, err = run_cli(["circuits", str(path)], capsys)
        assert status == 2 and out == "" and f"{count} Eulerian circuits" in err
        monkeypatch.undo()


def test_circuits_refuses_large_digraphs_before_the_determinant(tmp_path, monkeypatch, capsys):
    def two_hamiltonian_cycles(n):
        path = tmp_path / f"ham{n}.txt"
        path.write_text(f"digraph {n}\n" + "".join(
            f"a{i} {i + 1} {(i + 1) % n + 1}\nb{i} {i + 1} {(i + 7) % n + 1}\n" for i in range(n)
        ))
        return str(path)

    # 129 vertices: 128 determinant rows, still counted, refused by the count
    status, out, err = run_cli(["circuits", two_hamiltonian_cycles(129)], capsys)
    assert status == 2 and out == "" and "Eulerian circuits; the cap is" in err

    def no_count(g):
        raise AssertionError("the circuit count ran")

    # one vertex more, or 1500 (about 180 s of determinant): refused on size alone
    monkeypatch.setattr(trails_module, "count_eulerian_circuits", no_count)
    for n in (130, 1500):
        status, out, err = run_cli(["circuits", two_hamiltonian_cycles(n)], capsys)
        assert status == 2 and out == "" and "counted up to 129 vertices" in err


def test_uncapped_routes_wait_for_the_cycle_cap(tmp_path, monkeypatch, capsys):
    """`chromatic` and `bijection-check` refuse at the cycle-enumeration cap
    before deletion-contraction or the 2^m orientation sweep runs."""

    def complete(n):
        path = tmp_path / f"k{n}.txt"
        path.write_text(f"multigraph {n}\n" + "".join(
            f"e{u}_{v} {u} {v}\n" for u in range(1, n + 1) for v in range(u + 1, n + 1)
        ))
        return str(path)

    ring = tmp_path / "ring.txt"
    ring.write_text("multigraph 30\n" + "".join(
        f"r{i} {i + 1} {(i + 1) % 30 + 1}\nc{i} {i + 1} {(i + 5) % 30 + 1}\n" for i in range(0, 30, 3)
    ) + "".join(f"s{i} {i + 1} {(i + 1) % 30 + 1}\n" for i in range(30) if i % 3))

    def uncapped(*args):
        raise AssertionError("an uncapped route ran before the cap")

    monkeypatch.setattr(bonds_module, "chromatic_polynomial", uncapped)
    monkeypatch.setattr(bonds_module, "acyclic_orientations", uncapped)
    requests = [("chromatic", complete(16)), ("chromatic", complete(12)), ("chromatic", str(ring))]
    requests += [("bijection-check", complete(8)), ("bijection-check", complete(12))]
    for command, path in requests:
        status, out, err = run_cli([command, path], capsys)
        assert status == 2 and out == "" and "cycle enumeration capped" in err


def test_byte_identical_reruns():
    cmd = [
        sys.executable,
        "-m",
        "eulerpart",
        "bijection-check",
        TRIANGLE,
        "--seed",
        "11",
        "--format",
        "json",
    ]
    first = subprocess.run(cmd, capture_output=True, cwd=REPO)
    second = subprocess.run(cmd, capture_output=True, cwd=REPO)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_parser_built_on_first_call_only(monkeypatch, capsys):
    """Importing the CLI builds no parser; in-process calls share one."""
    probe = "import eulerpart.cli as c; print(c._parser.cache_info().currsize)"
    fresh = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, cwd=REPO)
    assert fresh.stdout.strip() == "0"
    real = cli_module.build_parser
    builds = []
    monkeypatch.setattr(cli_module, "build_parser", lambda: builds.append(1) or real())
    cli_module._parser.cache_clear()
    try:
        for args in (["martin", EXAMPLE], ["chromatic", TRIANGLE], ["nbc", "missing.txt"]):
            main(args + ["--format", "json"])
    finally:
        cli_module._parser.cache_clear()
    assert builds == [1]


def test_verify_smoke_small(capsys):
    status, out, _ = run_cli(
        [
            "verify",
            "--max-edges",
            "4",
            "--max-vertices",
            "3",
            "--format",
            "json",
        ],
        capsys,
    )
    payload = json.loads(out)
    assert status == 0 and payload["result"]["ok"]
    assert payload["result"]["seed"] == 0
    names = [c["name"] for c in payload["result"]["checks"]]
    assert "cancellation" in names and "rota-nbc-theorem" in names


def test_cap_violations_reported_not_fatal():
    from eulerpart.verify import run_verification_suite

    status, report = run_verification_suite(VerifyConfig(max_edges=4, max_vertices=3, veblen_edges=13, oracle_edges=4))
    assert status == 0
    capped = [c for c in report["checks"] if "capped" in c["details"]]
    assert capped, "a 13-edge Veblen sweep must hit the infragraph cap"


def test_mutation_is_caught(monkeypatch):
    """Flipping the sign convention of the block product must fail the
    cancellation check."""
    real = lattice_module._signed_mask_product

    def flipped(arcs, element, counts):
        return -real(arcs, element, counts)

    monkeypatch.setattr(lattice_module, "_signed_mask_product", flipped)
    result = check_cancellation(VerifyConfig(max_edges=4))
    assert not result.ok


def test_weight_via_cancellation_mutation_is_caught(monkeypatch):
    """A weight with the component sign dropped must fail the check that
    rebuilds the weight from the cancellation."""
    real = veblen_module.weight

    def unsigned(x, n=0, _cache=None):
        return -real(x, n, _cache)

    config = VerifyConfig(veblen_edges=5)
    result = check_weight_via_cancellation(config)
    assert result.ok and result.checked == 8
    monkeypatch.setattr(veblen_module, "weight", unsigned)
    assert not check_weight_via_cancellation(config).ok


def test_weight_multiplicative_mutation_is_caught(monkeypatch):
    """A weight that is off on disconnected inputs only must fail the
    multiplicativity check."""
    real = veblen_module.weight

    def off_when_disconnected(x, n=0, _cache=None):
        value = real(x, n, _cache)
        return value + 1 if x.component_count() > 1 else value

    config = VerifyConfig(veblen_edges=5)
    assert check_weight_multiplicative(config).checked == 36
    monkeypatch.setattr(veblen_module, "weight", off_when_disconnected)
    assert not check_weight_multiplicative(config).ok
