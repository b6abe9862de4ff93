import inspect
import json
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import eulerpart.bonds as bonds_module
import eulerpart.cli as cli_module
import eulerpart.graphs as graphs_module
import eulerpart.heaps as heaps_module
import eulerpart.lattice as lattice_module
import eulerpart.poset as poset_module
import eulerpart.trails as trails_module
import eulerpart.veblen as veblen_module
import eulerpart.verify as verify_module
from eulerpart.cli import main
from eulerpart.corpus import eulerian_digraph_corpus
from eulerpart.errors import GraphParseError
from eulerpart.verify import (
    VerifyConfig,
    check_associated_coefficient_routes,
    check_best_oracle,
    check_cancellation,
    check_charpoly_three_routes,
    check_chromatic_routes,
    check_counts_vs_direct_enumeration,
    check_cycle_sequence_round_trip,
    check_downset_product_law,
    check_eulerian_balance,
    check_g_vanishing_and_mobius,
    check_heap_axioms_vs_sandwich,
    check_heap_monoid_laws,
    check_join_closure,
    check_lattice_vs_bell_filter,
    check_martin_chromatic_identity,
    check_martin_evaluations,
    check_orientation_class_sizes,
    check_orientation_circuit_partitions,
    check_orientation_count_pattern,
    check_pyramid_balance_and_mobius,
    check_pyramid_orientation_round_trip,
    check_pyramid_split_identity,
    check_rooting_class_sizes,
    check_rota,
    check_trail_counts,
    check_trail_fibers_vs_pyramids,
    check_trail_pyramid_round_trip,
    check_weight_multiplicative,
    check_weight_vanishes_on_decomposables,
    check_weight_via_cancellation,
    ALL_CHECKS,
    run_verification_suite,
)

REPO = Path(__file__).resolve().parent.parent
EXAMPLE = str(REPO / "graphs" / "example_digraph.txt")
TRIANGLE = str(REPO / "graphs" / "triangle.txt")
FILE_COMMANDS = [name for name, (_, needs_file) in cli_module.COMMANDS.items() if needs_file]


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


def test_nbc_command_builds_no_split_tree(monkeypatch, capsys):
    """``eulerpart nbc`` orients by the root-path map alone, so no split
    tree of the recursive map is built."""

    def refuse(*args):
        raise AssertionError("a split tree was built")

    monkeypatch.setattr(bonds_module, "_split_tree", refuse)
    status, out, _ = run_cli(["nbc", TRIANGLE, "--sink", "2", "--format", "json"], capsys)
    assert status == 0 and json.loads(out)["result"]["count"] == 2


def test_bijection_check(capsys):
    status, out, _ = run_cli(
        ["bijection-check", TRIANGLE, "--seed", "4", "--format", "json"], capsys
    )
    payload = json.loads(out)
    assert status == 0 and payload["result"]["ok"]


def test_nbc_commands_refuse_an_isolated_vertex(tmp_path, capsys):
    """A file whose one edge leaves a vertex alone is refused by both NBC
    subcommands with exit 2, as two edge components are."""
    for name, text in (("isolated", "multigraph 3\na 1 2\n"), ("split", "multigraph 4\na 1 2\nb 3 4\n")):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        for command in ("nbc", "bijection-check"):
            status, out, err = run_cli([command, str(path), "--format", "json"], capsys)
            assert status == 2 and out == ""
            assert "NBC bases are defined here for connected graphs" in err


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
    # a 1500-arc directed cycle is deeper than the recursion limit of the
    # circuit listing, and a chain of 1199 directed 2-cycles deeper than that
    # of the cycle-partition listing, which recurses once per cycle
    deep = tmp_path / "deep.txt"
    deep.write_text("digraph 1500\n" + "".join(f"a{i} {i} {(i + 1) % 1500}\n" for i in range(1500)))
    chain = tmp_path / "chain.txt"
    chain.write_text("digraph 1200\n" + "".join(f"f{i} {i} {i + 1}\nb{i} {i + 1} {i}\n" for i in range(1199)))
    for command, path in (("circuits", deep), ("martin", chain), ("cancellation", chain)):
        status, out, err = run_cli([command, str(path)], capsys)
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
    before the independent-set count or the 2^m orientation sweep runs."""

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


# (name, ok, checked) of every check, in order, on SMALL_VERIFY, where every
# check counts at least one case
SMALL_VERIFY = VerifyConfig(max_edges=6, max_vertices=4, veblen_edges=6, oracle_edges=6)
SMALL_VERIFY_COUNTS = [
    ("orientation-class-sizes", True, 17),
    ("eulerian-balance", True, 20),
    ("trail-counts", True, 20),
    ("cycle-sequence-round-trip", True, 45),
    ("circuit-count-oracle", True, 20),
    ("cancellation", True, 20),
    ("downset-sums-and-mobius-inversion", True, 20),
    ("join-closure", True, 488),
    ("lattice-vs-bell-filter", True, 20),
    ("martin-evaluations", True, 20),
    ("martin-chromatic-identity", True, 20),
    ("counts-vs-direct-enumeration", True, 20),
    ("nbc-bijection-suite", True, 237),
    ("rota-nbc-theorem", True, 234),
    ("chromatic-two-routes", True, 10),
    ("orientation-count-pattern", True, 9),
    ("downset-product-law", True, 78),
    ("heap-axioms-vs-sandwich", True, 346),
    ("heap-monoid-laws", True, 55),
    ("pyramid-balance-and-mobius", True, 35),
    ("pyramid-split-identity", True, 51),
    ("trail-fibers-vs-pyramids", True, 35),
    ("trail-pyramid-round-trip", True, 45),
    ("pyramid-orientation-round-trip", True, 106),
    ("charpoly-three-routes", True, 51),
    ("weight-vanishes-decomposable", True, 13),
    ("associated-coefficient-routes", True, 17),
    ("rooting-class-sizes", True, 32),
    ("orientation-circuit-partitions", True, 40),
    ("weight-multiplicative", True, 36),
    ("weight-via-cancellation", True, 17),
]


def test_verify_counts_are_pinned():
    status, report = run_verification_suite(SMALL_VERIFY)
    assert status == 0 and report["ok"]
    checks = report["checks"]
    assert [(c["name"], c["ok"], c["checked"]) for c in checks] == SMALL_VERIFY_COUNTS
    assert all(c["details"] == {"failures": []} for c in checks)


def test_cap_violations_reported_not_fatal():
    from eulerpart.verify import run_verification_suite

    status, report = run_verification_suite(VerifyConfig(max_edges=4, max_vertices=3, veblen_edges=13, oracle_edges=4))
    assert status == 0
    capped = [c for c in report["checks"] if "capped" in c["details"]]
    assert capped, "a 13-edge Veblen sweep must hit the infragraph cap"
    passing_names = {name for name, _, _ in SMALL_VERIFY_COUNTS}
    assert {c["name"] for c in capped} <= passing_names


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


def test_charpoly_three_routes_catches_a_flipped_hs_weight(monkeypatch, tmp_path, capsys):
    """A weight with the sign flipped on 3-vertex components must fail the
    three-route check, whose witness replays the failure through
    ``eulerpart charpoly``.  The fault runs on a fresh component store,
    which leaves the process store as it was."""
    real = veblen_module.weight

    def flipped(x, n=0, _cache=None):
        value = real(x, n, _cache)
        return -value if x.n == 3 else value

    result = check_charpoly_three_routes(VerifyConfig())
    assert result.ok and result.details == {"failures": []}
    monkeypatch.setattr(veblen_module, "_COMPONENT_CLASSES", veblen_module._ComponentClasses())
    monkeypatch.setattr(veblen_module, "weight", flipped)
    result = check_charpoly_three_routes(VerifyConfig())
    assert not result.ok
    witness = result.details["failures"][0]
    assert witness["route"] == "hs"
    host = graphs_module.parse_graph(witness["host"])
    assert veblen_module.hs_characteristic_polynomial(host) != (
        veblen_module.charpoly_determinant_oracle(host)
    )
    path = tmp_path / "witness.txt"
    path.write_text(witness["host"])
    status, out, _ = run_cli(["charpoly", str(path), "--format", "json"], capsys)
    assert status == 0 and json.loads(out)["result"]["agree"] is False


def _without_full_block(real):
    def blocks(x):
        found = real(x)
        found.pop((1 << x.m) - 1, None)
        return found

    return blocks


# check name -> (check, config, module attribute, fault made from the real one)
VEBLEN_MUTATIONS = {
    # the elementary route drops its cycles above three edges
    "charpoly-three-routes": (
        check_charpoly_three_routes, VerifyConfig(), "_cycle_paths",
        lambda real: lambda adjacency, v, available: [
            p for p in real(adjacency, v, available) if len(p) == 2
        ],
    ),
    # weight leaves out alpha
    "weight-vanishes-decomposable": (
        check_weight_vanishes_on_decomposables, VerifyConfig(veblen_edges=6),
        "_symmetry_factor", lambda real: lambda shapes: 1,
    ),
    # the rooting route loses its last orientation class
    "associated-coefficient-routes": (
        check_associated_coefficient_routes, VerifyConfig(veblen_edges=6),
        "eulerian_orientation_classes", lambda real: lambda x: real(x)[:-1],
    ),
    # class sizes stop dividing by the parallel arc factorials
    "rooting-class-sizes": (
        check_rooting_class_sizes, VerifyConfig(veblen_edges=6),
        "parallel_factorial_product", lambda real: lambda d: 1,
    ),
    # the whole edge set is never taken as one block
    "orientation-circuit-partitions": (
        check_orientation_circuit_partitions, VerifyConfig(max_edges=6),
        "connected_veblen_subset_masks", _without_full_block,
    ),
}


@pytest.mark.parametrize("name", sorted(VEBLEN_MUTATIONS))
def test_veblen_check_mutation_is_caught(monkeypatch, name):
    check, config, attr, make_fault = VEBLEN_MUTATIONS[name]
    result = check(config)
    assert result.name == name and result.ok and result.checked > 0
    monkeypatch.setattr(veblen_module, attr, make_fault(getattr(veblen_module, attr)))
    assert not check(config).ok


def _without_largest_nbc_set(real):
    def forests(g, order):
        found = real(g, order)
        if len(found) > 1:
            del found[max(found, key=len)]
        return found

    return forests


# check name -> (check, bonds attribute, fault made from the real one), each
# run on the connected simple graphs with <= 4 vertices
BONDS_MUTATIONS = {
    # the NBC search loses one non-empty set
    "rota-nbc-theorem": (check_rota, "_nbc_forests", _without_largest_nbc_set),
    # the Whitney route is off by one in its constant term
    "chromatic-two-routes": (
        check_chromatic_routes, "chromatic_polynomial_whitney",
        lambda real: lambda g, order=None: real(g, order) + 1,
    ),
}


@pytest.mark.parametrize("name", sorted(BONDS_MUTATIONS))
def test_bonds_check_mutation_is_caught(monkeypatch, name):
    check, attr, make_fault = BONDS_MUTATIONS[name]
    config = VerifyConfig(max_vertices=4)
    result = check(config)
    assert result.name == name and result.ok and result.checked > 0
    monkeypatch.setattr(bonds_module, attr, make_fault(getattr(bonds_module, attr)))
    assert not check(config).ok


def _drop_one_of_two_or_more(real):
    def circuits(g):
        found = real(g)
        return found[1:] if len(found) >= 2 else found

    return circuits


def _first_two_swapped_at_one_base(real):
    def reassemble(cycles):
        if len(cycles) >= 2 and cycles[0].start == cycles[1].start:
            cycles = [cycles[1], cycles[0], *cycles[2:]]
        return real(cycles)

    return reassemble


def _one_too_many_off_cycles(real):
    def best(arcs):
        return real(arcs) + (len(arcs) > len({v for arc in arcs for v in arc}))

    return best


def _upper_first_over_two_or_more(real):
    def compose(ps, h1, h2):
        return real(ps, h2, h1) if len(h1) >= 2 else real(ps, h1, h2)

    return compose


def _one_trail_per_partition(real):
    folded = {}

    def pyramid_to_trail(d, a, pyramid, e):
        if a not in folded:
            folded[a] = real(d, a, pyramid, e)
        return folded[a]

    return pyramid_to_trail


# the semilattice's block kernel is one circuit too many on any block with
# more arcs than touched vertices
_LATTICE_KERNEL_FAULT = (lattice_module, "_best_from_arcs", _one_too_many_off_cycles)

# check name -> (check, config, owner, attribute, fault made from the real
# one), for checks of the graph core, the trails, the Martin route and the
# heaps; each check runs clean first, so the fault meets a warm shape store
CORE_MUTATIONS = {
    # one circuit missing wherever there are two or more
    "trail-counts": (
        check_trail_counts, VerifyConfig(max_edges=4), trails_module, "eulerian_circuits",
        _drop_one_of_two_or_more,
    ),
    # the first two cycles inserted in the wrong order when they share a base
    "cycle-sequence-round-trip": (
        check_cycle_sequence_round_trip, VerifyConfig(max_edges=4), trails_module, "reassemble",
        _first_two_swapped_at_one_base,
    ),
    # one circuit too many at out-degree 3 or more, on the 10-arc corpus
    "circuit-count-oracle": (
        check_best_oracle, VerifyConfig(max_edges=4, oracle_edges=10), trails_module,
        "count_circuits_best",
        lambda real: lambda d: real(d) + (max(map(d.out_degree, range(d.n))) >= 3),
    ),
    # class sizes are one too many on hosts with parallel edges
    "orientation-class-sizes": (
        check_orientation_class_sizes, VerifyConfig(veblen_edges=4), verify_module,
        "approx_class_size", lambda real: lambda o, host: real(o, host) + (not host.is_simple()),
    ),
    "martin-evaluations": (
        check_martin_evaluations, VerifyConfig(max_edges=4), *_LATTICE_KERNEL_FAULT,
    ),
    "counts-vs-direct-enumeration": (
        check_counts_vs_direct_enumeration, VerifyConfig(max_edges=4), *_LATTICE_KERNEL_FAULT,
    ),
    "downset-sums-and-mobius-inversion": (
        check_g_vanishing_and_mobius, VerifyConfig(max_edges=4), *_LATTICE_KERNEL_FAULT,
    ),
    # in-degrees miscount at vertex 0
    "eulerian-balance": (
        check_eulerian_balance, VerifyConfig(max_edges=4), graphs_module.Digraph, "in_degree",
        lambda real: lambda d, u: real(d, u) + (u == 0),
    ),
    # one full pyramid too many at piece 0
    "pyramid-balance-and-mobius": (
        check_pyramid_balance_and_mobius, VerifyConfig(max_edges=4), heaps_module,
        "count_full_pyramids", lambda real: lambda ps, beta: real(ps, beta) + (beta == 0),
    ),
    # the sandwich route accepts every heap
    "heap-axioms-vs-sandwich": (
        check_heap_axioms_vs_sandwich, VerifyConfig(max_edges=4), heaps_module,
        "sandwich_check", lambda real: lambda ps, heap: True,
    ),
    # a lower heap of two or more elements is put on top of the upper one
    "heap-monoid-laws": (
        check_heap_monoid_laws, VerifyConfig(max_edges=6), heaps_module, "compose",
        _upper_first_over_two_or_more,
    ),
    # the full pyramids over the whole piece system lose their last one
    "pyramid-split-identity": (
        check_pyramid_split_identity, VerifyConfig(max_edges=4), heaps_module, "full_pyramids",
        lambda real: lambda ps, beta, subset=None: (
            real(ps, beta)[:-1] if subset is None else real(ps, beta, subset)
        ),
    ),
    # each fiber of trails over a cycle partition loses its last trail
    "trail-fibers-vs-pyramids": (
        check_trail_fibers_vs_pyramids, VerifyConfig(max_edges=4), trails_module,
        "trails_with_cycle_partition", lambda real: lambda d, e, a: real(d, e, a)[:-1],
    ),
    # the fold back to a trail is kept per cycle partition alone
    "trail-pyramid-round-trip": (
        check_trail_pyramid_round_trip, VerifyConfig(max_edges=4), heaps_module,
        "pyramid_to_trail", _one_trail_per_partition,
    ),
    # the pyramid read back from an orientation puts each head below its tail
    "pyramid-orientation-round-trip": (
        check_pyramid_orientation_round_trip, VerifyConfig(max_edges=4), heaps_module,
        "orientation_to_pyramid",
        lambda real: lambda ps, o: heaps_module.Heap(range(ps.k), [(v, u) for u, v in o.arcs]),
    ),
}


@pytest.mark.parametrize("name", sorted(CORE_MUTATIONS))
def test_core_check_mutation_is_caught(monkeypatch, name):
    check, config, owner, attr, make_fault = CORE_MUTATIONS[name]
    result = check(config)
    assert result.name == name and result.ok and result.checked > 0
    monkeypatch.setattr(owner, attr, make_fault(getattr(owner, attr)))
    assert not check(config).ok


def _without_one_block_elements(real):
    def elements(minimal):
        return [x for x in real(minimal) if len(x) > 1]

    return elements


def _without_last_edge(real):
    def graph(d, a):
        g = real(d, a)
        return graphs_module.Multigraph(g.n, g.pairs[:-1])

    return graph


def _covers_only(real):
    def order(elements):
        elements, partitions, down = real(elements)
        covers = [1 << k for k in range(len(down))]
        for i, k in poset_module.cover_pairs(down, range(len(down))):
            covers[k] |= 1 << i
        return elements, partitions, covers

    return order


# check name -> (check, config, owner, attribute, fault made from the real
# one), as in CORE_MUTATIONS, for the checks of the two lattices: the
# Eulerian-part semilattice T(D) with its chromatic identity, and the bond
# lattice with its orientation counts
LATTICE_MUTATIONS = {
    # T(D) loses its one-block elements, so a join that reaches the whole
    # arc set of a connected digraph falls outside it
    "join-closure": (
        check_join_closure, VerifyConfig(max_edges=4), lattice_module, "_element_masks",
        _without_one_block_elements,
    ),
    # T(D) is generated from every cycle partition but the last
    "lattice-vs-bell-filter": (
        check_lattice_vs_bell_filter, VerifyConfig(max_edges=4), lattice_module,
        "cycle_partition_masks", lambda real: lambda d, *cap: real(d, *cap)[:-1],
    ),
    # each intersection graph of a cycle partition loses its last edge
    "martin-chromatic-identity": (
        check_martin_chromatic_identity, VerifyConfig(max_edges=4), lattice_module,
        "intersection_graph", _without_last_edge,
    ),
    # the acyclic orientations lose their last one
    "orientation-count-pattern": (
        check_orientation_count_pattern, VerifyConfig(max_vertices=4), bonds_module,
        "acyclic_orientations", lambda real: lambda g: real(g)[:-1],
    ),
    # the bond lattice's order keeps its covers but not their transitive
    # closure
    "downset-product-law": (
        check_downset_product_law, VerifyConfig(max_vertices=4), bonds_module,
        "coarsening_order", _covers_only,
    ),
}


@pytest.mark.parametrize("name", sorted(LATTICE_MUTATIONS))
def test_lattice_check_mutation_is_caught(monkeypatch, name):
    check, config, owner, attr, make_fault = LATTICE_MUTATIONS[name]
    result = check(config)
    assert result.name == name and result.ok and result.checked > 0
    monkeypatch.setattr(owner, attr, make_fault(getattr(owner, attr)))
    assert not check(config).ok


def _negated(real):
    return lambda *args: -real(*args)


def _off_when_disconnected(real):
    def weight(x, n=0, _cache=None):
        value = real(x, n, _cache)
        return value + 1 if x.component_count() > 1 else value

    return weight


# check name -> (check, config, module, attribute, fault made from the real
# one): the planted faults of the mutation tests above
PLANTED_FAULTS = {
    "cancellation": (
        check_cancellation, VerifyConfig(max_edges=4), lattice_module, "_signed_mask_product",
        _negated,
    ),
    "weight-via-cancellation": (
        check_weight_via_cancellation, VerifyConfig(veblen_edges=5), veblen_module, "weight",
        _negated,
    ),
    "weight-multiplicative": (
        check_weight_multiplicative, VerifyConfig(veblen_edges=5), veblen_module, "weight",
        _off_when_disconnected,
    ),
    **{
        name: (check, config, veblen_module, attr, make_fault)
        for name, (check, config, attr, make_fault) in VEBLEN_MUTATIONS.items()
    },
    **{
        name: (check, VerifyConfig(max_vertices=4), bonds_module, attr, make_fault)
        for name, (check, attr, make_fault) in BONDS_MUTATIONS.items()
    },
    **CORE_MUTATIONS,
    **LATTICE_MUTATIONS,
}


def test_every_check_has_a_planted_fault():
    """The nbc-bijection-suite's faults are planted in tests/test_bonds.py;
    every other check has its fault here."""
    assert set(PLANTED_FAULTS) | {"nbc-bijection-suite"} == {c.name for c in ALL_CHECKS}


def _one_more_two_set_partition(real):
    def counts(adj, budget):
        c, terms = real(adj, budget)
        return [x + (j == 2) for j, x in enumerate(c)], terms

    return counts


# a fault in one routine that several checks share -> (owner, attribute,
# fault made from the real one, the checks that must each fail under it)
SHARED_FAULTS = {
    # each Möbius row entry is plus, not minus, the sum of the entries below
    "mobius-row-sign": (
        poset_module, "mask_sum", _negated, [
            (check_rota, VerifyConfig(max_vertices=4)),
            (check_chromatic_routes, VerifyConfig(max_vertices=4)),
            (check_downset_product_law, VerifyConfig(max_vertices=4)),
            (check_pyramid_balance_and_mobius, VerifyConfig(max_edges=4)),
            (check_g_vanishing_and_mobius, VerifyConfig(max_edges=4)),
        ],
    ),
    # the independent-set DP, read by ``chromatic_polynomial`` and the f_k
    # route alike, counts one partition into two independent sets too many
    "one-more-two-set-partition": (
        bonds_module, "_independent_partition_counts", _one_more_two_set_partition, [
            (check_chromatic_routes, VerifyConfig(max_vertices=4)),
            (check_orientation_count_pattern, VerifyConfig(max_vertices=4)),
            (check_martin_chromatic_identity, VerifyConfig(max_edges=6)),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(SHARED_FAULTS))
def test_shared_fault_fails_each_check_that_reads_it(monkeypatch, name):
    owner, attr, make_fault, checks = SHARED_FAULTS[name]
    for check, config in checks:
        assert check(config).ok
    monkeypatch.setattr(owner, attr, make_fault(getattr(owner, attr)))
    for check, config in checks:
        assert not check(config).ok, check.name


def _recompiled(module, name, old, new):
    """``module.name`` compiled from its source with the one occurrence of
    ``old`` replaced by ``new``, over a copy of the module's globals."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


def _orbit_listing_with(old, new):
    """``trails._cycle_partition_listing``, the one listing of cycle
    partitions, with ``old`` replaced by ``new``."""
    return _recompiled(trails_module, "_cycle_partition_listing", old, new)


# a rule of the f_k route's orbit listing dropped -> (the source text, its
# replacement); the chromatic identity's r side reads that route
ORBIT_FAULTS = {
    # each orbit weighs prod p_uv!, with no divisor for its identical cycles
    "no-identical-cycle-divisor": ("numerator // div", "numerator"),
    # the cycles through one least class come in any order, so an orbit with
    # two shapes there is listed once per order
    "no-non-decreasing-rule": ("if shape < last:", "if False:"),
}


@pytest.mark.parametrize("name", sorted(ORBIT_FAULTS))
def test_orbit_listing_fault_fails_the_chromatic_identity(monkeypatch, name):
    config = VerifyConfig(max_edges=6)
    assert check_martin_chromatic_identity(config).ok
    faulty = _orbit_listing_with(*ORBIT_FAULTS[name])
    monkeypatch.setattr(trails_module, "_cycle_partition_listing", faulty)
    assert not check_martin_chromatic_identity(config).ok


def test_listing_that_drops_its_last_partition_fails_the_bell_filter_check(monkeypatch):
    """Both routes read one listing of cycle partitions, so a fault there
    shows against an oracle that does not: the Bell-number filter of T(D)."""
    config = VerifyConfig(max_edges=4)
    assert check_lattice_vs_bell_filter(config).ok
    faulty = _orbit_listing_with("return out, weights", "return out[:-1], weights[:-1]")
    monkeypatch.setattr(trails_module, "_cycle_partition_listing", faulty)
    assert not check_lattice_vs_bell_filter(config).ok


# the checks on T(D), which read the semilattice's f_k by name and pass it
# to the readers of f
SEMILATTICE_F_CHECKS = [
    check_cancellation,
    check_martin_evaluations,
    check_counts_vs_direct_enumeration,
    check_orientation_circuit_partitions,
    check_weight_via_cancellation,
]


def _default_route(d):
    raise AssertionError("the default f_k route was read")


def test_semilattice_checks_never_read_the_default_route(monkeypatch):
    """The checks on T(D) pass with ``circuit_partition_counts`` raising, so
    none of them compares the default route with itself."""
    monkeypatch.setattr(lattice_module, "circuit_partition_counts", _default_route)
    for check in SEMILATTICE_F_CHECKS:
        assert check(VerifyConfig(max_edges=5)).ok, check.name


# a reader of f that reads the default route although it is given f ->
# (its source text, the replacement); ``martin_divisibility`` reads f only
# through ``martin_polynomial``
DEFAULT_ROUTE_MUTANTS = {
    "martin_polynomial": ("f is None", "f is not None"),
    "verify_cancellation": ("f is None", "f is not None"),
    "martin_divisibility": ("martin_polynomial(d, f)", "martin_polynomial(d)"),
}


@pytest.mark.parametrize("name", sorted(DEFAULT_ROUTE_MUTANTS))
def test_default_route_mutant_fails_a_semilattice_check(monkeypatch, name):
    monkeypatch.setattr(lattice_module, "circuit_partition_counts", _default_route)
    mutant = _recompiled(lattice_module, name, *DEFAULT_ROUTE_MUTANTS[name])
    monkeypatch.setattr(lattice_module, name, mutant)
    with pytest.raises(AssertionError, match="the default f_k route was read"):
        for check in SEMILATTICE_F_CHECKS:
            check(VerifyConfig(max_edges=5))


def test_martin_evaluations_pins_the_divisor_degree(monkeypatch):
    """A product of fewer factors also divides s, so ``martin_divisibility``
    with the last two factors dropped fails the check only by its degree."""
    config = VerifyConfig(max_edges=4)
    assert check_martin_evaluations(config).ok
    mutant = _recompiled(
        lattice_module, "martin_divisibility", "range(2, delta + 1)", "range(2, delta - 1)"
    )
    monkeypatch.setattr(lattice_module, "martin_divisibility", mutant)
    digraphs = [d for d in eulerian_digraph_corpus(4) if max(map(d.out_degree, range(d.n))) >= 2]
    assert all(mutant(d).divisible for d in digraphs)
    assert not check_martin_evaluations(config).ok


def test_verify_refuses_sizes_over_its_caps(monkeypatch, capsys):
    """``verify`` refuses --max-edges above 9 and --max-vertices above 6
    with exit 2 before any check runs, and runs at the caps."""
    monkeypatch.setattr(cli_module, "run_verification_suite", _refuse)
    for flag, value in (("--max-edges", "10"), ("--max-vertices", "7")):
        start = time.monotonic()
        assert main(["verify", flag, value]) == 2
        assert time.monotonic() - start < 1.0
        err = capsys.readouterr().err
        assert err == "error: verify takes at most --max-edges 9 and --max-vertices 6\n"
    monkeypatch.setattr(cli_module, "run_verification_suite", lambda config: (0, {"ok": True}))
    assert main(["verify", "--max-edges", "9", "--max-vertices", "6", "--format", "json"]) == 0


@pytest.mark.parametrize("name", sorted(PLANTED_FAULTS))
def test_failing_check_lists_replayable_witnesses(monkeypatch, name):
    """Under each planted fault the failing check names one to three
    distinct inputs, each in the graph text format that the subcommands
    read; a charpoly witness gives its host."""
    check, config, module, attr, make_fault = PLANTED_FAULTS[name]
    monkeypatch.setattr(module, attr, make_fault(getattr(module, attr)))
    result = check(config)
    witnesses = result.details["failures"]
    assert result.name == name and not result.ok
    assert 1 <= len(witnesses) <= 3
    assert len({json.dumps(w, sort_keys=True) for w in witnesses}) == len(witnesses)
    for witness in witnesses:
        text = witness["host"] if isinstance(witness, dict) else witness
        graph = graphs_module.parse_graph(text)
        assert graph.m == len(text.splitlines()) - 1


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _refuse(*args, **kwargs):
    raise AssertionError("the work ran before the cap")


def test_huge_declared_vertex_count_refused_at_parse(tmp_path, capsys):
    """The header count is refused before any per-vertex table is built, so
    a three-line file declaring 10^8 vertices exits 2 at once everywhere."""
    cap = graphs_module.HEADER_VERTEX_CAP
    # one over the cap first: cheap even if the cap were gone, unlike 10^8
    with pytest.raises(GraphParseError, match=f"over the cap of {cap}"):
        graphs_module.parse_graph(f"digraph {cap + 1}\na 1 2\nb 2 1\n")
    files = {
        "digraph": _write(tmp_path, "d.txt", "digraph 100000000\na 1 2\nb 2 1\n"),
        "multigraph": _write(tmp_path, "m.txt", "multigraph 100000000\na 1 2\nb 2 1\n"),
    }
    for command in FILE_COMMANDS:
        for path in files.values():
            start = time.perf_counter()
            status, out, err = run_cli([command, path], capsys)
            assert time.perf_counter() - start < 1.0
            assert status == 2 and out == "" and f"over the cap of {cap}" in err
    at_cap = _write(tmp_path, "cap.txt", f"digraph {cap}\na 1 2\nb 2 1\n")
    status, out, _ = run_cli(["martin", at_cap, "--format", "json"], capsys)
    assert status == 0 and json.loads(out)["result"]["f"] == [1]


def test_charpoly_checks_every_route_cap_before_any_route(tmp_path, monkeypatch, capsys):
    def complete(n):
        return _write(tmp_path, f"k{n}.txt", f"multigraph {n}\n" + "".join(
            f"e{u}_{v} {u} {v}\n" for u in range(1, n + 1) for v in range(u + 1, n + 1)
        ))

    lone_edge = _write(tmp_path, "lone.txt", "multigraph 400\ne 1 2\n")
    for route in ("charpoly_determinant_oracle", "hs_characteristic_polynomial",
                  "elementary_subgraph_formula"):
        monkeypatch.setattr(veblen_module, route, _refuse)
    requests = [
        (["--method", "all"], lone_edge, "'det' capped at 50"),
        (["--method", "det"], lone_edge, "'det' capped at 50"),
        (["--method", "all"], complete(9), "'hs' capped at 8"),
        (["--method", "hs"], complete(9), "'hs' capped at 8"),
        (["--method", "elementary"], complete(10), "'elementary' capped at 9"),
    ]
    for method, path, message in requests:
        status, out, err = run_cli(["charpoly", path, *method], capsys)
        assert status == 2 and out == "" and message in err
    monkeypatch.undo()
    # at the caps, each route run alone still answers
    path9 = _write(tmp_path, "p9.txt", "multigraph 9\n" + "".join(
        f"e{i} {i} {i + 1}\n" for i in range(1, 9)
    ))
    status, out, _ = run_cli(
        ["charpoly", path9, "--method", "elementary", "--format", "json"], capsys
    )
    assert status == 0 and json.loads(out)["result"]["elementary"][-1] == 1
    path50 = _write(tmp_path, "p50.txt", "multigraph 50\ne 1 2\n")
    status, out, _ = run_cli(["charpoly", path50, "--method", "det", "--format", "json"], capsys)
    assert status == 0 and json.loads(out)["result"]["det"][-3:] == [-1, 0, 1]


def test_weight_refuses_over_the_edge_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(veblen_module, "weight", _refuse)
    monkeypatch.setattr(veblen_module, "is_decomposable", _refuse)
    for m in (12, 30):
        text = "multigraph 2\n" + "".join(f"e{i} 1 2\n" for i in range(m))
        bundle = _write(tmp_path, f"b{m}.txt", text)
        status, out, err = run_cli(["weight", bundle], capsys)
        assert status == 2 and out == "" and "up to 10 edges" in err
    monkeypatch.undo()
    cycle = _write(tmp_path, "c10.txt", "multigraph 10\n" + "".join(
        f"e{i} {i + 1} {(i + 1) % 10 + 1}\n" for i in range(10)
    ))
    status, out, _ = run_cli(["weight", cycle, "--format", "json"], capsys)
    assert status == 0 and json.loads(out)["result"]["decomposable"] is False


def test_pyramids_refuses_over_the_piece_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(heaps_module, "full_pyramids", _refuse)
    path20 = _write(tmp_path, "p20.txt", "multigraph 20\n" + "".join(
        f"e{i} {i} {i + 1}\n" for i in range(1, 20)
    ))
    k12 = _write(tmp_path, "k12.txt", "multigraph 12\n" + "".join(
        f"e{u}_{v} {u} {v}\n" for u in range(1, 13) for v in range(u + 1, 13)
    ))
    for path in (path20, k12):
        status, out, err = run_cli(["pyramids", path], capsys)
        assert status == 2 and out == "" and "up to 8 pieces" in err
