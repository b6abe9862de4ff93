import hashlib
import json
import time
from pathlib import Path

import pytest

import eulerpart.lattice as lattice_module
from eulerpart.bonds import BondLattice
from eulerpart.cli import main
from eulerpart.corpus import complete_graph, connected_simple_graphs, eulerian_digraph_corpus
from eulerpart.errors import CapExceededError, NotEulerianError
from eulerpart.graphs import (
    Digraph,
    is_eulerian,
    out_degree_factorial_product,
    parse_graph_file,
)
from eulerpart.lattice import (
    signed_circuit_product,
    build_eulerian_semilattice,
    circuit_partition_counts,
    eulerian_parts,
    martin_chromatic_identity,
    martin_divisibility,
    martin_polynomial,
    verify_cancellation,
)
from eulerpart.partition import SetPartition, all_set_partitions
from eulerpart.poly import IntPoly
from eulerpart.poset import FinitePoset, refinement_order
from eulerpart.trails import count_circuits_best, cycle_partitions, intersection_graph

EXAMPLE = str(Path(__file__).resolve().parent.parent / "graphs" / "example_digraph.txt")

A1 = SetPartition([{0, 1}, {2, 3}, {4, 5}, {6, 7}])
A2 = SetPartition([{0, 2, 4}, {1, 3, 5}, {6, 7}])
TOP = SetPartition([set(range(8))])


def parallel_two_cycles(k):
    return Digraph(2, [(0, 1), (1, 0)] * k)


def test_F_values_from_the_worked_example(example_digraph):
    d = example_digraph
    assert signed_circuit_product(d, TOP) == -6
    assert signed_circuit_product(d, A1) == 1  # bottom: four 2-cycles
    assert signed_circuit_product(d, A2) == -1
    # the {e,f,g}|{h} coarsening has three circuits on the left block
    efg_h = SetPartition([{0, 1, 2, 3, 4, 5}, {6, 7}])
    assert signed_circuit_product(d, efg_h) == 3
    fgh_e = SetPartition([{2, 3, 4, 5, 6, 7}, {0, 1}])
    assert signed_circuit_product(d, fgh_e) == 2
    # disconnected block: F vanishes
    eh_fg = SetPartition([{0, 1, 6, 7}, {2, 3, 4, 5}])
    assert signed_circuit_product(d, eh_fg) == 0


def test_build_T_example_structure(example_digraph):
    lattice = build_eulerian_semilattice(example_digraph)
    assert len(lattice) == 16
    assert set(lattice.minimal) == {A1, A2}
    assert lattice.top() == TOP
    assert lattice.top() in lattice
    by_size = {}
    for b in lattice.elements:
        by_size.setdefault(len(b), []).append(lattice.signed_product(b))
    assert by_size[1] == [-6]
    assert sorted(by_size[2]) == [1, 1, 1, 1, 1, 1, 2, 3]
    assert by_size[3] == [-1] * 6
    assert by_size[4] == [1]


def test_build_T_matches_bell_filter_oracle():
    """Element set equals the brute-force filter of every set partition by
    the nonvanishing-F predicate."""
    digraphs = [
        Digraph(2, [(0, 1), (1, 0)]),
        Digraph(2, [(0, 1), (1, 0), (0, 1), (1, 0)]),
        Digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0)]),
        Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1)]),
    ]
    for d in digraphs:
        lattice = build_eulerian_semilattice(d)
        brute = {
            b
            for b in all_set_partitions(range(d.m))
            if signed_circuit_product(d, b) != 0
        }
        assert set(lattice.elements) == brute


def test_build_T_rejects_non_eulerian():
    with pytest.raises(NotEulerianError):
        build_eulerian_semilattice(Digraph(2, [(0, 1)]))


def test_build_T_two_cycle(two_cycle):
    lattice = build_eulerian_semilattice(two_cycle)
    assert len(lattice) == 1


def test_join_closure(example_digraph):
    lattice = build_eulerian_semilattice(example_digraph)
    elements = lattice.elements
    for a in elements:
        for b in elements:
            assert a.join(b) in lattice


def test_G_values(example_digraph):
    lattice = build_eulerian_semilattice(example_digraph)
    assert lattice.downset_sum(lattice.top()) == 0
    for a in lattice.minimal:
        assert lattice.downset_sum(a) == (-1) ** len(a)
    for b in lattice.elements:
        if b not in lattice.minimal and b != lattice.top():
            assert lattice.downset_sum(b) == 0
    with pytest.raises(ValueError):
        lattice.downset_sum(SetPartition([{0, 1, 6, 7}, {2, 3, 4, 5}]))


def test_mobius_inversion(example_digraph):
    lattice = build_eulerian_semilattice(example_digraph)
    top = lattice.top()
    total = sum(
        lattice.mobius(b, top) * lattice.downset_sum(b) for b in lattice.elements
    )
    assert total == lattice.signed_product(top) == -6


def test_mobius_restricts_to_up_sets(example_digraph):
    from eulerpart.poset import subposet

    lattice = build_eulerian_semilattice(example_digraph)
    top = lattice.top()
    for a in lattice.elements:
        up = subposet(lattice, lattice.up_set(a))
        assert lattice.mobius(a, top) == up.mobius(a, top)


def test_circuit_partition_counts(example_digraph, two_cycle):
    assert circuit_partition_counts(example_digraph) == (6, 11, 6, 1)
    assert circuit_partition_counts(two_cycle) == (1,)


def test_counts_build_no_order(example_digraph, monkeypatch):
    """f_k and everything read from it sum over the element set alone; only
    the semilattice builds the refinement order."""

    class OrderBuilt(Exception):
        pass

    def refuse(*args):
        raise OrderBuilt

    monkeypatch.setattr(lattice_module, "coarsening_order", refuse)
    with pytest.raises(OrderBuilt):
        build_eulerian_semilattice(example_digraph)
    t = IntPoly.t()
    assert circuit_partition_counts(example_digraph) == (6, 11, 6, 1)
    assert martin_polynomial(example_digraph).s == t * (t + 1) * (t + 2)
    assert verify_cancellation(example_digraph).alternating_sum == 0
    assert martin_divisibility(example_digraph).quotient == t + 2
    with pytest.raises(NotEulerianError):
        circuit_partition_counts(Digraph(2, [(0, 1)]))


def test_cap_refuses_during_generation(example_digraph, monkeypatch, capsys):
    monkeypatch.setattr(lattice_module, "SEMILATTICE_CAP", 10)  # the example has 16
    message = "semilattice has more than 10 elements"
    with pytest.raises(CapExceededError, match=message):
        martin_polynomial(example_digraph)
    with pytest.raises(CapExceededError, match=message):
        build_eulerian_semilattice(example_digraph)
    assert main(["martin", EXAMPLE]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    # six parallel 2-cycles: 720 cycle partitions, each coarsened 203 ways;
    # the listing refuses at the eleventh, before any coarsening
    six = Digraph(2, [(0, 1), (1, 0)] * 6)
    calls = []
    real = lattice_module.add_coarsenings
    monkeypatch.setattr(
        lattice_module,
        "add_coarsenings",
        lambda seen, arcs, verts, cap: calls.append(arcs) or real(seen, arcs, verts, cap),
    )
    with pytest.raises(CapExceededError, match=message):
        circuit_partition_counts(six)
    assert calls == []
    # with the listing uncapped, the generator refuses inside the first one
    real_cycles = lattice_module.cycle_partitions
    monkeypatch.setattr(lattice_module, "cycle_partitions", lambda d, cap: real_cycles(d))
    with pytest.raises(CapExceededError, match=message):
        circuit_partition_counts(six)
    assert len(calls) == 1


def test_block_counts_memoised_within_one_call(monkeypatch):
    """Each distinct block's circuits are counted once per call, and the memo
    does not outlive the call: a second call counts them all again."""
    calls = []
    real = lattice_module._best_from_arcs
    monkeypatch.setattr(
        lattice_module, "_best_from_arcs", lambda arcs: calls.append(arcs) or real(arcs)
    )
    d = parse_graph_file(EXAMPLE)
    assert circuit_partition_counts(d) == (6, 11, 6, 1)
    assert len(calls) == 18
    assert circuit_partition_counts(d) == (6, 11, 6, 1)
    assert len(calls) == 36
    calls.clear()
    lattice = build_eulerian_semilattice(d)
    assert len(calls) == 18
    assert len(lattice) == 16
    assert all(lattice.products[b] == signed_circuit_product(d, b) for b in lattice.elements)
    calls.clear()
    assert circuit_partition_counts(Digraph(2, [(0, 1), (1, 0)] * 5))[0] == 2880
    assert len(calls) == 251


def test_five_parallel_two_cycles():
    """A 1496-element semilattice: f_1 against the BEST count, the
    cancellation sum and s(2) against the out-degree factorials."""
    d = Digraph(2, [(0, 1), (1, 0)] * 5)
    polys = martin_polynomial(d)
    assert polys.f[0] == count_circuits_best(d) == 2880
    assert sum((-1) ** k * fk for k, fk in enumerate(polys.f, start=1)) == 0
    assert polys.s(2) == out_degree_factorial_product(d)


def test_counts_match_direct_partition_enumeration(example_digraph):
    """f_k again, from scratch: scan every set partition of the arc set."""
    d = example_digraph
    totals = {}
    for b in all_set_partitions(range(d.m)):
        value = signed_circuit_product(d, b)
        if value:
            k = len(b)
            totals[k] = totals.get(k, 0) + (-1) ** k * value
    f = circuit_partition_counts(d)
    assert totals == {k: fk for k, fk in enumerate(f, start=1)}


def test_martin_polynomial_example(example_digraph):
    polys = martin_polynomial(example_digraph)
    t = IntPoly.t()
    assert polys.s == t**3 + 3 * t**2 + 2 * t
    assert polys.s == t * (t + 1) * (t + 2)
    assert polys.r == 6 * t + 11 * t**2 + 6 * t**3 + t**4
    assert polys.s(1) == 6
    assert polys.s(2) == 24
    assert polys.r(0) == 0
    # s(2) equals the product of out-degree factorials
    prod = 1
    for v in range(example_digraph.n):
        for i in range(2, example_digraph.out_degree(v) + 1):
            prod *= i
    assert polys.s(2) == prod


def test_martin_polynomial_cycle(three_cycle):
    polys = martin_polynomial(three_cycle)
    assert polys.s == IntPoly.one()
    assert polys.r == IntPoly.t()


def test_cancellation(example_digraph, two_cycle, three_cycle):
    rep = verify_cancellation(example_digraph)
    assert rep.alternating_sum == 0 and rep.holds and not rep.is_single_cycle
    rep3 = verify_cancellation(three_cycle)
    assert rep3.alternating_sum == -1 and rep3.is_single_cycle and rep3.holds
    rep2 = verify_cancellation(two_cycle)
    assert rep2.alternating_sum == -1 and rep2.is_single_cycle


def test_martin_chromatic_identity_example(example_digraph):
    report = martin_chromatic_identity(example_digraph)
    t = IntPoly.t()
    chis = {a: chi for a, chi in report.chi_by_partition}
    assert chis[A1] == t**3 - 5 * t**2 + 8 * t - 4
    assert chis[A2] == t**2 - 3 * t + 2
    assert report.holds and report.r_identity_holds


def test_martin_chromatic_identity_single_cycle(three_cycle):
    report = martin_chromatic_identity(three_cycle)
    assert report.holds and report.r_identity_holds
    assert report.lhs == IntPoly.one()


def test_divisibility_example(example_digraph):
    rep = martin_divisibility(example_digraph)
    t = IntPoly.t()
    assert rep.divisor == t * (t + 1)
    assert rep.divisible and rep.quotient == t + 2


def test_divisibility_rejects_small_degree(three_cycle):
    with pytest.raises(ValueError):
        martin_divisibility(three_cycle)


def test_delta_two_vanishes_at_zero():
    d = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    assert is_eulerian(d)
    rep = martin_divisibility(d)
    assert rep.divisible
    assert martin_polynomial(d).s(0) == 0


def _reference_parts(d):
    """The element set built without masks or the generator: each cycle
    partition coarsened along every set partition of its cycles whose blocks
    induce connected subgraphs of its intersection Multigraph, with
    ``SetPartition`` unions."""
    out = set()
    for a in cycle_partitions(d):
        graph = intersection_graph(d, a)
        for groups in all_set_partitions(range(len(a))):
            if all(graph.induces_connected(g) for g in groups.blocks):
                out.add(
                    SetPartition([frozenset().union(*(a.blocks[i] for i in g)) for g in groups])
                )
    return out


def test_mask_generator_matches_reference_construction():
    digraphs = list(eulerian_digraph_corpus(8)) + [parallel_two_cycles(5)]
    for d in digraphs:
        parts = eulerian_parts(d, cycle_partitions(d))
        assert len(parts) == len(set(parts))
        assert set(parts) == _reference_parts(d)
    assert len(parts) == 1496


# SHA-256 of repr(circuit_partition_counts(d)) + "\n" over the 871 digraphs of
# eulerian_digraph_corpus(10), written with the SetPartition-based generator
COUNTS_DIGEST_10 = "7b2b0094b4f31cc4a799b40ba490afd2028fef484e5562f6bf5a3e7afb5c01a2"


def test_orders_equal_the_pairwise_refinement_order(monkeypatch):
    """Both lattices read their order from up-sets; the elements and down
    masks equal ``refinement_order``'s, which compares every pair, and
    neither build compares a pair."""
    t_inputs = list(eulerian_digraph_corpus(8)) + [parallel_two_cycles(4)]
    bond_inputs = list(connected_simple_graphs(5)) + [complete_graph(6)]
    real_from_leq = FinitePoset.from_leq.__func__
    calls = []
    monkeypatch.setattr(
        FinitePoset,
        "from_leq",
        classmethod(lambda cls, *args: calls.append(args) or real_from_leq(cls, *args)),
    )
    built = [build_eulerian_semilattice(d) for d in t_inputs]
    built += [BondLattice(g) for g in bond_inputs]
    assert calls == []
    for lattice in built:
        oracle = refinement_order(lattice.elements)
        assert oracle.elements == lattice.elements
        assert oracle.down == lattice.down
    assert len(calls) == len(built)
    assert len(built[len(t_inputs) - 1]) == 131  # four parallel 2-cycles
    assert len(built[-1]) == 203  # K6: Bell(6)


def test_counts_digest_pinned():
    text = "".join(repr(circuit_partition_counts(d)) + "\n" for d in eulerian_digraph_corpus(10))
    assert hashlib.sha256(text.encode()).hexdigest() == COUNTS_DIGEST_10


def test_identity_builds_one_bond_lattice_per_intersection_graph(example_digraph, monkeypatch):
    built = []
    real = lattice_module.BondLattice
    monkeypatch.setattr(lattice_module, "BondLattice", lambda g: built.append(g) or real(g))
    report = martin_chromatic_identity(parallel_two_cycles(6))
    assert report.holds and report.r_identity_holds
    assert len(report.chi_by_partition) == 720
    assert len(built) == 1
    built.clear()
    report = martin_chromatic_identity(example_digraph)
    assert report.holds and report.r_identity_holds
    assert len(built) == 2


def _parallel_two_cycles_file(tmp_path, k):
    path = tmp_path / f"parallel{k}.txt"
    path.write_text("digraph 2\n" + "".join(f"a{i} 1 2\nb{i} 2 1\n" for i in range(k)))
    return str(path)


def test_lattice_dump_answers_on_five_parallel_two_cycles(tmp_path, capsys):
    """1496 elements with their order: down-set sums are (-1)^k on the
    k-cycle partitions and 0 above them."""
    path = _parallel_two_cycles_file(tmp_path, 5)
    start = time.monotonic()
    assert main(["lattice-dump", path, "--format", "json"]) == 0
    assert time.monotonic() - start < 2.0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["size"] == len(result["elements"]) == 1496
    minimal = set(result["minimal"])
    assert len(minimal) == 120
    for i, e in enumerate(result["elements"]):
        assert e["downset_sum"] == ((-1) ** len(e["blocks"]) if i in minimal else 0)


def test_lattice_dump_refuses_before_the_order(tmp_path, monkeypatch, capsys):
    """Seven parallel 2-cycles pass SEMILATTICE_CAP during generation: the
    CLI exits 2 before any order is built."""

    def refuse(*args):
        raise AssertionError("refinement order built past the cap")

    monkeypatch.setattr(lattice_module, "coarsening_order", refuse)
    path = _parallel_two_cycles_file(tmp_path, 7)
    start = time.monotonic()
    assert main(["lattice-dump", path]) == 2
    assert time.monotonic() - start < 5.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: semilattice has more than {lattice_module.SEMILATTICE_CAP} elements\n"


def test_digraph_commands_refuse_many_cycle_partitions(tmp_path, capsys):
    """The complete digraph on 6 vertices has more cycle partitions than
    SEMILATTICE_CAP; the digraph subcommands refuse while listing them."""
    path = tmp_path / "complete6.txt"
    arcs = [(u, v) for u in range(1, 7) for v in range(1, 7) if u != v]
    path.write_text("digraph 6\n" + "".join(f"a{i} {u} {v}\n" for i, (u, v) in enumerate(arcs)))
    start = time.monotonic()
    assert main(["martin", str(path)]) == 2
    assert time.monotonic() - start < 5.0
    message = f"error: semilattice has more than {lattice_module.SEMILATTICE_CAP} elements\n"
    assert capsys.readouterr().err == message
