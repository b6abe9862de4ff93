import hashlib
import json
import math
import random
import time
from collections import Counter
from pathlib import Path

import pytest

import eulerpart.bonds as bonds_module
import eulerpart.lattice as lattice_module
import eulerpart.poset as poset_module
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
    semilattice_partition_counts,
    verify_cancellation,
)
from eulerpart.partition import SetPartition, all_set_partitions
from eulerpart.poly import IntPoly
from eulerpart.poset import FinitePoset, bits
from eulerpart.trails import (
    count_circuits_best,
    cycle_partition_masks,
    cycle_partition_orbits,
    cycle_partitions,
    intersection_graph,
)
from eulerpart.verify import VerifyConfig, check_g_vanishing_and_mobius, check_rota
from oracles import refinement_order

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
    from oracles import subposet

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


def test_cap_refuses_during_generation(example_digraph, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(lattice_module, "SEMILATTICE_CAP", 10)  # the example has 16
    message = "semilattice has more than 10 elements"
    orbits = "more than 10 cycle partitions up to parallel arcs"
    # six parallel 2-cycles: 720 cycle partitions, each coarsened 203 ways,
    # but one orbit under swaps of parallel arcs, which the chromatic route
    # lists alone; K4* with one 2-cycle doubled has 88 cycle partitions in
    # 25 orbits, and the chromatic route refuses while it lists them
    six = Digraph(2, [(0, 1), (1, 0)] * 6)
    assert sum(martin_polynomial(six).f) == out_degree_factorial_product(six)
    arcs = [(u, v) for u in range(4) for v in range(4) if u != v] + [(0, 1), (1, 0)]
    with pytest.raises(CapExceededError, match=orbits):
        martin_polynomial(Digraph(4, arcs))
    with pytest.raises(CapExceededError, match=message):
        build_eulerian_semilattice(example_digraph)
    assert main(["martin", _write_digraph(tmp_path, "k4plus.txt", 4, arcs)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {orbits}\n"
    assert main(["martin", _parallel_two_cycles_file(tmp_path, 6)]) == 0
    capsys.readouterr()
    # the semilattice's listing refuses at the eleventh, before any
    # coarsening
    calls = []
    real = lattice_module.add_coarsenings
    monkeypatch.setattr(
        lattice_module,
        "add_coarsenings",
        lambda seen, arcs, verts, cap: calls.append(arcs) or real(seen, arcs, verts, cap),
    )
    with pytest.raises(CapExceededError, match=message):
        semilattice_partition_counts(six)
    assert calls == []
    # with the listing uncapped, the first one is refused before it is
    # coarsened: its G_a is K6, whose bond lattice has at least 2^5 > 10
    # elements
    real_cycles = lattice_module.cycle_partition_masks
    monkeypatch.setattr(lattice_module, "cycle_partition_masks", lambda d, cap: real_cycles(d))
    with pytest.raises(CapExceededError, match=message):
        semilattice_partition_counts(six)
    assert len(calls) == 0


def test_block_counts_kept_once_per_call(monkeypatch):
    """Each distinct merged block's circuits are counted once per call and
    kept for that call only: on the example, a call makes one kernel call
    for each of its 12 distinct blocks that are not cycles (a cycle counts
    1 by construction), and a second call makes 12 more.  So a kernel fault
    planted after a warm call is called, with no store to empty."""
    calls = []
    real = lattice_module._best_from_arcs

    def counting(arcs):
        calls.append(tuple(arcs))
        return real(arcs)

    monkeypatch.setattr(lattice_module, "_best_from_arcs", counting)
    d = parse_graph_file(EXAMPLE)
    assert semilattice_partition_counts(d) == (6, 11, 6, 1)
    assert len(calls) == len(set(calls)) == 12
    assert semilattice_partition_counts(d) == (6, 11, 6, 1)
    assert len(calls) == 24 and set(calls[12:]) == set(calls[:12])
    lattice = build_eulerian_semilattice(d)
    assert len(calls) == 36
    assert len(lattice) == 16
    assert all(lattice.signed_product(b) == signed_circuit_product(d, b) for b in lattice.elements)

    faulty = []
    monkeypatch.setattr(
        lattice_module, "_best_from_arcs", lambda arcs: faulty.append(arcs) or real(arcs) + 1
    )
    assert semilattice_partition_counts(d) != (6, 11, 6, 1)
    assert len(faulty) == 12


def _closed_walk_digraph(rng, max_arcs):
    """A connected Eulerian digraph with at most max_arcs arcs, as a union
    of closed walks, each after the first starting at a vertex already
    touched; parallel arcs come from walks that repeat a step."""
    arcs = []
    n = 1
    while len(arcs) < max_arcs - 1:
        length = rng.randint(2, min(4, max_arcs - len(arcs)))
        walk = [rng.randrange(n)]
        top = n  # each step goes to a vertex below top, or to top itself
        for _ in range(length - 1):
            walk.append(rng.choice([v for v in range(top + 1) if v != walk[-1]]))
            top = max(top, walk[-1] + 1)
        if walk[-1] == walk[0]:
            continue
        arcs += zip(walk, walk[1:] + walk[:1])
        n = top
        if rng.random() < 0.3:
            break
    return Digraph(n, arcs)


def _shuffled(d, rng):
    perm = list(range(d.n))
    rng.shuffle(perm)
    arcs = [(perm[u], perm[v]) for u, v in d.arcs]
    rng.shuffle(arcs)
    return Digraph(d.n, arcs)


def test_route_agrees_on_shuffled_closed_walks():
    """Seeded unions of closed walks, shuffled in vertex labels and arc
    order, give the same f_k as their unshuffled copies, with f_1 the BEST
    count and the f_k summing to the out-degree factorials; so do a
    17-cycle and a 17-arc cycle through it, on 33 vertices, and a
    40-cycle."""
    rng = random.Random(20261019)
    digraphs = [_closed_walk_digraph(rng, 9) for _ in range(200)]
    first = [(i, (i + 1) % 17) for i in range(17)]
    second = [(0, 17), *((i, i + 1) for i in range(17, 32)), (32, 0)]
    digraphs += [Digraph(33, first + second), Digraph(40, [(i, (i + 1) % 40) for i in range(40)])]
    assert max(d.m for d in digraphs[:-2]) <= 9
    assert any(max(Counter(d.arcs).values()) > 1 for d in digraphs)
    for d in digraphs:
        f = circuit_partition_counts(d)
        assert circuit_partition_counts(_shuffled(d, rng)) == f
        assert f[0] == count_circuits_best(d)
        assert sum(f) == out_degree_factorial_product(d)


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


def _expanded_by_powers(f):
    """r and s summed term by term, with the powers of t - 1 multiplied out."""
    t = IntPoly.t()
    r = IntPoly.zero()
    s = IntPoly.zero()
    shifted = t - 1
    for k, fk in enumerate(f, start=1):
        r = r + fk * t ** k
        s = s + fk * shifted ** (k - 1)
    return r, s


def test_martin_polynomial_matches_expansion_by_powers():
    """The binomial expansion of s and the coefficient list of r equal
    sum f_k t^k and sum f_k (t-1)^(k-1) multiplied out."""
    digraphs = list(eulerian_digraph_corpus(8))
    for d in digraphs:
        polys = martin_polynomial(d)
        assert (polys.r, polys.s) == _expanded_by_powers(polys.f)
    assert max(len(martin_polynomial(d).f) for d in digraphs) >= 4


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
        parts = eulerian_parts(d)
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


def test_order_is_read_from_merges_alone(monkeypatch):
    """Given the elements alone, ``coarsening_order`` pushes each down mask
    along its merges that are elements and regenerates no up-set: with the
    generator patched to raise, both lattices' orders and partitions still
    equal ``refinement_order``'s."""
    inputs = []
    for d in list(eulerian_digraph_corpus(8)) + [parallel_two_cycles(4)]:
        inputs.append(lattice_module._element_masks(lattice_module.cycle_partition_masks(d)))
    for g in list(connected_simple_graphs(5)) + [complete_graph(6)]:
        inputs.append(list(bonds_module._connected_masks(g)))

    def refuse(*args):
        raise AssertionError("an up-set was regenerated")

    monkeypatch.setattr(poset_module, "add_coarsenings", refuse)
    for elements in inputs:
        ordered, partitions, down = poset_module.coarsening_order(elements)
        oracle = refinement_order([SetPartition(map(poset_module.bits, x)) for x in elements])
        assert [SetPartition(map(poset_module.bits, x)) for x in ordered] == list(oracle.elements)
        assert partitions == list(oracle.elements)
        assert down == oracle.down


def _without_one_middle_element(real, starts):
    """The generator's elements less the first one that is neither a start
    (a minimal element) nor the one-block top."""

    def generate(*args):
        elements = list(real(*args))
        kept = {frozenset(x) for x in starts(*args)}
        drop = next((x for x in elements if x not in kept and len(x) > 1), None)
        return [x for x in elements if x != drop]

    return generate


def test_an_element_missing_from_the_generator_fails_the_order_checks(monkeypatch):
    """The order is built from the elements it is given: one element left
    out loses the relations through it, and the down-set sums of T(D) and
    Rota's theorem on the bond lattice both catch that.  T(D) takes up to 6
    arcs: up to 4, every element is a cycle partition or the top."""
    checks = [
        (check_g_vanishing_and_mobius, VerifyConfig(max_edges=6), lattice_module,
         "_element_masks", lambda minimal: [[arcs for arcs, _ in a] for a in minimal]),
        (check_rota, VerifyConfig(max_vertices=4), bonds_module, "_connected_masks",
         lambda g: [[1 << v for v in range(g.n)]]),
    ]
    for check, config, owner, attr, starts in checks:
        assert check(config).ok
        monkeypatch.setattr(owner, attr, _without_one_middle_element(getattr(owner, attr), starts))
        assert not check(config).ok


def test_a_lone_long_cycle_counts_no_circuits(tmp_path, capsys):
    """A directed cycle has one Eulerian circuit, so its semilattice's one
    element needs no kernel call: on 600 arcs, ``identity`` and
    ``lattice-dump`` each answer within 1 s."""
    n = 600
    path = _write_digraph(tmp_path, "cycle.txt", n, [(i, (i + 1) % n) for i in range(n)])
    start = time.monotonic()
    assert main(["identity", path, "--format", "json"]) == 0
    assert time.monotonic() - start < 1.0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["holds"] and result["r_identity_holds"]
    start = time.monotonic()
    assert main(["lattice-dump", path, "--format", "json"]) == 0
    assert time.monotonic() - start < 1.0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["size"] == len(result["elements"]) == 1
    assert result["elements"][0]["signed_circuits"] == result["elements"][0]["downset_sum"] == -1


def test_a_lone_3000_arc_cycle_is_walked_without_recursion(tmp_path, capsys):
    """The cycle walk steps over each vertex with one out-arc left, so a
    3000-arc directed cycle, past the recursion limit one frame per arc,
    answers all four commands within 1 s each, with f = [1]."""
    n = 3000
    path = _write_digraph(tmp_path, "cycle.txt", n, [(i, (i + 1) % n) for i in range(n)])
    results = {}
    for command in ("martin", "cancellation", "identity", "lattice-dump"):
        start = time.monotonic()
        assert main([command, path, "--format", "json"]) == 0
        assert time.monotonic() - start < 1.0
        results[command] = json.loads(capsys.readouterr().out)["result"]
    assert results["martin"]["f"] == results["cancellation"]["f"] == [1]
    assert results["cancellation"]["holds"] and results["cancellation"]["is_single_cycle"]
    assert results["identity"]["holds"] and results["identity"]["r_identity_holds"]
    assert results["identity"]["s"] == [1]
    assert results["lattice-dump"]["size"] == 1


def test_a_long_chain_of_two_cycles_is_refused_before_coarsening(tmp_path, capsys):
    """On 399 directed 2-cycles in a row, the one cycle partition's G_a is a
    path, whose bond lattice has 2^398 elements, so T(D) is refused before
    any pair of blocks is scanned: within 1 s, with the cap's message."""
    path = _write_digraph(tmp_path, "chain.txt", 400, _chain_arcs(400))
    message = f"error: semilattice has more than {lattice_module.SEMILATTICE_CAP} elements\n"
    for command in ("identity", "lattice-dump"):
        start = time.monotonic()
        assert main([command, path, "--format", "json"]) == 2
        assert time.monotonic() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message


def test_coarsening_from_a_seen_start_adds_nothing():
    """Each element's merges are made when it is added, so a start already
    in ``seen`` (reached from an earlier cycle partition) adds nothing."""
    path = [0b01, 0b11, 0b10]  # vertices 0 - 1 - 2, touching on edge masks
    payloads = [1 << v for v in range(3)]
    seen = {}
    poset_module.add_coarsenings(seen, payloads, path, math.inf)
    assert len(seen) == 4  # the connected partitions of a 3-vertex path
    before = list(seen)
    poset_module.add_coarsenings(seen, payloads, path, math.inf)
    poset_module.add_coarsenings(seen, [0b011, 0b100], [0b11, 0b10], math.inf)
    assert list(seen) == before
    lone = {frozenset(payloads): None}
    poset_module.add_coarsenings(lone, payloads, path, math.inf)
    assert lone == {frozenset(payloads): None}


def test_counts_digest_pinned():
    text = "".join(repr(circuit_partition_counts(d)) + "\n" for d in eulerian_digraph_corpus(10))
    assert hashlib.sha256(text.encode()).hexdigest() == COUNTS_DIGEST_10


def test_identity_builds_one_bond_lattice_per_intersection_graph(example_digraph, monkeypatch):
    built = []
    graphs = []
    real = lattice_module.BondLattice
    real_graph = lattice_module.intersection_graph
    monkeypatch.setattr(lattice_module, "BondLattice", lambda g: built.append(g) or real(g))
    monkeypatch.setattr(
        lattice_module, "intersection_graph", lambda d, a: graphs.append(a) or real_graph(d, a)
    )
    report = martin_chromatic_identity(parallel_two_cycles(6))
    assert report.holds and report.r_identity_holds
    assert len(report.chi_by_partition) == 720
    assert len(built) == len(graphs) == 1
    built.clear()
    graphs.clear()
    report = martin_chromatic_identity(example_digraph)
    assert report.holds and report.r_identity_holds
    assert len(built) == len(graphs) == 2


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
    SEMILATTICE_CAP, and no parallel arcs; ``martin`` refuses while listing
    them, naming the cycle partitions."""
    path = tmp_path / "complete6.txt"
    arcs = [(u, v) for u in range(1, 7) for v in range(1, 7) if u != v]
    path.write_text("digraph 6\n" + "".join(f"a{i} {u} {v}\n" for i, (u, v) in enumerate(arcs)))
    start = time.monotonic()
    assert main(["martin", str(path)]) == 2
    assert time.monotonic() - start < 5.0
    cap = lattice_module.SEMILATTICE_CAP
    message = f"error: more than {cap} cycle partitions up to parallel arcs\n"
    assert capsys.readouterr().err == message


def _write_digraph(tmp_path, name, n, arcs):
    path = tmp_path / name
    lines = "".join(f"a{i} {u + 1} {v + 1}\n" for i, (u, v) in enumerate(arcs))
    path.write_text(f"digraph {n}\n{lines}")
    return str(path)


def _chain_arcs(n):
    """Both arcs on each edge of the path on n vertices: n - 1 2-cycles in a
    row, the only cycle partition, whose intersection graph is a path."""
    return [arc for i in range(n - 1) for arc in ((i, i + 1), (i + 1, i))]


def test_independent_partition_counts_of_small_graphs():
    """c_j counts the partitions into j independent sets: the path 0-1-2
    has {0,2}|{1} and the three singletons, K3 only the singletons, the
    edgeless graph on 3 vertices the Bell row, and the 4-cycle 0-1-2-3
    {0,2}|{1,3}, two with one pair and the four singletons.  The chordal
    three take out one vertex a step, at 4 + 3 + 2 terms.  The 4-cycle has
    no vertex to take out: it lists {0} (4 terms) and takes out 1, 2, 3
    (4 + 3 + 2), then lists {0, 2} (3) and takes out 1 (3), and a budget
    below that refuses."""
    counts = bonds_module._independent_partition_counts
    assert counts((0b010, 0b101, 0b010), 100) == ([0, 0, 1, 1], 9)
    assert counts((0b110, 0b101, 0b011), 100) == ([0, 0, 0, 1], 9)
    assert counts((0, 0, 0), 100) == ([0, 1, 3, 1], 9)
    square = (0b1010, 0b0101, 0b1010, 0b0101)
    assert counts(square, 100) == ([0, 0, 1, 2, 1], 19)
    with pytest.raises(CapExceededError, match="chromatic route capped"):
        counts(square, 18)


def test_chromatic_route_equals_the_semilattice_on_relabelled_inputs():
    """Seeded unions of closed walks with shuffled labels, and the corpus up
    to 8 arcs: the chromatic route and the semilattice give the same f_k."""
    rng = random.Random(20261020)
    digraphs = list(eulerian_digraph_corpus(8))
    digraphs += [_shuffled(_closed_walk_digraph(rng, 10), rng) for _ in range(100)]
    for d in digraphs:
        assert circuit_partition_counts(d) == semilattice_partition_counts(d)


def test_chromatic_route_reads_only_the_cycle_partitions(example_digraph, monkeypatch):
    """f_k and everything read from it come from the cycle partitions'
    intersection graphs alone: no element of T(D) above them, no circuit
    count, no intersection-graph multigraph and no bond-lattice routine."""

    def refuse(*args, **kwargs):
        raise AssertionError("the chromatic route reached past the cycle partitions")

    for name in (
        "_element_masks", "add_coarsenings", "_signed_mask_product", "_best_from_arcs",
        "intersection_graph", "BondLattice",
    ):
        monkeypatch.setattr(lattice_module, name, refuse)
    for name in ("chromatic_polynomial", "chromatic_polynomial_whitney", "nbc_bases"):
        monkeypatch.setattr(bonds_module, name, refuse)
    t = IntPoly.t()
    assert circuit_partition_counts(example_digraph) == (6, 11, 6, 1)
    assert martin_polynomial(example_digraph).s == t * (t + 1) * (t + 2)
    assert verify_cancellation(example_digraph).alternating_sum == 0
    assert martin_divisibility(example_digraph).quotient == t + 2
    assert martin_polynomial(parallel_two_cycles(6)).f[0] == count_circuits_best(
        parallel_two_cycles(6)
    )


def test_martin_and_cancellation_answer_one_size_up(tmp_path, capsys):
    """K5* (the complete symmetric digraph on 5 vertices) and seven parallel
    2-cycles pass SEMILATTICE_CAP, yet have few enough cycle partitions for
    the chromatic route: each command answers within 1 s, with the f_k
    summing to the out-degree factorials and f_1 the BEST count."""
    k5 = [(u, v) for u in range(5) for v in range(5) if u != v]
    cases = [(5, k5), (2, [(0, 1), (1, 0)] * 7)]
    for n, arcs in cases:
        d = Digraph(n, arcs)
        path = _write_digraph(tmp_path, f"digraph{n}.txt", n, arcs)
        for command in ("martin", "cancellation"):
            start = time.monotonic()
            assert main([command, path, "--format", "json"]) == 0
            assert time.monotonic() - start < 1.0
            result = json.loads(capsys.readouterr().out)["result"]
            assert sum(result["f"]) == out_degree_factorial_product(d)
            assert result["f"][0] == count_circuits_best(d)
        assert result["alternating_sum"] == 0 and result["holds"]


def _ring_arcs(n):
    """Both arcs on each edge of the cycle on n vertices: the n 2-cycles,
    whose intersection graph is the n-cycle, and the two directed n-cycles."""
    return [arc for i in range(n) for arc in ((i, (i + 1) % n), ((i + 1) % n, i))]


def test_martin_answers_chains_and_stars_and_refuses_a_long_ring(tmp_path, capsys):
    """A chain of 2-cycles, and a directed cycle with a pendant 2-cycle at
    each vertex, have one cycle partition, whose intersection graph is a
    path or a star: the route takes out one vertex a step, and answers
    r(t) = t (t+1)^(k-1) for k cycles, as chi(G; x) = x (x-1)^(k-1) for a
    tree, so s(t) = ((t-1) + 1)^(k-1) = t^(k-1).  The 600-vertex chain
    is answered too.  A ring of 2-cycles gives the n-cycle, whose
    independent sets grow exponentially: the route refuses at
    CHROMATIC_TERM_CAP, before it hangs, with exit 2."""
    hub = [arc for i in range(14) for arc in ((i, (i + 1) % 14), (i, 14 + i), (14 + i, i))]
    cases = [
        (30, _chain_arcs(30), 29),
        (12, _chain_arcs(12), 11),
        (28, hub, 15),
        (600, _chain_arcs(600), 599),
    ]
    for n, arcs, cycles in cases:
        path = _write_digraph(tmp_path, f"tree{n}.txt", n, arcs)
        start = time.monotonic()
        assert main(["martin", path, "--format", "json"]) == 0
        assert time.monotonic() - start < 1.0
        result = json.loads(capsys.readouterr().out)["result"]
        f = tuple(result["f"])
        assert f == tuple(math.comb(cycles - 1, k) for k in range(cycles))
        assert result["s"] == [0] * (cycles - 1) + [1]
        d = Digraph(n, arcs)
        assert sum(f) == out_degree_factorial_product(d)
        # the BEST count of the long chain is a 599 x 599 determinant, seconds of work
        assert n == 600 or f[0] == count_circuits_best(d)
    d = Digraph(12, _chain_arcs(12))
    assert circuit_partition_counts(d) == semilattice_partition_counts(d)
    path = _write_digraph(tmp_path, "ring40.txt", 40, _ring_arcs(40))
    start = time.monotonic()
    assert main(["martin", path]) == 2
    assert time.monotonic() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    cap = bonds_module.CHROMATIC_TERM_CAP
    assert captured.err == f"error: chromatic route capped at {cap} terms\n"


def _class_multiset(arcs, partition):
    """A cycle partition up to swaps of parallel arcs: the multiset of its
    cycles, each as the set of its arcs' (tail, head) pairs."""
    return frozenset(Counter(frozenset(arcs[e] for e in bits(c)) for c, _ in partition).items())


def _signed_chromatic_sum(partitions, weights):
    """sum over the partitions of weight (-1)^|a| chi(G_a), in the
    falling-factorial basis of the independent-set counts."""
    total = Counter()
    for adj, weight in zip(lattice_module._intersection_masks(partitions), weights):
        counts, _ = bonds_module._independent_partition_counts(adj, math.inf)
        for j, c in enumerate(counts):
            total[j] += (-1) ** len(adj) * weight * c
    return {j: c for j, c in total.items() if c}


def test_orbit_listing_lists_each_orbit_once_weighed_by_its_size():
    """On the corpus up to 10 arcs and on seeded relabelled unions of closed
    walks: the orbit listing names each labelled cycle partition's orbit
    under swaps of parallel arcs once, with the number of labelled
    partitions in it, so the weights sum to the labelled count and the
    signed chromatic sums agree."""
    rng = random.Random(20261021)
    digraphs = list(eulerian_digraph_corpus(10))
    digraphs += [_shuffled(_closed_walk_digraph(rng, 11), rng) for _ in range(150)]
    for d in digraphs:
        labelled = cycle_partition_masks(d)
        orbits, weights = cycle_partition_orbits(d)
        assert sum(weights) == len(labelled)
        expected = Counter(_class_multiset(d.arcs, a) for a in labelled)
        arcs = sorted(d.arcs)  # the listing's ids
        listed = [_class_multiset(arcs, a) for a in orbits]
        assert dict(zip(listed, weights)) == expected and len(listed) == len(expected)
        assert _signed_chromatic_sum(orbits, weights) == _signed_chromatic_sum(
            labelled, [1] * len(labelled)
        )


def test_parallel_two_cycles_are_one_orbit():
    """k parallel 2-cycles have k! cycle partitions, the matchings of the
    arcs one way to the arcs back, and all of them are one orbit."""
    for k in range(1, 9):
        orbits, weights = cycle_partition_orbits(parallel_two_cycles(k))
        assert len(orbits) == 1 and weights == [math.factorial(k)]


def test_martin_answers_parallel_classes_within_a_second(tmp_path, capsys):
    """8, 10 and 16 parallel 2-cycles (up to 16! cycle partitions) and K4*
    with every arc doubled (292 orbits) pass SEMILATTICE_CAP labelled, but
    not up to swaps of parallel arcs: ``martin`` answers each within 1 s,
    with the f_k summing to the out-degree factorials and f_1 the BEST
    count."""
    doubled = [(u, v) for u in range(4) for v in range(4) if u != v] * 2
    cases = [(2, [(0, 1), (1, 0)] * k) for k in (8, 10, 16)] + [(4, doubled)]
    for n, arcs in cases:
        d = Digraph(n, arcs)
        path = _write_digraph(tmp_path, f"parallel{len(arcs)}.txt", n, arcs)
        start = time.monotonic()
        assert main(["martin", path, "--format", "json"]) == 0
        assert time.monotonic() - start < 1.0
        f = json.loads(capsys.readouterr().out)["result"]["f"]
        assert sum(f) == out_degree_factorial_product(d)
        assert f[0] == count_circuits_best(d)
