import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import eulerpart.trails as trails_module
from eulerpart.corpus import eulerian_digraph_corpus, veblen_corpus
from eulerpart.errors import CapExceededError, InsertionError, NotEulerianError
from eulerpart.graphs import Digraph, Multigraph
from eulerpart.partition import SetPartition
from eulerpart.poset import bits
from eulerpart.trails import (
    Circuit,
    Trail,
    _best_from_arcs,
    _count_circuits_all_orientations,
    count_circuits_best,
    count_eulerian_circuits,
    cycle_partition_masks,
    cycle_partitions,
    cycle_sequence,
    det_bareiss,
    eulerian_circuits,
    eulerian_trails_ending_at,
    insert_trail,
    intersection_graph,
    reassemble,
    edge_partition,
    trails_with_cycle_partition,
)
from oracles import directed_cycles_through


def test_trail_validation(two_cycle):
    w = Trail(two_cycle, (0, 1, 0), (0, 1))
    assert w.closed and len(w) == 2
    with pytest.raises(ValueError):
        Trail(two_cycle, (0, 1, 0), (0, 0))  # repeated edge
    with pytest.raises(ValueError):
        Trail(two_cycle, (1, 0, 1), (0, 1))  # wrong incidence


def test_circuit_canonical_rotation(three_cycle):
    w = Trail(three_cycle, (1, 2, 0, 1), (1, 2, 0))
    c = Circuit(w)
    assert c.edges == (0, 1, 2)
    assert c.vertices[0] == 0
    assert Circuit(w.rotate(2)) == c


@given(st.integers(min_value=0, max_value=10))
def test_circuit_invariant_under_rotation(k):
    d = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    w = Trail(d, (0, 1, 2, 0), (0, 1, 2))
    assert Circuit(w.rotate(k)) == Circuit(w)


def test_example_trail_counts(example_digraph):
    for e in example_digraph.edges():
        assert len(eulerian_trails_ending_at(example_digraph, e)) == 6
    assert len(eulerian_circuits(example_digraph)) == 6


def test_trails_trivial_cases(two_cycle):
    assert len(eulerian_trails_ending_at(two_cycle, 1)) == 1
    path = Digraph(2, [(0, 1)])
    assert eulerian_trails_ending_at(path, 0) == []
    with pytest.raises(ValueError):
        eulerian_trails_ending_at(two_cycle, 5)


def test_circuits_match_best_small(example_digraph, two_cycle, three_cycle):
    for d in (example_digraph, two_cycle, three_cycle):
        assert len(eulerian_circuits(d)) == count_circuits_best(d)
    assert count_circuits_best(example_digraph) == 6


def test_doubled_two_cycle_best_cross_check():
    d = Digraph(2, [(0, 1), (0, 1), (1, 0), (1, 0)])
    assert len(eulerian_circuits(d)) == count_circuits_best(d) == 2


def test_complete_digraph_k3_cross_check():
    d = Digraph(3, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
    assert len(eulerian_circuits(d)) == count_circuits_best(d)


def test_best_rejects_non_eulerian():
    with pytest.raises(NotEulerianError):
        count_circuits_best(Digraph(2, [(0, 1)]))


def test_count_matches_enumeration_on_every_arc_subset():
    """The digraph count tests balance only; the determinant must still give
    0 on balanced subsets that are not connected, such as two disjoint
    2-cycles."""
    disconnected_balanced = 0
    for d in eulerian_digraph_corpus(8):
        for mask in range(1, 1 << d.m):
            sub = d.restrict([e for e in d.edges() if mask >> e & 1])
            assert count_eulerian_circuits(sub) == len(eulerian_circuits(sub))
            disconnected_balanced += sub.is_balanced() and not sub.edge_support_connected()
    assert disconnected_balanced > 0


def test_count_for_undirected(doubled_edge, triangle):
    assert count_eulerian_circuits(doubled_edge) == 2
    assert count_eulerian_circuits(triangle) == 2
    assert (
        len(eulerian_trails_ending_at(doubled_edge, 0)) == 2
    )  # both directions of the final edge
    quad = Multigraph(2, [(0, 1)] * 4)
    assert count_eulerian_circuits(quad) == len(eulerian_trails_ending_at(quad, 0)) == 12


def test_det_bareiss():
    assert det_bareiss([[2, -1], [-1, 2]]) == 3
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([]) == 1
    assert det_bareiss([[2, 1], [4, 2]]) == 0


def test_cycle_sequence_simple(three_cycle):
    w = Trail(three_cycle, (0, 1, 2, 0), (0, 1, 2))
    cs = cycle_sequence(w)
    assert len(cs) == 1 and cs[0] == w


def test_cycle_sequence_figure_eight():
    # two directed triangles sharing vertex 0, traversed consecutively
    d = Digraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    w = Trail(d, (0, 1, 2, 0, 3, 4, 0), (0, 1, 2, 3, 4, 5))
    cs = cycle_sequence(w)
    assert len(cs) == 2
    assert cs[0].edge_set() == frozenset({0, 1, 2})
    assert cs[1].edge_set() == frozenset({3, 4, 5})
    assert reassemble(cs) == w


def test_cycle_sequence_partitions_edges(example_digraph):
    a1 = SetPartition([{0, 1}, {2, 3}, {4, 5}, {6, 7}])
    a2 = SetPartition([{0, 2, 4}, {1, 3, 5}, {6, 7}])
    for e in example_digraph.edges():
        for w in eulerian_trails_ending_at(example_digraph, e):
            cs = cycle_sequence(w)
            part = edge_partition(cs)
            assert part in (a1, a2)
            assert reassemble(cs) == w


def test_insert_plain_concatenation(two_cycle):
    d = Digraph(3, [(0, 1), (1, 0), (0, 2), (2, 0)])
    w1 = Trail(d, (0, 1, 0), (0, 1))
    w2 = Trail(d, (0, 2, 0), (2, 3))
    merged = insert_trail(w1, w2)
    assert merged.edges == (0, 1, 2, 3)


def test_insert_at_interior_vertex():
    # square trail 0->1->2->3->0 with a triangle at vertex 2
    d = Digraph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 2)])
    square = Trail(d, (0, 1, 2, 3, 0), (0, 1, 2, 3))
    tri = Trail(d, (2, 4, 5, 2), (4, 5, 6))
    merged = insert_trail(tri, square)
    assert len(merged) == 7
    assert merged.vertices == (0, 1, 2, 4, 5, 2, 3, 0)


def test_insert_error_clauses():
    d = Digraph(3, [(0, 1), (1, 0), (0, 2), (2, 0)])
    w1 = Trail(d, (0, 1, 0), (0, 1))
    with pytest.raises(InsertionError):
        insert_trail(w1, w1)  # edge overlap
    far = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    with pytest.raises(InsertionError) as err:
        # no vertex of w1 occurs in a host on disjoint support
        insert_trail(
            Trail(far, (0, 1, 0), (0, 1)), Trail(far, (2, 3, 2), (2, 3))
        )
    assert err.value.clause == "base-occurs"


def test_insert_first_occurrence_violation():
    # host passes through vertex 1 before reaching the base 0 of w1
    d = Digraph(3, [(1, 2), (2, 0), (0, 1), (0, 2), (2, 1), (1, 0)])
    host = Trail(d, (1, 2, 0, 1), (0, 1, 2))
    w1 = Trail(d, (0, 2, 1, 0), (3, 4, 5))
    with pytest.raises(InsertionError) as err:
        insert_trail(w1, host)
    assert err.value.clause == "first-occurrence"


def test_trails_with_cycle_partition(example_digraph):
    a1 = SetPartition([{0, 1}, {2, 3}, {4, 5}, {6, 7}])
    a2 = SetPartition([{0, 2, 4}, {1, 3, 5}, {6, 7}])
    e = 0
    n1 = len(trails_with_cycle_partition(example_digraph, e, a1))
    n2 = len(trails_with_cycle_partition(example_digraph, e, a2))
    assert n1 + n2 == 6
    assert n1 == 4 and n2 == 2
    bad = SetPartition([{0, 1, 2, 3}, {4, 5}, {6, 7}])
    with pytest.raises(ValueError):
        trails_with_cycle_partition(example_digraph, e, bad)


def test_trails_with_cycle_partition_two_cycle(two_cycle):
    a = SetPartition([{0, 1}])
    assert len(trails_with_cycle_partition(two_cycle, 0, a)) == 1


def test_directed_cycles_through(example_digraph):
    cycles = directed_cycles_through(
        example_digraph, 0, set(example_digraph.edges())
    )
    # arc e1 (2->1) lies on the 2-cycle {e1,e2} and the 3-cycle {e1,f1,g1}
    assert frozenset({0, 1}) in cycles
    assert frozenset({0, 2, 4}) in cycles
    assert len(cycles) == 2


def test_cycle_partitions_example(example_digraph):
    parts = cycle_partitions(example_digraph)
    assert len(parts) == 2
    a1 = SetPartition([{0, 1}, {2, 3}, {4, 5}, {6, 7}])
    a2 = SetPartition([{0, 2, 4}, {1, 3, 5}, {6, 7}])
    assert set(parts) == {a1, a2}


def test_intersection_graph_example(example_digraph):
    a1 = SetPartition([{0, 1}, {2, 3}, {4, 5}, {6, 7}])
    g = intersection_graph(example_digraph, a1)
    assert g.n == 4 and g.is_simple()
    # K4 minus the edge between the {1,2}-cycle and the {3,4}-cycle
    assert g.m == 5
    a2 = SetPartition([{0, 2, 4}, {1, 3, 5}, {6, 7}])
    g2 = intersection_graph(example_digraph, a2)
    assert g2.n == 3 and g2.m == 3  # a triangle


def _listing_from_cycles_through(d, cap=math.inf):
    """The cycle partitions as lists of (arc set, vertex mask) pairs, built on
    ``directed_cycles_through``: backtracking on the least uncovered arc."""
    out = []
    blocks = []

    def rec(remaining):
        if not remaining:
            out.append(list(blocks))
            if len(out) > cap:
                raise CapExceededError(f"semilattice has more than {cap} elements")
            return
        for cycle in directed_cycles_through(d, min(remaining), remaining):
            verts = 0
            for e in cycle:
                u, v = d.arcs[e]
                verts |= 1 << u | 1 << v
            blocks.append((cycle, verts))
            rec(remaining - cycle)
            blocks.pop()

    rec(frozenset(d.edges()))
    return out


def test_mask_listing_matches_cycles_through():
    """The mask listing gives the cycle partitions of the listing built on
    ``directed_cycles_through``, in its order, and refuses at the same count;
    ``cycle_partitions`` is its SetPartition form."""
    parallel = [Digraph(2, [(0, 1), (1, 0)] * k) for k in range(2, 6)]
    for d in list(eulerian_digraph_corpus(8)) + parallel:
        listing = cycle_partition_masks(d)
        oracle = _listing_from_cycles_through(d)
        assert [[(frozenset(bits(arcs)), verts) for arcs, verts in a] for a in listing] == oracle
        assert cycle_partitions(d) == [SetPartition(c for c, _ in a) for a in oracle]
    assert len(listing) == 120  # five parallel 2-cycles: 5! matchings
    for d in [parallel[1], parallel[2]]:
        count = len(cycle_partition_masks(d))
        for cap in range(count + 1):
            for listing in (cycle_partition_masks, _listing_from_cycles_through):
                if cap < count:
                    with pytest.raises(CapExceededError, match=f"more than {cap} elements"):
                        listing(d, cap)
                else:
                    assert len(listing(d, cap)) == count


def _closed_walk(rng, pool, length):
    """A closed walk without loops through ``length`` arcs on vertices of
    pool, which has at least three."""
    while True:
        walk = [rng.choice(pool)]
        while len(walk) < length:
            walk.append(rng.choice([v for v in pool if v != walk[-1]]))
        if walk[-1] != walk[0]:
            return list(zip(walk, walk[1:] + walk[:1]))


def _balanced_arc_lists(seed=15):
    """Balanced arc lists on scattered vertex ids: lone cycles (one circuit),
    disjoint unions of cycles (arcs = vertices, none), unions of closed walks
    on disjoint vertex sets (none), parallel 2-cycles, and unions of closed
    walks on shared vertices, with out-degrees up to four."""
    rng = random.Random(seed)
    ids = list(range(3, 60, 7))
    out = []
    for _ in range(40):
        k = rng.randint(2, 7)
        cycle = rng.sample(ids, k)
        out.append(list(zip(cycle, cycle[1:] + cycle[:1])))
    for _ in range(40):
        perm = rng.sample(ids, rng.randint(4, 8))
        cut = rng.randint(2, len(perm) - 2)
        parts = [perm[:cut], perm[cut:]]
        arcs = [arc for c in parts for arc in zip(c, c[1:] + c[:1])]
        rng.shuffle(arcs)
        out.append(arcs)
    for _ in range(40):
        pool = rng.sample(ids, 6)
        arcs = _closed_walk(rng, pool[:3], rng.randint(2, 4))
        arcs += _closed_walk(rng, pool[3:], rng.randint(2, 5))
        rng.shuffle(arcs)
        out.append(arcs)
    for k in range(2, 5):
        u, v = rng.sample(ids, 2)
        out.append([(u, v), (v, u)] * k)
    for _ in range(120):
        pool = rng.sample(ids, rng.randint(3, 4))
        arcs = _closed_walk(rng, pool, rng.randint(2, 4))
        while len(arcs) < 7 and rng.random() < 0.7:
            arcs += _closed_walk(rng, pool, rng.randint(2, 9 - len(arcs)))
        rng.shuffle(arcs)
        out.append(arcs)
    return out


def _kernel_mismatches(kernel):
    """The balanced arc lists on which kernel differs from enumeration."""
    bad = []
    for arcs in _balanced_arc_lists():
        names = sorted({v for arc in arcs for v in arc})
        label = {v: i for i, v in enumerate(names)}
        d = Digraph(len(names), [(label[u], label[v]) for u, v in arcs])
        if kernel(arcs) != len(eulerian_circuits(d)):
            bad.append(arcs)
    return bad


def test_best_kernel_matches_enumeration():
    """The kernel counts 1 on a lone cycle, 0 on a disconnected list and the
    BEST count otherwise, whatever the vertex ids and the arc order."""
    lists = _balanced_arc_lists()
    values = [_best_from_arcs(arcs) for arcs in lists]
    assert values[:40] == [1] * 40
    assert values[40:120] == [0] * 80
    assert max(values) > 1
    assert _kernel_mismatches(_best_from_arcs) == []


def _without_orbit_test(arcs):
    if len(arcs) == len({v for arc in arcs for v in arc}):
        return 1
    return _best_from_arcs(arcs)


def _without_factorials(arcs):
    outdeg = {}
    for u, _ in arcs:
        outdeg[u] = outdeg.get(u, 0) + 1
    return _best_from_arcs(arcs) // math.prod(math.factorial(k - 1) for k in outdeg.values())


@pytest.mark.parametrize("kernel", [_without_orbit_test, _without_factorials])
def test_best_kernel_mutations_are_caught(kernel):
    """A one-cycle shortcut that skips the orbit length, and a kernel that
    drops the (outdeg - 1)! factor, each differ from enumeration."""
    assert _kernel_mismatches(kernel)


def _orientation_sum(x):
    """Twice the digraph circuit counts over all 2^(m-1) orientations of x
    with edge 0 pinned, unbalanced ones included."""
    pairs = [tuple(sorted(p)) for p in x.pairs]
    total = 0
    for mask in range(1 << (x.m - 1)):
        arcs = [(v, u) if e and mask >> (e - 1) & 1 else (u, v) for e, (u, v) in enumerate(pairs)]
        total += count_eulerian_circuits(Digraph(x.n, arcs))
    return 2 * total


def _random_eulerian_multigraph(rng, max_edges):
    """A closed walk of 2..max_edges steps, no step staying put."""
    n = rng.randint(2, 6)
    while True:
        walk = [rng.randrange(n)]
        for _ in range(rng.randint(2, max_edges) - 1):
            walk.append(rng.choice([v for v in range(n) if v != walk[-1]]))
        if walk[-1] != walk[0]:
            return Multigraph(n, list(zip(walk, walk[1:] + walk[:1])))


def _sweep_mismatches():
    inputs = list(veblen_corpus(8, 5))
    rng = random.Random(17)
    inputs += [_random_eulerian_multigraph(rng, 12) for _ in range(40)]
    return [x for x in inputs if _count_circuits_all_orientations(x.pairs) != _orientation_sum(x)]


def test_pruned_orientation_sweep_matches_all_orientations():
    assert not _sweep_mismatches()


def test_orientation_sweep_oracle_catches_an_early_prune(monkeypatch):
    """A prune that reads each vertex one edge before its last edge."""
    real = trails_module._closing_vertices
    monkeypatch.setattr(trails_module, "_closing_vertices", lambda pairs: real(pairs)[1:] + [[]])
    assert _sweep_mismatches()
