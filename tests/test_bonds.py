import random
import time
from itertools import combinations

import pytest

import eulerpart.bonds as bonds_module
import eulerpart.heaps as heaps_module
from eulerpart.corpus import connected_simple_graphs
from eulerpart.errors import CapExceededError
from eulerpart.graphs import Digraph, Multigraph, is_orientation_of, orientations
from eulerpart.bonds import (
    check_nbc_dictionaries,
    acyclic_orientations,
    BondLattice,
    broken_circuits,
    chromatic_polynomial,
    chromatic_polynomial_whitney,
    connected_partitions,
    edge_orders,
    base_to_orientation_direct,
    nbc_bases,
    orientation_counts_vs_chromatic,
    base_to_orientation_recursive,
    orientation_to_base,
    rota_check,
    simple_cycles,
    sinks,
)
from eulerpart.heaps import (
    Heap,
    PieceSystem,
    compose,
    full_pyramids,
    orientation_to_pyramid,
    pyramid_to_orientation,
)
from eulerpart.partition import SetPartition, components
from eulerpart.poly import IntPoly
from eulerpart.verify import VerifyConfig, check_bijection_suite
from oracles import (
    _is_forest,
    _tree_contains_broken_circuit,
    edge_set_join,
    nbc_sets,
    nbc_sets_by_element,
    spanning_trees,
    unique_sink_orientations,
)


def k3():
    return Multigraph(3, [(0, 1), (0, 2), (1, 2)])


def k4():
    return Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def p3():
    return Multigraph(3, [(0, 1), (1, 2)])


def single_edge():
    return Multigraph(2, [(0, 1)])


def star(n):
    return Multigraph(n, [(0, i) for i in range(1, n)])


def test_bond_lattice_k3():
    lat = BondLattice(k3())
    assert len(lat) == 5  # every partition of 3 vertices is connected here
    assert lat.mobius(lat.bottom(), lat.top()) == 2
    assert lat.rank() == 2


def test_bond_lattice_path():
    lat = BondLattice(p3())
    assert len(lat) == 4  # {0|1|2}, {01|2}, {0|12}, {012}; {02|1} excluded
    assert SetPartition([{0, 2}, {1}]) not in lat


def test_bond_lattice_edgeless():
    lat = BondLattice(Multigraph(2, []))
    assert len(lat) == 1


def test_closure_map_isomorphism_spot_check():
    """Connected-partition elements agree with the closed-edge-set picture:
    meets/joins of closures match closures of meets/joins."""
    lat = BondLattice(k4())
    for x in lat.elements:
        closed = lat.closed_edge_set(x)
        assert edge_set_join(lat.graph, closed) == x


def test_simple_cycles_counts():
    assert simple_cycles(p3()) == []
    assert len(simple_cycles(k3())) == 1
    assert len(simple_cycles(k4())) == 7  # four triangles, three 4-cycles
    with pytest.raises(CapExceededError):
        simple_cycles(Multigraph(9, [(i, (i + 1) % 9) for i in range(9)]))


def test_broken_circuits_k3():
    bc = broken_circuits(k3(), (0, 1, 2))
    assert bc == {frozenset({0, 1})}
    assert broken_circuits(p3(), (0, 1)) == set()


def test_broken_circuits_k4():
    assert len(broken_circuits(k4(), tuple(range(6)))) == 7


def test_nbc_bases_k3():
    bases = nbc_bases(k3(), (0, 1, 2))
    assert sorted(map(sorted, bases)) == [[0, 2], [1, 2]]
    tree = p3()
    assert nbc_bases(tree, (0, 1)) == [frozenset({0, 1})]


def test_nbc_base_count_order_invariant():
    rng = random.Random(7)
    for g in (k3(), k4(), p3(), star(4)):
        order = list(g.edges())
        counts = set()
        for _ in range(6):
            rng.shuffle(order)
            counts.add(len(nbc_bases(g, tuple(order))))
        assert len(counts) == 1


def test_nbc_count_equals_mobius():
    for g in (k3(), k4(), p3(), star(5)):
        lat = BondLattice(g)
        mu = lat.mobius(lat.bottom(), lat.top())
        assert abs(mu) == len(nbc_bases(g, tuple(g.edges())))


def test_rota_theorem_every_element():
    rng = random.Random(3)
    for g in (k3(), k4(), p3(), star(4)):
        order = list(g.edges())
        for _ in range(3):
            rng.shuffle(order)
            report = rota_check(BondLattice(g), tuple(order))
            assert report.ok


def test_nbc_sets_bottom():
    sets_k3 = nbc_sets(k3(), (0, 1, 2))
    assert frozenset() in sets_k3
    # NBC sets of K3: {}, {0}, {1}, {2}, {0,2}, {1,2}
    assert len(sets_k3) == 6


def test_nbc_bases_check_the_order_on_one_vertex():
    g = Multigraph(1, [])
    for nbc in (nbc_bases, nbc_sets):
        with pytest.raises(ValueError, match="edge order must be a permutation"):
            nbc(g, (7,))
    assert nbc_bases(g, ()) == [frozenset()]
    assert nbc_sets(g, ()) == [frozenset()]


def test_edge_order_refuses_ids_that_only_equal_ints():
    """On a fresh triangle each time, an order holding True or 1.0 for edge
    1 is refused as no permutation of the edge ids, by the NBC routines and
    by the dictionary check, before any base is built from it."""
    for stand_in in (True, 1.0):
        order = (0, stand_in, 2)
        calls = [nbc_bases, nbc_sets, broken_circuits, lambda g, o: check_nbc_dictionaries(g, [o])]
        for call in calls:
            with pytest.raises(ValueError, match="edge order must be a permutation"):
                call(k3(), order)


def test_edge_order_is_refused_after_its_int_twin():
    """On one triangle, an order holding True for edge 1 is refused right
    after the int order, as on a fresh triangle, and the int order is still
    answered after the refusal."""
    g = k3()
    bases = nbc_bases(g, (0, 1, 2))
    with pytest.raises(ValueError, match="edge order must be a permutation"):
        nbc_bases(g, (0, True, 2))
    assert nbc_bases(g, (0, 1, 2)) == bases


def test_nbc_bases_refuse_a_graph_with_an_isolated_vertex():
    """An edge set that is connected but misses a vertex is refused, as two
    edge components are, by nbc_bases and by the dictionary check."""
    for g in (Multigraph(3, [(0, 1)]), Multigraph(4, [(0, 1), (2, 3)]), Multigraph(2, [])):
        order = tuple(g.edges())
        for call in (nbc_bases, lambda g, o: check_nbc_dictionaries(g, [o])):
            with pytest.raises(ValueError, match="defined here for connected graphs"):
                call(g, order)


# -- the NBC search against the filter route ------------------------------------


def _filter_nbc_sets(g, order):
    """The forests among the edge subsets of size < n, less those holding a
    broken circuit, by size and then by edge ids."""
    broken = broken_circuits(g, order)
    return [
        frozenset(combo)
        for size in range(g.n)
        for combo in combinations(g.edges(), size)
        if _is_forest(g, combo) and not any(b <= frozenset(combo) for b in broken)
    ]


def _first_nbc_search_mismatch():
    """The first (graph, order) pair of connected_simple_graphs(6), under
    three seeded orders each, where nbc_sets, nbc_bases or
    nbc_sets_by_element differ from the filter route; None, and the number
    of pairs, when none does."""
    rng = random.Random(16)
    pairs = 0
    for g in connected_simple_graphs(6):
        for order in edge_orders(g, 3, rng):
            sets = _filter_nbc_sets(g, order)
            broken = broken_circuits(g, order)
            bases = [t for t in spanning_trees(g) if not any(b <= t for b in broken)]
            grouped = {}
            for s in sets:
                grouped.setdefault(edge_set_join(g, s), []).append(s)
            if (nbc_sets(g, order), nbc_bases(g, order), nbc_sets_by_element(g, order)) != (
                sets, bases, grouped
            ):
                return g, order
            pairs += 1
    return None, pairs


def test_nbc_search_matches_filter_route():
    assert _first_nbc_search_mismatch() == (None, 429)


@pytest.mark.parametrize(
    "fault",
    [
        lambda higher, a, b: False,  # the prune dropped
        lambda higher, a, b: any(p & a for p in higher),  # read from a's side only
    ],
)
def test_nbc_search_oracle_catches_a_faulty_prune(monkeypatch, fault):
    monkeypatch.setattr(bonds_module, "_joins", fault)
    assert _first_nbc_search_mismatch()[0] is not None


# -- the rank table ---------------------------------------------------------------


def _nbc_calls(g, order):
    """Every public NBC routine that reads the rank table, on g under order."""
    bases = nbc_bases(g, order)
    out = [nbc_sets(g, order), bases, chromatic_polynomial_whitney(g, order)]
    for t in bases:
        for x in range(g.n):
            o = base_to_orientation_recursive(t, g, x, order)
            out += [base_to_orientation_direct(t, g, x, order).arcs, o.arcs]
            out.append(orientation_to_base(o, g, x, order))
    return out


def test_invalid_order_refused_after_a_valid_one():
    g = k4()
    good, bad = tuple(g.edges()), (0, 1, 2, 3, 4, 4)
    t = nbc_bases(g, good)[0]
    o = base_to_orientation_recursive(t, g, 0, good)
    calls = [
        lambda order: nbc_bases(g, order),
        lambda order: nbc_sets(g, order),
        lambda order: nbc_sets_by_element(g, order),
        lambda order: chromatic_polynomial_whitney(g, order),
        lambda order: base_to_orientation_direct(t, g, 0, order),
        lambda order: base_to_orientation_recursive(t, g, 0, order),
        lambda order: orientation_to_base(o, g, 0, order),
    ]
    for call in calls:
        for _ in range(2):
            call(good)
            with pytest.raises(ValueError, match="edge order must be a permutation"):
                call(bad)


def test_alternating_orders_match_fresh_graphs():
    """Two orders and two graphs, taken in turn call by call, give what each
    (graph, order) pair gives on a graph of its own."""
    rng = random.Random(2)
    graphs = [k4(), star(4)]
    pairs = [(g, order) for g in graphs for order in edge_orders(g, 2, rng)]
    expected = [_nbc_calls(Multigraph(g.n, g.pairs), order) for g, order in pairs]
    assert expected[0] != expected[1]
    for _ in range(2):
        for (g, order), want in zip(pairs, expected):
            assert _nbc_calls(g, order) == want
    # a single call per pair, round robin
    for _ in range(3):
        for g, order in pairs:
            t = nbc_bases(g, order)[-1]
            fresh = Multigraph(g.n, g.pairs)
            assert (
                base_to_orientation_direct(t, g, 1, order).arcs
                == base_to_orientation_direct(t, fresh, 1, order).arcs
            )


def test_each_order_checked_once_per_dictionary_check(monkeypatch):
    real = bonds_module.check_edge_order
    seen = []

    def counted(g, order):
        seen.append(tuple(order))
        return real(g, order)

    monkeypatch.setattr(bonds_module, "check_edge_order", counted)
    g = k4()
    orders = edge_orders(g, 3, random.Random(4))
    assert len(set(orders)) == 3
    assert check_nbc_dictionaries(g, orders)[0] == []
    assert seen == list(orders)


def test_edge_orders_refuse_a_count_below_one():
    g = k4()
    for count in (0, -3):
        with pytest.raises(ValueError, match="edge order count must be at least 1"):
            edge_orders(g, count, random.Random(1))
    assert len(edge_orders(g, 1, random.Random(1))) == 1


def _refuse_work(*args):
    raise AssertionError("work ran before the refusal")


def test_dictionary_check_refuses_no_orders_before_any_work(monkeypatch):
    monkeypatch.setattr(bonds_module, "nbc_bases", _refuse_work)
    monkeypatch.setattr(bonds_module, "acyclic_orientations", _refuse_work)
    for orders in ([], iter(())):
        with pytest.raises(ValueError, match="at least one edge order"):
            check_nbc_dictionaries(k4(), orders)


def test_base_validated_once_is_matched_by_identity():
    """The store that lets the maps skip a base already validated is keyed
    by the base's rank mask, read on every call: an equal set of other edge
    objects is refused as unknown edges, and a list edited in place and
    another base are each looked up as what they hold, and refused where
    they are no NBC base."""
    g = k4()
    order = tuple(g.edges())
    t = next(b for b in nbc_bases(g, order) if 1 in b)
    expected = base_to_orientation_recursive(t, g, 0, order).arcs
    for stand_in in (True, 1.0):
        twin = frozenset(stand_in if e == 1 else e for e in t)
        assert twin == t
        base_to_orientation_direct(t, g, 0, order)
        with pytest.raises(ValueError, match=f"unknown edge {stand_in!r}"):
            base_to_orientation_recursive(twin, g, 0, order)
    base = sorted(t)
    assert base_to_orientation_direct(base, g, 0, order).arcs == expected
    base[base.index(1)] = 0  # another NBC base
    assert base_to_orientation_recursive(base, g, 0, order).arcs == (
        base_to_orientation_recursive(frozenset(base), g, 0, order).arcs
    ) != expected
    base_to_orientation_direct(base, g, 0, order)
    base[base.index(0)] = 4  # edges 3, 4, 5: the triangle 1 2 3, missing 0
    with pytest.raises(ValueError, match="not a spanning tree"):
        base_to_orientation_recursive(base, g, 0, order)
    triangle = frozenset({0, 1, 3})
    base_to_orientation_direct(t, g, 0, order)
    with pytest.raises(ValueError, match="not a spanning tree"):
        base_to_orientation_recursive(triangle, g, 0, order)
    broken = frozenset({0, 1, 5})  # {0, 1} is the broken circuit of 0 1 2
    assert broken not in nbc_bases(g, order)
    base_to_orientation_direct(t, g, 0, order)
    with pytest.raises(ValueError, match="contains a broken circuit"):
        base_to_orientation_recursive(broken, g, 0, order)
    # the same frozenset is answered at another sink, toward that sink
    assert base_to_orientation_recursive(t, g, 0, order).arcs == expected
    assert base_to_orientation_direct(t, g, 3, order).arcs == (
        base_to_orientation_recursive(t, g, 3, order).arcs
    )
    assert sinks(base_to_orientation_recursive(t, g, 3, order)) == [3]


def _counted(monkeypatch, name):
    """Patch bonds' routine name to count its calls; returns the counter."""
    real = getattr(bonds_module, name)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(bonds_module, name, counted)
    return calls


def test_dictionary_check_validates_each_base_once_per_order(monkeypatch):
    """On K4 under three orders, the 6 NBC bases of each order are searched
    once each, at the first of the 4 sinks, and not once per sink."""
    searches = _counted(monkeypatch, "_root_paths")
    g = k4()
    orders = edge_orders(g, 3, random.Random(4))
    failures, checked, base_count = check_nbc_dictionaries(g, orders)
    assert failures == [] and checked == 3 * 4 * 6 and base_count == 6
    assert searches[0] == 3 * 6


def test_dictionary_check_builds_each_split_tree_once_per_order(monkeypatch):
    """On K4 under three orders, the split tree of each of the 6 NBC bases
    of an order is built once, at the first of the 4 sinks, and not once
    per sink."""
    builds = _counted(monkeypatch, "_split_tree")
    g = k4()
    orders = edge_orders(g, 3, random.Random(4))
    failures, checked, base_count = check_nbc_dictionaries(g, orders)
    assert failures == [] and checked == 3 * 4 * 6 and base_count == 6
    assert builds[0] == 3 * 6


def test_direct_map_builds_no_split_tree(monkeypatch):
    """The root-path map never builds a split tree, on every base and sink
    of K4, and the recursive map built after it still agrees with it."""
    builds = _counted(monkeypatch, "_split_tree")
    g = k4()
    order = tuple(g.edges())
    bases = nbc_bases(g, order)
    direct = {
        (t, x): base_to_orientation_direct(t, g, x, order).arcs for t in bases for x in range(4)
    }
    assert builds[0] == 0
    for (t, x), arcs in direct.items():
        assert base_to_orientation_recursive(t, g, x, order).arcs == arcs
    assert builds[0] == len(bases)


def test_inverse_answers_an_equal_orientation_from_the_store(monkeypatch):
    """A second orientation_to_base on an equal orientation, another object
    with the same arcs, peels nothing and gives the same base."""
    peels = _counted(monkeypatch, "_down_masks")
    g = k4()
    order = tuple(g.edges())
    t = nbc_bases(g, order)[2]
    o = base_to_orientation_recursive(t, g, 1, order)
    assert orientation_to_base(o, g, 1, order) == t and peels[0] == 1
    twin = Digraph(o.n, list(o.arcs))
    assert twin is not o and twin.arcs == o.arcs
    assert orientation_to_base(twin, g, 1, order) == t and peels[0] == 1


def test_inverse_refusals_are_never_stored(monkeypatch):
    """A cycle, a wrong sink, and arcs that were mapped back but now come
    with another vertex count are each refused on every call, and the
    cycle is peeled again each time."""
    peels = _counted(monkeypatch, "_down_masks")
    g = k4()
    order = tuple(g.edges())
    cyclic = Digraph(4, [(1, 0), (2, 0), (3, 0), (1, 2), (3, 1), (2, 3)])
    o = unique_sink_orientations(g, 0)[0]
    t = orientation_to_base(o, g, 0, order)
    grown = Digraph(5, o.arcs)
    for round_ in (1, 2):
        with pytest.raises(ValueError, match="orientation is cyclic"):
            orientation_to_base(cyclic, g, 0, order)
        assert peels[0] == 1 + round_
        with pytest.raises(ValueError, match="unique sink 1"):
            orientation_to_base(o, g, 1, order)
        with pytest.raises(ValueError, match="unique sink 0"):
            orientation_to_base(grown, g, 0, order)
        assert orientation_to_base(o, g, 0, order) == t
    assert peels[0] == 3


def test_stored_int_base_does_not_admit_a_bool_twin():
    """Once the int base holding edge 1 has been accepted, at two sinks and
    with other bases accepted after it, frozenset({True, ...}) is still
    refused by both maps."""
    g = k4()
    order = tuple(g.edges())
    bases = nbc_bases(g, order)
    t = next(b for b in bases if 1 in b)
    for x in (0, 2):
        base_to_orientation_direct(t, g, x, order)
    for b in bases:
        base_to_orientation_recursive(b, g, 3, order)
    twin = frozenset(True if e == 1 else e for e in t)
    assert twin == t
    for forward in (base_to_orientation_direct, base_to_orientation_recursive):
        with pytest.raises(ValueError, match="unknown edge True"):
            forward(twin, g, 0, order)
    assert base_to_orientation_direct(t, g, 0, order).arcs == (
        base_to_orientation_recursive(t, g, 0, order).arcs
    )


def _up_sets(real):
    """Down masks read the other way: bit u of entry v when v <= u."""

    def masks(below):
        down = real(below)
        return [sum(1 << u for u, d in enumerate(down) if d >> v & 1) for v in range(len(down))]

    return masks


def test_dictionary_check_catches_a_peel_fault_planted_between_runs(monkeypatch):
    """After a clean run has filled the stores, a fault planted in
    _down_masks fails the check on a fresh (graph, order) pair."""
    orders = edge_orders(k4(), 3, random.Random(4))
    assert check_nbc_dictionaries(k4(), orders)[0] == []
    monkeypatch.setattr(bonds_module, "_down_masks", _up_sets(bonds_module._down_masks))
    assert "inverse map failed on a base" in check_nbc_dictionaries(k4(), orders)[0]


def test_chromatic_polynomials():
    t = IntPoly.t()
    assert chromatic_polynomial(k3()) == t**3 - 3 * t**2 + 2 * t
    assert chromatic_polynomial(single_edge()) == t**2 - t
    assert chromatic_polynomial(k4()) == t * (t - 1) * (t - 2) * (t - 3)
    assert chromatic_polynomial(p3()) == t * (t - 1) ** 2


def _relabelled(n, pairs, rng):
    """The graph on n vertices with the given edges, its vertices renamed
    by a random permutation and its edges shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [(perm[u], perm[v]) for u, v in pairs]
    rng.shuffle(pairs)
    return Multigraph(n, pairs)


def test_chromatic_polynomial_closed_forms():
    """The independent-set count against the closed forms of paths, cycles
    and complete graphs on up to 10 vertices, the 20-cycle and the Petersen
    graph, each also under a relabelling; the 40-cycle is refused at the
    term cap within 1 s."""
    t = IntPoly.t()
    rng = random.Random(27)
    for n in range(1, 11):
        falling = IntPoly.one()
        for i in range(n):
            falling = falling * (t - i)
        families = [
            ([(i, i + 1) for i in range(n - 1)], t * (t - 1) ** (n - 1)),
            ([(u, v) for u, v in combinations(range(n), 2)], falling),
        ]
        if n >= 3:
            families.append(
                ([(i, (i + 1) % n) for i in range(n)], (t - 1) ** n + (-1) ** n * (t - 1))
            )
        for pairs, expected in families:
            assert chromatic_polynomial(Multigraph(n, pairs)) == expected
            assert chromatic_polynomial(_relabelled(n, pairs, rng)) == expected
    petersen = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    inner = t**7 - 12 * t**6 + 67 * t**5 - 230 * t**4 + 529 * t**3 - 814 * t**2 + 775 * t - 352
    cases = [
        (20, [(i, (i + 1) % 20) for i in range(20)], (t - 1) ** 20 + (t - 1)),
        (10, petersen, t * (t - 1) * (t - 2) * inner),
    ]
    for n, pairs, expected in cases:
        assert chromatic_polynomial(Multigraph(n, pairs)) == expected
        assert chromatic_polynomial(_relabelled(n, pairs, rng)) == expected
    # the 40-cycle's independent sets pass the term cap: refused, not hung
    start = time.monotonic()
    with pytest.raises(CapExceededError, match=f"capped at {bonds_module.CHROMATIC_TERM_CAP} terms"):
        chromatic_polynomial(Multigraph(40, [(i, (i + 1) % 40) for i in range(40)]))
    assert time.monotonic() - start < 1.0


def test_chromatic_whitney_agreement():
    rng = random.Random(11)
    for g in (k3(), k4(), p3(), star(5), Multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])):
        order = list(g.edges())
        rng.shuffle(order)
        assert chromatic_polynomial(g) == chromatic_polynomial_whitney(g, tuple(order))


def test_chromatic_vs_lattice_characteristic():
    t = IntPoly.t()
    for g in (k3(), k4(), p3()):
        lat = BondLattice(g)
        assert t * lat.characteristic_polynomial() == chromatic_polynomial(g)


def test_unique_sink_orientations_counts():
    for x in range(3):
        assert len(unique_sink_orientations(k3(), x)) == 2
    assert len(unique_sink_orientations(single_edge(), 1)) == 1
    with pytest.raises(ValueError):
        unique_sink_orientations(k3(), 5)


def test_unique_sink_equals_nbc_count():
    for g in (k3(), k4(), p3(), star(4)):
        n_bases = len(nbc_bases(g, tuple(g.edges())))
        for x in range(g.n):
            assert len(unique_sink_orientations(g, x)) == n_bases


def test_mu_explicit_star():
    g = star(4)
    order = tuple(g.edges())
    base = frozenset(g.edges())  # the star is its own spanning tree
    o = base_to_orientation_direct(base, g, 0, order)
    assert all(a[1] == 0 for a in o.arcs)  # all arrows point at the hub
    assert sinks(o) == [0]


def test_mu_explicit_rejects_non_nbc():
    g = k3()
    with pytest.raises(ValueError, match="spanning tree contains a broken circuit"):
        base_to_orientation_direct(frozenset({0, 1}), g, 0, (0, 1, 2))
    with pytest.raises(ValueError, match="not a spanning tree"):
        base_to_orientation_direct(frozenset({0}), g, 0, (0, 1, 2))


def test_dictionaries_reject_unknown_edges_and_vertices():
    g = k3()
    order = (0, 1, 2)
    for forward in (base_to_orientation_direct, base_to_orientation_recursive):
        for base in ({-1, 0}, {0, 5}, {0, 1.0}):
            with pytest.raises(ValueError, match="unknown edge"):
                forward(frozenset(base), g, 0, order)
        for x in (-1, 3):
            with pytest.raises(ValueError, match="unknown vertex"):
                forward(frozenset({1, 2}), g, x, order)
    stray = Digraph(3, [(1, 0), (2, 0), (1, 0)])  # arc 2 is not on edge {1, 2}
    with pytest.raises(ValueError, match="not an orientation"):
        orientation_to_base(stray, g, 0, order)


def test_tree_broken_circuit_test_matches_definition():
    """The fundamental-cycle test against the broken circuits themselves, on
    every spanning tree of every connected simple graph with <= 6 vertices,
    under three seeded edge orders."""
    rng = random.Random(6)
    trees = 0
    for g in connected_simple_graphs(6):
        for order in edge_orders(g, 3, rng):
            broken = broken_circuits(g, order)
            for t in spanning_trees(g):
                expected = any(b <= t for b in broken)
                assert _tree_contains_broken_circuit(g, t, order) == expected, (g, order, t)
                trees += 1
    assert trees == 31971


def test_mu_explicit_lands_in_unique_sink_orientations():
    rng = random.Random(5)
    for g in (k3(), k4(), p3(), star(4)):
        order = list(g.edges())
        for _ in range(3):
            rng.shuffle(order)
            for x in range(g.n):
                targets = {o.arcs for o in unique_sink_orientations(g, x)}
                images = set()
                for base in nbc_bases(g, tuple(order)):
                    o = base_to_orientation_direct(base, g, x, tuple(order))
                    assert o.arcs in targets
                    images.add(o.arcs)
                assert len(images) == len(nbc_bases(g, tuple(order)))


def test_mu_equals_phi_recursive():
    rng = random.Random(9)
    for g in (k3(), k4(), p3(), star(4)):
        order = list(g.edges())
        for _ in range(3):
            rng.shuffle(order)
            for x in range(g.n):
                for base in nbc_bases(g, tuple(order)):
                    assert (
                        base_to_orientation_direct(base, g, x, tuple(order)).arcs
                        == base_to_orientation_recursive(base, g, x, tuple(order)).arcs
                    )


def test_psi_inverts_phi():
    rng = random.Random(13)
    for g in (k3(), k4(), p3()):
        order = list(g.edges())
        rng.shuffle(order)
        order = tuple(order)
        for x in range(g.n):
            for base in nbc_bases(g, order):
                o = base_to_orientation_recursive(base, g, x, order)
                assert orientation_to_base(o, g, x, order) == base
            for o in unique_sink_orientations(g, x):
                base = orientation_to_base(o, g, x, order)
                assert base_to_orientation_recursive(base, g, x, order).arcs == o.arcs


def test_orientation_counts_vs_chromatic_k3():
    report = orientation_counts_vs_chromatic(k3())
    assert report.total_acyclic == 6
    assert report.unique_sink_counts == (2, 2, 2)
    assert report.abs_value_at_minus_one == 6
    assert report.abs_linear_coefficient == 2
    assert report.total_matches_value_at_minus_one
    assert report.unique_sink_matches_linear_coefficient


def test_orientation_counts_vs_chromatic_edge():
    report = orientation_counts_vs_chromatic(single_edge())
    assert report.total_acyclic == 2
    assert report.unique_sink_counts == (1, 1)
    assert report.total_matches_value_at_minus_one
    assert report.unique_sink_matches_linear_coefficient


def test_connected_partition_counts():
    assert len(connected_partitions(k3())) == 5
    assert len(connected_partitions(p3())) == 4


def test_spanning_tree_count_k4():
    assert len(spanning_trees(k4())) == 16


def test_acyclic_orientation_count_k4():
    assert len(acyclic_orientations(k4())) == 24  # |P(-1)| = 4!


def _has_directed_cycle(d):
    # u lies on a directed cycle when u is reachable from one of its out-neighbours
    for u in range(d.n):
        seen, stack = set(), [w for _, w in d.out_arcs(u)]
        while stack:
            w = stack.pop()
            if w == u:
                return True
            if w not in seen:
                seen.add(w)
                stack.extend(x for _, x in d.out_arcs(w))
    return False


def test_acyclic_orientations_filter_all_orientations_in_order():
    for g in connected_simple_graphs(5):
        g = Multigraph(g.n, g.pairs, [f"v{i}" for i in range(g.n)], [f"e{e}" for e in range(g.m)])
        expected = [o for o in orientations(g) if not _has_directed_cycle(o)]
        found = acyclic_orientations(g)
        assert [o.arcs for o in found] == [o.arcs for o in expected]
        assert all(
            o.vertex_labels == g.vertex_labels and o.edge_labels == g.edge_labels for o in found
        )


# -- reference dictionaries ----------------------------------------------------
# The meet / root-path, largest-induced-edge and Heap.restrict forms of the
# three maps, on edge ids and vertex sets; the rank-mask maps must equal them.


def _reference_tree_paths(g, t, x):
    """Root-path edge and vertex lists toward x inside the tree t."""
    adj = {v: [] for v in range(g.n)}
    for e in t:
        u, v = sorted(g.pairs[e])
        adj[u].append((e, v))
        adj[v].append((e, u))
    parent = {x: None}
    stack = [x]
    while stack:
        u = stack.pop()
        for e, w in adj[u]:
            if w not in parent:
                parent[w] = (e, u)
                stack.append(w)
    path_edges, path_vertices = {}, {}
    for v in range(g.n):
        edges, verts, cur = [], [v], v
        while parent[cur] is not None:
            e, cur = parent[cur]
            edges.append(e)
            verts.append(cur)
        path_edges[v], path_vertices[v] = edges, verts
    return path_edges, path_vertices


def reference_direct(t, g, x, order):
    rank = {e: i for i, e in enumerate(order)}
    path_edges, path_vertices = _reference_tree_paths(g, t, x)

    def meet(i, j):
        rj = set(path_vertices[j])
        return next(v for v in path_vertices[i] if v in rj)

    def top_edge_to_meet(i, j):
        m = meet(i, j)
        if m == i:
            return None  # the null edge, below everything
        segment = path_edges[i][: len(path_edges[i]) - len(path_edges[m])]
        return max(segment, key=rank.__getitem__)

    def precedes(j, i):
        e_ij, e_ji = top_edge_to_meet(i, j), top_edge_to_meet(j, i)
        if e_ji is None:
            return e_ij is not None
        return e_ij is not None and rank[e_ji] < rank[e_ij]

    arcs = []
    for e in g.edges():
        i, j = sorted(g.pairs[e])
        arcs.append((i, j) if precedes(j, i) else (j, i))
    return tuple(arcs)


def _reference_edges_within(g, vertex_set):
    return frozenset(e for e in g.edges() if vertex_set.issuperset(g.pairs[e]))


def _reference_top_induced(g, vertex_set, rank):
    return max(_reference_edges_within(g, vertex_set), key=rank.__getitem__)


def _reference_base_pyramid(g, ps, t, vertex_set, x, rank):
    if len(vertex_set) == 1:
        return Heap.singleton(x)
    e_top = _reference_top_induced(g, vertex_set, rank)
    remaining = t - {e_top}
    side = next(c for c in components([{x}, *(g.pairs[e] for e in remaining)]) if x in c)
    other = vertex_set - side
    u = next(iter(set(g.pairs[e_top]) & other))
    p1 = _reference_base_pyramid(
        g, ps, remaining & _reference_edges_within(g, other), other, u, rank
    )
    p2 = _reference_base_pyramid(
        g, ps, remaining & _reference_edges_within(g, side), side, x, rank
    )
    return compose(ps, p1, p2)


def reference_recursive(t, g, x, order):
    rank = {e: i for i, e in enumerate(order)}
    ps = PieceSystem(g)
    pyramid = _reference_base_pyramid(g, ps, frozenset(t), frozenset(range(g.n)), x, rank)
    return pyramid_to_orientation(ps, pyramid).arcs


def reference_inverse(o, g, x, order):
    rank = {e: i for i, e in enumerate(order)}

    def rec(pyr):
        if len(pyr) == 1:
            return frozenset()
        e_top = _reference_top_induced(g, frozenset(pyr.elements), rank)
        p, q = sorted(g.pairs[e_top])
        down = pyr.down_set(p if pyr.less(p, q) else q)
        return (
            frozenset({e_top})
            | rec(pyr.restrict(down))
            | rec(pyr.restrict(set(pyr.elements) - down))
        )

    return rec(orientation_to_pyramid(PieceSystem(g), o))


def _check_reference_forms(graphs, orders_of):
    """Assert that each rank-mask map equals its reference form on every
    graph, under each of its orders, at every sink; returns the number of
    bases and of orientations compared."""
    bases_checked = orientations_checked = 0
    for g in graphs:
        by_sink = {}
        for o in acyclic_orientations(g):
            if len(sinks(o)) == 1:
                by_sink.setdefault(sinks(o)[0], []).append(o)
        for order in orders_of(g):
            bases = nbc_bases(g, order)
            for x in range(g.n):
                for t in bases:
                    assert base_to_orientation_direct(t, g, x, order).arcs == reference_direct(
                        t, g, x, order
                    ), (g, order, x, t)
                    assert base_to_orientation_recursive(
                        t, g, x, order
                    ).arcs == reference_recursive(t, g, x, order), (g, order, x, t)
                    bases_checked += 1
                for o in by_sink[x]:
                    assert orientation_to_base(o, g, x, order) == reference_inverse(
                        o, g, x, order
                    ), (g, order, x, o.arcs)
                    orientations_checked += 1
    return bases_checked, orientations_checked


def test_dictionaries_match_reference_forms():
    """Each rank-mask map equals its reference form on every connected simple
    graph with <= 5 vertices, under three seeded edge orders, at every sink."""
    rng = random.Random(8)
    checked = _check_reference_forms(connected_simple_graphs(5), lambda g: edge_orders(g, 3, rng))
    assert checked == (2355, 2355)


def test_dictionaries_match_reference_forms_on_dense_graphs():
    """The same on K6 and on K6 less an edge, where the splits run deepest,
    under two seeded shuffles of the edges each, at every sink."""
    rng = random.Random(9)
    k6 = list(combinations(range(6), 2))
    graphs = [Multigraph(6, k6), Multigraph(6, k6[1:])]
    checked = _check_reference_forms(graphs, lambda g: edge_orders(g, 3, rng)[1:])
    assert checked == (2 * 6 * (120 + 96),) * 2


def test_pyramid_order_extends_the_reference_pyramid():
    """For every NBC base and sink of the connected simple graphs with <= 5
    vertices, under the identity order and one seeded shuffle, the pyramid
    order lists each vertex once, ends at the sink, and puts each vertex
    after every vertex below it in the ``Heap`` reference pyramid."""
    rng = random.Random(29)
    checked = 0
    for g in connected_simple_graphs(5):
        ps = PieceSystem(g)
        everything = frozenset(range(g.n))
        for order in edge_orders(g, 2, rng):
            rank = {e: i for i, e in enumerate(order)}
            table = bonds_module._rank_table(g, order)
            for t in nbc_bases(g, order):
                tree = bonds_module._base_mask(table, t)
                split = bonds_module._split_tree(table, tree)
                for x in range(g.n):
                    out = []
                    bonds_module._pyramid_order(split, x, out)
                    assert sorted(out) == list(range(g.n)) and out[-1] == x, (g, order, t, x)
                    pos = {v: i for i, v in enumerate(out)}
                    pyramid = _reference_base_pyramid(g, ps, t, everything, x, rank)
                    assert all(pos[a] < pos[b] for a, b in pyramid.relation()), (g, order, t, x)
                    checked += 1
    assert checked == 1570


def _reverse_arc(d, index):
    arcs = list(d.arcs)
    arcs[index] = arcs[index][::-1]
    return Digraph(d.n, arcs, d.vertex_labels, d.edge_labels)


def _direct_reverses_first_arc(real):
    return lambda t, g, x, order: _reverse_arc(real(t, g, x, order), 0)


def _recursive_reverses_last_arc(real):
    return lambda t, g, x, order: _reverse_arc(real(t, g, x, order), -1)


def _inverse_drops_top_edge(real):
    def dropped(o, g, x, order):
        t = real(o, g, x, order)
        return t - {max(t, key=order.index)}

    return dropped


def _pyramid_order_reversed(real):
    """Each call's part of the list reversed, so the sink comes first."""

    def reversed_order(split, x, out):
        start = len(out)
        real(split, x, out)
        out[start:] = reversed(out[start:])

    return reversed_order


def _swap_halves(split):
    """The split tree with p's and q's subtrees swapped at every node."""
    if not split:
        return split
    half, p, q, below_p, below_q = split
    return half, p, q, _swap_halves(below_q), _swap_halves(below_p)


def _split_tree_swaps_halves(real):
    return lambda table, tree: _swap_halves(real(table, tree))


@pytest.mark.parametrize(
    "name, fault",
    [
        ("base_to_orientation_direct", _direct_reverses_first_arc),
        ("base_to_orientation_recursive", _recursive_reverses_last_arc),
        ("orientation_to_base", _inverse_drops_top_edge),
        ("_pyramid_order", _pyramid_order_reversed),
        ("_split_tree", _split_tree_swaps_halves),
    ],
)
def test_bijection_checks_catch_a_faulty_map(monkeypatch, name, fault):
    """A fault in any one of the three maps, in the pyramid order the
    recursive map reads, or in the split tree it walks, fails the dictionary
    check on K4 and the nbc-bijection-suite on the graphs with <= 4
    vertices."""
    orders = edge_orders(k4(), 3, random.Random(4))
    config = VerifyConfig(max_vertices=4)
    assert check_nbc_dictionaries(k4(), orders)[0] == []
    assert check_bijection_suite(config).ok
    monkeypatch.setattr(bonds_module, name, fault(getattr(bonds_module, name)))
    assert check_nbc_dictionaries(k4(), orders)[0]
    assert not check_bijection_suite(config).ok


def test_orientation_to_base_refuses_cycles_and_extra_sinks():
    """On K4, 1 -> 2 -> 3 -> 1 with every other arc into 0 has 0 as its only
    sink, so only the cycle check can refuse it; on the path 0 - 1 - 2, the
    arcs out of 1 leave two sinks."""
    g = k4()
    order = tuple(g.edges())
    cyclic = Digraph(4, [(1, 0), (2, 0), (3, 0), (1, 2), (3, 1), (2, 3)])
    assert sinks(cyclic) == [0]
    with pytest.raises(ValueError, match="orientation is cyclic"):
        orientation_to_base(cyclic, g, 0, order)
    two_sinks = Digraph(3, [(1, 0), (1, 2)])
    with pytest.raises(ValueError, match="does not have unique sink 0"):
        orientation_to_base(two_sinks, p3(), 0, (0, 1))
    # an acyclic orientation of K4, with the arcs of edges 3 and 4 swapped
    elsewhere = Digraph(4, [(1, 0), (2, 0), (3, 0), (1, 3), (1, 2), (3, 2)])
    assert sinks(elsewhere) == [0]
    with pytest.raises(ValueError, match="not an orientation"):
        orientation_to_base(elsewhere, g, 0, order)


def test_maps_build_no_heap_objects(monkeypatch):
    """The three maps and the acyclic orientations run on masks: with every
    way to make a PieceSystem or a Heap patched to raise, they still invert
    each other on every connected simple graph with <= 5 vertices."""

    def refuse(*args, **kwargs):
        raise AssertionError("a heap object was built")

    monkeypatch.setattr(heaps_module.PieceSystem, "__init__", refuse)
    monkeypatch.setattr(heaps_module.Heap, "__init__", refuse)
    monkeypatch.setattr(heaps_module.Heap, "_closed", classmethod(refuse))
    for g in connected_simple_graphs(5):
        order = tuple(g.edges())
        by_sink = {}
        for o in acyclic_orientations(g):
            if len(sinks(o)) == 1:
                by_sink.setdefault(sinks(o)[0], []).append(o)
        for x in range(g.n):
            for t in nbc_bases(g, order):
                direct = base_to_orientation_direct(t, g, x, order)
                recursive = base_to_orientation_recursive(t, g, x, order)
                assert direct.arcs == recursive.arcs
                assert orientation_to_base(recursive, g, x, order) == t
            for o in by_sink[x]:
                t = orientation_to_base(o, g, x, order)
                assert base_to_orientation_recursive(t, g, x, order).arcs == o.arcs


def _as_checked(o, g):
    """Whether o meets the precondition of ``g.orientation``, carries g's
    label tables, and holds the attributes, arcs included, that the checked
    ``Digraph`` constructor sets from the same arcs."""
    built = Digraph(g.n, o.arcs, g.vertex_labels, g.edge_labels)
    return (
        is_orientation_of(o, g)
        and o.vertex_labels is g.vertex_labels
        and o.edge_labels is g.edge_labels
        and vars(o) == vars(built)
    )


def test_orientation_builders_meet_the_constructor_precondition():
    """The acyclic orientations and both forward maps, on every connected
    simple graph with <= 5 vertices at every sink, and the pyramid map on
    the full pyramids of a labelled K4, all build through
    ``Multigraph.orientation`` and hand it arcs that orient the host."""
    rng = random.Random(17)
    for g in connected_simple_graphs(5):
        order = edge_orders(g, 2, rng)[1]
        assert all(_as_checked(o, g) for o in acyclic_orientations(g))
        for x in range(g.n):
            for t in nbc_bases(g, order):
                assert _as_checked(base_to_orientation_direct(t, g, x, order), g)
                assert _as_checked(base_to_orientation_recursive(t, g, x, order), g)
    g = Multigraph(4, k4().pairs, list("abcd"), [f"c{e}" for e in range(6)])
    ps = PieceSystem(g)
    pyramids = [p for beta in ps.pieces() for p in full_pyramids(ps, beta)]
    assert len(pyramids) == 4 * 6
    assert all(_as_checked(pyramid_to_orientation(ps, p), g) for p in pyramids)


def test_inverse_map_on_every_acyclic_orientation():
    """On every connected simple graph with <= 5 vertices, under a seeded
    edge order, orientation_to_base at every vertex x and on every acyclic
    orientation refuses with ValueError exactly when x is not the only sink,
    and otherwise returns a base the recursive map sends back to the
    orientation.  Any other exception fails the test."""
    rng = random.Random(2026)
    for g in connected_simple_graphs(5):
        order = edge_orders(g, 2, rng)[1]
        for o in acyclic_orientations(g):
            for x in range(g.n):
                if sinks(o) != [x]:
                    with pytest.raises(ValueError, match=f"unique sink {x}"):
                        orientation_to_base(o, g, x, order)
                    continue
                t = orientation_to_base(o, g, x, order)
                assert base_to_orientation_recursive(t, g, x, order).arcs == o.arcs
