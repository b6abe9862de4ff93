import pytest
from hypothesis import given
from hypothesis import strategies as st

from eulerpart.bonds import BondLattice
from eulerpart.corpus import connected_simple_graphs
from eulerpart.graphs import Digraph, Multigraph
from eulerpart.partition import SetPartition, all_set_partitions, components
from eulerpart.poset import FinitePoset
from oracles import _is_forest, partition_lattice, subposet


partitions_of_6 = st.builds(
    lambda seed: _partition_from_word(range(6), seed),
    st.lists(st.integers(min_value=0, max_value=3), min_size=6, max_size=6),
)


def _partition_from_word(ground, word):
    blocks = {}
    for x, w in zip(ground, word):
        blocks.setdefault(w, set()).add(x)
    return SetPartition(blocks.values())


def test_canonical_form_and_eq():
    a = SetPartition([{2, 1}, {3}])
    b = SetPartition([{3}, {1, 2}])
    assert a == b and hash(a) == hash(b)
    assert a.blocks[0] == frozenset({1, 2})


def test_rejects_bad_blocks():
    with pytest.raises(ValueError):
        SetPartition([{1}, {1, 2}])
    with pytest.raises(ValueError):
        SetPartition([set()])


def test_join_examples():
    ground = {1, 2}
    fine = SetPartition.singletons(ground)
    coarse = SetPartition.indiscrete(ground)
    assert fine.join(coarse) == coarse
    assert fine.join(fine) == fine
    assert coarse.refines(coarse)


@given(partitions_of_6, partitions_of_6)
def test_join_is_least_upper_bound(a, b):
    j = a.join(b)
    assert a.refines(j) and b.refines(j)
    # compare against an independent transitive-closure computation
    assert j == _join_by_closure(a, b)


def _join_by_closure(a, b):
    """Independent oracle: transitive closure of the overlap relation."""
    blocks = list(a.blocks) + list(b.blocks)
    merged = [set(x) for x in blocks]
    changed = True
    while changed:
        changed = False
        out = []
        for blk in merged:
            for other in out:
                if other & blk:
                    other |= blk
                    changed = True
                    break
            else:
                out.append(blk)
        merged = out
    return SetPartition(merged)


def _bfs_components(pairs):
    """Independent oracle: breadth-first search over an endpoint-pair list."""
    adjacent = {}
    for u, v in pairs:
        adjacent.setdefault(u, set()).add(v)
        adjacent.setdefault(v, set()).add(u)
    out, seen = set(), set()
    for start in adjacent:
        if start in seen:
            continue
        comp, frontier = {start}, [start]
        while frontier:
            frontier = [w for u in frontier for w in adjacent[u] if w not in comp]
            comp.update(frontier)
        seen |= comp
        out.add(frozenset(comp))
    return out


# small multigraphs with parallel edges and isolated vertices, plus a mask
# choosing an edge (or arc) subset and one choosing a vertex subset
multigraphs = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
            max_size=9,
        ),
        st.integers(min_value=0, max_value=(1 << 9) - 1),
        st.integers(min_value=0, max_value=(1 << n) - 1),
    )
)


@given(multigraphs)
def test_components_match_bfs(case):
    n, pairs, edge_mask, vertex_mask = case
    subset = [e for e in range(len(pairs)) if edge_mask >> e & 1]
    chosen = [pairs[e] for e in subset]
    assert {frozenset(c) for c in components(chosen)} == _bfs_components(chosen)
    expected = len(_bfs_components(chosen)) == 1
    assert Multigraph(n, pairs).edge_support_connected(subset) == expected
    assert Digraph(n, pairs).edge_support_connected(subset) == expected
    vertices = {v for v in range(n) if vertex_mask >> v & 1}
    inside = [(u, v) for u, v in pairs if u in vertices and v in vertices]
    isolated = {frozenset({v}) for v in vertices if not any(v in p for p in inside)}
    induced = _bfs_components(inside) | isolated
    assert Multigraph(n, pairs).induces_connected(vertices) == (len(induced) == 1)


@given(multigraphs)
def test_forest_test_matches_bridges(case):
    """A forest is an edge set in which every edge is a bridge."""
    n, pairs, edge_mask, _ = case
    g = Multigraph(n, pairs)
    subset = [e for e in range(len(pairs)) if edge_mask >> e & 1]

    def bridge(e):
        rest = [pairs[f] for f in subset if f != e]
        return not any(set(pairs[e]) <= c for c in _bfs_components(rest))

    assert _is_forest(g, subset) == all(bridge(e) for e in subset)


def test_connectivity_edge_cases():
    assert components([]) == []
    assert components([{4}]) == [{4}]
    assert not Multigraph(3, []).edge_support_connected()
    assert not Digraph(3, [(0, 1)]).edge_support_connected([])
    # isolated vertices are ignored by edge-support connectivity
    assert Multigraph(3, [(0, 1)]).edge_support_connected()
    assert Digraph(4, [(0, 1), (1, 0)]).edge_support_connected()
    # parallel edges
    assert Multigraph(2, [(0, 1), (0, 1)]).edge_support_connected()
    assert not _is_forest(Multigraph(2, [(0, 1), (0, 1)]), [0, 1])
    assert _is_forest(Multigraph(1, []), [])
    # vertex-induced connectivity: one vertex is connected, none is not
    assert Multigraph(1, []).induces_connected({0})
    assert not Multigraph(1, []).induces_connected(set())
    assert not Multigraph(3, [(0, 1)]).induces_connected({0, 1, 2})
    with pytest.raises(ValueError, match="unknown vertex 3"):
        Multigraph(3, [(0, 1)]).induces_connected({0, 3})
    with pytest.raises(ValueError, match="unknown vertex -1"):
        Multigraph(3, [(0, 1)]).induces_connected([-1])


def test_neighbor_masks_built_on_first_query():
    g = Multigraph(4, [(0, 1), (1, 2), (0, 1)])
    assert "_neighbor_masks" not in vars(g)
    assert g.induces_connected({0, 2, 1})
    assert vars(g)["_neighbor_masks"] == [0b10, 0b101, 0b10, 0]


@given(partitions_of_6, partitions_of_6)
def test_meet_is_greatest_lower_bound(a, b):
    m = a.meet(b)
    assert m.refines(a) and m.refines(b)


def test_all_set_partitions_bell_numbers():
    counts = [len(list(all_set_partitions(range(n)))) for n in range(6)]
    assert counts == [1, 1, 2, 5, 15, 52]


def test_partition_lattice_mobius_pi3():
    lat = partition_lattice([1, 2, 3])
    assert len(lat) == 5
    bottom, top = lat.bottom(), lat.top()
    assert lat.mobius(bottom, top) == 2
    assert lat.mobius(bottom, bottom) == 1
    assert sum(lat.mobius(bottom, x) for x in lat.down_set(top)) == 0


def test_mobius_zero_when_incomparable():
    lat = partition_lattice([1, 2, 3, 4])
    a = SetPartition([{1, 2}, {3}, {4}])
    b = SetPartition([{1}, {2}, {3, 4}])
    assert not a.refines(b)
    assert lat.mobius(a, b) == 0


def test_mobius_restriction_to_down_and_up_sets():
    """Möbius values do not change when the poset is cut to the relevant
    down-set or up-set."""
    lat = partition_lattice([1, 2, 3, 4])
    top = lat.top()
    for a in lat.elements:
        down = subposet(lat, lat.down_set(top))
        up = subposet(lat, lat.up_set(a))
        assert lat.mobius(a, top) == down.mobius(a, top)
        assert lat.mobius(a, top) == up.mobius(a, top)


def test_rank_and_characteristic_polynomial_pi3():
    lat = partition_lattice([1, 2, 3])
    assert lat.rank() == 2
    # chi(Pi_3) = t^2 - 3t + 2
    assert lat.characteristic_polynomial().coeffs == (2, -3, 1)


def test_covers_of_pi3():
    lat = partition_lattice([1, 2, 3])
    covers = lat.covers()
    assert len(covers) == 6  # three atoms over bottom, top over three atoms


def _bond_lattices(max_vertices):
    return [BondLattice(g) for g in connected_simple_graphs(max_vertices)]


def _assert_mobius_rows_invert_zeta(poset):
    """sum over a <= y <= b of mu(a, y) is 1 when a = b and 0 otherwise,
    for every a <= b.  The sum runs over all y <= b, so mu(a, y) must also
    read 0 where a and y are incomparable."""
    for a in poset.elements:
        for b in poset.elements:
            if poset.leq(a, b):
                total = sum(poset.mobius(a, y) for y in poset.down_set(b))
                assert total == (a == b), (a, b)


def test_mobius_rows_invert_the_zeta_function():
    """On Pi_4, on every bond lattice with at most 5 vertices, and on a
    poset whose index order is not a linear extension: the top comes first
    and the bottom last, so a sweep in index order would read the top's
    down-set before it is filled."""
    _assert_mobius_rows_invert_zeta(partition_lattice([1, 2, 3, 4]))
    for lat in _bond_lattices(5):
        _assert_mobius_rows_invert_zeta(lat)
    elements = ["t", "b", "a", "c", "0"]
    below = {"a": {"0"}, "b": {"0", "a"}, "c": {"0"}, "t": {"0", "a", "b", "c"}}
    poset = FinitePoset.from_leq(elements, lambda x, y: x == y or x in below.get(y, ()))
    _assert_mobius_rows_invert_zeta(poset)
    assert [poset.mobius("0", x) for x in elements] == [1, 0, -1, -1, 1]


def _cover_walk_ranks(poset):
    """Ranks by the definition: the bottom has rank 0, and an element is
    one above each element it covers, which must all agree.  Elements are
    taken by down-set size, so what they cover comes first."""
    below = {}
    for x, y in poset.covers():
        below.setdefault(y, []).append(x)
    ranks = {}
    for y in sorted(poset.elements, key=lambda y: len(poset.down_set(y))):
        (ranks[y],) = {ranks[x] + 1 for x in below.get(y, [])} or {0}
    return ranks


def test_block_count_ranks_match_a_cover_walk():
    """Ranks by block count equal ranks walked up the covers, on Pi_4 and on
    every bond lattice with at most 6 vertices."""
    for lat in [partition_lattice([1, 2, 3, 4]), *_bond_lattices(6)]:
        ranks = _cover_walk_ranks(lat)
        assert lat.rank_function() == ranks
        assert lat.rank() == max(ranks.values())
        assert all(lat.rank(x) == ranks[x] for x in lat.elements)


def _brute_covers(poset):
    """(x, y) with y covering x, by the definition, y in element order and
    then x in element order."""
    el, leq = poset.elements, poset.leq
    return [
        (x, y)
        for y in el
        for x in el
        if x != y
        and leq(x, y)
        and not any(z not in (x, y) and leq(x, z) and leq(z, y) for z in el)
    ]


def _brute_maximal(poset):
    el = poset.elements
    return [x for x in el if not any(y != x and poset.leq(x, y) for y in el)]


@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=9, unique=True),
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=14),
)
def test_covers_and_maximal_match_definitions(values, raw_pairs):
    # a random order: pairs point from the smaller position to the larger,
    # positions are not values, and the closure is taken by brute force
    n = len(values)
    less = {(a % n, b % n) for a, b in raw_pairs if a % n < b % n}
    changed = True
    while changed:
        extra = {(a, d) for a, b in less for c, d in less if b == c} - less
        less |= extra
        changed = bool(extra)
    pos = {x: i for i, x in enumerate(values)}
    poset = FinitePoset.from_leq(values, lambda x, y: x == y or (pos[x], pos[y]) in less)
    assert poset.covers() == _brute_covers(poset)
    assert poset.maximal_elements() == _brute_maximal(poset)


def test_covers_and_maximal_of_pi4():
    lat = partition_lattice([1, 2, 3, 4])
    assert lat.covers() == _brute_covers(lat)
    assert len(lat.covers()) == 6 + 6 * 3 + 7  # bottom->atoms, atoms->rank 2, rank 2->top
    assert lat.maximal_elements() == _brute_maximal(lat) == [lat.top()]
