import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulerpart.heaps as heaps_module
from eulerpart.errors import CapExceededError
from eulerpart.graphs import Digraph, Multigraph
from eulerpart.heaps import (
    Heap,
    PieceSystem,
    compose,
    count_full_pyramids,
    decomposition_pyramids,
    full_pyramids,
    is_full,
    is_heap,
    orientation_to_pyramid,
    pyramid_split_identity,
    pyramid_to_orientation,
    pyramid_to_trail,
    sandwich_check,
    trail_to_pyramid,
)
from eulerpart.partition import SetPartition
from eulerpart.trails import eulerian_trails_ending_at, intersection_graph, trails_with_cycle_partition
from oracles import push_down


def path_system(k):
    """Pieces 0-1-2-...-k-1 concurrent along a path."""
    return PieceSystem(Multigraph(k, [(i, i + 1) for i in range(k - 1)]))


def triangle_system():
    return PieceSystem(Multigraph(3, [(0, 1), (0, 2), (1, 2)]))


def test_heap_validation_basics():
    ps = path_system(2)
    chain = Heap((0, 1), [(0, 1)])
    ok, witness = is_heap(ps, chain)
    assert ok and witness is None
    antichain = Heap((0, 1), [])
    ok, witness = is_heap(ps, antichain)
    assert not ok and "incomparable" in witness
    # each piece is concurrent with itself, even one with no neighbour
    twins = Heap((0, 1), [], labels={0: 0, 1: 0})
    ok, witness = is_heap(PieceSystem(Multigraph(1, [])), twins)
    assert not ok and "incomparable" in witness


def test_antichain_of_non_concurrent_pieces_is_a_heap():
    ps = path_system(3)
    antichain = Heap((0, 2), [])
    assert is_heap(ps, antichain)[0]
    assert sandwich_check(ps, antichain)


def test_heap_axioms_vs_sandwich_on_random_posets():
    """The axiom route and the sandwich route agree on every labeled poset
    over a small piece system."""
    ps = triangle_system()
    elements = (0, 1, 2)
    candidate_pairs = [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]
    for mask in range(1 << len(candidate_pairs)):
        pairs = [p for i, p in enumerate(candidate_pairs) if mask >> i & 1]
        try:
            heap = Heap(elements, pairs)
        except ValueError:
            continue  # cyclic relation
        assert is_heap(ps, heap)[0] == sandwich_check(ps, heap)


def test_non_concurrent_cover_detected():
    ps = path_system(3)  # pieces 0 and 2 are not concurrent
    heap = Heap((0, 2), [(0, 2)])
    ok, witness = is_heap(ps, heap)
    assert not ok and "non-concurrent" in witness


def test_compose_identity_and_monoid():
    ps = triangle_system()
    h = Heap((0, 1), [(0, 1)])
    assert compose(ps, h, Heap.empty()) == h
    assert compose(ps, Heap.empty(), h) == h


def test_compose_two_concurrent_singletons_is_chain():
    ps = path_system(2)
    chain = compose(ps, Heap.singleton(0), Heap.singleton(1))
    assert chain.less(0, 1) and chain.is_pyramid() and chain.apex() == 1


@given(st.lists(st.sampled_from([0, 1, 2]), min_size=3, max_size=3, unique=True))
@settings(max_examples=20)
def test_compose_associative(order):
    ps = triangle_system()
    a, b, c = (Heap.singleton(x) for x in order)
    left = compose(ps, compose(ps, a, b), c)
    right = compose(ps, a, compose(ps, b, c))
    assert left == right


def test_compose_associative_with_gaps():
    # non-concurrent pieces stay incomparable through composition
    ps = path_system(3)
    h1 = Heap.singleton(0)
    h2 = Heap.singleton(2)
    both = compose(ps, h1, h2)
    assert not both.comparable(0, 2)
    tall = compose(ps, both, Heap.singleton(1))
    assert tall.less(0, 1) and tall.less(2, 1)


def test_compose_rejects_overlap():
    ps = path_system(2)
    with pytest.raises(ValueError):
        compose(ps, Heap.singleton(0), Heap.singleton(0))


def test_push_down_pyramid_returns_self():
    ps = path_system(3)
    pyr = full_pyramids(ps, 2)[0]
    top, rest = push_down(pyr, pyr.apex())
    assert top == pyr and len(rest) == 0


def test_push_down_two_element_antichain():
    ps = path_system(3)
    heap = Heap((0, 2), [])  # non-concurrent pieces, both maximal
    first, rest = push_down(heap, 0)
    assert len(first) == 1 and len(rest) == 1
    assert rest.maximal() == [2]


def test_push_down_reconstructs():
    ps = triangle_system()
    heap = compose(ps, compose(ps, Heap.singleton(0), Heap.singleton(1)), Heap.singleton(2))
    for w in heap.maximal():
        part, rest = push_down(heap, w)
        assert compose(ps, part, rest).relation() == heap.relation()
        assert set(rest.maximal()) == set(heap.maximal()) - {w}
    with pytest.raises(ValueError):
        push_down(heap, 0) if 0 not in heap.maximal() else None


def test_push_down_iterated_reconstruction():
    # two maximal elements (0 and 2), so extraction order genuinely varies
    ps = path_system(4)
    heap = Heap((0, 1, 2, 3), [(1, 0), (1, 2), (3, 2)])
    assert is_heap(ps, heap)[0]
    assert sorted(heap.maximal()) == [0, 2]
    # peel maximal elements one at a time; composing the pyramids in
    # extraction order must restore the heap exactly
    for first_max in heap.maximal():
        pieces = []
        rest = heap
        w = first_max
        while len(rest):
            part, rest = push_down(rest, w)
            pieces.append(part)
            w = min(rest.maximal()) if len(rest) else None
        rebuilt = Heap.empty()
        for part in pieces:
            rebuilt = compose(ps, rebuilt, part)
        assert rebuilt == heap


def test_full_pyramids_trivial_cases():
    one = PieceSystem(Multigraph(1, []))
    assert count_full_pyramids(one, 0) == 1
    two = path_system(2)
    assert count_full_pyramids(two, 0) == 1
    assert count_full_pyramids(two, 1) == 1
    with pytest.raises(ValueError):
        full_pyramids(two, 7)


def test_full_pyramids_disconnected_empty():
    ps = PieceSystem(Multigraph(2, []))
    assert full_pyramids(ps, 0) == []


def test_full_pyramids_refuse_over_the_piece_cap():
    """A 20-piece path used to take 2.7 s in the subset sweep; it is
    refused before the sweep, and so is every call over the cap."""
    cap = heaps_module.PYRAMID_PIECE_CAP
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match=f"up to {cap} pieces"):
        count_full_pyramids(path_system(20), 19)
    assert time.perf_counter() - start < 0.1
    for call in (
        lambda ps: full_pyramids(ps, 0),
        lambda ps: pyramid_split_identity(ps, 0, 1),
    ):
        with pytest.raises(CapExceededError):
            call(path_system(cap + 1))
    assert count_full_pyramids(path_system(cap), 0) == 1
    assert full_pyramids(path_system(cap + 1), 0, subset=range(cap)) != []


def test_full_pyramids_counts_on_example_partitions(example_digraph):
    a2 = SetPartition([{0, 2, 4}, {1, 3, 5}, {6, 7}])
    ps = PieceSystem(intersection_graph(example_digraph, a2))
    counts = [count_full_pyramids(ps, beta) for beta in ps.pieces()]
    assert counts == [2, 2, 2]
    a1 = SetPartition([{0, 1}, {2, 3}, {4, 5}, {6, 7}])
    ps1 = PieceSystem(intersection_graph(example_digraph, a1))
    counts1 = [count_full_pyramids(ps1, beta) for beta in ps1.pieces()]
    assert len(set(counts1)) == 1 and counts1[0] == 4


def test_pyramids_are_valid_full_pyramids():
    ps = triangle_system()
    for beta in ps.pieces():
        for pyr in full_pyramids(ps, beta):
            assert is_heap(ps, pyr)[0]
            assert is_full(ps, pyr)
            assert pyr.is_pyramid() and pyr.apex() == beta


def test_total_pyramid_count_identity():
    """|P(B)| = |B| * |P^beta(B)| for connected piece systems."""
    for ps in (path_system(3), path_system(4), triangle_system()):
        per_apex = [count_full_pyramids(ps, b) for b in ps.pieces()]
        assert len(set(per_apex)) == 1
        total = sum(per_apex)
        assert total == ps.k * per_apex[0]


def test_pyramid_split_identity():
    ps = triangle_system()
    lhs, rhs, terms = pyramid_split_identity(ps, 0, 1)
    assert lhs == rhs == 2
    assert len(terms) == 2
    two = path_system(2)
    lhs, rhs, _ = pyramid_split_identity(two, 0, 1)
    assert lhs == rhs == 1
    with pytest.raises(ValueError):
        pyramid_split_identity(path_system(3), 0, 2)  # not concurrent


def test_pyramid_split_identity_example(example_digraph):
    a1 = SetPartition([{0, 1}, {2, 3}, {4, 5}, {6, 7}])
    ps = PieceSystem(intersection_graph(example_digraph, a1))
    for b1 in ps.pieces():
        for b2 in ps.neighbors(b1):
            lhs, rhs, _ = pyramid_split_identity(ps, b1, b2)
            assert lhs == rhs


def test_pyramid_to_orientation_two_chain():
    ps = path_system(2)
    chain = compose(ps, Heap.singleton(0), Heap.singleton(1))
    o = pyramid_to_orientation(ps, chain)
    assert o.arcs == ((0, 1),)
    assert [v for v in range(2) if o.out_degree(v) == 0] == [1]


def test_pyramid_orientation_round_trip():
    for ps in (triangle_system(), path_system(4)):
        for beta in ps.pieces():
            for pyr in full_pyramids(ps, beta):
                o = pyramid_to_orientation(ps, pyr)
                assert orientation_to_pyramid(ps, o) == pyr


def test_orientation_to_pyramid_rejects_bad_input():
    ps = triangle_system()
    cyclic = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError):
        orientation_to_pyramid(ps, cyclic)
    two_sinks = Digraph(3, [(1, 0), (1, 2), (0, 2)])
    # sinks are exactly vertex 2 here; build a genuinely two-sink example
    star = PieceSystem(Multigraph(3, [(0, 1), (1, 2)]))
    bad = Digraph(3, [(1, 0), (1, 2)])
    with pytest.raises(ValueError):
        orientation_to_pyramid(star, bad)


def test_decomposition_pyramids_cycle(three_cycle):
    groups = decomposition_pyramids(three_cycle, 0)
    assert len(groups) == 1
    _, _, _, pyramids = groups[0]
    assert len(pyramids) == 1
    with pytest.raises(ValueError):
        decomposition_pyramids(three_cycle, 99)


def test_decomposition_pyramids_example_total(example_digraph):
    for e in (0, 3, 6):
        groups = decomposition_pyramids(example_digraph, e)
        total = sum(len(pyrs) for _, _, _, pyrs in groups)
        assert total == len(eulerian_trails_ending_at(example_digraph, e)) == 6


def test_per_partition_counts_match_trail_fibers(example_digraph):
    for e in example_digraph.edges():
        for a, ps, beta, pyramids in decomposition_pyramids(example_digraph, e):
            fiber = trails_with_cycle_partition(example_digraph, e, a)
            assert len(fiber) == len(pyramids)


def test_trail_pyramid_bijection_example(example_digraph):
    """Both directions: trails inject into pyramids, and folding the pyramid
    back recovers the trail."""
    for e in example_digraph.edges():
        seen = set()
        for w in eulerian_trails_ending_at(example_digraph, e):
            a, ps, pyramid = trail_to_pyramid(example_digraph, w)
            assert is_full(ps, pyramid) and pyramid.is_pyramid()
            assert e in a.blocks[pyramid.labels[pyramid.apex()]]
            key = (a, pyramid.relation())
            assert key not in seen
            seen.add(key)
            assert pyramid_to_trail(example_digraph, a, pyramid, e) == w


def test_heap_rejects_duplicate_and_non_int_elements():
    with pytest.raises(ValueError, match="distinct"):
        Heap((0, 0), [])
    with pytest.raises(ValueError, match="distinct"):
        Heap((3, 1, 3), [(1, 3)])
    for bad in ((-1,), ("a",), (0, 1.0)):
        with pytest.raises(ValueError, match="non-negative ints"):
            Heap(bad, [])


# -- the order routines against a dict-of-sets closure written here ----------


def _closure(elements, pairs):
    """Strict down-sets, closed by iterating to a fixed point; None on a cycle."""
    below = {x: set() for x in elements}
    for a, b in pairs:
        below[b].add(a)
    changed = True
    while changed:
        changed = False
        for y in elements:
            extra = set().union(*(below[x] for x in below[y])) - below[y]
            if extra:
                below[y] |= extra
                changed = True
    if any(x in below[x] for x in elements):
        return None
    return below


def _relation(below):
    return {(x, y) for y in below for x in below[y]}


@st.composite
def relations(draw, max_elements=7):
    """Element sets with gaps, and arbitrary pairs over them (cycles included)."""
    elements = draw(st.lists(st.integers(0, 15), min_size=1, max_size=max_elements, unique=True))
    pair = st.tuples(st.sampled_from(elements), st.sampled_from(elements))
    return elements, draw(st.lists(pair, max_size=10))


@given(relations(), st.data())
@settings(max_examples=200)
def test_heap_order_matches_closure_oracle(case, data):
    elements, pairs = case
    below = _closure(elements, pairs)
    if below is None:
        with pytest.raises(ValueError, match="cycle"):
            Heap(elements, pairs)
        return
    heap = Heap(elements, pairs)
    assert heap.elements == tuple(sorted(elements))
    for a in elements:
        assert heap.down_set(a) == below[a] | {a}
        for b in elements:
            assert heap.less(a, b) == (a in below[b])
            assert heap.comparable(a, b) == (a == b or a in below[b] or b in below[a])
    assert heap.relation() == _relation(below)
    assert heap.covers() == sorted(
        (x, y)
        for y in elements
        for x in below[y]
        if not any(x in below[z] for z in below[y])
    )
    assert heap.maximal() == [x for x in sorted(elements) if not any(x in below[y] for y in elements)]
    order = heap.canonical_linear_extension()
    taken = []
    for x in order:
        assert x == min(y for y in elements if y not in taken and below[y] <= set(taken))
        taken.append(x)
    assert sorted(order) == sorted(elements)
    subset = data.draw(st.sets(st.sampled_from(elements)))
    part = heap.restrict(subset)
    assert part.elements == tuple(sorted(subset))
    assert part.relation() == {(x, y) for x, y in _relation(below) if x in subset and y in subset}
    assert part == Heap(subset, part.relation())


@given(
    st.lists(st.integers(0, 15), min_size=0, max_size=8, unique=True),
    st.integers(0, 8),
    st.data(),
)
@settings(max_examples=200)
def test_compose_matches_closure_oracle(values, cut, data):
    k = data.draw(st.integers(1, 5))
    possible = [(u, v) for u in range(k) for v in range(u + 1, k)]
    ps = PieceSystem(Multigraph(k, data.draw(st.sets(st.sampled_from(possible))) if possible else []))
    first, second = values[:cut], values[cut:]
    piece = st.integers(0, k - 1)

    def random_heap(elements):
        pairs = [(a, b) for a in elements for b in elements if a < b and data.draw(st.booleans())]
        labels = {x: data.draw(piece) for x in elements}
        return Heap(elements, pairs, labels)

    h1, h2 = random_heap(first), random_heap(second)
    both = compose(ps, h1, h2)
    cross = [(x, y) for x in first for y in second if ps.concurrent(h1.labels[x], h2.labels[y])]
    below = _closure(values, list(h1.relation()) + list(h2.relation()) + cross)
    assert both.elements == tuple(sorted(values))
    assert both.relation() == _relation(below)
    assert both.labels == {**h1.labels, **h2.labels}
    assert both == Heap(values, both.relation(), both.labels)
    assert hash(both) == hash(Heap(values, both.relation(), both.labels))
