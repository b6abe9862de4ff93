import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from eulerpart import trails as trails_module
from eulerpart import veblen
from eulerpart.corpus import (
    complete_graph,
    spot_hosts,
    veblen_corpus,
    wheel_graph,
)
from eulerpart.errors import CapExceededError
from eulerpart.graphs import (
    Multigraph,
    is_eulerian,
    orientations,
    out_degree_factorial_product,
    parallel_factorial_product,
)
from eulerpart.lattice import circuit_partition_counts
from eulerpart.poly import IntPoly
from eulerpart.poset import bits
from eulerpart.trails import count_eulerian_circuits
from eulerpart.veblen import (
    VeblenMultigraph,
    associated_coefficient,
    associated_coefficient_via_rootings,
    charpoly_determinant_oracle,
    circuit_partitions_of_orientation,
    count_rooting_tuples,
    decomposition_classes,
    decompositions,
    elementary_subgraph_formula,
    enumerate_infragraphs,
    eulerian_orientation_classes,
    hs_characteristic_polynomial,
    is_decomposable,
    is_veblen,
    rooting_class_sizes,
    weight,
)
from oracles import relabeled_copy, weight_via_all_decompositions


def k2():
    return Multigraph(2, [(0, 1)])


def k3():
    return Multigraph(3, [(0, 1), (0, 2), (1, 2)])


def p3():
    return Multigraph(3, [(0, 1), (1, 2)])


def doubled(n_copies=2):
    return VeblenMultigraph(2, [(0, 1)] * n_copies)


def triangle_v():
    return VeblenMultigraph(3, [(0, 1), (0, 2), (1, 2)])


def test_is_veblen():
    assert is_veblen(doubled())
    assert is_veblen(triangle_v())
    assert not is_veblen(k2())
    with pytest.raises(ValueError):
        VeblenMultigraph(2, [(0, 1)])


def test_enumerate_infragraphs_k2():
    found = enumerate_infragraphs(k2(), 4)
    assert [x.m for x in found] == [2, 4]  # doubled and quadrupled edge


def test_enumerate_infragraphs_k3():
    found = enumerate_infragraphs(k3(), 3)
    assert len(found) == 4  # three doubled edges and the triangle
    assert sorted(x.m for x in found) == [2, 2, 2, 3]


def test_enumerate_infragraphs_trivial_and_cap():
    assert enumerate_infragraphs(Multigraph(3, []), 4) == []
    with pytest.raises(CapExceededError):
        enumerate_infragraphs(k3(), 13)


def test_enumerate_infragraphs_can_be_disconnected():
    square = Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    found = enumerate_infragraphs(square, 4)
    comps = {(x.m, x.component_count()) for x in found}
    assert (4, 2) in comps  # two disjoint doubled edges


def test_decompositions_doubled_edge():
    decs = decompositions(doubled())
    assert len(decs) == 1 and decs[0].block_count == 1


def test_decompositions_quadrupled_edge():
    x = doubled(4)
    decs = decompositions(x)
    assert sorted(d.block_count for d in decs) == [1, 2, 2, 2]
    classes = decomposition_classes(x)
    assert sorted(c.size for c in classes) == [1, 3]
    pairing = next(c for c in classes if c.size == 3)
    assert pairing.representative.symmetry_factor == 2
    assert pairing.representative.factorial_product == 4
    # |class| = M_X / (M_S * alpha)
    assert pairing.size == 24 // (4 * 2)


def test_decomposition_class_size_formula_sextupled():
    """Class sizes match M_X / (M_S * alpha) even with three same-shape
    blocks, which forces the factorial in alpha."""
    x = doubled(6)
    m_x = x.factorial_product
    for cls in decomposition_classes(x):
        dec = cls.representative
        assert cls.size * dec.factorial_product * dec.symmetry_factor == m_x
    pairings = next(
        c for c in decomposition_classes(x) if c.representative.block_count == 3
    )
    assert pairings.size == 15 and pairings.representative.symmetry_factor == 6


def test_decompositions_triangle():
    assert len(decompositions(triangle_v())) == 1


def test_decompositions_reject_odd_degrees():
    with pytest.raises(ValueError):
        decompositions(k2())


def test_is_decomposable():
    assert not is_decomposable(doubled())
    assert not is_decomposable(triangle_v())
    assert is_decomposable(doubled(4))
    figure_eight = VeblenMultigraph(
        5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]
    )
    assert is_decomposable(figure_eight)


def _has_proper_even_subset(x):
    """Decomposability by its definition, over all 2^m edge subsets: some
    proper nonempty subset leaves every degree even.  parity[mask] is the
    xor of the endpoint masks of the edges in mask."""
    ends = [1 << u | 1 << v for u, v in x.pairs]
    parity = [0] * (1 << x.m)
    for mask in range(1, len(parity) - 1):
        low = mask & -mask
        parity[mask] = parity[mask ^ low] ^ ends[low.bit_length() - 1]
        if not parity[mask]:
            return True
    return False


def _closed_walk_multigraph(rng, max_edges):
    """The edges of a closed walk of 2..max_edges steps on at most 6
    vertices, no step staying put: connected, even and often parallel."""
    n = rng.randint(2, 6)
    while True:
        walk = [rng.randrange(n)]
        for _ in range(rng.randint(2, max_edges) - 1):
            walk.append(rng.choice([v for v in range(n) if v != walk[-1]]))
        if walk[-1] != walk[0]:
            return Multigraph(n, list(zip(walk, walk[1:] + walk[:1])))


def test_decomposable_exactly_when_a_degree_passes_two():
    """An even multigraph is an edge-disjoint union of cycles, so the degree
    test of is_decomposable must agree with the subset definition."""
    rng = random.Random(2025)
    inputs = list(veblen_corpus(8, 5)) + [_closed_walk_multigraph(rng, 12) for _ in range(60)]
    found = [is_decomposable(x) for x in inputs]
    assert found == [_has_proper_even_subset(x) for x in inputs]
    assert found.count(False) >= 5 and found.count(True) >= 5


def _unpruned_orientation_classes(x):
    """Every vector of forward counts over the sorted parallel classes, in
    lexicographic order, kept when the orientation it spells is balanced."""
    classes = sorted(x.parallel_classes().items())
    reps = []
    for counts in itertools.product(*(range(len(members) + 1) for _, members in classes)):
        arcs = []
        for ((u, v), members), forward in zip(classes, counts):
            arcs += [(u, v)] * forward + [(v, u)] * (len(members) - forward)
        net = Counter()
        for u, v in arcs:
            net[u] += 1
            net[v] -= 1
        if not any(net.values()):
            reps.append(tuple(arcs))
    return reps


def test_orientation_classes_prune_only_unbalanced_branches():
    """The pruned sweep of eulerian_orientation_classes keeps the same
    representatives, in the same order, as the sweep over every vector of
    forward counts, on the Veblen corpus and on seeded closed walks."""
    rng = random.Random(17)
    walks = [_closed_walk_multigraph(rng, 12) for _ in range(40)]
    inputs = list(veblen_corpus(8, 5)) + [VeblenMultigraph(w.n, w.pairs) for w in walks]
    total = 0
    for x in inputs:
        found = [d.arcs for d in eulerian_orientation_classes(x)]
        assert found == _unpruned_orientation_classes(x)
        total += len(found)
    assert total > len(inputs)


def test_weight_via_all_decompositions_refuses_odd_degrees():
    with pytest.raises(ValueError):
        weight_via_all_decompositions(k2())


def test_associated_coefficient_examples():
    assert associated_coefficient(doubled()) == 1
    assert associated_coefficient(triangle_v()) == 2
    assert associated_coefficient(doubled(4)) == Fraction(12, 24)


def test_associated_coefficient_rootings_route():
    for x in (doubled(), triangle_v(), doubled(4), doubled(6)):
        assert associated_coefficient(x) == associated_coefficient_via_rootings(x)


def test_rooting_class_sizes_against_exhaustive_tuples():
    for x in (doubled(), doubled(4), triangle_v()):
        for rep, size in rooting_class_sizes(x):
            assert size == count_rooting_tuples(rep)


def test_rooting_class_sizes_refuse_a_disconnected_multigraph():
    """Two doubled edges on disjoint vertices: every degree is even, but the
    edges are not connected, so no class is Eulerian; both rooting routines
    refuse it before the sweep."""
    x = VeblenMultigraph(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
    for route in (rooting_class_sizes, associated_coefficient_via_rootings):
        with pytest.raises(ValueError, match="connected multigraph"):
            route(x)


def test_rooting_class_sizes_keep_only_eulerian_classes():
    """On the Veblen corpus, the classes listed with no per-class test are
    exactly the Eulerian ones among the orientation classes."""
    for x in veblen_corpus(8, 5):
        expected = [rep for rep in eulerian_orientation_classes(x) if is_eulerian(rep)]
        found = rooting_class_sizes(x)
        assert [rep.arcs for rep, _ in found] == [rep.arcs for rep in expected]
        assert [size for _, size in found] == [
            out_degree_factorial_product(rep) // parallel_factorial_product(rep)
            for rep in expected
        ]


def test_rooting_classes_partition_eulerian_orientations():
    """Vertex-fixing class sizes of balanced orientations sum to the number
    of balanced orientations."""
    for x in (doubled(4), triangle_v()):
        balanced = [o for o in orientations(x) if o.is_balanced()]
        groups = {}
        for o in balanced:
            groups.setdefault(multiplicity_key_digraph(o), []).append(o)
        class_reps = rooting_class_sizes(x)
        assert len(groups) == len(class_reps)


def multiplicity_key_digraph(d):
    counts = {}
    for a in d.arcs:
        counts[a] = counts.get(a, 0) + 1
    return tuple(sorted(counts.items()))


def test_weight_examples():
    assert weight(doubled()) == 1
    assert weight(triangle_v()) == 2
    assert weight(doubled(4)) == 0
    assert weight(doubled(6)) == 0


def test_weight_independent_of_n():
    for n in (0, 1, 5):
        assert weight(triangle_v(), n) == 2


def test_weight_quotient_matches_full_sum():
    for x in (doubled(), doubled(4), doubled(6), triangle_v()):
        assert weight(x) == weight_via_all_decompositions(x)


def test_weight_multiplicative_over_components():
    two_pairs = VeblenMultigraph(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
    assert two_pairs.component_count() == 2
    assert weight(two_pairs) == 1
    pair_and_triangle = VeblenMultigraph(
        5, [(0, 1), (0, 1), (2, 3), (3, 4), (2, 4)]
    )
    assert weight(pair_and_triangle) == 2


def test_weight_vanishes_on_decomposables():
    figure_eight = VeblenMultigraph(
        5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]
    )
    assert weight(figure_eight) == 0
    doubled_path = VeblenMultigraph(3, [(0, 1), (0, 1), (1, 2), (1, 2)])
    assert weight(doubled_path) == 0


def test_circuit_partitions_of_orientation(example_digraph):
    f = circuit_partition_counts(example_digraph)
    assert circuit_partitions_of_orientation(example_digraph, 1) == f[0] == 6
    assert circuit_partitions_of_orientation(example_digraph, 2) == f[1] == 11
    assert circuit_partitions_of_orientation(example_digraph, 3) == f[2] == 6
    assert circuit_partitions_of_orientation(example_digraph, 4) == f[3] == 1
    assert circuit_partitions_of_orientation(example_digraph, 5) == 0


def test_circuit_partitions_match_lattice_counts(two_cycle):
    assert circuit_partitions_of_orientation(two_cycle, 1) == 1


def test_charpoly_oracle_known_values():
    t = IntPoly.t()
    assert charpoly_determinant_oracle(k2()) == t**2 - 1
    assert charpoly_determinant_oracle(k3()) == t**3 - 3 * t - 2
    assert charpoly_determinant_oracle(p3()) == t**3 - 2 * t
    c4 = Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert charpoly_determinant_oracle(c4) == t**4 - 4 * t**2


def test_hs_polynomial_small_hosts():
    t = IntPoly.t()
    assert hs_characteristic_polynomial(k2()) == t**2 - 1
    assert hs_characteristic_polynomial(k3()) == t**3 - 3 * t - 2
    assert hs_characteristic_polynomial(p3()) == t**3 - 2 * t


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabeled_copy(g, perm)


def test_hs_polynomial_matches_oracle_on_relabelled_k6_k7():
    k7_minus_e = Multigraph(7, [p for p in complete_graph(7).pairs if p != (2, 5)])
    assert k7_minus_e.m == 20
    for seed, host in enumerate((complete_graph(6), complete_graph(7), k7_minus_e)):
        host = _relabelled(host, seed)
        assert hs_characteristic_polynomial(host) == charpoly_determinant_oracle(host)


def test_hs_polynomial_weighs_connected_components_only(monkeypatch):
    real = veblen.weight
    seen = []

    def counting(x, n=0, _cache=None):
        seen.append(x.component_count())
        return real(x, n, _cache)

    k6 = complete_graph(6)
    infragraphs = len(enumerate_infragraphs(k6, k6.n))
    monkeypatch.setattr(veblen, "_COMPONENT_CLASSES", veblen._ComponentClasses())
    monkeypatch.setattr(veblen, "weight", counting)
    assert hs_characteristic_polynomial(k6) == charpoly_determinant_oracle(k6)
    assert seen and set(seen) == {1}
    assert len(seen) < infragraphs


def _weight_calls(monkeypatch, host):
    """Calls of ``weight`` made by the Harary-Sachs route on host, whose
    polynomial must equal the determinant oracle's."""
    real = veblen.weight
    calls = []

    def counting(x, n=0, _cache=None):
        calls.append(x)
        return real(x, n, _cache)

    monkeypatch.setattr(veblen, "_COMPONENT_CLASSES", veblen._ComponentClasses())
    monkeypatch.setattr(veblen, "weight", counting)
    poly = hs_characteristic_polynomial(host)
    monkeypatch.setattr(veblen, "weight", real)
    assert poly == charpoly_determinant_oracle(host)
    return len(calls)


def test_hs_weight_calls_do_not_depend_on_labels(monkeypatch):
    """The component memo ends in isomorphism classes, so every labelling
    of a host makes the same calls: one per class of component."""
    wheel = wheel_graph(6)
    counts = [_weight_calls(monkeypatch, wheel)]
    counts += [_weight_calls(monkeypatch, _relabelled(wheel, seed)) for seed in range(5)]
    assert len(set(counts)) == 1
    assert _weight_calls(monkeypatch, complete_graph(6)) == 18


def test_hs_component_classes_are_shared_across_hosts(monkeypatch):
    """One store serves every host of the process: over the 51 spot hosts,
    in a seeded order, ``weight`` runs once per stored class, and a host
    whose classes are all stored makes no call."""
    real = veblen.weight
    calls = []

    def counting(x, n=0, _cache=None):
        calls.append(x)
        return real(x, n, _cache)

    store = veblen._ComponentClasses()
    monkeypatch.setattr(veblen, "_COMPONENT_CLASSES", store)
    monkeypatch.setattr(veblen, "weight", counting)
    hosts = spot_hosts(7)
    random.Random(20261019).shuffle(hosts)
    assert len(hosts) == 51
    for host in hosts:
        assert hs_characteristic_polynomial(host) == charpoly_determinant_oracle(host)
    assert len(calls) == store.store.classes == len(store.weights) == 33
    assert all(isinstance(w, int) for w in store.weights)
    calls.clear()
    k6 = _relabelled(complete_graph(6), 7)
    assert hs_characteristic_polynomial(k6) == charpoly_determinant_oracle(k6)
    assert calls == []


def test_hs_repeated_component_keys_skip_the_match(monkeypatch):
    """The labelled component keys are kept with the classes, so a second
    run on the same host asks the isomorphism store nothing."""
    store = veblen._ComponentClasses()
    monkeypatch.setattr(veblen, "_COMPONENT_CLASSES", store)
    host = _relabelled(wheel_graph(6), 3)
    expected = charpoly_determinant_oracle(host)
    assert hs_characteristic_polynomial(host) == expected
    real = store.store.class_index
    asked = []
    monkeypatch.setattr(store.store, "class_index", lambda key: asked.append(key) or real(key))
    assert hs_characteristic_polynomial(host) == expected
    assert asked == []


def test_hs_store_follows_a_replaced_weight(monkeypatch):
    """The process store holds the values of one weight function: a
    replaced ``weight`` is called although every class is stored, and its
    values go when it does."""
    k4 = complete_graph(4)
    expected = charpoly_determinant_oracle(k4)
    assert hs_characteristic_polynomial(k4) == expected
    real = veblen.weight
    monkeypatch.setattr(veblen, "weight", lambda x, n=0, _cache=None: -real(x, n, _cache))
    assert hs_characteristic_polynomial(k4) != expected
    monkeypatch.undo()
    assert hs_characteristic_polynomial(k4) == expected


def test_hs_polynomial_still_asserts_integral_coefficients(monkeypatch):
    """A half-integral class weight reaches the coefficients as a Fraction
    and is refused by the final integrality test."""
    real = veblen.weight

    def halved(x, n=0, _cache=None):
        value = real(x, n, _cache)
        return value / 2 if x.n == 2 else value

    monkeypatch.setattr(veblen, "_COMPONENT_CLASSES", veblen._ComponentClasses())
    monkeypatch.setattr(veblen, "weight", halved)
    with pytest.raises(AssertionError, match="non-integral"):
        hs_characteristic_polynomial(k2())


def _even_vectors_by_brute_force(pairs, n, max_edges):
    found = set()
    for mults in itertools.product(range(max_edges + 1), repeat=len(pairs)):
        if not 0 < sum(mults) <= max_edges:
            continue
        degree = [0] * n
        for (u, v), m in zip(pairs, mults):
            degree[u] += m
            degree[v] += m
        if all(d % 2 == 0 for d in degree):
            found.add(tuple((i, m) for i, m in enumerate(mults) if m))
    return found


def test_multiplicity_vectors_feed_enumerate_infragraphs():
    """The route and the enumerator read one generator: it yields one
    vector per infragraph at every budget, and on K4 exactly the
    even-degree vectors that a brute force over all vectors finds."""
    for host in (complete_graph(4), complete_graph(5), wheel_graph(6)):
        pairs = veblen._host_pairs(host)
        for k in range(host.n + 1):
            vectors = list(veblen._multiplicity_vectors(pairs, k))
            assert len(vectors) == len(set(vectors))
            assert len(vectors) == len(enumerate_infragraphs(host, k))
    pairs = veblen._host_pairs(complete_graph(4))
    for k in range(5):
        assert set(veblen._multiplicity_vectors(pairs, k)) == _even_vectors_by_brute_force(pairs, 4, k)


def test_elementary_formula_small_hosts():
    t = IntPoly.t()
    assert elementary_subgraph_formula(k3()) == t**3 - 3 * t - 2
    assert elementary_subgraph_formula(Multigraph(3, [])) == t**3
    c4 = Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert elementary_subgraph_formula(c4) == t**4 - 4 * t**2


def test_three_routes_agree_on_c4_and_k4():
    c4 = Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    k4 = Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    for g in (c4, k4):
        det = charpoly_determinant_oracle(g)
        assert hs_characteristic_polynomial(g) == det
        assert elementary_subgraph_formula(g) == det


def test_undirected_circuit_count_via_orientations(doubled_edge):
    assert count_eulerian_circuits(doubled_edge) == 2


def _mask_weight_inputs():
    """The Veblen corpus, a seeded relabelling of each member, and the
    two-component unions of members with at most four edges each."""
    members = list(veblen_corpus(8, 5))
    inputs = members + [_relabelled(x, seed) for seed, x in enumerate(members)]
    small = [x for x in members if x.m <= 4]
    for a, b in itertools.combinations_with_replacement(small, 2):
        inputs.append(
            VeblenMultigraph(a.n + b.n, list(a.pairs) + [(u + a.n, v + a.n) for u, v in b.pairs])
        )
    return inputs


def _mask_weight_mismatches(inputs):
    """Inputs whose block masks differ from a connectivity filter over
    every edge subset, or whose weight differs from the unquotiented sum."""
    bad = []
    for x in inputs:
        expected = {}
        for r in range(1, x.m + 1):
            for edges in itertools.combinations(range(x.m), r):
                pairs = [tuple(sorted(x.pairs[e])) for e in edges]
                if is_veblen(Multigraph(x.n, pairs)) and x.edge_support_connected(edges):
                    mask = sum(1 << e for e in edges)
                    expected[mask] = tuple(sorted(Counter(pairs).items()))
        if veblen.connected_veblen_subset_masks(x) != expected:
            bad.append(("blocks", x))
        if weight(x) != weight_via_all_decompositions(x):
            bad.append(("weight", x))
    return bad


def test_mask_weight_matches_oracles():
    inputs = _mask_weight_inputs()
    assert len(inputs) > 2 * 57
    assert not _mask_weight_mismatches(inputs)


@pytest.mark.parametrize(
    "name, fault, kind",
    [
        ("_edges_connected", lambda mask, ends: True, "blocks"),
        ("_symmetry_factor", lambda shapes: 1, "weight"),
    ],
)
def test_mask_weight_oracles_catch_a_fault(monkeypatch, name, fault, kind):
    """A disconnected even mask taken as a block, or alpha left out, is
    caught.  A disconnected block counts no circuits, so the first fault
    leaves every weight as it was; only the block filter sees it."""
    monkeypatch.setattr(veblen, name, fault)
    assert kind in {k for k, _ in _mask_weight_mismatches(_mask_weight_inputs())}


def test_weight_builds_no_decomposition_objects(monkeypatch):
    members = list(veblen_corpus(8, 5))
    expected = [weight(x) for x in members]
    k5 = complete_graph(5)
    poly = hs_characteristic_polynomial(k5)

    def refuse(*args, **kwargs):
        raise AssertionError("weight built a decomposition object")

    monkeypatch.setattr(veblen, "_COMPONENT_CLASSES", veblen._ComponentClasses())
    monkeypatch.setattr(veblen, "Decomposition", refuse)
    monkeypatch.setattr(veblen, "SetPartition", refuse)
    assert [weight(x) for x in members] == expected
    assert hs_characteristic_polynomial(k5) == poly
    with pytest.raises(AssertionError):
        decompositions(doubled())


def test_shape_coefficient_counts_every_block_as_the_eulerian_count():
    blocks = 0
    for x in veblen_corpus(8, 5):
        for mask, shape in veblen.connected_veblen_subset_masks(x).items():
            sub = x.restrict(bits(mask))
            expected = Fraction(count_eulerian_circuits(sub), parallel_factorial_product(sub))
            assert veblen._shape_coefficient(shape, {}) == expected
            blocks += 1
    assert blocks > len(veblen_corpus(8, 5))


def test_weight_runs_no_eulerian_test_per_block(monkeypatch):
    members = list(veblen_corpus(8, 5))
    expected = [weight(x) for x in members]

    def refuse(g):
        raise AssertionError("a block went through is_eulerian")

    monkeypatch.setattr(trails_module, "is_eulerian", refuse)
    assert [weight(x) for x in members] == expected
