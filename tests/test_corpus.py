import hashlib
import itertools
import random
from collections import Counter
from functools import lru_cache

import pytest

from eulerpart import corpus as corpus_module
from eulerpart import veblen as veblen_module
from eulerpart.corpus import (
    _IsoStore,
    complete_bipartite,
    complete_graph,
    connected_simple_graphs,
    cycle_graph,
    digraphs_isomorphic,
    eulerian_digraph_corpus,
    multigraphs_isomorphic,
    path_graph,
    simple_graph_classes,
    spot_hosts,
    star_graph,
    veblen_corpus,
    wheel_graph,
)
from eulerpart.graphs import Digraph, Multigraph, format_graph, is_eulerian
from eulerpart.veblen import is_veblen
from oracles import relabeled_copy


def _candidate(g):
    """A graph as an isomorphism store candidate: (n, multiplicity map)."""
    return g.n, Counter(g.ends)


def test_iso_matcher_basic():
    c3a = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    c3b = Digraph(3, [(0, 2), (2, 1), (1, 0)])
    assert digraphs_isomorphic(c3a, c3b)
    path = Digraph(3, [(0, 1), (1, 2)])
    assert not digraphs_isomorphic(c3a, path)


def test_iso_matcher_respects_multiplicities():
    a = Multigraph(2, [(0, 1), (0, 1)])
    b = Multigraph(2, [(0, 1)])
    assert not multigraphs_isomorphic(a, b)


def test_iso_invariant_under_relabeling():
    for g in connected_simple_graphs(5):
        perm = list(range(1, g.n)) + [0]
        assert multigraphs_isomorphic(g, relabeled_copy(g, perm))
    for d in eulerian_digraph_corpus(6):
        perm = list(range(1, d.n)) + [0]
        assert digraphs_isomorphic(d, relabeled_copy(d, perm))


def test_connected_simple_graph_counts():
    counts = {}
    for g in connected_simple_graphs(6):
        counts[g.n] = counts.get(g.n, 0) + 1
    assert counts == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def test_simple_graph_class_counts():
    # all graphs (connected or not) up to isomorphism
    assert [len(simple_graph_classes(n)) for n in (1, 2, 3, 4, 5)] == [1, 2, 4, 11, 34]


def test_corpus_graphs_are_pairwise_non_isomorphic():
    graphs = [g for g in connected_simple_graphs(5) if g.n == 5]
    for a, b in itertools.combinations(graphs, 2):
        assert not multigraphs_isomorphic(a, b)


def test_eulerian_corpus_properties():
    corpus = eulerian_digraph_corpus(8)
    assert all(is_eulerian(d) for d in corpus)
    assert all(d.m <= 8 for d in corpus)
    by_m = {}
    for d in corpus:
        by_m[d.m] = by_m.get(d.m, 0) + 1
    assert by_m[2] == 1 and by_m[3] == 1 and by_m[4] == 3 and by_m[5] == 3


def test_eulerian_corpus_matches_brute_force_small():
    """Independent route: multisets of labeled directed cycles, filtered to
    connected Eulerian digraphs, reduced by isomorphism."""
    max_m = 6

    def all_cycles(n):
        out = []
        for k in range(2, max_m + 1):
            for sub in itertools.combinations(range(n), k):
                for perm in itertools.permutations(sub[1:]):
                    seq = (sub[0],) + perm
                    out.append(tuple((seq[i], seq[(i + 1) % k]) for i in range(k)))
        return out

    found = {}
    for n in range(2, max_m + 1):
        cycles = all_cycles(n)

        def rec(start, arcs, total):
            if arcs:
                touched = {u for a in arcs for u in a}
                if touched == set(range(n)):
                    d = Digraph(n, list(arcs))
                    if is_eulerian(d):
                        found.setdefault((n, tuple(sorted(arcs))), d)
            for i in range(start, len(cycles)):
                c = cycles[i]
                if total + len(c) <= max_m:
                    rec(i, arcs + list(c), total + len(c))

        rec(0, [], 0)
    store = _IsoStore(directed=True)
    brute = [d for d in found.values() if store.add(_candidate(d))]
    brute_by_m = {}
    for d in brute:
        brute_by_m[d.m] = brute_by_m.get(d.m, 0) + 1
    corpus_by_m = {}
    for d in eulerian_digraph_corpus(8):
        if d.m <= max_m:
            corpus_by_m[d.m] = corpus_by_m.get(d.m, 0) + 1
    assert brute_by_m == corpus_by_m


def test_named_graphs():
    assert complete_graph(4).m == 6
    assert cycle_graph(5).m == 5
    assert path_graph(4).m == 3
    assert star_graph(5).m == 4
    assert wheel_graph(5).m == 8
    assert complete_bipartite(2, 3).m == 6
    assert all(g.is_simple() for g in spot_hosts())


def test_spot_hosts_size_and_members():
    hosts = spot_hosts(7)
    assert len(hosts) >= 50
    assert any(multigraphs_isomorphic(g, complete_graph(7)) for g in hosts)
    assert any(multigraphs_isomorphic(g, cycle_graph(7)) for g in hosts)
    assert any(multigraphs_isomorphic(g, path_graph(7)) for g in hosts)


def test_veblen_corpus_properties():
    corpus = veblen_corpus(8, 5)
    assert all(is_veblen(x) for x in corpus)
    assert all(x.edge_support_connected() for x in corpus)
    assert all(x.m <= 8 for x in corpus)
    # the doubled edge and the triangle are in there
    assert any(x.m == 2 for x in corpus)
    assert any(x.m == 3 and x.is_simple() for x in corpus)


# SHA-256 of the concatenated text format of each corpus: isomorphism
# rejection must keep the classes, their first-found representatives and
# their order, which the verify JSON depends on.
CORPUS_DIGESTS = {
    "eulerian_digraph_corpus(8)": (
        lambda: eulerian_digraph_corpus(8),
        "d33a2c46cc2444325cf8012e0cb46cb5d126622cd9fee6403bf397ada27a48b6",
    ),
    "eulerian_digraph_corpus(10)": (
        lambda: eulerian_digraph_corpus(10),
        "c677cc2e9aafc7df5fa29bf96c8ba8caab45ae451bc37f3f411edfc89e8f0412",
    ),
    "eulerian_digraph_corpus(11)": (
        lambda: eulerian_digraph_corpus(11),
        "82b13dfccca3e402abd89bf190347adde55d8097bf8e89841bd92c935483576a",
    ),
    "connected_simple_graphs(6)": (
        lambda: connected_simple_graphs(6),
        "6adb853cca25b043e9408e03ae02caae0fe8b82c01f2dd0e279f83b0e2820014",
    ),
    "veblen_corpus(8, 5)": (
        lambda: veblen_corpus(8, 5),
        "6c4975ce0dde9601605715076cd803d949a26e202f4a9f033d755aabd9a5796f",
    ),
}


@pytest.mark.parametrize("name", sorted(CORPUS_DIGESTS))
def test_corpus_digests_pinned(name):
    build, digest = CORPUS_DIGESTS[name]
    text = "".join(format_graph(g) for g in build())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _brute_isomorphic(g1, g2):
    """Oracle: try every vertex permutation."""

    def edges(g, perm):
        if g.directed:
            return Counter((perm[u], perm[v]) for u, v in g.arcs)
        return Counter(frozenset(perm[v] for v in p) for p in g.pairs)

    if g1.directed != g2.directed or g1.n != g2.n:
        return False
    target = edges(g2, range(g2.n))
    return any(edges(g1, perm) == target for perm in itertools.permutations(range(g1.n)))


def _random_edges(rng, n, m):
    out = []
    while len(out) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            out.append((u, v))
    return out


def _regular_edges(rng, n, k):
    """Union of k random fixed-point-free permutations: every vertex has the
    same out- and in-degree, so many pairs share their vertex profiles."""
    out = []
    for _ in range(k):
        perm = list(range(n))
        while any(v == w for v, w in enumerate(perm)):
            rng.shuffle(perm)
        out += list(enumerate(perm))
    return out


@pytest.mark.parametrize("directed", [True, False])
def test_iso_matchers_agree_with_brute_force(directed):
    build = Digraph if directed else Multigraph
    same = digraphs_isomorphic if directed else multigraphs_isomorphic
    rng = random.Random(20261018 + directed)
    outcomes = Counter()
    for _ in range(400):
        n = rng.randint(2, 6)
        kind = rng.randrange(4)
        if kind == 3:  # two regular graphs
            k = rng.randint(1, 2)
            g1, g2 = (build(n, _regular_edges(rng, n, k)) for _ in range(2))
        else:
            m = rng.randint(1, 8)
            g1 = build(n, _random_edges(rng, n, m))
            perm = list(range(n))
            rng.shuffle(perm)
            g2 = relabeled_copy(g1, perm)
            if kind == 1:  # move one edge: often, not always, a new class
                edges = list(g2.arcs if directed else map(tuple, g2.pairs))
                edges[rng.randrange(m)] = _random_edges(rng, n, 1)[0]
                g2 = build(n, edges)
            elif kind == 2:
                g2 = build(n, _random_edges(rng, n, m))
        expected = _brute_isomorphic(g1, g2)
        assert same(g1, g2) == expected == same(g2, g1)
        outcomes[expected] += 1
    assert outcomes[True] > 100 and outcomes[False] > 100


def test_iso_matchers_separate_equal_profiles():
    c6 = cycle_graph(6)
    triangles = Multigraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    d6 = Digraph(6, [(i, (i + 1) % 6) for i in range(6)])
    d33 = Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    # K_{2,3} and a graph with its degrees whose twins a matcher that
    # reuses an image vertex would fold together
    k23 = complete_bipartite(2, 3)
    folded = Multigraph(5, [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)])
    for g, h, same, perm in (
        (c6, triangles, multigraphs_isomorphic, [3, 5, 0, 1, 4, 2]),
        (d6, d33, digraphs_isomorphic, [3, 5, 0, 1, 4, 2]),
        (k23, folded, multigraphs_isomorphic, [3, 4, 0, 1, 2]),
    ):
        assert not same(g, h) and not same(h, g) and not _brute_isomorphic(g, h)
        assert same(g, relabeled_copy(g, perm)) and same(h, relabeled_copy(h, perm))


def test_iso_store_computes_one_profile_per_graph(monkeypatch):
    graphs = []
    for d in eulerian_digraph_corpus(6):
        perm = list(range(1, d.n)) + [0]
        graphs += [d, relabeled_copy(d, perm)]
    # shares its colours with the directed 6-cycle of the corpus
    graphs.append(Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))
    real = corpus_module._colours
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(corpus_module, "_colours", counting)
    store = _IsoStore(directed=True)
    added = [store.add(_candidate(g)) for g in graphs]
    assert len(calls) == len(graphs)
    assert added == [True, False] * (len(graphs) // 2) + [True]


def _component_class_of():
    """The class index that a fresh ``veblen._ComponentClasses`` gives a
    candidate, read through its component key: the stored weight of each
    class is one more than its index."""
    classes = veblen_module._ComponentClasses()
    classes.reset(lambda x, _cache: len(classes.weights) + 1)

    def class_of(candidate):
        k, mults = candidate
        return -classes.signed_weight(k, mults) - 1

    return class_of


def _refined_relabelling_misses(members, class_of):
    """(member, relabelling) pairs that class_of, loaded with the members
    in order, sends to another class."""
    assert [class_of(_candidate(g)) for g in members] == list(range(len(members)))
    rng = random.Random(20261019)
    misses = []
    for index, g in enumerate(members):
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            if class_of(_candidate(relabeled_copy(g, perm))) != index:
                misses.append((format_graph(g), perm))
    return misses


# every input the store refines: the corpora, and the component keys of the
# Harary-Sachs route
RELABELLING_INPUTS = {
    "eulerian_digraph_corpus(8)": lambda: _refined_relabelling_misses(
        eulerian_digraph_corpus(8), _IsoStore(directed=True).class_index
    ),
    "connected_simple_graphs(5)": lambda: _refined_relabelling_misses(
        connected_simple_graphs(5), _IsoStore(directed=False).class_index
    ),
    "veblen_corpus(6, 4)": lambda: _refined_relabelling_misses(
        veblen_corpus(6, 4), _IsoStore(directed=False).class_index
    ),
    "component keys of veblen_corpus(6, 4)": lambda: _refined_relabelling_misses(
        veblen_corpus(6, 4), _component_class_of()
    ),
}


def test_refined_colours_are_invariant_under_relabelling():
    misses = {name: find() for name, find in RELABELLING_INPUTS.items()}
    assert misses == dict.fromkeys(RELABELLING_INPUTS, [])


def test_refined_colours_that_read_vertex_indices_are_caught(monkeypatch):
    real = corpus_module._colours

    def indexed(*args):
        return [(c, v) for v, c in enumerate(real(*args))]

    monkeypatch.setattr(corpus_module, "_colours", indexed)
    assert [name for name, find in RELABELLING_INPUTS.items() if not find()] == []


def test_refined_key_halves_the_isomorphism_tests(monkeypatch):
    real = corpus_module._matrices_isomorphic
    calls = []

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(corpus_module, "_matrices_isomorphic", counting)
    built = eulerian_digraph_corpus.__wrapped__(9)
    # the profile-keyed store made 4156 tests for this corpus
    assert len(calls) < 4156 // 2
    assert [(d.n, d.arcs) for d in built] == [(d.n, d.arcs) for d in eulerian_digraph_corpus(9)]


def test_refined_key_cuts_the_simple_graph_tests(monkeypatch):
    real = corpus_module._matrices_isomorphic
    calls = []

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(corpus_module, "_matrices_isomorphic", counting)
    # an empty cache, so the classes on 1 to 6 vertices are all rebuilt
    fresh = lru_cache(maxsize=None)(simple_graph_classes.__wrapped__)
    monkeypatch.setattr(corpus_module, "simple_graph_classes", fresh)
    built = connected_simple_graphs.__wrapped__(6)
    # the profile-keyed store made 1830 tests for this corpus
    assert len(calls) < 1830
    assert [(g.n, g.pairs) for g in built] == [(g.n, g.pairs) for g in connected_simple_graphs(6)]
