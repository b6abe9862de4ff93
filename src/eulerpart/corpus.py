"""Exhaustive small-instance corpora, one representative per isomorphism
class.

Every quantity the verification suite checks is invariant under graph
isomorphism, so testing one representative per class covers every instance
in the stated range.  Generation is pure Python: connected simple graphs by
vertex augmentation, Eulerian digraphs by gluing directed cycles, Veblen
multigraphs from the infragraph multiplicity vectors over a complete host.
Candidates are plain (n, edge tuple) pairs or vectors, and a graph object
is built only for each class kept.

Isomorphism rejection runs through one store, ``_IsoStore``.  A
candidate is a vertex count and a multiplicity map from vertex pairs to
edge counts; the store buckets candidates by their sorted vertex colours,
from one round of colour refinement read off the map, and decides each
match by backtracking on the multiplicity matrices.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from eulerpart.graphs import Digraph, Multigraph


# ---------------------------------------------------------------------------
# isomorphism of multiplicity maps
# ---------------------------------------------------------------------------


def _colours(n, mults, directed):
    """One round of colour refinement, read off a multiplicity map: per
    vertex, an int that any isomorphism preserves.

    Colours are sums of 1 << 4p, so each 4-bit digit p counts something.
    A vertex's coarse colour counts its out-multiplicities m at p = m and
    its in-multiplicities at p = 16 + m.  The graph's distinct coarse
    colours, sorted, get the ranks j = 1, 2, ...; a vertex's colour adds to
    its coarse colour the count of its out-neighbours w by multiplicity
    and coarse rank, at p = 32j + m, and of its in-neighbours at
    p = 32j + 16 + m.  An undirected edge counts at both ends as an
    out-edge.  Two graphs with the same sorted colours have the same coarse
    colours, so the ranks read the same on both.  The digits are exact
    below 16 parallel edges and 16 equal neighbours; past that a carry can
    merge two colours, which costs extra matching, never a wrong class.
    """
    offset = 16 if directed else 0
    coarse = [0] * n
    for (u, v), m in mults.items():
        coarse[u] += 1 << 4 * m
        coarse[v] += 1 << 4 * (m + offset)
    rank = {c: 32 * j for j, c in enumerate(sorted(set(coarse)), 1)}
    colours = coarse[:]
    for (u, v), m in mults.items():
        colours[u] += 1 << 4 * (rank[coarse[v]] + m)
        colours[v] += 1 << 4 * (rank[coarse[u]] + offset + m)
    return colours


def _matrices_isomorphic(a, colours_a, b, groups_b):
    """Backtracking vertex matching of a onto b, where b's vertices are
    grouped by colour and both matrices have the same sorted colours."""
    n = len(a)
    candidates = [groups_b[c] for c in colours_a]
    image = [None] * n
    used = [False] * n

    def assign(v):
        if v == n:
            return True
        for w in candidates[v]:
            if used[w]:
                continue
            ok = True
            for u in range(v):
                if a[u][v] != b[image[u]][w] or a[v][u] != b[w][image[u]]:
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                if assign(v + 1):
                    return True
                used[w] = False
        return False

    return assign(0)


def multigraphs_isomorphic(g1, g2):
    """Whether two graphs, both directed or both undirected, are isomorphic."""
    store = _IsoStore(g1.directed)
    return store.add((g1.n, Counter(g1.ends))) and not store.add((g2.n, Counter(g2.ends)))


digraphs_isomorphic = multigraphs_isomorphic


class _IsoStore:
    """One representative per isomorphism class of candidates (n, mults),
    where mults maps each vertex pair (u, v) to its multiplicity; an
    undirected store takes each pair once, in either order.

    Candidates are bucketed by their sorted vertex colours, from one round
    of colour refinement (``_colours``; Babai, Erdos and Selkow, "Random
    graph isomorphism", SIAM J. Comput. 9, 1980), computed once per
    candidate and interned as small ints through the store's palette, so
    keys and groups hold no wide ints.  The colours only narrow the
    candidates: within a bucket, every match is decided by
    ``_matrices_isomorphic`` on the multiplicity matrices, which the store
    builds itself.  On the 4726 candidates of the digraph corpus to 10
    arcs, refinement cuts the isomorphism tests from 30780 (coarse colours
    alone) to 5547.
    """

    def __init__(self, directed):
        self.directed = directed
        self.buckets = {}
        self.classes = 0
        self.palette = {}

    def class_index(self, candidate):
        """The index of a candidate's class, numbered in order of first
        appearance; a candidate isomorphic to no stored one is stored and
        opens a class."""
        n, mults = candidate
        palette = self.palette
        colours = [palette.setdefault(c, len(palette)) for c in _colours(n, mults, self.directed)]
        mat = [[0] * n for _ in range(n)]
        for (u, v), m in mults.items():
            mat[u][v] = m
            if not self.directed:
                mat[v][u] = m
        bucket = self.buckets.setdefault(tuple(sorted(colours)), [])
        for other_mat, groups, index in bucket:
            if _matrices_isomorphic(mat, colours, other_mat, groups):
                return index
        groups = {}
        for v, c in enumerate(colours):
            groups.setdefault(c, []).append(v)
        bucket.append((mat, groups, self.classes))
        self.classes += 1
        return self.classes - 1

    def add(self, candidate):
        """Insert unless isomorphic to a stored candidate; return True if new."""
        before = self.classes
        return self.class_index(candidate) == before


# ---------------------------------------------------------------------------
# simple graphs by vertex augmentation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def simple_graph_classes(n):
    """All simple graphs on exactly n vertices up to isomorphism."""
    if n == 0:
        return ()
    if n == 1:
        return (Multigraph(1, []),)
    store = _IsoStore(directed=False)
    out = []
    for parent in simple_graph_classes(n - 1):
        base_pairs = parent.pairs
        for mask in range(1 << (n - 1)):
            pairs = base_pairs + tuple(
                (w, n - 1) for w in range(n - 1) if mask >> w & 1
            )
            if store.add((n, dict.fromkeys(pairs, 1))):
                out.append(Multigraph(n, pairs))
    return tuple(out)


@lru_cache(maxsize=None)
def connected_simple_graphs(max_vertices):
    """Connected simple graphs with 1..max_vertices vertices, one per class."""
    out = []
    for n in range(1, max_vertices + 1):
        for g in simple_graph_classes(n):
            if g.induces_connected(range(n)):
                out.append(g)
    return tuple(out)


# ---------------------------------------------------------------------------
# named hosts
# ---------------------------------------------------------------------------


def complete_graph(n):
    return Multigraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n):
    return Multigraph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Multigraph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n):
    return Multigraph(n, [(0, i) for i in range(1, n)])


def wheel_graph(n):
    """Hub 0 joined to an (n-1)-cycle."""
    rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
    return Multigraph(n, [(0, i) for i in range(1, n)] + rim)


def complete_bipartite(a, b):
    return Multigraph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def spot_hosts(max_vertices=7):
    """Named hosts plus every connected graph on up to five vertices; at
    least fifty graphs when the cap allows seven vertices."""
    out = list(connected_simple_graphs(5))
    named = [
        complete_graph(6),
        complete_graph(7),
        cycle_graph(6),
        cycle_graph(7),
        path_graph(6),
        path_graph(7),
        star_graph(6),
        star_graph(7),
        wheel_graph(6),
        wheel_graph(7),
        complete_bipartite(3, 3),
        complete_bipartite(2, 4),
        complete_bipartite(3, 4),
        complete_bipartite(2, 5),
        Multigraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),  # prism
        Multigraph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3)]),  # chorded 7-cycle
        Multigraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]),  # chorded 6-cycle
        Multigraph(6, [(i, j) for i in range(6) for j in range(i + 1, 6) if j - i != 3]),  # octahedron
        Multigraph(7, [(i, j) for i in range(7) for j in range(i + 1, 7) if (i, j) != (5, 6)]),  # K7 minus an edge
        Multigraph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6)]),  # double star
    ]
    out.extend(g for g in named if g.n <= max_vertices)
    return out


# ---------------------------------------------------------------------------
# Eulerian digraphs by gluing directed cycles
# ---------------------------------------------------------------------------


def _attached_cycles(n_existing, budget):
    """Vertex sequences of new directed cycles touching the existing graph.

    The first vertex is the least existing vertex on the cycle; new vertices
    enter in increasing order starting at n_existing.
    """
    out = []

    def extend(seq, fresh):
        length = len(seq)
        if 2 <= length <= budget:
            out.append(tuple(seq))
        if length >= budget:
            return
        used = set(seq)
        for w in range(seq[0] + 1, n_existing):
            if w not in used:
                seq.append(w)
                extend(seq, fresh)
                seq.pop()
        seq.append(n_existing + fresh)
        extend(seq, fresh + 1)
        seq.pop()

    for v0 in range(n_existing):
        extend([v0], 0)
    return out


@lru_cache(maxsize=None)
def eulerian_digraph_corpus(max_edges=8):
    """Connected Eulerian multidigraphs with at most max_edges arcs, one per
    isomorphism class.

    Every such digraph is an arc-disjoint union of directed cycles that can
    be glued on in a connected order, so breadth-first gluing with
    isomorphism rejection is exhaustive.  Candidates are (n, arc tuple)
    pairs, offered to the store as arc multiplicity maps, and a ``Digraph``
    is built only for each class kept, after the final sort.
    """
    store = _IsoStore(directed=True)
    out = []
    for length in range(2, max_edges + 1):
        arcs = tuple((i, (i + 1) % length) for i in range(length))
        if store.add((length, Counter(arcs))):
            out.append((length, arcs))
    frontier = out[:]
    while frontier:
        next_frontier = []
        for n, arcs in frontier:
            budget = max_edges - len(arcs)
            if budget < 2:
                continue
            for seq in _attached_cycles(n, budget):
                size = max(n, max(seq) + 1)
                glued = arcs + tuple(zip(seq, seq[1:] + seq[:1]))
                if store.add((size, Counter(glued))):
                    out.append((size, glued))
                    next_frontier.append((size, glued))
        frontier = next_frontier
    out.sort(key=lambda c: (len(c[1]), c[0], tuple(sorted(c[1]))))
    return tuple(Digraph(n, arcs) for n, arcs in out)


# ---------------------------------------------------------------------------
# Veblen multigraphs over complete hosts
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def veblen_corpus(max_edges=8, max_host_vertices=5):
    """Connected even-degree multigraphs with at most max_edges edges on at
    most max_host_vertices vertices, one per isomorphism class.

    The infragraphs of the complete host are read as multiplicity vectors,
    in the order of ``enumerate_infragraphs``: by edge count, then by
    multiplicity key.  Disconnected vectors are dropped, each vector is
    offered to the store as its pair multiplicity map, and a multigraph is
    built only for the first vector of each class.
    """
    # veblen imports this module's isomorphism store at module level
    from eulerpart.veblen import VeblenMultigraph, _vector_components, _infragraph_vectors

    n = max_host_vertices
    pairs, vectors = _infragraph_vectors(complete_graph(n), max_edges)
    ends = [1 << u | 1 << v for u, v in pairs]
    # pair indices follow the sorted pairs, so vectors sort as their keys
    connected = sorted(
        (sum(m for _, m in vector), vector)
        for vector in vectors
        if len(_vector_components(vector, ends)) == 1
    )
    store = _IsoStore(directed=False)
    return tuple(
        VeblenMultigraph(n, [pairs[i] for i, m in vector for _ in range(m)])
        for _, vector in connected
        if store.add((n, {pairs[i]: m for i, m in vector}))
    )
