"""Exhaustive small-instance corpora, one representative per isomorphism
class.

Every quantity the verification suite checks is invariant under graph
isomorphism, so testing one representative per class covers every instance
in the stated range.  Generation is pure Python: connected simple graphs by
vertex augmentation, Eulerian digraphs by gluing directed cycles, Veblen
multigraphs from the infragraph multiplicity vectors over a complete host.
"""

from __future__ import annotations

from functools import lru_cache

from eulerpart.graphs import Digraph, Multigraph


# ---------------------------------------------------------------------------
# isomorphism of multiplicity matrices
# ---------------------------------------------------------------------------


def _digraph_matrix(d):
    mat = [[0] * d.n for _ in range(d.n)]
    for u, v in d.arcs:
        mat[u][v] += 1
    return mat


def _multigraph_matrix(g):
    mat = [[0] * g.n for _ in range(g.n)]
    for p in g.pairs:
        u, v = sorted(p)
        mat[u][v] += 1
        mat[v][u] += 1
    return mat


def _vertex_profile(mat):
    """Per vertex, its sorted row and sorted column: an invariant that any
    isomorphism preserves vertex by vertex."""
    return [(tuple(sorted(row)), tuple(sorted(col))) for row, col in zip(mat, zip(*mat))]


def _matrices_isomorphic(a, prof_a, b, groups_b):
    """Backtracking vertex matching of a onto b, where b's vertices are
    grouped by profile and both matrices have the same sorted profile."""
    n = len(a)
    candidates = [groups_b[p] for p in prof_a]
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


def digraphs_isomorphic(d1, d2):
    store = _IsoStore(_digraph_matrix)
    return store.add(d1) and not store.add(d2)


def multigraphs_isomorphic(g1, g2):
    store = _IsoStore(_multigraph_matrix)
    return store.add(g1) and not store.add(g2)


class _IsoStore:
    """One representative per isomorphism class, bucketed by the sorted
    vertex profile; each graph's profile is computed once, when added."""

    def __init__(self, matrix_fn):
        self.matrix_fn = matrix_fn
        self.buckets = {}
        self.classes = 0

    def class_index(self, g):
        """The index of g's class, numbered in order of first appearance; a
        graph isomorphic to no stored graph is stored and opens a class."""
        mat = self.matrix_fn(g)
        prof = _vertex_profile(mat)
        bucket = self.buckets.setdefault(tuple(sorted(prof)), [])
        for other_mat, groups, index in bucket:
            if _matrices_isomorphic(mat, prof, other_mat, groups):
                return index
        groups = {}
        for v, p in enumerate(prof):
            groups.setdefault(p, []).append(v)
        bucket.append((mat, groups, self.classes))
        self.classes += 1
        return self.classes - 1

    def add(self, g):
        """Insert unless isomorphic to a stored graph; return True if new."""
        before = self.classes
        return self.class_index(g) == before


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
    smaller = simple_graph_classes(n - 1)
    store = _IsoStore(_multigraph_matrix)
    out = []
    for parent in smaller:
        base_pairs = [tuple(sorted(p)) for p in parent.pairs]
        for mask in range(1 << (n - 1)):
            pairs = base_pairs + [
                (w, n - 1) for w in range(n - 1) if mask >> w & 1
            ]
            g = Multigraph(n, pairs)
            if store.add(g):
                out.append(g)
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
    isomorphism rejection is exhaustive.
    """
    store = _IsoStore(_digraph_matrix)
    out = []
    frontier = []
    for length in range(2, max_edges + 1):
        arcs = [(i, (i + 1) % length) for i in range(length)]
        d = Digraph(length, arcs)
        if store.add(d):
            out.append(d)
            frontier.append(d)
    while frontier:
        next_frontier = []
        for d in frontier:
            budget = max_edges - d.m
            if budget < 2:
                continue
            for seq in _attached_cycles(d.n, budget):
                n_new = max(d.n, max(seq) + 1)
                arcs = list(d.arcs) + [
                    (seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))
                ]
                candidate = Digraph(n_new, arcs)
                if store.add(candidate):
                    out.append(candidate)
                    next_frontier.append(candidate)
        frontier = next_frontier
    out.sort(key=lambda d: (d.m, d.n, tuple(sorted(d.arcs))))
    return tuple(out)


# ---------------------------------------------------------------------------
# Veblen multigraphs over complete hosts
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def veblen_corpus(max_edges=8, max_host_vertices=5):
    """Connected even-degree multigraphs with at most max_edges edges on at
    most max_host_vertices vertices, one per isomorphism class.

    The infragraphs of the complete host are read as multiplicity vectors,
    in the order of ``enumerate_infragraphs``: by edge count, then by
    multiplicity key.  Disconnected vectors are dropped, isomorphism is
    tested on the vector's multiplicity matrix, and a multigraph is built
    only for the first vector of each class.
    """
    # veblen imports this module's isomorphism store at module level
    from eulerpart.veblen import VeblenMultigraph, _vector_components, _infragraph_vectors

    n = max_host_vertices
    pairs, vectors = _infragraph_vectors(complete_graph(n), max_edges)
    ends = [1 << u | 1 << v for u, v in pairs]

    def matrix(vector):
        mat = [[0] * n for _ in range(n)]
        for i, m in vector:
            u, v = pairs[i]
            mat[u][v] = mat[v][u] = m
        return mat

    # pair indices follow the sorted pairs, so vectors sort as their keys
    connected = sorted(
        (sum(m for _, m in vector), vector)
        for vector in vectors
        if len(_vector_components(vector, ends)) == 1
    )
    store = _IsoStore(matrix)
    return tuple(
        VeblenMultigraph(n, [pairs[i] for i, m in vector for _ in range(m)])
        for _, vector in connected
        if store.add(vector)
    )


def relabeled_copy(g, perm):
    """Apply a vertex permutation; handy for isomorphism self-tests."""
    if g.directed:
        return Digraph(g.n, [(perm[u], perm[v]) for u, v in g.arcs])
    return Multigraph(
        g.n, [tuple(sorted((perm[u], perm[v]))) for u, v in (sorted(p) for p in g.pairs)]
    )
