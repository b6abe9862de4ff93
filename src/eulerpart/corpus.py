"""Exhaustive small-instance corpora, one representative per isomorphism
class.

Every quantity the verification suite checks is invariant under graph
isomorphism, so testing one representative per class covers every instance
in the stated range.  Generation is pure Python: connected simple graphs by
vertex augmentation, Eulerian digraphs by gluing directed cycles, Veblen
multigraphs from the infragraph multiplicity vectors over a complete host.
Candidates are plain (n, edge tuple) pairs or vectors, and a graph object
is built only for each class kept.

Isomorphism rejection buckets the candidates by their sorted vertex
colours and decides each match by backtracking.  The digraph corpus
refines the colours by one round of colour refinement
(``_RefiningIsoStore``), since many of its classes share their coarse
profiles; the other corpora keep the coarse profile, whose buckets
already hold about one class each.
"""

from __future__ import annotations

from functools import lru_cache

from eulerpart.graphs import Digraph, Multigraph


# ---------------------------------------------------------------------------
# isomorphism of multiplicity matrices
# ---------------------------------------------------------------------------


def _arc_matrix(candidate):
    """Multiplicity matrix of an (n, arcs) pair."""
    n, arcs = candidate
    mat = [[0] * n for _ in range(n)]
    for u, v in arcs:
        mat[u][v] += 1
    return mat


def _pair_matrix(candidate):
    """Symmetric multiplicity matrix of an (n, pairs) pair."""
    n, pairs = candidate
    mat = [[0] * n for _ in range(n)]
    for u, v in pairs:
        mat[u][v] += 1
        mat[v][u] += 1
    return mat


def _digraph_matrix(d):
    return _arc_matrix((d.n, d.arcs))


def _multigraph_matrix(g):
    return _pair_matrix((g.n, g.pairs))


def _vertex_profile(mat):
    """Per vertex, its sorted row and sorted column: an invariant that any
    isomorphism preserves vertex by vertex."""
    return [(tuple(sorted(row)), tuple(sorted(col))) for row, col in zip(mat, zip(*mat))]


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


def digraphs_isomorphic(d1, d2):
    store = _IsoStore(_digraph_matrix)
    return store.add(d1) and not store.add(d2)


def multigraphs_isomorphic(g1, g2):
    store = _IsoStore(_multigraph_matrix)
    return store.add(g1) and not store.add(g2)


class _IsoStore:
    """One representative per isomorphism class, bucketed by the sorted
    vertex colours; each graph's colours are computed once, when added.

    Here a vertex's colour is its coarse profile.  On the simple-graph
    corpus, ``veblen_corpus`` and the component classes of
    ``veblen.hs_characteristic_polynomial`` a bucket already holds about
    one class (4490 isomorphism tests for 3993 candidates), so a finer key
    would cost more to compute than it saves; ``_RefiningIsoStore`` is for
    the crowded buckets of the digraph corpus.  The colours only narrow
    the candidates: every match is decided by ``_matrices_isomorphic``.
    """

    def __init__(self, matrix_fn):
        self.matrix_fn = matrix_fn
        self.buckets = {}
        self.classes = 0

    def colours(self, mat):
        """Per vertex, a colour that any isomorphism preserves."""
        return _vertex_profile(mat)

    def class_index(self, g):
        """The index of g's class, numbered in order of first appearance; a
        graph isomorphic to no stored graph is stored and opens a class."""
        mat = self.matrix_fn(g)
        colours = self.colours(mat)
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

    def add(self, g):
        """Insert unless isomorphic to a stored graph; return True if new."""
        before = self.classes
        return self.class_index(g) == before


class _RefiningIsoStore(_IsoStore):
    """An ``_IsoStore`` whose colours take one round of colour refinement
    (one Weisfeiler-Leman step; Babai, Erdos and Selkow, "Random graph
    isomorphism", SIAM J. Comput. 9, 1980).

    A vertex's colour is its coarse profile with the sorted (multiplicity,
    profile) pairs over its out-neighbours and over its in-neighbours.
    Profiles and colours are numbered through palettes kept by the store,
    so keys and groups are tuples of small ints.  On the 4726 candidates of
    the digraph corpus to 10 arcs, refinement cuts the isomorphism tests
    from 30780 to 5547.
    """

    def __init__(self, matrix_fn):
        super().__init__(matrix_fn)
        self.profile_palette = {}
        self.colour_palette = {}

    def colours(self, mat):
        profiles = self.profile_palette
        coarse = [profiles.setdefault(p, len(profiles)) for p in _vertex_profile(mat)]
        outs = [[] for _ in mat]
        ins = [[] for _ in mat]
        for v, row in enumerate(mat):
            out, cv = outs[v], coarse[v]
            for w, m in enumerate(row):
                if m:
                    out.append((m, coarse[w]))
                    ins[w].append((m, cv))
        palette = self.colour_palette
        return [
            palette.setdefault((c, tuple(sorted(o)), tuple(sorted(i))), len(palette))
            for c, o, i in zip(coarse, outs, ins)
        ]


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
    store = _IsoStore(_pair_matrix)
    out = []
    for parent in simple_graph_classes(n - 1):
        base_pairs = parent.pairs
        for mask in range(1 << (n - 1)):
            pairs = base_pairs + tuple(
                (w, n - 1) for w in range(n - 1) if mask >> w & 1
            )
            if store.add((n, pairs)):
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
    pairs in a refining store, and a ``Digraph`` is built only for each
    class kept, after the final sort.
    """
    store = _RefiningIsoStore(_arc_matrix)
    out = []
    frontier = []
    for length in range(2, max_edges + 1):
        candidate = (length, tuple((i, (i + 1) % length) for i in range(length)))
        if store.add(candidate):
            out.append(candidate)
            frontier.append(candidate)
    while frontier:
        next_frontier = []
        for n, arcs in frontier:
            budget = max_edges - len(arcs)
            if budget < 2:
                continue
            for seq in _attached_cycles(n, budget):
                candidate = (
                    max(n, max(seq) + 1),
                    arcs + tuple(zip(seq, seq[1:] + seq[:1])),
                )
                if store.add(candidate):
                    out.append(candidate)
                    next_frontier.append(candidate)
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
    return (Digraph if g.directed else Multigraph)(g.n, [(perm[u], perm[v]) for u, v in g.ends])
