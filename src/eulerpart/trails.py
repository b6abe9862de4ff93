"""Closed trails, circuits, cycle sequences and the insertion calculus.

Enumeration is deterministic: backtracking always explores arcs in
ascending edge-id order, so two runs produce identical lists.  Circuit
counting has two independent routes: exhaustive trail enumeration and an
arborescence-count formula evaluated with exact integer arithmetic.
"""

from __future__ import annotations

import math

from eulerpart.errors import CapExceededError, InsertionError, NotEulerianError
from eulerpart.graphs import Multigraph, is_eulerian
from eulerpart.partition import SetPartition
from eulerpart.poset import bits


class Trail:
    """Alternating vertex/edge sequence with pairwise-distinct edges.

    Stored as the vertex sequence (length d+1) plus the edge sequence
    (length d); both are validated against the host graph, which may be a
    digraph (arcs traversed tail to head) or a multigraph (either way).
    """

    __slots__ = ("host", "vertices", "edges")

    def __init__(self, host, vertices, edges):
        vertices = tuple(vertices)
        edges = tuple(edges)
        if len(vertices) != len(edges) + 1:
            raise ValueError("trail needs one more vertex than edges")
        if len(set(edges)) != len(edges):
            raise ValueError("trail edges must be distinct")
        for i, e in enumerate(edges):
            u, v = vertices[i], vertices[i + 1]
            if host.directed:
                if host.arcs[e] != (u, v):
                    raise ValueError(
                        f"arc {e} is {host.arcs[e]}, trail traverses ({u}, {v})"
                    )
            else:
                if host.pairs[e] not in ((u, v), (v, u)):
                    raise ValueError(
                        f"edge {e} joins {set(host.pairs[e])}, trail visits ({u}, {v})"
                    )
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name, value):
        raise AttributeError("Trail is immutable")

    @property
    def start(self):
        return self.vertices[0]

    @property
    def end(self):
        return self.vertices[-1]

    def __len__(self):
        return len(self.edges)

    @property
    def closed(self):
        return len(self.edges) > 0 and self.start == self.end

    def edge_set(self):
        return frozenset(self.edges)

    def rotate(self, k):
        """Cyclic shift of a closed trail by k edges."""
        if not self.closed:
            raise ValueError("only closed trails rotate")
        d = len(self.edges)
        k %= d
        vs = self.vertices[k:-1] + self.vertices[: k + 1]
        es = self.edges[k:] + self.edges[:k]
        return Trail(self.host, vs, es)

    def __eq__(self, other):
        return (
            isinstance(other, Trail)
            and self.host is other.host
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((id(self.host), self.vertices, self.edges))

    def __repr__(self):
        bits = [str(self.vertices[0])]
        for i, e in enumerate(self.edges):
            bits.append(f"-{self.host.edge_labels[e]}-")
            bits.append(str(self.vertices[i + 1]))
        return "Trail(" + "".join(bits) + ")"


class Circuit:
    """A closed trail up to cyclic rotation of its edges.

    The canonical representative starts with the least edge id; a traversal
    and its reverse are distinct circuits (rotation only, no reflection).
    """

    __slots__ = ("trail",)

    def __init__(self, closed_trail):
        if not closed_trail.closed:
            raise ValueError("a circuit is a rotation class of a closed trail")
        k = closed_trail.edges.index(min(closed_trail.edges))
        object.__setattr__(self, "trail", closed_trail.rotate(k))

    def __setattr__(self, name, value):
        raise AttributeError("Circuit is immutable")

    @property
    def edges(self):
        return self.trail.edges

    @property
    def vertices(self):
        return self.trail.vertices

    def edge_set(self):
        return frozenset(self.trail.edges)

    def __eq__(self, other):
        return isinstance(other, Circuit) and self.trail == other.trail

    def __hash__(self):
        return hash(self.trail)

    def __repr__(self):
        return "Circuit" + repr(self.trail)[5:]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def eulerian_trails_ending_at(g, e):
    """All Eulerian closed trails whose final edge is e, in canonical order.

    Works for digraphs and (both traversal directions of) multigraphs.
    Returns [] when the graph has no Eulerian trail.
    """
    if e not in g.edges():
        raise ValueError(f"unknown edge {e}")
    if not is_eulerian(g):
        return []
    out = []
    if g.directed:
        u, v = g.arcs[e]
        for verts, edges in _open_trails(g, v, u, e):
            out.append(Trail(g, verts + (v,), edges + (e,)))
    else:
        z1, z2 = g.pairs[e]
        for (a, b) in ((z1, z2), (z2, z1)):
            # final traversal a -> b, so the closed trail starts at b
            for verts, edges in _open_trails(g, b, a, e):
                out.append(Trail(g, verts + (b,), edges + (e,)))
    return out


def _open_trails(g, start, goal, banned_edge):
    """Trails from start to goal using every edge except the banned one."""
    m = g.m
    used = [False] * m
    used[banned_edge] = True
    verts = [start]
    edges = []
    results = []

    if g.directed:
        def moves(u):
            return g.out_arcs(u)
    else:
        def moves(u):
            return g.incident(u)

    def walk(u, remaining):
        if remaining == 0:
            if u == goal:
                results.append((tuple(verts), tuple(edges)))
            return
        for e, w in moves(u):
            if not used[e]:
                used[e] = True
                verts.append(w)
                edges.append(e)
                walk(w, remaining - 1)
                edges.pop()
                verts.pop()
                used[e] = False

    walk(start, m - 1)
    return results


def eulerian_circuits(g):
    """All Eulerian circuits as canonical rotation classes.

    Every circuit has exactly one trail representative ending at any fixed
    edge, so enumerating trails ending at edge 0 enumerates circuits.
    """
    if g.m == 0 or not is_eulerian(g):
        return []
    return [Circuit(w) for w in eulerian_trails_ending_at(g, min(g.edges()))]


def count_eulerian_circuits(g):
    """|C(g)| without enumeration; 0 when g is not Eulerian.

    Digraphs need only the balance test before the arborescence formula
    below, which is already 0 on a balanced digraph that is not connected.
    Multigraphs sum the digraph count over all orientations that are
    balanced.
    """
    if g.m == 0:
        return 0
    if g.directed:
        return _best_from_arcs(g.arcs) if g.is_balanced() else 0
    if not is_eulerian(g):
        return 0
    return _count_circuits_all_orientations(g.pairs)


def _count_circuits_all_orientations(pairs):
    """Sum of circuit counts over all balanced orientations of the edges
    ``pairs``, read with the vertex count from them alone.

    Reversing every arc is a count-preserving involution without fixed
    points, so the first edge is pinned and the total doubled.  The other
    edges are oriented depth first in index order, with each vertex's net
    out-degree updated in place.  A vertex whose last edge has just been
    oriented never changes again, so the branch stops there unless it is
    balanced; every orientation that reaches the end is balanced and is
    BEST-counted, and the sum is that of the sweep over all 2^(m-1).
    """
    m = len(pairs)
    closes = _closing_vertices(pairs)
    net = [0] * (max(map(max, pairs)) + 1)
    arcs = [None] * m

    def rec(e):
        if e == m:
            return _best_from_arcs(arcs)
        u, v = pairs[e]
        total = 0
        for a, b in ((u, v), (v, u)) if e else ((u, v),):
            net[a] += 1
            net[b] -= 1
            if not any(net[w] for w in closes[e]):
                arcs[e] = (a, b)
                total += rec(e + 1)
            net[a] -= 1
            net[b] += 1
        return total

    return 2 * rec(0)


def _closing_vertices(pairs):
    """Per edge index, the vertices whose last edge it is."""
    last = {}
    for e, (u, v) in enumerate(pairs):
        last[u] = last[v] = e
    closes = [[] for _ in pairs]
    for w, e in last.items():
        closes[e].append(w)
    return closes


def _best_from_arcs(arcs):
    """Circuit count of a balanced arc list (BEST theorem): in-trees to one
    root, as an exact Laplacian-minor determinant, times prod over touched
    vertices of (outdeg - 1)!.

    A balanced digraph has the same in-tree count at every root, and none at
    any root when it is not weakly connected, so the root is the first
    vertex seen and a list that is not weakly connected counts 0.  Vertices
    are indexed in first-seen order, and the minor without the root's row
    and column is built directly and eliminated in place.
    """
    index = {}
    for u, v in arcs:
        if u not in index:
            index[u] = len(index) - 1
        if v not in index:
            index[v] = len(index) - 1
    k = len(index)
    if k <= 1:
        return 0
    # the root has index -1, so row and column i of the minor are vertex i
    minor = [[0] * (k - 1) for _ in range(k - 1)]
    outdeg = [0] * k
    for u, v in arcs:
        u, v = index[u], index[v]
        outdeg[u] += 1
        if u >= 0:
            minor[u][u] += 1
            if v >= 0:
                minor[u][v] -= 1
    return _bareiss(minor) * math.prod(math.factorial(dv - 1) for dv in outdeg)


def count_circuits_best(d):
    """Circuit count of an Eulerian digraph: in-tree count times
    prod (outdeg - 1)!, with the tree count as an exact integer determinant.

    Raises NotEulerianError on non-Eulerian input.
    """
    if not d.directed:
        raise ValueError("count_circuits_best expects a digraph")
    if not is_eulerian(d):
        raise NotEulerianError("circuit counting formula needs an Eulerian digraph")
    return _best_from_arcs(d.arcs)


def det_bareiss(matrix):
    """Fraction-free Gaussian elimination; exact determinant of an integer matrix."""
    if not matrix:
        return 1
    return _bareiss([row[:] for row in matrix])


def _bareiss(m):
    """Determinant of a nonempty square integer matrix, eliminating it in place."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        row = m[k]
        pivot = row[k]
        for i in range(k + 1, n):
            other = m[i]
            factor = other[k]
            for j in range(k + 1, n):
                other[j] = (other[j] * pivot - factor * row[j]) // prev
            other[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# cycle sequences and insertion
# ---------------------------------------------------------------------------


def cycle_sequence(w):
    """Iterated extraction of first simple closed subtrails.

    Returns the list of extracted closed trails, each based at the vertex
    where it was cut out; concatenating them back with ``insert_trail`` in
    reverse order reproduces ``w`` exactly.
    """
    if not w.closed:
        raise ValueError("cycle sequence is defined for closed trails")
    out = []
    verts = list(w.vertices)
    edges = list(w.edges)
    while edges:
        seen = {}
        j = None
        for pos, v in enumerate(verts):
            if v in seen:
                j = pos
                break
            seen[v] = pos
        assert j is not None, "closed trail must revisit a vertex"
        i = seen[verts[j]]
        out.append(Trail(w.host, verts[i : j + 1], edges[i:j]))
        verts[i:j] = []
        edges[i:j] = []
    return out


def edge_partition(cycles):
    """Forgetful map: a cycle sequence to the partition of its edge set."""
    return SetPartition([c.edge_set() for c in cycles])


def insert_trail(w1, w2):
    """Splice closed trail w1 into closed trail w2 at the base vertex of w1.

    The base of w1 must be the first vertex of w2 that belongs to w1 at all;
    the result is (prefix of w2)(w1)(suffix of w2).
    """
    if not w1.closed:
        raise InsertionError("closed-trails", "first trail is not closed")
    if not w2.closed and len(w2) > 0:
        raise InsertionError("closed-trails", "second trail is not closed")
    if w1.edge_set() & w2.edge_set():
        raise InsertionError(
            "edge-disjoint", f"shared edges {sorted(w1.edge_set() & w2.edge_set())}"
        )
    if len(w2) == 0:
        if w2.vertices[0] != w1.start:
            raise InsertionError("base-occurs", "length-zero host at a different vertex")
        return w1
    w1_vertices = set(w1.vertices)
    j = next((k for k, v in enumerate(w2.vertices) if v in w1_vertices), None)
    if j is None:
        raise InsertionError("base-occurs", "no vertex of the inserted trail occurs in the host")
    if w2.vertices[j] != w1.start:
        raise InsertionError(
            "first-occurrence",
            f"host meets the inserted trail at {w2.vertices[j]} "
            f"before the base {w1.start}",
        )
    verts = w2.vertices[:j] + w1.vertices + w2.vertices[j + 1 :]
    edges = w2.edges[:j] + w1.edges + w2.edges[j:]
    return Trail(w2.host, verts, edges)


def reassemble(cycles):
    """Fold a cycle sequence back into one closed trail by right-to-left insertion."""
    if not cycles:
        raise ValueError("cannot reassemble an empty cycle sequence")
    trail = cycles[-1]
    for w in reversed(cycles[:-1]):
        trail = insert_trail(w, trail)
    return trail


def trails_with_cycle_partition(d, e, a):
    """The fiber of trails ending at e whose cycle sequence induces partition a."""
    if not isinstance(a, SetPartition):
        raise ValueError("expected a SetPartition of the edge set")
    if a.ground != frozenset(d.edges()):
        raise ValueError("partition must cover exactly the edge set")
    for block in a.blocks:
        if not _is_cycle_block(d, block):
            raise ValueError(f"block {sorted(block)} is not a directed cycle")
    return [w for w in eulerian_trails_ending_at(d, e) if edge_partition(cycle_sequence(w)) == a]


def _is_cycle_block(d, block):
    sub = sorted(block)
    heads = {}
    for e in sub:
        u, v = d.arcs[e]
        if u in heads:
            return False
        heads[u] = v
    verts = set(heads)
    if set(heads.values()) != verts:
        return False
    # one orbit through all vertices
    start = next(iter(verts))
    cur, steps = heads[start], 1
    while cur != start:
        cur = heads[cur]
        steps += 1
    return steps == len(sub)


# ---------------------------------------------------------------------------
# directed cycles and cycle partitions
# ---------------------------------------------------------------------------


def cycle_partition_masks(d, cap=math.inf):
    """All partitions of the arc set into directed cycles, canonically ordered,
    each as a list of (arc mask, vertex mask) pairs, one pair per cycle.

    Backtracking on the least uncovered arc, whose cycles inside the
    uncovered arcs are found by a walk from its head that takes out-arcs in
    id order and visits no vertex twice; the tests' arc-set walk lists the
    same cycles in the same order.  So each partition's cycles come in the
    order of their least arcs.  On a balanced digraph the uncovered arcs are
    always a union of cycles, so every vertex the walk reaches has an
    out-arc among them (on any other digraph a vertex with none ends its
    branch); the walk steps over, in a loop, each vertex with
    exactly one such out-arc, only a vertex with several recurses, and an
    arc back to the start closes its cycle where it is found, so a long
    cycle costs no Python frame per arc.  Each partition is an element
    of the Eulerian-part semilattice, so the semilattice's cap refuses as
    soon as there are more than cap of them.
    """
    heads = [v for _, v in d.arcs]
    out_masks = [0] * d.n
    for e, (u, _) in enumerate(d.arcs):
        out_masks[u] |= 1 << e
    out = []
    blocks = []

    def cycles_through(e0, allowed):
        u0, v0 = d.arcs[e0]
        found = []

        def extend(u, arcs, seen):
            free = out_masks[u] & allowed
            while free and not free & free - 1:  # exactly one out-arc
                u = heads[free.bit_length() - 1]
                arcs |= free
                if u == u0:
                    found.append((arcs, seen))
                    return
                if seen >> u & 1:
                    return
                seen |= 1 << u
                free = out_masks[u] & allowed
            while free:
                low = free & -free
                free ^= low
                w = heads[low.bit_length() - 1]
                if w == u0:
                    found.append((arcs | low, seen))
                elif not seen >> w & 1:
                    extend(w, arcs | low, seen | 1 << w)

        extend(v0, 1 << e0, 1 << u0 | 1 << v0)
        return found

    def rec(remaining):
        if not remaining:
            out.append(list(blocks))
            if len(out) > cap:
                raise CapExceededError(f"semilattice has more than {cap} elements")
            return
        e0 = (remaining & -remaining).bit_length() - 1
        for cycle in cycles_through(e0, remaining):
            blocks.append(cycle)
            rec(remaining & ~cycle[0])
            blocks.pop()

    rec((1 << d.m) - 1)
    return out


def cycle_partitions(d, cap=math.inf):
    """All partitions of the arc set into directed cycles, canonically ordered,
    as SetPartitions whose blocks are the cycles' arc sets: the listing of
    ``cycle_partition_masks``, with its cap."""
    return [SetPartition([bits(arcs) for arcs, _ in a]) for a in cycle_partition_masks(d, cap)]


def intersection_graph(d, a):
    """Simple graph on the blocks of a cycle partition; adjacent iff they
    share a vertex.  Vertex i of the result is block i of ``a.blocks``."""
    touched = [d.support_vertices(block) for block in a.blocks]
    k = len(touched)
    pairs = [
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if touched[i] & touched[j]
    ]
    labels = ["+".join(sorted(d.edge_labels[e] for e in block)) for block in a.blocks]
    return Multigraph(k, pairs, labels, [f"c{i}" for i in range(len(pairs))])
