"""Bond lattices, broken circuits, NBC bases, chromatic polynomials, and the
two explicit dictionaries from NBC bases to acyclic unique-sink orientations.

The chromatic polynomial has two independent routes (deletion-contraction
in production, the broken-circuit subset sum for verification), so the
downstream Martin-polynomial identity is a genuine cross-check.

The dictionaries between NBC bases and unique-sink orientations work on int
masks in rank space.  Under an edge order, bit r of an edge mask stands for
``order[r]``, so the largest edge of a set is ``mask.bit_length() - 1`` and
"every edge of C ranks below r" is ``C >> r == 0``.  Vertex sets are masks
with bit v for vertex v, and ``pm[r]`` is the vertex mask of ``order[r]``,
built once per call.  One search from the root over an NBC base gives
``path[v]``, the rank mask of the tree edges from v to the root; the tree
part of the fundamental cycle of {u, v} is ``path[u] ^ path[v]``, and the
tree edges from i down to the meet of the root paths of i and j are
``path[i] & ~path[j]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from eulerpart.errors import CapExceededError
from eulerpart.graphs import Digraph, orientation_arcs
from eulerpart.heaps import (
    Heap,
    PieceSystem,
    compose,
    orientation_to_pyramid,
    pyramid_to_orientation,
)
from eulerpart.partition import SetPartition, components
from eulerpart.poly import IntPoly
from eulerpart.poset import FinitePoset, add_coarsenings, bits, coarsening_order

CYCLE_ENUM_VERTEX_CAP = 8
CYCLE_ENUM_EDGE_CAP = 16


def require_simple(g):
    if g.directed:
        raise ValueError("expected an undirected simple graph")
    if not g.is_simple():
        raise ValueError("parallel edges are not allowed here")


def _connected_masks(g):
    """The connected vertex partitions as frozensets of vertex masks (the
    connected coarsenings of the singletons), and incident[v], v's edge mask."""
    incident = [0] * g.n
    for e, (u, v) in enumerate(g.pairs):
        incident[u] |= 1 << e
        incident[v] |= 1 << e
    seen = {}
    add_coarsenings(seen, [1 << v for v in range(g.n)], incident, math.inf)
    return seen, incident


def connected_partitions(g):
    """Partitions of the vertex set into blocks inducing connected subgraphs, as
    lists of vertex frozensets by least vertex; sorted block by block, smaller first."""
    require_simple(g)
    parts = [list(SetPartition(map(bits, x)).blocks) for x in _connected_masks(g)[0]]
    return sorted(parts, key=lambda blocks: [(len(b), sorted(b)) for b in blocks])


class BondLattice(FinitePoset):
    """Connected-block vertex partitions of a simple graph under refinement.

    Rank of a partition is n minus its block count; for connected graphs the
    top is the one-block partition.  The order is read from up-sets, the
    connected coarsenings of each element's blocks, as in the Eulerian semilattice.
    """

    def __init__(self, graph):
        require_simple(graph)
        elements, down = coarsening_order(*_connected_masks(graph))
        super().__init__((SetPartition(map(bits, x)) for x in elements), down)
        self.graph = graph

    def closed_edge_set(self, x):
        """The closure-map image of an element: all edges inside its blocks."""
        return frozenset(
            e
            for e in self.graph.edges()
            if any(self.graph.pairs[e] <= b for b in x.blocks)
        )


def check_edge_order(g, order):
    order = tuple(order)
    if sorted(order) != sorted(g.edges()):
        raise ValueError("edge order must be a permutation of the edge ids")
    return order


def simple_cycles(g):
    """Vertex-simple cycles of length >= 3, each as a frozenset of edge ids.

    Exhaustive; refuses graphs beyond the desk-scale caps.
    """
    require_simple(g)
    if g.n > CYCLE_ENUM_VERTEX_CAP or g.m > CYCLE_ENUM_EDGE_CAP:
        raise CapExceededError(
            f"cycle enumeration capped at {CYCLE_ENUM_VERTEX_CAP} vertices / "
            f"{CYCLE_ENUM_EDGE_CAP} edges"
        )
    cycles = []
    for root in range(g.n):
        stack = [(root, [root], [])]
        while stack:
            u, vpath, epath = stack.pop()
            for e, w in g.incident(u):
                if w == root and len(vpath) >= 3 and e != epath[-1]:
                    # close only in one direction to avoid the mirror copy
                    if vpath[1] < vpath[-1]:
                        cycles.append(frozenset(epath + [e]))
                elif w > root and w not in vpath:
                    stack.append((w, vpath + [w], epath + [e]))
    return sorted(set(cycles), key=sorted)


def broken_circuits(g, order):
    """Each cycle minus its largest edge in the given linear order."""
    order = check_edge_order(g, order)
    rank = {e: i for i, e in enumerate(order)}
    out = set()
    for cycle in simple_cycles(g):
        top = max(cycle, key=rank.__getitem__)
        out.add(cycle - {top})
    return out


def _is_forest(g, edge_subset):
    """Acyclic exactly when each edge joins two classes: edges + classes
    == touched vertices."""
    classes = components(g.pairs[e] for e in edge_subset)
    return len(edge_subset) + len(classes) == sum(map(len, classes))


def spanning_trees(g):
    """Edge sets of spanning trees of a connected simple graph."""
    require_simple(g)
    n, edges = g.n, list(g.edges())
    out = []
    for combo in combinations(edges, n - 1):
        if _is_forest(g, combo):
            out.append(frozenset(combo))
    return out


def nbc_sets(g, order):
    """All subsets of edges containing no broken circuit.

    These are exactly the forests avoiding the broken circuits; every other
    subset contains a full cycle, hence a broken circuit.
    """
    broken = sorted(broken_circuits(g, order), key=len)
    out = []
    for size in range(g.n):
        for combo in combinations(list(g.edges()), size):
            edge_set = frozenset(combo)
            if not _is_forest(g, combo):
                continue
            if any(b <= edge_set for b in broken):
                continue
            out.append(edge_set)
    return out


def nbc_bases(g, order):
    """NBC spanning trees of a connected simple graph."""
    require_simple(g)
    if not g.edge_support_connected() and g.n > 1:
        raise ValueError("NBC bases are defined here for connected graphs")
    if g.n == 1:
        return [frozenset()]
    broken = broken_circuits(g, order)
    return [
        t for t in spanning_trees(g) if not any(b <= t for b in broken)
    ]


def edge_set_join(g, edge_subset):
    """The bond-lattice element spanned by an edge subset: components of the
    spanning subgraph, as a vertex partition."""
    singletons = [{v} for v in g.vertices()]
    return SetPartition(components(singletons + [g.pairs[e] for e in edge_subset]))


def nbc_sets_by_element(g, order):
    """Group all NBC sets by the lattice element they span."""
    grouped = {}
    for s in nbc_sets(g, order):
        grouped.setdefault(edge_set_join(g, s), []).append(s)
    return grouped


@dataclass(frozen=True)
class RotaReport:
    checked: int
    failures: tuple

    @property
    def ok(self):
        return not self.failures


def rota_check(lattice, order):
    """Möbius values from the bottom against signed NBC-base counts, at
    every lattice element."""
    g = lattice.graph
    grouped = nbc_sets_by_element(g, order)
    bottom = lattice.bottom()
    ranks = lattice.rank_function()
    failures = []
    for x in lattice.elements:
        mu = lattice.mobius(bottom, x)
        count = len(grouped.get(x, ()))
        if mu != (-1) ** ranks[x] * count:
            failures.append((x, mu, count))
    return RotaReport(len(lattice.elements), tuple(failures))


# ---------------------------------------------------------------------------
# chromatic polynomials, two routes
# ---------------------------------------------------------------------------


def chromatic_polynomial(g):
    """Deletion-contraction with memoisation on the labeled edge set."""
    require_simple(g)
    memo = {}

    def rec(vertices, edges):
        key = (vertices, edges)
        if key in memo:
            return memo[key]
        if not edges:
            result = IntPoly.monomial(len(vertices))
        else:
            u, v = sorted(min(edges, key=sorted))
            deleted = edges - {frozenset((u, v))}
            # contract v into u: rename v-endpoints, drop the loop, merge parallels
            contracted = frozenset(
                frozenset(u if w == v else w for w in pair)
                for pair in deleted
                if pair != frozenset((u, v))
            )
            contracted = frozenset(pair for pair in contracted if len(pair) == 2)
            result = rec(vertices, deleted) - rec(vertices - {v}, contracted)
        memo[key] = result
        return result

    return rec(frozenset(range(g.n)), frozenset(g.pairs))


def chromatic_polynomial_whitney(g, order=None):
    """Verification route: alternating subset sum over NBC sets."""
    require_simple(g)
    order = check_edge_order(g, order if order is not None else tuple(g.edges()))
    coeffs = [0] * (g.n + 1)
    for s in nbc_sets(g, order):
        coeffs[g.n - len(s)] += (-1) ** len(s)
    return IntPoly(coeffs)


# ---------------------------------------------------------------------------
# acyclic orientations
# ---------------------------------------------------------------------------


def _is_acyclic(n, arcs):
    """No directed cycle: peeling off the sinks of what is left empties the
    vertex set."""
    out = [0] * n
    for u, v in arcs:
        out[u] |= 1 << v
    left = (1 << n) - 1
    while left:
        sinks_left = 0
        for v in range(n):
            if left >> v & 1 and not out[v] & left:
                sinks_left |= 1 << v
        if not sinks_left:
            return False
        left &= ~sinks_left
    return True


def acyclic_orientations(g):
    """The acyclic orientations in the binary-counter order of
    ``orientation_arcs``; a digraph is built only for those."""
    require_simple(g)
    return [
        Digraph(g.n, arcs, g.vertex_labels, g.edge_labels)
        for arcs in orientation_arcs(g)
        if _is_acyclic(g.n, arcs)
    ]


def sinks(d):
    return [v for v in range(d.n) if d.out_degree(v) == 0]


def unique_sink_orientations(g, x):
    """Acyclic orientations whose only sink is x, in deterministic order."""
    require_simple(g)
    if not (0 <= x < g.n):
        raise ValueError(f"unknown vertex {x}")
    return [o for o in acyclic_orientations(g) if sinks(o) == [x]]


# ---------------------------------------------------------------------------
# the explicit dictionary and its recursive twin
# ---------------------------------------------------------------------------


def _base_mask(g, t, order):
    """The rank mask of the edge set t: bit r stands for order[r]."""
    rank = {e: r for r, e in enumerate(order)}
    mask = 0
    for e in t:
        if type(e) is not int or not 0 <= e < g.m:
            raise ValueError(f"unknown edge {e!r}")
        mask |= 1 << rank[e]
    return mask


def _root_paths(g, tree, order, root):
    """path[v]: the rank mask of the tree edges on the path from v to root,
    or None where the tree edges do not reach v."""
    adj = [[] for _ in range(g.n)]
    for r in bits(tree):
        u, v = g.pairs[order[r]]
        adj[u].append((v, 1 << r))
        adj[v].append((u, 1 << r))
    path = [None] * g.n
    path[root] = 0
    stack = [root]
    while stack:
        u = stack.pop()
        for v, bit in adj[u]:
            if path[v] is None:
                path[v] = path[u] | bit
                stack.append(v)
    return path


def _has_broken_circuit(g, tree, path, order):
    """A cycle C with C - max(C) inside the tree has max(C) outside it and is
    the fundamental cycle of that edge, whose tree part is path[u] ^ path[v];
    so the tree contains a broken circuit exactly when some edge outside it
    ranks above every edge of that tree part."""
    for r, e in enumerate(order):
        if not tree >> r & 1:
            u, v = g.pairs[e]
            if (path[u] ^ path[v]) >> r == 0:
                return True
    return False


def _tree_contains_broken_circuit(g, t, order):
    """Whether the spanning tree t contains a broken circuit, in O(m n)
    without enumerating cycles."""
    tree = _base_mask(g, t, order)
    return _has_broken_circuit(g, tree, _root_paths(g, tree, order, 0), order)


def _check_nbc_base(g, t, order, root):
    """The rank mask of the NBC base t and its root paths toward root, from
    one search; raises ValueError when t is not an NBC base."""
    if not 0 <= root < g.n:
        raise ValueError(f"unknown vertex {root}")
    tree = _base_mask(g, t, order)
    path = _root_paths(g, tree, order, root)
    # n - 1 edges reaching all n vertices form a spanning tree
    if tree.bit_count() != g.n - 1 or None in path:
        raise ValueError("not a spanning tree")
    if _has_broken_circuit(g, tree, path, order):
        raise ValueError("spanning tree contains a broken circuit")
    return tree, path


def _vertex_masks(g, order):
    """pm[r]: the vertex mask of the edge order[r]."""
    return [1 << u | 1 << v for u, v in map(g.pairs.__getitem__, order)]


def _top_induced(pm, inside):
    """The highest rank of an edge with both ends in the vertex mask inside,
    or -1 when it induces no edge."""
    r = len(pm) - 1
    while r >= 0 and pm[r] & ~inside:
        r -= 1
    return r


def base_to_orientation_direct(t, g, x, order):
    """Root-path comparison orientation of an NBC base.

    For each ordered pair, the largest tree edge between the vertex and the
    meet of the two root paths decides the linear order, the null edge
    ranking below all; every graph edge is oriented toward its smaller
    endpoint, so x is the unique sink.  The tree edges from i down to the
    meet are ``path[i] & ~path[j]``, the largest of them its top bit.
    """
    require_simple(g)
    order = check_edge_order(g, order)
    _, path = _check_nbc_base(g, t, order, x)
    arcs = []
    for pair in g.pairs:
        i, j = sorted(pair)
        if (path[i] & ~path[j]).bit_length() > (path[j] & ~path[i]).bit_length():
            arcs.append((i, j))
        else:
            arcs.append((j, i))
    return Digraph(g.n, arcs, g.vertex_labels, g.edge_labels)


def _base_pyramid(ps, pm, tree, inside, x):
    """The pyramid of the NBC base on the vertex mask inside, apex x; tree is
    the rank mask of the base edges within inside."""
    if inside & (inside - 1) == 0:
        return Heap.singleton(x)
    top = _top_induced(pm, inside)
    assert top >= 0, "connected induced subgraph with >= 2 vertices has an edge"
    assert tree >> top & 1, "an NBC base always contains the largest induced edge"
    # grow x's side over the other tree edges; what is left lies on the far side
    far = tree ^ 1 << top
    side = 1 << x
    grown = True
    while grown:
        grown = False
        for r in bits(far):
            if pm[r] & side:
                side |= pm[r]
                far ^= 1 << r
                grown = True
    other = inside & ~side
    u = (pm[top] & other).bit_length() - 1
    p1 = _base_pyramid(ps, pm, far, other, u)
    p2 = _base_pyramid(ps, pm, tree ^ 1 << top ^ far, side, x)
    return compose(ps, p1, p2)


def base_to_orientation_recursive(t, g, x, order):
    """Recursive twin of ``base_to_orientation_direct``: split the NBC base at the largest
    induced edge, compose the two pyramids, then orient lower-to-higher."""
    require_simple(g)
    order = check_edge_order(g, order)
    tree, _ = _check_nbc_base(g, t, order, x)
    ps = PieceSystem(g)
    pyramid = _base_pyramid(ps, _vertex_masks(g, order), tree, (1 << g.n) - 1, x)
    return pyramid_to_orientation(ps, pyramid)


def orientation_to_base(o, g, x, order):
    """Inverse dictionary: from an acyclic unique-sink orientation back to
    the NBC base, peeling the largest induced edge at each level.  The
    levels are vertex masks cut straight from the pyramid's down-sets."""
    require_simple(g)
    order = check_edge_order(g, order)
    if sinks(o) != [x]:
        raise ValueError(f"orientation does not have unique sink {x}")
    down = orientation_to_pyramid(PieceSystem(g), o).down
    pm = _vertex_masks(g, order)

    def rec(inside):
        if inside & (inside - 1) == 0:
            return 0
        top = _top_induced(pm, inside)
        p, q = bits(pm[top])
        below = down[p if down[q] >> p & 1 else q] & inside
        return 1 << top | rec(below) | rec(inside & ~below)

    return frozenset(order[r] for r in bits(rec((1 << g.n) - 1)))


def edge_orders(g, count, rng):
    """The identity edge order, then count - 1 successive shuffles of it."""
    base = list(g.edges())
    out = [tuple(base)]
    for _ in range(count - 1):
        rng.shuffle(base)
        out.append(tuple(base))
    return out


def check_nbc_dictionaries(g, orders):
    """Both NBC-base dictionaries against the acyclic unique-sink
    orientations of g, at every sink and under every edge order.

    Returns (failures, checked, base_count): one message per failed
    comparison, the number of (order, sink, base) triples pushed through
    both dictionaries, and the NBC-base count under the last order.
    """
    # the NBC bases meet the cycle-enumeration cap before the 2^m sweep
    bases_by_order = [nbc_bases(g, order) for order in orders]
    by_sink = {}
    for o in acyclic_orientations(g):
        s = sinks(o)
        if len(s) == 1:
            by_sink.setdefault(s[0], []).append(o)
    failures = []
    checked = 0
    base_counts = set()
    for order, bases in zip(orders, bases_by_order):
        base_counts.add(len(bases))
        for x in range(g.n):
            usos = by_sink.get(x, [])
            if len(usos) != len(bases):
                failures.append(f"count mismatch at sink {g.vertex_labels[x]}")
            images = set()
            for t in bases:
                mu_o = base_to_orientation_direct(t, g, x, order)
                phi_o = base_to_orientation_recursive(t, g, x, order)
                checked += 1
                if mu_o.arcs != phi_o.arcs:
                    failures.append("explicit and recursive maps disagree")
                images.add(phi_o.arcs)
                # a map that refuses another map's output has failed too
                try:
                    back = orientation_to_base(phi_o, g, x, order)
                except ValueError:
                    back = None
                if back != t:
                    failures.append("inverse map failed on a base")
            if images != {o.arcs for o in usos}:
                failures.append(f"images differ from the orientations at sink {g.vertex_labels[x]}")
            for o in usos:
                try:
                    t = orientation_to_base(o, g, x, order)
                    back = base_to_orientation_recursive(t, g, x, order).arcs
                except ValueError:
                    back = None
                if back != o.arcs:
                    failures.append("inverse map failed on an orientation")
    if len(base_counts) != 1:
        failures.append("NBC base count depends on the edge order")
    return failures, checked, len(bases)


@dataclass(frozen=True)
class OrientationCountReport:
    total_acyclic: int
    unique_sink_counts: tuple  # per vertex
    chromatic: IntPoly
    abs_value_at_minus_one: int
    abs_linear_coefficient: int

    @property
    def total_matches_value_at_minus_one(self):
        return self.total_acyclic == self.abs_value_at_minus_one

    @property
    def unique_sink_matches_linear_coefficient(self):
        return all(
            c == self.abs_linear_coefficient for c in self.unique_sink_counts
        )


def orientation_counts_vs_chromatic(g):
    """Count acyclic orientations (total and per unique sink) and report
    which chromatic-polynomial statistic each one matches."""
    require_simple(g)
    acyclic = acyclic_orientations(g)
    per_vertex = []
    for x in range(g.n):
        per_vertex.append(sum(1 for o in acyclic if sinks(o) == [x]))
    chrom = chromatic_polynomial(g)
    return OrientationCountReport(
        total_acyclic=len(acyclic),
        unique_sink_counts=tuple(per_vertex),
        chromatic=chrom,
        abs_value_at_minus_one=abs(chrom(-1)),
        abs_linear_coefficient=abs(chrom.coeff(1)),
    )
