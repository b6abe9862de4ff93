"""Bond lattices, broken circuits, NBC bases, chromatic polynomials, and the
two explicit dictionaries from NBC bases to acyclic unique-sink orientations.

The chromatic polynomial has three independent routes: in production, and
in ``lattice.circuit_partition_counts``, the count of the partitions of the
vertices into independent sets; Whitney's broken-circuit subset sum and the
bond lattice's characteristic polynomial to verify it.

The NBC work runs on int masks in rank space.  Under an edge order, bit r of
an edge mask stands for ``order[r]``, so the largest edge of a set is
``mask.bit_length() - 1`` and "every edge of C ranks below r" is
``C >> r == 0``.  Vertex sets are masks with bit v for vertex v.  A simple
graph and an order give one rank table (``_RankTable``): the order and the
rank of each edge, ``pm[r]`` the vertex mask of ``order[r]`` and ``ends[r]``
its endpoints, each edge's sorted pair and vertex mask, and per vertex its
(rank bit, neighbour) list.  The graph and the order are validated once, when
the table is built; one slot keeps the table of the last (graph, order) pair,
so the many calls the dictionaries make under one order share it.  The table
in turn keeps the work that does not depend on the sink: the root paths of
each NBC base it has accepted, under the base's rank mask, so a base is
validated once under the pair and not once per sink, and next to them the
base's split tree once the recursive map has built it; and each answer of
the inverse, so an orientation equal to one already mapped back is not
peeled again.  The rank mask of a base is read on every call, which checks
each edge id, so an equal set of other edge objects is still refused.  Only
successes are kept, and a new graph or order empties both stores with the
slot.

The NBC sets come from one depth-first search, ``_nbc_forests``, over the
broken-circuit complex (Whitney 1932; Björner 1992).  It adds edges in rank
order; edge r, the largest so far, joins two components A and B, and the new
set holds a broken circuit exactly when some edge ranked above r also joins
A to B, so the branch stops there.  The search carries the component masks,
which are the bond-lattice elements Rota's theorem groups the sets by.
``simple_cycles`` and ``broken_circuits`` are the cycle side of the tests'
oracle for it; the spanning-tree filter and the search's sorted and grouped
views are in ``tests/oracles.py``.

One search from vertex 0 over an NBC base gives ``path[v]``, the rank mask
of the tree edges from v to vertex 0; the tree path from i to any vertex x
is ``path[i] ^ path[x]``, so the tree part of the fundamental cycle of
{u, v} is ``path[u] ^ path[v]``, and one search serves every sink.

The recursive dictionary and its inverse pass through a full pyramid over
the vertices, labelled by the identity.  In a heap every two concurrent
pieces are comparable, so the recursive map needs only an order of the
vertices that extends the pyramid's: it lists each split's far half before
x's half, which is how the two compose, and orients each edge from the
earlier vertex to the later.  The inverse holds the pyramid as a list
``down[v]`` of vertex masks, the vertices below v with v included, read in
topological order from each vertex's in-neighbour mask, gathered in one
pass over the orientation's arcs.
Each split is at the largest edge induced on its vertices, which crosses
between the halves, so every edge inside a half ranks below it: both maps
search a half's split edge downward from its parent's.  The two halves of
a split are the same whatever the sink; only which of them goes under the
other depends on it.  So the recursive map builds a base's split tree
(``_split_tree``) once per (graph, order), on its first call for the base,
and each call walks it for its sink (``_pyramid_order``).
No ``heaps.PieceSystem`` or ``heaps.Heap`` is built per call; the ``Heap``
forms of the three maps remain in the tests as their oracle.

Every orientation built here, by ``acyclic_orientations`` and by both
forward maps, comes from the multigraph's own constructor,
``Multigraph.orientation``: its arc i is ``pairs[i]`` one way or the other,
so the per-arc checks of ``Digraph.__init__`` are not run again.  Only the
inverse, which is handed orientations from outside, checks its input.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from eulerpart.errors import CapExceededError
from eulerpart.partition import SetPartition
from eulerpart.poly import IntPoly
from eulerpart.poset import FinitePoset, add_coarsenings, bits, coarsening_order

CYCLE_ENUM_VERTEX_CAP = 8
CYCLE_ENUM_EDGE_CAP = 16
CHROMATIC_TERM_CAP = 1 << 19  # terms of the counts per call of either chromatic route


def require_simple(g):
    if g.directed:
        raise ValueError("expected an undirected simple graph")
    if not g.is_simple():
        raise ValueError("parallel edges are not allowed here")


def _connected_masks(g):
    """The connected vertex partitions as frozensets of vertex masks: the
    singletons closed under merging two blocks whose vertices' edge masks
    meet.  Only the generator reads those masks."""
    incident = [0] * g.n
    for e, (u, v) in enumerate(g.pairs):
        incident[u] |= 1 << e
        incident[v] |= 1 << e
    seen = {}
    add_coarsenings(seen, [1 << v for v in range(g.n)], incident, math.inf)
    return seen


def connected_partitions(g):
    """Partitions of the vertex set into blocks inducing connected subgraphs, as
    lists of vertex frozensets by least vertex; sorted block by block, smaller first."""
    require_simple(g)
    parts = [list(SetPartition(map(bits, x)).blocks) for x in _connected_masks(g)]
    return sorted(parts, key=lambda blocks: [(len(b), sorted(b)) for b in blocks])


class BondLattice(FinitePoset):
    """Connected-block vertex partitions of a simple graph under refinement.

    Rank of a partition is n minus its block count; for connected graphs the
    top is the one-block partition.  The elements, their ``SetPartition``s
    and the order come from ``poset.coarsening_order``; ``masks[i]`` is
    ``elements[i]`` as a frozenset of block vertex masks.
    """

    def __init__(self, graph):
        require_simple(graph)
        self.masks, partitions, down = coarsening_order(_connected_masks(graph))
        super().__init__(partitions, down)
        self.graph = graph

    def closed_edge_set(self, x):
        """The closure-map image of an element: all edges inside its blocks."""
        return frozenset(
            e
            for e in self.graph.edges()
            if any(b.issuperset(self.graph.pairs[e]) for b in x.blocks)
        )


def check_edge_order(g, order):
    order = tuple(order)
    # an edge id is an int: True or 1.0 would sort as edge 1
    if any(type(e) is not int for e in order) or sorted(order) != sorted(g.edges()):
        raise ValueError("edge order must be a permutation of the edge ids")
    return order


class _RankTable:
    """A simple graph under one edge order: ``order`` and ``rank[e]``, the
    position of edge e in it; ``pairs[e]``, edge e's endpoints ascending;
    ``ends[r]`` and ``pm[r]``, the endpoints and vertex mask of ``order[r]``;
    ``epm[e]``, the vertex mask of edge e; ``adj[v]``, the (rank bit,
    neighbour) list of vertex v.  ``bases`` maps the rank mask of each NBC
    base that ``_check_nbc_base`` accepted under this pair to the list [root
    paths toward vertex 0, split tree], the split tree None until
    ``base_to_orientation_recursive`` first builds it; ``inverse`` maps
    (sink, n, arcs) to the base ``orientation_to_base`` returned for them;
    neither keeps a refusal."""

    __slots__ = ("graph", "order", "rank", "pairs", "ends", "pm", "epm", "adj", "bases", "inverse")

    def __init__(self, g, order):
        self.graph, self.order = g, order
        self.bases, self.inverse = {}, {}
        self.rank = {e: r for r, e in enumerate(order)}
        self.pairs = g.pairs
        self.ends = [self.pairs[e] for e in order]
        self.pm = [1 << u | 1 << v for u, v in self.ends]
        self.epm = [1 << u | 1 << v for u, v in self.pairs]
        self.adj = [[] for _ in range(g.n)]
        for r, (u, v) in enumerate(self.ends):
            self.adj[u].append((1 << r, v))
            self.adj[v].append((1 << r, u))


_last_table = None


def clear_rank_table():
    """Empty the one slot of ``_rank_table``."""
    global _last_table
    _last_table = None


def _rank_table(g, order):
    """The rank table of g under order.  One slot keeps the table of the
    last (graph, order) pair; a new pair is validated and its table built in
    its place, with empty stores.  Callers work one pair at a time, so
    repeated calls validate and build nothing, and no more than one table is
    ever kept.  The slot is reused for the table's own order object, or for
    an equal order of ints: an equal one holding ``True`` or ``1.0`` is
    validated afresh, and refused, as on a fresh graph."""
    global _last_table
    table = _last_table
    if table is None or table.graph is not g or (
        table.order is not order
        and (table.order != order or any(type(e) is not int for e in order))
    ):
        require_simple(g)
        table = _last_table = _RankTable(g, check_edge_order(g, order))
    return table


def _require_cycle_cap(g):
    if g.n > CYCLE_ENUM_VERTEX_CAP or g.m > CYCLE_ENUM_EDGE_CAP:
        raise CapExceededError(
            f"cycle enumeration capped at {CYCLE_ENUM_VERTEX_CAP} vertices / "
            f"{CYCLE_ENUM_EDGE_CAP} edges"
        )


def simple_cycles(g):
    """Vertex-simple cycles of length >= 3, each as a frozenset of edge ids.

    Exhaustive; refuses graphs beyond the desk-scale caps.
    """
    require_simple(g)
    _require_cycle_cap(g)
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
    """Each cycle minus its largest edge in the given linear order; with the
    spanning-tree filter of ``tests/oracles.py``, the tests' oracle for the
    NBC search."""
    order = check_edge_order(g, order)
    rank = {e: i for i, e in enumerate(order)}
    out = set()
    for cycle in simple_cycles(g):
        top = max(cycle, key=rank.__getitem__)
        out.add(cycle - {top})
    return out


def _joins(higher, a, b):
    """Whether some edge among higher, given as vertex masks, joins the
    disjoint vertex masks a and b."""
    return any(p & a and p & b for p in higher)


def _nbc_forests(g, order):
    """Every NBC set of g under order, as a dict from the set of edge ids to
    comp, where comp[v] is the vertex mask of v's component; refuses beyond
    the cycle-enumeration caps before the search.

    Edges are added depth first in rank order, so a branch adding edge r
    holds only edges below r, and every subset of an NBC set is one.  Edge r
    must join two components A and B, or it closes a cycle.  A broken
    circuit C - c that r completes contains r, so c ranks above r, and
    C - c is the forest path between the ends of c, through r: c joins A
    to B.  Conversely such an edge c closes that path into a cycle.  So the
    branch stops exactly when some edge ranked above r joins A to B.
    """
    table = _rank_table(g, order)
    _require_cycle_cap(g)
    ends, pm, order = table.ends, table.pm, table.order
    out = {}

    def grow(start, edges, comp):
        out[frozenset(edges)] = comp
        for r in range(start, len(ends)):
            u, v = ends[r]
            a, b = comp[u], comp[v]
            if a != b and not _joins(pm[r + 1:], a, b):
                grow(r + 1, edges + (order[r],), [a | b if c == a or c == b else c for c in comp])

    grow(0, (), [1 << v for v in range(g.n)])
    return out


def nbc_bases(g, order):
    """NBC spanning trees of a connected simple graph, by sorted edge ids."""
    _rank_table(g, order)  # the graph and the order are checked first
    if not g.induces_connected(g.vertices()):
        raise ValueError("NBC bases are defined here for connected graphs")
    return sorted((s for s in _nbc_forests(g, order) if len(s) == g.n - 1), key=sorted)


@dataclass(frozen=True)
class RotaReport:
    checked: int
    failures: tuple

    @property
    def ok(self):
        return not self.failures


def rota_check(lattice, order):
    """Möbius values from the bottom against signed NBC-set counts, at
    every lattice element.  The NBC search hands over each set's element as
    its component masks, so the sets are counted by the lattice's masks."""
    counts = Counter(frozenset(comp) for comp in _nbc_forests(lattice.graph, order).values())
    bottom = lattice.bottom()
    n = lattice.graph.n
    failures = []
    for x, blocks in zip(lattice.elements, lattice.masks):
        mu = lattice.mobius(bottom, x)
        count = counts[blocks]
        if mu != (-1) ** (n - len(blocks)) * count:
            failures.append((x, mu, count))
    return RotaReport(len(lattice.elements), tuple(failures))


# ---------------------------------------------------------------------------
# chromatic polynomials, two routes
# ---------------------------------------------------------------------------


def chromatic_polynomial(g):
    """The partitions of the vertices into independent sets, counted on the
    neighbour masks and expanded; refuses past CHROMATIC_TERM_CAP terms."""
    require_simple(g)
    counts, _ = _independent_partition_counts(g._neighbor_masks, CHROMATIC_TERM_CAP)
    return IntPoly(falling_factorial_expansion(counts))


def falling_factorial_expansion(c):
    """The monomial coefficients of sum_j c_j x(x-1)...(x-j+1), by Horner's
    rule in that basis: c_0 + x (c_1 + (x-1) (c_2 + ...))."""
    p = [c[-1]]
    for j in range(len(c) - 2, -1, -1):
        p.insert(0, c[j])  # c_j + x p, then minus j p
        for i in range(len(p) - 1):
            p[i] -= j * p[i + 1]
    return p


def _independent_partition_counts(adj, budget):
    """c_0..c_k for the graph on vertices 0..k-1 with neighbour masks
    ``adj``: c_j counts the partitions of its vertices into j independent
    sets, so its chromatic polynomial is sum_j c_j x(x-1)...(x-j+1).

    The counts of a vertex set s come from a smaller set.  A vertex whose
    d neighbours in s are pairwise adjacent is taken out first, with no
    branching: chi(G[s]) =
    chi(G[s - v]) (x - d), and x(x-1)...(x-j+1) (x - d) is
    x(x-1)...(x-j) + (j - d) x(x-1)...(x-j+1), so c_j of s - v adds to
    c_{j+1} and (j - d) c_j to c_j.  So a chordal graph (a path, a star, a
    clique) is counted with no branching, and in one loop, with no memo.
    When no such vertex is left, ``_branch_counts`` counts the partitions
    by the independent set I that holds the lowest vertex, each followed by
    the partitions of the rest minus I, memoised on their vertex masks.

    The work is capped by terms: a vertex taken out of s, or an
    independent set listed with s left, costs the |s| + 1 counts of s, so
    both the work and the counts the memo holds grow with the terms spent,
    and a budget bounds time and memory alike.  Returns the counts with the
    terms spent; past the budget it refuses with CapExceededError.
    """
    # the top call takes its simplicial vertices out in a loop, with no memo
    # entry, since no later set is a superset; the memo serves only the rest
    s = (1 << len(adj)) - 1
    terms = 0
    degrees = []
    while s:
        found = _simplicial(adj, s)
        if found is None:
            break
        terms += s.bit_count() + 1
        if terms > budget:
            _refuse_terms()
        degrees.append(found[1])
        s ^= found[0]
    total, terms = _branch_counts(adj, s, budget, terms) if s else ([1], terms)
    for d in degrees:
        total = _lift(total, d)
    return total, terms


def _refuse_terms():
    raise CapExceededError(f"chromatic route capped at {CHROMATIC_TERM_CAP} terms")


def _simplicial(adj, s):
    """(bit, degree in s) of a vertex of s whose neighbours in s are
    pairwise adjacent, or None."""
    rest = s
    while rest:
        b = rest & -rest
        rest ^= b
        near = adj[b.bit_length() - 1] & s
        others = near
        while others:
            u = others & -others
            others ^= u
            if near & ~adj[u.bit_length() - 1] != u:
                break
        else:
            return b, near.bit_count()
    return None


def _lift(total, d):
    """The counts of a set from those of the set less a vertex of degree d
    in it, taken out."""
    lifted = [0] * (len(total) + 1)
    for j, c in enumerate(total):
        lifted[j] += (j - d) * c
        lifted[j + 1] += c
    return lifted


def _branch_counts(adj, s, budget, terms):
    """The counts of a vertex set s with no simplicial vertex, and the terms
    spent, from ``terms`` on: by the independent sets that hold its lowest
    vertex, each set's rest counted through a memo on its vertex mask."""
    memo = {0: [1]}

    def counts(s):
        nonlocal terms
        taken = []  # (a set, the degree in it of the vertex taken out)
        while s not in memo:
            found = _simplicial(adj, s)
            if found is None:
                memo[s] = branch(s)
                break
            terms += s.bit_count() + 1
            if terms > budget:
                _refuse_terms()
            taken.append((s, found[1]))
            s ^= found[0]
        total = memo[s]
        for s, d in reversed(taken):
            total = memo[s] = _lift(total, d)
        return total

    def branch(s):
        nonlocal terms
        low = s & -s
        total = [0] * (s.bit_count() + 1)
        # (s minus I, the vertices that may still join I), for each I
        stack = [(s ^ low, (s ^ low) & ~adj[low.bit_length() - 1])]
        while stack:
            left, free = stack.pop()
            terms += left.bit_count() + 1
            if terms > budget:
                _refuse_terms()
            for j, c in enumerate(counts(left), start=1):
                total[j] += c
            while free:
                b = free & -free
                free ^= b
                stack.append((left ^ b, free & ~adj[b.bit_length() - 1]))
        return total

    total = branch(s)
    return total, terms


def chromatic_polynomial_whitney(g, order=None):
    """Verification route: alternating subset sum over NBC sets."""
    coeffs = [0] * (g.n + 1)
    for s in _nbc_forests(g, order if order is not None else tuple(g.edges())):
        coeffs[g.n - len(s)] += (-1) ** len(s)
    return IntPoly(coeffs)


# ---------------------------------------------------------------------------
# acyclic orientations
# ---------------------------------------------------------------------------


def acyclic_orientations(g):
    """The acyclic orientations in the binary-counter order of
    ``graphs.orientation_arcs``.

    Edges are oriented from the last to the first, each first along its
    sorted pair and then against it, which is that order; a branch stops at
    the first arc that closes a directed cycle.  ``reach[v]`` is the mask of
    the vertices v reaches, v included, so a -> b closes a cycle exactly
    when b reaches a.
    """
    require_simple(g)
    pairs = g.pairs
    arcs = [None] * g.m
    out = []

    def grow(e, reach):
        if e < 0:
            out.append(g.orientation(arcs))
            return
        u, v = pairs[e]
        for a, b in ((u, v), (v, u)):
            if not reach[b] >> a & 1:
                arcs[e] = (a, b)
                grow(e - 1, [r | reach[b] if r >> a & 1 else r for r in reach])

    grow(g.m - 1, [1 << v for v in range(g.n)])
    return out


def sinks(d):
    """The vertices with no out-arc, read from the mask of arc tails."""
    tails = 0
    for u, _ in d.arcs:
        tails |= 1 << u
    return [v for v in range(d.n) if not tails >> v & 1]


def _unique_sink_groups(g):
    """Per vertex, the acyclic orientations with it as their only sink, in
    ``acyclic_orientations`` order; and the count of all of them."""
    groups = [[] for _ in range(g.n)]
    acyclic = acyclic_orientations(g)
    for o in acyclic:
        s = sinks(o)
        if len(s) == 1:
            groups[s[0]].append(o)
    return groups, len(acyclic)


# ---------------------------------------------------------------------------
# the explicit dictionary and its recursive twin
# ---------------------------------------------------------------------------


def _base_mask(table, t):
    """The rank mask of the edge set t: bit r stands for order[r]."""
    rank = table.rank
    mask = 0
    for e in t:
        if type(e) is not int or not 0 <= e < len(rank):
            raise ValueError(f"unknown edge {e!r}")
        mask |= 1 << rank[e]
    return mask


def _root_paths(table, tree, root):
    """path[v]: the rank mask of the tree edges on the path from v to root,
    or None where the tree edges do not reach v."""
    adj = table.adj
    path = [None] * len(adj)
    path[root] = 0
    stack = [root]
    while stack:
        u = stack.pop()
        here = path[u]
        for bit, v in adj[u]:
            if bit & tree and path[v] is None:
                path[v] = here | bit
                stack.append(v)
    return path


def _has_broken_circuit(table, tree, path):
    """A cycle C with C - max(C) inside the tree has max(C) outside it and is
    the fundamental cycle of that edge, whose tree part is path[u] ^ path[v];
    so the tree contains a broken circuit exactly when some edge outside it
    ranks above every edge of that tree part."""
    for r, (u, v) in enumerate(table.ends):
        if not tree >> r & 1 and (path[u] ^ path[v]) >> r == 0:
            return True
    return False


def _check_nbc_base(g, table, t, x):
    """The rank mask of the NBC base t and its entry in the table's store,
    the list [root paths toward vertex 0, split tree or None until the
    recursive map builds it]; raises ValueError when x is no vertex or t is
    not an NBC base.

    Whether t is an NBC base does not depend on the sink, so the table keeps
    an entry for each base it accepts under the base's rank mask, and a
    base is validated once under its (graph, order) pair.  The sink is
    range-checked and the rank mask read on every call, so every edge id is
    checked each time: an equal set of other edge objects (``True`` for
    edge 1) is refused as unknown, and a list the caller has since edited
    is looked up as what it now holds."""
    if not 0 <= x < g.n:
        raise ValueError(f"unknown vertex {x}")
    tree = _base_mask(table, t)
    entry = table.bases.get(tree)
    if entry is None:
        path = _root_paths(table, tree, 0)
        # n - 1 edges reaching all n vertices form a spanning tree
        if tree.bit_count() != g.n - 1 or None in path:
            raise ValueError("not a spanning tree")
        if _has_broken_circuit(table, tree, path):
            raise ValueError("spanning tree contains a broken circuit")
        entry = table.bases[tree] = [path, None]
    return tree, entry


def base_to_orientation_direct(t, g, x, order):
    """Root-path comparison orientation of an NBC base.

    For each ordered pair, the largest tree edge between the vertex and the
    meet of the two paths to x decides the linear order, the null edge
    ranking below all; every graph edge is oriented toward its smaller
    endpoint, so x is the unique sink.  With ``to_x[v]`` the rank mask of
    the tree path from v to x, ``path[v] ^ path[x]``, the tree edges from i
    down to the meet are ``to_x[i] & ~to_x[j]``, the largest of them its top
    bit.  The two such masks of a pair are disjoint, so the one with the
    higher top bit is the larger, and adding the common part
    ``to_x[i] & to_x[j]`` to both keeps that: the comparison is
    ``to_x[i] > to_x[j]``.
    """
    table = _rank_table(g, order)
    _, (path, _) = _check_nbc_base(g, table, t, x)
    px = path[x]
    to_x = [p ^ px for p in path]
    return g.orientation([(i, j) if to_x[i] > to_x[j] else (j, i) for i, j in table.pairs])


def _split_tree(table, tree):
    """The split tree of the NBC base with rank mask tree over all the
    vertices: ``()`` for a single vertex, and otherwise ``(half, p, q,
    below_p, below_q)`` for the split at the largest induced edge (p, q),
    with half the vertex mask of p's half and below_p, below_q the split
    trees of p's and q's halves.

    The largest induced edge crosses between the two halves, so each half's
    edges rank below it: it is the halves' bound, and each half's split edge
    is searched downward from it.  The halves are the two components of the
    level's tree edges without the split edge, which the apex does not
    choose, so the tree does not depend on the sink.
    """
    pm, ends = table.pm, table.ends

    def split(tree, inside, hi):
        if inside & (inside - 1) == 0:
            return ()
        top = hi - 1
        while top >= 0 and pm[top] & ~inside:
            top -= 1
        assert top >= 0, "connected induced subgraph with >= 2 vertices has an edge"
        assert tree >> top & 1, "an NBC base always contains the largest induced edge"
        p, q = ends[top]
        # grow p's side over the other tree edges; what is left lies on q's side
        far = tree ^ 1 << top
        half = 1 << p
        grown = True
        while grown:
            grown = False
            rest = far
            while rest:
                low = rest & -rest
                rest ^= low
                e = pm[low.bit_length() - 1]
                if e & half:
                    half |= e
                    far ^= low
                    grown = True
        return half, p, q, split(tree ^ 1 << top ^ far, half, top), split(far, inside & ~half, top)

    return split(tree, (1 << len(table.adj)) - 1, len(pm))


def _pyramid_order(split, x, out):
    """Append to out the vertices of the pyramid with apex x whose split
    tree is split, in an order that extends the pyramid's, with x last.

    At each split the half without x goes under x's half, with the split
    edge's end inside it as its apex; composing two heaps relates only
    lower pieces to upper ones, so the lower half's order followed by x's
    half's extends the composition's.
    """
    while split:
        half, p, q, below_p, below_q = split
        if half >> x & 1:
            _pyramid_order(below_q, q, out)
            split = below_p
        else:
            _pyramid_order(below_p, p, out)
            split = below_q
    out.append(x)


def base_to_orientation_recursive(t, g, x, order):
    """Recursive twin of ``base_to_orientation_direct``: split the NBC base
    at the largest induced edge, put the far half's pyramid under x's, then
    orient each edge from its lower end to its upper one.  In a heap every
    two concurrent pieces are comparable, so any order that extends the
    pyramid's decides each edge, and x, last, is the sink.

    The splits do not depend on the sink, so the base's split tree is built
    on the first call for it and kept with its root paths in the rank
    table; each call walks it only for its sink."""
    table = _rank_table(g, order)
    tree, entry = _check_nbc_base(g, table, t, x)
    split = entry[1]
    if split is None:
        split = entry[1] = _split_tree(table, tree)
    out = []
    _pyramid_order(split, x, out)
    pos = [0] * g.n
    for i, v in enumerate(out):
        pos[v] = i
    return g.orientation([(u, v) if pos[u] < pos[v] else (v, u) for u, v in table.pairs])


def _down_masks(below):
    """down[v]: the mask of the vertices with a directed path to v, v
    included, from below[v], the mask of v's in-neighbours.  A vertex is
    peeled once all its in-neighbours are, and its mask is then its own bit
    with the masks of the set bits of below[v], so the masks are filled in a
    topological order; a sweep over the vertices left that peels none means
    a directed cycle, and raises ValueError."""
    down = [0] * len(below)
    left = (1 << len(below)) - 1
    while left:
        before = rest = left
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            into = below[v]
            if not into & left:
                left ^= low
                mask = low
                while into:
                    u = into & -into
                    into ^= u
                    mask |= down[u.bit_length() - 1]
                down[v] = mask
        if left == before:
            raise ValueError("orientation is cyclic")
    return down


def orientation_to_base(o, g, x, order):
    """Inverse dictionary: from an acyclic unique-sink orientation back to
    the NBC base, peeling the largest induced edge at each level.  The
    levels are vertex masks cut straight from the pyramid's down-sets,
    which are the orientation's down-sets.

    The answer depends only on (x, n, arcs), so the rank table keeps each
    answer under that key and an equal orientation built elsewhere is
    answered from there.  A refusal is never kept, but raised again.

    The input is validated in full: one pass over the arcs gathers the
    tails for the sink test, compares each arc's ends with its edge's for
    the orientation test, and records each vertex's in-neighbours as a mask,
    from which ``_down_masks`` reads the down-sets and refuses a cycle.  A
    level's top edge is searched downward from its parent's and never below
    rank 0: a level of two or more vertices of a unique-sink orientation
    always induces an edge."""
    table = _rank_table(g, order)
    key = x, o.n, o.arcs
    answer = table.inverse.get(key)
    if answer is not None:
        return answer
    epm, n = table.epm, o.n
    oriented = n == g.n and len(o.arcs) == len(epm)
    tails = 0
    in_mask = [0] * n
    for e, (u, v) in enumerate(o.arcs):
        bit = 1 << u
        tails |= bit
        in_mask[v] |= bit
        if oriented and bit | 1 << v != epm[e]:
            oriented = False
    # the sinks as a mask: exactly one bit, at x
    full = (1 << n) - 1
    free = full & ~tails
    if not free or free & free - 1 or free.bit_length() - 1 != x:
        raise ValueError(f"orientation does not have unique sink {x}")
    if not oriented:
        raise ValueError("not an orientation of the concurrence graph")
    down = _down_masks(in_mask)
    pm, ends = table.pm, table.ends
    edges = []
    # (vertex mask, rank bound): a level's top edge ranks below its parent's;
    # only levels of two or more vertices are pushed
    levels = [(full, len(pm))] if full & full - 1 else []
    while levels:
        inside, hi = levels.pop()
        top = hi - 1
        while top >= 0 and pm[top] & ~inside:
            top -= 1
        assert top >= 0, "a level of a unique-sink orientation induces an edge"
        p, q = ends[top]
        below = down[p if down[q] >> p & 1 else q] & inside
        edges.append(table.order[top])
        if below & below - 1:
            levels.append((below, top))
        rest = inside ^ below
        if rest & rest - 1:
            levels.append((rest, top))
    answer = table.inverse[key] = frozenset(edges)
    return answer


def edge_orders(g, count, rng):
    """The identity edge order, then count - 1 successive shuffles of it;
    refuses a count below one."""
    if count < 1:
        raise ValueError(f"edge order count must be at least 1, got {count}")
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
    both dictionaries, and the NBC-base count under the last order.  Refuses
    an empty list of orders before any work.

    One rank table serves every map call under an order, so each base is
    validated once per order.  One pass over the bases makes each
    comparison once: the inverse reads only (x, n, arcs), so when the pass
    finds no fault at a sink, every unique-sink orientation is some image
    phi(t), which the inverse maps back to t.
    """
    orders = list(orders)
    if not orders:
        raise ValueError("at least one edge order is needed")
    by_sink = None
    failures = []
    checked = 0
    base_counts = set()
    for order in orders:
        bases = nbc_bases(g, order)
        if by_sink is None:
            # the NBC bases meet the cycle-enumeration cap before the 2^m sweep
            by_sink, _ = _unique_sink_groups(g)
        base_counts.add(len(bases))
        for x in range(g.n):
            usos = by_sink[x]
            if len(usos) != len(bases):
                failures.append(f"count mismatch at sink {g.vertex_labels[x]}")
            image = set()  # the arcs of the recursive images
            for t in bases:
                mu_o = base_to_orientation_direct(t, g, x, order)
                phi_o = base_to_orientation_recursive(t, g, x, order)
                checked += 1
                if mu_o.arcs != phi_o.arcs:
                    failures.append("explicit and recursive maps disagree")
                image.add(phi_o.arcs)
                try:
                    back = orientation_to_base(phi_o, g, x, order)
                except ValueError:  # refusing the other map's output is a failure too
                    back = None
                if back != t:
                    failures.append("inverse map failed on a base")
            if image != {o.arcs for o in usos}:
                failures.append(f"images differ from the orientations at sink {g.vertex_labels[x]}")
    if len(base_counts) != 1:
        failures.append("NBC base count depends on the edge order")
    return failures, checked, len(bases)


@dataclass(frozen=True)
class OrientationCountReport:
    total_acyclic: int
    unique_sink_counts: tuple  # per vertex
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
    by_sink, total = _unique_sink_groups(g)
    chrom = chromatic_polynomial(g)
    return OrientationCountReport(
        total_acyclic=total,
        unique_sink_counts=tuple(map(len, by_sink)),
        abs_value_at_minus_one=abs(chrom(-1)),
        abs_linear_coefficient=abs(chrom.coeff(1)),
    )
