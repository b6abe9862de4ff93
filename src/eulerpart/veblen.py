"""Rank-2 Veblen multigraphs and their contribution to characteristic
polynomial coefficients.

Everything is exact: circuit counts are integers, weights are Fractions,
and the aggregated polynomial coefficients are asserted integral.  The
characteristic polynomial has three routes (infragraph weights, elementary
subgraphs, determinant via interpolation) that must agree.

Infragraphs come from one generator of multiplicity vectors over the
host's sorted pairs, which tracks vertex parity as an int mask.
``enumerate_infragraphs`` builds a ``VeblenMultigraph`` per vector; the
infragraph-weight route reads the vectors directly, splits them into
components on vertex masks, and weighs one component per isomorphism
class: each new component key goes to the one isomorphism store,
``corpus._IsoStore``, as the multiplicity map built from the entries and
slots the route already holds.  The classes, their weights (ints when
integral), the block coefficients by shape and the signed weight of each
labelled component key live in one module-level ``_ComponentClasses``,
shared by every host in the process.

Weights run on edge masks of the multigraph they are given.  One pass over
the edge subsets keeps the connected even-degree blocks, each with its
shape: its sorted (pair, multiplicity) tuple.  A block's coefficient is
read from a memo by shape (the call's own, or the one passed as
``_cache``), so each shape is counted once per memo, by the orientation
sweep over the shape's own pairs; no sub-multigraph is built.  The
decompositions come as block-mask tuples, grouped by their sorted shapes,
and no ``Decomposition`` is built.  ``decompositions`` wraps the same
masks in ``Decomposition`` objects for ``circuit_partitions_of_orientation``
and for the tests, whose full-sum oracle is in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from eulerpart.corpus import _IsoStore
from eulerpart.errors import CapExceededError, NotEulerianError
from eulerpart.graphs import (
    Digraph,
    Multigraph,
    is_eulerian,
    out_degree_factorial_product,
    parallel_factorial_product,
)
from eulerpart.poly import IntPoly, interpolate_int_poly
from eulerpart.poset import bits
from eulerpart.partition import SetPartition, components
from eulerpart.trails import (
    _closing_vertices,
    _count_circuits_all_orientations,
    count_eulerian_circuits,
    det_bareiss,
)

INFRAGRAPH_EDGE_CAP = 12
HOST_VERTEX_CAP = 8


class VeblenMultigraph(Multigraph):
    """A multigraph in which every vertex degree is even.

    Carries its parallelism classes and the factorial product over their
    multiplicities.
    """

    def __init__(self, n, pairs, vertex_labels=None, edge_labels=None):
        super().__init__(n, pairs, vertex_labels, edge_labels)
        bad = [v for v in range(n) if self.degree(v) % 2]
        if bad:
            raise ValueError(f"odd degree at vertices {bad}; not even-degree")

    def parallel_classes(self):
        classes = {}
        for e, pair in enumerate(self.pairs):
            classes.setdefault(pair, []).append(e)
        return classes

    @property
    def factorial_product(self):
        """M_X over parallelism classes."""
        return parallel_factorial_product(self)

    def component_count(self):
        return len(components(self.pairs))


def is_veblen(x):
    """Every vertex degree even (isolated vertices count as degree zero)."""
    return all(x.degree(v) % 2 == 0 for v in range(x.n))


def _host_pairs(host):
    """The host's edges as (u, v) pairs with u < v, in increasing order."""
    if host.directed or not host.is_simple():
        raise ValueError("the host must be a simple undirected graph")
    return sorted(host.pairs)


def _multiplicity_vectors(pairs, max_edges):
    """Every nonzero vector of multiplicities over ``pairs`` with at most
    ``max_edges`` edges in all and every vertex degree even, once each.

    A vector is yielded as its nonzero entries, (pair index, multiplicity)
    in increasing index order.  Vertex parity is an int mask, bit v set
    while v has odd degree.  ``closes[i]`` masks the vertices whose last
    pair is i: each must be even once pair i is passed, which prunes a
    branch as soon as it cannot be completed.  The recursion jumps from
    one nonzero entry to the next, so a run of zero entries costs one mask
    test per pair it skips.
    """
    ends = [1 << u | 1 << v for u, v in pairs]
    closes = [sum(1 << v for v in vs) for vs in _closing_vertices(pairs)]
    entries = []

    def rec(start, budget, parity):
        if entries and not parity:
            yield tuple(entries)  # every later entry zero
        if not budget:
            return
        skipped = 0  # vertices closed by the zero entries start..i-1
        for i in range(start, len(pairs)):
            if parity & skipped:
                return
            flipped = parity ^ ends[i]
            for m in range(1, budget + 1):
                after = flipped if m & 1 else parity
                if not after & closes[i]:
                    entries.append((i, m))
                    yield from rec(i + 1, budget - m, after)
                    entries.pop()
            skipped |= closes[i]

    return rec(0, max_edges, 0)


def _vector_components(vector, ends):
    """The connected components of a multiplicity vector's edge support, as
    (vertex mask, entries) pairs; ``ends[i]`` masks the ends of pair i."""
    comps = []
    for entry in vector:
        mask = ends[entry[0]]
        group = [entry]
        rest = []
        for comp in comps:
            if comp[0] & mask:
                mask |= comp[0]
                group += comp[1]
            else:
                rest.append(comp)
        rest.append((mask, group))
        comps = rest
    return comps


def _infragraph_vectors(host, max_edges):
    """The host's sorted pairs and the generator of its even multiplicity
    vectors with at most ``max_edges`` edges; refused above the cap."""
    pairs = _host_pairs(host)
    if max_edges > INFRAGRAPH_EDGE_CAP:
        raise CapExceededError(
            f"infragraph enumeration capped at {INFRAGRAPH_EDGE_CAP} edges"
        )
    return pairs, _multiplicity_vectors(pairs, max_edges)


def enumerate_infragraphs(host, max_edges):
    """All vertex-fixing classes of even-degree multigraphs wearing at most
    ``max_edges`` edges over the host's edge pairs.

    Returned as VeblenMultigraph representatives sorted by (edge count,
    component count, multiplicity vector); possibly disconnected, never
    empty.
    """
    pairs, vectors = _infragraph_vectors(host, max_edges)
    ends = [1 << u | 1 << v for u, v in pairs]
    # the sort key's last part is the multiplicity key, distinct per vector
    keyed = sorted(
        (
            sum(m for _, m in vector),
            len(_vector_components(vector, ends)),
            tuple((pairs[i], m) for i, m in vector),
        )
        for vector in vectors
    )
    return [
        VeblenMultigraph(
            host.n, [pair for pair, m in counts for _ in range(m)], host.vertex_labels
        )
        for _, _, counts in keyed
    ]


# ---------------------------------------------------------------------------
# decompositions into connected even-degree blocks
# ---------------------------------------------------------------------------


def _edge_vertex_masks(x):
    return [1 << u | 1 << v for u, v in x.ends]


def _parity_table(x):
    """parity[mask] = xor of endpoint bit-masks over the edges in mask;
    zero exactly when every degree in the edge subset is even."""
    vmask = _edge_vertex_masks(x)
    table = [0] * (1 << x.m)
    for mask in range(1, 1 << x.m):
        low = mask & -mask
        table[mask] = table[mask ^ low] ^ vmask[low.bit_length() - 1]
    return table


def _edges_connected(mask, ends):
    """Whether the edges in a nonempty mask have a connected support.

    The vertex mask of the least edge absorbs every edge that meets it,
    pass after pass, until no edge is left or a pass absorbs none.
    """
    low = mask & -mask
    reach = ends[low.bit_length() - 1]
    rest = mask ^ low
    while rest:
        before = rest
        for e in bits(before):
            if ends[e] & reach:
                reach |= ends[e]
                rest ^= 1 << e
        if rest == before:
            return False
    return True


def connected_veblen_subset_masks(x):
    """The edge subsets inducing connected even-degree subgraphs, as a dict
    from edge mask to shape, in increasing mask order.

    A block's shape is its sorted tuple of (pair, multiplicity); it fixes
    the sub-multigraph, so blocks of one shape have one coefficient.  The
    edges are read without their direction, so a digraph's blocks are those
    of its underlying multigraph, with its arcs in the shapes.
    """
    ends = _edge_vertex_masks(x)
    pairs = x.ends
    parity = _parity_table(x)
    blocks = {}
    for mask in range(1, 1 << x.m):
        if parity[mask] or not _edges_connected(mask, ends):
            continue
        counts = {}
        for e in bits(mask):
            counts[pairs[e]] = counts.get(pairs[e], 0) + 1
        blocks[mask] = tuple(sorted(counts.items()))
    return blocks


def _decomposition_masks(blocks, m):
    """Every partition of m edges into the given block masks, as a tuple of
    masks by increasing least edge: each step takes a block holding the
    least edge not yet covered."""
    by_low = {}
    for mask in blocks:
        by_low.setdefault(mask & -mask, []).append(mask)
    chosen = []

    def rec(remaining):
        if not remaining:
            yield tuple(chosen)
            return
        for cand in by_low.get(remaining & -remaining, ()):
            if not cand & ~remaining:
                chosen.append(cand)
                yield from rec(remaining ^ cand)
                chosen.pop()

    return rec((1 << m) - 1)


def is_decomposable(x):
    """A connected even-degree multigraph with a proper nonempty even-degree
    edge subset.

    An even-degree multigraph is an edge-disjoint union of cycles, so a
    connected one has such a subset exactly when it is not one cycle: when
    some vertex degree is above 2.
    """
    if not x.edge_support_connected():
        raise ValueError("decomposability is defined for connected multigraphs")
    return any(x.degree(v) > 2 for v in range(x.n))


def _symmetry_factor(shapes):
    """alpha: product of factorials of same-shape block-group sizes."""
    return math.prod(map(math.factorial, Counter(shapes).values()))


@dataclass(frozen=True)
class Decomposition:
    blocks: SetPartition
    shapes: tuple  # canonical shape per block, aligned with blocks
    factorial_product: int  # M over the blocks

    @property
    def block_count(self):
        return len(self.blocks)

    @property
    def shape_multiset(self):
        return tuple(sorted(self.shapes))

    @property
    def symmetry_factor(self):
        return _symmetry_factor(self.shapes)


@dataclass(frozen=True)
class DecompositionClass:
    representative: Decomposition
    size: int


def decompositions(x):
    """Every partition of E(X) into connected even-degree blocks."""
    if not is_veblen(x):
        raise ValueError("decompositions need every vertex degree even")
    blocks = connected_veblen_subset_masks(x)
    out = []
    for dec in _decomposition_masks(blocks, x.m):
        shapes = tuple(blocks[b] for b in dec)
        out.append(
            Decomposition(
                # the blocks come by increasing least edge, which is the
                # SetPartition block order, so the shapes stay aligned
                SetPartition([bits(b) for b in dec]),
                shapes,
                math.prod(math.factorial(k) for shape in shapes for _, k in shape),
            )
        )
    return out


def decomposition_classes(x):
    """Quotient by parallelism-preserving relabeling: two decompositions are
    equivalent iff they have the same multiset of block shapes."""
    grouped = {}
    for dec in decompositions(x):
        grouped.setdefault(dec.shape_multiset, []).append(dec)
    out = []
    for key in sorted(grouped):
        members = grouped[key]
        out.append(DecompositionClass(members[0], len(members)))
    return out


# ---------------------------------------------------------------------------
# associated coefficients, two routes
# ---------------------------------------------------------------------------


def associated_coefficient(x):
    """Circuit count over the parallel factorial product, exactly."""
    if not x.edge_support_connected():
        raise ValueError("associated coefficient needs a connected multigraph")
    return Fraction(count_eulerian_circuits(x), parallel_factorial_product(x))


def eulerian_orientation_classes(x):
    """One representative digraph per vertex-fixing class of balanced
    orientations: choose how many copies of each parallel class point from
    the smaller endpoint to the larger.

    The classes are placed in sorted order, and ``last[v]`` is the index of
    v's last class: once it is placed, v's net out-degree is final, so a
    branch that leaves it nonzero is cut there.  Every leaf is balanced."""
    classes = sorted(x.parallel_classes().items())
    last = [None] * x.n
    for i, ((u, v), _) in enumerate(classes):
        last[u] = last[v] = i
    net = [0] * x.n
    reps = []

    def rec(i, arcs):
        if i == len(classes):
            reps.append(Digraph(x.n, list(arcs), x.vertex_labels))
            return
        (u, v), members = classes[i]
        m = len(members)
        for forward in range(m + 1):
            delta = 2 * forward - m  # out-minus-in change at u
            net[u] += delta
            net[v] -= delta
            if not (last[u] == i and net[u] or last[v] == i and net[v]):
                arcs.extend([(u, v)] * forward + [(v, u)] * (m - forward))
                rec(i + 1, arcs)
                del arcs[-m:]
            net[u] -= delta
            net[v] += delta

    rec(0, [])
    return reps


def associated_coefficient_via_rootings(x):
    """Second route: sum over rooting classes.

    Rooting classes of a rank-2 even-degree multigraph correspond to
    vertex-fixing classes of its balanced orientations; each contributes
    its class size N/K times circuits-over-N.
    """
    total = Fraction(0)
    for rep, size in rooting_class_sizes(x):
        total += Fraction(size * count_eulerian_circuits(rep), out_degree_factorial_product(rep))
    return total


def rooting_class_sizes(x):
    """(representative orientation, class size N/K) per Eulerian class.  Each
    class is balanced and spans x's edges, so once x is connected, each one
    is Eulerian."""
    if not x.edge_support_connected():
        raise ValueError("associated coefficient needs a connected multigraph")
    out = []
    for rep in eulerian_orientation_classes(x):
        size, remainder = divmod(out_degree_factorial_product(rep), parallel_factorial_product(rep))
        assert remainder == 0
        out.append((rep, size))
    return out


def count_rooting_tuples(d):
    """Exhaustively count the distinct star tuples a balanced orientation
    induces: arrangements of each vertex's out-neighbour multiset.

    Parallel arcs give identical stars, so arrangements are multiset
    permutations.
    """
    from itertools import permutations

    total = 1
    for u in range(d.n):
        targets = tuple(sorted(v for _, v in d.out_arcs(u)))
        total *= len(set(permutations(targets)))
    return total


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def _shape_coefficient(shape, cache):
    """Circuit count over parallel factorial product of a block, read from
    cache by its shape, the sorted (pair, multiplicity) tuple.  A miss
    sends the shape's pairs, each repeated m times, straight to the
    orientation sweep, with no multigraph and no Eulerian test: a block is
    connected and even by construction."""
    coeff = cache.get(shape)
    if coeff is None:
        coeff = cache[shape] = Fraction(
            _count_circuits_all_orientations([pair for pair, m in shape for _ in range(m)]),
            math.prod(math.factorial(m) for _, m in shape),
        )
    return coeff


def weight(x, n=0, _cache=None):
    """Coefficient contribution of an even-degree multigraph.

    Signed sum over decomposition classes of the class coefficient divided
    by its symmetry factor; the leading sign is (-1) to the number of
    components, which makes the weight multiplicative over components.  At
    rank 2 the value is independent of n.

    The decompositions come as block-mask tuples.  A class is the sorted
    tuple of its blocks' shapes, which gives its block count and alpha, and
    its coefficient is the product of one memoised coefficient per shape.
    """
    if not is_veblen(x):
        raise ValueError("weights are defined for even-degree multigraphs")
    cache = _cache if _cache is not None else {}
    blocks = connected_veblen_subset_masks(x)
    coeffs = {shape: _shape_coefficient(shape, cache) for shape in blocks.values()}
    classes = {
        tuple(sorted(blocks[b] for b in dec))
        for dec in _decomposition_masks(blocks, x.m)
    }
    total = Fraction(0)
    for shapes in classes:
        total += Fraction((-1) ** len(shapes), _symmetry_factor(shapes)) * math.prod(
            coeffs[shape] for shape in shapes
        )
    return Fraction((-1) ** len(components(x.pairs))) * total


def circuit_partitions_of_orientation(o, t):
    """Number of partitions of the arc set into t circuits assembling into
    an Eulerian circuit, via decompositions of the underlying multigraph.

    Each underlying decomposition whose blocks stay balanced in o
    contributes the product of the blocks' circuit counts; ``decompositions``
    reads o's arcs as undirected edges.
    """
    if not is_eulerian(o):
        raise NotEulerianError("circuit partitions need an Eulerian orientation")
    total = 0
    for dec in decompositions(o):
        if dec.block_count != t:
            continue
        product = 1
        for block in dec.blocks:
            product *= count_eulerian_circuits(o.restrict(block))
            if product == 0:
                break
        total += product
    return total


# ---------------------------------------------------------------------------
# characteristic polynomial, three routes
# ---------------------------------------------------------------------------


def hs_characteristic_polynomial(host):
    """Characteristic polynomial from infragraph weights.

    Coefficient of t^(n-d) collects (-1)^components * weight over the
    classes with d edges; elementary classes are the only nonzero
    contributors at rank 2, which bounds d by n.

    The infragraphs are read as multiplicity vectors straight from the
    generator behind ``enumerate_infragraphs`` and split into components
    on vertex masks; no multigraph is built per infragraph.  The weight is
    multiplicative over components, so each component is looked up in two
    levels of ``_COMPONENT_CLASSES``, which lives for the process: first by
    its multiplicity key relabelled in increasing vertex order, and on a
    miss by its isomorphism class, with the multiplicity map read off the
    component's entries and their slots.  ``weight`` runs once per class
    of component in the process, so the number of calls does not depend
    on how the host is labelled.
    A vector's product stops at its first zero weight; each of its
    components is itself a vector within the budget, so every class is
    still weighed when it comes up alone.  Weights and sums are ints;
    only a non-integral class weight would bring in a ``Fraction``.
    """
    if host.n > HOST_VERTEX_CAP:
        raise CapExceededError(f"host capped at {HOST_VERTEX_CAP} vertices")
    pairs = _host_pairs(host)
    n = host.n
    ends = [1 << u | 1 << v for u, v in pairs]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    classes = _COMPONENT_CLASSES
    if classes.weigh is not weight:
        classes.reset(weight)
    slots = {}  # vertex mask -> {pair index: its slot in a component key}
    signed = classes.signed
    for vector in _multiplicity_vectors(pairs, n):
        product = 1
        for vertices, entries in _vector_components(vector, ends):
            slot = slots.get(vertices)
            if slot is None:
                slot = slots[vertices] = _pair_slots(pairs, vertices)
            code = 0
            for i, m in entries:
                code |= m << slot[i]
            k = vertices.bit_count()
            key = (k, code)
            w = signed.get(key)
            if w is None:
                mults = {divmod(slot[i] >> 2, k): m for i, m in entries}
                w = signed[key] = classes.signed_weight(k, mults)
            if not w:
                break
            product *= w
        else:
            coeffs[n - sum(m for _, m in vector)] += product
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise AssertionError(f"non-integral aggregated coefficient {c}")
        out.append(c.numerator)
    return IntPoly(out)


def _pair_slots(pairs, vertices):
    """Pair index -> bit offset in a component key, for the host pairs
    inside a vertex mask.

    A component on k vertices is relabelled onto 0..k-1 in increasing
    vertex order and keyed by (k, code), with the multiplicity of pair
    (a, b) in the four bits at 4(ak + b).  The route wears at most
    HOST_VERTEX_CAP < 16 edges, so four bits hold any multiplicity.
    """
    index = {}
    rest = vertices
    while rest:
        low = rest & -rest
        index[low.bit_length() - 1] = len(index)
        rest ^= low
    k = len(index)
    return {
        i: 4 * (index[u] * k + index[v])
        for i, (u, v) in enumerate(pairs)
        if u in index and v in index
    }


class _ComponentClasses:
    """The component classes of the Harary-Sachs route, kept for the life
    of the process: an undirected ``_IsoStore`` of components, each offered
    as its multiplicity map {(a, b): m} on vertices 0..k-1, the signed
    weight of each class by class index (an int when integral), the signed
    weight of each labelled key met (``signed``, so a repeated key skips
    the colours and the match), and the shape-coefficient dict that
    ``weight`` reads as its ``_cache``.

    A class's weight does not depend on the host it came from, so hosts
    share it.  The store is bounded by the labelled connected even
    multigraphs with at most ``HOST_VERTEX_CAP`` edges: after K8 it holds
    77 classes, 196 shapes and 12028 labelled keys.  It holds the values of one weight
    function, ``weigh``; the route empties it when the module's ``weight``
    is another, so a replaced ``weight`` (a planted fault) is always
    called and its values never outlive it.
    """

    def __init__(self):
        self.reset(None)

    def reset(self, weigh):
        """Empty the store and bind it to the weight function ``weigh``."""
        self.weigh = weigh
        self.store = _IsoStore(directed=False)
        self.weights = []
        self.shapes = {}
        self.signed = {}  # component key -> -weight of its class

    def signed_weight(self, k, mults):
        """-weight of the component on vertices 0..k-1 with multiplicity map
        ``mults``, weighed on the first component of its class only."""
        index = self.store.class_index((k, mults))
        if index == len(self.weights):
            x = VeblenMultigraph(k, [pair for pair, m in mults.items() for _ in range(m)])
            w = -self.weigh(x, _cache=self.shapes)
            self.weights.append(w.numerator if w.denominator == 1 else w)
        return self.weights[index]


_COMPONENT_CLASSES = _ComponentClasses()


def elementary_subgraph_formula(host):
    """Classical route: disjoint unions of single edges and cycles of
    length >= 3 contribute (-1)^components 2^cycles at codegree |V(U)|."""
    _host_pairs(host)  # refuses a host that is not simple and undirected
    n = host.n
    coeffs = [0] * (n + 1)
    adjacency = {v: set(host.neighbors(v)) for v in range(n)}

    # each leaf of the choice tree is one elementary subgraph: a vertex is
    # skipped, matched to a larger neighbour, or the least vertex of a cycle
    def rec(available, used_count, components, cycles):
        if not available:
            coeffs[n - used_count] += (-1) ** components * 2**cycles
            return
        v = min(available)
        rest = available - {v}
        rec(rest, used_count, components, cycles)
        for w in sorted(adjacency[v] & rest):
            rec(rest - {w}, used_count + 2, components + 1, cycles)
        for path in _cycle_paths(adjacency, v, rest):
            rec(
                rest - frozenset(path),
                used_count + 1 + len(path),
                components + 1,
                cycles + 1,
            )

    rec(frozenset(range(n)), 0, 0, 0)
    return IntPoly(coeffs)


def _cycle_paths(adjacency, v, available):
    """Paths w1..wk (k >= 2) through available vertices closing a cycle at v,
    with the direction fixed by w1 < wk."""
    out = []

    def extend(path, seen):
        u = path[-1]
        for w in sorted(adjacency[u] & available - seen):
            # closing at w gives the cycle v, path..., w of length >= 3
            if path and v in adjacency[w] and path[0] < w:
                out.append(path + [w])
            extend(path + [w], seen | {w})

    for w1 in sorted(adjacency[v] & available):
        extend([w1], {w1})
    return out


def charpoly_determinant_oracle(host):
    """det(tI - A) via exact integer determinants at n+1 interpolation
    points; independent of the combinatorial routes."""
    pairs = _host_pairs(host)
    n = host.n
    adj = [[0] * n for _ in range(n)]
    for u, v in pairs:
        adj[u][v] = adj[v][u] = 1
    points = []
    for k in range(n + 1):
        mat = [
            [(k if i == j else 0) - adj[i][j] for j in range(n)] for i in range(n)
        ]
        points.append((k, det_bareiss(mat)))
    return interpolate_int_poly(points)
