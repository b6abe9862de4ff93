"""Rank-2 Veblen multigraphs and their contribution to characteristic
polynomial coefficients.

Everything is exact: circuit counts are integers, weights are Fractions,
and the aggregated polynomial coefficients are asserted integral.  The
characteristic polynomial has three routes (infragraph weights, elementary
subgraphs, determinant via interpolation) that must agree.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from eulerpart.errors import CapExceededError, NotEulerianError
from eulerpart.graphs import (
    Digraph,
    Multigraph,
    arc_factorial_product,
    is_eulerian,
    out_degree_factorial_product,
    parallel_factorial_product,
)
from eulerpart.poly import IntPoly, interpolate_int_poly
from eulerpart.partition import SetPartition, components
from eulerpart.trails import count_eulerian_circuits, det_bareiss

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

    @classmethod
    def from_multigraph(cls, g):
        return cls(
            g.n,
            [tuple(sorted(p)) for p in g.pairs],
            g.vertex_labels,
            g.edge_labels,
        )

    def parallel_classes(self):
        classes = {}
        for e, pair in enumerate(self.pairs):
            classes.setdefault(tuple(sorted(pair)), []).append(e)
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


def multiplicity_key(x):
    """The vertex-fixing class of a multigraph as a hashable key."""
    counts = {}
    for p in x.pairs:
        key = tuple(sorted(p))
        counts[key] = counts.get(key, 0) + 1
    return (x.n, tuple(sorted(counts.items())))


def enumerate_infragraphs(host, max_edges):
    """All vertex-fixing classes of even-degree multigraphs wearing at most
    ``max_edges`` edges over the host's edge pairs.

    Returned as VeblenMultigraph representatives sorted by (edge count,
    component count, multiplicity vector); possibly disconnected, never
    empty.
    """
    if host.directed or not host.is_simple():
        raise ValueError("the host must be a simple undirected graph")
    if max_edges > INFRAGRAPH_EDGE_CAP:
        raise CapExceededError(
            f"infragraph enumeration capped at {INFRAGRAPH_EDGE_CAP} edges"
        )
    host_pairs = sorted(tuple(sorted(p)) for p in host.pairs)
    last_touch = {}
    for i, (u, v) in enumerate(host_pairs):
        last_touch[u] = i
        last_touch[v] = i
    found = []

    def rec(i, budget, parity, mults):
        if i == len(host_pairs):
            if any(mults):
                found.append(tuple(mults))
            return
        u, v = host_pairs[i]
        for m in range(budget + 1):
            parity_u = (parity.get(u, 0) + m) % 2
            parity_v = (parity.get(v, 0) + m) % 2
            if last_touch.get(u) == i and parity_u:
                continue
            if last_touch.get(v) == i and parity_v:
                continue
            parity2 = dict(parity)
            parity2[u] = parity_u
            parity2[v] = parity_v
            mults.append(m)
            rec(i + 1, budget - m, parity2, mults)
            mults.pop()

    rec(0, max_edges, {}, [])
    out = []
    # rec finds each vector once; the sort key below ends in the
    # multiplicity key, which tells every vector apart
    for mults in found:
        pairs = []
        for (u, v), m in zip(host_pairs, mults):
            pairs.extend([(u, v)] * m)
        out.append(VeblenMultigraph(host.n, pairs, host.vertex_labels))
    out.sort(key=lambda x: (x.m, x.component_count(), multiplicity_key(x)))
    return out


# ---------------------------------------------------------------------------
# decompositions into connected even-degree blocks
# ---------------------------------------------------------------------------


def _edge_vertex_masks(x):
    out = []
    for p in x.pairs:
        u, v = sorted(p)
        out.append(1 << u | 1 << v)
    return out


def _parity_table(x):
    """parity[mask] = xor of endpoint bit-masks over the edges in mask;
    zero exactly when every degree in the edge subset is even."""
    vmask = _edge_vertex_masks(x)
    table = [0] * (1 << x.m)
    for mask in range(1, 1 << x.m):
        low = mask & -mask
        table[mask] = table[mask ^ low] ^ vmask[low.bit_length() - 1]
    return table


def connected_veblen_subset_masks(x):
    """Bitmasks of edge subsets inducing connected even-degree subgraphs."""
    parity = _parity_table(x)
    return [
        mask
        for mask in range(3, 1 << x.m)
        if parity[mask] == 0
        and x.edge_support_connected([e for e in range(x.m) if mask >> e & 1])
    ]


def is_decomposable(x):
    """A connected even-degree multigraph with a proper nonempty even-degree
    edge subset."""
    if not x.edge_support_connected():
        raise ValueError("decomposability is defined for connected multigraphs")
    parity = _parity_table(x)
    full = (1 << x.m) - 1
    return any(parity[mask] == 0 for mask in range(1, full))


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
        """alpha: product of factorials of same-shape block-group sizes."""
        return math.prod(map(math.factorial, Counter(self.shapes).values()))


@dataclass(frozen=True)
class DecompositionClass:
    representative: Decomposition
    size: int


def decompositions(x):
    """Every partition of E(X) into connected even-degree blocks."""
    if not is_veblen(x):
        raise ValueError("decompositions need every vertex degree even")
    if not isinstance(x, VeblenMultigraph):
        x = VeblenMultigraph.from_multigraph(x)
    class_of_edge = {}
    for key, members in sorted(x.parallel_classes().items()):
        for e in members:
            class_of_edge[e] = key
    by_low = {}
    for mask in connected_veblen_subset_masks(x):
        low = (mask & -mask).bit_length() - 1
        by_low.setdefault(low, []).append(mask)
    out = []
    blocks = []

    def rec(remaining):
        if not remaining:
            out.append(
                _decomposition(
                    x,
                    [frozenset(e for e in range(x.m) if b >> e & 1) for b in blocks],
                    class_of_edge,
                )
            )
            return
        e0 = (remaining & -remaining).bit_length() - 1
        for cand in by_low.get(e0, ()):
            if cand & ~remaining == 0:
                blocks.append(cand)
                rec(remaining & ~cand)
                blocks.pop()

    rec((1 << x.m) - 1)
    return out


def _decomposition(x, blocks, class_of_edge):
    shapes = []
    m_product = 1
    for block in blocks:
        counts = Counter(class_of_edge[e] for e in block)
        shapes.append(tuple(sorted(counts.items())))
        m_product *= math.prod(map(math.factorial, counts.values()))
    # ``decompositions`` appends blocks by increasing least edge, which is
    # the SetPartition block order, so the shapes stay aligned
    return Decomposition(SetPartition(blocks), tuple(shapes), m_product)


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
    the smaller endpoint to the larger."""
    classes = sorted(x.parallel_classes().items())
    reps = []

    def rec(i, net, arcs):
        if i == len(classes):
            if not any(net.values()):
                reps.append(Digraph(x.n, list(arcs), x.vertex_labels))
            return
        (u, v), members = classes[i]
        m = len(members)
        for forward in range(m + 1):
            delta = 2 * forward - m  # out-minus-in change at u
            net[u] = net.get(u, 0) + delta
            net[v] = net.get(v, 0) - delta
            arcs.extend([(u, v)] * forward + [(v, u)] * (m - forward))
            rec(i + 1, net, arcs)
            del arcs[-m:]
            net[u] -= delta
            net[v] += delta

    rec(0, {}, [])
    return reps


def associated_coefficient_via_rootings(x):
    """Second route: sum over rooting classes.

    Rooting classes of a rank-2 even-degree multigraph correspond to
    vertex-fixing classes of its balanced orientations; each contributes
    its class size N/K times circuits-over-N.
    """
    if not x.edge_support_connected():
        raise ValueError("associated coefficient needs a connected multigraph")
    total = Fraction(0)
    for rep in eulerian_orientation_classes(x):
        if not is_eulerian(rep):
            continue
        circuits = count_eulerian_circuits(rep)
        n_rootings = Fraction(
            out_degree_factorial_product(rep), arc_factorial_product(rep)
        )
        total += n_rootings * Fraction(circuits, out_degree_factorial_product(rep))
    return total


def rooting_class_sizes(x):
    """(representative orientation, class size N/K) per Eulerian class."""
    out = []
    for rep in eulerian_orientation_classes(x):
        if is_eulerian(rep):
            size, remainder = divmod(
                out_degree_factorial_product(rep), arc_factorial_product(rep)
            )
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


def _block_coefficient(x, block, cache):
    counts = {}
    for e in block:
        pair = tuple(sorted(x.pairs[e]))
        counts[pair] = counts.get(pair, 0) + 1
    key = tuple(sorted(counts.items()))
    if key not in cache:
        sub = x.restrict(block)
        cache[key] = Fraction(
            count_eulerian_circuits(sub), parallel_factorial_product(sub)
        )
    return cache[key]


def weight(x, n=0, _cache=None):
    """Coefficient contribution of an even-degree multigraph.

    Signed sum over decomposition classes of the class coefficient divided
    by its symmetry factor; the leading sign is (-1) to the number of
    components, which makes the weight multiplicative over components.  At
    rank 2 the value is independent of n.
    """
    if not is_veblen(x):
        raise ValueError("weights are defined for even-degree multigraphs")
    if not isinstance(x, VeblenMultigraph):
        x = VeblenMultigraph.from_multigraph(x)
    cache = _cache if _cache is not None else {}
    total = Fraction(0)
    for cls in decomposition_classes(x):
        dec = cls.representative
        coeff = Fraction(1)
        for block in dec.blocks:
            coeff *= _block_coefficient(x, block, cache)
        total += (
            Fraction((-1) ** dec.block_count, dec.symmetry_factor) * coeff
        )
    return Fraction((-1) ** x.component_count()) * total


def weight_via_all_decompositions(x, n=0):
    """Same value from the unquotiented sum: per decomposition, the block
    factorial product over the full factorial product replaces 1/alpha."""
    if not isinstance(x, VeblenMultigraph):
        x = VeblenMultigraph.from_multigraph(x)
    cache = {}
    m_x = x.factorial_product
    total = Fraction(0)
    for dec in decompositions(x):
        coeff = Fraction(1)
        for block in dec.blocks:
            coeff *= _block_coefficient(x, block, cache)
        total += (
            Fraction((-1) ** dec.block_count * dec.factorial_product, m_x) * coeff
        )
    return Fraction((-1) ** x.component_count()) * total


def circuit_partitions_of_orientation(o, t):
    """Number of partitions of the arc set into t circuits assembling into
    an Eulerian circuit, via decompositions of the underlying multigraph.

    Each underlying decomposition whose blocks stay balanced in o
    contributes the product of the blocks' circuit counts.
    """
    if not is_eulerian(o):
        raise NotEulerianError("circuit partitions need an Eulerian orientation")
    x = VeblenMultigraph.from_multigraph(o.underlying_multigraph())
    total = 0
    for dec in decompositions(x):
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
    """
    if host.n > HOST_VERTEX_CAP:
        raise CapExceededError(f"host capped at {HOST_VERTEX_CAP} vertices")
    n = host.n
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    cache = {}
    # weight is multiplicative over components, so each distinct component
    # (as a relabelled multiplicity key) is weighed once per host
    weights = {}
    for x in enumerate_infragraphs(host, n):
        parts = _relabelled_components(x)
        contribution = Fraction((-1) ** len(parts))
        for part in parts:
            key = multiplicity_key(part)
            if key not in weights:
                weights[key] = weight(part, _cache=cache)
            contribution *= weights[key]
        coeffs[n - x.m] += contribution
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise AssertionError(f"non-integral aggregated coefficient {c}")
        out.append(c.numerator)
    return IntPoly(out)


def _relabelled_components(x):
    """The connected components of x's edge support, each relabelled onto
    0..k-1 in increasing vertex order."""
    out = []
    for vertices in components(x.pairs):
        index = {v: i for i, v in enumerate(sorted(vertices))}
        pairs = [(index[u], index[v]) for u, v in x.pairs if u in index]
        out.append(VeblenMultigraph(len(index), pairs))
    return out


def elementary_subgraph_formula(host):
    """Classical route: disjoint unions of single edges and cycles of
    length >= 3 contribute (-1)^components 2^cycles at codegree |V(U)|."""
    if host.directed or not host.is_simple():
        raise ValueError("the host must be a simple undirected graph")
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
    if host.directed or not host.is_simple():
        raise ValueError("the oracle expects a simple undirected graph")
    n = host.n
    adj = [[0] * n for _ in range(n)]
    for p in host.pairs:
        u, v = sorted(p)
        adj[u][v] = adj[v][u] = 1
    points = []
    for k in range(n + 1):
        mat = [
            [(k if i == j else 0) - adj[i][j] for j in range(n)] for i in range(n)
        ]
        points.append((k, det_bareiss(mat)))
    return interpolate_int_poly(points)
