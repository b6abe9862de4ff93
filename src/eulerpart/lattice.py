"""The join-semilattice of partitions of an Eulerian digraph's arc set into
Eulerian parts, and the circuit-partition / Martin polynomial machinery
built on it.

The element set is generated from the cycle partitions upward (each up-set
is a copy of the bond lattice of the corresponding intersection graph),
never by filtering all Bell(m) set partitions.  The circuit-partition counts,
and so the Martin polynomials, read only that element set; the refinement
order is built only by ``build_eulerian_semilattice``, for the down-set
sums and the Möbius inversion.

The generator works on int masks.  Bit e of an arc mask is arc e.  A cycle
partition a is a list of cycle arc masks and cycle vertex masks, in the
order of ``a.blocks``; its intersection graph G_a is a list of neighbour
masks over those cycle indices, and the pieces of its connected piece
partitions are masks over the same indices.  An element of T(D) is a
frozenset of block arc masks, each block the OR of its piece's cycle arc
masks.  A block is then a union of cycles whose intersection graph is
connected, so it is balanced and connected by construction, and its
circuits are counted by the BEST kernel with no test.  Only
``eulerian_parts`` and ``build_eulerian_semilattice`` turn elements into
``SetPartition``s, each distinct element once.

Most blocks recur across many elements, since every element above a cycle
partition coarsens it; so each call that reads many products counts each
distinct block's Eulerian circuits once, in a dict local to that call.
"""

from __future__ import annotations

from dataclasses import dataclass

from eulerpart.bonds import BondLattice
from eulerpart.errors import CapExceededError, NotEulerianError
from eulerpart.graphs import is_eulerian
from eulerpart.partition import SetPartition
from eulerpart.poly import IntPoly
from eulerpart.poset import FinitePoset, bits, refinement_order
from eulerpart.trails import (
    _best_from_arcs,
    count_eulerian_circuits,
    cycle_partitions,
    intersection_graph,
)

SEMILATTICE_CAP = 1 << 15
# the refinement order makes n^2 ``refines`` calls, 1.3-1.7 us each with
# CPython 3.11 on one core (1496 elements: 2.9 s; 2070: 7.3 s), so the
# largest order accepted builds in about 7 s
ORDER_CAP = 2048


def signed_circuit_product(d, b):
    """Product over blocks of minus the block's circuit count.

    Zero exactly when some block fails to induce a connected Eulerian
    sub-digraph; (-1)^{#blocks} times a positive integer otherwise.  Takes
    any set partition of the arc set, so it tests each block's balance; the
    semilattice's own products skip that test (see ``_signed_mask_product``).
    """
    if b.ground != frozenset(d.edges()):
        raise ValueError("partition must cover exactly the edge set")
    value = 1
    for block in b.blocks:
        value *= -count_eulerian_circuits(d.restrict(block))
        if value == 0:
            return 0
    return value


def _signed_mask_product(arcs, element, counts):
    """Signed circuit product of an element given as block arc masks.

    ``counts`` maps blocks to circuit counts already made for the digraph
    whose arc list is ``arcs``; a caller that reads many products passes the
    same dict to each.
    """
    value = 1
    for block in element:
        count = counts.get(block)
        if count is None:
            count = counts[block] = _best_from_arcs([arcs[e] for e in bits(block)])
        value *= -count
    return value


class EulerianSemilattice(FinitePoset):
    """All partitions of an arc set into connected Eulerian parts, under
    refinement, with each element's signed circuit product and the running
    down-set sums of those products."""

    def __init__(self, digraph, minimal, products):
        order = refinement_order(products)
        super().__init__(order.elements, order.down)
        self.digraph = digraph
        self.minimal = minimal  # the cycle partitions, canonical order
        self.products = products
        assert all(products.values())
        self._sums = {}

    def signed_product(self, b):
        return self.products[b]

    def downset_sum(self, b):
        """Sum of signed circuit products over the down-set of b."""
        if b not in self:
            raise ValueError("element does not belong to the semilattice")
        if b not in self._sums:
            self._sums[b] = sum(self.products[a] for a in self.down_set(b))
        return self._sums[b]


def _add_coarsenings(seen, arc_masks, vertex_masks):
    """Add to ``seen`` each coarsening of one cycle partition along a
    connected piece partition of its intersection graph, as a frozenset of
    block arc masks; refuse as soon as ``seen`` passes SEMILATTICE_CAP.

    The cycles are the pieces 0..k-1, given by their arc and vertex masks.
    The recursion pivots on the least unplaced piece and tries every piece
    mask holding it, largest first; a piece is used when it induces a
    connected subgraph of the intersection graph, and its block is the OR
    of its cycles' arc masks.  Both are found once per piece mask.
    """
    neighbours = [
        sum(1 << j for j, other in enumerate(vertex_masks) if j != i and other & mine)
        for i, mine in enumerate(vertex_masks)
    ]
    block_of = {}  # piece mask -> arc mask of its block, 0 when disconnected
    blocks = []

    def block(piece):
        reached = frontier = piece & -piece
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = neighbours[low.bit_length() - 1] & piece & ~reached
            reached |= new
            frontier |= new
        if reached != piece:
            return 0
        arcs = 0
        for i in bits(piece):
            arcs |= arc_masks[i]
        return arcs

    def rec(remaining):
        if not remaining:
            element = frozenset(blocks)
            if element not in seen:
                seen[element] = None
                if len(seen) > SEMILATTICE_CAP:
                    raise CapExceededError(
                        f"semilattice has more than {SEMILATTICE_CAP} elements"
                    )
            return
        pivot = remaining & -remaining
        rest = remaining ^ pivot
        sub = rest
        while True:
            piece = pivot | sub
            arcs = block_of.get(piece)
            if arcs is None:
                arcs = block_of[piece] = block(piece)
            if arcs:
                blocks.append(arcs)
                rec(remaining ^ piece)
                blocks.pop()
            if not sub:
                return
            sub = (sub - 1) & rest

    rec((1 << len(arc_masks)) - 1)


def _element_masks(d, minimal):
    """The elements of T(d) as frozensets of block arc masks, each once, in
    the order first reached from the cycle partitions in ``minimal``.

    The up-set of a cycle partition a is isomorphic to the bond lattice of
    its intersection graph, so every element is a coarsening of some a
    along a connected piece partition.  Refuses as soon as the set passes
    SEMILATTICE_CAP.
    """
    seen = {}
    for a in minimal:
        arc_masks = []
        vertex_masks = []
        for block in a.blocks:
            arcs = vertices = 0
            for e in block:
                u, v = d.arcs[e]
                arcs |= 1 << e
                vertices |= 1 << u | 1 << v
            arc_masks.append(arcs)
            vertex_masks.append(vertices)
        _add_coarsenings(seen, arc_masks, vertex_masks)
    return list(seen)


def _partition(element):
    return SetPartition([frozenset(bits(block)) for block in element])


def eulerian_parts(d, minimal):
    """The partitions of d's arc set into connected Eulerian parts, each
    once, generated upward from the cycle partitions in ``minimal``."""
    return [_partition(b) for b in _element_masks(d, minimal)]


def _cycle_partitions_of_eulerian(d):
    if not is_eulerian(d):
        raise NotEulerianError("the Eulerian-part semilattice needs an Eulerian digraph")
    return cycle_partitions(d)


def build_eulerian_semilattice(d):
    """The semilattice of an Eulerian digraph, refinement order included.

    Refuses above ORDER_CAP elements, after generating them and before the
    order is built.
    """
    minimal = _cycle_partitions_of_eulerian(d)
    elements = _element_masks(d, minimal)
    if len(elements) > ORDER_CAP:
        raise CapExceededError(
            f"semilattice has {len(elements)} elements; "
            f"its refinement order is built on at most {ORDER_CAP}"
        )
    counts = {}
    products = {_partition(b): _signed_mask_product(d.arcs, b, counts) for b in elements}
    return EulerianSemilattice(d, minimal, products)


def circuit_partition_counts(d):
    """f_k for k = 1..max: partitions into k circuits assembling into an
    Eulerian circuit, (-1)^k times the signed circuit products of the
    partitions into k Eulerian parts, summed.  Builds no order and no
    ``SetPartition``."""
    elements = _element_masks(d, _cycle_partitions_of_eulerian(d))
    out = [0] * max(len(b) for b in elements)
    counts = {}
    for b in elements:
        out[len(b) - 1] += (-1) ** len(b) * _signed_mask_product(d.arcs, b, counts)
    return tuple(out)


@dataclass(frozen=True)
class MartinPolynomials:
    """r is the circuit-partition polynomial, s its Martin transform."""

    f: tuple
    r: IntPoly
    s: IntPoly


def martin_polynomial(d):
    """Both generating polynomials of the circuit-partition counts.

    r(t) = sum f_k t^k;  s(t) = sum f_k (t-1)^(k-1), expanded in the
    monomial basis.
    """
    f = circuit_partition_counts(d)
    t = IntPoly.t()
    r = IntPoly.zero()
    s = IntPoly.zero()
    shifted = t - 1
    for k, fk in enumerate(f, start=1):
        r = r + IntPoly.monomial(k, fk)
        s = s + fk * shifted ** (k - 1)
    return MartinPolynomials(f, r, s)


@dataclass(frozen=True)
class CancellationReport:
    f: tuple
    alternating_sum: int
    is_single_cycle: bool
    holds: bool


def verify_cancellation(d):
    """Alternating sum of the f_k: zero unless the digraph is one directed
    cycle, whose sum is -1."""
    f = circuit_partition_counts(d)
    total = sum((-1) ** k * fk for k, fk in enumerate(f, start=1))
    single = len(f) == 1 and f[0] == 1 and _is_single_cycle(d)
    holds = (total == -1) if single else (total == 0)
    return CancellationReport(f, total, single, holds)


def _is_single_cycle(d):
    return is_eulerian(d) and all(
        d.out_degree(v) <= 1 for v in range(d.n)
    )


@dataclass(frozen=True)
class IdentityReport:
    s: IntPoly
    chi_by_partition: tuple  # (SetPartition, IntPoly) pairs
    lhs: IntPoly  # s(1 - t)
    rhs: IntPoly  # minus the signed sum of bond-lattice characteristic polys
    holds: bool
    r_identity_holds: bool


def martin_chromatic_identity(d):
    """Exact check that the Martin polynomial at 1-t equals minus the signed
    sum of characteristic polynomials of the cycle partitions' bond lattices,
    plus the companion identity for r at -t via chromatic polynomials."""
    from eulerpart.bonds import chromatic_polynomial

    polys = martin_polynomial(d)
    t = IntPoly.t()
    lhs = polys.s.compose(1 - t)
    rhs = IntPoly.zero()
    r_rhs = IntPoly.zero()
    chi_list = []
    # many cycle partitions share one intersection graph (all of them are K_k
    # on k parallel 2-cycles), so each distinct graph is weighed once
    weighed = {}
    for a in cycle_partitions(d):
        graph = intersection_graph(d, a)
        key = (graph.n, frozenset(graph.pairs))
        if key not in weighed:
            weighed[key] = (
                BondLattice(graph).characteristic_polynomial(),
                chromatic_polynomial(graph),
            )
        chi, chromatic = weighed[key]
        chi_list.append((a, chi))
        sign = (-1) ** len(a)
        rhs = rhs - sign * chi
        r_rhs = r_rhs + sign * chromatic
    r_lhs = polys.r.compose(-t)
    return IdentityReport(
        s=polys.s,
        chi_by_partition=tuple(chi_list),
        lhs=lhs,
        rhs=rhs,
        holds=lhs == rhs,
        r_identity_holds=r_lhs == r_rhs,
    )


@dataclass(frozen=True)
class DivisibilityReport:
    s: IntPoly
    divisor: IntPoly
    quotient: IntPoly | None
    divisible: bool


def martin_divisibility(d):
    """The Martin polynomial is divisible by prod_{i=2..max outdeg} (t + max - i)."""
    delta = max(d.out_degree(v) for v in range(d.n))
    if delta < 2:
        raise ValueError("divisibility statement needs maximum out-degree >= 2")
    divisor = IntPoly.one()
    t = IntPoly.t()
    for i in range(2, delta + 1):
        divisor = divisor * (t + (delta - i))
    polys = martin_polynomial(d)
    quotient, remainder = divmod(polys.s, divisor)
    ok = remainder.is_zero()
    return DivisibilityReport(polys.s, divisor, quotient if ok else None, ok)
