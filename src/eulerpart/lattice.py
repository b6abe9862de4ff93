"""The circuit-partition counts f_k and the Martin polynomials of an
Eulerian digraph, by two routes, and the join-semilattice T(D) of partitions
of its arc set into Eulerian parts.

Two routes give f_k, and they share only the cycle-partition listing:
- ``circuit_partition_counts``, the default, reads the paper's chromatic
  corollary r(t) = sum over the cycle partitions a of (-1)^|a| chi(G_a; -t)
  from the cycle partitions' intersection graphs, with no element of T(D)
  above them and no circuit count, by the DP ``bonds.chromatic_polynomial``
  reads.  ``martin_polynomial``, ``martin_divisibility``,
  ``verify_cancellation`` and the CLI's ``martin`` and ``cancellation`` read
  it.
- ``semilattice_partition_counts`` sums the signed circuit products over
  T(D).  The verify checks on T(D) read it by name (``cancellation``,
  ``martin-evaluations``, ``counts-vs-direct-enumeration``,
  ``orientation-circuit-partitions``, ``weight-via-cancellation``), passing
  its f to the readers above, and so does ``martin_chromatic_identity``,
  which the CLI's ``identity`` serves and which holds the default route's
  f against it as its r side.

The element set of T(D) is generated from the cycle partitions upward
(each up-set is a copy of the bond lattice of the corresponding
intersection graph), never by filtering all Bell(m) set partitions.  The
semilattice's f_k reads only that element set; the refinement
order, built only by ``build_eulerian_semilattice`` for the down-set sums
and the Möbius inversion, is read from the elements alone
(``poset.coarsening_order``).

The generator works on int masks from the first cycle on.  Bit e of an arc
mask is arc e.  ``trails.cycle_partition_masks`` lists each cycle partition
a as a list of (arc mask, vertex mask) pairs, one per cycle, in the order of
their least arcs, which is the order of ``a.blocks``; no ``SetPartition`` is
built for a cycle partition on the way to f_k.  An element of T(D) is a
frozenset of block arc masks.  The up-set of a is the bond lattice of its
intersection graph G_a, whose covers merge two blocks that share a vertex;
so T(D) is the closure of the cycle partitions under that merge.  A block
is then a union of cycles whose intersection graph is connected, so it is
balanced and connected by construction, and its circuits are counted by the
BEST kernel with no test.  The generator is ``poset.add_coarsenings``, with arc masks as
payloads and vertex masks as touches.  Only ``eulerian_parts`` and
``poset.coarsening_order`` turn elements into ``SetPartition``s, each
distinct element once.

Every element above a cycle partition coarsens it, so most blocks recur
across elements; one dict per call maps each block mask to its circuit
count, from 1 for each cycle (a directed cycle has one Eulerian circuit),
so the BEST kernel runs once per distinct merged block of the call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from eulerpart import bonds
from eulerpart.bonds import BondLattice
from eulerpart.errors import CapExceededError, NotEulerianError
from eulerpart.graphs import is_eulerian
from eulerpart.partition import SetPartition, components
from eulerpart.poly import IntPoly
from eulerpart.poset import FinitePoset, add_coarsenings, bits, coarsening_order, mask_sum
from eulerpart.trails import (
    _best_from_arcs,
    count_eulerian_circuits,
    cycle_partition_masks,
    intersection_graph,
)

SEMILATTICE_CAP = 1 << 15


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

    ``counts`` maps block masks to counts already made for the digraph whose
    arc list is ``arcs``; a caller that reads many products passes the same
    dict to each.  Only a block it misses runs the kernel.
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
    refinement, with each element's signed circuit product, listed by
    index, and the running down-set sums of those products."""

    def __init__(self, minimal, elements, products, down):
        super().__init__(elements, down)
        self.minimal = minimal  # the cycle partitions, canonical order
        assert all(products)
        self._values = products  # indexed like self.elements
        self._sums = {}

    def signed_product(self, b):
        return self._values[self.index[b]]

    def downset_sum(self, b):
        """Sum of signed circuit products over the down-set of b, read by
        index from b's down mask."""
        if b not in self:
            raise ValueError("element does not belong to the semilattice")
        if b not in self._sums:
            self._sums[b] = mask_sum(self._values, self.down[self.index[b]])
        return self._sums[b]


def _element_masks(minimal):
    """The elements of T(D) as frozensets of block arc masks, each once, in
    the order first reached from the cycle partitions in ``minimal``, each a
    list of (arc mask, vertex mask) pairs as ``cycle_partition_masks`` gives.

    The up-set of a cycle partition a is isomorphic to the bond lattice of
    its intersection graph, so every element is reached from some a by
    merging blocks that share a vertex.  One ``seen`` serves every cycle
    partition, so each element's merges are made once.  Refuses as soon as
    the set passes SEMILATTICE_CAP.

    That bond lattice has at least 2^(k - c) elements, where G_a has k
    vertices and c components: each subset of a spanning forest's edges
    spans a different connected partition.  So a cycle partition with
    2^(k - c) > SEMILATTICE_CAP is refused before it is coarsened, and a
    long chain of cycles costs no pass over its pairs of blocks.
    """
    seen = {}
    for a in minimal:
        # c >= 1, so a partition of few cycles needs no count; G_a's
        # components are the classes of the cycles' vertex sets
        if 1 << (len(a) - 1) > SEMILATTICE_CAP and (
            1 << (len(a) - len(components(bits(v) for _, v in a))) > SEMILATTICE_CAP
        ):
            raise CapExceededError(f"semilattice has more than {SEMILATTICE_CAP} elements")
        add_coarsenings(seen, [arcs for arcs, _ in a], [v for _, v in a], SEMILATTICE_CAP)
    return list(seen)


def eulerian_parts(d):
    """The partitions of d's arc set into connected Eulerian parts, each
    once, as ``SetPartition``s, generated upward from d's cycle
    partitions."""
    return [SetPartition(map(bits, b)) for b in _element_masks(cycle_partition_masks(d))]


def _cycle_partitions_of_eulerian(d):
    if not is_eulerian(d):
        raise NotEulerianError("the Eulerian-part semilattice needs an Eulerian digraph")
    # each cycle partition is an element, so the element cap bounds them too
    return cycle_partition_masks(d, SEMILATTICE_CAP)


def build_eulerian_semilattice(d):
    """The semilattice of an Eulerian digraph, its elements, their
    ``SetPartition``s and order from ``poset.coarsening_order``."""
    minimal = _cycle_partitions_of_eulerian(d)
    masks, elements, down = coarsening_order(_element_masks(minimal))
    counts = {arcs: 1 for a in minimal for arcs, _ in a}  # a cycle has one circuit
    products = [_signed_mask_product(d.arcs, b, counts) for b in masks]
    index = {b: i for i, b in enumerate(masks)}
    cycles = [elements[index[frozenset(arcs for arcs, _ in a)]] for a in minimal]
    return EulerianSemilattice(cycles, elements, products, down)


def semilattice_partition_counts(d):
    """f_k for k = 1..max: partitions into k circuits assembling into an
    Eulerian circuit, (-1)^k times the signed circuit products of the
    partitions into k Eulerian parts, summed.  Builds no order and no
    ``SetPartition``."""
    minimal = _cycle_partitions_of_eulerian(d)
    elements = _element_masks(minimal)
    out = [0] * max(len(b) for b in elements)
    counts = {arcs: 1 for a in minimal for arcs, _ in a}  # a cycle has one circuit
    for b in elements:
        out[len(b) - 1] += (-1) ** len(b) * _signed_mask_product(d.arcs, b, counts)
    return tuple(out)


def _intersection_masks(minimal):
    """The neighbour masks of G_a for each cycle partition a in ``minimal``,
    as ``cycle_partition_masks`` lists them: one tuple per partition, bit j of
    entry i set when cycles i and j share a vertex."""
    out = []
    for a in minimal:
        adj = [0] * len(a)
        for i, (_, v) in enumerate(a):
            for j in range(i):
                if v & a[j][1]:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        out.append(tuple(adj))
    return out


def circuit_partition_counts(d):
    """f_k for k = 1..max, by the paper's chromatic corollary
    r(t) = sum over the cycle partitions a of (-1)^|a| chi(G_a; -t).

    G_a has one vertex per cycle of a, two of them adjacent when the
    cycles' vertex masks meet.  The signed sum W(x) of the chi(G_a; x) is
    summed in the falling-factorial basis of ``bonds.chromatic_polynomial``'s
    counts and expanded once, and r(t) = W(-t).  Each distinct neighbour-mask
    tuple is weighed once per call, times the number of cycle partitions
    that give it.  Refuses as the listing does, and past CHROMATIC_TERM_CAP
    terms of the counts in all.
    """
    graphs = Counter(_intersection_masks(_cycle_partitions_of_eulerian(d)))
    w = [0] * (max(map(len, graphs)) + 1)
    budget = bonds.CHROMATIC_TERM_CAP
    for adj, count in graphs.items():
        c, terms = bonds._independent_partition_counts(adj, budget)
        budget -= terms
        sign = (-1) ** len(adj) * count
        for j, cj in enumerate(c):
            w[j] += sign * cj
    r = bonds.falling_factorial_expansion(w)
    r[1::2] = [-x for x in r[1::2]]  # r(t) = W(-t)
    return tuple(r[1:])


@dataclass(frozen=True)
class MartinPolynomials:
    """r is the circuit-partition polynomial, s its Martin transform."""

    f: tuple
    r: IntPoly
    s: IntPoly


def martin_polynomial(d, f=None):
    """Both generating polynomials of the circuit-partition counts f, by
    default ``circuit_partition_counts(d)``.

    r(t) = sum f_k t^k;  s(t) = sum f_k (t-1)^(k-1), expanded in the
    monomial basis by a Taylor shift of sum f_k u^(k-1) to u = t - 1, in
    subtractions only.
    """
    if f is None:
        f = circuit_partition_counts(d)
    s = list(f)
    for i in range(len(s) - 1):
        for j in range(len(s) - 2, i - 1, -1):
            s[j] -= s[j + 1]
    return MartinPolynomials(f, IntPoly([0, *f]), IntPoly(s))


@dataclass(frozen=True)
class CancellationReport:
    f: tuple
    alternating_sum: int
    is_single_cycle: bool
    holds: bool


def verify_cancellation(d, f=None):
    """Alternating sum of the f_k (by default ``circuit_partition_counts(d)``):
    zero unless the digraph is one directed cycle, whose sum is -1."""
    if f is None:
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
    s: IntPoly  # from the semilattice
    chi_by_partition: tuple  # (SetPartition, IntPoly) pairs
    lhs: IntPoly  # s(1 - t)
    rhs: IntPoly  # minus the signed sum of bond-lattice characteristic polys
    holds: bool
    r_identity_holds: bool  # the chromatic route's f equals the semilattice's


def martin_chromatic_identity(d):
    """The semilattice's s(1 - t) against minus the signed sum of the
    characteristic polynomials of the cycle partitions' bond lattices, with
    one ``BondLattice`` per distinct intersection graph G_a (all of them are
    K_k on k parallel 2-cycles); and its r(-t) against
    sum_a (-1)^|a| chi(G_a; t), which is ``circuit_partition_counts``."""
    polys = martin_polynomial(d, semilattice_partition_counts(d))
    minimal = _cycle_partitions_of_eulerian(d)
    rhs = IntPoly.zero()
    chi_list = []
    weighed = {}
    for a, adj in zip(minimal, _intersection_masks(minimal)):
        cycles = SetPartition([bits(arcs) for arcs, _ in a])
        if adj not in weighed:
            graph = intersection_graph(d, cycles)
            weighed[adj] = BondLattice(graph).characteristic_polynomial()
        chi = weighed[adj]
        chi_list.append((cycles, chi))
        rhs = rhs - (-1) ** len(a) * chi
    lhs = polys.s.compose(1 - IntPoly.t())
    return IdentityReport(
        s=polys.s,
        chi_by_partition=tuple(chi_list),
        lhs=lhs,
        rhs=rhs,
        holds=lhs == rhs,
        r_identity_holds=circuit_partition_counts(d) == polys.f,
    )


@dataclass(frozen=True)
class DivisibilityReport:
    s: IntPoly
    divisor: IntPoly
    quotient: IntPoly | None
    divisible: bool


def martin_divisibility(d, f=None):
    """The Martin polynomial of the counts f (by default
    ``circuit_partition_counts(d)``) is divisible by
    prod_{i=2..max outdeg} (t + max - i)."""
    delta = max(d.out_degree(v) for v in range(d.n))
    if delta < 2:
        raise ValueError("divisibility statement needs maximum out-degree >= 2")
    divisor = IntPoly.one()
    t = IntPoly.t()
    for i in range(2, delta + 1):
        divisor = divisor * (t + (delta - i))
    polys = martin_polynomial(d, f)
    quotient, remainder = divmod(polys.s, divisor)
    ok = remainder.is_zero()
    return DivisibilityReport(polys.s, divisor, quotient if ok else None, ok)
