"""The circuit-partition counts f_k and the Martin polynomials of an
Eulerian digraph, by two routes, and the join-semilattice T(D) of partitions
of its arc set into Eulerian parts.

Two routes give f_k, and they share only the cycle-partition listing:
- ``circuit_partition_counts``, the default, reads the paper's chromatic
  corollary r(t) = sum over the cycle partitions a of (-1)^|a| chi(G_a; -t)
  from the cycle partitions' intersection graphs, with no element of T(D)
  above them and no circuit count.  ``martin_polynomial``,
  ``martin_divisibility``, ``verify_cancellation`` and the CLI's ``martin``
  and ``cancellation`` read it.
- ``semilattice_partition_counts`` sums the signed circuit products over
  T(D).  The verify checks on T(D) read it by name (``cancellation``,
  ``martin-evaluations``, ``counts-vs-direct-enumeration``,
  ``orientation-circuit-partitions``, ``weight-via-cancellation``), passing
  its f to the readers above, and so does ``martin_chromatic_identity``,
  which the CLI's ``identity`` serves; ``martin-chromatic-identity`` also
  holds the default route's f against it.

The element set of T(D) is generated from the cycle partitions upward
(each up-set is a copy of the bond lattice of the corresponding
intersection graph), never by filtering all Bell(m) set partitions.  The
semilattice's f_k reads only that element set; the refinement
order, built only by ``build_eulerian_semilattice`` for the down-set sums
and the Möbius inversion, is read from the covers that the generator's
merges make.

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
``build_eulerian_semilattice`` turn elements into ``SetPartition``s, each
distinct element once.

Every element above a cycle partition coarsens it, so most blocks recur
across elements; one dict per call maps each block mask to its circuit
count, and the BEST kernel runs once per distinct block of the call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from eulerpart.bonds import BondLattice, chromatic_polynomial
from eulerpart.errors import CapExceededError, NotEulerianError
from eulerpart.graphs import is_eulerian
from eulerpart.partition import SetPartition
from eulerpart.poly import IntPoly
from eulerpart.poset import FinitePoset, add_coarsenings, bits, coarsening_order, mask_sum
from eulerpart.trails import (
    _best_from_arcs,
    count_eulerian_circuits,
    cycle_partition_masks,
    cycle_partitions,
    intersection_graph,
)

SEMILATTICE_CAP = 1 << 15
CHROMATIC_TERM_CAP = 1 << 19  # counts written per call of the chromatic route


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
    refinement, with each element's signed circuit product and the running
    down-set sums of those products."""

    def __init__(self, digraph, minimal, products, down):
        super().__init__(products, down)
        self.digraph = digraph
        self.minimal = minimal  # the cycle partitions, canonical order
        self.products = products
        assert all(products.values())
        self._values = list(products.values())  # indexed like self.elements
        self._sums = {}

    def signed_product(self, b):
        return self.products[b]

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
    """
    seen = {}
    for a in minimal:
        add_coarsenings(seen, [arcs for arcs, _ in a], [verts for _, verts in a], SEMILATTICE_CAP)
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
    """The semilattice of an Eulerian digraph, refinement order included.

    Each cover merges two blocks that share a vertex, so the order is read
    from those merges, with no comparison.
    """
    minimal = _cycle_partitions_of_eulerian(d)
    ends = [1 << u | 1 << v for u, v in d.arcs]
    elements, down = coarsening_order(_element_masks(minimal), ends)
    counts = {}
    products = {
        SetPartition(map(bits, b)): _signed_mask_product(d.arcs, b, counts) for b in elements
    }
    cycles = [SetPartition([bits(arcs) for arcs, _ in a]) for a in minimal]
    return EulerianSemilattice(d, cycles, products, down)


def semilattice_partition_counts(d):
    """f_k for k = 1..max: partitions into k circuits assembling into an
    Eulerian circuit, (-1)^k times the signed circuit products of the
    partitions into k Eulerian parts, summed.  Builds no order and no
    ``SetPartition``."""
    elements = _element_masks(_cycle_partitions_of_eulerian(d))
    out = [0] * max(len(b) for b in elements)
    counts = {}
    for b in elements:
        out[len(b) - 1] += (-1) ** len(b) * _signed_mask_product(d.arcs, b, counts)
    return tuple(out)


def _independent_partition_counts(adj, budget):
    """c_0..c_k for the graph on vertices 0..k-1 with neighbour masks
    ``adj``: c_j counts the partitions of its vertices into j independent
    sets, so its chromatic polynomial is sum_j c_j x(x-1)...(x-j+1).

    The counts of a vertex set s come from a smaller set, and are memoised
    on s's vertex mask.  A vertex whose d neighbours in s are pairwise
    adjacent is taken out first, with no branching: chi(G[s]) =
    chi(G[s - v]) (x - d), and x(x-1)...(x-j+1) (x - d) is
    x(x-1)...(x-j) + (j - d) x(x-1)...(x-j+1), so c_j of s - v adds to
    c_{j+1} and (j - d) c_j to c_j.  So a chordal graph (a path, a star, a
    clique) is counted with no branching.  When no such vertex is left, the
    partitions are counted by the independent set I that holds the lowest
    vertex, each followed by the partitions of the rest minus I.

    The work is capped by terms: a vertex taken out of s, or an
    independent set listed with s left, costs the |s| + 1 counts of s, so
    both the work and the counts the memo holds grow with the terms spent,
    and a budget bounds time and memory alike.  Returns the counts with the
    terms spent; past the budget it refuses with CapExceededError.
    """
    memo = {0: [1]}
    terms = 0

    def refuse():
        raise CapExceededError(f"chromatic route capped at {CHROMATIC_TERM_CAP} terms")

    def simplicial(s):
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

    def counts(s):
        nonlocal terms
        taken = []  # (a set, the degree in it of the vertex taken out)
        while s not in memo:
            found = simplicial(s)
            if found is None:
                memo[s] = branch(s)
                break
            terms += s.bit_count() + 1
            if terms > budget:
                refuse()
            taken.append((s, found[1]))
            s ^= found[0]
        total = memo[s]
        for s, d in reversed(taken):
            lifted = [0] * (len(total) + 1)
            for j, c in enumerate(total):
                lifted[j] += (j - d) * c
                lifted[j + 1] += c
            total = memo[s] = lifted
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
                refuse()
            for j, c in enumerate(counts(left), start=1):
                total[j] += c
            while free:
                b = free & -free
                free ^= b
                stack.append((left ^ b, free & ~adj[b.bit_length() - 1]))
        return total

    return counts((1 << len(adj)) - 1), terms


def circuit_partition_counts(d):
    """f_k for k = 1..max, by the paper's chromatic corollary
    r(t) = sum over the cycle partitions a of (-1)^|a| chi(G_a; -t).

    G_a has one vertex per cycle of a, two of them adjacent when the
    cycles' vertex masks meet.  With chi(G; x) = sum_j c_j x(x-1)...(x-j+1)
    (``_independent_partition_counts``), chi(G; -t) = sum_j (-1)^j c_j
    t(t+1)...(t+j-1), summed over the graphs in that basis and expanded
    once, by Horner's rule.  Each distinct neighbour-mask tuple is weighed
    once per call, times the number of cycle partitions that give it.  No
    element of T(D) above the cycle partitions is built, and no circuit is
    counted.  Refuses as the listing does, and past CHROMATIC_TERM_CAP
    terms of the counts in all.
    """
    graphs = Counter()
    for a in _cycle_partitions_of_eulerian(d):
        adj = [0] * len(a)
        for i, (_, v) in enumerate(a):
            for j in range(i):
                if v & a[j][1]:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        graphs[tuple(adj)] += 1
    top = max(map(len, graphs))
    w = [0] * (top + 1)  # r(t) = sum_j w_j t(t+1)...(t+j-1)
    budget = CHROMATIC_TERM_CAP
    for adj, count in graphs.items():
        c, terms = _independent_partition_counts(adj, budget)
        budget -= terms
        for j, cj in enumerate(c):
            w[j] += (-1) ** (len(adj) + j) * count * cj
    # Horner's rule in that basis: r = w_0 + t (w_1 + (t+1) (w_2 + ...))
    r = [w[top]]
    for j in range(top - 1, -1, -1):
        r = [j * r[0] + w[j]] + [j * r[i] + r[i - 1] for i in range(1, len(r))] + [r[-1]]
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
    f: tuple  # from the semilattice
    s: IntPoly
    chi_by_partition: tuple  # (SetPartition, IntPoly) pairs
    lhs: IntPoly  # s(1 - t)
    rhs: IntPoly  # minus the signed sum of bond-lattice characteristic polys
    holds: bool
    r_identity_holds: bool


def martin_chromatic_identity(d):
    """Exact check that the Martin polynomial at 1-t equals minus the signed
    sum of characteristic polynomials of the cycle partitions' bond lattices,
    plus the companion identity for r at -t via chromatic polynomials.
    The Martin polynomials are read from the semilattice, so the identity
    compares T(D) with the bond lattices and chromatic polynomials of the
    cycle partitions' intersection graphs."""
    polys = martin_polynomial(d, semilattice_partition_counts(d))
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
        f=polys.f,
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
