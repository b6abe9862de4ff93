"""The join-semilattice of partitions of an Eulerian digraph's arc set into
Eulerian parts, and the circuit-partition / Martin polynomial machinery
built on it.

The element set is generated from the cycle partitions upward (each up-set
is a copy of the bond lattice of the corresponding intersection graph),
never by filtering all Bell(m) set partitions.  The circuit-partition counts,
and so the Martin polynomials, read only that element set; the refinement
order is built only by ``build_eulerian_semilattice``, for the down-set
sums and the Möbius inversion.

Most blocks recur across many elements, since every element above a cycle
partition coarsens it; so each call that reads many products counts each
distinct block's Eulerian circuits once, in a dict local to that call.
"""

from __future__ import annotations

from dataclasses import dataclass

from eulerpart.bonds import BondLattice, connected_partitions
from eulerpart.errors import CapExceededError, NotEulerianError
from eulerpart.graphs import is_eulerian
from eulerpart.partition import SetPartition
from eulerpart.poly import IntPoly
from eulerpart.poset import FinitePoset, refinement_order
from eulerpart.trails import (
    count_eulerian_circuits,
    cycle_partitions,
    intersection_graph,
)

SEMILATTICE_CAP = 1 << 15


def signed_circuit_product(d, b, _counts=None):
    """Product over blocks of minus the block's circuit count.

    Zero exactly when some block fails to induce a connected Eulerian
    sub-digraph; (-1)^{#blocks} times a positive integer otherwise.
    ``_counts`` maps blocks to circuit counts already made for d; a caller
    that reads many products of one digraph passes the same dict to each.
    """
    if b.ground != frozenset(d.edges()):
        raise ValueError("partition must cover exactly the edge set")
    if _counts is None:
        _counts = {}
    value = 1
    for block in b.blocks:
        count = _counts.get(block)
        if count is None:
            count = _counts[block] = count_eulerian_circuits(d.restrict(block))
        value *= -count
        if value == 0:
            return 0
    return value


class EulerianSemilattice(FinitePoset):
    """All partitions of an arc set into connected Eulerian parts, under
    refinement, with each element's signed circuit product and the running
    down-set sums of those products."""

    def __init__(self, digraph, minimal, parts):
        order = refinement_order(parts)
        super().__init__(order.elements, order.down)
        self.digraph = digraph
        self.minimal = minimal  # the cycle partitions, canonical order
        counts = {}
        self.products = {
            b: signed_circuit_product(digraph, b, _counts=counts) for b in self.elements
        }
        assert all(self.products.values())
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


def eulerian_parts(d, minimal):
    """The partitions of d's arc set into connected Eulerian parts, each once.

    Every such partition lies above some cycle partition a in ``minimal``,
    and the up-set of a is isomorphic to the bond lattice of the
    intersection graph of a; so the set is the union over a of coarsenings
    of a along connected piece partitions.  Refuses as soon as the set
    passes SEMILATTICE_CAP.
    """
    seen = {}
    for a in minimal:
        blocks = a.blocks
        for piece_partition in connected_partitions(intersection_graph(d, a)):
            merged = SetPartition(
                [frozenset().union(*(blocks[i] for i in group)) for group in piece_partition]
            )
            if merged not in seen:
                seen[merged] = None
                if len(seen) > SEMILATTICE_CAP:
                    raise CapExceededError(
                        f"semilattice has more than {SEMILATTICE_CAP} elements"
                    )
    return list(seen)


def _cycle_partitions_of_eulerian(d):
    if not is_eulerian(d):
        raise NotEulerianError("the Eulerian-part semilattice needs an Eulerian digraph")
    return cycle_partitions(d)


def build_eulerian_semilattice(d):
    """The semilattice of an Eulerian digraph, refinement order included."""
    minimal = _cycle_partitions_of_eulerian(d)
    return EulerianSemilattice(d, minimal, eulerian_parts(d, minimal))


def circuit_partition_counts(d):
    """f_k for k = 1..max: partitions into k circuits assembling into an
    Eulerian circuit, (-1)^k times the signed circuit products of the
    partitions into k Eulerian parts, summed.  Builds no order."""
    parts = eulerian_parts(d, _cycle_partitions_of_eulerian(d))
    out = [0] * max(len(b) for b in parts)
    counts = {}
    for b in parts:
        out[len(b) - 1] += (-1) ** len(b) * signed_circuit_product(d, b, _counts=counts)
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
    for a in cycle_partitions(d):
        graph = intersection_graph(d, a)
        chi = BondLattice(graph).characteristic_polynomial()
        chi_list.append((a, chi))
        sign = (-1) ** len(a)
        rhs = rhs - sign * chi
        r_rhs = r_rhs + sign * chromatic_polynomial(graph)
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
