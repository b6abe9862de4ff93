"""The tests' reference routines, and the small builders only the tests
call.  Each reference computes what a library routine computes by a
plainer, slower road; nothing in the library, ``scripts/`` or
``perfbench/`` reads them, so they live with the tests.  The library's
private helpers they read each keep a reader in the library.

- ``spanning_trees`` and ``_is_forest``, with ``bonds.broken_circuits``,
  filter the edge subsets that the NBC search (``bonds._nbc_forests``)
  reaches directly.  ``nbc_sets`` and ``nbc_sets_by_element`` give the
  search's sets in the filter's order and grouped by the element they span,
  which ``edge_set_join`` computes from scratch.
  ``_tree_contains_broken_circuit`` is the base test of
  ``bonds._check_nbc_base`` on its own, and ``unique_sink_orientations``
  one sink's group of ``bonds._unique_sink_groups``.
- ``refinement_order`` compares every two set partitions, where
  ``poset.coarsening_order`` reads the order from merges;
  ``partition_lattice`` and ``subposet`` build posets with it.
- ``directed_cycles_through`` walks arc-id sets, and lists the cycles that
  ``trails.cycle_partition_masks`` finds on masks, in the same order.
- ``weight_via_all_decompositions`` sums over every labelled decomposition,
  where ``veblen.weight`` sums over classes.
- ``relabeled_copy``, ``push_down`` and ``poly_from_roots`` build test
  inputs: a relabelled graph, a heap split at a maximal piece, a
  polynomial from its roots.

``tests/`` is on the import path under pytest's default import mode, so a
test imports them with ``from oracles import ...``.
"""

import math
from fractions import Fraction
from itertools import combinations

from eulerpart.bonds import (
    _base_mask,
    _has_broken_circuit,
    _nbc_forests,
    _rank_table,
    _root_paths,
    _unique_sink_groups,
    require_simple,
)
from eulerpart.graphs import Digraph, Multigraph, parallel_factorial_product
from eulerpart.partition import SetPartition, all_set_partitions, components
from eulerpart.poly import IntPoly
from eulerpart.poset import FinitePoset, bits
from eulerpart.veblen import _shape_coefficient, decompositions


# -- bonds ---------------------------------------------------------------------


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


def _by_size(edge_set):
    return len(edge_set), sorted(edge_set)


def nbc_sets(g, order):
    """All subsets of edges containing no broken circuit, by size and then
    by sorted edge ids.  These are exactly the forests avoiding the broken
    circuits; every other subset contains a full cycle, hence a broken
    circuit."""
    return sorted(_nbc_forests(g, order), key=_by_size)


def edge_set_join(g, edge_subset):
    """The bond-lattice element spanned by an edge subset: components of the
    spanning subgraph, as a vertex partition."""
    singletons = [{v} for v in g.vertices()]
    return SetPartition(components(singletons + [g.pairs[e] for e in edge_subset]))


def nbc_sets_by_element(g, order):
    """Group all NBC sets, in ``nbc_sets`` order, by the lattice element
    they span: the components the search hands over with each set."""
    forests = _nbc_forests(g, order)
    grouped = {}
    for s in sorted(forests, key=_by_size):
        grouped.setdefault(frozenset(forests[s]), []).append(s)
    return {SetPartition(map(bits, blocks)): sets for blocks, sets in grouped.items()}


def unique_sink_orientations(g, x):
    """Acyclic orientations whose only sink is x, in deterministic order."""
    require_simple(g)
    if not (0 <= x < g.n):
        raise ValueError(f"unknown vertex {x}")
    return _unique_sink_groups(g)[0][x]


def _tree_contains_broken_circuit(g, t, order):
    """Whether the spanning tree t contains a broken circuit, in O(m n)
    without enumerating cycles."""
    table = _rank_table(g, order)
    tree = _base_mask(table, t)
    return _has_broken_circuit(table, tree, _root_paths(table, tree, 0))


# -- corpus --------------------------------------------------------------------


def relabeled_copy(g, perm):
    """Apply a vertex permutation; handy for isomorphism self-tests."""
    return (Digraph if g.directed else Multigraph)(g.n, [(perm[u], perm[v]) for u, v in g.ends])


# -- heaps ---------------------------------------------------------------------


def push_down(heap, w):
    """Split off the down-set of a maximal element: (pyramid, remainder).

    Composing the two parts back gives the original heap, and the remainder
    loses exactly w from the maximal set.
    """
    if w not in heap.maximal():
        raise ValueError(f"{w} is not a maximal element")
    down = heap.down_set(w)
    pyramid = heap.restrict(down)
    rest = heap.restrict(set(heap.elements) - down)
    return pyramid, rest


# -- poly ----------------------------------------------------------------------


def poly_from_roots(roots):
    """Monic polynomial prod (t - r) over integer roots."""
    p = IntPoly.one()
    for r in roots:
        p = p * IntPoly((-r, 1))
    return p


# -- poset ---------------------------------------------------------------------


def refinement_order(partitions):
    """Set partitions under refinement, finest first: more blocks, then the
    sorted blocks, so that the element order does not depend on the input's."""
    elements = sorted(
        partitions, key=lambda p: (-len(p), tuple(tuple(sorted(b)) for b in p.blocks))
    )
    return FinitePoset.from_leq(elements, SetPartition.refines)


def partition_lattice(ground):
    """The full partition lattice Pi(ground) as a FinitePoset (refinement order)."""
    return refinement_order(all_set_partitions(ground))


def subposet(poset, elements):
    """Induced sub-poset on a subset of elements (inherits the order)."""
    elements = tuple(elements)
    idx = [poset.index[x] for x in elements]
    down = []
    for j in idx:
        mask = 0
        for pos, i in enumerate(idx):
            if poset.down[j] >> i & 1:
                mask |= 1 << pos
        down.append(mask)
    return FinitePoset(elements, down)


# -- trails --------------------------------------------------------------------


def directed_cycles_through(d, e0, allowed):
    """Simple directed cycles inside ``allowed`` that use arc e0.

    Each cycle is a frozenset of arc ids; a cycle visits no vertex twice.
    """
    allowed = set(allowed)
    if e0 not in allowed:
        return []
    u0, v0 = d.arcs[e0]
    cycles = []
    path = [e0]
    visited = {u0, v0}

    def extend(u):
        if u == u0:
            cycles.append(frozenset(path))
            return
        for e, w in d.out_arcs(u):
            if e not in allowed or e in path:
                continue
            if w != u0 and w in visited:
                continue
            path.append(e)
            if w != u0:
                visited.add(w)
            extend(w)
            if w != u0:
                visited.discard(w)
            path.pop()

    extend(v0)
    return cycles


# -- veblen --------------------------------------------------------------------


def weight_via_all_decompositions(x):
    """Same value from the unquotiented sum: per decomposition, the block
    factorial product over the full factorial product replaces 1/alpha.
    ``decompositions`` refuses an input with an odd degree."""
    cache = {}
    m_x = parallel_factorial_product(x)
    total = Fraction(0)
    for dec in decompositions(x):
        coeff = math.prod(_shape_coefficient(shape, cache) for shape in dec.shapes)
        total += Fraction((-1) ** dec.block_count * dec.factorial_product, m_x) * coeff
    return Fraction((-1) ** len(components(x.pairs))) * total
