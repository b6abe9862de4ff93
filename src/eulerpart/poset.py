"""Finite posets with explicit element lists: Möbius functions, ranks.

The order relation is materialised as per-element bitmasks, which keeps
down-set scans cheap for the lattice sizes this package works at (tens of
thousands of elements at most).  The covers and maximal-element routines read
such masks whether they are kept by position or by value, so heaps of pieces
share them.  Möbius values come in rows mu(a, .), each made in one sweep up
the elements by down-set size, summing over down masks with ``mask_sum``.  A
poset with a bottom here is one of set partitions whose covers merge two
blocks, so its ranks are read from block counts.

Both lattices of the package, the Eulerian-part semilattice and the bond
lattice, are the closure of their minimal elements under one step: merge two
blocks that touch.  ``add_coarsenings`` generates the elements with it, the
one place that reads which blocks touch; the covers are the merges of two
blocks that are elements, so ``coarsening_order`` needs the elements alone.
The tests hold the order that compares every two partitions
(``tests/oracles.py``) as its reference.
"""

from __future__ import annotations

from itertools import combinations

from eulerpart.errors import CapExceededError
from eulerpart.partition import SetPartition
from eulerpart.poly import IntPoly


class FinitePoset:
    """A finite poset over arbitrary hashable elements.

    ``down[i]`` is the bitmask of indices j with element_j <= element_i,
    including i itself.
    """

    def __init__(self, elements, down):
        self.elements = tuple(elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("poset elements must be distinct")
        self.down = list(down)
        self._mu = {}  # index of a -> the row mu(a, .)
        self._sweep = None
        self._covers = None

    @classmethod
    def from_leq(cls, elements, leq):
        """Build from a comparison callable; O(n^2) calls."""
        elements = tuple(elements)
        down = []
        for i, x in enumerate(elements):
            mask = 0
            for j, y in enumerate(elements):
                if leq(y, x):
                    mask |= 1 << j
            if not mask >> i & 1:
                raise ValueError("leq must be reflexive")
            down.append(mask)
        return cls(elements, down)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.index

    def leq(self, a, b):
        return self.down[self.index[b]] >> self.index[a] & 1

    def down_set(self, b):
        """Elements <= b, in index order."""
        mask = self.down[self.index[b]]
        return [self.elements[j] for j in bits(mask)]

    def up_set(self, a):
        i = self.index[a]
        return [self.elements[j] for j in range(len(self.elements)) if self.down[j] >> i & 1]

    def minimal_elements(self):
        return [x for i, x in enumerate(self.elements) if self.down[i] == 1 << i]

    def maximal_elements(self):
        return [self.elements[i] for i in maximal_keys(self.down, range(len(self.elements)))]

    def bottom(self):
        mins = self.minimal_elements()
        if len(mins) != 1:
            raise ValueError("poset has no unique minimal element")
        return mins[0]

    def top(self):
        maxs = self.maximal_elements()
        if len(maxs) != 1:
            raise ValueError("poset has no unique maximal element")
        return maxs[0]

    def covers(self):
        """List of (x, y) with y covering x."""
        if self._covers is None:
            el = self.elements
            self._covers = [(el[i], el[j]) for i, j in cover_pairs(self.down, range(len(el)))]
        return self._covers

    def mobius(self, a, b):
        """mu(a, b), read from the row mu(a, .)."""
        return self._mobius_row(self.index[a])[self.index[b]]

    def _mobius_row(self, i):
        """mu(element i, x) for every x, by index; made on first use, in one
        pass up the elements by down-set size.  An entry is minus the sum of
        the entries of x's strict down-set, and 0 unless i lies below x."""
        row = self._mu.get(i)
        if row is None:
            down = self.down
            if self._sweep is None:
                self._sweep = sorted(range(len(down)), key=lambda x: down[x].bit_count())
            row = self._mu[i] = [0] * len(down)
            row[i] = 1
            for x in self._sweep:
                if x != i and down[x] >> i & 1:
                    row[x] = -mask_sum(row, down[x] ^ 1 << x)
        return row

    def rank_function(self):
        """Ranks as block counts below the bottom's: every poset here with a
        bottom is one of set partitions whose covers merge two blocks."""
        blocks = len(self.bottom())
        return {x: blocks - len(x) for x in self.elements}

    def rank(self, x=None):
        ranks = self.rank_function()
        return max(ranks.values()) if x is None else ranks[x]

    def characteristic_polynomial(self):
        """sum_x mu(0, x) t^(rk(poset) - rk(x)): with ranks by block count,
        x's exponent is its block count minus the least one."""
        bottom = self.bottom()
        least = min(map(len, self.elements))
        coeffs = [0] * (len(bottom) - least + 1)
        for x, mu in zip(self.elements, self._mobius_row(self.index[bottom])):
            coeffs[len(x) - least] += mu
        return IntPoly(coeffs)


def bits(mask):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# The two routines below read an order stored as down-set masks: down[k] is
# the mask of the keys <= k, k's own bit included.  A FinitePoset keys them
# by position (a list), a Heap by element value (a dict).


def maximal_keys(down, keys):
    """The keys that lie strictly below no key, in the order given."""
    below = 0
    for k in keys:
        below |= down[k] & ~(1 << k)
    return [k for k in keys if not below >> k & 1]


def cover_pairs(down, keys):
    """Pairs (i, k) with k covering i: k in the order given, then i ascending.

    i < k is a cover iff i lies strictly below no j < k, so the covers of k
    are its strict down-set minus the strict down-sets of everything in it.
    """
    strict = {k: down[k] & ~(1 << k) for k in keys}
    out = []
    for k in keys:
        reach = 0
        for j in bits(strict[k]):
            reach |= strict[j]
        out.extend((i, k) for i in bits(strict[k] & ~reach))
    return out


def add_coarsenings(seen, payloads, touches, cap):
    """Add to ``seen`` the element ``frozenset(payloads)`` and every element
    above it, each a frozenset of payload masks: one step merges two blocks
    whose touch masks meet (no other routine reads them), ORing payloads and
    touches.  An element already in ``seen`` had its merges made when it was
    added, so a start found there adds nothing.  Refuses past cap elements.
    """
    start = frozenset(payloads)
    if start in seen:
        return
    seen[start] = None
    stack = [(tuple(payloads), tuple(touches))]
    while stack:
        blocks, touch = stack.pop()
        for i, j in _touching_pairs(touch):
            merged = blocks[:i] + blocks[i + 1 : j] + blocks[j + 1 :] + (blocks[i] | blocks[j],)
            element = frozenset(merged)
            if element not in seen:
                seen[element] = None
                if len(seen) > cap:
                    raise CapExceededError(f"semilattice has more than {cap} elements")
                rest = touch[:i] + touch[i + 1 : j] + touch[j + 1 :]
                stack.append((merged, rest + (touch[i] | touch[j],)))


def _touching_pairs(touch):
    """The pairs i < j of blocks whose touch masks meet."""
    for j in range(1, len(touch)):
        for i in range(j):
            if touch[i] & touch[j]:
                yield i, j


def coarsening_order(elements):
    """Elements of payload masks, sorted finest first (more blocks, then the
    sorted blocks, as the tests' pairwise refinement order sorts), their
    ``SetPartition``s, made from the sort key's one read of each block's bits,
    and their down masks, read from the elements alone.

    Blocks are connected (in T(D) Eulerian too) and two that touch merge into
    a block, so a cover merges exactly two blocks (three with a connected
    union contain two that touch), and a merge of two blocks is a cover
    exactly when it is an element.  The sort puts everything below an element
    before it, so each down mask is complete when reached and is pushed into
    the elements its merges reach; no two elements are compared.

    >>> path = [{0b111}, {0b011, 0b100}, {0b001, 0b110}, {0b001, 0b010, 0b100}]
    >>> elements, partitions, down = coarsening_order(map(frozenset, path))
    >>> for p, mask in zip(partitions, down):  # the path 0 - 1 - 2
    ...     print(p, bin(mask))
    SetPartition({0} | {1} | {2}) 0b1
    SetPartition({0} | {1,2}) 0b11
    SetPartition({0,1} | {2}) 0b101
    SetPartition({0,1,2}) 0b1111
    """
    keys = {x: (-len(x), sorted(tuple(bits(b)) for b in x)) for x in elements}
    elements = sorted(keys, key=keys.__getitem__)
    index = {x: i for i, x in enumerate(elements)}
    down = [0] * len(elements)
    for i, x in enumerate(elements):
        down[i] |= 1 << i
        for p, q in combinations(x, 2):
            above = index.get(x - {p, q} | {p | q})
            if above is not None:
                down[above] |= down[i]
    return elements, [SetPartition(keys[x][1]) for x in elements], down


def mask_sum(values, mask):
    """The sum of values[i] over the set bits i of mask, found in its binary
    string (index j is bit ``last - j``): a step of ``bits`` costs the
    mask's width, which is the poset's."""
    digits = bin(mask)
    last = len(digits) - 1
    total = 0
    at = digits.find("1", 2)
    while at >= 0:
        total += values[last - at]
        at = digits.find("1", at + 1)
    return total
