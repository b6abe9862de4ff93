"""Finite posets with explicit element lists: Möbius functions, ranks.

The order relation is materialised as per-element bitmasks, which keeps
down-set scans cheap for the lattice sizes this package works at (tens of
thousands of elements at most).  The covers and maximal-element routines read
such masks whether they are kept by position or by value, so heaps of pieces
share them.
"""

from __future__ import annotations

import math

from eulerpart.errors import CapExceededError
from eulerpart.partition import SetPartition, all_set_partitions
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
        self._mu = {}
        self._covers = None
        self._ranks = None

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
        """Standard Möbius recursion over the interval [a, b]; cached."""
        i, j = self.index[a], self.index[b]
        if not self.down[j] >> i & 1:
            return 0
        return self._mobius_idx(i, j)

    def _mobius_idx(self, i, j):
        key = (i, j)
        cached = self._mu.get(key)
        if cached is not None:
            return cached
        if i == j:
            value = 1
        else:
            interval = self.down[j] & ~(1 << j)
            value = 0
            for k in bits(interval):
                if self.down[k] >> i & 1:
                    value -= self._mobius_idx(i, k)
        self._mu[key] = value
        return value

    def rank_function(self):
        """Ranks from the unique bottom; raises if the poset is not ranked."""
        if self._ranks is None:
            bottom = self.bottom()
            ranks = {bottom: 0}
            order = sorted(range(len(self.elements)), key=lambda j: bin(self.down[j]).count("1"))
            cover_up = {}
            for x, y in self.covers():
                cover_up.setdefault(y, []).append(x)
            for j in order:
                y = self.elements[j]
                if y == bottom:
                    continue
                below = cover_up.get(y, [])
                if not below:
                    raise ValueError("element unreachable from the bottom; poset not ranked")
                candidates = {ranks[x] + 1 for x in below if x in ranks}
                if len(candidates) != 1:
                    raise ValueError("poset is not ranked")
                ranks[y] = candidates.pop()
            self._ranks = ranks
        return self._ranks

    def rank(self, x=None):
        ranks = self.rank_function()
        if x is None:
            return max(ranks.values())
        return ranks[x]

    def characteristic_polynomial(self):
        """sum_x mu(0, x) t^(rk(poset) - rk(x)); needs bottom and a rank function."""
        ranks = self.rank_function()
        total = self.rank()
        bottom = self.bottom()
        coeffs = [0] * (total + 1)
        for x in self.elements:
            coeffs[total - ranks[x]] += self.mobius(bottom, x)
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


def refinement_order(partitions):
    """Set partitions under refinement, finest first: more blocks, then the
    sorted blocks, so that the element order does not depend on the input's."""
    elements = sorted(
        partitions, key=lambda p: (-len(p), tuple(tuple(sorted(b)) for b in p.blocks))
    )
    return FinitePoset.from_leq(elements, SetPartition.refines)


def add_coarsenings(seen, payloads, touches, cap):
    """Add to ``seen`` each coarsening of the blocks 0..k-1 along a connected
    piece partition, as a frozenset of merged payload masks (the OR of its
    pieces'); blocks i and j are adjacent when their touch masks meet.
    Refuses as soon as ``seen`` passes cap.  The recursion pivots on the
    least unplaced block and tries every piece mask holding it, largest
    first; whether a piece is connected is found once per piece mask.
    """
    neighbours = [
        sum(1 << j for j, other in enumerate(touches) if j != i and other & mine)
        for i, mine in enumerate(touches)
    ]
    block_of = {}  # piece mask -> its merged payload, 0 when disconnected
    blocks = []

    def block(piece):
        reached = frontier = piece & -piece
        merged = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            i = low.bit_length() - 1
            merged |= payloads[i]
            new = neighbours[i] & piece & ~reached
            reached |= new
            frontier |= new
        return merged if reached == piece else 0

    def rec(remaining):
        if not remaining:
            element = frozenset(blocks)
            if element not in seen:
                seen[element] = None
                if len(seen) > cap:
                    raise CapExceededError(f"semilattice has more than {cap} elements")
            return
        pivot = remaining & -remaining
        rest = remaining ^ pivot
        sub = rest
        while True:
            piece = pivot | sub
            merged = block_of.get(piece)
            if merged is None:
                merged = block_of[piece] = block(piece)
            if merged:
                blocks.append(merged)
                rec(remaining ^ piece)
                blocks.pop()
            if not sub:
                return
            sub = (sub - 1) & rest

    rec((1 << len(payloads)) - 1)


def coarsening_order(elements, touches):
    """Elements of payload masks, sorted as ``refinement_order`` sorts, and
    their down masks; a payload touches the OR of ``touches`` over its bits.
    The elements above x are the connected coarsenings of x's blocks, so x
    sets its bit in the down mask of each, and no two are compared."""
    elements = sorted(elements, key=lambda x: (-len(x), sorted(tuple(bits(b)) for b in x)))
    index = {x: i for i, x in enumerate(elements)}
    down = [0] * len(elements)
    for i, x in enumerate(elements):
        up = {}
        add_coarsenings(up, list(x), [mask_union(touches, b) for b in x], math.inf)
        for y in up:
            down[index[y]] |= 1 << i
    return elements, down


def mask_union(masks, mask):
    """The OR of masks[i] over the set bits i of mask."""
    out = 0
    for i in bits(mask):
        out |= masks[i]
    return out


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
