"""Set partitions of a finite ground set, ordered by refinement.

Blocks are frozensets; the canonical form sorts blocks by their least
element, which makes equality, hashing and deterministic iteration cheap.
"""

from __future__ import annotations

from itertools import combinations


class SetPartition:
    """An unordered partition of a finite ground set into nonempty blocks.

    >>> a = SetPartition([{1, 2}, {3}])
    >>> b = SetPartition([{1}, {2, 3}])
    >>> a.join(b).blocks
    (frozenset({1, 2, 3}),)
    >>> a.refines(a.join(b))
    True
    """

    __slots__ = ("blocks", "ground")

    def __init__(self, blocks):
        blocks = tuple(sorted((frozenset(b) for b in blocks), key=min))
        ground = set()
        for b in blocks:
            if not b:
                raise ValueError("empty block in a set partition")
            if ground & b:
                raise ValueError("blocks of a set partition must be disjoint")
            ground |= b
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "ground", frozenset(ground))

    def __setattr__(self, name, value):
        raise AttributeError("SetPartition is immutable")

    @staticmethod
    def singletons(ground):
        return SetPartition([{x} for x in ground])

    @staticmethod
    def indiscrete(ground):
        ground = frozenset(ground)
        if not ground:
            raise ValueError("indiscrete partition needs a nonempty ground set")
        return SetPartition([ground])

    def __len__(self):
        """Number of blocks."""
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __eq__(self, other):
        return isinstance(other, SetPartition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        inner = " | ".join(
            "{" + ",".join(map(str, sorted(b))) + "}" for b in self.blocks
        )
        return f"SetPartition({inner})"

    def refines(self, other):
        """True when every block of self is contained in a block of other."""
        if self.ground != other.ground:
            raise ValueError("refinement compares partitions of the same ground set")
        lookup = {}
        for b in other.blocks:
            for x in b:
                lookup[x] = b
        return all(b <= lookup[min(b)] for b in self.blocks)

    def join(self, other):
        """Least common coarsening: the components of both block families."""
        if self.ground != other.ground:
            raise ValueError("join requires partitions of the same ground set")
        return SetPartition(components(self.blocks + other.blocks))

    def meet(self, other):
        """Greatest common refinement: pairwise block intersections."""
        if self.ground != other.ground:
            raise ValueError("meet requires partitions of the same ground set")
        blocks = []
        for a in self.blocks:
            for b in other.blocks:
                c = a & b
                if c:
                    blocks.append(c)
        return SetPartition(blocks)

    def restrict(self, subset):
        subset = frozenset(subset)
        return SetPartition([b & subset for b in self.blocks if b & subset])


def components(groups):
    """The classes of the finest partition that keeps each group inside one
    class, by union-find: the join of the groups in the partition lattice.

    With the edges of a graph as groups (their endpoint pairs) these are
    the connected components of the edge support, so an edge set is
    connected exactly when it yields one class, and it is a forest exactly
    when edges + classes == touched vertices.  Items in no group are left
    out; no groups give no classes.
    """
    parent = {}

    def find(x):
        root = parent.setdefault(x, x)
        while root != x:
            parent[x] = parent[root]
            x, root = root, parent[root]
        return root

    for group in groups:
        root = None
        for x in group:
            r = find(x)
            if root is None:
                root = r
            elif r != root:
                parent[r] = root
    classes = {}
    for x in parent:
        classes.setdefault(find(x), set()).add(x)
    return list(classes.values())


def all_set_partitions(ground):
    """Every set partition of ``ground``; Bell(n) of them, so keep n small.

    Deterministic order: the least element is grouped with each admissible
    block in sorted-subset order.
    """
    ground = sorted(ground)
    if not ground:
        yield SetPartition([])
        return

    def rec(remaining):
        if not remaining:
            yield []
            return
        first, rest = remaining[0], remaining[1:]
        for k in range(len(rest) + 1):
            for extra in combinations(rest, k):
                block = frozenset((first, *extra))
                leftover = [x for x in rest if x not in block]
                for tail in rec(leftover):
                    yield [block] + tail

    for blocks in rec(ground):
        yield SetPartition(blocks)
