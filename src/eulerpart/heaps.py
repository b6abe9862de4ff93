"""Heaps of pieces: labeled posets whose concurrent pieces are comparable.

A piece system is a simple concurrence graph; full pyramids (bijectively
labeled heaps with one maximal element) are enumerated by a split-compose
recursion that peels off the down-set of a fixed neighbour of the apex.
That recursion is also the engine behind the trail <-> pyramid dictionary
for Eulerian digraphs.
"""

from __future__ import annotations

from itertools import combinations

from eulerpart.errors import CapExceededError
from eulerpart.graphs import is_orientation_of
from eulerpart.poset import bits, cover_pairs, maximal_keys
from eulerpart.trails import (
    Trail,
    cycle_partitions,
    cycle_sequence,
    intersection_graph,
    insert_trail,
    edge_partition,
)

# The split-compose recursion tries up to 2^(k-2) splits per level, and K_k
# has (k-1)! pyramids: K9 takes 1.1 s and 82 MB, K10 about ten times that,
# and a path of 20 pieces 2.7 s.  The `pyramids` command, which renders each
# pyramid, took 0.57 s on K8 and 4.6 s on K9, with 36 MB of JSON.  Verify's
# piece systems have at most half as many pieces as the corpus digraphs
# have arcs.
PYRAMID_PIECE_CAP = 8


class PieceSystem:
    """Finite pieces with a reflexive symmetric concurrence relation.

    Stored as a simple graph: vertices are pieces 0..k-1, edges are the
    distinct concurrent pairs.  ``concurrence[a]`` is the mask of the pieces
    concurrent with a, a included.  The pieces of a cycle partition a of an
    Eulerian digraph d are ``PieceSystem(intersection_graph(d, a))``: two
    cycles are concurrent when they share a vertex.
    """

    def __init__(self, graph):
        if not graph.is_simple():
            raise ValueError("a concurrence graph carries no parallel edges")
        self.graph = graph
        self.k = graph.n
        self.concurrence = [m | 1 << a for a, m in enumerate(graph._neighbor_masks)]

    def pieces(self):
        return range(self.k)

    def concurrent(self, a, b):
        return bool(self.concurrence[a] >> b & 1)

    def neighbors(self, a):
        return self.graph.neighbors(a)

    def connected(self, subset=None):
        pieces = self.pieces() if subset is None else subset
        return self.graph.induces_connected(pieces)

    def __repr__(self):
        return f"PieceSystem(k={self.k}, pairs={sorted(self.graph.pairs)})"


class Heap:
    """A finite poset with piece labels, stored by its down-set masks.

    Elements are distinct non-negative ints; ``down[x]`` is the int mask of
    the elements <= x (x's own bit included), keyed by element value.  Labels
    map elements to pieces and default to the identity.
    """

    __slots__ = ("elements", "down", "labels")

    def __init__(self, elements, less_pairs, labels=None):
        elements = tuple(elements)
        if not all(isinstance(x, int) and x >= 0 for x in elements):
            raise ValueError("heap elements must be non-negative ints")
        if len(set(elements)) != len(elements):
            raise ValueError("heap elements must be distinct")
        elements = tuple(sorted(elements))
        labels = dict(labels) if labels is not None else {x: x for x in elements}
        if set(labels) != set(elements):
            raise ValueError("labels must cover exactly the heap elements")
        strict = dict.fromkeys(elements, 0)
        for a, b in less_pairs:
            if a not in strict or b not in strict:
                raise ValueError("order pair outside the element set")
            strict[b] |= 1 << a
        # Warshall with the pivot outermost: one pass closes the relation
        for k in elements:
            bit, below_k = 1 << k, strict[k]
            for y in elements:
                if strict[y] & bit:
                    strict[y] |= below_k
        if any(strict[x] >> x & 1 for x in elements):
            raise ValueError("order relation contains a cycle")
        self._fill({x: strict[x] | 1 << x for x in elements}, labels)

    def _fill(self, down, labels):
        object.__setattr__(self, "elements", tuple(sorted(down)))
        object.__setattr__(self, "down", down)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def _closed(cls, down, labels):
        """A heap from down-set masks that are already transitively closed."""
        heap = object.__new__(cls)
        heap._fill(down, labels)
        return heap

    def __setattr__(self, name, value):
        raise AttributeError("Heap is immutable")

    @staticmethod
    def empty():
        return Heap((), ())

    @staticmethod
    def singleton(x, label=None):
        # one element: nothing to close, nothing to validate beyond the element
        if not (isinstance(x, int) and x >= 0):
            raise ValueError("heap elements must be non-negative ints")
        return Heap._closed({x: 1 << x}, {x: x if label is None else label})

    def __len__(self):
        return len(self.elements)

    def less(self, a, b):
        return a != b and bool(self.down[b] >> a & 1)

    def comparable(self, a, b):
        return bool((self.down[b] >> a | self.down[a] >> b) & 1)

    def down_set(self, x):
        return frozenset(bits(self.down[x]))

    def maximal(self):
        return maximal_keys(self.down, self.elements)

    def is_pyramid(self):
        return len(self.maximal()) == 1

    def apex(self):
        tops = self.maximal()
        if len(tops) != 1:
            raise ValueError("heap has no unique maximal element")
        return tops[0]

    def covers(self):
        """Pairs (x, y) with y covering x, sorted."""
        return sorted(cover_pairs(self.down, self.elements))

    def restrict(self, subset):
        keep = sum(1 << x for x in set(subset))
        down = {x: self.down[x] & keep for x in bits(keep)}
        return Heap._closed(down, {x: self.labels[x] for x in down})

    def canonical_linear_extension(self):
        """Smallest-available-element linear extension; deterministic."""
        taken = 0
        out = []
        remaining = list(self.elements)
        while remaining:
            choice = next(x for x in remaining if (self.down[x] & ~taken) == 1 << x)
            out.append(choice)
            taken |= 1 << choice
            remaining.remove(choice)
        return tuple(out)

    def relation(self):
        return frozenset(
            (x, y) for y in self.elements for x in bits(self.down[y]) if x != y
        )

    def __eq__(self, other):
        return isinstance(other, Heap) and self.down == other.down and self.labels == other.labels

    def __hash__(self):
        return hash((frozenset(self.down.items()), frozenset(self.labels.items())))

    def __repr__(self):
        rel = sorted(self.relation())
        return f"Heap(elements={self.elements}, less={rel})"


def is_heap(ps, heap):
    """Both heap axioms, with a violation witness.

    Returns (True, None) or (False, reason).  ``sandwich_check`` must agree;
    tests compare the two routes.
    """
    for x in heap.elements:
        if heap.labels[x] not in ps.pieces():
            raise ValueError(f"element {x} labeled by unknown piece {heap.labels[x]}")
    for x, y in combinations(heap.elements, 2):
        if ps.concurrent(heap.labels[x], heap.labels[y]) and not heap.comparable(x, y):
            return False, f"concurrent labels but incomparable elements {x}, {y}"
    for x, y in heap.covers():
        if not ps.concurrent(heap.labels[x], heap.labels[y]):
            return False, f"cover {x} < {y} with non-concurrent labels"
    return True, None


def sandwich_check(ps, heap):
    """Equivalent formulation: the label map must send Hasse edges into the
    concurrence graph and non-concurrent label pairs out of the
    comparability graph."""
    hasse = set(heap.covers())
    comparability = {(x, y) for x, y in combinations(heap.elements, 2) if heap.comparable(x, y)}
    for x, y in hasse:
        if not ps.concurrent(heap.labels[x], heap.labels[y]):
            return False
    for x, y in combinations(heap.elements, 2):
        if ps.concurrent(heap.labels[x], heap.labels[y]):
            if (x, y) not in comparability and (y, x) not in comparability:
                return False
    return True


def is_full(ps, heap):
    return sorted(heap.labels[x] for x in heap.elements) == list(ps.pieces())


def compose(ps, h1, h2):
    """Drop h2 on top of h1: cross pairs with concurrent labels force
    h1-element < h2-element.

    The result comes out closed: below y in h2 sit the h1 down-sets of the
    h1 elements whose labels are concurrent with some z <= y.
    """
    if not h1.down.keys().isdisjoint(h2.down):
        raise ValueError("heap composition needs disjoint element sets")
    lift = {}
    for z in h2.elements:
        concurrent = ps.concurrence[h2.labels[z]]
        mask = 0
        for x in h1.elements:
            if concurrent >> h1.labels[x] & 1:
                mask |= h1.down[x]
        lift[z] = mask
    down = dict(h1.down)
    for y in h2.elements:
        mask = h2.down[y]
        for z in bits(h2.down[y]):
            mask |= lift[z]
        down[y] = mask
    labels = dict(h1.labels)
    labels.update(h2.labels)
    return Heap._closed(down, labels)


def full_pyramids(ps, beta, subset=None):
    """All full pyramids over the piece system with maximal piece beta.

    Empty when the pieces are not connected.  The recursion fixes the least
    neighbour b of the apex and splits every pyramid into (down-set of b,
    rest), both full pyramids over connected complementary piece sets.
    """
    pieces = frozenset(ps.pieces()) if subset is None else frozenset(subset)
    if beta not in pieces:
        raise ValueError(f"unknown piece {beta}")
    if len(pieces) > PYRAMID_PIECE_CAP:
        raise CapExceededError(
            f"full pyramids are listed up to {PYRAMID_PIECE_CAP} pieces"
        )
    if not ps.connected(pieces):
        return []
    return _pyramids(ps, pieces, beta, {})


def _pyramids(ps, pieces, apex, memo):
    key = (pieces, apex)
    if key in memo:
        return memo[key]
    if len(pieces) == 1:
        result = [Heap.singleton(apex)]
        memo[key] = result
        return result
    others = pieces - {apex}
    b1 = min(p for p in others if ps.concurrent(p, apex))
    rest = sorted(others - {b1})
    result = []
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            part1 = frozenset((b1, *extra))
            part2 = pieces - part1
            if not ps.connected(part1) or not ps.connected(part2):
                continue
            for p1 in _pyramids(ps, part1, b1, memo):
                for p2 in _pyramids(ps, part2, apex, memo):
                    result.append(compose(ps, p1, p2))
    memo[key] = result
    return result


def count_full_pyramids(ps, beta):
    return len(full_pyramids(ps, beta))


def pyramid_split_identity(ps, b1, b2):
    """The split-sum recursion at two fixed concurrent pieces.

    Returns (lhs, rhs, per-bipartition terms): lhs counts pyramids with
    apex b2 directly, rhs sums products over admissible bipartitions.
    """
    if b1 == b2 or not ps.concurrent(b1, b2):
        raise ValueError("the identity is stated for two distinct concurrent pieces")
    if not ps.connected():
        raise ValueError("the identity needs a connected piece system")
    lhs = len(full_pyramids(ps, b2))
    pieces = frozenset(ps.pieces())
    rest = sorted(pieces - {b1, b2})
    rhs = 0
    terms = []
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            part1 = frozenset((b1, *extra))
            part2 = pieces - part1
            if not ps.connected(part1) or not ps.connected(part2):
                continue
            n1 = len(full_pyramids(ps, b1, part1))
            n2 = len(full_pyramids(ps, b2, part2))
            rhs += n1 * n2
            terms.append((part1, part2, n1, n2))
    return lhs, rhs, terms


# ---------------------------------------------------------------------------
# pyramids <-> unique-sink acyclic orientations of the concurrence graph
# ---------------------------------------------------------------------------


def pyramid_to_orientation(ps, pyramid):
    """Orient every concurrence edge from the lower piece to the higher one.

    Full pyramids only; the unique sink of the result is the apex.
    """
    if not is_full(ps, pyramid):
        raise ValueError("orientation conversion needs a full pyramid")
    if not pyramid.is_pyramid():
        raise ValueError("heap has more than one maximal element")
    pos = {pyramid.labels[x]: x for x in pyramid.elements}
    arcs = []
    for u, v in ps.graph.pairs:
        if pyramid.less(pos[u], pos[v]):
            arcs.append((u, v))
        else:
            arcs.append((v, u))
    return ps.graph.orientation(arcs)


def orientation_to_pyramid(ps, o):
    """Transitive closure of the arc relation tail < head.

    Needs an acyclic orientation of the concurrence graph with unique sink;
    inverse of ``pyramid_to_orientation``.
    """
    if not is_orientation_of(o, ps.graph):
        raise ValueError("not an orientation of the concurrence graph")
    sinks = [v for v in range(o.n) if o.out_degree(v) == 0]
    if len(sinks) != 1:
        raise ValueError(f"orientation has {len(sinks)} sinks; need exactly one")
    try:
        heap = Heap(range(ps.k), list(o.arcs))
    except ValueError:
        raise ValueError("orientation is cyclic") from None
    return heap


# ---------------------------------------------------------------------------
# decomposition pyramids and the trail dictionary
# ---------------------------------------------------------------------------


def decomposition_pyramids(d, e):
    """Full pyramids over each cycle partition, apex at the cycle through e.

    Returns a list of (partition, piece system, apex index, pyramids);
    summed sizes equal the number of Eulerian trails ending at e.
    """
    if e not in d.edges():
        raise ValueError(f"unknown edge {e}")
    out = []
    for a in cycle_partitions(d):
        ps = PieceSystem(intersection_graph(d, a))
        beta = next(i for i, block in enumerate(a.blocks) if e in block)
        out.append((a, ps, beta, full_pyramids(ps, beta)))
    return out


def trail_to_pyramid(d, w):
    """Compose singleton heaps of the trail's cycle sequence, in order."""
    cs = cycle_sequence(w)
    a = edge_partition(cs)
    ps = PieceSystem(intersection_graph(d, a))
    index = {block: i for i, block in enumerate(a.blocks)}
    heap = Heap.empty()
    for cyc in cs:
        heap = compose(ps, heap, Heap.singleton(index[cyc.edge_set()]))
    return a, ps, heap


def pyramid_to_trail(d, a, pyramid, e):
    """Fold a full pyramid back into the Eulerian trail ending at e.

    Reads the canonical linear extension and inserts the cycles right to
    left; the apex cycle is rotated to end with e, every other cycle is
    based at its first vertex of occurrence in the partial trail.
    """
    blocks = a.blocks
    order = pyramid.canonical_linear_extension()
    apex = pyramid.apex()
    if e not in blocks[pyramid.labels[apex]]:
        raise ValueError("the apex cycle must contain the final edge")
    assert order[-1] == apex
    trail = _cycle_trail_ending_at(d, blocks[pyramid.labels[apex]], e)
    for x in reversed(order[:-1]):
        block = blocks[pyramid.labels[x]]
        touched = d.support_vertices(block)
        base = next(v for v in trail.vertices if v in touched)
        trail = insert_trail(_cycle_trail_from(d, block, base), trail)
    return trail


def _successors(d, block):
    nxt = {}
    for e in block:
        u, v = d.arcs[e]
        if u in nxt:
            raise ValueError("block is not a directed cycle")
        nxt[u] = (e, v)
    return nxt


def _cycle_trail_from(d, block, base):
    """The unique traversal of a directed-cycle block starting at base."""
    nxt = _successors(d, block)
    verts = [base]
    edges = []
    cur = base
    for _ in range(len(block)):
        e, cur = nxt[cur]
        edges.append(e)
        verts.append(cur)
    return Trail(d, verts, edges)


def _cycle_trail_ending_at(d, block, e):
    """The unique traversal of a directed-cycle block whose last arc is e."""
    head = d.arcs[e][1]
    return _cycle_trail_from(d, block, head)
