"""Multigraphs, digraphs, orientations and vertex-fixing equivalence.

Vertices and edges are dense nonnegative integers; original file labels are
kept in side tables so CLI output can speak the user's names.  Parallel edges
are first-class (distinct ids, same endpoints); loops are rejected at
construction time.

Every edge is stored once, as an int tuple: a multigraph's ``pairs[i]`` is
(u, v) with u < v, a digraph's ``arcs[i]`` is (tail, head).  Both name the
``ends`` tuple of one private base class, which holds the validation, the
label tables and what reads edges without their direction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from eulerpart.errors import GraphParseError


def _spans(neighbors, inside):
    """Whether a search from the lowest vertex of the int vertex mask
    ``inside``, along the neighbour masks ``neighbors`` and within
    ``inside``, reaches all of it; the empty mask is not reached."""
    reached = frontier = inside & -inside
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = neighbors[low.bit_length() - 1] & inside & ~reached
        reached |= new
        frontier |= new
    return inside != 0 and reached == inside


class _Graph:
    """What Multigraph and Digraph share: ``n`` vertices, the edge tuple
    ``ends`` (edge i joins the two vertices of ``ends[i]``), and the label
    tables.  A subclass names ``ends`` as ``pairs`` or ``arcs``; ``noun``
    words a refusal, and is read only then."""

    noun = "edge"

    def __init__(self, n, ends, vertex_labels, edge_labels):
        for u, v in ends:
            if u == v:
                raise ValueError(f"loop {self.noun} at vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"{self.noun} endpoint out of range: ({u}, {v})")
        self.n = n
        self.ends = ends
        self.vertex_labels = tuple(vertex_labels) if vertex_labels else tuple(
            str(i) for i in range(n)
        )
        self.edge_labels = tuple(edge_labels) if edge_labels else tuple(
            f"e{i}" for i in range(len(ends))
        )
        if len(self.vertex_labels) != n or len(self.edge_labels) != len(ends):
            raise ValueError("label tables must match vertex/edge counts")

    @property
    def m(self):
        return len(self.ends)

    def edges(self):
        return range(len(self.ends))

    def vertices(self):
        return range(self.n)

    def support_vertices(self, edge_subset=None):
        edges = self.edges() if edge_subset is None else edge_subset
        out = set()
        for e in edges:
            out.update(self.ends[e])
        return out

    def edge_support_connected(self, edge_subset=None):
        """Connectivity of the sub(di)graph on the given edges, arcs read
        as undirected, ignoring isolated vertices; the empty edge set is not
        connected.  A search over the neighbour masks of those edges."""
        ends = self.ends if edge_subset is None else [self.ends[e] for e in edge_subset]
        neighbors = [0] * self.n
        for u, v in ends:
            neighbors[u] |= 1 << v
            neighbors[v] |= 1 << u
        touched = 0
        for v, near in enumerate(neighbors):
            if near:
                touched |= 1 << v
        return _spans(neighbors, touched)

    def restrict(self, edge_subset):
        """The sub(di)graph on an edge subset, as a plain Multigraph or
        Digraph even for a subclass; vertex ids are preserved."""
        edge_subset = sorted(edge_subset)
        return (Digraph if self.directed else Multigraph)(
            self.n,
            [self.ends[e] for e in edge_subset],
            self.vertex_labels,
            [self.edge_labels[e] for e in edge_subset],
        )

    def _check_vertex(self, u):
        if not (0 <= u < self.n):
            raise ValueError(f"unknown vertex {u}")


class Multigraph(_Graph):
    """Undirected multigraph: edge i joins ``pairs[i]`` = (u, v), u < v.

    The constructor sorts each pair it is given, so ``pairs`` compares,
    hashes and unpacks as the tuple every consumer reads.

    >>> g = Multigraph(2, [(0, 1), (1, 0)])
    >>> g.pairs
    ((0, 1), (0, 1))
    >>> g.multiplicity(1, 0)
    2
    >>> g.degree(0)
    2
    """

    directed = False

    def __init__(self, n, pairs, vertex_labels=None, edge_labels=None):
        super().__init__(
            n, tuple((u, v) if u < v else (v, u) for u, v in pairs), vertex_labels, edge_labels
        )
        self.pairs = self.ends
        self._adj = [[] for _ in range(n)]
        for e, (u, v) in enumerate(self.pairs):
            self._adj[u].append((e, v))
            self._adj[v].append((e, u))

    def incident(self, u):
        """Sorted list of (edge id, other endpoint): edges are appended in
        id order."""
        return self._adj[u]

    def degree(self, u):
        self._check_vertex(u)
        return len(self._adj[u])

    def multiplicity(self, u, v):
        return self.pairs.count((u, v) if u < v else (v, u))

    def is_simple(self):
        return len(set(self.pairs)) == len(self.pairs)

    def neighbors(self, u):
        return sorted({v for _, v in self._adj[u]})

    def orientation(self, arcs):
        """The Digraph whose arc i is ``arcs[i]``, with this multigraph's
        vertex count and label tables.

        Precondition, not checked: ``arcs[i]`` is ``pairs[i]`` in one of its
        two directions.  The pairs passed the loop and range checks when this
        multigraph was built, so its orientations skip ``Digraph.__init__``
        and set the attributes it sets directly; ``is_orientation_of`` tests
        the precondition.  The arcs are copied, so the caller may reuse its
        list."""
        d = Digraph.__new__(Digraph)
        d.n = self.n
        d.ends = d.arcs = tuple(arcs)
        d.vertex_labels = self.vertex_labels
        d.edge_labels = self.edge_labels
        return d

    @cached_property
    def _neighbor_masks(self):
        """Bit w of entry u is set when some edge joins u and w; built on
        first use, by a connectivity query or a piece system, so graphs
        never asked pay nothing."""
        masks = [0] * self.n
        for u, v in self.pairs:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

    def induces_connected(self, vertex_set):
        """Connectivity of the subgraph induced on a vertex set; a single
        vertex is connected, the empty set is not.  A search over int vertex
        masks."""
        inside = 0
        for v in vertex_set:
            self._check_vertex(v)
            inside |= 1 << v
        return _spans(self._neighbor_masks, inside)

    def __repr__(self):
        inner = ", ".join("{%d,%d}" % p for p in self.pairs)
        return f"Multigraph(n={self.n}, [{inner}])"


class Digraph(_Graph):
    """Directed multigraph: edge i is the ordered arc ``arcs[i]`` = (tail, head)."""

    directed = True
    noun = "arc"

    def __init__(self, n, arcs, vertex_labels=None, edge_labels=None):
        super().__init__(n, tuple(map(tuple, arcs)), vertex_labels, edge_labels)
        self.arcs = self.ends

    @cached_property
    def _out(self):
        """Per vertex, the (arc id, head) list, sorted since arcs are
        appended in id order.  Built on the first query, so digraphs read
        only for their arcs pay nothing."""
        out = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.arcs):
            out[u].append((e, v))
        return out

    @cached_property
    def _in(self):
        """Per vertex, the (arc id, tail) list, built like ``_out``."""
        into = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.arcs):
            into[v].append((e, u))
        return into

    def head(self, e):
        return self.arcs[e][1]

    def out_arcs(self, u):
        """Sorted list of (edge id, head)."""
        return self._out[u]

    def out_degree(self, u):
        self._check_vertex(u)
        return len(self._out[u])

    def in_degree(self, u):
        self._check_vertex(u)
        return len(self._in[u])

    def degree(self, u):
        return self.out_degree(u) + self.in_degree(u)

    def multiplicity(self, u, v):
        return self.arcs.count((u, v))

    def underlying_multigraph(self):
        return Multigraph(self.n, self.arcs, self.vertex_labels, self.edge_labels)

    def is_balanced(self):
        """In-degree equals out-degree at every vertex; read from the arc
        list."""
        net = [0] * self.n
        for u, v in self.arcs:
            net[u] += 1
            net[v] -= 1
        return not any(net)

    def __repr__(self):
        inner = ", ".join("(%d,%d)" % a for a in self.arcs)
        return f"Digraph(n={self.n}, [{inner}])"


def is_eulerian(d):
    """Closed-trail feasibility on a connected edge support.

    Digraphs need in-degree == out-degree everywhere; multigraphs need all
    degrees even.  The empty edge set does not count as Eulerian, and
    isolated vertices are ignored: only the edge support must be connected.
    """
    if not d.m:
        return False
    if d.directed:
        balanced = d.is_balanced()
    else:
        parity = {}
        for pair in d.pairs:
            for v in pair:
                parity[v] = parity.get(v, 0) ^ 1
        balanced = not any(parity.values())
    return balanced and d.edge_support_connected()


def orientation_arcs(x):
    """The arc lists of all 2^m orientations of a multigraph, in
    binary-counter order.

    Bit i of the counter flips edge i away from its sorted-pair direction.
    """
    for mask in range(1 << x.m):
        yield [(v, u) if mask >> e & 1 else (u, v) for e, (u, v) in enumerate(x.pairs)]


def orientations(x):
    """All 2^m orientations of a multigraph, as digraphs in the order of
    ``orientation_arcs``, built by ``x.orientation``."""
    for arcs in orientation_arcs(x):
        yield x.orientation(arcs)


@dataclass(frozen=True)
class ApproxClass:
    """Canonical representative of a vertex-fixing isomorphism class.

    Two (di)graphs lie in the same class iff they have the same vertex set
    and the same multiplicity map; the map is stored as a sorted tuple.
    """

    directed: bool
    n: int
    counts: tuple


def approx_class(g):
    return ApproxClass(g.directed, g.n, tuple(sorted(Counter(g.ends).items())))


def is_orientation_of(o, host):
    if o.n != host.n or o.m != host.m:
        return False
    return all(a == p or a[::-1] == p for a, p in zip(o.arcs, host.pairs))


def approx_class_size(o, host):
    """Size of the vertex-fixing class of an orientation inside its host.

    Equals M_X / K_O: the product over parallelism classes of binomial
    factors choosing which copies point each way.
    """
    if not is_orientation_of(o, host):
        raise ValueError("first argument is not an orientation of the host multigraph")
    size = 1
    for u, v in set(host.pairs):
        size *= math.comb(host.multiplicity(u, v), o.multiplicity(u, v))
    return size


def parallel_factorial_product(g):
    """The product of m(u, v)! over the parallelism classes: M_X over the
    unordered pairs of a multigraph, K_D over the ordered pairs of a
    digraph."""
    return math.prod(map(math.factorial, Counter(g.ends).values()))


def out_degree_factorial_product(d):
    """N_D: product over vertices of out-degree factorials."""
    return math.prod(math.factorial(d.out_degree(v)) for v in range(d.n))


# ---------------------------------------------------------------------------
# text format: header "digraph n" | "multigraph n", then "edge-id u v" lines
# ---------------------------------------------------------------------------

# The header count sizes per-vertex tables before any command runs: with one
# 2-cycle, `martin` takes 0.2 s at 10^5 vertices and 19 s and 2.1 GB at 10^7.
HEADER_VERTEX_CAP = 10**5


def parse_graph(text, source="<string>"):
    """Parse the one-graph-per-file text format.

    Blank lines and '#' comments are ignored.  Vertex tokens must be
    integers; they may be 0-based or 1-based, and the header count may
    exceed the number of distinct endpoints (extra vertices are isolated).
    """
    header = None
    edge_rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] not in ("digraph", "multigraph"):
                raise GraphParseError(
                    f"{source}:{lineno}: expected header 'digraph n' or 'multigraph n'"
                )
            try:
                count = int(parts[1])
            except ValueError:
                raise GraphParseError(f"{source}:{lineno}: vertex count must be an integer")
            if count <= 0:
                raise GraphParseError(f"{source}:{lineno}: vertex count must be positive")
            if count > HEADER_VERTEX_CAP:
                raise GraphParseError(
                    f"{source}:{lineno}: vertex count {count} is over the cap of "
                    f"{HEADER_VERTEX_CAP}"
                )
            header = (parts[0], count)
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphParseError(
                f"{source}:{lineno}: expected 'edge-id u v', got {line!r}"
            )
        label, u_tok, v_tok = parts
        try:
            u, v = int(u_tok), int(v_tok)
        except ValueError:
            raise GraphParseError(f"{source}:{lineno}: vertex tokens must be integers")
        if u == v:
            raise GraphParseError(f"{source}:{lineno}: loop edge {label!r} rejected")
        edge_rows.append((lineno, label, u, v))
    if header is None:
        raise GraphParseError(f"{source}: empty graph file")
    kind, n = header
    labels = [label for _, label, _, _ in edge_rows]
    if len(set(labels)) != len(labels):
        dup = next(l for l in labels if labels.count(l) > 1)
        lineno = next(ln for ln, l, _, _ in edge_rows if l == dup)
        raise GraphParseError(f"{source}:{lineno}: duplicate edge id {dup!r}")
    tokens = {u for _, _, u, v in edge_rows} | {v for _, _, u, v in edge_rows}
    zero_based = 0 in tokens
    lo = 0 if zero_based else 1
    for lineno, label, u, v in edge_rows:
        for w in (u, v):
            if not (lo <= w < lo + n):
                raise GraphParseError(
                    f"{source}:{lineno}: vertex {w} outside range "
                    f"[{lo}, {lo + n - 1}] declared by the header"
                )
    vertex_labels = [str(i + lo) for i in range(n)]
    dense = [(u - lo, v - lo) for _, _, u, v in edge_rows]
    if kind == "digraph":
        return Digraph(n, dense, vertex_labels, labels)
    return Multigraph(n, dense, vertex_labels, labels)


def parse_graph_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read(), source=str(path))


def format_graph(g):
    """Serialise back to the text format (inverse of parse up to labels)."""
    kind = "digraph" if g.directed else "multigraph"
    lines = [f"{kind} {g.n}"]
    for e, (u, v) in enumerate(g.ends):
        lines.append(f"{g.edge_labels[e]} {g.vertex_labels[u]} {g.vertex_labels[v]}")
    return "\n".join(lines) + "\n"
