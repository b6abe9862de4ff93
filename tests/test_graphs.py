import pytest

from eulerpart.errors import GraphParseError
from eulerpart.graphs import (
    Digraph,
    Multigraph,
    approx_class,
    approx_class_size,
    format_graph,
    is_eulerian,
    is_orientation_of,
    orientations,
    parse_graph,
    parallel_factorial_product,
)
from eulerpart.veblen import VeblenMultigraph


def test_no_loops():
    with pytest.raises(ValueError):
        Multigraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Digraph(2, [(1, 1)])


def test_one_constructor_for_both_graph_classes():
    """Multigraph and Digraph share one constructor: pairs are stored as
    sorted tuples, arcs as given, and both refuse with the same wording,
    naming an edge or an arc."""
    g = Multigraph(3, [(2, 0), (1, 0)])
    assert g.pairs == ((0, 2), (0, 1)) and g.pairs is g.ends
    assert g.multiplicity(2, 0) == g.multiplicity(0, 2) == 1
    d = Digraph(3, [(2, 0), (1, 0)])
    assert d.arcs == ((2, 0), (1, 0)) and d.arcs is d.ends
    assert d.multiplicity(2, 0) == 1 and d.multiplicity(0, 2) == 0
    refusals = [
        (Multigraph, [(1, 1)], {}, "loop edge at vertex 1 is not allowed"),
        (Digraph, [(1, 1)], {}, "loop arc at vertex 1 is not allowed"),
        (Multigraph, [(0, 3)], {}, "edge endpoint out of range: (0, 3)"),
        (Digraph, [(3, 0)], {}, "arc endpoint out of range: (3, 0)"),
        (Multigraph, [(0, 1)], {"edge_labels": ["a", "b"]}, "label tables must match vertex/edge counts"),
        (Digraph, [(0, 1)], {"vertex_labels": ["x"]}, "label tables must match vertex/edge counts"),
    ]
    for cls, ends, labels, message in refusals:
        with pytest.raises(ValueError) as refused:
            cls(3, ends, **labels)
        assert str(refused.value) == message


def test_orientations_come_from_the_multigraph_constructor():
    """``graphs.orientations`` builds through ``Multigraph.orientation``,
    which skips the per-arc checks.  On a labelled doubled edge and the
    triangle, every result is an orientation of its host carrying the
    host's label tables, and holds the attributes and adjacency of the
    Digraph the checked constructor builds from its arcs."""
    hosts = [Multigraph(2, [(0, 1), (1, 0)], ["a", "b"], ["p", "q"]), Multigraph(3, [(0, 1), (1, 2), (2, 0)])]
    for g in hosts:
        seen = set()
        for o in orientations(g):
            built = Digraph(g.n, o.arcs, g.vertex_labels, g.edge_labels)
            assert vars(o) == vars(built) and o.arcs is o.ends
            assert type(o) is Digraph and o.directed and is_orientation_of(o, g)
            assert o.vertex_labels is g.vertex_labels and o.edge_labels is g.edge_labels
            for v in range(g.n):
                assert o.out_arcs(v) == built.out_arcs(v)
                assert o.in_degree(v) == built.in_degree(v)
            seen.add(o.arcs)
        assert len(seen) == 2**g.m
    # the arcs are copied, so the caller may reuse its list
    arcs = [(1, 0), (0, 1)]
    o = hosts[0].orientation(arcs)
    arcs[0] = (0, 1)
    assert o.arcs == ((1, 0), (0, 1))


def test_restrict_returns_the_plain_class():
    """The one ``restrict`` keeps edge ids in order and returns a plain
    Multigraph or Digraph, also for a subclass."""
    x = VeblenMultigraph(3, [(0, 1), (1, 2), (2, 0)])
    sub = x.restrict([2, 0])
    assert type(sub) is Multigraph and sub.pairs == ((0, 1), (0, 2))
    assert sub.edge_labels == ("e0", "e2")
    d = Digraph(3, [(0, 1), (1, 2), (2, 0)]).restrict([2, 1])
    assert type(d) is Digraph and d.arcs == ((1, 2), (2, 0))


def test_out_degree_example(example_digraph):
    # vertex "3" is dense id 2; arcs f2, g1, h2 leave it
    assert example_digraph.out_degree(2) == 3
    assert example_digraph.in_degree(2) == 3
    with pytest.raises(ValueError):
        example_digraph.out_degree(9)


def test_out_degree_trivial(two_cycle):
    assert two_cycle.out_degree(0) == 1
    assert Digraph(1, []).out_degree(0) == 0


def test_is_eulerian(example_digraph, two_cycle):
    assert is_eulerian(example_digraph)
    assert is_eulerian(two_cycle)
    assert not is_eulerian(Digraph(2, [(0, 1)]))  # directed path
    two_islands = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    assert not is_eulerian(two_islands)
    assert not is_eulerian(Digraph(1, []))  # empty edge set


def test_is_eulerian_ignores_isolated_vertices():
    d = Digraph(3, [(0, 1), (1, 0)])
    assert is_eulerian(d)


def test_orientation_count(doubled_edge, triangle):
    single = Multigraph(2, [(0, 1)])
    assert len(list(orientations(single))) == 2
    assert len(list(orientations(doubled_edge))) == 4
    tri_orients = list(orientations(triangle))
    assert len(tri_orients) == 8
    acyclic = [o for o in tri_orients if _is_acyclic(o)]
    assert len(acyclic) == 6


def _is_acyclic(d):
    state = [0] * d.n

    def visit(u):
        state[u] = 1
        for _, w in d.out_arcs(u):
            if state[w] == 1 or (state[w] == 0 and not visit(w)):
                return False
        state[u] = 2
        return True

    return all(state[v] or visit(v) for v in range(d.n))


def test_orientations_preserve_endpoints(triangle):
    for o in orientations(triangle):
        for e in triangle.edges():
            assert tuple(sorted(o.arcs[e])) == triangle.pairs[e]


def test_approx_class_ignores_parallel_ids():
    d1 = Digraph(2, [(0, 1), (0, 1), (1, 0)])
    d2 = Digraph(2, [(0, 1), (1, 0), (0, 1)])
    assert approx_class(d1) == approx_class(d2)
    d3 = Digraph(2, [(0, 1), (1, 0), (1, 0)])
    assert approx_class(d1) != approx_class(d3)


def test_approx_class_size(doubled_edge, triangle):
    one_each_way = Digraph(2, [(0, 1), (1, 0)])
    both_forward = Digraph(2, [(0, 1), (0, 1)])
    assert approx_class_size(one_each_way, doubled_edge) == 2
    assert approx_class_size(both_forward, doubled_edge) == 1
    for o in orientations(triangle):
        assert approx_class_size(o, triangle) == 1
    with pytest.raises(ValueError):
        approx_class_size(Digraph(2, [(0, 1)]), doubled_edge)


def test_class_sizes_partition_all_orientations(doubled_edge):
    """Grouping orientations by class reproduces the counting formula and
    the sizes sum to 2^m."""
    quad = Multigraph(2, [(0, 1)] * 4)
    for host in (doubled_edge, quad):
        groups = {}
        for o in orientations(host):
            groups.setdefault(approx_class(o), []).append(o)
        assert sum(len(v) for v in groups.values()) == 2 ** host.m
        for members in groups.values():
            assert len(members) == approx_class_size(members[0], host)


def test_multiplicity_split_invariant(doubled_edge):
    for o in orientations(doubled_edge):
        assert o.multiplicity(0, 1) + o.multiplicity(1, 0) == doubled_edge.multiplicity(0, 1)


def test_parallel_factorial_product():
    quad = Multigraph(2, [(0, 1)] * 4)
    assert parallel_factorial_product(quad) == 24


EXAMPLE_FILE = """\
# running example
digraph 4
e1 2 1
e2 1 2
f1 1 3
f2 3 1
g1 3 2
g2 2 3
h1 4 3
h2 3 4
"""


def test_parse_example_file(example_digraph):
    d = parse_graph(EXAMPLE_FILE)
    assert d.directed and d.n == 4 and d.m == 8
    assert d.arcs == example_digraph.arcs
    assert d.edge_labels == example_digraph.edge_labels


def test_parse_errors():
    with pytest.raises(GraphParseError):
        parse_graph("")
    with pytest.raises(GraphParseError):
        parse_graph("digraph 2\ne 1 1\n")  # loop
    with pytest.raises(GraphParseError):
        parse_graph("digraph 2\ne 1 2\ne 2 1\n")  # duplicate edge id
    with pytest.raises(GraphParseError):
        parse_graph("graph 2\ne 1 2\n")  # bad header
    with pytest.raises(GraphParseError):
        parse_graph("digraph 2\ne 1 3\n")  # vertex out of range


def test_format_round_trip(example_digraph):
    text = format_graph(example_digraph)
    again = parse_graph(text)
    assert again.arcs == example_digraph.arcs
    assert again.edge_labels == example_digraph.edge_labels


def test_zero_based_files():
    d = parse_graph("digraph 2\na 0 1\nb 1 0\n")
    assert d.arcs == ((0, 1), (1, 0))
