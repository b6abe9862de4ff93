"""Property tests of the text format and the CLI on random small files."""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eulerpart.cli import COMMANDS, main
from eulerpart.graphs import HEADER_VERTEX_CAP, Digraph, Multigraph, format_graph, parse_graph

FILE_COMMANDS = [name for name, (_, needs_file) in COMMANDS.items() if needs_file]
LABEL = st.text(alphabet="abcxyz0123_", min_size=1, max_size=4)


@st.composite
def small_graphs(draw):
    """A digraph or multigraph on at most 6 vertices, labelled 1..n as the
    parser labels a file that never names vertex 0; half of them a closed
    walk, so Eulerian."""
    n = draw(st.integers(1, 6))
    directed = draw(st.booleans())
    rows = []
    if n > 1 and draw(st.booleans()):
        walk = [draw(st.integers(0, n - 1))]
        for step in draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=7)):
            walk.append((walk[-1] + step) % n)
        if walk[-1] == walk[0]:
            walk.pop()
        rows = list(zip(walk, walk[1:] + walk[:1]))
    elif n > 1:
        pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
            lambda p: (p[0], (p[0] + p[1]) % n)
        )
        rows = draw(st.lists(pair, max_size=8))
    labels = draw(st.lists(LABEL, min_size=len(rows), max_size=len(rows), unique=True))
    kind = Digraph if directed else Multigraph
    return kind(n, rows, [str(v + 1) for v in range(n)], labels)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_format_parse_round_trip(g):
    h = parse_graph(format_graph(g))
    assert h.directed == g.directed and h.n == g.n
    assert h.vertex_labels == g.vertex_labels and h.edge_labels == g.edge_labels
    if g.directed:
        assert h.arcs == g.arcs
    else:
        assert h.pairs == g.pairs


HEADERS = st.one_of(
    st.builds("{} {}".format, st.sampled_from(["digraph", "multigraph"]), st.integers(1, 5)),
    st.builds(
        "{} {}".format,
        st.sampled_from(["digraph", "multigraph"]),
        # over the cap, but cheap to build even if the cap were gone
        st.sampled_from([0, -1, HEADER_VERTEX_CAP + 1, 2 * HEADER_VERTEX_CAP]),
    ),
    st.sampled_from(["graph 3", "digraph", "digraph x", "multigraph 2 3", "# only", ""]),
)
TOKEN = st.one_of(st.integers(-1, 6).map(str), st.sampled_from(["x", "1.5", "", "#"]))
EDGE_LINES = st.one_of(
    # well formed, loops and out-of-range vertices included
    st.builds("{} {} {}".format, st.sampled_from(["a", "b", "c", "d", "e", "f"]), TOKEN, TOKEN),
    st.lists(TOKEN, max_size=4).map(" ".join),
)


FILES = st.one_of(
    small_graphs().map(format_graph),
    st.builds(
        lambda header, lines: "\n".join([header, *lines]) + "\n",
        HEADERS,
        st.lists(EDGE_LINES, max_size=6),
    ),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(FILES)
def test_cli_answers_or_refuses_every_small_file(text):
    """Every file subcommand exits 0 or 2 on random small files: well-formed
    graphs, bad headers and tokens, loops, duplicate labels, huge declared
    counts."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in FILE_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main([command, path, "--format", "json"])
            assert status in (0, 2), (command, text)
            assert (status == 0) == (err.getvalue() == ""), (command, text)
