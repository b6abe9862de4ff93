"""The four seeded workloads.

Each workload turns a seed into a fixed list of operations, runs one
operation through the library's public functions, and checks one
operation's result; the worker runs the check outside the timed region.
The library sees only the generated inputs, never the seed.  ``eulerpart``
is imported inside the methods, so that a worker can time set-up from
before the first import.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from collections import Counter


def _relabel(g, rng):
    """A copy of g with its vertices permuted by rng, same edge order."""
    from eulerpart.graphs import Digraph, Multigraph

    perm = list(range(g.n))
    rng.shuffle(perm)
    if g.directed:
        return Digraph(g.n, [(perm[u], perm[v]) for u, v in g.arcs])
    return Multigraph(g.n, [(perm[u], perm[v]) for u, v in (sorted(p) for p in g.pairs)])


def _edges(g):
    if g.directed:
        return list(g.arcs)
    return [tuple(sorted(p)) for p in g.pairs]


def graph_text(g):
    """The library's one-graph-per-file text format, written independently."""
    kind = "digraph" if g.directed else "multigraph"
    lines = [f"{kind} {g.n}"]
    lines += [f"e{i} {u} {v}" for i, (u, v) in enumerate(_edges(g))]
    return "\n".join(lines) + "\n"


def _alternating_sum_ok(d, f):
    """The cancellation rule: sum (-1)^k f_k is -1 on one directed cycle, else 0."""
    total = sum((-1) ** k * fk for k, fk in enumerate(f, start=1))
    outdeg = [0] * d.n
    for u, _ in d.arcs:
        outdeg[u] += 1
    single_cycle = all(k == 1 for k in outdeg)
    return total == (-1 if single_cycle else 0)


class Workload:
    """The interface the worker drives.

    make_inputs(seed) -> the op list; describe(op) -> its text for the input
    digest; run_op(op) -> the result, the only timed call; check(op, result)
    -> whether it is right.
    """

    def expected_counters(self, ops):
        """Traced-run counters that the op list fixes in advance."""
        return {}


class MartinSweep(Workload):
    """martin_polynomial on every connected Eulerian digraph with <= 10 arcs
    and no arc of multiplicity above 4.

    The multiplicity cap leaves out one digraph, five parallel 2-cycles,
    whose 1496-element semilattice alone took half of a pass.
    """

    name = "martin-sweep"
    max_arcs = 10
    max_multiplicity = 4

    def make_inputs(self, seed):
        from eulerpart import corpus

        rng = random.Random(f"{seed}:{self.name}")
        ops = [
            _relabel(d, rng)
            for d in corpus.eulerian_digraph_corpus(self.max_arcs)
            if max(Counter(d.arcs).values()) <= self.max_multiplicity
        ]
        rng.shuffle(ops)
        return ops

    def describe(self, op):
        return graph_text(op)

    def run_op(self, op):
        from eulerpart import lattice

        return lattice.martin_polynomial(op)

    def check(self, d, result):
        from eulerpart import trails

        return _alternating_sum_ok(d, result.f) and result.f[0] == trails.count_circuits_best(d)


class NbcBijection(Workload):
    """The NBC-base / unique-sink-orientation dictionaries on every connected
    simple graph with 2..6 vertices and at most 9 edges, one seeded edge
    order each.  The 33 denser graphs would triple the pass time."""

    name = "nbc-bijection"
    max_vertices = 6
    max_edges = 9

    def make_inputs(self, seed):
        from eulerpart import corpus

        rng = random.Random(f"{seed}:{self.name}")
        ops = []
        for g in corpus.connected_simple_graphs(self.max_vertices):
            if g.n < 2 or g.m > self.max_edges:
                continue
            order = list(g.edges())
            rng.shuffle(order)
            ops.append((g, tuple(order)))
        return ops

    def describe(self, op):
        g, order = op
        return graph_text(g) + f"order {list(order)}\n"

    def run_op(self, op):
        from eulerpart import bonds

        g, order = op
        bases = bonds.nbc_bases(g, order)
        by_sink = {}
        for o in bonds.acyclic_orientations(g):
            s = bonds.sinks(o)
            if len(s) == 1:
                by_sink.setdefault(s[0], []).append(o)
        per_sink = []
        for x in range(g.n):
            forward = []
            for t in bases:
                direct = bonds.base_to_orientation_direct(t, g, x, order)
                recursive = bonds.base_to_orientation_recursive(t, g, x, order)
                inverse = bonds.orientation_to_base(recursive, g, x, order)
                forward.append((t, direct.arcs, recursive.arcs, inverse))
            backward = [(o.arcs, bonds.orientation_to_base(o, g, x, order)) for o in by_sink.get(x, [])]
            per_sink.append((forward, backward))
        return bases, per_sink

    def check(self, op, result):
        """Per sink: as many unique-sink orientations as bases, the direct and
        recursive dictionaries agree, and orientation_to_base inverts them."""
        bases, per_sink = result
        for forward, backward in per_sink:
            image = {t: rec for t, _, rec, _ in forward}
            if len(backward) != len(bases) or len(image) != len(bases):
                return False
            if any(direct != rec or inverse != t for t, direct, rec, inverse in forward):
                return False
            if {t for _, t in backward} != set(image):
                return False
            if any(image[t] != arcs for arcs, t in backward):
                return False
        return True


class HararySachs(Workload):
    """The three characteristic-polynomial routes on the spot hosts with at
    most 15 edges, then weights and both associated-coefficient routes on
    the Veblen corpus.  The edge cap leaves out K7 and K7 minus an edge,
    which alone took four fifths of a pass; K6 is the largest host kept."""

    name = "harary-sachs"
    max_host_edges = 15
    routes = ("hs_characteristic_polynomial", "elementary_subgraph_formula", "charpoly_determinant_oracle")

    def make_inputs(self, seed):
        from eulerpart import corpus
        from eulerpart.veblen import VeblenMultigraph

        rng = random.Random(f"{seed}:{self.name}")
        hosts = [_relabel(h, rng) for h in corpus.spot_hosts(7) if h.m <= self.max_host_edges]
        members = []
        for x in corpus.veblen_corpus(8, 5):
            y = _relabel(x, rng)
            members.append(VeblenMultigraph(y.n, _edges(y)))
        charpoly = [("route", route, i, h) for route in self.routes for i, h in enumerate(hosts)]
        veblens = [("veblen", None, i, x) for i, x in enumerate(members)]
        rng.shuffle(charpoly)
        rng.shuffle(veblens)
        return charpoly + veblens

    def describe(self, op):
        kind, route, i, g = op
        return f"{kind} {route} {i}\n" + graph_text(g)

    def run_op(self, op):
        from eulerpart import veblen

        kind, route, _, g = op
        if kind == "route":
            return getattr(veblen, route)(g)
        return veblen.weight(g), veblen.associated_coefficient(g), veblen.associated_coefficient_via_rootings(g)

    def check(self, op, result):
        from eulerpart import veblen

        kind, route, _, g = op
        if kind == "route":
            # the three routes agree: each is compared with another route
            reference = self.routes[1] if route == self.routes[2] else self.routes[2]
            return result == getattr(veblen, reference)(g)
        w, a1, a2 = result
        return a1 == a2 and (w == 0 or not veblen.is_decomposable(g))


class CliRequests(Workload):
    """Sequential in-process ``eulerpart`` CLI calls on seeded graph files,
    with a small share of invalid inputs that must exit 2.

    Every seed sends the same multiset of (command, graph class) requests;
    the seed relabels each graph and shuffles the order, so the work per
    pass does not depend on the seed.
    """

    name = "cli-requests"
    per_command = 52
    invalid_requests = 28  # 600 requests in all, about 5% invalid
    digraph_commands = ("circuits", "martin", "cancellation", "identity", "lattice-dump")
    graph_commands = ("nbc", "bijection-check", "chromatic", "pyramids", "charpoly")
    # (invalid input kind, commands it is sent to)
    invalid_kinds = (
        ("non-eulerian", ("martin", "cancellation", "identity", "lattice-dump")),
        ("non-simple", ("nbc", "chromatic", "pyramids", "charpoly")),
        ("malformed", ("circuits", "martin", "nbc", "weight")),
    )
    malformed_texts = ("digraph\n", "multigraph 3\ne0 0\n", "digraph 3\ne0 0 x\n", "graph 2\ne0 0 1\n")

    def __init__(self, workdir):
        self.workdir = workdir

    def make_inputs(self, seed):
        from eulerpart import corpus

        rng = random.Random(f"{seed}:{self.name}")
        digraphs = [d for d in corpus.eulerian_digraph_corpus(9) if d.m >= 4]
        graphs = [g for g in corpus.connected_simple_graphs(5) if g.n >= 3]
        pools = {cmd: digraphs for cmd in self.digraph_commands}
        pools.update({cmd: graphs for cmd in self.graph_commands})
        pools["weight"] = list(corpus.veblen_corpus(8, 5))
        requests = []
        for offset, (cmd, pool) in enumerate(pools.items()):
            for k in range(self.per_command):
                g = _relabel(pool[(offset + k * len(pool) // self.per_command) % len(pool)], rng)
                requests.append((cmd, graph_text(g), g, 0))
        for k in range(self.invalid_requests):
            kind, targets = self.invalid_kinds[k % len(self.invalid_kinds)]
            cmd = targets[k // len(self.invalid_kinds) % len(targets)]
            requests.append((cmd, self._invalid_text(kind, k, rng, digraphs, graphs), None, 2))
        rng.shuffle(requests)
        os.makedirs(self.workdir, exist_ok=True)
        ops = []
        for i, (cmd, text, graph, expected) in enumerate(requests):
            path = os.path.join(self.workdir, f"r{i:05d}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            ops.append((cmd, path, text, graph, expected))
        return ops

    def _invalid_text(self, kind, k, rng, digraphs, graphs):
        if kind == "non-eulerian":
            d = _relabel(digraphs[k * 7 % len(digraphs)], rng)
            lines = graph_text(d).splitlines()
            return "\n".join(lines[:-1]) + "\n"  # drop one arc: unbalanced
        if kind == "non-simple":
            g = _relabel(graphs[k % len(graphs)], rng)
            u, v = _edges(g)[0]
            return graph_text(g) + f"e{g.m} {u} {v}\n"  # doubled edge
        return self.malformed_texts[k % len(self.malformed_texts)]

    def expected_counters(self, ops):
        return {"cli.main.error_exits": sum(op[4] == 2 for op in ops)}

    def describe(self, op):
        cmd, _, text, _, expected = op
        return f"{cmd} exit={expected}\n{text}"

    def run_op(self, op):
        from eulerpart import cli

        cmd, path, _, _, _ = op
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main([cmd, path, "--format", "json"])
        return status, out.getvalue()

    def check(self, op, result):
        from eulerpart import trails

        cmd, _, _, graph, expected = op
        status, stdout = result
        if status != expected:
            return False
        if expected != 0:
            return stdout == ""
        envelope = json.loads(stdout)
        if envelope.get("schema") != 1 or envelope.get("command") != cmd:
            return False
        r = envelope["result"]
        if cmd == "circuits":
            return r["count"] == len(r["circuits"]) == trails.count_circuits_best(graph)
        if cmd == "martin":
            return _alternating_sum_ok(graph, r["f"]) and r["f"][0] == trails.count_circuits_best(graph)
        if cmd == "cancellation":
            return r["holds"] is True
        if cmd == "identity":
            return r["holds"] is True and r["r_identity_holds"] is True
        if cmd == "lattice-dump":
            # down-set sums: (-1)^k on the k-cycle partitions, 0 above them
            minimal = set(r["minimal"])
            return r["size"] == len(r["elements"]) and all(
                e["downset_sum"] == ((-1) ** len(e["blocks"]) if i in minimal else 0)
                for i, e in enumerate(r["elements"])
            )
        if cmd == "nbc":
            return r["count"] == len(r["bases"]) > 0
        if cmd == "bijection-check":
            return r["ok"] is True
        if cmd == "chromatic":
            return r["routes_agree"] is True
        if cmd == "pyramids":
            return r["count"] == len(r["pyramids"])
        if cmd == "charpoly":
            return r["agree"] is True
        if cmd == "weight":
            return not r["decomposable"] or r["weight"] == "0"
        return False


def get(name, workdir):
    """The workload called name; cli-requests writes its files under workdir."""
    if name == CliRequests.name:
        return CliRequests(workdir)
    for cls in (MartinSweep, NbcBijection, HararySachs):
        if cls.name == name:
            return cls()
    raise KeyError(name)


NAMES = (MartinSweep.name, NbcBijection.name, HararySachs.name, CliRequests.name)
