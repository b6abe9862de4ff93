"""Command-line interface.

Every subcommand reads the one-graph-per-file text format, speaks the
user's original vertex/edge labels, and can emit machine-readable JSON
(schema 1, polynomials as ascending coefficient arrays).  Identical input
and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys

from eulerpart import bonds, heaps, lattice, trails, veblen
from eulerpart.errors import CapExceededError
from eulerpart.graphs import is_eulerian, out_degree_factorial_product, parse_graph_file
from eulerpart.verify import VerifyConfig, run_verification_suite

SCHEMA = 1
# `circuits` counts before it enumerates and refuses above this many circuits
CIRCUITS_CAP = 10**5
# past its cheap bound, the undirected count sums 2^(m-1) orientations
CIRCUITS_COUNT_EDGE_CAP = 16
# and the digraph count is a Bareiss determinant on (touched vertices - 1)
# rows: on the complete digraph about 0.5 s at 128 rows and 1.3 s at 149
# (CPython 3.11, one core of a 2-core machine)
CIRCUITS_COUNT_ROW_CAP = 128
# `charpoly` checks the cap of every requested route before it runs any.  The
# determinant oracle takes n + 1 Bareiss determinants: 0.5 s on K50, 1.3 s on
# K60.  The elementary-subgraph recursion is worst on K_n: 0.7 s on K9, 7.2 s
# on K10.  The Harary-Sachs route keeps its own cap, veblen.HOST_VERTEX_CAP.
CHARPOLY_DET_VERTEX_CAP = 50
CHARPOLY_ELEMENTARY_VERTEX_CAP = 9
# `weight` sums over decomposition classes: ten parallel edges 0.26 s, twelve 10.6 s
WEIGHT_EDGE_CAP = 10


def _poly(p):
    return list(p.coeffs)


def _edge_labels(g, edges):
    return [g.edge_labels[e] for e in edges]


def _blocks(g, partition):
    return [sorted(g.edge_labels[e] for e in block) for block in partition.blocks]


def _require_digraph(g):
    if not g.directed:
        raise ValueError("this subcommand needs a digraph input file")
    return g


def _require_simple(g):
    if g.directed or not g.is_simple():
        raise ValueError("this subcommand needs an undirected simple graph file")
    return g


def _resolve_vertex(g, token):
    try:
        return g.vertex_labels.index(token)
    except ValueError:
        raise ValueError(f"unknown vertex label {token!r}") from None


def _resolve_order(g, listing):
    if listing is None:
        return tuple(g.edges())
    labels = [part.strip() for part in listing.split(",") if part.strip()]
    index = {label: e for e, label in enumerate(g.edge_labels)}
    try:
        order = tuple(index[label] for label in labels)
    except KeyError as err:
        raise ValueError(f"unknown edge label {err.args[0]!r}") from None
    if sorted(order) != sorted(g.edges()):
        raise ValueError("--order must list every edge label exactly once")
    return order


# -- subcommand bodies: each returns a JSON-able payload ----------------------


def cmd_circuits(args, g):
    if g.m and is_eulerian(g):
        # cheap bounds first: a digraph circuit picks an out-arc order at each
        # vertex (prod outdeg!); an undirected one pairs the edge ends at each
        # vertex and picks a direction (2 prod (deg-1)!!)
        if g.directed:
            bound = out_degree_factorial_product(g)
        else:
            bound = 2 * math.prod(math.prod(range(g.degree(v) - 1, 0, -2)) for v in g.vertices())
        if bound > CIRCUITS_CAP:
            if g.directed:
                rows = len(g.support_vertices()) - 1
                if rows > CIRCUITS_COUNT_ROW_CAP:
                    raise CapExceededError(
                        f"digraph circuits are counted up to {CIRCUITS_COUNT_ROW_CAP + 1} vertices"
                    )
            elif g.m > CIRCUITS_COUNT_EDGE_CAP:
                raise CapExceededError(
                    f"multigraph circuits are counted up to {CIRCUITS_COUNT_EDGE_CAP} edges"
                )
            count = trails.count_eulerian_circuits(g)
            if count > CIRCUITS_CAP:
                raise CapExceededError(f"{count} Eulerian circuits; the cap is {CIRCUITS_CAP}")
    circuits = trails.eulerian_circuits(g)
    return {
        "count": len(circuits),
        "circuits": [_edge_labels(g, c.edges) for c in circuits],
    }


def cmd_martin(args, g):
    _require_digraph(g)
    polys = lattice.martin_polynomial(g)
    return {
        "f": list(polys.f),
        "r": _poly(polys.r),
        "s": _poly(polys.s),
        "s_text": str(polys.s),
    }


def cmd_cancellation(args, g):
    _require_digraph(g)
    report = lattice.verify_cancellation(g)
    return {
        "f": list(report.f),
        "alternating_sum": report.alternating_sum,
        "is_single_cycle": report.is_single_cycle,
        "holds": report.holds,
    }


def cmd_identity(args, g):
    _require_digraph(g)
    report = lattice.martin_chromatic_identity(g)
    return {
        "s": _poly(report.s),
        "lhs": _poly(report.lhs),
        "rhs": _poly(report.rhs),
        "per_partition": [
            {"cycles": _blocks(g, a), "chi": _poly(chi)}
            for a, chi in report.chi_by_partition
        ],
        "holds": report.holds,
        "r_identity_holds": report.r_identity_holds,
    }


def cmd_lattice_dump(args, g):
    _require_digraph(g)
    lat = lattice.build_eulerian_semilattice(g)
    elements = []
    for b in lat.elements:
        elements.append(
            {
                "blocks": _blocks(g, b),
                "signed_circuits": lat.signed_product(b),
                "downset_sum": lat.downset_sum(b),
            }
        )
    return {
        "size": len(lat),
        "elements": elements,
        "minimal": [lat.index[a] for a in lat.minimal],
        "top": lat.index[lat.top()],
    }


def cmd_nbc(args, g):
    _require_simple(g)
    order = _resolve_order(g, args.order)
    sink = _resolve_vertex(g, args.sink) if args.sink else 0
    bases = bonds.nbc_bases(g, order)
    rows = []
    for base in bases:
        o = bonds.base_to_orientation_direct(base, g, sink, order)
        rows.append(
            {
                "edges": sorted(_edge_labels(g, sorted(base))),
                "orientation": [
                    [g.vertex_labels[u], g.vertex_labels[v]] for u, v in o.arcs
                ],
            }
        )
    return {
        "order": _edge_labels(g, order),
        "sink": g.vertex_labels[sink],
        "count": len(bases),
        "bases": rows,
    }


def cmd_bijection_check(args, g):
    _require_simple(g)
    orders = bonds.edge_orders(g, 3, random.Random(args.seed))
    failures, _, n_bases = bonds.check_nbc_dictionaries(g, orders)
    return {
        "seed": args.seed,
        "orders": len(orders),
        "nbc_bases": n_bases,
        "ok": not failures,
        "failures": sorted(set(failures)),
    }


def cmd_chromatic(args, g):
    _require_simple(g)
    # the Whitney route meets the cycle-enumeration cap before any work, so
    # the independent-set count runs only on graphs that pass it
    whitney = bonds.chromatic_polynomial_whitney(g)
    p = bonds.chromatic_polynomial(g)
    return {
        "chromatic": _poly(p),
        "chromatic_text": str(p),
        "routes_agree": p == whitney,
    }


def cmd_pyramids(args, g):
    _require_simple(g)
    if g.n > heaps.PYRAMID_PIECE_CAP:
        raise CapExceededError(f"pyramids are listed up to {heaps.PYRAMID_PIECE_CAP} pieces")
    ps = heaps.PieceSystem(g)
    piece = _resolve_vertex(g, args.piece) if args.piece else 0
    pyramids = heaps.full_pyramids(ps, piece)
    rows = []
    for pyr in pyramids:
        rows.append(
            {
                "elements": [g.vertex_labels[x] for x in pyr.elements],
                "covers": [
                    [g.vertex_labels[a], g.vertex_labels[b]] for a, b in pyr.covers()
                ],
                "labels": {
                    g.vertex_labels[x]: g.vertex_labels[pyr.labels[x]]
                    for x in pyr.elements
                },
            }
        )
    return {"piece": g.vertex_labels[piece], "count": len(pyramids), "pyramids": rows}


def cmd_charpoly(args, g):
    _require_simple(g)
    method = args.method or "all"
    # each route with its vertex cap, in the order the routes run
    routes = {
        "det": (veblen.charpoly_determinant_oracle, CHARPOLY_DET_VERTEX_CAP),
        "hs": (veblen.hs_characteristic_polynomial, veblen.HOST_VERTEX_CAP),
        "elementary": (veblen.elementary_subgraph_formula, CHARPOLY_ELEMENTARY_VERTEX_CAP),
    }
    if method != "all":
        routes = {method: routes[method]}
    for name, (_, cap) in routes.items():
        if g.n > cap:
            raise CapExceededError(f"charpoly route {name!r} capped at {cap} vertices")
    values = {name: route(g) for name, (route, _) in routes.items()}
    out = {"method": method}
    for name, poly in values.items():
        out[name] = _poly(poly)
    out["text"] = str(next(iter(values.values())))
    if len(values) > 1:
        out["agree"] = len({tuple(p.coeffs) for p in values.values()}) == 1
    return out


def cmd_weight(args, g):
    if g.directed:
        raise ValueError("weights need an undirected multigraph file")
    if not veblen.is_veblen(g):
        raise ValueError("weights need every vertex degree even")
    if g.m > WEIGHT_EDGE_CAP:
        raise CapExceededError(f"weights are computed up to {WEIGHT_EDGE_CAP} edges")
    value = veblen.weight(g, args.n)
    connected = g.edge_support_connected()
    return {
        "n": args.n,
        "weight": str(value),
        "weight_fraction": [value.numerator, value.denominator],
        "connected": connected,
        "decomposable": veblen.is_decomposable(g) if connected else None,
    }


def cmd_verify(args, _g=None):
    if args.max_edges <= 0 or args.max_vertices <= 0:
        raise ValueError("size caps must be positive")
    config = VerifyConfig(
        max_edges=args.max_edges,
        max_vertices=args.max_vertices,
        oracle_edges=10 if args.max_edges >= 8 else args.max_edges,
        seed=args.seed,
    )
    status, report = run_verification_suite(config)
    return report, status


def _json_scalar(value):
    """A non-container JSON value as ``json.dumps`` writes it."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(value):
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte.

    With ``indent`` set, ``json.dumps`` takes the stdlib's pure-Python
    encoder; this one walk writes the same text into one list, with every
    string through the stdlib's C string encoder and every dict in sorted
    key order.  A non-string key is written as its scalar text in quotes,
    as ``json.dumps`` does; any non-JSON value raises TypeError."""
    parts = []
    put = parts.append
    quote = json.encoder.encode_basestring_ascii

    def walk(v, pad):
        if isinstance(v, str):
            put(quote(v))
        elif isinstance(v, dict):
            inner = pad + "  "
            sep = "{" + inner
            for key, item in sorted(v.items()):
                put(sep)
                put(quote(key if isinstance(key, str) else _json_scalar(key)))
                put(": ")
                walk(item, inner)
                sep = "," + inner
            put(pad + "}" if v else "{}")
        elif isinstance(v, (list, tuple)):
            inner = pad + "  "
            sep = "[" + inner
            for item in v:
                put(sep)
                walk(item, inner)
                sep = "," + inner
            put(pad + "]" if v else "[]")
        else:
            put(_json_scalar(v))

    walk(value, "\n")
    return "".join(parts)


def _render_text(payload, out):
    """Stable plain-text rendering: sorted keys, one line per scalar."""

    def walk(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}{key}.", value[key])
        elif isinstance(value, list):
            out.write(f"{prefix[:-1]} = {json.dumps(value, sort_keys=True)}\n")
        else:
            out.write(f"{prefix[:-1]} = {value}\n")

    walk("", payload)


COMMANDS = {
    "circuits": (cmd_circuits, True),
    "martin": (cmd_martin, True),
    "cancellation": (cmd_cancellation, True),
    "identity": (cmd_identity, True),
    "lattice-dump": (cmd_lattice_dump, True),
    "nbc": (cmd_nbc, True),
    "bijection-check": (cmd_bijection_check, True),
    "chromatic": (cmd_chromatic, True),
    "pyramids": (cmd_pyramids, True),
    "charpoly": (cmd_charpoly, True),
    "weight": (cmd_weight, True),
    "verify": (cmd_verify, False),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eulerpart",
        description="Exact circuit-partition invariants of Eulerian digraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs_file) in COMMANDS.items():
        p = sub.add_parser(name)
        if needs_file:
            p.add_argument("file", help="graph file (text format)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=0)
        if name == "verify":
            p.add_argument("--max-edges", type=int, default=8)
            p.add_argument("--max-vertices", type=int, default=6)
        if name == "nbc":
            p.add_argument("--order", help="comma-separated edge labels")
            p.add_argument("--sink", help="vertex label")
        if name == "pyramids":
            p.add_argument("--piece", help="vertex label of the maximal piece")
        if name == "charpoly":
            p.add_argument(
                "--method", choices=("hs", "elementary", "det", "all"), default="all"
            )
        if name == "weight":
            p.add_argument("-n", type=int, default=0)
    return parser


@functools.cache
def _parser():
    """The parser, built on the first call: building it costs more than
    serving a small request, and in-process callers make many."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    handler, needs_file = COMMANDS[args.command]
    try:
        if needs_file:
            graph = parse_graph_file(args.file)
            payload = handler(args, graph)
            status = 0
        else:
            payload, status = handler(args)
    except (ValueError, CapExceededError, OSError) as err:
        # parse, Eulerian and insertion errors are ValueErrors
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        # trail and cycle enumeration recurse once per arc
        print("error: input too deep: the recursion limit was exceeded", file=sys.stderr)
        return 2
    envelope = {"schema": SCHEMA, "command": args.command, "seed": args.seed}
    if needs_file:
        envelope["input"] = args.file
    envelope["result"] = payload
    if args.format == "json":
        print(_json_text(envelope))
    else:
        _render_text(envelope, sys.stdout)
    return status


if __name__ == "__main__":
    sys.exit(main())
