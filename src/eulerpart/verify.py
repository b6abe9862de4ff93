"""The built-in verification corpus runner.

Each check sweeps an exhaustive small-instance corpus (one representative
per isomorphism class; every verified quantity is isomorphism-invariant)
and returns a CheckResult.  The CLI `verify` subcommand runs all of them
and exits nonzero on any failure; the acceptance test suite calls the same
functions criterion by criterion.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from eulerpart import bonds, corpus, heaps, lattice, trails, veblen
from eulerpart.errors import CapExceededError
from eulerpart.graphs import (
    Multigraph,
    approx_class,
    approx_class_size,
    format_graph,
    is_eulerian,
    orientations,
    out_degree_factorial_product,
    parallel_factorial_product,
)
from eulerpart.heaps import Heap, PieceSystem
from eulerpart.partition import all_set_partitions
from eulerpart.poly import IntPoly


@dataclass(frozen=True)
class VerifyConfig:
    max_edges: int = 8  # Eulerian digraph corpus
    max_vertices: int = 6  # connected simple graph corpus
    veblen_edges: int = 8
    host_vertices: int = 5
    oracle_edges: int = 10  # circuit-count oracle sweeps slightly further
    orders_per_graph: int = 3
    seed: int = 0


@dataclass
class CheckResult:
    name: str
    ok: bool
    checked: int
    details: dict = field(default_factory=dict)

    def as_json(self):
        return {
            "name": self.name,
            "ok": self.ok,
            "checked": self.checked,
            "details": self.details,
        }


def _rng(config, name):
    return random.Random(f"{config.seed}:{name}")


def _digraphs(config):
    return corpus.eulerian_digraph_corpus(config.max_edges)


def _graphs(config):
    return corpus.connected_simple_graphs(config.max_vertices)


def _veblens(config):
    return corpus.veblen_corpus(config.veblen_edges, config.host_vertices)


# -- graph-core -------------------------------------------------------------


def check_orientation_class_sizes(config):
    hosts = [x.underlying_multigraph() if x.directed else x for x in _veblens(config)]
    failures = []
    checked = 0
    for host in hosts:
        if host.m > 6:
            continue  # 2^m orientations; keep the sweep quick
        groups = {}
        for o in orientations(host):
            for e in host.edges():
                u, v = sorted(host.pairs[e])
                if o.multiplicity(u, v) + o.multiplicity(v, u) != host.multiplicity(u, v):
                    failures.append(("multiplicity-split", host.pairs))
            groups.setdefault(approx_class(o), []).append(o)
        checked += 1
        if sum(len(g) for g in groups.values()) != 2**host.m:
            failures.append(("class-sizes-sum", host.pairs))
        for members in groups.values():
            if len(members) != approx_class_size(members[0], host):
                failures.append(("class-size-formula", host.pairs))
    return CheckResult("orientation-class-sizes", not failures, checked, {"failures": len(failures)})


def check_eulerian_balance(config):
    bad = 0
    digraphs = _digraphs(config)
    for d in digraphs:
        if not is_eulerian(d):
            bad += 1
        if any(d.out_degree(v) != d.in_degree(v) for v in range(d.n)):
            bad += 1
    return CheckResult("eulerian-balance", bad == 0, len(digraphs), {})


# -- trails-circuits ----------------------------------------------------------


def check_trail_counts(config):
    failures = 0
    checked = 0
    for d in _digraphs(config):
        counts = [len(trails.eulerian_trails_ending_at(d, e)) for e in d.edges()]
        circuits = len(trails.eulerian_circuits(d))
        checked += 1
        if len(set(counts)) != 1 or counts[0] != circuits:
            failures += 1
        # closed trails based at a vertex: one per circuit per out-arc
        for u in range(d.n):
            at_u = sum(counts[e] for e in d.edges() if d.head(e) == u)
            if at_u != circuits * d.out_degree(u):
                failures += 1
    return CheckResult("trail-counts", failures == 0, checked, {})


def check_cycle_sequence_round_trip(config):
    failures = 0
    checked = 0
    for d in _digraphs(config):
        e0 = min(d.edges())
        for w in trails.eulerian_trails_ending_at(d, e0):
            checked += 1
            if trails.reassemble(trails.cycle_sequence(w)) != w:
                failures += 1
    return CheckResult("cycle-sequence-round-trip", failures == 0, checked, {})


def check_best_oracle(config):
    failures = []
    digraphs = corpus.eulerian_digraph_corpus(max(config.oracle_edges, config.max_edges))
    for d in digraphs:
        if len(trails.eulerian_circuits(d)) != trails.count_circuits_best(d):
            failures.append(d.arcs)
    return CheckResult(
        "circuit-count-oracle", not failures, len(digraphs), {"failures": failures[:3]}
    )


# -- partition-lattice --------------------------------------------------------


def check_cancellation(config):
    failures = []
    digraphs = _digraphs(config)
    for d in digraphs:
        report = lattice.verify_cancellation(d)
        expected = -1 if report.is_single_cycle else 0
        if report.alternating_sum != expected or not report.holds:
            failures.append(d.arcs)
    return CheckResult(
        "cancellation", not failures, len(digraphs), {"failures": failures[:3]}
    )


def check_g_vanishing_and_mobius(config):
    failures = 0
    checked = 0
    for d in _digraphs(config):
        lat = lattice.build_eulerian_semilattice(d)
        top = lat.top()
        checked += 1
        minimal = set(lat.minimal)
        for b in lat.elements:
            if b in minimal:
                if lat.downset_sum(b) != (-1) ** len(b):
                    failures += 1
            elif lat.downset_sum(b) != 0:
                failures += 1
        inverted = sum(lat.mobius(b, top) * lat.downset_sum(b) for b in lat.elements)
        if inverted != lat.signed_product(top):
            failures += 1
    return CheckResult("downset-sums-and-mobius-inversion", failures == 0, checked, {})


def check_join_closure(config):
    failures = 0
    checked = 0
    for d in _digraphs(config):
        parts = set(lattice.eulerian_parts(d, trails.cycle_partitions(d)))
        for a in parts:
            for b in parts:
                checked += 1
                if a.join(b) not in parts:
                    failures += 1
    return CheckResult("join-closure", failures == 0, checked, {})


def check_lattice_vs_bell_filter(config):
    failures = 0
    checked = 0
    for d in _digraphs(config):
        if d.m > 6:
            continue
        parts = set(lattice.eulerian_parts(d, trails.cycle_partitions(d)))
        brute = {
            b for b in all_set_partitions(range(d.m)) if lattice.signed_circuit_product(d, b) != 0
        }
        checked += 1
        if parts != brute:
            failures += 1
    return CheckResult("lattice-vs-bell-filter", failures == 0, checked, {})


def check_martin_evaluations(config):
    failures = 0
    checked = 0
    for d in _digraphs(config):
        polys = lattice.martin_polynomial(d)
        checked += 1
        if (
            polys.r(0) != 0
            or polys.s(2) != out_degree_factorial_product(d)
            or polys.s(1) != polys.f[0]
        ):
            failures += 1
        delta = max(d.out_degree(v) for v in range(d.n))
        if delta >= 2 and not lattice.martin_divisibility(d).divisible:
            failures += 1
    return CheckResult("martin-evaluations", failures == 0, checked, {})


def check_martin_chromatic_identity(config):
    failures = []
    digraphs = _digraphs(config)
    for d in digraphs:
        report = lattice.martin_chromatic_identity(d)
        if not (report.holds and report.r_identity_holds):
            failures.append(d.arcs)
    return CheckResult(
        "martin-chromatic-identity", not failures, len(digraphs), {"failures": failures[:3]}
    )


def check_counts_vs_direct_enumeration(config):
    """f_k from the semilattice against a raw sweep of set partitions."""
    failures = 0
    checked = 0
    for d in _digraphs(config):
        if d.m > 6:
            continue
        totals = {}
        for b in all_set_partitions(range(d.m)):
            value = lattice.signed_circuit_product(d, b)
            if value:
                totals[len(b)] = totals.get(len(b), 0) + (-1) ** len(b) * value
        f = lattice.circuit_partition_counts(d)
        checked += 1
        if totals != {k: fk for k, fk in enumerate(f, start=1) if fk}:
            failures += 1
    return CheckResult("counts-vs-direct-enumeration", failures == 0, checked, {})


# -- bond-nbc -----------------------------------------------------------------


def check_bijection_suite(config):
    rng = _rng(config, "bijection")
    failures = 0
    graphs = [g for g in _graphs(config) if g.n >= 2]
    checked = 0
    for g in graphs:
        orders = bonds.edge_orders(g, config.orders_per_graph, rng)
        found, count, _ = bonds.check_nbc_dictionaries(g, orders)
        failures += len(found)
        checked += count
    return CheckResult("nbc-bijection-suite", failures == 0, checked, {"graphs": len(graphs)})


def check_rota(config):
    rng = _rng(config, "rota")
    failures = 0
    checked = 0
    for g in _graphs(config):
        lat = bonds.BondLattice(g)
        for order in bonds.edge_orders(g, config.orders_per_graph, rng):
            report = bonds.rota_check(lat, order)
            checked += report.checked
            if not report.ok:
                failures += 1
    return CheckResult("rota-nbc-theorem", failures == 0, checked, {})


def check_chromatic_routes(config):
    rng = _rng(config, "chromatic")
    t = IntPoly.t()
    failures = 0
    checked = 0
    for g in _graphs(config):
        chrom = bonds.chromatic_polynomial(g)
        order = bonds.edge_orders(g, config.orders_per_graph, rng)[-1]
        checked += 1
        if chrom != bonds.chromatic_polynomial_whitney(g, order):
            failures += 1
        lat = bonds.BondLattice(g)
        if t * lat.characteristic_polynomial() != chrom:
            failures += 1
    return CheckResult("chromatic-two-routes", failures == 0, checked, {})


def check_orientation_count_pattern(config):
    failures = 0
    graphs = [g for g in _graphs(config) if g.n >= 2]
    for g in graphs:
        report = bonds.orientation_counts_vs_chromatic(g)
        if not report.total_matches_value_at_minus_one:
            failures += 1
        if not report.unique_sink_matches_linear_coefficient:
            failures += 1
    return CheckResult("orientation-count-pattern", failures == 0, len(graphs), {})


def check_downset_product_law(config):
    failures = 0
    checked = 0
    for g in _graphs(config):
        if g.n > 5:
            continue
        lat = bonds.BondLattice(g)
        bottom = lat.bottom()
        for b in lat.elements:
            product = 1
            for block in b.blocks:
                sub = _induced_subgraph(g, block)
                sub_lat = bonds.BondLattice(sub)
                product *= sub_lat.mobius(sub_lat.bottom(), sub_lat.top())
            checked += 1
            if lat.mobius(bottom, b) != product:
                failures += 1
    return CheckResult("downset-product-law", failures == 0, checked, {})


def _induced_subgraph(g, block):
    block = sorted(block)
    index = {v: i for i, v in enumerate(block)}
    pairs = [
        tuple(sorted((index[u], index[v])))
        for u, v in (sorted(p) for p in g.pairs)
        if u in index and v in index
    ]
    return Multigraph(len(block), pairs)


# -- heaps ---------------------------------------------------------------------


def _piece_systems(config):
    out = []
    for d in _digraphs(config):
        for a in trails.cycle_partitions(d):
            out.append((d, a, PieceSystem.from_cycle_partition(d, a)))
    return out


def check_heap_axioms_vs_sandwich(config):
    rng = _rng(config, "heaps")
    failures = 0
    checked = 0
    for d, a, ps in _piece_systems(config):
        if ps.k > 4:
            continue
        elements = tuple(range(ps.k))
        for _ in range(10):
            pairs = []
            for x in elements:
                for y in elements:
                    if x < y and rng.random() < 0.5:
                        pairs.append((x, y) if rng.random() < 0.5 else (y, x))
            try:
                heap = Heap(elements, pairs)
            except ValueError:
                continue
            checked += 1
            if heaps.is_heap(ps, heap)[0] != heaps.sandwich_check(ps, heap):
                failures += 1
    return CheckResult("heap-axioms-vs-sandwich", failures == 0, checked, {})


def check_heap_monoid_laws(config):
    rng = _rng(config, "monoid")
    failures = 0
    checked = 0
    for d, a, ps in _piece_systems(config):
        if ps.k < 3 or ps.k > 5:
            continue
        pieces = list(range(ps.k))
        for _ in range(5):
            chosen = rng.sample(pieces, 3)
            h1, h2, h3 = (Heap.singleton(p) for p in chosen)
            left = heaps.compose(ps, heaps.compose(ps, h1, h2), h3)
            right = heaps.compose(ps, h1, heaps.compose(ps, h2, h3))
            checked += 1
            if left != right:
                failures += 1
            if heaps.compose(ps, Heap.empty(), h1) != h1:
                failures += 1
    return CheckResult("heap-monoid-laws", failures == 0, checked, {})


def check_pyramid_balance_and_mobius(config):
    failures = 0
    checked = 0
    for d, a, ps in _piece_systems(config):
        counts = [heaps.count_full_pyramids(ps, beta) for beta in ps.pieces()]
        checked += 1
        if len(set(counts)) != 1:
            failures += 1
        total = sum(counts)
        if total != ps.k * counts[0]:
            failures += 1
        lat = bonds.BondLattice(ps.graph)
        mu = lat.mobius(lat.bottom(), lat.top())
        if mu != (-1) ** (1 - ps.k) * counts[0]:
            failures += 1
    return CheckResult("pyramid-balance-and-mobius", failures == 0, checked, {})


def check_pyramid_split_identity(config):
    failures = 0
    checked = 0
    for d, a, ps in _piece_systems(config):
        for b1 in ps.pieces():
            for b2 in ps.neighbors(b1):
                if b1 < b2:
                    lhs, rhs, _ = heaps.pyramid_split_identity(ps, b1, b2)
                    checked += 1
                    if lhs != rhs:
                        failures += 1
    return CheckResult("pyramid-split-identity", failures == 0, checked, {})


def check_trail_fibers_vs_pyramids(config):
    failures = 0
    checked = 0
    for d in _digraphs(config):
        e0 = min(d.edges())
        total = 0
        for a, ps, beta, pyramids in heaps.decomposition_pyramids(d, e0):
            fiber = trails.trails_with_cycle_partition(d, e0, a)
            checked += 1
            if len(fiber) != len(pyramids):
                failures += 1
            total += len(pyramids)
        if total != len(trails.eulerian_trails_ending_at(d, e0)):
            failures += 1
    return CheckResult("trail-fibers-vs-pyramids", failures == 0, checked, {})


def check_trail_pyramid_round_trip(config):
    failures = 0
    checked = 0
    for d in _digraphs(config):
        e0 = min(d.edges())
        seen = set()
        for w in trails.eulerian_trails_ending_at(d, e0):
            a, ps, pyramid = heaps.trail_to_pyramid(d, w)
            key = (a, pyramid.relation())
            checked += 1
            if key in seen:
                failures += 1
            seen.add(key)
            if heaps.pyramid_to_trail(d, a, pyramid, e0) != w:
                failures += 1
    return CheckResult("trail-pyramid-round-trip", failures == 0, checked, {})


def check_pyramid_orientation_round_trip(config):
    failures = 0
    checked = 0
    for d, a, ps in _piece_systems(config):
        for beta in ps.pieces():
            for pyr in heaps.full_pyramids(ps, beta):
                o = heaps.pyramid_to_orientation(ps, pyr)
                checked += 1
                if heaps.orientation_to_pyramid(ps, o) != pyr:
                    failures += 1
                if bonds.sinks(o) != [beta]:
                    failures += 1
    return CheckResult("pyramid-orientation-round-trip", failures == 0, checked, {})


# -- harary-sachs ----------------------------------------------------------------


def check_charpoly_three_routes(config):
    """Each failure names the route and gives the host in the graph text
    format, so that ``eulerpart charpoly`` can replay it."""
    failures = []
    hosts = corpus.spot_hosts(7)
    for host in hosts:
        det = veblen.charpoly_determinant_oracle(host)
        if veblen.hs_characteristic_polynomial(host) != det:
            failures.append({"route": "hs", "host": format_graph(host)})
        if veblen.elementary_subgraph_formula(host) != det:
            failures.append({"route": "elementary", "host": format_graph(host)})
    return CheckResult(
        "charpoly-three-routes", not failures, len(hosts), {"failures": failures[:3]}
    )


def check_weight_vanishes_on_decomposables(config):
    failures = 0
    checked = 0
    for x in _veblens(config):
        if veblen.is_decomposable(x):
            checked += 1
            if veblen.weight(x) != 0:
                failures += 1
    return CheckResult("weight-vanishes-decomposable", failures == 0, checked, {})


def check_associated_coefficient_routes(config):
    failures = 0
    veblens = _veblens(config)
    for x in veblens:
        if veblen.associated_coefficient(x) != veblen.associated_coefficient_via_rootings(x):
            failures += 1
    return CheckResult("associated-coefficient-routes", failures == 0, len(veblens), {})


def check_rooting_class_sizes(config):
    failures = 0
    checked = 0
    for x in _veblens(config):
        if x.m > 6:
            continue
        for rep, size in veblen.rooting_class_sizes(x):
            checked += 1
            if size != veblen.count_rooting_tuples(rep):
                failures += 1
    return CheckResult("rooting-class-sizes", failures == 0, checked, {})


def check_orientation_circuit_partitions(config):
    failures = 0
    checked = 0
    for d in _digraphs(config):
        if d.m > 6:
            continue
        f = lattice.circuit_partition_counts(d)
        for t, ft in enumerate(f, start=1):
            checked += 1
            if veblen.circuit_partitions_of_orientation(d, t) != ft:
                failures += 1
    return CheckResult("orientation-circuit-partitions", failures == 0, checked, {})


def check_weight_multiplicative(config):
    """weight(A + B) = weight(A) weight(B) for B on fresh vertices, over
    every unordered pair of small members: the property by which
    hs_characteristic_polynomial weighs components instead of infragraphs."""
    failures = 0
    sample = [x for x in _veblens(config) if x.m <= 5]
    pairs = list(itertools.combinations_with_replacement(sample, 2))
    for a, b in pairs:
        union = veblen.VeblenMultigraph(
            a.n + b.n, list(a.pairs) + [(u + a.n, v + a.n) for u, v in b.pairs]
        )
        if veblen.weight(union) != veblen.weight(a) * veblen.weight(b):
            failures += 1
    return CheckResult("weight-multiplicative", failures == 0, len(pairs), {})


def check_weight_via_cancellation(config):
    """The paper's deduction of the rank-2 Harary-Sachs weights:
    weight(X) = (-1)^c(X) / M_X * sum over the balanced orientations o of
    X of sum_k (-1)^k f_k(o), with f_k from the semilattice.  By the
    cancellation each inner sum vanishes unless o is one directed cycle.
    Only the compared value comes from ``weight``; no decomposition is
    enumerated."""
    failures = 0
    veblens = _veblens(config)
    for x in veblens:
        alternating = {}  # arc multiset -> sum_k (-1)^k f_k
        total = 0
        for o in orientations(x):
            if not o.is_balanced():
                continue
            arcs = tuple(sorted(o.arcs))
            if arcs not in alternating:
                f = lattice.circuit_partition_counts(o)
                alternating[arcs] = sum((-1) ** k * fk for k, fk in enumerate(f, start=1))
            total += alternating[arcs]
        expected = Fraction((-1) ** x.component_count() * total, parallel_factorial_product(x))
        if veblen.weight(x) != expected:
            failures += 1
    return CheckResult("weight-via-cancellation", failures == 0, len(veblens), {})


ALL_CHECKS = [
    check_orientation_class_sizes,
    check_eulerian_balance,
    check_trail_counts,
    check_cycle_sequence_round_trip,
    check_best_oracle,
    check_cancellation,
    check_g_vanishing_and_mobius,
    check_join_closure,
    check_lattice_vs_bell_filter,
    check_martin_evaluations,
    check_martin_chromatic_identity,
    check_counts_vs_direct_enumeration,
    check_bijection_suite,
    check_rota,
    check_chromatic_routes,
    check_orientation_count_pattern,
    check_downset_product_law,
    check_heap_axioms_vs_sandwich,
    check_heap_monoid_laws,
    check_pyramid_balance_and_mobius,
    check_pyramid_split_identity,
    check_trail_fibers_vs_pyramids,
    check_trail_pyramid_round_trip,
    check_pyramid_orientation_round_trip,
    check_charpoly_three_routes,
    check_weight_vanishes_on_decomposables,
    check_associated_coefficient_routes,
    check_rooting_class_sizes,
    check_orientation_circuit_partitions,
    check_weight_multiplicative,
    check_weight_via_cancellation,
]


def run_verification_suite(config=None):
    """Run every corpus check; returns (exit_status, report dict).

    Size-cap violations are reported per check but do not fail the run.
    """
    config = config or VerifyConfig()
    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check(config))
        except CapExceededError as err:
            results.append(
                CheckResult(check.__name__, True, 0, {"capped": str(err)})
            )
    ok = all(r.ok for r in results)
    report = {
        "schema": 1,
        "seed": config.seed,
        "config": {
            "max_edges": config.max_edges,
            "max_vertices": config.max_vertices,
            "veblen_edges": config.veblen_edges,
            "host_vertices": config.host_vertices,
            "oracle_edges": config.oracle_edges,
            "orders_per_graph": config.orders_per_graph,
        },
        "checks": [r.as_json() for r in results],
        "ok": ok,
    }
    return (0 if ok else 1), report
