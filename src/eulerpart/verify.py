"""The built-in verification corpus runner.

Each check sweeps an exhaustive small-instance corpus (one representative
per isomorphism class; every verified quantity is isomorphism-invariant).
A check is a name plus a generator of cases: it yields ``(witness, ok)``
per case, or ``(witness, ok, count)`` where a library routine counts its
own comparisons or a test spans the cases before it (count 0).  One runner,
``_check``, counts the cases, decides the verdict and lists up to three
distinct failing witnesses in the graph text format, so that the matching
subcommand replays each one.  The CLI `verify` subcommand runs all of them
and exits nonzero on any failure; the acceptance test suite calls the same
functions criterion by criterion.

Every check starts from empty process stores (``clear_process_stores``:
the Harary-Sachs component classes and the NBC rank table), so a fault
planted below a store after a warm run is called.  The semilattice keeps
its block counts for one call only.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import asdict, dataclass
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

WITNESSES = 3  # failing inputs kept per check


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
    details: dict


def clear_process_stores():
    """Empty the two caches that outlive a call, each of which holds the
    values of the routines below it: the component classes and the rank
    table."""
    veblen._COMPONENT_CLASSES.reset(None)
    bonds.clear_rank_table()


def _check(name):
    """Turn a generator of cases into a check named ``name``.

    The check empties the process stores, sums the case counts into
    ``checked``, passes when every case does, and keeps the first distinct
    failing witnesses as ``details["failures"]``: a graph is kept in the
    graph text format, a dict as it is.  The name stays on the check for a
    capped run.
    """

    def wrap(cases):
        @functools.wraps(cases)
        def run(config):
            clear_process_stores()
            ok, checked, failures = True, 0, []
            for witness, case_ok, *count in cases(config):
                checked += count[0] if count else 1
                if not case_ok:
                    ok = False
                    if len(failures) < WITNESSES:
                        if not isinstance(witness, dict):
                            witness = format_graph(witness)
                        if witness not in failures:
                            failures.append(witness)
            return CheckResult(name, ok, checked, {"failures": failures})

        run.name = name
        return run

    return wrap


def _rng(config, name):
    return random.Random(f"{config.seed}:{name}")


def _digraphs(config):
    return corpus.eulerian_digraph_corpus(config.max_edges)


def _graphs(config):
    return corpus.connected_simple_graphs(config.max_vertices)


def _veblens(config):
    return corpus.veblen_corpus(config.veblen_edges, config.host_vertices)


# -- graph-core -------------------------------------------------------------


@_check("orientation-class-sizes")
def check_orientation_class_sizes(config):
    hosts = [x.underlying_multigraph() if x.directed else x for x in _veblens(config)]
    for host in hosts:
        if host.m > 6:
            continue  # 2^m orientations; keep the sweep quick
        groups = {}
        split = True
        for o in orientations(host):
            for e in host.edges():
                u, v = host.pairs[e]
                if o.multiplicity(u, v) + o.multiplicity(v, u) != host.multiplicity(u, v):
                    split = False
            groups.setdefault(approx_class(o), []).append(o)
        yield host, (
            split
            and sum(len(g) for g in groups.values()) == 2**host.m
            and all(len(g) == approx_class_size(g[0], host) for g in groups.values())
        )


@_check("eulerian-balance")
def check_eulerian_balance(config):
    for d in _digraphs(config):
        yield d, is_eulerian(d) and all(d.out_degree(v) == d.in_degree(v) for v in range(d.n))


# -- trails-circuits ----------------------------------------------------------


@_check("trail-counts")
def check_trail_counts(config):
    for d in _digraphs(config):
        counts = [len(trails.eulerian_trails_ending_at(d, e)) for e in d.edges()]
        circuits = len(trails.eulerian_circuits(d))
        # closed trails based at a vertex: one per circuit per out-arc
        yield d, set(counts) == {circuits} and all(
            sum(counts[e] for e in d.edges() if d.head(e) == u) == circuits * d.out_degree(u)
            for u in range(d.n)
        )


@_check("cycle-sequence-round-trip")
def check_cycle_sequence_round_trip(config):
    for d in _digraphs(config):
        for w in trails.eulerian_trails_ending_at(d, min(d.edges())):
            yield d, trails.reassemble(trails.cycle_sequence(w)) == w


@_check("circuit-count-oracle")
def check_best_oracle(config):
    for d in corpus.eulerian_digraph_corpus(max(config.oracle_edges, config.max_edges)):
        yield d, len(trails.eulerian_circuits(d)) == trails.count_circuits_best(d)


# -- partition-lattice --------------------------------------------------------


@_check("cancellation")
def check_cancellation(config):
    for d in _digraphs(config):
        report = lattice.verify_cancellation(d, lattice.semilattice_partition_counts(d))
        expected = -1 if report.is_single_cycle else 0
        yield d, report.alternating_sum == expected and report.holds


@_check("downset-sums-and-mobius-inversion")
def check_g_vanishing_and_mobius(config):
    for d in _digraphs(config):
        lat = lattice.build_eulerian_semilattice(d)
        top = lat.top()
        minimal = set(lat.minimal)
        vanishing = all(
            lat.downset_sum(b) == ((-1) ** len(b) if b in minimal else 0) for b in lat.elements
        )
        inverted = sum(lat.mobius(b, top) * lat.downset_sum(b) for b in lat.elements)
        yield d, vanishing and inverted == lat.signed_product(top)


@_check("join-closure")
def check_join_closure(config):
    for d in _digraphs(config):
        parts = set(lattice.eulerian_parts(d))
        for a in parts:
            for b in parts:
                yield d, a.join(b) in parts


@_check("lattice-vs-bell-filter")
def check_lattice_vs_bell_filter(config):
    for d in _digraphs(config):
        if d.m > 6:
            continue
        parts = set(lattice.eulerian_parts(d))
        brute = {
            b for b in all_set_partitions(range(d.m)) if lattice.signed_circuit_product(d, b) != 0
        }
        yield d, parts == brute


@_check("martin-evaluations")
def check_martin_evaluations(config):
    for d in _digraphs(config):
        f = lattice.semilattice_partition_counts(d)
        polys = lattice.martin_polynomial(d, f)
        delta = max(d.out_degree(v) for v in range(d.n))
        yield d, (
            polys.r(0) == 0
            and polys.s(2) == out_degree_factorial_product(d)
            and polys.s(1) == polys.f[0]
            and (delta < 2 or lattice.martin_divisibility(d, f).divisible)
        )


@_check("martin-chromatic-identity")
def check_martin_chromatic_identity(config):
    """Both identities on the semilattice's polynomials: s against the bond
    lattices of the intersection graphs, and r against the chromatic
    route's f_k."""
    for d in _digraphs(config):
        report = lattice.martin_chromatic_identity(d)
        yield d, report.holds and report.r_identity_holds


@_check("counts-vs-direct-enumeration")
def check_counts_vs_direct_enumeration(config):
    """f_k from the semilattice against a raw sweep of set partitions."""
    for d in _digraphs(config):
        if d.m > 6:
            continue
        totals = {}
        for b in all_set_partitions(range(d.m)):
            value = lattice.signed_circuit_product(d, b)
            if value:
                totals[len(b)] = totals.get(len(b), 0) + (-1) ** len(b) * value
        f = lattice.semilattice_partition_counts(d)
        yield d, totals == {k: fk for k, fk in enumerate(f, start=1) if fk}


# -- bond-nbc -----------------------------------------------------------------


@_check("nbc-bijection-suite")
def check_bijection_suite(config):
    rng = _rng(config, "bijection")
    for g in _graphs(config):
        if g.n >= 2:
            orders = bonds.edge_orders(g, config.orders_per_graph, rng)
            found, count, _ = bonds.check_nbc_dictionaries(g, orders)
            yield g, not found, count


@_check("rota-nbc-theorem")
def check_rota(config):
    rng = _rng(config, "rota")
    for g in _graphs(config):
        lat = bonds.BondLattice(g)
        for order in bonds.edge_orders(g, config.orders_per_graph, rng):
            report = bonds.rota_check(lat, order)
            yield g, report.ok, report.checked


@_check("chromatic-two-routes")
def check_chromatic_routes(config):
    rng = _rng(config, "chromatic")
    t = IntPoly.t()
    for g in _graphs(config):
        chrom = bonds.chromatic_polynomial(g)
        order = bonds.edge_orders(g, config.orders_per_graph, rng)[-1]
        yield g, (
            chrom == bonds.chromatic_polynomial_whitney(g, order)
            and t * bonds.BondLattice(g).characteristic_polynomial() == chrom
        )


@_check("orientation-count-pattern")
def check_orientation_count_pattern(config):
    for g in _graphs(config):
        if g.n >= 2:
            report = bonds.orientation_counts_vs_chromatic(g)
            yield g, (
                report.total_matches_value_at_minus_one
                and report.unique_sink_matches_linear_coefficient
            )


@_check("downset-product-law")
def check_downset_product_law(config):
    lattices = {}  # (n, pairs) -> its bond lattice, built once per run

    def bond_lattice(h):
        key = h.n, h.pairs
        if key not in lattices:
            lattices[key] = bonds.BondLattice(h)
        return lattices[key]

    for g in _graphs(config):
        if g.n > 5:
            continue
        lat = bond_lattice(g)
        bottom = lat.bottom()
        for b in lat.elements:
            product = 1
            for block in b.blocks:
                sub_lat = bond_lattice(_induced_subgraph(g, block))
                product *= sub_lat.mobius(sub_lat.bottom(), sub_lat.top())
            yield g, lat.mobius(bottom, b) == product


def _induced_subgraph(g, block):
    block = sorted(block)
    index = {v: i for i, v in enumerate(block)}
    pairs = [(index[u], index[v]) for u, v in g.pairs if u in index and v in index]
    return Multigraph(len(block), pairs)


# -- heaps ---------------------------------------------------------------------


def _piece_systems(config):
    out = []
    for d in _digraphs(config):
        for a in trails.cycle_partitions(d):
            out.append((d, a, PieceSystem(trails.intersection_graph(d, a))))
    return out


@_check("heap-axioms-vs-sandwich")
def check_heap_axioms_vs_sandwich(config):
    rng = _rng(config, "heaps")
    for d, a, ps in _piece_systems(config):
        if ps.k > 4:
            continue
        elements = tuple(range(ps.k))
        for _ in range(10):
            pairs = [
                (x, y) if rng.random() < 0.5 else (y, x)
                for x, y in itertools.combinations(elements, 2)
                if rng.random() < 0.5
            ]
            try:
                heap = Heap(elements, pairs)
            except ValueError:
                continue
            yield d, heaps.is_heap(ps, heap)[0] == heaps.sandwich_check(ps, heap)


@_check("heap-monoid-laws")
def check_heap_monoid_laws(config):
    rng = _rng(config, "monoid")
    for d, a, ps in _piece_systems(config):
        if ps.k < 3 or ps.k > 5:
            continue
        pieces = list(range(ps.k))
        for _ in range(5):
            h1, h2, h3 = (Heap.singleton(p) for p in rng.sample(pieces, 3))
            left = heaps.compose(ps, heaps.compose(ps, h1, h2), h3)
            right = heaps.compose(ps, h1, heaps.compose(ps, h2, h3))
            yield d, left == right and heaps.compose(ps, Heap.empty(), h1) == h1


@_check("pyramid-balance-and-mobius")
def check_pyramid_balance_and_mobius(config):
    for d, a, ps in _piece_systems(config):
        counts = [heaps.count_full_pyramids(ps, beta) for beta in ps.pieces()]
        lat = bonds.BondLattice(ps.graph)
        mu = lat.mobius(lat.bottom(), lat.top())
        yield d, len(set(counts)) == 1 and mu == (-1) ** (1 - ps.k) * counts[0]


@_check("pyramid-split-identity")
def check_pyramid_split_identity(config):
    for d, a, ps in _piece_systems(config):
        for b1 in ps.pieces():
            for b2 in ps.neighbors(b1):
                if b1 < b2:
                    lhs, rhs, _ = heaps.pyramid_split_identity(ps, b1, b2)
                    yield d, lhs == rhs


@_check("trail-fibers-vs-pyramids")
def check_trail_fibers_vs_pyramids(config):
    for d in _digraphs(config):
        e0 = min(d.edges())
        total = 0
        for a, ps, beta, pyramids in heaps.decomposition_pyramids(d, e0):
            fiber = trails.trails_with_cycle_partition(d, e0, a)
            yield d, len(fiber) == len(pyramids)
            total += len(pyramids)
        yield d, total == len(trails.eulerian_trails_ending_at(d, e0)), 0


@_check("trail-pyramid-round-trip")
def check_trail_pyramid_round_trip(config):
    for d in _digraphs(config):
        e0 = min(d.edges())
        seen = set()
        for w in trails.eulerian_trails_ending_at(d, e0):
            a, ps, pyramid = heaps.trail_to_pyramid(d, w)
            key = (a, pyramid.relation())
            fresh = key not in seen
            seen.add(key)
            yield d, fresh and heaps.pyramid_to_trail(d, a, pyramid, e0) == w


@_check("pyramid-orientation-round-trip")
def check_pyramid_orientation_round_trip(config):
    for d, a, ps in _piece_systems(config):
        for beta in ps.pieces():
            for pyr in heaps.full_pyramids(ps, beta):
                o = heaps.pyramid_to_orientation(ps, pyr)
                yield d, heaps.orientation_to_pyramid(ps, o) == pyr and bonds.sinks(o) == [beta]


# -- harary-sachs ----------------------------------------------------------------


@_check("charpoly-three-routes")
def check_charpoly_three_routes(config):
    """Each failure names the route and gives the host in the graph text
    format, so that ``eulerpart charpoly`` can replay it."""
    for host in corpus.spot_hosts(7):
        det = veblen.charpoly_determinant_oracle(host)
        text = format_graph(host)
        yield {"route": "hs", "host": text}, veblen.hs_characteristic_polynomial(host) == det
        yield {"route": "elementary", "host": text}, (
            veblen.elementary_subgraph_formula(host) == det
        ), 0


@_check("weight-vanishes-decomposable")
def check_weight_vanishes_on_decomposables(config):
    for x in _veblens(config):
        if veblen.is_decomposable(x):
            yield x, veblen.weight(x) == 0


@_check("associated-coefficient-routes")
def check_associated_coefficient_routes(config):
    for x in _veblens(config):
        yield x, veblen.associated_coefficient(x) == veblen.associated_coefficient_via_rootings(x)


@_check("rooting-class-sizes")
def check_rooting_class_sizes(config):
    for x in _veblens(config):
        if x.m > 6:
            continue
        for rep, size in veblen.rooting_class_sizes(x):
            yield x, size == veblen.count_rooting_tuples(rep)


@_check("orientation-circuit-partitions")
def check_orientation_circuit_partitions(config):
    for d in _digraphs(config):
        if d.m > 6:
            continue
        f = lattice.semilattice_partition_counts(d)
        for t, ft in enumerate(f, start=1):
            yield d, veblen.circuit_partitions_of_orientation(d, t) == ft


@_check("weight-multiplicative")
def check_weight_multiplicative(config):
    """weight(A + B) = weight(A) weight(B) for B on fresh vertices, over
    every unordered pair of small members: the property by which
    hs_characteristic_polynomial weighs components instead of infragraphs.
    The witness is the union A + B."""
    sample = [x for x in _veblens(config) if x.m <= 5]
    for a, b in itertools.combinations_with_replacement(sample, 2):
        union = veblen.VeblenMultigraph(
            a.n + b.n, list(a.pairs) + [(u + a.n, v + a.n) for u, v in b.pairs]
        )
        yield union, veblen.weight(union) == veblen.weight(a) * veblen.weight(b)


@_check("weight-via-cancellation")
def check_weight_via_cancellation(config):
    """The paper's deduction of the rank-2 Harary-Sachs weights:
    weight(X) = (-1)^c(X) / M_X * sum over the balanced orientations o of
    X of sum_k (-1)^k f_k(o), with f_k from the semilattice.  By the
    cancellation each inner sum vanishes unless o is one directed cycle.
    Only the compared value comes from ``weight``; no decomposition is
    enumerated."""
    for x in _veblens(config):
        alternating = {}  # arc multiset -> sum_k (-1)^k f_k
        total = 0
        for o in orientations(x):
            if not o.is_balanced():
                continue
            arcs = tuple(sorted(o.arcs))
            if arcs not in alternating:
                f = lattice.semilattice_partition_counts(o)
                alternating[arcs] = sum((-1) ** k * fk for k, fk in enumerate(f, start=1))
            total += alternating[arcs]
        expected = Fraction((-1) ** x.component_count() * total, parallel_factorial_product(x))
        yield x, veblen.weight(x) == expected


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

    Size-cap violations are reported per check, under the check's name,
    but do not fail the run.  A check that raises anything else fails, with
    the exception's type and text as ``details["error"]``, and the run goes
    on.
    """
    config = config or VerifyConfig()
    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check(config))
        except CapExceededError as err:
            results.append(CheckResult(check.name, True, 0, {"capped": str(err)}))
        except Exception as err:
            error = f"{type(err).__name__}: {err}"
            results.append(CheckResult(check.name, False, 0, {"error": error}))
    ok = all(r.ok for r in results)
    settings = asdict(config)
    report = {
        "schema": 1,
        "seed": settings.pop("seed"),
        "config": settings,
        "checks": [asdict(r) for r in results],
        "ok": ok,
    }
    return (0 if ok else 1), report
