"""The layers the traced run wraps, the metrics each reports, and the
end-to-end metric each one should move.

A target is ``<module>.<name>`` or ``<module>.<Class>.<method>`` under the
``eulerpart`` package.  The tracer records ``calls`` and ``self_s`` for
every target; ``per_layer_metrics`` lists the ones the benchmark publishes.
"""

# (target, published metrics, end-to-end metric it should move, on which workload)
LAYERS = [
    # corpus: input generation, paid in set-up
    ("corpus.eulerian_digraph_corpus", ("self_s",), "setup_s on martin-sweep"),
    ("corpus.connected_simple_graphs", ("self_s",), "setup_s on nbc-bijection"),
    ("corpus.veblen_corpus", ("self_s",), "setup_s on harary-sachs"),
    # trails
    ("trails.count_eulerian_circuits", ("calls", "self_s", "distinct_ratio"),
     "run_s/op_tail_ms on martin-sweep; run_s on harary-sachs"),
    ("trails.cycle_partitions", ("calls", "self_s"), "run_s on martin-sweep"),
    ("trails.det_bareiss", ("calls", "self_s"),
     "run_s on martin-sweep; op_p50_ms on harary-sachs"),
    ("trails.eulerian_circuits", ("self_s",), "op_p50_ms on cli-requests"),
    # lattice, poset, partition
    ("lattice.build_eulerian_semilattice", ("calls", "self_s", "elements"),
     "run_s/op_tail_ms on martin-sweep"),
    ("poset.FinitePoset.from_leq", ("self_s", "leq_calls"),
     "run_s/op_tail_ms on martin-sweep; must not rise on cli-requests (lattice-dump)"),
    ("lattice.signed_circuit_product", ("calls", "self_s"), "run_s on martin-sweep"),
    ("bonds.connected_partitions", ("calls", "self_s"), "run_s on martin-sweep"),
    ("lattice.EulerianSemilattice.downset_sum", ("calls", "self_s"),
     "op_p50_ms on cli-requests"),
    # bonds
    ("bonds.broken_circuits", ("calls", "self_s", "distinct_ratio"),
     "run_s/op_tail_ms on nbc-bijection"),
    ("bonds.simple_cycles", ("calls", "self_s"), "run_s/op_tail_ms on nbc-bijection"),
    ("bonds.acyclic_orientations", ("self_s",), "run_s on nbc-bijection"),
    ("bonds.nbc_bases", ("self_s",), "run_s on nbc-bijection"),
    ("bonds.base_to_orientation_direct", ("self_s",), "run_s/op_tail_ms on nbc-bijection"),
    ("bonds.base_to_orientation_recursive", ("self_s",), "run_s/op_tail_ms on nbc-bijection"),
    ("bonds.orientation_to_base", ("self_s",), "run_s/op_tail_ms on nbc-bijection"),
    ("bonds.chromatic_polynomial", ("self_s",), "op_p50_ms on cli-requests"),
    ("bonds.chromatic_polynomial_whitney", ("self_s",), "op_p50_ms on cli-requests"),
    # heaps
    ("heaps.Heap.__init__", ("calls", "self_s"), "run_s on nbc-bijection"),
    ("heaps.compose", ("calls", "self_s"), "run_s on nbc-bijection"),
    ("heaps.pyramid_to_orientation", ("self_s",), "run_s on nbc-bijection"),
    ("heaps.orientation_to_pyramid", ("self_s",), "run_s on nbc-bijection"),
    ("heaps.full_pyramids", ("self_s",), "op_p50_ms on cli-requests"),
    # veblen
    ("veblen.hs_characteristic_polynomial", ("self_s",), "run_s/op_tail_ms on harary-sachs"),
    ("veblen.weight", ("calls", "self_s", "distinct_ratio"), "run_s on harary-sachs"),
    ("veblen.decomposition_classes", ("calls", "self_s"), "run_s on harary-sachs"),
    ("veblen.enumerate_infragraphs", ("self_s", "yielded"), "run_s on harary-sachs"),
    ("veblen.elementary_subgraph_formula", ("self_s",), "op_p50_ms on harary-sachs"),
    ("veblen.charpoly_determinant_oracle", ("self_s",), "op_p50_ms on harary-sachs"),
    ("veblen.associated_coefficient_via_rootings", ("self_s",), "op_p50_ms on harary-sachs"),
    # graphs
    ("graphs.parse_graph", ("calls", "self_s"), "op_p50_ms on cli-requests"),
    ("graphs.is_eulerian", ("calls", "self_s"), "run_s on martin-sweep"),
    # cli: argparse, the envelope and rendering
    ("cli.main", ("self_s", "error_exits"), "op_p50_ms on cli-requests"),
]

# The layer whose calls are counted during set-up too; see tracer.py.
SETUP_LAYER = "corpus."

# Spans the benchmark opens itself: one per operation and one around set-up.
# An operation's self time is the part no wrapped layer covers.
OP_SPAN = "bench.op"
SETUP_SPAN = "bench.setup"

UNITS = {
    "calls": "count",
    "self_s": "s",
    "distinct_ratio": "1",
    "elements": "count",
    "leq_calls": "count",
    "yielded": "count",
    "error_exits": "count",
}


def per_layer_metrics():
    """Every per-layer metric name with its unit, in publication order."""
    out = [(f"{target}.{metric}", UNITS[metric]) for target, metrics, _ in LAYERS for metric in metrics]
    out.append((f"{OP_SPAN}.self_s", "s"))
    out.append(("trace.overhead_ratio", "1"))
    return out
