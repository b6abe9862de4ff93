"""In-memory span tracer installed from outside the library.

``install`` replaces each target in ``layers.LAYERS`` with a wrapper that
opens a span around the call.  Module-level functions are replaced under
every name that binds them in an ``eulerpart`` module, so from-import
bindings such as ``lattice.count_eulerian_circuits`` are traced as well.

A span is (name, start, end, parent span, op id).  Spans nest because the
library is single-threaded and synchronous; a span's self time is its
duration minus the durations of its direct children.

Set-up spans have op id -1.  Only the set-up layers (``corpus``) are
counted there: a call another layer makes during set-up is recorded as a
span but counted nowhere, and its time falls to the corpus function that
made it, so every other layer's metrics cover the operations alone.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

from layers import LAYERS, SETUP_LAYER


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # open span indices
        self._child = []  # summed child durations, parallel to _stack
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counters = Counter()
        self.captured = defaultdict(list)  # target -> arguments kept for distinct keys
        self.enabled = True
        self.op_id = -1

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.span_start.append(perf_counter())
        return idx

    def exit(self, idx):
        end = perf_counter()
        self.span_end[idx] = end
        self._stack.pop()
        child = self._child.pop()
        duration = end - self.span_start[idx]
        name = self.names[self.span_name[idx]]
        if self.span_op[idx] < 0 and not name.startswith(SETUP_LAYER):
            return  # set-up work outside the corpus layer: its parent keeps the time
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._child:
            self._child[-1] += duration

    def span(self, name):
        return _Span(self, self.name_id(name))

    def write(self, path):
        """Write the spans: a JSON header, then the five arrays back to back."""
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "layout": [
                ["name", self.span_name.typecode],
                ["parent", self.span_parent.typecode],
                ["op", self.span_op.typecode],
                ["start", self.span_start.typecode],
                ["end", self.span_end.typecode],
            ],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_op, self.span_start, self.span_end):
                arr.tofile(fh)


class _Span:
    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer.enter(self.nid)

    def __exit__(self, *exc):
        self.tracer.exit(self.idx)
        return False


# -- per-target hooks: counters and the arguments kept for distinct keys ------


def _count_leq(tracer, args):
    cls, elements, leq = args
    counters = tracer.counters

    def counted(x, y):
        counters["poset.FinitePoset.from_leq.leq_calls"] += 1
        return leq(x, y)

    return (cls, elements, counted)


ARG_HOOKS = {"poset.FinitePoset.from_leq": _count_leq}

RESULT_COUNTERS = {
    "lattice.build_eulerian_semilattice": ("elements", len),
    "veblen.enumerate_infragraphs": ("yielded", len),
    "cli.main": ("error_exits", lambda status: int(status == 2)),
}

CAPTURE = {
    "trails.count_eulerian_circuits": lambda args: args[0],
    "bonds.broken_circuits": lambda args: (args[0], tuple(args[1])),
    "veblen.weight": lambda args: args[0],
}


def _wrap(tracer, target, fn):
    nid = tracer.name_id(target)
    arg_hook = ARG_HOOKS.get(target)
    counter = RESULT_COUNTERS.get(target)
    capture = CAPTURE.get(target)
    kept = tracer.captured[target]
    setup_layer = target.startswith(SETUP_LAYER)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        counted = setup_layer or tracer.op_id >= 0
        if counted and arg_hook is not None:
            args = arg_hook(tracer, args)
        idx = tracer.enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if not counted:
            return result
        if capture is not None:
            kept.append(capture(args))
        if counter is not None:
            tracer.counters[f"{target}.{counter[0]}"] += counter[1](result)
        return result

    return wrapper


def install(tracer):
    """Wrap every layer target under every name that binds it."""
    # import every target module first, so that every from-import binding
    # exists before the scan below looks for it
    for target, _, _ in LAYERS:
        importlib.import_module(f"eulerpart.{target.split('.')[0]}")
    for target, _, _ in LAYERS:
        modname, *path = target.split(".")
        module = sys.modules[f"eulerpart.{modname}"]
        owner = module
        for part in path[:-1]:
            owner = getattr(owner, part)
        attr = path[-1]
        raw = vars(owner)[attr]
        if owner is not module:  # a method, possibly a classmethod
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(_wrap(tracer, target, raw.__func__)))
            else:
                setattr(owner, attr, _wrap(tracer, target, raw))
            continue
        wrapper = _wrap(tracer, target, raw)
        for name, mod in list(sys.modules.items()):
            if name != "eulerpart" and not name.startswith("eulerpart."):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapper)


# -- distinct keys, computed after the traced pass -----------------------------


def _arc_multiset(g):
    if g.directed:
        return (True, tuple(sorted(g.arcs)))
    return (False, tuple(sorted(tuple(sorted(p)) for p in g.pairs)))


def _count_isomorphism_classes(graphs):
    from eulerpart.corpus import multigraphs_isomorphic

    labelled = {}
    for g in graphs:
        labelled.setdefault((g.n, _arc_multiset(g)), g)
    buckets = defaultdict(list)
    for (n, (_, pairs)), g in labelled.items():
        degrees = Counter()
        for u, v in pairs:
            degrees[u] += 1
            degrees[v] += 1
        invariant = (n, len(pairs), tuple(sorted(degrees.values())), tuple(sorted(Counter(pairs).values())))
        reps = buckets[invariant]
        if not any(multigraphs_isomorphic(g, r) for r in reps):
            reps.append(g)
    return sum(len(reps) for reps in buckets.values())


def distinct_ratios(tracer):
    """Distinct inputs over calls, for each target that keeps its arguments."""
    keys = {
        "trails.count_eulerian_circuits": lambda kept: len({_arc_multiset(g) for g in kept}),
        "bonds.broken_circuits": lambda kept: len({(g.n, g.pairs, order) for g, order in kept}),
        "veblen.weight": _count_isomorphism_classes,
    }
    out = {}
    for target, count_distinct in keys.items():
        kept = tracer.captured[target]
        out[f"{target}.distinct_ratio"] = count_distinct(kept) / len(kept) if kept else 0.0
    return out
