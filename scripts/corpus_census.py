#!/usr/bin/env python3
"""Census of the verification corpora.

Tabulates the Eulerian digraph classes by arc count with their circuit
counts and cancellation sums, and the connected even-degree multigraphs
with their weights; a quick way to eyeball what the test suite sweeps.
"""

import pathlib
import sys
from collections import Counter

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from eulerpart.corpus import connected_simple_graphs, eulerian_digraph_corpus, veblen_corpus
from eulerpart.lattice import eulerian_parts, verify_cancellation
from eulerpart.veblen import is_decomposable, weight


def main():
    digraphs = eulerian_digraph_corpus(8)
    print(f"connected Eulerian digraphs with <= 8 arcs: {len(digraphs)} classes")
    by_m = Counter(d.m for d in digraphs)
    for m in sorted(by_m):
        members = [d for d in digraphs if d.m == m]
        sums = Counter(verify_cancellation(d).alternating_sum for d in members)
        sizes = Counter(len(eulerian_parts(d)) for d in members)
        print(
            f"  m={m}: {by_m[m]:3d} classes, alternating sums {dict(sums)}, "
            f"largest semilattice {max(sizes)}"
        )

    graphs = connected_simple_graphs(6)
    print(f"\nconnected simple graphs with <= 6 vertices: {len(graphs)} classes")
    print("  by order:", dict(Counter(g.n for g in graphs)))

    veblens = veblen_corpus(8, 5)
    print(f"\nconnected even-degree multigraphs, <= 8 edges on <= 5 vertices: {len(veblens)}")
    rows = Counter()
    for x in veblens:
        rows[(x.m, is_decomposable(x), weight(x) == 0)] += 1
    for (m, decomposable, zero), count in sorted(rows.items()):
        print(f"  m={m} decomposable={str(decomposable):5s} weight==0={str(zero):5s}: {count}")


if __name__ == "__main__":
    main()
