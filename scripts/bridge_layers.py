#!/usr/bin/env python3
"""Rebuild the path and tree coproducts from their pre-Lie parts, layer by
layer, and show how the layers fill in as the degree cap grows.

    python scripts/bridge_layers.py [--max-degree D] [--quiver FILE]
"""

import argparse
import sys
import time

from quiverhopf.bridge import compare_coproducts, instance
from quiverhopf.quiver import ONE_EDGE_QUIVER, Quiver


def show(name, inst, direct) -> bool:
    t0 = time.perf_counter()
    pre = inst.check()
    if not pre.ok:
        print("%s: %s" % (name, pre.line()))
        return False
    layers = inst.reconstruct()
    counts = layers.term_counts()
    print(
        "%s: %d basis elements, layers {%s}, integral=%s"
        % (
            name,
            len(inst.basis),
            ", ".join("%d: %d" % (n, c) for n, c in counts.items()),
            layers.all_integral(),
        )
    )
    rep = compare_coproducts(layers, direct, inst.basis)
    print("   %s  (%.2fs)" % (rep.line(), time.perf_counter() - t0))
    return rep.ok


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-degree", type=int, default=8)
    parser.add_argument("--quiver", help="quiver JSON file (default: e: 1 -> 2)")
    args = parser.parse_args()
    q = Quiver.load(args.quiver) if args.quiver else ONE_EDGE_QUIVER
    # Plane-tree counts grow Catalan-fast; keep the tree demo at the desk
    # scale (5 edges) unless a smaller cap was requested.
    tdeg = min(args.max_degree, 6)
    try:
        paths = instance(q, "paths", args.max_degree)
        trees = instance(q, "trees", tdeg)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    ok = show("paths", *paths)
    ok &= show("trees", *trees)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
