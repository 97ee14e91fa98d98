#!/usr/bin/env python3
"""Rebuild the path and tree coproducts from their pre-Lie parts, layer by
layer, and show how the layers fill in as the degree cap grows. The
reconstruction is the only check of the pre-Lie coaxiom: a map that breaks
it has no layer 2, and the error names the generator.

    python scripts/bridge_layers.py [--max-degree D] [--quiver FILE]
"""

import argparse
import sys
import time

from quiverhopf.bridge import compare_coproducts, instance, reconstruct_coproduct
from quiverhopf.quiver import ONE_EDGE_QUIVER, Quiver


def show(name, basis, degree, pre_lie, direct) -> bool:
    t0 = time.perf_counter()
    layers = reconstruct_coproduct(basis, degree, pre_lie)
    counts = layers.term_counts()
    print(
        "%s: %d basis elements, layers {%s}, integral=%s"
        % (
            name,
            len(basis),
            ", ".join("%d: %d" % (n, c) for n, c in counts.items()),
            layers.all_integral(),
        )
    )
    rep = compare_coproducts(layers, direct, basis)
    print("   %s  (%.2fs)" % (rep.line(), time.perf_counter() - t0))
    return rep.ok


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-degree", type=int, default=8)
    parser.add_argument("--quiver", help="quiver JSON file (default: e: 1 -> 2)")
    args = parser.parse_args()
    # Plane-tree counts grow Catalan-fast; keep the tree demo at the desk
    # scale (5 edges) unless a smaller cap was requested.
    tdeg = min(args.max_degree, 6)
    try:
        q = Quiver.load(args.quiver) if args.quiver else ONE_EDGE_QUIVER
        ok = show("paths", *instance(q, "paths", args.max_degree))
        ok &= show("trees", *instance(q, "trees", tdeg))
    except (ValueError, OSError, RecursionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
