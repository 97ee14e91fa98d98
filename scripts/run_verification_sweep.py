#!/usr/bin/env python3
"""Sweep every registered law over the six-quiver family and print a table.

Each law is checked under the unsigned sign convention; the signed D_or law,
which is expected to fail, prints as a note. Exit status is nonzero if any
law's verdict differs from its expected one anywhere, so this doubles as a
quick regression gate:

    python scripts/run_verification_sweep.py [--max-len N]    # N >= 3, default 5
"""

import argparse
import sys
import time

from quiverhopf.verify import FAMILY, LAWS, run_laws


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-len", type=int, default=5)
    args = parser.parse_args()
    if args.max_len < 3:
        # Below length 3 the loop quiver has no witness against the signed
        # D_or convention, so that law's expected FAIL could not show.
        parser.error("--max-len must be at least 3")
    failed = 0
    for name, q in FAMILY.items():
        # Keep the 4-letter quivers a notch smaller: the sweep is quadratic in
        # the cobracket size.
        n = args.max_len if len(q.edges) < 2 else max(args.max_len - 1, 3)
        t0 = time.perf_counter()
        print("== %s (letters=%d, max length %d)" % (name, 2 * len(q.edges), n))
        for law, rep in run_laws(LAWS, q, n):
            print("   %s%s" % ("note: " if law.is_note("unsigned") else "", rep.line()))
            failed += rep.ok != law.holds
        print("   (%.2fs)" % (time.perf_counter() - t0))
    if failed:
        print("%d law(s) FAILED: verdict differs from the expected one" % failed)
        return 1
    print("every law gives its expected verdict on every quiver in the family")
    return 0


if __name__ == "__main__":
    sys.exit(main())
