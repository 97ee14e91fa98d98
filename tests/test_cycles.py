"""No library call leaves a reference cycle behind.

A call that leaves its lists and memos in a cycle keeps them alive until the
cyclic collector runs, and the collections then cost time in every later
call. Each op below runs with the collector switched off, and a collection
right after it must find nothing. argparse leaves cycles in every parser it
builds, so the CLI op runs after a first call has built the one parser that
`cli.main` reuses.
"""

import gc
import io
import os

import pytest

from quiverhopf import bridge, cli
from quiverhopf.cuts import chord_coproduct, necklace_diagrams, path_diagrams
from quiverhopf.dual import d_or, d_rt
from quiverhopf.hopf import eta_or, eta_rt, nc_coproduct, path_antipode, path_coproduct
from quiverhopf.quiver import all_necklaces, all_paths
from quiverhopf.trees import all_rooted_trees, rho_ss_oriented, tree_coproduct
from quiverhopf.verify import FAMILY, LAWS, run_laws, tree_sample

Q = FAMILY["two_loops"]


def oriented_trees():
    return sorted({t for n in all_necklaces(Q, 3) for t, _ in eta_or(n).items()})


def trees_instance():
    return [bridge.instance(Q, "trees", 4)[:3]]


def rooted_trees(max_edges):
    return all_rooted_trees(max_edges, (Q.trivial("v"),), (False, True))


def cli_runs():
    """Argument lists for a verify, a bridge and two failing commands, after
    one call has built the parser."""
    cli.build_parser()
    quiver = os.path.join(os.path.dirname(os.path.dirname(__file__)), "quivers", "two_loops.json")
    return [
        ["verify", "--quiver", quiver, "--theorem", "1", "--max-len", "2"],
        ["bridge", "--quiver", quiver, "--instance", "trees", "--max-degree", "3", "--compare"],
        ["coproduct", "--quiver", quiver, "--input", "v q"],
        ["verify", "--quiver", quiver],
    ]


# op: (inputs, the call made on each input), inputs built before the check.
OPS = {
    "eta_rt": (lambda: all_paths(Q, 4), eta_rt),
    "eta_or": (lambda: all_necklaces(Q, 4), eta_or),
    "eta_or signed": (lambda: all_necklaces(Q, 4), lambda n: eta_or(n, signed=True)),
    "path_antipode": (lambda: all_paths(Q, 4), path_antipode),
    "path_coproduct": (lambda: all_paths(Q, 4), path_coproduct),
    "nc_coproduct": (lambda: all_paths(Q, 4), nc_coproduct),
    "tree_coproduct": (lambda: tree_sample(Q, 3), tree_coproduct),
    "rho_ss_oriented": (oriented_trees, rho_ss_oriented),
    "OrientedTree.text": (oriented_trees, lambda t: t.text()),
    "d_rt": (lambda: path_diagrams(Q, 4), d_rt),
    "d_or": (lambda: necklace_diagrams(Q, 4), d_or),
    "chord_coproduct": (lambda: path_diagrams(Q, 4), chord_coproduct),
    "all_rooted_trees": (lambda: [3], rooted_trees),
    "reconstruct_coproduct": (trees_instance, lambda inst: bridge.reconstruct_coproduct(*inst)),
    "run_laws": (lambda: [3], lambda n: list(run_laws(LAWS, Q, n))),
    "cli.main": (cli_runs, lambda argv: cli.main(argv, out=io.StringIO())),
}


@pytest.mark.parametrize("op", sorted(OPS))
def test_op_leaves_no_cyclic_garbage(op):
    inputs, call = OPS[op]
    inputs = inputs()
    gc.collect()
    gc.disable()
    try:
        for x in inputs:
            call(x)
        assert gc.collect() == 0
    finally:
        gc.enable()
