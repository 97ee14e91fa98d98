"""Workloads of the quiverhopf benchmark: seeded inputs, ops and output checks.

An op is one timed call through a public entry point of quiverhopf. Each op
carries a renderer (its canonical output text, which is hashed) and a check
built from oracles that do not share code with the map under test, or from
the verdict a law check must reach.

Inputs come from the seed alone. The costly part of a word or a tree is its
shape (how its letters can pair, how its vertices branch), and that cost
varies several-fold between random shapes of one size. So that a run's
figures do not hinge on which shapes a seed happens to draw, the shapes come
from a fixed pool (drawn once from a constant seed, stratified by an exactly
counted size), and ``--seed`` draws everything that leaves the cost alone:
letter relabelings of the words (symmetries of the two-loop quiver that
preserve every term count), vertex labels, edge flags and order.
"""

from __future__ import annotations

import io
import os
import random
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List

from quiverhopf import cli, hopf, trees, verify
from quiverhopf.linear import SYM_UNIT, WORD_UNIT, LinComb, Monomial, Word
from quiverhopf.quiver import Necklace, Path, Quiver, all_paths

WORKLOADS = ("long_words", "law_sweep", "trees_bridge")

# Sizes per scale. "full" is what the benchmark measures; "tiny" is the smoke
# size the benchmark's own tests run.
SIZES = {
    "full": {
        "word_len": 14,
        # Total-cut-count strata, one pool word each.
        "word_strata": ((100, 200), (200, 300), (300, 400), (400, 500), (500, 600), (600, 700)),
        "sweep_lens": (3, 4),  # --max-len on two_loops, on triangle
        "tree_edges": 16,
        "tree_count": 6,
        # Admissible-cut count band of pool trees.
        "tree_cut_band": (800, 2500),
        "bridge_degree": 6,
    },
    "tiny": {
        "word_len": 6,
        "word_strata": ((4, 8), (8, 40)),
        "sweep_lens": (3, 2),
        "tree_edges": 5,
        "tree_count": 2,
        "tree_cut_band": (4, 40),
        "bridge_degree": 4,
    },
}


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    render: Callable[[object], str]
    check: Callable[[object], List[str]]


def quiver_file(root: str, name: str) -> str:
    return os.path.join(root, "quivers", name + ".json")


def structured_text(result) -> str:
    return result.text(structured=True)


def report_line(result) -> str:
    return result.line()


def cli_stdout(result) -> str:
    return "exit %d\n%s" % result


def run_cli(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


# -- long_words -------------------------------------------------------------

# A word is a tuple of (edge id, starred) letters over the loops a, b at v.


def cut_counts(word):
    """(all cuts, simple cuts) of a word, by interval recursion.

    Independent of `cuts.enumerate_cuts`: a chord joins two positions holding
    the same edge with opposite stars; chords never cross, and a simple cut
    has no chord nested inside another.
    """
    n = len(word)

    def partners(lo, hi):
        e, s = word[lo]
        return [k for k in range(lo + 1, hi + 1) if word[k] == (e, not s)]

    @lru_cache(maxsize=None)
    def every(lo, hi):
        if lo > hi:
            return 1
        return every(lo + 1, hi) + sum(
            every(lo + 1, k - 1) * every(k + 1, hi) for k in partners(lo, hi)
        )

    @lru_cache(maxsize=None)
    def simple(lo, hi):
        if lo > hi:
            return 1
        return simple(lo + 1, hi) + sum(simple(k + 1, hi) for k in partners(lo, hi))

    return every(0, n - 1), simple(0, n - 1)


def word_pool(size: dict):
    """One word per cut-count stratum, drawn from a constant seed."""
    rng = random.Random("long_words:pool")
    letters = [(e, s) for e in ("a", "b") for s in (False, True)]
    pool = []
    for lo, hi in size["word_strata"]:
        while True:
            word = tuple(rng.choice(letters) for _ in range(size["word_len"]))
            if lo <= cut_counts(word)[0] < hi:
                pool.append(word)
                break
    return pool


def relabel(word, image: int):
    """Image of a word under one of the 16 symmetries of the two-loop quiver.

    Bits of `image`: swap the edges a and b; star-swap a; star-swap b; read
    the word backwards with every letter starred (path reversal). Each is an
    isomorphism or anti-isomorphism of every structure here, so all term
    counts, and hence the work, are the same for every image.
    """
    out = []
    for e, s in word:
        if image & 1:
            e = "b" if e == "a" else "a"
        if (image & 2 and e == "a") or (image & 4 and e == "b"):
            s = not s
        out.append((e, s))
    if image & 8:
        out = [(e, not s) for e, s in reversed(out)]
    return tuple(out)


def long_words_inputs(seed: int, size: dict):
    rng = random.Random("long_words:%d" % seed)
    words = [relabel(w, rng.randrange(16)) for w in word_pool(size)]
    rng.shuffle(words)
    return words


def path_degree(p: Path) -> int:
    return len(p.letters) + 2


def long_words_ops(root: str, seed: int, size: dict) -> List[Op]:
    q = Quiver.load(quiver_file(root, "two_loops"))
    ops = []
    for k, word in enumerate(long_words_inputs(seed, size)):
        w = Path("v", tuple(q.letter(e, s) for e, s in word))
        n = Necklace(w)
        deg = path_degree(w)

        def check_eta_rt(r, w=w):
            if hopf.point_projection(r) != LinComb.single(w):
                return ["point projection of eta_rt(w) is not w"]
            return []

        def check_eta_or(r, n=n):
            if hopf.point_projection(r) != LinComb.single(n):
                return ["point projection of eta_or(n) is not n"]
            return []

        def check_antipode(r, w=w, deg=deg):
            problems = []
            if r.coeff(Monomial((w,))) != -1:
                problems.append("coefficient of w in S(w) is not -1")
            for m, _ in r.terms():
                if sum(path_degree(f) for f in m.factors) != deg:
                    problems.append("S(w) term %s breaks the grading" % m.text())
                    break
            return problems

        def check_nc(r, w=w, deg=deg):
            problems = []
            whole = Word((w,))
            if r.coeff((whole, WORD_UNIT)) != 1 or r.coeff((WORD_UNIT, whole)) != 1:
                problems.append("w (x) 1 or 1 (x) w missing from the coproduct")
            for (a, b), _ in r.terms():
                if sum(path_degree(f) for f in a.factors + b.factors) != deg:
                    problems.append("coproduct term breaks the grading")
                    break
            return problems

        tag = "w%d" % k
        ops += [
            Op(tag + ":eta_rt", lambda w=w: hopf.eta_rt(w), structured_text, check_eta_rt),
            Op(tag + ":eta_or", lambda n=n: hopf.eta_or(n), structured_text, check_eta_or),
            Op(tag + ":path_antipode", lambda w=w: hopf.path_antipode(w), structured_text, check_antipode),
            Op(tag + ":nc_coproduct", lambda w=w: hopf.nc_coproduct(w), structured_text, check_nc),
        ]
    return ops


# -- law_sweep --------------------------------------------------------------

PASS_LINE = re.compile(r"^PASS .* \((\d+) elements\)( \[.*\])?$")
EXPECTED_NOTE = "note: FAIL D_or Lie morphism (signed): "
INTEGRAL = "integral coefficients: yes"


def check_cli_verdicts(result, expect_note: bool = False, bridge: bool = False) -> List[str]:
    """Every swept law passes on a nonempty sample; the only FAIL allowed is
    the signed D_or convention's note, which `--theorem 2` must print. A
    bridge run also prints its layer sizes and must report integral
    coefficients."""
    code, text = result
    lines = text.splitlines()
    problems = [] if code == 0 else ["exit code %d" % code]
    passes = notes = 0
    for line in lines:
        m = PASS_LINE.match(line)
        if m:
            passes += 1
            if int(m.group(1)) == 0:
                problems.append("vacuous PASS: " + line)
        elif line.startswith(EXPECTED_NOTE):
            notes += 1
        elif not (bridge and (line.startswith("layer ") or line == INTEGRAL)):
            problems.append("unexpected line: " + line[:200])
    if not passes:
        problems.append("no PASS line")
    if notes != int(expect_note):
        problems.append("expected %d signed D_or note(s), saw %d" % (int(expect_note), notes))
    if bridge and INTEGRAL not in lines:
        problems.append("bridge layers not reported integral")
    return problems


def cli_op(label: str, argv, expect_note: bool = False, bridge: bool = False) -> Op:
    return Op(
        label,
        lambda: run_cli(argv),
        cli_stdout,
        lambda r: check_cli_verdicts(r, expect_note, bridge),
    )


def law_sweep_ops(root: str, seed: int, size: dict) -> List[Op]:
    """Exhaustive sweeps: the same commands for every seed."""
    ops = []
    for qname, n in zip(("two_loops", "triangle"), size["sweep_lens"]):
        base = ["verify", "--quiver", quiver_file(root, qname), "--max-len", str(n)]
        laws = ("prelie", "lie") if qname == "two_loops" else ("lie",)
        for law in laws:
            ops.append(cli_op("%s:law=%s" % (qname, law), base + ["--law", law]))
        for thm in ("1", "2", "coassoc", "antipode"):
            ops.append(
                cli_op("%s:theorem=%s" % (qname, thm), base + ["--theorem", thm], thm == "2")
            )
    # The bridge over the same two_loops paths: degree = length + 2.
    return ops + bridge_ops(root, size["sweep_lens"][0] + 2)


def bridge_ops(root: str, max_degree: int) -> List[Op]:
    """`bridge --compare` for both instances on two_loops."""
    qfile = quiver_file(root, "two_loops")
    return [
        cli_op(
            "bridge:" + instance,
            ["bridge", "--quiver", qfile, "--instance", instance,
             "--max-degree", str(max_degree), "--compare"],
            bridge=True,
        )
        for instance in ("trees", "paths")
    ]


# -- trees_bridge -----------------------------------------------------------

# A shape is a parent list: vertex k > 0 hangs below parent[k], and children
# keep the order in which they were attached (planar order).


def shape_children(parent):
    kids = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p is not None:
            kids[p].append(v)
    return kids


def admissible_count(kids, v: int = 0) -> int:
    """Admissible cuts of the subtree at v, empty cut included: each child
    edge is either cut, or kept with an admissible cut below it."""
    out = 1
    for c in kids[v]:
        out *= 1 + admissible_count(kids, c)
    return out


def tree_pool(size: dict):
    """Shapes with an admissible-cut count in the band, from a constant seed."""
    rng = random.Random("trees_bridge:pool")
    lo, hi = size["tree_cut_band"]
    pool = []
    while len(pool) < size["tree_count"]:
        parent = [None] + [rng.randrange(k) for k in range(1, size["tree_edges"] + 1)]
        if lo <= admissible_count(shape_children(parent)) < hi:
            pool.append(parent)
    return pool


def tree_labels(q: Quiver):
    """Closed two_loops paths of length <= 2."""
    return [p for p in all_paths(q, 2) if p.is_closed()]


def trees_bridge_inputs(seed: int, size: dict, labels):
    """(rooted tree, admissible-cut count, vertex count) per pool shape."""
    rng = random.Random("trees_bridge:%d" % seed)
    out = []
    for parent in tree_pool(size):
        kids = shape_children(parent)

        def build(v):
            return trees.RootedTree(
                rng.choice(labels), tuple((rng.random() < 0.5, build(c)) for c in kids[v])
            )

        out.append((build(0), admissible_count(kids), len(parent)))
    rng.shuffle(out)
    return out


def trees_bridge_ops(root: str, seed: int, size: dict) -> List[Op]:
    q = Quiver.load(quiver_file(root, "two_loops"))
    ops = []
    for k, (t, cuts, vertices) in enumerate(trees_bridge_inputs(seed, size, tree_labels(q))):
        ot = trees.oriented_from_rooted(t, Necklace)

        def check_report(r):
            if not r.ok or r.checked != 1:
                return ["verdict: " + r.line()[:200]]
            return []

        def check_cop(r, t=t, cuts=cuts, vertices=vertices):
            problems = []
            whole = Monomial((t,))
            if r.coeff((whole, SYM_UNIT)) != 1 or r.coeff((SYM_UNIT, whole)) != 1:
                problems.append("T (x) 1 or 1 (x) T missing from the coproduct")
            if sum(c for _, c in r.terms()) != cuts + 1:
                problems.append("coefficients do not sum to 1 + admissible cuts (%d)" % cuts)
            for (a, b), _ in r.terms():
                if sum(f.vertex_count() for f in a.factors + b.factors) != vertices:
                    problems.append("coproduct term breaks the grading")
                    break
            return problems

        tag = "t%d" % k
        ops += [
            Op(
                tag + ":prelie",
                lambda t=t: verify.verify_prelie_coalgebra(trees.rho, [t]),
                report_line,
                check_report,
            ),
            Op(
                tag + ":lie_oriented",
                lambda ot=ot: verify.verify_lie_coalgebra(trees.rho_ss_oriented, [ot]),
                report_line,
                check_report,
            ),
            Op(tag + ":tree_coproduct", lambda t=t: trees.tree_coproduct(t), structured_text, check_cop),
        ]
    return ops + bridge_ops(root, size["bridge_degree"])


BUILDERS = {
    "long_words": long_words_ops,
    "law_sweep": law_sweep_ops,
    "trees_bridge": trees_bridge_ops,
}

# Workloads whose inputs do not depend on the seed; their reference digests
# hold for every seed.
SEED_FREE = ("law_sweep",)


def build_ops(workload: str, root: str, seed: int, scale: str = "full") -> List[Op]:
    return BUILDERS[workload](root, seed, SIZES[scale])
