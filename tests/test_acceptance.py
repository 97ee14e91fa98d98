"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Desk scale throughout: quivers with up to 3 edges, paths and necklaces up to
length 6, trees up to 5 edges, with per-sweep sizes chosen so the whole
module stays well under a minute. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import io
import itertools
import os
import subprocess
import sys

from quiverhopf.bridge import (
    compare_coproducts,
    extract_prelie,
    instance,
    monomialize,
    path_degree,
    reconstruct_coproduct,
)
from quiverhopf.cobrackets import delta_p_rt
from quiverhopf.cuts import PathDiagram, chord_coproduct, enumerate_cuts, epsilon, path_diagrams
from quiverhopf.dual import d_or, d_rt, dual_rooted_tree
from quiverhopf.hopf import (
    coassoc_formula_defect,
    eta_or,
    eta_rt,
    nc_coproduct,
    path_antipode,
    path_coproduct,
    s_or,
    s_rt,
)
from quiverhopf.linear import LinComb, Monomial, Tensor, Word
from quiverhopf.quiver import Necklace, Path, all_necklaces, all_paths
from quiverhopf.symalg import (
    antipode_defect,
    antipode_free,
    coassoc_defect,
)
from quiverhopf.trees import (
    RootedTree,
    all_oriented_trees,
    all_rooted_trees,
    rho,
    rho_ss_oriented,
    tree_coproduct,
)
from quiverhopf.verify import FAMILY, LAWS, verify_defect, verify_lie_coalgebra
from support import antipode_monomial, counit_defect, layer, point

Q1, LOOP, TWO_LOOPS, LOOP_EDGE, TRIANGLE = (
    FAMILY[name] for name in ("one_edge", "loop", "two_loops", "loop_edge", "triangle")
)

# (quiver, max_len) tables for the registry sweeps.
ALL_AT_6 = tuple((q, 6) for q in FAMILY.values())
DIAGRAMS = ((Q1, 6), (LOOP, 5), (TWO_LOOPS, 4), (TRIANGLE, 6))
THEOREM_SIZES = ((Q1, 5), (LOOP, 5), (TWO_LOOPS, 4), (LOOP_EDGE, 4), (TRIANGLE, 6))
HOPF_SIZES = ((Q1, 4), (TWO_LOOPS, 3), (LOOP_EDGE, 4))


def laws(group):
    return [law for law in LAWS if group in law.groups]


def tree_samples():
    """Decorated rooted trees at desk scale: every shape up to 5 edges with one
    decoration, plus full 2-letter/2-flag decoration up to 3 edges and
    3-letter decoration up to 2 edges."""
    l1, l2 = Q1.trivial("1"), Q1.trivial("2")
    e = Q1.letter("e")
    l3 = Path("1", (e, e.star()))
    out = []
    out.extend(all_rooted_trees(5, (l1,), flags=(False,)))
    out.extend(all_rooted_trees(3, (l1, l2), flags=(False, True)))
    out.extend(all_rooted_trees(2, (l1, l2, l3), flags=(False, True)))
    seen = {}
    for t in out:
        seen[t.skey] = t
    return [seen[k] for k in sorted(seen)]


def report_criterion(num, description, failures):
    status = "PASS" if not failures else "FAIL"
    print("ACCEPTANCE %d %s: %s" % (num, status, description))
    for line in failures:
        print("  " + line)
    assert not failures, failures


def collect(reports):
    return [rep.line() for rep in reports if not rep.ok]


def sweep_group(group, sizes, trees):
    """Reports of one registry group: tree laws on the given trees, the others
    on every (quiver, max_len) of sizes[law.sampler]."""
    reports = []
    for law in laws(group):
        if law.sampler == "tree_sample":
            reports.append(law.check(trees))
        else:
            reports.extend(law.run(q, n) for q, n in sizes[law.sampler])
    return reports


def test_criterion_1_prelie():
    sizes = {"quiver.all_paths": ALL_AT_6, "cuts.path_diagrams": DIAGRAMS}
    reports = sweep_group("prelie", sizes, tree_samples())
    report_criterion(
        1,
        "pre-Lie coaxiom for delta_p_rt, chord delta_p_rt, rho (exhaustive)",
        collect(reports),
    )


def test_criterion_2_lie():
    sizes = {
        "quiver.all_necklaces": ALL_AT_6,
        "quiver.all_paths": ALL_AT_6,
        "cuts.necklace_diagrams": DIAGRAMS,
    }
    small_trees = [t for t in tree_samples() if t.edge_count() <= 4]
    reports = sweep_group("lie", sizes, small_trees)
    necks = (Necklace(Q1.trivial("1")), Necklace(Q1.trivial("2")))
    oriented = all_oriented_trees(3, necks, flags=(False, True))
    reports.append(verify_lie_coalgebra(rho_ss_oriented, oriented, "rho_ss oriented Lie"))
    report_criterion(
        2,
        "Lie axioms for delta_or, delta_rt, chord delta_or, rho_ss, oriented rho_ss",
        collect(reports),
    )


def test_criterion_3_hopf_laws():
    failures = []

    def sweep(name, gen_cop, wrap, antipode, elems, products=()):
        for x in elems:
            m = wrap((x,))
            if coassoc_defect(gen_cop, m):
                failures.append("%s coassociativity fails at %s" % (name, x.text()))
                return
            if counit_defect(gen_cop, m):
                failures.append("%s counit fails at %s" % (name, x.text()))
                return
            if antipode_defect(gen_cop, m, antipode):
                failures.append("%s antipode axiom fails at %s" % (name, x.text()))
                return
        for m in products:
            if coassoc_defect(gen_cop, m) or counit_defect(gen_cop, m) or antipode_defect(
                gen_cop, m, antipode
            ):
                failures.append("%s Hopf laws fail on product %s" % (name, m.text()))
                return

    paths5 = all_paths(Q1, 5) + all_paths(LOOP, 4) + all_paths(TWO_LOOPS, 3)
    pairs = [Monomial((x, y)) for x, y in itertools.product(all_paths(Q1, 2), repeat=2)]
    sweep(
        "Sym paths",
        path_coproduct,
        Monomial,
        lambda m: antipode_monomial(path_coproduct, m),
        paths5,
        pairs,
    )
    diagrams = path_diagrams(Q1, 4) + path_diagrams(LOOP, 4)
    sweep(
        "Sym chord diagrams",
        chord_coproduct,
        lambda xs: Monomial(xs),
        lambda m: antipode_monomial(chord_coproduct, m),
        diagrams,
    )
    trees = [t for t in tree_samples() if t.edge_count() <= 4]
    sweep(
        "Sym trees",
        tree_coproduct,
        Monomial,
        lambda m: antipode_monomial(tree_coproduct, m),
        trees,
    )
    word_pairs = [Word((x, y)) for x, y in itertools.product(all_paths(Q1, 2), repeat=2)]
    sweep(
        "ordered paths",
        nc_coproduct,
        Word,
        lambda w: antipode_free(nc_coproduct, w),
        paths5,
        word_pairs,
    )
    # Bialgebra compatibility as a regression: coproduct of a product equals
    # the product of coproducts.
    from quiverhopf.symalg import cop_free

    for x, y in itertools.product(all_paths(Q1, 3), repeat=2):
        lhs = cop_free(path_coproduct, Monomial((x, y)))
        a, b = cop_free(path_coproduct, Monomial((x,))), cop_free(path_coproduct, Monomial((y,)))
        prod = Tensor(2)
        for (a1, a2), c1 in a.terms():
            for (b1, b2), c2 in b.terms():
                prod = prod + c1 * c2 * Tensor.single((a1 * b1, a2 * b2))
        if lhs != prod:
            failures.append("bialgebra compatibility fails at %s, %s" % (x.text(), y.text()))
            break
    # Order/precedence expansion of the triple coproduct, term for term.
    for q, max_len in ((Q1, 6), (LOOP, 5), (TWO_LOOPS, 4)):
        rep = verify_defect(
            coassoc_formula_defect,
            all_paths(q, max_len),
            "coassociativity: direct, formula, and flipped",
        )
        if not rep.ok:
            failures.append(rep.line())
    # The path antipode's cut-forest sum against the geometric series.
    formula = sweep_group("antipode-formula", {"quiver.all_paths": THEOREM_SIZES}, ())
    failures.extend(collect(formula))
    report_criterion(
        3,
        "Hopf laws for Sym paths / chord diagrams / trees and the ordered coproduct,"
        " plus the order/precedence expansion and the path antipode formula",
        failures,
    )


def test_criterion_4_theorem_2_morphisms():
    failures = []
    for law in laws("2"):
        if not law.holds:
            # Convention arbitration: the signed variant must NOT be a
            # morphism; the default is therefore the unsigned one.
            signed = law.run(Q1, 4)
            if signed.ok:
                failures.append("signed D_or unexpectedly passed; convention arbitration is moot")
            else:
                print(
                    "  note: signed D_or fails (witness %s); unsigned convention is the default"
                    % signed.witness[0].text()
                )
            continue
        sizes = HOPF_SIZES if law.checker == "verify_hopf_morphism" else THEOREM_SIZES
        failures.extend(collect(law.run(q, n) for q, n in sizes))
    report_criterion(4, "Theorem-2 morphisms at desk scale", failures)


def test_criterion_5_theorem_1():
    failures = []
    # eta equals the chord-diagram factorization on the nose.
    for q, max_len in ((Q1, 5), (LOOP, 5), (LOOP_EDGE, 4), (TRIANGLE, 6)):
        for x in all_paths(q, max_len):
            if eta_rt(x) != s_rt(x).map_basis(d_rt):
                failures.append("eta_rt is not D_rt o S_rt at %s" % x.text())
                break
        for n in all_necklaces(q, max_len):
            if eta_or(n) != s_or(n).map_basis(d_or):
                failures.append("eta_or is not D_or o S_or at %s" % n.text())
                break
        # And the direct summation over cuts agrees.
        for x in all_paths(q, max_len):
            direct = LinComb()
            for h in enumerate_cuts(x):
                d = PathDiagram(x, h)
                direct = direct + LinComb.single(dual_rooted_tree(d), epsilon(d))
            if eta_rt(x) != direct:
                failures.append("eta_rt direct summation differs at %s" % x.text())
                break
    for law in laws("injective"):
        failures.extend(collect(law.run(q, n) for q, n in THEOREM_SIZES))

    # Forgetting decorations destroys injectivity: witness pair.
    anon = Q1.trivial("1")

    def forget(t):
        kids = sorted(forget(c) for _, c in t.children)
        return RootedTree(anon, tuple((False, k) for k in kids))

    e = Q1.letter("e")
    bare1 = eta_rt(Path("1", (e,))).map_basis(lambda t: LinComb.single(forget(t)))
    bare2 = eta_rt(Q1.trivial("1")).map_basis(lambda t: LinComb.single(forget(t)))
    if not (bare1 == bare2 == LinComb.single(point(anon))):
        failures.append("decoration-forgetting witness did not collapse to the bare point")
    report_criterion(
        5, "Theorem 1: factorization, injectivity, and the non-injectivity witness", failures
    )


def test_criterion_6_bridge():
    failures = []
    for q in (Q1, LOOP):
        basis, degree, pre_lie, direct = instance(q, "paths", 8)
        if basis != tuple(all_paths(q, 6)) or direct is not path_coproduct:
            failures.append("the paths instance is not all paths of length <= 6")
        layers = reconstruct_coproduct(basis, degree, pre_lie)
        rep = compare_coproducts(layers, path_coproduct, basis)
        if not rep.ok:
            failures.append(rep.line())
        if not layers.all_integral():
            failures.append("path layers contain non-integer constants")
        for x in basis:
            if extract_prelie(layers.total, x) != extract_prelie(path_coproduct, x):
                failures.append("round trip fails at %s" % x.text())
                break
            if monomialize(delta_p_rt(x)) != monomialize(extract_prelie(layers.total, x)):
                failures.append("extracted pre-Lie differs from delta_p_rt at %s" % x.text())
                break
    tree_basis, degree, pre_lie, direct = instance(Q1, "trees", 6)
    label = Q1.trivial("1")
    if tree_basis != tuple(all_rooted_trees(5, (label,), flags=(False,))) or (
        direct is not tree_coproduct
    ):
        failures.append("the trees instance is not the 1-labelled trees with <= 5 edges")
    tree_layers = reconstruct_coproduct(tree_basis, degree, pre_lie)
    rep = compare_coproducts(tree_layers, tree_coproduct, tree_basis)
    if not rep.ok:
        failures.append(rep.line())
    if not tree_layers.all_integral():
        failures.append("tree layers contain non-integer constants")
    for t in tree_basis:
        if monomialize(extract_prelie(tree_layers.total, t)) != monomialize(rho(t)):
            failures.append("tree round trip fails at %s" % t.text())
            break
    report_criterion(
        6,
        "bridge uniqueness: reconstructed layers equal the direct coproducts,"
        " round trip and integrality",
        failures,
    )


def test_criterion_7_concrete_counts():
    failures = []
    e = Q1.letter("e")
    x = Path("1", (e, e.star(), e, e.star()))

    # Independent oracle: filter all pair subsets directly.
    def oracle_cuts(p):
        n = len(p.letters)
        cands = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if p.letters[j - 1] == p.letters[i - 1].star()
        ]
        found = []

        def ok(chosen):
            for (i1, j1), (i2, j2) in itertools.combinations(sorted(chosen), 2):
                if len({i1, j1, i2, j2}) < 4 or (i1 < i2 < j1 < j2):
                    return False
            return True

        for r in range(len(cands) + 1):
            for combo in itertools.combinations(cands, r):
                if ok(combo):
                    found.append(tuple(sorted(combo)))
        return sorted(set(found))

    oracle = oracle_cuts(x)
    if len(oracle) != 7 or [c.pairs for c in enumerate_cuts(x)] != oracle:
        failures.append("cut enumeration of e e* e e* disagrees with the oracle")
    if len(enumerate_cuts(x, simple_only=True)) != 6:
        failures.append("expected 6 simple cuts")
    cop = path_coproduct(x)
    # Leading term plus one term per simple cut: 7 summands in the expansion.
    if 1 + len(enumerate_cuts(x, simple_only=True)) != 7:
        failures.append("coproduct does not have 7 expansion terms")
    t1, t2 = Q1.trivial("1"), Q1.trivial("2")
    if cop.coeff((Monomial((t2, t2)), Monomial((t1,)))) != 1:
        failures.append("coproduct misses +triv_2^2 (x) triv_1")
    two = Path("1", (e, e.star()))
    want = LinComb(((Monomial((two,)), -1), (Monomial((t2, t1)), -1)))
    if path_antipode(two) != want:
        failures.append("antipode of e e* is not -e e* - triv_2 triv_1")
    layers = reconstruct_coproduct(all_paths(Q1, 6), path_degree, delta_p_rt)
    if layer(layers, 2, x) != Tensor.single((Monomial((t2, t2)), Monomial((t1,)))):
        failures.append("layer 2 of e e* e e* is not triv_2^2 (x) triv_1")
    report_criterion(7, "concrete counts on e e* e e* over the one-edge quiver", failures)


def test_criterion_8_cli_determinism(tmp_path):
    failures = []
    from quiverhopf.cli import main

    argvs = [
        ["coproduct", "--input", "1 e e* e e*", "--format", "structured"],
        ["chords", "--path", "1 e e* e e*", "--with-signs"],
        ["eta", "--input", "[e e*]", "--format", "structured"],
        ["verify", "--theorem", "2", "--max-len", "3"],
        ["bridge", "--instance", "trees", "--max-degree", "5", "--compare"],
    ]
    for argv in argvs:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            rc = main(argv, out=buf)
            outs.append((rc, buf.getvalue().encode()))
        if outs[0] != outs[1]:
            failures.append("in-process output differs for %r" % argv)
    # Fresh interpreters with different hash seeds must also agree byte-wise.
    cmd = [sys.executable, "-m", "quiverhopf.cli", "coproduct", "--input", "1 e e* e e*", "--format", "structured"]
    results = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(cmd, capture_output=True, env=env, cwd="/")
        results.append((proc.returncode, proc.stdout))
    if results[0] != results[1]:
        failures.append("subprocess output differs across hash seeds")
    report_criterion(8, "byte-identical CLI output across runs", failures)
