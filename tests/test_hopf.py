import functools
import itertools
from collections import Counter

import pytest

from quiverhopf import hopf

from quiverhopf.cobrackets import delta_or, delta_p_rt
from quiverhopf.cuts import (
    Cut,
    NecklaceDiagram,
    PathDiagram,
    chord_coproduct,
    chord_delta_or,
    chord_delta_p_rt,
    cut_order,
    enumerate_cuts,
    epsilon,
    faces,
    nesting_children,
    path_diagrams,
)
from quiverhopf.dual import d_or, d_rt
from quiverhopf.hopf import (
    coassoc_formula_defect,
    eta_or,
    eta_rt,
    nc_coproduct,
    path_antipode,
    path_coproduct,
    point_projection,
    s_or,
    s_rt,
)
from quiverhopf.linear import LinComb, Monomial, SYM_UNIT, Tensor, Word, WORD_UNIT, tensor
from quiverhopf.quiver import Necklace, Path, all_necklaces, all_paths
from quiverhopf.symalg import (
    antipode_defect,
    antipode_free,
    coassoc_defect,
    cop_free,
    multiplicative,
)
from quiverhopf.trees import (
    OrientedTree,
    RootedTree,
    oriented_from_rooted,
    rho,
    rho_ss_oriented,
    tree_coproduct,
)
from quiverhopf.verify import (
    FAMILY,
    tree_sample,
    verify_coalgebra_morphism,
    verify_defect,
    verify_hopf_morphism,
    verify_injectivity,
)
from support import (
    antipode_monomial,
    coassoc_formula_terms,
    counit_defect,
    oracle_cop_free,
    oracle_cut_coproduct,
    oracle_formula_terms,
    oracle_multiplicative,
    point,
)

COASSOC = "coassociativity: direct, formula, and flipped"


def M(*xs):
    return Monomial(xs)


def ee4(q1):
    e = q1.letter("e")
    return Path("1", (e, e.star(), e, e.star()))


def test_path_coproduct_trivial(q1):
    t = q1.trivial("1")
    expect = Tensor.single((M(t), SYM_UNIT)) + Tensor.single((SYM_UNIT, M(t)))
    assert path_coproduct(t) == expect


def test_path_coproduct_two_letter(q1):
    e = q1.letter("e")
    x = Path("1", (e, e.star()))
    t1, t2 = q1.trivial("1"), q1.trivial("2")
    expect = (
        Tensor.single((M(x), SYM_UNIT))
        + Tensor.single((SYM_UNIT, M(x)))
        - tensor(M(t2), M(t1))
    )
    assert path_coproduct(x) == expect


def test_path_coproduct_four_letter(q1):
    e = q1.letter("e")
    x = ee4(q1)
    ee = Path("1", (e, e.star()))
    se = Path("2", (e.star(), e))
    t1, t2 = q1.trivial("1"), q1.trivial("2")
    expect = (
        Tensor.single((M(x), SYM_UNIT))
        + Tensor.single((SYM_UNIT, M(x)))
        - 2 * tensor(M(t2), M(ee))
        + tensor(M(t1), M(ee))
        - tensor(M(se), M(t1))
        + tensor(M(t2, t2), M(t1))
    )
    assert path_coproduct(x) == expect
    # One leading term plus one per simple cut: 7 summands in the expansion.
    assert len(enumerate_cuts(x, simple_only=True)) == 6
    assert path_coproduct(x).coeff((M(t2, t2), M(t1))) == 1


def test_path_coproduct_degree_preserving(q1, loop_edge):
    def mdeg(m):
        return sum(len(p.letters) + 2 for p in m.factors)

    for q in (q1, loop_edge):
        for x in all_paths(q, 5):
            for (a, b), _ in path_coproduct(x).terms():
                assert mdeg(a) + mdeg(b) == len(x.letters) + 2


def test_path_counit(q1, q2):
    for q in (q1, q2):
        for x in all_paths(q, 4):
            assert not counit_defect(path_coproduct, M(x))


def test_path_coassociativity(q1, loop, two_loops):
    for q in (q1, loop, two_loops):
        for x in all_paths(q, 5):
            assert not coassoc_defect(path_coproduct, M(x))


def test_bialgebra_compatibility_regression(q1):
    paths = all_paths(q1, 3)
    for x, y in itertools.product(paths, paths):
        lhs = cop_free(path_coproduct, M(x, y))
        a, b = cop_free(path_coproduct, M(x)), cop_free(path_coproduct, M(y))
        prod = Tensor(2)
        for (a1, a2), c1 in a.terms():
            for (b1, b2), c2 in b.terms():
                prod = prod + c1 * c2 * Tensor.single((a1 * b1, a2 * b2))
        assert lhs == prod


# The multiplicative extensions start from the first factor's image; the folds
# from the unit in `support` are their oracles.


def _spread(xs):
    """Three elements spread over xs, from the last."""
    return xs[:: -max(1, len(xs) // 3)][:3]


def _products(kind, gens):
    """Every monomial or word of 0 to 3 factors over gens."""
    return [kind(fs) for r in range(4) for fs in itertools.product(gens, repeat=r)]


EXTENDED = {
    "path_coproduct": (path_coproduct, Monomial, lambda q: all_paths(q, 3)),
    "nc_coproduct": (nc_coproduct, Word, lambda q: all_paths(q, 3)),
    "chord_coproduct": (chord_coproduct, Monomial, lambda q: path_diagrams(q, 3)),
    "tree_coproduct": (tree_coproduct, Monomial, lambda q: tree_sample(q, 2)),
}


@pytest.mark.parametrize("qname", sorted(FAMILY))
@pytest.mark.parametrize("cop", sorted(EXTENDED))
def test_cop_free_matches_the_fold_from_the_unit(cop, qname):
    gen_cop, kind, sample = EXTENDED[cop]
    for m in _products(kind, _spread(sample(FAMILY[qname]))):
        assert cop_free(gen_cop, m) == oracle_cop_free(gen_cop, m)


def test_cop_free_of_one_factor_is_the_generator_coproduct(two_loops):
    gen = functools.cache(path_coproduct)
    for x in all_paths(two_loops, 2):
        assert cop_free(gen, M(x)) is gen(x)


@pytest.mark.parametrize("qname", sorted(FAMILY))
@pytest.mark.parametrize(
    "f, sample", [(eta_rt, all_paths), (s_rt, all_paths), (d_rt, path_diagrams)]
)
def test_multiplicative_matches_the_fold_from_one(f, sample, qname):
    gens = _spread(sample(FAMILY[qname], 3))
    for kind in (Monomial, Word):
        image = functools.cache(lambda x: LinComb((kind((y,)), c) for y, c in f(x).items()))
        for m in _products(kind, gens):
            assert multiplicative(image, m) == oracle_multiplicative(image, m)


@pytest.mark.parametrize("n", [1, 2])
def test_extensions_refuse_a_map_into_the_other_monoid(two_loops, n):
    # One factor is returned without a product, so its images are scanned.
    x = all_paths(two_loops, 2)[-1]
    words = lambda y: LinComb.single(Word((y,)))
    for extend, fold, gen, m in (
        (cop_free, oracle_cop_free, nc_coproduct, M(*[x] * n)),
        (cop_free, oracle_cop_free, path_coproduct, Word((x,) * n)),
        (multiplicative, oracle_multiplicative, words, M(*[x] * n)),
    ):
        for g in (extend, fold):
            with pytest.raises(TypeError, match="cannot multiply"):
                g(gen, m)


def test_extensions_refuse_images_of_the_wrong_shape(two_loops):
    x = all_paths(two_loops, 2)[-1]
    three = lambda y: Tensor.single((M(y), SYM_UNIT, SYM_UNIT))
    for g in (cop_free, oracle_cop_free):
        with pytest.raises(ValueError):
            g(three, M(x))
        with pytest.raises(TypeError):
            g(lambda y: LinComb.single(M(y)), M(x))
    for g in (multiplicative, oracle_multiplicative):
        with pytest.raises(TypeError):
            g(lambda y: Tensor.single((M(y), SYM_UNIT)), M(x))


def test_path_antipode_values(q1):
    t1, t2 = q1.trivial("1"), q1.trivial("2")
    assert path_antipode(t1) == LinComb.single(M(t1), -1)
    e = q1.letter("e")
    x = Path("1", (e, e.star()))
    assert path_antipode(x) == LinComb(((M(x), -1), (M(t2, t1), -1)))


def test_path_antipode_axiom(q1, loop, two_loops):
    sm = lambda m: multiplicative(path_antipode, m)
    for q in (q1, loop, two_loops):
        for x in all_paths(q, 5):
            assert not antipode_defect(path_coproduct, M(x), sm)


def test_antipode_takeuchi_agrees_with_multiplicative(q1):
    # On symmetric monomials the convolution-inverse series equals the
    # product of the factor antipodes.
    paths = all_paths(q1, 3)
    for x, y in itertools.product(paths[:6], paths[:6]):
        m = M(x, y)
        assert antipode_free(path_coproduct, m) == antipode_monomial(path_coproduct, m)


def test_s_rt_values(q1):
    e = q1.letter("e")
    single = Path("1", (e,))
    assert s_rt(single) == LinComb.single(PathDiagram(single))
    x = ee4(q1)
    img = s_rt(x)
    assert len(img) == 7
    assert all(c == 1 for _, c in img.terms())


def test_s_or_values(q1):
    e = q1.letter("e")
    n = Necklace(Path("1", (e, e.star())))
    img = s_or(n)
    assert img == LinComb.single(NecklaceDiagram(n.rep)) + LinComb.single(
        NecklaceDiagram(n.rep, Cut(((1, 2),)))
    )
    # Symmetric necklace: rotation-equal cuts pile up with multiplicity.
    n4 = Necklace(ee4(q1))
    img4 = s_or(n4)
    assert sum(c for _, c in img4.terms()) == 7
    assert len(img4) == 5
    assert img4.coeff(NecklaceDiagram(n4.rep, Cut(((1, 2),)))) == 2


def test_eta_rt_values(q1):
    t1 = q1.trivial("1")
    assert eta_rt(t1) == LinComb.single(point(t1))
    e = q1.letter("e")
    x = Path("1", (e, e.star()))
    tree = RootedTree(t1, ((False, point(q1.trivial("2"))),))
    assert eta_rt(x) == LinComb.single(point(x)) - LinComb.single(tree)


def test_eta_or_values(q1):
    e = q1.letter("e")
    n = Necklace(Path("1", (e, e.star())))
    n1, n2 = Necklace(q1.trivial("1")), Necklace(q1.trivial("2"))
    edge = OrientedTree((n1, n2), ((0, 1),))
    pt = OrientedTree((n,), ())
    # Unsigned default: both summands positive.
    assert eta_or(n) == LinComb.single(pt) + LinComb.single(edge)
    assert eta_or(n, signed=True) == LinComb.single(pt) - LinComb.single(edge)


def test_eta_equals_direct_summation(q1, loop_edge):
    # eta grafts over simple cuts; the direct sum over all cuts of (sign
    # times dual tree) must agree.
    from quiverhopf.cuts import epsilon
    from quiverhopf.dual import dual_oriented_tree, dual_rooted_tree

    for q in (q1, loop_edge):
        for x in all_paths(q, 5):
            direct = LinComb()
            for h in enumerate_cuts(x):
                d = PathDiagram(x, h)
                direct = direct + LinComb.single(dual_rooted_tree(d), epsilon(d))
            assert eta_rt(x) == direct
        for n in all_necklaces(q, 4):
            direct = LinComb()
            for h in enumerate_cuts(n.rep):
                direct = direct + LinComb.single(dual_oriented_tree(NecklaceDiagram(n.rep, h)))
            assert eta_or(n) == direct


def eta_oracle_mismatch(max_len, eta_path=None, eta_necklace=None, signed=False):
    """The first FAMILY path or necklace of length <= max_len on which a
    candidate eta (None skips that kind) differs from the composite D o S, or
    None."""
    for q in FAMILY.values():
        for x in all_paths(q, max_len) if eta_path else ():
            if eta_path(x) != s_rt(x).map_basis(d_rt):
                return x
        for n in all_necklaces(q, max_len) if eta_necklace else ():
            if eta_necklace(n) != s_or(n).map_basis(lambda d: d_or(d, signed=signed)):
                return n
    return None


def test_eta_factors_through_chord_diagrams():
    """eta = D o S: the grafting recursion equals the composite through the
    chord algebra, which builds each chord diagram and its dual tree on its
    own."""
    assert eta_oracle_mismatch(5, eta_rt, eta_or) is None
    assert eta_oracle_mismatch(4, eta_necklace=lambda n: eta_or(n, signed=True), signed=True) is None


@pytest.mark.parametrize(
    "mutant, necklace_len",
    [
        (lambda label, kids: RootedTree(label, [(not up, t) for up, t in kids]), 4),
        # Reversal mirrors every cyclic order, which the necklaces first show
        # at length 6 (at [a a a* e e* a*] on loop_edge).
        (lambda label, kids: RootedTree(label, list(kids)[::-1]), 6),
    ],
    ids=["flipped edge flag", "children reversed"],
)
def test_eta_oracle_catches_a_mutated_graft(monkeypatch, mutant, necklace_len):
    monkeypatch.setattr(hopf, "RootedTree", mutant)
    assert eta_oracle_mismatch(4, eta_path=eta_rt) is not None
    assert eta_oracle_mismatch(necklace_len, eta_necklace=eta_or) is not None


def test_eta_oracle_catches_a_dropped_sign(monkeypatch):
    monkeypatch.setattr(hopf, "_sign", lambda letters, pairs: 1)
    assert eta_oracle_mismatch(4, eta_path=eta_rt) is not None


def test_eta_oracle_catches_the_signed_eta_or_grafted():
    """The signed eta_or takes each diagram's sign at its canonical rotation,
    so grafting over the cuts of one representative gets it wrong."""

    def grafted(n):
        trees = hopf._graft_cuts(n.rep, hopf._dual_tree, signed=True)
        return LinComb((oriented_from_rooted(t, Necklace), c) for t, c in trees.items())

    assert eta_oracle_mismatch(4, eta_necklace=grafted, signed=True) is not None


def test_eta_builds_no_chord_diagram(two_loops, monkeypatch):
    """Nor do the path coproducts, which share eta's walk over simple cuts."""

    def refuse(self, *args):
        raise AssertionError("a chord diagram was built")

    monkeypatch.setattr(PathDiagram, "__init__", refuse)
    monkeypatch.setattr(NecklaceDiagram, "__init__", refuse)
    x = two_loops.parse_path("v a b a* b* b a")
    assert eta_rt(x) and eta_or(Necklace(two_loops.parse_path("v a b a* b* a b*")))
    assert len(path_coproduct(x)) == len(nc_coproduct(x)) == 7


def walked_intervals(monkeypatch, f, arg):
    """(f(arg), Counter of the intervals the cut walk enumerated) for each of
    two equal calls."""
    seen = []
    simple_cuts = hopf._simple_cuts

    def counting_simple_cuts(letters, start, lo, hi):
        seen.append((lo, hi))
        return simple_cuts(letters, start, lo, hi)

    monkeypatch.setattr(hopf, "_simple_cuts", counting_simple_cuts)
    runs = []
    for _ in range(2):
        del seen[:]
        runs.append((f(arg), Counter(seen)))
    return runs


def test_eta_memo_is_call_scoped(two_loops, monkeypatch):
    """Two equal calls do equal work, and within one call each sub-word is
    enumerated once."""
    x = two_loops.parse_path("v a a* b a b* a* a a*")
    for eta, arg in ((eta_rt, x), (eta_or, Necklace(x))):
        runs = walked_intervals(monkeypatch, eta, arg)
        assert runs[0] == runs[1]
        assert len(runs[0][1]) > 3 and set(runs[0][1].values()) == {1}


def test_s_rt_prelie_morphism(q1, two_loops):
    for q in (q1, two_loops):
        rep = verify_coalgebra_morphism(
            s_rt, delta_p_rt, chord_delta_p_rt, all_paths(q, 5), "S_rt pre-Lie morphism"
        )
        assert rep.ok


def test_s_or_lie_morphism(q1, loop, two_loops, loop_edge):
    for q in (q1, loop, two_loops, loop_edge):
        rep = verify_coalgebra_morphism(
            s_or, delta_or, chord_delta_or, all_necklaces(q, 4), "S_or Lie morphism"
        )
        assert rep.ok


def test_eta_rt_prelie_morphism(q1, loop_edge):
    for q in (q1, loop_edge):
        rep = verify_coalgebra_morphism(
            eta_rt, delta_p_rt, rho, all_paths(q, 4), "eta_rt pre-Lie morphism"
        )
        assert rep.ok


def test_eta_or_lie_morphism(q1, loop, two_loops, loop_edge):
    for q in (q1, loop, two_loops, loop_edge):
        rep = verify_coalgebra_morphism(
            eta_or, delta_or, rho_ss_oriented, all_necklaces(q, 4), "eta_or Lie morphism"
        )
        assert rep.ok


def test_s_rt_hopf_morphism(q1, two_loops):
    for q in (q1, two_loops):
        rep = verify_hopf_morphism(
            s_rt, path_coproduct, chord_coproduct, all_paths(q, 4), "S_rt Hopf morphism"
        )
        assert rep.ok


def test_d_rt_hopf_morphism(q1, two_loops):
    for q in (q1, two_loops):
        rep = verify_hopf_morphism(
            d_rt, chord_coproduct, tree_coproduct, path_diagrams(q, 4), "D_rt Hopf morphism"
        )
        assert rep.ok


def test_eta_rt_hopf_morphism(q1, loop_edge):
    for q in (q1, loop_edge):
        rep = verify_hopf_morphism(
            eta_rt, path_coproduct, tree_coproduct, all_paths(q, 4), "eta Hopf morphism"
        )
        assert rep.ok


def test_injectivity(q1, loop_edge):
    for q in (q1, loop_edge):
        assert verify_injectivity(eta_rt, all_paths(q, 5), "eta_rt injectivity").ok
        assert verify_injectivity(eta_or, all_necklaces(q, 4), "eta_or injectivity").ok


def test_point_projection_recovers_input(q1):
    x = ee4(q1)
    assert point_projection(eta_rt(x)) == LinComb.single(x)


def test_forgetting_decorations_not_injective(q1):
    # Stripping labels, flags, and the planar order maps every cut-free path
    # to the bare point, so distinct paths collide.
    anon = q1.trivial("1")

    def forget(t):
        kids = sorted(forget(c) for _, c in t.children)
        return RootedTree(anon, tuple((False, k) for k in kids))

    e = q1.letter("e")
    single = Path("1", (e,))  # no matched letter pair, only the empty cut
    img_single = eta_rt(single).map_basis(lambda t: LinComb.single(forget(t)))
    img_triv = eta_rt(q1.trivial("1")).map_basis(lambda t: LinComb.single(forget(t)))
    assert img_single == img_triv == LinComb.single(point(anon))


def test_coassoc_formula_examples(q1):
    e = q1.letter("e")
    assert verify_defect(coassoc_formula_defect, (q1.trivial("1"),), COASSOC).ok
    assert verify_defect(coassoc_formula_defect, (Path("1", (e, e.star())),), COASSOC).ok
    x = ee4(q1)
    assert verify_defect(coassoc_formula_defect, (x,), COASSOC).ok
    # The nested cut decomposes uniquely as inner before outer and supplies
    # the only depth-two term of the expansion.
    t1, t2 = q1.trivial("1"), q1.trivial("2")
    assert coassoc_formula_terms(x).coeff((M(t1), M(t2), M(t1))) == -1


def test_coassoc_formula_sweep(q1, loop, two_loops):
    for q in (q1, loop, two_loops):
        assert verify_defect(coassoc_formula_defect, all_paths(q, 5), COASSOC).ok


def test_formula_splits_equal_the_subset_filter():
    """The splits read off the nesting forest are those the 2^n subset filter
    keeps, on every FAMILY path of length <= 6 on the one-edge quivers and
    <= 5 on the others."""
    checked = 0
    for q in FAMILY.values():
        for x in all_paths(q, 6 if len(q.edges) == 1 else 5):
            assert coassoc_formula_terms(x) == oracle_formula_terms(x), x.text()
            checked += 1
    assert checked == 1982


def test_formula_terms_build_no_cut_beyond_the_enumeration(two_loops, monkeypatch):
    """The coassociativity defect builds only the cuts enumerate_cuts yields:
    the splits come off each cut's nesting forest, not from cuts of subsets."""
    paths = all_paths(two_loops, 4)
    enumerated = sum(len(enumerate_cuts(x)) for x in paths)
    built = []
    init = Cut.__init__

    def counting_init(self, pairs=()):
        built.append(pairs)
        init(self, pairs)

    monkeypatch.setattr(Cut, "__init__", counting_init)
    for x in paths:
        coassoc_formula_defect(x)
    assert len(built) == enumerated == 809


def _nested(h):
    """The chords of h with a parent in its nesting forest."""
    return [c for c, parent in zip(h.pairs, h.parents) if parent is not None]


def _childless(kids):
    """The top-level chords with nothing nested in them."""
    return [c for c in kids[None] if not kids[c]]


def _free_moves(kids):
    """Every subset of the childless top-level chords."""
    free = _childless(kids)
    return [list(m) for r in range(len(free) + 1) for m in itertools.combinations(free, r)]


def _forest_splits(h, kids):
    return [(_nested(h) + m, [c for c in kids[None] if c not in m]) for m in _free_moves(kids)]


def _childless_only_second(h, kids):
    return [(_nested(h), kids[None])]


def _childless_only_first(h, kids):
    return [(_nested(h) + _childless(kids), [c for c in kids[None] if kids[c]])]


def _nested_second(h, kids):
    return [(m, _nested(h) + [c for c in kids[None] if c not in m]) for m in _free_moves(kids)]


def formula_with_splits(splits, max_order=2):
    """hopf._formula_terms with its split rule replaced: splits(h, kids) lists
    the (first, second) chords of each cut h of order at most max_order."""

    def terms(x, cop_x):
        out = [((a, b, SYM_UNIT), c) for (a, b), c in cop_x.items()]
        for h in enumerate_cuts(x):
            if cut_order(h) <= max_order:
                kids = nesting_children(h)
                pieces = faces(x, kids)
                sign = epsilon(PathDiagram(x, h))
                for first, second in splits(h, kids):
                    slots = (first, second, [None])
                    out.append((tuple(Monomial(tuple(pieces[c] for c in s)) for s in slots), sign))
        return Tensor(3, out)

    return terms


@pytest.mark.parametrize(
    "mutant, witness, defect",
    [
        (formula_with_splits(_childless_only_second), "1 e e*", "-1 * {2} (x) 1 (x) {1}"),
        (formula_with_splits(_childless_only_first), "1 e e*", "-1 * 1 (x) {2} (x) {1}"),
        (formula_with_splits(_nested_second), "1 e e* e e*",
         "1 * 1 (x) {1}{2} (x) {1}; -1 * {1} (x) {2} (x) {1}"),
        (formula_with_splits(_forest_splits, max_order=1), "1 e e* e e*",
         "-1 * {1} (x) {2} (x) {1}"),
    ],
    ids=["childless chords only second", "childless chords only first",
         "depth-2 chords sent second", "order <= 1 cuts only"],
)
def test_coassoc_law_catches_a_mutated_split_rule(q1, monkeypatch, mutant, witness, defect):
    """Each mutant fails the law on the one-edge quiver, while the same
    expansion with the forest rule passes it."""
    sample = all_paths(q1, 4)
    monkeypatch.setattr(hopf, "_formula_terms", formula_with_splits(_forest_splits))
    assert verify_defect(coassoc_formula_defect, sample, COASSOC).ok
    monkeypatch.setattr(hopf, "_formula_terms", mutant)
    line = verify_defect(coassoc_formula_defect, sample, COASSOC).line()
    assert line == "FAIL %s: witness %s, defect %s" % (COASSOC, witness, defect)


def test_nc_coproduct_values(q1):
    e = q1.letter("e")
    x = Path("1", (e, e.star()))
    t1, t2 = q1.trivial("1"), q1.trivial("2")
    expect = (
        Tensor.single((Word((x,)), WORD_UNIT))
        + Tensor.single((WORD_UNIT, Word((x,))))
        - tensor(Word((t2,)), Word((t1,)))
    )
    assert nc_coproduct(x) == expect
    assert nc_coproduct(t1) == Tensor.single((Word((t1,)), WORD_UNIT)) + Tensor.single(
        (WORD_UNIT, Word((t1,)))
    )


def test_nc_coproduct_orders_components(star2):
    # e: 1 -> 2 and f: 1 -> 3; chords (1,2) and (3,4) produce the ordered word
    # (triv_2, triv_3), in chord left-endpoint order.
    e, f = star2.letter("e"), star2.letter("f")
    x = Path("1", (e, e.star(), f, f.star()))
    t1, t2, t3 = star2.trivial("1"), star2.trivial("2"), star2.trivial("3")
    got = nc_coproduct(x)
    assert got.coeff((Word((t2, t3)), Word((t1,)))) == 1
    assert got.coeff((Word((t3, t2)), Word((t1,)))) == 0


def test_nc_coassociativity_and_word_hopf_laws(q1, star2):
    for q, max_len in ((q1, 5), (star2, 4)):
        sw = lambda w: antipode_free(nc_coproduct, w)
        for x in all_paths(q, max_len):
            w = Word((x,))
            assert not coassoc_defect(nc_coproduct, w)
            assert not counit_defect(nc_coproduct, w)
            assert not antipode_defect(nc_coproduct, w, sw)


def test_nc_word_products(q1):
    # Multiplicative extension stays coassociative and counital on words.
    paths = all_paths(q1, 2)
    sw = lambda w: antipode_free(nc_coproduct, w)
    for x, y in itertools.product(paths, paths):
        w = Word((x, y))
        assert not coassoc_defect(nc_coproduct, w)
        assert not counit_defect(nc_coproduct, w)
        assert not antipode_defect(nc_coproduct, w, sw)


def test_nc_antipode_antimultiplicative(q1):
    from quiverhopf.symalg import mul_lincomb

    paths = all_paths(q1, 2)
    for x, y in itertools.product(paths[:4], paths[:4]):
        lhs = antipode_free(nc_coproduct, Word((x, y)))
        rhs = mul_lincomb(
            antipode_free(nc_coproduct, Word((y,))),
            antipode_free(nc_coproduct, Word((x,))),
        )
        assert lhs == rhs


def abelianize(w: Word) -> Monomial:
    return Monomial(w.factors)


def test_nc_abelianization_matches_symmetric(q1, star2, two_loops):
    def ab_tensor(t):
        out = Tensor(2)
        for (a, b), c in t.terms():
            out = out + c * Tensor.single((abelianize(a), abelianize(b)))
        return out

    for q in (q1, star2, two_loops):
        for x in all_paths(q, 5):
            assert ab_tensor(nc_coproduct(x)) == path_coproduct(x)


def family_max_len(q) -> int:
    """Sweep length on a FAMILY quiver: 5, or 4 on those with two or more edges."""
    return 5 if len(q.edges) < 2 else 4


def path_coproduct_oracle_mismatch():
    """The first FAMILY path on which path_coproduct or nc_coproduct differs
    from the simple-cut coproduct built through chord diagrams, or None."""
    for q in FAMILY.values():
        for x in all_paths(q, family_max_len(q)):
            if path_coproduct(x) != oracle_cut_coproduct(x, Monomial):
                return x
            if nc_coproduct(x) != oracle_cut_coproduct(x, Word):
                return x
    return None


def test_path_coproducts_equal_the_chord_diagram_oracle():
    assert path_coproduct_oracle_mismatch() is None


def test_path_coproduct_oracle_catches_reversed_chord_order(monkeypatch):
    """An nc_coproduct whose severed word runs right to left fails the oracle."""
    monkeypatch.setattr(hopf, "Word", lambda factors=(): Word(tuple(factors)[::-1]))
    assert path_coproduct_oracle_mismatch() is not None


def test_prelie_part_of_path_coproduct_is_delta_p_rt(q1, two_loops):
    """The one-piece part of each graft coproduct is its pre-Lie map: on
    paths, chord diagrams and decorated rooted trees."""
    from quiverhopf.bridge import extract_prelie, monomialize

    cases = [(path_coproduct, delta_p_rt, all_paths(q, 5)) for q in (q1, two_loops)]
    for q in FAMILY.values():
        cases.append((chord_coproduct, chord_delta_p_rt, path_diagrams(q, family_max_len(q))))
        cases.append((tree_coproduct, rho, tree_sample(q, 3)))
    for cop, prelie, sample in cases:
        for x in sample:
            assert monomialize(extract_prelie(cop, x)) == monomialize(prelie(x))


def test_path_antipode_memo_is_call_scoped(two_loops, monkeypatch):
    """Two equal calls do equal work: no memo outlives its call, and within
    one call each sub-word is walked once."""
    x = two_loops.parse_path("v a b a* b a* b*")
    runs = walked_intervals(monkeypatch, path_antipode, x)
    assert runs[0] == runs[1]
    assert len(runs[0][1]) > 3 and set(runs[0][1].values()) == {1}


# The six word shapes of the benchmark's long_words workload over two_loops:
# 166 to 607 cuts each, 58 to 161 of them simple.
LONG_WORDS = (
    "v b* b a* a a* b* b b* b* b* a* a* b* b*",
    "v b b b* b a b a* a a* b a* a* b a",
    "v a a a a* b b* a a a a* b* b* a b",
    "v b* b* a* a* a* b a a b* b* a b a b",
    "v b* a* b b b* b b a* a* b b* a b a",
    "v b* a* b* a a a* a b b* b* b b* b* a*",
)


def antipode_oracle_mismatch():
    """The first FAMILY path (of length <= family_max_len) or long two_loops
    word on which path_antipode differs from the geometric series of the
    reduced path coproduct, or None."""
    samples = [all_paths(q, family_max_len(q)) for q in FAMILY.values()]
    samples.append([FAMILY["two_loops"].parse_path(w) for w in LONG_WORDS])
    for x in itertools.chain.from_iterable(samples):
        if path_antipode(x) != antipode_free(path_coproduct, Monomial((x,))):
            return x
    return None


def test_path_antipode_equals_the_geometric_series():
    """The cut-forest sum over the eta walk is the series' closed form."""
    assert antipode_oracle_mismatch() is None


@pytest.mark.parametrize(
    "mutant, witness",
    [
        (lambda walk: lambda x, graft, signed, factor=1: walk(x, graft, False, factor), "1 e e*"),
        (lambda walk: lambda x, graft, signed, factor=1: walk(x, graft, signed, -factor), "1"),
    ],
    ids=["cut sign dropped", "component factor +1"],
)
def test_antipode_oracle_catches_a_mutated_walk(monkeypatch, mutant, witness):
    monkeypatch.setattr(hopf, "_graft_cuts", mutant(hopf._graft_cuts))
    assert antipode_oracle_mismatch().text() == witness


def test_antipode_oracle_catches_dropped_children(monkeypatch):
    monkeypatch.setattr(hopf, "_forest", lambda outer, kids: Monomial((outer,)))
    assert antipode_oracle_mismatch().text() == "1 e e*"


def test_structure_maps_have_int_coefficients(q1, two_loops, loop_edge):
    paths = all_paths(two_loops, 4) + all_paths(loop_edge, 3)
    necklaces = all_necklaces(two_loops, 4) + all_necklaces(loop_edge, 4)
    trees = tree_sample(q1, 3)
    values = []
    for x in paths:
        values += [delta_p_rt(x), path_coproduct(x), nc_coproduct(x), eta_rt(x)]
        values += [path_antipode(x)] if len(x) <= 3 else []
    for x in necklaces:
        values += [delta_or(x), eta_or(x), eta_or(x, signed=True)]
    for t in trees:
        values += [rho(t), tree_coproduct(t)]
    for d in path_diagrams(two_loops, 3):
        values.append(chord_coproduct(d))
    assert len(values) > 1500
    coefficient_types = {type(c) for v in values for _, c in v.items()}
    assert coefficient_types == {int}
