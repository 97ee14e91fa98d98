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
    enumerate_cuts,
    path_diagrams,
)
from quiverhopf.dual import d_rt
from quiverhopf.hopf import (
    coassoc_formula_defect,
    coassoc_formula_terms,
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
    antipode_monomial,
    coassoc_defect,
    cop_free,
)
from quiverhopf.trees import OrientedTree, RootedTree, point, rho, rho_ss_oriented, tree_coproduct
from quiverhopf.verify import (
    verify_coalgebra_morphism,
    verify_defect,
    verify_hopf_morphism,
    verify_injectivity,
)
from support import counit_defect

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
        prod = Tensor.zero(2)
        for (a1, a2), c1 in a.terms():
            for (b1, b2), c2 in b.terms():
                prod = prod + c1 * c2 * Tensor.single((a1 * b1, a2 * b2))
        assert lhs == prod


def test_path_antipode_values(q1):
    t1, t2 = q1.trivial("1"), q1.trivial("2")
    assert path_antipode(t1) == LinComb.single(M(t1), -1)
    e = q1.letter("e")
    x = Path("1", (e, e.star()))
    assert path_antipode(x) == LinComb(((M(x), -1), (M(t2, t1), -1)))


def test_path_antipode_axiom(q1, loop, two_loops):
    sm = lambda m: antipode_monomial(path_coproduct, m)
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
    edge = OrientedTree((n1, n2), ((0, 1),), ((0,), (0,)))
    pt = OrientedTree((n,), (), ((),))
    # Unsigned default: both summands positive.
    assert eta_or(n) == LinComb.single(pt) + LinComb.single(edge)
    assert eta_or(n, signed=True) == LinComb.single(pt) - LinComb.single(edge)


def test_eta_equals_direct_summation(q1, loop_edge):
    # eta is implemented as the composite through chord diagrams; the direct
    # sum over cuts of (sign times dual tree) must agree.
    from quiverhopf.cuts import epsilon
    from quiverhopf.dual import dual_oriented_tree, dual_rooted_tree

    for q in (q1, loop_edge):
        for x in all_paths(q, 5):
            direct = LinComb()
            for h in enumerate_cuts(x):
                direct = direct + LinComb.single(dual_rooted_tree(x, h), epsilon(x, h))
            assert eta_rt(x) == direct
        for n in all_necklaces(q, 4):
            direct = LinComb()
            for h in enumerate_cuts(n.rep):
                direct = direct + LinComb.single(dual_oriented_tree(NecklaceDiagram(n.rep, h)))
            assert eta_or(n) == direct


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
        out = Tensor.zero(2)
        for (a, b), c in t.terms():
            out = out + c * Tensor.single((abelianize(a), abelianize(b)))
        return out

    for q in (q1, star2, two_loops):
        for x in all_paths(q, 5):
            assert ab_tensor(nc_coproduct(x)) == path_coproduct(x)


def test_prelie_part_of_path_coproduct_is_delta_p_rt(q1, two_loops):
    from quiverhopf.bridge import extract_prelie, monomialize

    for q in (q1, two_loops):
        for x in all_paths(q, 5):
            assert monomialize(extract_prelie(path_coproduct, x)) == monomialize(
                delta_p_rt(x)
            )


def test_path_antipode_memo_is_call_scoped(two_loops, monkeypatch):
    """Two equal calls do equal work: no memo outlives its call."""
    seen = []

    def counting_path_coproduct(x):
        seen.append(x)
        return path_coproduct(x)

    monkeypatch.setattr(hopf, "path_coproduct", counting_path_coproduct)
    x = two_loops.parse_path("v a b a* b a* b*")
    runs = []
    for _ in range(2):
        del seen[:]
        runs.append((hopf.path_antipode(x), Counter(seen)))
    assert runs[0] == runs[1]
    # Within one call each path's coproduct is computed once.
    assert set(runs[0][1].values()) == {1}


def test_structure_maps_have_int_coefficients(q1, two_loops, loop_edge):
    from quiverhopf.verify import tree_sample

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
