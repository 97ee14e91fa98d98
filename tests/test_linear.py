import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quiverhopf.cobrackets import delta_p_rt
from quiverhopf.linear import (
    SYM_UNIT,
    WORD_UNIT,
    BasisElement,
    LinComb,
    Monomial,
    Tensor,
    Word,
    as_scalar,
    format_scalar,
    skew,
    tensor,
)

from quiverhopf.quiver import all_paths
from quiverhopf.trees import all_rooted_trees
from quiverhopf.verify import FAMILY
from support import oracle_permute


def b(name):
    return BasisElement("X|" + name)


A, B, C = b("a"), b("b"), b("c")


def perm_compose(p, q):
    """Composition p after q in one-line notation: (p*q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(q)))


def all_permutations(n: int):
    return list(itertools.permutations(range(1, n + 1)))

small_scalars = st.integers(min_value=-4, max_value=4).map(Fraction)
elems = st.sampled_from([A, B, C])
lincombs = st.lists(st.tuples(elems, small_scalars), max_size=4).map(LinComb)
tensors2 = st.lists(st.tuples(st.tuples(elems, elems), small_scalars), max_size=4).map(
    lambda terms: Tensor(2, terms)
)
# Three values of one kind: linear combinations, or arity-2 tensors.
triples = st.one_of(*(st.tuples(s, s, s) for s in (lincombs, tensors2)))


def zero_like(x):
    return LinComb() if type(x) is LinComb else Tensor(x.arity)


def test_lincomb_drops_zeros():
    x = LinComb(((A, 1), (A, -1), (B, 2)))
    assert x.coeff(A) == 0
    assert x.coeff(B) == 2
    assert len(x) == 1


def test_lincomb_rejects_floats():
    with pytest.raises(TypeError):
        LinComb(((A, 0.5),))


def test_scalars_stay_int_until_a_division():
    assert as_scalar(3) == 3 and type(as_scalar(3)) is int
    assert as_scalar(True) == 1 and type(as_scalar(True)) is int
    half = Fraction(1, 2)
    assert as_scalar(half) is half
    x = LinComb(((A, 3), (B, -2)))
    assert [type(c) for _, c in x.terms()] == [int, int]
    assert type(x.coeff(C)) is int and x.coeff(C) == 0
    assert type((2 * x - x).coeff(A)) is int
    y = Fraction(1, 2) * x
    assert y.coeff(A) == Fraction(3, 2) and y.coeff(B) == -1
    assert (2 * y) == x
    t = tensor(x, x)
    assert all(type(c) is int for _, c in t.terms())
    assert type(t.coeff((A, C))) is int
    assert format_scalar(-1, structured=True) == format_scalar(Fraction(-1), structured=True)


@given(triples)
def test_module_axioms(xyz):
    x, y, z = xyz
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x - x == zero_like(x)
    assert 2 * (x + y) == 2 * x + 2 * y
    assert (Fraction(1, 2) * x) * 2 == x


@given(st.one_of(lincombs, tensors2), small_scalars, small_scalars)
def test_scalar_action(x, c, d):
    assert c * (d * x) == (c * d) * x
    assert (c + d) * x == c * x + d * x


def test_tensor_permute_transposition():
    t = tensor(A, B)
    assert t.permute((2, 1)) == tensor(B, A)


def test_tensor_permute_three_cycle():
    # (123) sends slot content a(x)b(x)c to c(x)a(x)b.
    t = tensor(A, B, C)
    assert t.permute((2, 3, 1)) == tensor(C, A, B)


def test_tensor_permute_identity():
    t = tensor(A, B, C) - 2 * tensor(B, B, A)
    assert t.permute((1, 2, 3)) == t


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_permute_matches_the_tuple_generator_body(n):
    # Distinct coefficients, so a slot sent to the wrong place shows.
    keys = itertools.product((A, B, C), repeat=n)
    t = Tensor(n, ((key, i + 1) for i, key in enumerate(keys)))
    for images in all_permutations(n):
        out = t.permute(images)
        assert out.arity == n
        assert out == oracle_permute(t, images)


def test_tensor_permute_arity_mismatch():
    with pytest.raises(ValueError):
        tensor(A, B).permute((2, 3, 1))


@given(st.sampled_from(all_permutations(3)), st.sampled_from(all_permutations(3)))
def test_permute_group_action(sigma, pi):
    t = tensor(A, B, C) + 3 * tensor(C, A, A)
    assert t.permute(sigma).permute(pi) == t.permute(perm_compose(pi, sigma))


def test_wedge():
    assert skew(tensor(A, A)) == 0
    assert skew(tensor(A, B)) == tensor(A, B) - tensor(B, A)
    assert skew(tensor(2 * LinComb.single(A), LinComb.single(B))) == 2 * skew(tensor(A, B))


@given(tensors2)
def test_skew_is_t_minus_its_swap(t):
    assert skew(t) == t - t.permute((2, 1))


def to_y(x):
    """A basis map into another basis, sending a and b to one element."""
    return BasisElement("Y|" + ("c" if x == C else "ab"))


@given(tensors2)
def test_skew_maps_both_slots(t):
    expected = Tensor(2)
    for (x, y), c in t.terms():
        expected = expected + c * (tensor(to_y(x), to_y(y)) - tensor(to_y(y), to_y(x)))
    assert skew(t, to_y) == expected


def test_skew_rejects_other_arities():
    with pytest.raises(ValueError):
        skew(tensor(A, B, C))


def sym_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """Product in the symmetric algebra: multiset union of the factors."""
    return m1 * m2


def test_sym_mul():
    ma, mb = Monomial((A,)), Monomial((B,))
    assert sym_mul(ma, mb) == Monomial((A, B)) == Monomial((B, A))
    assert sym_mul(Monomial((A, B)), SYM_UNIT) == Monomial((A, B))
    assert sym_mul(ma, ma) == Monomial((A, A))


@given(
    st.lists(elems, max_size=3).map(Monomial),
    st.lists(elems, max_size=3).map(Monomial),
    st.lists(elems, max_size=3).map(Monomial),
)
def test_sym_mul_laws(m1, m2, m3):
    assert m1 * m2 == m2 * m1
    assert (m1 * m2) * m3 == m1 * (m2 * m3)
    assert m1 * SYM_UNIT == m1


def test_word_order_matters():
    assert Word((A, B)) != Word((B, A))
    assert Word((A,)) * Word((B,)) == Word((A, B))


@pytest.mark.parametrize("kind, unit", [(Monomial, SYM_UNIT), (Word, WORD_UNIT)])
def test_product_with_the_unit_is_the_other_factor(kind, unit):
    m = kind((B, A))
    assert m * unit is m
    assert unit * m is m
    assert unit * kind(()) is unit


def test_monomials_and_words_never_multiply_each_other():
    # The unit of either monoid is no exception.
    for left, right in (
        (Monomial(()), Word((A,))),
        (Word(()), Monomial((A,))),
        (Word((A,)), Monomial(())),
        (Monomial((A,)), Word(())),
    ):
        with pytest.raises(TypeError, match="cannot multiply"):
            left * right


def test_keys_are_type_tagged():
    # Same payload in different basis types must never collide.
    assert Monomial((A,)) != Word((A,))
    assert len({Monomial((A,)).skey, Word((A,)).skey, A.skey}) == 3


# Paths and rooted trees of two_loops: factors of both kinds, whose keys the
# monoid keys hold side by side.
_PATHS = all_paths(FAMILY["two_loops"], 2)
MIXED = _PATHS + all_rooted_trees(1, _PATHS[:2], (False, True))


@given(st.lists(st.sampled_from(MIXED), max_size=5))
@example([])
@example([MIXED[-1], MIXED[0], MIXED[-1], MIXED[0]])
def test_product_keys_are_the_bracketed_factor_keys(fs):
    # The oracle sorts through BasisElement.__lt__ and brackets one factor at
    # a time.
    m = Monomial(fs)
    assert m.factors == tuple(sorted(fs))
    assert m.skey == "M|" + "".join("{%s}" % f.skey for f in sorted(fs))
    w = Word(fs)
    assert w.factors == tuple(fs)
    assert w.skey == "W|" + "".join("(%s)" % f.skey for f in fs)


def test_slot_map_and_expand():
    t = tensor(A, B)
    dup = lambda x: tensor(x, x)
    assert t.slot_expand(1, dup) == tensor(A, B, B)
    with pytest.raises(ValueError, match="expected arity 2, got 3"):
        t.slot_expand(0, lambda x: tensor(x, x, x))


def test_slot_expand_rejects_a_slot_outside_the_tensor(two_loops):
    # A negative slot once read a slot from the end and gave 5-slot keys in
    # an arity-3 tensor; slot == arity raised a bare IndexError, and only on
    # a tensor with a term.
    t = delta_p_rt(two_loops.parse_path("v a a a* a*"))
    assert t.arity == 2 and t
    assert t.slot_expand(1, delta_p_rt).arity == 3
    for tens in (t, Tensor(2)):
        for slot in (-1, tens.arity):
            with pytest.raises(ValueError, match="slot %d is not in 0..1" % slot):
                tens.slot_expand(slot, delta_p_rt)


def test_tensor_is_a_lincomb_over_tuple_keys():
    assert issubclass(Tensor, LinComb)
    t = tensor(A, B) + 2 * tensor(B, A)
    assert t.coeff([B, A]) == 2
    assert t.text() == "1 * X|a (x) X|b\n2 * X|b (x) X|a"
    assert repr(t) == "Tensor(1*X|a (x) X|b + 2*X|b (x) X|a)"
    assert repr(LinComb(((A, 1), (B, -1)))) == "LinComb(1*X|a + -1*X|b)"
    assert -t == (-1) * t == t * (-1)


def test_tensor_needs_a_factor():
    for make in (tensor, lambda: Tensor(0)):
        with pytest.raises(ValueError, match="tensor arity must be >= 1"):
            make()


def test_zeros_of_different_shapes_differ():
    assert Tensor(2) != Tensor(3)
    assert LinComb() != Tensor(2) and Tensor(2) != LinComb()
    assert LinComb() == 0 and Tensor(2) == 0 and Tensor(3) == 0
    assert tensor(A, B) != LinComb.single(A)


def test_mixed_operands_raise():
    a, t = LinComb.single(A), tensor(A, B)
    for op in (lambda u, v: u + v, lambda u, v: u - v):
        with pytest.raises(TypeError):
            op(a, t)
        with pytest.raises(TypeError):
            op(t, a)
        with pytest.raises(ValueError):
            op(t, tensor(A, B, C))
    with pytest.raises(TypeError):
        tensor(t, A)

