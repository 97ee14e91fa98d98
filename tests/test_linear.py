import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiverhopf.linear import (
    SYM_UNIT,
    BasisElement,
    LinComb,
    Monomial,
    Tensor,
    Word,
    as_scalar,
    format_scalar,
    tensor,
    wedge,
)


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


def test_tensor_permute_arity_mismatch():
    with pytest.raises(ValueError):
        tensor(A, B).permute((2, 3, 1))


@given(st.sampled_from(all_permutations(3)), st.sampled_from(all_permutations(3)))
def test_permute_group_action(sigma, pi):
    t = tensor(A, B, C) + 3 * tensor(C, A, A)
    assert t.permute(sigma).permute(pi) == t.permute(perm_compose(pi, sigma))


def test_wedge():
    assert wedge(A, A) == 0
    assert wedge(A, B) == tensor(A, B) - tensor(B, A)
    assert wedge(2 * LinComb.single(A), LinComb.single(B)) == 2 * wedge(A, B)


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


def test_keys_are_type_tagged():
    # Same payload in different basis types must never collide.
    assert Monomial((A,)) != Word((A,))
    assert len({Monomial((A,)).skey, Word((A,)).skey, A.skey}) == 3


def test_slot_map_and_expand():
    t = tensor(A, B)
    swap = lambda x: LinComb.single(B if x == A else A)
    assert t.slot_map(0, swap) == tensor(B, B)
    dup = lambda x: tensor(x, x)
    assert t.slot_expand(1, dup, 2) == tensor(A, B, B)


def test_tensor_is_a_lincomb_over_tuple_keys():
    assert issubclass(Tensor, LinComb)
    t = tensor(A, B) + 2 * tensor(B, A)
    assert t.coeff([B, A]) == 2
    assert t.text() == "1 * X|a (x) X|b\n2 * X|b (x) X|a"
    assert repr(t) == "Tensor(1*X|a (x) X|b + 2*X|b (x) X|a)"
    assert repr(LinComb(((A, 1), (B, -1)))) == "LinComb(1*X|a + -1*X|b)"
    assert -t == (-1) * t == t * (-1)


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

