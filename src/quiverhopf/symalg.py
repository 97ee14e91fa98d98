"""Multiplicative coalgebra machinery on free commutative/ordered monoids.

A generator-level coproduct (basis element -> arity-2 tensor over monomials
or words) extends multiplicatively to all monomials. This module supplies
the graft-shaped body of every generator coproduct, that extension, the
multiplicative extension of any generator map, the reduced coproduct
obtained by dropping unit slots, the geometric-series antipode, and the
coassociativity and antipode defects used by the law checkers. All of it
works for Monomial (symmetric) and Word (ordered) slots alike: each carries
its own product and unit, and lift_generator reads the monoid off a coproduct.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable

from .linear import LinComb, Monomial, Tensor


MAX_STEPS = 64  # the antipode series gives up after this many steps


def lift_generator(gen_cop: Callable, x):
    """x in the monoid (Monomial or Word) that gen_cop(x) is valued in, read
    off a slot of its terms; every graft coproduct holds x (x) 1."""
    for (a, _), _ in gen_cop(x).items():
        return type(a)((x,))
    raise ValueError("the coproduct of %s has no terms, so it names no monoid" % x.text())


def graft_coproduct(x, splits, kind=Monomial) -> Tensor:
    """Graft-shaped coproduct of a generator x, valued in pairs of `kind`
    (Monomial or Word).

    x (x) 1 plus sign * kind(severed) (x) kind((trunk,)) for every
    (severed, trunk, sign) in splits; the empty split supplies 1 (x) x.
    """
    unit = kind(())
    terms = [((kind((x,)), unit), 1)]
    terms.extend(((kind(s) if s else unit, kind((t,))), c) for s, t, c in splits)
    return Tensor(2, terms)


def _check_monoid(kind, elements) -> None:
    """Raise the monoid product's TypeError unless every element is of the
    monoid kind: the check a fold from the unit makes on its first factor."""
    for a in elements:
        if type(a) is not kind:
            raise TypeError("cannot multiply %s by %s" % (kind.__name__, type(a).__name__))


def cop_free(gen_cop: Callable, m) -> Tensor:
    """Multiplicative extension of a generator coproduct to a monomial/word.

    gen_cop must return the full coproduct of a generator (including the
    x (x) 1 and 1 (x) x terms) with slots already of the same monoid type as m.
    The fold starts from the first factor's coproduct, so a one-factor m gets
    its generator's own tensor; later factors meet it through the monoid
    product, which checks their slots.
    """
    if not m.factors:
        return Tensor.single((m, m))
    first, *rest = m.factors
    out = gen_cop(first)
    if type(out) is not Tensor:
        raise TypeError("a generator coproduct must be a Tensor, got %r" % (out,))
    if out.arity != 2:
        raise ValueError("a generator coproduct must have arity 2, got %d" % out.arity)
    _check_monoid(type(m), itertools.chain.from_iterable(key for key, _ in out.items()))
    for x in rest:
        add = gen_cop(x).items()
        out = Tensor(
            2,
            (((a * a2, b * b2), c * c2) for (a, b), c in out.items() for (a2, b2), c2 in add),
        )
    return out


def reduced_cop(gen_cop: Callable, m) -> Tensor:
    """Coproduct with both unit-slot components removed.

    For the graft-shaped coproducts used here the unit-slot parts of a
    monomial's coproduct are exactly m (x) 1 and 1 (x) m, so this is the usual
    reduced coproduct.
    """
    return Tensor(
        2,
        (((a, b), c) for (a, b), c in cop_free(gen_cop, m).items()
         if not (a.is_unit() or b.is_unit())),
    )


def multiply_slots(t: Tensor) -> LinComb:
    """Multiply all tensor slots together: mu^n applied to an (n+1)-tensor."""
    return LinComb((functools.reduce(operator.mul, key), c) for key, c in t.items())


def antipode_free(gen_cop: Callable, m) -> LinComb:
    """Geometric-series antipode of a monomial/word.

    S(m) = -m + sum_{n>=1} (-1)^(n+1) mu^n (reduced cop)^n (m), with S(1) = 1.
    The series terminates because every reduced-coproduct slot strictly drops
    the grading; MAX_STEPS guards against a non-terminating (ungraded) input.
    This is the convolution-inverse series, so it is valid for the ordered
    (word) algebra as well, where it is automatically anti-multiplicative.
    Within one call each generator's coproduct and each monomial's reduced
    coproduct is computed once.
    """
    if m.is_unit():
        return LinComb.single(m, 1)
    gen = functools.cache(gen_cop)
    reduced = functools.cache(lambda x: reduced_cop(gen, x))
    result = LinComb.single(m, -1)
    current = reduced(m)  # arity 2
    sign = 1
    steps = 0
    while current:
        steps += 1
        if steps > MAX_STEPS:
            raise RuntimeError(
                "antipode series did not terminate within %d steps; "
                "the coproduct does not strictly decrease any grading" % MAX_STEPS
            )
        result = result + sign * multiply_slots(current)
        current = current.slot_expand(0, reduced)
        sign = -sign
    return result


def mul_lincomb(a: LinComb, b: LinComb) -> LinComb:
    """Product of combinations of monomials/words, factor-wise."""
    return LinComb((m1 * m2, c1 * c2) for m1, c1 in a.items() for m2, c2 in b.items())


def multiplicative(f: Callable, m) -> LinComb:
    """Multiplicative extension of a generator map to a monomial/word.

    The product of f(x) over the factors x of m, in order; f sends a generator
    to a combination of monomials or words of m's monoid. The unit goes to 1,
    and a one-factor m to its generator's own image, once every key of that
    image is known to be of m's monoid.
    """
    if not m.factors:
        return LinComb.single(m)
    first, *rest = m.factors
    out = f(first)
    _check_monoid(type(m), (y for y, _ in out.items()))
    for x in rest:
        out = mul_lincomb(out, f(x))
    return out


def coassoc_defect(gen_cop: Callable, m) -> Tensor:
    """(cop (x) 1)cop(m) - (1 (x) cop)cop(m) as an arity-3 tensor.

    Both sides share one call-scoped memo of the monomial coproducts.
    """
    cop = functools.cache(lambda a: cop_free(gen_cop, a))
    t = cop(m)
    return t.slot_expand(0, cop) - t.slot_expand(1, cop)


def antipode_defect(gen_cop: Callable, m, antipode: Callable) -> LinComb:
    """mu(S (x) 1)cop(m) - eps(m)·1 for a monomial/word m."""
    acc = LinComb(
        (sa * b, c * ca)
        for (a, b), c in cop_free(gen_cop, m).items()
        for sa, ca in antipode(a).items()
    )
    if m.is_unit():
        acc = acc - LinComb.single(m)
    return acc
