"""Multiplicative coalgebra machinery on free commutative/ordered monoids.

A generator-level coproduct (basis element -> arity-2 tensor over monomials
or words) extends multiplicatively to all monomials. This module supplies
that extension, the multiplicative extension of any generator map, the
reduced coproduct obtained by dropping unit slots, the geometric-series
antipode, and the coassociativity and antipode defects used by the law
checkers. Everything works for both Monomial (symmetric) and Word (ordered)
coefficients because both carry their own multiplication and unit.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable

from .linear import LinComb, Monomial, Tensor


def _unit_like(m):
    return type(m)(())


def cop_free(gen_cop: Callable, m) -> Tensor:
    """Multiplicative extension of a generator coproduct to a monomial/word.

    gen_cop must return the full coproduct of a generator (including the
    x (x) 1 and 1 (x) x terms) with slots already of the same monoid type as m.
    """
    unit = _unit_like(m)
    out = Tensor.single((unit, unit))
    for x in m.factors:
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


def antipode_free(gen_cop: Callable, m, max_steps: int = 64) -> LinComb:
    """Geometric-series antipode of a monomial/word.

    S(m) = -m + sum_{n>=1} (-1)^(n+1) mu^n (reduced cop)^n (m), with S(1) = 1.
    The series terminates because every reduced-coproduct slot strictly drops
    the grading; max_steps guards against a non-terminating (ungraded) input.
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
        if steps > max_steps:
            raise RuntimeError(
                "antipode series did not terminate within %d steps; "
                "the coproduct does not strictly decrease any grading" % max_steps
            )
        result = result + sign * multiply_slots(current)
        current = current.slot_expand(0, reduced, 2)
        sign = -sign
    return result


def antipode_monomial(gen_cop: Callable, m: Monomial, max_steps: int = 64) -> LinComb:
    """Antipode of a symmetric monomial via (anti)multiplicativity.

    In the commutative case S(xy) = S(y)S(x) = S(x)S(y), so the product of
    the per-generator antipodes.
    """
    return multiplicative(lambda x: antipode_free(gen_cop, Monomial((x,)), max_steps), m)


def mul_lincomb(a: LinComb, b: LinComb) -> LinComb:
    """Product of combinations of monomials/words, factor-wise."""
    return LinComb((m1 * m2, c1 * c2) for m1, c1 in a.items() for m2, c2 in b.items())


def multiplicative(f: Callable, m) -> LinComb:
    """Multiplicative extension of a generator map to a monomial/word.

    The product of f(x) over the factors x of m, in order, starting from the
    unit of m's monoid; f sends a generator to a combination of monomials or
    words of that monoid.
    """
    out = LinComb.single(_unit_like(m))
    for x in m.factors:
        out = mul_lincomb(out, f(x))
    return out


def coassoc_defect(gen_cop: Callable, m) -> Tensor:
    """(cop (x) 1)cop(m) - (1 (x) cop)cop(m) as an arity-3 tensor.

    Both sides share one call-scoped memo of the monomial coproducts.
    """
    cop = functools.cache(lambda a: cop_free(gen_cop, a))
    t = cop(m)
    return t.slot_expand(0, cop, 2) - t.slot_expand(1, cop, 2)


def antipode_defect(gen_cop: Callable, m, antipode: Callable) -> LinComb:
    """mu(S (x) 1)cop(m) - eps(m)·1 for a monomial/word m."""
    acc = LinComb(
        (sa * b, c * ca)
        for (a, b), c in cop_free(gen_cop, m).items()
        for sa, ca in antipode(a).items()
    )
    if m.is_unit():
        acc = acc - LinComb.single(_unit_like(m), 1)
    return acc
