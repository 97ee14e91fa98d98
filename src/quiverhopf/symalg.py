"""Multiplicative coalgebra machinery on free commutative/ordered monoids.

A generator-level coproduct (basis element -> arity-2 tensor over monomials
or words) extends multiplicatively to all monomials. This module supplies
that extension, the reduced coproduct obtained by dropping unit slots, the
geometric-series antipode, counit evaluation, and coassociativity/counit/
antipode defect computations used by the law checkers. Everything works for
both Monomial (symmetric) and Word (ordered) coefficients because both carry
their own multiplication and unit.
"""

from __future__ import annotations

from typing import Callable

from .linear import LinComb, Monomial, Tensor, Word


def _unit_like(m):
    return type(m)(())


def promote(x, kind=Monomial):
    """Wrap a bare generator into a one-factor monomial/word."""
    if isinstance(x, (Monomial, Word)):
        return x
    return kind((x,))


def cop_free(gen_cop: Callable, m) -> Tensor:
    """Multiplicative extension of a generator coproduct to a monomial/word.

    gen_cop must return the full coproduct of a generator (including the
    x (x) 1 and 1 (x) x terms) with slots already of the same monoid type as m.
    """
    unit = _unit_like(m)
    out = Tensor.single((unit, unit))
    for x in m.factors:
        add = gen_cop(x)
        acc = Tensor.zero(2)
        for (a, b), c in out.terms():
            for (a2, b2), c2 in add.terms():
                acc = acc + Tensor.single((a * a2, b * b2), c * c2)
        out = acc
    return out


def reduced_cop(gen_cop: Callable, m) -> Tensor:
    """Coproduct with both unit-slot components removed.

    For the graft-shaped coproducts used here the unit-slot parts of a
    monomial's coproduct are exactly m (x) 1 and 1 (x) m, so this is the usual
    reduced coproduct.
    """
    full = cop_free(gen_cop, m)
    out = Tensor.zero(2)
    for (a, b), c in full.terms():
        if a.is_unit() or b.is_unit():
            continue
        out = out + Tensor.single((a, b), c)
    return out


def multiply_slots(t: Tensor) -> LinComb:
    """Multiply all tensor slots together: mu^n applied to an (n+1)-tensor."""
    acc = LinComb()
    for key, c in t.terms():
        prod = key[0]
        for x in key[1:]:
            prod = prod * x
        acc = acc + LinComb.single(prod, c)
    return acc


def antipode_free(gen_cop: Callable, m, max_steps: int = 64) -> LinComb:
    """Geometric-series antipode of a monomial/word.

    S(m) = -m + sum_{n>=1} (-1)^(n+1) mu^n (reduced cop)^n (m), with S(1) = 1.
    The series terminates because every reduced-coproduct slot strictly drops
    the grading; max_steps guards against a non-terminating (ungraded) input.
    This is the convolution-inverse series, so it is valid for the ordered
    (word) algebra as well, where it is automatically anti-multiplicative.
    """
    if m.is_unit():
        return LinComb.single(m, 1)
    result = LinComb.single(m, -1)
    current = reduced_cop(gen_cop, m)  # arity 2
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
        current = current.slot_expand(0, lambda x: reduced_cop(gen_cop, x), 2)
        sign = -sign
    return result


def antipode_gen(gen_cop: Callable, x, kind=Monomial, max_steps: int = 64) -> LinComb:
    """Antipode of a single generator, as a combination of monomials/words."""
    return antipode_free(gen_cop, promote(x, kind), max_steps)


def antipode_monomial(gen_cop: Callable, m: Monomial, max_steps: int = 64) -> LinComb:
    """Antipode of a symmetric monomial via (anti)multiplicativity.

    In the commutative case S(xy) = S(y)S(x) = S(x)S(y), so the product of
    the per-generator antipodes.
    """
    result = LinComb.single(Monomial(()), 1)
    for x in m.factors:
        result = mul_lincomb(result, antipode_gen(gen_cop, x, Monomial, max_steps))
    return result


def mul_lincomb(a: LinComb, b: LinComb) -> LinComb:
    """Product of combinations of monomials/words, factor-wise."""
    acc = LinComb()
    for m1, c1 in a.terms():
        for m2, c2 in b.terms():
            acc = acc + LinComb.single(m1 * m2, c1 * c2)
    return acc


def counit(lc: LinComb):
    """Coefficient of the unit monomial: the counit of the free bialgebra."""
    for m, c in lc.terms():
        if m.is_unit():
            return c
    return 0


def coassoc_defect(gen_cop: Callable, m) -> Tensor:
    """(cop (x) 1)cop(m) - (1 (x) cop)cop(m) as an arity-3 tensor."""
    t = cop_free(gen_cop, m)
    left = t.slot_expand(0, lambda a: cop_free(gen_cop, a), 2)
    right = t.slot_expand(1, lambda b: cop_free(gen_cop, b), 2)
    return left - right


def counit_defect(gen_cop: Callable, m) -> LinComb:
    """(eps (x) 1)cop(m) - m plus (1 (x) eps)cop(m) - m, collected together."""
    t = cop_free(gen_cop, m)
    left = LinComb()
    right = LinComb()
    for (a, b), c in t.terms():
        if a.is_unit():
            left = left + LinComb.single(b, c)
        if b.is_unit():
            right = right + LinComb.single(a, c)
    target = LinComb.single(m)
    return (left - target) + (right - target)


def antipode_defect(gen_cop: Callable, m, antipode: Callable, max_steps: int = 64) -> LinComb:
    """mu(S (x) 1)cop(m) - eps(m)·1 for a monomial/word m."""
    t = cop_free(gen_cop, m)
    acc = LinComb()
    for (a, b), c in t.terms():
        for sa, ca in antipode(a).terms():
            acc = acc + LinComb.single(sa * b, c * ca)
    if m.is_unit():
        acc = acc - LinComb.single(_unit_like(m), 1)
    return acc
