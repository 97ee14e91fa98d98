"""Exact linear algebra over canonical basis elements.

One free module with exact coefficients (LinComb), whose subclass Tensor
keys it by n-tuples to give tensor powers with a permutation action, and
symmetric/ordered monomials. All values are immutable; equality and
iteration order go through canonical string keys, so every computation
downstream is deterministic across runs. Scalars are exact
throughout -- no floats anywhere: a coefficient is a Python int, and becomes
a Fraction only after an actual division (the bridge reconstruction is the
one place that divides). Both print the same text.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Union

# A coefficient: an int, or a Fraction once something has divided.
Scalar = Union[int, Fraction]


def as_scalar(c) -> Scalar:
    """Accept an int (a bool as 0/1) or a Fraction as it is; floats are rejected
    to keep everything exact."""
    if type(c) is int or isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return int(c)
    raise TypeError("scalar must be int or Fraction, got %s" % type(c).__name__)


def format_scalar(c: Scalar, structured: bool = False) -> str:
    if structured:
        return "%d/%d" % (c.numerator, c.denominator)
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


class BasisElement:
    """Canonical basis element: hashable and totally ordered by a string key.

    Keys are type-tagged ("P|", "N|", "M|", ...) so elements of heterogeneous
    bases never collide; byte-equal keys mean equal elements. Subclasses build
    the key once at construction. Identifier charsets are restricted (see
    quiver module) so the delimiters used in keys are unambiguous.
    """

    __slots__ = ("skey", "_hash")

    def __init__(self, skey: str):
        self.skey = skey
        self._hash = hash(skey)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, BasisElement) and self.skey == other.skey
        )

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.skey < other.skey

    def __le__(self, other):
        return self.skey <= other.skey

    def __gt__(self, other):
        return self.skey > other.skey

    def __ge__(self, other):
        return self.skey >= other.skey

    def text(self) -> str:
        """Human-readable form; subclasses override."""
        return self.skey

    def __repr__(self):
        return self.text()


def _accumulate(acc: dict, key, c: Scalar):
    c0 = acc.get(key)
    if c0 is None:
        if c:
            acc[key] = c
    else:
        c1 = c0 + c
        if c1:
            acc[key] = c1
        else:
            del acc[key]


def _combine(a: "LinComb", b: "LinComb", sign: int) -> "LinComb":
    """a + sign * b: the one body of + and - for every free-module value."""
    if type(b) is not type(a):
        raise TypeError("cannot combine %s with %s" % (type(a).__name__, type(b).__name__))
    acc = dict(a._terms)
    for key, c in b._terms.items():
        _accumulate(acc, key, sign * c)
    return a._like(acc)


def _tensor(arity: int, acc: dict) -> "Tensor":
    """A Tensor holding an already accumulated term dict."""
    out = object.__new__(Tensor)
    out.arity = arity
    out._terms = acc
    return out


class LinComb:
    """Finite exact linear combination of basis elements.

    Zero coefficients are dropped eagerly, so equality is plain dict equality
    and ``bool`` tests for zero. Values of different types never mix: adding
    a LinComb to a Tensor, or comparing them, is a type error or unequal.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        acc: dict = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for x, c in items:
            if not isinstance(x, BasisElement):
                raise TypeError("LinComb keys must be BasisElement, got %r" % (x,))
            _accumulate(acc, x, as_scalar(c))
        self._terms = acc

    def _like(self, acc: dict) -> "LinComb":
        """A value of this type (and arity) holding an accumulated term dict."""
        out = object.__new__(LinComb)
        out._terms = acc
        return out

    def _show(self, x) -> str:
        return x.text()

    @staticmethod
    def single(x: BasisElement, c=1) -> "LinComb":
        return LinComb(((x, c),))

    def terms(self):
        """Term list sorted by key: deterministic across runs."""
        return sorted(self._terms.items())

    def items(self):
        """Terms in no fixed order, for sums whose result does not depend on it."""
        return self._terms.items()

    def coeff(self, x) -> Scalar:
        return self._terms.get(x, 0)

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return not self._terms
        return type(other) is type(self) and self._terms == other._terms

    def __ne__(self, other):
        return not self.__eq__(other)

    def __add__(self, other):
        return _combine(self, other, 1)

    def __sub__(self, other):
        return _combine(self, other, -1)

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, c):
        c = as_scalar(c)
        return self._like({k: c * v for k, v in self._terms.items()} if c else {})

    def __mul__(self, c):
        return self.__rmul__(c)

    def map_basis(self, f) -> "LinComb":
        """Linear extension of a basis-level map f: elem -> LinComb."""
        acc: dict = {}
        for x, c in self._terms.items():
            for y, cy in f(x)._terms.items():
                _accumulate(acc, y, c * cy)
        return LinComb._like(self, acc)

    def text(self, structured: bool = False) -> str:
        if not self._terms:
            return "0"
        return "\n".join(
            "%s * %s" % (format_scalar(c, structured), self._show(k)) for k, c in self.terms()
        )

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__name__,
            " + ".join("%s*%s" % (c, self._show(k)) for k, c in self.terms()),
        )


class Tensor(LinComb):
    """Element of the n-fold tensor power of a free module.

    A LinComb whose keys are n-tuples of basis elements; the arity is fixed
    per value. Operations between tensors require equal arities.
    """

    __slots__ = ("arity",)

    def __init__(self, arity: int, terms=()):
        if arity < 1:
            raise ValueError("tensor arity must be >= 1")
        acc: dict = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, c in items:
            key = tuple(key)
            if len(key) != arity:
                raise ValueError("tensor key %r does not match arity %d" % (key, arity))
            for x in key:
                if not isinstance(x, BasisElement):
                    raise TypeError("tensor slots must hold BasisElements")
            _accumulate(acc, key, as_scalar(c))
        self.arity = arity
        self._terms = acc

    def _like(self, acc: dict) -> "Tensor":
        return _tensor(self.arity, acc)

    def _show(self, key) -> str:
        return " (x) ".join(x.text() for x in key)

    @staticmethod
    def single(key, c=1) -> "Tensor":
        key = tuple(key)
        return Tensor(len(key), ((key, c),))

    @staticmethod
    def zero(arity: int) -> "Tensor":
        return Tensor(arity)

    def coeff(self, key) -> Scalar:
        return self._terms.get(tuple(key), 0)

    def __eq__(self, other):
        if type(other) is Tensor and other.arity != self.arity:
            return False
        return LinComb.__eq__(self, other)

    def _check(self, other):
        if type(other) is Tensor and other.arity != self.arity:
            raise ValueError("tensor arity mismatch: %d vs %d" % (self.arity, other.arity))

    def __add__(self, other):
        self._check(other)
        return _combine(self, other, 1)

    def __sub__(self, other):
        self._check(other)
        return _combine(self, other, -1)

    def permute(self, images) -> "Tensor":
        """Permute tensor slots: output slot k holds input slot sigma^(-1)(k).

        ``images`` is the permutation in one-line notation, images[i-1] =
        sigma(i); so ``t.permute((2, 1))`` swaps the two slots of a 2-tensor.
        """
        n = self.arity
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError("not a permutation of 1..%d: %r" % (n, images))
        inv = [0] * n
        for i, s in enumerate(images):
            inv[s - 1] = i
        return _tensor(
            n, {tuple(key[inv[k]] for k in range(n)): c for key, c in self._terms.items()}
        )

    def slot_map(self, slot: int, f) -> "Tensor":
        """Apply a linear map f: elem -> LinComb inside one slot (0-based)."""
        acc: dict = {}
        for key, c in self._terms.items():
            for y, cy in f(key[slot])._terms.items():
                _accumulate(acc, key[:slot] + (y,) + key[slot + 1 :], c * cy)
        return _tensor(self.arity, acc)

    def slot_expand(self, slot: int, f, m: int) -> "Tensor":
        """Expand one slot through f: elem -> Tensor(m); arity grows by m - 1."""
        acc: dict = {}
        for key, c in self._terms.items():
            sub = f(key[slot])
            if sub.arity != m:
                raise ValueError("slot_expand: expected arity %d, got %d" % (m, sub.arity))
            for skey, sc in sub._terms.items():
                _accumulate(acc, key[:slot] + skey + key[slot + 1 :], c * sc)
        return _tensor(self.arity + m - 1, acc)


def as_lincomb(x) -> LinComb:
    if type(x) is LinComb:
        return x
    if isinstance(x, BasisElement):
        return LinComb.single(x)
    raise TypeError("expected LinComb or BasisElement, got %r" % (x,))


def tensor(*factors) -> Tensor:
    """Tensor product of linear combinations (or bare basis elements)."""
    lcs = [as_lincomb(f) for f in factors]
    acc: dict = {}
    for combo in itertools.product(*(lc._terms.items() for lc in lcs)):
        key = tuple(x for x, _ in combo)
        c = 1
        for _, ci in combo:
            c *= ci
        _accumulate(acc, key, c)
    return _tensor(len(lcs), acc)


def wedge(x, y) -> Tensor:
    """Antisymmetrized pair x (x) y - y (x) x."""
    return tensor(x, y) - tensor(y, x)


# Permutations in one-line notation (images of 1..n).
TAU12_2 = (2, 1)
TAU12_3 = (2, 1, 3)
TAU123 = (2, 3, 1)  # cycle (123): 1 -> 2 -> 3 -> 1
TAU132 = (3, 1, 2)  # cycle (132): 1 -> 3 -> 2 -> 1


class Monomial(BasisElement):
    """Symmetric monomial: an unordered multiset of basis elements.

    The empty monomial is the unit 1 of the symmetric algebra.
    """

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        fs = tuple(sorted(factors))
        BasisElement.__init__(self, "M|" + "".join("{%s}" % f.skey for f in fs))
        self.factors = fs

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.factors + other.factors)

    def is_unit(self) -> bool:
        return not self.factors

    def __len__(self):
        return len(self.factors)

    def text(self) -> str:
        if not self.factors:
            return "1"
        return "".join("{%s}" % f.text() for f in self.factors)


SYM_UNIT = Monomial(())


class Word(BasisElement):
    """Ordered word of basis elements: a monomial of the tensor algebra.

    Unlike Monomial, the factor order is significant; the empty word is the
    unit.
    """

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        fs = tuple(factors)
        BasisElement.__init__(self, "W|" + "".join("(%s)" % f.skey for f in fs))
        self.factors = fs

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.factors + other.factors)

    def is_unit(self) -> bool:
        return not self.factors

    def __len__(self):
        return len(self.factors)

    def text(self) -> str:
        if not self.factors:
            return "1"
        return "".join("(%s)" % f.text() for f in self.factors)


WORD_UNIT = Word(())
