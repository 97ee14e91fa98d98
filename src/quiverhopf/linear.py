"""Exact linear algebra over canonical basis elements.

Free modules with exact coefficients, tensor powers with a permutation
action, and symmetric/ordered monomials. All values are immutable and
hashable; equality and iteration order go through canonical string keys, so
every computation downstream is deterministic across runs. Scalars are exact
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


class LinComb:
    """Finite exact linear combination of basis elements.

    Zero coefficients are dropped eagerly, so equality is plain dict equality
    and ``bool`` tests for zero.
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

    @staticmethod
    def single(x: BasisElement, c=1) -> "LinComb":
        return LinComb(((x, c),))

    def terms(self):
        """Term list sorted by basis key: deterministic across runs."""
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
        return isinstance(other, LinComb) and self._terms == other._terms

    def __ne__(self, other):
        return not self.__eq__(other)

    def __add__(self, other):
        acc = dict(self._terms)
        for x, c in other._terms.items():
            _accumulate(acc, x, c)
        out = LinComb()
        out._terms = acc
        return out

    def __sub__(self, other):
        acc = dict(self._terms)
        for x, c in other._terms.items():
            _accumulate(acc, x, -c)
        out = LinComb()
        out._terms = acc
        return out

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, c):
        c = as_scalar(c)
        if not c:
            return LinComb()
        out = LinComb()
        out._terms = {x: c * v for x, v in self._terms.items()}
        return out

    def __mul__(self, c):
        return self.__rmul__(c)

    def map_basis(self, f) -> "LinComb":
        """Linear extension of a basis-level map f: elem -> LinComb."""
        acc: dict = {}
        for x, c in self._terms.items():
            for y, cy in f(x)._terms.items():
                _accumulate(acc, y, c * cy)
        out = LinComb()
        out._terms = acc
        return out

    def text(self, structured: bool = False) -> str:
        if not self._terms:
            return "0"
        parts = []
        for x, c in self.terms():
            parts.append("%s * %s" % (format_scalar(c, structured), x.text()))
        return "\n".join(parts)

    def __repr__(self):
        return "LinComb(%s)" % " + ".join(
            "%s*%s" % (c, x.text()) for x, c in self.terms()
        )


class Tensor:
    """Element of the n-fold tensor power of a free module.

    Terms map n-tuples of basis elements to nonzero scalars; the arity is
    fixed per value. Operations between tensors require equal arities.
    """

    __slots__ = ("arity", "_terms")

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

    @staticmethod
    def single(key, c=1) -> "Tensor":
        key = tuple(key)
        return Tensor(len(key), ((key, c),))

    @staticmethod
    def zero(arity: int) -> "Tensor":
        return Tensor(arity)

    def terms(self):
        return sorted(self._terms.items())

    def items(self):
        """Terms in no fixed order, for sums whose result does not depend on it."""
        return self._terms.items()

    def coeff(self, key) -> Scalar:
        return self._terms.get(tuple(key), 0)

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return not self._terms
        return (
            isinstance(other, Tensor)
            and self.arity == other.arity
            and self._terms == other._terms
        )

    def __ne__(self, other):
        return not self.__eq__(other)

    def _check(self, other):
        if self.arity != other.arity:
            raise ValueError("tensor arity mismatch: %d vs %d" % (self.arity, other.arity))

    def __add__(self, other):
        self._check(other)
        acc = dict(self._terms)
        for k, c in other._terms.items():
            _accumulate(acc, k, c)
        out = Tensor(self.arity)
        out._terms = acc
        return out

    def __sub__(self, other):
        self._check(other)
        acc = dict(self._terms)
        for k, c in other._terms.items():
            _accumulate(acc, k, -c)
        out = Tensor(self.arity)
        out._terms = acc
        return out

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, c):
        c = as_scalar(c)
        if not c:
            return Tensor(self.arity)
        out = Tensor(self.arity)
        out._terms = {k: c * v for k, v in self._terms.items()}
        return out

    def __mul__(self, c):
        return self.__rmul__(c)

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
        out = Tensor(n)
        out._terms = {
            tuple(key[inv[k]] for k in range(n)): c for key, c in self._terms.items()
        }
        return out

    def slot_map(self, slot: int, f) -> "Tensor":
        """Apply a linear map f: elem -> LinComb inside one slot (0-based)."""
        acc: dict = {}
        for key, c in self._terms.items():
            for y, cy in f(key[slot])._terms.items():
                _accumulate(acc, key[:slot] + (y,) + key[slot + 1 :], c * cy)
        out = Tensor(self.arity)
        out._terms = acc
        return out

    def slot_expand(self, slot: int, f, m: int) -> "Tensor":
        """Expand one slot through f: elem -> Tensor(m); arity grows by m - 1."""
        out_arity = self.arity + m - 1
        acc: dict = {}
        for key, c in self._terms.items():
            sub = f(key[slot])
            if sub.arity != m:
                raise ValueError("slot_expand: expected arity %d, got %d" % (m, sub.arity))
            for skey, sc in sub._terms.items():
                _accumulate(acc, key[:slot] + skey + key[slot + 1 :], c * sc)
        out = Tensor(out_arity)
        out._terms = acc
        return out

    def text(self, structured: bool = False) -> str:
        if not self._terms:
            return "0"
        parts = []
        for key, c in self.terms():
            parts.append(
                "%s * %s"
                % (format_scalar(c, structured), " (x) ".join(x.text() for x in key))
            )
        return "\n".join(parts)

    def __repr__(self):
        return "Tensor(%d: %s)" % (
            self.arity,
            " + ".join("%s*%s" % (c, "(x)".join(x.text() for x in k)) for k, c in self.terms()),
        )


def as_lincomb(x) -> LinComb:
    if isinstance(x, LinComb):
        return x
    if isinstance(x, BasisElement):
        return LinComb.single(x)
    raise TypeError("expected LinComb or BasisElement, got %r" % (x,))


def tensor(*factors) -> Tensor:
    """Tensor product of linear combinations (or bare basis elements)."""
    lcs = [as_lincomb(f) for f in factors]
    arity = len(lcs)
    acc: dict = {}
    for combo in itertools.product(*(lc._terms.items() for lc in lcs)):
        key = tuple(x for x, _ in combo)
        c = 1
        for _, ci in combo:
            c *= ci
        _accumulate(acc, key, c)
    out = Tensor(arity)
    out._terms = acc
    return out


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


def sym_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """Product in the symmetric algebra: multiset union of the factors."""
    return m1 * m2


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
