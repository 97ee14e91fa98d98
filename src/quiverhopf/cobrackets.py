"""Cobrackets on necklaces and paths.

Three basis-level comultiplications: the basepointed splitting of a path into
a closed inner piece and an outer piece, its skew-symmetrization, and the
rotation-invariant splitting of necklaces into necklace pairs, read off the
basepointed one.
All of them act on single basis elements and return arity-2 tensors; linear
extension happens at the call site when needed.
"""

from __future__ import annotations

from .cuts import _outside, _piece
from .linear import Tensor, skew
from .quiver import Necklace, Path, omega


def delta_or(x: Necklace) -> Tensor:
    """Cobracket on necklaces: split along every matched letter pair.

    Read off delta_p_rt on the canonical representative: each term
    (inner, outer) contributes the wedge of the two necklaces, which does not
    depend on the rotation used.
    """
    return skew(delta_p_rt(x.rep), Necklace)


def delta_p_rt(x: Path) -> Tensor:
    """Basepointed comultiplication on paths.

    A matched pair (i < j) is cut out; the letters strictly between become a
    closed path starting at the target of letter i, and the remainder keeps
    the original basepoint. The first output factor is always supported on
    closed paths.
    """
    n = len(x.letters)
    terms = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            w = omega(x.letters[i - 1], x.letters[j - 1])
            if not w:
                continue
            inner = _piece(x.letters, i, j)
            outer = Path(x.start, _outside(x.letters, 1, n, ((i, j),)))
            terms.append(((inner, outer), -w))
    return Tensor(2, terms)


def delta_rt(x: Path) -> Tensor:
    """Skew-symmetrization of delta_p_rt; a Lie cobracket on paths."""
    return skew(delta_p_rt(x))
