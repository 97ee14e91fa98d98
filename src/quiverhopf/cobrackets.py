"""Cobrackets on necklaces and paths.

Three basis-level comultiplications: the rotation-invariant splitting of
necklaces into necklace pairs, and the basepointed splitting of a path into a
closed inner piece and an outer piece, together with its skew-symmetrization.
All of them act on single basis elements and return arity-2 tensors; linear
extension happens at the call site when needed.
"""

from __future__ import annotations

from .linear import TAU12_2, Tensor
from .quiver import Necklace, Path, omega


def _cyclic_segment(p: Path, frm: int, count: int, start_vertex: str) -> Path:
    """Path made of `count` letters of the closed word, starting at 1-based
    position `frm` and wrapping around."""
    n = len(p.letters)
    letters = tuple(p.letters[(frm - 1 + k) % n] for k in range(count))
    return Path(start_vertex, letters)


def delta_or_on_word(p: Path) -> Tensor:
    """Necklace cobracket evaluated on an explicit closed word.

    Every position pair (i < j) whose letters are mutual reverses contributes
    the wedge of the two necklaces obtained by cutting at both letters and
    regluing the strands; positions between j and i wrap around the word.
    """
    if not p.is_closed():
        raise ValueError("delta_or needs a closed word")
    n = len(p.letters)
    terms = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            w = omega(p.letters[i - 1], p.letters[j - 1])
            if not w:
                continue
            first = Necklace(_cyclic_segment(p, j + 1, (i - j - 1) % n, p.letters[j - 1].tgt))
            second = Necklace(_cyclic_segment(p, i + 1, j - i - 1, p.letters[i - 1].tgt))
            terms += [((first, second), w), ((second, first), -w)]
    return Tensor(2, terms)


def delta_or(x: Necklace) -> Tensor:
    """Cobracket on necklaces: split along every matched letter pair.

    Computed on the canonical representative; the result does not depend on
    the rotation used (the rotation-invariance property test drives
    delta_or_on_word over all rotations).
    """
    return delta_or_on_word(x.rep)


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
            inner = Path(x.letters[i - 1].tgt, x.letters[i : j - 1])
            outer = Path(x.start, x.letters[: i - 1] + x.letters[j:])
            terms.append(((inner, outer), -w))
    return Tensor(2, terms)


def delta_rt(x: Path) -> Tensor:
    """Skew-symmetrization of delta_p_rt; a Lie cobracket on paths."""
    d = delta_p_rt(x)
    return d - d.permute(TAU12_2)
