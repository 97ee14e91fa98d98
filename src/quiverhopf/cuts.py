"""Cuts of paths and necklaces, chord diagrams, and their (co)algebras.

A cut pairs positions of a word whose letters are mutual reverses, with the
chords drawn as non-crossing arcs above the word. Surgery along a chord
splits the word into an inner closed piece and an outer piece carrying the
basepoint; iterating the surgery produces the cut components. The chord
algebras live on (word, cut) pairs and carry the comultiplications induced by
removing one chord at a time, plus a coproduct obtained by cutting out simple
subcuts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Tuple

from .linear import SYM_UNIT, BasisElement, Monomial, Tensor
from .quiver import Necklace, Path, all_closed_paths, all_paths, omega, rotate


class Cut:
    """A set of chords: position pairs (i < j), pairwise non-crossing.

    Structural validity (distinctness, order, non-crossing) is enforced here;
    the letter-matching condition depends on a word and is checked by
    validate_cut. Simplicity means no chord nests inside another.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs=()):
        ps = sorted((int(i), int(j)) for i, j in pairs)
        flat = [k for p in ps for k in p]
        if len(set(flat)) != len(flat):
            raise ValueError("cut endpoints must be distinct: %r" % (ps,))
        for i, j in ps:
            if not 1 <= i < j:
                raise ValueError("cut pair (%d, %d) must satisfy 1 <= i < j" % (i, j))
        for (i1, j1), (i2, j2) in itertools.combinations(ps, 2):
            if i1 < i2 < j1 < j2:
                raise ValueError("cut pairs (%d,%d) and (%d,%d) cross" % (i1, j1, i2, j2))
        self.pairs = tuple(ps)

    def is_simple(self) -> bool:
        for (i1, j1), (i2, j2) in itertools.combinations(self.pairs, 2):
            if i1 < i2 < j2 < j1:
                return False
        return True

    def __eq__(self, other):
        return isinstance(other, Cut) and self.pairs == other.pairs

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash(self.pairs)

    def __lt__(self, other):
        return self.pairs < other.pairs

    def __len__(self):
        return len(self.pairs)

    def text(self) -> str:
        if not self.pairs:
            return "()"
        return "".join("(%d,%d)" % p for p in self.pairs)

    def __repr__(self):
        return self.text()


EMPTY_CUT = Cut(())


def validate_cut(p: Path, cut: Cut) -> None:
    """Check the cut against a word: indices in range, letters mutual reverses."""
    n = len(p.letters)
    for i, j in cut.pairs:
        if j > n:
            raise ValueError("cut pair (%d,%d) out of range for a word of length %d" % (i, j, n))
        if p.letters[j - 1] != p.letters[i - 1].star():
            raise ValueError(
                "cut pair (%d,%d) joins %s and %s, which are not mutual reverses"
                % (i, j, p.letters[i - 1].text(), p.letters[j - 1].text())
            )


def enumerate_cuts(p: Path, simple_only: bool = False):
    """All cuts of a path (the empty cut included), in canonical order.

    Non-crossing matchings are generated segment-recursively: the first free
    position is either unmatched or matched to a compatible later position,
    which seals off the enclosed segment. For simple cuts the sealed segment
    stays unmatched, so only nesting-free cuts are generated.
    """
    letters = p.letters

    def gen(lo: int, hi: int):
        if lo > hi:
            yield ()
            return
        for rest in gen(lo + 1, hi):
            yield rest
        want = letters[lo - 1].star()
        for q in range(lo + 1, hi + 1):
            if letters[q - 1] == want:
                for left in ((),) if simple_only else gen(lo + 1, q - 1):
                    for right in gen(q + 1, hi):
                        yield ((lo, q),) + left + right

    return sorted([Cut(ps) for ps in gen(1, len(letters))])


def epsilon(p: Path, h: Cut) -> int:
    """Sign of a cut: the product of -omega over its chords (1 for the empty cut)."""
    validate_cut(p, h)
    sign = 1
    for i, j in h.pairs:
        sign *= -omega(p.letters[i - 1], p.letters[j - 1])
    return sign


@dataclass(frozen=True)
class CutComponents:
    """Result of cutting along every chord of a cut.

    outer keeps the original endpoints; chords maps each pair (i, j) to the
    closed path running from the target of letter i to the source of letter j.
    """

    outer: Path
    chords: Dict[Tuple[int, int], Path]


def _surgery(p: Path, cut: Cut, sub) -> dict:
    """Cut a word along the chords `sub` of `cut`, in one left-to-right pass.

    Each letter that is not an endpoint of a chord in `sub` joins the piece of
    the innermost open chord of `sub`, or the outer piece. The other chords of
    `cut` cannot cross, so each lies inside one piece and is renumbered there.
    Returns {chord or None: (Path, renumbered pairs)}; None is the outer piece,
    which keeps the basepoint, and a chord's piece starts at the target of its
    left letter.
    """
    letters = p.letters
    ends = {}  # left endpoint -> its chord, right endpoint -> None
    for c in sub:
        ends[c[0]] = c
        ends[c[1]] = None
    partner = {j: i for i, j in cut.pairs if i not in ends}
    outer = ([], [])
    pieces = {None: outer}
    stack = [outer]
    new_index = {}
    for pos, lt in enumerate(letters, 1):
        if pos in ends:
            c = ends[pos]
            if c is None:
                stack.pop()
            else:
                piece = pieces[c] = ([], [])
                stack.append(piece)
        else:
            word, pairs = stack[-1]
            word.append(lt)
            new_index[pos] = len(word)
            if pos in partner:
                pairs.append((new_index[partner[pos]], len(word)))
    out = {None: (Path(p.start, tuple(outer[0])), outer[1])}
    for c in sub:
        word, pairs = pieces[c]
        out[c] = (Path(letters[c[0] - 1].tgt, tuple(word)), pairs)
    return out


def cut_components(p: Path, h: Cut) -> CutComponents:
    """Delete all matched letters and reglue: one piece per chord plus the outer piece."""
    validate_cut(p, h)
    pieces = _surgery(p, h, h.pairs)
    return CutComponents(
        outer=pieces[None][0], chords={c: pieces[c][0] for c in h.pairs}
    )


def cut_order(p: Path, h: Cut) -> int:
    """Maximum nesting depth over all word positions."""
    validate_cut(p, h)
    n = len(p.letters)
    # Position k + 1/2 lies inside chord (i, j) exactly when i <= k < j.
    return max(sum(1 for i, j in h.pairs if i <= k < j) for k in range(n + 1))


def precedes(h1: Cut, h2: Cut) -> bool:
    """True iff no chord of h2 is nested inside a chord of h1.

    The two cuts must be disjoint and jointly non-crossing; both relations
    against the empty cut hold.
    """
    Cut(h1.pairs + h2.pairs)  # raises on overlap or crossing
    for i1, j1 in h1.pairs:
        for i2, j2 in h2.pairs:
            if i1 < i2 < j2 < j1:
                return False
    return True


def simple_subcuts(h: Cut):
    """All simple (nesting-free) subsets of a cut, the empty one included."""
    out = []
    for r in range(len(h.pairs) + 1):
        for combo in itertools.combinations(h.pairs, r):
            sub = Cut(combo)
            if sub.is_simple():
                out.append(sub)
    return sorted(out)


class PathDiagram(BasisElement):
    """A path together with a cut of its word: a basis chord diagram."""

    __slots__ = ("path", "cut")

    def __init__(self, path: Path, cut: Cut = EMPTY_CUT):
        validate_cut(path, cut)
        BasisElement.__init__(self, "CP|%s / %s" % (path.skey[2:], cut.text()))
        self.path = path
        self.cut = cut

    def text(self) -> str:
        return "%s / %s" % (self.path.text(), self.cut.text())


class NecklaceDiagram(BasisElement):
    """A necklace with a cut, canonicalized jointly over rotations.

    The representative minimizes the (word, cut) pair: among rotations with
    the smallest letter word, the one with the smallest rotated cut wins.
    Cuts are rotation-stable (non-crossing is a circular condition), so this
    is well defined.
    """

    __slots__ = ("path", "cut")

    def __init__(self, path: Path, cut: Cut = EMPTY_CUT):
        if not path.is_closed():
            raise ValueError("necklace diagram needs a closed word")
        validate_cut(path, cut)
        n = len(path.letters)
        keys = tuple(lt.sort_key for lt in path.letters) * 2
        words = [keys[k : k + n] for k in range(max(n, 1))]
        least = min(words)

        def rotated_pairs(k):
            return sorted(
                tuple(sorted(((i - k - 1) % n + 1, (j - k - 1) % n + 1))) for i, j in cut.pairs
            )

        # Only rotations with the least word compare their cuts; the first
        # rotation wins a tie, and only the winner is built.
        pairs, k = min((rotated_pairs(k), k) for k, w in enumerate(words) if w == least)
        word, moved = rotate(path, k), Cut(pairs)
        BasisElement.__init__(self, "CN|[%s] / %s" % (word.skey[2:], moved.text()))
        self.path = word
        self.cut = moved

    def necklace(self) -> Necklace:
        return Necklace(self.path)

    def text(self) -> str:
        return "%s / %s" % (self.necklace().text(), self.cut.text())


def path_diagrams(q, max_len: int):
    """Every chord diagram on a path of length <= max_len."""
    return [PathDiagram(p, h) for p in all_paths(q, max_len) for h in enumerate_cuts(p)]


def necklace_diagrams(q, max_len: int):
    """Every chord diagram on a necklace of length <= max_len, deduplicated, in
    canonical order."""
    seen = {}
    for p in all_closed_paths(q, max_len):
        for h in enumerate_cuts(p):
            d = NecklaceDiagram(p, h)
            seen[d.skey] = d
    return [seen[k] for k in sorted(seen)]


def remove_chords(d: PathDiagram, sub: Cut):
    """Cut out a simple subcut: the outer diagram plus one diagram per removed chord.

    Chords of the remaining cut fall entirely inside one component and are
    relabeled by the induced position map.
    """
    pairs = set(d.cut.pairs)
    for c in sub.pairs:
        if c not in pairs:
            raise ValueError("chord %r is not part of the cut %s" % (c, d.cut.text()))
    if not sub.is_simple():
        raise ValueError("subcut %s is not simple" % sub.text())
    pieces = _surgery(d.path, d.cut, sub.pairs)
    outer = PathDiagram(pieces[None][0], Cut(pieces[None][1]))
    return outer, {c: PathDiagram(pieces[c][0], Cut(pieces[c][1])) for c in sub.pairs}


def chord_delta_p_rt(d: PathDiagram) -> Tensor:
    """Comultiplication on path chord diagrams: remove one chord at a time.

    Removing a chord sends the chords nested inside it to the inner factor and
    the rest to the outer factor, with the usual sign from the matched letters.
    """
    terms = []
    for c in d.cut.pairs:
        w = omega(d.path.letters[c[0] - 1], d.path.letters[c[1] - 1])
        outer, inners = remove_chords(d, Cut((c,)))
        terms.append(((inners[c], outer), -w))
    return Tensor(2, terms)


def chord_delta_or(x: NecklaceDiagram) -> Tensor:
    """Cobracket on necklace chord diagrams: antisymmetrized chord removal."""
    terms = []
    for (inner, outer), coef in chord_delta_p_rt(PathDiagram(x.path, x.cut)).items():
        x1 = NecklaceDiagram(inner.path, inner.cut)
        x2 = NecklaceDiagram(outer.path, outer.cut)
        terms += [((x1, x2), coef), ((x2, x1), -coef)]
    return Tensor(2, terms)


def chord_coproduct(d: PathDiagram) -> Tensor:
    """Coproduct on the chord algebra: cut out every simple subcut.

    The leading term keeps the whole diagram on the left; the empty subcut
    contributes 1 (x) X. Each component inherits the residual chords; the
    sign is the product of -omega over the removed chords only.
    """
    terms = [((Monomial((d,)), SYM_UNIT), 1)]
    for sub in simple_subcuts(d.cut):
        outer, inners = remove_chords(d, sub)
        left = Monomial(tuple(inners[c] for c in sub.pairs))
        terms.append(((left, Monomial((outer,))), epsilon(d.path, sub)))
    return Tensor(2, terms)
