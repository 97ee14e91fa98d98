"""Cuts of paths and necklaces, chord diagrams, and their (co)algebras.

A cut pairs positions of a word whose letters are mutual reverses, with the
chords drawn as non-crossing arcs above the word. Its faces (`faces`) split
the word into pieces, all read by one slicing rule (`_outside`): a chord
(i, j) owns the letters i+1..j-1 outside the chords nested in it, read as a
closed path from the target of letter i, and the letters outside every chord
form the outer piece, which keeps the basepoint. Cutting out a subset of the
chords (`remove_chords`) leaves each other chord inside one piece. The chord
algebras live on (word, cut) pairs, with the comultiplications that remove
one chord at a time and a coproduct that cuts out simple subcuts.
"""

from __future__ import annotations

import itertools

from .linear import BasisElement, Tensor, skew
from .quiver import Necklace, Path, all_necklaces, all_paths, omega, rotate
from .symalg import graft_coproduct


class Cut:
    """A set of chords: position pairs (i < j), pairwise non-crossing.

    Integer endpoints, distinctness, order and non-crossing are checked here,
    the last by one left-to-right scan that also records in `parents` the
    innermost chord enclosing each chord of `pairs` (None at the top level).
    The diagram constructors check the cut against a word. A cut is simple
    when its chords all sit at the top level (`cut_order` at most 1).
    """

    __slots__ = ("pairs", "parents")

    def __init__(self, pairs=()):
        ps = [(i, j) for i, j in pairs]
        flat = [k for p in ps for k in p]
        if any(type(k) is not int for k in flat):
            raise TypeError("cut endpoints must be ints: %r" % (ps,))
        ps.sort()
        if len(set(flat)) != len(flat):
            raise ValueError("cut endpoints must be distinct: %r" % (ps,))
        parents = []
        open_chords = []  # chords enclosing the scan position, innermost last
        for i, j in ps:
            if not 1 <= i < j:
                raise ValueError("cut pair (%d, %d) must satisfy 1 <= i < j" % (i, j))
            while open_chords and open_chords[-1][1] < i:
                open_chords.pop()
            parent = open_chords[-1] if open_chords else None
            if parent and parent[1] < j:
                raise ValueError("cut pairs (%d,%d) and (%d,%d) cross" % (parent + (i, j)))
            parents.append(parent)
            open_chords.append((i, j))
        self.pairs = tuple(ps)
        self.parents = tuple(parents)

    def __eq__(self, other):
        return isinstance(other, Cut) and self.pairs == other.pairs

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
    """Check the cut against a word: indices in range, letters mutual reverses.
    Only the two diagram constructors call this; the maps on diagrams rely on it."""
    n = len(p.letters)
    for i, j in cut.pairs:
        if j > n:
            raise ValueError("cut pair (%d,%d) out of range for a word of length %d" % (i, j, n))
        if p.letters[j - 1] != p.letters[i - 1].star():
            raise ValueError(
                "cut pair (%d,%d) joins %s and %s, which are not mutual reverses"
                % (i, j, p.letters[i - 1].text(), p.letters[j - 1].text())
            )


def _matchings(letters, lo: int, hi: int, simple_only: bool = False):
    """The cuts of positions lo..hi (1-based, inclusive) of a word, as tuples of
    pairs ordered by left endpoint, the empty one included.

    Non-crossing matchings are generated segment-recursively: after the empty
    one, each first matched position s (hi down to lo) takes each compatible
    later partner, sealing off the enclosed segment, so the recursion is as
    deep as one cut has chords. Simple cuts leave the sealed segment empty.
    """
    yield ()
    for s in range(hi, lo - 1, -1):
        want = letters[s - 1].star()
        for q in range(s + 1, hi + 1):
            if letters[q - 1] == want:
                for left in ((),) if simple_only else _matchings(letters, s + 1, q - 1):
                    for right in _matchings(letters, q + 1, hi, simple_only):
                        yield ((s, q),) + left + right


def _outside(seq, lo: int, hi: int, holes=()) -> tuple:
    """The entries of a tuple seq at positions lo..hi (1-based, inclusive)
    that lie outside the sibling chords `holes`, which sit in lo..hi ordered by
    left endpoint; a chord covers its two end positions and all between them.
    Read by slicing, one slice per gap between holes."""
    out, pos = (), lo
    for i, j in holes:
        out += seq[pos - 1 : i - 1]
        pos = j + 1
    return out + seq[pos - 1 : hi]


def _piece(letters, i: int, j: int, holes=()) -> Path:
    """The piece of chord (i, j) of a word: its letters outside the chords
    `holes` nested in it, as a closed path from the target of letter i."""
    return Path(letters[i - 1].tgt, _outside(letters, i + 1, j - 1, holes))


def _simple_cuts(letters, start: str, lo: int, hi: int):
    """The simple cuts of positions lo..hi of a word, the first of which starts
    at vertex start, each as (pairs, outer piece): the letters outside every
    chord, as a path from start."""
    for pairs in _matchings(letters, lo, hi, simple_only=True):
        yield pairs, Path(start, _outside(letters, lo, hi, pairs))


def enumerate_cuts(p: Path, simple_only: bool = False):
    """All cuts of a path (the empty cut included), in canonical order."""
    return sorted([Cut(ps) for ps in _matchings(p.letters, 1, len(p.letters), simple_only)])


def _sign(letters, pairs) -> int:
    """The product of -omega over the chords `pairs` of a word."""
    sign = 1
    for i, j in pairs:
        sign *= -omega(letters[i - 1], letters[j - 1])
    return sign


def epsilon(d: PathDiagram | NecklaceDiagram) -> int:
    """Sign of a chord diagram (path or necklace): the product of -omega over
    its chords (1 for the empty cut)."""
    return _sign(d.path.letters, d.cut.pairs)


def nesting_children(cut: Cut):
    """Forest structure on the chords: children are immediately nested chords.

    Returns a map from a chord (or None for the top level) to the list of its
    immediate children, each list ordered by left endpoint (from Cut.parents).
    """
    kids = {None: []}
    for c, parent in zip(cut.pairs, cut.parents):
        kids[c] = []
        kids[parent].append(c)
    return kids


def cut_order(h: Cut) -> int:
    """Maximum nesting depth of a cut: its longest chain of enclosing chords."""
    depth = {None: 0}
    for c, parent in zip(h.pairs, h.parents):
        depth[c] = depth[parent] + 1
    return max(depth.values())


def simple_subcuts(h: Cut):
    """All simple (nesting-free) subsets of a cut, the empty one included, in
    canonical order. Over the nesting forest, each sibling chord is either
    taken or replaced by a simple subset of its children, so only the simple
    subsets are built: below[c] holds those below chord c, filled backwards."""
    kids = nesting_children(h)
    below = {}
    for c in h.pairs[::-1] + (None,):
        options = [[(k,)] + below[k] for k in kids[c]]
        below[c] = [sum(combo, ()) for combo in itertools.product(*options)]
    return sorted(Cut(sub) for sub in below[None])


class PathDiagram(BasisElement):
    """A path with a cut that the constructor checks against it: a basis chord diagram."""

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
    is well defined. The constructor checks the cut against the word.
    """

    __slots__ = ("path", "cut")

    def __init__(self, path: Path, cut: Cut = EMPTY_CUT):
        if not path.is_closed():
            raise ValueError("necklace diagram needs a closed word")
        validate_cut(path, cut)
        n = len(path.letters)
        letters = path.letters * 2
        words = [letters[k : k + n] for k in range(max(n, 1))]
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
    canonical order. Every diagram has a rotation on its necklace's least word,
    so only the cuts of each necklace's representative are canonicalized."""
    reps = [x.rep for x in all_necklaces(q, max_len)]
    return sorted({NecklaceDiagram(p, h) for p in reps for h in enumerate_cuts(p)})


def faces(p: Path, kids) -> dict:
    """The faces of a cut of p, {None: outer piece, chord: its piece}, as paths,
    read off its nesting forest kids; the caller has checked the cut against p."""
    letters = p.letters
    out = {c: _piece(letters, *c, holes) for c, holes in kids.items() if c is not None}
    out[None] = Path(p.start, _outside(letters, 1, len(letters), kids[None]))
    return out


def remove_chords(d: PathDiagram | NecklaceDiagram, sub: Cut):
    """Cut out any subset of the cut: the outer diagram plus one diagram per removed chord.

    d is a path or necklace diagram; the pieces are path diagrams on the faces
    of sub (`faces`). Chords of the remaining cut fall entirely inside one
    piece and are relabeled by the induced position map. Checks that sub is a
    subset of d.cut.
    """
    chords = set(d.cut.pairs)
    for c in sub.pairs:
        if c not in chords:
            raise ValueError("chord %r is not part of the cut %s" % (c, d.cut.text()))
    kids = nesting_children(sub)  # keyed by None and the removed chords
    rest = [c for c in d.cut.pairs if c not in kids]
    n = len(d.path.letters)
    positions = tuple(range(1, n + 1))
    pieces = {}
    for c, path in faces(d.path, kids).items():
        lo, hi = (1, n) if c is None else (c[0] + 1, c[1] - 1)
        index = {k: i for i, k in enumerate(_outside(positions, lo, hi, kids[c]), 1)}
        cut = Cut((index[i], index[j]) for i, j in rest if i in index)
        pieces[c] = PathDiagram(path, cut)
    return pieces.pop(None), pieces


def chord_delta_p_rt(d: PathDiagram | NecklaceDiagram) -> Tensor:
    """Comultiplication on path chord diagrams: remove one chord at a time.

    Removing a chord sends the chords nested inside it to the inner factor and
    the rest to the outer factor, with the usual sign from the matched letters.
    """
    terms = []
    for c in d.cut.pairs:
        outer, inners = remove_chords(d, Cut((c,)))
        terms.append(((inners[c], outer), _sign(d.path.letters, (c,))))
    return Tensor(2, terms)


def chord_delta_or(x: NecklaceDiagram) -> Tensor:
    """Cobracket on necklace chord diagrams: antisymmetrized chord removal."""
    return skew(chord_delta_p_rt(x), lambda d: NecklaceDiagram(d.path, d.cut))


def chord_coproduct(d: PathDiagram) -> Tensor:
    """Coproduct on the chord algebra: cut out every simple subcut.

    The leading term keeps the whole diagram on the left; the empty subcut
    contributes 1 (x) X. Each component inherits the residual chords; the
    sign is the product of -omega over the removed chords only.
    """
    splits = []
    for sub in simple_subcuts(d.cut):
        outer, inners = remove_chords(d, sub)
        splits.append((tuple(inners.values()), outer, _sign(d.path.letters, sub.pairs)))
    return graft_coproduct(d, splits)
