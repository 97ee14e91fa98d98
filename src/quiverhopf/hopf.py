"""The commutative Hopf algebra on paths, the chord/tree morphisms, and the
ordered (noncommutative) variant.

The coproduct of a path sums over its simple cuts: the severed closed pieces
multiply on the left, the basepointed remainder sits on the right, weighted
by the cut sign. S maps a path (necklace) to the sum of all its chord
diagrams. One walk over all cuts, grafting over simple cuts, builds the
embedding eta into decorated trees and the antipode, a cut-forest sum whose
oracle in the tests is the geometric series of the reduced coproduct. That
eta equals S composed with the dual-tree map D is an identity the tests
check, except for the signed necklace variant, which is that composite. The
checkers in `verify` show eta to be a morphism for every structure in sight
and to be injective via the point-tree projection below.
"""

from __future__ import annotations

import functools
import itertools
import math

from .cuts import (
    NecklaceDiagram,
    PathDiagram,
    _piece,
    _sign,
    _simple_cuts,
    cut_order,
    enumerate_cuts,
    faces,
    nesting_children,
)
from .dual import d_or
from .linear import SYM_UNIT, LinComb, Monomial, Tensor, Word
from .quiver import Necklace, Path
from .symalg import cop_free, graft_coproduct
from .trees import RootedTree, oriented_from_rooted


def _path_splits(x: Path):
    """(chord pieces, left to right by left endpoint; outer piece; cut sign) for
    every simple cut of x, the empty one included."""
    letters = x.letters
    for pairs, outer in _simple_cuts(letters, x.start, 1, len(letters)):
        pieces = tuple(_piece(letters, i, j) for i, j in pairs)
        yield pieces, outer, _sign(letters, pairs)


def path_coproduct(x: Path) -> Tensor:
    """Simple-cut coproduct on a path, valued in monomial pairs: the severed
    chord pieces multiply on the left, the outer piece sits on the right."""
    return graft_coproduct(x, _path_splits(x))


def s_rt(x: Path) -> LinComb:
    """Sum of all chord diagrams on a path, each with coefficient 1."""
    return LinComb((PathDiagram(x, h), 1) for h in enumerate_cuts(x))


def s_or(x: Necklace) -> LinComb:
    """Sum of all chord diagrams on a necklace.

    Cuts of the canonical representative that agree after rotation give the
    same diagram, so symmetric necklaces produce coefficients larger than 1.
    """
    return LinComb((NecklaceDiagram(x.rep, h), 1) for h in enumerate_cuts(x.rep))


def _graft_cuts(x: Path, graft, signed: bool, factor: int = 1) -> LinComb:
    """The sum over every cut of x of graft(outer component, [(chord letter,
    inner value), ...]), each times factor per component and its sign if signed.

    A cut is a simple cut h with a cut of each of its chords' inner pieces, so
    its value grafts h's outer component with the values of those pieces, and
    the coefficient is multiplicative over components. The result for each
    sub-word is memoized by its interval for this call.
    """
    return _graft_walk(x, graft, signed, factor, {}, 1, len(x.letters))


def _graft_walk(x: Path, graft, signed: bool, factor: int, memo: dict, lo: int, hi: int):
    """_graft_cuts on the sub-word of x at positions lo..hi, memoized in memo
    by its interval."""
    if (lo, hi) in memo:
        return memo[lo, hi]
    letters = x.letters
    start = letters[lo - 2].tgt if lo > 1 else x.start
    terms = []
    for pairs, outer in _simple_cuts(letters, start, lo, hi):
        sign = factor * _sign(letters, pairs) if signed else factor
        kids = []
        for i, j in pairs:
            inner = _graft_walk(x, graft, signed, factor, memo, i + 1, j - 1)
            kids.append([((letters[i - 1], v), c) for v, c in inner.items()])
        for combo in itertools.product(*kids):
            coeff = sign * math.prod(c for _, c in combo)
            terms.append((graft(outer, [kid for kid, _ in combo]), coeff))
    value = memo[lo, hi] = LinComb(terms)
    return value


def _dual_tree(outer: Path, kids) -> RootedTree:
    """Connes-Kreimer's B+ of the outer component over the chords' inner trees."""
    return RootedTree(outer, [(letter.starred, t) for letter, t in kids])


def _forest(outer: Path, kids) -> Monomial:
    """The outer component times the components of each chord's inner cut."""
    return Monomial((outer,) + tuple(f for _, m in kids for f in m.factors))


def path_antipode(x: Path) -> LinComb:
    """Antipode of a path in the symmetric Hopf algebra: the cut-forest sum,
    over all cuts h, of (-1)^(|h|+1) times the cut sign times the monomial of
    h's components (Connes-Kreimer's formula pulled back through eta_rt)."""
    return _graft_cuts(x, _forest, signed=True, factor=-1)


def eta_rt(x: Path) -> LinComb:
    """Embedding of paths into decorated rooted trees: the signed dual trees of
    all cuts, built by grafting over simple cuts.

    It equals the composite of s_rt with the signed dual-tree map d_rt, the
    factorization through the chord algebra; the tests check that identity
    against the composite, which builds each chord diagram and its dual tree
    on its own.
    """
    return _graft_cuts(x, _dual_tree, signed=True)


def eta_or(x: Necklace, signed: bool = False) -> LinComb:
    """Embedding of necklaces into decorated oriented trees.

    The unsigned map (the default) grafts over the cuts of the canonical
    representative and forgets each rooted dual tree's root; by the rotation
    lemma the result does not depend on the representative. Each necklace label
    is built once per call. The signed variant stays the composite of s_or with
    the signed d_or: its sign is the cut sign of each diagram's canonical
    rotation, which the grafting recursion on one representative does not see.
    """
    if signed:
        return s_or(x).map_basis(lambda d: d_or(d, signed=True))
    label = functools.cache(Necklace)
    return LinComb(
        (oriented_from_rooted(t, label), c)
        for t, c in _graft_cuts(x.rep, _dual_tree, signed=False).items()
    )


def nc_coproduct(x: Path) -> Tensor:
    """Ordered-tensor coproduct on a path, valued in word pairs: the severed
    chord pieces multiply as an ordered word, left to right."""
    return graft_coproduct(x, _path_splits(x), Word)


def point_projection(lc: LinComb) -> LinComb:
    """Restrict a combination of trees to the edgeless (point) trees, keeping
    the vertex label as the value."""
    return LinComb(
        (t.label if isinstance(t, RootedTree) else t.labels[0], c)
        for t, c in lc.items()
        if t.edge_count() == 0
    )


def _formula_terms(x: Path, cop_x: Tensor) -> Tensor:
    """Triple-coproduct expansion organized by cut order, given the coproduct
    cop_x of x.

    cop(x) (x) 1 plus, for every cut of order at most 2 and every split into a
    first and a second simple cut with no chord of the second nested in one of
    the first, the grouped surgery components: first (x) second (x) outer. On
    the nesting forest, nested chords go first, the chords enclosing them
    second, and childless chords either way. The empty cut gives 1 (x) 1 (x) x.
    """
    terms = [((a, b, SYM_UNIT), c) for (a, b), c in cop_x.items()]
    for h in enumerate_cuts(x):
        if cut_order(h) > 2:
            continue
        kids = nesting_children(h)
        pieces = faces(x, kids)
        outer = Monomial((pieces[None],))
        sign = _sign(x.letters, h.pairs)
        nested = [c for c, parent in zip(h.pairs, h.parents) if parent is not None]
        free = [c for c in kids[None] if not kids[c]]
        for r in range(len(free) + 1):
            for moved in itertools.combinations(free, r):
                left = Monomial(tuple(pieces[c] for c in nested + list(moved)))
                mid = Monomial(tuple(pieces[c] for c in kids[None] if c not in moved))
                terms.append(((left, mid, outer), sign))
    return Tensor(3, terms)


def coassoc_formula_defect(x: Path) -> Tensor:
    """Compare (cop (x) 1)cop, (1 (x) cop)cop, and the cut-order expansion on
    one path: (cop (x) 1)cop minus the expansion, or, if that vanishes, minus
    (1 (x) cop)cop. All three share one call-scoped memo of the path
    coproducts, so each path is expanded once per call."""
    gen = functools.cache(path_coproduct)
    cop = functools.cache(lambda m: cop_free(gen, m))
    t = gen(x)
    direct = t.slot_expand(0, cop)
    other = t.slot_expand(1, cop)
    formula = _formula_terms(x, t)
    return (direct - formula) or (direct - other)
