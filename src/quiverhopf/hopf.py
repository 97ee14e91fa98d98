"""The commutative Hopf algebra on paths, the chord/tree morphisms, and the
ordered (noncommutative) variant.

The coproduct of a path sums over its simple cuts: the severed closed pieces
multiply on the left, the basepointed remainder sits on the right, weighted
by the cut sign. S maps a path (necklace) to the sum of all its chord
diagrams; composing with the dual-tree map gives the embedding into decorated
trees, which the checkers in `verify` show to be a morphism for every
structure in sight and to be injective via the point-tree projection below.
"""

from __future__ import annotations

import functools
import itertools

from .cuts import (
    Cut,
    NecklaceDiagram,
    PathDiagram,
    cut_components,
    cut_order,
    enumerate_cuts,
    epsilon,
    precedes,
)
from .dual import d_or, d_rt
from .linear import SYM_UNIT, LinComb, Monomial, Tensor, Word
from .quiver import Necklace, Path
from .symalg import antipode_monomial, cop_free
from .trees import RootedTree


def _cut_coproduct(x: Path, kind) -> Tensor:
    """Simple-cut coproduct on a path, valued in pairs of `kind` (Monomial or
    Word).

    X (x) 1 plus, for every simple cut, sign times (product of chord
    components, left to right by chord left endpoint) (x) (outer component);
    the empty cut supplies 1 (x) X.
    """
    terms = [((kind((x,)), kind(())), 1)]
    for h in enumerate_cuts(x, simple_only=True):
        d = PathDiagram(x, h)
        comps = cut_components(d)
        left = kind(tuple(comps.chords[c] for c in h.pairs))
        terms.append(((left, kind((comps.outer,))), epsilon(d)))
    return Tensor(2, terms)


def path_coproduct(x: Path) -> Tensor:
    """Simple-cut coproduct on a path, valued in monomial pairs."""
    return _cut_coproduct(x, Monomial)


def path_antipode(x: Path) -> LinComb:
    """Antipode of a path in the symmetric Hopf algebra (geometric series)."""
    bound = len(x.letters) + 2
    return antipode_monomial(path_coproduct, Monomial((x,)), max_steps=bound)


def s_rt(x: Path) -> LinComb:
    """Sum of all chord diagrams on a path, each with coefficient 1."""
    return LinComb((PathDiagram(x, h), 1) for h in enumerate_cuts(x))


def s_or(x: Necklace) -> LinComb:
    """Sum of all chord diagrams on a necklace.

    Cuts of the canonical representative that agree after rotation give the
    same diagram, so symmetric necklaces produce coefficients larger than 1.
    """
    return LinComb((NecklaceDiagram(x.rep, h), 1) for h in enumerate_cuts(x.rep))


def eta_rt(x: Path) -> LinComb:
    """Embedding of paths into decorated rooted trees: dual trees of all cuts.

    Implemented as the composite of s_rt with the signed dual-tree map, so the
    factorization through the chord algebra holds by construction.
    """
    return s_rt(x).map_basis(d_rt)


def eta_or(x: Necklace, signed: bool = False) -> LinComb:
    """Embedding of necklaces into decorated oriented trees."""
    return s_or(x).map_basis(lambda d: d_or(d, signed=signed))


def nc_coproduct(x: Path) -> Tensor:
    """Ordered-tensor coproduct on a path, valued in word pairs: the severed
    components multiply as an ordered word."""
    return _cut_coproduct(x, Word)


def point_projection(lc: LinComb) -> LinComb:
    """Restrict a combination of trees to the edgeless (point) trees, keeping
    the vertex label as the value."""
    return LinComb(
        (t.label if isinstance(t, RootedTree) else t.labels[0], c)
        for t, c in lc.items()
        if t.edge_count() == 0
    )


def coassoc_formula_terms(x: Path) -> Tensor:
    """Triple-coproduct expansion organized by cut order and precedence.

    cop(x) (x) 1 plus, for every cut of order at most 2 and every ordered
    split into two simple pieces with the first not enclosing the second, the
    grouped surgery components: first-piece components (x) second-piece
    components (x) outer. The empty cut contributes 1 (x) 1 (x) x.
    """
    return _formula_terms(x, path_coproduct(x))


def _formula_terms(x: Path, cop_x: Tensor) -> Tensor:
    """coassoc_formula_terms(x), given the coproduct cop_x of x."""
    terms = [((a, b, SYM_UNIT), c) for (a, b), c in cop_x.items()]
    for h in enumerate_cuts(x):
        if cut_order(h) > 2:
            continue
        d = PathDiagram(x, h)
        comps = cut_components(d)
        sign = epsilon(d)
        pairs = h.pairs
        for r in range(len(pairs) + 1):
            for first in itertools.combinations(pairs, r):
                h1 = Cut(first)
                h2 = Cut(tuple(c for c in pairs if c not in set(first)))
                if not (h1.is_simple() and h2.is_simple()):
                    continue
                if not precedes(h1, h2):
                    continue
                left = Monomial(tuple(comps.chords[c] for c in h1.pairs))
                mid = Monomial(tuple(comps.chords[c] for c in h2.pairs))
                terms.append(((left, mid, Monomial((comps.outer,))), sign))
    return Tensor(3, terms)


def coassoc_formula_defect(x: Path) -> Tensor:
    """Compare (cop (x) 1)cop, (1 (x) cop)cop, and the order/precedence
    expansion on one path: (cop (x) 1)cop minus the expansion, or, if that
    vanishes, minus (1 (x) cop)cop. All three share one call-scoped memo of
    the path coproducts, so each path is expanded once per call."""
    gen = functools.cache(path_coproduct)
    cop = functools.cache(lambda m: cop_free(gen, m))
    t = gen(x)
    direct = t.slot_expand(0, cop, 2)
    other = t.slot_expand(1, cop, 2)
    formula = _formula_terms(x, t)
    return (direct - formula) or (direct - other)
