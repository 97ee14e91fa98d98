"""Dual trees of chord diagrams.

The faces of a chord diagram (one per chord, plus the unbounded face) become
tree vertices; edges cross chords. Vertex labels are the face paths
(`cuts.faces`), a face's children are the faces of the chords
immediately nested in its chord (`cuts.nesting_children`), ordered by left
endpoint, and the edge dual to a chord (i, j) is oriented away from the root
exactly when letter i is unstarred -- the combinatorial shadow of drawing the
chord from i to j in the upper half plane and crossing it positively. This
orientation choice, together with the unsigned oriented map below, is pinned
by the coalgebra-morphism test suite: flipping either one breaks the oriented
morphism on quivers with loops.
"""

from __future__ import annotations

from .cuts import NecklaceDiagram, PathDiagram, epsilon, faces, nesting_children
from .linear import LinComb
from .quiver import Necklace
from .trees import OrientedTree, RootedTree, oriented_from_rooted


def dual_rooted_tree(d: PathDiagram | NecklaceDiagram) -> RootedTree:
    """Dual decorated rooted tree of a chord diagram (path or necklace).

    The root is the unbounded face labeled by the outer piece; each chord
    face is labeled by its piece. The edge dual to chord (i, j) points away
    from the root iff letter i is unstarred.
    """
    kids = nesting_children(d.cut)
    labels, letters = faces(d.path, kids), d.path.letters
    # Chords follow their parents in the cut, so backwards each face comes after its children.
    tree = {}
    for c in d.cut.pairs[::-1] + (None,):
        tree[c] = RootedTree(labels[c], [(letters[k[0] - 1].starred, tree[k]) for k in kids[c]])
    return tree[None]


def dual_oriented_tree(x: NecklaceDiagram) -> OrientedTree:
    """Dual oriented tree: forget the root and corner, necklace-ize the labels.

    Built from the canonical representative; the rotation lemma (checked by
    tests) makes the result representative-independent.
    """
    return oriented_from_rooted(dual_rooted_tree(x), Necklace)


def d_rt(x: PathDiagram) -> LinComb:
    """Chord-algebra-to-trees map on path diagrams: sign times the dual tree."""
    return LinComb.single(dual_rooted_tree(x), epsilon(x))


def d_or(x: NecklaceDiagram, signed: bool = False) -> LinComb:
    """Chord-algebra-to-trees map on necklace diagrams.

    The unsigned variant (the default) is the one that is a Lie coalgebra
    morphism; the signed variant multiplies by the cut sign and is exposed for
    the convention comparison in the verification suite.
    """
    coeff = epsilon(x) if signed else 1
    return LinComb.single(dual_oriented_tree(x), coeff)
