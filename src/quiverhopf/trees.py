"""Decorated rooted and oriented trees and their comultiplications.

Rooted trees here are planar: the children of every vertex come in a linear
order (the cyclic order at a non-root vertex is lifted by starting just after
the edge toward the root, and the root carries a distinguished initial edge),
so isomorphism is plain structural equality. Each vertex is labeled by a
path; each edge carries an orientation flag. Oriented trees drop the root and
the initial edge, keep cyclic orders and absolute edge orientations, label
vertices by necklaces, and are canonicalized by minimizing over all root and
rotation choices.
"""

from __future__ import annotations

import json
from typing import Callable, Tuple

from .linear import BasisElement, Tensor, skew
from .quiver import Necklace, Path
from .symalg import graft_coproduct


class RootedTree(BasisElement):
    """Planar rooted tree with path labels and per-edge orientation flags.

    children is a tuple of (up, subtree) pairs in planar order; up=True means
    the edge points from the child toward the root side.
    """

    __slots__ = ("label", "children")

    def __init__(self, label: Path, children=()):
        if not isinstance(label, Path):
            raise TypeError("rooted tree labels must be paths: %r" % (label,))
        kids, parts = [], []
        for pair in children:
            up, child = pair = pair if type(pair) is tuple else tuple(pair)
            if type(up) is not bool or not isinstance(child, RootedTree):
                raise TypeError("children must be (bool, RootedTree) pairs: %r" % (pair,))
            kids.append(pair)
            parts.append(("^" if up else "v") + child.skey[3:])
        BasisElement.__init__(self, "RT|{%s:%s}" % (label.skey, "".join(parts)))
        self.label = label
        self.children = tuple(kids)

    def edge_count(self) -> int:
        return sum(1 + child.edge_count() for _, child in self.children)

    def vertex_count(self) -> int:
        return 1 + sum(child.vertex_count() for _, child in self.children)

    def text(self) -> str:
        if not self.children:
            return "<%s>" % self.label.text()
        inner = " ".join(
            ("^" if up else "v") + child.text() for up, child in self.children
        )
        return "<%s: %s>" % (self.label.text(), inner)


def tree_to_json(t: RootedTree) -> dict:
    """Structured-text form: {"label": ..., "children": [{"orient", "node"}]}."""
    return _json_at(t, lambda node: (node.label, node.children))


def _json_at(node, expand) -> dict:
    """tree_to_json below node, expand(node) giving (label, [(up, child), ...])."""
    label, kids = expand(node)
    return {
        "label": label.text(),
        "children": [
            {"orient": "in" if up else "out", "node": _json_at(child, expand)}
            for up, child in kids
        ],
    }


def rho(t: RootedTree) -> Tensor:
    """Edge-deletion comultiplication on decorated rooted trees.

    Every edge contributes (subtree cut off) (x) (rest containing the root);
    the cut-off subtree is rooted at its vertex formerly incident to the
    deleted edge, and all decorations restrict.
    """
    terms = []
    for idx, (flag, child) in enumerate(t.children):
        rest = t.children[:idx] + t.children[idx + 1 :]
        terms.append(((child, RootedTree(t.label, rest)), 1))
        for (t1, t2), c in rho(child).items():
            replaced = t.children[:idx] + ((flag, t2),) + t.children[idx + 1 :]
            terms.append(((t1, RootedTree(t.label, replaced)), c))
    return Tensor(2, terms)


def rho_ss(t: RootedTree) -> Tensor:
    """Skew-symmetrized rho: the Lie cobracket on rooted trees."""
    return skew(rho(t))


def admissible_cuts(t: RootedTree):
    """All edge cuts with at most one cut edge on any root-to-vertex path.

    Each cut is returned as (components, trunk): the tuple of subtrees severed
    (in planar order) and the remaining tree at the root. The empty cut is
    included as ((), t).
    """
    # (severed components, kept children) over the children seen so far: each
    # child is severed whole or keeps the trunk of one of its own cuts.
    cuts = [((), ())]
    for flag, child in t.children:
        options = [((child,), ())]
        options += [(sub, ((flag, trunk),)) for sub, trunk in admissible_cuts(child)]
        cuts = [(comps + c, kids + k) for comps, kids in cuts for c, k in options]
    return [(comps, RootedTree(t.label, kids)) for comps, kids in cuts]


def tree_coproduct(t: RootedTree) -> Tensor:
    """Forest-valued coproduct on rooted trees.

    T (x) 1 plus, for every admissible cut, the product of severed subtrees
    tensor the trunk; the empty cut supplies 1 (x) T.
    """
    return graft_coproduct(t, ((comps, trunk, 1) for comps, trunk in admissible_cuts(t)))


def _planar_children(edge_list, adj, v, parent_edge, rot: int):
    """The edges below v in planar order, as (points at v, (far end, edge)):
    after the edge toward the root (parent_edge), or from position rot at the
    root. The pairs (far end, edge) are the nodes of OrientedTree.to_json."""
    es = adj[v]
    if parent_edge is None:
        order = es[rot:] + es[:rot]
    else:
        k = es.index(parent_edge)
        order = es[k + 1 :] + es[:k]
    out = []
    for eidx in order:
        a, b = edge_list[eidx]
        out.append((b == v, (a if b == v else b, eidx)))
    return out


class OrientedTree(BasisElement):
    """Unrooted tree with cyclic edge orders, oriented edges, necklace labels.

    Given by its edge list in preorder, edge e joining vertex e + 1 to vertex
    e or a vertex above it, so every accepted input is a tree and the
    vertices below any edge form one contiguous block; the cyclic order at v,
    adj[v], is the edges at v in increasing index. The canonical key
    minimizes the planar serialization over every root vertex and rotation of
    its cyclic order, so equality is isomorphism of decorated oriented trees.
    """

    __slots__ = ("labels", "edge_list", "adj", "canon_root", "canon_rot")

    def __init__(self, labels, edge_list):
        labels = tuple(labels)
        edge_list = tuple(map(tuple, edge_list))
        for lab in labels:
            if not isinstance(lab, Necklace):
                raise TypeError("oriented tree labels must be necklaces")
        if len(edge_list) != len(labels) - 1:
            raise ValueError("an oriented tree on n vertices needs n - 1 edges")
        adj, path = [[]], [0]  # path: the vertices from 0 down to vertex e
        for e, (u, v) in enumerate(edge_list):
            p = v if u == e + 1 else u  # edge e hangs vertex e + 1 from p
            if not (type(u) is type(v) is int and e + 1 in (u, v) and p in path):
                msg = "edge %d, %r, must join vertex %d to one of %s, the path from 0 to %d"
                raise ValueError(msg % (e, (u, v), e + 1, ", ".join(map(str, path)), e))
            path[path.index(p) + 1 :] = [e + 1]
            adj[p].append(e)
            adj.append([e])
        adj = tuple(map(tuple, adj))
        best = None
        below: dict = {}
        # A serialization from root r starts with heads[r], so a root whose
        # head does not start with the least head cannot hold the minimum.
        # (One head can be a proper prefix of another: ':' is an id character.)
        heads = ["{%s:" % lab.skey for lab in labels]
        least = min(heads)
        for r in range(len(labels)):
            if not heads[r].startswith(least):
                continue
            for s in range(max(len(adj[r]), 1)):
                key = self._serialize(labels, edge_list, adj, r, s, below)
                if best is None or key < best[0]:
                    best = (key, r, s)
        BasisElement.__init__(self, "OT|" + best[0])
        self.labels = labels
        self.edge_list = edge_list
        self.adj = adj
        self.canon_root = best[1]
        self.canon_rot = best[2]

    @staticmethod
    def _serialize(labels, edge_list, adj, root: int, rot: int, below: dict) -> str:
        """Planar serialization from root, its cyclic order started at rot.

        The serialization of a non-root vertex depends only on the edge toward
        the root, not on root or rot; below memoizes it per (vertex, edge) so
        the candidates of one tree share it.
        """
        return _serialize_at(labels, edge_list, adj, rot, below, root, None)

    def vertex_count(self) -> int:
        return len(self.labels)

    def edge_count(self) -> int:
        return len(self.edge_list)

    def delete_edge(self, eidx: int):
        """Split at one edge; returns (away_part, toward_part) following the
        edge orientation: the second component is the one the edge points to.
        Each side is a slice of the preorder, so every vertex keeps its
        cyclic order minus the deleted edge."""
        labels, edges, n = self.labels, self.edge_list, len(self.edge_list)
        if not 0 <= eidx < n:
            raise IndexError("edge index %r is out of range: the tree has %d edges" % (eidx, n))
        # Vertices lo..end lie below the edge: edge end is the first later one
        # hung from a vertex before lo. Edges before eidx end before lo.
        lo = end = eidx + 1
        while end < n and min(edges[end]) >= lo:
            end += 1
        below = OrientedTree(labels[lo : end + 1], [(a - lo, b - lo) for a, b in edges[lo:end]])
        d = end - eidx
        tail = [(a - d if a > end else a, b - d if b > end else b) for a, b in edges[end:]]
        rest = OrientedTree(labels[:lo] + labels[end + 1 :], edges[:eidx] + tuple(tail))
        return (below, rest) if edges[eidx][0] == lo else (rest, below)

    def to_json(self) -> dict:
        labels, edges, adj, rot = self.labels, self.edge_list, self.adj, self.canon_rot
        expand = lambda node: (labels[node[0]], _planar_children(edges, adj, *node, rot))
        return _json_at((self.canon_root, None), expand)

    def text(self) -> str:
        return json_text(self)


def json_text(t) -> str:
    """The printed structured-text form of a rooted or oriented tree."""
    obj = t.to_json() if isinstance(t, OrientedTree) else tree_to_json(t)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _serialize_at(labels, edge_list, adj, rot: int, below: dict, v, parent_edge) -> str:
    """OrientedTree._serialize below vertex v, entered by parent_edge (None
    at the root); below memoizes each non-root vertex by (vertex, edge)."""
    parts = []
    for up, (w, eidx) in _planar_children(edge_list, adj, v, parent_edge, rot):
        sub = below.get((w, eidx))
        if sub is None:
            sub = below[w, eidx] = _serialize_at(labels, edge_list, adj, rot, below, w, eidx)
        parts.append(("^" if up else "v") + sub)
    return "{%s:%s}" % (labels[v].skey, "".join(parts))


def oriented_from_rooted(t: RootedTree, to_label: Callable[[Path], Necklace]) -> OrientedTree:
    """Forget the root and corner of a decorated rooted tree.

    Path labels are mapped through to_label (typically necklace
    canonicalization; labels of trees dual to necklace diagrams are closed).
    The cyclic order at a former non-root vertex starts with the edge back
    toward the root, matching the planar lifting used by RootedTree.
    """
    labels, edge_list = [], []
    _visit(t, to_label, labels, edge_list)
    return OrientedTree(labels, edge_list)


def _visit(node, to_label, labels, edge_list):
    """Number node and the subtree below it in preorder, edge e ending at e + 1."""
    v = len(labels)
    labels.append(to_label(node.label))
    for up, child in node.children:
        w = len(labels)
        edge_list.append((w, v) if up else (v, w))
        _visit(child, to_label, labels, edge_list)


def rho_ss_oriented(t: OrientedTree) -> Tensor:
    """Lie cobracket on oriented trees: skew edge deletion.

    For every edge, the component the edge points to sits in the second slot
    of the positive term.
    """
    return skew(Tensor(2, ((t.delete_edge(eidx), 1) for eidx in range(len(t.edge_list)))))


def all_rooted_trees(max_edges: int, labels, flags: Tuple[bool, ...] = (False,)):
    """Every decorated planar rooted tree with at most max_edges edges.

    labels supplies the vertex alphabet; flags the edge-orientation alphabet.
    Intended for exhaustive sweeps at desk scale, so keep both alphabets small.
    """
    labels = tuple(labels)
    flags = tuple(flags)
    # trees[b] and forests[b] hold the trees and planar forests with b edges.
    trees, forests = [], []
    for budget in range(max_edges + 1):
        forests.append([()] if budget == 0 else [
            ((flag, sub),) + rest
            for first_size in range(budget)
            for sub in trees[first_size]
            for flag in flags
            for rest in forests[budget - 1 - first_size]
        ])
        trees.append([RootedTree(lab, kids) for kids in forests[budget] for lab in labels])
    return sorted(t for level in trees for t in level)


def all_oriented_trees(max_edges: int, labels, flags: Tuple[bool, ...] = (False, True)):
    """Every decorated oriented tree with at most max_edges edges, deduplicated.

    labels must be necklaces; generation passes through rooted trees with the
    corresponding closed-path labels, so every isomorphism class is hit.
    """
    path_labels = tuple(n.rep for n in labels)
    return sorted(
        {oriented_from_rooted(t, Necklace) for t in all_rooted_trees(max_edges, path_labels, flags)}
    )
