import itertools
import random

import pytest

from quiverhopf.linear import LinComb, Monomial, SYM_UNIT, Tensor, tensor
from quiverhopf.quiver import Necklace, Quiver
from quiverhopf.symalg import antipode_defect, antipode_monomial, coassoc_defect
from quiverhopf.trees import (
    OrientedTree,
    RootedTree,
    admissible_cuts,
    all_oriented_trees,
    all_rooted_trees,
    oriented_from_rooted,
    point,
    rho,
    rho_ss,
    rho_ss_oriented,
    tree_coproduct,
    tree_from_json,
    tree_to_json,
)
from quiverhopf.verify import verify_lie_coalgebra, verify_prelie_coalgebra
from support import counit_defect


def oriented_point(label: Necklace) -> OrientedTree:
    return OrientedTree((label,), (), ((),))


def labels2(q1):
    return (q1.trivial("1"), q1.trivial("2"))


def chain(labels, flags=None):
    """Chain rooted at labels[0], one child per subsequent label."""
    flags = flags or [False] * (len(labels) - 1)
    node = point(labels[-1])
    for lab, fl in zip(reversed(labels[:-1]), reversed(flags)):
        node = RootedTree(lab, ((fl, node),))
    return node


def test_rho_point(q1):
    assert rho(point(q1.trivial("1"))) == 0


def test_rho_one_edge(q1):
    x, y = labels2(q1)
    t = RootedTree(x, ((False, point(y)),))
    assert rho(t) == tensor(point(y), point(x))


def test_rho_three_chain(q1):
    r, a = labels2(q1)
    b = q1.trivial("1")
    t = chain([r, a, b])
    expect = tensor(chain([a, b]), point(r)) + tensor(point(b), chain([r, a]))
    assert rho(t) == expect


def test_rho_carries_flags(q1):
    x, y = labels2(q1)
    t = RootedTree(x, ((True, RootedTree(y, ((False, point(x)),))),))
    terms = dict(rho(t).terms())
    # Deleting the lower edge keeps the upper flag on the trunk.
    trunk = RootedTree(x, ((True, point(y)),))
    assert terms[(point(x), trunk)] == 1


def test_admissible_cuts_three_chain(q1):
    r, a = labels2(q1)
    b = q1.trivial("1")
    t = chain([r, a, b])
    cuts = admissible_cuts(t)
    keyed = {tuple(sorted(c.skey for c in comps)): trunk for comps, trunk in cuts}
    assert len(cuts) == 3  # empty, upper edge, lower edge; both is inadmissible
    assert keyed[()] == t
    assert keyed[(chain([a, b]).skey,)] == point(r)
    assert keyed[(point(b).skey,)] == chain([r, a])


def test_tree_coproduct_point(q1):
    p = point(q1.trivial("1"))
    expect = Tensor.single((Monomial((p,)), SYM_UNIT)) + Tensor.single(
        (SYM_UNIT, Monomial((p,)))
    )
    assert tree_coproduct(p) == expect


def test_tree_coproduct_two_chain(q1):
    r, a = labels2(q1)
    t = chain([r, a])
    expect = (
        Tensor.single((Monomial((t,)), SYM_UNIT))
        + Tensor.single((SYM_UNIT, Monomial((t,))))
        + tensor(Monomial((point(a),)), Monomial((point(r),)))
    )
    assert tree_coproduct(t) == expect


def test_tree_coproduct_three_chain(q1):
    r, a = labels2(q1)
    b = q1.trivial("1")
    t = chain([r, a, b])
    expect = (
        Tensor.single((Monomial((t,)), SYM_UNIT))
        + Tensor.single((SYM_UNIT, Monomial((t,))))
        + tensor(Monomial((chain([a, b]),)), Monomial((point(r),)))
        + tensor(Monomial((point(b),)), Monomial((chain([r, a]),)))
    )
    assert tree_coproduct(t) == expect


def test_antipode_point(q1):
    p = point(q1.trivial("1"))
    got = antipode_monomial(tree_coproduct, Monomial((p,)))
    assert got == LinComb.single(Monomial((p,)), -1)


def test_antipode_two_chain(q1):
    r, a = labels2(q1)
    t = chain([r, a])
    got = antipode_monomial(tree_coproduct, Monomial((t,)))
    expect = LinComb.single(Monomial((t,)), -1) + LinComb.single(
        Monomial((point(a), point(r))), 1
    )
    assert got == expect


def test_antipode_axiom_trees(q1):
    sm = lambda m: antipode_monomial(tree_coproduct, m)
    for t in all_rooted_trees(4, labels2(q1), flags=(False,)):
        assert not antipode_defect(tree_coproduct, Monomial((t,)), sm)


def test_hopf_laws_on_trees(q1):
    trees = all_rooted_trees(3, labels2(q1), flags=(False, True))
    for t in trees:
        m = Monomial((t,))
        assert not coassoc_defect(tree_coproduct, m)
        assert not counit_defect(tree_coproduct, m)
    # Products too: coassociativity is multiplicative, spot-check regardless.
    small = trees[:6]
    for t1, t2 in itertools.product(small, small):
        m = Monomial((t1, t2))
        assert not coassoc_defect(tree_coproduct, m)
        assert not counit_defect(tree_coproduct, m)


def test_grading_preserved(q1):
    # deg = edges + 1 on trees, additively on monomials; every coproduct term
    # of a tree has matching total degree, with strictly smaller edge count in
    # both slots once the two unit-side terms are removed.
    for t in all_rooted_trees(4, labels2(q1)):
        deg = t.edge_count() + 1
        for (a, b), _ in tree_coproduct(t).terms():
            da = sum(u.edge_count() + 1 for u in a.factors)
            db = sum(u.edge_count() + 1 for u in b.factors)
            assert da + db == deg
            if a.factors and b.factors:
                ea = sum(u.edge_count() for u in a.factors)
                eb = sum(u.edge_count() for u in b.factors)
                assert ea < t.edge_count() and eb < t.edge_count()


def literal_cut_coproduct(t):
    """The rejected reading of the simple-cut condition: at most one cut edge
    inside each branch hanging off the root (root-incident edges are free)."""
    nodes = []

    def walk(node, parent, flag):
        idx = len(nodes)
        nodes.append({"label": node.label, "parent": parent, "flag": flag, "children": []})
        if parent is not None:
            nodes[parent]["children"].append(idx)
        for fl, child in node.children:
            walk(child, idx, fl)

    walk(t, None, None)

    def branch_of(idx):
        while nodes[idx]["parent"] not in (None, 0):
            idx = nodes[idx]["parent"]
        return idx

    def build(idx, cutset):
        kids = tuple(
            (nodes[c]["flag"], build(c, cutset))
            for c in nodes[idx]["children"]
            if c not in cutset
        )
        return RootedTree(nodes[idx]["label"], kids)

    non_root = [i for i in range(len(nodes)) if nodes[i]["parent"] is not None]
    out = Tensor.single((Monomial((t,)), SYM_UNIT))
    for r in range(len(non_root) + 1):
        for cut in itertools.combinations(non_root, r):
            internal = [c for c in cut if nodes[c]["parent"] != 0]
            per_branch = {}
            for c in internal:
                b = branch_of(c)
                per_branch[b] = per_branch.get(b, 0) + 1
            if any(v > 1 for v in per_branch.values()):
                continue
            comps = Monomial(tuple(build(c, set(cut)) for c in cut))
            trunk = Monomial((build(0, set(cut)),))
            out = out + Tensor.single((comps, trunk))
    return out


def test_literal_cut_rule_is_rejected(q1):
    # On chains of length <= 2 the two readings agree ...
    r, a = labels2(q1)
    t2 = chain([r, a])
    assert literal_cut_coproduct(t2) == tree_coproduct(t2)
    # ... but on the 3-chain the literal rule admits the double cut and
    # breaks coassociativity, which is why the admissible rule is used.
    t3 = chain([r, a, q1.trivial("1")])
    assert literal_cut_coproduct(t3) != tree_coproduct(t3)
    assert coassoc_defect(literal_cut_coproduct, Monomial((t3,)))
    assert not coassoc_defect(tree_coproduct, Monomial((t3,)))


def test_rho_prelie(q1):
    trees = all_rooted_trees(4, labels2(q1), flags=(False, True))
    assert verify_prelie_coalgebra(rho, trees).ok


def test_rho_ss_lie(q1):
    trees = all_rooted_trees(3, labels2(q1), flags=(False, True))
    assert verify_lie_coalgebra(rho_ss, trees).ok


def necklace_labels(q1):
    return (Necklace(q1.trivial("1")), Necklace(q1.trivial("2")))


def test_oriented_tree_iso_invariance(q1):
    n1, n2 = necklace_labels(q1)
    # The same one-edge oriented tree described from both vertices.
    a = OrientedTree((n1, n2), ((0, 1),), ((0,), (0,)))
    b = OrientedTree((n2, n1), ((1, 0),), ((0,), (0,)))
    assert a == b
    c = OrientedTree((n1, n2), ((1, 0),), ((0,), (0,)))
    assert a != c  # opposite orientation with distinct labels


def test_oriented_from_rooted_forgets_root(q1):
    x, y = labels2(q1)
    up = oriented_from_rooted(RootedTree(x, ((True, point(y)),)), Necklace)
    # The same decorated oriented tree arises from rooting at the other end.
    flipped = oriented_from_rooted(RootedTree(y, ((False, point(x)),)), Necklace)
    assert up == flipped


def test_oriented_delete_edge(q1):
    n1, n2 = necklace_labels(q1)
    t = OrientedTree((n1, n2), ((0, 1),), ((0,), (0,)))
    away, toward = t.delete_edge(0)
    assert away == oriented_point(n1)
    assert toward == oriented_point(n2)


def test_rho_ss_oriented_values(q1):
    n1, n2 = necklace_labels(q1)
    assert rho_ss_oriented(oriented_point(n1)) == 0
    t = OrientedTree((n1, n2), ((0, 1),), ((0,), (0,)))
    p1, p2 = oriented_point(n1), oriented_point(n2)
    assert rho_ss_oriented(t) == tensor(p1, p2) - tensor(p2, p1)


def test_rho_ss_oriented_two_edges_toward_middle(q1):
    # u -> v <- w with three distinct-ish labels; both edges point to v.
    n1, n2 = necklace_labels(q1)
    t = OrientedTree((n1, n2, n1), ((0, 1), (2, 1)), ((0,), (0, 1), (1,)))
    edge_terms = rho_ss_oriented(t)
    # Two edges, each contributing a skew pair: 4 terms before cancellation.
    p1 = oriented_point(n1)
    sub = OrientedTree((n1, n2), ((0, 1),), ((0,), (0,)))
    assert edge_terms == 2 * (tensor(p1, sub) - tensor(sub, p1))


def test_rho_ss_oriented_lie(q1):
    labs = necklace_labels(q1)
    trees = all_oriented_trees(3, labs, flags=(False, True))
    assert verify_lie_coalgebra(rho_ss_oriented, trees).ok


def test_tree_json_roundtrip(q1):
    for t in all_rooted_trees(3, labels2(q1), flags=(False, True))[:40]:
        assert tree_from_json(q1, tree_to_json(t)) == t


def test_tree_json_shape(q1):
    x, y = labels2(q1)
    t = RootedTree(x, ((True, point(y)),))
    assert tree_to_json(t) == {
        "label": "1",
        "children": [{"orient": "in", "node": {"label": "2", "children": []}}],
    }


def test_antipode_series_requires_decreasing_grading(q1):
    # A degree-stable reduced coproduct never terminates; the series must
    # refuse rather than loop.
    from quiverhopf.linear import Tensor
    from quiverhopf.symalg import antipode_free

    p = point(q1.trivial("1"))

    def stuck_cop(x):
        m = Monomial((x,))
        return (
            Tensor.single((m, SYM_UNIT))
            + Tensor.single((SYM_UNIT, m))
            + Tensor.single((m, m))
        )

    with pytest.raises(RuntimeError):
        antipode_free(stuck_cop, Monomial((p,)), max_steps=16)


def naive_serialize(t: OrientedTree, root: int, rot: int) -> str:
    """Planar serialization of t from root, the root's cyclic order started at rot.

    Recomputed in full for every candidate: an oracle for the key that
    OrientedTree builds with shared subtree strings.
    """

    def ser(v, parent_edge):
        es = t.adj[v]
        if parent_edge is None:
            order = es[rot:] + es[:rot]
        else:
            k = es.index(parent_edge)
            order = es[k + 1 :] + es[:k]
        out = "{%s:" % t.labels[v].skey
        for eidx in order:
            a, b = t.edge_list[eidx]
            w = b if a == v else a
            out += ("^" if b == v else "v") + ser(w, eidx)
        return out + "}"

    return ser(root, None)


def assert_canonical(t: OrientedTree):
    key, root, rot = min(
        (naive_serialize(t, r, s), r, s)
        for r in range(t.vertex_count())
        for s in range(max(len(t.adj[r]), 1))
    )
    assert (t.skey, t.canon_root, t.canon_rot) == ("OT|" + key, root, rot)


def test_oriented_canonical_key_matches_naive_minimum(q1):
    labs = necklace_labels(q1)
    trees = all_oriented_trees(4, labs, flags=(False, True))
    assert len(trees) > 100
    for t in trees:
        assert_canonical(t)
        for eidx in range(t.edge_count()):
            for part in t.delete_edge(eidx):
                assert_canonical(part)


def random_rooted_tree(rng, edges, labels):
    nodes = [[rng.choice(labels), []]]
    for _ in range(edges):
        parent = rng.choice(nodes)
        child = [rng.choice(labels), []]
        parent[1].insert(rng.randrange(len(parent[1]) + 1), (rng.random() < 0.5, child))
        nodes.append(child)

    def build(node):
        return RootedTree(node[0], tuple((up, build(c)) for up, c in node[1]))

    return build(nodes[0])


def test_oriented_canonical_key_matches_naive_minimum_large(q1):
    rng = random.Random(7)
    labels = labels2(q1)
    for edges in (12, 14, 16, 16):
        t = oriented_from_rooted(random_rooted_tree(rng, edges, labels), Necklace)
        assert t.edge_count() == edges
        assert_canonical(t)
    # A symmetric star: every root rotation ties, so the first one must win.
    x = labels[0]
    star = RootedTree(x, tuple((False, chain([x, x])) for _ in range(6)))
    assert_canonical(oriented_from_rooted(star, Necklace))


def test_oriented_canonical_key_repeated_least_label(q1):
    # The least label sits on four vertices, so four roots stay candidates.
    x, y = labels2(q1)
    t = RootedTree(
        y,
        (
            (False, chain([x, y, x])),
            (True, chain([y, x], [True])),
            (False, RootedTree(x, ((True, point(y)), (False, point(y))))),
        ),
    )
    o = oriented_from_rooted(t, Necklace)
    assert sum(lab == Necklace(x) for lab in o.labels) == 4
    assert_canonical(o)


@pytest.mark.parametrize("long_id", ["v:w", "v:A"])
def test_oriented_canonical_key_prefix_heads(long_id):
    # ':' is an id character, so the head "{N|v:" is a proper prefix of the
    # head "{N|v:w:": both kinds of root must stay candidates. With "v:A"
    # the longer head holds the minimum ('A' sorts before '^' and 'v').
    q = Quiver(("v", long_id), ())
    labels = (q.trivial("v"), q.trivial(long_id))
    long_root = Necklace(q.trivial("v:A"))
    rng = random.Random(11)
    mixed = long_wins = 0
    for edges in (1, 2, 3, 4, 6, 8, 10, 12):
        t = oriented_from_rooted(random_rooted_tree(rng, edges, labels), Necklace)
        assert_canonical(t)
        mixed += len(set(t.labels)) == 2
        long_wins += len(set(t.labels)) == 2 and t.labels[t.canon_root] == long_root
    assert mixed >= 6
    assert long_wins == (mixed if long_id == "v:A" else 0)
