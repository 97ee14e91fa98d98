import itertools
import json
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiverhopf.linear import LinComb, Monomial, SYM_UNIT, Tensor, tensor
from quiverhopf.quiver import Necklace, Path, Quiver
from quiverhopf.symalg import antipode_defect, coassoc_defect
from quiverhopf.trees import (
    OrientedTree,
    RootedTree,
    admissible_cuts,
    all_oriented_trees,
    all_rooted_trees,
    oriented_from_rooted,
    rho,
    rho_ss,
    rho_ss_oriented,
    json_text,
    tree_coproduct,
)
from quiverhopf.dual import dual_rooted_tree
from quiverhopf.verify import FAMILY, tree_sample, verify_lie_coalgebra, verify_prelie_coalgebra
from support import (
    antipode_monomial,
    counit_defect,
    nested_diagram,
    oracle_admissible_cuts,
    oracle_delete_edge,
    oracle_oriented_from_rooted,
    oracle_rho_ss,
    oracle_rho_ss_oriented,
    oracle_tree_coproduct,
    point,
    recursive_admissible_cuts,
    recursive_json_text,
    recursive_rho,
    recursive_text,
    tree_from_json,
)


def oriented_point(label: Necklace) -> OrientedTree:
    return OrientedTree((label,), ())


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


def cut_keys(cuts):
    """Each (components, trunk) by keys, the components in the order given."""
    return sorted((tuple(c.skey for c in comps), trunk.skey) for comps, trunk in cuts)


def test_tree_coproduct_matches_the_edge_subset_oracle(q1):
    # The oracle lists each cut's severed subtrees in preorder, so equal keys
    # also say that admissible_cuts returns them in planar order.
    for t in all_rooted_trees(4, labels2(q1), flags=(False, True)):
        assert cut_keys(admissible_cuts(t)) == cut_keys(oracle_admissible_cuts(t))
        assert tree_coproduct(t) == oracle_tree_coproduct(t)


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
    a = OrientedTree((n1, n2), ((0, 1),))
    b = OrientedTree((n2, n1), ((1, 0),))
    assert a == b
    c = OrientedTree((n1, n2), ((1, 0),))
    assert a != c  # opposite orientation with distinct labels


@pytest.mark.parametrize("flag", ["no", 0, 1, None])
def test_rooted_tree_rejects_non_bool_flags(q1, flag):
    x, y = labels2(q1)
    with pytest.raises(TypeError, match=r"must be \(bool, RootedTree\) pairs"):
        RootedTree(x, ((flag, point(y)),))


def test_rooted_tree_takes_list_pairs_as_tuples(q1):
    x, y = labels2(q1)
    t = RootedTree(x, [[False, point(y)], (True, point(x))])
    assert t == RootedTree(x, ((False, point(y)), (True, point(x))))
    assert type(t.children) is tuple
    assert all(type(pair) is tuple for pair in t.children)


@pytest.mark.parametrize("make", [lambda q: q.trivial("2"), lambda q: "x", lambda q: None])
def test_rooted_tree_rejects_children_that_are_not_trees(q1, make):
    x, _ = labels2(q1)
    with pytest.raises(TypeError, match=r"must be \(bool, RootedTree\) pairs"):
        RootedTree(x, ((False, make(q1)),))


def test_rooted_tree_rejects_pairs_of_other_lengths(q1):
    x, y = labels2(q1)
    for pair in ((False, point(y), point(y)), [True, point(y), False], (False,)):
        with pytest.raises(ValueError):
            RootedTree(x, (pair,))


@pytest.mark.parametrize("make", [lambda q: Necklace(q.trivial("1")), lambda q: "x"])
def test_rooted_tree_rejects_labels_that_are_not_paths(q1, make):
    with pytest.raises(TypeError, match="rooted tree labels must be paths"):
        RootedTree(make(q1))


@pytest.mark.parametrize("edge", [(0.0, 1.9), ("0", "1"), (False, True), (0, 2), (-1, 0)])
def test_oriented_tree_rejects_endpoints_outside_the_vertices(q1, edge):
    n1, n2 = necklace_labels(q1)
    with pytest.raises(ValueError, match="must join vertex 1 to one of 0, the path from 0 to 0"):
        OrientedTree((n1, n2), (edge,))


def test_oriented_tree_rejects_a_loop(q1):
    n1, n2 = necklace_labels(q1)
    with pytest.raises(ValueError, match="must join vertex 1 to one of 0, the path from 0 to 0"):
        OrientedTree((n1, n2), ((1, 1),))


@pytest.mark.parametrize(
    "edges, bad",
    [
        (((0, 1), (0, 1)), "edge 1, \\(0, 1\\), must join vertex 2 to one of 0, 1, the path "),
        (((1, 2), (0, 1)), "edge 0, \\(1, 2\\), must join vertex 1 to one of 0, the path "),
        (((0, 1), (1, 3)), "edge 1, \\(1, 3\\), must join vertex 2 to one of 0, 1, the path "),
        (((0, 1), (0, 2), (1, 3)), "edge 2, \\(1, 3\\), must join vertex 3 to one of 0, 2, the"),
    ],
    ids=["repeated-edge", "out-of-walk-order", "edge-to-a-later-vertex", "out-of-preorder"],
)
def test_oriented_tree_takes_only_an_edge_list_in_walk_order(q1, edges, bad):
    # Edge e must join vertex e + 1 to vertex e or a vertex above it, so a
    # repeated edge (which left vertex 2 unreached), a valid tree listed out
    # of walk order, an edge that skips a vertex and a tree whose edges each
    # hang a vertex from an earlier one, but not in preorder (vertex 3 hangs
    # from 1 after 1's subtree was left for 2), are each refused.
    n1, n2 = necklace_labels(q1)
    with pytest.raises(ValueError, match=bad):
        OrientedTree((n1, n2, n1, n2)[: len(edges) + 1], edges)


def test_oriented_tree_derives_each_cyclic_order_from_the_edges(q1):
    n1, n2 = necklace_labels(q1)
    # A star at 0 whose middle branch has a child: 0 -> 1, 0 -> 2 -> 3, 0 <- 4.
    t = OrientedTree((n1, n2, n2, n1, n2), ((0, 1), (0, 2), (2, 3), (4, 0)))
    assert t.adj == ((0, 1, 3), (0,), (1, 2), (2,), (3,))


def test_oriented_from_rooted_forgets_root(q1):
    x, y = labels2(q1)
    up = oriented_from_rooted(RootedTree(x, ((True, point(y)),)), Necklace)
    # The same decorated oriented tree arises from rooting at the other end.
    flipped = oriented_from_rooted(RootedTree(y, ((False, point(x)),)), Necklace)
    assert up == flipped


def test_oriented_delete_edge(q1):
    n1, n2 = necklace_labels(q1)
    t = OrientedTree((n1, n2), ((0, 1),))
    away, toward = t.delete_edge(0)
    assert away == oriented_point(n1)
    assert toward == oriented_point(n2)


def test_delete_edge_rejects_an_edge_outside_the_tree(q1):
    n1, n2 = necklace_labels(q1)
    for t in (oriented_point(n1), OrientedTree((n1, n2, n1), ((0, 1), (2, 0)))):
        for eidx in (-1, t.edge_count()):
            msg = "edge index %d is out of range: the tree has %d edges" % (eidx, t.edge_count())
            with pytest.raises(IndexError, match=msg):
                t.delete_edge(eidx)


def test_rho_ss_oriented_values(q1):
    n1, n2 = necklace_labels(q1)
    assert rho_ss_oriented(oriented_point(n1)) == 0
    t = OrientedTree((n1, n2), ((0, 1),))
    p1, p2 = oriented_point(n1), oriented_point(n2)
    assert rho_ss_oriented(t) == tensor(p1, p2) - tensor(p2, p1)


def test_rho_ss_oriented_two_edges_toward_middle(q1):
    # u -> v <- w with three distinct-ish labels; both edges point to v.
    n1, n2 = necklace_labels(q1)
    t = OrientedTree((n1, n2, n1), ((0, 1), (2, 1)))
    edge_terms = rho_ss_oriented(t)
    # Two edges, each contributing a skew pair: 4 terms before cancellation.
    p1 = oriented_point(n1)
    sub = OrientedTree((n1, n2), ((0, 1),))
    assert edge_terms == 2 * (tensor(p1, sub) - tensor(sub, p1))


def test_rho_ss_oriented_lie(q1):
    labs = necklace_labels(q1)
    trees = all_oriented_trees(3, labs, flags=(False, True))
    assert verify_lie_coalgebra(rho_ss_oriented, trees).ok


def test_tree_json_roundtrip(q1):
    for t in all_rooted_trees(3, labels2(q1), flags=(False, True))[:40]:
        assert tree_from_json(q1, json.loads(json_text(t))) == t


def test_tree_json_shape(q1):
    x, y = labels2(q1)
    t = RootedTree(x, ((True, point(y)),))
    assert json.loads(json_text(t)) == {
        "label": "1",
        "children": [{"orient": "in", "node": {"label": "2", "children": []}}],
    }


def test_antipode_series_requires_decreasing_grading(q1):
    # A degree-stable reduced coproduct never terminates; the series must
    # refuse rather than loop.
    from quiverhopf.linear import Tensor
    from quiverhopf.symalg import MAX_STEPS, antipode_free

    p = point(q1.trivial("1"))

    def stuck_cop(x):
        m = Monomial((x,))
        return (
            Tensor.single((m, SYM_UNIT))
            + Tensor.single((SYM_UNIT, m))
            + Tensor.single((m, m))
        )

    with pytest.raises(RuntimeError, match="within %d steps" % MAX_STEPS):
        antipode_free(stuck_cop, Monomial((p,)))


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
    long_root = Necklace(Path("v:A"))
    rng = random.Random(11)
    mixed = long_wins = 0
    for edges in (1, 2, 3, 4, 6, 8, 10, 12):
        t = oriented_from_rooted(random_rooted_tree(rng, edges, labels), Necklace)
        assert_canonical(t)
        mixed += len(set(t.labels)) == 2
        long_wins += len(set(t.labels)) == 2 and t.labels[t.canon_root] == long_root
    assert mixed >= 6
    assert long_wins == (mixed if long_id == "v:A" else 0)


def test_rho_ss_matches_swap_subtract_oracle():
    trees = sorted({t for q in FAMILY.values() for t in tree_sample(q, 4)})
    assert len(trees) > 10000
    for t in trees:
        assert rho_ss(t) == oracle_rho_ss(t), t.text()


def test_rho_ss_oriented_matches_term_pair_oracle(q1):
    for t in all_oriented_trees(4, necklace_labels(q1), flags=(False, True)):
        assert rho_ss_oriented(t) == oracle_rho_ss_oriented(t), t.text()


# Edge deletion and the planar walk against a search and a recursive walk
# that share no code with them. Edge deletion keeps each side's vertices and
# edges in their old relative order, as the search does, so the sides agree
# down to the edge list. For the recursive walk only the canonical key and
# the text count.


def shape(t: OrientedTree):
    return t.skey, t.text()


def assert_delete_edge_matches(t: OrientedTree):
    for eidx in range(t.edge_count()):
        got = [(shape(p), p.labels, p.edge_list) for p in t.delete_edge(eidx)]
        want = [(shape(p), p.labels, p.edge_list) for p in oracle_delete_edge(t, eidx)]
        assert got == want, (t.text(), eidx)


def assert_from_rooted_matches(t: RootedTree) -> OrientedTree:
    o = oriented_from_rooted(t, Necklace)
    assert shape(o) == shape(oracle_oriented_from_rooted(t, Necklace)), t.text()
    return o


def test_delete_edge_matches_search_oracle(q1):
    trees = all_oriented_trees(4, necklace_labels(q1), flags=(False, True))
    assert len(trees) > 100
    for t in trees:
        assert_delete_edge_matches(t)


def test_every_accepted_edge_list_splits_like_the_search_oracle(q1):
    # Every edge list hanging vertex e + 1 from one of 0..e, on up to five
    # vertices: the constructor accepts exactly the preorder ones (Catalan
    # many, one per plane tree), and delete_edge splits each of them as the
    # search does, so no accepted input reaches delete_edge out of preorder.
    n1, n2 = necklace_labels(q1)
    for n, catalan in ((1, 1), (2, 1), (3, 2), (4, 5), (5, 14)):
        accepted = 0
        for parents in itertools.product(*(range(e + 1) for e in range(n - 1))):
            edges = [(p, e + 1) for e, p in enumerate(parents)]
            try:
                t = OrientedTree((n1, n2, n2, n1, n2)[:n], edges)
            except ValueError:
                continue
            accepted += 1
            assert_delete_edge_matches(t)
        assert accepted == catalan


def test_oriented_from_rooted_matches_recursive_oracle(q1):
    for t in all_rooted_trees(4, labels2(q1), flags=(False, True)):
        assert_from_rooted_matches(t)


@st.composite
def rooted_trees(draw, max_edges=8):
    """A planar rooted tree grown one leaf at a time, at any corner of any vertex."""
    labels = st.sampled_from(labels2(FAMILY["one_edge"]))
    nodes = [(draw(labels), [])]
    for _ in range(draw(st.integers(0, max_edges))):
        kids = nodes[draw(st.integers(0, len(nodes) - 1))][1]
        child = (draw(labels), [])
        kids.insert(draw(st.integers(0, len(kids))), (draw(st.booleans()), child))
        nodes.append(child)

    def build(node):
        return RootedTree(node[0], tuple((up, build(c)) for up, c in node[1]))

    return build(nodes[0])


@given(rooted_trees())
def test_planar_walk_matches_oracles_hypothesis(t):
    assert_delete_edge_matches(assert_from_rooted_matches(t))


# The one preorder filled backwards against the recursive maps it replaced.


def test_tree_maps_match_the_recursive_oracles(q1):
    trees = all_rooted_trees(4, labels2(q1), flags=(False, True))
    assert len(trees) == 7882
    for t in trees:
        assert dict(rho(t).items()) == dict(recursive_rho(t).items()), t.text()
        got = [([c.skey for c in comps], trunk.skey) for comps, trunk in admissible_cuts(t)]
        want = [
            ([c.skey for c in comps], trunk.skey) for comps, trunk in recursive_admissible_cuts(t)
        ]
        assert got == want, t.text()
        assert t.text() == recursive_text(t)
        assert json_text(t) == recursive_json_text(t)


def test_oriented_json_text_matches_the_recursive_printer(q1):
    trees = all_oriented_trees(3, necklace_labels(q1), flags=(False, True))
    assert len(trees) > 100
    for t in trees:
        assert json_text(t) == t.text() == recursive_json_text(t)


def test_sizes_and_printers_of_a_deep_nest(loop):
    # The dual tree of 1,500 nested chords is a chain 1,500 edges deep, each
    # edge pointing away from the root, every face an empty path at v.
    n = 1500
    t = dual_rooted_tree(nested_diagram(loop, n))
    assert (t.edge_count(), t.vertex_count()) == (n, n + 1)
    assert t.text() == "<v: v" * n + "<v>" + ">" * n
    leaf, close = '{"children":[],"label":"v"}', ',"orient":"out"}],"label":"v"}'
    assert json_text(t) == '{"children":[{"node":' * n + leaf + close * n


def test_oriented_trees_past_the_recursion_limit_are_refused(loop):
    t = dual_rooted_tree(nested_diagram(loop, 1500))
    with pytest.raises(ValueError, match="nested deeper than about the interpreter's recursion"):
        oriented_from_rooted(t, Necklace)


def stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_tree_maps_walk_a_nest_under_a_tight_recursion_limit(loop):
    # 200 nested chords, under a recursion limit 100 frames above this test:
    # no map recurses once per level. (At 1,500 both maps are cubic on a chain.)
    t = dual_rooted_tree(nested_diagram(loop, 200))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        sizes = len(rho(t)), len(admissible_cuts(t)), len(tree_coproduct(t))
    finally:
        sys.setrecursionlimit(limit)
    assert sizes == (200, 201, 202)
