from quiverhopf.cuts import (
    Cut,
    NecklaceDiagram,
    PathDiagram,
    chord_delta_or,
    chord_delta_p_rt,
    cut_order,
    enumerate_cuts,
    epsilon,
    necklace_diagrams,
    nesting_children,
    path_diagrams,
)
from quiverhopf.dual import d_or, d_rt, dual_oriented_tree, dual_rooted_tree
from quiverhopf.linear import LinComb
from quiverhopf.quiver import Necklace, Path, all_paths, rotate
from quiverhopf.trees import OrientedTree, RootedTree, oriented_from_rooted, rho, rho_ss_oriented
from quiverhopf.verify import verify_coalgebra_morphism
from support import point, sliced_surgery


def ee4(q1):
    e = q1.letter("e")
    return Path("1", (e, e.star(), e, e.star()))


def test_nesting_children(q1):
    kids = nesting_children(Cut(((1, 4), (2, 3))))
    assert kids[None] == [(1, 4)]
    assert kids[(1, 4)] == [(2, 3)]
    assert kids[(2, 3)] == []


def test_dual_tree_empty_cut(q2):
    for p in all_paths(q2, 3):
        assert dual_rooted_tree(PathDiagram(p, Cut(()))) == point(p)


def test_dual_tree_one_chord(q1):
    e = q1.letter("e")
    t = dual_rooted_tree(PathDiagram(Path("1", (e, e.star())), Cut(((1, 2),))))
    # Letter 1 is unstarred, so the dual edge points away from the root.
    assert t == RootedTree(q1.trivial("1"), ((False, point(q1.trivial("2"))),))


def test_dual_tree_nested_chain(q1):
    t = dual_rooted_tree(PathDiagram(ee4(q1), Cut(((1, 4), (2, 3)))))
    # Chain root triv_1 - triv_2 - triv_1; the outer chord starts with e
    # (down-flag), the inner one with e* (up-flag).
    inner = RootedTree(q1.trivial("2"), ((True, point(q1.trivial("1"))),))
    assert t == RootedTree(q1.trivial("1"), ((False, inner),))


def test_dual_tree_side_by_side_corner_order(q1):
    t = dual_rooted_tree(PathDiagram(ee4(q1), Cut(((1, 2), (3, 4)))))
    p2 = point(q1.trivial("2"))
    assert t == RootedTree(q1.trivial("1"), ((False, p2), (False, p2)))


def label_multiset(t):
    out = [t.label]
    for _, child in t.children:
        out.extend(label_multiset(child))
    return sorted(out)


def test_face_labels_equal_sliced_surgery(q1, loop_edge):
    for q in (q1, loop_edge):
        for p in all_paths(q, 6):
            for h in enumerate_cuts(p):
                d = PathDiagram(p, h)
                t = dual_rooted_tree(d)
                assert t.edge_count() == len(h.pairs)
                pieces = sliced_surgery(p, h.pairs, h.pairs)
                assert label_multiset(t) == sorted(path for path, _ in pieces.values())
                if cut_order(h) == 1:
                    # Simple cut: every dual edge is incident to the root.
                    assert all(not c.children for _, c in t.children)


def test_d_rt_signs(q1):
    e = q1.letter("e")
    two = Path("1", (e, e.star()))
    d0 = PathDiagram(two, Cut(()))
    assert d_rt(d0) == LinComb.single(point(two), 1)
    d1 = PathDiagram(two, Cut(((1, 2),)))
    assert d_rt(d1) == LinComb.single(
        RootedTree(q1.trivial("1"), ((False, point(q1.trivial("2"))),)), -1
    )
    chain = PathDiagram(ee4(q1), Cut(((1, 4), (2, 3))))
    inner = RootedTree(q1.trivial("2"), ((True, point(q1.trivial("1"))),))
    assert d_rt(chain) == LinComb.single(
        RootedTree(q1.trivial("1"), ((False, inner),)), -1
    )


def test_dual_tree_of_a_deep_nest(loop):
    # 1,500 fully nested chords, far deeper than Python's recursion limit: the
    # dual tree is a chain of empty faces at v, each edge pointing away from
    # the root since every left letter is a.
    n = 1500
    a = loop.letter("a")
    word = Path("v", (a,) * n + (a.star(),) * n)
    d = PathDiagram(word, Cut((i, 2 * n + 1 - i) for i in range(1, n + 1)))
    chain = point(loop.trivial("v"))
    for _ in range(n):
        chain = RootedTree(loop.trivial("v"), ((False, chain),))
    assert dual_rooted_tree(d) == chain
    assert d_rt(d) == LinComb.single(chain, epsilon(d))


def test_dual_oriented_tree_values(q1):
    e = q1.letter("e")
    n1 = Necklace(q1.trivial("1"))
    n2 = Necklace(q1.trivial("2"))
    d = NecklaceDiagram(Path("1", (e, e.star())), Cut(((1, 2),)))
    # Edge oriented away from the former root: from the [1]-vertex into the
    # chord face labeled [2].
    expect = OrientedTree((n1, n2), ((0, 1),))
    assert dual_oriented_tree(d) == expect
    triv = NecklaceDiagram(q1.trivial("1"))
    assert dual_oriented_tree(triv) == OrientedTree((n1,), ())


def test_dual_oriented_rotation_invariance(q1, loop, loop_edge):
    # The dual oriented tree does not depend on the rotation used to present
    # the necklace diagram.
    for q in (q1, loop, loop_edge):
        for p in all_paths(q, 5):
            if not p.is_closed() or not p.letters:
                continue
            n = len(p.letters)
            for h in enumerate_cuts(p):
                results = set()
                for k in range(n):
                    word = rotate(p, k)
                    moved = Cut(
                        tuple(
                            tuple(sorted((((i - k - 1) % n) + 1, ((j - k - 1) % n) + 1)))
                            for i, j in h.pairs
                        )
                    )
                    o = oriented_from_rooted(dual_rooted_tree(PathDiagram(word, moved)), Necklace)
                    results.add(o.skey)
                assert len(results) == 1


def test_d_or_default_unsigned(q1):
    e = q1.letter("e")
    d = NecklaceDiagram(Path("1", (e, e.star())), Cut(((1, 2),)))
    n1, n2 = Necklace(q1.trivial("1")), Necklace(q1.trivial("2"))
    tree = OrientedTree((n1, n2), ((0, 1),))
    assert d_or(d) == LinComb.single(tree, 1)
    assert d_or(d, signed=True) == LinComb.single(tree, -1)


def test_d_rt_is_prelie_morphism(q1, two_loops, loop_edge):
    for q in (q1, two_loops, loop_edge):
        rep = verify_coalgebra_morphism(
            d_rt, chord_delta_p_rt, rho, path_diagrams(q, 4), "D_rt morphism"
        )
        assert rep.ok


def test_d_or_is_lie_morphism_unsigned_only(q1, two_loops, loop_edge):
    for q in (q1, two_loops, loop_edge):
        sample = necklace_diagrams(q, 4)
        unsigned = verify_coalgebra_morphism(
            d_or, chord_delta_or, rho_ss_oriented, sample, "D_or morphism"
        )
        assert unsigned.ok
        signed = verify_coalgebra_morphism(
            lambda d: d_or(d, signed=True),
            chord_delta_or,
            rho_ss_oriented,
            sample,
            "D_or morphism (signed)",
        )
        assert not signed.ok  # the signed convention is not a morphism
