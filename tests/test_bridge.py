from collections import Counter
from fractions import Fraction

import pytest

from quiverhopf import bridge
from quiverhopf.bridge import (
    CoproductLayers,
    compare_coproducts,
    delta0_prime,
    extract_prelie,
    monomialize,
    path_degree,
    reconstruct_coproduct,
    tree_degree,
)
from quiverhopf.cobrackets import delta_p_rt
from quiverhopf.hopf import path_coproduct
from quiverhopf.linear import BasisElement, Monomial, SYM_UNIT, Tensor, tensor
from quiverhopf.quiver import Path, all_paths
from quiverhopf.symalg import cop_free
from quiverhopf.trees import all_rooted_trees, point, rho, tree_coproduct
from support import layer


def M(*xs):
    return Monomial(xs)


def max_layer(layers: CoproductLayers) -> int:
    """The highest layer with a nonzero entry, or 0 when there is none."""
    return max([n for n, d in layers.layers.items() if d], default=0)


def test_delta0_prime_single(q1):
    v = q1.trivial("1")
    assert delta0_prime(M(v)) == 0


def test_delta0_prime_two_distinct(q1):
    v, w = q1.trivial("1"), q1.trivial("2")
    assert delta0_prime(M(v, w)) == tensor(M(v), M(w)) + tensor(M(w), M(v))


def test_delta0_prime_square(q1):
    v = q1.trivial("1")
    assert delta0_prime(M(v, v)) == 2 * tensor(M(v), M(v))


def test_extract_prelie_paths(q1):
    e = q1.letter("e")
    x = Path("1", (e, e.star()))
    assert extract_prelie(path_coproduct, x) == tensor(q1.trivial("2"), q1.trivial("1")) * (-1)
    assert monomialize(extract_prelie(path_coproduct, x)) == monomialize(delta_p_rt(x))


def test_extract_prelie_trees(q1):
    r, a = q1.trivial("1"), q1.trivial("2")
    from quiverhopf.trees import RootedTree

    chain = RootedTree(r, ((False, point(a)),))
    assert extract_prelie(tree_coproduct, chain) == tensor(point(a), point(r))
    assert monomialize(extract_prelie(tree_coproduct, chain)) == monomialize(rho(chain))


def test_extract_prelie_primitive(q1):
    assert extract_prelie(path_coproduct, q1.trivial("1")) == 0


def test_extract_prelie_shape_violation():
    a, b = BasisElement("X|a"), BasisElement("X|b")

    def bad_cop(x):
        return (
            Tensor.single((M(x), SYM_UNIT))
            + Tensor.single((SYM_UNIT, M(x)))
            + Tensor.single((M(a), M(a, b)))  # right slot not a single generator
        )

    with pytest.raises(ValueError):
        extract_prelie(bad_cop, a)


def test_reconstruct_paths_layer_values(q1):
    basis = all_paths(q1, 6)
    layers = reconstruct_coproduct(basis, path_degree, delta_p_rt, 8)
    e = q1.letter("e")
    x2 = Path("1", (e, e.star()))
    assert layer(layers, 2, x2) == 0
    x4 = Path("1", (e, e.star(), e, e.star()))
    t1, t2 = q1.trivial("1"), q1.trivial("2")
    assert layer(layers, 2, x4) == Tensor.single((M(t2, t2), M(t1)))
    assert layers.all_integral()


def test_reconstruct_paths_matches_direct(q1):
    basis = all_paths(q1, 6)
    layers = reconstruct_coproduct(basis, path_degree, delta_p_rt, 8)
    report = compare_coproducts(layers, path_coproduct, basis)
    assert report.ok and report.checked == len(basis)


def test_reconstruct_trees_matches_direct(q1):
    label = q1.trivial("1")
    basis = all_rooted_trees(4, (label,), flags=(False,))
    layers = reconstruct_coproduct(basis, tree_degree, rho, 5)
    assert compare_coproducts(layers, tree_coproduct, basis).ok
    assert layers.all_integral()


def test_reconstruct_round_trip(q1):
    basis = all_paths(q1, 5)
    layers = reconstruct_coproduct(basis, path_degree, delta_p_rt, 7)
    for x in basis:
        assert extract_prelie(layers.total, x) == extract_prelie(path_coproduct, x)


def test_reconstruct_zero_map(q1):
    basis = [q1.trivial("1"), q1.trivial("2")]
    layers = reconstruct_coproduct(basis, path_degree, delta_p_rt, 8)
    for x in basis:
        whole, unit = M(x), Monomial(())
        assert layers.total(x) == Tensor.single((whole, unit)) + Tensor.single((unit, whole))
    assert max_layer(layers) == 0


def test_reconstruct_rejects_degree_breaking_map(q1):
    basis = all_paths(q1, 2)

    def bad(x):
        if x.letters:
            return tensor(q1.trivial("1"), q1.trivial("1"))
        return Tensor.zero(2)

    with pytest.raises(ValueError):
        reconstruct_coproduct(basis, path_degree, bad, 4)


def test_reconstruct_rejects_non_prelie_map():
    # Degree-preserving but not pre-Lie: the layer-2 right side is not in the
    # image of the monomial splitting, which the verification step catches.
    a, b, c, d = (BasisElement("X|%s" % s) for s in "abcd")
    degree = {a: 1, b: 1, c: 2, d: 3}.__getitem__

    def bad_rho(x):
        if x == d:
            return tensor(c, a)
        if x == c:
            return tensor(a, b)
        return Tensor.zero(2)

    with pytest.raises(ValueError):
        reconstruct_coproduct([a, b, c, d], degree, bad_rho, 3)


def test_degree_preservation_of_instances(q1, loop_edge):
    for q in (q1, loop_edge):
        for x in all_paths(q, 5):
            for (u, v), _ in delta_p_rt(x).terms():
                assert path_degree(u) + path_degree(v) == path_degree(x)
    for t in all_rooted_trees(4, (q1.trivial("1"),)):
        for (u, v), _ in rho(t).terms():
            assert tree_degree(u) + tree_degree(v) == tree_degree(t)


def test_term_counts_reported(q1):
    basis = all_paths(q1, 6)
    layers = reconstruct_coproduct(basis, path_degree, delta_p_rt, 8)
    counts = layers.term_counts()
    assert counts[1] > 0 and counts[2] > 0
    assert max_layer(layers) >= 2


def test_graded_prelie_bundle(q1):
    from quiverhopf.bridge import GradedPreLieCoalgebra

    inst = GradedPreLieCoalgebra(tuple(all_paths(q1, 4)), path_degree, delta_p_rt)
    assert inst.check().ok
    layers = inst.reconstruct(6)
    assert compare_coproducts(layers, path_coproduct, inst.basis).ok

    def bad(x):
        return tensor(q1.trivial("1"), q1.trivial("1")) if x.letters else Tensor.zero(2)

    bad_inst = GradedPreLieCoalgebra(tuple(all_paths(q1, 2)), path_degree, bad)
    assert not bad_inst.check().ok


def test_reconstruct_memos_are_call_scoped(q1, monkeypatch):
    """Two equal calls do equal work: no memo outlives its call."""
    rho_args, cop_args = [], []

    def counting_rho(t):
        rho_args.append(t)
        return rho(t)

    def counting_cop_free(gen_cop, m):
        cop_args.append(m)
        return cop_free(gen_cop, m)

    monkeypatch.setattr(bridge, "cop_free", counting_cop_free)
    basis = all_rooted_trees(4, (q1.trivial("1"),), flags=(False,))
    runs = []
    for _ in range(2):
        del rho_args[:], cop_args[:]
        layers = reconstruct_coproduct(basis, tree_degree, counting_rho, 5)
        runs.append((layers.layers, len(rho_args), Counter(cop_args)))
    assert runs[0] == runs[1]
    layers, rho_calls, cop_calls = runs[0]
    assert rho_calls == len(basis)
    # One memo per degree step: a monomial is expanded at most once a step.
    assert max(cop_calls.values()) <= len(layers)


def test_reconstructed_layers_are_int(two_loops):
    # The division by n + 1 comes out integral, and is stored as an int.
    paths = all_paths(two_loops, 4)
    trees = all_rooted_trees(5, (two_loops.trivial("v"),))
    for layers in (
        reconstruct_coproduct(paths, path_degree, delta_p_rt, 6),
        reconstruct_coproduct(trees, tree_degree, rho, 6),
    ):
        assert max_layer(layers) >= 2
        assert layers.all_integral()
        for d in layers.layers.values():
            for t in d.values():
                assert {type(c) for _, c in t.items()} == {int}


def test_non_integral_layer_is_reported(q1):
    x = q1.trivial("1")
    half = Tensor(2, (((M(x, x), M(x)), Fraction(1, 2)),))
    assert not CoproductLayers({2: {x: half}}, tree_degree).all_integral()
    assert CoproductLayers({2: {x: 2 * half}}, tree_degree).all_integral()
    assert bridge._divide(3, 2) == Fraction(3, 2)
    assert type(bridge._divide(4, 2)) is int and bridge._divide(4, 2) == 2


def test_instance_builder(q1, two_loops):
    paths, direct = bridge.instance(q1, "paths", 5)
    assert paths.basis == tuple(all_paths(q1, 3)) and direct is path_coproduct
    assert (paths.degree, paths.rho) == (path_degree, delta_p_rt)
    trees, direct = bridge.instance(two_loops, "trees", 4)
    label = two_loops.trivial("v")
    assert trees.basis == tuple(all_rooted_trees(3, (label,), flags=(False,)))
    assert (trees.degree, trees.rho, direct) == (tree_degree, rho, tree_coproduct)
    assert len(bridge.instance(q1, "paths", 2)[0].basis) == 2
    assert bridge.instance(q1, "trees", 1)[0].basis == (point(q1.trivial("1")),)
    for kind, least in (("paths", 2), ("trees", 1)):
        with pytest.raises(ValueError, match="below %d, the least degree" % least):
            bridge.instance(q1, kind, least - 1)
    with pytest.raises(ValueError, match="unknown bridge instance"):
        bridge.instance(q1, "forests", 5)
