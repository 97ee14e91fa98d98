import functools
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
from quiverhopf.trees import all_rooted_trees, rho, tree_coproduct
from quiverhopf.verify import FAMILY, verify_prelie_coalgebra
from support import layer, oracle_reconstruct, point


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
    layers = reconstruct_coproduct(basis, path_degree, delta_p_rt)
    e = q1.letter("e")
    x2 = Path("1", (e, e.star()))
    assert layer(layers, 2, x2) == 0
    x4 = Path("1", (e, e.star(), e, e.star()))
    t1, t2 = q1.trivial("1"), q1.trivial("2")
    assert layer(layers, 2, x4) == Tensor.single((M(t2, t2), M(t1)))
    assert layers.all_integral()


def test_reconstruct_paths_matches_direct(q1):
    basis = all_paths(q1, 6)
    layers = reconstruct_coproduct(basis, path_degree, delta_p_rt)
    report = compare_coproducts(layers, path_coproduct, basis)
    assert report.ok and report.checked == len(basis)


def test_reconstruct_trees_matches_direct(q1):
    label = q1.trivial("1")
    basis = all_rooted_trees(4, (label,), flags=(False,))
    layers = reconstruct_coproduct(basis, tree_degree, rho)
    assert compare_coproducts(layers, tree_coproduct, basis).ok
    assert layers.all_integral()


def test_reconstruct_round_trip(q1):
    basis = all_paths(q1, 5)
    layers = reconstruct_coproduct(basis, path_degree, delta_p_rt)
    for x in basis:
        assert extract_prelie(layers.total, x) == extract_prelie(path_coproduct, x)


def test_reconstruct_zero_map(q1):
    basis = [q1.trivial("1"), q1.trivial("2")]
    layers = reconstruct_coproduct(basis, path_degree, delta_p_rt)
    for x in basis:
        whole, unit = M(x), Monomial(())
        assert layers.total(x) == Tensor.single((whole, unit)) + Tensor.single((unit, whole))
    assert max_layer(layers) == 0


def test_reconstruct_rejects_degree_breaking_map(q1):
    basis = all_paths(q1, 2)

    def bad(x):
        if x.letters:
            return tensor(q1.trivial("1"), q1.trivial("1"))
        return Tensor(2)

    # The map satisfies the coaxiom; the walk's grading check rejects it.
    assert verify_prelie_coalgebra(bad, basis).ok
    with pytest.raises(ValueError, match="does not preserve degree"):
        reconstruct_coproduct(basis, path_degree, bad)


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
        return Tensor(2)

    with pytest.raises(ValueError, match=r"at X\|d: layer 2 defect"):
        reconstruct_coproduct([a, b, c, d], degree, bad_rho)


def test_reconstruct_names_the_least_degree_failure():
    # Generators are visited in degree order, so of two failing generators
    # the error names the one of lower degree, here X|e (degree 3) rather
    # than X|d (degree 4), which comes first in key order. Both fail at
    # layer 2.
    a, b, c, d, e = (BasisElement("X|%s" % s) for s in "abcde")
    degree = {a: 1, b: 1, c: 2, e: 3, d: 4}.__getitem__
    maps = {c: tensor(a, b), e: tensor(c, a), d: tensor(c, c)}

    def bad_rho(x):
        return maps.get(x, Tensor(2))

    with pytest.raises(ValueError, match=r"at X\|e: layer 2 defect"):
        reconstruct_coproduct([a, b, c, d, e], degree, bad_rho)
    with pytest.raises(ValueError, match=r"at X\|d: layer 2 defect"):
        reconstruct_coproduct([a, b, c, d], degree, bad_rho)


def test_reconstruct_names_the_least_degree_grading_failure():
    # The grading is checked as the degree-ordered walk reaches each
    # generator, so of two maps that break it the error names X|e (degree 3),
    # not X|d (degree 4), which comes first in key order.
    a, b, c, d, e = (BasisElement("X|%s" % s) for s in "abcde")
    degree = {a: 1, b: 1, c: 2, e: 3, d: 4}.__getitem__
    maps = {c: tensor(a, b), e: tensor(a, a), d: tensor(a, b)}

    def bad_rho(x):
        return maps.get(x, Tensor(2))

    with pytest.raises(ValueError, match=r"does not preserve degree on X\|e: X\|a \(x\) X\|a"):
        reconstruct_coproduct([a, b, c, d, e], degree, bad_rho)
    with pytest.raises(ValueError, match=r"does not preserve degree on X\|d: X\|a \(x\) X\|b"):
        reconstruct_coproduct([a, b, c, d], degree, bad_rho)


def test_reconstruct_rejects_non_positive_least_degree():
    a, b = BasisElement("X|a"), BasisElement("X|b")
    degree = {a: 1, b: 0}.__getitem__
    with pytest.raises(ValueError, match=r"degrees must be positive, got 0 for X\|b"):
        reconstruct_coproduct([a, b], degree, lambda x: Tensor(2))


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
    layers = reconstruct_coproduct(basis, path_degree, delta_p_rt)
    counts = layers.term_counts()
    assert counts[1] > 0 and counts[2] > 0
    assert max_layer(layers) >= 2


def prelie_mutants(f):
    """Five perturbations of a pre-Lie map f, each applied on every element:
    slots swapped; least term negated, dropped or doubled; greatest dropped."""

    def swapped(x):
        return Tensor(2, (((b, a), c) for (a, b), c in f(x).items()))

    def scaled(index, scale):
        def g(x):
            terms = f(x).terms()
            if terms:
                key, c = terms[index]
                terms[index] = (key, scale * c)
            return Tensor(2, terms)

        return g

    return [swapped, scaled(0, -1), scaled(0, 0), scaled(0, 2), scaled(-1, 0)]


def test_layer_2_defect_is_the_prelie_coaxiom():
    # Layer 2's check is (tau12 - 1)/2 applied to (1 (x) rho - rho (x) 1)rho(v),
    # so the reconstruction rejects a map exactly when the coaxiom sweep does.
    verdicts = Counter()
    for name in sorted(FAMILY):
        for kind, max_degree in (("paths", 6), ("trees", 5)):
            basis, degree, pre_lie, _ = bridge.instance(FAMILY[name], kind, max_degree)
            for mutant in map(functools.cache, prelie_mutants(pre_lie)):
                holds = verify_prelie_coalgebra(mutant, basis).ok
                verdicts[holds] += 1
                if holds:
                    reconstruct_coproduct(basis, degree, mutant)
                else:
                    with pytest.raises(ValueError, match="layer 2 defect"):
                        reconstruct_coproduct(basis, degree, mutant)
    assert verdicts[True] and verdicts[False]


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
        layers = reconstruct_coproduct(basis, tree_degree, counting_rho)
        runs.append((layers.layers, len(rho_args), Counter(cop_args)))
    assert runs[0] == runs[1]
    layers, rho_calls, cop_calls = runs[0]
    assert rho_calls == len(basis)
    # One memo for the whole call: each monomial is expanded exactly once.
    assert max(cop_calls.values()) == 1


def typed_layers(layers: dict) -> dict:
    """Layers with every coefficient paired with its type, so 2 != Fraction(2)."""
    return {
        n: {v: {k: (c, type(c)) for k, c in t.items()} for v, t in d.items()}
        for n, d in layers.items()
    }


@pytest.mark.parametrize("name", sorted(FAMILY))
def test_reconstruct_matches_step_major_oracle(name):
    # Degree-ordered pass against the step-major recursion, layer by layer.
    for kind, max_degree in (("paths", 6), ("trees", 5)):
        args = bridge.instance(FAMILY[name], kind, max_degree)[:3]
        layers = reconstruct_coproduct(*args).layers
        assert typed_layers(layers) == typed_layers(oracle_reconstruct(*args, max_degree))
        assert len(layers) >= 2


def test_reconstructed_layers_are_int(two_loops):
    # The division by n + 1 comes out integral, and is stored as an int.
    paths = all_paths(two_loops, 4)
    trees = all_rooted_trees(5, (two_loops.trivial("v"),))
    for layers in (
        reconstruct_coproduct(paths, path_degree, delta_p_rt),
        reconstruct_coproduct(trees, tree_degree, rho),
    ):
        assert max_layer(layers) >= 2
        assert layers.all_integral()
        for d in layers.layers.values():
            for t in d.values():
                assert {type(c) for _, c in t.items()} == {int}


def test_non_integral_layer_is_reported(q1):
    x = q1.trivial("1")
    half = Tensor(2, (((M(x, x), M(x)), Fraction(1, 2)),))
    assert not CoproductLayers({2: {x: half}}).all_integral()
    assert CoproductLayers({2: {x: 2 * half}}).all_integral()
    assert bridge._divide(3, 2) == Fraction(3, 2)
    assert type(bridge._divide(4, 2)) is int and bridge._divide(4, 2) == 2


def test_instance_builder(q1, two_loops):
    paths = bridge.instance(q1, "paths", 5)
    assert paths == (tuple(all_paths(q1, 3)), path_degree, delta_p_rt, path_coproduct)
    trees = bridge.instance(two_loops, "trees", 4)
    label = two_loops.trivial("v")
    basis = tuple(all_rooted_trees(3, (label,), flags=(False,)))
    assert trees == (basis, tree_degree, rho, tree_coproduct)
    assert len(bridge.instance(q1, "paths", 2)[0]) == 2
    assert bridge.instance(q1, "trees", 1)[0] == (point(q1.trivial("1")),)
    for kind, least in (("paths", 2), ("trees", 1)):
        with pytest.raises(ValueError, match="below %d, the least degree" % least):
            bridge.instance(q1, kind, least - 1)
    with pytest.raises(ValueError, match="unknown bridge instance"):
        bridge.instance(q1, "forests", 5)


@pytest.mark.parametrize("name", sorted(FAMILY))
def test_instance_table_least_degrees(name):
    # Each row's least degree is the least degree of its own basis, and an
    # instance capped at it is not empty.
    for kind, (least, *_) in bridge.instance_table().items():
        basis, degree, _, _ = bridge.instance(FAMILY[name], kind, least + 2)
        assert min(map(degree, basis)) == least
        at_least = bridge.instance(FAMILY[name], kind, least)[0]
        assert at_least and {degree(x) for x in at_least} == {least}
