"""Helpers shared by several test modules that the library does not need."""

from quiverhopf.linear import LinComb, Tensor
from quiverhopf.symalg import cop_free


def counit_defect(gen_cop, m) -> LinComb:
    """(eps (x) 1)cop(m) - m plus (1 (x) eps)cop(m) - m, collected together."""
    t = cop_free(gen_cop, m).items()
    left = LinComb((b, c) for (a, b), c in t if a.is_unit())
    right = LinComb((a, c) for (a, b), c in t if b.is_unit())
    target = LinComb.single(m)
    return (left - target) + (right - target)


def layer(layers, n: int, x) -> Tensor:
    """Layer n of reconstructed CoproductLayers at generator x; zero if absent."""
    t = layers.layers.get(n, {}).get(x)
    return t if t is not None else Tensor.zero(2)
