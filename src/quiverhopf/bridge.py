"""Reconstruction of a graded coproduct from its graft-level part.

A coproduct of graft shape on Sym V decomposes as layers: layer n sends a
generator into Sym^n V (x) V. Layer 1 is a degree-preserving pre-Lie
comultiplication, and conversely determines every higher layer by a recursion
coming from coassociativity in low symmetric degree: the unknown layer enters
only through the split of its left monomial into a single generator times the
rest, which is inverted by multiplying back and dividing by the factor count.
The division is the one place exact rationals are genuinely needed; the
reconstructed constants come out integral again, which the tests assert, and
an integral quotient is stored as an int. The recursion visits the generators
in degree order, expands each layer once, and keeps its memos for one call.
Layer 2's equation is the pre-Lie coaxiom, so no separate coaxiom sweep is needed.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, Dict, Tuple

from .cobrackets import delta_p_rt
from .hopf import path_coproduct
from .linear import Monomial, Tensor
from .quiver import Quiver, all_paths
from .symalg import cop_free
from .trees import all_rooted_trees, rho, tree_coproduct
from .verify import Report, verify_defect


def monomialize(t: Tensor) -> Tensor:
    """Wrap an arity-2 tensor over generators into monomial slots."""
    return Tensor(2, (((Monomial((a,)), Monomial((b,))), c) for (a, b), c in t.items()))


def extract_prelie(gen_cop: Callable, x) -> Tensor:
    """Generator (x) generator part of a graft-shaped coproduct.

    Raises if the coproduct has terms outside (Sym^(>=1) V (x) V) after the
    two unit-side terms are removed, since then no pre-Lie projection exists.
    """
    whole = Monomial((x,))
    unit = Monomial(())
    terms = []
    for (a, b), c in gen_cop(x).terms():
        if (a, b) == (whole, unit) or (a, b) == (unit, whole):
            continue
        if len(b) != 1 or len(a) < 1:
            raise ValueError(
                "coproduct of %s has term %s (x) %s outside graft shape"
                % (x.text(), a.text(), b.text())
            )
        if len(a) == 1:
            terms.append(((a.factors[0], b.factors[0]), c))
    return Tensor(2, terms)


def delta0_prime(m: Monomial) -> Tensor:
    """Proper splittings of a monomial, with multiset multiplicity.

    Sum over ordered pairs of nonempty sub-multisets whose union is m; a
    single generator has none, and repeated factors contribute binomial
    multiplicities through the accumulation.
    """
    n = len(m.factors)
    terms = []
    for mask in range(1, (1 << n) - 1):
        left = tuple(m.factors[k] for k in range(n) if mask >> k & 1)
        right = tuple(m.factors[k] for k in range(n) if not mask >> k & 1)
        terms.append(((Monomial(left), Monomial(right)), 1))
    return Tensor(2, terms)


class CoproductLayers:
    """Layered coproduct: layer n maps a generator into Sym^n V (x) V.

    total() assembles layer 0 (the shuffle-primitive part) with all computed
    layers, giving the full coproduct as a tensor over monomial pairs.
    """

    def __init__(self, layers: Dict[int, Dict]):
        self.layers = layers

    def total(self, x) -> Tensor:
        whole = Monomial((x,))
        unit = Monomial(())
        terms = [((whole, unit), 1), ((unit, whole), 1)]
        for n in sorted(self.layers):
            t = self.layers[n].get(x)
            if t is not None:
                terms.extend(t.items())
        return Tensor(2, terms)

    def term_counts(self) -> Dict[int, int]:
        return {n: sum(len(t) for t in d.values()) for n, d in sorted(self.layers.items())}

    def all_integral(self) -> bool:
        return all(
            c.denominator == 1
            for d in self.layers.values()
            for t in d.values()
            for _, c in t.terms()
        )


def _divide(c, d: int):
    """Exact quotient c / d, kept as an int when it is integral."""
    q = Fraction(c, d)
    return q.numerator if q.denominator == 1 else q


def reconstruct_coproduct(basis, degree: Callable, rho: Callable) -> CoproductLayers:
    """Build every coproduct layer above a degree-preserving pre-Lie map.

    basis must contain every generator reachable from its own coproduct
    components (both instances here are closed under taking components).
    Generators are visited once, in increasing degree, ties by key, so an
    error names the least failing degree: the least degree must be positive,
    and each generator's pre-Lie map is checked to preserve degree when the
    walk reaches it. Layer n+1 of each is recovered from its layers <= n and
    its components' complete coproducts, verified to satisfy its defining
    equation exactly, and expanded once; the grading bounds the layers. Layer
    2's check is (tau12 - 1)/2 applied to (1 (x) rho - rho (x) 1)rho(v), which
    vanishes exactly when the pre-Lie coaxiom holds at v, so a map that breaks
    the coaxiom raises a "layer 2 defect". Each total and monomial coproduct
    is built once a call.
    """
    elems = sorted((degree(x), x) for x in basis)
    if not elems:
        return CoproductLayers({})
    least, x = elems[0]
    if least < 1:
        raise ValueError("degrees must be positive, got %d for %s" % (least, x.text()))

    # Every component of v's coproduct has lower degree, so in degree order
    # each component's coproduct is complete when v is reached, and one memo
    # serves the whole call.
    layers: Dict[int, Dict] = {1: {}}
    result = CoproductLayers(layers)
    bound = elems[-1][0] // least + 1
    total = functools.cache(result.total)
    cop = functools.cache(lambda m: cop_free(total, m))
    for d, v in elems:
        graft = rho(v)
        for (a, b), _ in graft.terms():
            if degree(a) + degree(b) != d:
                raise ValueError(
                    "pre-Lie map does not preserve degree on %s: %s (x) %s"
                    % (v.text(), a.text(), b.text())
                )
        # buckets[k]: terms m1 (x) m2 (x) m3 of (1 (x) cop - cop (x) 1) over
        # v's layers so far, |m1|, |m2| >= 1, |m3| = 1, |m1| + |m2| = k > n.
        # Layer n reaches bucket n only through its delta0_prime part.
        buckets: Dict[int, list] = {}
        n, layer = 1, monomialize(graft)
        while layer or buckets:
            if layer:
                layers.setdefault(n, {})[v] = layer
            d3 = layer.slot_expand(1, cop) - layer.slot_expand(0, cop)
            for (m1, m2, m3), c in d3.items():
                k = len(m1) + len(m2)
                if len(m1) >= 1 and len(m2) >= 1 and len(m3) == 1 and k > n:
                    buckets.setdefault(k, []).append(((m1, m2, m3), c))
            n += 1
            # Layer n's right-hand side, read before layer n is absorbed.
            r = Tensor(3, buckets.pop(n, ()))
            # Invert the (generator (x) Sym^(n-1)) split of the left monomial.
            split = Tensor(2, (((m1 * m2, m3), c) for (m1, m2, m3), c in r.items() if len(m1) == 1))
            layer = Tensor(2, ((key, _divide(c, n)) for key, c in split.items()))
            check = layer.slot_expand(0, delta0_prime) - r
            if check:
                raise ValueError(
                    "no graded coproduct extends this pre-Lie map at %s: "
                    "layer %d defect %s" % (v.text(), n, check.text())
                )
            if layer and n > bound:
                raise RuntimeError(
                    "coproduct layers failed to vanish within the grading bound %d" % bound
                )
    return result


def compare_coproducts(layers: CoproductLayers, gen_cop: Callable, sample) -> Report:
    """Assert the assembled layers equal a directly computed coproduct."""
    return verify_defect(
        lambda x: layers.total(x) - gen_cop(x), sample, "layered vs direct coproduct"
    )


def path_degree(p) -> int:
    """Grading on paths that the cut coproduct preserves: length plus 2."""
    return len(p.letters) + 2


def tree_degree(t) -> int:
    """Grading on rooted trees preserved by the forest coproduct: edges plus 1."""
    return t.edge_count() + 1


def _vertex_trees(q: Quiver, max_edges: int):
    """Plain-edged rooted trees labelled by the trivial path at q's first vertex."""
    return all_rooted_trees(max_edges, (q.trivial(q.vertices[0]),), flags=(False,))


def instance_table() -> Dict[str, tuple]:
    """Each bridge instance, once: its name -> (least degree, basis builder
    (q, n) -> the generators of degree <= least + n, grading, pre-Lie map,
    direct coproduct). Built per call, so a rebound module attribute reaches it.
    """
    return {
        "paths": (2, all_paths, path_degree, delta_p_rt, path_coproduct),
        "trees": (1, _vertex_trees, tree_degree, rho, tree_coproduct),
    }


def instance(q: Quiver, kind: str, max_degree: int) -> Tuple[tuple, Callable, Callable, Callable]:
    """The instance `kind` on q up to max_degree: reconstruct_coproduct's
    arguments (basis, grading, pre-Lie map), then the direct coproduct.

    A degree cap below the instance's least degree is an error, since such an
    instance has nothing to check.
    """
    table = instance_table()
    if kind not in table:
        raise ValueError("unknown bridge instance %r" % (kind,))
    least, basis, degree, pre_lie, direct = table[kind]
    if max_degree < least:
        raise ValueError(
            "--max-degree %d is below %d, the least degree of the %s instance"
            % (max_degree, least, kind)
        )
    return tuple(basis(q, max_degree - least)), degree, pre_lie, direct
