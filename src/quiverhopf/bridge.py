"""Reconstruction of a graded coproduct from its graft-level part.

A coproduct of graft shape on Sym V decomposes as layers: layer n sends a
generator into Sym^n V (x) V. Layer 1 is a degree-preserving pre-Lie
comultiplication, and conversely determines every higher layer by a recursion
coming from coassociativity in low symmetric degree: the unknown layer enters
only through the split of its left monomial into a single generator times the
rest, which is inverted by multiplying back and dividing by the factor count.
The division is the one place exact rationals are genuinely needed; the
reconstructed constants come out integral again, which the tests assert, and
an integral quotient is stored as an int.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Tuple

from .cobrackets import delta_p_rt
from .hopf import path_coproduct
from .linear import Monomial, Tensor
from .quiver import Quiver, all_paths
from .symalg import cop_free
from .trees import all_rooted_trees, rho, tree_coproduct
from .verify import Report, verify_defect, verify_prelie_coalgebra


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

    def __init__(self, layers: Dict[int, Dict], degree: Callable):
        self.layers = layers
        self.degree = degree

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


def reconstruct_coproduct(basis, degree: Callable, rho: Callable, max_degree: int) -> CoproductLayers:
    """Build every coproduct layer above a degree-preserving pre-Lie map.

    basis must contain every generator of degree <= max_degree reachable from
    its own coproduct components (both instances here are closed under taking
    components). Layer n+1 is recovered from layers <= n, verified to satisfy
    its defining equation exactly, and the loop stops when a layer vanishes
    identically (guaranteed by the grading). Within one degree step the
    layers do not change, so each generator's total and each monomial's
    coproduct is computed once per step.
    """
    elems = sorted(x for x in basis if degree(x) <= max_degree)
    if not elems:
        return CoproductLayers({}, degree)
    layers: Dict[int, Dict] = {1: {}}
    for x in elems:
        d = degree(x)
        if d < 1:
            raise ValueError("degrees must be positive, got %d for %s" % (d, x.text()))
        graft = rho(x)
        for (a, b), _ in graft.terms():
            if degree(a) + degree(b) != d:
                raise ValueError(
                    "pre-Lie map does not preserve degree on %s: %s (x) %s"
                    % (x.text(), a.text(), b.text())
                )
        if graft:
            layers[1][x] = monomialize(graft)
    min_deg = min(degree(x) for x in elems)

    # At step n, layers holds exactly the layers 1..n, so its total is the
    # coproduct truncated above layer n.
    result = CoproductLayers(layers, degree)
    n = 1
    bound = max_degree // max(min_deg, 1) + 1
    while True:
        total = functools.cache(result.total)
        cop = functools.cache(lambda m: cop_free(total, m))
        nxt: Dict = {}
        for v in elems:
            t = total(v)
            a3 = t.slot_expand(1, cop, 2)
            b3 = t.slot_expand(0, cop, 2)
            r = Tensor(3, (
                ((m1, m2, m3), c)
                for (m1, m2, m3), c in (a3 - b3).items()
                if len(m1) >= 1 and len(m2) >= 1 and len(m3) == 1 and len(m1) + len(m2) == n + 1
            ))
            if not r:
                continue
            # Invert the (generator (x) Sym^n) split of the left monomial.
            split = Tensor(
                2, (((m1 * m2, m3), c) for (m1, m2, m3), c in r.items() if len(m1) == 1)
            )
            layer = Tensor(2, ((key, _divide(c, n + 1)) for key, c in split.items()))
            check = layer.slot_expand(0, delta0_prime, 2) - r
            if check:
                raise ValueError(
                    "no graded coproduct extends this pre-Lie map at %s: "
                    "layer %d defect %s" % (v.text(), n + 1, check.text())
                )
            nxt[v] = layer
        if nxt:
            layers[n + 1] = nxt
        n += 1
        if not nxt:
            break
        if n > bound:
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


@dataclass(frozen=True)
class GradedPreLieCoalgebra:
    """A positively graded basis with a degree-preserving pre-Lie map.

    Bundles the three inputs of the reconstruction; check() verifies the
    stated invariants (degree preservation plus the pre-Lie coaxiom) on the
    whole basis before any layers are built.
    """

    basis: Tuple
    degree: Callable
    rho: Callable

    def check(self) -> Report:
        for x in self.basis:
            d = self.degree(x)
            if d < 1:
                return Report("positive grading", 0, (x, "degree %d" % d))
            for (a, b), _ in self.rho(x).terms():
                if self.degree(a) + self.degree(b) != d:
                    return Report("degree preservation", 0, (x, Tensor.single((a, b))))
        return verify_prelie_coalgebra(self.rho, self.basis, "pre-Lie coaxiom")

    def reconstruct(self, max_degree: int) -> CoproductLayers:
        return reconstruct_coproduct(self.basis, self.degree, self.rho, max_degree)


def instance(q: Quiver, kind: str, max_degree: int) -> Tuple[GradedPreLieCoalgebra, Callable]:
    """The "paths" or "trees" instance on q up to max_degree, with its direct
    coproduct.

    Paths carry delta_p_rt and the cut coproduct. Trees are rooted trees
    labelled by the trivial path at the first vertex of q, with plain edges,
    and carry rho and the forest coproduct. A degree cap below the instance's
    least degree (a trivial path has degree 2, a one-vertex tree degree 1)
    is an error, since such an instance has nothing to check.
    """
    if kind not in ("paths", "trees"):
        raise ValueError("unknown bridge instance %r" % (kind,))
    least = 2 if kind == "paths" else 1
    if max_degree < least:
        raise ValueError(
            "--max-degree %d is below %d, the least degree of the %s instance"
            % (max_degree, least, kind)
        )
    if kind == "paths":
        basis = all_paths(q, max_degree - 2)
        return GradedPreLieCoalgebra(tuple(basis), path_degree, delta_p_rt), path_coproduct
    label = q.trivial(q.vertices[0])
    basis = all_rooted_trees(max_degree - 1, (label,), flags=(False,))
    return GradedPreLieCoalgebra(tuple(basis), tree_degree, rho), tree_coproduct
