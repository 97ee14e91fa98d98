"""Exhaustive small-instance law checkers and the registry of swept laws.

Each checker sweeps a finite sample of basis elements in canonical order and
returns a Report: either success with the number of elements checked, or the
first (hence canonically smallest) witness together with the defect.

LAWS lists every law the `verify` subcommand, the sweep script and the
acceptance suite check, with its printed label, its `verify` groups, its
checker and maps, its sample generator and size cap, and its expected
verdict. The structure maps are named, not held: they are looked up in their
modules when a law runs, so each sweep calls whatever the module attribute is
bound to at that moment.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from . import cobrackets, cuts, dual, hopf, quiver, symalg, trees  # noqa: F401 (looked up by name)
from .linear import TAU12_2, TAU12_3, TAU123, TAU132, LinComb, Monomial, Tensor, Word


@dataclass(frozen=True)
class Report:
    law: str
    checked: int
    witness: Optional[tuple] = None  # (element, defect)
    note: str = ""

    @property
    def ok(self) -> bool:
        """A law holds when it has no witness and was checked on something."""
        return self.witness is None and self.checked > 0

    def line(self) -> str:
        if self.ok:
            suffix = " [%s]" % self.note if self.note else ""
            return "PASS %s (%d elements)%s" % (self.law, self.checked, suffix)
        if self.witness is None:
            return "FAIL %s: no elements checked" % self.law
        x, defect = self.witness
        shown = defect.text() if hasattr(defect, "text") else str(defect)
        return "FAIL %s: witness %s, defect %s" % (self.law, x.text(), "; ".join(shown.split("\n")))


def verify_defect(defect: Callable, sample, law: str) -> Report:
    """Check that a per-element defect vanishes on every element of a sample."""
    count = 0
    for x in sorted(sample):
        count += 1
        d = defect(x)
        if d:
            return Report(law, count, (x, d))
    return Report(law, count)


def _lift(f: Callable, lc: LinComb) -> Tensor:
    """Linear extension of a basis-level map f into arity-2 tensors."""
    return Tensor(2, ((k, c * ck) for y, c in lc.items() for k, ck in f(y).items()))


def verify_prelie_coalgebra(delta0: Callable, sample, law: str = "pre-Lie coaxiom") -> Report:
    """Check (Id - tau12)(delta0 (x) 1 - 1 (x) delta0) delta0 = 0 on a sample."""

    def defect(x):
        d = delta0(x)
        t = d.slot_expand(0, delta0, 2) - d.slot_expand(1, delta0, 2)
        return t - t.permute(TAU12_3)

    return verify_defect(defect, sample, law)


def verify_lie_coalgebra(delta: Callable, sample, law: str = "Lie coalgebra axioms") -> Report:
    """Check co-antisymmetry and the cyclic co-Jacobi identity on a sample."""
    count = 0
    for x in sorted(sample):
        count += 1
        d = delta(x)
        anti = d + d.permute(TAU12_2)
        if anti:
            return Report(law + " (co-antisymmetry)", count, (x, anti))
        u = d.slot_expand(0, delta, 2)
        jac = u + u.permute(TAU123) + u.permute(TAU132)
        if jac:
            return Report(law + " (co-Jacobi)", count, (x, jac))
    return Report(law, count)


def verify_coalgebra_morphism(
    f: Callable, delta_src: Callable, delta_tgt: Callable, sample, law: str
) -> Report:
    """Check (f (x) f) o delta_src = delta_tgt o f on a sample.

    f maps a source basis element to a LinComb over the target basis; both
    deltas are basis-level maps into arity-2 tensors.
    """
    return verify_defect(
        lambda x: delta_src(x).slot_map(0, f).slot_map(1, f) - _lift(delta_tgt, f(x)),
        sample,
        law,
    )


def verify_hopf_morphism(
    f: Callable, cop_src: Callable, cop_tgt: Callable, sample, law: str
) -> Report:
    """Check that the multiplicative extension of f intertwines two coproducts.

    cop_src/cop_tgt are generator-level monomial-slot coproducts; f maps a
    source generator to a LinComb of target generators. The check runs on
    generators, which suffices multiplicatively.
    """

    def f_mono(x):
        return LinComb((Monomial((y,)), c) for y, c in f(x).items())

    fs = functools.partial(symalg.multiplicative, f_mono)
    return verify_defect(
        lambda x: cop_src(x).slot_map(0, fs).slot_map(1, fs) - _lift(cop_tgt, f(x)),
        sample,
        law,
    )


def verify_injectivity(eta: Callable, sample, law: str) -> Report:
    """Check the point-tree projection of eta returns each input with
    coefficient exactly 1: injectivity on the span of the sample."""
    return verify_defect(
        lambda x: hopf.point_projection(eta(x)) - LinComb.single(x), sample, law
    )


def verify_antipode(gen_cop: Callable, sample, law: str) -> Report:
    """Check mu(S (x) 1)cop = eps on each generator of the symmetric algebra.

    Within one call each generator's coproduct and antipode is computed once,
    and a monomial's antipode is the product of its generators' antipodes.
    """
    gen_cop = functools.cache(gen_cop)
    gen_antipode = functools.cache(lambda x: symalg.antipode_free(gen_cop, Monomial((x,))))
    antipode = functools.partial(symalg.multiplicative, gen_antipode)
    return verify_defect(
        lambda x: symalg.antipode_defect(gen_cop, Monomial((x,)), antipode), sample, law
    )


def verify_ordered_antipode(gen_cop: Callable, sample, law: str) -> Report:
    """Check mu(S (x) 1)cop = eps on each generator of the ordered algebra.

    Within one call each generator's coproduct and each word's antipode is
    computed once.
    """
    gen_cop = functools.cache(gen_cop)
    antipode = functools.cache(functools.partial(symalg.antipode_free, gen_cop))
    return verify_defect(
        lambda x: symalg.antipode_defect(gen_cop, Word((x,)), antipode), sample, law
    )


def verify_ordered_coassoc(gen_cop: Callable, sample, law: str) -> Report:
    """Check coassociativity on each generator of the ordered algebra."""
    return verify_defect(lambda x: symalg.coassoc_defect(gen_cop, Word((x,))), sample, law)


def tree_sample(q, max_edges: int):
    """Rooted trees decorated by the first two vertices of q, with both edge flags."""
    labels = tuple(q.trivial(v) for v in q.vertices[:2])
    return trees.all_rooted_trees(max_edges, labels, flags=(False, True))


# The small quivers every sweep runs over: one edge, one loop, a two-edge
# chain, two loops, a loop beside an edge, and an oriented triangle.
FAMILY = {
    "one_edge": quiver.ONE_EDGE_QUIVER,
    "loop": quiver.Quiver(("v",), (("a", "v", "v"),)),
    "chain2": quiver.Quiver(("1", "2", "3"), (("e", "1", "2"), ("f", "2", "3"))),
    "two_loops": quiver.Quiver(("v",), (("a", "v", "v"), ("b", "v", "v"))),
    "loop_edge": quiver.Quiver(("v", "w"), (("a", "v", "v"), ("e", "v", "w"))),
    "triangle": quiver.Quiver(
        ("1", "2", "3"), (("e", "1", "2"), ("f", "2", "3"), ("g", "3", "1"))
    ),
}

# Law.sign for a map that follows the run's --sign-convention.
SELECTED = "selected"


def _resolve(name: str):
    module, _, attr = name.rpartition(".")
    return getattr(globals()[module], attr) if module else globals()[attr]


@dataclass(frozen=True)
class Law:
    """One swept law.

    checker, maps and sampler name functions ("module.function", or a bare
    name in this module). The checker is called as checker(*maps, sample,
    label), on sampler(q, min(n, cap)). sign is "" when the first map takes
    no sign convention, SELECTED when it takes the run's (the label's {sign}
    names it), or a fixed convention; a law fixed to the convention the run
    did not select is reported as a note. holds is the expected verdict.
    """

    label: str
    groups: Tuple[str, ...]
    checker: str
    maps: Tuple[str, ...]
    sampler: str
    cap: Optional[int] = None
    sign: str = ""
    holds: bool = True

    def size(self, n: int) -> int:
        return n if self.cap is None else min(n, self.cap)

    def sample(self, q, n: int):
        return _resolve(self.sampler)(q, self.size(n))

    def check(self, sample, sign: str = "unsigned") -> Report:
        if self.sign not in ("", SELECTED):
            sign = self.sign
        maps = [_resolve(name) for name in self.maps]
        if self.sign:
            maps[0] = functools.partial(maps[0], signed=sign == "signed")
        return _resolve(self.checker)(*maps, sample, self.label.format(sign=sign))

    def run(self, q, n: int, sign: str = "unsigned") -> Report:
        return self.check(self.sample(q, n), sign)

    def is_note(self, sign: str) -> bool:
        return self.sign not in ("", SELECTED, sign)


def run_laws(laws, q, n: int, sign: str = "unsigned"):
    """Yield (law, report) for each law in turn on q at size n.

    Laws with the same sampler and capped size share one sample, so each
    distinct sample is enumerated once per run.
    """
    samples: dict = {}
    for law in laws:
        key = (law.sampler, law.size(n))
        if key not in samples:
            samples[key] = law.sample(q, n)
        yield law, law.check(samples[key], sign)


_PRELIE, _LIE = "verify_prelie_coalgebra", "verify_lie_coalgebra"
_MORPHISM, _HOPF = "verify_coalgebra_morphism", "verify_hopf_morphism"
_INJECTIVE = "verify_injectivity"
_PATHS, _NECKLACES = "quiver.all_paths", "quiver.all_necklaces"
_PATH_DIAGRAMS, _NECKLACE_DIAGRAMS = "cuts.path_diagrams", "cuts.necklace_diagrams"

# In `verify` order: --law reports print before --theorem reports.
LAWS = (
    Law("pre-Lie coaxiom: paths", ("prelie",), _PRELIE, ("cobrackets.delta_p_rt",), _PATHS),
    Law("pre-Lie coaxiom: path chord diagrams", ("prelie",), _PRELIE,
        ("cuts.chord_delta_p_rt",), _PATH_DIAGRAMS),
    Law("pre-Lie coaxiom: rooted trees", ("prelie",), _PRELIE, ("trees.rho",), "tree_sample", 4),
    Law("Lie axioms: necklaces", ("lie",), _LIE, ("cobrackets.delta_or",), _NECKLACES),
    Law("Lie axioms: paths", ("lie",), _LIE, ("cobrackets.delta_rt",), _PATHS),
    Law("Lie axioms: necklace chord diagrams", ("lie",), _LIE,
        ("cuts.chord_delta_or",), _NECKLACE_DIAGRAMS),
    Law("Lie axioms: rooted trees", ("lie",), _LIE, ("trees.rho_ss",), "tree_sample", 3),
    Law("eta_rt pre-Lie coalgebra morphism", ("1",), _MORPHISM,
        ("hopf.eta_rt", "cobrackets.delta_p_rt", "trees.rho"), _PATHS),
    Law("eta_or Lie coalgebra morphism ({sign})", ("1",), _MORPHISM,
        ("hopf.eta_or", "cobrackets.delta_or", "trees.rho_ss_oriented"), _NECKLACES,
        sign=SELECTED),
    Law("eta_rt Hopf morphism", ("1",), _HOPF,
        ("hopf.eta_rt", "hopf.path_coproduct", "trees.tree_coproduct"), _PATHS, 4),
    Law("eta_rt injectivity", ("1", "injective"), _INJECTIVE, ("hopf.eta_rt",), _PATHS),
    Law("eta_or injectivity", ("1", "injective"), _INJECTIVE, ("hopf.eta_or",), _NECKLACES),
    Law("S_rt pre-Lie morphism", ("2",), _MORPHISM,
        ("hopf.s_rt", "cobrackets.delta_p_rt", "cuts.chord_delta_p_rt"), _PATHS),
    Law("S_or Lie morphism", ("2",), _MORPHISM,
        ("hopf.s_or", "cobrackets.delta_or", "cuts.chord_delta_or"), _NECKLACES),
    Law("D_rt pre-Lie morphism", ("2",), _MORPHISM,
        ("dual.d_rt", "cuts.chord_delta_p_rt", "trees.rho"), _PATH_DIAGRAMS),
    Law("D_or Lie morphism (unsigned)", ("2",), _MORPHISM,
        ("dual.d_or", "cuts.chord_delta_or", "trees.rho_ss_oriented"), _NECKLACE_DIAGRAMS,
        sign="unsigned"),
    # The signed convention is not a morphism; `verify` shows its witness.
    Law("D_or Lie morphism (signed)", ("2",), _MORPHISM,
        ("dual.d_or", "cuts.chord_delta_or", "trees.rho_ss_oriented"), _NECKLACE_DIAGRAMS,
        sign="signed", holds=False),
    Law("S_rt Hopf morphism", ("2",), _HOPF,
        ("hopf.s_rt", "hopf.path_coproduct", "cuts.chord_coproduct"), _PATHS, 4),
    Law("D_rt Hopf morphism", ("2",), _HOPF,
        ("dual.d_rt", "cuts.chord_coproduct", "trees.tree_coproduct"), _PATH_DIAGRAMS, 4),
    Law("coassociativity: direct, formula, and flipped", ("coassoc",), "verify_defect",
        ("hopf.coassoc_formula_defect",), _PATHS),
    Law("coassociativity: ordered coproduct", ("coassoc",), "verify_ordered_coassoc",
        ("hopf.nc_coproduct",), _PATHS),
    Law("antipode axiom: paths", ("antipode",), "verify_antipode",
        ("hopf.path_coproduct",), _PATHS, 5),
    Law("antipode axiom: chord diagrams", ("antipode",), "verify_antipode",
        ("cuts.chord_coproduct",), _PATH_DIAGRAMS, 4),
    Law("antipode axiom: ordered paths", ("antipode",), "verify_ordered_antipode",
        ("hopf.nc_coproduct",), _PATHS, 5),
)
