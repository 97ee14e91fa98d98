"""Exhaustive small-instance law checkers and the registry of swept laws.

Each checker sweeps a finite sample of basis elements in canonical order and
returns a Report: either success with the number of elements checked, or the
first (hence canonically smallest) witness together with the defect.

LAWS lists every law the `verify` subcommand, the sweep script and the
acceptance suite check, with its printed label, its `verify` groups, its
checker and maps, its sample generator and size cap, and its expected
verdict. The structure maps are named, not held: they are looked up in their
modules when a law runs, so each sweep calls whatever the module attribute is
bound to at that moment. Registry maps are memoized in one place: Law.check
wraps each map in a memo, and run_laws shares one memo per map key among
the laws of a run, from the first law that names the key to the last.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from . import cobrackets, cuts, dual, hopf, quiver, symalg, trees  # noqa: F401 (looked up by name)
from .linear import TAU12_2, TAU12_3, TAU123, TAU132, LinComb, Tensor


@dataclass(frozen=True)
class Report:
    law: str
    checked: int
    witness: Optional[tuple] = None  # (element, defect)

    @property
    def ok(self) -> bool:
        """A law holds when it has no witness and was checked on something."""
        return self.witness is None and self.checked > 0

    def line(self) -> str:
        if self.ok:
            return "PASS %s (%d elements)" % (self.law, self.checked)
        if self.witness is None:
            return "FAIL %s: no elements checked" % self.law
        x, defect = self.witness
        shown = defect.text().replace("\n", "; ")
        return "FAIL %s: witness %s, defect %s" % (self.law, x.text(), shown)


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
        t = d.slot_expand(0, delta0) - d.slot_expand(1, delta0)
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
        u = d.slot_expand(0, delta)
        jac = u + u.permute(TAU123) + u.permute(TAU132)
        if jac:
            return Report(law + " (co-Jacobi)", count, (x, jac))
    return Report(law, count)


def _squared(fs: Callable, t: Tensor):
    """The terms of (fs (x) fs)(t) for a 2-tensor t, reading the two images of
    each term of t once."""
    for (a, b), c in t.items():
        fa, fb = fs(a).items(), fs(b).items()
        for ya, ca in fa:
            for yb, cb in fb:
                yield (ya, yb), c * ca * cb


def _verify_morphism(fs, f, delta_src, delta_tgt, sample, law: str) -> Report:
    """Check (fs (x) fs) o delta_src = delta_tgt o f on a sample: the one body
    of both morphism checkers, whose slot map fs is f itself or, for a Hopf
    morphism, its multiplicative extension to monomials."""
    return verify_defect(
        lambda x: Tensor(2, _squared(fs, delta_src(x))) - _lift(delta_tgt, f(x)), sample, law
    )


def verify_coalgebra_morphism(
    f: Callable, delta_src: Callable, delta_tgt: Callable, sample, law: str
) -> Report:
    """Check (f (x) f) o delta_src = delta_tgt o f on a sample.

    f maps a source basis element to a LinComb over the target basis; both
    deltas are basis-level maps into arity-2 tensors.
    """
    return _verify_morphism(f, f, delta_src, delta_tgt, sample, law)


def verify_hopf_morphism(
    f: Callable, cop_src: Callable, cop_tgt: Callable, sample, law: str
) -> Report:
    """Check that the multiplicative extension of f intertwines two coproducts.

    cop_src/cop_tgt are generator-level coproducts; f maps a source generator
    to a LinComb of target generators, each wrapped in the monoid type of the
    source monomial. The check runs on generators, which suffices
    multiplicatively, with that extension, memoized per monomial, as slot map.
    """
    f_in = functools.cache(lambda kind, x: LinComb((kind((y,)), c) for y, c in f(x).items()))
    fs = functools.cache(lambda m: symalg.multiplicative(functools.partial(f_in, type(m)), m))
    return _verify_morphism(fs, f, cop_src, cop_tgt, sample, law)


def verify_injectivity(eta: Callable, sample, law: str) -> Report:
    """Check the point-tree projection of eta returns each input with
    coefficient exactly 1: injectivity on the span of the sample."""
    return verify_defect(
        lambda x: hopf.point_projection(eta(x)) - LinComb.single(x), sample, law
    )


def _lifted(gen_cop: Callable, sample):
    """The sample in canonical order, and the lift of its generators into the
    monoid that gen_cop is valued in, read once off the first generator's
    coproduct (symalg.lift_generator). An empty sample calls nothing."""
    xs = sorted(sample)
    kind = type(symalg.lift_generator(gen_cop, xs[0])) if xs else None
    return xs, lambda x: kind((x,))


def verify_antipode(gen_cop: Callable, sample, law: str) -> Report:
    """Check mu(S (x) 1)cop = eps on each generator, in the monoid that
    gen_cop is valued in.

    Within one call each generator's antipode series is computed once, and
    each monomial's antipode, the product of its generators' antipodes in
    reverse order (S is anti-multiplicative), once.
    """
    xs, lift = _lifted(gen_cop, sample)
    gen_antipode = functools.cache(lambda x: symalg.antipode_free(gen_cop, lift(x)))
    antipode = functools.cache(
        lambda m: symalg.multiplicative(gen_antipode, type(m)(m.factors[::-1]) if len(m) > 1 else m)
    )
    return verify_defect(lambda x: symalg.antipode_defect(gen_cop, lift(x), antipode), xs, law)


def verify_antipode_formula(antipode: Callable, gen_cop: Callable, sample, law: str) -> Report:
    """Check a closed-form generator antipode against the geometric series of
    the reduced coproduct (symalg.antipode_free), element by element."""
    xs, lift = _lifted(gen_cop, sample)
    return verify_defect(lambda x: antipode(x) - symalg.antipode_free(gen_cop, lift(x)), xs, law)


def verify_coassoc(gen_cop: Callable, sample, law: str) -> Report:
    """Check coassociativity on each generator, in the monoid gen_cop is valued in."""
    xs, lift = _lifted(gen_cop, sample)
    return verify_defect(lambda x: symalg.coassoc_defect(gen_cop, lift(x)), xs, law)


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


def _memo(key):
    """A memo of the map a key names, bound to its sign convention.

    Its cache_info() counts the calls (hits + misses) and the distinct
    inputs (misses).
    """
    name, sign = key
    f = _resolve(name)
    return functools.cache(functools.partial(f, signed=True) if sign else f)


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

    def convention(self, sign: str) -> str:
        """The sign convention this law runs under when the run selected sign."""
        return sign if self.sign in ("", SELECTED) else self.sign

    def title(self, sign: str) -> str:
        return self.label.format(sign=self.convention(sign))

    def keys(self, sign: str = "unsigned") -> Tuple[Tuple[str, str], ...]:
        """The memo key of each map: its name, and "signed" when it is bound
        to the signed convention. Unsigned is the default of every map that
        takes a convention, so a map bound to it shares the unbound map's memo.
        """
        signed = bool(self.sign) and self.convention(sign) == "signed"
        return tuple(
            (name, "signed" if signed and i == 0 else "") for i, name in enumerate(self.maps)
        )

    def check(self, sample, sign: str = "unsigned", memos: Optional[dict] = None) -> Report:
        """Run the checker on a sample with memoized maps.

        memos holds the memo of each map key and gains the ones it lacks;
        without it, the memos last for this one check.
        """
        memos = {} if memos is None else memos
        keys = self.keys(sign)
        for key in keys:
            if key not in memos:
                memos[key] = _memo(key)
        return _resolve(self.checker)(*(memos[k] for k in keys), sample, self.title(sign))

    def run(self, q, n: int, sign: str = "unsigned") -> Report:
        return self.check(self.sample(q, n), sign)

    def is_note(self, sign: str) -> bool:
        return self.sign not in ("", SELECTED, sign)


def _map_stats(key, info, law: str) -> str:
    """The --stats line of a released memo, from its cache_info()."""
    calls = info.hits + info.misses
    return 'stats: map %s: %d calls, %d distinct, repeat share %.2f, released after "%s"' % (
        "%s (%s)" % key if key[1] else key[0], calls, info.misses,
        info.hits / calls if calls else 0.0, law)


def run_laws(laws, q, n: int, sign: str = "unsigned", stats: Optional[Callable] = None):
    """Yield (law, report) for each law in turn on q at size n.

    Laws with the same sampler and capped size share one sample, so each
    distinct sample is enumerated once per run. Laws that name the same map
    key (Law.keys) share one memo of it, so within the run the map computes
    each input once. The memo is made at the first law that names the key
    and dropped right after the last one, so none outlives the run.

    stats, if given, is called with one line of text after each law (elements
    checked, seconds spent) and one for each memo as it is dropped (calls,
    distinct inputs, repeat share, and the law after which it was dropped).
    """
    laws = list(laws)
    last = {key: i for i, law in enumerate(laws) for key in law.keys(sign)}
    samples: dict = {}
    memos: dict = {}
    for i, law in enumerate(laws):
        t0 = time.perf_counter()
        key = (law.sampler, law.size(n))
        if key not in samples:
            samples[key] = law.sample(q, n)
        report = law.check(samples[key], sign, memos)
        title = law.title(sign)
        if stats:
            stats('stats: law "%s": %d elements, %.3f s'
                  % (title, report.checked, time.perf_counter() - t0))
        for done in [k for k, j in last.items() if j == i]:
            info = memos.pop(done).cache_info()
            if stats:
                stats(_map_stats(done, info, title))
        yield law, report


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
    Law("coassociativity: ordered coproduct", ("coassoc",), "verify_coassoc",
        ("hopf.nc_coproduct",), _PATHS),
    Law("antipode axiom: paths", ("antipode",), "verify_antipode",
        ("hopf.path_coproduct",), _PATHS, 5),
    Law("antipode axiom: chord diagrams", ("antipode",), "verify_antipode",
        ("cuts.chord_coproduct",), _PATH_DIAGRAMS, 4),
    Law("antipode axiom: ordered paths", ("antipode",), "verify_antipode",
        ("hopf.nc_coproduct",), _PATHS, 5),
    Law("antipode cut-forest formula: paths", ("antipode-formula",), "verify_antipode_formula",
        ("hopf.path_antipode", "hopf.path_coproduct"), _PATHS, 5),
)
