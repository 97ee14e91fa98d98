"""Run-scoped map memos of `verify.run_laws`: oracle, counting and lifetime.
Also the one Hopf-law path of both monoids: the checkers read the monoid
(Monomial or Word) off the coproduct they are given, once per sweep. The one
morphism body of both levels, against two one-slot passes. And the Lie and
pre-Lie checkers, which read their sums off the terms, against the bodies
that build every permuted tensor."""

import functools
import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhopf import cobrackets, cuts, hopf, symalg, trees, verify
from quiverhopf.linear import TAU12_2, LinComb, Monomial, Tensor, Word, tensor
from quiverhopf.quiver import Necklace, all_necklaces, all_paths
from quiverhopf.verify import FAMILY, LAWS, SELECTED, run_laws

from support import (
    oracle_extension,
    oracle_lie_coalgebra,
    oracle_morphism_defect,
    oracle_prelie_coalgebra,
    oracle_word_antipode,
    small_quivers,
)

SIGNS = ("unsigned", "signed")


def resolve(name):
    module, _, attr = name.rpartition(".")
    return getattr(getattr(verify, module) if module else verify, attr)


def unmemoized_maps(law, sign):
    """The law's maps freshly resolved, the first bound to its convention."""
    convention = sign if law.sign in ("", SELECTED) else law.sign
    maps = [resolve(name) for name in law.maps]
    if law.sign:
        maps[0] = functools.partial(maps[0], signed=convention == "signed")
    return maps


def unmemoized(law, q, n, sign):
    """The law's checker on its own sample, with freshly resolved maps and
    no memo: the registry contract written out by hand."""
    convention = sign if law.sign in ("", SELECTED) else law.sign
    maps = unmemoized_maps(law, sign)
    sample = resolve(law.sampler)(q, n if law.cap is None else min(n, law.cap))
    return resolve(law.checker)(*maps, sample, law.label.format(sign=convention))


def assert_matches_unmemoized(q, n, sign):
    ran = [(law, rep.line()) for law, rep in run_laws(LAWS, q, n, sign)]
    assert [law for law, _ in ran] == list(LAWS)
    for law, line in ran:
        assert line == unmemoized(law, q, n, sign).line()


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("name", sorted(FAMILY))
def test_run_laws_matches_unmemoized_laws_on_family(name, sign):
    assert_matches_unmemoized(FAMILY[name], 3, sign)


@settings(max_examples=4, deadline=None)
@given(small_quivers(), st.sampled_from(SIGNS))
def test_run_laws_matches_unmemoized_laws_on_random_quivers(q, sign):
    """Every law also gets its expected verdict on a nonempty sample: each
    quiver has an edge, so each sample at length 3 has an element. The one
    exception is a law that follows the run's convention in a signed run:
    its verdict is stated for the unsigned default, and the signed
    eta_or is no morphism on two_loops (TWO_LOOPS_WITNESSES)."""
    assert_matches_unmemoized(q, 3, sign)
    for law, rep in run_laws(LAWS, q, 3, sign):
        assert rep.checked > 0, law.label
        if law.sign != SELECTED or sign == "unsigned":
            assert rep.ok == law.holds, rep.line()


def test_sign_conventions_never_share_a_memo():
    d_or = [law for law in LAWS if law.maps[0] == "dual.d_or"]
    assert [law.keys("unsigned")[0] for law in d_or] == [
        ("dual.d_or", ""), ("dual.d_or", "signed")
    ]
    eta_or = [law for law in LAWS if law.maps[0] == "hopf.eta_or"]
    # Unsigned is eta_or's default, so the bound and the unbound map share.
    assert {law.keys("unsigned")[0] for law in eta_or} == {("hopf.eta_or", "")}
    assert {law.keys("signed")[0] for law in eta_or} == {
        ("hopf.eta_or", ""), ("hopf.eta_or", "signed")
    }


def test_theorem_1_computes_eta_rt_once_per_path(monkeypatch):
    """601 calls on 85 distinct paths without the memo."""
    calls = []
    original = hopf.eta_rt

    def counting(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(hopf, "eta_rt", counting)
    laws = [law for law in LAWS if "1" in law.groups]
    for _ in range(2):
        del calls[:]
        reports = [rep for _, rep in run_laws(laws, FAMILY["two_loops"], 3)]
        assert all(rep.ok for rep in reports)
        # A second run repeats every call, so no memo outlives run_laws.
        assert (len(calls), len(set(calls))) == (85, 85)


def test_memo_is_released_after_the_last_law_naming_it(monkeypatch):
    """Each memo is alive from the first law that names its key through the
    last one, and gone as soon as that last law's report is out."""
    laws = [law for law in LAWS if {"1", "2"} & set(law.groups)]
    memos = {}  # key -> weak reference to the memo a checker received

    def recording(checker, law_keys):
        def wrapper(*args):
            maps = args[: len(law_keys[0])]
            for key, m in zip(law_keys.pop(0), maps):
                if key in memos:
                    assert memos[key]() is m, key
                memos[key] = weakref.ref(m)
            return checker(*args)

        return wrapper

    keys_by_checker = {}
    for law in laws:
        keys_by_checker.setdefault(law.checker, []).append(law.keys("unsigned"))
    for name, law_keys in keys_by_checker.items():
        monkeypatch.setattr(verify, name, recording(getattr(verify, name), law_keys))

    last = {key: i for i, law in enumerate(laws) for key in law.keys("unsigned")}
    released = []
    for i, (law, rep) in enumerate(run_laws(laws, FAMILY["two_loops"], 3)):
        assert rep.ok == law.holds or law.is_note("unsigned")
        gc.collect()
        alive = {key for key, ref in memos.items() if ref() is not None}
        assert alive == {key for key in memos if last[key] > i}, law.label
        released += [key for key, j in last.items() if j == i]
    assert set(released) == set(memos) == set(last)


def test_law_run_alone_builds_its_own_memo(monkeypatch):
    calls = []
    original = hopf.eta_rt

    def counting(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(hopf, "eta_rt", counting)
    law = next(law for law in LAWS if law.label == "eta_rt pre-Lie coalgebra morphism")
    for _ in range(2):
        del calls[:]
        assert law.run(FAMILY["two_loops"], 3).ok
        assert len(calls) == len(set(calls)) == 85


@pytest.mark.parametrize("checker", ["verify_hopf_morphism", "verify_antipode"])
def test_multiplicative_extension_runs_once_per_monomial(monkeypatch, checker):
    """Each Hopf-morphism and antipode sweep extends a monomial once; without
    the memo the laws on two_loops repeat extensions."""
    calls = []
    original = symalg.multiplicative

    def counting(f, m):
        calls.append(m)
        return original(f, m)

    monkeypatch.setattr(symalg, "multiplicative", counting)
    for law in [law for law in LAWS if law.checker == checker]:
        del calls[:]
        assert law.run(FAMILY["two_loops"], 3).ok
        assert len(calls) == len(set(calls)) > 0, law.label


def test_lift_generator_reads_the_monoid_off_the_coproduct():
    x = FAMILY["loop"].parse_path("v a")
    assert symalg.lift_generator(hopf.path_coproduct, x) == Monomial((x,))
    assert symalg.lift_generator(hopf.nc_coproduct, x) == Word((x,))
    with pytest.raises(ValueError, match="v a"):
        symalg.lift_generator(lambda y: Tensor(2), x)


@pytest.mark.parametrize("name", sorted(FAMILY))
def test_ordered_antipode_matches_the_per_word_series(name):
    """The generator series extended anti-multiplicatively gives the same
    report as a series run on every word."""
    sample = all_paths(FAMILY[name], 4)
    got = verify.verify_antipode(hopf.nc_coproduct, sample, "ordered")
    want = oracle_word_antipode(hopf.nc_coproduct, sample, "ordered")
    assert (got.ok, got.checked, got.line()) == (want.ok, want.checked, want.line())
    assert got.ok


# The in-order (not reversed) extension of the generator series: the first
# length at which the ordered antipode law sees it, and its witness there.
IN_ORDER_WITNESS = {
    "chain2": (4, "2 e* e f f*"),
    "loop_edge": (4, "v a a* e e*"),
    "triangle": (4, "1 e e* g* g"),
    "loop": (5, "v a a a* a a*"),
    "two_loops": (5, "v a a a* a a*"),
    "one_edge": (5, "1 e e* e e* e"),
}


@pytest.mark.parametrize("name", sorted(IN_ORDER_WITNESS))
def test_ordered_antipode_law_catches_an_in_order_extension(monkeypatch, name):
    original = symalg.multiplicative
    monkeypatch.setattr(
        symalg, "multiplicative", lambda f, m: original(f, type(m)(m.factors[::-1]))
    )
    law = next(law for law in LAWS if law.label == "antipode axiom: ordered paths")
    n, witness = IN_ORDER_WITNESS[name]
    assert law.run(FAMILY[name], n - 1).ok
    report = law.run(FAMILY[name], n)
    assert report.witness is not None and report.witness[0].text() == witness


def reversed_pieces(x):
    """nc_coproduct with its severed pieces in reversed order."""
    return Tensor(
        2, (((Word(a.factors[::-1]), b), c) for (a, b), c in hopf.nc_coproduct(x).items())
    )


def test_hopf_morphism_checks_word_valued_coproducts():
    sample = all_paths(FAMILY["two_loops"], 5)
    same = verify.verify_hopf_morphism(
        LinComb.single, hopf.nc_coproduct, hopf.nc_coproduct, sample, "identity"
    )
    assert same.ok and same.checked == 1365
    report = verify.verify_hopf_morphism(
        LinComb.single, hopf.nc_coproduct, reversed_pieces, sample, "reversed"
    )
    assert report.witness[0].text() == "v a a a* a a*"


def test_coassoc_reads_the_monoid_once_per_sweep():
    """An unmemoized coproduct is called by each defect and once more for the
    monoid of the whole sweep (238 calls when each element read it again)."""
    calls = []

    def counting(x):
        calls.append(x)
        return hopf.nc_coproduct(x)

    rep = verify.verify_coassoc(counting, all_paths(FAMILY["two_loops"], 3), "ordered")
    assert rep.line() == "PASS ordered (85 elements)"
    assert (len(calls), len(set(calls))) == (154, 85)


@pytest.mark.parametrize(
    "checker, n_maps",
    [("verify_coassoc", 1), ("verify_antipode", 1), ("verify_antipode_formula", 2)],
)
def test_an_empty_sweep_calls_nothing_and_fails(checker, n_maps):
    calls = []

    def counting(x):
        calls.append(x)
        return hopf.path_coproduct(x)

    rep = getattr(verify, checker)(*[counting] * n_maps, [], "empty")
    assert (rep.ok, rep.line(), calls) == (False, "FAIL empty: no elements checked", [])


MORPHISM_CHECKERS = ("verify_coalgebra_morphism", "verify_hopf_morphism")

# The morphism laws that report a witness on two_loops at length 3.
TWO_LOOPS_WITNESSES = {
    "unsigned": ["D_or Lie morphism (signed)"],
    "signed": ["eta_or Lie coalgebra morphism (signed)", "D_or Lie morphism (signed)"],
}


def oracle_report(checker, f, src, tgt, sample, law):
    """The morphism checker's report from two one-slot passes; a Hopf
    morphism maps the slots through the multiplicative extension of f."""
    fs = oracle_extension(f) if checker == "verify_hopf_morphism" else f
    return verify.verify_defect(oracle_morphism_defect(fs, f, src, tgt), sample, law)


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("name", sorted(FAMILY))
def test_morphism_body_matches_two_slot_passes_on_registry_laws(name, sign):
    laws = [law for law in LAWS if law.checker in MORPHISM_CHECKERS]
    assert len(laws) == 10
    witnesses = []
    for law in laws:
        sample = law.sample(FAMILY[name], 3)
        got = law.check(sample, sign)
        want = oracle_report(law.checker, *unmemoized_maps(law, sign), sample, law.title(sign))
        assert (got, got.line()) == (want, want.line()), law.title(sign)
        if got.witness:
            witnesses.append(got.law)
    if name == "two_loops":
        assert witnesses == TWO_LOOPS_WITNESSES[sign]


def eta_rt_missing_a_term(x):
    """eta_rt with its first term dropped wherever it has more than one."""
    terms = hopf.eta_rt(x).terms()
    return LinComb(terms[1:] if len(terms) > 1 else terms)


@pytest.mark.parametrize(
    "checker, src, tgt, defect",
    [
        (
            "verify_coalgebra_morphism", cobrackets.delta_p_rt, trees.rho,
            "-1 * <1> (x) <1 e e*>; 1 * <2 e* e> (x) <1>; 2 * <2> (x) <1 e e*>",
        ),
        (
            "verify_hopf_morphism", hopf.path_coproduct, trees.tree_coproduct,
            "-1 * {<1>} (x) {<1 e e*>}; 1 * {<2 e* e>} (x) {<1>}; 2 * {<2>} (x) {<1 e e*>}",
        ),
    ],
)
def test_morphism_body_matches_two_slot_passes_on_a_mutant(checker, src, tgt, defect):
    sample = all_paths(FAMILY["triangle"], 4)
    got = getattr(verify, checker)(eta_rt_missing_a_term, src, tgt, sample, "mutant")
    want = oracle_report(checker, eta_rt_missing_a_term, src, tgt, sample, "mutant")
    assert (got, got.line()) == (want, want.line())
    assert got.line() == "FAIL mutant: witness 1 e e* e e*, defect " + defect


def oriented_sample(q, n):
    """The oriented trees labelled by the first two vertices of q, as necklaces."""
    return trees.all_oriented_trees(n, tuple(Necklace(q.trivial(v)) for v in q.vertices[:2]))


# Each checker's maps, with the sampler of the laws that sweep them; no
# registry law sweeps rho_ss_oriented, which runs on oriented_sample.
PRELIE_SWEEPS = (
    (cobrackets.delta_p_rt, all_paths),
    (cuts.chord_delta_p_rt, cuts.path_diagrams),
    (trees.rho, verify.tree_sample),
)
LIE_SWEEPS = (
    (cobrackets.delta_or, all_necklaces),
    (cobrackets.delta_rt, all_paths),
    (cuts.chord_delta_or, cuts.necklace_diagrams),
    (trees.rho_ss, verify.tree_sample),
    (trees.rho_ss_oriented, oriented_sample),
)


def drop_first(f):
    return lambda x: Tensor(2, f(x).terms()[1:])


def negate_first(f):
    def mutant(x):
        terms = f(x).terms()
        return Tensor(2, [(k, -c) for k, c in terms[:1]] + terms[1:])

    return mutant


def swap_slots(f):
    return lambda x: f(x).permute(TAU12_2)


def drop_first_and_its_swap(f):
    """f without its first term a (x) b and the term b (x) a: a skew map stays
    skew, so this mutant can pass co-antisymmetry and fail co-Jacobi."""

    def mutant(x):
        t = f(x)
        if not t:
            return t
        (a, b), c = t.terms()[0]
        return t - c * (tensor(a, b) - tensor(b, a))

    return mutant


MUTANTS = {
    "none": lambda f: f,
    "drop": drop_first,
    "negate": negate_first,
    "swap": swap_slots,
    "drop_pair": drop_first_and_its_swap,
}


def checker_reports(q, n, mutate):
    """(got, want) for each sweep: the checker's report and the oracle's on
    the mutated map, memoized once for both."""
    for checker, oracle, sweeps in (
        (verify.verify_prelie_coalgebra, oracle_prelie_coalgebra, PRELIE_SWEEPS),
        (verify.verify_lie_coalgebra, oracle_lie_coalgebra, LIE_SWEEPS),
    ):
        for f, sampler in sweeps:
            m = functools.cache(mutate(f))
            sample = sampler(q, n)
            yield checker(m, sample, f.__name__), oracle(m, sample, f.__name__)


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
@pytest.mark.parametrize(
    "name, n", [(name, 3) for name in sorted(FAMILY)] + [("two_loops", 5)]
)
def test_lie_and_prelie_checkers_match_the_built_sums(name, n, mutant):
    failed = []
    for got, want in checker_reports(FAMILY[name], n, MUTANTS[mutant]):
        assert (got, got.line()) == (want, want.line())
        if got.witness:
            failed.append(got.law)
    if mutant == "none":
        assert failed == []


def test_checker_mutants_fail_each_lie_axiom():
    """On triangle at length 3 a dropped term breaks co-antisymmetry first,
    and dropping it with its swap keeps co-antisymmetry but breaks co-Jacobi."""
    laws = {
        mutant: [got.law for got, _ in checker_reports(FAMILY["triangle"], 3, MUTANTS[mutant])]
        for mutant in ("drop", "drop_pair")
    }
    assert laws["drop"][3:] == ["%s (co-antisymmetry)" % f.__name__ for f, _ in LIE_SWEEPS]
    assert laws["drop_pair"][3:] == [
        "delta_or", "delta_rt", "chord_delta_or", "rho_ss (co-Jacobi)",
        "rho_ss_oriented (co-Jacobi)",
    ]
