"""Run-scoped map memos of `verify.run_laws`: oracle, counting and lifetime.
Also the one Hopf-law path of both monoids: the checkers read the monoid
(Monomial or Word) off the coproduct they are given, once per sweep. And the
one morphism body of both levels, against two one-slot passes."""

import functools
import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhopf import cobrackets, hopf, symalg, trees, verify
from quiverhopf.linear import LinComb, Monomial, Tensor, Word
from quiverhopf.quiver import Quiver, all_paths
from quiverhopf.verify import FAMILY, LAWS, SELECTED, run_laws

from support import oracle_extension, oracle_morphism_defect, oracle_word_antipode

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


@st.composite
def small_quivers(draw):
    """Up to three vertices and one to three edges, loops and parallel edges allowed."""
    vertices = ("u", "v", "w")[: draw(st.integers(1, 3))]
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    edges = draw(st.lists(ends, min_size=1, max_size=3))
    return Quiver(vertices, tuple(("e%d" % k, s, t) for k, (s, t) in enumerate(edges)))


@settings(max_examples=4, deadline=None)
@given(small_quivers(), st.sampled_from(SIGNS))
def test_run_laws_matches_unmemoized_laws_on_random_quivers(q, sign):
    assert_matches_unmemoized(q, 3, sign)


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
