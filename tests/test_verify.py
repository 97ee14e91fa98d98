"""Run-scoped map memos of `verify.run_laws`: oracle, counting and lifetime."""

import functools
import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhopf import hopf, symalg, verify
from quiverhopf.quiver import Quiver
from quiverhopf.verify import FAMILY, LAWS, SELECTED, run_laws

SIGNS = ("unsigned", "signed")


def resolve(name):
    module, _, attr = name.rpartition(".")
    return getattr(getattr(verify, module) if module else verify, attr)


def unmemoized(law, q, n, sign):
    """The law's checker on its own sample, with freshly resolved maps and
    no memo: the registry contract written out by hand."""
    convention = sign if law.sign in ("", SELECTED) else law.sign
    maps = [resolve(name) for name in law.maps]
    if law.sign:
        maps[0] = functools.partial(maps[0], signed=convention == "signed")
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
