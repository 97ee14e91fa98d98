import io
import itertools
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiverhopf import cuts
from quiverhopf.cli import main
from quiverhopf.cuts import (
    Cut,
    NecklaceDiagram,
    PathDiagram,
    _sign,
    chord_coproduct,
    chord_delta_or,
    chord_delta_p_rt,
    cut_order,
    enumerate_cuts,
    epsilon,
    faces,
    necklace_diagrams,
    nesting_children,
    path_diagrams,
    remove_chords,
    simple_subcuts,
    validate_cut,
)
from quiverhopf.linear import LinComb, Monomial, SYM_UNIT, Tensor, tensor
from quiverhopf.dual import dual_rooted_tree
from quiverhopf.hopf import coassoc_formula_defect, eta_or, eta_rt
from quiverhopf.quiver import Path, all_closed_paths, all_necklaces, all_paths, rotate
from quiverhopf.symalg import antipode_free
from quiverhopf.verify import FAMILY, verify_lie_coalgebra, verify_prelie_coalgebra
from support import (
    oracle_children,
    oracle_chord_delta_or,
    oracle_order,
    oracle_parent,
    oracle_simple,
    oracle_simple_subcuts,
    oracle_valid,
    sliced_surgery,
)


QUIVER_2L = FAMILY["two_loops"]
TWO_LOOPS_FILE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "quivers", "two_loops.json"
)


def oracle_cuts(p):
    """Independent enumerator: all subsets of matched position pairs,
    filtered for disjointness and non-crossing by direct inspection."""
    n = len(p.letters)
    candidates = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if p.letters[j - 1] == p.letters[i - 1].star()
    ]

    def compatible(chosen, pair):
        i2, j2 = pair
        for i1, j1 in chosen:
            if len({i1, j1, i2, j2}) < 4:
                return False
            if i1 < i2 < j1 < j2 or i2 < i1 < j2 < j1:
                return False
        return True

    results = []

    def rec(idx, chosen):
        if idx == len(candidates):
            results.append(tuple(sorted(chosen)))
            return
        rec(idx + 1, chosen)
        if compatible(chosen, candidates[idx]):
            rec(idx + 1, chosen + [candidates[idx]])

    rec(0, [])
    return sorted(set(results))


def ee4(q1):
    e = q1.letter("e")
    return Path("1", (e, e.star(), e, e.star()))


def test_enumerate_cuts_counts(q1):
    x = ee4(q1)
    cuts = enumerate_cuts(x)
    assert len(cuts) == 7
    assert {c.pairs for c in cuts} == {
        (),
        ((1, 2),),
        ((2, 3),),
        ((3, 4),),
        ((1, 4),),
        ((1, 2), (3, 4)),
        ((1, 4), (2, 3)),
    }
    simple = enumerate_cuts(x, simple_only=True)
    assert len(simple) == 6
    assert ((1, 4), (2, 3)) not in {c.pairs for c in simple}


def test_enumerate_cuts_single_letter(q1):
    e = q1.letter("e")
    assert [c.pairs for c in enumerate_cuts(Path("1", (e,)))] == [()]


def test_enumeration_matches_oracle_exhaustive(q1, loop, q2, two_loops):
    for q in (q1, loop, q2, two_loops):
        for p in all_paths(q, 6):
            expect = oracle_cuts(p)
            assert [c.pairs for c in enumerate_cuts(p)] == expect
            assert [c.pairs for c in enumerate_cuts(p, simple_only=True)] == [
                ps for ps in expect if oracle_simple(ps)
            ]


def test_enumeration_matches_oracle_random(two_loops, q2):
    rng = random.Random(20240811)
    quivers = [two_loops, q2]
    by_src = {}
    for q in quivers:
        d = {}
        for lt in q.letters():
            d.setdefault(lt.src, []).append(lt)
        by_src[id(q)] = d
    for trial in range(1000):
        q = quivers[trial % 2]
        verts = list(q.vertices)
        v = rng.choice(verts)
        letters = []
        length = rng.randrange(0, 9)
        at = v
        for _ in range(length):
            options = by_src[id(q)].get(at, [])
            if not options:
                break
            lt = rng.choice(options)
            letters.append(lt)
            at = lt.tgt
        p = Path(v, tuple(letters))
        assert [c.pairs for c in enumerate_cuts(p)] == oracle_cuts(p)


def test_cut_validation(q1):
    x = ee4(q1)
    with pytest.raises(ValueError):
        Cut(((1, 3), (2, 4)))  # crossing
    with pytest.raises(ValueError):
        Cut(((1, 2), (2, 3)))  # shared endpoint
    # Letters not mutual reverses: the diagram constructors reject the cut.
    with pytest.raises(ValueError, match="not mutual reverses"):
        PathDiagram(x, Cut(((1, 3),)))
    with pytest.raises(ValueError, match="not mutual reverses"):
        NecklaceDiagram(x, Cut(((1, 3),)))


def test_epsilon_values(q1):
    e = q1.letter("e")
    two = Path("1", (e, e.star()))
    assert epsilon(PathDiagram(two, Cut(((1, 2),)))) == -1
    x = ee4(q1)
    assert epsilon(PathDiagram(x, Cut(((1, 4), (2, 3))))) == -1
    assert epsilon(PathDiagram(x, Cut(()))) == 1
    assert epsilon(PathDiagram(x, Cut(((1, 2), (3, 4))))) == 1


def test_epsilon_multiplicativity(q1, loop, two_loops):
    for q in (q1, loop, two_loops):
        for p in all_paths(q, 6):
            for h in enumerate_cuts(p):
                eh = epsilon(PathDiagram(p, h))
                for c in h.pairs:
                    rest = Cut(tuple(d for d in h.pairs if d != c))
                    assert epsilon(PathDiagram(p, Cut((c,)))) * epsilon(PathDiagram(p, rest)) == eh
                for sub in simple_subcuts(h):
                    rest = Cut(tuple(d for d in h.pairs if d not in set(sub.pairs)))
                    assert epsilon(PathDiagram(p, sub)) * epsilon(PathDiagram(p, rest)) == eh


def test_remove_chords_full_cut_two_letter(q1):
    e = q1.letter("e")
    two = Path("1", (e, e.star()))
    outer, inners = remove_chords(PathDiagram(two, Cut(((1, 2),))), Cut(((1, 2),)))
    assert outer == PathDiagram(q1.trivial("1"))
    assert inners == {(1, 2): PathDiagram(q1.trivial("2"))}


def test_remove_chords_full_cut_nested(q1):
    h = Cut(((1, 4), (2, 3)))
    outer, inners = remove_chords(PathDiagram(ee4(q1), h), h)
    assert outer == PathDiagram(q1.trivial("1"))
    assert inners[(1, 4)] == PathDiagram(q1.trivial("2"))
    assert inners[(2, 3)] == PathDiagram(q1.trivial("1"))


def test_remove_chords_full_cut_empty(q2):
    for p in all_paths(q2, 3):
        assert remove_chords(PathDiagram(p, Cut(())), Cut(())) == (PathDiagram(p), {})


def test_remove_chords_full_cut_endpoints(q1, loop_edge):
    for q in (q1, loop_edge):
        for p in all_paths(q, 6):
            for h in enumerate_cuts(p):
                outer, inners = remove_chords(PathDiagram(p, h), h)
                assert outer.path.start == p.start and outer.path.end == p.end
                for (i, j), piece in inners.items():
                    assert piece.path.start == p.letters[i - 1].tgt
                    assert piece.path.end == p.letters[j - 1].src
                    assert piece.path.is_closed()


def test_remove_chords_rejects_a_chord_outside_the_cut(q1):
    d = PathDiagram(ee4(q1), Cut(((1, 2),)))
    with pytest.raises(ValueError, match=r"chord \(3, 4\) is not part of the cut \(1,2\)"):
        remove_chords(d, Cut(((3, 4),)))


def test_remove_chords_accepts_a_nested_subset(q1):
    """A nested subset is cut out chord by chord, each chord keeping its
    letters outside the chord nested in it; the chord left in place lands,
    renumbered, in the outer piece or in a chord's piece."""
    e = q1.letter("e")
    x = Path("1", (e, e.star()) * 3)
    sub = Cut(((1, 4), (2, 3)))
    assert not oracle_simple(sub.pairs)
    outer, inners = remove_chords(PathDiagram(x, Cut(((1, 4), (2, 3), (5, 6)))), sub)
    assert outer == PathDiagram(Path("1", (e, e.star())), Cut(((1, 2),)))
    assert inners == {
        (1, 4): PathDiagram(q1.trivial("2")),
        (2, 3): PathDiagram(q1.trivial("1")),
    }
    outer, inners = remove_chords(
        PathDiagram(x, Cut(((1, 6), (2, 3), (4, 5)))), Cut(((1, 6), (2, 3)))
    )
    assert outer == PathDiagram(q1.trivial("1"))
    assert inners == {
        (1, 6): PathDiagram(Path("2", (e.star(), e)), Cut(((1, 2),))),
        (2, 3): PathDiagram(q1.trivial("1")),
    }


def test_cut_rejects_endpoints_that_are_not_ints():
    for pairs in ([(1.7, 3.2)], [("1", "2")], [(1, 2), (3.0, 4)], [(True, 2)]):
        with pytest.raises(TypeError, match="cut endpoints must be ints"):
            Cut(pairs)
    assert Cut([(1, 4), (2, 3)]).pairs == ((1, 4), (2, 3))


def cut_order_at(p: Path, h: Cut, v) -> int:
    """Nesting depth at a half-integer position of the word.

    Counts chords (i, j) with i < v < j; the basepoint positions 1/2 and
    n + 1/2 always have depth 0.
    """
    w = Fraction(v)
    if w.denominator != 2:
        raise ValueError("position must be a half-integer, got %s" % v)
    n = len(p.letters)
    if not Fraction(1, 2) <= w <= Fraction(2 * n + 1, 2):
        raise ValueError("position %s outside [1/2, %d + 1/2]" % (v, n))
    validate_cut(p, h)
    return sum(1 for i, j in h.pairs if i < w < j)


def test_cut_order_at(q1):
    x = ee4(q1)
    nested = Cut(((1, 4), (2, 3)))
    assert cut_order_at(x, nested, Fraction(5, 2)) == 2
    assert cut_order_at(x, nested, Fraction(1, 2)) == 0
    assert cut_order_at(x, Cut(()), Fraction(3, 2)) == 0
    with pytest.raises(ValueError):
        cut_order_at(x, nested, 2)
    with pytest.raises(ValueError):
        cut_order_at(x, nested, Fraction(11, 2))


def test_cut_order(q1):
    x = ee4(q1)
    assert cut_order(Cut(((1, 4), (2, 3)))) == 2
    assert cut_order(Cut(())) == 0
    for h in enumerate_cuts(x):
        if h.pairs:
            assert oracle_simple(h.pairs) == (cut_order(h) == 1)


def check_nesting_against_oracles(h):
    assert h.parents == tuple(oracle_parent(h.pairs, c) for c in h.pairs)
    assert cut_order(h) == oracle_order(h.pairs)
    assert (cut_order(h) <= 1) == oracle_simple(h.pairs)
    assert nesting_children(h) == oracle_children(h.pairs)


def test_nesting_scan_matches_oracles(two_loops, loop_edge):
    nested = 0
    for q in (two_loops, loop_edge):
        for p in all_paths(q, 6):
            for h in enumerate_cuts(p):
                check_nesting_against_oracles(h)
                nested += cut_order(h) >= 2
    assert nested  # nested cuts were among those checked


@st.composite
def perfect_matchings(draw):
    """Up to five pairs on distinct endpoints 1..2k, crossing or nested at random."""
    ends = draw(st.permutations(range(1, 2 * draw(st.integers(0, 5)) + 1)))
    return [tuple(sorted(ends[m : m + 2])) for m in range(0, len(ends), 2)]


@given(
    st.one_of(
        perfect_matchings(),
        # Raw pairs: shared endpoints, i >= j and 0 as well.
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=5),
    )
)
def test_cut_scan_matches_oracles_hypothesis(pairs):
    if not oracle_valid(pairs):
        with pytest.raises(ValueError):
            Cut(pairs)
        return
    h = Cut(pairs)
    assert h.pairs == tuple(sorted(pairs))
    check_nesting_against_oracles(h)


def test_one_cut_check_per_diagram(monkeypatch, two_loops):
    """Each chord diagram's cut is checked once, by its constructor; no map
    that takes the diagram checks it again."""
    counts = {"checks": 0, "diagrams": 0}
    check = cuts.validate_cut

    def counting_check(p, h):
        counts["checks"] += 1
        check(p, h)

    monkeypatch.setattr(cuts, "validate_cut", counting_check)
    for cls in (PathDiagram, NecklaceDiagram):

        def counting_init(self, *args, _init=cls.__init__, **kwargs):
            counts["diagrams"] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    for p in all_paths(two_loops, 5):
        eta_rt(p)
    for n in all_necklaces(two_loops, 5):
        eta_or(n)
        eta_or(n, signed=True)
    for d in path_diagrams(two_loops, 4):
        chord_coproduct(d)
    for x in necklace_diagrams(two_loops, 4):
        chord_delta_or(x)
    argv = ["verify", "--theorem", "2", "--max-len", "3", "--quiver", TWO_LOOPS_FILE]
    assert main(argv, out=io.StringIO()) == 0
    assert counts["diagrams"] > 0
    assert counts["checks"] == counts["diagrams"]


def test_simple_subcuts_equal_the_subset_filter():
    nested = 0
    for q in FAMILY.values():
        for p in all_paths(q, 5):
            for h in enumerate_cuts(p):
                assert simple_subcuts(h) == oracle_simple_subcuts(h)
                nested += not oracle_simple(h.pairs)
    assert nested  # cuts with nested chords were among those compared


def test_simple_subcuts_build_only_the_simple_ones(monkeypatch):
    """A fully nested 12-chord cut has 13 simple subcuts (the empty one and
    each chord alone); only those 13 are built, not all 4,096 subsets."""
    h = Cut((k, 25 - k) for k in range(1, 13))
    built = []
    init = Cut.__init__

    def counting_init(self, pairs=()):
        built.append(pairs)
        init(self, pairs)

    monkeypatch.setattr(Cut, "__init__", counting_init)
    subs = simple_subcuts(h)
    assert len(built) == 13
    del built[:]
    assert subs == oracle_simple_subcuts(h) and len(subs) == 13
    assert len(built) == 4096


def test_simple_subcuts_of_a_deep_nest(loop):
    """1,500 fully nested chords, far deeper than Python's recursion limit:
    the simple subcuts are the empty cut and each chord alone."""
    n = 1500
    a = loop.letter("a")
    word = Path("v", (a,) * n + (a.star(),) * n)
    d = PathDiagram(word, Cut((i, 2 * n + 1 - i) for i in range(1, n + 1)))
    alone = [Cut(((i, 2 * n + 1 - i),)) for i in range(1, n + 1)]
    subs = simple_subcuts(d.cut)
    assert len(subs) == 1501 and subs == sorted([Cut(())] + alone)


def diagrams_of(p, h):
    """The path diagram of (p, h), and its necklace diagram when p is closed."""
    return [PathDiagram(p, h)] + ([NecklaceDiagram(p, h)] if p.is_closed() else [])


def all_subcuts(h: Cut):
    """Every subset of a cut's chords, nested ones included."""
    return [Cut(s) for r in range(len(h) + 1) for s in itertools.combinations(h.pairs, r)]


def test_remove_chords_matches_sliced_surgery(two_loops, loop_edge):
    """Every subset of every cut, the whole cut included, against the
    word-slicing oracle, on path diagrams and on necklace diagrams."""
    renumbered = nested = rotated = 0
    for q in (two_loops, loop_edge):
        for p in all_paths(q, 5):
            for h in enumerate_cuts(p):
                for d in diagrams_of(p, h):
                    for sub in all_subcuts(d.cut):
                        pieces = sliced_surgery(d.path, d.cut.pairs, sub.pairs)
                        outer, inners = remove_chords(d, sub)
                        assert outer == PathDiagram(pieces[None][0], Cut(pieces[None][1]))
                        assert set(inners) == set(sub.pairs)
                        for c in sub.pairs:
                            assert inners[c] == PathDiagram(pieces[c][0], Cut(pieces[c][1]))
                        renumbered += len(pieces[None][1]) > 0
                        nested += not oracle_simple(sub.pairs)
                        rotated += d.path != p
    assert renumbered  # residual chords were renumbered in some outer pieces
    assert nested  # subsets with nested chords were cut out
    assert rotated  # necklace diagrams read at another rotation were compared


def test_remove_chords_full_cut_matches_sliced_surgery(two_loops, loop_edge):
    """Cutting out the whole cut, one letter longer than the subset sweep:
    every chord's piece and the bare outer path, against the slicing oracle,
    and the faces read off the nesting forest, which are those pieces' paths."""
    checked = rotated = 0
    for q in (two_loops, loop_edge):
        for p in all_paths(q, 6):
            for h in enumerate_cuts(p):
                for d in diagrams_of(p, h):
                    pieces = sliced_surgery(d.path, d.cut.pairs, d.cut.pairs)
                    outer, inners = remove_chords(d, d.cut)
                    assert outer == PathDiagram(pieces[None][0])
                    assert inners == {c: PathDiagram(pieces[c][0]) for c in d.cut.pairs}
                    face_paths = {c: path for c, (path, _) in pieces.items()}
                    assert faces(d.path, nesting_children(d.cut)) == face_paths
                    rotated += d.path != p
                checked += any(not oracle_simple([c, e]) for c in h.pairs for e in h.pairs)
    assert checked  # nested cuts were among those compared
    assert rotated  # so were necklace diagrams read at another rotation


def test_whole_cut_readers_build_no_diagram(monkeypatch):
    """The dual tree, the coassociativity expansion and the `chords` command
    read a cut's faces off its nesting forest and build no chord diagram;
    `chords --with-signs` builds one per cut, for its sign."""
    p = QUIVER_2L.parse_path("v a b b* a* a a*")
    d = PathDiagram(p, Cut(((1, 4), (2, 3), (5, 6))))
    built = [0]

    def counting(self, path, cut=cuts.EMPTY_CUT, _init=PathDiagram.__init__):
        built[0] += 1
        _init(self, path, cut)

    monkeypatch.setattr(PathDiagram, "__init__", counting)
    dual_rooted_tree(d)
    assert built[0] == 0
    assert coassoc_formula_defect(p) == 0
    assert built[0] == 0
    argv = ["chords", "--path", "v a b b* a* a a*", "--quiver", TWO_LOOPS_FILE]
    assert main(argv, out=io.StringIO()) == 0
    assert built[0] == 0
    assert main(argv + ["--with-signs"], out=io.StringIO()) == 0
    assert built[0] == len(enumerate_cuts(p)) > 1


def closed_form_antipode(d, signed=True, subcuts=all_subcuts) -> LinComb:
    """The cut-forest antipode of a chord diagram: over every subset s of its
    chords, (-1)^(|s|+1) times the sign of s times the product of the pieces
    that cutting out s leaves."""
    terms = []
    for sub in subcuts(d.cut):
        outer, inners = remove_chords(d, sub)
        sign = (-1) ** (len(sub) + 1) * (_sign(d.path.letters, sub.pairs) if signed else 1)
        terms.append((Monomial((outer,) + tuple(inners.values())), sign))
    return LinComb(terms)


def test_chord_antipode_closed_form():
    """The closed form equals the geometric-series antipode of chord_coproduct."""
    for q in FAMILY.values():
        for d in path_diagrams(q, 4):
            assert closed_form_antipode(d) == antipode_free(chord_coproduct, Monomial((d,)))


def test_chord_antipode_closed_form_needs_the_sign_and_nested_subsets():
    """Dropping the sign of the removed chords, or summing over the simple
    subsets only, breaks the closed form on two_loops."""
    diagrams = path_diagrams(QUIVER_2L, 4)
    series = [antipode_free(chord_coproduct, Monomial((d,))) for d in diagrams]
    unsigned = sum(closed_form_antipode(d, signed=False) != s for d, s in zip(diagrams, series))
    simple_only = sum(
        closed_form_antipode(d, subcuts=simple_subcuts) != s for d, s in zip(diagrams, series)
    )
    assert (len(diagrams), unsigned, simple_only) == (809, 242, 16)


def test_chord_delta_p_rt_one_chord(q1):
    e = q1.letter("e")
    d = PathDiagram(Path("1", (e, e.star())), Cut(((1, 2),)))
    expect = -tensor(
        PathDiagram(q1.trivial("2")), PathDiagram(q1.trivial("1"))
    )
    assert chord_delta_p_rt(d) == expect


def test_chord_delta_p_rt_nested(q1):
    e = q1.letter("e")
    x = ee4(q1)
    d = PathDiagram(x, Cut(((1, 4), (2, 3))))
    ee = Path("1", (e, e.star()))
    se = Path("2", (e.star(), e))
    expect = tensor(
        PathDiagram(q1.trivial("1")), PathDiagram(ee, Cut(((1, 2),)))
    ) - tensor(PathDiagram(se, Cut(((1, 2),))), PathDiagram(q1.trivial("1")))
    assert chord_delta_p_rt(d) == expect


def test_chord_delta_p_rt_empty(q2):
    for p in all_paths(q2, 3):
        assert chord_delta_p_rt(PathDiagram(p)) == 0


def test_chord_delta_or_values(q1, loop):
    e = q1.letter("e")
    d = NecklaceDiagram(Path("1", (e, e.star())), Cut(((1, 2),)))
    y1 = NecklaceDiagram(q1.trivial("1"))
    y2 = NecklaceDiagram(q1.trivial("2"))
    assert chord_delta_or(d) == -tensor(y2, y1) + tensor(y1, y2)
    assert chord_delta_or(NecklaceDiagram(q1.trivial("1"))) == 0
    a = loop.letter("a")
    dl = NecklaceDiagram(Path("v", (a, a.star())), Cut(((1, 2),)))
    assert chord_delta_or(dl) == 0


def test_chord_delta_or_matches_term_pair_oracle():
    diagrams = [x for q in FAMILY.values() for x in necklace_diagrams(q, 4)]
    assert len(diagrams) > 300
    for x in diagrams:
        assert chord_delta_or(x) == oracle_chord_delta_or(x), x.text()


def test_necklace_diagram_canonicalization(q1):
    e = q1.letter("e")
    # Rotating the representative and the cut together lands on the same class.
    d1 = NecklaceDiagram(Path("1", (e, e.star())), Cut(((1, 2),)))
    d2 = NecklaceDiagram(Path("2", (e.star(), e)), Cut(((1, 2),)))
    assert d1 == d2
    # Symmetric word: the two single-chord cuts related by rotation coincide.
    x = ee4(q1)
    assert NecklaceDiagram(x, Cut(((1, 2),))) == NecklaceDiagram(x, Cut(((3, 4),)))
    assert NecklaceDiagram(x, Cut(((2, 3),))) == NecklaceDiagram(x, Cut(((1, 4),)))


def brute_necklace_diagram(path, cut):
    """Every rotated Path and Cut built in full; the least (word, cut) wins, the
    first rotation on a tie. An oracle for NecklaceDiagram's key-only choice.

    Also reports whether the cut decided: another rotation had the least word
    but a different cut.
    """
    n = len(path.letters)
    cands = []
    for k in range(max(n, 1)):
        word = rotate(path, k) if n else path
        moved = Cut(
            tuple(
                tuple(sorted((((i - k - 1) % n) + 1, ((j - k - 1) % n) + 1)))
                for i, j in cut.pairs
            )
        )
        cands.append(((tuple((lt.eid, lt.starred) for lt in word.letters), moved.pairs), word, moved))
    best = cands[0]
    for cand in cands[1:]:
        if cand[0] < best[0]:
            best = cand
    decided = any(c[0][0] == best[0][0] and c[0][1] != best[0][1] for c in cands)
    return best[1], best[2], decided


def test_necklace_diagram_matches_brute_force(two_loops, loop_edge):
    decided = 0
    for q in (two_loops, loop_edge):
        for p in all_closed_paths(q, 6):
            for h in enumerate_cuts(p):
                word, moved, by_cut = brute_necklace_diagram(p, h)
                d = NecklaceDiagram(p, h)
                assert (d.path.skey, d.cut, d.skey) == (
                    word.skey, moved, "CN|[%s] / %s" % (word.skey[2:], moved.text())
                )
                decided += by_cut
    # Periodic words such as (a a*)^3 tie on the word, so the cut decides.
    assert decided > 100


def test_chord_coproduct_one_chord(q1):
    e = q1.letter("e")
    d = PathDiagram(Path("1", (e, e.star())), Cut(((1, 2),)))
    t2 = PathDiagram(q1.trivial("2"))
    t1 = PathDiagram(q1.trivial("1"))
    expect = (
        Tensor.single((Monomial((d,)), SYM_UNIT))
        + Tensor.single((SYM_UNIT, Monomial((d,))))
        - tensor(Monomial((t2,)), Monomial((t1,)))
    )
    assert chord_coproduct(d) == expect


def test_chord_coproduct_no_chords(q2):
    for p in all_paths(q2, 2):
        d = PathDiagram(p)
        expect = Tensor.single((Monomial((d,)), SYM_UNIT)) + Tensor.single(
            (SYM_UNIT, Monomial((d,)))
        )
        assert chord_coproduct(d) == expect


def test_chord_coproduct_nested(q1):
    e = q1.letter("e")
    x = ee4(q1)
    d = PathDiagram(x, Cut(((1, 4), (2, 3))))
    ee = Path("1", (e, e.star()))
    se = Path("2", (e.star(), e))
    t1 = PathDiagram(q1.trivial("1"))
    expect = (
        Tensor.single((Monomial((d,)), SYM_UNIT))
        + Tensor.single((SYM_UNIT, Monomial((d,))))
        - tensor(
            Monomial((PathDiagram(se, Cut(((1, 2),))),)), Monomial((t1,))
        )
        + tensor(
            Monomial((t1,)), Monomial((PathDiagram(ee, Cut(((1, 2),))),))
        )
    )
    assert chord_coproduct(d) == expect


def test_chord_prelie_axiom(q1, loop):
    for q in (q1, loop):
        assert verify_prelie_coalgebra(chord_delta_p_rt, path_diagrams(q, 5)).ok


def test_chord_lie_axioms(q1, loop):
    for q in (q1, loop):
        assert verify_lie_coalgebra(chord_delta_or, necklace_diagrams(q, 4)).ok


@st.composite
def two_loop_paths(draw):
    q = QUIVER_2L
    length = draw(st.integers(min_value=0, max_value=6))
    letters = []
    for _ in range(length):
        eid = draw(st.sampled_from(["a", "b"]))
        letters.append(q.letter(eid, draw(st.booleans())))
    return Path("v", tuple(letters))


@given(two_loop_paths())
def test_enumeration_matches_oracle_hypothesis(p):
    expect = oracle_cuts(p)
    assert [c.pairs for c in enumerate_cuts(p)] == expect
    assert [c.pairs for c in enumerate_cuts(p, simple_only=True)] == [
        ps for ps in expect if oracle_simple(ps)
    ]


@given(two_loop_paths())
def test_epsilon_multiplicative_hypothesis(p):
    for h in enumerate_cuts(p):
        eh = epsilon(PathDiagram(p, h))
        for c in h.pairs:
            rest = Cut(tuple(d for d in h.pairs if d != c))
            assert epsilon(PathDiagram(p, Cut((c,)))) * epsilon(PathDiagram(p, rest)) == eh
