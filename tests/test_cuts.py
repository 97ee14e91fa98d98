import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiverhopf.cuts import (
    Cut,
    CutComponents,
    NecklaceDiagram,
    PathDiagram,
    chord_coproduct,
    chord_delta_or,
    chord_delta_p_rt,
    cut_components,
    cut_order,
    enumerate_cuts,
    epsilon,
    necklace_diagrams,
    path_diagrams,
    precedes,
    remove_chords,
    simple_subcuts,
    validate_cut,
)
from quiverhopf.linear import Monomial, SYM_UNIT, Tensor, tensor
from quiverhopf.quiver import Path, all_closed_paths, all_paths, rotate
from quiverhopf.verify import FAMILY, verify_lie_coalgebra, verify_prelie_coalgebra


QUIVER_2L = FAMILY["two_loops"]


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


def nesting_free(pairs):
    """True iff no pair lies strictly inside another, by direct inspection."""
    return not any(i1 < i2 < j2 < j1 for i1, j1 in pairs for i2, j2 in pairs)


def sliced_surgery(p, cut_pairs, sub_pairs):
    """Independent surgery: remove the chords of sub_pairs one at a time, from
    the innermost outward, by slicing the word the way delta_p_rt does.

    The word is a list of (original position, letter); the letters strictly
    inside a chord become its piece, the rest stays. Returns
    {chord or None: (Path, renumbered residual pairs)}, None being the outer
    piece; a residual chord is renumbered inside the piece holding both ends.
    """
    word = list(enumerate(p.letters, 1))
    pieces = {}
    for i, j in sorted(sub_pairs, key=lambda c: c[1] - c[0]):
        a = [pos for pos, _ in word].index(i)
        b = [pos for pos, _ in word].index(j)
        pieces[(i, j)] = (p.letters[i - 1].tgt, word[a + 1 : b])
        word = word[:a] + word[b + 1 :]
    pieces[None] = (p.start, word)
    out = {}
    for key, (start, entries) in pieces.items():
        index = {pos: k + 1 for k, (pos, _) in enumerate(entries)}
        residual = [
            (index[i], index[j])
            for i, j in cut_pairs
            if (i, j) not in sub_pairs and i in index and j in index
        ]
        out[key] = (Path(start, tuple(lt for _, lt in entries)), sorted(residual))
    return out


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
                ps for ps in expect if nesting_free(ps)
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
    with pytest.raises(ValueError):
        epsilon(x, Cut(((1, 3),)))  # letters not mutual reverses


def test_epsilon_values(q1):
    e = q1.letter("e")
    two = Path("1", (e, e.star()))
    assert epsilon(two, Cut(((1, 2),))) == -1
    x = ee4(q1)
    assert epsilon(x, Cut(((1, 4), (2, 3)))) == -1
    assert epsilon(x, Cut(())) == 1
    assert epsilon(x, Cut(((1, 2), (3, 4)))) == 1


def test_epsilon_multiplicativity(q1, loop, two_loops):
    for q in (q1, loop, two_loops):
        for p in all_paths(q, 6):
            for h in enumerate_cuts(p):
                eh = epsilon(p, h)
                for c in h.pairs:
                    rest = Cut(tuple(d for d in h.pairs if d != c))
                    assert epsilon(p, Cut((c,))) * epsilon(p, rest) == eh
                for sub in simple_subcuts(h):
                    rest = Cut(tuple(d for d in h.pairs if d not in set(sub.pairs)))
                    assert epsilon(p, sub) * epsilon(p, rest) == eh


def test_cut_components_two_letter(q1):
    e = q1.letter("e")
    two = Path("1", (e, e.star()))
    comps = cut_components(two, Cut(((1, 2),)))
    assert comps.outer == q1.trivial("1")
    assert comps.chords == {(1, 2): q1.trivial("2")}


def test_cut_components_nested(q1):
    x = ee4(q1)
    comps = cut_components(x, Cut(((1, 4), (2, 3))))
    assert comps.outer == q1.trivial("1")
    assert comps.chords[(1, 4)] == q1.trivial("2")
    assert comps.chords[(2, 3)] == q1.trivial("1")


def test_cut_components_empty(q2):
    for p in all_paths(q2, 3):
        comps = cut_components(p, Cut(()))
        assert comps.outer == p and comps.chords == {}


def test_cut_components_endpoints(q1, loop_edge):
    for q in (q1, loop_edge):
        for p in all_paths(q, 6):
            for h in enumerate_cuts(p):
                comps = cut_components(p, h)
                assert comps.outer.start == p.start and comps.outer.end == p.end
                for (i, j), piece in comps.chords.items():
                    assert piece.start == p.letters[i - 1].tgt
                    assert piece.end == p.letters[j - 1].src
                    assert piece.is_closed()


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
    assert cut_order(x, Cut(((1, 4), (2, 3)))) == 2
    assert cut_order(x, Cut(())) == 0
    for h in enumerate_cuts(x):
        if h.pairs:
            assert h.is_simple() == (cut_order(x, h) == 1)


def test_simplicity_iff_order_one(q1, loop, two_loops):
    for q in (q1, loop, two_loops):
        for p in all_paths(q, 6):
            for h in enumerate_cuts(p):
                order = cut_order(p, h)
                if h.pairs:
                    assert h.is_simple() == (order == 1)
                    assert (order >= 2) == (not h.is_simple())
                else:
                    assert order == 0


def test_precedes(q1):
    assert precedes(Cut(((2, 3),)), Cut(((1, 4),)))
    assert not precedes(Cut(((1, 4),)), Cut(((2, 3),)))
    h = Cut(((1, 2),))
    assert precedes(Cut(()), h) and precedes(h, Cut(()))
    with pytest.raises(ValueError):
        precedes(Cut(((1, 2),)), Cut(((2, 3),)))  # overlapping endpoints


def test_remove_chords_matches_components_on_simple_cuts(q1, two_loops):
    for q in (q1, two_loops):
        for p in all_paths(q, 6):
            for h in enumerate_cuts(p, simple_only=True):
                comps = cut_components(p, h)
                outer, inners = remove_chords(PathDiagram(p, h), h)
                assert outer.path == comps.outer and outer.cut == Cut(())
                for c in h.pairs:
                    assert inners[c].path == comps.chords[c]
                    assert inners[c].cut == Cut(())


def test_cut_components_match_sliced_surgery(two_loops, loop_edge):
    checked = 0
    for q in (two_loops, loop_edge):
        for p in all_paths(q, 6):
            for h in enumerate_cuts(p):
                pieces = sliced_surgery(p, h.pairs, h.pairs)
                expect = CutComponents(
                    outer=pieces[None][0], chords={c: pieces[c][0] for c in h.pairs}
                )
                assert cut_components(p, h) == expect
                checked += any(not nesting_free([c, d]) for c in h.pairs for d in h.pairs)
    assert checked  # nested cuts were among those compared


def test_remove_chords_matches_sliced_surgery(two_loops, loop_edge):
    checked = 0
    for q in (two_loops, loop_edge):
        for p in all_paths(q, 6):
            for h in enumerate_cuts(p):
                d = PathDiagram(p, h)
                for sub in simple_subcuts(h):
                    pieces = sliced_surgery(p, h.pairs, sub.pairs)
                    outer, inners = remove_chords(d, sub)
                    assert outer == PathDiagram(pieces[None][0], Cut(pieces[None][1]))
                    assert set(inners) == set(sub.pairs)
                    for c in sub.pairs:
                        assert inners[c] == PathDiagram(pieces[c][0], Cut(pieces[c][1]))
                    checked += len(pieces[None][1]) > 0
    assert checked  # residual chords were renumbered in some outer pieces


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
        cands.append(((tuple(lt.sort_key for lt in word.letters), moved.pairs), word, moved))
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
        ps for ps in expect if nesting_free(ps)
    ]


@given(two_loop_paths())
def test_epsilon_multiplicative_hypothesis(p):
    for h in enumerate_cuts(p):
        eh = epsilon(p, h)
        for c in h.pairs:
            rest = Cut(tuple(d for d in h.pairs if d != c))
            assert epsilon(p, Cut((c,))) * epsilon(p, rest) == eh
