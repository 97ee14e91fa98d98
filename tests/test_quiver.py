import os

import pytest

from quiverhopf.quiver import (
    Necklace,
    ParseError,
    Path,
    Quiver,
    all_closed_paths,
    all_necklaces,
    all_paths,
    omega,
    rotate,
)
from quiverhopf.verify import FAMILY
from support import compose, quiver_to_dict


def test_omega_values(q1):
    e = q1.letter("e")
    es = q1.letter("e", True)
    assert omega(e, es) == 1
    assert omega(es, e) == -1
    assert omega(e, e) == 0


def test_omega_antisymmetric_on_all_letters(q2):
    for a in q2.letters():
        assert omega(a, a.star()) + omega(a.star(), a) == 0


def test_star_involution(q1):
    e = q1.letter("e")
    assert e.star().star() == e
    assert e.star().src == "2" and e.star().tgt == "1"


def test_compose(q1):
    e, es = q1.letter("e"), q1.letter("e", True)
    p = compose(Path("1", (e,)), Path("2", (es,)))
    assert p == Path("1", (e, es))
    assert compose(Path("1", (e,)), Path("1", (e,))) is None
    assert compose(q1.trivial("1"), Path("1", (e,))) == Path("1", (e,))


def test_compose_associative_with_local_units(q2):
    paths = all_paths(q2, 3)
    for p in paths[:12]:
        for q in paths[:12]:
            for r in paths[:12]:
                pq = compose(p, q)
                qr = compose(q, r)
                lhs = compose(pq, r) if pq is not None else None
                rhs = compose(p, qr) if qr is not None else None
                assert lhs == rhs


def test_path_validation(q1):
    e = q1.letter("e")
    with pytest.raises(ValueError):
        Path("2", (e,))
    with pytest.raises(ValueError):
        Path("1", (e, e))


def canonical_necklace(p: Path) -> Necklace:
    """Canonicalize a closed path; non-closed nonempty input is an error."""
    return Necklace(p)


def test_canonical_necklace(q1):
    e, es = q1.letter("e"), q1.letter("e", True)
    # e < e* in the global order, so the representative starts with e.
    n = canonical_necklace(Path("2", (es, e)))
    assert n.rep == Path("1", (e, es))
    assert canonical_necklace(q1.trivial("1")).rep == q1.trivial("1")
    with pytest.raises(ValueError):
        canonical_necklace(Path("1", (e,)))


def test_necklace_rotation_invariance(q2):
    for p in all_paths(q2, 6):
        if not p.is_closed() or not p.letters:
            continue
        base = canonical_necklace(p)
        for k in range(len(p.letters)):
            assert canonical_necklace(rotate(p, k)) == base


def brute_necklace_rep(p: Path) -> Path:
    """Every rotation built as a Path; the least letter word wins, the first
    rotation on a tie. An oracle for Necklace's key-only choice."""
    best = None
    for k in range(max(len(p.letters), 1)):
        cand = rotate(p, k)
        key = tuple((lt.eid, lt.starred) for lt in cand.letters)
        if best is None or key < best[0]:
            best = (key, cand)
    return best[1]


def test_necklace_rep_matches_brute_force(two_loops, loop_edge):
    count = 0
    for q in (two_loops, loop_edge):
        for p in all_closed_paths(q, 6):
            rep = brute_necklace_rep(p)
            n = Necklace(p)
            assert (n.rep.skey, n.skey) == (rep.skey, "N|" + rep.skey[2:])
            count += 1
    # Periodic words, whose rotations tie, are among those compared.
    assert two_loops.parse_path("v a a* a a* a a*") in all_closed_paths(two_loops, 6)
    assert count > 5000


def test_all_paths_counts(q1):
    # Alternating quiver: 2 trivial paths, then exactly 2 paths per length.
    paths = all_paths(q1, 6)
    assert len(paths) == 2 + 2 * 6
    by_len = {}
    for p in paths:
        by_len.setdefault(len(p), []).append(p)
    assert all(len(v) == 2 for v in by_len.values())


def test_all_necklaces(q1):
    ns = all_necklaces(q1, 4)
    texts = [n.text() for n in ns]
    assert "[1]" in texts and "[2]" in texts
    assert "[e e*]" in texts
    assert "[e e* e e*]" in texts
    assert len(ns) == 4


def test_parse_and_text_roundtrip(q2):
    for p in all_paths(q2, 4):
        assert q2.parse_path(p.text()) == p
    for n in all_necklaces(q2, 4):
        assert q2.parse_necklace(n.text()) == n


def test_parse_errors(q1):
    with pytest.raises(ParseError):
        q1.parse_path("7 e")
    with pytest.raises(ParseError) as exc:
        q1.parse_path("1 e e")
    assert "token 3" in str(exc.value)
    with pytest.raises(ParseError):
        q1.parse_necklace("[e]")  # not closed


@pytest.mark.parametrize(
    "name, parse, text, pos, message",
    [
        ("two_loops", "parse_necklace", "[a x]", 2, "token 2: 'x' is not an edge id"),
        ("triangle", "parse_necklace", "[e g]", 2, "token 2: letter g starts at 3 but the path is at 2"),
        ("two_loops", "parse_necklace", "[v x]", 2, "token 2: 'x' is not an edge id"),
        ("two_loops", "parse_necklace", "[v a x]", 3, "token 3: 'x' is not an edge id"),
        ("one_edge", "parse_path", "1 e e", 3, "token 3: letter e starts at 1 but the path is at 2"),
    ],
    ids=["unknown-edge", "broken-walk", "unknown-after-start", "unknown-third", "path"],
)
def test_parse_error_names_the_typed_token(name, parse, text, pos, message):
    with pytest.raises(ParseError) as exc:
        getattr(FAMILY[name], parse)(text)
    assert (exc.value.pos, str(exc.value)) == (pos, message)


@pytest.mark.parametrize("name", sorted(FAMILY))
def test_letter_order_and_identity(name):
    q = FAMILY[name]
    letters = q.letters()
    assert letters == sorted(letters) == sorted(letters, key=lambda lt: (lt.eid, lt.starred))
    assert len(set(letters)) == len(letters) == 2 * len(q.edges)
    for a in letters:
        assert a.star().star() == a
        assert omega(a, a.star()) == -omega(a.star(), a) != 0
        for b in letters + [q.letter(lt.eid, lt.starred) for lt in letters]:
            same = (a.eid, a.starred) == (b.eid, b.starred)
            assert (a == b, hash(a) == hash(b)) == (same, same)
        with pytest.raises(AttributeError):
            a.eid = "z"


@pytest.mark.parametrize("name", sorted(FAMILY))
def test_necklace_roundtrip_through_every_written_form(name):
    q = FAMILY[name]
    seen = set()
    for p in all_closed_paths(q, 3):
        word = " ".join(lt.text() for lt in p.letters)
        forms = ["[%s]" % p.start] if p.is_trivial() else ["[%s]" % word, "[%s %s]" % (p.start, word)]
        for text in forms:
            assert q.parse_necklace(text) == Necklace(p)
        seen.add(Necklace(p))
    assert seen == set(all_necklaces(q, 3))


@pytest.mark.parametrize("v", [1, "zzz", 2.5, "v"])
def test_trivial_rejects_a_vertex_outside_the_quiver(q1, v):
    assert q1.trivial("1") == Path("1")
    with pytest.raises(ValueError, match="unknown vertex"):
        q1.trivial(v)


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(("1",), (("e", "1", "9"),))
    with pytest.raises(ValueError):
        Quiver(("1", "1"), ())
    with pytest.raises(ValueError):
        Quiver(("x",), (("x", "x", "x"),))
    with pytest.raises(ValueError):
        Quiver(("a b",), ())
    with pytest.raises(ValueError):
        Quiver((), ())  # no vertices
    with pytest.raises(ValueError):
        Quiver((1, "2"), ())  # a number is not an id
    with pytest.raises(ValueError):
        Quiver(("1", "2"), (("e", 1, "2"),))


def test_sample_quiver_files_load():
    qdir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "quivers")
    names = sorted(os.listdir(qdir))
    assert len(names) == 4
    for name in names:
        assert Quiver.load(os.path.join(qdir, name)).vertices


def test_quiver_json_roundtrip(q2, tmp_path):
    f = tmp_path / "q.json"
    import json

    f.write_text(json.dumps(quiver_to_dict(q2)))
    q = Quiver.load(str(f))
    assert quiver_to_dict(q) == quiver_to_dict(q2)
