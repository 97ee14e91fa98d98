from quiverhopf.cobrackets import delta_or, delta_p_rt, delta_rt
from quiverhopf.linear import Tensor, skew, tensor
from quiverhopf.quiver import Necklace, Path, all_necklaces, all_paths, rotate
from quiverhopf.verify import FAMILY, verify_lie_coalgebra, verify_prelie_coalgebra
from support import oracle_delta_or, oracle_delta_or_pairs, oracle_delta_rt

# Length caps for the oracle sweeps: 431 necklaces over the six FAMILY quivers.
ORACLE_CAPS = {"one_edge": 6, "loop": 6, "chain2": 5, "two_loops": 5, "loop_edge": 5, "triangle": 5}


def test_delta_or_two_letter(q1):
    e = q1.letter("e")
    n = Necklace(Path("1", (e, e.star())))
    t1 = Necklace(q1.trivial("1"))
    t2 = Necklace(q1.trivial("2"))
    assert delta_or(n) == tensor(t1, t2) - tensor(t2, t1)


def test_delta_or_loop_is_zero(loop):
    a = loop.letter("a")
    n = Necklace(Path("v", (a, a.star())))
    assert delta_or(n) == 0


def test_delta_or_trivial(q1):
    assert delta_or(Necklace(q1.trivial("1"))) == 0


def test_delta_or_length_four(q1):
    # Hand evaluation over the canonical representative e e* e e*: pairs
    # (1,2) and (3,4) give [e e*] ^ [triv_2], (1,4) gives [triv_1] ^ [e e*],
    # and (2,3) gives -[e e*] ^ [triv_1] (its first factor wraps around).
    e = q1.letter("e")
    n = Necklace(Path("1", (e, e.star(), e, e.star())))
    ee = Necklace(Path("1", (e, e.star())))
    t1 = Necklace(q1.trivial("1"))
    t2 = Necklace(q1.trivial("2"))
    assert delta_or(n) == 2 * skew(tensor(t1, ee)) + 2 * skew(tensor(ee, t2))


def test_delta_or_matches_cyclic_oracle():
    necklaces = [n for name, cap in ORACLE_CAPS.items() for n in all_necklaces(FAMILY[name], cap)]
    assert len(necklaces) == 431
    for n in necklaces:
        assert delta_or(n) == oracle_delta_or(n.rep), n.text()


def test_skew_cobrackets_match_removed_bodies():
    for q in FAMILY.values():
        for p in all_paths(q, 5):
            assert delta_rt(p) == oracle_delta_rt(p), p.text()
        for n in all_necklaces(q, 5):
            assert delta_or(n) == oracle_delta_or_pairs(n), n.text()


def test_delta_or_rotation_independent():
    for name, cap in ORACLE_CAPS.items():
        for p in all_paths(FAMILY[name], cap):
            if not p.is_closed() or not p.letters:
                continue
            value = delta_or(Necklace(p))
            for k in range(len(p.letters)):
                assert oracle_delta_or(rotate(p, k)) == value, (p.text(), k)


def test_delta_p_rt_two_letter(q1):
    e = q1.letter("e")
    x = Path("1", (e, e.star()))
    assert delta_p_rt(x) == -tensor(q1.trivial("2"), q1.trivial("1"))


def test_delta_p_rt_loop_cancellation(loop):
    a = loop.letter("a")
    x = Path("v", (a, a.star(), a))
    assert delta_p_rt(x) == 0


def test_delta_p_rt_trivial(q1):
    assert delta_p_rt(q1.trivial("1")) == 0


def test_delta_p_rt_first_factor_closed(q1, q2, loop_edge):
    for q in (q1, q2, loop_edge):
        for x in all_paths(q, 5):
            for (a, b), _ in delta_p_rt(x).terms():
                assert a.is_closed()
                assert b.start == x.start and b.end == x.end


def test_delta_rt_values(q1, loop):
    e = q1.letter("e")
    x = Path("1", (e, e.star()))
    t1, t2 = q1.trivial("1"), q1.trivial("2")
    assert delta_rt(x) == -tensor(t2, t1) + tensor(t1, t2)
    assert delta_rt(q1.trivial("1")) == 0
    a = loop.letter("a")
    assert delta_rt(Path("v", (a, a.star(), a))) == 0


def test_prelie_verifier_passes_on_paths(q1):
    report = verify_prelie_coalgebra(delta_p_rt, all_paths(q1, 5))
    assert report.ok
    assert report.checked == 12


def test_prelie_verifier_catches_bad_map():
    # Note x -> x (x) x is coassociative, hence actually pre-Lie; a genuinely
    # failing 2-element example needs an asymmetric value.
    from quiverhopf.linear import BasisElement

    a, b = BasisElement("X|a"), BasisElement("X|b")
    bad = lambda x: tensor(a, b) if x == a else Tensor(2)
    report = verify_prelie_coalgebra(bad, [a, b])
    assert not report.ok
    assert report.witness[0] == a  # smallest witness first
    assert report.witness[1] == tensor(a, b, b) - tensor(b, a, b)


def test_prelie_verifier_accepts_coassociative_square():
    # x -> x (x) x satisfies the pre-Lie identity identically.
    from quiverhopf.linear import BasisElement

    a, b = BasisElement("X|a"), BasisElement("X|b")
    square = lambda x: tensor(x, x)
    assert verify_prelie_coalgebra(square, [a, b]).ok


def test_prelie_verifier_zero_map(q1):
    zero = lambda x: Tensor(2)
    assert verify_prelie_coalgebra(zero, all_paths(q1, 3)).ok


def test_lie_verifier_passes(q1):
    assert verify_lie_coalgebra(delta_or, all_necklaces(q1, 4)).ok
    assert verify_lie_coalgebra(delta_rt, all_paths(q1, 4)).ok


def test_lie_verifier_catches_symmetric_map():
    from quiverhopf.linear import BasisElement

    a = BasisElement("X|a")
    sym = lambda x: tensor(a, a)
    report = verify_lie_coalgebra(sym, [a])
    assert not report.ok
    assert "antisym" in report.law


def test_prelie_sweep_two_edge_quivers(q2, loop, two_loops, loop_edge):
    for q in (q2, loop, two_loops, loop_edge):
        assert verify_prelie_coalgebra(delta_p_rt, all_paths(q, 4)).ok


def test_lie_sweep_two_edge_quivers(q2, loop, two_loops, loop_edge):
    for q in (q2, loop, two_loops, loop_edge):
        assert verify_lie_coalgebra(delta_or, all_necklaces(q, 4)).ok
        assert verify_lie_coalgebra(delta_rt, all_paths(q, 4)).ok
