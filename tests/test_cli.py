import importlib
import io
import json
import os
import re
import shlex

import pytest

from quiverhopf import bridge, cuts, hopf, symalg
from quiverhopf.bridge import instance_table
from quiverhopf.cli import build_parser, main
from quiverhopf.cobrackets import delta_p_rt
from quiverhopf.linear import Monomial, Tensor, Word
from quiverhopf.verify import FAMILY, LAWS, Report
from support import quiver_to_dict


def run(argv):
    buf = io.StringIO()
    rc = main(argv, out=buf)
    return rc, buf.getvalue()


def test_coproduct_pretty_output():
    rc, out = run(["coproduct", "--input", "1 e e*"])
    assert rc == 0
    assert out == (
        "1 * 1 (x) {1 e e*}\n"
        "1 * {1 e e*} (x) 1\n"
        "-1 * {2} (x) {1}\n"
    )


def test_coproduct_structured_scalars():
    rc, out = run(["coproduct", "--input", "1 e e*", "--format", "structured"])
    assert rc == 0
    assert "-1/1 * {2} (x) {1}" in out


def test_coproduct_ordered():
    rc, out = run(["coproduct", "--input", "1 e e*", "--ordered"])
    assert rc == 0
    assert "-1 * (2) (x) (1)" in out


def test_antipode_output():
    rc, out = run(["antipode", "--input", "1 e e*"])
    assert rc == 0
    assert out == "-1 * {1 e e*}\n-1 * {1}{2}\n"


def test_cobracket_or_zero_on_loop(tmp_path):
    qfile = tmp_path / "loop.json"
    qfile.write_text(
        json.dumps(
            {"vertices": ["v"], "edges": [{"id": "a", "source": "v", "target": "v"}]}
        )
    )
    rc, out = run(["cobracket", "--kind", "or", "--quiver", str(qfile), "--input", "[a a*]"])
    assert rc == 0
    assert out == "0\n"


def test_cobracket_p_rt():
    rc, out = run(["cobracket", "--kind", "p-rt", "--input", "1 e e*"])
    assert rc == 0
    assert out == "-1 * 2 (x) 1\n"


def test_chords_listing():
    rc, out = run(["chords", "--path", "1 e e* e e*", "--with-signs"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 7
    assert lines[0].startswith("()  eps=1  ord=0")
    rc, out = run(["chords", "--path", "1 e e* e e*", "--simple"])
    assert len(out.strip().split("\n")) == 6


def test_dualtree_output():
    rc, out = run(["dualtree", "--path", "1 e e* e e*", "--cut", "(1,4),(2,3)"])
    assert rc == 0
    assert out.startswith("eps=-1\n")
    tree = json.loads(out.split("\n")[1])
    assert tree["label"] == "1"
    assert tree["children"][0]["orient"] == "out"
    assert tree["children"][0]["node"]["children"][0]["orient"] == "in"


@pytest.mark.parametrize(
    "argv",
    [
        ["chords", "--path", "1 e e* e e*", "--with-signs"],
        ["dualtree", "--path", "1 e e* e e*", "--cut", "(1,4),(2,3)"],
    ],
)
def test_signs_follow_format(argv):
    # eps=-1 is a scalar: structured output prints it as num/den.
    rc, out = run(argv + ["--format", "structured"])
    assert rc == 0 and "eps=-1/1" in out
    rc, out = run(argv)
    assert rc == 0 and "eps=-1" in out and "eps=-1/1" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--law", "prelie", "--max-len", "2"],
        ["bridge", "--instance", "paths", "--max-degree", "3"],
    ],
)
def test_format_is_not_offered_where_nothing_prints_scalars(argv, capsys):
    assert run(argv)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "structured"], out=io.StringIO())
    assert exc.value.code == 2
    assert "unrecognized arguments: --format structured" in capsys.readouterr().err


def test_eta_output():
    rc, out = run(["eta", "--input", "1 e e*"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert any(line.startswith("-1 * ") for line in lines)
    rc2, out2 = run(["eta", "--input", "[e e*]"])
    assert rc2 == 0
    assert all(line.startswith("1 * ") for line in out2.strip().split("\n"))
    rc3, out3 = run(["eta", "--input", "[e e*]", "--sign-convention", "signed"])
    assert any(line.startswith("-1 * ") for line in out3.strip().split("\n"))


def test_bridge_compare():
    rc, out = run(["bridge", "--instance", "paths", "--max-degree", "8", "--compare"])
    assert rc == 0
    assert "layer 2: 16 terms" in out
    assert "integral coefficients: yes" in out
    assert "PASS layered vs direct coproduct (14 elements)" in out


def test_bridge_instance_choices_are_the_table():
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    option = next(a for a in commands.choices["bridge"]._actions if a.dest == "instance")
    assert tuple(option.choices) == tuple(instance_table())


def test_verify_choices_are_the_law_groups():
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    options = {a.dest: a.choices for a in commands.choices["verify"]._actions}
    law, theorem = set(options["law"]), set(options["theorem"])
    assert law.isdisjoint(theorem)
    assert law | theorem == {g for entry in LAWS for g in entry.groups}
    for choice in law | theorem:
        assert any(choice in entry.groups for entry in LAWS), choice


def test_bridge_below_least_degree_rejected_paths(capsys):
    # Paths have degree >= 2: degree 1 has no basis element to reconstruct.
    rc, out = run(["bridge", "--instance", "paths", "--max-degree", "1", "--compare"])
    assert (rc, out) == (2, "")
    assert "below 2, the least degree of the paths instance" in capsys.readouterr().err


def test_bridge_below_least_degree_rejected_trees(capsys):
    rc, out = run(["bridge", "--instance", "trees", "--max-degree", "0", "--compare"])
    assert (rc, out) == (2, "")
    assert "below 1, the least degree of the trees instance" in capsys.readouterr().err


def test_bridge_rejects_a_coaxiom_breaking_map(tmp_path, monkeypatch, capsys):
    # The reconstruction is the bridge's only coaxiom check: a pre-Lie map
    # that breaks the coaxiom has no layer 2, and the run is an error.
    def negated(x):
        terms = delta_p_rt(x).terms()
        if terms:
            terms[0] = (terms[0][0], -terms[0][1])
        return Tensor(2, terms)

    monkeypatch.setattr(bridge, "delta_p_rt", negated)
    qfile = tmp_path / "loop_edge.json"
    qfile.write_text(json.dumps(quiver_to_dict(FAMILY["loop_edge"])))
    argv = ["bridge", "--quiver", str(qfile), "--instance", "paths", "--max-degree", "6"]
    assert run(argv + ["--compare"]) == (2, "")
    assert "at v a a* e e*: layer 2 defect" in capsys.readouterr().err


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TWO_LOOPS = os.path.join(ROOT, "quivers", "two_loops.json")


@pytest.mark.parametrize("instance", ["paths", "trees"])
def test_bridge_golden_output(instance):
    # Captured before the bridge recursion memoized its coproducts.
    with open(os.path.join(ROOT, "tests", "golden", "bridge_%s_two_loops_6.txt" % instance)) as f:
        golden = f.read()
    quiver = os.path.join(ROOT, "quivers", "two_loops.json")
    argv = ["bridge", "--quiver", quiver, "--instance", instance, "--max-degree", "6", "--compare"]
    assert run(argv) == (0, golden)


# Monomial and Word constructions in one verify run on two_loops at
# --max-len 3: 2,130 (antipode) and 1,575 (coassoc). A product with the unit
# and the coproduct or image of a one-factor monomial build no new monomial,
# a generator coproduct builds its unit once, and the antipode sweep reverses
# no one-factor monomial; without the last two, 2,747 and 1,813, and from
# there rebuilding unit products made 3,493 and 1,813, folding cop_free from
# 1 (x) 1 made 3,501 and 2,289, and both, 8,572 and 3,689.
CONSTRUCTION_BOUNDS = {"antipode": 2300, "coassoc": 1700}


@pytest.mark.parametrize("theorem", sorted(CONSTRUCTION_BOUNDS))
def test_verify_builds_few_monomials(monkeypatch, theorem):
    built = [0]
    for kind in (Monomial, Word):
        def counting(self, factors=(), _init=kind.__init__):
            built[0] += 1
            _init(self, factors)

        monkeypatch.setattr(kind, "__init__", counting)
    rc, out = run(["verify", "--quiver", TWO_LOOPS, "--max-len", "3", "--theorem", theorem])
    assert rc == 0 and "PASS" in out
    assert 0 < built[0] <= CONSTRUCTION_BOUNDS[theorem]


# Tensor.permute calls in one passing verify run on two_loops at --max-len 3.
# Each Lie and pre-Lie law reads its permuted sums off the terms and builds
# them only for a witness; building them for every element made 696 (lie)
# and 273 (prelie).
@pytest.mark.parametrize("law", ["lie", "prelie"])
def test_passing_lie_laws_build_no_permuted_tensor(monkeypatch, law):
    calls = [0]
    original = Tensor.permute

    def counting(self, images):
        calls[0] += 1
        return original(self, images)

    monkeypatch.setattr(Tensor, "permute", counting)
    rc, out = run(["verify", "--quiver", TWO_LOOPS, "--max-len", "3", "--law", law])
    assert rc == 0 and out.count("PASS") == (4 if law == "lie" else 3)
    assert calls[0] == 0


# A nested two_loops word: (1,4) encloses (2,3), and (5,6) sits beside it.
NESTED_WORD = "v a b b* a* a a*"

GOLDEN_SURGERY = [
    ("chords_signs_two_loops", ["chords", "--path", NESTED_WORD, "--with-signs"]),
    ("chords_simple_two_loops", ["chords", "--path", NESTED_WORD, "--simple"]),
    ("coproduct_two_loops", ["coproduct", "--input", NESTED_WORD]),
    ("coproduct_ordered_two_loops", ["coproduct", "--input", NESTED_WORD, "--ordered"]),
    ("dualtree_two_loops", ["dualtree", "--path", NESTED_WORD, "--cut", "(1,4)(2,3)(5,6)"]),
]


@pytest.mark.parametrize("name, argv", GOLDEN_SURGERY)
def test_surgery_golden_output(name, argv):
    # Captured before the cut surgery became one pass.
    with open(os.path.join(ROOT, "tests", "golden", name + ".txt")) as f:
        golden = f.read()
    quiver = os.path.join(ROOT, "quivers", "two_loops.json")
    assert run(argv + ["--quiver", quiver]) == (0, golden)


# Commands that print coefficients, on a two_loops word with two chords and its
# necklace; captured while coefficients were still Fractions.
COEFF_WORD = "v a b b* a*"
GOLDEN_COEFFICIENTS = [
    ("eta_path_two_loops", ["eta", "--input", COEFF_WORD]),
    ("eta_necklace_unsigned_two_loops",
     ["eta", "--input", "[a b b* a*]", "--sign-convention", "unsigned"]),
    ("eta_necklace_signed_two_loops",
     ["eta", "--input", "[a b b* a*]", "--sign-convention", "signed"]),
    ("antipode_two_loops", ["antipode", "--input", COEFF_WORD]),
    ("cobracket_or_two_loops", ["cobracket", "--kind", "or", "--input", "[a b b* a*]"]),
    ("cobracket_p_rt_two_loops", ["cobracket", "--kind", "p-rt", "--input", COEFF_WORD]),
    ("cobracket_rt_two_loops", ["cobracket", "--kind", "rt", "--input", COEFF_WORD]),
]


@pytest.mark.parametrize("fmt", ["pretty", "structured"])
@pytest.mark.parametrize("name, argv", GOLDEN_COEFFICIENTS)
def test_coefficient_golden_output(name, argv, fmt):
    with open(os.path.join(ROOT, "tests", "golden", "%s_%s.txt" % (name, fmt))) as f:
        golden = f.read()
    assert run(argv + ["--quiver", TWO_LOOPS, "--format", fmt]) == (0, golden)


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"vertices": ["1"]},
        {"vertices": "12", "edges": []},
        {"vertices": [1, 2], "edges": []},
        {"vertices": ["1", "2"], "edges": {"e": ["1", "2"]}},
        {"vertices": ["1", "2"], "edges": ["e"]},
        {"vertices": ["1", "2"], "edges": [{"id": "e", "source": "1"}]},
        {"vertices": ["1", "2"], "edges": [{"id": 5, "source": "1", "target": "2"}]},
        {"vertices": ["1", "2"], "edges": [{"id": "e", "source": 1, "target": "2"}]},
        {"vertices": ["1", "2"], "edges": [{"id": "e", "source": "1", "target": 2}]},
    ],
)
def test_malformed_quiver_json_rejected(data, tmp_path, capsys):
    qfile = tmp_path / "bad.json"
    qfile.write_text(json.dumps(data))
    assert run(["coproduct", "--quiver", str(qfile), "--input", "1"]) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["bridge", "--instance", "trees", "--max-degree", "3"],
        ["bridge", "--instance", "paths", "--max-degree", "3"],
        ["verify", "--theorem", "1", "--max-len", "2"],
    ],
)
def test_empty_quiver_rejected(argv, tmp_path, capsys):
    qfile = tmp_path / "empty.json"
    qfile.write_text(json.dumps({"vertices": [], "edges": []}))
    assert run(argv + ["--quiver", str(qfile)]) == (2, "")
    err = capsys.readouterr().err
    assert err == "error: a quiver needs at least one vertex\n"


def test_verify_with_no_law_selected_is_a_usage_error(capsys):
    assert run(["verify", "--max-len", "2"]) == (2, "")
    assert capsys.readouterr().err == "error: nothing to verify: pass --law or --theorem\n"


def test_verify_laws_pass():
    for law in ("prelie", "lie"):
        rc, out = run(["verify", "--law", law, "--max-len", "4"])
        assert rc == 0, out
        assert "FAIL" not in out


def test_verify_theorems_pass():
    for theorem in ("1", "2", "coassoc", "antipode", "antipode-formula", "injective"):
        rc, out = run(["verify", "--theorem", theorem, "--max-len", "4"])
        assert rc == 0, (theorem, out)
        for line in out.split("\n"):
            if line and not line.startswith("note:"):
                assert line.startswith("PASS"), line


def test_verify_signed_convention_fails_with_witness():
    rc, out = run(
        ["verify", "--theorem", "2", "--max-len", "4", "--sign-convention", "signed"]
    )
    assert rc == 1
    assert "FAIL D_or Lie morphism (signed): witness" in out
    # And the note records that the unsigned convention does pass.
    assert "note: PASS D_or Lie morphism (unsigned)" in out


def test_parse_error_exit_code(capsys):
    rc = main(["coproduct", "--input", "1 e e"])
    assert rc == 2
    assert "token 3" in capsys.readouterr().err


def test_necklace_parse_error_names_the_typed_token(capsys):
    rc = main(["cobracket", "--kind", "or", "--input", "[a x]", "--quiver", TWO_LOOPS])
    assert rc == 2
    assert "token 2" in capsys.readouterr().err


def test_unknown_quiver_file(capsys):
    rc = main(["coproduct", "--input", "1 e", "--quiver", "/nonexistent.json"])
    assert rc == 2


def test_deterministic_output():
    argvs = [
        ["coproduct", "--input", "1 e e* e e*", "--format", "structured"],
        ["chords", "--path", "1 e e* e e*", "--with-signs"],
        ["eta", "--input", "[e e*]"],
        ["verify", "--theorem", "2", "--max-len", "3"],
        ["bridge", "--instance", "trees", "--max-degree", "5", "--compare"],
    ]
    for argv in argvs:
        rc1, out1 = run(argv)
        rc2, out2 = run(argv)
        assert (rc1, out1) == (rc2, out2)
        assert out1.encode() == out2.encode()


def test_trivial_path_input():
    rc, out = run(["coproduct", "--input", "1"])
    assert rc == 0
    assert out == "1 * 1 (x) {1}\n1 * {1} (x) 1\n"
    rc, out = run(["antipode", "--input", "2"])
    assert rc == 0
    assert out == "-1 * {2}\n"


def test_dualtree_rejects_unbalanced_cut(capsys):
    rc, out = run(["dualtree", "--path", "1 e e*", "--cut", "(1,2"])
    assert (rc, out) == (2, "")
    assert "bad cut" in capsys.readouterr().err
    assert run(["dualtree", "--path", "1 e e* e e*", "--cut", "(1,4) (2,3)"])[0] == 0


@pytest.mark.parametrize(
    "cut, err",
    [
        ("(1,3)", "error: cut pair (1,3) joins e and e, which are not mutual reverses\n"),
        ("(1,6)", "error: cut pair (1,6) out of range for a word of length 4\n"),
    ],
)
def test_dualtree_rejects_cut_that_does_not_fit_the_word(cut, err, capsys):
    assert run(["dualtree", "--path", "1 e e* e e*", "--cut", cut]) == (2, "")
    assert capsys.readouterr().err == err


def test_dualtree_rejects_crossing_cut(capsys):
    assert run(["dualtree", "--path", "1 e e* e e*", "--cut", "(1,3),(2,4)"]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cross" in err


LOOP = os.path.join(ROOT, "quivers", "loop.json")
LONG = " ".join(["a"] * 1200)


@pytest.mark.parametrize(
    "argv, expect",
    [
        (["coproduct", "--input", "v " + LONG], "1 * 1 (x) {v %s}\n1 * {v %s} (x) 1\n" % (LONG, LONG)),
        (["antipode", "--input", "v " + LONG], "-1 * {v %s}\n" % LONG),
        (["eta", "--input", "v " + LONG], '1 * {"children":[],"label":"v %s"}\n' % LONG),
        (["eta", "--input", "[%s]" % LONG], '1 * {"children":[],"label":"[%s]"}\n' % LONG),
        (["chords", "--path", "v " + LONG], "()  ord=0  outer=v %s\n" % LONG),
    ],
    ids=["coproduct", "antipode", "eta-path", "eta-necklace", "chords"],
)
def test_a_long_word_without_chords_is_not_walked_letter_by_letter(argv, expect):
    # 1,200 letters and only the empty cut: the cut walk recurses once per
    # chord of a cut, not once per letter, so the recursion limit is no bound.
    assert run(argv + ["--quiver", LOOP]) == (0, expect)


@pytest.mark.parametrize(
    "content",
    [b"[" * 100000 + b"]" * 100000, b"{", b"\xff\xfe{"],
    ids=["nested-past-the-recursion-limit", "unclosed-object", "invalid-utf-8"],
)
def test_unreadable_quiver_file_rejected(content, tmp_path, capsys):
    qfile = tmp_path / "bad.json"
    qfile.write_bytes(content)
    assert run(["coproduct", "--quiver", str(qfile), "--input", "1"]) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


def test_dualtree_nested_past_the_recursion_limit_rejected(capsys):
    # 400 nested chords: the dual tree is a 400-edge path, deeper than the
    # tree printer can recurse; nothing reaches stdout, not even eps.
    word = " ".join(["v"] + ["a"] * 400 + ["a*"] * 400)
    cut = ",".join("(%d,%d)" % (i, 801 - i) for i in range(1, 401))
    assert run(["dualtree", "--quiver", LOOP, "--path", word, "--cut", cut]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "recursion" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--law", "prelie", "--max-len", "-3"],
        ["bridge", "--instance", "paths", "--max-degree", "-1"],
    ],
)
def test_negative_sizes_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv, out=io.StringIO())
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_report_with_no_elements_is_not_a_pass():
    rep = Report("pre-Lie coaxiom: rooted trees", 0)
    assert not rep.ok
    assert rep.line() == "FAIL pre-Lie coaxiom: rooted trees: no elements checked"


D_OR_SIGNED = (
    "FAIL D_or Lie morphism (signed): witness [e e*] / (1,2), defect "
    '2 * {"children":[],"label":"[1]"} (x) {"children":[],"label":"[2]"}; '
    '-2 * {"children":[],"label":"[2]"} (x) {"children":[],"label":"[1]"}\n'
)

# Full stdout and exit code of `verify` at --max-len 3: on the built-in quiver
# as printed before the law registry replaced the hand-written sweeps, and the
# antipode formula group on two_loops.
GOLDEN_VERIFY = [
    (
        ["--law", "lie", "--theorem", "2"],
        0,
        "note: " + D_OR_SIGNED
        + "PASS Lie axioms: necklaces (3 elements)\n"
        "PASS Lie axioms: paths (8 elements)\n"
        "PASS Lie axioms: necklace chord diagrams (4 elements)\n"
        "PASS Lie axioms: rooted trees (714 elements)\n"
        "PASS S_rt pre-Lie morphism (8 elements)\n"
        "PASS S_or Lie morphism (3 elements)\n"
        "PASS D_rt pre-Lie morphism (14 elements)\n"
        "PASS D_or Lie morphism (unsigned) (4 elements)\n"
        "PASS S_rt Hopf morphism (8 elements)\n"
        "PASS D_rt Hopf morphism (14 elements)\n",
    ),
    (
        ["--law", "prelie", "--theorem", "coassoc"],
        0,
        "PASS pre-Lie coaxiom: paths (8 elements)\n"
        "PASS pre-Lie coaxiom: path chord diagrams (14 elements)\n"
        "PASS pre-Lie coaxiom: rooted trees (714 elements)\n"
        "PASS coassociativity: direct, formula, and flipped (8 elements)\n"
        "PASS coassociativity: ordered coproduct (8 elements)\n",
    ),
    (
        ["--theorem", "1"],
        0,
        "PASS eta_rt pre-Lie coalgebra morphism (8 elements)\n"
        "PASS eta_or Lie coalgebra morphism (unsigned) (3 elements)\n"
        "PASS eta_rt Hopf morphism (8 elements)\n"
        "PASS eta_rt injectivity (8 elements)\n"
        "PASS eta_or injectivity (3 elements)\n",
    ),
    (
        ["--theorem", "antipode"],
        0,
        "PASS antipode axiom: paths (8 elements)\n"
        "PASS antipode axiom: chord diagrams (14 elements)\n"
        "PASS antipode axiom: ordered paths (8 elements)\n",
    ),
    (
        ["--theorem", "injective"],
        0,
        "PASS eta_rt injectivity (8 elements)\n"
        "PASS eta_or injectivity (3 elements)\n",
    ),
    (
        ["--theorem", "2", "--sign-convention", "signed"],
        1,
        "note: PASS D_or Lie morphism (unsigned) (4 elements)\n"
        "PASS S_rt pre-Lie morphism (8 elements)\n"
        "PASS S_or Lie morphism (3 elements)\n"
        "PASS D_rt pre-Lie morphism (14 elements)\n"
        + D_OR_SIGNED
        + "PASS S_rt Hopf morphism (8 elements)\n"
        "PASS D_rt Hopf morphism (14 elements)\n",
    ),
    (
        ["--theorem", "antipode-formula", "--quiver", TWO_LOOPS],
        0,
        "PASS antipode cut-forest formula: paths (85 elements)\n",
    ),
]


@pytest.mark.parametrize("argv, rc, stdout", GOLDEN_VERIFY)
def test_verify_golden_output(argv, rc, stdout):
    assert run(["verify"] + argv + ["--max-len", "3"]) == (rc, stdout)


LAW_STATS = re.compile(r'^stats: law "(.+)": (\d+) elements, \d+\.\d{3} s$')
MAP_STATS = re.compile(
    r'^stats: map (.+): (\d+) calls, (\d+) distinct, repeat share \d\.\d\d, released after "(.+)"$'
)


@pytest.mark.parametrize("argv, rc, stdout", GOLDEN_VERIFY)
def test_verify_stats_go_to_stderr_only(argv, rc, stdout, capsys):
    argv = ["verify"] + argv + ["--max-len", "3"]
    assert run(argv) == (rc, stdout)
    assert capsys.readouterr().err == ""
    assert run(argv + ["--stats"]) == (rc, stdout)
    err = capsys.readouterr().err.splitlines()
    sign = "signed" if "signed" in argv else "unsigned"
    laws = [law for law in LAWS if set(argv) & set(law.groups)]
    law_lines = [LAW_STATS.match(line) for line in err if LAW_STATS.match(line)]
    map_lines = [MAP_STATS.match(line) for line in err if MAP_STATS.match(line)]
    assert len(law_lines) + len(map_lines) == len(err)
    assert [m.group(1) for m in law_lines] == [law.title(sign) for law in laws]
    # One line per map key, released after the last law that names it.
    last = {key: law.title(sign) for law in laws for key in law.keys(sign)}
    assert sorted((m.group(1), m.group(4)) for m in map_lines) == sorted(
        ("%s (%s)" % key if key[1] else key[0], title) for key, title in last.items()
    )
    assert all(int(m.group(2)) >= int(m.group(3)) > 0 for m in map_lines)


def test_verify_enumerates_each_sample_once(monkeypatch):
    calls = {"path_diagrams": 0, "necklace_diagrams": 0}

    def counting(name):
        original = getattr(cuts, name)

        def wrapper(q, n):
            calls[name] += 1
            return original(q, n)

        monkeypatch.setattr(cuts, name, wrapper)

    counting("path_diagrams")
    counting("necklace_diagrams")
    rc, out = run(["verify", "--theorem", "2", "--max-len", "3"])
    assert rc == 0, out
    assert calls == {"path_diagrams": 1, "necklace_diagrams": 1}


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_coassoc_expands_each_path_once_per_defect(monkeypatch):
    calls = count_calls(monkeypatch, hopf, "path_coproduct")
    argv = ["verify", "--theorem", "coassoc", "--max-len", "3", "--quiver", TWO_LOOPS]
    assert run(argv) == (
        0,
        "PASS coassociativity: direct, formula, and flipped (85 elements)\n"
        "PASS coassociativity: ordered coproduct (85 elements)\n",
    )
    # 85 paths, each expanded once in its own defect, plus the components of
    # each once per defect (323 when every defect expanded its path 3 times).
    assert len(calls) == 153


ANTIPODE_PASS = (
    "PASS antipode axiom: paths (85 elements)\n"
    "PASS antipode axiom: chord diagrams (137 elements)\n"
    "PASS antipode axiom: ordered paths (85 elements)\n"
)


def test_antipode_sweep_computes_each_series_once(monkeypatch):
    calls = count_calls(monkeypatch, symalg, "antipode_free")
    argv = ["verify", "--theorem", "antipode", "--max-len", "3", "--quiver", TWO_LOOPS]
    counts = []
    for _ in range(2):
        del calls[:]
        assert run(argv) == (0, ANTIPODE_PASS)
        counts.append(len(calls))
    # One series per distinct (law, generator); a second run repeats them all,
    # so no memo outlives its sweep (532 calls without the memo).
    assert counts == [307, 307]
    per_law = {}
    for args in calls:
        per_law.setdefault(args[0], []).append(args[1])
    assert all(len(ms) == len(set(ms)) for ms in per_law.values())


def test_antipode_sweep_expands_each_generator_once(monkeypatch):
    """One generator-coproduct memo per sweep, shared by series and defect."""
    maps = {"path_coproduct": hopf, "nc_coproduct": hopf, "chord_coproduct": cuts}
    calls = {name: count_calls(monkeypatch, module, name) for name, module in maps.items()}
    argv = ["verify", "--theorem", "antipode", "--max-len", "3", "--quiver", TWO_LOOPS]
    for _ in range(2):
        for seen in calls.values():
            del seen[:]
        assert run(argv) == (0, ANTIPODE_PASS)
        # One call per distinct input, and a second run repeats them all, so
        # no memo outlives its sweep (214, 214 and 326 calls without it).
        counts = {name: (len(seen), len(set(seen))) for name, seen in calls.items()}
        assert counts == {
            "path_coproduct": (85, 85),
            "nc_coproduct": (85, 85),
            "chord_coproduct": (137, 137),
        }


def test_antipode_formula_law_reports_the_smallest_witness(monkeypatch):
    """A cut-forest sum whose graft drops the inner components fails the
    series comparison, first at the two-letter path."""
    monkeypatch.setattr(hopf, "_forest", lambda outer, kids: Monomial((outer,)))
    assert run(["verify", "--theorem", "antipode-formula", "--max-len", "3"]) == (
        1,
        "FAIL antipode cut-forest formula: paths: witness 1 e e*, defect -1 * {1}; 1 * {1}{2}\n",
    )


def readme_commands():
    """Every `quiverhopf ...` line of the sh block under README's "Command line"."""
    with open(os.path.join(ROOT, "README.md")) as f:
        text = f.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("quiverhopf ")]
    return [shlex.split(line, comments=True)[1:] for line in lines]


def readme_layout():
    """(module, backticked names) for each row of README's "Library layout" table."""
    with open(os.path.join(ROOT, "README.md")) as f:
        text = f.read()
    table = text.split("## Library layout", 1)[1].split("\n\n", 2)[1]
    rows = [re.fullmatch(r"\| `([\w.]+)` \| (.*) \|", line) for line in table.splitlines()[2:]]
    return [(row[1], re.findall(r"`([^`]+)`", row[2])) for row in rows]


def test_readme_layout_names_resolve():
    """Every name the layout table lists is an attribute of its row's module
    (dotted names such as `Cut.parents` included), except the cli row's
    entry point, which must be the script of that name in pyproject.toml."""
    import tomllib

    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    rows = readme_layout()
    assert len(rows) == 11
    for module, names in rows:
        assert names, module
        for name in names:
            if (module, name) == ("quiverhopf.cli", "quiverhopf"):
                target, _, name = scripts[name].partition(":")
                assert target == module
            obj = importlib.import_module(module)
            for part in name.split("."):
                assert hasattr(obj, part), (module, name)
                obj = getattr(obj, part)


def test_readme_command_lines_run():
    """The documented commands still parse and succeed."""
    commands = readme_commands()
    assert len(commands) == 17
    for argv in commands:
        assert run(argv)[0] == 0, argv
