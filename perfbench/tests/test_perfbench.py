"""Tests of the benchmark itself, at the tiny scale.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import MODULES, Tracer, layer_unit  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def one_pass(ops):
    runner = run.Runner(ops, None)
    runner.run_pass(traced=False)
    return runner


def test_spec_workloads_exist():
    assert {w["name"] for w in spec()["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs_and_digests(name):
    first = one_pass(workloads.build_ops(name, ROOT, 7, "tiny"))
    second = one_pass(workloads.build_ops(name, ROOT, 7, "tiny"))
    assert [op.label for op in first.ops] == [op.label for op in second.ops]
    assert first.first_digests == second.first_digests
    assert first.failed == 0, first.problems


def test_seed_changes_seeded_inputs():
    size = workloads.SIZES["tiny"]
    assert workloads.long_words_inputs(1, size) == workloads.long_words_inputs(1, size)
    assert any(
        workloads.long_words_inputs(1, size) != workloads.long_words_inputs(s, size)
        for s in range(2, 6)
    )
    d1 = one_pass(workloads.build_ops("trees_bridge", ROOT, 1, "tiny")).workload_digest()
    d2 = one_pass(workloads.build_ops("trees_bridge", ROOT, 2, "tiny")).workload_digest()
    assert d1 != d2


def test_relabeling_preserves_cut_counts():
    word = (("a", False), ("b", True), ("a", True), ("b", False), ("a", False), ("a", True))
    counts = workloads.cut_counts(word)
    assert all(workloads.cut_counts(workloads.relabel(word, i)) == counts for i in range(16))


def test_cut_counts_match_library():
    from quiverhopf.cuts import enumerate_cuts
    from quiverhopf.quiver import Path, Quiver

    q = Quiver.load(workloads.quiver_file(ROOT, "two_loops"))
    for word in workloads.word_pool(workloads.SIZES["tiny"]):
        p = Path("v", tuple(q.letter(e, s) for e, s in word))
        assert workloads.cut_counts(word) == (
            len(enumerate_cuts(p)),
            len(enumerate_cuts(p, simple_only=True)),
        )


def test_broken_output_is_a_failed_op():
    ops = workloads.build_ops("long_words", ROOT, 1, "tiny")
    ops[0].call = lambda: ops[1].call()  # wrong map: eta_or where eta_rt is due
    runner = one_pass(ops)
    assert runner.failed == 1 and runner.problems[0].startswith(ops[0].label)


def test_op_times_are_scaled_by_the_calibration_loop():
    ops = workloads.build_ops("law_sweep", ROOT, 1, "tiny")
    runner = run.Runner(ops, None)
    pass_s, scaled = runner.run_pass(traced=False)
    assert len(scaled) == len(runner.raw_latencies) == len(ops)
    assert pass_s == pytest.approx(sum(scaled))
    # The factor is CAL_REF_S over the loop's time now: positive, and the
    # same order of magnitude on any machine that can run the benchmark.
    assert all(0.01 < r / s < 100 for r, s in zip(runner.raw_latencies, scaled))


def test_vacuous_pass_is_a_failed_verdict():
    ok = (0, "PASS pre-Lie coaxiom: paths (3 elements)\n")
    vacuous = (0, "PASS pre-Lie coaxiom: paths (0 elements)\n")
    assert workloads.check_cli_verdicts(ok) == []
    assert workloads.check_cli_verdicts(vacuous)
    assert workloads.check_cli_verdicts(ok, expect_note=True)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_smoke_run_prints_every_end_to_end_metric(name):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", name, "--seed", "3", "--seconds", "0.2",
         "--trace", "0", "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tiny_traced_pass_spans_every_module():
    ops = [
        op
        for name in ("long_words", "trees_bridge", "law_sweep")
        for op in workloads.build_ops(name, ROOT, 1, "tiny")
    ]
    tracer = Tracer()
    runner = run.Runner(ops, None, tracer)
    tracer.install()
    try:
        runner.run_pass(traced=True)
    finally:
        tracer.uninstall()
    layers = runner.layer_passes[0]
    assert runner.failed == 0, runner.problems
    spanned = {tracer.name_module[n] for n in tracer.span_name}
    assert spanned == set(MODULES)
    # Self time of every span: its duration minus its direct children's. Past
    # the cap on kept spans a parent may be missing; its children are skipped.
    child = {}
    start = dict(zip(tracer.span_id, tracer.span_start))
    end = dict(zip(tracer.span_id, tracer.span_end))
    for sid, parent in zip(tracer.span_id, tracer.span_parent):
        if parent in start:
            assert start[parent] <= start[sid] and end[sid] <= end[parent]
            child[parent] = child.get(parent, 0.0) + end[sid] - start[sid]
    for sid in tracer.span_id:
        dur = end[sid] - start[sid]
        assert -1e-9 <= dur - child.get(sid, 0.0) <= dur
    for mod in MODULES:
        assert layers[mod + ".calls"] > 0
        assert 0 <= layers[mod + ".self_s"]
    per_layer = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {name: layer_unit(name) for name in layers} == {
        k: v for k, v in per_layer.items() if k != "trace_overhead"
    }


def test_tracing_leaves_the_library_as_it_was():
    from quiverhopf import hopf, trees

    originals = (hopf.eta_rt, trees.rho, trees.RootedTree.__init__)
    tracer = Tracer()
    tracer.install()
    assert hopf.eta_rt is not originals[0]
    tracer.uninstall()
    assert (hopf.eta_rt, trees.rho, trees.RootedTree.__init__) == originals


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long_words", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
