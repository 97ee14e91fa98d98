"""quiverhopf benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload long_words --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; quiverhopf is imported from ``src/`` there.
Load is a closed loop: one process, one thread, one op in flight. A run
repeats full passes over the workload's ops until ``--seconds`` have been
measured, checks every op's output on every pass, and prints one JSON object
as the last line of stdout.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs untraced
passes for the first part of the time and traced passes for the rest, then
reports the per-layer metrics, prints ``trace_overhead`` and writes the spans
and the layer summary to ``perfbench/out/``. ``--workload all`` runs every
workload, each in a fresh interpreter, and prints one row per workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from tracer import Tracer, layer_metrics, layer_unit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 1
UNTRACED_SHARE = 0.4  # share of a traced run's time spent on untraced passes
CHILD_TIMEOUT_S = 170
# Timings are scaled to a reference machine on which calibrate() takes this long.
CAL_REF_S = 0.004


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is the smoke size of the benchmark's tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="set the workload up, print 'ready' and exit (used to time set-up)")
    p.add_argument("--write-reference", action="store_true",
                   help="record this run's first-pass digests as the reference")
    return p.parse_args(argv)


def import_library():
    """Import quiverhopf from this checkout's src/, or exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "quiverhopf", "__init__.py")):
        print("error: no quiverhopf sources under %s" % SRC, file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import quiverhopf

    if not os.path.abspath(quiverhopf.__file__).startswith(SRC + os.sep):
        print("error: quiverhopf imported from outside %s" % SRC, file=sys.stderr)
        raise SystemExit(2)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def calibrate(n: int = 12000) -> float:
    """Seconds one fixed pure-Python dict loop takes now, with gc off.

    The loop shares no code with quiverhopf, so a change to the library does
    not move it; a change in the machine's speed does."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = {}
        for i in range(n):
            k = (i % 251, i & 7)
            acc[k] = acc.get(k, 0) + i
        return time.perf_counter() - t0
    finally:
        gc.enable()


def load_reference(workload: str, seed: int, scale: str):
    """Reference per-op digests for this run, or None when none apply."""
    import workloads

    if scale != "full" or not os.path.isfile(REFERENCE):
        return None
    if seed != REFERENCE_SEED and workload not in workloads.SEED_FREE:
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get("ops")


class Runner:
    """Times passes over one workload's ops and checks every output."""

    def __init__(self, ops, reference, tracer=None):
        self.ops = ops
        self.reference = reference
        self.tracer = tracer
        self.first_digests = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.layer_passes = []  # per-layer metrics of each traced pass
        self.raw_latencies = []  # unscaled op seconds, every pass

    def run_pass(self, traced: bool):
        """One pass; returns (pass seconds, per-op seconds), both scaled.

        Each op's time is scaled by CAL_REF_S over the mean of the
        calibration loops timed just before and just after it."""
        clock = time.perf_counter
        latencies = []
        digests = []
        cal = [calibrate()]
        gc.collect()
        if traced:
            self.tracer.keep = not self.layer_passes  # raw spans of the first traced pass
            before = self.tracer.snapshot()
        for op_id, op in enumerate(self.ops):
            self.attempted += 1
            if traced:
                self.tracer.start_op(op_id)
            t0 = clock()
            try:
                result, problems = op.call(), []
            except Exception:
                result, problems = None, ["raised:\n" + traceback.format_exc()]
            elapsed = clock() - t0
            if traced:
                self.tracer.end_op()
            cal.append(calibrate())
            latencies.append(elapsed * 2 * CAL_REF_S / (cal[-2] + cal[-1]))
            self.raw_latencies.append(elapsed)
            if result is not None:
                problems += op.check(result)
                d = digest(op.render(result))
                digests.append(d)
                if self.reference is not None and self.reference.get(op.label) != d:
                    problems.append("digest differs from the reference")
                if self.first_digests is not None and self.first_digests[op_id] != d:
                    problems.append("digest differs from the first pass")
            else:
                digests.append(None)
            if problems:
                self.failed += 1
                self.problems.append("%s: %s" % (op.label, "; ".join(problems)))
            del result
        if self.first_digests is None:
            self.first_digests = digests
        if traced:
            self.layer_passes.append(layer_metrics(self.tracer, before, self.tracer.snapshot()))
        return sum(latencies), latencies

    def workload_digest(self) -> str:
        lines = "".join("%s\t%s\n" % (op.label, d) for op, d in zip(self.ops, self.first_digests))
        return digest(lines)


def time_setup(args):
    """Seconds from spawning a fresh interpreter to the end of its set-up:
    (scaled like an op time, raw)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--setup-probe"]
    cal_before = calibrate()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed (exit %s)" % proc.returncode)
    raw = t1 - t0
    return raw * 2 * CAL_REF_S / (cal_before + calibrate()), raw


def emit(runner, metrics: dict) -> None:
    result = {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


def print_header(args, runner) -> None:
    print("workload %s  seed %d  scale %s  python %s  nproc %d"
          % (args.workload, args.seed, args.scale, platform.python_version(), os.cpu_count() or 0))
    match = "none for this seed" if runner.reference is None else "checked"
    print("digest %s %s  (reference: %s)" % (args.workload, runner.workload_digest(), match))
    print("fail_rate %.6g  (%d of %d ops failed)"
          % (runner.failed / max(runner.attempted, 1), runner.failed, runner.attempted))
    for problem in runner.problems[:20]:
        print("FAILED OP " + problem, file=sys.stderr)


def run_until(runner, deadline: float, traced: bool = False, between=None):
    """Run passes until the next one would end after `deadline` (at least one).

    `between()` runs after each pass; its time extends the deadline. Returns
    the pass times and the pooled op latencies."""
    passes, latencies = [], []
    while True:
        t0 = time.perf_counter()
        pass_s, lat = runner.run_pass(traced)
        passes.append(pass_s)
        latencies += lat
        t1 = time.perf_counter()
        if between is not None:
            between()
            deadline += time.perf_counter() - t1
        if t1 + (t1 - t0) > deadline:
            return passes, latencies


def op_medians(latencies, n_ops: int) -> list:
    """Each op's median scaled time over the run's passes (latencies pooled
    in pass order). The op percentiles are taken over these."""
    return [statistics.median(latencies[i::n_ops]) for i in range(n_ops)]


def measure(args, ops, reference) -> int:
    """--trace 0: end-to-end metrics."""
    # One set-up probe after each pass, so the probes sample the same machine
    # conditions as the passes do.
    setup = []
    runner = Runner(ops, reference)
    passes, latencies = run_until(
        runner, time.perf_counter() + args.seconds, between=lambda: setup.append(time_setup(args))
    )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_op = op_medians(latencies, len(ops))
    metrics = {
        "pass_s": {"value": statistics.median(passes), "unit": "s"},
        "op_ms_p50": {"value": 1000 * statistics.median(per_op), "unit": "ms"},
        "op_ms_p90": {"value": 1000 * percentile(per_op, 90), "unit": "ms"},
        "setup_s": {"value": statistics.median(s for s, _ in setup), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    raw = runner.raw_latencies
    n = len(ops)
    raw_passes = [sum(raw[k:k + n]) for k in range(0, len(raw), n)]
    print_header(args, runner)
    print("passes %d  ops timed %d  (%d distinct ops)" % (len(passes), len(latencies), n))
    print("scaled pass times %s" % " ".join("%.4g" % p for p in passes))
    print("unscaled: pass times %s (median %.4g)  pooled op_ms_p50 %.6g  op_ms_p90 %.6g"
          % (" ".join("%.4g" % p for p in raw_passes), statistics.median(raw_passes),
             1000 * statistics.median(raw), 1000 * percentile(raw, 90)))
    print("machine speed (unscaled / scaled time, median over ops) %.4g"
          % statistics.median(r / s for r, s in zip(raw, latencies)))
    print("set-up times scaled %s  unscaled %s" % (" ".join("%.4g" % s for s, _ in setup),
                                                   " ".join("%.4g" % r for _, r in setup)))
    for name, m in metrics.items():
        print("%s %.6g %s" % (name, m["value"], m["unit"]))
    if args.write_reference:
        write_reference(args.workload, args.seed, runner)
    emit(runner, metrics)
    return 0


def trace(args, ops, reference) -> int:
    """--trace 1: per-layer metrics from traced passes, plus the overhead."""
    tracer = Tracer()
    runner = Runner(ops, reference, tracer)
    start = time.perf_counter()
    untraced = statistics.median(run_until(runner, start + UNTRACED_SHARE * args.seconds)[0])
    tracer.install()
    try:
        traced = statistics.median(run_until(runner, start + args.seconds, traced=True)[0])
    finally:
        tracer.keep = False
        tracer.uninstall()
    per_pass = runner.layer_passes
    overhead = traced - untraced
    metrics = {
        name: {"value": statistics.median(p[name] for p in per_pass), "unit": layer_unit(name)}
        for name in per_pass[0]
    }
    metrics["trace_overhead"] = {"value": overhead, "unit": "s"}
    print_header(args, runner)
    print("trace_overhead %.6g s  (traced pass_s %.6g over %d passes, untraced %.6g)"
          % (overhead, traced, len(per_pass), untraced))
    write_trace(args, tracer, ops, metrics)
    emit(runner, metrics)
    return 0


def write_trace(args, tracer, ops, metrics) -> None:
    """Spans of the first traced pass, and the per-layer summary, as JSON."""
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d" % (args.workload, args.seed))
    t0 = tracer.span_start[0] if tracer.span_start else 0.0
    spans = {
        "workload": args.workload,
        "seed": args.seed,
        "names": tracer.names,
        "ops": [op.label for op in ops],
        "columns": ["id", "name", "start_s", "end_s", "parent", "op"],
        "dropped": tracer.spans_dropped,
        "spans": [
            [i, n, round(s - t0, 9), round(e - t0, 9), p, o]
            for i, n, s, e, p, o in zip(tracer.span_id, tracer.span_name, tracer.span_start,
                                        tracer.span_end, tracer.span_parent, tracer.span_op)
        ],
    }
    with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
        json.dump(spans, fh, separators=(",", ":"))
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "metrics": metrics,
        "per_name": [
            {"name": name, "calls": tracer.calls[i], "self_s": tracer.self_s[i]}
            for i, name in enumerate(tracer.names) if tracer.calls[i]
        ],
    }
    with open(stem + "-layers.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print("trace written to %s-{spans,layers}.json" % os.path.relpath(stem, ROOT))


def write_reference(workload: str, seed: int, runner) -> None:
    data = {}
    if os.path.isfile(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            data = json.load(fh)
    data[workload] = {
        "seed": seed,
        "digest": runner.workload_digest(),
        "ops": {op.label: d for op, d in zip(runner.ops, runner.first_digests)},
    }
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(args) -> int:
    """Every workload in its own interpreter; one summary row each."""
    import workloads

    rows, ok = [], True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S + 60)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print()
    metric_names = list(rows[0][1]["metrics"])
    print("workload      " + " ".join("%14s" % m[:14] for m in metric_names + ["fail_rate"]))
    for name, res in rows:
        fail_rate = res["failed"] / res["attempted"]
        ok = ok and res["correct"]
        print("%-13s " % name + " ".join(
            "%14.6g" % res["metrics"][m]["value"] for m in metric_names) + " %14.6g" % fail_rate)
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for _, r in rows),
        "failed": sum(r["failed"] for _, r in rows),
        "metrics": {"%s.%s" % (n, m): v for n, r in rows for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS + ("all",))), file=sys.stderr)
        return 2
    ops = workloads.build_ops(args.workload, ROOT, args.seed, args.scale)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    reference = load_reference(args.workload, args.seed, args.scale)
    return trace(args, ops, reference) if args.trace else measure(args, ops, reference)


if __name__ == "__main__":
    raise SystemExit(main())
