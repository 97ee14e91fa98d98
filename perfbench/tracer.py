"""Span tracing of quiverhopf from outside the library.

`Tracer.install` wraps the public names of every layer module in place:
module-level functions are rebound in every ``quiverhopf.*`` namespace that
holds them, and methods are replaced on their class, so calls between
modules, recursive calls and calls through the package namespace all pass
through a wrapper. Nothing under ``src/`` is edited.

A wrapper records a span (name, start, end, parent span, op id) only while
an op is in flight (``Tracer.op`` is set), so the benchmark's own input
generation and output checks leave no trace. Self time is accumulated online
per name: a span's duration minus the durations of its direct children.
Raw spans are kept in compact arrays while ``Tracer.keep`` is true (the
benchmark keeps the first traced pass) and written out at the end.

Arithmetic dunders and constructors of `quiverhopf.linear` are counted
only: they run millions of times, and a span each would cost more than the
work it measures. Their time therefore lands in the caller's self time.
Comparison and hashing dunders are not wrapped at all.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

MODULES = (
    "linear",
    "quiver",
    "cobrackets",
    "cuts",
    "trees",
    "dual",
    "hopf",
    "symalg",
    "bridge",
    "verify",
    "cli",
)

LINEAR_COUNTED = ("__init__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__")

# Count-only private name: one call per root/rotation candidate of an OrientedTree.
SERIALIZE = "trees.OrientedTree._serialize"

# Maps a memo cache could key on: name -> index of the keyed positional argument.
REPEAT_TRACKED = {
    "trees.rho": 0,
    "symalg.cop_free": 1,
    "hopf.path_coproduct": 0,
    "cobrackets.delta_p_rt": 0,
    "cobrackets.delta_or": 0,
}

# Cap on kept raw spans (about 44 bytes each in memory, 60 in the JSON file).
MAX_KEPT_SPANS = 250_000


class Tracer:
    """Tracing state for one process: create, `install`, then bracket ops."""

    def __init__(self):
        self.names: list = []
        self.name_module: list = []
        self.calls: list = []
        self.self_s: list = []
        self.op = None
        self.keep = False
        self.spans_total = 0
        self.spans_dropped = 0
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.counters = {
            "add_terms_copied": 0,
            "necklace_rotations": 0,
            "paths_enumerated": 0,
            "simple_cuts_returned": 0,
            "simple_cuts_built": 0,
            "layers_built": 0,
            "elements_checked": 0,
        }
        self.repeats = {name: [0, 0] for name in REPEAT_TRACKED}  # [calls, repeats]
        self._seen = {name: set() for name in REPEAT_TRACKED}
        self._pinned: list = []
        self._stack: list = []  # frames: [children duration, span id, name index]
        self._index: dict = {}
        self._restore: list = []

    # -- op boundaries ------------------------------------------------------

    def start_op(self, op_id: int) -> None:
        """Open op `op_id`; repeat shares are measured within one op."""
        for seen in self._seen.values():
            seen.clear()
        self._pinned.clear()
        self.op = op_id

    def end_op(self) -> None:
        self.op = None

    def snapshot(self) -> dict:
        """Cumulative totals, for per-pass differences."""
        return {
            "calls": list(self.calls),
            "self_s": list(self.self_s),
            "counters": dict(self.counters),
            "repeats": {k: list(v) for k, v in self.repeats.items()},
        }

    # -- installation -------------------------------------------------------

    def index(self, qual: str) -> int:
        return self._index[qual]

    def install(self) -> None:
        """Wrap every layer module's public names (once per process)."""
        package = importlib.import_module("quiverhopf")
        mods = {m: importlib.import_module("quiverhopf." + m) for m in MODULES}
        namespaces = [package] + list(mods.values())
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = "%s.%s" % (short, attr)
                if inspect.isfunction(obj):
                    wrapped = self._span_wrapper(obj, self._name(qual, short), qual)
                    for ns in namespaces:
                        for k, v in list(vars(ns).items()):
                            if v is obj:
                                self._set(ns, k, wrapped, v)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, qual, short)

    def uninstall(self) -> None:
        """Put every original back."""
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def _name(self, qual: str, module: str) -> int:
        self._index[qual] = len(self.names)
        self.names.append(qual)
        self.name_module.append(module)
        self.calls.append(0)
        self.self_s.append(0.0)
        return self._index[qual]

    def _set(self, target, attr, new, old) -> None:
        self._restore.append((target, attr, old))
        setattr(target, attr, new)

    def _wrap_class(self, cls, qual: str, short: str) -> None:
        for attr, raw in list(vars(cls).items()):
            name = "%s.%s" % (qual, attr)
            counted = (short == "linear" and attr in LINEAR_COUNTED) or name == SERIALIZE
            if attr.startswith("_") and attr != "__init__" and not counted:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn, rewrap = raw.__func__, type(raw)
            elif inspect.isfunction(raw):
                fn, rewrap = raw, None
            else:
                continue
            idx = self._name(name, short)
            if counted:
                new = self._count_wrapper(fn, idx, name)
            else:
                new = self._span_wrapper(fn, idx, name)
            self._set(cls, attr, rewrap(new) if rewrap else new, raw)

    # -- wrappers -----------------------------------------------------------

    def _count_wrapper(self, fn, idx: int, qual: str):
        tracer = self
        calls = self.calls
        if qual.endswith(("__add__", "__sub__")):
            counters = self.counters

            @functools.wraps(fn)
            def counted_add(a, b):
                if tracer.op is not None:
                    calls[idx] += 1
                    counters["add_terms_copied"] += len(a._terms)
                return fn(a, b)

            return counted_add

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.op is not None:
                calls[idx] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, fn, idx: int, qual: str):
        tracer = self
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        before, after = self._hooks(qual)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            calls[idx] += 1
            state = before(args, kwargs) if before else None
            sid = tracer.spans_total
            tracer.spans_total += 1
            parent = stack[-1] if stack else None
            frame = [0.0, sid, idx]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[idx] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if tracer.keep and len(tracer.span_id) < MAX_KEPT_SPANS:
                    tracer.span_id.append(sid)
                    tracer.span_name.append(idx)
                    tracer.span_start.append(t0)
                    tracer.span_end.append(t1)
                    tracer.span_parent.append(parent[1] if parent is not None else -1)
                    tracer.span_op.append(tracer.op)
                elif tracer.keep:
                    tracer.spans_dropped += 1
            if after:
                after(state, args, kwargs, result)
            return result

        return span

    # -- per-name counters --------------------------------------------------

    def _hooks(self, qual: str):
        """(before, after) callbacks that maintain the named layer counters."""
        counters = self.counters
        calls = self.calls

        if qual in REPEAT_TRACKED:
            pos = REPEAT_TRACKED[qual]
            tally = self.repeats[qual]
            seen = self._seen[qual]
            pinned = self._pinned

            def before(args, kwargs):
                x = args[pos]
                key = x.skey
                if pos:  # cop_free: the generator coproduct is part of the key
                    pinned.append(args[0])
                    key = (id(args[0]), key)
                tally[0] += 1
                if key in seen:
                    tally[1] += 1
                else:
                    seen.add(key)

            return before, None

        if qual == "cuts.enumerate_cuts":
            def before(args, kwargs):
                return calls[self.index("cuts.Cut.__init__")]

            def after(built_before, args, kwargs, result):
                simple = args[1] if len(args) > 1 else kwargs.get("simple_only", False)
                if simple:
                    counters["simple_cuts_returned"] += len(result)
                    counters["simple_cuts_built"] += (
                        calls[self.index("cuts.Cut.__init__")] - built_before
                    )

            return before, after

        if qual == "quiver.all_paths":
            def after(state, args, kwargs, result):
                counters["paths_enumerated"] += len(result)

            return None, after

        if qual == "quiver.rotate":
            necklace_init = []
            stack = self._stack

            def before(args, kwargs):
                if not necklace_init:
                    necklace_init.append(self.index("quiver.Necklace.__init__"))
                if stack and stack[-1][2] == necklace_init[0]:
                    counters["necklace_rotations"] += 1

            return before, None

        if qual == "bridge.reconstruct_coproduct":
            def after(state, args, kwargs, result):
                counters["layers_built"] += sum(len(d) for d in result.layers.values())

            return None, after

        if qual == "verify.Report.__init__":
            def after(state, args, kwargs, result):
                checked = args[2] if len(args) > 2 else kwargs["checked"]
                counters["elements_checked"] += checked

            return None, after

        return None, None


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith(("_share", "_yield", "_per_diagram", "_per_necklace", "_per_build")):
        return "ratio"
    return "count"


def layer_metrics(tracer: Tracer, start: dict, end: dict) -> dict:
    """Per-layer figures for the work done between two snapshots."""
    calls = [b - a for a, b in zip(start["calls"], end["calls"])]
    self_s = [b - a for a, b in zip(start["self_s"], end["self_s"])]
    counters = {k: end["counters"][k] - start["counters"][k] for k in end["counters"]}
    out = {}
    for mod in MODULES:
        members = [i for i, m in enumerate(tracer.name_module) if m == mod]
        out[mod + ".calls"] = sum(calls[i] for i in members)
        out[mod + ".self_s"] = sum(self_s[i] for i in members)

    def n(qual):
        return calls[tracer.index(qual)]

    def ratio(num, den):
        return num / den if den else 0.0

    out["linear.add_calls"] = sum(
        n("linear.%s.%s" % (cls, op))
        for cls in ("LinComb", "Tensor")
        for op in ("__add__", "__sub__")
    )
    out["linear.add_terms_copied"] = counters["add_terms_copied"]
    out["linear.slot_expand_calls"] = n("linear.Tensor.slot_expand")
    out["linear.permute_calls"] = n("linear.Tensor.permute")
    out["cuts.cuts_built"] = n("cuts.Cut.__init__")
    out["cuts.simple_yield"] = ratio(
        counters["simple_cuts_returned"], counters["simple_cuts_built"]
    )
    out["cuts.validate_per_diagram"] = ratio(
        n("cuts.validate_cut"),
        n("cuts.PathDiagram.__init__") + n("cuts.NecklaceDiagram.__init__"),
    )
    out["quiver.paths_enumerated"] = counters["paths_enumerated"]
    out["quiver.rotations_per_necklace"] = ratio(
        counters["necklace_rotations"], n("quiver.Necklace.__init__")
    )
    out["trees.ot_candidates_per_build"] = ratio(n(SERIALIZE), n("trees.OrientedTree.__init__"))
    out["trees.rho_calls"] = n("trees.rho")
    out["symalg.cop_free_calls"] = n("symalg.cop_free")
    for qual in REPEAT_TRACKED:
        c0, r0 = start["repeats"][qual]
        c1, r1 = end["repeats"][qual]
        out[qual + "_repeat_share"] = ratio(r1 - r0, c1 - c0)
    out["bridge.layers_built"] = counters["layers_built"]
    out["verify.elements_checked"] = counters["elements_checked"]
    return out
