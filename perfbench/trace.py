"""Tracing of the moits layers from outside the package.

A :class:`Tracer` replaces module attributes of ``moits`` with timing
wrappers and puts the originals back on :meth:`Tracer.uninstall`; no
source file changes. Two kinds of wrapper:

* spans, for coarse calls (a solve, a stage, one DE run, one tabu search):
  each call records its name, start, end, parent span and solve id, kept in
  memory and written out when the run ends;
* probes, for hot calls (10^5 to 10^7 per run): an aggregated call count,
  with every ``SAMPLE_EVERY``-th call timed, because timing each call would
  cost more than the call.

A function is replaced at every ``moits`` module that binds it (``from .x
import f`` makes a second binding), and probe counters are kept per binding,
which splits ``evaluate`` calls by the layer that made them. A target that
no longer exists is recorded in :attr:`Tracer.absent` and skipped.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import sys
import time

SAMPLE_EVERY = 32

MODULES = ("moits", "moits.problems", "moits.topsis", "moits.de", "moits.tabu",
           "moits.pipeline", "moits.harness")

# (span name, defining module, attribute path)
SPANS = (
    ("solve", "moits.pipeline", "solve"),
    ("stage1", "moits.pipeline", "stage1_anchors"),
    ("stage2", "moits.pipeline", "stage2_anchors"),
    ("stage3", "moits.pipeline", "stage3_alternate"),
    ("de.run", "moits.de", "run"),
    ("tabu_search", "moits.tabu", "tabu_search"),
    ("finalize_pareto", "moits.pipeline", "SolutionArchive.finalize_pareto"),
    ("run_experiment", "moits.harness", "run_experiment"),
)

# (probe name, defining module, attribute path, sampling stride)
PROBES = (
    ("evaluate", "moits.problems", "evaluate", SAMPLE_EVERY),
    ("cost_closeness", "moits.topsis", "cost_closeness", SAMPLE_EVERY),
    ("tabu_move", "moits.tabu", "tabu_move", SAMPLE_EVERY),
    ("key", "moits.tabu", "CachedEvaluator.key", SAMPLE_EVERY),
    ("choose_best", "moits.de", "choose_best", 1),
    ("archive_add", "moits.pipeline", "SolutionArchive.add", SAMPLE_EVERY),
)

# the tracer of this process; pool workers forked from a traced process
# inherit it, spawned workers install their own
ACTIVE: "Tracer | None" = None


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent, solve_id, probe calls at start, at end, meta]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.solve_id = -1
        self.next_solve_id = 0
        # probe key "name@module" -> [calls, timed calls, timed seconds]
        self.probes: dict[str, list] = {}
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        global ACTIVE
        modules = []
        for name in MODULES:
            try:
                modules.append(importlib.import_module(name))
            except ImportError:
                self.absent.append(name)
        for name, module, path in SPANS:
            self._replace(modules, module, path, lambda fn, where, n=name: self._span(n, fn))
        for name, module, path, stride in PROBES:
            self._replace(
                modules, module, path,
                lambda fn, where, n=name, s=stride: self._probe(f"{n}@{where}", fn, s),
            )
        harness = sys.modules.get("moits.harness")
        if hasattr(harness, "ProcessPoolExecutor"):
            self._set(harness, "ProcessPoolExecutor", TracedPool)
        ACTIVE = self
        return self

    def uninstall(self) -> None:
        global ACTIVE
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        ACTIVE = None

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, modules, module, path, make_wrapper):
        owner = sys.modules.get(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{module}.{path}")
            return
        if outer:  # a method: one binding, on its class
            self._set(owner, attr, make_wrapper(original, module))
            return
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, make_wrapper(original, mod.__name__))

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if name == "finalize_pareto":
                tracer.spans[index][7]["kept"] = len(args[0])
            return result

        return wrapper

    def _probe(self, key, fn, stride):
        counter = self.probes.setdefault(key, [0, 0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter[0] += 1
            if counter[0] % stride:
                return fn(*args, **kwargs)
            start = clock()
            result = fn(*args, **kwargs)
            counter[2] += clock() - start
            counter[1] += 1
            return result

        return wrapper

    def open(self, name, args) -> int:
        meta = {}
        if name == "solve":
            self.solve_id = self.next_solve_id
            self.next_solve_id += 1
        elif name == "de.run" and len(args) > 1:
            meta["generations"] = getattr(args[1], "max_iterations", 0)
        elif name == "finalize_pareto" and args:
            meta["offered"] = len(args[0])
        parent = self.stack[-1] if self.stack else None
        self.spans.append(
            [name, time.perf_counter(), None, parent, self.solve_id, self._calls(), None, meta]
        )
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[6] = self._calls()
        self.stack.pop()
        if span[0] == "solve":
            self.solve_id = -1

    def _calls(self) -> dict:
        return {key: counter[0] for key, counter in self.probes.items()}

    # -- worker processes -------------------------------------------------

    def mark(self):
        return len(self.spans), {k: list(c) for k, c in self.probes.items()}

    def delta(self, mark) -> dict:
        """Spans and probe counts recorded since ``mark``."""
        n, before = mark
        probes = {}
        for key, counter in self.probes.items():
            old = before.get(key, [0, 0, 0.0])
            probes[key] = [c - o for c, o in zip(counter, old)]
        return {"base": n, "spans": self.spans[n:], "probes": probes}

    def merge(self, delta) -> None:
        """Add a worker's spans and counts; spans are renumbered after ours
        and attached to the span open here (the experiment) when the worker's
        parent lies outside the delta."""
        base, offset = delta["base"], len(self.spans)
        here = self.stack[-1] if self.stack else None
        solve_ids = {}
        for span in delta["spans"]:
            span = list(span)
            span[3] = here if span[3] is None or span[3] < base else span[3] - base + offset
            if span[4] >= 0:
                if span[4] not in solve_ids:
                    solve_ids[span[4]] = self.next_solve_id
                    self.next_solve_id += 1
                span[4] = solve_ids[span[4]]
            self.spans.append(span)
        for key, counts in delta["probes"].items():
            counter = self.probes.setdefault(key, [0, 0, 0.0])
            for i, value in enumerate(counts):
                counter[i] += value


class _TracedCall:
    """Runs a pool task under this process's tracer and returns its trace delta."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        tracer = ACTIVE or Tracer().install()
        mark = tracer.mark()
        result = self.fn(*args)
        return result, tracer.delta(mark)


class TracedPool(concurrent.futures.ProcessPoolExecutor):
    """Process pool that brings the workers' spans and counts back to the tracer."""

    def map(self, fn, *iterables, **kwargs):
        results = super().map(_TracedCall(fn), *iterables, **kwargs)
        for result, delta in results:
            if ACTIVE is not None:
                ACTIVE.merge(delta)
            yield result


def span_table(spans) -> dict:
    """Per span name: call count, total seconds and self seconds (duration
    minus the part covered by direct child spans)."""
    table = {}
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child[span[3]] += span[2] - span[1]
    for i, span in enumerate(spans):
        row = table.setdefault(span[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
        duration = span[2] - span[1]
        row["calls"] += 1
        row["s"] += duration
        row["self_s"] += duration - child[i]
    return table


def layer_metrics(tracer: Tracer, harness: dict, overhead: float, slowdown: float):
    """Per-layer metrics of one traced unit, and the names of those whose
    function or span did not occur (reported as 0). ``harness`` holds the
    unit's pool figures, ``overhead`` its slowdown under the tracer, and
    ``slowdown`` the CPUs' slowdown while it ran, by which every time is
    divided to give reference seconds."""
    spans = span_table(tracer.spans)
    absent = []

    def probe(name, module=None):
        """[calls, timed calls, timed seconds] summed over the matching bindings."""
        total = [0, 0, 0.0]
        for key, counter in tracer.probes.items():
            probe_name, where = key.split("@")
            if probe_name == name and module in (None, where):
                total = [t + c for t, c in zip(total, counter)]
        return total

    def per_call_us(counter):
        return 1e6 * counter[2] / counter[1] if counter[1] else 0.0

    def span(name, column="s"):
        return spans.get(name, {}).get(column, 0.0)

    evaluate, closeness = probe("evaluate"), probe("cost_closeness")
    tabu_move, key = probe("tabu_move"), probe("key")
    calls_tabu = probe("evaluate", "moits.tabu")[0]

    # DE's own time: its spans minus the evaluate and TOPSIS calls made inside them
    in_run = [0, 0]
    for s in tracer.spans:
        if s[0] == "de.run":
            for key_name, calls in s[6].items():
                slot = {"evaluate": 0, "cost_closeness": 1}.get(key_name.split("@")[0])
                if slot is not None:
                    in_run[slot] += calls - s[5].get(key_name, 0)
    de_self = (span("de.run", "self_s") - in_run[0] * per_call_us(evaluate) * 1e-6
               - in_run[1] * per_call_us(closeness) * 1e-6)
    generations = sum(s[7].get("generations", 0) for s in tracer.spans if s[0] == "de.run")
    offered = sum(s[7].get("offered", 0) for s in tracer.spans if s[0] == "finalize_pareto")
    kept = sum(s[7].get("kept", 0) for s in tracer.spans if s[0] == "finalize_pareto")

    metrics = {
        "tabu.tabu_move.calls": (tabu_move[0], "count"),
        "tabu.tabu_move.us": (per_call_us(tabu_move), "us"),
        "tabu.tabu_search.s": (span("tabu_search"), "s"),
        "tabu.key_lookups": (key[0], "count"),
        "tabu.cache_hit_ratio": (1.0 - calls_tabu / key[0] if key[0] else 0.0, "ratio"),
        "problems.evaluate.calls_de": (probe("evaluate", "moits.de")[0], "count"),
        "problems.evaluate.calls_tabu": (calls_tabu, "count"),
        "problems.evaluate.us": (per_call_us(evaluate), "us"),
        "de.run.calls": (spans.get("de.run", {}).get("calls", 0), "count"),
        "de.run.self_s": (de_self, "s"),
        "de.generation_us": (1e6 * span("de.run") / generations if generations else 0.0, "us"),
        "de.choose_best.us": (per_call_us(probe("choose_best")), "us"),
        "topsis.cost_closeness.calls": (closeness[0], "count"),
        "topsis.cost_closeness.us": (per_call_us(closeness), "us"),
        "pipeline.stage1_s": (span("stage1"), "s"),
        "pipeline.stage2_s": (span("stage2"), "s"),
        "pipeline.stage3_s": (span("stage3"), "s"),
        "pipeline.stage3.self_s": (span("stage3", "self_s"), "s"),
        "pipeline.finalize_pareto_s": (span("finalize_pareto"), "s"),
        "pipeline.archive_adds": (probe("archive_add")[0], "count"),
        "pipeline.archive_kept_ratio": (kept / offered if offered else 0.0, "ratio"),
        "harness.parallel_efficiency": (harness.get("parallel_efficiency", 0.0), "ratio"),
        "harness.pool_overhead_s": (harness.get("pool_overhead_s", 0.0), "s"),
        "trace_overhead": (overhead, "ratio"),
    }
    # a metric is absent when the function it measures is gone or never ran
    sources = {
        "tabu.tabu_move": "tabu_move", "tabu.tabu_search": "tabu_search",
        "tabu.key_lookups": "key", "tabu.cache_hit_ratio": "key",
        "problems.evaluate": "evaluate", "de.run": "de.run", "de.generation": "de.run",
        "de.choose_best": "choose_best", "topsis.cost_closeness": "cost_closeness",
        "pipeline.stage1": "stage1", "pipeline.stage2": "stage2", "pipeline.stage3": "stage3",
        "pipeline.finalize_pareto": "finalize_pareto", "pipeline.archive_adds": "archive_add",
        "pipeline.archive_kept_ratio": "finalize_pareto", "harness": "run_experiment",
    }
    seen = {key.split("@")[0] for key, counter in tracer.probes.items() if counter[0]}
    seen |= set(spans)
    for name in metrics:
        source = next((s for prefix, s in sources.items() if name.startswith(prefix)), None)
        if source is not None and source not in seen:
            absent.append(name)
    metrics = {name: (value / slowdown if unit in ("s", "us") else value, unit)
               for name, (value, unit) in metrics.items()}
    return metrics, absent
