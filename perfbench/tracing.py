"""Per-layer spans for the traced benchmark run, recorded from outside ``src/``.

:func:`install` wraps the public functions and methods each layer of the
pipeline exposes (graph → reorder → app → trace → filter → LLC replay →
memo → scheduler); :meth:`Patcher.restore` puts every original back, so an
untraced run calls exactly the code a user calls.

Each wrapper opens a span named after its layer.  A span's *self* time is
its duration minus the time its child spans cover, and that self time is
what the ``*_s`` metrics report.  A layer nested inside itself (a stream
``feed`` calling its one-shot twin) counts once, at the outermost call.
Engine calls made by the L1/L2 filter (the filter levels are LRU stacks)
belong to the filter, not to ``replay.lru``.

Sweep tasks run in forked worker processes that inherit these wrappers.
The task wrapper resets the worker's recorder, runs the task, and appends
the task's totals to ``<spans_dir>/<pid>.jsonl``; :func:`collect_workers`
folds those files into the parent's totals after the sweep.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ENGINE_FAMILIES = ("lru", "rrip", "pin", "ship", "hawkeye", "leeway", "opt")
ROUTES = (
    "vector", "scalar", "fused", "fused-multi", "opt-vector", "opt-two-pass",
    "opt-scalar", "corun-vector", "corun-scalar", "corun-delegate-single",
)
KERNEL_TIERS = ("native-fused", "native", "numpy", "python")

# Per-layer metrics: name -> unit.  Every traced run reports all of them,
# with 0 where a layer did no work on that workload.
LAYER_METRICS: Dict[str, str] = {
    "import.s": "s",
    "kernels.load_s": "s",
    "kernels.compile_s": "s",
    "graph.load_s": "s",
    "graph.edges": "count",
    "reorder.s": "s",
    "analytics.run_s": "s",
    "analytics.edges_traversed": "count",
    "trace.generate_s": "s",
    "trace.refs": "count",
    "trace.interleave_s": "s",
    "trace.interleave_turns": "count",
    "filter.s": "s",
    "filter.refs_in": "count",
    "filter.llc_refs": "count",
    "filter.llc_ratio": "ratio",
    "core.classify_s": "s",
    "pipeline.fused_s": "s",
    "pipeline.fused_multi_s": "s",
    "pipeline.refs": "count",
    **{f"replay.{family}.s": "s" for family in ENGINE_FAMILIES},
    **{f"replay.{family}.refs": "count" for family in ENGINE_FAMILIES},
    "corun.replay_s": "s",
    "corun.refs": "count",
    "plan.s": "s",
    "plan.calls": "count",
    **{f"plan.route.{route}": "count" for route in ROUTES},
    **{f"plan.kernel.{tier}": "count" for tier in KERNEL_TIERS},
    "oracle.s": "s",
    "oracle.refs": "count",
    "memo.load_s": "s",
    "memo.store_s": "s",
    "memo.hits": "count",
    "memo.misses": "count",
    "memo.bytes_read": "bytes",
    "memo.bytes_written": "bytes",
    "memo.hit_ratio": "ratio",
    "service.busy_s": "s",
    "service.idle_s": "s",
    "service.task_wait_s": "s",
    "service.task_s.p50": "s",
    "service.task_s.p75": "s",
    "service.tasks": "count",
    "service.retries": "count",
    "service.steals": "count",
    "runner.self_s": "s",
    "trace.overhead_s": "s",
}


class Recorder:
    """Span stack plus per-metric totals for one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.totals: Dict[str, float] = defaultdict(float)
        self.task_times: List[float] = []
        self._stack: List[List[Any]] = []  # [name, start, child_time]
        self._open: Dict[str, int] = defaultdict(int)

    def active(self, name: str) -> bool:
        return self._open[name] > 0

    def count(self, name: str, value: float) -> None:
        self.totals[name] += value

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span; nested spans of the same name fold in."""
        if self._open[name]:
            return fn(*args, **kwargs)
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            self._open[name] -= 1
            self._stack.pop()
            duration = time.perf_counter() - frame[1]
            self.totals[name] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration


RECORDER = Recorder()


# ---------------------------------------------------------------------------
# patching


class Patcher:
    """Replace attributes and remember the originals for :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any, bool]] = []
        # Wall-clock times the scheduler dispatched / noticed each task id.
        self.submitted: Dict[str, float] = {}
        self.noticed: Dict[str, float] = {}

    def set(self, owner: Any, name: str, value: Any) -> None:
        had = name in vars(owner)
        self._saved.append((owner, name, vars(owner).get(name), had))
        setattr(owner, name, value)

    def function(self, original: Callable, make: Callable[[Callable], Callable]) -> None:
        """Wrap a module-level function wherever a ``repro`` module binds it."""
        wrapper = functools.wraps(original)(make(original))
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self.set(module, name, wrapper)

    def method(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(cls)[name]
        self.set(cls, name, functools.wraps(original)(make(original)))

    def restore(self) -> None:
        for owner, name, value, had in reversed(self._saved):
            if had:
                setattr(owner, name, value)
            else:
                delattr(owner, name)
        self._saved.clear()


def _span(name: str, counter: Optional[Callable] = None):
    """Wrapper factory: time calls under ``name``; the outermost call counts."""

    def make(original):
        def wrapper(*args, **kwargs):
            outer = not RECORDER.active(name)
            result = RECORDER.call(name, original, *args, **kwargs)
            if counter is not None and outer:
                counter(args, kwargs, result)
            return result
        return wrapper
    return make


def _span_iter(name: str, make_counter: Optional[Callable] = None):
    """Wrapper factory for generators: every ``next`` is one span.

    ``make_counter()`` gives a fresh per-iteration ``counter(item)``.
    """

    def make(original):
        def wrapper(*args, **kwargs):
            counter = make_counter() if make_counter is not None else None
            iterator = RECORDER.call(name, lambda: iter(original(*args, **kwargs)))
            while True:
                outer = not RECORDER.active(name)
                try:
                    item = RECORDER.call(name, next, iterator)
                except StopIteration:
                    return
                if counter is not None and outer:
                    counter(item)
                yield item
        return wrapper
    return make


def _engine_span(family: str):
    """Engine replay span; calls made inside the L1/L2 filter are the filter's."""
    name = f"replay.{family}.s"

    def make(original):
        def wrapper(*args, **kwargs):
            if RECORDER.active("filter.s") or RECORDER.active(name):
                return original(*args, **kwargs)
            blocks = next((a for a in args if hasattr(a, "shape")), ())
            RECORDER.count(f"replay.{family}.refs", len(blocks))
            return RECORDER.call(name, original, *args, **kwargs)
        return wrapper
    return make


def _count(name: str, measure: Callable) -> Callable:
    return lambda args, kwargs, result: RECORDER.count(name, measure(args, kwargs, result))


# ---------------------------------------------------------------------------
# the layers


def install(spans_dir: Path) -> Patcher:
    """Wrap every layer's public entry points; returns the patcher to undo it."""
    import numpy as np

    from repro.analytics.base import GraphApplication
    from repro.cache.cache import SetAssociativeCache
    from repro.cache.policies import simulate_opt_misses
    from repro.core.classification import GraspClassifier
    from repro.experiments import runner, service
    from repro.experiments.memo import DiskMemo
    from repro.experiments.queue import ProcessPoolBackend
    from repro.fastsim import filter as fastsim_filter
    from repro.fastsim import hawkeye, leeway, opt, pin, rrip, ship, stackdist
    from repro.fastsim.corun import CorunReplayStream
    from repro.fastsim.pipeline import FusedPipeline, MultiFusedPipeline
    from repro.fastsim.plan import RoutePlanner
    from repro.graph import source
    from repro.reorder.base import ReorderingTechnique
    from repro.trace import generator
    from repro.trace.interleave import InterleavedTraceStream

    patch = Patcher()

    # graph / reorder / analytics
    patch.function(source.load_for_experiment, _span(
        "graph.load_s", _count("graph.edges", lambda a, k, g: g.num_edges)))
    for cls in _with_own(ReorderingTechnique, "apply"):
        patch.method(cls, "apply", _span("reorder.s"))
    for cls in _with_own(GraphApplication, "run"):
        patch.method(cls, "run", _span("analytics.run_s", _count(
            "analytics.edges_traversed",
            lambda a, k, r: sum(record.edges_traversed for record in r.iterations))))

    # trace generation and interleaving
    patch.function(generator.generate_iteration_trace, _span(
        "trace.generate_s", _count("trace.refs", lambda a, k, t: len(t))))
    patch.function(generator.iter_execution_trace, _span_iter(
        "trace.generate_s", lambda: lambda chunk: RECORDER.count("trace.refs", len(chunk))))

    def turn_counter():
        # A turn is a maximal run of one stream's accesses in the merge.
        last = [None]

        def count(chunk) -> None:
            ids = chunk.stream_ids
            if ids.shape[0] == 0:
                return
            turns = int(np.count_nonzero(ids[1:] != ids[:-1])) + (last[0] != int(ids[0]))
            last[0] = int(ids[-1])
            RECORDER.count("trace.interleave_turns", turns)
        return count

    patch.method(InterleavedTraceStream, "__iter__", _span_iter(
        "trace.interleave_s", turn_counter))

    # L1/L2 filter and GRASP hint classification
    def count_filter(refs_in: int, keep) -> None:
        RECORDER.count("filter.refs_in", refs_in)
        RECORDER.count("filter.llc_refs", int(np.count_nonzero(keep)))

    patch.function(fastsim_filter.run_filter, _span(
        "filter.s", lambda a, k, r: count_filter(len(a[0]), r.keep)))
    patch.method(fastsim_filter.FilterStream, "feed", _span(
        "filter.s", lambda a, k, keep: count_filter(len(a[1]), keep)))
    patch.method(GraspClassifier, "classify_array", _span("core.classify_s"))

    # fused pipelines
    patch.method(FusedPipeline, "feed", _span(
        "pipeline.fused_s", _count("pipeline.refs", lambda a, k, r: len(a[1]))))
    patch.method(MultiFusedPipeline, "feed", _span(
        "pipeline.fused_multi_s", _count("pipeline.refs", lambda a, k, r: len(a[1]))))

    # LLC engines: one-shot replays and resumable streams, per family
    engines = {
        "lru": (stackdist.lru_replay, stackdist.LRUStream),
        "rrip": (rrip.rrip_replay, rrip.RRIPStream),
        "pin": (pin.pin_replay, pin.PinStream),
        "ship": (ship.ship_replay, ship.ShipStream),
        "hawkeye": (hawkeye.hawkeye_replay, hawkeye.HawkeyeStream),
        "leeway": (leeway.leeway_replay, leeway.LeewayStream),
        "opt": (opt.opt_replay, opt.OptStream),
    }
    for family, (replay_fn, stream_cls) in engines.items():
        patch.function(replay_fn, _engine_span(family))
        patch.method(stream_cls, "feed", _engine_span(family))
    patch.method(CorunReplayStream, "feed", _span(
        "corun.replay_s", _count("corun.refs", lambda a, k, r: len(a[1]))))

    # planner: count the plans actually made, by route and kernel tier
    def count_plan(args, kwargs, plan) -> None:
        if RECORDER.active("plan.predicted"):
            return
        RECORDER.count("plan.calls", 1)
        RECORDER.count(f"plan.route.{plan.route}", 1)
        RECORDER.count(f"plan.kernel.{plan.kernel}", 1)

    patch.method(RoutePlanner, "plan", _span("plan.s", count_plan))
    # Sweep manifests plan every task before it runs; those predictions are
    # not the routes that executed, so plans made inside them are not counted.
    patch.function(runner.plan_scheme_task, _span("plan.predicted"))
    patch.function(runner.plan_corun_task, _span("plan.predicted"))

    # scalar oracle
    def timed_access(original):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                RECORDER.count("oracle.s", time.perf_counter() - start)
                RECORDER.count("oracle.refs", 1)
        return wrapper

    patch.method(SetAssociativeCache, "access_block", timed_access)
    patch.function(simulate_opt_misses, _span(
        "oracle.s", _count("oracle.refs", lambda a, k, r: len(a[0]))))

    # on-disk memo
    def count_get(args, kwargs, value) -> None:
        memo, kind, key = args[:3]
        if value is None:
            RECORDER.count("memo.misses", 1)
            return
        RECORDER.count("memo.hits", 1)
        RECORDER.count("memo.bytes_read", _size(memo.path_for(kind, key)))

    def count_put(args, kwargs, value) -> None:
        memo, kind, key = args[:3]
        RECORDER.count("memo.bytes_written", _size(memo.path_for(kind, key)))

    patch.method(DiskMemo, "get", _span("memo.load_s", count_get))
    patch.method(DiskMemo, "put", _span("memo.store_s", count_put))

    # sweep scheduler (parent side)
    submitted, noticed = patch.submitted, patch.noticed

    def scheduler_init(original):
        def wrapper(self, *args, **kwargs):
            original(self, *args, **kwargs)
            sleep = self.sleep

            def idle(seconds):
                start = time.perf_counter()
                sleep(seconds)
                RECORDER.count("service.idle_s", time.perf_counter() - start)
            self.sleep = idle
        return wrapper

    def scheduler_run(original):
        def wrapper(self):
            report = RECORDER.call("service.busy_s", original, self)
            RECORDER.count("service.retries", report.retries)
            RECORDER.count("service.steals", report.steals)
            return report
        return wrapper

    def backend_submit(original):
        def wrapper(self, worker, task, attempt):
            submitted[task.task_id] = time.time()
            return original(self, worker, task, attempt)
        return wrapper

    def backend_poll(original):
        def wrapper(self):
            outcomes = original(self)
            now = time.time()
            for outcome in outcomes:
                noticed[outcome.task_id] = now
            return outcomes
        return wrapper

    patch.method(service.Scheduler, "__init__", scheduler_init)
    patch.method(service.Scheduler, "run", scheduler_run)
    patch.method(ProcessPoolBackend, "submit", backend_submit)
    patch.method(ProcessPoolBackend, "poll", backend_poll)

    # sweep tasks (worker side): ship each task's totals back through a file
    spans_dir.mkdir(parents=True, exist_ok=True)

    def worker_task(original):
        def wrapper(*args, **kwargs):
            RECORDER.reset()
            started = time.time()
            try:
                return original(*args, **kwargs)
            finally:
                ended = time.time()
                record = {
                    "totals": dict(RECORDER.totals),
                    "start": started,
                    "end": ended,
                    "task_s": ended - started,
                }
                with open(spans_dir / f"{os.getpid()}.jsonl", "a") as handle:
                    handle.write(json.dumps(record) + "\n")
        return wrapper

    for name in (
        "exec_workload_task", "exec_filter_task", "exec_stream_filter_task",
        "exec_scheme_task", "exec_scheme_streaming_task",
    ):
        patch.function(getattr(service, name), worker_task)
    return patch


def _with_own(base: type, name: str) -> List[type]:
    """``base`` and every subclass that defines ``name`` itself."""
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if name in vars(cls) and not getattr(vars(cls)[name], "__isabstractmethod__", False):
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def collect_workers(spans_dir: Path, patch: Patcher) -> None:
    """Fold worker task records into the parent's totals."""
    submitted, noticed = patch.submitted, patch.noticed
    records = []
    for path in sorted(spans_dir.glob("*.jsonl")):
        for line in path.read_text().splitlines():
            records.append(json.loads(line))
    for record in records:
        for name, value in record["totals"].items():
            RECORDER.count(name, value)
        RECORDER.task_times.append(record["task_s"])
    RECORDER.count("service.tasks", len(records))
    # Waiting = dispatch-to-start plus finish-to-noticed, summed over tasks.
    # Worker records carry no task id, so starts pair with submissions and
    # finishes with notices in time order.
    starts = sorted(record["start"] for record in records)
    ends = sorted(record["end"] for record in records)
    subs = sorted(submitted.values())
    notes = sorted(noticed.values())
    if len(subs) == len(starts):
        RECORDER.count("service.task_wait_s", sum(max(0.0, s - q) for q, s in zip(subs, starts)))
    if len(notes) == len(ends):
        RECORDER.count("service.task_wait_s", sum(max(0.0, n - e) for e, n in zip(ends, notes)))
    submitted.clear()
    noticed.clear()


def layer_metrics(totals: Dict[str, float], task_times: List[float]) -> Dict[str, float]:
    """The full per-layer metric set from one traced repetition's totals."""
    out = {name: float(totals.get(name, 0.0)) for name in LAYER_METRICS}
    refs_in = out["filter.refs_in"]
    out["filter.llc_ratio"] = out["filter.llc_refs"] / refs_in if refs_in else 0.0
    lookups = out["memo.hits"] + out["memo.misses"]
    out["memo.hit_ratio"] = out["memo.hits"] / lookups if lookups else 0.0
    # The scheduler's busy time is its span minus the sleeps inside it.
    out["service.busy_s"] = max(0.0, out["service.busy_s"] - out["service.idle_s"])
    if task_times:
        ordered = sorted(task_times)
        out["service.task_s.p50"] = _quantile(ordered, 0.50)
        out["service.task_s.p75"] = _quantile(ordered, 0.75)
    out["runner.self_s"] = float(totals.get("runner", 0.0))
    return out


def _quantile(ordered: List[float], q: float) -> float:
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
