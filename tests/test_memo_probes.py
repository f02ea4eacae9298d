"""Memo probes unpickle an entry only when its contents are used.

The on-disk store is probed for two different questions.  Completion ("is
this task done") loads the entry, so a corrupt one reads as not done (see
``test_memo_corruption.py``).  The planner's cached-trace routing hint only
stats the entry file, and timing reads the small ``roisummary`` counters the
filter task wrote, so a sweep never unpickles a multi-megabyte ``llctrace``
just to pick a route or price a result.  These tests count real loads
(``DiskMemo.get`` calls that return an entry) per kind and per key.
"""

from collections import Counter

import pytest
from conftest import assert_points_equal

from repro.experiments import (
    DiskMemo,
    ExperimentConfig,
    clear_caches,
    compare_policies,
    set_disk_memo,
)
from repro.experiments import service
from repro.experiments.memo import key_digest
from repro.experiments.queue import InlineBackend
from repro.experiments.service import SweepSpec, load_manifest, run_sweep, sweep_plans

pytestmark = pytest.mark.usefixtures("memo_isolation")

APPS = ("PR",)
DATASETS = ("lj", "pl")
SCHEMES = ("RRIP", "GRASP", "SHiP-MEM", "OPT")

SPEC = SweepSpec(apps=APPS, datasets=DATASETS, schemes=SCHEMES)


class LoadCounter:
    """Counts the entries ``DiskMemo.get`` actually unpickles."""

    def __init__(self, monkeypatch) -> None:
        self.by_key: Counter = Counter()
        original = DiskMemo.get

        def counting_get(memo, kind, key):
            value = original(memo, kind, key)
            if value is not None:
                self.by_key[(kind, key_digest(key))] += 1
            return value

        monkeypatch.setattr(DiskMemo, "get", counting_get)

    def loads(self, kind: str) -> int:
        return sum(count for (k, _), count in self.by_key.items() if k == kind)

    def per_key(self, kind: str) -> list:
        return [count for (k, _), count in self.by_key.items() if k == kind]

    def reset(self) -> None:
        self.by_key.clear()


def _sweep(config, cache_dir, run_id=None):
    return run_sweep(
        SPEC, config=config, cache_dir=cache_dir, workers=1,
        worker_backend=InlineBackend(), run_id=run_id,
    )


def _fresh_process():
    """Forget everything in-process, as a new client (or the parent of a
    process-backend sweep, whose workers computed elsewhere) would."""
    clear_caches()
    set_disk_memo(None)


def test_sweep_plans_after_completed_sweep_load_no_trace(tmp_path, monkeypatch):
    config = ExperimentConfig.smoke()
    done = _sweep(config, tmp_path, run_id="probe")
    _fresh_process()
    set_disk_memo(DiskMemo(tmp_path))
    counter = LoadCounter(monkeypatch)
    plans = sweep_plans(SPEC, config)
    assert counter.loads("llctrace") == 0
    # The stat-probed plans are the ones the completed run recorded.
    assert plans == load_manifest(tmp_path, done.run_id)["plans"]


def test_warm_sweep_loads_each_trace_at_most_once(tmp_path, monkeypatch):
    config = ExperimentConfig.smoke()
    cold = _sweep(config, tmp_path)
    _fresh_process()
    counter = LoadCounter(monkeypatch)
    warm = _sweep(config, tmp_path)
    assert warm.report.executed == 0
    assert_points_equal(cold.points, warm.points)
    traces = counter.per_key("llctrace")
    assert len(traces) <= len(APPS) * len(DATASETS)
    assert all(count == 1 for count in traces), counter.by_key


def test_cold_sweep_assembly_reads_counters_not_traces(tmp_path, monkeypatch):
    config = ExperimentConfig.smoke()
    serial = compare_policies(APPS, DATASETS, SCHEMES, config=config)
    _fresh_process()

    counter = LoadCounter(monkeypatch)
    assemble = service.compare_policies
    before = {}

    def parent_assembly(*args, **kwargs):
        before["llctrace"] = counter.loads("llctrace")
        # Drop what the inline workers left in memory: the assembly must
        # run from the store alone, as a process-backend parent's does.
        clear_caches()
        counter.reset()
        return assemble(*args, **kwargs)

    monkeypatch.setattr(service, "compare_policies", parent_assembly)
    swept = _sweep(config, tmp_path)
    assert before["llctrace"] == 0
    assert counter.loads("llctrace") == 0, counter.by_key
    assert counter.loads("roisummary") == len(APPS) * len(DATASETS)
    # Policy entries probed by the fused-multi gate are kept, not reloaded.
    assert all(count == 1 for count in counter.per_key("policy")), counter.by_key
    assert_points_equal(serial, swept.points)
