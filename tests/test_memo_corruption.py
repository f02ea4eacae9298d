"""Regression tests: corrupt or contended DiskMemo entries never poison a sweep.

The store is the service's single source of truth ("task done" == "memo entry
loads"), so a truncated, bit-flipped or garbage entry must read as a *miss* —
the scheduler recomputes exactly the damaged tasks and repairs the entries in
place, and the resulting DataPoints stay bit-identical.  The atomic
``os.replace`` write path must also hold up under concurrent writers: readers
see either nothing or a complete entry, never a torn one.
"""

import multiprocessing
import pickle

import pytest
from conftest import assert_points_equal

from repro.experiments import (
    DiskMemo,
    ExperimentConfig,
    build_workload,
    clear_caches,
    compare_policies,
    set_disk_memo,
    simulate_scheme,
)
from repro.experiments.queue import InlineBackend
from repro.experiments.runner import llc_trace_for, llctrace_memo_key, plan_scheme_task
from repro.experiments.service import SweepSpec, run_sweep, sweep_tasks
from repro.fastsim.plan import assert_stats_equal

pytestmark = pytest.mark.usefixtures("memo_isolation")

APPS = ("PR",)
DATASETS = ("lj",)
SCHEMES = ("RRIP", "GRASP")

SPEC = SweepSpec(apps=APPS, datasets=DATASETS, schemes=SCHEMES)


def _task_paths(memo: DiskMemo, config) -> dict:
    """label -> on-disk memo path for every task of SPEC's DAG."""
    return {
        task.label: memo.path_for(task.kind, task.store_key)
        for task in sweep_tasks(SPEC, config, memo.root.parent)
    }


def _run(config, cache_dir, **kwargs):
    return run_sweep(
        SPEC, config=config, cache_dir=cache_dir, workers=2,
        worker_backend=InlineBackend(), **kwargs,
    )


class TestCorruptEntriesAreMisses:
    def test_damaged_entries_are_recomputed_and_repaired(self, tmp_path):
        config = ExperimentConfig.smoke()
        serial = compare_policies(APPS, DATASETS, SCHEMES, config=config)
        clear_caches()
        set_disk_memo(None)

        first = _run(config, tmp_path)
        assert first.report.executed == 4  # workload, filter, 2 schemes
        memo = DiskMemo(tmp_path)
        paths = _task_paths(memo, config)

        # Three distinct damage modes across the three task kinds.
        truncated = paths["GRASP PR/lj"]
        truncated.write_bytes(truncated.read_bytes()[: truncated.stat().st_size // 2])
        flipped = paths["workload PR/lj"]
        blob = bytearray(flipped.read_bytes())
        blob[0] ^= 0xFF  # clobber the pickle PROTO opcode: guaranteed load failure
        flipped.write_bytes(bytes(blob))
        paths["filter PR/lj"].write_bytes(b"not a pickle at all")

        clear_caches()
        set_disk_memo(None)
        second = _run(config, tmp_path)
        # Exactly the three damaged tasks rerun; the intact scheme stays cached.
        assert second.report.executed == 3
        assert second.report.cached == 1
        assert_points_equal(serial, second.points)
        for path in paths.values():
            assert path.exists()
        for label in ("GRASP PR/lj", "workload PR/lj", "filter PR/lj"):
            with open(paths[label], "rb") as handle:
                pickle.load(handle)  # repaired entries load cleanly again

    def test_missing_entry_is_a_miss(self, tmp_path):
        config = ExperimentConfig.smoke()
        _run(config, tmp_path)
        memo = DiskMemo(tmp_path)
        paths = _task_paths(memo, config)
        paths["RRIP PR/lj"].unlink()

        clear_caches()
        set_disk_memo(None)
        again = _run(config, tmp_path)
        assert again.report.executed == 1
        assert again.report.cached == 3

    def test_contains_rejects_corrupt_entries(self, tmp_path):
        memo = DiskMemo(tmp_path)
        memo.put("unit", ("k",), {"v": 1})
        assert memo.contains("unit", ("k",))
        memo.path_for("unit", ("k",)).write_bytes(b"\x80\x04garbage")
        assert not memo.contains("unit", ("k",))
        assert memo.get("unit", ("k",)) is None


class TestCorruptTraceBehindRoutingHint:
    """The cached-trace routing hint stats the store instead of loading it.

    A corrupt ``llctrace`` entry therefore still reads as "trace cached":
    the plan must not change, and the staged route it picks must recompute
    the trace, return the serial stats and repair the entry.
    """

    def test_corrupt_trace_plans_like_intact_and_is_repaired(self, tmp_path):
        config = ExperimentConfig.smoke()
        app, dataset, scheme = "PR", "lj", "GRASP"
        serial = simulate_scheme(build_workload(app, dataset, config=config), scheme, config)
        clear_caches()

        memo = DiskMemo(tmp_path)
        set_disk_memo(memo)
        llc_trace_for(build_workload(app, dataset, config=config), config)
        clear_caches()
        intact = plan_scheme_task(app, dataset, config.reorder, scheme, config).to_json()

        key = llctrace_memo_key(app, dataset, config.reorder, config)
        memo.path_for("llctrace", key).write_bytes(b"not a pickle at all")
        assert memo.get("llctrace", key) is None
        corrupt = plan_scheme_task(app, dataset, config.reorder, scheme, config).to_json()
        assert corrupt == intact

        stats = simulate_scheme(build_workload(app, dataset, config=config), scheme, config)
        assert_stats_equal(serial, stats, f"{scheme} {app}/{dataset} behind a corrupt trace")
        assert memo.get("llctrace", key) is not None


def _hammer_put(root: str, worker_id: int, rounds: int) -> None:
    memo = DiskMemo(root)
    payload = {"worker": worker_id, "blob": list(range(2000))}
    for _ in range(rounds):
        memo.put("race", ("shared-key",), payload)


class TestConcurrentWriters:
    def test_reader_never_sees_a_torn_entry(self, tmp_path):
        memo = DiskMemo(tmp_path)
        writers = [
            multiprocessing.Process(target=_hammer_put, args=(str(tmp_path), wid, 150))
            for wid in range(2)
        ]
        for proc in writers:
            proc.start()
        observed = set()
        try:
            while any(proc.is_alive() for proc in writers):
                value = memo.get("race", ("shared-key",))
                if value is not None:
                    # A torn read would fail here (get would raise or return junk).
                    assert value["blob"] == list(range(2000))
                    observed.add(value["worker"])
        finally:
            for proc in writers:
                proc.join(timeout=30)
        assert all(proc.exitcode == 0 for proc in writers)
        final = memo.get("race", ("shared-key",))
        assert final is not None and final["blob"] == list(range(2000))
        # os.replace cleaned up after itself: no temp files left behind.
        leftovers = [p for p in memo.root.rglob("*.tmp.*")]
        assert leftovers == []

    def test_sequential_second_client_dedups_everything(self, tmp_path):
        config = ExperimentConfig.smoke()
        first = _run(config, tmp_path)
        assert first.report.executed == 4
        clear_caches()
        set_disk_memo(None)
        second = _run(config, tmp_path)
        assert second.report.executed == 0
        assert second.report.cached == 4
        assert_points_equal(first.points, second.points)
