"""Tests for the parallel experiment runner and the on-disk memo store."""

import pickle

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    clear_caches,
    compare_policies,
    compare_policies_parallel,
)
from repro.experiments.memo import DiskMemo, MEMO_VERSION, default_cache_dir
from repro.experiments.runner import active_disk_memo, build_workload, set_disk_memo
from repro.experiments.schemes import scheme_policy
from repro.fastsim import VECTOR, fused_native_supported, kernels


@pytest.fixture(autouse=True)
def _isolated_memo_state():
    """Keep the module-level disk-memo singleton from leaking across tests."""
    clear_caches()
    yield
    set_disk_memo(None)
    clear_caches()


def _points_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert (a.app_name, a.dataset_name, a.scheme) == (b.app_name, b.dataset_name, b.scheme)
        assert a.stats.hits == b.stats.hits
        assert a.stats.misses == b.stats.misses
        assert a.stats.evictions == b.stats.evictions
        assert a.cycles == pytest.approx(b.cycles)
        assert a.miss_reduction_pct == pytest.approx(b.miss_reduction_pct)
        assert a.speedup_pct == pytest.approx(b.speedup_pct)


class TestDiskMemo:
    def test_roundtrip_and_miss(self, tmp_path):
        memo = DiskMemo(tmp_path)
        key = ("PR", "lj", "dbg", 0.12, 42, True)
        assert memo.get("workload", key) is None
        memo.put("workload", key, {"payload": np.arange(4)})
        loaded = memo.get("workload", key)
        assert np.array_equal(loaded["payload"], np.arange(4))
        assert memo.entry_count("workload") == 1
        assert memo.entry_count() == 1

    def test_versioned_layout(self, tmp_path):
        memo = DiskMemo(tmp_path)
        memo.put("policy", ("k",), 1)
        assert (tmp_path / f"v{MEMO_VERSION}" / "policy").is_dir()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        memo = DiskMemo(tmp_path)
        key = ("corrupt",)
        memo.put("llctrace", key, [1, 2, 3])
        memo.path_for("llctrace", key).write_bytes(b"not a pickle")
        assert memo.get("llctrace", key) is None

    def test_distinct_keys_distinct_paths(self, tmp_path):
        memo = DiskMemo(tmp_path)
        assert memo.path_for("policy", ("a",)) != memo.path_for("policy", ("b",))
        assert memo.path_for("policy", ("a",)) != memo.path_for("workload", ("a",))

    def test_default_cache_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == tmp_path


class TestRunnerDiskIntegration:
    def test_workload_served_from_disk(self, tmp_path):
        config = ExperimentConfig.smoke()
        memo = DiskMemo(tmp_path)
        set_disk_memo(memo)
        first = build_workload("PR", "lj", config=config)
        assert memo.entry_count("workload") == 1
        clear_caches()  # drop in-memory table; disk copy must satisfy the rebuild
        second = build_workload("PR", "lj", config=config)
        assert first is not second
        assert first.key == second.key
        assert np.array_equal(first.roi.frontier, second.roi.frontier)

    def test_env_var_resolution(self, monkeypatch, tmp_path):
        import repro.experiments.runner as runner_module

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(runner_module, "_DISK_MEMO", None)
        monkeypatch.setattr(runner_module, "_DISK_MEMO_RESOLVED", False)
        memo = active_disk_memo()
        assert memo is not None
        assert str(memo.root).startswith(str(tmp_path))

    def test_disabled_by_default(self, monkeypatch):
        import repro.experiments.runner as runner_module

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setattr(runner_module, "_DISK_MEMO", None)
        monkeypatch.setattr(runner_module, "_DISK_MEMO_RESOLVED", False)
        assert active_disk_memo() is None


class TestParallelRunner:
    APPS = ("PR",)
    DATASETS = ("lj", "pl")
    SCHEMES = ("RRIP", "GRASP")

    def test_matches_serial_results_and_order(self, tmp_path):
        config = ExperimentConfig.smoke()
        serial = compare_policies(self.APPS, self.DATASETS, self.SCHEMES, config=config)
        clear_caches()
        parallel = compare_policies_parallel(
            self.APPS,
            self.DATASETS,
            self.SCHEMES,
            config=config,
            max_workers=2,
            cache_dir=tmp_path / "memo",
        )
        _points_equal(serial, parallel)

    def test_disk_reuse_across_invocations(self, tmp_path):
        # Pinned to vector: the memo layout below is the fused-multi route's,
        # which the verify backend never plans.
        config = ExperimentConfig.smoke().with_overrides(backend=VECTOR)
        cache_dir = tmp_path / "memo"
        compare_policies_parallel(
            self.APPS, self.DATASETS, self.SCHEMES, config=config,
            max_workers=2, cache_dir=cache_dir,
        )
        memo = DiskMemo(cache_dir)
        assert memo.entry_count("workload") == len(self.DATASETS)
        # With the fused filter kernel, multi-scheme comparisons take the
        # fused-multi route: one shared filter pass feeds every scheme's
        # replay and no filtered ROI trace is ever materialized.  Without
        # it, the staged path materializes the trace once per workload and
        # shares it across schemes.  The budget-less timing counters ride
        # along for workload_cycles either way.
        if kernels.has_capability("fused:filter"):
            assert memo.entry_count("llctrace") == 0
        else:
            assert memo.entry_count("llctrace") == len(self.DATASETS)
        assert memo.entry_count("roisummary") == len(self.DATASETS)
        assert memo.entry_count("policy") == len(self.DATASETS) * len(self.SCHEMES)
        # A fresh "invocation": cold in-memory tables, warm disk.
        clear_caches()
        set_disk_memo(None)
        again = compare_policies_parallel(
            self.APPS, self.DATASETS, self.SCHEMES, config=config,
            max_workers=2, cache_dir=cache_dir,
        )
        serial = compare_policies(self.APPS, self.DATASETS, self.SCHEMES, config=config)
        _points_equal(serial, again)

    def test_streaming_matches_serial_streaming(self, tmp_path):
        from repro.experiments import compare_policies_streaming

        # Pinned to vector: the memo layout below is the fused-multi route's.
        config = ExperimentConfig.smoke().with_overrides(
            chunk_accesses=1 << 12, backend=VECTOR
        )
        serial = compare_policies_streaming(
            self.APPS, self.DATASETS, self.SCHEMES, config=config
        )
        clear_caches()
        set_disk_memo(None)
        cache_dir = tmp_path / "memo"
        parallel = compare_policies_parallel(
            self.APPS,
            self.DATASETS,
            self.SCHEMES,
            config=config,
            max_workers=2,
            cache_dir=cache_dir,
            streaming=True,
        )
        _points_equal(serial, parallel)
        # The workers persisted the chunked LLC streams and per-scheme
        # full-execution results for reuse across schemes and invocations.
        memo = DiskMemo(cache_dir)
        # With the fused filter kernel, multi-scheme streaming comparisons
        # take the fused-multi route: one shared filter pass per workload,
        # no chunk store, only the budget-less counter summary.  Without
        # it, the staged path persists the filtered chunk store once and
        # replays every scheme from it — two llcstream entries per stream
        # (the budget-keyed chunk manifest and the budget-less summary).
        if kernels.has_capability("fused:filter"):
            assert memo.entry_count("llcstream") == len(self.DATASETS)
            assert memo.entry_count("llcchunk") == 0
        else:
            assert memo.entry_count("llcstream") == 2 * len(self.DATASETS)
            assert memo.entry_count("llcchunk") > len(self.DATASETS)
        assert memo.entry_count("policystream") == len(self.DATASETS) * len(self.SCHEMES)

    def test_single_consumer_stream_skips_chunk_store(self, tmp_path):
        """A lone policy replay takes the fused route: no chunk store, only
        the budget-less counter summary (and, for the ROI path, the
        ``roisummary`` counters instead of a materialized ``llctrace``)."""
        from repro.experiments.runner import (
            simulate_llc_policy_streaming,
            simulate_scheme,
        )

        config = ExperimentConfig.smoke().with_overrides(backend=VECTOR)
        policy = scheme_policy("GRASP")
        if not fused_native_supported(policy, config.hierarchy):
            pytest.skip("no fused kernel available")
        memo = DiskMemo(tmp_path / "memo")
        set_disk_memo(memo)
        workload = build_workload("PR", "lj", config=config)
        simulate_llc_policy_streaming(workload, policy, config=config)
        assert memo.entry_count("llcchunk") == 0
        assert memo.entry_count("llcstream") == 1
        simulate_scheme(workload, "GRASP", config)
        assert memo.entry_count("llctrace") == 0
        assert memo.entry_count("roisummary") == 1

    def test_single_pair_runs_serially(self):
        config = ExperimentConfig.smoke()
        points = compare_policies_parallel(
            ("PR",), ("lj",), self.SCHEMES, config=config, max_workers=8
        )
        serial = compare_policies(("PR",), ("lj",), self.SCHEMES, config=config)
        _points_equal(serial, points)

    def test_workers_env_cap(self, monkeypatch):
        from repro.experiments.parallel import _worker_budget

        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert _worker_budget(8, None) == 1
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert _worker_budget(3, 16) == 3
        assert _worker_budget(0, None) == 0

    def test_datapoints_pickle(self):
        config = ExperimentConfig.smoke()
        points = compare_policies(("PR",), ("lj",), ("GRASP",), config=config)
        assert _points_equal is not None
        restored = pickle.loads(pickle.dumps(points))
        _points_equal(points, restored)


class TestBrokenPoolWarning:
    """The pool-death fallback is loud: a structured WorkerPoolBrokenWarning."""

    SCHEMES = ("RRIP", "GRASP")

    def _broken_pool(self, monkeypatch):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        import repro.experiments.parallel as parallel_module

        class _BrokenPool:
            def __init__(self, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, task):
                future = Future()
                future.set_exception(BrokenProcessPool("injected pool death"))
                return future

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", _BrokenPool)

    def test_fallback_warns_with_failed_pair(self, monkeypatch):
        from repro.experiments import WorkerPoolBrokenWarning
        from repro.experiments.queue import POOL_BROKEN

        self._broken_pool(monkeypatch)
        config = ExperimentConfig.smoke()
        serial = compare_policies(("PR",), ("lj", "pl"), self.SCHEMES, config=config)
        clear_caches()
        with pytest.warns(WorkerPoolBrokenWarning) as captured:
            points = compare_policies_parallel(
                ("PR",), ("lj", "pl"), self.SCHEMES, config=config, max_workers=2
            )
        _points_equal(serial, points)
        event = captured[0].message.event
        assert event.kind == POOL_BROKEN
        # The first pair awaited is the one whose result was lost.
        assert event.label == "PR/lj"
        assert "BrokenProcessPool" in event.detail
        assert "serial" in event.detail
