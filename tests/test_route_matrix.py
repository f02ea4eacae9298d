"""Route-matrix equivalence: every ExecutionPlan route vs the reference.

Plans never change results — each test first pins the route the planner
chooses for a scenario, then asserts the executed statistics are
bit-identical to the scalar reference simulator for that same scenario.
Together the scenarios cover every route name an :class:`ExecutionPlan`
can carry (modulo kernel availability, which only shifts the tier within
the same route).
"""

import pytest

from repro.cache.partition import WayPartition
from repro.experiments import ExperimentConfig, clear_caches, compare_policies
from repro.experiments.memo import DiskMemo
from repro.experiments.runner import (
    CorunSpec,
    build_workload,
    compare_policies_streaming,
    plan_corun_task,
    plan_scheme_task,
    set_disk_memo,
    simulate_corun,
    simulate_scheme,
    simulate_scheme_streaming,
)
from repro.fastsim import kernels
from repro.fastsim.plan import (
    ROUTE_CORUN_DELEGATE,
    ROUTE_CORUN_SCALAR,
    ROUTE_CORUN_VECTOR,
    ROUTE_FUSED,
    ROUTE_OPT_SCALAR,
    ROUTE_OPT_TWO_PASS,
    ROUTE_OPT_VECTOR,
    ROUTE_SCALAR,
    ROUTE_VECTOR,
)

#: Without native kernels the RRIP-family schemes run the scalar reference
#: (they have no NumPy engine), and one-shot OPT its offline loop.
NATIVE = kernels.available()
STAGED_ROUTE = ROUTE_VECTOR if NATIVE else ROUTE_SCALAR

#: Pinned to ``vector``: the fused routes these scenarios name are never
#: planned under ``verify`` (REPRO_SIM_BACKEND=verify would otherwise leak in).
VECTOR_CFG = ExperimentConfig.smoke().with_overrides(backend="vector")
SCALAR_CFG = VECTOR_CFG.with_overrides(backend="scalar")
STREAM_VECTOR_CFG = VECTOR_CFG.with_overrides(chunk_accesses=1 << 12)
STREAM_SCALAR_CFG = STREAM_VECTOR_CFG.with_overrides(backend="scalar")

@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    set_disk_memo(None)
    yield
    set_disk_memo(None)
    clear_caches()


def _assert_stats_equal(vector, scalar):
    assert vector.hits == scalar.hits
    assert vector.misses == scalar.misses
    assert vector.evictions == scalar.evictions


def _roi_stats(scheme, config, shared_trace=False):
    workload = build_workload("PR", "lj", config=config)
    return simulate_scheme(workload, scheme, config, shared_trace=shared_trace)


def _stream_stats(scheme, config, shared_stream=False):
    workload = build_workload("PR", "lj", config=config)
    return simulate_scheme_streaming(
        workload, scheme, config, shared_stream=shared_stream
    )


class TestRoiRoutes:
    def test_fused_route_matches_reference(self):
        plan = plan_scheme_task("PR", "lj", VECTOR_CFG.reorder, "GRASP", VECTOR_CFG)
        expected = ROUTE_FUSED if kernels.has_capability("fused:rrip") else STAGED_ROUTE
        assert plan.route == expected
        vector = _roi_stats("GRASP", VECTOR_CFG)
        clear_caches()
        _assert_stats_equal(vector, _roi_stats("GRASP", SCALAR_CFG))

    def test_staged_vector_route_matches_reference(self):
        """shared_trace forces the staged materialize-once vector route."""
        vector = _roi_stats("RRIP", VECTOR_CFG, shared_trace=True)
        clear_caches()
        _assert_stats_equal(vector, _roi_stats("RRIP", SCALAR_CFG, shared_trace=True))

    def test_scalar_route_for_ablation_subclass(self):
        plan = plan_scheme_task(
            "PR", "lj", VECTOR_CFG.reorder, "RRIP+Hints", VECTOR_CFG
        )
        assert plan.route == ROUTE_SCALAR
        vector_cfg_run = _roi_stats("RRIP+Hints", VECTOR_CFG)
        clear_caches()
        _assert_stats_equal(vector_cfg_run, _roi_stats("RRIP+Hints", SCALAR_CFG))

    def test_opt_vector_route_matches_reference(self):
        plan = plan_scheme_task("PR", "lj", VECTOR_CFG.reorder, "OPT", VECTOR_CFG)
        assert plan.route == (ROUTE_OPT_VECTOR if NATIVE else ROUTE_OPT_SCALAR)
        vector = _roi_stats("OPT", VECTOR_CFG)
        clear_caches()
        _assert_stats_equal(vector, _roi_stats("OPT", SCALAR_CFG))


class TestStreamingRoutes:
    def test_fused_streaming_matches_reference(self):
        plan = plan_scheme_task(
            "PR", "lj", STREAM_VECTOR_CFG.reorder, "GRASP", STREAM_VECTOR_CFG,
            streaming=True,
        )
        expected = ROUTE_FUSED if kernels.has_capability("fused:rrip") else STAGED_ROUTE
        assert plan.route == expected
        vector = _stream_stats("GRASP", STREAM_VECTOR_CFG)
        clear_caches()
        _assert_stats_equal(vector, _stream_stats("GRASP", STREAM_SCALAR_CFG))

    def test_staged_streaming_replays_persisted_chunk_store(self, tmp_path):
        set_disk_memo(DiskMemo(tmp_path))
        vector = _stream_stats("RRIP", STREAM_VECTOR_CFG, shared_stream=True)
        plan = plan_scheme_task(
            "PR", "lj", STREAM_VECTOR_CFG.reorder, "RRIP", STREAM_VECTOR_CFG,
            streaming=True,
        )
        assert plan.route == STAGED_ROUTE  # chunk store now on disk
        clear_caches()
        set_disk_memo(None)
        _assert_stats_equal(vector, _stream_stats("RRIP", STREAM_SCALAR_CFG))

    def test_opt_two_pass_matches_reference(self):
        plan = plan_scheme_task(
            "PR", "lj", STREAM_VECTOR_CFG.reorder, "OPT", STREAM_VECTOR_CFG,
            streaming=True,
        )
        assert plan.route == ROUTE_OPT_TWO_PASS
        vector = _stream_stats("OPT", STREAM_VECTOR_CFG)
        clear_caches()
        _assert_stats_equal(vector, _stream_stats("OPT", STREAM_SCALAR_CFG))


class TestMultiSchemeRoutes:
    SCHEMES = ("GRASP", "LRU")

    def test_compare_policies_matches_scalar_reference(self):
        """Covers the fused-multi route when the filter kernel is compiled,
        the staged materialize-once path otherwise — identical either way."""
        vector = compare_policies(("PR",), ("lj",), self.SCHEMES, config=VECTOR_CFG)
        clear_caches()
        scalar = compare_policies(("PR",), ("lj",), self.SCHEMES, config=SCALAR_CFG)
        assert len(vector) == len(scalar)
        for v, s in zip(vector, scalar):
            assert (v.app_name, v.dataset_name, v.scheme) == (s.app_name, s.dataset_name, s.scheme)
            _assert_stats_equal(v.stats, s.stats)

    def test_compare_policies_streaming_matches_scalar_reference(self):
        vector = compare_policies_streaming(
            ("PR",), ("lj",), self.SCHEMES, config=STREAM_VECTOR_CFG
        )
        clear_caches()
        scalar = compare_policies_streaming(
            ("PR",), ("lj",), self.SCHEMES, config=STREAM_SCALAR_CFG
        )
        for v, s in zip(vector, scalar):
            _assert_stats_equal(v.stats, s.stats)


class TestCorunRoutes:
    PAIR_SPEC = CorunSpec(pairs=(("PR", "lj"), ("PR", "pl")))

    def _corun_stats(self, spec, scheme, config):
        return simulate_corun(spec, scheme, config=config)

    def test_corun_vector_matches_reference(self):
        plan = plan_corun_task(self.PAIR_SPEC, "RRIP", VECTOR_CFG)
        assert plan.route == (ROUTE_CORUN_VECTOR if NATIVE else ROUTE_CORUN_SCALAR)
        vector = self._corun_stats(self.PAIR_SPEC, "RRIP", STREAM_VECTOR_CFG)
        clear_caches()
        _assert_stats_equal(
            vector, self._corun_stats(self.PAIR_SPEC, "RRIP", STREAM_SCALAR_CFG)
        )

    def test_corun_partitioned_vector_matches_reference(self):
        spec = CorunSpec(
            pairs=self.PAIR_SPEC.pairs, partition=WayPartition.parse("8:8")
        )
        plan = plan_corun_task(spec, "GRASP", VECTOR_CFG)
        assert plan.route == (ROUTE_CORUN_VECTOR if NATIVE else ROUTE_CORUN_SCALAR)
        vector = self._corun_stats(spec, "GRASP", STREAM_VECTOR_CFG)
        clear_caches()
        _assert_stats_equal(
            vector, self._corun_stats(spec, "GRASP", STREAM_SCALAR_CFG)
        )

    def test_corun_scalar_pin_fallback(self):
        plan = plan_corun_task(self.PAIR_SPEC, "PIN-75", VECTOR_CFG)
        assert plan.route == ROUTE_CORUN_SCALAR
        vector_cfg_run = self._corun_stats(self.PAIR_SPEC, "PIN-75", STREAM_VECTOR_CFG)
        clear_caches()
        _assert_stats_equal(
            vector_cfg_run,
            self._corun_stats(self.PAIR_SPEC, "PIN-75", STREAM_SCALAR_CFG),
        )

    def test_corun_delegate_matches_reference(self):
        spec = CorunSpec(pairs=(("PR", "lj"),))
        plan = plan_corun_task(spec, "RRIP", VECTOR_CFG)
        assert plan.route == ROUTE_CORUN_DELEGATE
        vector = self._corun_stats(spec, "RRIP", STREAM_VECTOR_CFG)
        clear_caches()
        _assert_stats_equal(
            vector, self._corun_stats(spec, "RRIP", STREAM_SCALAR_CFG)
        )
