"""Streaming-vs-one-shot equivalence suite (ISSUE 5).

Every resumable fast engine must replay a chunked stream bit-identically to
one replay over the concatenation — per-access hit masks, per-set miss
counts, hit/miss/eviction/bypass statistics and the *final policy state*
(PSEL and bimodal counters, SHCT contents, PC predictors, predicted live
distances).  Covered at three levels:

* engine level: randomized block/hint/PC streams through every ``*Stream``
  against the one-shot dispatchers (one feed on a fresh stream, returning
  ``(hits, stream)``), for the compiled kernel and for the
  route a compiler-less host streams through (the NumPy LRU/OPT streams,
  the scalar reference for the native-only families), across several chunk
  budgets;
* filter level: :class:`repro.fastsim.FilterStream` against
  :func:`repro.fastsim.run_filter` under all three backends;
* pipeline level: the runner's full-execution streaming simulation against
  one-shot replay of the materialized execution trace, for every scheme of
  the paper's matrix including OPT, plus chunk-budget invariance and the
  per-chunk disk memoisation round trip.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, SetAssociativeCache
from repro.cache.hints import HINT_HIGH
from repro.cache.policies.hawkeye import HawkeyePolicy
from repro.cache.policies.leeway import LeewayPolicy
from repro.cache.policies.pin import PinningPolicy
from repro.cache.policies.rrip import BRRIPPolicy, DRRIPPolicy, SRRIPPolicy
from repro.cache.policies.ship import ShipMemPolicy
from repro.core.grasp import GraspPolicy
from repro.experiments import ExperimentConfig, clear_caches, set_disk_memo
from repro.experiments.memo import DiskMemo
from repro.experiments.runner import (
    _chunk_budget,
    _stream_key,
    build_workload,
    execution_stream_summary,
    execution_trace,
    filter_trace,
    iter_llc_chunks,
    simulate_llc_policy,
    simulate_llc_policy_streaming,
    simulate_opt,
    simulate_opt_streaming,
    simulate_scheme_streaming,
)
from repro.experiments.schemes import scheme_policy
from repro.fastsim import (
    DenseIdMap,
    FilterStream,
    HawkeyeStream,
    LeewayStream,
    LRUStream,
    OptStream,
    PinStream,
    PolicyReplayStream,
    RRIPStream,
    ShipStream,
    kernels,
    hawkeye_replay,
    hawkeye_spec,
    leeway_replay,
    leeway_spec,
    lru_replay,
    opt_replay,
    pin_replay,
    pin_spec,
    resolve_chunk_next_use,
    rrip_replay,
    rrip_spec,
    run_filter,
    ship_replay,
    ship_spec,
)
from repro.fastsim.filter import assert_stats_equal
from repro.trace import Trace, generate_execution_trace, iter_execution_trace

GEOMETRY = (8, 4)
CHUNK_SIZES = (1, 97, 1024, 10**9)

BACKENDS = [True, False] if kernels.available() else [False]


@pytest.fixture(scope="module")
def streams():
    rng = np.random.default_rng(2026)
    n = 4000
    return {
        "blocks": rng.integers(0, 350, size=n).astype(np.int64),
        "hints": rng.integers(0, 4, size=n).astype(np.int64),
        "pcs": rng.integers(0, 10, size=n).astype(np.int64),
    }


def chunked(array, size):
    return [array[start : start + size] for start in range(0, len(array), size)]


needs_native = pytest.mark.skipif(
    not kernels.available(),
    reason="the one-shot reference engine is native-only: no C compiler",
)


def scalar_chunks(policy, streams, chunk):
    """The compiler-less streaming route: the scalar reference fed in chunks.

    Returns the hit mask, the per-set miss counts and the cache statistics;
    the policy object carries the final learning state.
    """
    num_sets, ways = GEOMETRY
    cache = SetAssociativeCache(
        CacheConfig(size_bytes=num_sets * ways * 64, ways=ways, name="LLC"), policy
    )
    hits = []
    for blocks, hints, pcs in zip(
        *(chunked(streams[key], chunk) for key in ("blocks", "hints", "pcs"))
    ):
        hits.extend(
            cache.access_block(block, pc, hint)
            for block, pc, hint in zip(blocks.tolist(), pcs.tolist(), hints.tolist())
        )
    hits = np.array(hits, dtype=bool)
    misses = np.bincount(streams["blocks"][~hits] & (num_sets - 1), minlength=num_sets)
    return hits, misses, cache.stats


def off_default(table, default):
    """A learning table without the entries still at their default value."""
    return {key: value for key, value in table.items() if value != default}


#: ``use_native`` selects the engine a host streams through: the native
#: ``*Stream`` when kernels are available, otherwise the NumPy ``LRUStream``
#: / ``OptStream`` and, for the native-only families, the scalar reference
#: fed chunk by chunk.  Every case compares against the one-shot engine.
@pytest.mark.parametrize("use_native", BACKENDS)
@pytest.mark.parametrize("chunk", CHUNK_SIZES)
class TestEngineStreams:
    def test_lru(self, streams, use_native, chunk):
        num_sets, ways = GEOMETRY
        one_hits, one = lru_replay(streams["blocks"], num_sets, ways)
        stream = LRUStream(num_sets, ways, use_native=use_native)
        hits = np.concatenate(
            [stream.feed(part) for part in chunked(streams["blocks"], chunk)]
        )
        np.testing.assert_array_equal(hits, one_hits)
        np.testing.assert_array_equal(stream.misses_per_set, one.misses_per_set)
        assert stream.evictions == one.evictions

    @needs_native
    @pytest.mark.parametrize(
        "policy_factory",
        [SRRIPPolicy, BRRIPPolicy, DRRIPPolicy, GraspPolicy],
        ids=["srrip", "brrip", "drrip", "grasp"],
    )
    def test_rrip_family(self, streams, use_native, chunk, policy_factory):
        num_sets, ways = GEOMETRY
        spec = rrip_spec(policy_factory())
        one_hits, one = rrip_replay(streams["blocks"], streams["hints"], num_sets, ways, spec)
        if not use_native:
            policy = policy_factory()
            hits, misses, _ = scalar_chunks(policy, streams, chunk)
            np.testing.assert_array_equal(hits, one_hits)
            np.testing.assert_array_equal(misses, one.misses_per_set)
            assert (policy._psel if spec.dueling else None) == one.psel
            assert getattr(policy, "_insert_count", 0) == one.insert_count
            return
        stream = RRIPStream(num_sets, ways, spec)
        hits = np.concatenate(
            [
                stream.feed(blocks, hints)
                for blocks, hints in zip(
                    chunked(streams["blocks"], chunk), chunked(streams["hints"], chunk)
                )
            ]
        )
        np.testing.assert_array_equal(hits, one_hits)
        np.testing.assert_array_equal(stream.misses_per_set, one.misses_per_set)
        assert stream.psel == one.psel
        assert stream.insert_count == one.insert_count

    @needs_native
    @pytest.mark.parametrize("fraction", [0.25, 1.0], ids=["pin25", "pin100"])
    def test_pin(self, streams, use_native, chunk, fraction):
        num_sets, ways = GEOMETRY
        spec = pin_spec(PinningPolicy(reserved_fraction=fraction))
        one_hits, one = pin_replay(streams["blocks"], streams["hints"], num_sets, ways, spec)
        if not use_native:
            policy = PinningPolicy(reserved_fraction=fraction)
            hits, misses, stats = scalar_chunks(policy, streams, chunk)
            np.testing.assert_array_equal(hits, one_hits)
            np.testing.assert_array_equal(misses, one.misses_per_set)
            assert stats.bypasses == one.bypass_count
            assert (policy._psel, policy._insert_count) == (one.psel, one.insert_count)
            assert stats.evictions == one.evictions
            return
        stream = PinStream(num_sets, ways, spec)
        hits = np.concatenate(
            [
                stream.feed(blocks, hints)
                for blocks, hints in zip(
                    chunked(streams["blocks"], chunk), chunked(streams["hints"], chunk)
                )
            ]
        )
        np.testing.assert_array_equal(hits, one_hits)
        np.testing.assert_array_equal(stream.misses_per_set, one.misses_per_set)
        np.testing.assert_array_equal(stream.bypasses_per_set, one.bypasses_per_set)
        assert stream.psel == one.psel
        assert stream.insert_count == one.insert_count
        assert stream.evictions == one.evictions

    @needs_native
    def test_ship(self, streams, use_native, chunk):
        num_sets, ways = GEOMETRY
        spec = ship_spec(ShipMemPolicy(region_bytes=256, block_bytes=64))
        one_hits, one = ship_replay(streams["blocks"], num_sets, ways, spec)
        if not use_native:
            policy = ShipMemPolicy(region_bytes=256, block_bytes=64)
            hits, misses, _ = scalar_chunks(policy, streams, chunk)
            np.testing.assert_array_equal(hits, one_hits)
            np.testing.assert_array_equal(misses, one.misses_per_set)
            assert off_default(policy._shct, 1) == off_default(one.shct, 1)
            return
        stream = ShipStream(num_sets, ways, spec)
        hits = np.concatenate(
            [stream.feed(part) for part in chunked(streams["blocks"], chunk)]
        )
        np.testing.assert_array_equal(hits, one_hits)
        np.testing.assert_array_equal(stream.misses_per_set, one.misses_per_set)
        assert stream.shct == one.shct

    @needs_native
    def test_hawkeye(self, streams, use_native, chunk):
        num_sets, ways = GEOMETRY
        spec = hawkeye_spec(HawkeyePolicy())
        one_hits, one = hawkeye_replay(streams["blocks"], streams["pcs"], num_sets, ways, spec)
        if not use_native:
            policy = HawkeyePolicy()
            hits, misses, _ = scalar_chunks(policy, streams, chunk)
            np.testing.assert_array_equal(hits, one_hits)
            np.testing.assert_array_equal(misses, one.misses_per_set)
            assert off_default(policy._predictor, spec.midpoint) == one.predictor
            return
        stream = HawkeyeStream(num_sets, ways, spec)
        hits = np.concatenate(
            [
                stream.feed(blocks, pcs)
                for blocks, pcs in zip(
                    chunked(streams["blocks"], chunk), chunked(streams["pcs"], chunk)
                )
            ]
        )
        np.testing.assert_array_equal(hits, one_hits)
        np.testing.assert_array_equal(stream.misses_per_set, one.misses_per_set)
        assert stream.predictor == one.predictor

    @needs_native
    def test_leeway(self, streams, use_native, chunk):
        num_sets, ways = GEOMETRY
        spec = leeway_spec(LeewayPolicy())
        one_hits, one = leeway_replay(streams["blocks"], streams["pcs"], num_sets, ways, spec)
        if not use_native:
            policy = LeewayPolicy()
            hits, misses, _ = scalar_chunks(policy, streams, chunk)
            np.testing.assert_array_equal(hits, one_hits)
            np.testing.assert_array_equal(misses, one.misses_per_set)
            assert off_default(policy._predicted_ld, 0) == one.predicted_live_distances
            return
        stream = LeewayStream(num_sets, ways, spec)
        hits = np.concatenate(
            [
                stream.feed(blocks, pcs)
                for blocks, pcs in zip(
                    chunked(streams["blocks"], chunk), chunked(streams["pcs"], chunk)
                )
            ]
        )
        np.testing.assert_array_equal(hits, one_hits)
        np.testing.assert_array_equal(stream.misses_per_set, one.misses_per_set)
        assert stream.predicted_live_distances == one.predicted_live_distances

    def test_opt_two_pass(self, streams, use_native, chunk):
        num_sets, ways = GEOMETRY
        one_hits, one = opt_replay(streams["blocks"], num_sets, ways)
        parts = chunked(streams["blocks"], chunk)
        starts = list(range(0, len(streams["blocks"]), chunk))
        next_seen = {}
        next_uses = [None] * len(parts)
        for index in reversed(range(len(parts))):
            next_uses[index] = resolve_chunk_next_use(
                parts[index], starts[index], next_seen
            )
        stream = OptStream(num_sets, ways, use_native=use_native)
        hits = np.concatenate(
            [stream.feed(blocks, nxt) for blocks, nxt in zip(parts, next_uses)]
        )
        np.testing.assert_array_equal(hits, one_hits)
        np.testing.assert_array_equal(stream.misses_per_set, one.misses_per_set)


def _reference_ids(chunks):
    """Pure-Python id model: each chunk's unseen keys take the next ids in
    sorted key order.  Returns per-chunk ids and the keys in id order."""
    ids = {}
    out = []
    for chunk in chunks:
        for key in sorted(set(chunk.tolist()) - ids.keys()):
            ids[key] = len(ids)
        out.append(np.array([ids[key] for key in chunk.tolist()], dtype=np.int64))
    return out, list(ids)


class TestDenseIdMap:
    """The grow-only id map behind every stream's key densification."""

    @settings(max_examples=150, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 5000), max_size=300),
        cuts=st.lists(st.integers(0, 300), max_size=8),
        spread=st.sampled_from([1, DenseIdMap.DIRECT_LIMIT // 1000]),
    )
    def test_chunked_ids_match_reference(self, keys, cuts, spread):
        # ``spread`` > 1 pushes later keys past DIRECT_LIMIT, so streams mix
        # direct-path chunks with the dict fallback.
        values = np.array(keys, dtype=np.int64) * spread
        chunks = np.split(values, sorted({min(cut, len(values)) for cut in cuts}))
        expected, order = _reference_ids(chunks)
        direct = DenseIdMap()
        dict_only = DenseIdMap()
        dict_only.DIRECT_LIMIT = 0  # every chunk takes the dict path
        for chunk, want in zip(chunks, expected):
            np.testing.assert_array_equal(direct.map(chunk), want)
            np.testing.assert_array_equal(dict_only.map(chunk), want)
        assert direct.keys_in_id_order() == dict_only.keys_in_id_order() == order
        assert len(direct) == len(order)

    @settings(max_examples=50, deadline=None)
    @given(keys=st.lists(st.integers(-50, 5000), max_size=300))
    def test_one_chunk_matches_unique(self, keys):
        values = np.array(keys, dtype=np.int64)
        unique, inverse = np.unique(values, return_inverse=True)
        ids = DenseIdMap()
        np.testing.assert_array_equal(ids.map(values), inverse)
        assert ids.keys_in_id_order() == unique.tolist()

    def test_fallback_keeps_direct_ids(self):
        ids = DenseIdMap()
        np.testing.assert_array_equal(ids.map(np.array([7, 3, 7, 11])), [1, 0, 1, 2])
        beyond = DenseIdMap.DIRECT_LIMIT + 5
        np.testing.assert_array_equal(
            ids.map(np.array([beyond, 3, -4, 11])), [4, 0, 3, 2]
        )
        np.testing.assert_array_equal(ids.map(np.array([7, beyond, 2])), [1, 4, 5])
        assert ids.keys_in_id_order() == [3, 7, 11, -4, beyond, 2]
        assert len(ids) == 6


class TestPolicyReplayStream:
    @needs_native
    def test_stats_match_one_shot_vector_replay(self, streams):
        num_sets, ways = GEOMETRY
        from repro.cache.config import CacheConfig

        llc = CacheConfig(size_bytes=num_sets * ways * 64, ways=ways, name="LLC")
        regions = (streams["blocks"] % 3).astype(np.int8)
        for factory in (
            GraspPolicy,
            lambda: PinningPolicy(reserved_fraction=0.5),
            lambda: ShipMemPolicy(region_bytes=256, block_bytes=64),
            HawkeyePolicy,
            LeewayPolicy,
        ):
            # The one-shot replay: one feed on a fresh stream.
            one = PolicyReplayStream(factory(), llc)
            one.feed(
                streams["blocks"],
                hints=streams["hints"],
                regions=regions,
                pcs=streams["pcs"],
            )
            stream = PolicyReplayStream(factory(), llc)
            for lo in range(0, len(streams["blocks"]), 313):
                hi = lo + 313
                stream.feed(
                    streams["blocks"][lo:hi],
                    hints=streams["hints"][lo:hi],
                    regions=regions[lo:hi],
                    pcs=streams["pcs"][lo:hi],
                )
            assert_stats_equal(one.stats(), stream.stats(), "PolicyReplayStream")

    def test_opt_policy_rejected(self):
        from repro.cache.config import CacheConfig
        from repro.cache.policies.opt import BeladyOptimal

        llc = CacheConfig(size_bytes=2048, ways=4, name="LLC")
        with pytest.raises(ValueError):
            PolicyReplayStream(BeladyOptimal(llc), llc)


@pytest.mark.parametrize("backend", ["vector", "scalar", "verify"])
def test_filter_stream_matches_one_shot(backend):
    config = ExperimentConfig.smoke()
    workload = build_workload("PR", "pl", config=config)
    trace = execution_trace(workload)
    one = run_filter(trace, config.hierarchy, backend=backend)
    stream = FilterStream(config.hierarchy, backend=backend)
    keeps = []
    for lo in range(0, len(trace), 4096):
        hi = lo + 4096
        keeps.append(
            stream.feed(
                Trace(trace.addresses[lo:hi], trace.pcs[lo:hi], trace.regions[lo:hi])
            )
        )
    np.testing.assert_array_equal(np.concatenate(keeps), one.keep)
    l1_stats, l2_stats = stream.finish()
    assert_stats_equal(one.l1_stats, l1_stats, "FilterStream L1")
    assert_stats_equal(one.l2_stats, l2_stats, "FilterStream L2")


class TestRunnerStreaming:
    """Full-pipeline equivalence on a real multi-iteration workload."""

    SCHEMES = (
        "LRU",
        "RRIP",
        "GRASP",
        "SHiP-MEM",
        "Hawkeye",
        "Leeway",
        "PIN-75",
        "PIN-100",
        "RRIP+Hints",  # scalar-only policy: exercises the scalar stream path
    )

    @pytest.fixture(scope="class")
    def setup(self):
        clear_caches()
        config = ExperimentConfig.smoke()
        workload = build_workload("PR", "lj", config=config)
        one_shot_llc = filter_trace(
            execution_trace(workload), config.hierarchy, workload.layout
        )
        return config, workload, one_shot_llc

    def test_llc_chunks_concatenate_to_one_shot_filter(self, setup):
        config, workload, one = setup
        chunks = list(iter_llc_chunks(workload, config, max_chunk_accesses=5000))
        np.testing.assert_array_equal(
            np.concatenate([chunk.block_addresses for chunk in chunks]),
            one.block_addresses,
        )
        np.testing.assert_array_equal(
            np.concatenate([chunk.hints for chunk in chunks]), one.hints
        )
        np.testing.assert_array_equal(
            np.concatenate([chunk.pcs for chunk in chunks]), one.pcs
        )
        summary = execution_stream_summary(workload, config, max_chunk_accesses=5000)
        assert summary["l1_hits"] == one.upstream_l1_hits
        assert summary["l2_hits"] == one.upstream_l2_hits
        assert summary["total_references"] == one.total_references

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_policy_streaming_matches_one_shot(self, setup, scheme):
        config, workload, one = setup
        streamed = simulate_llc_policy_streaming(
            workload, scheme_policy(scheme), config, max_chunk_accesses=5000
        )
        reference = simulate_llc_policy(one, scheme_policy(scheme), config.hierarchy.llc)
        assert_stats_equal(reference, streamed, f"streaming {scheme}")

    def test_opt_streaming_matches_one_shot(self, setup):
        config, workload, one = setup
        streamed = simulate_opt_streaming(workload, config, max_chunk_accesses=5000)
        reference = simulate_opt(one, config.hierarchy.llc)
        assert_stats_equal(reference, streamed, "streaming OPT")

    def test_chunk_budget_invariance(self, setup):
        config, workload, _ = setup
        policy = scheme_policy("GRASP")
        baseline = simulate_llc_policy_streaming(
            workload, policy, config, max_chunk_accesses=1500
        )
        for budget in (700, 50_000, 10**9):
            other = simulate_llc_policy_streaming(
                workload, scheme_policy("GRASP"), config, max_chunk_accesses=budget
            )
            assert_stats_equal(baseline, other, f"budget {budget}")

    def test_verify_backend_passes(self, setup):
        config, workload, _ = setup
        simulate_llc_policy_streaming(
            workload,
            scheme_policy("GRASP"),
            config,
            backend="verify",
            max_chunk_accesses=5000,
        )
        simulate_opt_streaming(
            workload, config, backend="verify", max_chunk_accesses=5000
        )

    def test_hint_stream_steers_pinning(self, setup):
        """The hint plumbing must survive chunking: PIN-100 with hints must
        differ from hint-blind replay on a skewed workload."""
        config, workload, one = setup
        assert (one.hints == HINT_HIGH).any()
        with_hints = simulate_llc_policy_streaming(
            workload, scheme_policy("PIN-100"), config, max_chunk_accesses=5000
        )
        without = simulate_llc_policy_streaming(
            workload,
            scheme_policy("PIN-100"),
            config,
            use_hints=False,
            max_chunk_accesses=5000,
        )
        assert with_hints.misses != without.misses

    def test_disk_memo_round_trip(self, setup, tmp_path):
        config, workload, _ = setup
        set_disk_memo(DiskMemo(tmp_path))
        try:
            first = list(iter_llc_chunks(workload, config, max_chunk_accesses=5000))
            stats_first = simulate_scheme_streaming(workload, "GRASP", config)
            memo = DiskMemo(tmp_path)
            assert memo.entry_count("llcchunk") >= len(first)
            assert memo.entry_count("llcstream") >= 1
            assert memo.entry_count("policystream") == 1
            clear_caches()
            second = list(iter_llc_chunks(workload, config, max_chunk_accesses=5000))
            assert len(first) == len(second)
            for a, b in zip(first, second):
                np.testing.assert_array_equal(a.block_addresses, b.block_addresses)
                np.testing.assert_array_equal(a.hints, b.hints)
            assert simulate_scheme_streaming(workload, "GRASP", config) == stats_first
        finally:
            set_disk_memo(None)
            clear_caches()

    def test_corrupt_memo_chunk_falls_back_mid_stream(self, setup, tmp_path):
        """A lost/corrupt persisted chunk regenerates the tail, bit-identically."""
        config, workload, _ = setup
        memo = DiskMemo(tmp_path)
        set_disk_memo(memo)
        try:
            first = list(iter_llc_chunks(workload, config, max_chunk_accesses=5000))
            assert len(first) > 2
            # Corrupt a middle chunk: the memo-hit path serves the prefix from
            # disk, then falls back to regeneration for the rest of the stream.
            key = _stream_key(
                workload, config, _chunk_budget(config, 5000)
            )
            memo.path_for("llcchunk", key + (1,)).write_bytes(b"not a pickle")
            clear_caches()
            second = list(iter_llc_chunks(workload, config, max_chunk_accesses=5000))
            assert len(first) == len(second)
            for a, b in zip(first, second):
                np.testing.assert_array_equal(a.block_addresses, b.block_addresses)
                np.testing.assert_array_equal(a.hints, b.hints)
            # The fallback also repaired the corrupted entry.
            assert memo.get("llcchunk", key + (1,)) is not None
        finally:
            set_disk_memo(None)
            clear_caches()

    def test_execution_covers_multiple_iterations(self, setup):
        config, workload, one = setup
        assert workload.app_result.num_iterations > 1
        roi_only = filter_trace(
            generate_execution_trace(
                workload.graph, workload.layout, [workload.roi]
            ),
            config.hierarchy,
            workload.layout,
        )
        assert one.total_references > roi_only.total_references


class TestFusedStreaming:
    """Fused single-pass streaming vs the staged chunked pipeline (ISSUE 7).

    The ``vector`` route of ``simulate_llc_policy_streaming`` fuses trace
    generation, L1/L2 filtering and the LLC replay into one native call per
    chunk, sharded over ``REPRO_THREADS`` filter threads.  It must stay
    bit-identical to the staged/scalar cross-checked pipeline for every
    thread count and chunk budget, including the hint-driven schemes.
    """

    SCHEMES = ("GRASP", "SHiP-MEM", "Hawkeye", "Leeway", "PIN-50")

    @pytest.fixture(scope="class")
    def setup(self):
        clear_caches()
        set_disk_memo(None)
        config = ExperimentConfig.smoke()
        workload = build_workload("PR", "lj", config=config)
        return config, workload

    @pytest.mark.parametrize("threads", ["1", "2", "8"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_thread_counts_match_verify(self, setup, monkeypatch, scheme, threads):
        config, workload = setup
        monkeypatch.setenv("REPRO_THREADS", threads)
        fused = simulate_llc_policy_streaming(
            workload, scheme_policy(scheme), config,
            backend="vector", max_chunk_accesses=5000,
        )
        reference = simulate_llc_policy_streaming(
            workload, scheme_policy(scheme), config,
            backend="verify", max_chunk_accesses=5000,
        )
        assert_stats_equal(reference, fused, f"fused {scheme} x{threads}")

    def test_chunk_budget_invariance_under_threads(self, setup, monkeypatch):
        config, workload = setup
        monkeypatch.setenv("REPRO_THREADS", "8")
        baseline = simulate_llc_policy_streaming(
            workload, scheme_policy("GRASP"), config,
            backend="vector", max_chunk_accesses=1500,
        )
        for budget in (700, 50_000, 10**9):
            other = simulate_llc_policy_streaming(
                workload, scheme_policy("GRASP"), config,
                backend="vector", max_chunk_accesses=budget,
            )
            assert_stats_equal(baseline, other, f"fused budget {budget}")


def test_execution_chunks_respect_budget():
    config = ExperimentConfig.smoke()
    workload = build_workload("PR", "pl", config=config)
    degrees = (workload.graph.in_index[1:] - workload.graph.in_index[:-1]).astype(
        np.int64
    )
    stride = 1 + len(workload.layout.edge_property_arrays)
    record = int(degrees.max()) * stride + 1 + len(workload.layout.vertex_property_arrays)
    budget = max(2048, record)
    for chunk in iter_execution_trace(
        workload.graph,
        workload.layout,
        workload.app_result.iterations,
        max_chunk_accesses=budget,
    ):
        assert len(chunk) <= budget
