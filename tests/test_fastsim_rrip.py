"""Equivalence tests for the native RRIP-family replay engine.

Property-style: randomized block streams x randomized reuse-hint streams x
randomized cache geometries must produce byte-identical outcomes on the
scalar policies and both ways of driving the native stream (one feed on a
fresh stream, and seeded random chunks) — per-access hit masks, full
hit/miss/eviction statistics, and the global set-dueling state (PSEL and
the bimodal insertion counter).  The engine is native-only, so those cases
skip on hosts without a C compiler; the end-to-end dispatch cases run
everywhere (the planner routes to the scalar reference there).
"""

import numpy as np
import pytest

from repro.cache import CacheConfig, SetAssociativeCache
from repro.cache.policies import LRUPolicy
from repro.cache.policies.rrip import (
    DYNAMIC_INSERTION,
    BRRIPPolicy,
    DRRIPPolicy,
    SRRIPPolicy,
)
from repro.cache.stats import CacheStats
from repro.core.grasp import GraspPolicy
from repro.core.variants import GraspInsertionOnlyPolicy, RRIPWithHintsPolicy
from repro.experiments import ExperimentConfig, build_workload, clear_caches
from repro.experiments.runner import (
    _scalar_llc_replay,
    llc_trace_for,
    simulate_llc_policy,
)
from repro.experiments.schemes import scheme_policy
from repro.fastsim import (
    SCALAR,
    VECTOR,
    VERIFY,
    PolicyReplayStream,
    RRIPStream,
    kernels,
    rrip_replay,
    rrip_spec,
    supports_vector_replay,
)
from repro.fastsim.filter import assert_stats_equal

GEOMETRIES = [(1, 1), (1, 4), (4, 2), (8, 8), (16, 16), (32, 4), (64, 2)]

#: Policy factories under test; fresh instances per replay because the scalar
#: path mutates them.  Non-default parameters (narrow RRPVs, short bimodal
#: periods, a 4-bit PSEL that saturates constantly) stress every code path.
POLICIES = {
    "srrip": lambda: SRRIPPolicy(),
    "srrip-2bit": lambda: SRRIPPolicy(rrpv_bits=2),
    "brrip": lambda: BRRIPPolicy(),
    "brrip-tight": lambda: BRRIPPolicy(rrpv_bits=2, epsilon=3),
    "drrip": lambda: DRRIPPolicy(),
    "drrip-saturating": lambda: DRRIPPolicy(epsilon=4, psel_bits=3),
    "grasp": lambda: GraspPolicy(),
    "grasp-tight": lambda: GraspPolicy(rrpv_bits=2, epsilon=2, psel_bits=4),
}


def _scalar_reference(policy, blocks, hints, num_sets, ways):
    """Independent scalar replay built directly on SetAssociativeCache."""
    config = CacheConfig(size_bytes=num_sets * ways * 64, ways=ways, name="ref")
    cache = SetAssociativeCache(config, policy)
    hits = np.array(
        [cache.access_block(int(b), 0, int(h)) for b, h in zip(blocks, hints)],
        dtype=bool,
    )
    return hits, cache.stats


needs_native = pytest.mark.skipif(
    not kernels.available(), reason="the RRIP engine is native-only: no C compiler"
)


def chunked_stream_replay(block_addresses, hints, num_sets, ways, spec):
    """``(hits, stream)`` of an :class:`RRIPStream` fed in random chunks.

    Chunk boundaries are drawn from a generator seeded by the stream length,
    so every case is reproducible; a resumable replay must be bit-identical
    to one feed at any boundaries.
    """
    blocks = np.asarray(block_addresses, dtype=np.int64)
    hint_values = None if hints is None else np.asarray(hints)
    rng = np.random.default_rng(blocks.shape[0])
    stream = RRIPStream(num_sets, ways, spec)
    pieces = []
    start = 0
    while start < blocks.shape[0]:
        end = start + int(rng.integers(1, 97))
        pieces.append(
            stream.feed(
                blocks[start:end],
                None if hint_values is None else hint_values[start:end],
            )
        )
        start = end
    hits = np.concatenate(pieces) if pieces else np.zeros(0, dtype=bool)
    return hits, stream


def _assert_replay_matches(replay, policy, expected_hits, expected_stats, spec):
    hits, stream = replay
    assert np.array_equal(hits, expected_hits)
    assert stream.hit_count == expected_stats.hits
    assert stream.miss_count == expected_stats.misses
    assert stream.evictions == expected_stats.evictions
    if spec.dueling:
        # The set-dueling state must track the scalar policy exactly too.
        assert stream.psel == policy._psel
        assert stream.insert_count == policy._insert_count
    else:
        assert stream.psel is None
        if spec.epsilon:
            assert stream.insert_count == policy._insert_count


def _one_feed(policy, llc, blocks, **columns):
    """One-shot LLC replay: one feed on a fresh :class:`PolicyReplayStream`."""
    stream = PolicyReplayStream(policy, llc)
    stream.feed(blocks, **columns)
    return stream.stats()


class TestSpecExtraction:
    def test_exact_types_supported(self):
        for factory in POLICIES.values():
            policy = factory()
            assert rrip_spec(policy) is not None
            assert supports_vector_replay(policy)

    def test_subclasses_and_other_policies_rejected(self):
        class NotQuiteDRRIP(DRRIPPolicy):
            pass

        for policy in (
            NotQuiteDRRIP(),
            RRIPWithHintsPolicy(),
            GraspInsertionOnlyPolicy(),
            scheme_policy("SHiP-MEM"),
            scheme_policy("Hawkeye"),
            scheme_policy("Leeway"),
            scheme_policy("PIN-50"),
        ):
            # None of these may masquerade as a plain RRIP-family policy...
            assert rrip_spec(policy) is None
        # ...but the exact SHiP/Hawkeye/Leeway/PIN types have dedicated
        # engines (tests/test_fastsim_policies.py); only true subclasses
        # fall back to the scalar simulator.
        for policy in (NotQuiteDRRIP(), RRIPWithHintsPolicy(), GraspInsertionOnlyPolicy()):
            assert not supports_vector_replay(policy)

    def test_invalid_epsilon_rejected(self):
        # A zero bimodal period would make the scalar policy divide by zero
        # and the engines diverge; every bimodal policy must reject it.
        for factory in (BRRIPPolicy, DRRIPPolicy, GraspPolicy):
            with pytest.raises(ValueError):
                factory(epsilon=0)

    def test_spec_reflects_policy_parameters(self):
        spec = rrip_spec(DRRIPPolicy(rrpv_bits=2, epsilon=8, psel_bits=4))
        assert spec.max_rrpv == 3
        assert spec.epsilon == 8
        assert spec.psel_max == 15
        assert spec.leader_period == DRRIPPolicy.LEADER_PERIOD
        assert all(entry == DYNAMIC_INSERTION for entry in spec.insertion_table)
        grasp = rrip_spec(GraspPolicy())
        # Table II: High->MRU, Moderate->near-LRU, Low->LRU, Default->duel.
        assert grasp.insertion_table == (DYNAMIC_INSERTION, 0, 6, 7)
        assert grasp.promotion_table == (0, 0, -1, -1)


@needs_native
class TestRRIPReplayEquivalence:
    # ``rrip_replay`` is one feed on a fresh native stream; the second engine
    # feeds the stream in random chunks.  Both must reproduce the scalar
    # policies exactly.  The second engine's case id is the name of
    # the NumPy engine these cases exercised before it was deleted, so each
    # case keeps its identity.
    ENGINES = (
        rrip_replay,
        pytest.param(chunked_stream_replay, id="numpy_rrip_replay"),
    )

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("num_sets,ways", GEOMETRIES)
    def test_random_streams(self, engine, policy_name, num_sets, ways):
        seed = sorted(POLICIES).index(policy_name) * 9973 + num_sets * 131 + ways
        rng = np.random.default_rng(seed)
        for n in (0, 1, ways, 193, 800):
            blocks = rng.integers(0, max(1, 3 * num_sets * ways), size=n)
            hints = rng.integers(0, 4, size=n)
            policy = POLICIES[policy_name]()
            spec = rrip_spec(policy)
            expected_hits, expected_stats = _scalar_reference(
                policy, blocks, hints, num_sets, ways
            )
            replay = engine(blocks, hints, num_sets, ways, spec)
            _assert_replay_matches(replay, policy, expected_hits, expected_stats, spec)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("policy_name", ["drrip-saturating", "grasp-tight"])
    def test_leader_heavy_streams_keep_psel_exact(self, engine, policy_name):
        # Concentrate accesses on leader sets so PSEL saturates repeatedly.
        num_sets, ways = 32, 2
        rng = np.random.default_rng(5)
        leader_blocks = rng.integers(0, 8, size=600) * num_sets  # set 0
        brrip_blocks = rng.integers(0, 8, size=600) * num_sets + 1  # set 1
        blocks = np.empty(1200, dtype=np.int64)
        blocks[0::2] = leader_blocks
        blocks[1::2] = brrip_blocks
        hints = np.zeros(1200, dtype=np.int64)
        policy = POLICIES[policy_name]()
        spec = rrip_spec(policy)
        expected_hits, expected_stats = _scalar_reference(
            policy, blocks, hints, num_sets, ways
        )
        replay = engine(blocks, hints, num_sets, ways, spec)
        _assert_replay_matches(replay, policy, expected_hits, expected_stats, spec)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_hint_stream_none_matches_hint_blind_scalar(self, engine):
        rng = np.random.default_rng(9)
        blocks = rng.integers(0, 128, size=700)
        policy = GraspPolicy()
        spec = rrip_spec(policy)
        expected_hits, expected_stats = _scalar_reference(
            policy, blocks, np.zeros(700, dtype=np.int64), 16, 4
        )
        replay = engine(blocks, None, 16, 4, spec)
        _assert_replay_matches(replay, policy, expected_hits, expected_stats, spec)

    def test_native_and_numpy_engines_agree(self):
        # One feed against the chunk-fed stream on long streams.
        rng = np.random.default_rng(77)
        for policy_name in sorted(POLICIES):
            blocks = rng.integers(0, 512, size=int(rng.integers(1, 2500)))
            hints = rng.integers(0, 4, size=blocks.shape[0])
            spec = rrip_spec(POLICIES[policy_name]())
            one_hits, one = rrip_replay(blocks, hints, num_sets=16, ways=4, spec=spec)
            hits, streamed = chunked_stream_replay(blocks, hints, num_sets=16, ways=4, spec=spec)
            assert np.array_equal(one_hits, hits)
            assert np.array_equal(one.misses_per_set, streamed.misses_per_set)
            assert one.psel == streamed.psel
            assert one.insert_count == streamed.insert_count


class TestVectorPolicyReplay:
    @needs_native
    def test_region_breakdown_matches_scalar(self):
        rng = np.random.default_rng(3)
        blocks = rng.integers(0, 96, size=900)
        hints = rng.integers(0, 4, size=900)
        regions = rng.integers(0, 4, size=900).astype(np.int8)
        llc = CacheConfig(size_bytes=16 * 64 * 4, ways=4, name="LLC")
        stats = _one_feed(GraspPolicy(), llc, blocks, hints=hints, regions=regions)
        cache = SetAssociativeCache(llc, GraspPolicy())
        for block, hint, region in zip(blocks.tolist(), hints.tolist(), regions.tolist()):
            cache.access_block(block, 0, hint, region)
        assert_stats_equal(cache.stats, stats, "test")
        assert cache.stats.region_accesses == stats.region_accesses
        assert cache.stats.region_misses == stats.region_misses

    def test_unsupported_policy_raises(self):
        with pytest.raises(ValueError):
            PolicyReplayStream(
                scheme_policy("RRIP+Hints"),
                CacheConfig(size_bytes=16 * 64 * 4, ways=4, name="LLC"),
            )

    def test_lru_still_routes_to_stack_distance_engine(self):
        rng = np.random.default_rng(21)
        blocks = rng.integers(0, 64, size=500)
        llc = CacheConfig(size_bytes=16 * 64 * 4, ways=4, name="LLC")
        stats = _one_feed(LRUPolicy(), llc, blocks)
        cache = SetAssociativeCache(llc, LRUPolicy())
        for block in blocks.tolist():
            cache.access_block(block)
        assert_stats_equal(cache.stats, stats, "test")


class TestEndToEndDispatch:
    @pytest.mark.parametrize("scheme", ["RRIP", "GRASP"])
    def test_real_workload_stats_identical(self, scheme):
        clear_caches()
        config = ExperimentConfig.smoke()
        workload = build_workload("PR", "lj", config=config)
        llc_trace = llc_trace_for(workload, config)
        llc = config.hierarchy.llc
        scalar = simulate_llc_policy(llc_trace, scheme_policy(scheme), llc, backend=SCALAR)
        vector = simulate_llc_policy(llc_trace, scheme_policy(scheme), llc, backend=VECTOR)
        verify = simulate_llc_policy(llc_trace, scheme_policy(scheme), llc, backend=VERIFY)
        for other in (vector, verify):
            assert_stats_equal(scalar, other, "test")
        # The region breakdown (Fig. 2) must survive vectorization too.
        assert scalar.region_accesses == vector.region_accesses
        assert scalar.region_misses == vector.region_misses

    def test_hint_blind_replay_matches_scalar(self):
        clear_caches()
        config = ExperimentConfig.smoke()
        workload = build_workload("PR", "lj", config=config)
        llc_trace = llc_trace_for(workload, config)
        llc = config.hierarchy.llc
        direct = _scalar_llc_replay(llc_trace, GraspPolicy(), llc, False)
        public = simulate_llc_policy(
            llc_trace, GraspPolicy(), llc, use_hints=False, backend=VECTOR
        )
        assert_stats_equal(direct, public, "test")

    def test_ablation_variants_stay_on_scalar_path(self):
        # The Fig. 7 ablations subclass DRRIP/GRASP but override hooks the
        # array tables cannot express; they must not be routed to the engine.
        for scheme in ("RRIP+Hints", "GRASP (Insertion-Only)"):
            assert not supports_vector_replay(scheme_policy(scheme))


class TestStatsContract:
    def test_from_counts_round_trip(self):
        stats = CacheStats.from_counts("LLC", hits=7, misses=5, evictions=2)
        assert stats.accesses == 12
        assert stats.miss_rate == pytest.approx(5 / 12)
