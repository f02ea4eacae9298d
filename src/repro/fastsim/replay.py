"""Vectorized LLC replay dispatch for the schemes the fast engines cover.

Every replacement scheme of the paper's evaluation has an exact fast engine:
the stack-distance engine for plain LRU (:mod:`repro.fastsim.stackdist`,
NumPy with an optional native kernel), the native RRIP-family engine for
SRRIP/BRRIP/DRRIP/GRASP (:mod:`repro.fastsim.rrip`), the native engines for
SHiP-MEM (:mod:`repro.fastsim.ship`), Hawkeye (:mod:`repro.fastsim.hawkeye`),
Leeway (:mod:`repro.fastsim.leeway`) and the PIN-X pinning configurations
(:mod:`repro.fastsim.pin`), and Belady's OPT (:mod:`repro.fastsim.opt`,
NumPy with an optional native kernel).  Only the GRASP ablation variants —
subclasses that override hooks the array specs cannot express — remain
scalar-only.  :func:`supports_vector_replay` says which policies have an
engine at all; whether it can run on this host (the native-only families
need the kernel library) is the execution planner's call
(:mod:`repro.fastsim.plan`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.policies import LRUPolicy
from repro.cache.policies.opt import BeladyOptimal
from repro.cache.stats import CacheStats
from repro.fastsim.hawkeye import HawkeyeStream, hawkeye_replay, hawkeye_spec
from repro.fastsim.leeway import LeewayStream, leeway_replay, leeway_spec
from repro.fastsim.opt import opt_replay
from repro.fastsim.pin import PinStream, pin_replay, pin_spec
from repro.fastsim.rrip import RRIPStream, rrip_replay, rrip_spec
from repro.fastsim.ship import ShipStream, ship_replay, ship_spec
from repro.fastsim.stackdist import LRUStream, lru_replay


def supports_vector_replay(policy) -> bool:
    """Whether a fast engine reproduces this policy exactly.

    Restricted to exact policy types — :class:`LRUPolicy`, the four
    RRIP-family policies :func:`repro.fastsim.rrip.rrip_spec` recognises
    (SRRIP/BRRIP/DRRIP/GRASP), :class:`~repro.cache.policies.ship.ShipMemPolicy`,
    :class:`~repro.cache.policies.hawkeye.HawkeyePolicy`,
    :class:`~repro.cache.policies.leeway.LeewayPolicy`,
    :class:`~repro.cache.policies.pin.PinningPolicy` and the offline
    :class:`~repro.cache.policies.opt.BeladyOptimal` wrapper.  A subclass
    could override any hook and silently diverge, so anything else falls
    back to the scalar simulator.
    """
    if type(policy) in (LRUPolicy, BeladyOptimal):
        return True
    return (
        rrip_spec(policy) is not None
        or ship_spec(policy) is not None
        or hawkeye_spec(policy) is not None
        or leeway_spec(policy) is not None
        or pin_spec(policy) is not None
    )


def _region_breakdown(hits: np.ndarray, regions: Optional[np.ndarray]):
    """Per-region access/miss counts (Fig. 2) from a replay's hit mask."""
    if regions is None or not len(regions):
        return None, None
    labels = np.asarray(regions, dtype=np.int64)
    access_counts = np.bincount(labels)
    miss_counts = np.bincount(labels[~hits], minlength=access_counts.shape[0])
    region_accesses = {
        region: int(count) for region, count in enumerate(access_counts) if count
    }
    region_misses = {
        region: int(count) for region, count in enumerate(miss_counts) if count
    }
    return region_accesses, region_misses


def vector_lru_replay(
    block_addresses: np.ndarray,
    llc_config: CacheConfig,
    regions: Optional[np.ndarray] = None,
) -> CacheStats:
    """Replay an LLC-bound block stream under LRU and return its statistics.

    ``regions`` (when given) produces the same per-region access/miss
    breakdown the scalar simulator records for Fig. 2, computed with
    ``np.bincount`` instead of per-access dictionary updates.
    """
    replay = lru_replay(block_addresses, llc_config.num_sets, llc_config.ways)
    region_accesses, region_misses = _region_breakdown(replay.hits, regions)
    return CacheStats.from_counts(
        name=llc_config.name,
        hits=replay.hit_count,
        misses=replay.miss_count,
        evictions=replay.evictions,
        region_accesses=region_accesses,
        region_misses=region_misses,
    )


def vector_opt_replay(
    block_addresses: np.ndarray, llc_config: CacheConfig
) -> CacheStats:
    """Belady's OPT statistics for an LLC trace via the vectorized engine.

    Mirrors :func:`repro.cache.policies.opt.simulate_opt_misses` (including
    the ``-OPT`` stats name); the scalar reference records no per-region
    breakdown, so neither does this path.
    """
    replay = opt_replay(block_addresses, llc_config.num_sets, llc_config.ways)
    return CacheStats.from_counts(
        name=f"{llc_config.name}-OPT",
        hits=replay.hit_count,
        misses=replay.miss_count,
        evictions=replay.evictions,
    )


class PolicyReplayStream:
    """Resumable LLC replay under any policy :func:`supports_vector_replay`
    accepts, except the offline :class:`BeladyOptimal` (streaming OPT is a
    two-pass pipeline — see
    :func:`repro.experiments.runner.simulate_opt_streaming`).

    The streaming counterpart of :func:`vector_policy_replay`: feed aligned
    (blocks, hints, regions, pcs) chunks, then read :meth:`stats`.  Chunked
    replay is bit-identical to the one-shot call on the concatenation,
    including the final policy state, which is exposed via the underlying
    ``engine`` attribute (an ``*Stream`` object carrying PSEL, SHCT,
    predictor tables, pinned populations, ...).  Policies outside LRU need
    the native kernel library: without it construction raises
    :class:`~repro.fastsim.kernels.NativeKernelUnavailable`.
    """

    def __init__(self, policy, llc_config: CacheConfig) -> None:
        if type(policy) is BeladyOptimal:
            raise ValueError(
                "BeladyOptimal has no online stream; use simulate_opt_streaming"
            )
        self.llc_config = llc_config
        num_sets, ways = llc_config.num_sets, llc_config.ways
        self._kind = None
        if type(policy) is LRUPolicy:
            self._kind = "lru"
            self.engine = LRUStream(num_sets, ways)
        else:
            spec = rrip_spec(policy)
            if spec is not None:
                self._kind = "rrip"
                self.engine = RRIPStream(num_sets, ways, spec)
            elif pin_spec(policy) is not None:
                self._kind = "pin"
                self.engine = PinStream(num_sets, ways, pin_spec(policy))
            elif ship_spec(policy) is not None:
                self._kind = "ship"
                self.engine = ShipStream(num_sets, ways, ship_spec(policy))
            elif hawkeye_spec(policy) is not None:
                self._kind = "hawkeye"
                self.engine = HawkeyeStream(num_sets, ways, hawkeye_spec(policy))
            elif leeway_spec(policy) is not None:
                self._kind = "leeway"
                self.engine = LeewayStream(num_sets, ways, leeway_spec(policy))
            else:
                raise ValueError(
                    f"policy {policy!r} has no vectorized replay engine; "
                    "use supports_vector_replay() before dispatching"
                )
        self._region_accesses: dict = {}
        self._region_misses: dict = {}

    def feed(
        self,
        block_addresses: np.ndarray,
        hints: Optional[np.ndarray] = None,
        regions: Optional[np.ndarray] = None,
        pcs: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Replay one chunk; returns its hit mask and advances the state."""
        if self._kind == "lru":
            hits = self.engine.feed(block_addresses)
        elif self._kind in ("rrip", "pin"):
            hits = self.engine.feed(block_addresses, hints)
        elif self._kind == "ship":
            hits = self.engine.feed(block_addresses)
        else:
            hits = self.engine.feed(block_addresses, pcs)
        region_accesses, region_misses = _region_breakdown(hits, regions)
        if region_accesses is not None:
            for region, count in region_accesses.items():
                self._region_accesses[region] = (
                    self._region_accesses.get(region, 0) + count
                )
            for region, count in region_misses.items():
                self._region_misses[region] = self._region_misses.get(region, 0) + count
        return hits

    def stats(self) -> CacheStats:
        """Aggregate :class:`CacheStats` over everything fed so far."""
        bypasses = self.engine.bypass_count if self._kind == "pin" else 0
        return CacheStats.from_counts(
            name=self.llc_config.name,
            hits=self.engine.hit_count,
            misses=self.engine.miss_count,
            evictions=self.engine.evictions,
            bypasses=bypasses,
            region_accesses=self._region_accesses or None,
            region_misses=self._region_misses or None,
        )

    def finish(self) -> CacheStats:
        """Alias of :meth:`stats`, closing the begin/feed/finish cycle."""
        return self.stats()


def vector_policy_replay(
    policy,
    block_addresses: np.ndarray,
    llc_config: CacheConfig,
    hints: Optional[np.ndarray] = None,
    regions: Optional[np.ndarray] = None,
    pcs: Optional[np.ndarray] = None,
) -> CacheStats:
    """Replay an LLC trace under any policy :func:`supports_vector_replay` accepts.

    ``hints`` is the 2-bit GRASP reuse-hint stream aligned with
    ``block_addresses`` (``None`` replays hint-blind, like the scalar
    simulator with ``use_hints=False``); GRASP's tables and PIN's pinning
    decisions consult it.  ``pcs`` is the synthetic program-counter stream
    the PC-indexed schemes (Hawkeye, Leeway) train on (``None`` replays with
    a constant PC, like the scalar simulator's default).  Policies outside
    LRU and OPT need the native kernel library and raise
    :class:`~repro.fastsim.kernels.NativeKernelUnavailable` without it.
    """
    if type(policy) is LRUPolicy:
        return vector_lru_replay(block_addresses, llc_config, regions=regions)
    if type(policy) is BeladyOptimal:
        return vector_opt_replay(block_addresses, llc_config)
    num_sets, ways = llc_config.num_sets, llc_config.ways
    bypasses = 0
    spec = rrip_spec(policy)
    if spec is not None:
        replay = rrip_replay(block_addresses, hints, num_sets, ways, spec)
    else:
        pspec = pin_spec(policy)
        sspec = ship_spec(policy)
        hspec = hawkeye_spec(policy)
        lspec = leeway_spec(policy)
        if pspec is not None:
            replay = pin_replay(block_addresses, hints, num_sets, ways, pspec)
            bypasses = replay.bypass_count
        elif sspec is not None:
            replay = ship_replay(block_addresses, num_sets, ways, sspec)
        elif hspec is not None:
            replay = hawkeye_replay(block_addresses, pcs, num_sets, ways, hspec)
        elif lspec is not None:
            replay = leeway_replay(block_addresses, pcs, num_sets, ways, lspec)
        else:
            raise ValueError(
                f"policy {policy!r} has no vectorized replay engine; "
                "use supports_vector_replay() before dispatching"
            )
    region_accesses, region_misses = _region_breakdown(replay.hits, regions)
    return CacheStats.from_counts(
        name=llc_config.name,
        hits=replay.hit_count,
        misses=replay.miss_count,
        evictions=replay.evictions,
        bypasses=bypasses,
        region_accesses=region_accesses,
        region_misses=region_misses,
    )
