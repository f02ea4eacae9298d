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
(:mod:`repro.fastsim.plan`).  :class:`PolicyReplayStream` drives every
online engine behind one feed interface; OPT needs the future and runs
through :class:`~repro.fastsim.opt.OptStream`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.policies import LRUPolicy
from repro.cache.policies.opt import BeladyOptimal
from repro.cache.stats import CacheStats
from repro.fastsim.hawkeye import HawkeyeStream, hawkeye_spec
from repro.fastsim.leeway import LeewayStream, leeway_spec
from repro.fastsim.pin import PinStream, pin_spec
from repro.fastsim.rrip import RRIPStream, rrip_spec
from repro.fastsim.ship import ShipStream, ship_spec
from repro.fastsim.stackdist import LRUStream


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


class PolicyReplayStream:
    """Resumable LLC replay under any policy :func:`supports_vector_replay`
    accepts, except the offline :class:`BeladyOptimal` (streaming OPT is a
    two-pass pipeline — see
    :func:`repro.experiments.runner.simulate_opt_streaming`).

    Feed aligned (blocks, hints, regions, pcs) chunks, then read
    :meth:`stats`; a one-shot replay is one feed on a fresh stream.
    ``hints`` is the 2-bit GRASP reuse-hint stream (``None`` replays
    hint-blind, like the scalar simulator with ``use_hints=False``); GRASP's
    tables and PIN's pinning decisions consult it.  ``pcs`` is the
    synthetic program-counter stream the PC-indexed schemes (Hawkeye,
    Leeway) train on (``None`` replays with a constant PC).  Chunked replay
    is bit-identical to one feed of the concatenation, including the final
    policy state, which is exposed via the underlying
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
