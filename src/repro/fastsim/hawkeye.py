"""Exact native replay for Hawkeye (OPTgen-trained PC prediction).

:class:`~repro.cache.policies.hawkeye.HawkeyePolicy` couples every cache set
through one global PC predictor: accesses to sampled sets train it via the
per-set OPTgen reconstruction, every hit and insertion reads it, and
evictions of friendly lines detrain it.  The compiled kernel
(:mod:`repro.fastsim.kernels.hawkeye`) replays all of it in trace order,
reimplementing OPTgen with dense block/PC ids and ring-buffer occupancy
vectors of ``history_factor * ways`` entries per sampled set.

:class:`HawkeyeStream` is exact, including the final predictor contents;
:func:`hawkeye_replay` is one feed on a fresh stream.  It needs the native
kernel library and raises
:class:`~repro.fastsim.kernels.NativeKernelUnavailable` without it; a
zero-length OPTgen window (``history_factor <= 0``) has no ring buffer and
raises :class:`ValueError`.  The execution planner routes both cases to the
scalar reference simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.policies.hawkeye import HawkeyePolicy
from repro.fastsim import kernels
from repro.fastsim.leeway import _pc_array
from repro.fastsim.stackdist import DenseIdMap, grow_to


@dataclass(frozen=True)
class HawkeyeSpec:
    """Array-form description of one :class:`HawkeyePolicy` instance."""

    max_rrpv: int
    sample_period: int
    predictor_max: int
    history_factor: int

    @property
    def midpoint(self) -> int:
        """Predictor threshold at and above which a PC is cache-friendly."""
        return (self.predictor_max + 1) // 2


def hawkeye_spec(policy: ReplacementPolicy) -> Optional[HawkeyeSpec]:
    """Snapshot a policy into a :class:`HawkeyeSpec`, or ``None`` if ineligible.

    Restricted to the exact type :class:`HawkeyePolicy` — a subclass could
    override any hook and silently diverge.
    """
    if type(policy) is not HawkeyePolicy:
        return None
    return HawkeyeSpec(
        max_rrpv=policy.max_rrpv,
        sample_period=policy.sample_period,
        predictor_max=policy.predictor_max,
        history_factor=policy.history_factor,
    )


def _history_window(spec: HawkeyeSpec, ways: int) -> int:
    """OPTgen window length; the native ring buffer needs a positive one."""
    history = spec.history_factor * ways
    if history <= 0:
        raise ValueError(
            f"Hawkeye history_factor={spec.history_factor} gives a zero-length "
            "OPTgen window, which the native kernel cannot hold; replay this "
            "configuration through the scalar reference simulator"
        )
    return history


class HawkeyeStream:
    """Resumable exact Hawkeye replay: feed a block/PC stream in chunks.

    Carries tags, RRPVs, per-line friendliness/PCs, the global PC predictor
    and every sampled set's OPTgen ring buffer across :meth:`feed` calls;
    chunked replay is bit-identical to one replay over the concatenation.
    Block and PC ids are densified incrementally (grow-only id maps).
    Building a stream without the native kernel raises
    :class:`~repro.fastsim.kernels.NativeKernelUnavailable`.
    """

    def __init__(self, num_sets: int, ways: int, spec: HawkeyeSpec) -> None:
        kernels.require("replay:hawkeye", "HawkeyeStream")
        self._history = _history_window(spec, ways)
        self.num_sets = num_sets
        self.ways = ways
        self.spec = spec
        self.misses_per_set = np.zeros(num_sets, dtype=np.int64)
        self.hit_count = 0
        num_samplers = (num_sets + spec.sample_period - 1) // spec.sample_period
        self.tags = np.full(num_sets * ways, -1, dtype=np.int64)
        self.rrpv = np.full(num_sets * ways, spec.max_rrpv, dtype=np.int32)
        self._friendly = np.zeros(num_sets * ways, dtype=np.uint8)
        self._line_pc = np.zeros(num_sets * ways, dtype=np.int64)
        self._block_ids = DenseIdMap()
        self._pc_id_map = DenseIdMap()
        self._predictor = np.empty(0, dtype=np.int32)
        self._last_access = np.empty(0, dtype=np.int64)
        self._last_pc = np.empty(0, dtype=np.int64)
        self._occupancy = np.zeros(num_samplers * self._history, dtype=np.int32)
        self._occ_head = np.zeros(num_samplers, dtype=np.int64)
        self._occ_len = np.zeros(num_samplers, dtype=np.int64)
        self._timestamps = np.zeros(num_samplers, dtype=np.int64)

    @property
    def miss_count(self) -> int:
        """Total number of misses fed so far."""
        return int(self.misses_per_set.sum())

    @property
    def evictions(self) -> int:
        """Total evictions so far (Hawkeye never bypasses)."""
        return int(np.maximum(0, self.misses_per_set - self.ways).sum())

    @property
    def predictor(self) -> Dict[int, int]:
        """Current PC predictor, restricted to counters off the midpoint."""
        midpoint = self.spec.midpoint
        return {
            int(pc): int(value)
            for pc, value in zip(
                self._pc_id_map.keys_in_id_order(), self._predictor.tolist()
            )
            if value != midpoint
        }

    def feed(
        self, block_addresses: np.ndarray, pcs: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Replay one chunk; returns its hit mask and advances the state."""
        blocks = np.ascontiguousarray(block_addresses, dtype=np.int64)
        n = int(blocks.shape[0])
        pc_values = _pc_array(pcs, n)
        if n == 0:
            return np.zeros(0, dtype=bool)
        spec = self.spec
        block_ids = self._block_ids.map(blocks)
        pc_ids = self._pc_id_map.map(pc_values)
        self._predictor = grow_to(
            self._predictor, len(self._pc_id_map), spec.midpoint
        )
        self._last_access = grow_to(self._last_access, len(self._block_ids), -1)
        self._last_pc = grow_to(self._last_pc, len(self._block_ids), 0)
        hits = kernels.hawkeye_feed(
            blocks,
            block_ids,
            pc_ids,
            self.num_sets,
            self.ways,
            spec.max_rrpv,
            spec.sample_period,
            spec.predictor_max,
            self._history,
            self.tags,
            self.rrpv,
            self._friendly,
            self._line_pc,
            self._predictor,
            self._last_access,
            self._last_pc,
            self._occupancy,
            self._occ_head,
            self._occ_len,
            self._timestamps,
            self.misses_per_set,
        )
        self.hit_count += int(hits.sum())
        return hits


def hawkeye_replay(
    block_addresses: np.ndarray,
    pcs: Optional[np.ndarray],
    num_sets: int,
    ways: int,
    spec: HawkeyeSpec,
) -> Tuple[np.ndarray, HawkeyeStream]:
    """One-shot replay: one :meth:`HawkeyeStream.feed` on a fresh stream.

    Returns the hit mask and the stream, which carries the per-set misses
    and the final PC predictor.
    """
    stream = HawkeyeStream(num_sets, ways, spec)
    return stream.feed(block_addresses, pcs), stream
