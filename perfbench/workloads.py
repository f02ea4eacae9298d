"""The benchmark's four workloads, each driven through public entry points.

Every workload has the same shape:

``build()``
    Untimed preparation before each cold call (workload construction where
    it is not the timed work).
``call()``
    The timed public call.  Cold, nothing is stored: ``run_sweep`` into an
    empty memo root, or a ``compare_policies*`` call with no memo store.
``fill()``, ``before_warm()``, ``warm()``
    Fill a memo store once, then time the same call against it.
``refs()``
    Raw trace references × schemes one cold call replays.
``oracle(points)``
    A fixed sample of the cold call's ``CacheStats`` recomputed by the
    scalar reference simulator; yields ``(label, error-or-None)``.

Why each workload exists, and which layers it is meant to move, is in
``NOTES.md`` beside this file.  Nothing here imports ``repro`` at module
level, so the set-up probe can time the import itself.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

#: Engine family -> a scheme that runs on it (machine fingerprint).
FAMILY_SCHEMES = {
    "lru": "LRU", "rrip": "GRASP", "pin": "PIN-50", "ship": "SHiP-MEM",
    "hawkeye": "Hawkeye", "leeway": "Leeway", "opt": "OPT",
}


def digest(points) -> str:
    """Digest of every simulated statistic in a list of DataPoints."""
    rows = []
    for point in points:
        stats = point.stats
        rows.append([
            point.app_name, point.dataset_name, point.scheme,
            repr(point.cycles), repr(point.miss_reduction_pct), repr(point.speedup_pct),
            stats.accesses, stats.hits, stats.misses, stats.evictions, stats.bypasses,
            sorted(map(repr, stats.region_accesses.items())),
            sorted(map(repr, stats.region_misses.items())),
            sorted(map(repr, stats.stream_accesses.items())),
            sorted(map(repr, stats.stream_hits.items())),
            sorted(map(repr, stats.stream_misses.items())),
            sorted(map(repr, stats.stream_bypasses.items())),
        ])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def find(points, app: str, dataset: str, scheme: str):
    for point in points:
        if (point.app_name, point.dataset_name, point.scheme) == (app, dataset, scheme):
            return point.stats
    raise LookupError(f"no data point for {app}/{dataset}/{scheme}")


def _check(label: str, scalar, vector) -> Tuple[str, Optional[str]]:
    from repro.fastsim.filter import FastSimMismatchError, assert_stats_equal

    try:
        assert_stats_equal(scalar, vector, label)
    except FastSimMismatchError as exc:
        return label, str(exc)
    return label, None


def _replay_scalar(cache, chunks, with_streams: bool = False) -> None:
    """Feed LLC chunks to the scalar reference cache, one access at a time."""
    access = cache.access_block
    for chunk in chunks:
        columns = [
            chunk.block_addresses.tolist(), chunk.pcs.tolist(),
            chunk.hints.tolist(), chunk.regions.tolist(),
        ]
        if with_streams:
            columns.append(chunk.stream_ids.tolist())
        for access_args in zip(*columns):
            access(*access_args)


class Workload:
    """Shared plumbing: config, memo roots, the warm store."""

    name = ""
    native = True
    base_scale = 1.0
    #: One replay covers the full execution (else the ROI iteration).
    full_execution = False
    apps: Sequence[str] = ()
    datasets: Sequence[str] = ()
    schemes: Sequence[str] = ()
    baseline = "RRIP"

    def __init__(self, seed: int, scale_factor: float, work: Path) -> None:
        from repro.experiments.config import ExperimentConfig

        self.config = ExperimentConfig(
            scale=self.base_scale * scale_factor, seed=seed,
            apps=tuple(self.apps), high_skew_datasets=tuple(self.datasets),
        )
        self.seed = seed
        self.work = work
        self.warm_root = work / "warm"

    @property
    def pairs(self) -> List[Tuple[str, str]]:
        return [(app, dataset) for dataset in self.datasets for app in self.apps]

    def build(self) -> None:
        from repro.experiments import runner

        runner.clear_caches()
        runner.set_disk_memo(None)
        for app, dataset in self.pairs:
            runner.build_workload(app, dataset, config=self.config)

    def call(self):
        raise NotImplementedError

    def fill(self):
        """Fill the warm store once (untimed); returns the points it made."""
        from repro.experiments import runner
        from repro.experiments.memo import DiskMemo

        runner.clear_caches()
        runner.set_disk_memo(DiskMemo(self.warm_root))
        try:
            return self.call()
        finally:
            runner.set_disk_memo(None)

    def before_warm(self) -> None:
        from repro.experiments import runner
        from repro.experiments.memo import DiskMemo

        runner.clear_caches()
        runner.set_disk_memo(DiskMemo(self.warm_root))

    def warm(self):
        from repro.experiments import runner

        try:
            return self.call()
        finally:
            runner.set_disk_memo(None)

    def workloads(self):
        """Built workloads read back from the warm store (cheap)."""
        from repro.experiments import runner
        from repro.experiments.memo import DiskMemo

        runner.clear_caches()
        runner.set_disk_memo(DiskMemo(self.warm_root))
        return {pair: runner.build_workload(*pair, config=self.config) for pair in self.pairs}

    def refs(self) -> int:
        from repro.experiments import runner

        summary = (
            runner.execution_stream_summary if self.full_execution
            else runner.roi_stream_summary
        )
        total = sum(
            summary(workload, self.config)["total_references"]
            for workload in self.workloads().values()
        )
        return total * len(self.schemes)

    def oracle(self, points) -> Iterator[Tuple[str, Optional[str]]]:
        raise NotImplementedError

    def cleanup(self) -> None:
        from repro.experiments import runner

        runner.set_disk_memo(None)
        runner.clear_caches()


class Sweep(Workload):
    """Cold, then warm, ``run_sweep`` of the Fig. 5 schemes on two workers."""

    name = "sweep"
    base_scale = 4.0
    apps = ("PR", "SSSP")
    datasets = ("lj", "pl", "kr")
    schemes = ("RRIP", "SHiP-MEM", "Hawkeye", "Leeway", "GRASP", "PIN-50", "OPT")
    workers = 2
    oracle_sample = ("SSSP", "lj", "GRASP")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        from repro.experiments.service import SweepSpec

        self.spec = SweepSpec(
            apps=tuple(self.apps), datasets=tuple(self.datasets),
            schemes=tuple(self.schemes), baseline=self.baseline,
        )
        self._rep = 0

    def build(self) -> None:
        # The sweep builds its workloads inside the timed call; each cold
        # call gets an empty memo root and an empty in-process memo.
        from repro.experiments import runner

        shutil.rmtree(self.warm_root, ignore_errors=True)
        self._rep += 1
        self.warm_root = self.work / f"sweep-{self._rep}"
        runner.clear_caches()
        runner.set_disk_memo(None)

    def call(self):
        from repro.experiments.service import run_sweep

        return run_sweep(
            self.spec, self.config, cache_dir=self.warm_root,
            workers=self.workers, worker_backend="process",
        ).points

    def fill(self):
        return None  # the cold call filled this rep's store

    def before_warm(self) -> None:
        from repro.experiments import runner

        runner.clear_caches()

    def oracle(self, points):
        from repro.experiments import runner

        app, dataset, scheme = self.oracle_sample
        runner.clear_caches()
        runner.set_disk_memo(None)
        workload = runner.build_workload(app, dataset, config=self.config)
        scalar = runner.simulate_scheme(
            workload, scheme, self.config.with_overrides(backend="scalar")
        )
        yield _check(f"{app}/{dataset}/{scheme}", scalar, find(points, app, dataset, scheme))


class Stream(Workload):
    """Full-execution ``compare_policies_streaming`` of PR and SSSP on kr."""

    name = "stream"
    full_execution = True
    apps = ("PR", "SSSP")
    datasets = ("kr",)
    schemes = ("LRU", "RRIP", "GRASP", "SHiP-MEM", "Hawkeye", "Leeway", "PIN-50")
    oracle_sample = ("SSSP", "kr", "GRASP")

    def call(self):
        from repro.experiments.runner import compare_policies_streaming

        return compare_policies_streaming(
            self.apps, self.datasets, self.schemes, config=self.config,
            baseline=self.baseline,
        )

    def oracle(self, points):
        # The scalar L1/L2 filter alone would cost several seconds here, so
        # the sample replays the vector-filtered LLC stream of one app
        # through the scalar reference LLC.
        from repro.cache import SetAssociativeCache
        from repro.experiments import runner
        from repro.experiments.schemes import scheme_policy

        app, dataset, scheme = self.oracle_sample
        runner.clear_caches()
        runner.set_disk_memo(None)
        workload = runner.build_workload(app, dataset, config=self.config)
        cache = SetAssociativeCache(self.config.hierarchy.llc, scheme_policy(scheme))
        _replay_scalar(cache, runner.iter_llc_chunks(workload, self.config))
        yield _check(f"{app}/{dataset}/{scheme}", cache.stats, find(points, app, dataset, scheme))


class Corun(Workload):
    """K=2 Poisson co-run of PR/lj with SSSP/kr on one shared LLC."""

    name = "corun"
    full_execution = True
    base_scale = 0.5
    apps = ("PR", "SSSP")
    datasets = ("lj", "kr")
    schemes = ("RRIP", "GRASP", "SHiP-MEM", "Hawkeye", "Leeway")
    oracle_scheme = "GRASP"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        from repro.experiments.runner import CorunSpec

        self.spec = CorunSpec(
            pairs=(("PR", "lj"), ("SSSP", "kr")), schedule="poisson", quantum=64,
            seed=self.seed,
        )

    @property
    def pairs(self) -> List[Tuple[str, str]]:
        return list(self.spec.pairs)

    def call(self):
        from repro.experiments.runner import compare_policies_corun

        return compare_policies_corun(
            self.spec, self.schemes, config=self.config, baseline=self.baseline
        )

    def oracle(self, points):
        # Same merge as the product (vector-filtered per-app streams through
        # the interleaver); the shared LLC is the scalar reference cache.
        from repro.cache import SetAssociativeCache
        from repro.experiments import runner
        from repro.experiments.schemes import scheme_policy
        from repro.trace import InterleavedTraceStream

        runner.clear_caches()
        runner.set_disk_memo(None)
        workloads = [runner.build_workload(*pair, config=self.config) for pair in self.pairs]
        merged = InterleavedTraceStream(
            [runner.iter_llc_chunks(workload, self.config) for workload in workloads],
            schedule=self.spec.schedule, quantum=self.spec.quantum, seed=self.spec.seed,
            chunk_accesses=runner.DEFAULT_CHUNK_ACCESSES,
        )
        cache = SetAssociativeCache(
            self.config.hierarchy.llc, scheme_policy(self.oracle_scheme), track_streams=True
        )
        _replay_scalar(cache, merged, with_streams=True)
        for stream, (app, dataset) in enumerate(self.pairs):
            yield _check(
                f"{app}/{dataset}/{self.oracle_scheme}#{stream}",
                cache.stats.stream_view(stream),
                find(points, app, dataset, self.oracle_scheme),
            )


class Compilerless(Workload):
    """ROI ``compare_policies`` on lj with native kernels disabled."""

    name = "compilerless"
    native = False
    base_scale = 0.25
    apps = ("PR", "SSSP")
    datasets = ("lj",)
    schemes = (
        "LRU", "RRIP", "GRASP", "SHiP-MEM", "Hawkeye", "Leeway", "PIN-50", "OPT",
        "GRASP (Insertion-Only)",
    )
    oracle_pair = ("SSSP", "lj")

    def call(self):
        from repro.experiments.runner import compare_policies

        return compare_policies(
            self.apps, self.datasets, self.schemes, config=self.config,
            baseline=self.baseline,
        )

    def oracle(self, points):
        from repro.experiments import runner

        app, dataset = self.oracle_pair
        runner.clear_caches()
        runner.set_disk_memo(None)
        workload = runner.build_workload(app, dataset, config=self.config)
        scalar_config = self.config.with_overrides(backend="scalar")
        for scheme in self.schemes:
            scalar = runner.simulate_scheme(workload, scheme, scalar_config)
            yield _check(f"{app}/{dataset}/{scheme}", scalar, find(points, app, dataset, scheme))


WORKLOADS = {cls.name: cls for cls in (Sweep, Stream, Corun, Compilerless)}
