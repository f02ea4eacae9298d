"""Repository benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``NOTES.md``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give each metric with its
unit, the machine fingerprint and every failed operation.

Everything the run writes stays under ``.perfbench/`` in the checkout:
the kernel artifact directory (kept warm between runs), a per-run work
directory (removed at exit) and ``digests.json``, the record of each
workload's statistics digest per seed that later runs must repeat.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

#: Ambient knobs that would change what the program does; always cleared.
PINNED_ENV = (
    "REPRO_SCALE", "REPRO_SIM_BACKEND", "REPRO_THREADS", "REPRO_WORKERS",
    "REPRO_CACHE_DIR", "REPRO_NATIVE", "REPRO_CC",
)
SETUP_SAMPLES = 3
MIN_ROUNDS = 2
WARM_MIN_S = 1.0
WARM_MAX_CALLS = 1000

END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "replay_refs_per_s": "refs/s",
    "peak_rss_mb": "MB",
}


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]


def pin_environment(native: bool) -> None:
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    if not native:
        os.environ["REPRO_NATIVE"] = "0"
    os.environ["XDG_CACHE_HOME"] = str(STATE / "kernels")
    os.environ["TMPDIR"] = str(STATE / "tmp")
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


# ---------------------------------------------------------------------------
# set-up


def setup_once(workload: str, seed: int, scale_factor: float, work: Path) -> Dict[str, float]:
    """Import, kernel load and workload build, each timed (one fresh process)."""
    start = time.perf_counter()
    from repro.experiments import runner, service  # noqa: F401
    from repro.fastsim import kernels

    imported = time.perf_counter()
    kernels.available()
    loaded = time.perf_counter()
    from workloads import WORKLOADS

    WORKLOADS[workload](seed, scale_factor, work).build()
    built = time.perf_counter()
    return {
        "import_s": imported - start,
        "kernels_load_s": loaded - imported,
        "build_s": built - loaded,
        "setup_s": built - start,
    }


def setup_samples(args, work: Path) -> List[Dict[str, float]]:
    samples = []
    for index in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--scale-factor", repr(args.scale_factor),
             "--work", str(work / f"probe-{index}")],
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# memory


class PeakMemory:
    """RSS high-water of this process plus its concurrently running children.

    The kernel's ``VmHWM`` never decreases, so sampling the children's value
    every 0.1 s misses at most their last 0.1 s of growth, and this
    process's own high-water is read exactly at exit.  Pages a forked
    worker shares with this process count in both.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.children_kb = 0
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def _hwm_kb(pid: str) -> int:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    @staticmethod
    def _children() -> List[str]:
        pids = []
        for path in Path("/proc/self/task").glob("*/children"):
            try:
                pids.extend(path.read_text().split())
            except OSError:
                pass
        return pids

    def sample(self) -> None:
        total = sum(self._hwm_kb(pid) for pid in self._children())
        self.children_kb = max(self.children_kb, total)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "PeakMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()
        self.peak_kb = self._hwm_kb("self") + self.children_kb


# ---------------------------------------------------------------------------
# the measured run


class Ledger:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def attempt(self, label: str, fn, *args):
        """Run one operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is counted and named
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def check(self, label: str, error: Optional[str]) -> None:
        self.attempted += 1
        if error:
            self.failures.append(f"{label}: {error}")


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def run_rep(bench, ledger: Ledger, spans_dir: Optional[Path] = None) -> Optional[dict]:
    """One repetition: untimed build, timed cold call, timed warm call.

    With ``spans_dir`` the repetition is traced: layer wrappers are in place
    for the build and both timed calls, and removed before this returns.
    """
    import tracing

    patch = tracing.install(spans_dir) if spans_dir is not None else None
    if patch is not None:
        tracing.RECORDER.reset()

        def call(fn):
            return tracing.RECORDER.call("runner", fn)
    else:
        def call(fn):
            return fn()
    try:
        bench.build()
        cold = ledger.attempt("cold call", timed, lambda: call(bench.call))
        if cold is None:
            return None
        # A warm call can take milliseconds; repeat it and keep every time.
        warm_times: List[float] = []
        while sum(warm_times) < WARM_MIN_S and len(warm_times) < WARM_MAX_CALLS:
            bench.before_warm()
            warm = ledger.attempt("warm call", timed, lambda: call(bench.warm))
            if warm is None:
                break
            warm_times.append(warm[1])
            if patch is not None:
                break  # one traced warm call: layer totals cover one of each
    finally:
        if patch is not None:
            patch.restore()
    if warm is None:
        return None
    rep = {"cold": cold[0], "cold_s": cold[1], "warm": warm[0],
           "warm_s": statistics.median(warm_times), "warm_times": warm_times}
    if patch is not None:
        tracing.collect_workers(spans_dir, patch)
        rep["layers"] = tracing.layer_metrics(
            tracing.RECORDER.totals, tracing.RECORDER.task_times
        )
    return rep


def record_digest(workload: str, seed: int, scale: float, value: str) -> Optional[str]:
    """Compare with the digest an earlier run stored for these inputs."""
    path = STATE / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload}/seed={seed}/scale={scale!r}"
    previous = known.setdefault(key, value)
    if previous != value:
        return f"digest {value[:16]} differs from the {previous[:16]} an earlier run stored"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None


def fingerprint(bench) -> dict:
    """Machine and kernel facts a result is only comparable under."""
    import numpy

    from repro.experiments.schemes import scheme_policy
    from repro.fastsim import kernels
    from repro.fastsim.plan import PLANNER, SimRequest
    from workloads import FAMILY_SCHEMES

    try:
        compiler = subprocess.run(
            ["cc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        compiler = "none"
    tiers = {}
    for family, scheme in FAMILY_SCHEMES.items():
        policies = () if scheme == "OPT" else (scheme_policy(scheme),)
        plan = PLANNER.plan(SimRequest(
            schemes=(scheme,), policies=policies, hierarchy=bench.config.hierarchy,
        ))
        tiers[family] = plan.kernel
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "compiler": compiler,
        "native_kernels": kernels.available(),
        "kernel_tier": tiers,
    }


def compile_seconds() -> float:
    """Compile the native kernels into a fresh artifact directory."""
    from repro.fastsim.kernels import registry

    fresh = STATE / "tmp" / f"kernels-fresh-{os.getpid()}"
    warm = os.environ["XDG_CACHE_HOME"]
    os.environ["XDG_CACHE_HOME"] = str(fresh)
    registry.reset()
    try:
        start = time.perf_counter()
        registry.available()
        return time.perf_counter() - start
    finally:
        os.environ["XDG_CACHE_HOME"] = warm
        registry.reset()
        registry.available()
        shutil.rmtree(fresh, ignore_errors=True)


def repeat(bench, ledger: Ledger, args, work: Path):
    """Repeat cold+warm rounds for ``--seconds``; returns the repetitions."""
    plain: List[dict] = []
    layered: List[dict] = []
    rounds: List[float] = []
    started = time.perf_counter()
    # Start another round while it is expected to end no more than half a
    # round past the limit; always at least two, so no median rests on one
    # sample.
    while len(rounds) < MIN_ROUNDS or (
        time.perf_counter() + statistics.median(rounds) / 2 < started + args.seconds
    ):
        round_start = time.perf_counter()
        rep = run_rep(bench, ledger)
        if rep is None:
            break
        plain.append(rep)
        if args.trace:
            rep = run_rep(bench, ledger, work / f"spans-{len(layered)}")
            if rep is None:
                break
            layered.append(rep)
        rounds.append(time.perf_counter() - round_start)
    return plain, layered


def check(bench, ledger: Ledger, args, reps: List[dict], filled) -> Optional[int]:
    """Correctness checks outside the timed region; returns the reference count."""
    from workloads import digest

    if not reps:
        return None
    reference = digest(reps[0]["cold"])
    for index, rep in enumerate(reps):
        ledger.check(f"rep {index} cold digest",
                     None if digest(rep["cold"]) == reference else "differs from rep 0")
        ledger.check(f"rep {index} warm == cold",
                     None if digest(rep["warm"]) == reference else "warm points differ")
    if filled is not None:
        ledger.check("fill == cold", None if digest(filled) == reference else "fill points differ")
    ledger.check("digest across runs", record_digest(
        args.workload, args.seed, bench.config.scale, reference))
    refs = ledger.attempt("count references", bench.refs)
    for label, error in ledger.attempt("oracle", lambda: list(bench.oracle(reps[0]["cold"]))) or ():
        ledger.check(f"oracle {label}", error)
    return refs


def run(args, work: Path) -> dict:
    """Measure one workload; returns the result object (and prints the report)."""
    from repro.fastsim import kernels
    from workloads import WORKLOADS

    ledger = Ledger()
    bench = WORKLOADS[args.workload](args.seed, args.scale_factor, work)
    phases: Dict[str, float] = {}
    kernels.available()  # compiles once per checkout into .perfbench/kernels
    # Memory is measured over the product's work only, not over the checks.
    with PeakMemory() as memory:
        # The fill call stores results for the warm phase and lets lazy
        # set-up finish before anything is timed.
        filled, phases["fill"] = timed(lambda: ledger.attempt("fill warm store", bench.fill))
        (plain, layered), phases["reps"] = timed(lambda: repeat(bench, ledger, args, work))
    refs, phases["checks"] = timed(lambda: check(bench, ledger, args, plain + layered, filled))
    compile_s = compile_seconds() if args.trace and bench.native else 0.0
    print("fingerprint: " + json.dumps(fingerprint(bench), sort_keys=True))
    bench.cleanup()
    setup, phases["setup probes"] = timed(lambda: setup_samples(args, work))
    print("wall: " + ", ".join(f"{name} {value:.3g} s" for name, value in phases.items()))

    def median(values):
        return statistics.median(values) if values else 0.0

    warm_times = [t for r in plain for t in r["warm_times"]]

    metrics: Dict[str, float] = {}
    if not args.trace:
        metrics["setup_s"] = median([s["setup_s"] for s in setup])
        metrics["cold_s"] = median([r["cold_s"] for r in plain])
        metrics["warm_s"] = median(warm_times)
        metrics["replay_refs_per_s"] = median([(refs or 0) / r["cold_s"] for r in plain])
        metrics["peak_rss_mb"] = memory.peak_kb / 1024.0
        units = END_TO_END
    else:
        import tracing

        for name in tracing.LAYER_METRICS:
            metrics[name] = median([r["layers"][name] for r in layered])
        metrics["import.s"] = median([s["import_s"] for s in setup])
        metrics["kernels.load_s"] = median([s["kernels_load_s"] for s in setup]) if bench.native else 0.0
        metrics["kernels.compile_s"] = compile_s
        metrics["trace.overhead_s"] = median(
            [r["cold_s"] + r["warm_s"] for r in layered]
        ) - median([r["cold_s"] + r["warm_s"] for r in plain])
        units = tracing.LAYER_METRICS
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    failed = len(ledger.failures)
    print(f"reps: {len(plain)} untraced, {len(layered)} traced; "
          f"failed_frac: {failed / max(1, ledger.attempted):.6g} ratio "
          f"({failed} of {ledger.attempted} operations)")
    print("samples cold_s: " + " ".join(f"{r['cold_s']:.4g}" for r in plain))
    if warm_times:
        print(f"warm calls: {len(warm_times)}; " + ", ".join(
            f"p{pct} {percentile(warm_times, pct):.4g} s" for pct in (90, 99)))
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "stream", "corun", "compilerless"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Multiplies every workload's graph scale; the tests run at tiny scale.
    parser.add_argument("--scale-factor", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_environment(native=args.workload != "compilerless")
    if args.setup_probe:
        print(json.dumps(setup_once(args.workload, args.seed, args.scale_factor, args.work)))
        return 0
    work = STATE / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, work)
    finally:
        # Sweep worker pools shut down without waiting; reap them here.
        for child in multiprocessing.active_children():
            child.join(timeout=60)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
