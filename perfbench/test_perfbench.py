"""Tests of the benchmark itself, at tiny scale.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = 0.05


def bench_run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


@pytest.fixture
def native_off(monkeypatch, tmp_path):
    """Run in-process with native kernels off, restoring the environment."""
    from repro.experiments import runner
    from repro.fastsim.kernels import registry

    monkeypatch.setenv("REPRO_NATIVE", "0")
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    registry.reset()
    yield tmp_path
    runner.set_disk_memo(None)
    runner.clear_caches()
    registry.reset()


@pytest.mark.parametrize("trace, names", [
    ("0", run.END_TO_END), ("1", tracing.LAYER_METRICS),
])
def test_every_metric_printed_with_unit(trace, names):
    out = bench_run("--workload", "compilerless", "--seed", "3", "--seconds", "0",
                    "--trace", trace, "--scale-factor", repr(TINY))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == names
    for name, unit in names.items():
        assert any(line.startswith(f"{name}: ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("fingerprint: ") for line in lines)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_seed_changes_generated_inputs(native_off):
    from repro.experiments import runner

    graphs = []
    for seed in (1, 2):
        bench = workloads.WORKLOADS["corun"](seed, TINY, native_off)
        assert bench.config.seed == seed and bench.spec.seed == seed
        runner.clear_caches()
        graphs.append(runner.build_workload("PR", "lj", config=bench.config).graph)
    assert not np.array_equal(graphs[0].out_targets, graphs[1].out_targets)


def test_injected_stats_mismatch_counts_as_failure(native_off, monkeypatch, capsys):
    real_find = workloads.find

    def skewed(points, app, dataset, scheme):
        stats = real_find(points, app, dataset, scheme)
        return dataclasses.replace(stats, hits=stats.hits + 1, misses=stats.misses - 1)

    monkeypatch.setattr(workloads, "find", skewed)
    args = Namespace(workload="compilerless", seed=5, seconds=0.0, trace=0,
                     scale_factor=TINY)
    result = run.run(args, native_off / "work")
    printed = capsys.readouterr().out
    assert not result["correct"]
    assert result["failed"] == len(workloads.Compilerless.schemes)
    assert "failed_frac: 0 ratio" not in printed
    assert "FAILED oracle SSSP/lj/GRASP" in printed


def _bindings():
    """Every attribute of every loaded repro module and of its classes."""
    seen = {}
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if not name.startswith("repro") or not isinstance(module, types.ModuleType):
            continue
        for attr, value in list(vars(module).items()):
            seen[(name, attr)] = value
            if isinstance(value, type):
                for member, inner in vars(value).items():
                    seen[(name, attr, member)] = inner
    return seen


def test_traced_wrappers_are_removed(native_off):
    bench = workloads.WORKLOADS["compilerless"](7, TINY, native_off)
    ledger = run.Ledger()
    bench.fill()
    before = _bindings()
    rep = run.run_rep(bench, ledger, native_off / "spans")
    assert rep is not None and rep["layers"]["plan.calls"] > 0
    after = _bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
    tracing.RECORDER.reset()
    assert run.run_rep(bench, ledger) is not None
    assert dict(tracing.RECORDER.totals) == {}
    assert ledger.failures == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench_run("--workload", "stream", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
