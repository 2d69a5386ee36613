"""Smoke test of the benchmark at tiny n; about half a minute.

    python3 -m pytest perfbench/test_smoke.py -q

Not part of Tier-1: the repository's pytest configuration collects only
``tests/``.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )
    return proc, proc.stdout.strip().splitlines()


def test_benchmark_json_matches_the_code():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_at_tiny_n(trace):
    proc, lines = _bench("--workload", "all", "--seed", "3", "--seconds", "1",
                         "--trace", trace, "--n", "32")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = run.PER_LAYER if trace == "1" else run.END_TO_END
    expected = {f"{w}.{k}" for w in workloads.WORKLOADS for k in units}
    assert set(result["metrics"]) == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    for w in workloads.WORKLOADS:
        assert any(line.startswith("env ") and f'"workload": "{w}"' in line for line in lines)
    if trace == "1":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["linear_energy.solver.nonlinear_calls"] == 0
        assert m["singular_limit.diagnostics.observe_calls"] == 0
        assert m["singular_limit.kernels.tables_builds"] == 4
        assert m["decay_fit.solver.fft2d_per_step"] == 16
        assert m["linear_energy.checkpoint.writes"] == 250
        assert m["decay_fit.trace.accounted_frac"] > 0.9


def test_missing_hook_is_absent_not_fatal():
    empty = types.SimpleNamespace
    mw = types.SimpleNamespace(solver=empty(), decay=empty(), diagnostics=empty(),
                               initial=empty(), checkpoint=empty())
    tracer = spans.Tracer()
    spans.install(tracer, mw)
    assert "solver._nonlinear_terms" in tracer.absent
    metrics = spans.layer_metrics(tracer)
    assert metrics["solver.nonlinear_ms_p50"] is None
    assert metrics["solver.steps"] is None


def test_exception_fails_every_check(tmp_path):
    # n = 7 is not a valid grid: ConfigurationError inside the workload
    checks = workloads.run("singular_limit", 1, 7, str(tmp_path))
    assert [c for c, _, _ in checks] == list(workloads.WORKLOADS["singular_limit"].checks)
    assert not any(ok for _, ok, _ in checks)
    assert all("ConfigurationError" in detail for _, _, detail in checks)


def test_without_package_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc, lines = _bench("--workload", "decay_fit", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
