"""Checks of the benchmark itself, outside tier-1.

    PYTHONPATH=src python -m pytest -q benchmarks

Each workload runs twice under tracing in this process, a traced and an
untraced solve each time (about a minute): every layer the workload is meant
to exercise must record spans inside the traced solve, the layers it bypasses
must record none, the computed counts must repeat exactly, every gate must
pass and the repeat must return exactly the first output. Two short runs of
``run.py`` check the result format and the failure without a package.
"""
from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

import tracing
import worker
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5
ACCURACY_METRICS = ({m["name"] for m in SPEC["end_to_end"]}
                    - {"setup_s", "solve_s", "peak_rss_mb"})
COMPUTED_COUNTS = ("engine.table_bytes", "engine.live_fraction", "convolution.live_cells",
                   "extremizer.shell_pair_rows", "extremizer.accepted_steps")
RUN_LEVEL_METRICS = {"trace.overhead_s", "workload.wall_solve_s", "calibration.reference_s"}


def traced_solve(rec) -> dict:
    solves = [r for r in rec["solves"] if r["traced"]]
    assert solves, rec["error"]
    return solves[0]


@pytest.fixture(scope="module")
def traced_samples():
    return {name: [worker.sample(w, w.setup(SEED), trace=True) for _ in range(2)]
            for name, w in WORKLOADS.items()}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_expected_layers_record_spans(traced_samples, name):
    for rec in traced_samples[name]:
        spans = traced_solve(rec)["span_counts"]
        silent = [layer for layer in WORKLOADS[name].layers if spans.get(layer, 0) == 0]
        assert not silent, f"{name}: no spans from {silent}"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_bypassed_layers_record_no_spans(traced_samples, name):
    for rec in traced_samples[name]:
        hits = [span for span in traced_solve(rec)["span_counts"]
                if span.startswith(WORKLOADS[name].bypassed)]
        assert not hits, f"{name}: spans from bypassed layers {hits}"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_computed_counts_repeat_exactly(traced_samples, name):
    first, second = (traced_solve(rec)["layers"] for rec in traced_samples[name])
    for key in COMPUTED_COUNTS:
        assert first[key] == second[key], key


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_gates_pass(traced_samples, name):
    for rec in traced_samples[name]:
        assert rec["error"] is None, rec["error"]
        assert rec["failed"] == 0, rec["gates"]
        assert set(rec["gates"]) == set(WORKLOADS[name].gates)
        assert [r["identical"] for r in rec["solves"][1:]] == [True]
        assert rec["attempted"] == 2 + len(WORKLOADS[name].gates)


def test_identical_tells_outputs_apart():
    out = ({"a": np.arange(3.0), "b": [1.0, float("nan")]}, 2.0)
    same = ({"a": np.arange(3.0), "b": [1.0, float("nan")]}, 2.0)
    assert worker.identical(out, same)
    assert not worker.identical(out, ({"a": np.arange(3.0) + 1e-15, "b": [1.0, float("nan")]}, 2.0))
    assert not worker.identical(out, ({"a": np.arange(3.0), "b": [1.0, float("nan")]}, 2.5))


def test_calibration_kernels_stay_outside_the_library():
    code = ("import sys, calibration; calibration.reference_time(['rows', 'tables']); "
            "print(sorted(m for m in sys.modules if m.startswith('hyperconv')))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH_DIR, capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_live_diamond_entries_brute_force():
    for n in (8, 9, 31):
        even = sum(1 for c, j in itertools.product(range(n), repeat=2)
                   if 0 <= c - j and c + j <= n - 1)
        odd = sum(1 for m, j in itertools.product(range(n - 1), range(1, n))
                  if 0 <= m + 1 - j and m + j <= n - 1)
        assert tracing.live_diamond_entries(n) == even + odd


def test_layer_metric_names_match_spec(traced_samples):
    spec_layers = {m["name"] for m in SPEC["per_layer"]}
    for name in WORKLOADS:
        for rec in traced_samples[name]:
            assert set(traced_solve(rec)["layers"]) | RUN_LEVEL_METRICS == spec_layers
            assert set(rec["metrics"]) == ACCURACY_METRICS


def _run(cwd, *args, env=None):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180, env=env)


def test_run_prints_result_and_record():
    proc = _run(ROOT, "--workload", "dyadic_scan", "--seed", "2", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
    assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads(record_line)["record"]
    assert {"python", "numpy", "scipy"} <= set(record["versions"])
    assert record["nproc"] >= 1 and "commit" in record
    assert record["thread_pinning"]["OPENBLAS_NUM_THREADS"] == "1"


def test_run_fails_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _run(tmp_path, "--workload", "pair_field", "--seed", "1", "--seconds", "1",
                "--trace", "0", env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
