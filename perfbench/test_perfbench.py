"""Self-test of the benchmark (not part of the tier-1 suite).

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from layers import KernelLog, timing_backend  # noqa: E402
from repro.kernels.backends import resolve_backend  # noqa: E402
from repro.runtime import SerialRuntime, ThreadedRuntime  # noqa: E402

DESIGN = json.loads((HERE / "design.json").read_text())
WORKLOADS = [w["name"] for w in DESIGN["workloads"]]


@pytest.mark.parametrize(
    "make",
    [
        lambda backend: SerialRuntime(backend=backend),
        lambda backend: SerialRuntime(batch_updates=True, backend=backend),
        lambda backend: ThreadedRuntime(num_workers=2, batch_updates=True, backend=backend),
        lambda backend: ThreadedRuntime(num_workers=2, backend=backend),
    ],
    ids=["serial", "serial-batched", "threaded-batched", "threaded"],
)
def test_timing_backend_leaves_r_bit_identical(make):
    a = np.random.default_rng(7).standard_normal((192, 160))
    log = KernelLog()
    timed = timing_backend(resolve_backend(None), log)
    plain = make(None).factorize(a, 32).r_dense()
    wrapped = make(timed).factorize(a, 32).r_dense()
    assert np.array_equal(plain, wrapped)
    assert log.drain(), "the wrapper saw no kernel call"


def test_benchmark_json_mirrors_design():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w["name"], w["why"]) for w in DESIGN["workloads"]
    ]
    for kind, keys in (("end_to_end", ("name", "unit", "better", "bound")),
                       ("per_layer", ("name", "unit", "better"))):
        assert bench[kind] == [{k: m[k] for k in keys} for m in DESIGN[kind]]
    for metric in DESIGN["per_layer"]:
        assert metric["moves"] and metric["on"], metric["name"]


def _run(args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.3",
                 "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in DESIGN[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in expected)


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_workload_refuses_unpinned_blas(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "not pinned" in proc.stderr
