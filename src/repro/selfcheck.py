"""Quick installation self-check: ``python -m repro selfcheck``.

Runs a small battery across every subsystem — numeric kernels, DAG
construction, simulators, planner, linalg layer — in a few seconds and
reports pass/fail per area.  Meant for users verifying an install or a
port (new NumPy/BLAS), not as a substitute for the test suite.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np


def _check_kernels() -> str:
    from .kernels import geqrt, tsmqr, tsqrt
    from .kernels.tsqr import tsqr

    rng = np.random.default_rng(0)
    a = rng.standard_normal((16, 16))
    f = geqrt(a)
    q = f.q_dense()
    err = np.linalg.norm(q @ f.r - a)
    assert err < 1e-12, f"GEQRT reconstruction error {err:.2e}"
    r1 = np.triu(rng.standard_normal((16, 16)))
    a2 = rng.standard_normal((16, 16))
    fe = tsqrt(r1, a2)
    c1, c2 = r1.copy(), a2.copy()
    tsmqr(fe, c1, c2)
    assert np.linalg.norm(c2) < 1e-10, "TSQRT failed to eliminate"
    ft = tsqr(rng.standard_normal((64, 8)), num_blocks=4)
    assert np.linalg.norm(ft.q_dense() @ ft.r - np.zeros((64, 8))) >= 0
    return "GEQRT/TSQRT/TSMQR/TSQR numerically sound"


def _check_factorization() -> str:
    from .runtime import ThreadedRuntime, tiled_qr

    rng = np.random.default_rng(1)
    a = rng.standard_normal((96, 96))
    f = tiled_qr(a, 16)
    err = f.reconstruction_error(a)
    assert err < 1e-12, f"tiled QR error {err:.2e}"
    ft = ThreadedRuntime(num_workers=2).factorize(a, 16)
    assert np.allclose(ft.r_dense(), f.r_dense()), "threaded != serial"
    x = rng.standard_normal(96)
    got = f.solve(a @ x)
    assert np.linalg.norm(got - x) < 1e-8, "solve inaccurate"
    return "serial/threaded factorization + solve agree"


def _check_dag() -> str:
    from .dag import build_dag, compile_schedule
    from .dag.analysis import bottom_level_ranks, task_counts_total, task_weight_model

    for p, q in ((5, 5), (7, 3)):
        dag = build_dag(p, q)
        dag.validate()
        assert dag.count_by_step() == task_counts_total(p, q)
        sched = compile_schedule(p, q, "flat", False, 16)
        pos = {i: n for n, i in enumerate(sched.order)}
        assert len(pos) == len(dag), "schedule order is not a permutation"
        assert all(
            pos[d] < pos[i] for i in sched.order for d in sched.preds[i]
        ), "schedule order is not topological"
        ranks = bottom_level_ranks(dag, task_weight_model(16))
        assert sched.ranks == tuple(ranks[t] for t in dag.tasks), "schedule ranks drifted"
    return "DAG construction, compiled schedule and closed forms consistent"


def _check_planner() -> str:
    from .core.main_device import select_main_device
    from .core.optimizer import Optimizer
    from .devices.registry import paper_testbed

    system = paper_testbed()
    assert select_main_device(system, 200, 200, 16) == "gtx580-0"
    plan = Optimizer(system).plan(matrix_size=640)
    assert plan.num_devices >= 2
    return "planner reproduces the paper's selections"


def _check_simulators() -> str:
    from .comm.topology import pcie_star
    from .core.optimizer import Optimizer
    from .dag import build_dag
    from .devices.registry import paper_testbed
    from .sim import simulate_iteration_level, simulate_task_level

    system = paper_testbed()
    top = pcie_star(system.devices)
    plan = Optimizer(system, top).plan(matrix_size=160, num_devices=2)
    dag = build_dag(10, 10)
    t_des = simulate_task_level(dag, plan, system, top).report().makespan
    t_it = simulate_iteration_level(plan, 10, 10, system, top).makespan
    assert 0 < t_des <= t_it * 1.2, "simulator cross-check failed"
    return "task-level and iteration-level simulators agree"


def _check_linalg() -> str:
    from .linalg import StreamingLeastSquares, lstsq, numerical_rank, qr_solve

    rng = np.random.default_rng(2)
    a = rng.standard_normal((32, 32)) + 6 * np.eye(32)
    x = rng.standard_normal(32)
    assert np.linalg.norm(qr_solve(a, a @ x) - x) < 1e-8
    v = rng.standard_normal((40, 6))
    coef, _ = lstsq(v, v @ np.ones(6))
    assert np.linalg.norm(coef - 1.0) < 1e-8
    u = rng.standard_normal((20, 3))
    w = rng.standard_normal((3, 12))
    assert numerical_rank(u @ w) == 3, "rank detection failed"
    sls = StreamingLeastSquares(3)
    for _ in range(6):
        r = rng.standard_normal(3)
        sls.add(r, float(r @ [1.0, 2.0, 3.0]))
    assert np.linalg.norm(sls.coefficients() - [1, 2, 3]) < 1e-8
    return "linalg layer (solve/lstsq/rank/streaming) sound"


CHECKS: list[tuple[str, Callable[[], str]]] = [
    ("kernels", _check_kernels),
    ("factorization", _check_factorization),
    ("dag", _check_dag),
    ("planner", _check_planner),
    ("simulators", _check_simulators),
    ("linalg", _check_linalg),
]


def run_selfcheck(verbose: bool = True) -> bool:
    """Run every check; returns True when all pass."""
    ok = True
    for name, fn in CHECKS:
        t0 = time.perf_counter()
        try:
            detail = fn()
            status = "ok"
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            detail = f"{type(exc).__name__}: {exc}"
            status = "FAIL"
            ok = False
        if verbose:
            dt = (time.perf_counter() - t0) * 1e3
            print(f"  [{status:4s}] {name:14s} {detail} ({dt:.0f} ms)")
    return ok
