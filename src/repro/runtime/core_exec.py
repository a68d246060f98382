"""Shared task-application core for the numeric runtimes.

A single function maps one DAG task onto the tile kernels; both the
serial and the threaded runtime call it, so they cannot diverge.  The
coarsened ``*_BATCH`` update tasks route through the row-panel kernels
(:mod:`repro.kernels.batched`) — zero-copy panel views when the matrix
is in row-major storage, gather/scatter otherwise.

:func:`apply_task_resilient` wraps the same core in the fault-tolerance
envelope (see :mod:`repro.resilience`): because a task's write set is
explicit (the same access rules the DAG builder derives dependencies
from), a failed attempt can restore exactly the tiles it touched and
replay the kernel — a retry-masked fault leaves the factorization
bit-identical to a clean run.
"""

from __future__ import annotations

import time as _time
from time import perf_counter
from typing import Union

from ..dag.builder import task_accesses
from ..dag.tasks import Task, TaskKind
from ..errors import DAGError, RetryExhaustedError, TaskTimeoutError
from ..kernels.backends import KernelBackend, resolve_backend
from ..kernels.geqrt import GEQRTResult
from ..kernels.tsqrt import TSQRTResult
from ..kernels.workspace import Workspace
from ..tiles import TiledMatrix

Factors = Union[GEQRTResult, TSQRTResult]


def apply_task(
    task: Task,
    a: TiledMatrix,
    factors: dict[tuple, Factors],
    workspace: Workspace | None = None,
    backend: KernelBackend | None = None,
) -> Factors | None:
    """Execute one task against the tiled matrix, in place.

    Parameters
    ----------
    task:
        The DAG task to run (per-tile or batched).
    a:
        The matrix being factorized (tiles mutated in place).
    factors:
        Shared factor store keyed by ``("Vg"|"Ve", row, k)``; factorization
        tasks insert, update tasks read.  The threaded runtime relies on
        plain-dict atomicity under the GIL plus DAG ordering for safety.
    workspace:
        Scratch arena for the update kernels' GEMMs.  Must be private to
        the calling worker; ``None`` uses the thread-local default.
    backend:
        The :class:`~repro.kernels.backends.KernelBackend` executing the
        kernels; ``None`` means the default (``lapack``) backend.  Runtimes
        resolve this once per run and pass the object, so the per-task
        cost is one attribute lookup.

    Returns
    -------
    The factors produced (for factorization tasks) or ``None`` (updates).
    """
    kern = backend if backend is not None else resolve_backend(None)
    k = task.k
    if task.kind is TaskKind.GEQRT:
        f = kern.geqrt(a.tile(task.row, k))
        a.set_tile(task.row, k, f.r)
        factors[("Vg", task.row, k)] = f
        return f
    if task.kind is TaskKind.UNMQR:
        f = factors[("Vg", task.row, k)]
        kern.unmqr(f, a.tile(task.row, task.col), workspace=workspace)
        return None
    if task.kind is TaskKind.UNMQR_BATCH:
        f = factors[("Vg", task.row, k)]
        panel = a.row_panel(task.row, task.col, task.col_end)
        kern.unmqr_batch(f, panel, workspace=workspace)
        a.scatter_row_panel(task.row, task.col, task.col_end, panel)
        return None
    if task.kind in (TaskKind.TSQRT, TaskKind.TTQRT):
        top = a.tile(task.row2, k)
        bot = a.tile(task.row, k)
        fe = kern.tsqrt(top, bot) if task.kind is TaskKind.TSQRT else kern.ttqrt(top, bot)
        a.set_tile(task.row2, k, fe.r)
        bot[...] = 0.0
        factors[("Ve", task.row, k)] = fe
        return fe
    if task.kind in (TaskKind.TSMQR, TaskKind.TTMQR):
        fe = factors[("Ve", task.row, k)]
        fn = kern.tsmqr if task.kind is TaskKind.TSMQR else kern.ttmqr
        fn(
            fe,
            a.tile(task.row2, task.col),
            a.tile(task.row, task.col),
            workspace=workspace,
        )
        return None
    if task.kind in (TaskKind.TSMQR_BATCH, TaskKind.TTMQR_BATCH):
        fe = factors[("Ve", task.row, k)]
        fn = kern.tsmqr_batch if task.kind is TaskKind.TSMQR_BATCH else kern.ttmqr_batch
        top = a.row_panel(task.row2, task.col, task.col_end)
        bot = a.row_panel(task.row, task.col, task.col_end)
        fn(fe, top, bot, workspace=workspace)
        a.scatter_row_panel(task.row2, task.col, task.col_end, top)
        a.scatter_row_panel(task.row, task.col, task.col_end, bot)
        return None
    raise DAGError(f"unknown task kind {task.kind!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Fault-tolerant execution envelope
# ---------------------------------------------------------------------------


def task_written_tiles(task: Task, a: TiledMatrix):
    """The live tile views a task writes (from the DAG access rules)."""
    _reads, writes = task_accesses(task)
    return [a.tile(i, j) for key, i, j in writes if key == "t"]


def _factor_key(task: Task) -> tuple | None:
    """The factor-store key a factorization task inserts (None for updates)."""
    if task.kind is TaskKind.GEQRT:
        return ("Vg", task.row, task.k)
    if task.kind in (TaskKind.TSQRT, TaskKind.TTQRT):
        return ("Ve", task.row, task.k)
    return None


def factor_store(log) -> dict[tuple, Factors]:
    """The factor store a reflector log of ``(task, factors)`` pairs implies."""
    return {_factor_key(task): f for task, f in log}


def apply_task_resilient(
    task: Task,
    a: TiledMatrix,
    factors: dict[tuple, Factors],
    workspace: Workspace | None = None,
    *,
    policy,
    backend: KernelBackend | None = None,
    chaos=None,
    health: bool = False,
    health_ref_norm: float | None = None,
    device: str = "local",
    bus=None,
) -> Factors | None:
    """Execute one task under retry/chaos/health semantics.

    Same contract as :func:`apply_task`, plus:

    * before each attempt the task's written tiles are snapshotted, so a
      failed attempt restores them exactly and the replay starts from
      pristine inputs (bit-identical masking);
    * ``chaos`` (a :class:`repro.resilience.ChaosEngine`) may inject a
      kernel exception, delay/hang, or output corruption;
    * with ``health=True`` the written tiles are NaN/Inf-checked after
      the kernel (:func:`repro.resilience.check_task_outputs`); when
      ``health_ref_norm`` (the pre-factorization Frobenius norm) is also
      given, factorization tasks additionally run the per-panel residual
      probe (:func:`repro.resilience.panel_residual_probe`) over the
      R tile they produced — catching finite-but-garbage corruption;
    * an attempt exceeding ``policy.deadline`` wall-clock seconds is
      classified as a hang (:class:`~repro.errors.TaskTimeoutError`) and
      retried like any failure;
    * every failed attempt publishes a ``task.error`` event (task,
      attempt, error type/message, retryability) and every retry a
      ``retry`` event on ``bus``, the run's
      :class:`repro.observability.TelemetryBus` (``None``: nobody
      observes); the tracer, the ``resilience.*`` counters and the
      flight recorder are all fed from that stream; exhausting the
      policy raises :class:`~repro.errors.RetryExhaustedError` chained
      to the last failure.
    """
    from ..resilience.health import check_task_outputs, panel_residual_probe

    written = task_written_tiles(task, a)
    fkey = _factor_key(task)
    last_exc: BaseException | None = None
    for attempt in range(1, policy.max_attempts + 1):
        if attempt > 1:
            if bus is not None:
                bus.publish(
                    "retry",
                    device,
                    {
                        "task": task.label(),
                        "attempt": attempt,
                        "max_attempts": policy.max_attempts,
                        "error": str(last_exc),
                    },
                )
            pause = policy.backoff_seconds(attempt, key=task.sort_key())
            if pause > 0.0:
                _time.sleep(pause)
        snapshot = [t.copy() for t in written]
        try:
            # The deadline clock covers the injection point too: a HANG
            # fault stalls the kernel slot and must count as a hang.
            t0 = perf_counter()
            if chaos is not None:
                chaos.before_task(task, device, bus=bus)
            produced = apply_task(task, a, factors, workspace, backend=backend)
            elapsed = perf_counter() - t0
            if policy.deadline is not None and elapsed > policy.deadline:
                raise TaskTimeoutError(
                    f"{task.label()} took {elapsed:.3f}s "
                    f"(deadline {policy.deadline:.3f}s); classifying as hung"
                )
            if chaos is not None:
                chaos.corrupt_outputs(task, written, device, bus=bus)
            if health:
                check_task_outputs(task, written)
                if health_ref_norm is not None and fkey is not None:
                    # written[0] is the R tile every factorization task
                    # rewrites (the first entry of its write set).
                    panel_residual_probe(written[0], health_ref_norm, task.k)
            return produced
        except BaseException as exc:
            retryable = policy.is_retryable(exc)
            if bus is not None:
                bus.publish(
                    "task.error",
                    device,
                    {
                        "task": task.label(),
                        "attempt": attempt,
                        "max_attempts": policy.max_attempts,
                        "error": type(exc).__name__,
                        "message": str(exc),
                        "retryable": retryable,
                    },
                )
            if retryable and attempt < policy.max_attempts:
                # Roll back this attempt: written tiles and any factor
                # entry the failed kernel may have inserted.
                for tile, saved in zip(written, snapshot):
                    tile[...] = saved
                if fkey is not None:
                    factors.pop(fkey, None)
                last_exc = exc
                continue
            if retryable:
                raise RetryExhaustedError(
                    f"{task.label()} failed {policy.max_attempts} attempt(s); last: {exc}"
                ) from exc
            raise
    raise AssertionError("unreachable")  # pragma: no cover
