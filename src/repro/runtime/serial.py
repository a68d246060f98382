"""Deterministic single-threaded execution of the tiled-QR DAG.

Tasks run one at a time in *critical-path priority order*: the
configuration's compiled :class:`~repro.dag.schedule.Schedule` carries
a list schedule that always takes the ready task with the highest
bottom-level rank (see :func:`repro.dag.analysis.bottom_level_ranks`),
with the DAG emission order as the deterministic tie-break.  The order
is computed once per (grid, tree, batching, tile size) by
:func:`~repro.dag.schedule.compile_schedule` and cached, so a
``factorize`` call builds no DAG and keeps no ready queue: it walks
``schedule.order``.  A resumed run walks the same order with the
snapshot's completed tasks filtered out — still a topological order,
because a legal completed set is closed under dependencies.

Any topological order produces a bit-identical R (unordered tasks touch
disjoint tile rows), so the priority order changes nothing numerically
— but it makes the serial runtime execute the same schedule shape the
parallel runtimes and the simulator prefer, and it keeps mid-run
checkpoints frontier-shaped the way a parallel resume expects.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..config import DEFAULT_TILE_SIZE
from ..dag.schedule import compile_schedule
from ..dag.trees import canonical_tree
from ..errors import ShapeError, SimulationError, TilingError
from ..kernels.backends import resolve_backend
from ..kernels.workspace import Workspace, drain_fallbacks
from ..tiles import TiledMatrix
from .core_exec import apply_task, apply_task_resilient, factor_store
from .factorization import TiledQRFactorization


def health_ref_norm(tiled) -> float:
    """Pre-factorization Frobenius norm for the panel residual probes."""
    from ..resilience.health import tiled_frobenius_norm

    return tiled_frobenius_norm(tiled)


def resolve_policy(retry_policy, chaos, health_checks):
    """The effective retry policy, or None when the plain path suffices.

    An explicit policy always wins; chaos or health checks without one
    get the default policy (injected faults are meant to be *masked*,
    which takes retries).  With none of the three, the runtimes skip the
    resilience envelope entirely — zero overhead on the default path.
    """
    if retry_policy is not None:
        return retry_policy
    if chaos is not None or health_checks:
        from ..resilience import DEFAULT_RETRY_POLICY

        return DEFAULT_RETRY_POLICY
    return None


@contextmanager
def run_bus(runtime, bus, device: str, start: dict, finish):
    """The bus one factorize call publishes on, or ``None``.

    ``None`` when there is no ``bus``, no enabled tracer and no metrics:
    the default path creates no bus and publishes nothing.  Otherwise
    the caller's ``bus``, or a private
    :class:`~repro.observability.TelemetryBus`, with the runtime's
    tracer and metrics folded on (:meth:`Tracer.on_event
    <repro.observability.Tracer.on_event>`, :meth:`MetricsRegistry.on_event
    <repro.observability.MetricsRegistry.on_event>`) until the run ends.
    Publishes ``run.start`` with ``start()`` on entry and, when the
    body succeeds, ``run.finish`` with ``finish()`` followed by a drain,
    so subscribers have seen everything when ``factorize`` returns.
    Both payloads are callables so the default path never builds them.
    """
    tracer = runtime.tracer if runtime.tracer is not None and runtime.tracer.enabled else None
    sinks = [s for s in (tracer, runtime.metrics) if s is not None]
    if bus is None and not sinks:
        yield None
        return
    if bus is None:
        from ..observability.live.bus import TelemetryBus

        bus = TelemetryBus()
    folded = [s.on_event for s in sinks if bus.fold(s.on_event)]
    try:
        bus.publish("run.start", device, start())
        yield bus
        bus.publish("run.finish", device, finish())
        bus.drain()
    finally:
        for fn in folded:
            bus.unfold(fn)


def run_with_bundle_capture(runtime, call, *, fault_plan=None, plan=None, meta=None):
    """Arm failure-bundle capture around one ``_factorize`` call.

    Shared by the three runtimes when ``bundle_out`` is set: attaches a
    :class:`~repro.observability.postmortem.FlightRecorder` to the
    runtime's bus (substituting a private bus when it runs without one,
    so there are task events to record), runs ``call(bus)`` — which
    hands that bus to :func:`run_bus` — and writes an atomic failure
    bundle to ``runtime.bundle_out`` if a terminal error escapes, then
    re-raises.  A clean run writes nothing.
    """
    from ..observability.postmortem import BundleCapture

    capture = BundleCapture(
        runtime.bundle_out,
        bus=runtime.bus,
        metrics=runtime.metrics,
        plan=plan,
        fault_plan=fault_plan,
        checkpoint_path=runtime.checkpoint_path,
        meta=meta,
    )
    try:
        return call(capture.bus)
    except BaseException as exc:
        capture.capture(exc)
        raise
    finally:
        capture.close()


def coerce_input(a, tile_size: int, batch_updates: bool, dtype=None):
    """Shared dense/tiled input handling: returns ``(tiled, shape)``.

    Dense input must be a real, finite 2-D matrix with ``m >= n``;
    complex input is rejected rather than silently cast to real, and a
    NaN or Inf entry is rejected rather than propagated into a NaN R.
    ``dtype``, when given, is the dtype dense input is tiled in (after
    the checks).
    """
    if isinstance(a, TiledMatrix):
        return a, a.shape
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.shape[0] < arr.shape[1]:
        raise ShapeError(f"QR requires m >= n, got shape {arr.shape}")
    if np.iscomplexobj(arr):
        raise TilingError(
            f"complex input ({arr.dtype}) is not supported: tiled QR is real-only"
        )
    if not np.isfinite(arr).all():
        raise TilingError("input contains NaN or Inf entries: tiled QR needs finite input")
    tiled = TiledMatrix.from_dense(
        arr, tile_size, dtype=dtype, storage="rowmajor" if batch_updates else "tiles"
    )
    return tiled, arr.shape


def check_resume_state(resume, schedule, tiled):
    """Validate a :class:`~repro.runtime.checkpoint.PartialState` against
    the runtime's compiled schedule and return its completed task indices.

    Raises :class:`~repro.runtime.checkpoint.CheckpointError` when the
    snapshot was taken under a different DAG configuration (resuming
    would re-apply work already in the tiles) and
    :class:`~repro.errors.DAGError` when the completed set is not a
    legal execution state.
    """
    from .checkpoint import CheckpointError

    # Canonicalize both sides so legacy "TS"/"TT" snapshots resume under
    # runtimes configured with the new tree names (and vice versa); a
    # genuine tree mismatch — e.g. resuming a GREEDY run as BINARY —
    # still fails loudly.
    snap_tree = canonical_tree(resume.elimination)
    run_tree = schedule.elimination
    batch_updates = schedule.batch_updates
    if snap_tree != run_tree or resume.batch_updates != batch_updates:
        raise CheckpointError(
            f"snapshot was taken with elimination tree {snap_tree!r} "
            f"batch_updates={resume.batch_updates}, but the runtime is "
            f"configured for tree {run_tree!r} "
            f"batch_updates={batch_updates}"
        )
    snap = resume.tiled
    if (snap.grid_rows, snap.grid_cols) != (tiled.grid_rows, tiled.grid_cols):
        raise CheckpointError(
            f"snapshot grid {snap.grid_rows}x{snap.grid_cols} does not "
            f"match the target matrix grid {tiled.grid_rows}x{tiled.grid_cols}"
        )
    if tuple(resume.shape) != tuple(tiled.shape):
        raise CheckpointError(
            f"snapshot factors a {resume.shape[0]}x{resume.shape[1]} matrix, "
            f"but the target is {tiled.shape[0]}x{tiled.shape[1]}"
        )
    return schedule.completed_indices(resume.completed)


def check_checkpoint_every(every) -> None:
    """Reject a snapshot interval below one (task or panel)."""
    if every is not None and every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {every}")


class _CheckpointWriter:
    """Periodic partial-snapshot writer shared by the runtimes.

    Counts newly completed tasks and, every ``every`` completions,
    writes an atomic format-2 snapshot to ``path`` and publishes a
    ``checkpoint`` event on ``bus``.  Call only at quiescent points
    (the caller guarantees no task is in flight).
    """

    def __init__(self, every, path, schedule, tiled, shape, bus=None):
        check_checkpoint_every(every)
        self.every = every
        self.path = path
        self.schedule = schedule
        self.tiled = tiled
        self.shape = shape
        self.bus = bus
        self._since = 0
        self.enabled = every is not None and path is not None

    def task_done(self) -> bool:
        """Count one completion; True when a snapshot is now due."""
        if not self.enabled:
            return False
        self._since += 1
        return self._since >= self.every

    def write(self, completed, log, device: str = "local") -> None:
        from .checkpoint import save_partial_factorization

        save_partial_factorization(
            self.path,
            self.tiled,
            completed,
            log,
            self.shape,
            self.schedule.elimination,
            self.schedule.batch_updates,
        )
        self._since = 0
        if self.bus is not None:
            self.bus.publish(
                "checkpoint",
                device,
                {
                    "completed": len(completed),
                    "total": len(self.schedule),
                    "path": str(self.path),
                },
            )


class SerialRuntime:
    """Reference executor: one task at a time, highest-rank-ready first.

    Parameters
    ----------
    elimination:
        Elimination-tree name or alias (see :mod:`repro.dag.trees`):
        ``"flat"``/``"TS"`` (paper default), ``"flat-tt"``,
        ``"binary"``/``"TT"``, ``"fibonacci"`` or ``"greedy"``.
    progress:
        Optional callback ``(tasks_done, tasks_total, task)`` invoked
        after every kernel — hook for progress bars or cancellation
        (raise inside the callback to abort).
    tracer:
        Optional :class:`repro.observability.Tracer`, folded onto the
        run's bus: every kernel becomes a task record (device id
        ``"serial"``), so a traced run emits the same trace schema the
        simulators produce.
    batch_updates:
        Execute coarsened row-panel update tasks (``UNMQR_BATCH`` /
        ``TSMQR_BATCH``) instead of per-tile updates: one set of wide
        GEMMs per reflector factor per tile row.  Dense inputs are tiled
        in row-major storage so the panels are zero-copy views.  Results
        match the per-tile path (see ``docs/PERFORMANCE.md``).
    retry_policy:
        Optional :class:`repro.resilience.RetryPolicy`; tasks that fail
        retryably are replayed from snapshots of their written tiles
        (see :func:`~repro.runtime.core_exec.apply_task_resilient`).
    chaos:
        Optional :class:`repro.resilience.ChaosEngine` injecting faults
        per its plan (tests and ``tiledqr chaos``).
    health_checks:
        NaN/Inf-check every task's written tiles after the kernel;
        failures raise :class:`~repro.errors.NumericalHealthError` and
        go through the retry policy.
    metrics:
        Optional :class:`repro.observability.MetricsRegistry`, folded
        onto the run's bus: it receives the ``resilience.*`` counters.
    bus:
        Optional :class:`repro.observability.TelemetryBus`; the run
        publishes live ``run.start``/``task.start``/``task.finish``/
        ``retry``/``checkpoint``/``run.finish`` events while executing
        (see ``docs/OBSERVABILITY.md``, "Live telemetry").  ``None``
        (the default) publishes nothing and costs nothing.
    checkpoint_every / checkpoint_path:
        When both are set, write an atomic partial snapshot (format 2,
        see :mod:`repro.runtime.checkpoint`) after every
        ``checkpoint_every`` completed tasks.  ``resume_factorization``
        finishes such a run.
    bundle_out:
        Optional path: when a terminal error escapes ``factorize``, an
        atomic failure bundle (flight-recorder tail, in-flight tasks,
        metrics, fault plan, checkpoint pointer) is written there before
        the exception propagates — feed it to ``tiledqr postmortem``.
        See :mod:`repro.observability.postmortem`.
    backend:
        Kernel backend executing the tile kernels — a registered name,
        a :class:`~repro.kernels.backends.KernelBackend` object, or
        ``None`` for the default ``lapack`` backend.  Resolved once at
        construction (unknown names fail fast, not mid-factorization).
    """

    def __init__(
        self,
        elimination: str = "TS",
        progress=None,
        tracer=None,
        batch_updates: bool = False,
        retry_policy=None,
        chaos=None,
        health_checks: bool = False,
        metrics=None,
        checkpoint_every: int | None = None,
        checkpoint_path=None,
        backend=None,
        bus=None,
        bundle_out=None,
    ):
        self.elimination = canonical_tree(elimination)
        self.progress = progress
        self.tracer = tracer
        self.batch_updates = batch_updates
        self.retry_policy = retry_policy
        self.chaos = chaos
        self.health_checks = health_checks
        self.metrics = metrics
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self.backend = resolve_backend(backend)
        self.bus = bus
        self.bundle_out = bundle_out

    def factorize(
        self, a, tile_size: int = DEFAULT_TILE_SIZE, resume=None
    ) -> TiledQRFactorization:
        """Tiled QR factorization of a dense or tiled matrix.

        Parameters
        ----------
        a:
            Dense ``m x n`` array (``m >= n``) or a
            :class:`repro.tiles.TiledMatrix` (consumed: tiles mutated).
        tile_size:
            Tile edge when ``a`` is dense (ignored otherwise).
        resume:
            Optional :class:`~repro.runtime.checkpoint.PartialState`;
            completed tasks are skipped and the reflector log is seeded
            from the snapshot (``a`` should be the snapshot's tiles —
            use :func:`~repro.runtime.checkpoint.resume_factorization`).

        Returns
        -------
        TiledQRFactorization
        """
        if self.bundle_out is None:
            return self._factorize(a, tile_size, resume, self.bus)
        meta = {
            "runtime": "serial",
            "elimination": self.elimination,
            "batch_updates": self.batch_updates,
            "backend": self.backend.name,
            "tile_size": tile_size,
        }
        if self.retry_policy is not None:
            meta["retry_policy"] = self.retry_policy.to_dict()
        return run_with_bundle_capture(
            self,
            lambda bus: self._factorize(a, tile_size, resume, bus),
            fault_plan=self.chaos.plan if self.chaos is not None else None,
            meta=meta,
        )

    def _factorize(self, a, tile_size: int, resume, bus) -> TiledQRFactorization:
        tiled, shape = coerce_input(a, tile_size, self.batch_updates)
        schedule = compile_schedule(
            tiled.grid_rows, tiled.grid_cols, self.elimination, self.batch_updates,
            tiled.tile_size,
        )
        tasks = schedule.tasks
        order = schedule.order
        log: list = []
        completed_order: list = []
        if resume is not None:
            done_idx = check_resume_state(resume, schedule, tiled)
            order = [i for i in order if i not in done_idx]
            completed_order = list(resume.completed)
            log = list(resume.log)
        factors = factor_store(log)
        total = len(tasks)
        workspace = Workspace()
        policy = resolve_policy(self.retry_policy, self.chaos, self.health_checks)
        ref_norm = health_ref_norm(tiled) if self.health_checks else None

        def start() -> dict:
            return {
                "runtime": "serial",
                "total_tasks": total,
                "total_units": sum(t.ncols for t in tasks),
                "grid": [tiled.grid_rows, tiled.grid_cols],
                "tile_size": tiled.tile_size,
                "completed": total - len(order),
            }

        with run_bus(self, bus, "serial", start, lambda: {"tasks": total}) as bus:
            ckpt = _CheckpointWriter(
                self.checkpoint_every, self.checkpoint_path, schedule, tiled, shape, bus
            )
            done = total - len(order)
            for i in order:
                task = tasks[i]
                if bus is not None:
                    t0 = bus.clock()
                    bus.task_start(task, "serial", t=t0)
                if policy is not None:
                    produced = apply_task_resilient(
                        task, tiled, factors, workspace,
                        policy=policy, backend=self.backend, chaos=self.chaos,
                        health=self.health_checks, health_ref_norm=ref_norm,
                        device="serial", bus=bus,
                    )
                else:
                    produced = apply_task(
                        task, tiled, factors, workspace, backend=self.backend
                    )
                if bus is not None:
                    bus.task_finish(task, "serial", start=t0, end=bus.clock())
                done += 1
                if produced is not None:
                    log.append((task, produced))
                completed_order.append(task)
                if ckpt.task_done():
                    ckpt.write(completed_order, log, device="serial")
                if self.progress is not None:
                    self.progress(done, total, task)
            if done != total:
                raise SimulationError(f"serial runtime finished {done}/{total} tasks")
            drain_fallbacks(self.metrics, workspace)
        return TiledQRFactorization(r=tiled, log=log, shape=shape)


def tiled_qr(
    a: np.ndarray,
    tile_size: int = DEFAULT_TILE_SIZE,
    elimination: str = "TS",
    batch_updates: bool = False,
    backend=None,
) -> TiledQRFactorization:
    """One-call tiled QR: ``f = tiled_qr(A); Q, R = f.q_dense(), f.r_dense()``.

    This is the package's quickstart entry point.  ``backend`` names a
    registered kernel backend (``tiledqr backends`` lists them).
    """
    return SerialRuntime(
        elimination, batch_updates=batch_updates, backend=backend
    ).factorize(a, tile_size)
