"""Distributed-memory execution: the paper's Fig. 7 as real processes.

The paper's runtime is a manager thread plus one computing thread per
device, with explicit data movement between device memories.  This
module realizes that structure with OS processes and pipes — the
closest single-machine analog of the paper's system that Python can
express honestly:

* every *worker process* owns the tiles of the columns its device is
  assigned (nothing else — there is no shared matrix);
* the *manager* drives the panel loop: tells the panel owner to
  factorize, routes the reflector factors to the devices that need them
  (the Eq. 11 broadcasts), and migrates the next panel column to the
  panel owner — every byte that the simulators price is a real pickled
  message here;
* workers update their own columns with the real NumPy kernels.

This runtime exists to *validate the distribution logic end to end*
(ownership, broadcast, column migration) rather than for speed: with
CPython process overheads, small matrices dominate on IPC.  Results are
bit-identical to the serial runtime.

Fault tolerance
---------------
With a :class:`~repro.resilience.RetryPolicy` (or a fault plan) the
manager runs each panel as a *transaction* that survives device loss:

* **detection** — a worker that closes its pipe, reports a persistent
  (retry-exhausted) kernel failure, or misses its reply deadline is
  declared dead and its process reaped;
* **failover** — the survivors are re-planned by re-invoking the guide
  array construction (paper Alg. 4) over the remaining devices, and the
  dead device's tile columns migrate to them: finished R columns are
  restored from the manager's shadow copies (captured at each
  ``FactorPanel`` reply), trailing columns are *reconstructed* by
  replaying the logged reflector factors against the pristine input
  column — the factor log the manager already keeps for building ``Q``
  doubles as the redundancy that makes every column recoverable;
* **replay** — the interrupted panel then re-runs from its frontier:
  the per-column ``applied`` watermark ensures re-broadcast updates are
  sent only to columns that have not absorbed them, so no update is
  ever applied twice.

Workers run every task through the same
:func:`~repro.runtime.core_exec.apply_task` the in-process runtimes use
— inside :func:`~repro.runtime.core_exec.apply_task_resilient` when a
retry policy is in force, so retries, chaos injection, NaN/Inf health
sentinels and the per-task ``RetryPolicy.deadline`` behave exactly as
in the serial and threaded runtimes.  The tasks operate on the
worker's owned columns through a small column-store adapter.  Each
worker counts into a private metrics registry, folded onto a private
bus; every reply carries the counter deltas, which the manager folds
into its own registry by name.  The manager's per-message reply
deadline is the backstop for a worker that never replies at all.

The manager publishes everything it observes — worker kernels,
transfers, failovers, checkpoints — on the run's bus; its tracer and
metrics are folds over that stream (see
:func:`~repro.runtime.serial.run_bus`).

Mid-run checkpoints are panel-aligned: after every ``checkpoint_every``
panels the manager gathers the live columns and writes a format-2
snapshot (see :mod:`repro.runtime.checkpoint`) whose completed set is
exactly the per-tile DAG tasks of the finished panels; such snapshots
resume on any runtime.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..core.plan import DistributionPlan
from ..dag.schedule import compile_schedule
from ..dag.tasks import Task, TaskKind
from ..dag.trees import canonical_tree
from ..errors import SimulationError, WorkerFailoverError
from ..kernels.backends import DEFAULT_BACKEND, resolve_backend
from ..kernels.geqrt import GEQRTResult
from ..kernels.tsqrt import TSQRTResult
from ..kernels.workspace import Workspace, drain_fallbacks
from .core_exec import Factors, apply_task, apply_task_resilient, factor_store
from .factorization import TiledQRFactorization
from .serial import (
    check_checkpoint_every,
    coerce_input,
    resolve_policy,
    run_bus,
    run_with_bundle_capture,
)


class _WorkerDied(Exception):
    """Internal: a worker is dead or unresponsive (device + reason)."""

    def __init__(self, device: str, reason: str):
        super().__init__(f"worker {device} failed: {reason}")
        self.device = device
        self.reason = reason


# ---------------------------------------------------------------------------
# Messages (manager -> worker); workers answer
# ("ok"|"error", payload, counter deltas, kernel events).
# ---------------------------------------------------------------------------

@dataclass
class LoadColumns:
    """Seed the worker with its owned columns."""

    columns: dict[int, list[np.ndarray]]  # col -> tiles top..bottom


@dataclass
class FactorPanel:
    """Run the panel reduction on panel ``k`` (worker owns col k).

    ``tasks`` are the panel's factorization tasks in DAG order, taken
    manager-side from the elimination tree's DAG so the worker stays
    tree-agnostic.  Replies with ``(factors, column_tiles)``: one wire
    payload per task (see :func:`_payload`) and a copy of the finished
    column — the manager's shadow R column for failover.
    """

    k: int
    tasks: list[Task]


@dataclass
class ReceiveColumn:
    """Install a migrated column (ownership transfer)."""

    col: int
    tiles: list[np.ndarray]


@dataclass
class SendColumn:
    """Ship a column back to the manager (for migration)."""

    col: int


@dataclass
class Update:
    """Apply broadcast panel factors to owned columns.

    ``factors`` are the panel's wire payloads; ``tasks`` are the update
    tasks to run against them, in order — per tile, or one batched task
    per contiguous run of owned columns.  The manager lists only columns
    that have not absorbed this panel yet, so failover re-broadcasts
    never apply an update twice.
    """

    factors: list
    tasks: list[Task]


@dataclass
class Collect:
    """Return every owned column (non-destructive)."""


@dataclass
class ClockSync:
    """Reply with the worker's current ``perf_counter`` reading.

    The manager brackets the round-trip with its own clock and takes
    the midpoint as the exchange instant, yielding a manager-minus-
    worker offset accurate to about half the pipe round-trip — plenty
    for millisecond-scale kernel timelines.  Only spawned workers need
    it: under the fork start method the clock is shared with the
    manager (CLOCK_MONOTONIC), so kernel event timestamps merge as-is.
    """


@dataclass
class Shutdown:
    pass


def _contiguous_runs(cols: list[int]) -> list[tuple[int, int]]:
    """Group a sorted column list into half-open contiguous runs."""
    runs: list[tuple[int, int]] = []
    for j in cols:
        if runs and runs[-1][1] == j:
            runs[-1] = (runs[-1][0], j + 1)
        else:
            runs.append((j, j + 1))
    return runs


#: Factorization kind -> (per-tile, batched) kind of the updates that
#: apply its reflectors to trailing columns.
_UPDATE_KINDS = {
    TaskKind.GEQRT: (TaskKind.UNMQR, TaskKind.UNMQR_BATCH),
    TaskKind.TSQRT: (TaskKind.TSMQR, TaskKind.TSMQR_BATCH),
    TaskKind.TTQRT: (TaskKind.TTMQR, TaskKind.TTMQR_BATCH),
}


def _update_tasks(factor_tasks, cols, batch: bool) -> list[Task]:
    """The tasks applying ``factor_tasks`` (in order) to columns ``cols``:
    one per tile, or one per contiguous column run when ``batch``."""
    spans = _contiguous_runs(sorted(cols)) if batch else [(j, -1) for j in cols]
    return [
        Task(_UPDATE_KINDS[f.kind][batch], f.k, f.row, f.row2, j0, j1)
        for f in factor_tasks
        for j0, j1 in spans
    ]


def _payload(task: Task, f: Factors) -> tuple:
    """Wire form of one factorization result; the R tile never travels."""
    v = f.v if task.kind is TaskKind.GEQRT else f.v2
    return (task, v, f.tf, f.taus)


def _decode(payload) -> tuple[Task, Factors]:
    """Rebuild ``(task, factors)`` from a wire payload.

    Shared by the manager's reflector log, the workers' factor stores
    and failover replay.  ``r`` is an uninitialised placeholder: no R
    tile is shipped, and the update kernels do not read it.
    """
    task, v, tf, taus = payload
    if task.kind is TaskKind.GEQRT:
        return task, GEQRTResult(r=np.empty(0), v=v, tf=tf, taus=taus)
    b = v.shape[1]
    return task, TSQRTResult(
        r=np.empty((b, b)), v2=v, tf=tf, taus=taus, kind=task.kind.value[:2]
    )


class _ColumnStore:
    """The part of :class:`~repro.tiles.TiledMatrix` that
    :mod:`repro.runtime.core_exec` touches, over ``{col: [tile, ...]}``.

    Workers wrap their owned columns in one; failover replay wraps the
    single column it rebuilds.  A row panel over several columns is a
    gathered copy that :meth:`scatter_row_panel` writes back, as in the
    list-of-tiles ``TiledMatrix`` layout.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: dict[int, list[np.ndarray]]):
        self.columns = columns

    def tile(self, i: int, j: int) -> np.ndarray:
        return self.columns[j][i]

    def set_tile(self, i: int, j: int, value: np.ndarray) -> None:
        self.columns[j][i][...] = value

    def row_panel(self, i: int, j0: int, j1: int) -> np.ndarray:
        if j1 - j0 == 1:
            return self.columns[j0][i]  # the live tile: nothing to scatter
        return np.hstack([self.columns[j][i] for j in range(j0, j1)])

    def scatter_row_panel(self, i: int, j0: int, j1: int, panel: np.ndarray) -> None:
        if j1 - j0 == 1:
            return
        for j, part in zip(range(j0, j1), np.hsplit(panel, j1 - j0)):
            self.columns[j][i][...] = part


def _worker_main(
    conn,
    trace: bool = False,
    device_id: str = "worker",
    fault_plan=None,
    retry_policy=None,
    health: bool = False,
    backend_name: str = DEFAULT_BACKEND,
) -> None:
    """Worker process body: a message loop over the owned columns.

    With ``trace`` every task is timed around its whole ``core_exec``
    call (retries and injected stalls included) as a ``(task, start,
    end)`` event on the worker's ``perf_counter``.
    """
    from ..observability import MetricsRegistry, TelemetryBus
    from ..resilience import ChaosEngine

    columns: dict[int, list[np.ndarray]] = {}
    store = _ColumnStore(columns)
    events: list[tuple] = []
    workspace = Workspace()
    # Backends travel by *name* (registered in every process at import),
    # not by pickled object, so spawn and fork behave identically.
    kern = resolve_backend(backend_name)
    metrics = MetricsRegistry()
    # Subscriber-less (no dispatcher thread): it only feeds the counters.
    bus = TelemetryBus(capacity=1)
    bus.fold(metrics.on_event)
    sent: dict[str, float] = {}
    chaos = None if fault_plan is None else ChaosEngine(fault_plan, device=device_id)
    policy = resolve_policy(retry_policy, chaos, health)

    def reply(status: str, payload) -> None:
        # Counter deltas and buffered kernel events ride every reply, so
        # a worker that later dies (kill, hang, crash) has already
        # delivered everything up to its last reply — partial activity
        # survives failover, and live telemetry sees kernels as each
        # message completes.
        drain_fallbacks(metrics, workspace)
        counts = metrics.snapshot()["counters"]
        deltas = {
            n: v - sent.get(n, 0.0) for n, v in counts.items() if v != sent.get(n, 0.0)
        }
        sent.update(counts)
        conn.send((status, payload, deltas, events[:]))
        events.clear()

    # Per-column squared norms of the data this worker holds, maintained
    # on column arrival/departure — the reference magnitude for the
    # per-panel residual probes (health checks only).  Orthogonal
    # updates preserve it, so the reference stays valid mid-run.
    col_norm_sq: dict[int, float] = {}

    def note_columns(cols: dict) -> None:
        if not health:
            return
        for j, tiles in cols.items():
            col_norm_sq[j] = sum(float(np.linalg.norm(t)) ** 2 for t in tiles)

    def run(task: Task, factors: dict) -> Factors | None:
        t0 = perf_counter()
        if policy is None:
            produced = apply_task(task, store, factors, workspace, backend=kern)
        else:
            ref_norm = sum(col_norm_sq.values()) ** 0.5 if col_norm_sq else None
            produced = apply_task_resilient(
                task, store, factors, workspace,
                policy=policy, backend=kern, chaos=chaos, health=health,
                health_ref_norm=ref_norm, device=device_id, bus=bus,
            )
        if trace:
            events.append((task, t0, perf_counter()))
        return produced

    try:
        while True:
            msg = conn.recv()
            if isinstance(msg, Shutdown):
                reply("ok", None)
                return
            if isinstance(msg, LoadColumns):
                columns.update(msg.columns)
                note_columns(msg.columns)
                reply("ok", None)
            elif isinstance(msg, ClockSync):
                reply("ok", perf_counter())
            elif isinstance(msg, ReceiveColumn):
                columns[msg.col] = msg.tiles
                note_columns({msg.col: msg.tiles})
                reply("ok", None)
            elif isinstance(msg, SendColumn):
                col_norm_sq.pop(msg.col, None)
                reply("ok", columns.pop(msg.col))
            elif isinstance(msg, FactorPanel):
                factors: dict = {}
                out = [_payload(t, run(t, factors)) for t in msg.tasks]
                reply("ok", (out, [t.copy() for t in columns[msg.k]]))
            elif isinstance(msg, Update):
                factors = factor_store(map(_decode, msg.factors))
                for t in msg.tasks:
                    run(t, factors)
                reply("ok", None)
            elif isinstance(msg, Collect):
                reply("ok", columns)
            else:  # pragma: no cover - protocol guard
                reply("error", f"unknown message {type(msg).__name__}")
                return
    except EOFError:  # manager died; exit quietly
        return
    except Exception as exc:  # surface kernel errors to the manager
        try:
            reply("error", f"{type(exc).__name__}: {exc}")
        except (BrokenPipeError, OSError):
            pass


class MultiprocessRuntime:
    """Execute tiled QR across worker processes per a distribution plan.

    Parameters
    ----------
    plan:
        Column/panel ownership (one worker is spawned per participant).
    elimination:
        Elimination-tree name or alias (see :mod:`repro.dag.trees`);
        the manager takes each panel's factorization tasks from the
        tree's DAG and ships them to the panel owner, so every
        registered tree runs distributed.  Checkpoints record the
        canonical tree name and resume only on a runtime configured
        with the same tree.
    tracer:
        Optional :class:`repro.observability.Tracer`, folded onto the
        run's bus.  Workers buffer per-task events locally and ship
        them with each reply; the manager publishes them under each
        worker's device id; column migrations and factor broadcasts
        are published as ``transfer`` events with their real pickled
        byte counts.
    retry_policy:
        Optional :class:`~repro.resilience.RetryPolicy`.  Enables the
        fault-tolerant path: workers run tasks through
        :func:`~repro.runtime.core_exec.apply_task_resilient`, so they
        retry per the policy and enforce ``policy.deadline`` per task;
        the manager classifies pipe EOF / persistent failure / missed
        reply deadlines as device death and fails over (see module
        docstring).  The reply deadline — ``policy.deadline`` scaled by
        the kernel count of each message — is the backstop for a worker
        that never replies.
    chaos_plan:
        Optional :class:`~repro.resilience.FaultPlan` shipped to every
        worker (specs select workers via their ``device`` field).
        Implies the fault-tolerant path.
    health_checks:
        NaN/Inf-check kernel outputs worker-side (retryable failures).
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry`; receives
        the ``resilience.*`` counters (worker-side increments are
        piggybacked on replies and folded in here).
    checkpoint_every / checkpoint_path:
        Write a panel-aligned format-2 snapshot every
        ``checkpoint_every`` *panels* (see module docstring).
    backend:
        Kernel backend *name* (or backend object carrying a registered
        name).  Workers resolve the name in their own process — the
        backend must therefore be registered at import time in every
        interpreter, which all shipped backends are.  The manager's
        failover replay uses the same backend, so reconstructed columns
        match the lost ones bit for bit when the backend is
        deterministic.
    bus:
        Optional :class:`repro.observability.TelemetryBus`.  Worker
        kernel events ride each reply and are published (ClockSync-
        rebased) as ``task.finish`` the moment the reply folds; every
        reply also publishes a per-device ``heartbeat``, and with a
        ``heartbeat_interval`` on the bus the manager slices its reply-
        deadline poll so a silent worker raises ``heartbeat.missed``
        events *before* the deadline failover fires.  Failovers,
        checkpoints, and run start/finish publish too.
    bundle_out:
        Optional failure-bundle path, identical to
        :class:`~repro.runtime.serial.SerialRuntime`'s; the bundle
        additionally embeds the distribution plan and its decision
        audit.

    Notes
    -----
    The manager follows the paper's Sec. IV-D loop exactly: factor panel
    on the panel owner, broadcast factors to every participant with
    remaining columns, migrate column ``k+1`` to the next panel owner.
    """

    def __init__(
        self,
        plan: DistributionPlan,
        tracer=None,
        batch_updates: bool = False,
        elimination: str = "TS",
        retry_policy=None,
        chaos_plan=None,
        health_checks: bool = False,
        metrics=None,
        checkpoint_every: int | None = None,
        checkpoint_path=None,
        backend=None,
        bus=None,
        bundle_out=None,
    ):
        self.plan = plan
        self.tracer = tracer
        self.batch_updates = batch_updates
        self.elimination = canonical_tree(elimination)
        self.retry_policy = retry_policy
        self.chaos_plan = chaos_plan
        self.health_checks = health_checks
        self.metrics = metrics
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self.backend = resolve_backend(backend)
        self.bus = bus
        self.bundle_out = bundle_out

    @property
    def resilient(self) -> bool:
        return (
            self.retry_policy is not None
            or self.chaos_plan is not None
            or self.health_checks
        )

    def factorize(
        self, a: np.ndarray, tile_size: int | None = None, resume=None
    ) -> TiledQRFactorization:
        if self.bundle_out is None:
            return self._factorize(a, tile_size, resume, self.bus)
        meta = {
            "runtime": "multiprocess",
            "elimination": self.elimination,
            "batch_updates": self.batch_updates,
            "backend": self.backend.name,
            "participants": list(self.plan.participants),
        }
        if self.retry_policy is not None:
            meta["retry_policy"] = self.retry_policy.to_dict()
        return run_with_bundle_capture(
            self,
            lambda bus: self._factorize(a, tile_size, resume, bus),
            fault_plan=self.chaos_plan,
            plan=self.plan,
            meta=meta,
        )

    def _factorize(
        self, a: np.ndarray, tile_size: int | None, resume, bus
    ) -> TiledQRFactorization:
        check_checkpoint_every(self.checkpoint_every)
        if resume is not None:
            tiled, k0, log0 = self._resume_state(resume)
            arr_shape = resume.shape
        else:
            b0 = tile_size if tile_size is not None else self.plan.tile_size
            tiled, arr_shape = coerce_input(a, b0, False, dtype=np.float64)
            k0, log0 = 0, []
        b = tiled.tile_size
        p, q = tiled.grid_rows, tiled.grid_cols

        # Critical-path column priorities (see docs/PERFORMANCE.md):
        # rank each trailing column of each panel by the highest
        # bottom-level rank among its update tasks, so broadcasts hit
        # the most critical columns — the upcoming panels — first.
        schedule = compile_schedule(p, q, self.elimination, False, b)
        col_rank: dict[tuple[int, int], float] = {}
        for t, r in zip(schedule.tasks, schedule.ranks):
            key = (t.k, t.col)
            if r > col_rank.get(key, -1.0):
                col_rank[key] = r

        metrics = self.metrics
        policy = resolve_policy(self.retry_policy, self.chaos_plan, self.health_checks)
        resilient = self.resilient

        # fork keeps worker startup cheap and the perf_counter clock
        # shared; elsewhere (Windows, macOS default) fall back to spawn
        # and rebase worker timestamps via a ClockSync handshake.
        start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(start_method)
        workers: dict[str, tuple] = {}
        dead: set[str] = set()
        clock_offset: dict[str, float] = {}

        def spawn(dev: str) -> None:
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    child, bus is not None,
                    dev, self.chaos_plan, self.retry_policy, self.health_checks,
                    self.backend.name,
                ),
                daemon=True,
            )
            proc.start()
            child.close()
            workers[dev] = (parent, proc)

        def reap(dev: str) -> None:
            """Declare a worker dead and reclaim its process."""
            dead.add(dev)
            parent, proc = workers[dev]
            try:
                parent.close()
            except OSError:
                pass
            proc.join(timeout=0.5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2)

        def alive() -> list[str]:
            return [d for d in self.plan.participants if d not in dead]

        def fold_reply(dev: str, counts: dict, evts: list) -> None:
            """Fold one reply's counter deltas and kernel events; event
            times are rebased onto the manager clock (see ClockSync)."""
            if metrics is not None:
                for name, n in counts.items():
                    metrics.counter(name).inc(n)
            off = clock_offset.get(dev, 0.0)
            for task, start, end in evts:  # non-empty only when there is a bus
                bus.task_finish(task, dev, start=start + off, end=end + off)

        def transfer(src: str, dst: str, nbytes: float, start: float, tag: str) -> None:
            end = perf_counter()
            bus.publish(
                "transfer",
                src,
                {"src": src, "dst": dst, "bytes": nbytes, "start": start, "end": end, "tag": tag},
                t=end,
            )

        def ask(dev: str, msg, xfer=None, n_kernels: int = 1):
            """Round-trip one message; ``xfer=(src, bytes, tag)`` publishes
            the send leg (pickle + pipe write) as a ``transfer`` event.

            In resilient mode every failure mode — EOF, error status,
            missed deadline (published as a ``TaskTimeoutError``
            ``task.error``) — surfaces as :class:`_WorkerDied` so the
            panel transaction can fail over; otherwise failures raise
            :class:`SimulationError` as before.  With a live bus whose
            ``heartbeat_interval`` is set, the deadline wait is sliced
            into heartbeat intervals: each silent slice publishes a
            ``heartbeat.missed`` event, so a hung worker is visible well
            before the deadline expires and the failover fires.
            """
            if dev in dead:
                raise _WorkerDied(dev, "already declared dead")
            conn = workers[dev][0]
            try:
                t0 = perf_counter()
                conn.send(msg)
                if bus is not None and xfer is not None:
                    src, nbytes, tag = xfer
                    transfer(src, dev, nbytes, t0, tag)
                if policy is not None and policy.deadline is not None:
                    budget = policy.deadline * max(1, n_kernels) + 1.0
                    hb = bus.heartbeat_interval if bus is not None else None
                    got = True
                    if hb is not None and hb < budget:
                        waited = 0.0
                        got = False
                        while waited < budget:
                            step = min(hb, budget - waited)
                            if conn.poll(step):
                                got = True
                                break
                            waited += step
                            if waited < budget:
                                bus.publish(
                                    "heartbeat.missed",
                                    dev,
                                    {
                                        "silent_seconds": waited,
                                        "budget": budget,
                                        "message": type(msg).__name__,
                                    },
                                )
                    else:
                        got = conn.poll(budget)
                    if not got:
                        reason = f"no reply within {budget:.1f}s (hung?)"
                        if bus is not None:
                            bus.publish("task.error", dev, {
                                "task": type(msg).__name__, "attempt": 1,
                                "max_attempts": 1, "error": "TaskTimeoutError",
                                "message": reason, "retryable": False,
                            })
                        raise _WorkerDied(dev, reason)
                status, payload, counts, evts = conn.recv()
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
                err = _WorkerDied(dev, f"pipe closed ({type(exc).__name__})")
                if resilient:
                    raise err from None
                raise SimulationError(str(err)) from None
            fold_reply(dev, counts, evts)
            if bus is not None:
                bus.publish("heartbeat", dev, {"message": type(msg).__name__})
            if status != "ok":
                if resilient:
                    raise _WorkerDied(dev, str(payload))
                raise SimulationError(f"worker {dev} failed: {payload}")
            return payload

        # -- manager-side redundancy for failover -------------------------
        # Pristine input columns + per-column base replay level.  A lost
        # trailing column j is rebuilt by replaying panel factors
        # base_level[j]+1 .. applied[j] against base[j].
        base: dict[int, list[np.ndarray]] = {}
        base_level: dict[int, int] = {}
        applied: dict[int, int] = {}
        panel_factors: dict[int, list] = {}
        shadow_r: dict[int, list[np.ndarray]] = {}
        panel_done: dict[int, bool] = {}
        current_main = self.plan.main_device

        def replay_column(j: int) -> list[np.ndarray]:
            """Reconstruct trailing column ``j`` manager-side.

            Replays the logged per-tile update tasks for panels
            ``base_level[j]+1 .. applied[j]`` against the pristine base
            column — the same tasks in the same order a per-tile worker
            would have run, so the rebuilt column is bit-identical to
            the lost one (see docs/RELIABILITY.md for the batched-update
            caveat).
            """
            store = _ColumnStore({j: [t.copy() for t in base[j]]})
            for kk in range(base_level[j] + 1, applied[j] + 1):
                logged = [_decode(x) for x in panel_factors[kk]]
                factors = factor_store(logged)
                for task in _update_tasks([t for t, _ in logged], [j], False):
                    apply_task(task, store, factors, backend=self.backend)
            return store.columns[j]

        def recover_column(j: int) -> list[np.ndarray]:
            if panel_done.get(j):
                return [t.copy() for t in shadow_r[j]]
            return replay_column(j)

        n_panels = min(p, q)
        col_home = {j: self.plan.column_owner(j) for j in range(q)}
        log: list[tuple[Task, object]] = list(log0)

        def panel_owner(k: int) -> str:
            if self.plan.panel_follows_column:
                owner = col_home[k]
                return owner if owner not in dead else current_main
            return current_main

        def note_death(dev: str, k: int, reason: str) -> None:
            """Record one device death: reap it and re-elect the main.

            Never raises — the recovery work (column migration) happens in
            :func:`rehome_stranded`, which the panel transaction re-enters
            until it succeeds even if further devices die during it.
            """
            nonlocal current_main
            if dev in dead:
                return
            reap(dev)
            survivors = alive()
            if current_main == dev and survivors:
                current_main = max(
                    survivors,
                    key=lambda d: self.plan.system.device(d).update_throughput(b),
                )
            if bus is not None:
                bus.publish(
                    "failover",
                    dev,
                    {
                        "died": True,
                        "panel": k,
                        "reason": reason,
                        "main": current_main,
                        "detail": f"{dev} died at panel {k} ({reason})",
                    },
                )

        def rehome_stranded(k: int) -> None:
            """Migrate every column stranded on a dead device to survivors.

            Re-invokes the guide-array construction (paper Alg. 4) over
            the surviving devices to decide the new homes; stranded
            columns are rebuilt manager-side (shadow R / factor replay)
            and installed with ``ReceiveColumn``.  May raise
            :class:`_WorkerDied` if a survivor dies mid-migration — the
            panel transaction loops back through :func:`note_death`.
            """
            from ..core.distribution import guide_for_participants
            from ..errors import PlanError, ReproError

            stranded = sorted(j for j in range(q) if col_home[j] in dead)
            if not stranded:
                return
            survivors = alive()
            if not survivors:
                raise WorkerFailoverError(
                    f"no surviving devices to fail over to at panel {k}; "
                    f"columns {stranded} are unrecoverable in-flight"
                )
            try:
                _ratio, guide = guide_for_participants(
                    self.plan.system, survivors, current_main, p, q, b
                )
            except (PlanError, ReproError):
                guide = list(survivors)
            if not guide:
                guide = list(survivors)
            moved_to = []
            for idx, j in enumerate(stranded):
                new_owner = guide[idx % len(guide)]
                tiles = recover_column(j)
                ask(new_owner, ReceiveColumn(col=j, tiles=tiles))
                col_home[j] = new_owner
                moved_to.append(new_owner)
            if bus is not None:
                bus.publish(
                    "failover",
                    "manager",
                    {
                        "died": False,
                        "panel": k,
                        "columns": stranded,
                        "to": sorted(set(moved_to)),
                        "detail": f"migrated column(s) {stranded}",
                    },
                )

        def run_panel(k: int) -> None:
            owner_p = panel_owner(k)
            if col_home[k] != owner_p:
                t0 = perf_counter()
                tiles = ask(col_home[k], SendColumn(col=k))
                ask(owner_p, ReceiveColumn(col=k, tiles=tiles))
                if bus is not None:
                    nbytes = float(sum(t.nbytes for t in tiles))
                    transfer(col_home[k], owner_p, nbytes, t0, f"col{k}")
                col_home[k] = owner_p
            if not panel_done.get(k):
                tasks = [t for t in schedule.panel_tasks(k) if not t.step.is_update]
                factors, r_col = ask(
                    owner_p, FactorPanel(k=k, tasks=tasks), n_kernels=len(tasks)
                )
                panel_factors[k] = factors
                shadow_r[k] = r_col
                panel_done[k] = True
                log.extend(map(_decode, factors))
            factors = panel_factors[k]
            factor_tasks = [f[0] for f in factors]
            bcast_bytes = float(sum(x.nbytes for f in factors for x in f[1:]))

            def crit(j: int) -> float:
                return col_rank.get((k, j), 0.0)

            # Broadcast to every device holding columns that have not yet
            # absorbed this panel's update — devices and columns ordered
            # by critical-path rank so the next panels' columns (and the
            # devices holding them) update first.
            pending: dict[str, list[int]] = {}
            for j in range(k + 1, q):
                dev = col_home[j]
                if dev in dead or applied.get(j, -1) >= k:
                    continue
                pending.setdefault(dev, []).append(j)
            for dev, cols in sorted(
                pending.items(), key=lambda item: -max(crit(j) for j in item[1])
            ):
                cols.sort(key=lambda j: (-crit(j), j))
                xfer = (owner_p, bcast_bytes, f"bcast{k}") if dev != owner_p else None
                ask(
                    dev,
                    Update(
                        factors=factors,
                        tasks=_update_tasks(factor_tasks, cols, self.batch_updates),
                    ),
                    xfer=xfer,
                    n_kernels=len(cols) * max(1, p - k),
                )
                for j in cols:
                    applied[j] = k
            applied[k] = n_panels  # finished R column; never a replay target

        def write_checkpoint(k: int) -> None:
            """Panel-aligned format-2 snapshot after panel ``k``."""
            from .checkpoint import save_partial_factorization

            # Gather live columns; fall back to manager-side recovery for
            # any device that dies mid-gather (its columns are rebuilt at
            # their last applied watermark, which a panel boundary makes
            # exact; the stranded columns re-home at the next panel).
            cols_by_j: dict[int, list[np.ndarray]] = {}
            for dev in alive():
                try:
                    owned = ask(dev, Collect())
                except _WorkerDied as exc:
                    note_death(exc.device, k, f"died during checkpoint: {exc.reason}")
                    continue
                cols_by_j.update(owned)
            for j in range(q):
                if j not in cols_by_j:
                    cols_by_j[j] = recover_column(j)
            for j, tiles in cols_by_j.items():
                for i in range(p):
                    tiled.set_tile(i, j, tiles[i])
            completed = [t for t in schedule.tasks if t.k <= k]
            save_partial_factorization(
                self.checkpoint_path, tiled, completed, log, arr_shape,
                elimination=self.elimination, batch_updates=False,
            )
            if bus is not None:
                bus.publish(
                    "checkpoint",
                    "manager",
                    {
                        "panel": k + 1,
                        "panels": n_panels,
                        "path": str(self.checkpoint_path),
                    },
                )

        def start() -> dict:
            return {
                "runtime": "multiprocess",
                "total_tasks": len(schedule),
                "total_units": sum(t.ncols for t in schedule.tasks),
                "grid": [p, q],
                "tile_size": b,
                "devices": list(self.plan.participants),
                "panels": n_panels - k0,
            }

        with run_bus(
            self, bus, "manager", start,
            lambda: {"panels": n_panels - k0, "deaths": len(dead)},
        ) as bus:
            try:
                for dev in self.plan.participants:
                    spawn(dev)

                # --- clock handshake (runs with a bus) ----------------------
                if bus is not None:
                    for dev in self.plan.participants:
                        if start_method == "fork":
                            clock_offset[dev] = 0.0  # shared CLOCK_MONOTONIC
                        else:
                            t0 = perf_counter()
                            worker_now = ask(dev, ClockSync())
                            t1 = perf_counter()
                            clock_offset[dev] = 0.5 * (t0 + t1) - worker_now

                # --- initial distribution (owned columns per device) --------
                per_dev: dict[str, dict[int, list[np.ndarray]]] = {
                    d: {} for d in self.plan.participants
                }
                for j in range(q):
                    owner = col_home[j]
                    tiles = [tiled.tile(i, j).copy() for i in range(p)]
                    per_dev[owner][j] = tiles
                    if resilient:
                        base[j] = [t.copy() for t in tiles]
                        base_level[j] = k0 - 1
                        applied[j] = k0 - 1
                for j in range(k0):  # resumed runs: finished R columns
                    panel_done[j] = True
                    shadow_r[j] = base.get(j, [tiled.tile(i, j).copy() for i in range(p)])
                    applied[j] = n_panels
                for dev, cols in per_dev.items():
                    ask(dev, LoadColumns(columns=cols))

                # --- panel loop (paper Sec. IV-D) ----------------------------
                since_ckpt = 0
                for k in range(k0, n_panels):
                    if resilient:
                        # Panel-as-transaction: any device death rolls the
                        # loop back to re-home stranded columns and replay
                        # the panel from its frontier.  The applied/
                        # panel_done watermarks make the replay exact.
                        while True:
                            try:
                                rehome_stranded(k)
                                run_panel(k)
                                break
                            except _WorkerDied as exc:
                                note_death(exc.device, k, exc.reason)
                    else:
                        run_panel(k)
                    since_ckpt += 1
                    if (
                        self.checkpoint_every is not None
                        and self.checkpoint_path is not None
                        and since_ckpt >= self.checkpoint_every
                        and k + 1 < n_panels
                    ):
                        write_checkpoint(k)
                        since_ckpt = 0

                # --- gather the R factor -------------------------------------
                gathered: set[int] = set()
                for dev in list(alive()):
                    try:
                        cols = ask(dev, Collect())
                        for j, tiles in cols.items():
                            for i in range(p):
                                tiled.set_tile(i, j, tiles[i])
                            gathered.add(j)
                        ask(dev, Shutdown())
                    except _WorkerDied as exc:
                        note_death(exc.device, n_panels, f"died at gather: {exc.reason}")
                for j in range(q):  # columns lost between last panel and gather
                    if j not in gathered:
                        if not resilient:
                            raise SimulationError(f"column {j} lost at gather")
                        tiles = recover_column(j)
                        for i in range(p):
                            tiled.set_tile(i, j, tiles[i])
            finally:
                for parent, proc in workers.values():
                    try:
                        parent.close()
                    except OSError:
                        pass
                    proc.join(timeout=5)
                    if proc.is_alive():  # pragma: no cover - hygiene
                        proc.terminate()
        return TiledQRFactorization(r=tiled, log=log, shape=arr_shape)

    def _resume_state(self, resume):
        """Validate a panel-aligned partial snapshot for this runtime."""
        from .checkpoint import CheckpointError

        snap_tree = canonical_tree(resume.elimination)
        if snap_tree != self.elimination or resume.batch_updates:
            raise CheckpointError(
                "multiprocess resume requires a per-tile snapshot of this "
                f"runtime's elimination tree (snapshot tree={snap_tree!r}, "
                f"runtime tree={self.elimination!r}, "
                f"batch_updates={resume.batch_updates})"
            )
        tiled = resume.tiled
        p, q = tiled.grid_rows, tiled.grid_cols
        schedule = compile_schedule(p, q, self.elimination, False, tiled.tile_size)
        done = schedule.completed_indices(resume.completed)
        done_panels = 0
        for k in range(min(p, q)):
            panel = schedule.panel_tasks(k)
            n_done = sum(1 for t in panel if schedule.index[t] in done)
            if n_done == len(panel):
                done_panels = k + 1
            elif n_done == 0:
                break
            else:
                raise CheckpointError(
                    f"multiprocess resume requires panel-aligned snapshots; "
                    f"panel {k} is only partially complete ({n_done}/{len(panel)} "
                    f"tasks) — resume it with the serial or threaded runtime"
                )
        if len(done) != sum(
            len(schedule.panel_tasks(k)) for k in range(done_panels)
        ):
            raise CheckpointError(
                "multiprocess resume requires panel-aligned snapshots — "
                "resume this one with the serial or threaded runtime"
            )
        return tiled, done_panels, list(resume.log)

