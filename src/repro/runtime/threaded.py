"""Thread-pool execution of the tiled-QR DAG.

Implements the manager/computing-thread structure of the paper's Fig. 7
in-process: a dependency-counting dispatcher releases tasks as their
predecessors complete, and a pool of worker threads executes them.
NumPy's BLAS releases the GIL inside the tile GEMMs, so workers genuinely
overlap on multicore hosts; on a single-core host the runtime still
exercises the full concurrency-control path.

Correctness under reordering: any two factorization tasks left unordered
by the DAG act on disjoint tile-row sets (otherwise they would conflict
on a panel tile and be ordered), so their block reflectors commute and
logging them in *completion* order still yields a valid ``Q``.

Dispatch order: the ready set is a heap keyed by *bottom-level rank*
(:func:`repro.dag.analysis.bottom_level_ranks`) — workers always pop
the ready task with the longest weighted path to a sink, so the panel
chain that bounds makespan is never starved by trailing updates.  FIFO
dispatch made tall grids latency-bound: every ready update of panel
``k`` drained before the panel ``k+1`` factorization task at the head
of the critical path got a worker.

The graph itself comes from the configuration's cached
:class:`~repro.dag.schedule.Schedule` (:func:`~repro.dag.schedule.compile_schedule`):
ranks and successor lists are precomputed index tuples, so a
``factorize`` call builds no DAG.  Dispatch stays dynamic — completion
order depends on kernel timing — over a list of integer in-degree
counters and heap entries ``(-rank, index, seq, task)``: the index
breaks rank ties in emission order and the unique sequence number keeps
the heap from ever comparing tasks.

With ``batch_updates=True`` the DAG carries coarsened row-panel update
tasks.  To keep the update-phase parallelism the per-tile DAG had, a
ready batch is *split into contiguous column chunks* — one per worker —
that execute concurrently (they write disjoint column ranges of the same
tile row, so no synchronization is needed); the batch's successors are
released only when every chunk has finished.

Failure semantics: the first unrecovered error sets a shared cancel
flag.  Workers check it *before* starting any task, so no further kernel
begins after the failure — already-queued tasks are dropped, not
drained.  With a retry policy, retryable failures are absorbed inside
:func:`~repro.runtime.core_exec.apply_task_resilient` and only
exhausted/unretryable errors cancel the run.

Mid-run checkpoints use a stop-the-world drain: the worker that crosses
the checkpoint threshold pauses dispatch, waits for in-flight kernels to
finish, snapshots the quiescent state, and resumes — so every snapshot
is a downward-closed frontier the resume path can trust.
"""

from __future__ import annotations

import itertools
import threading
from heapq import heappop, heappush

from ..config import DEFAULT_TILE_SIZE
from ..dag.schedule import compile_schedule
from ..dag.tasks import Task
from ..dag.trees import canonical_tree
from ..errors import SimulationError
from ..kernels.backends import resolve_backend
from ..kernels.workspace import Workspace, drain_fallbacks
from .core_exec import Factors, apply_task, apply_task_resilient, factor_store
from .factorization import TiledQRFactorization
from .serial import (
    _CheckpointWriter,
    check_resume_state,
    coerce_input,
    health_ref_norm,
    resolve_policy,
    run_bus,
    run_with_bundle_capture,
)


def split_batch(task: Task, parts: int) -> list[Task]:
    """Split a batched update into ``<= parts`` contiguous column chunks.

    Chunks are valid batched tasks over sub-ranges of ``[col, col_end)``
    whose expansions partition the parent's expansion.  Returns
    ``[task]`` unchanged when splitting is pointless.
    """
    n = task.ncols
    parts = max(1, min(parts, n))
    if not task.is_batch or parts == 1:
        return [task]
    bounds = [task.col + (n * i) // parts for i in range(parts + 1)]
    return [
        Task(task.kind, task.k, task.row, task.row2, j0, j1)
        for j0, j1 in zip(bounds[:-1], bounds[1:])
    ]


class ThreadedRuntime:
    """Dependency-driven thread-pool executor.

    Parameters
    ----------
    num_workers:
        Worker thread count (the paper's "computing threads").
    elimination:
        Elimination-tree name or alias (``"flat"``/``"TS"``,
        ``"flat-tt"``, ``"binary"``/``"TT"``, ``"fibonacci"``,
        ``"greedy"`` — see :mod:`repro.dag.trees`).
    tracer:
        Optional :class:`repro.observability.Tracer`, folded onto the
        run's bus: each worker's kernels are recorded under device id
        ``"worker-<i>"`` into that thread's own buffer (no hot-path
        contention).
    batch_updates:
        Coarsen the update phase into row-panel tasks (see module
        docstring); each worker owns a private
        :class:`~repro.kernels.workspace.Workspace` arena so the hot
        path's GEMMs never allocate.
    retry_policy, chaos, health_checks, metrics:
        Resilience controls, identical to
        :class:`~repro.runtime.serial.SerialRuntime`'s.
    bus:
        Optional :class:`repro.observability.TelemetryBus`.  Workers
        publish ``task.start``/``task.finish`` (plus retries and
        checkpoints) live, and when the bus carries a
        ``heartbeat_interval`` a
        :class:`~repro.observability.live.heartbeat.HeartbeatMonitor`
        runs for the duration of the factorization — a kernel that
        stalls (e.g. a chaos ``hang``) raises ``heartbeat.missed``
        events well before the retry-policy deadline classifies it.
    checkpoint_every / checkpoint_path:
        Periodic quiescent-point snapshots (see module docstring).
    bundle_out:
        Optional failure-bundle path, identical to
        :class:`~repro.runtime.serial.SerialRuntime`'s.
    backend:
        Kernel backend (name, object, or ``None`` for the default),
        shared by every worker — backend objects must therefore be
        thread-safe for concurrent kernel calls (the shipped ones are
        stateless).

    A kernel exception in any worker aborts the factorization and
    re-raises in the calling thread, annotated with the failing task;
    queued tasks are cancelled immediately — no task starts after the
    first fatal error.
    """

    def __init__(
        self,
        num_workers: int = 4,
        elimination: str = "TS",
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
        if num_workers < 1:
            raise ValueError(f"need at least one worker, got {num_workers}")
        self.num_workers = num_workers
        self.elimination = canonical_tree(elimination)
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
        """Factorize ``a``; same contract as :meth:`SerialRuntime.factorize`."""
        if self.bundle_out is None:
            return self._factorize(a, tile_size, resume, self.bus)
        meta = {
            "runtime": "threaded",
            "workers": self.num_workers,
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
        tasks, succs, ranks = schedule.tasks, schedule.succs, schedule.ranks
        log: list[tuple[Task, Factors]] = []
        done_idx: frozenset[int] = frozenset()
        completed_order: list[Task] = []
        if resume is not None:
            done_idx = check_resume_state(resume, schedule, tiled)
            completed_order = list(resume.completed)
            log = list(resume.log)
        factors = factor_store(log)

        # In-degree counters over task indices (completed tasks are never
        # decremented: a legal completed set has no pending predecessor).
        remaining = [sum(d not in done_idx for d in ps) for ps in schedule.preds]
        # Heap-backed ready queue: entries are (-rank, index, sequence,
        # task) so pops are highest-bottom-level-rank first with a fully
        # deterministic tie-break (the sequence also keeps the heap from
        # ever comparing Task objects).  Chunks of a split batch inherit
        # their parent's rank and index.
        ready_heap: list[tuple[float, int, int, Task]] = []
        seq = itertools.count()

        lock = threading.Lock()
        cond = threading.Condition(lock)
        done_count = [len(done_idx)]
        total = len(tasks)
        errors: list[BaseException] = []
        all_done = threading.Event()
        cancel = threading.Event()
        stop = [False]
        # Stop-the-world checkpoint state, all guarded by `cond`:
        inflight = [0]
        paused = [False]
        if done_count[0] == total:
            all_done.set()

        # Chunked batch bookkeeping: parent index -> number of chunks
        # still running.  Mutated under `lock` except for the initial
        # seeding below (workers not started yet).
        chunk_left: dict[int, int] = {}

        def enqueue(i: int) -> None:
            """Push DAG task ``i``, splitting ready batches across workers.

            Caller holds ``cond`` (or no worker is running yet); waiters
            are woken by the caller's ``notify_all``.
            """
            task = tasks[i]
            pri = -ranks[i]
            if task.is_batch and self.num_workers > 1:
                chunks = split_batch(task, self.num_workers)
                if len(chunks) > 1:
                    chunk_left[i] = len(chunks)
                    for c in chunks:
                        heappush(ready_heap, (pri, i, next(seq), c))
                    return
            heappush(ready_heap, (pri, i, next(seq), task))

        for i, n_wait in enumerate(remaining):
            if n_wait == 0 and i not in done_idx:
                enqueue(i)

        policy = resolve_policy(self.retry_policy, self.chaos, self.health_checks)
        ref_norm = health_ref_norm(tiled) if self.health_checks else None
        workspaces = [Workspace() for _ in range(self.num_workers)]

        def start() -> dict:
            return {
                "runtime": "threaded",
                "total_tasks": total,
                "total_units": sum(t.ncols for t in tasks),
                "grid": [tiled.grid_rows, tiled.grid_cols],
                "tile_size": tiled.tile_size,
                "workers": self.num_workers,
                "completed": done_count[0],
            }

        with run_bus(self, bus, "manager", start, lambda: {"tasks": total}) as bus:
            ckpt = _CheckpointWriter(
                self.checkpoint_every, self.checkpoint_path, schedule, tiled, shape, bus
            )

            def fail(exc: BaseException) -> None:
                """First-error path: record, cancel all pending work, wake everyone."""
                with cond:
                    errors.append(exc)
                    # A pauser waiting for quiescence must not deadlock on a
                    # worker that died instead of decrementing inflight.
                    paused[0] = False
                    cond.notify_all()
                cancel.set()
                all_done.set()

            def pop_task() -> tuple[int, Task] | None:
                """Highest-rank ready ``(index, task)``; None when the run is over.

                Blocks while the heap is empty or dispatch is paused for a
                checkpoint; increments ``inflight`` atomically with the pop
                so the pauser's quiescence wait is race-free.
                """
                with cond:
                    while True:
                        if cancel.is_set() or stop[0]:
                            return None
                        if ready_heap and not paused[0]:
                            _, i, _, task = heappop(ready_heap)
                            inflight[0] += 1
                            return i, task
                        cond.wait()

            def worker(index: int) -> None:
                device = f"worker-{index}"
                workspace = workspaces[index]
                while True:
                    popped = pop_task()
                    if popped is None:
                        return
                    i, task = popped
                    try:
                        if bus is not None:
                            t0 = bus.clock()
                            bus.task_start(task, device, t=t0)
                        if policy is not None:
                            produced = apply_task_resilient(
                                task, tiled, factors, workspace,
                                policy=policy, backend=self.backend, chaos=self.chaos,
                                health=self.health_checks, health_ref_norm=ref_norm,
                                device=device, bus=bus,
                            )
                        else:
                            produced = apply_task(
                                task, tiled, factors, workspace, backend=self.backend
                            )
                        if bus is not None:
                            bus.task_finish(task, device, start=t0, end=bus.clock())
                    except BaseException as exc:  # propagate to the caller
                        with cond:
                            inflight[0] -= 1
                            cond.notify_all()
                        if hasattr(exc, "add_note"):  # 3.11+
                            exc.add_note(f"while executing task {task.label()} on {device}")
                        fail(exc)
                        return
                    with cond:
                        inflight[0] -= 1
                        if i in chunk_left:
                            chunk_left[i] -= 1
                            if chunk_left[i] > 0:
                                cond.notify_all()
                                continue  # siblings still running; not done yet
                            del chunk_left[i]
                            task = tasks[i]  # the DAG-level task just completed
                        if produced is not None:
                            log.append((task, produced))
                        completed_order.append(task)
                        done_count[0] += 1
                        finished = done_count[0] == total
                        for s in succs[i]:
                            remaining[s] -= 1
                            if remaining[s] == 0:
                                enqueue(s)
                        if ckpt.task_done() and not finished and not cancel.is_set():
                            # Stop the world: block new dispatch, drain
                            # in-flight kernels, snapshot, resume.
                            paused[0] = True
                            while inflight[0] > 0 and not cancel.is_set():
                                cond.wait()
                            if not cancel.is_set():
                                try:
                                    ckpt.write(completed_order, log, device=device)
                                except BaseException as exc:
                                    paused[0] = False
                                    cond.notify_all()
                                    fail(exc)
                                    return
                            paused[0] = False
                        cond.notify_all()
                    if finished:
                        all_done.set()

            threads = [
                threading.Thread(
                    target=worker, args=(i,), name=f"tiledqr-worker-{i}", daemon=True
                )
                for i in range(self.num_workers)
            ]
            monitor = None
            if bus is not None and bus.heartbeat_interval:
                from ..observability.live.heartbeat import HeartbeatMonitor

                monitor = HeartbeatMonitor(bus).start()
            try:
                for th in threads:
                    th.start()
                all_done.wait()
                with cond:
                    stop[0] = True
                    cond.notify_all()
                for th in threads:
                    th.join()
            finally:
                if monitor is not None:
                    monitor.stop()
            drain_fallbacks(self.metrics, *workspaces)

            if errors:
                raise errors[0]
            if done_count[0] != total:
                raise SimulationError(
                    f"threaded runtime finished {done_count[0]}/{total} tasks"
                )
        return TiledQRFactorization(r=tiled, log=log, shape=shape)
