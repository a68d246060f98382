"""Structured runtime tracing shared by the real executors and simulators.

The simulators have always produced :class:`~repro.sim.trace.ExecutionTrace`
objects; the real runtimes produced nothing, so the paper's predicted
schedules (Algs. 2-4) could not be validated against actual execution.
:class:`Tracer` closes that gap: it folds the run's telemetry stream
into :class:`~repro.sim.trace.TaskRecord`-compatible events, so a traced
real run yields the *same* trace schema as a simulated one and every
downstream consumer (reports, Gantt charts, exporters, the ``trace``
CLI) works on both.

The runtimes never call the tracer directly: they publish on the run's
:class:`~repro.observability.live.bus.TelemetryBus`, and
:meth:`Tracer.on_event` is folded onto that bus for the duration of the
run (see :func:`repro.runtime.serial.run_bus`).  The explicit
:meth:`Tracer.span` API remains for custom executors.

Design constraints, in order:

* **zero overhead when disabled** — a disabled tracer's :meth:`Tracer.span`
  returns a shared no-op context manager without allocating anything,
  and the runtimes create no bus for it;
* **thread-safe by construction** — each thread appends to its own
  buffer (registered once under a lock), merged at read time, so
  publishing threads never contend on the hot path;
* **mergeable** — :meth:`Tracer.record_task` ingests pre-timed events
  from any source.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Callable

from ..dag.tasks import Task, TaskKind
from ..errors import ObservabilityError
from ..sim.trace import AnnotationRecord, ExecutionTrace, TaskRecord, TransferRecord
from .export import _task_record_from_dict


class _NullSpan:
    """Shared no-op context manager returned by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """One active kernel span; records a TaskRecord on exit."""

    __slots__ = ("_tracer", "task", "device", "tile_size", "start", "end")

    def __init__(self, tracer: "Tracer", task: Task, device: str, tile_size: int | None):
        self._tracer = tracer
        self.task = task
        self.device = device
        self.tile_size = tile_size
        self.start = 0.0
        self.end = 0.0

    def __enter__(self) -> "_Span":
        self._tracer._push(self)
        self.start = self._tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = self._tracer._clock()
        self._tracer._pop(self, failed=exc_type is not None)
        return False


def _coerce_kind(kernel: str | TaskKind) -> TaskKind:
    if isinstance(kernel, TaskKind):
        return kernel
    try:
        return TaskKind[str(kernel).upper()]
    except KeyError:
        raise ObservabilityError(
            f"unknown kernel {kernel!r}; expected one of "
            f"{[k.name for k in TaskKind]}"
        ) from None


#: Bus event types the trace keeps as annotations.
_ANNOTATED = frozenset({"retry", "fault", "failover", "checkpoint"})


def _annotation_label(kind: str, d: dict) -> str:
    """The trace label of one resilience event, from its bus payload."""
    if kind == "retry":
        return f"attempt {d['attempt']}/{d['max_attempts']} of {d['task']}: {d['error']}"
    if kind == "fault":
        return f"{d['fault']}:{d['task']}"
    if kind == "failover":
        if d.get("died"):
            return f"{d['detail']}; main={d['main']}"
        return f"{d['detail']} -> {{{', '.join(d['to'])}}}"
    if "panel" in d:  # multiprocess checkpoints are panel-aligned
        return f"panel {d['panel']}/{d['panels']} -> {d['path']}"
    return f"{d['completed']}/{d['total']} tasks -> {d['path']}"


class Tracer:
    """Collect per-kernel spans from a real (or simulated) execution.

    Parameters
    ----------
    enabled:
        When False the tracer is inert: spans are shared no-ops and
        ``record_*`` calls return immediately (the zero-overhead path).
    clock:
        Monotonic time source; defaults to :func:`time.perf_counter`.
    metrics:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`;
        every recorded kernel with a known tile size feeds its
        per-kernel duration/GFLOP-rate histograms.

    Examples
    --------
    >>> tracer = Tracer()
    >>> with tracer.span("GEQRT", k=0, i=0, device="cpu"):
    ...     pass  # run the kernel
    >>> len(tracer.task_records())
    1
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] | None = None,
        metrics=None,
    ):
        self.enabled = enabled
        self.metrics = metrics
        self._clock = clock if clock is not None else perf_counter
        self._lock = threading.Lock()
        self._buffers: list[list[TaskRecord]] = []
        self._transfers: list[TransferRecord] = []
        self._annotations: list[AnnotationRecord] = []
        self._local = threading.local()
        #: Tile edge of the run being folded (from its ``run.start``).
        self._tile_size: int | None = None

    # -- span API ---------------------------------------------------------

    def span(
        self,
        kernel: str | TaskKind,
        k: int = 0,
        i: int | None = None,
        j: int | None = None,
        row2: int | None = None,
        device: str = "local",
        tile_size: int | None = None,
    ):
        """Open a kernel span: ``with tracer.span("GEQRT", k=k, i=i): ...``.

        Parameters
        ----------
        kernel:
            Kernel name (``"GEQRT"``, ``"TSQRT"``, ...) or a
            :class:`~repro.dag.tasks.TaskKind`.
        k, i, j, row2:
            Task coordinates: panel index, primary tile row, updated tile
            column (defaults to ``k``), and the top row of an elimination
            pair (defaults to ``k``; ignored for GEQRT/UNMQR).
        device:
            Executor identity recorded on the event (thread/process/device).
        tile_size:
            Tile edge ``b``; required for GFLOP/s metrics accounting.
        """
        if not self.enabled:
            return NULL_SPAN
        kind = _coerce_kind(kernel)
        row = k if i is None else i
        col = k if j is None else j
        if kind in (TaskKind.GEQRT, TaskKind.UNMQR):
            top = row
        else:
            top = k if row2 is None else row2
        task = Task(kind, k, row, top, col)
        return _Span(self, task, device, tile_size)

    def task_span(self, task: Task, device: str = "local", tile_size: int | None = None):
        """Span for an existing DAG task."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, task, device, tile_size)

    # -- bus fold ----------------------------------------------------------

    def on_event(self, event) -> None:
        """Fold one :class:`~repro.observability.live.bus.LiveEvent`.

        ``task.finish`` becomes a :class:`TaskRecord` (and a kernel
        observation on :attr:`metrics`, at the tile size the run's
        ``run.start`` announced), ``transfer`` a :class:`TransferRecord`,
        and ``retry``/``fault``/``failover``/``checkpoint`` an
        :class:`AnnotationRecord`; other events are ignored.
        """
        if not self.enabled:
            return
        kind, d = event.type, event.data
        if kind == "task.finish":
            self._add(_task_record_from_dict({**d, "device": event.device}), self._tile_size)
        elif kind in _ANNOTATED:
            self.record_annotation(kind, _annotation_label(kind, d), event.device, event.t)
        elif kind == "transfer":
            self.record_transfer(d["src"], d["dst"], d["bytes"], d["start"], d["end"], d["tag"])
        elif kind == "run.start":
            self._tile_size = d.get("tile_size")

    # -- pre-timed ingestion ----------------------------------------------

    def record_task(
        self,
        task: Task,
        device: str,
        start: float,
        end: float,
        tile_size: int | None = None,
    ) -> None:
        """Ingest an already-timed kernel event."""
        if self.enabled:
            self._add(TaskRecord(task=task, device_id=device, start=start, end=end), tile_size)

    def record_transfer(
        self,
        src: str,
        dst: str,
        num_bytes: float,
        start: float,
        end: float,
        tag: str = "",
    ) -> None:
        """Ingest one data movement (e.g. a multiprocess pipe send)."""
        if not self.enabled:
            return
        with self._lock:
            self._transfers.append(
                TransferRecord(src=src, dst=dst, num_bytes=num_bytes, start=start, end=end, tag=tag)
            )

    def record_annotation(
        self, kind: str, label: str, device: str = "local", t: float | None = None
    ) -> None:
        """Ingest one out-of-band event (retry, fault, failover, checkpoint).

        Annotations ride along in the trace without affecting any timing
        aggregate — ``tiledqr trace`` lists them so a post-mortem shows
        what the resilience machinery did and when.
        """
        if not self.enabled:
            return
        when = self._clock() if t is None else t
        with self._lock:
            self._annotations.append(
                AnnotationRecord(kind=kind, label=label, device=device, t=when)
            )

    # -- internal span plumbing -------------------------------------------

    def _buffer(self) -> list[TaskRecord]:
        buf = getattr(self._local, "buffer", None)
        if buf is None:
            buf = []
            self._local.buffer = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span: _Span) -> None:
        self._stack().append(span)

    def _pop(self, span: _Span, failed: bool) -> None:
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise ObservabilityError(
                f"mis-nested span exit: {span.task.label()} is not the innermost open span"
            )
        stack.pop()
        if failed:
            return  # a span whose body raised is not a completed kernel
        self._add(
            TaskRecord(task=span.task, device_id=span.device, start=span.start, end=span.end),
            span.tile_size,
        )

    def _add(self, rec: TaskRecord, tile_size: int | None) -> None:
        self._buffer().append(rec)
        if self.metrics is not None and tile_size is not None:
            self.metrics.observe_kernel(
                rec.task.kind, tile_size, rec.end - rec.start, ncols=rec.task.ncols
            )

    # -- reading ----------------------------------------------------------

    @property
    def open_spans(self) -> int:
        """Depth of this thread's currently open span stack."""
        return len(self._stack())

    def task_records(self) -> list[TaskRecord]:
        """All completed kernel events, chronological."""
        with self._lock:
            merged = [rec for buf in self._buffers for rec in buf]
        merged.sort(key=lambda r: (r.start, r.end))
        return merged

    def transfer_records(self) -> list[TransferRecord]:
        with self._lock:
            out = list(self._transfers)
        out.sort(key=lambda r: (r.start, r.end))
        return out

    def annotation_records(self) -> list[AnnotationRecord]:
        with self._lock:
            out = list(self._annotations)
        out.sort(key=lambda r: r.t)
        return out

    def __len__(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._buffers) + len(self._transfers)

    def to_trace(self, rebase: bool = True) -> ExecutionTrace:
        """Snapshot into the shared :class:`ExecutionTrace` schema.

        Parameters
        ----------
        rebase:
            Shift times so the earliest event starts at 0.0 (real runs
            carry raw ``perf_counter`` timestamps; rebasing makes them
            directly comparable with simulator traces).
        """
        tasks = self.task_records()
        transfers = self.transfer_records()
        annotations = self.annotation_records()
        if rebase and (tasks or transfers):
            t0 = min(
                [r.start for r in tasks] + [t.start for t in transfers]
            )
            tasks = [
                TaskRecord(task=r.task, device_id=r.device_id, start=r.start - t0, end=r.end - t0)
                for r in tasks
            ]
            transfers = [
                TransferRecord(
                    src=t.src, dst=t.dst, num_bytes=t.num_bytes,
                    start=t.start - t0, end=t.end - t0, tag=t.tag,
                )
                for t in transfers
            ]
            annotations = [
                AnnotationRecord(kind=a.kind, label=a.label, device=a.device, t=a.t - t0)
                for a in annotations
            ]
        return ExecutionTrace(tasks=tasks, transfers=transfers, annotations=annotations)

    def clear(self) -> None:
        """Drop all recorded events (buffers stay registered)."""
        with self._lock:
            for buf in self._buffers:
                buf.clear()
            self._transfers.clear()
            self._annotations.clear()


#: Shared inert tracer — pass where a tracer is required but unwanted.
NULL_TRACER = Tracer(enabled=False)
