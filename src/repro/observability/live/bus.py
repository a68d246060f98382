"""In-run telemetry bus: bounded, lock-cheap pub/sub of live events.

The runtimes publish every event they emit — task start/finish,
transfers, retries, faults, failovers, checkpoints, heartbeats — on one
:class:`TelemetryBus` *as it happens*; it is their only emission point.
Two kinds of observer read that stream:

* **folds** (:meth:`TelemetryBus.fold`) — synchronous and lossless: the
  publishing thread calls each fold for every event, right after the
  ring append and outside the lock.  The
  :class:`~repro.observability.Tracer` and the ``resilience.*``
  counters of :class:`~repro.observability.MetricsRegistry` are folds,
  so a trace or a counter never depends on the ring size, the
  dispatcher, or its polling.  Folds must be cheap and must not block;
* **subscribers** (:meth:`TelemetryBus.subscribe`) — asynchronous and
  ring-buffered: the :class:`~repro.observability.ProgressTracker`,
  the :class:`~repro.observability.StragglerDetector`, the streaming
  JSONL sink and the ``tiledqr top`` dashboard do I/O or heavier
  folding, so they run on a dedicated dispatcher thread, *never* on
  the publishing worker's kernel hot path.

Design constraints:

* **zero overhead when absent** — the runtimes create no bus when they
  have no bus, no enabled tracer and no metrics, so the default path
  publishes nothing and the disabled-tracer overhead gate is untouched;
* **bounded** — events land in a ring buffer (``capacity`` newest
  events); a stalled or absent poller can never make the run grow
  memory without bound;
* **lock-cheap publish** — one short critical section assigns the
  sequence number and appends to the ring; the dispatcher polls.
  Synchronous subscriber delivery was measured at 25-50% wall-time on
  a threaded 512 x 512 run (workers serializing on the sink's file
  I/O); asynchronous delivery keeps the full pipeline inside the ≤5%
  live-overhead budget.  :meth:`drain` blocks until every published
  event has been delivered — the runtimes call it before returning,
  so ``factorize()`` + bus still *looks* synchronous: when it returns,
  subscribers have seen everything.  A failing subscriber is detached
  rather than allowed to poison delivery.

Event vocabulary (the ``type`` field):

==================  ====================================================
``run.start``       factorization begins (total_tasks, grid, tile_size)
``run.finish``      factorization done (tasks executed)
``task.start``      a kernel slot opened on a device
``task.finish``     a kernel completed (start/end/duration, coords)
``transfer``        data moved between devices (src, dst, bytes,
                    start, end, tag; multiprocess)
``retry``           a retry attempt is about to replay a task
``task.error``      a kernel attempt failed (type, message, retryable);
                    also a worker that missed its reply deadline
                    (``TaskTimeoutError``, multiprocess)
``fault``           the chaos engine injected a fault
``failover``        a device died / columns migrated (multiprocess)
``checkpoint``      a mid-run snapshot was written
``heartbeat``       proof of life from a device (reply received, tick)
``heartbeat.missed``a device has been silent past the interval
``straggler``       a task ran >= factor x its prediction
``drift``           a device's EWMA drift ratio crossed the threshold
==================  ====================================================
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from ...dag.tasks import Task


#: Default ring capacity — generous for the dashboards (they fold events
#: incrementally) while bounding a run that publishes millions.
DEFAULT_CAPACITY = 8192

#: Dispatcher poll period: the upper bound on subscriber-delivery
#: latency, and the *lower* bound on batch accumulation (publishers
#: never wake the dispatcher — see :meth:`TelemetryBus.publish`).
DISPATCH_POLL_SECONDS = 0.02


@dataclass(frozen=True, slots=True)
class LiveEvent:
    """One telemetry event on the bus.

    ``t`` is a ``perf_counter``-domain timestamp on the publisher's
    clock (the multiprocess manager rebases worker timestamps with its
    ClockSync offsets before publishing, so one run's events share one
    clock).  ``data`` is the type-specific payload; task events carry
    the task coordinates (``kind``, ``k``, ``row``, ``row2``, ``col``,
    and ``col_end`` for batched kinds) plus timing.
    """

    seq: int
    type: str
    t: float
    device: str
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "type": self.type,
            "seq": self.seq,
            "t": self.t,
            "device": self.device,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LiveEvent":
        return cls(
            seq=int(d.get("seq", 0)),
            type=str(d["type"]),
            t=float(d.get("t", 0.0)),
            device=str(d.get("device", "local")),
            data=dict(d.get("data", {})),
        )


def task_payload(task: Task) -> dict:
    """The standard coordinate payload for ``task.*`` events."""
    d = {
        "kind": task.kind.value,
        "k": task.k,
        "row": task.row,
        "row2": task.row2,
        "col": task.col,
    }
    if task.is_batch:
        d["col_end"] = task.col_end
    return d


class TelemetryBus:
    """Ring-buffered pub/sub for in-run telemetry.

    Parameters
    ----------
    capacity:
        Ring size; only the newest ``capacity`` events are retained for
        :meth:`events` pollers.  Subscribers see every event regardless.
    heartbeat_interval:
        Advisory liveness interval in seconds.  Runtimes that support
        heartbeats (threaded via
        :class:`~repro.observability.live.heartbeat.HeartbeatMonitor`,
        multiprocess via sliced reply polling) read it off the bus so
        one knob configures every runtime; ``None`` disables heartbeats.
    clock:
        Monotonic time source; defaults to :func:`time.perf_counter`.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        heartbeat_interval: float | None = None,
        clock: Callable[[], float] | None = None,
    ):
        if capacity < 1:
            raise ValueError(f"bus capacity must be >= 1, got {capacity}")
        if heartbeat_interval is not None and heartbeat_interval <= 0.0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        self.capacity = capacity
        self.heartbeat_interval = heartbeat_interval
        self.clock = clock if clock is not None else perf_counter
        self._ring: deque[LiveEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._seq = 0
        self._subscribers: list[Callable[[LiveEvent], None]] = []
        #: Replaced, never mutated, so publish iterates it lock-free.
        self._folds: tuple[Callable[[LiveEvent], None], ...] = ()
        self._dispatcher: threading.Thread | None = None
        self._delivered_seq = 0
        self._closed = False
        self.dropped_subscribers = 0
        #: Events the dispatcher never saw because the ring lapped it
        #: (publishers outran delivery by more than ``capacity``).
        self.dropped_events = 0

    # -- publishing -------------------------------------------------------

    def publish(
        self,
        type: str,
        device: str = "local",
        data: dict | None = None,
        t: float | None = None,
    ) -> LiveEvent:
        """Append one event to the ring and run every fold on it.

        Returns the published event (tests and sinks use the assigned
        sequence number).  Folds run here, in the publishing thread;
        subscribers are notified asynchronously from the dispatcher
        thread, and a raising subscriber is detached and counted in
        :attr:`dropped_subscribers`.  Use :meth:`drain` to wait for
        delivery.
        """
        when = self.clock() if t is None else t
        # The plain lock, not the Condition: publish never notifies.
        # Waking the dispatcher per event costs ~20% wall-time in
        # context-switch/GIL thrash on a threaded run; it polls every
        # DISPATCH_POLL_SECONDS and drains whatever accumulated.
        with self._lock:
            self._seq += 1
            event = LiveEvent(self._seq, type, when, device, data or {})
            self._ring.append(event)
        for fn in self._folds:
            fn(event)
        return event

    def task_start(self, task: Task, device: str, t: float | None = None) -> None:
        self.publish("task.start", device, task_payload(task), t=t)

    def task_finish(
        self,
        task: Task,
        device: str,
        start: float,
        end: float,
        t: float | None = None,
    ) -> None:
        data = task_payload(task)
        data["start"] = start
        data["end"] = end
        data["duration"] = end - start
        self.publish("task.finish", device, data, t=end if t is None else t)

    # -- folds ------------------------------------------------------------

    def fold(self, fn: Callable[[LiveEvent], None]) -> bool:
        """Run ``fn`` synchronously on every event published from now on.

        A fold is lossless — it sees every event whatever the ring
        capacity or dispatcher state — and runs in the publishing
        thread, so it must be cheap and thread-safe.  Returns ``False``
        when ``fn`` was already folded (it is not added twice).
        """
        with self._lock:
            if fn in self._folds:
                return False
            self._folds = (*self._folds, fn)
            return True

    def unfold(self, fn: Callable[[LiveEvent], None]) -> None:
        with self._lock:
            self._folds = tuple(f for f in self._folds if f != fn)

    # -- subscription / delivery ------------------------------------------

    def subscribe(self, fn: Callable[[LiveEvent], None]) -> None:
        """Register a callback; delivery starts from the *next* event.

        The first subscription starts the daemon dispatcher thread.
        """
        with self._cv:
            if fn in self._subscribers:
                return
            if not self._subscribers:
                # Late subscribers never replay history: delivery picks
                # up after the newest already-published event.
                self._delivered_seq = max(self._delivered_seq, self._seq)
            self._subscribers.append(fn)
            if self._dispatcher is None:
                self._closed = False
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop,
                    name="telemetry-bus-dispatch",
                    daemon=True,
                )
                self._dispatcher.start()

    def unsubscribe(self, fn: Callable[[LiveEvent], None]) -> None:
        with self._cv:
            if fn in self._subscribers:
                self._subscribers.remove(fn)

    def _dispatch_loop(self) -> None:
        while True:
            with self._cv:
                while not self._closed and self._seq <= self._delivered_seq:
                    self._cv.wait(timeout=DISPATCH_POLL_SECONDS)
                if self._closed and self._seq <= self._delivered_seq:
                    return
                # Pending events are a suffix of the ring; collect from
                # the right so a keeping-up dispatcher pays O(batch),
                # not O(capacity), inside the lock.
                batch = []
                for e in reversed(self._ring):
                    if e.seq <= self._delivered_seq:
                        break
                    batch.append(e)
                batch.reverse()
                if batch:
                    # A gap means the ring lapped us between batches.
                    self.dropped_events += batch[0].seq - self._delivered_seq - 1
                    target = batch[-1].seq
                else:  # everything pending was already evicted
                    self.dropped_events += self._seq - self._delivered_seq
                    target = self._seq
                subscribers = tuple(self._subscribers)
            dead: set = set()
            for event in batch:
                for fn in subscribers:
                    if fn in dead:
                        continue
                    try:
                        fn(event)
                    except Exception:
                        dead.add(fn)
                        self.unsubscribe(fn)
                        with self._cv:
                            self.dropped_subscribers += 1
            with self._cv:
                self._delivered_seq = max(self._delivered_seq, target)
                self._cv.notify_all()

    def drain(self, timeout: float | None = 5.0) -> bool:
        """Block until every published event has been delivered.

        Returns ``True`` when delivery caught up, ``False`` on timeout.
        A bus with no subscribers (no dispatcher) is trivially drained.
        """
        deadline = None if timeout is None else perf_counter() + timeout
        with self._cv:
            while self._dispatcher is not None and self._delivered_seq < self._seq:
                remaining = (
                    None if deadline is None else max(0.0, deadline - perf_counter())
                )
                if remaining == 0.0:
                    return False
                # Kick the dispatcher out of its poll sleep — waiting
                # out the poll period would cost up to
                # DISPATCH_POLL_SECONDS per drain.
                self._cv.notify_all()
                self._cv.wait(timeout=0.1 if remaining is None else min(0.1, remaining))
        return True

    def close(self) -> None:
        """Drain and stop the dispatcher thread (idempotent)."""
        self.drain()
        with self._cv:
            self._closed = True
            self._cv.notify_all()
            thread = self._dispatcher
            self._dispatcher = None
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)

    def events(self, since_seq: int = 0) -> list[LiveEvent]:
        """Ring snapshot of events with ``seq > since_seq`` (oldest first)."""
        with self._lock:
            return [e for e in self._ring if e.seq > since_seq]

    @property
    def last_seq(self) -> int:
        with self._lock:
            return self._seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def clear(self) -> None:
        """Drop ring contents (sequence numbering continues)."""
        with self._lock:
            self._ring.clear()


#: Shared inert stand-in where a bus argument is required but unwanted.
#: (The runtimes treat ``bus=None`` as disabled; NULL_BUS exists for
#: consumers that want an always-valid object to subscribe to.)
NULL_BUS = TelemetryBus(capacity=1)
