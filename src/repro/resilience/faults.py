"""Deterministic fault injection for the numeric runtimes.

A :class:`FaultPlan` is a declarative, JSON-serializable list of
:class:`FaultSpec` entries — *which* task coordinates to sabotage, *how*
(kernel exception, artificial delay, hang, worker death, NaN/Inf tile
corruption) and *how many times*.  A :class:`ChaosEngine` executes the
plan at runtime: the retry/failover layers under test never see the
engine, only the failures it manufactures.

Determinism is the point: the same plan against the same DAG injects
the same faults at the same tasks on every run (fire counts are keyed
by spec, not wall clock), so chaos tests are reproducible and a
retry-masked run can be compared bit-for-bit with a fault-free one.
"""

from __future__ import annotations

import enum
import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..dag.tasks import Task
from ..errors import FaultInjectionError, ResilienceError


class FaultKind(enum.Enum):
    """What the chaos engine does to a matching task.

    ==============  =====================================================
    EXCEPTION       raise :class:`FaultInjectionError` before the kernel
    DELAY           sleep ``seconds`` before the kernel (slow task)
    HANG            sleep ``seconds`` *inside* the kernel slot — long
                    enough to trip per-task deadlines / worker heartbeats
    CORRUPT_NAN     overwrite the kernel's output tiles with NaN
    CORRUPT_INF     overwrite the kernel's output tiles with +inf
    KILL_WORKER     hard-kill the executing worker process
                    (``os._exit``; multiprocess runtime only)
    ==============  =====================================================
    """

    EXCEPTION = "exception"
    DELAY = "delay"
    HANG = "hang"
    CORRUPT_NAN = "corrupt_nan"
    CORRUPT_INF = "corrupt_inf"
    KILL_WORKER = "kill_worker"


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: where it matches and what it does.

    Matching fields (``task_kind``, ``k``, ``row``, ``col``, ``device``)
    are wildcards when ``None``.  ``col`` matches batched tasks when it
    falls inside their ``[col, col_end)`` range.  ``times`` bounds how
    many matching invocations actually fire (after which the spec is
    inert), which is what lets a retry attempt of the same task succeed.
    """

    kind: FaultKind
    task_kind: str | None = None
    k: int | None = None
    row: int | None = None
    col: int | None = None
    device: str | None = None
    times: int = 1
    seconds: float = 0.0

    def __post_init__(self):
        if self.times < 1:
            raise ResilienceError(f"fault must fire at least once, got times={self.times}")
        if self.seconds < 0.0:
            raise ResilienceError(f"negative fault duration {self.seconds}")

    def matches(self, task: Task, device: str | None) -> bool:
        if self.task_kind is not None and task.kind.name != self.task_kind:
            return False
        if self.k is not None and task.k != self.k:
            return False
        if self.row is not None and task.row != self.row:
            return False
        if self.col is not None:
            if task.is_batch:
                if not (task.col <= self.col < task.col_end):
                    return False
            elif task.col != self.col:
                return False
        if self.device is not None and device is not None and device != self.device:
            return False
        return True

    def to_dict(self) -> dict:
        d = {"kind": self.kind.value, "times": self.times}
        for name in ("task_kind", "k", "row", "col", "device"):
            v = getattr(self, name)
            if v is not None:
                d[name] = v
        if self.seconds:
            d["seconds"] = self.seconds
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FaultSpec":
        try:
            kind = FaultKind(d["kind"])
        except (KeyError, ValueError) as exc:
            raise ResilienceError(
                f"fault spec needs a valid 'kind' "
                f"({[k.value for k in FaultKind]}), got {d!r}"
            ) from exc
        known = {"kind", "task_kind", "k", "row", "col", "device", "times", "seconds"}
        unknown = set(d) - known
        if unknown:
            raise ResilienceError(f"unknown fault spec fields {sorted(unknown)}")
        return cls(
            kind=kind,
            task_kind=d.get("task_kind"),
            k=d.get("k"),
            row=d.get("row"),
            col=d.get("col"),
            device=d.get("device"),
            times=int(d.get("times", 1)),
            seconds=float(d.get("seconds", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable set of fault rules.

    The seed feeds the retry layer's jitter and any randomized choices a
    chaos run makes, so an entire chaos experiment is one reproducible
    artifact (``tiledqr chaos --plan faults.json``).
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)

    def with_spec(self, spec: FaultSpec) -> "FaultPlan":
        return replace(self, specs=(*self.specs, spec))

    def to_dict(self) -> dict:
        return {"seed": self.seed, "faults": [s.to_dict() for s in self.specs]}

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        if not isinstance(d, dict) or "faults" not in d:
            raise ResilienceError(
                "fault plan JSON must be an object with a 'faults' list"
            )
        faults = d["faults"]
        if not isinstance(faults, list):
            raise ResilienceError(f"'faults' must be a list, got {type(faults).__name__}")
        return cls(
            specs=tuple(FaultSpec.from_dict(s) for s in faults),
            seed=int(d.get("seed", 0)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ResilienceError(f"fault plan is not valid JSON: {exc}") from None

    def save(self, path) -> Path:
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(self.to_json())
        return p

    @classmethod
    def load(cls, path) -> "FaultPlan":
        p = Path(path)
        if not p.is_file():
            raise ResilienceError(f"no fault plan at {p}")
        return cls.from_json(p.read_text())


class ChaosEngine:
    """Executes a :class:`FaultPlan` against a running factorization.

    The runtimes call :meth:`before_task` ahead of each kernel and
    :meth:`corrupt_outputs` after it; both are no-ops unless a spec
    matches and still has fires left.  Each fire publishes a ``fault``
    event on the run's ``bus`` when one is passed.  Fire counting is
    thread-safe (one engine may be shared by all worker threads) and
    deterministic: a spec fires on its first ``times`` matching
    invocations in execution order, independent of wall clock.
    """

    def __init__(self, plan: FaultPlan, device: str | None = None):
        self.plan = plan
        self.device = device
        self._fired = [0] * len(plan.specs)
        self._lock = threading.Lock()
        self.faults_injected = 0

    # -- bookkeeping ------------------------------------------------------

    def _claim(
        self, task: Task, device: str | None, kinds: tuple[FaultKind, ...], bus
    ) -> FaultSpec | None:
        """Atomically consume one fire of the first matching live spec."""
        dev = device if device is not None else self.device
        with self._lock:
            for idx, spec in enumerate(self.plan.specs):
                if spec.kind not in kinds:
                    continue
                if self._fired[idx] >= spec.times:
                    continue
                if spec.matches(task, dev):
                    self._fired[idx] += 1
                    self.faults_injected += 1
                    break
            else:
                return None
        if bus is not None:
            bus.publish(
                "fault", dev or "local", {"fault": spec.kind.value, "task": task.label()}
            )
        return spec

    def fire_counts(self) -> list[int]:
        with self._lock:
            return list(self._fired)

    # -- injection points -------------------------------------------------

    def before_task(self, task: Task, device: str | None = None, bus=None) -> None:
        """Pre-kernel injection: exceptions, delays, hangs, worker kills."""
        spec = self._claim(
            task,
            device,
            (FaultKind.EXCEPTION, FaultKind.DELAY, FaultKind.HANG, FaultKind.KILL_WORKER),
            bus,
        )
        if spec is None:
            return
        if spec.kind is FaultKind.EXCEPTION:
            raise FaultInjectionError(
                f"injected kernel failure at {task.label()}"
                + (f" on {device}" if device else "")
            )
        if spec.kind in (FaultKind.DELAY, FaultKind.HANG):
            time.sleep(spec.seconds)
            return
        # KILL_WORKER: die the hard way — no cleanup, no goodbye message.
        # Only meaningful inside a multiprocess worker; the manager sees
        # EOF on the pipe, exactly like a crashed or OOM-killed device.
        os._exit(17)

    def corrupt_outputs(
        self, task: Task, written_tiles, device: str | None = None, bus=None
    ) -> bool:
        """Post-kernel injection: poison the task's output tiles.

        ``written_tiles`` is an iterable of ndarrays the task wrote.
        Returns True when a corruption fired (so callers can assert the
        sentinels caught it).
        """
        spec = self._claim(
            task, device, (FaultKind.CORRUPT_NAN, FaultKind.CORRUPT_INF), bus
        )
        if spec is None:
            return False
        poison = np.nan if spec.kind is FaultKind.CORRUPT_NAN else np.inf
        for tile in written_tiles:
            tile[...] = poison
        return True
