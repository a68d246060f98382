"""Outside-in instrumentation for the traced benchmark run.

Nothing here edits the program: kernel time is observed by wrapping the
resolved default kernel backend in a timing ``FunctionBackend`` that is
passed through the runtimes' public ``backend=`` argument, and every
other layer is timed by a span around a public call made from the
benchmark.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from time import perf_counter

from repro.dag import critical_path_length
from repro.kernels import flops as fl
from repro.kernels.backends import KERNEL_NAMES, FunctionBackend

#: Per-tile flop model of each kernel, keyed by the kernel's base kind;
#: batch kernels apply it once per tile column they update.
_TILE_FLOPS = {
    "geqrt": fl.flops_geqrt,
    "tsqrt": fl.flops_tsqrt,
    "ttqrt": fl.flops_ttqrt,
    "unmqr": fl.flops_unmqr,
    "tsmqr": fl.flops_tsmqr,
    "ttmqr": fl.flops_ttmqr,
}


def base_kind(kernel: str) -> str:
    return kernel.removesuffix("_batch")


class KernelLog:
    """Per-thread kernel call records, appended without a lock.

    Each thread registers its own list once (under the lock); the hot
    path is a single ``list.append`` to that list.  ``drain`` is called
    only between ops, when no kernel is in flight.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._lists: list[tuple[int, list]] = []

    def records(self) -> list:
        recs = getattr(self._local, "recs", None)
        if recs is None:
            recs = []
            self._local.recs = recs
            with self._lock:
                self._lists.append((len(self._lists), recs))
        return recs

    def drain(self) -> list[tuple[str, float, float, int, float]]:
        """All ``(kernel, start, end, thread, width)`` records so far,
        then reset (threads re-register on their next call)."""
        with self._lock:
            lists, self._lists = self._lists, []
            self._local = threading.local()
        return [(k, t0, t1, tid, w) for tid, recs in lists for k, t0, t1, w in recs]


def timing_backend(base, log: KernelLog) -> FunctionBackend:
    """``base`` with every kernel call timed into ``log``.

    The wrapped callables are the backend's own, called with the same
    arguments, so results are bit-identical to the unwrapped backend.
    The recorded width is the column count of the tile or panel the
    kernel factors or updates.
    """

    def wrap(name: str):
        fn = getattr(base, name)
        arg = 0 if name == "geqrt" else 1

        def timed(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            t1 = perf_counter()
            log.records().append((name, t0, t1, args[arg].shape[1]))
            return out

        return timed

    return FunctionBackend(
        name=base.name,
        description=f"{base.description} (timed)",
        compiled=base.compiled,
        bit_exact=base.bit_exact,
        **{name: wrap(name) for name in KERNEL_NAMES},
    )


class SpanLog:
    """Spans ``(id, name, start, end, parent, op, thread)`` in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def add(self, name, start, end, parent=None, thread="main") -> int:
        sid = len(self.spans)
        self.spans.append(
            {"id": sid, "name": name, "start": start, "end": end,
             "parent": parent, "op": self.op, "thread": thread}
        )
        return sid

    def span(self, name: str):
        return _Span(self, name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class _Span:
    def __init__(self, log: SpanLog, name: str):
        self.log = log
        self.name = name

    def __enter__(self):
        parent = self.log._stack[-1] if self.log._stack else None
        self.id = self.log.add(self.name, perf_counter(), None, parent)
        self.log._stack.append(self.id)
        return self

    def __exit__(self, *exc):
        self.log._stack.pop()
        rec = self.log.spans[self.id]
        rec["end"] = perf_counter()
        self.seconds = rec["end"] - rec["start"]
        return False


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 > reach:
            total += t1 - max(t0, reach)
            reach = t1
    return total


def kernel_layer(kernels, wall: float, tile: int, workers: int, dag) -> dict:
    """Per-op kernel and runtime-layer figures from kernel records.

    ``kernels`` holds ``(kernel, start, end, thread, width)`` records of
    one factorization of wall time ``wall``.  GFLOP/s is the flop model
    of :mod:`repro.kernels.flops` divided by measured seconds.
    """
    out: dict[str, float] = {}
    per_col: dict[str, list[float]] = {}
    for name in KERNEL_NAMES:
        recs = [r for r in kernels if r[0] == name]
        secs = sum(r[2] - r[1] for r in recs)
        cols = sum(r[4] for r in recs) / tile
        flops = _TILE_FLOPS[base_kind(name)](tile) * cols
        out[f"kernels.{name}.calls"] = len(recs)
        out[f"kernels.{name}.s"] = secs
        out[f"kernels.{name}.gflops"] = flops / secs / 1e9 if secs > 0 else 0.0
        acc = per_col.setdefault(base_kind(name), [0.0, 0.0])
        acc[0] += secs
        acc[1] += cols
    total = sum(r[2] - r[1] for r in kernels)
    out["kernels.total_s"] = total
    out["kernels.covered_s"] = covered((r[1], r[2]) for r in kernels)
    out["kernels.share"] = total / wall
    out["runtime.tasks"] = len(kernels)
    out["runtime.idle_s"] = workers * wall - total
    mean = {k: s / n for k, (s, n) in per_col.items() if n}

    def weight(task) -> float:
        return mean.get(task.kind.single.name.lower(), 0.0) * task.ncols

    out["runtime.cp_ratio"] = wall / critical_path_length(dag, weight)
    return out
