"""Counters, gauges, and quantile histograms for runtime metrics.

A deliberately small, dependency-free metrics layer: the runtimes (and
anything else) register named instruments in a :class:`MetricsRegistry`
and the ``trace`` CLI / tests read snapshots out.  The kernel-aware
entry point is :meth:`MetricsRegistry.observe_kernel`, which converts a
measured kernel duration into achieved GFLOP/s using the
:mod:`repro.kernels.flops` arithmetic models — the same models the
device calibration and the analysis layer use, so "achieved rate" here
is directly comparable with the paper's model numbers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..dag.tasks import TaskKind
from ..kernels.flops import (
    flops_geqrt,
    flops_tsmqr,
    flops_tsqrt,
    flops_ttmqr,
    flops_ttqrt,
    flops_unmqr,
)

#: Arithmetic model per kernel, shared with the analysis layer.  Batched
#: update kinds use the per-tile model; multiply by the batch width.
KERNEL_FLOPS = {
    TaskKind.GEQRT: flops_geqrt,
    TaskKind.UNMQR: flops_unmqr,
    TaskKind.UNMQR_BATCH: flops_unmqr,
    TaskKind.TSQRT: flops_tsqrt,
    TaskKind.TSMQR: flops_tsmqr,
    TaskKind.TSMQR_BATCH: flops_tsmqr,
    TaskKind.TTQRT: flops_ttqrt,
    TaskKind.TTMQR: flops_ttmqr,
    TaskKind.TTMQR_BATCH: flops_ttmqr,
}


def kernel_flops(kind: TaskKind | str, b: int, ncols: int = 1) -> float:
    """Model flop count of one ``kind`` kernel call on ``b x b`` tiles.

    ``ncols`` is the batch width for ``*_BATCH`` kinds: a batched update
    does exactly the arithmetic of its ``ncols`` fused per-tile calls.
    """
    if isinstance(kind, str):
        kind = TaskKind[kind.upper()]
    return KERNEL_FLOPS[kind](b) * ncols


@dataclass
class Counter:
    """Monotone event counter (thread-safe)."""

    name: str
    value: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        with self._lock:
            self.value += amount


@dataclass
class Gauge:
    """Last-value-wins instantaneous measurement (thread-safe)."""

    name: str
    value: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


@dataclass
class Histogram:
    """Exact-quantile histogram over an append-only sample buffer.

    ``observe`` is O(1) amortized: samples append raw and are sorted
    lazily on the first quantile/summary read after new data, so a run
    with millions of observations pays one sort at read time instead of
    an O(n) insertion per observation.  Thread-safe; quantiles
    interpolate linearly between order statistics and are monotone in
    ``q``.
    """

    name: str
    _samples: list[float] = field(default_factory=list)
    total: float = 0.0
    _dirty: bool = field(default=False, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def observe(self, value: float) -> None:
        v = float(value)
        with self._lock:
            self._samples.append(v)
            self.total += v
            self._dirty = True

    def _ordered(self) -> list[float]:
        """Sorted sample view; caller must hold ``_lock``."""
        if self._dirty:
            self._samples.sort()
            self._dirty = False
        return self._samples

    @property
    def count(self) -> int:
        with self._lock:
            return len(self._samples)

    @property
    def min(self) -> float:
        with self._lock:
            vals = self._ordered()
            return vals[0] if vals else 0.0

    @property
    def max(self) -> float:
        with self._lock:
            vals = self._ordered()
            return vals[-1] if vals else 0.0

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / len(self._samples) if self._samples else 0.0

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile, ``0 <= q <= 1``."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            vals = self._ordered()
            if not vals:
                return 0.0
            pos = q * (len(vals) - 1)
            lo = int(pos)
            hi = min(lo + 1, len(vals) - 1)
            frac = pos - lo
            # a + (b - a) * frac is exact at frac == 0 (equal neighbors
            # return the sample itself); the clamp guards the residual
            # float overshoot near frac == 1 so quantile stays monotone
            # in q and within [min, max].
            return min(vals[lo] + (vals[hi] - vals[lo]) * frac, vals[hi])

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def summary(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


class MetricsRegistry:
    """Named instruments with get-or-create semantics (thread-safe).

    Naming convention used by the built-in instrumentation::

        kernel.<KIND>.calls      Counter   kernel invocations
        kernel.<KIND>.flops      Counter   model flops executed
        kernel.<KIND>.seconds    Histogram per-call wall time
        kernel.<KIND>.gflops     Histogram per-call achieved GFLOP/s
        kernel.<KIND>.tiles      Histogram per-batch tile count
                                           (``*_BATCH`` kinds only)
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge(name)
            return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name)
            return self._histograms[name]

    # -- kernel accounting -------------------------------------------------

    def observe_kernel(
        self, kind: TaskKind, b: int, seconds: float, ncols: int = 1
    ) -> None:
        """Record one kernel call: duration + flops-model GFLOP/s.

        ``ncols`` is the batch width for ``*_BATCH`` kinds: the flop
        credit is the sum over the fused per-tile updates, and the tile
        count feeds the ``.tiles`` histogram.
        """
        flops = kernel_flops(kind, b, ncols)
        batched = kind.name.endswith("_BATCH")
        prefix = f"kernel.{kind.value}"
        with self._lock:
            for store, cls, name in (
                (self._counters, Counter, f"{prefix}.calls"),
                (self._counters, Counter, f"{prefix}.flops"),
                (self._histograms, Histogram, f"{prefix}.seconds"),
                (self._histograms, Histogram, f"{prefix}.gflops"),
            ):
                if name not in store:
                    store[name] = cls(name)
            if batched and f"{prefix}.tiles" not in self._histograms:
                self._histograms[f"{prefix}.tiles"] = Histogram(f"{prefix}.tiles")
            self._counters[f"{prefix}.calls"].inc()
            self._counters[f"{prefix}.flops"].inc(flops)
            self._histograms[f"{prefix}.seconds"].observe(seconds)
            if batched:
                self._histograms[f"{prefix}.tiles"].observe(ncols)
            if seconds > 0.0:
                self._histograms[f"{prefix}.gflops"].observe(flops / seconds / 1e9)

    # -- bus fold ----------------------------------------------------------

    def on_event(self, event) -> None:
        """Fold one :class:`~repro.observability.live.bus.LiveEvent` into
        the ``resilience.*`` counters — the only code that counts them
        (multiprocess workers count with it too; the manager adds the
        counter deltas their replies carry).

        ==========================================  =====================
        ``retry``                                   ``retries``
        ``fault``                                   ``faults_injected``
        ``checkpoint``                              ``checkpoints``
        ``failover`` with ``died``                  ``worker_deaths``,
                                                    ``failovers``
        ``task.error`` with ``TaskTimeoutError``    ``timeouts``
        ==========================================  =====================

        The runtimes fold this onto the run's bus for the duration of a
        factorize (see :func:`repro.runtime.serial.run_bus`).
        """
        kind = event.type
        if kind == "retry":
            self.counter("resilience.retries").inc()
        elif kind == "fault":
            self.counter("resilience.faults_injected").inc()
        elif kind == "checkpoint":
            self.counter("resilience.checkpoints").inc()
        elif kind == "failover":
            if event.data.get("died"):
                self.counter("resilience.worker_deaths").inc()
                self.counter("resilience.failovers").inc()
        elif kind == "task.error":
            if event.data.get("error") == "TaskTimeoutError":
                self.counter("resilience.timeouts").inc()

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready view of every instrument."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in self._counters.items()},
                "gauges": {n: g.value for n, g in self._gauges.items()},
                "histograms": {n: h.summary() for n, h in self._histograms.items()},
            }

    def kernel_rates(self) -> dict[str, dict]:
        """Per-kernel achieved-rate summaries (empty if nothing recorded)."""
        with self._lock:
            return {
                name.split(".")[1]: hist.summary()
                for name, hist in self._histograms.items()
                if name.startswith("kernel.") and name.endswith(".gflops")
            }

    def to_prometheus_text(self, prefix: str = "tiledqr") -> str:
        """Prometheus text exposition (v0.0.4) of every instrument.

        Dotted registry names flatten to legal metric names
        (``kernel.GEQRT.seconds`` -> ``tiledqr_kernel_GEQRT_seconds``);
        counters gain the conventional ``_total`` suffix and histograms
        export as summaries (p50/p95/p99 quantiles plus ``_sum`` and
        ``_count``).  Output is sorted by metric name so snapshots diff
        cleanly; scrape endpoints and ``tiledqr metrics`` both serve
        this string verbatim.
        """
        with self._lock:
            counters = {n: c.value for n, c in self._counters.items()}
            gauges = {n: g.value for n, g in self._gauges.items()}
            histograms = {n: h.summary() for n, h in self._histograms.items()}
        lines: list[str] = []
        for name in sorted(counters):
            metric = f"{prometheus_name(prefix, name)}_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_format_value(counters[name])}")
        for name in sorted(gauges):
            metric = prometheus_name(prefix, name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_format_value(gauges[name])}")
        for name in sorted(histograms):
            metric = prometheus_name(prefix, name)
            s = histograms[name]
            lines.append(f"# TYPE {metric} summary")
            for q, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
                lines.append(f'{metric}{{quantile="{q}"}} {_format_value(s[key])}')
            lines.append(f"{metric}_sum {_format_value(s['total'])}")
            lines.append(f"{metric}_count {s['count']}")
        return "\n".join(lines) + ("\n" if lines else "")


def prometheus_name(prefix: str, name: str) -> str:
    """Sanitize a dotted registry name into a Prometheus metric name."""
    flat = f"{prefix}_{name}" if prefix else name
    out = [
        ch if (ch.isalnum() and ch.isascii()) or ch in "_:" else "_" for ch in flat
    ]
    if out and out[0].isdigit():
        out.insert(0, "_")
    return "".join(out)


def _format_value(v: float) -> str:
    """Render a sample value: integral floats without the trailing .0."""
    f = float(v)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)
