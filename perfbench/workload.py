"""One benchmark workload, run in a fresh process with BLAS pinned.

``run.py`` starts this file with ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1 and ``src`` on
``PYTHONPATH``; run directly, it refuses to measure unless those three
variables read 1.  It prints one JSON object as its last stdout line.

Modes: ``--setup-only`` times set-up (``import repro`` through the
untimed warm-up op) and exits; ``--trace 0`` runs the closed timed loop
with tracing off; ``--trace 1`` alternates untraced and traced ops and
reports per-layer figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Relative Frobenius error of |R| against LAPACK's |R| (square workloads).
R_TOL = 1e-10
#: Relative error of the least-squares solution against LAPACK's.
X_TOL = 1e-8


@dataclass(frozen=True)
class Spec:
    runtime: str  # "serial" | "threaded" | "multiprocess"
    shape: tuple[int, int]
    tile: int
    smoke_shape: tuple[int, int]
    smoke_tile: int
    solve: bool = False
    batch_updates: bool = False


WORKLOADS = {
    "square-fine": Spec("serial", (1024, 1024), 32, (128, 128), 32),
    "square-coarse-threaded": Spec(
        "threaded", (2048, 2048), 128, (256, 256), 64, batch_updates=True
    ),
    "tall-lstsq": Spec("serial", (16384, 256), 64, (1024, 128), 64, solve=True),
    "mp-paper-plan": Spec("multiprocess", (1024, 1024), 128, (256, 256), 64),
}


class Workload:
    """The op of one workload plus its inputs, reference and check."""

    def __init__(self, name: str, smoke: bool):
        import numpy as np

        self.np = np
        self.name = name
        self.spec = WORKLOADS[name]
        self.shape = self.spec.smoke_shape if smoke else self.spec.shape
        self.tile = self.spec.smoke_tile if smoke else self.spec.tile
        self.plan = None

    def inputs(self, rng):
        a = rng.standard_normal(self.shape)
        y = rng.standard_normal(self.shape[0]) if self.spec.solve else None
        return a, y

    def build_plan(self):
        """Alg. 2-4 plan of the multiprocess workload (set-up work)."""
        from repro.core import Optimizer
        from repro.devices.registry import paper_testbed

        return Optimizer(paper_testbed()).plan(
            matrix_size=self.shape[1], tile_size=self.tile, num_devices=2
        )

    def setup(self) -> None:
        if self.spec.runtime == "multiprocess":
            self.plan = self.build_plan()

    def factorize(self, a, backend=None, tracer=None, runtime=None):
        from repro.runtime import MultiprocessRuntime, ThreadedRuntime, tiled_qr

        runtime = runtime or self.spec.runtime
        if runtime == "threaded":
            rt = ThreadedRuntime(
                num_workers=2, batch_updates=self.spec.batch_updates, backend=backend
            )
            return rt.factorize(a, self.tile)
        if runtime == "multiprocess":
            return MultiprocessRuntime(self.plan, tracer=tracer).factorize(a, self.tile)
        return tiled_qr(
            a, tile_size=self.tile, batch_updates=self.spec.batch_updates, backend=backend
        )

    def op(self, a, y):
        """The untraced op, exactly as a caller of the library makes it."""
        if self.spec.solve:
            from repro.linalg import lstsq

            return lstsq(a, y, tile_size=self.tile)[0]
        return self.factorize(a)

    def lapack(self, a):
        return self.np.linalg.qr(a, mode="r")

    def reference(self, a, y, r_lapack):
        if self.spec.solve:
            return self.np.linalg.lstsq(a, y, rcond=None)[0]
        return r_lapack

    def error(self, out, ref) -> float:
        """Relative error of an op's output against the LAPACK reference."""
        np = self.np
        if self.spec.solve:
            return float(np.linalg.norm(out - ref) / np.linalg.norm(ref))
        n = self.shape[1]
        r = out.r_dense()[:n, :n]
        return float(np.linalg.norm(np.abs(r) - np.abs(ref)) / np.linalg.norm(ref))

    def passes(self, out, ref) -> bool:
        err = self.error(out, ref)
        ok = err <= (X_TOL if self.spec.solve else R_TOL)
        if not ok:
            print(f"correctness check failed: relative error {err:.3e}", file=sys.stderr)
        return ok


def provenance(np) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {v: os.environ.get(v) for v in PINNED},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def timed(fn, *args):
    gc.collect()
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


def tail(samples: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, beyond)``: the highest percentile with ten
    samples beyond it, or the maximum while that would fall below p50."""
    s = sorted(samples)
    n = len(s)
    if n >= 20:
        return s[n - 11], 100.0 * (n - 10) / n, 10
    return s[-1], 100.0, 0


def timed_loop(w: Workload, rng, seconds: float) -> dict:
    """Closed loop, one caller: the next op starts when the last returns.

    Each op is followed by LAPACK on the same input (timed, for the
    ratio) and the correctness check (untimed).
    """
    op_s, lapack_s = [], []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while attempted == 0 or perf_counter() < deadline:
        a, y = w.inputs(rng)
        attempted += 1
        try:
            out, dt = timed(w.op, a, y)
        except Exception:  # a failed op is counted, and the loop goes on
            traceback.print_exc()
            failed += 1
            continue
        r_lapack, dl = timed(w.lapack, a)
        if not w.passes(out, w.reference(a, y, r_lapack)):
            failed += 1
            continue
        op_s.append(dt)
        lapack_s.append(dl)
    if not op_s:
        raise SystemExit("every op failed; no timing to report")
    value, pct, beyond = tail(op_s)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "lapack_ratio": median(op_s) / median(lapack_s),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb(),
        },
        "detail": {
            "samples": len(op_s),
            "op_s_p50": median(op_s),
            "op_s_tail": value,
            "op_s_tail_percentile": pct,
            "op_s_tail_beyond": beyond,
            "fail_frac": failed / attempted,
            "op_s": op_s,
            "lapack_s": lapack_s,
        },
    }


def traced_loop(w: Workload, rng, seconds: float, out_dir: Path, seed: int) -> dict:
    """Alternate untraced and traced ops; measure every layer from outside."""
    np = w.np
    from repro.dag import bottom_level_ranks, build_dag, task_weight_model
    from repro.kernels.backends import resolve_backend
    from repro.observability import Tracer
    from repro.runtime.factorization import back_substitution
    from repro.tiles import TiledMatrix

    from layers import KernelLog, SpanLog, kernel_layer, timing_backend

    klog = KernelLog()
    backend = timing_backend(resolve_backend(None), klog)
    spans = SpanLog()
    m, n = w.shape
    b = w.tile
    mp = w.spec.runtime == "multiprocess"
    workers = len(w.plan.participants) if mp else (2 if w.spec.runtime == "threaded" else 1)
    per_op: list[dict] = []
    untraced_s, traced_s = [], []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while attempted == 0 or perf_counter() < deadline:
        spans.op = len(per_op)
        a, y = w.inputs(rng)
        r_lapack = w.lapack(a)
        ref = w.reference(a, y, r_lapack)
        attempted += 2
        fig: dict[str, float] = {}
        tracer = Tracer() if mp else None

        def run_traced():
            with spans.span("op") as op_span:
                with spans.span("factorize") as fz:
                    f = w.factorize(a, backend=backend, tracer=tracer)
                if not w.spec.solve:
                    return f, f, fz, op_span
                with spans.span("solve.apply_qt") as sp:
                    qtb = f.apply_qt(y[:, None])
                fig["solve.apply_qt_s"] = sp.seconds
                with spans.span("tiles.to_dense") as sp:
                    r = f.r_dense()[:n, :n]
                fig["tiles.to_dense_s"] = sp.seconds
                with spans.span("solve.backsub") as sp:
                    x = back_substitution(r, qtb[:n])
                np.linalg.norm(qtb[n:], axis=0)
                fig["solve.backsub_s"] = sp.seconds
            return x[:, 0], f, fz, op_span

        traced_first = len(per_op) % 2 == 1  # alternate, so order biases neither
        try:
            gc.collect()
            if traced_first:
                traced, f, fz, op_span = run_traced()
                gc.collect()
            with spans.span("op.untraced") as u:
                untraced = w.op(a, y)
            if not traced_first:
                gc.collect()
                traced, f, fz, op_span = run_traced()
        except Exception:
            traceback.print_exc()
            failed += 2
            continue
        if not w.spec.solve:
            with spans.span("tiles.to_dense") as sp:
                f.r_dense()
            fig["tiles.to_dense_s"] = sp.seconds
        failed += (not w.passes(untraced, ref)) + (not w.passes(traced, ref))
        untraced_s.append(u.seconds)
        traced_s.append(op_span.seconds)

        if mp:
            kernels = [
                (r.task.kind.name.lower(), r.start, r.end, r.device_id, r.task.ncols * b)
                for r in tracer.task_records()
            ]
            sends = tracer.transfer_records()
            for s in sends:
                spans.add("mp.send", s.start, s.end, fz.id, f"{s.src}->{s.dst}")
            fig["mp.transfers"] = len(sends)
            fig["mp.transfer_bytes"] = sum(s.num_bytes for s in sends)
            fig["mp.send_s"] = sum(s.end - s.start for s in sends)
            with spans.span("core.plan") as sp:
                w.build_plan()
            fig["core.plan_s"] = sp.seconds
        else:
            kernels = klog.drain()
        for k, t0, t1, thread, _w in kernels:
            spans.add(f"kernel.{k}", t0, t1, fz.id, str(thread))

        with spans.span("dag.build") as sp:
            dag = build_dag(m // b, n // b, "TS", w.spec.batch_updates)
        fig["dag.build_s"] = sp.seconds
        with spans.span("dag.rank") as sp:
            bottom_level_ranks(dag, task_weight_model(b))
        fig["dag.rank_s"] = sp.seconds
        storage = "rowmajor" if w.spec.batch_updates else "tiles"
        with spans.span("tiles.from_dense") as sp:
            TiledMatrix.from_dense(a, b, storage=storage)
        fig["tiles.from_dense_s"] = sp.seconds

        fig.update(kernel_layer(kernels, fz.seconds, b, workers, dag))
        probes = fig["dag.build_s"] + fig["dag.rank_s"] + fig["tiles.from_dense_s"]
        fig["runtime.self_us_per_task"] = (
            (fz.seconds - fig["kernels.covered_s"] - probes) / fig["runtime.tasks"] * 1e6
        )
        if mp:
            fig["mp.kernel_s"] = fig["kernels.total_s"]
            fig["mp.idle_s"] = fig["runtime.idle_s"]
        if w.spec.runtime != "serial":
            # The same input through the serial runtime: GIL contention
            # shows as kernels running longer than they do alone.
            with spans.span("runtime.serial_ref") as sr:
                w.factorize(a, backend=backend, runtime="serial")
            serial_k = klog.drain()
            for k, t0, t1, thread, _w in serial_k:
                spans.add(f"kernel.{k}", t0, t1, sr.id, str(thread))
            serial_total = sum(t1 - t0 for _k, t0, t1, _t, _w in serial_k)
            fig["runtime.kernel_stretch"] = fig["kernels.total_s"] / serial_total
            fig["runtime.parallel_speedup"] = sr.seconds / fz.seconds
        per_op.append(fig)

    spans_path = out_dir / f"spans-{w.name}-seed{seed}.jsonl"
    spans.write(spans_path)
    layer = {key: float(median(f[key] for f in per_op)) for key in per_op[0]}
    # Each traced op is paired with the untraced op next to it, so host
    # drift between iterations cancels.
    layer["trace.overhead"] = median(t / u for t, u in zip(traced_s, untraced_s)) - 1.0
    for key in ("runtime.kernel_stretch", "runtime.parallel_speedup"):
        layer.setdefault(key, 1.0)  # a serial runtime compared with itself
    for key in ("mp.transfers", "mp.transfer_bytes", "mp.send_s", "mp.kernel_s",
                "mp.idle_s", "core.plan_s", "solve.apply_qt_s", "solve.backsub_s"):
        layer.setdefault(key, 0.0)  # the op does no work in this layer
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": layer,
        "detail": {
            "traced_ops": len(per_op),
            "spans_file": str(spans_path),
            "untraced_s": untraced_s,
            "traced_s": traced_s,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true", help="small inputs, for the self-test")
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args(argv)

    unpinned = {v: os.environ.get(v) for v in PINNED if os.environ.get(v) != "1"}
    if unpinned:
        print(f"refusing to measure: BLAS threads not pinned to 1: {unpinned}",
              file=sys.stderr)
        return 2

    import numpy as np

    w = Workload(args.workload, args.smoke)
    rng = np.random.default_rng(args.seed)
    warm_a, warm_y = w.inputs(rng)

    t0 = perf_counter()
    import repro  # noqa: F401  (set-up time includes the import)

    w.setup()
    w.op(warm_a, warm_y)
    setup_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    w.lapack(warm_a)  # LAPACK warms up outside set-up and the timed loop

    if args.trace:
        result = traced_loop(w, rng, args.seconds, args.out_dir, args.seed)
    else:
        result = timed_loop(w, rng, args.seconds)
    result["setup_s"] = setup_s
    result["provenance"] = provenance(np)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
