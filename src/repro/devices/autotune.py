"""Autotuning: build a device model by measuring real kernels.

The paper contrasts its "mathematical" optimization with Song et al.'s
auto-tuning [7], which profiles a small run to pick parameters.  Both
need the same inputs — per-step kernel times — and this module closes
the loop for the machine the library runs on: it times the real NumPy
tile kernels across tile sizes, fits the ``overhead + flops/rate`` model
of :class:`repro.devices.model.KernelTimingModel` by linear least
squares (solved with this library's own tiled QR), and returns a
:class:`~repro.devices.model.DeviceSpec` usable everywhere a calibrated
paper device is.
"""

from __future__ import annotations

import os
import time
from typing import Callable

import numpy as np

from ..dag.tasks import Step
from ..errors import DeviceError
from ..kernels import geqrt, tsmqr, tsqrt, unmqr
from ..kernels.flops import flops_geqrt, flops_tsmqr, flops_tsqrt, flops_unmqr
from .model import DeviceKind, DeviceSpec, KernelTimingModel

_STEP_FLOPS = {
    Step.T: flops_geqrt,
    Step.E: flops_tsqrt,
    Step.UT: flops_unmqr,
    Step.UE: flops_tsmqr,
}


def measure_host_kernels(
    tile_sizes: list[int],
    repeats: int = 9,
    seed: int = 0,
    timer: Callable[[], float] = time.perf_counter,
) -> dict[Step, dict[int, float]]:
    """Median wall-clock seconds of each real tile kernel per tile size.

    Parameters
    ----------
    tile_sizes:
        Tile edges to profile.
    repeats:
        Samples per point.  The *minimum* is taken: timing noise on a
        shared machine is strictly additive, so min is the standard
        robust estimator for kernel cost.
    timer:
        Clock function; injectable for deterministic tests.
    """
    if not tile_sizes or any(b < 2 for b in tile_sizes):
        raise DeviceError("need tile sizes >= 2 to profile")
    rng = np.random.default_rng(seed)
    out: dict[Step, dict[int, float]] = {s: {} for s in Step}
    for b in tile_sizes:
        a = rng.standard_normal((b, b))
        r1 = np.triu(rng.standard_normal((b, b)))
        a2 = rng.standard_normal((b, b))
        c = rng.standard_normal((b, b))
        fg = geqrt(a)
        fe = tsqrt(r1, a2)
        runs = {
            Step.T: lambda: geqrt(a),
            Step.E: lambda: tsqrt(r1, a2),
            Step.UT: lambda: unmqr(fg, c.copy()),
            Step.UE: lambda: tsmqr(fe, c.copy(), c.copy()),
        }
        for step, fn in runs.items():
            fn()  # warm caches and allocator before timing
            best = float("inf")
            for _ in range(repeats):
                t0 = timer()
                fn()
                best = min(best, timer() - t0)
            out[step][b] = best
    return out


def fit_timing_model(measurements: dict[Step, dict[int, float]]) -> KernelTimingModel:
    """Least-squares fit of ``t = overhead + flops / rate`` per step.

    The 2-parameter linear system is solved with this library's *own*
    tiled QR (``min || [1, flops] x - t ||``); negative intercepts are
    clipped to zero and the rate re-fit through the origin.
    """
    from ..runtime import tiled_qr
    from ..runtime.factorization import back_substitution

    overheads: dict[Step, float] = {}
    rates: dict[Step, float] = {}
    for step, points in measurements.items():
        if len(points) < 2:
            raise DeviceError(f"need >= 2 tile sizes to fit step {step}")
        bs = sorted(points)
        t = np.array([points[b] for b in bs])
        f = np.array([_STEP_FLOPS[step](b) for b in bs], dtype=np.float64)
        # Weight rows by 1/t: minimizes *relative* error so microsecond
        # and millisecond points count equally.
        design = np.column_stack([np.ones_like(f), f]) / t[:, None]
        target = np.ones_like(t)
        # Normalize columns so the tiny tile-QR stays well conditioned.
        scale = np.linalg.norm(design, axis=0)
        fac = tiled_qr(design / scale, tile_size=max(2, len(bs) // 2))
        qtb = fac.apply_qt(target)
        coeff = back_substitution(fac.r_economy(), qtb[:2, None])[:, 0] / scale
        c0, c1 = float(coeff[0]), float(coeff[1])
        if c1 <= 0.0:
            # Degenerate timing (all overhead): flat model, huge rate.
            c1 = 1.0 / 1e15
        if c0 < 0.0:
            c0 = 0.0
            w = f / t
            c1 = float(w.sum() / (w @ w))  # weighted re-fit through origin
        overheads[step] = c0
        rates[step] = 1.0 / c1
    return KernelTimingModel(overheads_s=overheads, rates_flops=rates)


def autotune_host_device(
    device_id: str = "host-cpu",
    tile_sizes: list[int] | None = None,
    repeats: int = 9,
    slots: int | None = None,
    timer: Callable[[], float] = time.perf_counter,
) -> DeviceSpec:
    """Profile this host's kernels and return a fitted DeviceSpec."""
    sizes = tile_sizes if tile_sizes is not None else [8, 16, 24, 32, 48, 64]
    meas = measure_host_kernels(sizes, repeats=repeats, timer=timer)
    timing = fit_timing_model(meas)
    cores = os.cpu_count() or 1
    return DeviceSpec(
        device_id=device_id,
        name="Autotuned host CPU",
        kind=DeviceKind.CPU,
        cores=cores,
        slots=slots if slots is not None else cores,
        timing=timing,
    )


def tuned_tile_size(
    system,
    matrix_size: int,
    candidates: list[int] | None = None,
) -> int:
    """Song-et-al-style tuning: pick the tile size minimizing simulated
    time for the given system and matrix size."""
    from ..core.optimizer import Optimizer
    from ..sim.iteration import simulate_iteration_level

    cands = candidates if candidates is not None else [8, 12, 16, 20, 24, 32]
    opt = Optimizer(system)
    best_b, best_t = None, float("inf")
    for b in cands:
        g = -(-matrix_size // b)
        plan = opt.plan(matrix_size=matrix_size, tile_size=b)
        t = simulate_iteration_level(plan, g, g, system, opt.topology).makespan
        if t < best_t:
            best_b, best_t = b, t
    return best_b
