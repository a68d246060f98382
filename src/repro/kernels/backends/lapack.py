"""The ``lapack`` backend: LAPACK's own tile kernels, the default.

LAPACK 3.4 ships the PLASMA tile kernels the paper builds on (Buttari
et al.): ``?geqrt`` is GEQRT and ``?tpqrt`` is the triangle-pentagonal
elimination that covers both TSQRT (``l=0``, dense bottom tile) and
TTQRT (``l=b``, upper-triangular bottom tile).  SciPy exposes both, so
this backend replaces the reference's per-column Python loops with one
compiled call per tile.

Conventions are unpacked into the reference result types, so runtimes,
the factor log, checkpoints and the multiprocess wire format cannot
tell the backends apart:

* ``nb`` is the full tile width, so ``T`` is a single ``n x n``
  upper-triangular compact-WY factor (``Q = I - V T V^T``), and
  ``taus`` is its diagonal;
* every output is a fresh C-contiguous array (LAPACK hands back
  Fortran order, which slows the batched update GEMMs);
* inputs are never passed with ``overwrite_*``, so callers' tiles stay
  untouched.

The update kernels stay the reference ones: they are single BLAS-3
calls already (``?tpmqrt`` measured 0.9-1.3x them), and sharing them
keeps batched and per-tile updates bit-identical.  LAPACK's ``?larfg``
rescales tiny and huge columns, so this backend is scale-equivariant
over the full float range, unlike the reference reflector.  Results
agree with ``reference`` to rounding (``bit_exact=False``).

SciPy is imported with this module, i.e. with ``repro``: about 0.3 s
and 23 MB of RSS per process.  Importing it lazily would make every
forked multiprocess worker pay the import again on its first kernel
call, once per run.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import get_lapack_funcs

from ..batched import tsmqr_batch, ttmqr_batch, unmqr_batch
from ..geqrt import GEQRTResult
from ..tsmqr import tsmqr
from ..tsqrt import TSQRTResult
from ..ttmqr import ttmqr
from ..unmqr import unmqr
from ...errors import KernelError


def _working(*arrays: np.ndarray) -> list[np.ndarray]:
    """F-ordered float32 (all-float32 input) or float64 copies."""
    for x in arrays:
        if x.dtype.kind == "c":
            raise KernelError(f"the lapack backend takes real tiles, got {x.dtype}")
    f32 = all(x.dtype == np.float32 for x in arrays)
    dtype = np.float32 if f32 else np.float64
    return [np.array(x, dtype=dtype, order="F") for x in arrays]


@lru_cache(maxsize=None)
def _routine(name: str, dtype: type):
    """The ``?<name>`` LAPACK wrapper for ``dtype`` (``get_lapack_funcs``
    costs ~10 us per call; the cache ~0.2 us)."""
    return get_lapack_funcs((name,), dtype=dtype)[0]


def _check(routine: str, info: int) -> None:
    if info != 0:
        raise KernelError(f"LAPACK {routine} failed with info={info}")


@lru_cache(maxsize=None)
def _strict_lower(m: int, n: int) -> np.ndarray:
    """Boolean mask of the strict lower triangle (``np.triu``/``np.tril``
    cost ~10 us on a small tile; indexing with a cached mask ~1 us)."""
    return np.tri(m, n, -1, dtype=bool)


def _triu(x: np.ndarray) -> np.ndarray:
    """C-ordered copy of ``x`` with the strict lower triangle zeroed."""
    out = np.array(x, order="C")
    out[_strict_lower(*out.shape)] = 0.0
    return out


def geqrt_lapack(a: np.ndarray, inner_block: int | None = None) -> GEQRTResult:
    """:func:`repro.kernels.geqrt` as one ``?geqrt`` call.

    ``inner_block`` is validated as in the reference and otherwise
    ignored: LAPACK blocks internally (``?geqrt3`` recursion).
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise KernelError(f"geqrt expects a 2-D tile, got ndim={a.ndim}")
    m, n = a.shape
    if m < n:
        raise KernelError(f"geqrt requires m >= n, got shape {a.shape}")
    if inner_block is not None and inner_block < 1:
        raise KernelError(f"inner_block must be >= 1, got {inner_block}")
    (work,) = _working(a)
    fn = _routine("geqrt", work.dtype.type)
    out, t, info = fn(n, work)
    _check(fn.typecode + "geqrt", info)
    v = np.array(out, order="C")
    v[~_strict_lower(m, n)] = 0.0
    np.fill_diagonal(v, 1.0)
    tf = _triu(t)
    return GEQRTResult(r=_triu(out), v=v, tf=tf, taus=np.diagonal(tf).copy())


def _tpqrt(r1: np.ndarray, a2: np.ndarray, triangular_bottom: bool) -> TSQRTResult:
    r1 = np.asarray(r1)
    a2 = np.asarray(a2)
    if r1.ndim != 2 or r1.shape[0] != r1.shape[1]:
        raise KernelError(f"top tile must be square, got shape {r1.shape}")
    if a2.ndim != 2 or a2.shape[1] != r1.shape[1]:
        raise KernelError(
            f"bottom tile of shape {a2.shape} incompatible with top tile {r1.shape}"
        )
    if triangular_bottom and a2.shape[0] != a2.shape[1]:
        raise KernelError(f"TT elimination needs a square bottom tile, got {a2.shape}")
    b = r1.shape[1]
    top, bot = _working(r1, a2)
    if triangular_bottom:
        # Only r2's upper triangle is data (as in the reference kernel).
        bot[_strict_lower(b, b)] = 0.0
    fn = _routine("tpqrt", top.dtype.type)
    l = b if triangular_bottom else 0
    a_out, v2, t, info = fn(l, b, top, bot)
    _check(fn.typecode + "tpqrt", info)
    tf = _triu(t)
    return TSQRTResult(
        r=_triu(a_out),
        v2=np.array(v2, order="C"),
        tf=tf,
        taus=np.diagonal(tf).copy(),
        kind="TT" if triangular_bottom else "TS",
    )


def tsqrt_lapack(r1: np.ndarray, a2: np.ndarray) -> TSQRTResult:
    """:func:`repro.kernels.tsqrt` as ``?tpqrt`` with ``l=0``."""
    return _tpqrt(r1, a2, triangular_bottom=False)


def ttqrt_lapack(r1: np.ndarray, r2: np.ndarray) -> TSQRTResult:
    """:func:`repro.kernels.ttqrt` as ``?tpqrt`` with ``l=b``."""
    return _tpqrt(r1, r2, triangular_bottom=True)


def _make():
    from . import FunctionBackend

    return FunctionBackend(
        name="lapack",
        description="LAPACK ?geqrt/?tpqrt tile factorizations + reference updates",
        geqrt=geqrt_lapack,
        tsqrt=tsqrt_lapack,
        ttqrt=ttqrt_lapack,
        unmqr=unmqr,
        tsmqr=tsmqr,
        ttmqr=ttmqr,
        unmqr_batch=unmqr_batch,
        tsmqr_batch=tsmqr_batch,
        ttmqr_batch=ttmqr_batch,
        compiled=False,
        bit_exact=False,
    )


LAPACK_BACKEND = _make()
