"""QR-based dense linear algebra operations (paper Eqs. 1-3)."""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_TILE_SIZE
from ..errors import ShapeError
from ..runtime.factorization import TiledQRFactorization, back_substitution
from ..runtime.serial import tiled_qr
from ..utils import require_2d


def _factorize(a, tile_size: int) -> tuple[TiledQRFactorization, np.ndarray]:
    arr = np.asarray(a, dtype=np.float64)
    require_2d(arr, "A")
    return tiled_qr(arr, tile_size=tile_size), arr


def _numerically_singular(diag: np.ndarray, n: int) -> bool:
    """True when R's diagonal says the matrix is (numerically) singular:
    any |r_ii| below ``n * eps * max|r_jj|``."""
    mags = np.abs(diag)
    top = float(np.max(mags)) if mags.size else 0.0
    if top == 0.0:
        return True
    return bool(np.min(mags) < n * np.finfo(np.float64).eps * top)


def solve_triangular(r: np.ndarray, b: np.ndarray, lower: bool = False) -> np.ndarray:
    """Solve ``R x = b`` for triangular ``R`` (from-scratch sweep).

    Parameters
    ----------
    lower:
        Solve a lower-triangular system instead (forward substitution,
        implemented by flipping into the upper-triangular solver).
    """
    r = np.asarray(r, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    if lower:
        x = back_substitution(r[::-1, ::-1], b[::-1])[::-1]
    else:
        x = back_substitution(r, b)
    return x[:, 0] if squeeze else x


def qr_solve(a: np.ndarray, b: np.ndarray, tile_size: int = DEFAULT_TILE_SIZE) -> np.ndarray:
    """Solve the square system ``A x = b`` via tiled QR (Eqs. 2-3)."""
    f, arr = _factorize(a, tile_size)
    if arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"qr_solve needs a square A, got {arr.shape}")
    n = arr.shape[0]
    if _numerically_singular(np.diag(f.r_dense())[:n], n):
        raise np.linalg.LinAlgError("matrix is singular to working precision")
    return f.solve(b)


def lstsq(
    a: np.ndarray, b: np.ndarray, tile_size: int = DEFAULT_TILE_SIZE
) -> tuple[np.ndarray, np.ndarray]:
    """Least squares ``min_x ||A x - b||`` for tall full-rank ``A``.

    Returns
    -------
    (x, residuals)
        The minimizer and per-column residual 2-norms.
    """
    f, arr = _factorize(a, tile_size)
    m, n = arr.shape
    if m < n:
        raise ShapeError(f"lstsq needs m >= n, got {arr.shape}")
    b_arr = np.asarray(b, dtype=np.float64)
    squeeze = b_arr.ndim == 1
    if squeeze:
        b_arr = b_arr[:, None]
    if b_arr.shape[0] != m:
        raise ShapeError(f"b must have {m} rows, got {b_arr.shape}")
    qtb = f.apply_qt(b_arr)
    x = back_substitution(f.r_economy(), qtb[:n])
    residuals = np.linalg.norm(qtb[n:], axis=0) if m > n else np.zeros(b_arr.shape[1])
    return (x[:, 0], residuals[0]) if squeeze else (x, residuals)


def inv(a: np.ndarray, tile_size: int = DEFAULT_TILE_SIZE) -> np.ndarray:
    """Matrix inverse via ``A^{-1} = R^{-1} Q^T`` (square, nonsingular)."""
    f, arr = _factorize(a, tile_size)
    n = arr.shape[0]
    if arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"inv needs a square A, got {arr.shape}")
    qt = f.apply_qt(np.eye(n))
    return back_substitution(f.r_dense(), qt)


def slogdet(a: np.ndarray, tile_size: int = DEFAULT_TILE_SIZE) -> tuple[float, float]:
    """``(sign, log|det A|)`` from the R factor's diagonal.

    The sign combines the R diagonal's signs with the determinant of Q
    (each Householder reflector contributes −1; reflectors with
    ``tau == 0`` are identities and contribute +1).
    """
    f, arr = _factorize(a, tile_size)
    if arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"slogdet needs a square A, got {arr.shape}")
    diag = np.diag(f.r_dense())
    if _numerically_singular(diag, arr.shape[0]):
        return 0.0, float("-inf")
    reflections = 0
    for _task, factors in f.log:
        reflections += int(np.count_nonzero(factors.taus))
    sign_q = -1.0 if reflections % 2 else 1.0
    sign_r = float(np.prod(np.sign(diag)))
    return sign_q * sign_r, float(np.sum(np.log(np.abs(diag))))


def det(a: np.ndarray, tile_size: int = DEFAULT_TILE_SIZE) -> float:
    """Determinant via :func:`slogdet` (stable for large matrices)."""
    sign, logdet = slogdet(a, tile_size)
    if sign == 0.0:
        return 0.0
    return float(sign * np.exp(logdet))


def lq(a: np.ndarray, tile_size: int = DEFAULT_TILE_SIZE) -> tuple[np.ndarray, np.ndarray]:
    """Economy LQ factorization of a *wide* matrix: ``A = L Q``.

    For ``m <= n``: ``L`` is ``m x m`` lower triangular and ``Q`` is
    ``m x n`` with orthonormal rows — obtained from the tiled QR of
    ``A^T`` (``A^T = Q~ R  =>  A = R^T Q~^T``).
    """
    arr = np.asarray(a, dtype=np.float64)
    require_2d(arr, "A")
    m, n = arr.shape
    if m > n:
        raise ShapeError(f"lq needs a wide matrix (m <= n), got {arr.shape}")
    f = tiled_qr(arr.T, tile_size=tile_size)
    r = f.r_economy()
    eye = np.zeros((n, m))
    np.fill_diagonal(eye, 1.0)
    q_cols = f.apply_q(eye)  # leading m columns of Q~
    return r.T, q_cols.T


def orth_basis(a: np.ndarray, tile_size: int = DEFAULT_TILE_SIZE) -> np.ndarray:
    """Orthonormal basis of range(A) for tall full-rank ``A``:
    the leading ``n`` columns of ``Q``."""
    f, arr = _factorize(a, tile_size)
    m, n = arr.shape
    if m < n:
        raise ShapeError(f"orth_basis needs m >= n, got {arr.shape}")
    eye = np.zeros((m, n))
    np.fill_diagonal(eye, 1.0)
    return f.apply_q(eye)


def condition_estimate(a: np.ndarray, tile_size: int = DEFAULT_TILE_SIZE) -> float:
    """Cheap condition-number estimate from the R factor.

    ``cond_1(A) >= max|r_ii| / min|r_ii|`` — the classic QR heuristic
    (not a guaranteed bound, but a reliable order-of-magnitude signal).
    """
    f, arr = _factorize(a, tile_size)
    n = min(arr.shape)
    diag = np.abs(np.diag(f.r_dense())[:n])
    if _numerically_singular(diag, n):
        return float("inf")
    return float(np.max(diag) / np.min(diag))
