"""Streaming (recursive) least squares via QR updating.

Maintains the R factor and the rotated right-hand side ``z = Q^T b`` of
a regression problem as rows arrive (and optionally leave, for a
sliding window) — each update is ``O(n^2)`` instead of refactorizing in
``O(m n^2)``.  The batch seed uses the tiled QR; the per-row updates use
the Givens kernels.
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_TILE_SIZE
from ..errors import KernelError, ShapeError
from ..kernels.givens import qr_insert_row
from ..runtime.factorization import back_substitution
from ..runtime.serial import tiled_qr


class StreamingLeastSquares:
    """Sliding-window / growing-window linear regression.

    Parameters
    ----------
    num_features:
        Columns of the design matrix.
    window:
        Optional sliding-window length; when set, :meth:`add` beyond the
        window automatically retires the oldest observation.

    Notes
    -----
    State is ``(R, z)`` with ``R^T R = X^T X`` and ``z = Q^T y`` (top
    ``n`` entries), plus the residual sum of squares.  Downdating uses
    the normal-equation identity directly (subtract the outer product
    and re-triangularize via the Golub-Van-Loan rotations on ``R``; the
    ``z`` vector follows the same rotations with the retired target).
    """

    def __init__(self, num_features: int, window: int | None = None):
        if num_features < 1:
            raise ShapeError(f"need at least one feature, got {num_features}")
        if window is not None and window < num_features:
            raise ShapeError(
                f"window ({window}) must hold at least num_features "
                f"({num_features}) observations"
            )
        self.n = num_features
        self.window = window
        self.r = np.zeros((num_features, num_features))
        self.z = np.zeros(num_features)
        self._rss = 0.0
        self.num_observations = 0
        self._history: list[tuple[np.ndarray, float]] = []

    # -- construction -----------------------------------------------------

    @classmethod
    def from_batch(
        cls,
        x: np.ndarray,
        y: np.ndarray,
        window: int | None = None,
        tile_size: int = DEFAULT_TILE_SIZE,
    ) -> "StreamingLeastSquares":
        """Seed from a batch using the tiled QR factorization."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ShapeError(f"incompatible batch shapes {x.shape} / {y.shape}")
        m, n = x.shape
        if m < n:
            raise ShapeError(f"batch needs at least {n} rows, got {m}")
        self = cls(n, window=window)
        f = tiled_qr(x, tile_size=tile_size)
        qty = f.apply_qt(y)
        self.r = np.triu(f.r_economy())
        self.z = qty[:n].copy()
        self._rss = float(qty[n:] @ qty[n:])
        self.num_observations = m
        if window is not None:
            self._history = [(x[i].copy(), float(y[i])) for i in range(m)]
            while self.num_observations > window:
                self._retire_oldest()
        return self

    # -- updates -------------------------------------------------------------

    def add(self, x_row: np.ndarray, y_value: float) -> None:
        """Incorporate one observation (O(n^2))."""
        x_row = np.asarray(x_row, dtype=np.float64)
        if x_row.shape != (self.n,):
            raise ShapeError(f"feature row must have length {self.n}")
        r_new, rotations = qr_insert_row(self.r, x_row)
        # Replay the rotations on [z; y] to keep z = Q^T y consistent.
        zy = np.concatenate([self.z, [float(y_value)]])
        for k, g in rotations:
            top = g.c * zy[k] + g.s * zy[self.n]
            zy[self.n] = -g.s * zy[k] + g.c * zy[self.n]
            zy[k] = top
        self.r = r_new
        self.z = zy[: self.n]
        self._rss += float(zy[self.n] ** 2)
        self.num_observations += 1
        if self.window is not None:
            self._history.append((x_row.copy(), float(y_value)))
            if self.num_observations > self.window:
                self._retire_oldest()

    def _retire_oldest(self) -> None:
        x_old, y_old = self._history.pop(0)
        self.remove(x_old, y_old)

    def remove(self, x_row: np.ndarray, y_value: float) -> None:
        """Retire one observation (O(n^2) downdate).

        R downdates via the Golub-Van-Loan rotations
        (:func:`repro.kernels.givens.qr_delete_row`); the rotated
        right-hand side follows from the exact normal-equations identity
        ``R'^T z' = R^T z - v y0``, and the residual sum of squares from
        ``rss = y^T y - z^T z``.  Numerically impossible downdates raise
        :class:`numpy.linalg.LinAlgError`.
        """
        from ..kernels.givens import qr_delete_row
        from .ops import solve_triangular

        x_row = np.asarray(x_row, dtype=np.float64)
        if x_row.shape != (self.n,):
            raise ShapeError(f"feature row must have length {self.n}")
        y0 = float(y_value)
        yty_old = self._rss + float(self.z @ self.z)
        s = self.r.T @ self.z - x_row * y0  # X'^T y'
        r_new, _ = qr_delete_row(self.r, x_row)
        z_new = solve_triangular(r_new.T, s, lower=True)
        self.r = r_new
        self.z = z_new
        self._rss = max(0.0, yty_old - y0 * y0 - float(z_new @ z_new))
        self.num_observations -= 1

    # -- queries ----------------------------------------------------------------

    def coefficients(self) -> np.ndarray:
        """Current least-squares solution ``argmin ||X beta - y||``."""
        if self.num_observations < self.n:
            raise KernelError(
                f"need at least {self.n} observations, have {self.num_observations}"
            )
        return back_substitution(self.r, self.z[:, None])[:, 0]

    def predict(self, x_row: np.ndarray) -> float:
        return float(np.asarray(x_row, dtype=np.float64) @ self.coefficients())

    @property
    def residual_sum_of_squares(self) -> float:
        return self._rss
