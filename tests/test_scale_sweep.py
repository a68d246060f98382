"""Scale equivariance of the default factorization path.

A QR satisfies ``R(sA) = s R(A)`` up to column signs, for every scale
``s`` whose products stay representable.  LAPACK's reflector generator
(``?larfg``) rescales tiny and huge columns to keep that true over the
whole float64 range; the default ``lapack`` backend inherits it.  The
sweep runs every runtime and both elimination kinds on the default
backend and checks ``|R(sA)| / s`` against ``np.linalg.qr`` of the
unscaled matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.multiprocess import MultiprocessRuntime
from repro.runtime.serial import SerialRuntime
from repro.runtime.threaded import ThreadedRuntime

N, B = 128, 32
SCALES = (2.0**1000, 2.0**-1000, 1e300, 1e-300, 1e160, 1e-160, 1e155, 1e-155)


@pytest.fixture(scope="module")
def matrix():
    return np.random.default_rng(2013).standard_normal((N, N))


@pytest.fixture(scope="module")
def r_numpy(matrix):
    return np.abs(np.linalg.qr(matrix, mode="r"))


def _runtime(kind, elimination, optimizer):
    if kind == "serial":
        return SerialRuntime(elimination)
    if kind == "threaded":
        return ThreadedRuntime(2, elimination=elimination)
    plan = optimizer.plan(matrix_size=N, tile_size=B)
    return MultiprocessRuntime(plan, elimination=elimination)


@pytest.mark.parametrize("elimination", ["TS", "TT"])
@pytest.mark.parametrize("kind", ["serial", "threaded", "multiprocess"])
def test_r_is_scale_equivariant(matrix, r_numpy, kind, elimination, optimizer):
    runtime = _runtime(kind, elimination, optimizer)
    errors = {}
    for s in SCALES:
        r = runtime.factorize(matrix * s, B).r_dense()
        errors[s] = float(
            np.linalg.norm(np.abs(r) / s - r_numpy) / np.linalg.norm(r_numpy)
        )
    assert all(err <= 1e-12 for err in errors.values()), errors
