"""Tests for the numeric runtimes (serial, threaded) and the factorization."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError, TilingError
from repro.kernels.householder import householder_qr
from repro.runtime import MultiprocessRuntime, SerialRuntime, ThreadedRuntime, tiled_qr
from repro.runtime.factorization import back_substitution
from repro.tiles import TiledMatrix


class TestSerialRuntime:
    @pytest.mark.parametrize(
        "shape,b,elim",
        [
            ((32, 32), 16, "TS"),
            ((48, 48), 16, "TS"),
            ((50, 50), 16, "TS"),   # padded
            ((64, 32), 16, "TS"),   # tall
            ((48, 48), 16, "TT"),
            ((40, 24), 8, "TT"),
            ((16, 16), 16, "TS"),   # single tile
            ((7, 7), 16, "TS"),     # smaller than one tile
        ],
    )
    def test_reconstruction(self, rng, shape, b, elim):
        a = rng.standard_normal(shape)
        f = tiled_qr(a, tile_size=b, elimination=elim)
        q, r = f.q_dense(), f.r_dense()
        scale = max(np.linalg.norm(a), 1.0)
        assert np.linalg.norm(q @ r - a) < 1e-10 * scale
        assert np.linalg.norm(q.T @ q - np.eye(shape[0])) < 1e-9
        assert np.allclose(np.tril(r[: shape[1], : shape[1]], -1), 0.0, atol=1e-10)

    def test_matches_dense_householder_r(self, rng):
        a = rng.standard_normal((48, 48))
        f = tiled_qr(a, tile_size=16)
        _, r_ref = householder_qr(a)
        np.testing.assert_allclose(
            np.abs(np.diag(f.r_dense())), np.abs(np.diag(r_ref)), rtol=1e-9
        )

    def test_accepts_tiled_matrix(self, rng):
        a = rng.standard_normal((32, 32))
        t = TiledMatrix.from_dense(a, 16)
        f = SerialRuntime().factorize(t)
        assert np.linalg.norm(f.apply_q(f.r_dense()) - a) < 1e-9

    def test_rejects_wide(self, rng):
        with pytest.raises(ShapeError):
            tiled_qr(rng.standard_normal((16, 32)))

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            tiled_qr(np.zeros(5))

    def test_log_contains_only_factorizations(self, rng):
        f = tiled_qr(rng.standard_normal((48, 48)), 16)
        from repro.dag.tasks import Step

        assert all(task.step in (Step.T, Step.E) for task, _ in f.log)
        # 3x3 grid: 3 GEQRTs + 3 TSQRTs... panels: k=0: 1+2, k=1: 1+1, k=2: 1.
        assert len(f.log) == 6

    @given(st.integers(2, 40), st.integers(2, 12), st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_property_reconstruction(self, n, b, seed):
        a = np.random.default_rng(seed).standard_normal((n, n))
        f = tiled_qr(a, tile_size=b)
        err = np.linalg.norm(f.apply_q(f.r_dense()) - a)
        assert err < 1e-9 * max(np.linalg.norm(a), 1.0)


class TestThreadedRuntime:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_serial(self, rng, workers):
        a = rng.standard_normal((64, 64))
        f_s = tiled_qr(a, 16)
        f_t = ThreadedRuntime(num_workers=workers).factorize(a, 16)
        np.testing.assert_allclose(f_t.r_dense(), f_s.r_dense(), atol=1e-12)

    @pytest.mark.parametrize("batch", [False, True])
    def test_dispatch_stress_many_workers(self, rng, batch):
        """More workers than cores and a tiny switch interval: a lost
        in-degree or chunk-count update would drop, repeat or hang a task."""
        a = rng.standard_normal((112, 80))
        f_s = tiled_qr(a, 16, batch_updates=batch)
        result = []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: result.append(
                    ThreadedRuntime(num_workers=6, batch_updates=batch).factorize(a, 16)
                ),
                daemon=True,
            )
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not runner.is_alive() and len(result) == 1
        f_t = result[0]
        assert sorted(t for t, _ in f_t.log) == sorted(t for t, _ in f_s.log)
        np.testing.assert_allclose(f_t.r_dense(), f_s.r_dense(), atol=1e-12)

    def test_q_valid_despite_reordering(self, rng):
        a = rng.standard_normal((80, 80))
        f = ThreadedRuntime(num_workers=3).factorize(a, 16)
        assert f.reconstruction_error(a) < 1e-10

    def test_tt_elimination(self, rng):
        a = rng.standard_normal((64, 64))
        f = ThreadedRuntime(num_workers=2, elimination="TT").factorize(a, 16)
        assert f.reconstruction_error(a) < 1e-10

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ThreadedRuntime(num_workers=0)

    def test_rejects_wide(self, rng):
        with pytest.raises(ShapeError):
            ThreadedRuntime().factorize(rng.standard_normal((8, 16)))


@pytest.mark.parametrize("runtime", ["serial", "threaded", "multiprocess"])
def test_rejects_complex_input(rng, optimizer, runtime):
    """Complex input is refused with a config-class error (CLI exit
    code 2) instead of being cast to real with a ComplexWarning."""
    from repro.cli import EXIT_CONFIG, exit_code_for

    make = {
        "serial": SerialRuntime,
        "threaded": lambda: ThreadedRuntime(num_workers=2),
        "multiprocess": lambda: MultiprocessRuntime(
            optimizer.plan(matrix_size=32, num_devices=2)
        ),
    }[runtime]
    a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    with pytest.raises(TilingError, match="complex") as info:
        make().factorize(a, 16)
    assert exit_code_for(info.value) == EXIT_CONFIG


@pytest.mark.parametrize("runtime", ["serial", "threaded", "multiprocess"])
def test_rejects_nonfinite_input(rng, optimizer, runtime):
    """A NaN or Inf entry is refused with a config-class error (CLI exit
    code 2) instead of silently producing a NaN R."""
    from repro.cli import EXIT_CONFIG, exit_code_for

    make = {
        "serial": SerialRuntime,
        "threaded": lambda: ThreadedRuntime(num_workers=2),
        "multiprocess": lambda: MultiprocessRuntime(
            optimizer.plan(matrix_size=32, num_devices=2)
        ),
    }[runtime]
    for bad in (np.nan, np.inf, -np.inf):
        a = rng.standard_normal((32, 32))
        a[17, 5] = bad
        with pytest.raises(TilingError, match="NaN or Inf") as info:
            make().factorize(a, 16)
        assert exit_code_for(info.value) == EXIT_CONFIG


class TestFactorizationOps:
    def test_apply_qt_then_q_roundtrip(self, rng):
        a = rng.standard_normal((48, 48))
        f = tiled_qr(a, 16)
        x = rng.standard_normal((48, 3))
        np.testing.assert_allclose(f.apply_q(f.apply_qt(x)), x, atol=1e-10)

    def test_apply_qt_vector(self, rng):
        a = rng.standard_normal((32, 32))
        f = tiled_qr(a, 16)
        v = rng.standard_normal(32)
        out = f.apply_qt(v)
        assert out.shape == (32,)
        np.testing.assert_allclose(
            out, f.q_dense().T @ v, atol=1e-10
        )

    def test_qt_a_equals_r(self, rng):
        a = rng.standard_normal((48, 48))
        f = tiled_qr(a, 16)
        np.testing.assert_allclose(f.apply_qt(a), f.r_dense(), atol=1e-9)

    def test_solve_square_system(self, rng):
        a = rng.standard_normal((48, 48)) + 5 * np.eye(48)
        x_true = rng.standard_normal(48)
        f = tiled_qr(a, 16)
        x = f.solve(a @ x_true)
        np.testing.assert_allclose(x, x_true, atol=1e-8)

    def test_solve_multiple_rhs(self, rng):
        a = rng.standard_normal((32, 32)) + 4 * np.eye(32)
        b = rng.standard_normal((32, 4))
        f = tiled_qr(a, 16)
        x = f.solve(b)
        np.testing.assert_allclose(a @ x, b, atol=1e-8)

    def test_solve_rejects_rectangular(self, rng):
        f = tiled_qr(rng.standard_normal((32, 16)), 16)
        with pytest.raises(ShapeError):
            f.solve(np.zeros(32))

    def test_apply_qt_shape_check(self, rng):
        f = tiled_qr(rng.standard_normal((32, 32)), 16)
        with pytest.raises(ShapeError):
            f.apply_qt(np.zeros(31))

    def test_padded_solve(self, rng):
        a = rng.standard_normal((50, 50)) + 5 * np.eye(50)
        x_true = rng.standard_normal(50)
        f = tiled_qr(a, 16)
        np.testing.assert_allclose(f.solve(a @ x_true), x_true, atol=1e-8)

    def test_least_squares_via_qt(self, rng):
        """Tall system: min ||Ax-b|| via R1 x = (Q^T b)[:n]."""
        a = rng.standard_normal((60, 20))
        b = rng.standard_normal(60)
        f = tiled_qr(a, 16)
        qtb = f.apply_qt(b)
        r = f.r_dense()[:20, :20]
        x = back_substitution(r, qtb[:20, None])[:, 0]
        x_ref, *_ = np.linalg.lstsq(a, b, rcond=None)
        np.testing.assert_allclose(x, x_ref, atol=1e-8)


class TestBackSubstitution:
    def test_solves_triangular(self, rng):
        r = np.triu(rng.standard_normal((10, 10))) + 5 * np.eye(10)
        b = rng.standard_normal((10, 2))
        x = back_substitution(r, b)
        np.testing.assert_allclose(r @ x, b, atol=1e-10)

    def test_singular_detected(self):
        r = np.triu(np.ones((4, 4)))
        r[2, 2] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            back_substitution(r, np.ones((4, 1)))

    def test_shape_checks(self, rng):
        with pytest.raises(ShapeError):
            back_substitution(rng.standard_normal((3, 5)), np.ones((5, 1)))
        with pytest.raises(ShapeError):
            back_substitution(np.eye(4), np.ones(3))


class TestScipyCrossChecks:
    """Cross-validate the from-scratch stack against SciPy's LAPACK QR."""

    def test_r_matches_scipy(self, rng):
        import scipy.linalg

        a = rng.standard_normal((96, 96))
        f = tiled_qr(a, 16)
        r_ref = scipy.linalg.qr(a, mode="r")[0]
        np.testing.assert_allclose(
            np.abs(np.diag(f.r_dense())), np.abs(np.diag(r_ref)), rtol=1e-10
        )

    def test_graded_workload_accuracy(self):
        import scipy.linalg

        from repro import workloads

        a = workloads.graded(80, 80, decay=0.7, seed=3)
        f = tiled_qr(a, 16)
        q_ref, r_ref = scipy.linalg.qr(a)
        # Same reconstruction quality as LAPACK on a graded matrix.
        ours = np.linalg.norm(f.apply_q(f.r_dense()) - a)
        theirs = np.linalg.norm(q_ref @ r_ref - a)
        assert ours < 10 * max(theirs, 1e-14)

    def test_solve_matches_scipy(self, rng):
        import scipy.linalg

        a = rng.standard_normal((64, 64)) + 8 * np.eye(64)
        b = rng.standard_normal(64)
        f = tiled_qr(a, 16)
        np.testing.assert_allclose(
            f.solve(b), scipy.linalg.solve(a, b), atol=1e-9
        )

    def test_lstsq_matches_scipy(self, rng):
        import scipy.linalg

        from repro.linalg import lstsq

        a = rng.standard_normal((100, 20))
        b = rng.standard_normal(100)
        x, _ = lstsq(a, b)
        x_ref = scipy.linalg.lstsq(a, b)[0]
        np.testing.assert_allclose(x, x_ref, atol=1e-9)
