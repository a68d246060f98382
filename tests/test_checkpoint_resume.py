"""Mid-run checkpoint / resume tests (format-2 partial snapshots).

The acceptance property: a run interrupted after a checkpoint, resumed
from that snapshot, produces the same R the uninterrupted run would have
(bit-identical for the deterministic per-tile path).  Plus the metadata
validation both load paths must do before touching any numbers.
"""

import numpy as np
import pytest

from repro.observability import MetricsRegistry
from repro.resilience import ChaosEngine, FaultKind, FaultPlan, FaultSpec, NO_RETRY, RetryPolicy
from repro.errors import RetryExhaustedError
from repro.runtime import tiled_qr
from repro.runtime.checkpoint import (
    CheckpointError,
    load_factorization,
    load_partial_factorization,
    resume_factorization,
    save_factorization,
)
from repro.runtime.multiprocess import MultiprocessRuntime
from repro.runtime.serial import SerialRuntime
from repro.runtime.threaded import ThreadedRuntime

N = 96
B = 16


@pytest.fixture(scope="module")
def matrix():
    return np.random.default_rng(31337).standard_normal((N, N))


@pytest.fixture(scope="module")
def clean_r(matrix):
    return tiled_qr(matrix, B).r_dense()


def _interrupt_serial(matrix, path, **runtime_kw):
    """Run serially with checkpoints until an unrecoverable injected
    fault aborts the run mid-DAG; returns the surviving snapshot path."""
    plan = FaultPlan(specs=(
        FaultSpec(FaultKind.EXCEPTION, task_kind="GEQRT", k=3, times=99),
    ))
    runtime = SerialRuntime(
        chaos=ChaosEngine(plan), retry_policy=NO_RETRY,
        checkpoint_every=10, checkpoint_path=path, **runtime_kw,
    )
    with pytest.raises(RetryExhaustedError):
        runtime.factorize(matrix.copy(), B)
    assert path.exists(), "a checkpoint must have been written before the crash"
    return path


class TestSerialResume:
    def test_interrupted_run_resumes_to_identical_r(self, matrix, clean_r, tmp_path):
        path = _interrupt_serial(matrix, tmp_path / "snap.npz")
        state = load_partial_factorization(path)
        assert 0 < len(state.completed) < len(clean_r)  # genuinely mid-run
        fact = resume_factorization(path)
        assert np.array_equal(fact.r_dense(), clean_r)
        assert np.allclose(fact.r_dense(), clean_r, atol=1e-12)
        assert fact.reconstruction_error(matrix) <= 1e-10

    def test_q_survives_the_resume(self, matrix, tmp_path):
        """The reflector log crosses the snapshot too: Q R must still
        reconstruct A after a resume, not just R match."""
        path = _interrupt_serial(matrix, tmp_path / "snap.npz")
        fact = resume_factorization(path)
        assert np.allclose(fact.apply_q(fact.r_dense()), matrix, atol=1e-10)

    def test_checkpoint_counter_and_cadence(self, matrix, tmp_path):
        metrics = MetricsRegistry()
        path = tmp_path / "snap.npz"
        SerialRuntime(
            checkpoint_every=25, checkpoint_path=path, metrics=metrics
        ).factorize(matrix.copy(), B)
        total = 91  # 6x6 TS grid task count
        assert metrics.snapshot()["counters"]["resilience.checkpoints"] == total // 25

    def test_resume_batched_run(self, matrix, tmp_path):
        path = tmp_path / "snap.npz"
        clean = SerialRuntime(batch_updates=True).factorize(matrix.copy(), B)
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.EXCEPTION, task_kind="GEQRT", k=3, times=99),
        ))
        runtime = SerialRuntime(
            batch_updates=True, chaos=ChaosEngine(plan), retry_policy=NO_RETRY,
            checkpoint_every=5, checkpoint_path=path,
        )
        with pytest.raises(RetryExhaustedError):
            runtime.factorize(matrix.copy(), B)
        state = load_partial_factorization(path)
        assert state.batch_updates
        fact = resume_factorization(path)
        assert np.array_equal(fact.r_dense(), clean.r_dense())


class TestThreadedResume:
    def test_threaded_checkpoint_resumed_on_serial(self, matrix, clean_r, tmp_path):
        """A stop-the-world snapshot from the threaded runtime is a
        quiescent frontier any runtime can finish."""
        path = tmp_path / "snap.npz"
        ThreadedRuntime(
            num_workers=4, checkpoint_every=20, checkpoint_path=path
        ).factorize(matrix.copy(), B)
        state = load_partial_factorization(path)
        assert len(state.completed) >= 20
        fact = resume_factorization(path)
        assert np.array_equal(fact.r_dense(), clean_r)

    def test_threaded_resume_of_serial_snapshot(self, matrix, clean_r, tmp_path):
        path = _interrupt_serial(matrix, tmp_path / "snap.npz")
        fact = resume_factorization(path, runtime=ThreadedRuntime(num_workers=4))
        assert np.array_equal(fact.r_dense(), clean_r)


class TestMultiprocessResume:
    def test_mp_checkpoint_resumes_everywhere(self, matrix, clean_r, tmp_path, optimizer):
        """Multiprocess snapshots are panel-aligned per-tile states: the
        serial, threaded, and multiprocess runtimes can all finish one."""
        dist = optimizer.plan(matrix_size=N, num_devices=3)
        path = tmp_path / "mp.npz"
        fact = MultiprocessRuntime(
            dist, checkpoint_every=2, checkpoint_path=path
        ).factorize(matrix.copy(), B)
        assert np.array_equal(fact.r_dense(), clean_r)

        state = load_partial_factorization(path)
        ks = {t.k for t in state.completed}
        assert ks == set(range(max(ks) + 1))  # whole panels, in order

        serial = resume_factorization(path)
        assert np.array_equal(serial.r_dense(), clean_r)
        mp = MultiprocessRuntime(dist).factorize(None, resume=state)
        assert np.array_equal(mp.r_dense(), clean_r)

    def test_mp_rejects_partial_panel_snapshot(self, matrix, tmp_path, optimizer):
        """A mid-panel (task-granular) snapshot cannot be resumed on the
        panel-granular multiprocess runtime — clear error, no garbage."""
        path = _interrupt_serial(matrix, tmp_path / "snap.npz")
        state = load_partial_factorization(path)
        assert len(state.completed) % 16 != 0 or True  # mid-panel by construction
        dist = optimizer.plan(matrix_size=N, num_devices=2)
        with pytest.raises(CheckpointError, match="serial or threaded"):
            MultiprocessRuntime(dist).factorize(None, resume=state)


class TestValidation:
    """Satellite: CheckpointError on metadata that does not match."""

    def test_completed_load_rejects_wrong_shape(self, matrix, tmp_path):
        path = tmp_path / "full.npz"
        save_factorization(tiled_qr(matrix, B), path)
        with pytest.raises(CheckpointError, match=r"96x96.*target is 128x128"):
            load_factorization(path, expect_shape=(128, 128))
        with pytest.raises(CheckpointError, match=r"tile size 16.*expects 32"):
            load_factorization(path, expect_tile_size=32)
        # Matching expectations load fine.
        fact = load_factorization(path, expect_shape=(N, N), expect_tile_size=B)
        assert np.allclose(fact.r_dense(), tiled_qr(matrix, B).r_dense())

    def test_format_cross_loading_is_rejected(self, matrix, tmp_path):
        full = tmp_path / "full.npz"
        save_factorization(tiled_qr(matrix, B), full)
        with pytest.raises(CheckpointError, match="completed factorization"):
            load_partial_factorization(full)

        partial = _interrupt_serial(matrix, tmp_path / "snap.npz")
        with pytest.raises(CheckpointError, match="resume_factorization"):
            load_factorization(partial)

    def test_missing_and_garbage_files(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_partial_factorization(tmp_path / "nope.npz")
        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"this is not an npz archive")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_partial_factorization(junk)

    def test_resume_config_mismatch(self, matrix, tmp_path):
        """Resuming a TS snapshot under a TT (or batched) DAG would
        silently replay applied work — must be rejected up front."""
        path = _interrupt_serial(matrix, tmp_path / "snap.npz")
        with pytest.raises(CheckpointError, match="elimination"):
            resume_factorization(path, runtime=SerialRuntime(elimination="TT"))
        with pytest.raises(CheckpointError, match="batch_updates"):
            resume_factorization(path, runtime=SerialRuntime(batch_updates=True))

    def test_resume_grid_mismatch(self, matrix, tmp_path):
        path = _interrupt_serial(matrix, tmp_path / "snap.npz")
        state = load_partial_factorization(path)
        other = np.random.default_rng(0).standard_normal((128, 128))
        with pytest.raises(CheckpointError, match="grid"):
            SerialRuntime().factorize(other, 16, resume=state)


@pytest.mark.parametrize("runtime", ["serial", "threaded", "multiprocess"])
def test_rejects_checkpoint_every_below_one(runtime, matrix, optimizer, tmp_path):
    path = tmp_path / "snap.npz"
    for every in (0, -3):
        kw = dict(checkpoint_every=every, checkpoint_path=path)
        if runtime == "serial":
            rt = SerialRuntime(**kw)
        elif runtime == "threaded":
            rt = ThreadedRuntime(num_workers=2, **kw)
        else:
            dist = optimizer.plan(matrix_size=N, tile_size=B, num_devices=2)
            rt = MultiprocessRuntime(dist, **kw)
        with pytest.raises(ValueError, match=f"checkpoint_every must be >= 1, got {every}"):
            rt.factorize(matrix.copy(), B)
    assert not path.exists()
