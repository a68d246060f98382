"""Unit tests for the fault-injection and retry layers.

End-to-end chaos coverage (every runtime x every fault kind) lives in
``test_chaos_matrix.py``; failover in ``test_failover.py``; snapshots in
``test_checkpoint_resume.py``.  This file tests the building blocks:
fault specs/plans, retry policies, the chaos engine's determinism, the
resilient task envelope, and the threaded runtime's prompt cancellation.
"""

import threading
import time

import numpy as np
import pytest

from repro.dag import build_dag
from repro.dag.tasks import Task, TaskKind
from repro.errors import (
    FaultInjectionError,
    NumericalHealthError,
    ResilienceError,
    RetryExhaustedError,
    TaskTimeoutError,
)
from repro.observability import MetricsRegistry, TelemetryBus, Tracer
from repro.resilience import (
    ChaosEngine,
    FaultKind,
    FaultPlan,
    FaultSpec,
    NO_RETRY,
    RetryPolicy,
    check_finite,
    check_task_outputs,
)
from repro.runtime.core_exec import apply_task, apply_task_resilient
from repro.runtime.serial import SerialRuntime
from repro.runtime.threaded import ThreadedRuntime
from repro.tiles import TiledMatrix


# ---------------------------------------------------------------------------
# FaultSpec / FaultPlan
# ---------------------------------------------------------------------------


class TestFaultSpec:
    def test_wildcards_match_everything(self):
        spec = FaultSpec(FaultKind.EXCEPTION)
        assert spec.matches(Task(TaskKind.GEQRT, 0, 0, 0, 0), "dev-a")
        assert spec.matches(Task(TaskKind.TSMQR, 1, 3, 1, 2), None)

    def test_field_matching(self):
        spec = FaultSpec(FaultKind.EXCEPTION, task_kind="TSMQR", k=1, row=3, col=2)
        assert spec.matches(Task(TaskKind.TSMQR, 1, 3, 1, 2), None)
        assert not spec.matches(Task(TaskKind.TSMQR, 1, 3, 1, 3), None)
        assert not spec.matches(Task(TaskKind.TSQRT, 1, 3, 1, 1), None)

    def test_batch_col_range_matching(self):
        spec = FaultSpec(FaultKind.EXCEPTION, col=3)
        batch = Task(TaskKind.TSMQR_BATCH, 0, 2, 0, 1, 5)  # cols [1, 5)
        assert spec.matches(batch, None)
        outside = Task(TaskKind.TSMQR_BATCH, 0, 2, 0, 4, 6)
        assert not outside.col <= 3 < outside.col_end
        assert not spec.matches(outside, None)

    def test_device_matching(self):
        spec = FaultSpec(FaultKind.EXCEPTION, device="dev-b")
        t = Task(TaskKind.GEQRT, 0, 0, 0, 0)
        assert spec.matches(t, "dev-b")
        assert not spec.matches(t, "dev-a")
        # Unknown executing device: the device filter cannot veto.
        assert spec.matches(t, None)

    def test_validation(self):
        with pytest.raises(ResilienceError):
            FaultSpec(FaultKind.EXCEPTION, times=0)
        with pytest.raises(ResilienceError):
            FaultSpec(FaultKind.DELAY, seconds=-1.0)

    def test_dict_round_trip(self):
        spec = FaultSpec(
            FaultKind.DELAY, task_kind="GEQRT", k=2, device="d0", times=3, seconds=0.5
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_bad_kind_and_unknown_fields(self):
        with pytest.raises(ResilienceError, match="valid 'kind'"):
            FaultSpec.from_dict({"kind": "segfault"})
        with pytest.raises(ResilienceError, match="unknown fault spec fields"):
            FaultSpec.from_dict({"kind": "exception", "panel": 3})


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            specs=(
                FaultSpec(FaultKind.EXCEPTION, task_kind="GEQRT", k=1),
                FaultSpec(FaultKind.CORRUPT_NAN, row=2, times=2),
            ),
            seed=99,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_load_errors(self, tmp_path):
        with pytest.raises(ResilienceError, match="no fault plan"):
            FaultPlan.load(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ResilienceError, match="not valid JSON"):
            FaultPlan.load(bad)
        nolist = tmp_path / "nolist.json"
        nolist.write_text('{"seed": 1}')
        with pytest.raises(ResilienceError, match="'faults' list"):
            FaultPlan.load(nolist)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ResilienceError):
            RetryPolicy(factor=0.5)
        with pytest.raises(ResilienceError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ResilienceError):
            RetryPolicy(deadline=0.0)

    def test_retryable_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(FaultInjectionError("x"))
        assert policy.is_retryable(NumericalHealthError("x"))
        assert policy.is_retryable(TaskTimeoutError("x"))
        assert not policy.is_retryable(KeyError("x"))
        assert not policy.is_retryable(KeyboardInterrupt())

    def test_backoff_deterministic_and_growing(self):
        policy = RetryPolicy(backoff=0.01, factor=2.0, jitter=0.5, seed=7)
        key = (1, 2, 3)
        a = policy.backoff_seconds(2, key=key)
        b = policy.backoff_seconds(2, key=key)
        assert a == b  # same seed/key/attempt -> same sleep
        assert policy.backoff_seconds(2, key=(9,)) != a  # key-dependent
        # Exponential growth holds despite jitter (factor 2, jitter 0.5).
        assert policy.backoff_seconds(4, key=key) > policy.backoff_seconds(2, key=key)
        assert policy.backoff_seconds(1, key=key) == 0.0

    def test_no_jitter_is_exact(self):
        policy = RetryPolicy(backoff=0.25, factor=3.0, jitter=0.0)
        assert policy.backoff_seconds(2) == 0.25
        assert policy.backoff_seconds(3) == 0.75


# ---------------------------------------------------------------------------
# ChaosEngine
# ---------------------------------------------------------------------------


class TestChaosEngine:
    def test_fires_exactly_times(self):
        plan = FaultPlan(specs=(FaultSpec(FaultKind.EXCEPTION, task_kind="GEQRT", times=2),))
        engine = ChaosEngine(plan)
        t = Task(TaskKind.GEQRT, 0, 0, 0, 0)
        for _ in range(2):
            with pytest.raises(FaultInjectionError):
                engine.before_task(t)
        engine.before_task(t)  # spec exhausted: no-op
        assert engine.fire_counts() == [2]
        assert engine.faults_injected == 2

    def test_corruption_poisons_written_tiles(self):
        plan = FaultPlan(specs=(FaultSpec(FaultKind.CORRUPT_INF),))
        engine = ChaosEngine(plan)
        tile = np.ones((4, 4))
        fired = engine.corrupt_outputs(Task(TaskKind.GEQRT, 0, 0, 0, 0), [tile])
        assert fired
        assert np.all(np.isinf(tile))
        with pytest.raises(NumericalHealthError, match="non-finite"):
            check_task_outputs(Task(TaskKind.GEQRT, 0, 0, 0, 0), [tile])

    def test_counts_on_metrics_and_tracer(self):
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics)
        plan = FaultPlan(specs=(FaultSpec(FaultKind.EXCEPTION),))
        bus = _counting_bus(metrics)
        bus.fold(tracer.on_event)
        engine = ChaosEngine(plan, device="dev-x")
        with pytest.raises(FaultInjectionError):
            engine.before_task(Task(TaskKind.GEQRT, 0, 0, 0, 0), bus=bus)
        assert metrics.snapshot()["counters"]["resilience.faults_injected"] == 1
        recs = tracer.annotation_records()
        assert len(recs) == 1 and recs[0].kind == "fault" and recs[0].device == "dev-x"


def test_check_finite():
    check_finite(np.ones(3), "ok")
    with pytest.raises(NumericalHealthError, match="nan"):
        check_finite(np.array([1.0, np.nan]), "bad")
    with pytest.raises(NumericalHealthError, match="inf"):
        check_finite(np.array([np.inf]), "bad")


# ---------------------------------------------------------------------------
# apply_task_resilient
# ---------------------------------------------------------------------------


def _counting_bus(metrics):
    """A bus with ``metrics``' resilience counters folded on."""
    bus = TelemetryBus()
    bus.fold(metrics.on_event)
    return bus


def _run_dag_resilient(a, b, chaos=None, policy=None, **kw):
    tiled = TiledMatrix.from_dense(a.copy(), b)
    dag = build_dag(tiled.grid_rows, tiled.grid_cols, "TS", False)
    factors = {}
    for task in dag.tasks:
        apply_task_resilient(
            task, tiled, factors, policy=policy or RetryPolicy(backoff=0.0),
            chaos=chaos, **kw,
        )
    return tiled.to_dense()


class TestApplyTaskResilient:
    def test_retry_masks_fault_bit_identically(self, rng):
        a = rng.standard_normal((64, 64))
        tiled = TiledMatrix.from_dense(a.copy(), 16)
        dag = build_dag(4, 4, "TS", False)
        factors = {}
        for task in dag.tasks:
            apply_task(task, tiled, factors)
        clean = tiled.to_dense()

        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.EXCEPTION, task_kind="TSQRT", k=1, times=1),
            FaultSpec(FaultKind.CORRUPT_NAN, task_kind="TSMQR", k=0, row=2, times=1),
        ))
        metrics = MetricsRegistry()
        chaotic = _run_dag_resilient(
            a, 16, chaos=ChaosEngine(plan),
            health=True, bus=_counting_bus(metrics),
        )
        assert np.array_equal(chaotic, clean)
        counters = metrics.snapshot()["counters"]
        assert counters["resilience.retries"] == 2
        assert counters["resilience.faults_injected"] == 2

    def test_exhausted_retries_raise_with_cause(self, rng):
        a = rng.standard_normal((32, 32))
        plan = FaultPlan(specs=(FaultSpec(FaultKind.EXCEPTION, task_kind="GEQRT", times=99),))
        with pytest.raises(RetryExhaustedError) as info:
            _run_dag_resilient(a, 16, chaos=ChaosEngine(plan),
                               policy=RetryPolicy(max_attempts=2, backoff=0.0))
        assert isinstance(info.value.__cause__, FaultInjectionError)

    def test_no_retry_policy_fails_immediately(self, rng):
        a = rng.standard_normal((32, 32))
        plan = FaultPlan(specs=(FaultSpec(FaultKind.EXCEPTION, times=1),))
        engine = ChaosEngine(plan)
        with pytest.raises(RetryExhaustedError):
            _run_dag_resilient(a, 16, chaos=engine, policy=NO_RETRY)
        assert engine.faults_injected == 1  # single attempt, no second chance

    def test_unretryable_error_propagates(self, rng):
        a = rng.standard_normal((32, 32))
        tiled = TiledMatrix.from_dense(a, 16)
        # UNMQR before its GEQRT: the missing factor is a programming
        # error (KeyError), which must not be retried or wrapped.
        with pytest.raises(KeyError):
            apply_task_resilient(
                Task(TaskKind.UNMQR, 0, 0, 0, 1), tiled, {},
                policy=RetryPolicy(backoff=0.0),
            )

    def test_hang_trips_deadline(self, rng):
        a = rng.standard_normal((32, 32))
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.HANG, task_kind="GEQRT", k=0, times=1, seconds=0.2),
        ))
        metrics = MetricsRegistry()
        clean = _run_dag_resilient(a, 16)
        hung = _run_dag_resilient(
            a, 16, chaos=ChaosEngine(plan),
            policy=RetryPolicy(backoff=0.0, deadline=0.05), bus=_counting_bus(metrics),
        )
        assert np.array_equal(hung, clean)
        counters = metrics.snapshot()["counters"]
        assert counters["resilience.timeouts"] == 1
        assert counters["resilience.retries"] == 1


# ---------------------------------------------------------------------------
# Threaded runtime: prompt cancellation (no queue draining)
# ---------------------------------------------------------------------------


class _RecordingChaos(ChaosEngine):
    """Chaos engine that also records every task start it observes."""

    def __init__(self, plan):
        super().__init__(plan)
        self.started: list[tuple[float, Task]] = []
        self.fatal_at: float | None = None
        self._rec_lock = threading.Lock()

    def before_task(self, task, device=None, bus=None):
        now = time.monotonic()
        with self._rec_lock:
            self.started.append((now, task))
        try:
            super().before_task(task, device, bus=bus)
        except FaultInjectionError:
            with self._rec_lock:
                self.fatal_at = time.monotonic()
            raise


class TestThreadedCancellation:
    def test_no_task_starts_after_fatal_error_single_worker(self, rng):
        """With one worker the check is deterministic: after the fatal
        failure the queue still holds ready tasks, and none may run."""
        a = rng.standard_normal((96, 96))
        # Fail an early task more times than the retry budget -> fatal.
        plan = FaultPlan(specs=(FaultSpec(FaultKind.EXCEPTION, task_kind="GEQRT", k=0, times=99),))
        chaos = _RecordingChaos(plan)
        runtime = ThreadedRuntime(
            num_workers=1, chaos=chaos, retry_policy=RetryPolicy(max_attempts=2, backoff=0.0),
        )
        with pytest.raises(RetryExhaustedError):
            runtime.factorize(a, 16)
        # Only GEQRT(0,0) ever started (twice, for its two attempts);
        # nothing was drained from the ready queue after the failure.
        assert [t.kind for _, t in chaos.started] == [TaskKind.GEQRT, TaskKind.GEQRT]

    def test_cancellation_is_prompt_with_many_workers(self, rng):
        a = rng.standard_normal((128, 128))
        total_tasks = len(build_dag(8, 8, "TS", False).tasks)
        # The panel-1 factorization fails fatally while panel-0 updates
        # (delayed to keep several in flight) are still queued.
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.EXCEPTION, task_kind="GEQRT", k=1, times=99),
            FaultSpec(FaultKind.DELAY, task_kind="TSMQR", k=0, times=20, seconds=0.01),
        ))
        chaos = _RecordingChaos(plan)
        runtime = ThreadedRuntime(
            num_workers=4, chaos=chaos, retry_policy=RetryPolicy(max_attempts=1, backoff=0.0),
        )
        with pytest.raises(RetryExhaustedError):
            runtime.factorize(a, 16)
        assert chaos.fatal_at is not None
        # Anything observed starting after the fatal instant can only be
        # a task that was already past the cancellation check (at most
        # one per other worker) — the dozens of queued panel-0 updates
        # must have been dropped, not drained.
        late = [t for ts, t in chaos.started if ts > chaos.fatal_at]
        assert len(late) <= runtime.num_workers - 1
        assert len(chaos.started) < total_tasks // 2


# ---------------------------------------------------------------------------
# Runtime wiring details
# ---------------------------------------------------------------------------


class TestRuntimeWiring:
    def test_chaos_without_policy_gets_default_retries(self, rng):
        """A chaos run without an explicit policy must still mask faults
        (the default policy kicks in) — not crash on the first injection."""
        a = rng.standard_normal((64, 64))
        plan = FaultPlan(specs=(FaultSpec(FaultKind.EXCEPTION, task_kind="TSQRT", times=1),))
        clean = SerialRuntime().factorize(a.copy(), 16)
        fact = SerialRuntime(chaos=ChaosEngine(plan)).factorize(a.copy(), 16)
        assert np.array_equal(fact.r_dense(), clean.r_dense())

    def test_health_checks_flag_alone_enables_envelope(self, rng):
        a = rng.standard_normal((64, 64))
        fact = SerialRuntime(health_checks=True).factorize(a, 16)
        assert fact.reconstruction_error(a) < 1e-12

    def test_default_path_has_no_resilience_objects(self, rng):
        from repro.runtime.serial import resolve_policy

        assert resolve_policy(None, None, False) is None
        policy = RetryPolicy(max_attempts=5)
        assert resolve_policy(policy, None, False) is policy
