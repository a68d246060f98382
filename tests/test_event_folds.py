"""The run's bus is the only emission point; the tracer and the
``resilience.*`` counters are synchronous folds over it.

Each runtime runs under a seeded fault plan (one kernel exception, one
checkpoint, and for multiprocess one worker kill) with a tracer, a
metrics registry, and a bus carrying a flight recorder.  What the folds
built must agree with the event stream the recorder saw.
"""

import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.dag.tasks import Task, TaskKind
from repro.observability import FlightRecorder, MetricsRegistry, TelemetryBus, Tracer
from repro.resilience import ChaosEngine, FaultKind, FaultPlan, FaultSpec, RetryPolicy
from repro.runtime.multiprocess import MultiprocessRuntime
from repro.runtime.serial import SerialRuntime, run_bus
from repro.runtime.threaded import ThreadedRuntime

N = 96
B = 16


class TestFolds:
    def test_fold_is_synchronous_and_lossless(self):
        bus = TelemetryBus(capacity=1)
        seen = []
        bus.fold(lambda e: seen.append((e.seq, threading.current_thread())))
        for _ in range(10):
            bus.publish("x")
        assert [s for s, _ in seen] == list(range(1, 11))
        assert {t for _, t in seen} == {threading.current_thread()}

    def test_fold_once_and_unfold(self):
        bus = TelemetryBus()
        seen = []
        assert bus.fold(seen.append)
        assert not bus.fold(seen.append)
        bus.publish("x")
        bus.unfold(seen.append)
        bus.publish("y")
        assert [e.type for e in seen] == ["x"]

    def test_concurrent_publishers_lose_nothing(self):
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics)
        bus = TelemetryBus(capacity=1)
        bus.fold(tracer.on_event)
        bus.fold(metrics.on_event)
        bus.publish("run.start", "m", {"tile_size": 8})
        threads, per_thread = 8, 200

        def publish(i):
            for n in range(per_thread):
                task = Task(TaskKind.UNMQR, 0, 0, 0, 1 + n)
                bus.task_finish(task, f"w{i}", start=0.0, end=1e-6)
                bus.publish("retry", f"w{i}", {
                    "task": task.label(), "attempt": 2, "max_attempts": 3, "error": "x",
                })

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=publish, args=(i,)) for i in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(w.is_alive() for w in workers)
        total = threads * per_thread
        counters = metrics.snapshot()["counters"]
        assert len(tracer.task_records()) == total
        assert len(tracer.annotation_records()) == total
        assert counters["kernel.UNMQR.calls"] == total
        assert counters["resilience.retries"] == total

    def test_run_bus_absent_without_sinks(self):
        for tracer in (None, Tracer(enabled=False)):
            with run_bus(SerialRuntime(tracer=tracer), None, "serial", dict, dict) as bus:
                assert bus is None

    def test_run_bus_folds_for_the_run_only(self):
        tracer = Tracer()
        outer = TelemetryBus()
        with run_bus(SerialRuntime(tracer=tracer), outer, "serial", dict, dict) as bus:
            assert bus is outer
            bus.publish("fault", "d", {"fault": "exception", "task": "G[0]k0"})
        outer.publish("fault", "d", {"fault": "exception", "task": "G[1]k1"})
        assert [r.label for r in tracer.annotation_records()] == ["exception:G[0]k0"]


@pytest.mark.parametrize("runtime", ["serial", "threaded", "multiprocess"])
def test_folds_agree_with_the_stream(runtime, optimizer, tmp_path):
    a = np.random.default_rng(5).standard_normal((N, N))
    metrics = MetricsRegistry()
    tracer = Tracer(metrics=metrics)
    bus = TelemetryBus()
    recorder = FlightRecorder(capacity=100_000).attach(bus)
    specs = [FaultSpec(FaultKind.EXCEPTION, task_kind="UNMQR", k=0, times=1)]
    kw = dict(
        tracer=tracer, metrics=metrics, bus=bus,
        retry_policy=RetryPolicy(max_attempts=3, backoff=0.0, jitter=0.0),
        checkpoint_path=tmp_path / "snap.npz",
    )
    if runtime == "multiprocess":
        dist = optimizer.plan(matrix_size=N, tile_size=B, num_devices=3)
        victim = next(d for d in dist.participants if d != dist.main_device)
        specs.append(FaultSpec(FaultKind.KILL_WORKER, task_kind="TSMQR", k=1, device=victim))
        # 6 panels: a snapshot after panel 3.
        rt = MultiprocessRuntime(
            dist, chaos_plan=FaultPlan(specs=tuple(specs), seed=42),
            checkpoint_every=3, **kw,
        )
    else:
        chaos = ChaosEngine(FaultPlan(specs=tuple(specs), seed=42))
        # 91 tasks: a snapshot after 60.
        if runtime == "serial":
            rt = SerialRuntime(chaos=chaos, checkpoint_every=60, **kw)
        else:
            rt = ThreadedRuntime(num_workers=2, chaos=chaos, checkpoint_every=60, **kw)
    rt.factorize(a, B)
    bus.close()
    events = recorder.tail()
    assert recorder.events_seen == len(events)
    by_type = Counter(e.type for e in events)

    # 1. annotations by kind == manager-side events by type
    annotations = Counter(r.kind for r in tracer.annotation_records())
    for kind in ("retry", "fault", "failover", "checkpoint"):
        assert annotations[kind] == by_type[kind], kind
    # (threaded may snapshot twice: a worker finishing during the
    # stop-the-world drain also sees the snapshot due)
    assert by_type["checkpoint"] >= 1

    # 2. resilience counters == event counts (>= for multiprocess, whose
    #    worker-side retries and faults arrive only as counter deltas)
    counters = metrics.snapshot()["counters"]
    deaths = sum(1 for e in events if e.type == "failover" and e.data.get("died"))
    assert counters.get("resilience.checkpoints", 0) == by_type["checkpoint"]
    assert counters.get("resilience.worker_deaths", 0) == deaths
    if runtime == "multiprocess":
        assert deaths == 1
        assert counters["resilience.retries"] >= by_type["retry"]
        assert counters["resilience.faults_injected"] >= by_type["fault"]
        assert counters["resilience.retries"] >= 1
    else:
        assert by_type["retry"] >= 1 and by_type["fault"] >= 1
        assert counters["resilience.retries"] == by_type["retry"]
        assert counters["resilience.faults_injected"] == by_type["fault"]

    # 3. task records == task.finish events (count, coordinates, devices)
    from_trace = Counter(
        (r.task.kind.value, r.task.k, r.task.row, r.task.row2, r.task.col,
         r.task.col_end, r.device_id)
        for r in tracer.task_records()
    )
    from_stream = Counter(
        (e.data["kind"], e.data["k"], e.data["row"], e.data["row2"], e.data["col"],
         e.data.get("col_end", -1), e.device)
        for e in events
        if e.type == "task.finish"
    )
    assert sum(from_trace.values()) == by_type["task.finish"] > 0
    assert from_trace == from_stream
