"""Live telemetry tests: bus, progress, stragglers, sinks, heartbeats.

Covers the in-run pipeline end to end: TelemetryBus pub/sub semantics
(async dispatch + drain), ProgressTracker folding and ETA, straggler
detection on both prediction sources, the streaming JSONL sink's
crash-safety contract, the dashboard renderer, and the acceptance
scenarios — a chaos ``hang`` producing ``heartbeat.missed`` before the
retry (threaded) / failover (multiprocess) reacts, with bit-identical
results throughout.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.dag import build_dag
from repro.dag.tasks import Task, TaskKind
from repro.errors import ObservabilityError
from repro.observability import MetricsRegistry
from repro.observability.live import (
    LIVE_SCHEMA_VERSION,
    HeartbeatMonitor,
    JsonlStreamSink,
    LiveEvent,
    ProgressTracker,
    StragglerDetector,
    TelemetryBus,
    read_live_events,
    render_dashboard,
    task_payload,
)
from repro.resilience import ChaosEngine, FaultKind, FaultPlan, FaultSpec, RetryPolicy
from repro.runtime import tiled_qr
from repro.runtime.multiprocess import MultiprocessRuntime
from repro.runtime.threaded import ThreadedRuntime

N = 96
B = 16


@pytest.fixture(scope="module")
def matrix():
    return np.random.default_rng(777).standard_normal((N, N))


@pytest.fixture(scope="module")
def clean_r(matrix):
    return tiled_qr(matrix, B).r_dense()


def _collector(bus):
    seen = []
    bus.subscribe(seen.append)
    return seen


def _finish_event(bus, task, device="dev0", duration=1e-3):
    data = task_payload(task)
    data["start"] = 0.0
    data["end"] = duration
    data["duration"] = duration
    return bus.publish("task.finish", device, data)


# ---------------------------------------------------------------------------
# TelemetryBus


class TestBus:
    def test_publish_sequences_and_ring_bound(self):
        bus = TelemetryBus(capacity=4)
        for _ in range(10):
            bus.publish("heartbeat")
        assert bus.last_seq == 10
        assert len(bus) == 4
        assert [e.seq for e in bus.events()] == [7, 8, 9, 10]
        assert [e.seq for e in bus.events(since_seq=9)] == [10]

    def test_subscribers_see_every_event_after_drain(self):
        bus = TelemetryBus()
        seen = _collector(bus)
        for i in range(5):
            bus.publish("task.start", "d", {"i": i})
        assert bus.drain()
        assert [e.seq for e in seen] == [1, 2, 3, 4, 5]
        bus.close()

    def test_late_subscriber_gets_no_replay(self):
        bus = TelemetryBus()
        bus.publish("run.start")
        bus.publish("heartbeat")
        seen = _collector(bus)
        bus.publish("run.finish")
        assert bus.drain()
        assert [e.type for e in seen] == ["run.finish"]
        bus.close()

    def test_failing_subscriber_is_detached_not_fatal(self):
        bus = TelemetryBus()

        def bomb(event):
            raise RuntimeError("subscriber bug")

        bus.subscribe(bomb)
        seen = _collector(bus)
        for _ in range(3):
            bus.publish("heartbeat")
        assert bus.drain()
        assert bus.dropped_subscribers == 1
        assert len(seen) == 3  # the healthy subscriber was unaffected
        bus.close()

    def test_close_is_idempotent_and_drains(self):
        bus = TelemetryBus()
        seen = _collector(bus)
        bus.publish("run.finish")
        bus.close()
        bus.close()
        assert [e.type for e in seen] == ["run.finish"]

    def test_validation(self):
        with pytest.raises(ValueError):
            TelemetryBus(capacity=0)
        with pytest.raises(ValueError):
            TelemetryBus(heartbeat_interval=0.0)

    def test_injected_clock_stamps_events(self):
        bus = TelemetryBus(clock=lambda: 42.0)
        assert bus.publish("heartbeat").t == 42.0
        assert bus.publish("heartbeat", t=7.0).t == 7.0

    def test_event_round_trips_through_dict(self):
        task = Task(TaskKind.TSMQR, 1, 3, 1, 2)
        bus = TelemetryBus()
        bus.task_start(task, "gpu0", t=1.0)
        bus.task_finish(task, "gpu0", start=1.0, end=1.5)
        start, finish = bus.events()
        for e in (start, finish):
            assert LiveEvent.from_dict(e.to_dict()) == e
        assert finish.data["duration"] == pytest.approx(0.5)
        assert finish.data["kind"] == "TSMQR"


# ---------------------------------------------------------------------------
# JsonlStreamSink


class TestSink:
    def _stream(self, tmp_path, publish):
        bus = TelemetryBus()
        sink = JsonlStreamSink(tmp_path / "live.jsonl", flush_seconds=0.0).attach(bus)
        publish(bus)
        bus.drain()
        sink.close()
        bus.close()
        return tmp_path / "live.jsonl"

    def test_round_trip(self, tmp_path):
        task = Task(TaskKind.GEQRT, 0, 0, 0, 0)

        def publish(bus):
            bus.publish("run.start", "manager", {"total_units": 1})
            _finish_event(bus, task)
            bus.publish("run.finish", "manager")

        path = self._stream(tmp_path, publish)
        meta, events = read_live_events(path)
        assert meta["schema"] == LIVE_SCHEMA_VERSION
        assert [e.type for e in events] == ["run.start", "task.finish", "run.finish"]
        assert events[1].data["kind"] == "GEQRT"

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = self._stream(
            tmp_path, lambda bus: bus.publish("run.start", "manager", {})
        )
        with open(path, "a") as fh:
            fh.write('{"type": "task.fin')  # killed mid-write
        _meta, events = read_live_events(path)
        assert [e.type for e in events] == ["run.start"]

    def test_malformed_interior_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"type": "live.meta", "schema": LIVE_SCHEMA_VERSION})
            + "\nnot json\n"
            + json.dumps({"type": "heartbeat", "seq": 1})
            + "\n"
            + json.dumps({"type": "heartbeat", "seq": 2})
            + "\n"
        )
        with pytest.raises(ObservabilityError, match="malformed"):
            read_live_events(path)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"type": "live.meta", "schema": 999}) + "\n")
        with pytest.raises(ObservabilityError, match="schema"):
            read_live_events(path)

    def test_concurrent_reader_sees_monotonic_prefixes(self, tmp_path):
        """A reader polling the stream while the sink is mid-write (the
        `tiledqr watch --attach` scenario) only ever observes clean,
        growing prefixes — never a parse error, never a shrink."""
        import threading

        path = tmp_path / "live.jsonl"
        bus = TelemetryBus()
        sink = JsonlStreamSink(path, flush_seconds=0.0).attach(bus)
        stop = threading.Event()
        seen_counts: list[int] = []
        reader_errors: list[BaseException] = []

        def reader():
            while not stop.is_set():
                try:
                    _meta, events = read_live_events(path)
                except BaseException as exc:  # any raise fails the test
                    reader_errors.append(exc)
                    return
                seen_counts.append(len(events))

        t = threading.Thread(target=reader)
        t.start()
        for i in range(300):
            bus.publish("heartbeat", f"dev{i % 3}", {"tick": i})
        bus.drain()
        sink.flush()
        stop.set()
        t.join()
        sink.close()
        bus.close()
        assert not reader_errors
        assert seen_counts == sorted(seen_counts)  # prefixes only grow
        _meta, events = read_live_events(path)
        assert len(events) == 300  # final read sees everything

    def test_torn_write_interleaved_with_reader(self, tmp_path):
        """A raw writer that leaves the final line torn between reads:
        each poll parses every complete line and skips the torn tail;
        completing the line later surfaces the event."""
        path = tmp_path / "live.jsonl"
        with open(path, "w") as fh:
            fh.write(
                json.dumps({"type": "live.meta", "schema": LIVE_SCHEMA_VERSION}) + "\n"
            )
            fh.flush()
            line = json.dumps(
                {"type": "heartbeat", "seq": 1, "t": 0.0, "device": "d", "data": {}}
            )
            fh.write(line + "\n")
            half = json.dumps(
                {"type": "heartbeat", "seq": 2, "t": 1.0, "device": "d", "data": {}}
            )
            fh.write(half[: len(half) // 2])
            fh.flush()
            _meta, events = read_live_events(path)  # reader races the torn tail
            assert [e.seq for e in events] == [1]
            fh.write(half[len(half) // 2 :] + "\n")
            fh.flush()
            _meta, events = read_live_events(path)
            assert [e.seq for e in events] == [1, 2]


# ---------------------------------------------------------------------------
# ProgressTracker


class TestProgress:
    def test_unit_counting_is_batching_independent(self):
        per_tile = ProgressTracker()
        batched = ProgressTracker()
        bus = TelemetryBus()
        for col in (1, 2, 3):
            per_tile.feed(_finish_event(bus, Task(TaskKind.UNMQR, 0, 0, 0, col)))
        batched.feed(
            _finish_event(bus, Task(TaskKind.UNMQR_BATCH, 0, 0, 0, 1, col_end=4))
        )
        assert per_tile.done_units == batched.done_units == 3
        assert per_tile._covered == batched._covered

    def test_dag_eta_converges_to_zero(self):
        dag = build_dag(3, 3, "TS")
        tracker = ProgressTracker(dag)
        bus = TelemetryBus(clock=lambda: 0.0)
        tracker.feed(bus.publish("run.start", "manager", {"devices": ["d0"]}))
        tasks = list(dag.tasks)
        half = len(tasks) // 2
        for task in tasks[:half]:
            tracker.feed(_finish_event(bus, task))
        mid = tracker.snapshot(now=1.0)
        assert 0.0 < mid.progress < 1.0
        assert mid.eta_seconds is not None and mid.eta_seconds > 0.0
        assert mid.calibration is not None and mid.calibration > 0.0
        for task in tasks[half:]:
            tracker.feed(_finish_event(bus, task))
        tracker.feed(bus.publish("run.finish", "manager"))
        done = tracker.snapshot(now=2.0)
        assert done.progress == 1.0
        assert done.eta_seconds == 0.0
        assert done.ready_tasks == 0
        assert done.finished

    def test_total_units_from_run_start_payload(self):
        tracker = ProgressTracker()
        bus = TelemetryBus(clock=lambda: 0.0)
        tracker.feed(bus.publish("run.start", "manager", {"total_units": 10}))
        for col in range(4):
            tracker.feed(_finish_event(bus, Task(TaskKind.UNMQR, 0, 0, 0, col)))
        snap = tracker.snapshot(now=2.0)
        assert snap.total_units == 10
        assert snap.progress == pytest.approx(0.4)
        # Rate fallback: 4 units in 2s -> 6 more units in ~3s.
        assert snap.eta_seconds == pytest.approx(3.0)

    def test_incident_events_tally_and_annotate(self):
        tracker = ProgressTracker()
        bus = TelemetryBus()
        tracker.feed(bus.publish("retry", "gpu1", {"task": "GEQRT[0,0]k0"}))
        tracker.feed(bus.publish("failover", "gpu1", {"died": True, "detail": "gpu1 died"}))
        tracker.feed(bus.publish("heartbeat.missed", "gpu2", {"silent_seconds": 1.5}))
        tracker.feed(bus.publish("straggler", "gpu2", {"task": "x", "ratio": 4.0}))
        tracker.feed(bus.publish("checkpoint", "manager", {"panel": 1}))
        snap = tracker.snapshot()
        assert snap.retries == 1
        assert snap.failovers == 1
        assert snap.missed_heartbeats == 1
        assert snap.stragglers == 1
        assert snap.checkpoints == 1
        assert any("gpu1 died" in note for note in snap.recent)
        dead = next(d for d in snap.devices if d["device"] == "gpu1")
        assert dead["dead"]
        frame = render_dashboard(snap)
        assert "tiledqr live" in frame
        assert "gpu1" in frame and "DEAD" in frame
        assert "stragglers 1" in frame


# ---------------------------------------------------------------------------
# StragglerDetector


class TestStraggler:
    def test_profile_prediction_flags_straggler(self):
        bus = TelemetryBus()
        metrics = MetricsRegistry()
        detector = StragglerDetector(
            predicted={"GEQRT": 0.01}, factor=2.0, metrics=metrics
        ).attach(bus)
        detector.bus = bus
        _finish_event(bus, Task(TaskKind.GEQRT, 0, 0, 0, 0), "gpu0", duration=0.05)
        bus.drain()
        assert len(detector.records) == 1
        rec = detector.records[0]
        assert rec.source == "profile"
        assert rec.ratio == pytest.approx(5.0)
        assert any(e.type == "straggler" for e in bus.events())
        counters = metrics.snapshot()["counters"]
        assert counters["live.straggler.events"] == 1
        bus.close()

    def test_noise_floor_suppresses_fast_kernels(self):
        bus = TelemetryBus()
        detector = StragglerDetector(predicted={"GEQRT": 1e-6}, factor=2.0).attach(bus)
        _finish_event(bus, Task(TaskKind.GEQRT, 0, 0, 0, 0), duration=5e-6)
        bus.drain()
        assert detector.records == []  # x5 but under the absolute floor
        bus.close()

    def test_fleet_ewma_fallback_and_drift(self):
        bus = TelemetryBus()
        detector = StragglerDetector(factor=2.0).attach(bus)
        detector.bus = bus
        for i in range(4):
            _finish_event(
                bus, Task(TaskKind.TSQRT, 0, i + 1, 0, 0), "fast", duration=1e-3
            )
        _finish_event(bus, Task(TaskKind.TSQRT, 0, 9, 0, 0), "slow", duration=0.1)
        bus.drain()
        assert len(detector.records) == 1
        assert detector.records[0].source == "fleet-ewma"
        assert detector.records[0].device == "slow"
        assert detector.device_drift["slow"] > detector.device_drift["fast"]
        assert any(e.type == "drift" and e.device == "slow" for e in bus.events())
        bus.close()


# ---------------------------------------------------------------------------
# HeartbeatMonitor (deterministic ticks)


class TestHeartbeat:
    def test_hung_task_flags_missed_heartbeat(self):
        bus = TelemetryBus(heartbeat_interval=10.0)  # ticks driven manually
        monitor = HeartbeatMonitor(bus, interval=1.0)
        bus.subscribe(monitor.on_event)
        task = Task(TaskKind.GEQRT, 0, 0, 0, 0)
        bus.task_start(task, "gpu0", t=0.0)
        bus.drain()
        monitor.tick(now=1.0)  # age 1.0 < miss_factor * interval
        monitor.tick(now=2.5)  # age 2.5 >= 2.0 -> miss
        monitor.tick(now=2.9)  # throttled: < interval since last miss
        monitor.tick(now=4.0)  # second miss
        bus.drain()
        missed = [e for e in bus.events() if e.type == "heartbeat.missed"]
        assert len(missed) == 2
        assert missed[0].device == "gpu0"
        assert missed[0].data["silent_seconds"] >= 2.0
        assert monitor.misses == 2
        bus.task_finish(task, "gpu0", start=0.0, end=5.0, t=5.0)
        bus.drain()
        monitor.tick(now=8.0)  # task finished: no further misses
        bus.drain()
        assert monitor.misses == 2
        bus.close()


# ---------------------------------------------------------------------------
# Runtime integration


class TestRuntimes:
    def test_threaded_stream_is_complete_and_bit_identical(
        self, tmp_path, matrix, clean_r
    ):
        bus = TelemetryBus()
        tracker = ProgressTracker().attach(bus)
        sink = JsonlStreamSink(tmp_path / "run.jsonl").attach(bus)
        fact = ThreadedRuntime(4, bus=bus).factorize(matrix.copy(), B)
        sink.close()
        bus.close()
        assert np.array_equal(fact.r_dense(), clean_r)
        assert tracker.finished
        snap = tracker.snapshot()
        assert snap.progress == 1.0
        assert snap.total_units == tracker.done_units
        _meta, events = read_live_events(tmp_path / "run.jsonl")
        types = [e.type for e in events]
        assert types[0] == "run.start" and types[-1] == "run.finish"
        assert sum(1 for t in types if t == "task.finish") == tracker.done_units

    def test_threaded_hang_misses_heartbeat_before_retry(self, matrix, clean_r):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    FaultKind.HANG, task_kind="GEQRT", k=0, times=1, seconds=0.6
                ),
            )
        )
        bus = TelemetryBus(heartbeat_interval=0.1)
        seen = _collector(bus)
        fact = ThreadedRuntime(
            2,
            chaos=ChaosEngine(plan),
            retry_policy=RetryPolicy(
                max_attempts=2, backoff=0.0, jitter=0.0, deadline=0.2
            ),
            bus=bus,
        ).factorize(matrix.copy(), B)
        bus.close()
        assert np.array_equal(fact.r_dense(), clean_r)
        missed = [e for e in seen if e.type == "heartbeat.missed"]
        retries = [e for e in seen if e.type == "retry"]
        assert missed, "hang never tripped the heartbeat monitor"
        assert retries, "deadline never classified the hang as a timeout"
        # Liveness first, recovery second: the miss streams while the
        # task is still hung, before the retry replays it.
        assert missed[0].seq < retries[0].seq

    def test_multiprocess_hang_misses_heartbeat_before_failover(
        self, matrix, clean_r, optimizer
    ):
        dist = optimizer.plan(matrix_size=N, num_devices=3)
        victim = next(d for d in dist.participants if d != dist.main_device)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    FaultKind.HANG,
                    task_kind="TSMQR",
                    k=1,
                    device=victim,
                    times=1,
                    seconds=30.0,
                ),
            )
        )
        bus = TelemetryBus(heartbeat_interval=0.02)
        seen = _collector(bus)
        fact = MultiprocessRuntime(
            dist,
            retry_policy=RetryPolicy(
                max_attempts=2, backoff=0.0, jitter=0.0, deadline=0.05
            ),
            chaos_plan=plan,
            bus=bus,
        ).factorize(matrix.copy(), B)
        bus.close()
        assert np.array_equal(fact.r_dense(), clean_r)
        missed = [e for e in seen if e.type == "heartbeat.missed"]
        failovers = [e for e in seen if e.type == "failover"]
        assert missed and missed[0].device == victim
        assert failovers
        assert missed[0].seq < failovers[0].seq
        # The victim's pre-hang kernel events were flushed to the bus
        # before it was declared dead — its work is not lost telemetry.
        assert any(e.type == "task.finish" and e.device == victim for e in seen)


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def test_top_once_serial(self, capsys):
        assert main(["top", "64", "--once", "--runtime", "serial",
                     "--tile-size", "16"]) == 0
        out = capsys.readouterr().out
        assert "tiledqr live" in out
        assert "stragglers" in out

    def test_top_stream_and_watch(self, tmp_path, capsys):
        stream = tmp_path / "live.jsonl"
        assert main(["top", "64", "--once", "--tile-size", "16",
                     "--stream-out", str(stream)]) == 0
        assert main(["watch", "--attach", str(stream), "--once"]) == 0
        out = capsys.readouterr().out
        assert "units" in out

    def test_metrics_from_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["trace", "64", "--runtime", "threaded", "--tile-size", "16",
                     "--out", str(trace)]) == 0
        assert main(["metrics", "--from-trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "tiledqr_kernel_GEQRT_seconds" in out
        assert "_total" in out
