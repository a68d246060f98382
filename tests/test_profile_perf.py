"""Tests for the measure -> model -> schedule loop.

Covers the kernel profile store (ingest, merge laws, timing-model
round-trip), the scheduler decision audit (Alg. 2/3/4 records and
``explain_plan``), and the perf-regression tracker — including the
end-to-end loop the PR exists for: a traced real factorization feeds a
profile store, whose calibrated timing models drive the paper's
scheduling algorithms, whose decisions the audit explains.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.device_count import select_num_devices
from repro.core.main_device import select_main_device
from repro.core.optimizer import Optimizer
from repro.comm.topology import pcie_star
from repro.dag.tasks import Step, Task, TaskKind
from repro.devices.calibration import paper_cpu_i7_3820
from repro.devices.model import KernelTimingModel
from repro.devices.registry import paper_testbed
from repro.errors import ObservabilityError
from repro.observability import (
    DecisionAudit,
    MetricsRegistry,
    ProfileStore,
    Tracer,
    append_record,
    compare_trajectory,
    expand_batched,
    explain_plan,
    kernel_times,
    record_traced_run,
    summarize_trace,
)
from repro.runtime.serial import SerialRuntime
from repro.runtime.threaded import ThreadedRuntime
from repro.sim.trace import ExecutionTrace, TaskRecord

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional test dep
    HAVE_HYPOTHESIS = False

needs_hypothesis = pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")

#: One single-tile kind per paper step.
STEP_KIND = {
    Step.T: TaskKind.GEQRT,
    Step.E: TaskKind.TSQRT,
    Step.UT: TaskKind.UNMQR,
    Step.UE: TaskKind.TSMQR,
}


def _valid_task(kind: TaskKind, i: int) -> Task:
    """A structurally valid task of ``kind``, distinct per ``i``."""
    if kind is TaskKind.GEQRT:
        return Task(kind, i, i, i, i)
    if kind is TaskKind.TSQRT:
        return Task(kind, 0, i + 1, 0, 0)
    if kind is TaskKind.UNMQR:
        return Task(kind, 0, 0, 0, i + 1)
    return Task(kind, 0, i + 1, 0, i + 1)  # TSMQR


def model_trace(model: KernelTimingModel, b: int, device: str = "dev", calls: int = 3) -> ExecutionTrace:
    """A synthetic trace whose durations follow ``model`` exactly."""
    tasks = []
    t = 0.0
    for step, kind in STEP_KIND.items():
        dt = model.time(step, b)
        for i in range(calls):
            tasks.append(
                TaskRecord(task=_valid_task(kind, i), device_id=device, start=t, end=t + dt)
            )
            t += dt
    return ExecutionTrace(tasks=tasks, transfers=[])


def small_trace(device: str = "dev", scale: float = 1.0, b: int = 16) -> ExecutionTrace:
    model = KernelTimingModel(
        overheads_s={s: 1e-5 * scale for s in Step},
        rates_flops={s: 1e9 / scale for s in Step},
    )
    return model_trace(model, b, device=device)


class TestProfileStoreIngest:
    def test_ingest_and_stats(self):
        store = ProfileStore()
        store.ingest_trace(small_trace(), tile_size=16, recorded_at="2026-01-01")
        st_ = store.stats("GEQRT", device="dev", tile_size=16)
        assert st_ is not None
        assert st_.count == 3
        assert st_.mean_seconds == pytest.approx(st_.total_seconds / 3)
        assert st_.gflops > 0
        assert store.devices() == ["dev"]
        assert store.tile_sizes() == [16]
        assert "GEQRT" in store.report()

    def test_reingest_identical_is_noop(self):
        store = ProfileStore()
        r1 = store.ingest_trace(small_trace(), tile_size=16)
        r2 = store.ingest_trace(small_trace(), tile_size=16)
        assert r1 == r2
        assert store.num_runs == 1

    def test_same_run_id_different_content_rejected(self):
        store = ProfileStore()
        store.ingest_trace(small_trace(), tile_size=16, run_id="r")
        with pytest.raises(ObservabilityError):
            store.ingest_trace(small_trace(scale=2.0), tile_size=16, run_id="r")

    def test_empty_trace_rejected(self):
        with pytest.raises(ObservabilityError):
            ProfileStore().ingest_trace(ExecutionTrace(tasks=[], transfers=[]), tile_size=16)

    def test_batched_records_credited_per_tile(self):
        """A *_BATCH record counts as ncols per-tile calls of equal time,
        preserving total seconds and keeping stats per-tile comparable."""
        batch = Task(TaskKind.TSMQR_BATCH, 0, 1, 0, 1, col_end=4)
        rec = TaskRecord(task=batch, device_id="d", start=0.0, end=0.3)
        store = ProfileStore()
        store.ingest_trace(ExecutionTrace(tasks=[rec], transfers=[]), tile_size=16)
        st_ = store.stats("TSMQR", device="d", tile_size=16)
        assert st_.count == batch.ncols == 3
        assert st_.total_seconds == pytest.approx(0.3)
        assert st_.mean_seconds == pytest.approx(0.1)

    def test_ingest_metrics_snapshot(self):
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics)
        a = np.random.default_rng(0).standard_normal((64, 64))
        SerialRuntime(tracer=tracer).factorize(a, 16)
        store = ProfileStore()
        store.ingest_metrics(metrics.snapshot(), tile_size=16, device="serial")
        st_ = store.stats("GEQRT", device="serial", tile_size=16)
        assert st_ is not None and st_.count >= 4
        assert st_.p50_seconds > 0

    def test_save_load_roundtrip(self, tmp_path):
        store = ProfileStore()
        store.ingest_trace(small_trace(), tile_size=16, recorded_at="2026-01-01")
        path = store.save(tmp_path / "store.json")
        loaded = ProfileStore.load(path)
        assert loaded.to_json() == store.to_json()

    def test_load_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{\"kind\": \"something-else\"}")
        with pytest.raises(ObservabilityError):
            ProfileStore.load(p)
        with pytest.raises(ObservabilityError):
            ProfileStore.load(tmp_path / "missing.json")


def disjoint_stores(seeds: list[int]) -> list[ProfileStore]:
    stores = []
    for seed in seeds:
        s = ProfileStore()
        s.ingest_trace(
            small_trace(device=f"dev-{seed}", scale=1.0 + seed * 0.25),
            tile_size=16,
            recorded_at=f"2026-01-{(seed % 27) + 1:02d}",
        )
        stores.append(s)
    return stores


class TestMergeLaws:
    """`merge` is a keyed union: commutative/associative on disjoint runs."""

    if HAVE_HYPOTHESIS:

        @needs_hypothesis
        @settings(max_examples=25, deadline=None)
        @given(st.lists(st.integers(min_value=0, max_value=40), min_size=3, max_size=3, unique=True))
        def test_merge_laws_hypothesis(self, seeds):
            a, b, c = disjoint_stores(seeds)
            assert a.merge(b).to_json() == b.merge(a).to_json()
            assert a.merge(b).merge(c).to_json() == a.merge(b.merge(c)).to_json()

    @pytest.mark.parametrize("seeds", [[0, 1, 2], [5, 3, 9], [7, 7 + 13, 2]])
    def test_merge_laws_fixed(self, seeds):
        a, b, c = disjoint_stores(seeds)
        assert a.merge(b).to_json() == b.merge(a).to_json()
        assert a.merge(b).merge(c).to_json() == a.merge(b.merge(c)).to_json()

    def test_merge_idempotent_on_shared_run(self):
        a, = disjoint_stores([1])
        merged = a.merge(a)
        assert merged.to_json() == a.to_json()

    def test_merge_conflicting_content_rejected(self):
        a = ProfileStore()
        a.ingest_trace(small_trace(), tile_size=16, run_id="r")
        b = ProfileStore()
        b.ingest_trace(small_trace(scale=3.0), tile_size=16, run_id="r")
        with pytest.raises(ObservabilityError):
            a.merge(b)

    def test_merge_pools_statistics(self):
        a, b = disjoint_stores([0, 1])
        merged = a.merge(b)
        sa = a.stats("GEQRT")
        sb = b.stats("GEQRT")
        sm = merged.stats("GEQRT")
        assert sm.count == sa.count + sb.count
        assert sm.total_seconds == pytest.approx(sa.total_seconds + sb.total_seconds)


class TestTimingModelRoundTrip:
    def test_single_tile_size_exact(self):
        model = paper_cpu_i7_3820().timing
        store = ProfileStore()
        store.ingest_trace(model_trace(model, 32), tile_size=32)
        fitted = store.to_timing_model()
        for step in Step:
            assert fitted.time(step, 32) == pytest.approx(model.time(step, 32), rel=1e-9)

    def test_two_tile_sizes_recover_model(self):
        model = paper_cpu_i7_3820().timing
        store = ProfileStore()
        store.ingest_trace(model_trace(model, 16), tile_size=16, recorded_at="a")
        store.ingest_trace(model_trace(model, 64), tile_size=64, recorded_at="b")
        fitted = store.to_timing_model()
        for step in Step:
            for b in (16, 64):
                assert fitted.time(step, b) == pytest.approx(model.time(step, b), rel=1e-6)

    def test_missing_step_falls_back_to_base(self):
        base = paper_cpu_i7_3820().timing
        rec = TaskRecord(
            task=Task(TaskKind.GEQRT, 0, 0, 0, 0), device_id="d", start=0.0, end=0.5
        )
        store = ProfileStore()
        store.ingest_trace(ExecutionTrace(tasks=[rec], transfers=[]), tile_size=16)
        fitted = store.to_timing_model(base=base)
        assert fitted.time(Step.T, 16) == pytest.approx(0.5)
        assert fitted.time(Step.UE, 16) == pytest.approx(base.time(Step.UE, 16))

    def test_missing_step_without_base_raises(self):
        rec = TaskRecord(
            task=Task(TaskKind.GEQRT, 0, 0, 0, 0), device_id="d", start=0.0, end=0.5
        )
        store = ProfileStore()
        store.ingest_trace(ExecutionTrace(tasks=[rec], transfers=[]), tile_size=16)
        with pytest.raises(ObservabilityError):
            store.to_timing_model()

    def test_real_trace_roundtrips_recorded_seconds(self):
        """`to_timing_model()` on a real single-device recorded trace
        reproduces the recorded mean per-kernel seconds at that size."""
        tracer = Tracer()
        a = np.random.default_rng(1).standard_normal((96, 96))
        SerialRuntime(tracer=tracer).factorize(a, 32)
        trace = tracer.to_trace()
        store = ProfileStore()
        store.ingest_trace(trace, tile_size=32)
        fitted = store.to_timing_model("serial")
        meas = store.step_measurements("serial")
        for step, points in meas.items():
            assert fitted.time(step, 32) == pytest.approx(points[32], rel=1e-6)

    def test_to_device_spec_keeps_identity(self):
        base = paper_cpu_i7_3820()
        store = ProfileStore()
        store.ingest_trace(small_trace(device=base.device_id), tile_size=16)
        spec = store.to_device_spec(base)
        assert spec.device_id == base.device_id
        assert spec.kind == base.kind
        assert spec.time(Step.T, 16) != base.time(Step.T, 16)

    def test_drift_report_lists_measured_steps(self):
        store = ProfileStore()
        store.ingest_trace(small_trace(device="cpu-0"), tile_size=16)
        text = store.drift_report(paper_cpu_i7_3820())
        assert "drift" in text
        assert "cpu-0" in text
        assert "T " in text


class TestBatchedConservation:
    def test_expand_batched_preserves_per_kernel_seconds(self):
        """Regression: expanding a real batched trace must conserve every
        kernel's total seconds (batch kind mapped to its per-tile kind)."""
        tracer = Tracer()
        a = np.random.default_rng(2).standard_normal((128, 128))
        SerialRuntime(tracer=tracer, batch_updates=True).factorize(a, 32)
        trace = tracer.to_trace()
        assert any(r.task.is_batch for r in trace.tasks)
        before = kernel_times(trace)
        expanded = expand_batched(trace)
        after = kernel_times(expanded)
        merged = {}
        for kind, secs in before.items():
            merged[TaskKind(kind).single.value] = (
                merged.get(TaskKind(kind).single.value, 0.0) + secs
            )
        assert set(after) == set(merged)
        for kind, secs in merged.items():
            assert after[kind] == pytest.approx(secs, rel=1e-9)
        # the summary sees the same totals
        summary = summarize_trace(expanded)
        for kind, secs in merged.items():
            assert summary.kernel_seconds[kind] == pytest.approx(secs, rel=1e-9)


class TestDecisionAudit:
    def test_plan_records_all_three_stages(self):
        audit = DecisionAudit()
        plan = Optimizer(paper_testbed()).plan(matrix_size=2048, tile_size=512, audit=audit)
        stages = [r.stage for r in audit.records]
        assert stages == [
            "main_device", "device_count", "distribution", "kernel_backend",
        ]
        assert plan.notes["audit"] is audit
        main_rec = audit.get("main_device")
        assert main_rec.chosen == plan.main_device
        assert "kernel_seconds" in main_rec.inputs
        count_rec = audit.get("device_count")
        assert count_rec.chosen == f"p={plan.notes['optimal_num_devices']}"
        assert all("total" in c.metrics for c in count_rec.candidates)

    def test_plan_creates_audit_by_default(self):
        plan = Optimizer(paper_testbed()).plan(matrix_size=1024, tile_size=256)
        assert isinstance(plan.notes["audit"], DecisionAudit)

    def test_explain_plan_text(self):
        plan = Optimizer(paper_testbed()).plan(matrix_size=2048, tile_size=512)
        text = explain_plan(plan)
        assert "[main_device]" in text
        assert "[device_count]" in text
        assert "[distribution]" in text
        assert "margin" in text
        assert "candidates:" in text

    def test_explain_plan_without_audit(self):
        plan = Optimizer(paper_testbed()).plan(matrix_size=1024, tile_size=256)
        object.__setattr__(plan, "notes", {})
        assert "no decision audit" in explain_plan(plan)

    def test_audit_serializes_to_json(self):
        audit = DecisionAudit()
        Optimizer(paper_testbed()).plan(matrix_size=2048, tile_size=512, audit=audit)
        doc = audit.to_dict()
        json.dumps(doc)  # must be JSONL-meta safe
        assert len(doc["decisions"]) == 4

    def test_single_device_system_records_shortcut(self):
        from repro.devices.registry import SystemSpec

        sys1 = SystemSpec(name="one", devices=(paper_cpu_i7_3820(),))
        audit = DecisionAudit()
        select_main_device(sys1, 4, 4, 32, audit=audit)
        rec = audit.get("main_device")
        assert rec.metric == "only_device"


class TestEndToEndLoop:
    """The acceptance-criteria loop: trace -> store -> Alg. 2/3 on
    measured numbers -> audit explains the same choices the algorithms
    make when called directly."""

    def test_measured_loop_matches_direct_calls(self):
        tracer = Tracer()
        a = np.random.default_rng(3).standard_normal((96, 96))
        ThreadedRuntime(num_workers=2, tracer=tracer, backend="reference").factorize(a, 32)
        store = ProfileStore()
        store.ingest_trace(tracer.to_trace(), tile_size=32)
        system = store.to_system()
        assert sorted(system.device_ids) == ["worker-0", "worker-1"]

        audit = DecisionAudit()
        opt = Optimizer(system)
        plan = opt.plan(matrix_size=96, tile_size=32, audit=audit)

        # same choices as calling the algorithms directly on the same
        # measured system
        direct_main = select_main_device(system, 3, 3, 32)
        assert plan.main_device == direct_main
        topo = pcie_star(system.devices)
        direct_p, _table = select_num_devices(system, direct_main, 3, 3, 32, topo)
        assert plan.notes["optimal_num_devices"] == direct_p

        # the audit exposes the measured inputs and per-candidate numbers
        text = explain_plan(plan)
        assert "kernel_seconds" in text
        for d in system.device_ids:
            assert d in text
        count_rec = audit.get("device_count")
        assert f"p={direct_p}" == count_rec.chosen
        assert len(count_rec.candidates) == len(system.device_ids)
        main_rec = audit.get("main_device")
        assert main_rec.margin >= 0.0
        # measured kernel seconds in the audit match the store's fit
        fitted = store.to_timing_model(direct_main)
        recorded = main_rec.inputs["kernel_seconds"][direct_main]
        for step in Step:
            assert recorded[step.value] == pytest.approx(
                fitted.time(step, 32), rel=1e-9
            )

    def test_store_overrides_base_system(self):
        base = paper_testbed()
        store = ProfileStore()
        store.ingest_trace(small_trace(device="cpu-0", scale=4.0), tile_size=16)
        system = store.to_system(base=base)
        assert set(system.device_ids) == set(base.device_ids)
        assert system.device("cpu-0").time(Step.T, 16) != base.device("cpu-0").time(Step.T, 16)
        assert system.device("gtx580-0").time(Step.T, 16) == base.device("gtx580-0").time(Step.T, 16)


class TestPerfTracker:
    def _write(self, path, speedups):
        for s in speedups:
            append_record(
                path,
                "batched_updates",
                [{"grid": 8, "tile_size": 16, "speedup": s}],
            )

    def test_improvement_passes(self, tmp_path):
        p = tmp_path / "BENCH_batched_updates.json"
        self._write(p, [3.0, 3.2, 3.4])
        report = compare_trajectory(p)
        assert report.ok
        assert report.rows[0].baseline == pytest.approx(3.1)
        assert report.rows[0].newest == pytest.approx(3.4)

    def test_injected_regression_fails(self, tmp_path):
        p = tmp_path / "BENCH_batched_updates.json"
        self._write(p, [3.0, 3.2, 3.1 * 0.75])  # >20% below the median baseline
        report = compare_trajectory(p)
        assert not report.ok
        assert report.regressions[0].metric == "speedup"
        assert "REGRESSED" in report.to_text()

    def test_small_wobble_within_threshold_passes(self, tmp_path):
        p = tmp_path / "BENCH_batched_updates.json"
        self._write(p, [3.0, 3.2, 2.9])
        assert compare_trajectory(p).ok

    def test_lower_is_better_direction(self, tmp_path):
        p = tmp_path / "BENCH_traced.json"
        for s in (1.0, 1.0, 1.5):
            append_record(
                p,
                "traced_run",
                [{"runtime": "serial", "n": 96, "tile_size": 16, "makespan_seconds": s}],
            )
        report = compare_trajectory(p)
        assert not report.ok  # makespan rose 50%

    def test_single_record_skipped(self, tmp_path):
        p = tmp_path / "BENCH_batched_updates.json"
        self._write(p, [3.0])
        report = compare_trajectory(p)
        assert report.ok
        assert report.skipped

    def test_unknown_benchmark_is_informational(self, tmp_path):
        p = tmp_path / "BENCH_custom.json"
        for v in (1.0, 10.0):
            append_record(p, "custom_thing", [{"case": "x", "value": v}])
        report = compare_trajectory(p)
        assert report.ok  # 10x delta, but nothing gated
        assert report.rows and not report.rows[0].gated

    def test_record_traced_run(self, tmp_path):
        tracer = Tracer()
        a = np.random.default_rng(4).standard_normal((64, 64))
        SerialRuntime(tracer=tracer).factorize(a, 16)
        p = record_traced_run(tmp_path / "BENCH_t.json", "serial", 64, 16, tracer.to_trace())
        doc = json.loads(p.read_text())
        case = doc[0]["cases"][0]
        assert case["runtime"] == "serial"
        assert case["makespan_seconds"] > 0
        assert case["compute_busy_seconds"] > 0

    def test_load_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("not json")
        with pytest.raises(ObservabilityError):
            compare_trajectory(p)
