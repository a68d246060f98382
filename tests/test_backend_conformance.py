"""Cross-backend conformance: the gate every kernel backend must pass.

Four layers, mirroring the contract in ``docs/KERNELS.md``:

* **registry** — registration/lookup/validation semantics, and
  ``lapack`` as the default;
* **differential kernels** — hypothesis-driven agreement of every
  registered backend with the ``reference`` oracle, per kernel, over
  randomized tile sizes, shapes, and dtypes (``<= 1e-12`` in float64);
* **workspace aliasing** — a shared scratch arena never lets one
  kernel's temporaries corrupt another's operands or factors;
* **end-to-end** — bit-identical R across backends under each runtime
  (serial, threaded, multiprocess) and through the ``TiledQR`` facade,
  plus the packaged :func:`run_conformance` sweep that backs
  ``tiledqr backends --check``.

Backend *selection* (profile-driven, audited) is covered at the end:
:func:`select_kernel_backends` fallback and measured-choice paths, and
the ``kernel_backend`` stage landing in ``Optimizer.plan`` audits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backend_select import select_kernel_backends
from repro.core.executor import TiledQR
from repro.core.optimizer import Optimizer
from repro.errors import KernelError
from repro.kernels import Workspace
from repro.kernels.backends import (
    DEFAULT_BACKEND,
    KERNEL_NAMES,
    FunctionBackend,
    available_backends,
    backend_info,
    get_backend,
    register_backend,
    resolve_backend,
    unregister_backend,
)
from repro.kernels.backends.conformance import (
    check_end_to_end,
    max_abs_diff,
    run_conformance,
    tolerance_for,
)
from repro.observability import ProfileStore
from repro.observability.decisions import STAGE_BACKEND, DecisionAudit, explain_plan
from repro.runtime.multiprocess import MultiprocessRuntime
from repro.runtime.serial import SerialRuntime
from repro.runtime.threaded import ThreadedRuntime
from tests.strategies import (
    DTYPES,
    batch_widths,
    random_tile,
    random_triangular,
    seeds,
    small_tile_sizes,
    tile_sizes,
)
from tests.test_profile_perf import small_trace

REFERENCE = get_backend("reference")

#: Every registered backend; the non-reference ones get the
#: differential treatment (reference vs itself is a tautology).
ALL_BACKENDS = list(available_backends())
OTHER_BACKENDS = [n for n in ALL_BACKENDS if n != "reference"]

dtypes_st = st.sampled_from(DTYPES)


def _clone_reference(name: str, **overrides) -> FunctionBackend:
    """A valid throwaway backend delegating to the reference kernels."""
    kwargs = {k: getattr(REFERENCE, k) for k in KERNEL_NAMES}
    kwargs.update(overrides)
    return FunctionBackend(name=name, description=f"test clone {name}", **kwargs)


def _factor_arrays(f):
    v = f.v2 if hasattr(f, "v2") else f.v
    return [f.r, v, f.tf, f.taus]


def _assert_factors_match(got, want, tol):
    for g, w in zip(_factor_arrays(got), _factor_arrays(want)):
        assert max_abs_diff(g, w) <= tol


class TestRegistry:
    def test_reference_is_registered_and_first(self):
        names = available_backends()
        assert names[0] == DEFAULT_BACKEND
        assert "lapack" in names
        assert list(names[1:]) == sorted(names[1:])

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(KernelError, match="reference"):
            get_backend("no-such-backend")

    def test_resolve_none_string_and_object(self):
        assert resolve_backend(None) is get_backend(DEFAULT_BACKEND)
        assert DEFAULT_BACKEND == "lapack"
        assert resolve_backend("lapack") is get_backend("lapack")
        clone = _clone_reference("unregistered-clone")
        assert resolve_backend(clone) is clone  # objects pass through

    def test_register_refuses_duplicates_unless_replace(self):
        clone = _clone_reference("dup-test")
        register_backend(clone)
        try:
            with pytest.raises(KernelError, match="already registered"):
                register_backend(_clone_reference("dup-test"))
            replacement = _clone_reference("dup-test")
            assert register_backend(replacement, replace=True) is replacement
            assert get_backend("dup-test") is replacement
        finally:
            unregister_backend("dup-test")
        with pytest.raises(KernelError):
            get_backend("dup-test")

    def test_validation_rejects_incomplete_backends(self):
        class MissingKernels:
            name = "broken"
            description = ""
            compiled = False
            bit_exact = True

        with pytest.raises(KernelError, match="missing kernel"):
            register_backend(MissingKernels())
        import dataclasses

        with pytest.raises(KernelError, match="name"):
            register_backend(dataclasses.replace(_clone_reference("x"), name=""))

    def test_backend_info_shape(self):
        info = backend_info()
        assert [d["name"] for d in info] == list(available_backends())
        by_name = {d["name"]: d for d in info}
        assert by_name[DEFAULT_BACKEND]["default"] is True
        for d in info:
            assert isinstance(d["compiled"], bool)
            assert isinstance(d["bit_exact"], bool)
            assert d["description"]


@pytest.mark.parametrize("backend_name", OTHER_BACKENDS)
class TestDifferentialKernels:
    """Each non-reference backend vs the oracle, property-tested."""

    @given(b=tile_sizes, seed=seeds, dtype=dtypes_st, extra_rows=st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_geqrt(self, backend_name, b, seed, dtype, extra_rows):
        be = get_backend(backend_name)
        a = random_tile(seed, (b + extra_rows, b), dtype)
        _assert_factors_match(be.geqrt(a), REFERENCE.geqrt(a), tolerance_for(dtype))

    @given(b=small_tile_sizes, seed=seeds, dtype=dtypes_st, ragged=st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_tsqrt(self, backend_name, b, seed, dtype, ragged):
        be = get_backend(backend_name)
        rng = np.random.default_rng(seed)
        r1 = random_triangular(rng, b, dtype)
        a2 = random_tile(rng, (max(1, b - ragged), b), dtype)
        _assert_factors_match(
            be.tsqrt(r1, a2), REFERENCE.tsqrt(r1, a2), tolerance_for(dtype)
        )

    @given(b=small_tile_sizes, seed=seeds, dtype=dtypes_st)
    @settings(max_examples=20, deadline=None)
    def test_ttqrt(self, backend_name, b, seed, dtype):
        be = get_backend(backend_name)
        rng = np.random.default_rng(seed)
        r1 = random_triangular(rng, b, dtype)
        r2 = random_triangular(rng, b, dtype)
        _assert_factors_match(
            be.ttqrt(r1, r2), REFERENCE.ttqrt(r1, r2), tolerance_for(dtype)
        )

    @given(
        b=small_tile_sizes, seed=seeds, dtype=dtypes_st,
        ncols=st.integers(1, 40), transpose=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_unmqr(self, backend_name, b, seed, dtype, ncols, transpose):
        be = get_backend(backend_name)
        rng = np.random.default_rng(seed)
        f = REFERENCE.geqrt(random_tile(rng, (b, b), dtype))
        c = random_tile(rng, (b, ncols), dtype)
        got, want = c.copy(), c.copy()
        v_before, tf_before = f.v.copy(), f.tf.copy()
        be.unmqr(f, got, transpose=transpose, workspace=Workspace())
        REFERENCE.unmqr(f, want, transpose=transpose)
        assert max_abs_diff(got, want) <= tolerance_for(dtype)
        np.testing.assert_array_equal(f.v, v_before)
        np.testing.assert_array_equal(f.tf, tf_before)

    @given(
        b=small_tile_sizes, seed=seeds, dtype=dtypes_st,
        ncols=st.integers(1, 40), transpose=st.booleans(), tt=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_tsmqr_ttmqr(self, backend_name, b, seed, dtype, ncols, transpose, tt):
        be = get_backend(backend_name)
        rng = np.random.default_rng(seed)
        r1 = random_triangular(rng, b, dtype)
        if tt:
            f = REFERENCE.ttqrt(r1, random_triangular(rng, b, dtype))
            fn, ref_fn = be.ttmqr, REFERENCE.ttmqr
        else:
            f = REFERENCE.tsqrt(r1, random_tile(rng, (b, b), dtype))
            fn, ref_fn = be.tsmqr, REFERENCE.tsmqr
        c1 = random_tile(rng, (b, ncols), dtype)
        c2 = random_tile(rng, (b, ncols), dtype)
        g1, g2, w1, w2 = c1.copy(), c2.copy(), c1.copy(), c2.copy()
        v2_before = f.v2.copy()
        fn(f, g1, g2, transpose=transpose, workspace=Workspace())
        ref_fn(f, w1, w2, transpose=transpose)
        tol = tolerance_for(dtype)
        assert max_abs_diff(g1, w1) <= tol
        assert max_abs_diff(g2, w2) <= tol
        np.testing.assert_array_equal(f.v2, v2_before)

    @given(b=small_tile_sizes, seed=seeds, ntiles=batch_widths)
    @settings(max_examples=15, deadline=None)
    def test_batched_variants(self, backend_name, b, seed, ntiles):
        be = get_backend(backend_name)
        rng = np.random.default_rng(seed)
        fg = REFERENCE.geqrt(random_tile(rng, (b, b)))
        fe = REFERENCE.tsqrt(random_triangular(rng, b), random_tile(rng, (b, b)))
        panel = random_tile(rng, (b, ntiles * b))
        gp, wp = panel.copy(), panel.copy()
        be.unmqr_batch(fg, gp, workspace=Workspace())
        REFERENCE.unmqr_batch(fg, wp)
        assert max_abs_diff(gp, wp) <= 1e-12
        p1 = random_tile(rng, (b, ntiles * b))
        p2 = random_tile(rng, (b, ntiles * b))
        g1, g2, w1, w2 = p1.copy(), p2.copy(), p1.copy(), p2.copy()
        be.tsmqr_batch(fe, g1, g2, workspace=Workspace())
        REFERENCE.tsmqr_batch(fe, w1, w2)
        assert max_abs_diff(g1, w1) <= 1e-12
        assert max_abs_diff(g2, w2) <= 1e-12


@pytest.mark.parametrize("backend_name", ALL_BACKENDS)
class TestWorkspaceAliasing:
    """One shared arena across kernels must never corrupt operands."""

    def test_shared_workspace_matches_fresh_workspaces(self, backend_name, rng):
        be = get_backend(backend_name)
        b = 8
        fg = REFERENCE.geqrt(rng.standard_normal((b, b)))
        fe = REFERENCE.tsqrt(
            np.triu(rng.standard_normal((b, b))), rng.standard_normal((b, b))
        )
        c = rng.standard_normal((b, 3 * b))
        c1 = rng.standard_normal((b, 3 * b))
        c2 = rng.standard_normal((b, 3 * b))

        def run(ws_factory):
            a, x, y = c.copy(), c1.copy(), c2.copy()
            be.unmqr(fg, a, workspace=ws_factory())
            be.tsmqr(fe, x, y, workspace=ws_factory())
            be.unmqr_batch(fg, a, workspace=ws_factory())
            return a, x, y

        shared = Workspace()
        got = run(lambda: shared)
        want = run(Workspace)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_later_kernel_calls_leave_earlier_outputs_alone(self, backend_name, rng):
        be = get_backend(backend_name)
        b = 8
        ws = Workspace()
        fg = REFERENCE.geqrt(rng.standard_normal((b, b)))
        first = rng.standard_normal((b, 2 * b))
        be.unmqr(fg, first, workspace=ws)
        snapshot = first.copy()
        # Hammer the same arena with other work at other widths.
        for width in (b, 4 * b, 1):
            other = rng.standard_normal((b, width))
            be.unmqr(fg, other, workspace=ws)
        fe = REFERENCE.tsqrt(np.triu(rng.standard_normal((b, b))), rng.standard_normal((b, b)))
        be.tsmqr(fe, rng.standard_normal((b, b)), rng.standard_normal((b, b)), workspace=ws)
        np.testing.assert_array_equal(first, snapshot)


class TestEndToEndAcrossRuntimes:
    """Per-runtime R bit-identity between backends (the headline gate)."""

    N, B = 64, 16

    @pytest.fixture(scope="class")
    def matrix(self):
        return np.random.default_rng(99).standard_normal((self.N, self.N))

    @pytest.fixture(scope="class")
    def reference_r(self, matrix):
        return (
            SerialRuntime("TS", backend="reference")
            .factorize(matrix.copy(), self.B)
            .r_dense()
        )

    def _check(self, backend_name, r_got, r_ref):
        if get_backend(backend_name).bit_exact:
            np.testing.assert_array_equal(r_got, r_ref)
        else:
            np.testing.assert_allclose(r_got, r_ref, atol=1e-12 * self.N)

    @pytest.mark.parametrize("elimination", ["TS", "TT"])
    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_serial(self, matrix, backend_name, elimination):
        ref = (
            SerialRuntime(elimination, backend="reference")
            .factorize(matrix.copy(), self.B)
            .r_dense()
        )
        got = (
            SerialRuntime(elimination, backend=backend_name)
            .factorize(matrix.copy(), self.B)
            .r_dense()
        )
        self._check(backend_name, got, ref)

    @pytest.mark.parametrize("batch_updates", [False, True])
    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_threaded(self, matrix, reference_r, backend_name, batch_updates):
        got = (
            ThreadedRuntime(3, backend=backend_name, batch_updates=batch_updates)
            .factorize(matrix.copy(), self.B)
            .r_dense()
        )
        self._check(backend_name, got, reference_r)

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_multiprocess(self, matrix, reference_r, backend_name, optimizer):
        plan = optimizer.plan(matrix_size=self.N, tile_size=self.B)
        got = (
            MultiprocessRuntime(plan, backend=backend_name)
            .factorize(matrix, self.B)
            .r_dense()
        )
        self._check(backend_name, got, reference_r)

    def test_tiledqr_facade_accepts_backend(self, matrix, reference_r, system):
        qr = TiledQR(system)
        for name in ALL_BACKENDS:
            run = qr.factorize(matrix.copy(), self.B, backend=name)
            self._check(name, run.factorization.r_dense(), reference_r)

    def test_tiledqr_facade_rejects_unknown_backend(self, matrix, system):
        with pytest.raises(KernelError, match="unknown kernel backend"):
            TiledQR(system).factorize(matrix.copy(), self.B, backend="nope")


class TestRunConformance:
    def test_sweep_passes_for_every_registered_backend(self):
        report = run_conformance(tile_sizes=(1, 2, 5, 16), end_to_end=True)
        assert report.passed, report.to_text()
        assert set(report.backends) == set(ALL_BACKENDS)
        kernels_seen = {c.kernel for c in report.cases}
        assert {"GEQRT", "TSQRT", "TTQRT", "UNMQR", "TSMQR", "TTMQR",
                "UNMQR_BATCH", "TSMQR_BATCH", "TTMQR_BATCH",
                "END_TO_END"} <= kernels_seen

    def test_report_serializes(self):
        report = run_conformance(tile_sizes=(2,), dtypes=(np.float64,), end_to_end=False)
        d = report.to_dict()
        assert d["kind"] == "backend-conformance-report"
        assert d["passed"] is True and d["failures"] == []
        assert "PASS" in report.to_text()
        import json

        assert json.loads(report.to_json())["num_cases"] == len(report.cases)

    def test_broken_backend_is_caught(self):
        def bad_geqrt(a, *args, **kwargs):
            f = REFERENCE.geqrt(a, *args, **kwargs)
            f.r[...] = f.r + 0.01
            return f

        broken = _clone_reference("broken-geqrt", geqrt=bad_geqrt)
        report = run_conformance(
            backends=[broken], tile_sizes=(4,), dtypes=(np.float64,), end_to_end=True
        )
        assert not report.passed
        assert all(c.kernel in ("GEQRT", "END_TO_END") for c in report.failures())

    def test_input_mutation_is_caught(self):
        def mutating_geqrt(a, *args, **kwargs):
            f = REFERENCE.geqrt(a, *args, **kwargs)
            a = np.asarray(a)
            if a.dtype.kind == "f":
                a += 1.0  # scribble on the caller's tile
            return f

        broken = _clone_reference("mutating-geqrt", geqrt=mutating_geqrt)
        report = run_conformance(
            backends=[broken], tile_sizes=(4,), dtypes=(np.float64,), end_to_end=False
        )
        assert not report.passed
        assert any("input modified" in c.note for c in report.failures())

    def test_end_to_end_bit_exactness_enforced(self):
        case = check_end_to_end(_clone_reference("bit-exact-clone"), REFERENCE)
        assert case.ok and case.max_err == 0.0 and case.tol == 0.0


class TestBackendSelection:
    def test_no_profile_falls_back_to_reference_with_audit(self):
        audit = DecisionAudit()
        choices = select_kernel_backends(("devA", "devB"), 16, audit=audit)
        assert choices == {"devA": DEFAULT_BACKEND, "devB": DEFAULT_BACKEND}
        rec = audit.get(STAGE_BACKEND)
        assert rec is not None
        assert f"{DEFAULT_BACKEND} fallback" in rec.notes["devA"]
        assert all(c.chosen for c in rec.candidates)

    def test_measured_profile_picks_fastest_backend(self):
        store = ProfileStore()
        store.ingest_trace(small_trace(device="dev"), tile_size=16)
        store.ingest_trace(
            small_trace(device="dev", scale=0.5), tile_size=16, backend="lapack"
        )
        audit = DecisionAudit()
        choices = select_kernel_backends(("dev",), 16, profile=store, audit=audit)
        assert choices == {"dev": "lapack"}
        rec = audit.get(STAGE_BACKEND)
        assert rec.chosen == "dev=lapack"
        assert rec.margin > 0
        assert set(rec.inputs["dev"]) == {"reference", "lapack"}
        assert rec.inputs["dev"]["lapack"] < rec.inputs["dev"]["reference"]

    def test_unregistered_backend_measurements_are_ignored(self):
        store = ProfileStore()
        store.ingest_trace(
            small_trace(device="dev", scale=0.1), tile_size=16, backend="vendor-x"
        )
        choices = select_kernel_backends(("dev",), 16, profile=store)
        assert choices == {"dev": DEFAULT_BACKEND}

    def test_tile_size_mismatch_falls_back(self):
        store = ProfileStore()
        store.ingest_trace(
            small_trace(device="dev", b=16), tile_size=16, backend="lapack"
        )
        choices = select_kernel_backends(("dev",), 32, profile=store)
        assert choices == {"dev": DEFAULT_BACKEND}

    def test_optimizer_plan_records_backend_stage(self, system, topology):
        store = ProfileStore()
        for dev in system.device_ids:
            store.ingest_trace(small_trace(device=dev), tile_size=16)
            store.ingest_trace(
                small_trace(device=dev, scale=0.5), tile_size=16, backend="lapack"
            )
        audit = DecisionAudit()
        plan = Optimizer(system, topology, profile=store).plan(
            matrix_size=256, tile_size=16, audit=audit
        )
        backends = plan.notes["backends"]
        assert set(backends) == set(plan.participants)
        assert all(b == "lapack" for b in backends.values())
        text = explain_plan(plan)
        assert STAGE_BACKEND in text and "lapack" in text

    def test_optimizer_without_profile_still_notes_backends(self, optimizer):
        plan = optimizer.plan(matrix_size=128, tile_size=16)
        backends = plan.notes["backends"]
        assert set(backends) == set(plan.participants)
        assert all(b == DEFAULT_BACKEND for b in backends.values())

    def test_profile_backend_ranking_orders_by_score(self):
        store = ProfileStore()
        store.ingest_trace(small_trace(device="dev"), tile_size=16)
        store.ingest_trace(
            small_trace(device="dev", scale=3.0), tile_size=16, backend="lapack"
        )
        ranking = store.backend_ranking(device="dev", tile_size=16)
        assert [name for name, _ in ranking] == ["reference", "lapack"]
        scores = [s for _, s in ranking]
        assert scores == sorted(scores)
        assert store.best_backend(device="dev", tile_size=16) == "reference"
