"""Command-line interface: ``python -m repro`` / ``tiledqr``.

Subcommands:

* ``experiment <id>`` — regenerate any paper table/figure
  (``table1 fig3 fig4 fig5 fig6 fig8 fig9 fig10 table3`` plus the
  ablations).
* ``plan <n>`` — print the optimized distribution plan for an n x n
  matrix on the paper testbed.
* ``factorize <n>`` — run a real numeric tiled QR and report the
  residual plus the simulated heterogeneous-system time;
  ``--checkpoint-every/--checkpoint-out`` snapshot mid-run and
  ``--resume`` finishes an interrupted run.
* ``chaos <n> --plan PLAN.json`` — run a factorization under a
  deterministic fault-injection plan (kernel exceptions, hangs, worker
  kills, tile corruption) and print the resilience report: faults
  injected, retries, failovers, overhead vs a clean run.
* ``trace <n|file.jsonl>`` — record a traced real run (or summarize a
  saved JSONL trace): per-kernel time share, critical path, worker
  utilization; ``--diff`` reports per-kernel sim-vs-real prediction
  error, ``--chrome`` exports Chrome Trace Event JSON, ``--profile-out``
  feeds a kernel profile store, ``--perf-out`` appends a perf
  trajectory point.
* ``top <n>`` — run a live factorization with the in-run telemetry
  pipeline on and render a refreshing dashboard: per-device progress,
  EWMA kernel durations, critical-path ETA, straggler flags
  (``--once`` prints a single final snapshot; ``--stream-out`` streams
  the event bus to JSONL for ``watch --attach``).
* ``watch --attach run.jsonl`` — follow a streamed live-telemetry file
  (written by ``top --stream-out``, possibly by another process,
  mid-run) and render the same dashboard from it.
* ``metrics --from-trace run.jsonl`` — rebuild a metrics registry from
  a saved trace and print it in Prometheus text exposition format.
* ``perf`` — compare the newest ``BENCH_*.json`` points against their
  trajectory baselines (``--check`` gates CI).
* ``backends`` — list the registered kernel backends; ``--check`` runs
  the cross-backend conformance harness (every backend vs the reference
  oracle) and exits nonzero on any mismatch.
* ``postmortem BUNDLE.zip`` — root-cause a failure bundle (written by
  ``--bundle-out`` on ``factorize``/``chaos``/``top`` when a run dies):
  classification, responsible FaultSpec when chaos seeded it, causal
  timeline, stranded tasks, where to resume from.
* ``list`` — list available experiments.

Exit codes (documented in ``docs/API.md``): ``0`` success, ``2``
configuration/usage, ``4`` numerical-health failure, ``5``
infrastructure failure (worker death, hang, timeout, injected fault),
``130`` interrupted, ``1`` any other failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

#: CLI exit codes, one per failure class so scripts and CI can branch on
#: *why* a run died without parsing stderr.  2 follows the argparse
#: usage-error convention, 130 the shell's SIGINT convention; 4 and 5
#: split "the math went bad" from "the machinery went bad".
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 4
EXIT_INFRASTRUCTURE = 5
EXIT_INTERRUPTED = 130

#: Failure class (see ``repro.observability.postmortem.classify_error``)
#: -> process exit code.
_CLASS_EXIT = {
    "numerical": EXIT_NUMERICAL,
    "worker_death": EXIT_INFRASTRUCTURE,
    "hang": EXIT_INFRASTRUCTURE,
    "timeout": EXIT_INFRASTRUCTURE,
    "injected-fault": EXIT_INFRASTRUCTURE,
    "config": EXIT_CONFIG,
    "interrupted": EXIT_INTERRUPTED,
}


def exit_code_for(exc: BaseException) -> int:
    """Exit code for a terminal error, per its failure classification."""
    from .observability.postmortem import classify_error

    return _CLASS_EXIT.get(classify_error(exc), EXIT_FAILURE)


def _bundle_hint(path) -> None:
    from pathlib import Path

    if path and Path(path).is_file():
        print(
            f"failure bundle written to {path} "
            f"(inspect with `tiledqr postmortem {path}`)",
            file=sys.stderr,
        )


def _cmd_list(_args) -> int:
    from .experiments import ALL_EXPERIMENTS

    print("available experiments:")
    for name, mod in ALL_EXPERIMENTS.items():
        doc = (mod.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:22s} {doc}")
    return 0


def _cmd_experiment(args) -> int:
    import json
    from pathlib import Path

    from .experiments import ALL_EXPERIMENTS

    if args.id == "all":
        names = list(ALL_EXPERIMENTS)
    elif args.id in ALL_EXPERIMENTS:
        names = [args.id]
    else:
        print(f"unknown experiment {args.id!r}; try 'list'", file=sys.stderr)
        return 2
    collected = []
    for name in names:
        result = ALL_EXPERIMENTS[name].run(quick=args.quick)
        print(result.to_text())
        print()
        collected.append(
            {
                "name": result.name,
                "title": result.title,
                "headers": result.headers,
                "rows": [[_jsonable(v) for v in row] for row in result.rows],
                "paper_expectation": result.paper_expectation,
                "observations": result.observations,
            }
        )
    if args.out:
        path = Path(args.out)
        path.write_text(json.dumps(collected, indent=1))
        print(f"results written to {path}")
    return 0


def _jsonable(v):
    import numpy as np

    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v if isinstance(v, (int, float, str, bool, type(None))) else str(v)


def _cmd_plan(args) -> int:
    from .core.optimizer import Optimizer
    from .devices.registry import paper_testbed
    from .errors import ObservabilityError
    from .observability import DecisionAudit, explain_plan

    system = paper_testbed()
    if args.profile:
        from .observability import ProfileStore

        try:
            store = ProfileStore.load(args.profile)
            system = store.to_system(base=system)
        except ObservabilityError as exc:
            print(f"cannot use profile store {args.profile}: {exc}", file=sys.stderr)
            return 2
        print(f"using measured kernel times from {args.profile} "
              f"({store.num_runs} run(s), devices {store.devices()}, "
              f"backends {store.backends()})")
        opt = Optimizer(system, profile=store)
    else:
        opt = Optimizer(system)
    audit = DecisionAudit()
    plan = opt.plan(
        matrix_size=args.n, tile_size=args.tile_size, audit=audit, tree=args.tree
    )
    print(system.describe(args.tile_size))
    print()
    print(plan.describe())
    print(f"elimination tree: {plan.notes['tree']} (--tree {args.tree})")
    print(f"Alg. 3 prediction (p*, per-p Top+Tcomm):")
    for row in plan.notes["predicted"]:
        marker = " <-- selected" if row.num_devices == plan.num_devices else ""
        print(
            f"  p={row.num_devices}: Top={row.t_op*1e3:.3f} ms "
            f"Tcomm={row.t_comm*1e3:.3f} ms total={row.total*1e3:.3f} ms{marker}"
        )
    if args.explain:
        print()
        print(explain_plan(plan))
    return 0


def _cmd_backends(args) -> int:
    """List registered kernel backends; --check runs the conformance harness."""
    import json
    from pathlib import Path

    from .kernels.backends import DEFAULT_BACKEND, backend_info

    if args.check:
        from .kernels.backends.conformance import run_conformance

        report = run_conformance()
        print(report.to_text())
        if args.json:
            Path(args.json).write_text(report.to_json())
            print(f"conformance report written to {args.json}")
        return 0 if report.passed else 1
    info = backend_info()
    if args.json:
        Path(args.json).write_text(json.dumps(info, indent=1))
        print(f"backend listing written to {args.json}")
        return 0
    print("registered kernel backends:")
    for b in info:
        flags = [f for f, on in (
            ("default", b["default"]),
            ("compiled", b["compiled"]),
            ("bit-exact", b["bit_exact"]),
        ) if on]
        tag = f"  [{', '.join(flags)}]" if flags else ""
        print(f"  {b['name']:12s} {b['description']}{tag}")
    print(
        "\nselect with `--backend NAME` on factorize/trace; verify with "
        "`tiledqr backends --check`"
    )
    return 0


def _resolve_backend_arg(name):
    """Fail fast (exit code 2) on an unknown --backend name."""
    from .errors import KernelError
    from .kernels.backends import resolve_backend

    try:
        resolve_backend(name)
    except KernelError as exc:
        print(str(exc), file=sys.stderr)
        return False
    return True


#: ``--tree`` vocabulary: auto-selection, canonical names, seed aliases.
def _tree_choices():
    from .dag.trees import ALIASES, AUTO, tree_names

    return [AUTO, *tree_names(), *ALIASES]


def _resolve_tree_cli(tree, n: int, tile_size: int) -> str:
    """Canonical tree for a ``--tree`` value (``None`` -> seed default).

    ``auto`` delegates to the optimizer's simulated tree selection on
    the paper testbed at the run's grid size.
    """
    from .dag.trees import AUTO, canonical_tree

    if tree is None:
        return canonical_tree("TS")
    if str(tree).lower() == AUTO:
        from .core.optimizer import Optimizer
        from .devices.registry import paper_testbed

        opt = Optimizer(paper_testbed())
        plan = opt.plan(matrix_size=n, tile_size=tile_size)
        grid = -(-n // tile_size)
        return opt.select_tree(AUTO, grid, grid, tile_size, plan)
    return canonical_tree(tree)


def _cmd_factorize(args) -> int:
    from .core.executor import TiledQR
    from .devices.registry import paper_testbed
    from .utils import frobenius_relative_error

    if args.n > 2048:
        print("numeric factorization is NumPy-bound; use n <= 2048", file=sys.stderr)
        return 2
    if not _resolve_backend_arg(args.backend):
        return 2
    rng = np.random.default_rng(args.seed)
    a = rng.standard_normal((args.n, args.n))

    if args.resume or args.checkpoint_every or args.checkpoint_out or args.bundle_out:
        return _factorize_checkpointed(args, a)

    qr = TiledQR(paper_testbed())
    run = qr.factorize(
        a,
        tile_size=args.tile_size,
        batch_updates=args.batch_updates,
        backend=args.backend,
        tree=args.tree,
    )
    fact = run.factorization
    err = frobenius_relative_error(fact.apply_q(fact.r_dense()), a)
    print(run.plan.describe())
    if args.tree is not None:
        print(f"elimination tree: {run.plan.notes.get('tree')} (--tree {args.tree})")
    print(f"numeric: ||A - QR||/||A|| = {err:.3e}")
    print(f"simulated heterogeneous makespan: {run.report.makespan*1e3:.3f} ms")
    print(f"simulated communication share: {run.report.comm_fraction*100:.1f}%")
    return 0


def _factorize_checkpointed(args, a) -> int:
    """`factorize` with --checkpoint-every/--checkpoint-out/--resume/
    --bundle-out: runs through the resilient runtimes instead of the
    TiledQR executor."""
    from .errors import ReproError
    from .observability import MetricsRegistry
    from .runtime.checkpoint import (
        CheckpointError,
        load_partial_factorization,
        resume_factorization,
    )
    from .runtime.serial import SerialRuntime
    from .runtime.threaded import ThreadedRuntime
    from .utils import frobenius_relative_error

    if (args.checkpoint_every is None) != (args.checkpoint_out is None):
        print(
            "--checkpoint-every and --checkpoint-out must be given together",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    metrics = MetricsRegistry()
    kwargs = dict(
        elimination=_resolve_tree_cli(args.tree, args.n, args.tile_size),
        batch_updates=args.batch_updates,
        metrics=metrics,
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.checkpoint_out,
        backend=args.backend,
        bundle_out=args.bundle_out,
    )

    try:
        if args.resume:
            state = load_partial_factorization(args.resume)
            if args.tree is None:
                # No explicit --tree: adopt the snapshot's recorded tree.
                # An explicit --tree that disagrees with the snapshot is
                # a CheckpointError from the runtime's resume validation.
                kwargs["elimination"] = state.elimination
            if state.shape != a.shape:
                print(
                    f"snapshot {args.resume} is for a {state.shape} matrix, "
                    f"not {a.shape}; pass the original n/seed",
                    file=sys.stderr,
                )
                return 2
            ntasks = len(state.completed)
            print(f"resuming from {args.resume} ({ntasks} task(s) already done)")
            if args.runtime == "threaded":
                runtime = ThreadedRuntime(num_workers=args.workers, **kwargs)
            else:
                runtime = SerialRuntime(**kwargs)
            fact = resume_factorization(args.resume, runtime=runtime)
        else:
            if args.runtime == "threaded":
                runtime = ThreadedRuntime(num_workers=args.workers, **kwargs)
            else:
                runtime = SerialRuntime(**kwargs)
            fact = runtime.factorize(a, args.tile_size)
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        _bundle_hint(args.bundle_out)
        return EXIT_INTERRUPTED
    except CheckpointError as exc:
        print(f"factorization failed: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ReproError as exc:
        print(f"factorization failed: {exc}", file=sys.stderr)
        _bundle_hint(args.bundle_out)
        return exit_code_for(exc)
    err = frobenius_relative_error(fact.apply_q(fact.r_dense()), a)
    print(f"numeric ({args.runtime} runtime): ||A - QR||/||A|| = {err:.3e}")
    ckpts = metrics.snapshot()["counters"].get("resilience.checkpoints", 0)
    if args.checkpoint_out and ckpts:
        print(f"checkpoints written: {int(ckpts)} -> {args.checkpoint_out}")
        print(f"resume with: tiledqr factorize {args.n} --seed {args.seed} "
              f"--resume {args.checkpoint_out}")
    return 0


def _cmd_chaos(args) -> int:
    """Run a factorization under a fault plan and report what happened."""
    import json
    from pathlib import Path
    from time import perf_counter

    from .errors import ReproError, ResilienceError
    from .observability import MetricsRegistry, Tracer, write_jsonl
    from .resilience import (
        ChaosEngine,
        FaultPlan,
        ResilienceReport,
        RetryPolicy,
        resilience_counters,
    )
    from .runtime import tiled_qr

    if args.n > 2048:
        print("numeric factorization is NumPy-bound; use n <= 2048", file=sys.stderr)
        return 2
    try:
        plan = FaultPlan.load(args.plan)
    except (ResilienceError, OSError) as exc:
        print(f"cannot load fault plan {args.plan}: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    a = rng.standard_normal((args.n, args.n))
    tree = _resolve_tree_cli(args.tree, args.n, args.tile_size)

    t0 = perf_counter()
    clean = tiled_qr(a, args.tile_size, elimination=tree)
    clean_seconds = perf_counter() - t0

    metrics = MetricsRegistry()
    tracer = Tracer(metrics=metrics)
    policy = RetryPolicy(
        max_attempts=args.max_attempts,
        backoff=args.backoff,
        deadline=args.deadline,
    )
    # --bundle-out: run with a live bus so the flight recorder inside the
    # runtime's BundleCapture has retries/faults/failovers to record.
    bus = None
    if args.bundle_out:
        from .observability import TelemetryBus

        bus = TelemetryBus()
    t0 = perf_counter()
    try:
        if args.runtime == "multiprocess":
            from .core.optimizer import Optimizer
            from .devices.registry import paper_testbed

            dist = Optimizer(paper_testbed()).plan(
                matrix_size=args.n,
                tile_size=args.tile_size,
                num_devices=args.devices,
            )
            print(f"devices: {', '.join(dist.participants)} (main {dist.main_device})")
            from .runtime.multiprocess import MultiprocessRuntime

            fact = MultiprocessRuntime(
                dist,
                elimination=tree,
                tracer=tracer,
                retry_policy=policy,
                chaos_plan=plan,
                metrics=metrics,
                health_checks=args.health_checks,
                bus=bus,
                bundle_out=args.bundle_out,
            ).factorize(a, args.tile_size)
        else:
            chaos = ChaosEngine(plan)
            kwargs = dict(
                elimination=tree,
                tracer=tracer,
                retry_policy=policy,
                chaos=chaos,
                metrics=metrics,
                health_checks=args.health_checks,
                bus=bus,
                bundle_out=args.bundle_out,
            )
            if args.runtime == "threaded":
                from .runtime.threaded import ThreadedRuntime

                fact = ThreadedRuntime(num_workers=args.workers, **kwargs).factorize(
                    a, args.tile_size
                )
            else:
                from .runtime.serial import SerialRuntime

                fact = SerialRuntime(**kwargs).factorize(a, args.tile_size)
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        _bundle_hint(args.bundle_out)
        return EXIT_INTERRUPTED
    except ReproError as exc:
        print(f"factorization did not survive the fault plan: {exc}", file=sys.stderr)
        _bundle_hint(args.bundle_out)
        return exit_code_for(exc)
    finally:
        if bus is not None:
            bus.close()
    wall = perf_counter() - t0

    report = ResilienceReport(
        n=args.n,
        runtime=args.runtime,
        residual=fact.reconstruction_error(a),
        wall_seconds=wall,
        clean_seconds=clean_seconds,
        counters=resilience_counters(metrics),
        events=[
            f"{rec.kind}: {rec.label}" for rec in tracer.annotation_records()
        ],
        identical_to_clean=bool(
            np.array_equal(fact.r_dense(), clean.r_dense())
        ),
    )
    print(report.to_text())
    if args.trace_out:
        path = write_jsonl(tracer.to_trace(), args.trace_out)
        print(f"trace written to {path}")
    if args.json:
        Path(args.json).write_text(json.dumps(report.to_dict(), indent=1))
        print(f"report JSON written to {args.json}")
    return 0


def _build_live_pipeline(args, n: int, tree: str, metrics):
    """(bus, tracker, detector, sink) for a live-telemetry CLI run."""
    from .dag import build_dag
    from .dag.analysis import task_weight_model
    from .observability import (
        JsonlStreamSink,
        ProgressTracker,
        StragglerDetector,
        TelemetryBus,
        predicted_durations,
        provenance_meta,
    )

    grid = -(-n // args.tile_size)
    profile = None
    if getattr(args, "profile", None):
        from .errors import ObservabilityError
        from .observability import ProfileStore

        try:
            profile = ProfileStore.load(args.profile)
        except ObservabilityError as exc:
            print(f"cannot use profile store {args.profile}: {exc}", file=sys.stderr)
            profile = None
    bus = TelemetryBus(heartbeat_interval=args.heartbeat)
    dag = build_dag(grid, grid, tree)
    weight = task_weight_model(args.tile_size, profile=profile)
    tracker = ProgressTracker(dag, weight).attach(bus)
    predicted = (
        predicted_durations(profile, args.tile_size) if profile is not None else None
    )
    detector = StragglerDetector(
        predicted=predicted, factor=args.straggler_factor, metrics=metrics
    ).attach(bus)
    sink = None
    if args.stream_out:
        sink = JsonlStreamSink(
            args.stream_out,
            meta=provenance_meta(
                runtime=args.runtime, n=n, b=args.tile_size,
                elimination=tree, seed=args.seed,
            ),
        ).attach(bus)
    return bus, tracker, detector, sink


def _cmd_top(args) -> int:
    """Live dashboard over a real factorization run."""
    import threading
    from pathlib import Path

    from .errors import ReproError, ResilienceError
    from .observability import MetricsRegistry, render_dashboard
    from .observability.live.dashboard import ANSI_REPAINT
    from .resilience import ChaosEngine, FaultPlan, RetryPolicy

    if args.n > 2048:
        print("numeric factorization is NumPy-bound; use n <= 2048", file=sys.stderr)
        return 2
    if not _resolve_backend_arg(args.backend):
        return 2
    chaos_plan = None
    if args.chaos:
        try:
            chaos_plan = FaultPlan.load(args.chaos)
        except (ResilienceError, OSError) as exc:
            print(f"cannot load fault plan {args.chaos}: {exc}", file=sys.stderr)
            return 2
    tree = _resolve_tree_cli(args.tree, args.n, args.tile_size)
    metrics = MetricsRegistry()
    bus, tracker, detector, sink = _build_live_pipeline(args, args.n, tree, metrics)
    capture = None
    if args.bundle_out:
        from .observability.postmortem import BundleCapture

        # CLI-level capture (not the runtime's bundle_out knob) so the
        # bundle embeds the dashboard's ProgressTracker snapshot too.
        capture = BundleCapture(
            args.bundle_out,
            bus=bus,
            metrics=metrics,
            fault_plan=chaos_plan,
            tracker=tracker,
            meta={
                "runtime": args.runtime, "n": args.n, "b": args.tile_size,
                "elimination": tree, "seed": args.seed,
            },
        )
    policy = None
    if chaos_plan is not None or args.deadline is not None:
        policy = RetryPolicy(max_attempts=3, backoff=0.0, deadline=args.deadline)

    rng = np.random.default_rng(args.seed)
    a = rng.standard_normal((args.n, args.n))
    kwargs = dict(
        elimination=tree, batch_updates=args.batch_updates,
        retry_policy=policy, metrics=metrics, backend=args.backend, bus=bus,
    )
    chaos = ChaosEngine(chaos_plan) if chaos_plan is not None else None
    if args.runtime == "multiprocess":
        from .core.optimizer import Optimizer
        from .devices.registry import paper_testbed
        from .runtime.multiprocess import MultiprocessRuntime

        dist = Optimizer(paper_testbed()).plan(
            matrix_size=args.n, tile_size=args.tile_size, num_devices=args.devices
        )
        runtime = MultiprocessRuntime(dist, chaos_plan=chaos_plan, **kwargs)
    elif args.runtime == "threaded":
        from .runtime.threaded import ThreadedRuntime

        runtime = ThreadedRuntime(num_workers=args.workers, chaos=chaos, **kwargs)
    else:
        from .runtime.serial import SerialRuntime

        runtime = SerialRuntime(chaos=chaos, **kwargs)

    outcome: dict = {}

    def run() -> None:
        try:
            outcome["fact"] = runtime.factorize(a, args.tile_size)
        except BaseException as exc:  # surfaced on the main thread
            outcome["error"] = exc

    worker = threading.Thread(target=run, name="tiledqr-top-run", daemon=True)
    worker.start()
    try:
        while not args.once and worker.is_alive():
            frame = render_dashboard(tracker.snapshot())
            sys.stdout.write(ANSI_REPAINT + frame + "\n")
            sys.stdout.flush()
            worker.join(args.refresh)
        worker.join()
        # The runtime only drains the bus on a clean finish; after a
        # failure, flush undelivered events to the sink and recorder
        # before the finally below closes them.
        bus.drain()
        if "error" in outcome and capture is not None:
            capture.capture(outcome["error"])
    except KeyboardInterrupt:
        # Orderly teardown even though the run thread is abandoned: write
        # the interrupted-run bundle (drains the bus), stop the bus
        # dispatcher, and flush the stream sink so every event the bus
        # delivered is on disk.
        print("\ninterrupted; abandoning the in-flight run (daemon thread)")
        if capture is not None:
            capture.capture(KeyboardInterrupt("interrupted by user"))
            _bundle_hint(args.bundle_out)
        bus.close()
        if sink is not None:
            sink.flush()
        return EXIT_INTERRUPTED
    finally:
        if sink is not None:
            sink.close()
        if capture is not None:
            capture.close()
    print(render_dashboard(tracker.snapshot()))
    print()
    print(detector.report())
    if sink is not None:
        print(f"\nlive event stream written to {Path(args.stream_out)} "
              f"({sink.written} event(s))")
    if "error" in outcome:
        exc = outcome["error"]
        bus.close()
        if isinstance(exc, ReproError):
            print(f"factorization failed: {exc}", file=sys.stderr)
            _bundle_hint(args.bundle_out)
            return exit_code_for(exc)
        raise exc
    bus.close()
    return 0


def _cmd_watch(args) -> int:
    """Follow a streamed live-telemetry JSONL file and render the dashboard."""
    import time
    from pathlib import Path

    from .errors import ObservabilityError
    from .observability import ProgressTracker, read_live_events, render_dashboard
    from .observability.live.dashboard import ANSI_REPAINT

    path = Path(args.attach)
    deadline = time.monotonic() + args.wait
    while not path.is_file():
        if time.monotonic() >= deadline:
            print(f"no live stream at {path}", file=sys.stderr)
            return 2
        time.sleep(0.1)
    try:
        while True:
            try:
                meta, events = read_live_events(path)
            except ObservabilityError as exc:
                print(f"cannot read {path}: {exc}", file=sys.stderr)
                return 2
            # Re-fold the whole stream each frame: the file is append-only
            # and a fresh tracker keeps the fold trivially consistent.
            tracker = ProgressTracker()
            for ev in events:
                tracker.feed(ev)
            now = events[-1].t if events else None
            frame = render_dashboard(tracker.snapshot(now=now))
            if args.once:
                print(frame)
                return 0
            sys.stdout.write(ANSI_REPAINT + frame + "\n")
            sys.stdout.flush()
            if tracker.finished:
                return 0
            time.sleep(args.refresh)
    except KeyboardInterrupt:
        print()
        return 130


def _cmd_postmortem(args) -> int:
    """Root-cause a failure bundle: classification, narrative, resume hint."""
    import json

    from .errors import ObservabilityError
    from .observability.postmortem import analyze_bundle

    try:
        report = analyze_bundle(args.bundle)
    except ObservabilityError as exc:
        print(f"cannot analyze {args.bundle}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.json:
        print(json.dumps(report.to_dict(), indent=1))
    else:
        print(report.to_text())
    return EXIT_OK


def _cmd_metrics(args) -> int:
    """Rebuild a metrics registry from a saved trace; print Prometheus text."""
    from pathlib import Path

    from .errors import ObservabilityError
    from .observability import MetricsRegistry, load_jsonl

    try:
        trace = load_jsonl(Path(args.from_trace))
    except (ObservabilityError, OSError) as exc:
        print(f"cannot load {args.from_trace}: {exc}", file=sys.stderr)
        return 2
    b = trace.meta.get("b") or trace.meta.get("tile_size") or args.tile_size
    registry = MetricsRegistry()
    for rec in trace.tasks:
        registry.observe_kernel(rec.task.kind, int(b), rec.duration, rec.task.ncols)
    for ann in trace.annotations:
        registry.counter(f"trace.annotation.{ann.kind}").inc()
    text = registry.to_prometheus_text(prefix=args.prefix)
    if args.out:
        Path(args.out).write_text(text)
        print(f"prometheus exposition written to {args.out} "
              f"(tile size {int(b)}, {len(trace.tasks)} task record(s))")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gantt(args) -> int:
    from .comm.topology import pcie_star
    from .core.optimizer import Optimizer
    from .dag import build_dag
    from .devices.registry import paper_testbed
    from .sim.engine import DiscreteEventSimulator
    from .sim.gantt import ascii_gantt, to_chrome_trace

    if args.n > 1600:
        print("gantt uses the task-level simulator; use n <= 1600", file=sys.stderr)
        return 2
    system = paper_testbed()
    topology = pcie_star(system.devices)
    opt = Optimizer(system, topology)
    plan = opt.plan(matrix_size=args.n, tile_size=args.tile_size)
    grid = -(-args.n // plan.tile_size)
    tree = _resolve_tree_cli(args.tree, args.n, args.tile_size)
    dag = build_dag(grid, grid, tree)
    trace = DiscreteEventSimulator(system, topology).run(dag, plan)
    trace.meta["elimination"] = tree
    print(plan.describe())
    print()
    print(ascii_gantt(trace, width=args.width))
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(to_chrome_trace(trace))
        print(f"\nChrome trace written to {args.out}")
    return 0


def _write_chrome(trace, path: str) -> None:
    from pathlib import Path

    from .sim.gantt import to_chrome_trace

    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(to_chrome_trace(trace))
    print(f"Chrome trace written to {p} (open in chrome://tracing or Perfetto)")


def _update_profile(
    trace, tile_size: int, path: str, meta: dict | None = None,
    backend: str = "reference",
) -> None:
    from pathlib import Path
    from time import strftime

    from .devices.calibration import paper_cpu_i7_3820
    from .errors import ObservabilityError
    from .observability import ProfileStore

    store = ProfileStore.load(path) if Path(path).is_file() else ProfileStore()
    try:
        rid = store.ingest_trace(
            trace, tile_size, recorded_at=strftime("%Y-%m-%dT%H:%M:%S"), meta=meta,
            backend=backend,
        )
    except ObservabilityError as exc:
        print(f"profile store not updated: {exc}", file=sys.stderr)
        return
    store.save(path)
    print(f"profile store updated: {path} (run {rid}, now {store.num_runs} run(s))")
    print(store.report())
    print(store.drift_report(paper_cpu_i7_3820()))


def _cmd_trace(args) -> int:
    from pathlib import Path

    from .observability import (
        MetricsRegistry,
        Tracer,
        diff_traces,
        expand_batched,
        load_jsonl,
        provenance_meta,
        record_traced_run,
        summarize_trace,
        write_jsonl,
    )

    from .errors import ObservabilityError

    target = args.target
    if Path(target).is_file():
        try:
            trace = load_jsonl(Path(target))
        except ObservabilityError as exc:
            print(f"cannot load {target}: {exc}", file=sys.stderr)
            return 2
        print(f"trace: {target}")
        print(summarize_trace(trace).to_text())
        if args.chrome:
            _write_chrome(trace, args.chrome)
        if args.profile_out:
            _update_profile(trace, args.tile_size, args.profile_out)
        if args.diff is not None:
            if args.diff is True:
                print("--diff with a trace file needs a second file to compare against",
                      file=sys.stderr)
                return 2
            try:
                other = load_jsonl(Path(args.diff))
            except ObservabilityError as exc:
                print(f"cannot load {args.diff}: {exc}", file=sys.stderr)
                return 2
            print()
            print(diff_traces(expand_batched(trace), expand_batched(other)).to_text())
        return 0

    try:
        n = int(target)
    except ValueError:
        print(f"target {target!r} is neither a trace file nor a matrix size",
              file=sys.stderr)
        return 2
    if n > 2048:
        print("numeric factorization is NumPy-bound; use n <= 2048", file=sys.stderr)
        return 2
    if not _resolve_backend_arg(args.backend):
        return 2
    from .kernels.backends import DEFAULT_BACKEND

    backend = args.backend or DEFAULT_BACKEND
    metrics = MetricsRegistry()
    tracer = Tracer(metrics=metrics)
    rng = np.random.default_rng(args.seed)
    a = rng.standard_normal((n, n))
    tree = _resolve_tree_cli(args.tree, n, args.tile_size)
    plan = None
    if args.runtime == "serial":
        from .runtime.serial import SerialRuntime

        SerialRuntime(
            elimination=tree, tracer=tracer,
            batch_updates=args.batch_updates, backend=args.backend,
        ).factorize(a, args.tile_size)
    elif args.runtime == "threaded":
        from .runtime.threaded import ThreadedRuntime

        ThreadedRuntime(
            num_workers=args.workers, elimination=tree, tracer=tracer,
            batch_updates=args.batch_updates, backend=args.backend,
        ).factorize(a, args.tile_size)
    else:
        from .core.optimizer import Optimizer
        from .devices.registry import paper_testbed
        from .observability import DecisionAudit
        from .runtime.multiprocess import MultiprocessRuntime

        plan = Optimizer(paper_testbed()).plan(
            matrix_size=n, tile_size=args.tile_size, audit=DecisionAudit()
        )
        MultiprocessRuntime(
            plan, tracer=tracer, batch_updates=args.batch_updates,
            elimination=tree, backend=args.backend,
        ).factorize(a, args.tile_size)
    trace = tracer.to_trace()
    trace.meta["elimination"] = tree
    trace.meta["runtime"] = args.runtime
    print(
        f"traced real run: {args.runtime} runtime, n={n}, b={args.tile_size}, "
        f"tree={tree}"
    )
    print(summarize_trace(trace).to_text())
    rates = metrics.kernel_rates()
    if rates:
        print("achieved GFLOP/s (flops-model rate per call):")
        for kern in sorted(rates):
            s = rates[kern]
            print(
                f"  {kern:6s} mean {s['mean']:8.2f}  p50 {s['p50']:8.2f}  "
                f"p95 {s['p95']:8.2f}  p99 {s['p99']:8.2f}"
            )
    if args.out:
        from .observability.analysis import infer_grid

        meta = provenance_meta(
            runtime=args.runtime,
            n=n,
            b=args.tile_size,
            grid=list(infer_grid(trace)),
            elimination=tree,
            batch_updates=args.batch_updates,
            workers=args.workers if args.runtime == "threaded" else None,
            seed=args.seed,
            backend=backend,
            decisions=(
                plan.notes["audit"].to_dict()["decisions"]
                if plan is not None else None
            ),
            profile_store=args.profile_out,
        )
        path = write_jsonl(trace, args.out, meta=meta)
        print(f"trace written to {path}")
    if args.chrome:
        _write_chrome(trace, args.chrome)
    if args.profile_out:
        _update_profile(
            trace,
            args.tile_size,
            args.profile_out,
            meta={
                "runtime": args.runtime, "n": n, "seed": args.seed,
                "backend": backend,
            },
            backend=backend,
        )
    if args.perf_out:
        path = record_traced_run(
            args.perf_out, args.runtime, n, args.tile_size, trace,
            extra={"batch_updates": args.batch_updates, "tree": tree},
        )
        print(f"perf trajectory appended to {path}")
    if args.diff is not None:
        from .core.executor import TiledQR
        from .devices.registry import paper_testbed

        run = TiledQR(paper_testbed(), elimination=tree).simulate(
            n, args.tile_size, fidelity="task"
        )
        sim_trace = run.report.meta["trace"]
        sim_trace.meta["elimination"] = tree
        print()
        print(f"simulated on {run.plan.describe()}")
        # the simulator predicts the unfused DAG; expand batched records
        # so the task multisets are comparable
        print(diff_traces(expand_batched(trace), sim_trace).to_text())
    return 0


def _cmd_perf(args) -> int:
    from pathlib import Path

    from .errors import ObservabilityError
    from .observability import compare_trajectories

    paths = [Path(p) for p in args.paths] if args.paths else sorted(
        Path.cwd().glob("BENCH_*.json")
    )
    if not paths:
        print("no BENCH_*.json trajectories found", file=sys.stderr)
        return 2 if args.check else 0
    try:
        report = compare_trajectories(paths, threshold=args.threshold)
    except ObservabilityError as exc:
        print(f"perf check failed to read trajectories: {exc}", file=sys.stderr)
        return 2
    print(f"trajectories: {', '.join(str(p) for p in paths)}")
    print(report.to_text())
    if args.check and not report.ok:
        return 1
    return 0


def _cmd_report(args) -> int:
    from .experiments.report import generate_report

    out = generate_report(args.out, quick=not args.full, only=args.only)
    print(f"report written to {out}")
    return 0


def _cmd_selfcheck(_args) -> int:
    from .selfcheck import run_selfcheck

    print("repro self-check:")
    ok = run_selfcheck(verbose=True)
    print("all checks passed" if ok else "SELF-CHECK FAILED", flush=True)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tiledqr",
        description="Tiled QR on a modelled CPU+GPU system (ICPP'13 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list experiments")
    p_list.set_defaults(func=_cmd_list)

    p_exp = sub.add_parser("experiment", help="run a paper experiment")
    p_exp.add_argument("id", help="experiment id (or 'all')")
    p_exp.add_argument("--quick", action="store_true", help="reduced sweeps")
    p_exp.add_argument("--out", help="write results JSON to this path")
    p_exp.set_defaults(func=_cmd_experiment)

    p_plan = sub.add_parser("plan", help="show the optimized plan for n x n")
    p_plan.add_argument("n", type=int)
    p_plan.add_argument("--tile-size", type=int, default=16)
    p_plan.add_argument(
        "--explain",
        action="store_true",
        help="print the scheduler decision audit: candidates, measured "
        "inputs, per-candidate predictions, margins (Algs. 2-4)",
    )
    p_plan.add_argument(
        "--profile",
        metavar="STORE.json",
        help="plan on measured kernel times from this profile store "
        "(see `tiledqr trace --profile-out`) instead of the static calibration",
    )
    p_plan.add_argument(
        "--tree",
        choices=_tree_choices(),
        default="auto",
        help="within-panel elimination tree; 'auto' simulates every "
        "registered tree against the plan and picks the fastest "
        "(default: auto; see docs/PERFORMANCE.md)",
    )
    p_plan.set_defaults(func=_cmd_plan)

    p_fact = sub.add_parser("factorize", help="numeric tiled QR of a random matrix")
    p_fact.add_argument("n", type=int)
    p_fact.add_argument("--tile-size", type=int, default=16)
    p_fact.add_argument("--seed", type=int, default=0)
    p_fact.add_argument(
        "--batch-updates",
        action="store_true",
        help="coarsen trailing-matrix updates into row-panel batches "
        "(see docs/PERFORMANCE.md)",
    )
    p_fact.add_argument(
        "--runtime",
        choices=["serial", "threaded"],
        default="serial",
        help="executor for checkpointed/resumed runs (default: serial)",
    )
    p_fact.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="kernel backend to execute with (see `tiledqr backends`; "
        "default: the plan's selected backend, falling back to lapack)",
    )
    p_fact.add_argument("--workers", type=int, default=4, help="threaded worker count")
    p_fact.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        help="write a partial snapshot after every N completed tasks "
        "(requires --checkpoint-out; see docs/RELIABILITY.md)",
    )
    p_fact.add_argument(
        "--checkpoint-out",
        metavar="SNAP.npz",
        help="partial-snapshot path for --checkpoint-every",
    )
    p_fact.add_argument(
        "--resume",
        metavar="SNAP.npz",
        help="finish an interrupted run from this partial snapshot "
        "(pass the original n and --seed so the result can be verified)",
    )
    p_fact.add_argument(
        "--tree",
        choices=_tree_choices(),
        default=None,
        help="within-panel elimination tree ('auto' lets the optimizer "
        "pick by simulated makespan; default: the paper's flat/TS chain)",
    )
    p_fact.add_argument(
        "--bundle-out",
        metavar="BUNDLE.zip",
        help="on any terminal failure, write a failure bundle here "
        "(flight-recorder tail, in-flight tasks, metrics, checkpoint "
        "pointer) for `tiledqr postmortem`",
    )
    p_fact.set_defaults(func=_cmd_factorize)

    p_chaos = sub.add_parser(
        "chaos",
        help="run a factorization under a fault-injection plan and "
        "report retries/failovers/overhead",
    )
    p_chaos.add_argument("n", type=int)
    p_chaos.add_argument(
        "--plan",
        required=True,
        metavar="PLAN.json",
        help="fault plan JSON (see docs/RELIABILITY.md for the format)",
    )
    p_chaos.add_argument(
        "--runtime",
        choices=["serial", "threaded", "multiprocess"],
        default="serial",
        help="executor to sabotage (default: serial); worker kills need "
        "multiprocess",
    )
    p_chaos.add_argument("--workers", type=int, default=4, help="threaded worker count")
    p_chaos.add_argument(
        "--devices",
        type=int,
        default=None,
        help="multiprocess device count (default: let Alg. 3 choose — small "
        "problems may plan a single device, leaving nothing to fail over)",
    )
    p_chaos.add_argument("--tile-size", type=int, default=16)
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument(
        "--max-attempts", type=int, default=3, help="retry budget per task (default: 3)"
    )
    p_chaos.add_argument(
        "--backoff",
        type=float,
        default=0.0,
        help="base retry backoff seconds (default: 0 — chaos runs retry immediately)",
    )
    p_chaos.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-task deadline in seconds; slower attempts count as hangs",
    )
    p_chaos.add_argument(
        "--health-checks",
        action="store_true",
        help="NaN/Inf-check every task's outputs (catches CORRUPT_* faults)",
    )
    p_chaos.add_argument(
        "--trace-out", metavar="OUT.jsonl", help="write the annotated trace here"
    )
    p_chaos.add_argument(
        "--json", metavar="OUT.json", help="also write the report as JSON"
    )
    p_chaos.add_argument(
        "--tree",
        choices=_tree_choices(),
        default=None,
        help="within-panel elimination tree for the run (default: flat/TS)",
    )
    p_chaos.add_argument(
        "--bundle-out",
        metavar="BUNDLE.zip",
        help="on an unsurvived fault plan, write a failure bundle here "
        "(includes the fault plan, so `tiledqr postmortem` names the "
        "responsible FaultSpec)",
    )
    p_chaos.set_defaults(func=_cmd_chaos)

    p_gantt = sub.add_parser("gantt", help="ASCII Gantt of a simulated run")
    p_gantt.add_argument("n", type=int)
    p_gantt.add_argument("--tile-size", type=int, default=16)
    p_gantt.add_argument("--width", type=int, default=100)
    p_gantt.add_argument("--out", help="also write a Chrome trace JSON here")
    p_gantt.add_argument(
        "--tree",
        choices=_tree_choices(),
        default=None,
        help="within-panel elimination tree to simulate (default: flat/TS)",
    )
    p_gantt.set_defaults(func=_cmd_gantt)

    p_trace = sub.add_parser(
        "trace",
        help="record/summarize execution traces; --diff checks sim vs real",
    )
    p_trace.add_argument(
        "target",
        nargs="?",
        default="512",
        help="matrix size to record a traced real run of, or a JSONL trace file "
        "to summarize (default: 512)",
    )
    p_trace.add_argument(
        "--runtime",
        choices=["serial", "threaded", "multiprocess"],
        default="threaded",
        help="real executor to trace (default: threaded)",
    )
    p_trace.add_argument("--workers", type=int, default=4, help="threaded worker count")
    p_trace.add_argument("--tile-size", type=int, default=16)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--out", help="write the recorded trace to this JSONL path")
    p_trace.add_argument(
        "--batch-updates",
        action="store_true",
        help="run (and trace) the batched row-panel update path; batched "
        "tasks appear as UNMQR_BATCH/TSMQR_BATCH spans",
    )
    p_trace.add_argument(
        "--diff",
        nargs="?",
        const=True,
        default=None,
        metavar="OTHER.jsonl",
        help="report per-kernel sim-vs-real prediction error (against a fresh "
        "simulation of the same problem, or against OTHER.jsonl)",
    )
    p_trace.add_argument(
        "--chrome",
        metavar="OUT.json",
        help="also export the trace as Chrome Trace Event JSON "
        "(chrome://tracing / Perfetto)",
    )
    p_trace.add_argument(
        "--profile-out",
        metavar="STORE.json",
        help="ingest the trace into this kernel profile store (created if "
        "missing) and print measured stats + drift vs calibration",
    )
    p_trace.add_argument(
        "--perf-out",
        metavar="BENCH.json",
        help="append makespan/compute time to this perf trajectory "
        "(checked by `tiledqr perf --check`)",
    )
    p_trace.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="kernel backend to trace (see `tiledqr backends`); recorded "
        "runs tag their profile-store timings with it, which feeds the "
        "planner's backend selection",
    )
    p_trace.add_argument(
        "--tree",
        choices=_tree_choices(),
        default=None,
        help="within-panel elimination tree to record (default: flat/TS; "
        "`auto` asks the planner to pick one; recorded in the trace's "
        "provenance header)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_top = sub.add_parser(
        "top",
        help="run a live factorization with in-run telemetry and render "
        "a refreshing dashboard (progress, ETA, stragglers)",
    )
    p_top.add_argument("n", type=int)
    p_top.add_argument(
        "--runtime",
        choices=["serial", "threaded", "multiprocess"],
        default="threaded",
        help="executor to run and watch (default: threaded)",
    )
    p_top.add_argument("--workers", type=int, default=4, help="threaded worker count")
    p_top.add_argument(
        "--devices",
        type=int,
        default=None,
        help="multiprocess device count (default: let Alg. 3 choose)",
    )
    p_top.add_argument("--tile-size", type=int, default=16)
    p_top.add_argument("--seed", type=int, default=0)
    p_top.add_argument(
        "--batch-updates",
        action="store_true",
        help="coarsen trailing updates into row-panel batches",
    )
    p_top.add_argument(
        "--backend", default=None, metavar="NAME",
        help="kernel backend (see `tiledqr backends`)",
    )
    p_top.add_argument(
        "--refresh", type=float, default=0.5,
        help="dashboard repaint interval in seconds (default: 0.5)",
    )
    p_top.add_argument(
        "--once",
        action="store_true",
        help="no live repaint: run to completion, print one final "
        "snapshot (CI/artifact mode)",
    )
    p_top.add_argument(
        "--stream-out",
        metavar="OUT.jsonl",
        help="stream every bus event to this JSONL file as it happens "
        "(readable mid-run by `tiledqr watch --attach`)",
    )
    p_top.add_argument(
        "--straggler-factor",
        type=float,
        default=2.0,
        help="flag a task whose duration is >= FACTOR x prediction "
        "(default: 2.0)",
    )
    p_top.add_argument(
        "--chaos",
        metavar="PLAN.json",
        help="run under this fault-injection plan (see docs/RELIABILITY.md)",
    )
    p_top.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-task deadline seconds (hang classification; chaos runs)",
    )
    p_top.add_argument(
        "--heartbeat",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="heartbeat interval: threaded runs start a monitor thread, "
        "multiprocess runs slice their worker-reply waits and publish "
        "heartbeat.missed on silent slices (default: 0.25)",
    )
    p_top.add_argument(
        "--profile",
        metavar="STORE.json",
        help="predict per-kind durations from this profile store "
        "(straggler detection + ETA weights; default: fleet EWMA + flops)",
    )
    p_top.add_argument(
        "--tree",
        choices=_tree_choices(),
        default=None,
        help="within-panel elimination tree (default: flat/TS)",
    )
    p_top.add_argument(
        "--bundle-out",
        metavar="BUNDLE.zip",
        help="on failure or Ctrl-C, write a failure bundle here "
        "(includes the dashboard's progress snapshot) for "
        "`tiledqr postmortem`",
    )
    p_top.set_defaults(func=_cmd_top)

    p_watch = sub.add_parser(
        "watch",
        help="follow a live-telemetry JSONL stream (from `top --stream-out`) "
        "and render the dashboard",
    )
    p_watch.add_argument(
        "--attach",
        required=True,
        metavar="RUN.jsonl",
        help="live event stream to follow (append-only JSONL)",
    )
    p_watch.add_argument(
        "--refresh", type=float, default=0.5,
        help="re-read/repaint interval in seconds (default: 0.5)",
    )
    p_watch.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )
    p_watch.add_argument(
        "--wait",
        type=float,
        default=0.0,
        help="seconds to wait for the stream file to appear (default: 0)",
    )
    p_watch.set_defaults(func=_cmd_watch)

    p_pm = sub.add_parser(
        "postmortem",
        help="root-cause a failure bundle: classification, responsible "
        "FaultSpec, causal timeline, stranded tasks, resume hint",
    )
    p_pm.add_argument(
        "bundle",
        metavar="BUNDLE.zip",
        help="failure bundle written by --bundle-out on factorize/chaos/top",
    )
    p_pm.add_argument(
        "--json",
        action="store_true",
        help="emit the full report as JSON on stdout (CI-friendly)",
    )
    p_pm.set_defaults(func=_cmd_postmortem)

    p_metrics = sub.add_parser(
        "metrics",
        help="rebuild a metrics registry from a saved trace and print "
        "Prometheus text exposition",
    )
    p_metrics.add_argument(
        "--from-trace",
        required=True,
        metavar="RUN.jsonl",
        help="trace JSONL (from `tiledqr trace --out`/`chaos --trace-out`)",
    )
    p_metrics.add_argument(
        "--tile-size",
        type=int,
        default=16,
        help="tile size fallback when the trace header lacks one",
    )
    p_metrics.add_argument(
        "--prefix", default="tiledqr", help="metric name prefix (default: tiledqr)"
    )
    p_metrics.add_argument(
        "--out", metavar="OUT.prom", help="write the exposition here instead of stdout"
    )
    p_metrics.set_defaults(func=_cmd_metrics)

    p_back = sub.add_parser(
        "backends",
        help="list registered kernel backends; --check runs the "
        "cross-backend conformance harness",
    )
    p_back.add_argument(
        "--check",
        action="store_true",
        help="run every registered backend against the reference oracle "
        "over the conformance shape sweep; exit nonzero on any mismatch",
    )
    p_back.add_argument(
        "--json",
        metavar="OUT.json",
        help="write the listing (or, with --check, the conformance report) "
        "to this path",
    )
    p_back.set_defaults(func=_cmd_backends)

    p_perf = sub.add_parser(
        "perf",
        help="compare the newest BENCH_*.json points against their "
        "trajectory baselines",
    )
    p_perf.add_argument(
        "paths",
        nargs="*",
        help="trajectory files (default: BENCH_*.json in the current directory)",
    )
    p_perf.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero when a gated metric regressed beyond the threshold",
    )
    p_perf.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="relative change counting as a regression (default: 0.20)",
    )
    p_perf.set_defaults(func=_cmd_perf)

    p_check = sub.add_parser("selfcheck", help="quick install sanity battery")
    p_check.set_defaults(func=_cmd_selfcheck)

    p_rep = sub.add_parser("report", help="regenerate the full evaluation as markdown")
    p_rep.add_argument("--out", default="results/report.md")
    p_rep.add_argument("--full", action="store_true", help="paper-scale sweeps")
    p_rep.add_argument("--only", nargs="*", help="experiment ids to include")
    p_rep.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
