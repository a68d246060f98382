"""Regenerates paper Fig. 3 (DAG structure) and benchmarks DAG construction."""

from repro.dag import build_dag
from repro.dag.schedule import _compile
from repro.experiments import fig3_dag

from .conftest import run_experiment_benchmark


def test_fig3_dag_structure(benchmark, quick):
    result = run_experiment_benchmark(benchmark, fig3_dag, quick)
    # TT has more tasks but a shorter or equal critical path per grid.
    by_grid = {}
    for grid, elim, tasks, _edges, cp, _width in result.rows:
        by_grid.setdefault(grid, {})[elim] = (tasks, cp)
    for grid, d in by_grid.items():
        assert d["TT"][0] >= d["TS"][0], grid


def test_dag_build_throughput(benchmark):
    """Tasks/second of the dependency-inference builder (20x20 grid)."""
    dag = benchmark(build_dag, 20, 20)
    assert len(dag) == 2870


def test_schedule_compile(benchmark):
    """Cold compile of a cached schedule (20x20 grid, b=32): the one-off
    cost a runtime pays per configuration instead of per call."""

    sched = benchmark(_compile.__wrapped__, 20, 20, "flat", False, 32)
    assert len(sched) == 2870 and len(sched.order) == 2870
