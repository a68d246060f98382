"""Compiled schedules: structure, cache identity and order determinism."""

from __future__ import annotations

import os
import subprocess
import sys
from heapq import heappop, heappush
from pathlib import Path
from types import MappingProxyType

import pytest

from repro.dag import build_dag, compile_schedule, tree_names
from repro.dag.analysis import bottom_level_ranks, task_weight_model
from repro.dag.schedule import Schedule
from repro.errors import DAGError

GRIDS = [(1, 1), (5, 3), (7, 7), (12, 4)]
TILE = 16


def heap_order(dag, ranks) -> list:
    """The serial runtime's former per-call dispatch loop, kept as the
    oracle: pop the ready task with the highest rank, emission order
    breaking ties."""
    position = {t: n for n, t in enumerate(dag.tasks)}
    waiting = {t: len(dag.preds[t]) for t in dag.tasks}
    heap: list = []
    for t in dag.tasks:
        if waiting[t] == 0:
            heappush(heap, (-ranks[t], position[t], t))
    order = []
    while heap:
        _, _, task = heappop(heap)
        order.append(task)
        for succ in dag.succs[task]:
            waiting[succ] -= 1
            if waiting[succ] == 0:
                heappush(heap, (-ranks[succ], position[succ], succ))
    return order


@pytest.fixture(params=tree_names())
def tree(request):
    return request.param


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
def test_schedule_matches_dag(tree, batch, grid):
    p, q = grid
    sched = compile_schedule(p, q, tree, batch, TILE)
    dag = build_dag(p, q, tree, batch)
    ranks = bottom_level_ranks(dag, task_weight_model(TILE))

    assert sched.tasks == tuple(dag.tasks)
    assert sched.ranks == tuple(ranks[t] for t in dag.tasks)
    for i, t in enumerate(sched.tasks):
        assert sched.index[t] == i
        assert {sched.tasks[d] for d in sched.preds[i]} == dag.preds[t]
        assert {sched.tasks[s] for s in sched.succs[i]} == dag.succs[t]

    # A topological permutation of every task index.
    assert sorted(sched.order) == list(range(len(sched)))
    seen: set[int] = set()
    for i in sched.order:
        assert all(d in seen for d in sched.preds[i])
        seen.add(i)

    assert [sched.tasks[i] for i in sched.order] == heap_order(dag, ranks)


@pytest.mark.parametrize("batch", [False, True])
def test_schedule_is_cached_and_immutable(tree, batch):
    sched = compile_schedule(5, 3, tree, batch, TILE)
    assert compile_schedule(5, 3, tree, batch, TILE) is sched
    for field in ("tasks", "preds", "succs", "ranks", "order"):
        value = getattr(sched, field)
        assert isinstance(value, tuple), field
        assert all(not isinstance(v, list) for v in value), field
    assert isinstance(sched.index, MappingProxyType)
    with pytest.raises(TypeError):
        sched.index[sched.tasks[0]] = 1
    with pytest.raises(AttributeError):
        sched.order = ()


def test_cache_key_uses_canonical_tree_name():
    assert compile_schedule(4, 4, "TS", False, 8) is compile_schedule(4, 4, "flat", False, 8)
    assert compile_schedule(4, 4, "TT", False, 8) is compile_schedule(4, 4, "binary", False, 8)
    assert compile_schedule(4, 4, "TS", False, 8).elimination == "flat"
    assert compile_schedule(4, 4, "flat", False, 8) is not compile_schedule(4, 4, "flat", False, 16)


def test_rejects_bad_configuration():
    with pytest.raises(DAGError):
        compile_schedule(0, 3, "flat", False, 8)
    with pytest.raises(DAGError):
        compile_schedule(3, 3, "no-such-tree", False, 8)


def test_completed_indices_checks_closure():
    sched: Schedule = compile_schedule(3, 3, "flat", False, 8)
    first = sched.tasks[sched.order[0]]
    assert sched.completed_indices([first]) == {sched.order[0]}
    with pytest.raises(DAGError, match="not closed"):
        sched.completed_indices([sched.tasks[sched.order[1]]])
    with pytest.raises(DAGError, match="not in this DAG"):
        sched.completed_indices(compile_schedule(4, 4, "flat", False, 8).tasks[-1:])


_ORDER_DIGEST = (
    "import hashlib\n"
    "from repro.dag import compile_schedule, tree_names\n"
    "h = hashlib.sha256()\n"
    "for tree in tree_names():\n"
    "    for batch in (False, True):\n"
    "        for p, q in %r:\n"
    "            s = compile_schedule(p, q, tree, batch, %d)\n"
    "            h.update(repr([s.tasks[i].label() for i in s.order]).encode())\n"
    "print(h.hexdigest())\n"
) % (GRIDS, TILE)


def test_order_independent_of_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _ORDER_DIGEST],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1] and len(digests[0]) == 64
