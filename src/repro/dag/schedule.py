"""Compiled task schedules: the tiled-QR DAG as immutable index arrays.

The DAG of paper Fig. 3 depends only on the tile grid, the elimination
tree and update batching — never on the matrix values — so the runtimes
compile it once per configuration instead of re-deriving it on every
``factorize`` call.  :func:`compile_schedule` runs the one dependence
inference path (:func:`~repro.dag.builder.build_dag` plus
:func:`~repro.dag.analysis.bottom_level_ranks`) and flattens the result
into tuples of integers: task ``i`` is ``tasks[i]``, its predecessors
and successors are ``preds[i]`` / ``succs[i]`` (ascending indices), its
flop-weighted bottom-level rank is ``ranks[i]``, and ``order`` is the
serial runtime's critical-path list schedule — ready tasks popped
highest rank first, emission index breaking ties.

Results are memoised in a small bounded cache keyed by
``(grid_rows, grid_cols, canonical tree, batch_updates, tile_size)``;
the tile size enters the key because the rank weights (flop counts)
depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from types import MappingProxyType
from typing import Iterable, Mapping

from ..errors import DAGError
from .analysis import bottom_level_ranks, task_weight_model
from .builder import build_dag
from .tasks import Task
from .trees import canonical_tree

#: Compiled schedules kept alive at once (least recently used evicted).
SCHEDULE_CACHE_SIZE = 8


@dataclass(frozen=True, eq=False)
class Schedule:
    """An immutable, index-addressed tiled-QR task graph.

    Attributes
    ----------
    elimination, batch_updates:
        The DAG configuration it was compiled for (``elimination`` is
        the canonical tree name); snapshots record both.
    tasks:
        Every task, in DAG emission (sequential-algorithm) order.
    preds, succs:
        Per-task ascending tuples of predecessor / successor indices.
    ranks:
        Per-task flop-weighted bottom-level rank
        (``task_weight_model(tile_size)``).
    order:
        Critical-path list schedule of all task indices: a topological
        order that always takes the highest-rank ready task, lowest
        index first among equal ranks.
    index:
        Read-only ``Task -> index`` mapping.
    """

    elimination: str
    batch_updates: bool
    tasks: tuple[Task, ...]
    preds: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[int, ...], ...]
    ranks: tuple[float, ...]
    order: tuple[int, ...]
    index: Mapping[Task, int]

    def __len__(self) -> int:
        return len(self.tasks)

    def panel_tasks(self, k: int) -> list[Task]:
        """All tasks of panel ``k`` in emission order."""
        return [t for t in self.tasks if t.k == k]

    def completed_indices(self, completed: Iterable[Task]) -> frozenset[int]:
        """Indices of a completed task set, checked to be a sound partial
        execution state.

        Every completed task must belong to this DAG and have all of its
        predecessors completed (downward closure) — otherwise the state
        cannot have arisen from any legal execution and resuming from it
        would silently compute garbage.  Raises
        :class:`~repro.errors.DAGError` otherwise.
        """
        done: set[int] = set()
        for t in completed:
            i = self.index.get(t)
            if i is None:
                raise DAGError(f"completed task {t} is not in this DAG")
            done.add(i)
        for i in done:
            missing = [d for d in self.preds[i] if d not in done]
            if missing:
                raise DAGError(
                    f"completed set is not closed under dependencies: "
                    f"{self.tasks[i]} done but predecessor "
                    f"{self.tasks[missing[0]]} is not"
                )
        return frozenset(done)


def _critical_path_order(
    preds: tuple[tuple[int, ...], ...],
    succs: tuple[tuple[int, ...], ...],
    ranks: tuple[float, ...],
) -> tuple[int, ...]:
    """List-schedule an index DAG: pop the ready index with the highest
    rank, the lowest index first among equal ranks."""
    waiting = [len(ps) for ps in preds]
    heap = [(-ranks[i], i) for i, w in enumerate(waiting) if w == 0]
    heapify(heap)
    order: list[int] = []
    while heap:
        _, i = heappop(heap)
        order.append(i)
        for s in succs[i]:
            waiting[s] -= 1
            if waiting[s] == 0:
                heappush(heap, (-ranks[s], s))
    return tuple(order)


@lru_cache(maxsize=SCHEDULE_CACHE_SIZE)
def _compile(
    grid_rows: int, grid_cols: int, tree: str, batch_updates: bool, tile_size: int
) -> Schedule:
    dag = build_dag(grid_rows, grid_cols, tree, batch_updates)
    tasks = tuple(dag.tasks)
    index = {t: i for i, t in enumerate(tasks)}
    preds = tuple(tuple(sorted(index[d] for d in dag.preds[t])) for t in tasks)
    succs = tuple(tuple(sorted(index[s] for s in dag.succs[t])) for t in tasks)
    rank_of = bottom_level_ranks(dag, task_weight_model(tile_size))
    ranks = tuple(rank_of[t] for t in tasks)
    return Schedule(
        elimination=dag.elimination,
        batch_updates=batch_updates,
        tasks=tasks,
        preds=preds,
        succs=succs,
        ranks=ranks,
        order=_critical_path_order(preds, succs, ranks),
        index=MappingProxyType(index),
    )


def compile_schedule(
    grid_rows: int,
    grid_cols: int,
    elimination: str,
    batch_updates: bool,
    tile_size: int,
) -> Schedule:
    """The compiled :class:`Schedule` of one tiled-QR configuration.

    Memoised (at most :data:`SCHEDULE_CACHE_SIZE` entries) on the
    canonical tree name, so aliases such as ``"TS"`` and ``"flat"``
    share one entry; repeated calls return the same object.
    """
    return _compile(
        grid_rows, grid_cols, canonical_tree(elimination), bool(batch_updates), tile_size
    )
