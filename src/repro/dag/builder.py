"""Build the tiled-QR task DAG (paper Fig. 3).

Dependencies are derived, not hand-coded: tasks are emitted in the
algorithm's canonical sequential order and every task declares which data
objects (tiles, reflector factors) it reads and writes; read-after-write,
write-after-write and write-after-read orderings then induce exactly the
DAG of Fig. 3.  This makes the builder trivially correct for *every*
within-panel annihilation order: the elimination tree
(:mod:`repro.dag.trees`) only decides which rows get their own GEQRT and
the ordered ``(bot, top)`` merge list per panel — any valid order yields
a correct DAG automatically.

The registered trees are ``flat`` (the paper's sequential TS chain,
alias ``"TS"``), ``flat-tt``, ``binary`` (log-round pairwise reduction,
alias ``"TT"``), ``fibonacci`` and ``greedy`` — see
:mod:`repro.dag.trees` for their shapes and arXiv:1104.4475 for the
critical-path analysis.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..errors import DAGError
from .tasks import Step, Task, TaskKind
from .trees import EliminationTree, resolve_tree

# Data-object keys: ("t", i, j) a tile; ("Vg", i, k) GEQRT factors of tile
# (i, k); ("Ve", i, k) elimination factors that zeroed tile (i, k).
_Key = tuple


class _AccessTracker:
    """Sequential-consistency dependence inference over data objects."""

    def __init__(self):
        self._last_writer: dict[_Key, Task] = {}
        self._readers_since: dict[_Key, list[Task]] = {}

    def record(self, task: Task, reads: Iterable[_Key], writes: Iterable[_Key]) -> set[Task]:
        reads = list(reads)
        writes = list(writes)
        deps: set[Task] = set()
        for key in (*reads, *writes):
            w = self._last_writer.get(key)
            if w is not None:
                deps.add(w)
        for key in writes:
            deps.update(self._readers_since.get(key, ()))
        for key in writes:
            self._last_writer[key] = task
            self._readers_since[key] = []
        written = set(writes)
        for key in reads:
            if key not in written:
                self._readers_since.setdefault(key, []).append(task)
        deps.discard(task)
        return deps


def _task_accesses(task: Task) -> tuple[list[_Key], list[_Key]]:
    """(reads, writes) of a task; read-write tiles appear in both lists.

    A batched update accesses exactly the union of its expansion's tiles,
    so the dependencies a fused DAG derives are the per-tile DAG's edges
    collapsed onto the coarsened tasks — never weaker, never spuriously
    stronger (tested by expansion equivalence in the batched test suite).
    """
    k = task.k
    if task.kind is TaskKind.GEQRT:
        t = ("t", task.row, k)
        return [t], [t, ("Vg", task.row, k)]
    if task.kind is TaskKind.UNMQR:
        t = ("t", task.row, task.col)
        return [("Vg", task.row, k), t], [t]
    if task.kind is TaskKind.UNMQR_BATCH:
        tiles = [("t", task.row, j) for j in range(task.col, task.col_end)]
        return [("Vg", task.row, k), *tiles], tiles
    if task.kind in (TaskKind.TSQRT, TaskKind.TTQRT):
        top = ("t", task.row2, k)
        bot = ("t", task.row, k)
        return [top, bot], [top, bot, ("Ve", task.row, k)]
    if task.kind in (TaskKind.TSMQR_BATCH, TaskKind.TTMQR_BATCH):
        pairs = [
            ("t", r, j)
            for j in range(task.col, task.col_end)
            for r in (task.row2, task.row)
        ]
        return [("Ve", task.row, k), *pairs], pairs
    # TSMQR / TTMQR
    top = ("t", task.row2, task.col)
    bot = ("t", task.row, task.col)
    return [("Ve", task.row, k), top, bot], [top, bot]


#: Public alias — the simulator reuses the same access rules the builder
#: derives dependencies from, so the two can never disagree.
task_accesses = _task_accesses


class TiledQRDag:
    """The full task DAG of one tiled QR factorization.

    Tasks are stored in a valid topological (sequential-algorithm) order;
    ``preds``/``succs`` give the dependence structure.

    Parameters
    ----------
    grid_rows, grid_cols:
        Tile-grid shape ``(p, q)``.
    elimination:
        An elimination-tree name or alias (see :mod:`repro.dag.trees`):
        ``"flat"``/``"TS"``, ``"flat-tt"``, ``"binary"``/``"TT"``,
        ``"fibonacci"`` or ``"greedy"``.  Stored canonicalized in
        :attr:`elimination`; the resolved tree object is :attr:`tree`.
    batch_updates:
        When True, all updates sharing one reflector factor across a tile
        row are emitted as a single coarsened ``UNMQR_BATCH`` /
        ``TSMQR_BATCH`` / ``TTMQR_BATCH`` task spanning columns
        ``[k+1, q)`` instead of ``q-k-1`` per-tile tasks.  Expanding every
        batched task (:meth:`~repro.dag.tasks.Task.expand`) recovers
        exactly the unfused DAG's task multiset.
    """

    def __init__(
        self,
        grid_rows: int,
        grid_cols: int,
        elimination: str = "TS",
        batch_updates: bool = False,
    ):
        if grid_rows < 1 or grid_cols < 1:
            raise DAGError(f"grid must be at least 1x1, got {grid_rows}x{grid_cols}")
        self.tree: EliminationTree = resolve_tree(elimination)
        self.grid_rows = grid_rows
        self.grid_cols = grid_cols
        self.elimination = self.tree.name
        self.batch_updates = batch_updates
        self.tasks: list[Task] = []
        self.preds: dict[Task, frozenset[Task]] = {}
        self.succs: dict[Task, set[Task]] = {}
        self._build()

    # -- construction ---------------------------------------------------

    def accesses(self, task: Task) -> tuple[list[_Key], list[_Key]]:
        """(reads, writes) of a task — overridable by DAG subclasses with
        different data semantics (e.g. the solve DAG)."""
        return _task_accesses(task)

    def _emit(self, tracker: _AccessTracker, task: Task) -> None:
        reads, writes = self.accesses(task)
        deps = tracker.record(task, reads, writes)
        self.tasks.append(task)
        self.preds[task] = frozenset(deps)
        self.succs[task] = set()
        for d in deps:
            self.succs[d].add(task)

    def _build(self) -> None:
        p, q = self.grid_rows, self.grid_cols
        tracker = _AccessTracker()
        for k in range(min(p, q)):
            if self.tree.uses_tt:
                self._build_panel_tt(tracker, k, p, q)
            else:
                self._build_panel_ts(tracker, k, p, q)

    def _emit_updates(
        self,
        tracker: _AccessTracker,
        kind: TaskKind,
        batch_kind: TaskKind,
        k: int,
        row: int,
        row2: int,
        q: int,
    ) -> None:
        """Emit the trailing-column updates of one factor: per-tile tasks
        normally, one coarsened task under ``batch_updates``."""
        if k + 1 >= q:
            return
        if self.batch_updates:
            self._emit(tracker, Task(batch_kind, k, row, row2, k + 1, q))
        else:
            for j in range(k + 1, q):
                self._emit(tracker, Task(kind, k, row, row2, j))

    def _build_panel_ts(self, tracker: _AccessTracker, k: int, p: int, q: int) -> None:
        self._emit(tracker, Task(TaskKind.GEQRT, k, k, k, k))
        self._emit_updates(tracker, TaskKind.UNMQR, TaskKind.UNMQR_BATCH, k, k, k, q)
        for bot, top in self.tree.pairs(k, p):
            self._emit(tracker, Task(TaskKind.TSQRT, k, bot, top, k))
            self._emit_updates(
                tracker, TaskKind.TSMQR, TaskKind.TSMQR_BATCH, k, bot, top, q
            )

    def _build_panel_tt(self, tracker: _AccessTracker, k: int, p: int, q: int) -> None:
        for i in self.tree.geqrt_rows(k, p):
            self._emit(tracker, Task(TaskKind.GEQRT, k, i, i, k))
            self._emit_updates(tracker, TaskKind.UNMQR, TaskKind.UNMQR_BATCH, k, i, i, q)
        for bot, top in self.tree.pairs(k, p):
            self._emit(tracker, Task(TaskKind.TTQRT, k, bot, top, k))
            self._emit_updates(
                tracker, TaskKind.TTMQR, TaskKind.TTMQR_BATCH, k, bot, top, q
            )

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def sources(self) -> list[Task]:
        """Tasks with no predecessors (ready at time zero)."""
        return [t for t in self.tasks if not self.preds[t]]

    def sinks(self) -> list[Task]:
        """Tasks with no successors."""
        return [t for t in self.tasks if not self.succs[t]]

    def panel_tasks(self, k: int) -> list[Task]:
        """All tasks of panel ``k`` in emission order."""
        return [t for t in self.tasks if t.k == k]

    def count_by_step(self) -> dict[Step, int]:
        """Number of tasks per paper step over the whole DAG."""
        out = {s: 0 for s in Step}
        for t in self.tasks:
            out[t.step] += 1
        return out

    def validate(self) -> None:
        """Cheap structural self-check (used by tests).

        Verifies that the emission order is topological and that
        pred/succ maps are mutually consistent.
        """
        position = {t: n for n, t in enumerate(self.tasks)}
        if len(position) != len(self.tasks):
            raise DAGError("duplicate tasks in DAG")
        for t in self.tasks:
            for d in self.preds[t]:
                if position[d] >= position[t]:
                    raise DAGError(f"dependency {d} does not precede {t}")
                if t not in self.succs[d]:
                    raise DAGError(f"succs missing edge {d} -> {t}")
        for t, ss in self.succs.items():
            for s in ss:
                if t not in self.preds[s]:
                    raise DAGError(f"preds missing edge {t} -> {s}")


def build_dag(
    grid_rows: int,
    grid_cols: int,
    elimination: str = "TS",
    batch_updates: bool = False,
) -> TiledQRDag:
    """Convenience constructor for :class:`TiledQRDag`."""
    return TiledQRDag(grid_rows, grid_cols, elimination, batch_updates)
