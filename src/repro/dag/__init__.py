"""Task DAG for tiled QR decomposition (paper Sec. II-B, Fig. 3)."""

from .tasks import Step, TaskKind, Task
from .trees import EliminationTree, TREES, canonical_tree, resolve_tree, tree_names
from .builder import TiledQRDag, build_dag
from .analysis import (
    step_counts,
    task_counts_total,
    critical_path_length,
    max_parallelism,
    bottom_level_ranks,
    task_weight_model,
)
from .schedule import Schedule, compile_schedule

__all__ = [
    "Step",
    "TaskKind",
    "Task",
    "EliminationTree",
    "TREES",
    "canonical_tree",
    "resolve_tree",
    "tree_names",
    "TiledQRDag",
    "build_dag",
    "step_counts",
    "task_counts_total",
    "critical_path_length",
    "max_parallelism",
    "bottom_level_ranks",
    "task_weight_model",
    "Schedule",
    "compile_schedule",
]
