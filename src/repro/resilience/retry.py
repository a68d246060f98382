"""Retry semantics for tile kernels: bounded attempts, backoff, deadlines.

The tiled-DAG formulation makes retry tractable at task granularity:
every task's inputs and outputs are explicit tiles, so a failed attempt
can restore the written tiles from a snapshot and replay the kernel —
a retry-masked fault leaves the factorization bit-identical to a clean
run.  :class:`RetryPolicy` is pure configuration (picklable, so the
multiprocess runtime ships it to workers); the execution loop lives in
:func:`repro.runtime.core_exec.apply_task_resilient`, which every
runtime's tasks run through.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import (
    FaultInjectionError,
    KernelError,
    NumericalHealthError,
    ResilienceError,
    TaskTimeoutError,
)

#: Exception classes an attempt may be retried after.  Anything else
#: (ShapeError, programming errors, KeyboardInterrupt) propagates
#: immediately — retrying cannot fix a structurally wrong call.
RETRYABLE = (
    FaultInjectionError,
    NumericalHealthError,
    TaskTimeoutError,
    KernelError,
    FloatingPointError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """How often, how patiently, and how long a task may be retried.

    Attributes
    ----------
    max_attempts:
        Total attempts per task (1 = no retry).
    backoff:
        Base sleep before attempt 2, in seconds; attempt ``n`` waits
        ``backoff * factor**(n-2)``, scaled by jitter.
    factor:
        Exponential growth of the backoff.
    jitter:
        Relative jitter width: the sleep is scaled by a deterministic
        uniform draw from ``[1-jitter, 1+jitter]`` (seeded per task and
        attempt, so runs are reproducible).
    deadline:
        Per-task wall-clock budget in seconds; an attempt that takes
        longer is classified as a hang and counted as a failure
        (:class:`~repro.errors.TaskTimeoutError`).  ``None`` disables.
        Every runtime enforces it per task, multiprocess workers
        included.  The multiprocess manager also scales it into a
        per-message reply deadline: the backstop that kills and fails
        over a worker too hung to reply at all.
    seed:
        Seed for the jitter stream.
    """

    max_attempts: int = 3
    backoff: float = 0.01
    factor: float = 2.0
    jitter: float = 0.5
    deadline: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ResilienceError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff < 0.0 or self.factor < 1.0:
            raise ResilienceError(
                f"backoff must be >= 0 and factor >= 1, got {self.backoff}/{self.factor}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ResilienceError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.deadline is not None and self.deadline <= 0.0:
            raise ResilienceError(f"deadline must be positive, got {self.deadline}")

    def is_retryable(self, exc: BaseException) -> bool:
        return isinstance(exc, RETRYABLE)

    def to_dict(self) -> dict:
        """JSON view (failure bundles record the policy a dead run used)."""
        return {
            "max_attempts": self.max_attempts,
            "backoff": self.backoff,
            "factor": self.factor,
            "jitter": self.jitter,
            "deadline": self.deadline,
            "seed": self.seed,
        }

    def backoff_seconds(self, attempt: int, key: tuple = ()) -> float:
        """Deterministic jittered backoff before ``attempt`` (2-based).

        ``key`` disambiguates concurrent tasks: the draw is seeded from
        ``(seed, key, attempt)`` so identical runs sleep identically.
        """
        if attempt <= 1 or self.backoff == 0.0:
            return 0.0
        base = self.backoff * self.factor ** (attempt - 2)
        if self.jitter == 0.0:
            return base
        # str seed: deterministic across runs and workers (tuple seeds
        # are unsupported in 3.11+, and hash() of a tuple is not stable
        # enough to document as reproducible).
        rng = random.Random(repr((self.seed, key, attempt)))
        return base * rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)


#: Policy used when resilience features are enabled without an explicit
#: policy (chaos or health checks requested, no RetryPolicy given).
DEFAULT_RETRY_POLICY = RetryPolicy()

#: Policy that disables retry entirely (single attempt, no deadline).
NO_RETRY = RetryPolicy(max_attempts=1, backoff=0.0, jitter=0.0)
