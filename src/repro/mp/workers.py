"""Worker-count resolution shared by every runner.

``FLConfig.parallel_clients`` (and each runner's ``max_workers`` override)
uses one convention everywhere: ``1`` is serial, ``N > 1`` caps the worker
pool at ``N``, and ``0`` means one worker per CPU core.  The resolution used
to be copy-pasted across :class:`~repro.core.runner.FederatedRunner`,
:class:`~repro.asyncfl.runner.AsyncRunner`, and
:class:`~repro.hier.edge.EdgeAggregator` — and silently clamped negative
values to 1, hiding caller bugs.  :func:`resolve_workers` is the single
implementation; negative requests now raise.
"""

from __future__ import annotations

import os

__all__ = ["resolve_workers", "usable_cores", "blas_thread_budget"]


def resolve_workers(requested: int) -> int:
    """Resolve a ``parallel_clients``-style worker request to a pool width.

    ``0`` resolves to ``os.cpu_count()`` (one worker per core); positive
    values pass through.  Negative values raise ``ValueError`` — they were a
    caller bug that the old per-runner copies clamped to 1 silently.
    """
    requested = int(requested)
    if requested < 0:
        raise ValueError(
            f"worker count must be >= 0 (0 = one worker per core), got {requested}"
        )
    if requested == 0:
        requested = os.cpu_count() or 1
    return max(1, requested)


def usable_cores() -> int:
    """Cores this process may run on (its CPU affinity, not the host's)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


def blas_thread_budget(concurrent_workers: int) -> int:
    """BLAS threads per worker so that ``workers × threads ≤ cores``.

    ``concurrent_workers`` counts every worker process that trains at the
    same time — all pools, not one.  Never below one thread.
    """
    return max(1, usable_cores() // max(1, int(concurrent_workers)))
