"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

__all__ = ["tail_percentile", "round_tail", "run_tail"]


def tail_percentile(samples: Sequence[float], beyond: int = 10) -> Optional[Tuple[float, float]]:
    """The highest percentile that has at least ``beyond`` samples above it.

    Returns ``(value, percentile)``: ``value`` is the sorted sample with
    exactly ``beyond`` samples after it, and ``percentile`` the share of
    samples at or below it, in percent.  ``None`` when there are not more
    than ``beyond`` samples, so no percentile qualifies.
    """
    n = len(samples)
    if n <= beyond:
        return None
    i = n - beyond - 1
    return sorted(samples)[i], 100.0 * (i + 1) / n


def round_tail(samples: Sequence[float], beyond: int = 10) -> Tuple[float, float]:
    """The reported tail: :func:`tail_percentile`, never below the median.

    With fewer than ``2 * beyond`` samples the qualifying percentile lies at
    or below the median (or does not exist), so the median is reported as
    the tail, with percentile 50.
    """
    tail = tail_percentile(samples, beyond)
    if tail is None or tail[1] <= 50.0:
        return statistics.median(samples), 50.0
    return tail



def run_tail(rounds_by_episode: Sequence[Sequence[float]], beyond: int = 10) -> Tuple[float, float, bool]:
    """The tail of a run made of independent episodes.

    When every episode has a tail above its median, this is the median over
    episodes of each episode's :func:`tail_percentile` — steadier than the
    single pooled sample ``beyond`` from the top.  Otherwise it is
    :func:`round_tail` over the pooled samples.  Returns ``(value,
    percentile, per_episode)``.
    """
    tails = [tail_percentile(r, beyond) for r in rounds_by_episode]
    if tails and all(t is not None and t[1] > 50.0 for t in tails):
        return (
            statistics.median(t[0] for t in tails),
            statistics.median(t[1] for t in tails),
            True,
        )
    pooled = [x for r in rounds_by_episode for x in r]
    return (*round_tail(pooled, beyond), False)
