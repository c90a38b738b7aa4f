"""Shared Monte Carlo plumbing: keyed substreams and batched trial counts.

Per-trial generators depend only on the seed and the trial key, so any
partition of the trial range into batches yields bit-identical results.
"""

from __future__ import annotations

import numpy as np

# Bytes of per-trial arrays (cross values, prices, noise) one batch of trials may hold.
_BATCH_BYTES = 1 << 19


def trial_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(tuple(int(k) for k in (seed, *key)))


def batch_size(floats: int) -> int:
    """Trials per batch when each trial holds ``floats`` float64 values.

    A power or group trial holds its T x T cross-value matrix plus T x m
    prices and noise.  A size trial is decided by inserting its new period
    into the closures of the base panel, so it holds its T x T cross-value
    and Paasche matrices, the new period's row and column, and its price.
    """
    return max(1, _BATCH_BYTES // (8 * floats))


def count_trials(worker, trials: int, batch: int) -> tuple[int, int]:
    """Column sums of the ``(garp, harp)`` outcome rows ``worker(range(lo, hi))`` over every trial.

    The worker returns one row of two booleans per trial of its range.  The
    trials run in consecutive ranges of at most ``batch`` trials, one after
    another, so memory stays one batch at any trial count.
    """
    counts = np.zeros(2, dtype=np.int64)
    for lo in range(0, trials, batch):
        counts += worker(range(lo, min(lo + batch, trials))).sum(axis=0)
    return int(counts[0]), int(counts[1])
