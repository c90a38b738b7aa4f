"""Shared Monte Carlo plumbing: keyed substreams and worker-split trial maps.

Per-trial generators depend only on the seed and the trial key, so any
partition of the trial range across workers yields bit-identical results.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def trial_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(tuple(int(k) for k in (seed, *key)))


def validate_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")


def map_trials(worker, trials: int, workers: int) -> list:
    """Results of ``worker(b)`` in trial order, from ``workers`` chunks run on at most one thread per CPU."""
    validate_workers(workers)
    if workers == 1:
        return [worker(b) for b in range(trials)]
    chunks = np.array_split(np.arange(trials), workers)
    with ThreadPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        parts = pool.map(lambda chunk: [worker(int(b)) for b in chunk], chunks)
        return [item for part in parts for item in part]
