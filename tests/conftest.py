"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import settings

from konus import trade_statistics
from konus.cli import CounterexampleFixture

# Property tests draw the same examples on every run and have no per-example deadline.
settings.register_profile("konus", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("konus")


@pytest.fixture
def appendix_panel():
    """Three-good ray-demand panel at epsilon zero: passes both axioms."""
    return CounterexampleFixture(0.0).statistics()


@pytest.fixture
def appendix_panel_half():
    """Same fixture at epsilon one half: strictly positive demands."""
    return CounterexampleFixture(0.5).statistics()


@pytest.fixture
def two_period_panel():
    """Two goods, two periods; fails homotheticity at level one (cycle product 1.25)."""
    return trade_statistics([[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [2.0, 1.0]])


def closure_by_paths(matrix, slack=1e-12):
    """Independent closure oracle: exact-length max-product DP up to T edges.

    Returns (values, diverged); divergence means some closed walk of at most
    T edges has product above one plus slack.
    """
    m = np.asarray(matrix, dtype=float)
    T = m.shape[0]
    best = m.copy()
    power = m.copy()
    diverged = bool(np.any(np.diagonal(m) > 1.0 + slack))
    for _ in range(T - 1):
        power = (power[:, :, np.newaxis] * m[np.newaxis, :, :]).max(axis=1)
        best = np.maximum(best, power)
        diverged = diverged or bool(np.any(np.diagonal(power) > 1.0 + slack))
    return best, diverged


def random_panel(rng, T=None, m=None, max_T=6, max_m=5):
    """Random lognormal panel with small dimensions for oracle comparisons."""
    T = T if T is not None else int(rng.integers(2, max_T + 1))
    m = m if m is not None else int(rng.integers(1, max_m + 1))
    prices = np.exp(rng.normal(0.0, 0.5, size=(T, m)))
    quantities = np.exp(rng.normal(0.0, 0.5, size=(T, m)))
    return trade_statistics(prices, quantities)


def near_homothetic_panel(rng, T, m, noise=0.2):
    """Fixed-share demand jittered multiplicatively: passes homotheticity often, not always."""
    shares = rng.dirichlet(np.ones(m)) + 1e-3
    shares = shares / shares.sum()
    prices = np.exp(rng.normal(0.0, 0.4, size=(T, m)))
    spend = np.exp(rng.normal(0.0, 0.3, size=T))
    quantities = shares[np.newaxis, :] * spend[:, np.newaxis] / prices
    quantities = quantities * np.exp(rng.normal(0.0, noise, size=(T, m)))
    return trade_statistics(prices, quantities)


def _bfs_chain(rel, start, goal):
    """Lexicographically smallest shortest path start -> goal along the relation."""
    parents = {start: None}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        if node == goal:
            chain = []
            cur = node
            while cur is not None:
                chain.append(cur)
                cur = parents[cur]
            return tuple(reversed(chain))
        for nxt in np.flatnonzero(rel[node]):
            nxt = int(nxt)
            if nxt not in parents:
                parents[nxt] = node
                frontier.append(nxt)
    raise AssertionError("no chain found for a pair inside the closure")


def garp_chain_by_pairs(rel, bad):
    """Witness chain oracle: one BFS per violating pair, smallest ``(len(chain), chain)``."""
    best = None
    for t, s in np.argwhere(bad):
        chain = _bfs_chain(rel, int(t), int(s))
        if best is None or (len(chain), chain) < (len(best), best):
            best = chain
    return best


def shortest_cycle_by_cube(matrix, bound, max_len=None):
    """Cycle-search oracle: exact-length max-product DP keeping every T x T x T power product."""
    arr = np.array(matrix, dtype=float)
    n = arr.shape[0]
    if n < 2:
        return None
    if max_len is None:
        max_len = n
    steps = arr.copy()
    np.fill_diagonal(steps, 0.0)
    powers = [steps]
    for k in range(2, max_len + 1):
        nxt = (powers[-1][:, :, np.newaxis] * steps[np.newaxis, :, :]).max(axis=1)
        powers.append(nxt)
        diag = np.diagonal(nxt)
        if np.any(diag > bound):
            start = int(np.flatnonzero(diag > bound)[0])
            walk = [start]
            target = start
            for j in range(k - 1, 0, -1):
                scores = powers[j - 1][start, :] * steps[:, target]
                target = int(np.argmax(scores))
                walk.append(target)
            walk.reverse()
            pivot = walk.index(min(walk))
            return tuple(walk[pivot:] + walk[:pivot])
    return None
