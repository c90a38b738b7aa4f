"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import contextlib
import math
import sys
from collections import deque
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from konus import (
    AxiomVerdict,
    HarpWitness,
    NoAdmissibleCycleError,
    TradeDataError,
    TradeStatistics,
    cross_value_matrix,
    econometrics,
    forecast,
    maxtimes_closure,
    paasche_matrix,
    semiring,
    trade_statistics,
)
from konus.axioms import _garp_satisfied, _scaled_paasche
from konus.core import FloatArray, validate_level
from konus.forecast import CounterexampleFixture
from konus.semiring import FLOAT_SLACK, _as_square, _canonical_rotation

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


# Batch sizes for the checks that reports do not depend on the split: none below 64, so the
# experiments keep their cost; None is the byte budget's own size; 1000 is above most budgets.
BATCH_SIZES = (64, None, 1000)


@contextlib.contextmanager
def batches_of(size):
    """Run every experiment in batches of ``size`` trials; None keeps the byte budget's size."""
    with contextlib.ExitStack() as stack:
        if size is not None:
            for module in (econometrics, forecast):
                stack.enter_context(mock.patch.object(module, "batch_size", lambda floats: size))
        yield


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


def closure_by_outer(matrix, tol=0.0, slack=1e-12):
    """Closure oracle: Floyd-Warshall with a fresh ``np.outer`` per pivot.

    Returns (values, diverged) exactly as the pivot loop it mirrors would.
    """
    values = np.array(matrix, dtype=float)
    threshold = (1.0 + tol) * (1.0 + slack)
    if np.any(np.diagonal(values) > threshold):
        return values, True
    for k in range(values.shape[0]):
        np.maximum(values, np.outer(values[:, k], values[k, :]), out=values)
        if np.any(np.diagonal(values) > threshold):
            return values, True
    return values, False


def relax_by_multiply(values, threshold):
    """``semiring._relax`` with each pivot's products formed by a broadcast ``np.multiply``.

    The same divergence test, compaction and buffer swap; returns the same
    flag or mask and leaves ``values`` in the same state.
    """
    stacked = values.ndim == 3
    live = np.arange(len(values)) if stacked else None
    diverged = np.zeros(len(values), dtype=bool) if stacked else False
    work, through = values, np.empty_like(values)
    diagonal = work.diagonal(0, -2, -1)
    for k in range(values.shape[-1] + 1):
        above = np.fmax.reduce(diagonal, axis=-1, initial=-np.inf) > threshold
        if not stacked:
            if above:
                return True
        elif above.any():
            diverged[live[above]] = True
            keep = np.flatnonzero(~above)
            live = live[keep]
            if not live.size:
                break
            np.take(work, keep, axis=0, out=through[:live.size], mode="clip")
            work, through = through[:live.size], work[:live.size]
            diagonal = work.diagonal(0, -2, -1)
        if k < values.shape[-1]:
            np.multiply(work[..., :, k, np.newaxis], work[..., np.newaxis, k, :], out=through)
            np.maximum(work, through, out=work)
    return diverged


def maxtimes_product_by_multiply(left, right):
    """``semiring.maxtimes_product`` with each block's cube formed by a broadcast multiply."""
    rows, inner = left.shape
    cols = right.shape[1]
    block = max(1, semiring._PRODUCT_BLOCK_BYTES // (8 * rows * cols))
    out = None
    for lo in range(0, inner, block):
        part = np.fmax.reduce(left[:, lo:lo + block, np.newaxis] * right[np.newaxis, lo:lo + block, :], axis=1)
        out = part if out is None else np.fmax(out, part, out=out)
    return out


def start_rows_by_multiply(steps, start, k):
    """``semiring._start_rows`` with each step's products formed by a broadcast multiply."""
    rows = [steps[start]]
    for _ in range(k - 2):
        rows.append(np.fmax.reduce(rows[-1][:, np.newaxis] * steps, axis=0))
    return rows


def karp_table_by_columns(log_weights):
    """Karp table oracle: each length reduces the whole ``d[k - 1][:, None] + w`` over its columns."""
    n = log_weights.shape[0]
    d = np.full((n + 1, n), -np.inf)
    d[0, 0] = 0.0
    candidates = np.empty_like(log_weights)
    for k in range(1, n + 1):
        np.add(d[k - 1][:, np.newaxis], log_weights, out=candidates)
        candidates.max(axis=0, out=d[k])
    return d


def longest_walks_by_loops(log_weights, log_level, entry=0.0, reverse=False):
    """Oracle of ``semiring._reweight`` then ``semiring._longest_walks``, with its own table, in Python floats.

    The potentials are ``max_{k < n} d[k, v] - k * log_level``; each edge is
    reweighted to ``min(0, (w[t, s] + (D(t) - log_level)) - D(s))``.  For
    walks into each vertex (``reverse``) the reweighted edges are transposed
    and the potentials negated.  The sink labels start at ``D(t) +
    entry[t]`` and come from Bellman-Ford rounds instead of Dijkstra, until
    none changes; each walk is ``exp(max_s (r[t, s] + label(s)) - D(t))``.
    """
    n = len(log_weights)
    w = log_weights.tolist()
    d = karp_table_by_columns(log_weights).tolist()
    potentials = [max(d[k][v] - k * log_level for k in range(n)) for v in range(n)]
    r = [[min(0.0, (w[t][s] + (potentials[t] - log_level)) - potentials[s]) for s in range(n)]
         for t in range(n)]
    if reverse:
        r = [list(column) for column in zip(*r)]
        potentials = [-p for p in potentials]
    labels = [p + e for p, e in zip(potentials, np.broadcast_to(entry, n).tolist())]
    changed = True
    while changed:
        changed = False
        for t in range(n):
            for s in range(n):
                if r[t][s] + labels[s] > labels[t]:
                    labels[t] = r[t][s] + labels[s]
                    changed = True
    best = [max(r[t][s] + labels[s] for s in range(n)) - potentials[t] for t in range(n)]
    return np.exp(np.array(best))


def insertion_weights_by_closure(px):
    """The size trials' cone weights off the max-times closure M of the base, or ``None`` where M diverges.

    ``weights[b] = px[b, b] * max_a M̄[b, a] / px[a, n]``, with ``M̄ = max(M, I)``
    and ``n = T - 1``: the weights ``axioms._insertion_base`` read off the
    closure before they were read off Karp's table.
    """
    n = len(px) - 1
    column, diag = px[:n, n], px.diagonal()[:n]
    paths = _scaled_paasche(px[:n, :n], 1.0)
    if semiring._relax(paths, 1.0 + FLOAT_SLACK):
        return None
    np.fill_diagonal(paths, np.maximum(paths.diagonal(), 1.0))
    return diag * (paths / column).max(axis=1, initial=0.0)


def closure_bound(n, m, logs, omega, entry):
    """Relative distance allowed between a walk value read off Karp's table and off the max-times closure.

    Both are within their rounding of the exact largest walk product; with
    ``u = eps / 2``, ``W = max|log C| + |log omega|`` and ``A = max|entry|``:

    - the closure forms each entry as the product of two entries of the
      pivot before, so it rounds a walk of at most ``2**n`` edges at most
      ``2**n`` times, ``2**(n + 1) u`` with the scaled edges; a cycle in such
      a walk may exceed ``omega**k`` by the index's error, at most
      ``2 n eps`` per edge (``axioms._harp_walks``), ``2**n * 2 n eps W``;
    - the table's potentials are sums of fewer than n edges, within
      ``n**2 u W`` of exact, and clipping an edge's reweighted weight at
      zero moves it by at most twice that; the logs, the reweighting (of
      terms up to ``3 n W``) and the Dijkstra sums add at most
      ``16 n u (1 + W + A)`` per edge of a settling-tree path of at most n
      edges: ``n**3 eps W + 8 n**2 eps (1 + W + A)`` in log space, so
      relative to first order;
    - the cone's cross values against the new price and its own cross
      values are dot products of m terms, each within ``m u``, formed once
      each side in another order: ``4 m eps``; ``m = 0`` where both sides
      read one cross-value matrix.
    """
    eps = np.finfo(float).eps
    W = np.abs(logs[np.isfinite(logs)]).max(initial=0.0) + abs(math.log(omega))
    A = np.abs(entry).max(initial=0.0)
    return eps * (2.0 ** n * (2 + 2 * n * W) + n ** 3 * W + 8 * n * n * (1 + W + A) + 4 * m)


def karp_max_mean_by_loop(log_weights):
    """Karp oracle: the final ``max_v min_k`` scan as a loop over vertices and lengths."""
    n = log_weights.shape[0]
    d = np.full((n + 1, n), -np.inf)
    d[0, 0] = 0.0
    for k in range(1, n + 1):
        d[k] = (d[k - 1][:, np.newaxis] + log_weights).max(axis=0)
    best = -np.inf
    for v in range(n):
        if not np.isfinite(d[n, v]):
            continue
        ratios = [(d[n, v] - d[k, v]) / (n - k) for k in range(n) if np.isfinite(d[k, v])]
        if ratios:
            best = max(best, min(ratios))
    return best


def vertices_by_subsets(poly, tol=1e-9):
    """Vertex oracle: rank, solve and test each square subsystem on its own."""
    m = len(poly.variables)
    eq_rows = [c for c in poly.constraints if c.sense == "=="]
    ineq_rows = [c for c in poly.constraints if c.sense == ">="]
    a_eq = np.array([c.coeffs for c in eq_rows], dtype=float).reshape(len(eq_rows), m)
    b_eq = np.array([c.rhs for c in eq_rows], dtype=float)
    a_in = np.array([c.coeffs for c in ineq_rows], dtype=float).reshape(len(ineq_rows), m)
    b_in = np.array([c.rhs for c in ineq_rows], dtype=float)
    vertices = []
    for chosen in combinations(range(len(ineq_rows)), m - len(eq_rows)):
        a = np.vstack([a_eq, a_in[list(chosen)]]) if chosen else a_eq
        b = np.concatenate([b_eq, b_in[list(chosen)]]) if chosen else b_eq
        if a.shape[0] != m or np.linalg.matrix_rank(a, tol=1e-12) < m:
            continue
        point = np.linalg.solve(a, b)
        scale = 1.0 + np.abs(b_in) + np.abs(a_in @ point)
        if np.all(a_in @ point >= b_in - tol * scale) and np.all(
            np.abs(a_eq @ point - b_eq) <= tol * (1.0 + np.abs(b_eq))
        ):
            vertices.append(point)
    unique = []
    for v in vertices:
        if not any(np.allclose(v, u, atol=10 * tol, rtol=0.0) for u in unique):
            unique.append(v)
    unique.sort(key=lambda v: tuple(np.round(v, 9)))
    return np.array(unique, dtype=float).reshape(len(unique), m)


def replace_everywhere(monkeypatch, original, replacement):
    """Rebind every name a konus module (or the package) looks ``original`` up by to ``replacement``."""
    for key, module in list(sys.modules.items()):
        if key == "konus" or key.startswith("konus."):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, replacement)


def count_closures(monkeypatch, name="_closure"):
    """Record the order of every closure ``semiring.<name>`` konus builds; returns the live list.

    The default counts the trusted max-times kernel, which every single-matrix
    closure passes through, :func:`~konus.maxtimes_closure` included.
    """
    from konus import semiring

    calls = []
    original = getattr(semiring, name)

    def counted(matrix, *args, **kwargs):
        calls.append(np.shape(matrix)[0])
        return original(matrix, *args, **kwargs)

    replace_everywhere(monkeypatch, original, counted)
    return calls


def planted_cycle_panel(T):
    """Own-good panel whose only violations run through all T periods.

    ``quantities = I``, ``prices[t, t] = prices[t, t + 1] = 1``,
    ``prices[T - 1, 0] = 0.8`` and every other price is 5: the only HARP
    cycle above one is the full T-cycle, and the GARP chain has T - 1 links.
    """
    prices = np.full((T, T), 5.0)
    prices[np.arange(T), np.arange(T)] = 1.0
    prices[np.arange(T - 1), np.arange(1, T)] = 1.0
    prices[T - 1, 0] = 0.8
    return trade_statistics(prices, np.eye(T))


# Brute-force references: exhaustive cycle enumeration under a tuple budget, the bisection
# estimate of the acyclicity index, and the closure with the diagonal kept that the cone
# coefficients are read from.

# Raw tuple budget for the brute-force cycle enumerator.
DEFAULT_CYCLE_BUDGET = 2_000_000


class OracleBudgetError(RuntimeError):
    """Brute-force enumeration would exceed its tuple budget."""


def _admissible_cycles(matrix: FloatArray, k: int) -> tuple[np.ndarray, FloatArray]:
    """Index k-tuples read as cycles, in lexicographic order, with their edge products.

    For ``k >= 2`` tuples with cyclically adjacent repeats are left out; a
    1-tuple is the self-loop at its index.  Each product multiplies the
    edges in link order, closing edge last.  Both brute-force oracles
    enumerate through this one routine.
    """
    tuples = np.indices((matrix.shape[0],) * k).reshape(k, -1).T
    links = [(j, (j + 1) % k) for j in range(k)]
    if k > 1:
        tuples = tuples[np.all([tuples[:, a] != tuples[:, b] for a, b in links], axis=0)]
    products = np.ones(tuples.shape[0])
    for a, b in links:
        products *= matrix[tuples[:, a], tuples[:, b]]
    return tuples, products


def brute_force_cycle_geomean(
    matrix,
    min_len: int = 2,
    max_len: int | None = None,
    *,
    include_singletons: bool = False,
    budget: int = DEFAULT_CYCLE_BUDGET,
) -> tuple[float, tuple[int, ...]]:
    """Exhaustive cycle search; returns the best geomean and an attaining cycle.

    Enumerates every index tuple of each admissible length with no cyclically
    adjacent repeats (rotations deduplicated via a canonical form), so it is an
    independent oracle for :func:`max_cycle_geomean` at small sizes.
    ``include_singletons`` additionally admits the one-element cycle ``(t,)``
    with product ``matrix[t, t]``, the literal reading under which relaxed
    homotheticity can never hold below the diagonal level.
    """
    arr, low = _as_square(matrix)
    if low <= 0.0:
        raise ValueError("cycle geomean requires a strictly positive matrix")
    n = arr.shape[0]
    if max_len is None:
        max_len = n
    lengths: list[int] = []
    if include_singletons:
        lengths.append(1)
    lengths.extend(range(max(2, min_len), max_len + 1))
    if not lengths or n < 1 or (not include_singletons and n < 2):
        raise NoAdmissibleCycleError("no admissible cycle lengths to enumerate")
    total = sum(n ** k for k in lengths)
    if total > budget:
        raise OracleBudgetError(
            f"oracle too large: {total} tuples exceed budget {budget}"
        )
    best = -np.inf
    best_cycle: tuple[int, ...] | None = None
    for k in lengths:
        tuples, products = _admissible_cycles(arr, k)
        if not products.size:
            continue
        geomeans = products ** (1.0 / k)
        top = float(geomeans.max())
        if top > best:
            best = top
            attaining = tuples[geomeans == top]
            best_cycle = min(_canonical_rotation(tuple(int(i) for i in row)) for row in attaining)
    if best_cycle is None:
        raise NoAdmissibleCycleError("no admissible cycle found")
    return best, best_cycle


def brute_force_harp(
    ts: TradeStatistics,
    omega: float = 1.0,
    max_len: int | None = None,
    *,
    tol: float = 0.0,
    include_singletons: bool = False,
    budget: int = 2_000_000,
) -> AxiomVerdict:
    """Oracle that checks every cycle inequality directly.

    Enumerates all index cycles of length 2..max_len (1-cycles too when
    ``include_singletons``) without cyclically adjacent repeats and verifies
    ``prod(C) <= omega ** k`` for each.  Exponential; intended for small T as
    an independent cross-check of :func:`check_harp`.
    """
    validate_level(omega, tol)
    paasche = paasche_matrix(cross_value_matrix(ts))
    n = paasche.shape[0]
    if max_len is None:
        max_len = n
    if n < 2 and not include_singletons:
        return AxiomVerdict(satisfied=True, omega=omega)
    scaled = paasche / omega
    bound = (1.0 + tol) * (1.0 + FLOAT_SLACK)
    lengths = ([1] if include_singletons else []) + list(range(2, max_len + 1))
    spent = 0
    for k in lengths:
        spent += n ** k
        witness = _brute_force_length(paasche, scaled, k, bound, budget - (spent - n ** k))
        if witness is not None:
            cycle, product = witness
            return AxiomVerdict(
                satisfied=False,
                omega=omega,
                witness=HarpWitness(cycle=cycle, product=product, omega=omega),
            )
    return AxiomVerdict(satisfied=True, omega=omega)


def _brute_force_length(paasche, scaled, k, bound, budget):
    """Smallest violating cycle of exactly k links, or None."""
    n = paasche.shape[0]
    if n ** k > budget:
        raise OracleBudgetError(f"oracle too large: {n ** k} tuples of length {k} exceed budget {budget}")
    tuples, normalised = _admissible_cycles(scaled, k)
    rows = tuples[normalised > bound]
    if not rows.size:
        return None
    cycle = min(_canonical_rotation(tuple(int(i) for i in row)) for row in rows)
    product = 1.0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        product *= paasche[a, b]
    return cycle, float(product)


def _garp_breakpoints(px: FloatArray) -> np.ndarray:
    """Off-diagonal ratios ``px[t, t] / px[t, s]``: the only levels where the relation changes."""
    ratios = px.diagonal()[:, np.newaxis] / px
    mask = ~np.eye(px.shape[0], dtype=bool)
    return np.unique(ratios[mask])


def garp_irrationality_breakpoints(ts: TradeStatistics) -> tuple[float, bool]:
    """Acyclicity index oracle: a bisection over the breakpoints, one verdict per probe.

    Verdicts are constant between consecutive breakpoints and monotone in the
    level, so a bisection over the breakpoints for the least interval whose
    midpoint passes, then one probe of the breakpoint that opens it, decides
    the infimum and its attainment exactly.  Past the last breakpoint the
    relation is empty, so that interval (probed halfway to ``b + 1``) passes.
    The body is the library's before the closure replaced it, ``tol`` aside.
    Where two breakpoints are adjacent floats, their midpoint rounds onto one
    of them, and the answer can be one breakpoint low.
    """
    if ts.num_periods < 2:
        return 0.0, False
    px = cross_value_matrix(ts)
    points = _garp_breakpoints(px)
    midpoints = (points + np.append(points[1:], points[-1] + 1.0)) / 2.0
    lo, hi = -1, len(points) - 1  # midpoints[hi] passes; midpoints[lo] fails where lo >= 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _garp_satisfied(px, float(midpoints[mid]), 0.0):
            hi = mid
        else:
            lo = mid
    value = float(points[hi])
    return value, _garp_satisfied(px, value, 0.0)


def garp_irrationality_bisection(ts: TradeStatistics, *, tol: float = 1e-9) -> float:
    """Bisection estimate of the acyclicity index, kept as an independent cross-check."""
    validate_level(tol=tol)
    if ts.num_periods < 2:
        return 0.0
    px = cross_value_matrix(ts)
    points = _garp_breakpoints(px)
    lo, hi = float(points[0]), float(points[-1]) + 1.0
    if _garp_satisfied(px, lo, 0.0):
        return lo
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):  # adjacent floats: the bracket cannot narrow further
            break
        if _garp_satisfied(px, mid, 0.0):
            hi = mid
        else:
            lo = mid
    return hi


def omega_closure(paasche: FloatArray, omega: float) -> FloatArray | None:
    """Max-times closure of the omega-discounted Paasche matrix, diagonal included.

    A walk with ``k`` intermediate indices contributes
    ``omega ** -(k + 1)`` times its Paasche product, so the closure collects
    the discounted path maxima needed by the cone coefficients.  ``None``
    where the closure diverges.
    """
    validate_level(omega)
    if omega < 1.0:
        raise ValueError("omega must be at least 1")
    return maxtimes_closure(paasche / omega)


def gamma_by_omega_closure(ts, omega, price_new):
    """Cone coefficient oracle: the homotheticity test, then a second closure with the diagonal kept."""
    from konus import check_harp

    assert check_harp(ts, omega).satisfied
    closure = omega_closure(paasche_matrix(cross_value_matrix(ts)), omega)
    numerators = omega * omega * (ts.quantities @ np.asarray(price_new, dtype=float)) / ts.expenditures()
    return (numerators[:, np.newaxis] / closure).min(axis=0)


def afriat_numbers_by_class_closures(ts, omega=1.0, tol=0.0):
    """Acyclicity certificate oracle: close the relation on the remaining periods again for every
    peeled class.  Returns ``(utilities, lam)`` unverified; the acyclicity test must pass."""
    from konus import boolean_closure, cross_value_matrix
    from konus.axioms import _relation

    px = cross_value_matrix(ts)
    T = px.shape[0]
    utilities = np.zeros(T)
    lam = np.zeros(T)
    remaining = list(range(T))
    processed = []
    rel_full = _relation(px, omega, tol)
    while remaining:
        closure = boolean_closure(rel_full[np.ix_(remaining, remaining)])
        maximal = next(pos for pos in range(len(remaining))
                       if np.all(~closure[:, pos] | closure[pos, :]))
        clazz = [remaining[p] for p in np.flatnonzero(closure[:, maximal])]
        if remaining[maximal] not in clazz:
            clazz.append(remaining[maximal])
        clazz.sort()
        if not processed:
            utilities[clazz] = 1.0
            lam[clazz] = 1.0
        else:
            prev = np.asarray(processed, dtype=int)
            members = np.asarray(clazz, dtype=int)
            bounds = utilities[prev][np.newaxis, :] + lam[prev][np.newaxis, :] * (
                omega * px[np.ix_(prev, members)].T - px.diagonal()[prev][np.newaxis, :]
            )
            u_new = min(float(bounds.min()), float(utilities[prev].min()))
            denom = omega * px[np.ix_(members, prev)] - px.diagonal()[members][:, np.newaxis]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = (utilities[prev][np.newaxis, :] - u_new) / denom
            ratios = np.where(denom > 0.0, ratios, -np.inf)
            utilities[clazz] = u_new
            lam[clazz] = max(1.0, float(ratios.max()))
        processed.extend(clazz)
        remaining = [t for t in remaining if t not in clazz]
    return utilities, lam


def simulate_price_paths_by_loop(ts, models, rng):
    """AR simulation oracle: one noise draw per good, then a loop per good, period and lag."""
    from konus import log_relatives

    T = ts.num_periods
    observed = log_relatives(ts)
    prices = np.empty_like(ts.prices)
    prices[0] = ts.prices[0]
    relatives = np.empty((T - 1, ts.num_goods))
    for i, model in enumerate(models):
        r = model.order
        if r > 0:
            relatives[:r, i] = observed[:r, i]
        noise = rng.standard_normal(T - 1 - r) * math.sqrt(model.sigma2)
        for j in range(r, T - 1):
            mean = model.beta[0]
            for lag in range(1, r + 1):
                mean += model.beta[lag] * relatives[j - lag, i]
            relatives[j, i] = mean + noise[j - r]
    for t in range(1, T):
        prices[t] = prices[t - 1] * np.exp(relatives[t - 1])
    return prices


def verdicts_by_trial(px, omega=1.0, tol=0.0):
    """Verdict oracle for one cross-value matrix: a Warshall loop of ``np.outer`` steps and
    :func:`closure_by_outer` on the zero-diagonal scaled Paasche matrix, under the same checks."""
    from konus import paasche_matrix

    diag = px.diagonal()
    closure = diag[:, np.newaxis] >= omega * px - tol
    np.fill_diagonal(closure, False)
    for k in range(px.shape[0]):
        closure |= np.outer(closure[:, k], closure[k, :])
    bad = closure & (diag[np.newaxis, :] > omega * px.T + tol)
    np.fill_diagonal(bad, False)
    scaled = paasche_matrix(px) / omega
    np.fill_diagonal(scaled, 0.0)
    if not np.isfinite(scaled).all():
        raise ValueError("matrix must be finite")
    return not bool(bad.any()), not closure_by_outer(scaled, tol)[1]


def finite_cross_values(px):
    """``px``, unless a cross value overflowed: then the error the library raises for it."""
    if not np.isfinite(px).all():
        raise TradeDataError("cross-value matrix must be finite")
    return px


def size_trial(ts, base_px, seed, trial):
    """Size trial oracle: redraw the last period price, test both axioms at level one."""
    from konus import sample_positive_sphere

    price = sample_positive_sphere(ts.num_goods, np.random.default_rng((seed, trial)))
    px = base_px.copy()
    px[-1, :] = ts.quantities @ price
    garp_ok, harp_ok = verdicts_by_trial(finite_cross_values(px))
    return garp_ok or harp_ok, harp_ok


def power_trial(ts, models, seed, trial):
    """Power trial oracle: one simulated panel, rejections with GARP failures forcing HARP ones."""
    prices = simulate_price_paths_by_loop(ts, models, np.random.default_rng((seed, trial)))
    garp_ok, harp_ok = verdicts_by_trial(finite_cross_values(prices @ ts.quantities.T))
    return not garp_ok, not (harp_ok and garp_ok)


def group_verdicts(ts, idx):
    """Group oracle: verdicts of the panel restricted to the goods ``idx``."""
    garp_ok, harp_ok = verdicts_by_trial(finite_cross_values(ts.prices[:, idx] @ ts.quantities[:, idx].T))
    return garp_ok or harp_ok, harp_ok
