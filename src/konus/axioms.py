"""Revealed-preference axiom tests with efficiency level omega and violation witnesses.

Both tests consume only the cross-value matrix.  The acyclicity test builds
the direct revealed-preference relation at level omega and inspects its
transitive closure; the homotheticity test bounds cycle products of the
Paasche matrix by powers of omega via a max-times closure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import (
    FloatArray,
    TradeStatistics,
    cross_value_matrix,
    paasche_matrix,
    validate_level,
)
from .semiring import (
    FLOAT_SLACK,
    boolean_closure,
    maxtimes_closure,
    shortest_cycle_above,
)


@dataclass(frozen=True)
class GarpWitness:
    """A revealed-preference chain whose closing comparison fails at level omega.

    ``chain`` lists period indices ``t, t_1, ..., s`` where every consecutive
    link obeys ``px[a, a] >= omega * px[a, b]`` and the closing comparison
    violates ``px[s, s] <= omega * px[s, t]``.
    """

    chain: tuple[int, ...]
    comparison: tuple[int, int]  # (s, t) with px[s, s] > omega * px[s, t]
    omega: float


@dataclass(frozen=True)
class HarpWitness:
    """An index cycle whose Paasche product exceeds ``omega ** k``."""

    cycle: tuple[int, ...]
    product: float
    omega: float


@dataclass(frozen=True)
class AxiomVerdict:
    satisfied: bool
    omega: float
    witness: GarpWitness | HarpWitness | None = None


def _relation(px: FloatArray, omega: float, tol: float) -> np.ndarray:
    """Direct relation at level omega: t -> s iff px[t, t] >= omega * px[t, s], t != s."""
    rel = px.diagonal()[:, np.newaxis] >= omega * px - tol
    np.fill_diagonal(rel, False)
    return rel


def _garp_violations(px: FloatArray, omega: float, tol: float):
    rel = _relation(px, omega, tol)
    closure = boolean_closure(rel)
    # bad[t, s]: t reaches s but the closing comparison px[s, s] <= omega * px[s, t] fails
    closing_fails = px.diagonal()[np.newaxis, :] > omega * px.T + tol
    bad = closure & closing_fails
    np.fill_diagonal(bad, False)
    return rel, bad


def _garp_satisfied(px: FloatArray, omega: float, tol: float) -> bool:
    """Verdict of the acyclicity test at one level, without a witness."""
    _, bad = _garp_violations(px, omega, tol)
    return not bool(bad.any())


def _nearest_source(rel: np.ndarray, bad: np.ndarray) -> int:
    """Smallest source among the violating pairs joined by the fewest relation steps.

    Grows reachability one step at a time as whole-matrix products, so it
    holds O(T^2) memory.  ``bad`` must be nonempty and inside the closure.
    """
    step = rel.astype(np.float32)  # 0/1 sums stay exact in float32 up to 2**24 periods
    reach = rel
    while not (reach & bad).any():
        reach = reach | ((reach.astype(np.float32) @ step) > 0.0)
    return int(np.flatnonzero((reach & bad).any(axis=1))[0])


def _first_chain(rel: np.ndarray, start: int, goals: np.ndarray) -> tuple[int, ...]:
    """Lexicographically smallest shortest path from ``start`` to any goal.

    Breadth-first search visits successors in increasing index order and
    keeps the first parent found, so nodes leave the queue in lexicographic
    order of their smallest shortest paths; the first goal dequeued ends the
    smallest chain.
    """
    parents: dict[int, int | None] = {start: None}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        if goals[node]:
            chain = []
            cur: int | None = node
            while cur is not None:
                chain.append(cur)
                cur = parents[cur]
            return tuple(reversed(chain))
        for nxt in np.flatnonzero(rel[node]):
            nxt = int(nxt)
            if nxt not in parents:
                parents[nxt] = node
                frontier.append(nxt)
    raise RuntimeError("no chain found for a source inside the closure")  # pragma: no cover


def check_garp(ts: TradeStatistics, omega: float = 1.0, *, tol: float = 0.0) -> AxiomVerdict:
    """Test the acyclicity axiom at efficiency level omega.

    Satisfied iff for every pair ``t != s`` with ``t`` related to ``s`` through
    the transitive closure of the level-omega relation, the closing comparison
    ``px[s, s] <= omega * px[s, t]`` holds.

    On failure the witness chain is the smallest under ``(len(chain), chain)``
    among the shortest chains of all violating pairs: fewest links first,
    then the smallest source, then the lexicographically smallest chain from
    that source.  Recovery keeps O(T^2) memory: reachability levels give the
    least length, then a single breadth-first search from the smallest
    source that attains it gives the chain.
    """
    validate_level(omega, tol)
    px = cross_value_matrix(ts).px
    rel, bad = _garp_violations(px, omega, tol)
    if not bad.any():
        return AxiomVerdict(satisfied=True, omega=omega)
    source = _nearest_source(rel, bad)
    chain = _first_chain(rel, source, bad[source])
    witness = GarpWitness(chain=chain, comparison=(chain[-1], chain[0]), omega=omega)
    return AxiomVerdict(satisfied=False, omega=omega, witness=witness)


def _harp_satisfied_from_paasche(paasche: FloatArray, omega: float, tol: float) -> bool:
    scaled = paasche / omega
    np.fill_diagonal(scaled, 0.0)
    closure = maxtimes_closure(scaled, tol=tol)
    return not closure.diverged


def check_harp(ts: TradeStatistics, omega: float = 1.0, *, tol: float = 0.0) -> AxiomVerdict:
    """Test the homotheticity axiom at efficiency level omega.

    Satisfied iff the max-times closure of the omega-scaled Paasche matrix
    (diagonal excluded) keeps all diagonal entries at most one, equivalently
    iff no admissible cycle has geometric mean above omega.  ``tol`` is an
    additive slack on the omega-normalised cycle products.
    """
    validate_level(omega, tol)
    paasche = paasche_matrix(cross_value_matrix(ts)).values
    scaled = paasche / omega
    np.fill_diagonal(scaled, 0.0)
    if not maxtimes_closure(scaled, tol=tol).diverged:
        return AxiomVerdict(satisfied=True, omega=omega)
    bound = (1.0 + tol) * (1.0 + FLOAT_SLACK)
    cycle = shortest_cycle_above(scaled, bound)
    if cycle is None:  # pragma: no cover - closure divergence implies a violating cycle
        raise RuntimeError("homotheticity violation detected but no cycle recovered")
    product = 1.0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        product *= paasche[a, b]
    witness = HarpWitness(cycle=cycle, product=product, omega=omega)
    return AxiomVerdict(satisfied=False, omega=omega, witness=witness)


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
    paasche = paasche_matrix(cross_value_matrix(ts)).values
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
    from .semiring import OracleBudgetError

    n = paasche.shape[0]
    if n ** k > budget:
        raise OracleBudgetError(f"oracle too large: {n ** k} tuples of length {k} exceed budget {budget}")
    if k == 1:
        normalised = np.diagonal(scaled)
        violating = np.flatnonzero(normalised > bound)
        if violating.size:
            t = int(violating[0])
            return (t,), float(paasche[t, t])
        return None
    grids = np.meshgrid(*([np.arange(n)] * k), indexing="ij")
    tuples = np.stack([g.ravel() for g in grids], axis=1)
    nxt = np.roll(tuples, -1, axis=1)
    admissible = np.all(tuples != nxt, axis=1)
    tuples, nxt = tuples[admissible], nxt[admissible]
    if tuples.size == 0:
        return None
    normalised = np.ones(tuples.shape[0])
    for j in range(k):
        normalised *= scaled[tuples[:, j], nxt[:, j]]
    violating = normalised > bound
    if not np.any(violating):
        return None
    rows = tuples[violating]
    cycle = min(
        tuple(int(i) for i in row[np.argmin(row):].tolist() + row[:np.argmin(row)].tolist())
        for row in rows
    )
    product = 1.0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        product *= paasche[a, b]
    return cycle, float(product)
