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
    TradeDataError,
    TradeStatistics,
    cross_value_matrix,
    paasche_matrix,
    validate_level,
)
from .semiring import (
    FLOAT_SLACK,
    _closure,
    _lift,
    _relax,
    _shortest_cycle,
    boolean_closure,
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


def _zero_diagonal(matrices: np.ndarray) -> None:
    """Set the diagonal of a matrix, or of each matrix of a stack, to zero (False) in place."""
    if matrices.ndim == 2:
        matrices.flat[::len(matrices) + 1] = 0  # np.fill_diagonal's stride, without its checks
    else:
        np.einsum("...ii->...i", matrices)[...] = 0  # a writeable view of the diagonals, in any layout


def _level_bound(px: FloatArray, omega: float, slack: float) -> FloatArray:
    """``omega * px + slack``; at level one with no slack ``px`` itself, as neither step changes a comparison."""
    return px if omega == 1.0 and slack == 0.0 else omega * px + slack


def _relation(px: FloatArray, omega: float, tol: float) -> np.ndarray:
    """Direct relation at level omega: t -> s iff px[t, t] >= omega * px[t, s], t != s.

    Here and in :func:`_garp_violations`, ``px`` may also be a stack ``[B, T, T]``.
    """
    rel = px.diagonal(0, -2, -1)[..., :, np.newaxis] >= _level_bound(px, omega, -tol)
    _zero_diagonal(rel)
    return rel


def _garp_violations(px: FloatArray, omega: float, tol: float):
    """``(rel, closure, bad)``: the level-omega relation, its transitive closure and the violating pairs."""
    rel = _relation(px, omega, tol)
    closure = boolean_closure(rel)
    # bad[t, s]: t reaches s but the closing comparison px[s, s] <= omega * px[s, t] fails
    closing_fails = px.diagonal(0, -2, -1)[..., np.newaxis, :] > _level_bound(px.swapaxes(-1, -2), omega, tol)
    bad = closure & closing_fails
    _zero_diagonal(bad)
    return rel, closure, bad


def _garp_satisfied(px: FloatArray, omega: float, tol: float) -> bool:
    """Verdict of the acyclicity test at one level, without a witness."""
    return not bool(_garp_violations(px, omega, tol)[2].any())


def _compose(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Boolean product of two relations, as a float32 matrix product: 0/1 sums are exact up to 2**24 periods."""
    return (left.astype(np.float32) @ right.astype(np.float32)) > 0.0


def _nearest_source(rel: np.ndarray, bad: np.ndarray) -> int:
    """Smallest source among the violating pairs joined by the fewest relation steps.

    Unless a single link joins one, the least number of links is found by
    binary lifting over the boolean powers of ``rel | I``
    (:func:`semiring._lift`), O(log T) float32 matrix products; booleans
    make every power exact, so the length and the source are those of
    growing the chains one link at a time.  Holds O(T^2) memory per matrix.
    ``bad`` must be nonempty, inside the closure and off the diagonal.
    """
    reach = rel
    if not (reach & bad).any():
        walks = rel | np.eye(len(rel), dtype=bool)  # at most one link

        def advance(left, right):
            longer = _compose(left, right)
            return bool((longer & bad).any()), longer

        _, reach = _lift(walks, len(rel) - 1, advance)
        reach = _compose(reach, walks)
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
    that source.  Recovery keeps O(T^2) memory per matrix: reachability
    powers give the least length (:func:`_nearest_source`, O(log T) products
    for long chains), then a single breadth-first search from the smallest
    source that attains it gives the chain.
    """
    validate_level(omega, tol)
    px = cross_value_matrix(ts)
    rel, _, bad = _garp_violations(px, omega, tol)
    if not bad.any():
        return AxiomVerdict(satisfied=True, omega=omega)
    return AxiomVerdict(satisfied=False, omega=omega, witness=_garp_witness(rel, bad, omega))


def _garp_witness(rel: np.ndarray, bad: np.ndarray, omega: float) -> GarpWitness:
    """The witness of :func:`check_garp`, from the relation and violating pairs it decided on."""
    source = _nearest_source(rel, bad)
    chain = _first_chain(rel, source, bad[source])
    return GarpWitness(chain=chain, comparison=(chain[-1], chain[0]), omega=omega)


def _scaled_paasche(px: FloatArray, omega: float) -> FloatArray:
    """The omega-scaled Paasche matrix with its diagonal zeroed, of one px or of each in a stack.

    Dividing by an omega below one can overflow a finite Paasche entry, so
    the result is checked here, for the single and the stacked closure alike.
    """
    scaled = paasche_matrix(px)
    if omega != 1.0:  # dividing by one changes no bit
        scaled /= omega
    _zero_diagonal(scaled)
    if omega != 1.0 and not np.isfinite(scaled).all():
        raise ValueError("matrix must be finite")
    return scaled


def _verdicts(px: FloatArray) -> tuple[np.ndarray, np.ndarray]:
    """Acyclicity and homotheticity verdicts at level one of a stack ``px[B, T, T]`` of cross-value matrices.

    Returns ``(garp_ok[B], harp_ok[B])``.  Trial b's verdicts are those of
    :func:`check_garp` and :func:`check_harp` on ``px[b]``: the same
    comparisons, the same Warshall step and the same max-times pivot loop,
    run over the whole stack at once.  The implication between the two is
    left to the caller, because the Monte Carlo experiments enforce it in
    different directions.
    """
    garp_ok = ~_garp_violations(px, 1.0, 0.0)[2].any(axis=(1, 2))
    return garp_ok, ~_relax(_scaled_paasche(px, 1.0), 1.0 + FLOAT_SLACK)


@dataclass(frozen=True, eq=False)
class _Insertion:
    """What every batch of :func:`_inserted_verdicts` shares: a cross-value matrix but its last row.

    The first ``n = T - 1`` periods form the base; no trial changes their
    rows, the column ``px[a, n]`` included.  ``into_new[a]``: base period a
    reaches the new period, through the base relation and then its own link
    ``px[a', a'] >= px[a', n]``.  ``dooms[b]``: a link from the new period
    to b closes a violation, because the reflexive base closure leads from
    b to some period whose closing comparison fails against the new period
    or against a base period that reaches it.  ``weights[b] = px[b, b] *
    max_a M̄[b, a] / px[a, n]``, with ``M̄ = max(M, I)`` and M the base's
    homotheticity closure, or ``None`` if M diverges or the base's Paasche
    matrix is invalid (then ``paasche_matrix`` raises on every batch first).
    """

    px: FloatArray  # [T, T]; each trial replaces its last row
    garp_fails: bool  # the base alone violates acyclicity
    into_new: np.ndarray
    dooms: np.ndarray
    weights: FloatArray | None


def _insertion_base(px: FloatArray) -> _Insertion:
    """The base closures of :func:`_inserted_verdicts`, computed once for any number of trials."""
    n = len(px) - 1
    base, column, diag = px[:n, :n], px[:n, n], px.diagonal()[:n]
    _, closure, bad = _garp_violations(base, 1.0, 0.0)
    reach = closure | np.eye(n, dtype=bool)
    into_new = (reach & (diag >= column)).any(axis=1)
    # [a, b]: the closing comparison px[b, b] <= px[b, a] fails, as in _garp_violations
    closing_fails = diag[np.newaxis, :] > base.T
    heads = (into_new[:, np.newaxis] & closing_fails).any(axis=0) | (diag > column)
    weights = None
    try:
        paths = _scaled_paasche(base, 1.0)
        diverged = _relax(paths, 1.0 + FLOAT_SLACK)
    except TradeDataError:
        diverged = True
    if not diverged:
        np.fill_diagonal(paths, np.maximum(paths.diagonal(), 1.0))  # M̄ = max(M, I)
        weights = diag * (paths / column).max(axis=1, initial=0.0)
    return _Insertion(px=px, garp_fails=bool(bad.any()), into_new=into_new,
                      dooms=(reach & heads).any(axis=1), weights=weights)


def _inserted_verdicts(base: _Insertion, rows: FloatArray) -> tuple[np.ndarray, np.ndarray]:
    """``_verdicts`` of the panels that are ``base.px`` with its last row replaced by each of ``rows[B, T]``.

    O(T) work per trial instead of O(T^3), with the errors ``paasche_matrix``
    raises on the stack of those panels.  Acyclicity, bit for bit: a new
    violation runs through the new period n, so it is a link from it into
    ``dooms`` or a closing comparison of a period in ``into_new`` against it.
    Homotheticity by the price cone: for ``r[b] = p . q_b``, the best cycle
    through n has product ``P = max_b r[n] * weights[b] / r[b]``, and
    ``P <= 1`` is the paper's ``p . q_n <= kappa_b p . q_b`` for every b,
    with ``kappa_b = 1 / weights[b]``.  A trial passes iff
    ``P * P <= 1 + FLOAT_SLACK``, the tie rule of ``semiring._relax``, whose
    last pivot squares the same P.  Computed from the same factors in
    another order, at most T + 1 of them, the two can differ only when
    ``P * P`` is within about ``4 (T + 1) u`` (u = 2**-53) of the threshold.
    """
    # the panels with the least and the largest new cross values hold each extreme Paasche
    # entry of the batch (division is monotone), so paasche_matrix raises what the batch would
    bounds = np.repeat(base.px[np.newaxis], 2, axis=0)
    bounds[:, -1] = rows.min(axis=0), rows.max(axis=0)
    paasche_matrix(bounds)
    row, new = rows[:, :-1], rows[:, -1:]
    garp_fails = (base.garp_fails | ((new >= row) & base.dooms).any(axis=1)
                  | ((new > row) & base.into_new).any(axis=1))
    if base.weights is None:
        return ~garp_fails, np.zeros(len(rows), dtype=bool)
    cone = (new * base.weights / row).max(axis=1, initial=0.0)
    return ~garp_fails, cone * cone <= 1.0 + FLOAT_SLACK


def _harp_verdict(ts: TradeStatistics, omega: float,
                  tol: float) -> tuple[AxiomVerdict, FloatArray | None]:
    """Homotheticity verdict at one level, with the closure it was read from on success.

    The closure is the max-times closure of the omega-scaled Paasche matrix
    with its diagonal zeroed.  On failure there is none: ``None`` is
    returned in its place, and the verdict carries the shortest violating
    cycle.  ``_scaled_paasche`` has checked that matrix, so it goes to the
    trusted kernels with no further scan: a copy to ``semiring._closure``,
    and on divergence the original to ``semiring._shortest_cycle``.  The
    verdict, cycle and product are those of :func:`~konus.maxtimes_closure`
    and :func:`~konus.semiring.shortest_cycle_above` on it, bit for bit.
    """
    validate_level(omega, tol)
    px = cross_value_matrix(ts)
    scaled = _scaled_paasche(px, omega)
    closure = _closure(scaled.copy(), tol)
    if closure is not None:
        return AxiomVerdict(satisfied=True, omega=omega), closure
    bound = (1.0 + tol) * (1.0 + FLOAT_SLACK)
    cycle = _shortest_cycle(scaled, bound)
    if cycle is None:  # pragma: no cover - closure divergence implies a violating cycle
        raise RuntimeError("homotheticity violation detected but no cycle recovered")
    product = 1.0
    with np.errstate(over="ignore"):  # a violating product may overflow to inf
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            product *= px[b, b] / px[a, b]  # the Paasche entry C[a, b]
    witness = HarpWitness(cycle=cycle, product=product, omega=omega)
    return AxiomVerdict(satisfied=False, omega=omega, witness=witness), None


def check_harp(ts: TradeStatistics, omega: float = 1.0, *, tol: float = 0.0) -> AxiomVerdict:
    """Test the homotheticity axiom at efficiency level omega.

    Satisfied iff the max-times closure of the omega-scaled Paasche matrix
    (diagonal excluded) keeps all diagonal entries at most one, equivalently
    iff no admissible cycle has geometric mean above omega.  ``tol`` is an
    additive slack on the omega-normalised cycle products.
    """
    return _harp_verdict(ts, omega, tol)[0]
