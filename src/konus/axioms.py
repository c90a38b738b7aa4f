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
    _lift,
    _relax,
    _relax_border,
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
    """What every stack of :func:`_inserted_verdicts` shares: a cross-value matrix but its last row.

    The first ``n = T - 1`` periods form the base.  ``into_new[a]``: base
    period a reaches the new period, through the base relation and then
    its own link ``px[a', a'] >= px[a', new]``, whose cross values no trial
    changes.  ``dooms[b]``: a link from the new period to b closes a
    violation, because the reflexive base closure leads from b to some
    period whose closing comparison fails against the new period or
    against a base period that reaches it.  ``harp_lines`` are the pivot
    rows and columns of the base's homotheticity closure, or ``None`` if it
    diverges or its Paasche matrix is invalid; in the latter case
    ``paasche_matrix`` raises on every stack before they are needed.
    """

    px: FloatArray  # [T, T]; each trial replaces its last row
    garp_fails: bool  # the base alone violates acyclicity
    into_new: np.ndarray
    dooms: np.ndarray
    harp_lines: FloatArray | None


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
    lines = np.empty((n, 2, n))
    try:
        if _relax(_scaled_paasche(base, 1.0), 1.0 + FLOAT_SLACK, lines):
            lines = None
    except TradeDataError:
        lines = None
    return _Insertion(px=px, garp_fails=bool(bad.any()), into_new=into_new,
                      dooms=(reach & heads).any(axis=1), harp_lines=lines)


def _inserted_verdicts(base: _Insertion, px: FloatArray) -> tuple[np.ndarray, np.ndarray]:
    """``_verdicts(px)`` for a stack ``px[B, T, T]`` that differs from ``base.px`` only in the last rows.

    Each trial inserts its new period into the base closures, at O(T) work
    for acyclicity and O(T^2) for homotheticity instead of closing a T x T
    matrix at O(T^3), and gets the same verdicts bit for bit, and the same
    errors.  Acyclicity: a base violation stays, and a new one runs
    through the new period, so it is a link from it into ``dooms`` or a
    closing comparison of a period in ``into_new`` against it; every
    comparison reads the same cross values as the full test.
    Homotheticity: a diverging base fails every trial, and otherwise
    :func:`semiring._relax_border` runs the new row and column through the
    base's pivots with the multiplications of the full closure.
    """
    paasche = paasche_matrix(px)  # the checks of _verdicts, on the same stack
    row, new = px[:, -1, :-1], px[:, -1, -1:]
    garp_fails = (base.garp_fails | ((new >= row) & base.dooms).any(axis=1)
                  | ((new > row) & base.into_new).any(axis=1))
    if base.harp_lines is None:
        return ~garp_fails, np.zeros(len(px), dtype=bool)
    border = np.stack([paasche[:, -1, :-1], paasche[:, :-1, -1]], axis=1)
    return ~garp_fails, ~_relax_border(base.harp_lines, border, 1.0 + FLOAT_SLACK)


def _harp_verdict(ts: TradeStatistics, omega: float,
                  tol: float) -> tuple[AxiomVerdict, FloatArray | None]:
    """Homotheticity verdict at one level, with the closure it was read from on success.

    The closure is the max-times closure of the omega-scaled Paasche matrix
    with its diagonal zeroed.  On failure there is none: ``None`` is
    returned in its place, and the verdict carries the shortest violating
    cycle.
    """
    validate_level(omega, tol)
    px = cross_value_matrix(ts)
    scaled = _scaled_paasche(px, omega)
    closure = maxtimes_closure(scaled, tol=tol)
    if closure is not None:
        return AxiomVerdict(satisfied=True, omega=omega), closure
    bound = (1.0 + tol) * (1.0 + FLOAT_SLACK)
    cycle = shortest_cycle_above(scaled, bound)
    if cycle is None:  # pragma: no cover - closure divergence implies a violating cycle
        raise RuntimeError("homotheticity violation detected but no cycle recovered")
    product = 1.0
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
