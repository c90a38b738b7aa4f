"""Revealed-preference axiom tests with efficiency level omega and violation witnesses.

Both tests consume only the cross-value matrix.  The acyclicity test builds
the direct revealed-preference relation at level omega and inspects its
transitive closure; the homotheticity test bounds cycle products of the
Paasche matrix by powers of omega via a max-times closure, or where it
diverges the exact cycle search.  The closure only decides verdicts: every
walk value is read off one Karp table of the Paasche logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (FloatArray, TradeDataError, TradeStatistics, cross_value_matrix, paasche_matrix,
                   validate_level)
from .semiring import (FLOAT_SLACK, _closure, _karp_table, _longest_walks, _relax, _reweight, _shortest_cycle,
                       _table_max_mean, _warshall, boolean_closure)


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


def check_garp(ts: TradeStatistics, omega: float = 1.0, *, tol: float = 0.0) -> AxiomVerdict:
    """Test the acyclicity axiom at efficiency level omega.

    Satisfied iff for every pair ``t != s`` with ``t`` related to ``s`` through
    the transitive closure of the level-omega relation, the closing comparison
    ``px[s, s] <= omega * px[s, t]`` holds.

    On failure the witness chain is the smallest under ``(len(chain), chain)``
    among the shortest chains of all violating pairs: fewest links first,
    then the smallest source, then the lexicographically smallest chain from
    that source.  Recovery keeps O(T^2) memory: a single link is found in
    O(T^2), and a longer chain from one (min, +) closure of link counts in
    O(T^3) (:func:`_garp_witness`).  On the planted panel of 1,000 periods,
    whose chain runs through all of them, the whole test takes about 0.47 s
    on a 2-core machine.

    Such a multi-link failure closes the relation twice: the boolean
    Warshall decides the verdict (0.097 s there), and the hop counts of the
    witness (0.36 s of the 0.47 s) hold that same reachability again below
    ``n``.  A passing test pays for the boolean closure alone; deciding from
    the hop counts would make it pay for the slower closure instead.
    """
    validate_level(omega, tol)
    px = cross_value_matrix(ts)
    rel, _, bad = _garp_violations(px, omega, tol)
    if not bad.any():
        return AxiomVerdict(satisfied=True, omega=omega)
    return AxiomVerdict(satisfied=False, omega=omega, witness=_garp_witness(rel, bad, omega))


def _garp_witness(rel: np.ndarray, bad: np.ndarray, omega: float) -> GarpWitness:
    """The witness of :func:`check_garp`, from the relation and violating pairs it decided on.

    A violating pair joined by one link is read off ``rel & bad``: its
    smallest source, then that source's smallest goal.  Otherwise a (min, +)
    Warshall closure gives the fewest links between all periods, as int16
    counts with ``n`` for "unreachable" (int32 where ``2 n`` would overflow);
    the least length over the violating pairs and its smallest source are a
    masked min and an argmin.  The chain is then built greedily: from each
    period, the smallest successor whose fewest links to one of the source's
    goals is one less, which is the lexicographically smallest of the
    source's shortest chains.  ``bad`` must be nonempty, inside the closure
    of ``rel`` and off the diagonal.
    """
    direct = rel & bad
    if direct.any():
        source = int(direct.any(axis=1).argmax())
        chain = [source, int(direct[source].argmax())]
    else:
        n = len(rel)
        hops = np.full(rel.shape, n, dtype=np.int16 if 2 * n <= np.iinfo(np.int16).max else np.int32)
        hops[rel] = 1
        _warshall(hops, np.minimum, np.add)
        nearest = np.where(bad, hops, n).min(axis=1)  # fewest links from each period to a violating goal
        source = int(nearest.argmin())
        goals = bad[source]
        left = np.where(goals, 0, hops[:, goals].min(axis=1))  # links still needed to reach a goal
        chain = [source]
        for links in range(int(nearest[source]) - 1, -1, -1):
            chain.append(int((rel[chain[-1]] & (left == links)).argmax()))
    return GarpWitness(chain=tuple(chain), comparison=(chain[-1], chain[0]), omega=omega)


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


def _verdicts(px: FloatArray, harp_first: bool) -> tuple[np.ndarray, np.ndarray]:
    """Acyclicity and homotheticity verdicts at level one of a stack ``px[B, T, T]``, homotheticity implying acyclicity.

    Returns ``(garp_ok[B], harp_ok[B])``.  A verdict that is computed is
    that of :func:`check_garp` or :func:`check_harp` on ``px[b]``: the same
    comparisons, the same Warshall step and the same max-times pivot loop,
    run over a stack of trials at once.  Rounding at the cycle-product
    boundary can fail acyclicity and pass homotheticity on one trial; the
    axiom decided first settles that trial, and the other axiom is tested
    only where the first leaves it open.  ``harp_first`` (the group
    experiment, which counts passes): every trial is closed in max-times,
    and only the trials that fail homotheticity close their relation.
    Otherwise (the power experiment, which counts rejections): every
    relation is closed, and only the trials that pass acyclicity run the
    max-times pivots.  The Paasche stack is formed and checked whole either
    way, so a trial that is never closed still raises what it raises alone.
    """
    scaled = _scaled_paasche(px, 1.0)
    if harp_first:
        harp_ok = ~_relax(scaled, 1.0 + FLOAT_SLACK)
        garp_ok = harp_ok.copy()
        if not harp_ok.all():
            garp_ok[~harp_ok] = ~_garp_violations(px[~harp_ok], 1.0, 0.0)[2].any(axis=(1, 2))
        return garp_ok, harp_ok
    garp_ok = ~_garp_violations(px, 1.0, 0.0)[2].any(axis=(1, 2))
    harp_ok = garp_ok.copy()
    if garp_ok.any():
        harp_ok[garp_ok] = ~_relax(scaled[garp_ok], 1.0 + FLOAT_SLACK)
    return garp_ok, harp_ok


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
    max(1 / px[b, n], max_a W[b, a] / px[a, n])``, W the best Paasche walk
    products of the base, off its Karp table (:func:`_harp_walks`); ``None``
    if the base fails homotheticity or its Paasche matrix is invalid (then
    ``paasche_matrix`` raises on every batch first).
    """

    px: FloatArray  # [T, T]; each trial replaces its last row
    garp_fails: bool  # the base alone violates acyclicity
    into_new: np.ndarray
    dooms: np.ndarray
    weights: FloatArray | None


def _insertion_base(px: FloatArray) -> _Insertion:
    """The base of :func:`_inserted_verdicts`, computed once for any number of trials."""
    n = len(px) - 1
    base, column, diag = px[:n, :n], px[:n, n], px.diagonal()[:n]
    _, closure, bad = _garp_violations(base, 1.0, 0.0)
    reach = closure | np.eye(n, dtype=bool)
    into_new = (reach & (diag >= column)).any(axis=1)
    # [a, b]: the closing comparison px[b, b] <= px[b, a] fails, as in _garp_violations
    closing_fails = diag[np.newaxis, :] > base.T
    heads = (into_new[:, np.newaxis] & closing_fails).any(axis=0) | (diag > column)
    weights = np.empty(0)  # a one-period panel's base is empty, and so is its price cone
    if n:
        try:
            walks = _harp_walks(base, 1.0, 0.0)[2]
        except TradeDataError:
            walks = None
        weights = None if walks is None else diag * np.maximum(
            1.0 / column, np.exp(_longest_walks(*walks, -np.log(column))))
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
    last pivot squares the closure's P.  The weights come off Karp's table,
    so the two can differ within their rounding of the threshold, and where
    rounding alone diverges the stacked closure, which fails the trial.
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


def _harp_verdict(px: FloatArray, omega: float, tol: float) -> AxiomVerdict:
    """:func:`check_harp` of a cross-value matrix, bit for bit: the closure, then the cycle search.

    ``_scaled_paasche`` has checked the matrix, so the trusted kernels get it unscanned: a copy
    to ``semiring._closure``, and on divergence the original to ``semiring._shortest_cycle``.
    """
    scaled = _scaled_paasche(px, omega)
    if _closure(scaled.copy(), tol) is not None:
        return AxiomVerdict(satisfied=True, omega=omega)
    cycle = _shortest_cycle(scaled, (1.0 + tol) * (1.0 + FLOAT_SLACK))
    if cycle is None:
        return AxiomVerdict(satisfied=True, omega=omega)
    product = 1.0
    with np.errstate(over="ignore"):  # a violating product may overflow to inf
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            product *= px[b, b] / px[a, b]  # the Paasche entry C[a, b]
    return AxiomVerdict(satisfied=False, omega=omega,
                        witness=HarpWitness(cycle=cycle, product=product, omega=omega))


def _harp_index(px: FloatArray) -> tuple[float, float, FloatArray, FloatArray]:
    """The homothetic index of ``px`` and what it is read off: ``(index, mean, logs, table)``.

    ``logs`` is ``log C`` with a ``-inf`` diagonal, ``table`` its Karp table and ``mean`` its maximum
    cycle mean; ``index`` is ``exp(mean)`` as :func:`~konus.max_cycle_geomean` reads it, bit for bit.
    """
    logs = paasche_matrix(px)
    np.log(logs, out=logs)
    np.fill_diagonal(logs, -np.inf)
    table = _karp_table(logs)
    mean = _table_max_mean(table)
    index = float(np.exp(mean)) if len(px) >= 2 else 1.0  # one period: every level is consistent
    return index, mean, logs, table


def _harp_walks(px: FloatArray, omega: float, tol: float):
    """``(index, verdict, walks)`` of ``px``: its homothetic index, verdict at omega and tol, walks on a pass.

    The Karp table of :func:`_harp_index`, with ``w = log C`` and maximum
    cycle mean ``mu``, certifies the panel when
    ``n * max(0, mu + err - log(omega)) <= log1p(FLOAT_SLACK)``, with
    ``err = 2 n eps max|w|`` and ``eps = 2**-52``: ``err`` bounds mu's
    rounding error, so no cycle of at most n periods then has a product
    above ``omega**k * (1 + FLOAT_SLACK)``, and the test passes at any tol.
    The worst term of Karp's formula, ``d[n, v] - d[k, v]`` at
    ``n - k = 1``, is a difference of two walk sums of at most 2n terms
    together; each term carries two roundings, its log's and the addition
    that appends it, each within ``eps / 2`` of ``max|w|`` while the
    partial walk sums stay within ``max|w|``.  They do on the panels where
    the bound decides, those with a cycle mean near ``log(omega)`` and
    telescoping walks; a panel with ``mu`` well below ``log(omega)``
    certifies whatever the bound.  The bound stops being covered near
    ``n = (log1p(FLOAT_SLACK) / (2 eps max|w|)) ** 0.5``, about
    ``47 / max|w| ** 0.5`` periods on a single-good panel, whose cycle
    products are all one.  Any other panel gets :func:`_harp_verdict`.  On a
    pass, ``walks`` is ``semiring._reweight`` of the same table at level
    omega, which ``semiring._longest_walks`` reads every walk value off.
    """
    index, mean, logs, table = _harp_index(px)
    n = len(px)
    err = 2.0 * n * np.finfo(float).eps * np.abs(logs).max(where=np.isfinite(logs), initial=0.0)
    log_level = math.log(omega)
    certified = n * max(0.0, mean + err - log_level) <= math.log1p(FLOAT_SLACK)
    verdict = AxiomVerdict(satisfied=True, omega=omega) if certified else _harp_verdict(px, omega, tol)
    return index, verdict, _reweight(table, logs, log_level) if verdict.satisfied else None


def check_harp(ts: TradeStatistics, omega: float = 1.0, *, tol: float = 0.0) -> AxiomVerdict:
    """Test the homotheticity axiom at efficiency level omega.

    Satisfied iff no admissible k-cycle has a Paasche product above
    ``omega**k * (1 + tol) * (1 + FLOAT_SLACK)``.  The test passes in O(T^3)
    if the max-times closure of the omega-scaled Paasche matrix (diagonal
    excluded) keeps its diagonal within that bound; otherwise the exact
    shortest-cycle search decides, and its cycle is the witness.  Rounding
    alone can diverge the closure where cycle products are exactly one, as
    on any single-good panel; the search then finds no cycle in O(T^4),
    about 0.14 s at 100 periods and 2.0 s at 200 on a 2-core machine.
    """
    validate_level(omega, tol)
    return _harp_verdict(cross_value_matrix(ts), omega, tol)
