"""Idempotent (max, *) and (max, min) matrix closures and cycle searches on positive matrices.

The closure of a nonnegative matrix in the semiring with ``a + b := max(a, b)``
and ``a * b := ab`` collects, for every ordered pair ``(t, s)``, the maximal
edge-weight product over all walks from ``t`` to ``s`` with at least one edge.
A cycle whose product exceeds one makes the closure blow up; the closure
routine detects that and reports divergence instead of garbage values.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .core import validate_level

FloatArray = NDArray[np.float64]
BooleanRelation = NDArray[np.bool_]

# Multiplicative guard absorbing IEEE rounding of cycle products that are
# mathematically equal to the boundary (e.g. telescoping single-good cycles,
# which evaluate to 1 +/- a few ulp).  User-facing tolerances stack on top.
FLOAT_SLACK = 1e-12

# Bytes of float products one block of a max-times matrix product may hold.
_PRODUCT_BLOCK_BYTES = 32 * 2 ** 20

# Bytes of one band of Karp's table candidates, small enough to stay in a
# core's L2 cache.
_KARP_BAND_BYTES = 2 ** 18

# The HARP witness search tries lengths one at a time up to this one, then
# lifts; panels of at most this many periods never lift.
_LIFT_AFTER = 6


class NoAdmissibleCycleError(ValueError):
    """The matrix has no cycle satisfying the requested length constraints."""


def _as_square(matrix, name: str = "matrix") -> tuple[FloatArray, float]:
    """A private float copy of a finite square matrix, and its least entry for the caller's sign check.

    The two extrema are the only scans: a NaN entry makes both NaN, and
    every comparison with NaN is False.
    """
    arr = np.array(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    low, high = arr.min(initial=np.inf), arr.max(initial=-np.inf)
    if not (-np.inf < low and high < np.inf):
        raise ValueError(f"{name} must be finite")
    return arr, low


def _relax(values: FloatArray, threshold: float):
    """Max-times Floyd-Warshall in place over one matrix ``[T, T]`` or a stack ``[B, T, T]``.

    Returns whether the matrix diverged, or for a stack a mask of the trials
    that did.  A matrix diverges once one of its diagonal entries exceeds
    ``threshold``, before the first pivot or after any pivot.  A single
    matrix then stops, holding its state at that pivot.  A diverged trial
    of a stack leaves the active stack at that pivot, so its walks never
    grow to ``inf`` and ``inf * 0`` never makes a NaN; the survivors are
    compacted into the step buffer and the two buffers swap roles, so
    memory stays two stacks and ``values`` holds closures only if no trial
    diverged.  Each pivot step forms the products of pivot column and pivot
    row with one ``einsum`` outer product, then takes their maximum with the
    walks so far, the same steps for a single matrix and for every trial of
    a stack, so a trial's verdict does not depend on the stack it runs in.
    The outer product has no summed index: each entry is the single product
    ``a * b`` of two nonnegative floats added to the output's initial +0,
    which leaves it unchanged, so the walks are bit for bit those of a
    broadcast ``np.multiply``, whose stride-0 loop takes about twice as long
    at T=400.  Unlike ``np.multiply``, ``einsum`` raises no overflow warning
    for a product that overflows to ``inf``.  The input must be finite and
    nonnegative: :func:`maxtimes_closure` checks that, and
    ``axioms._scaled_paasche`` builds every matrix and stack of the axiom
    module that way.  Pivot k squares its own diagonal entry,
    the best cycle through k over the vertices before it.  When the first
    T - 1 vertices did not diverge, that square at the last pivot decides
    the verdict, which is why a size trial of ``axioms._inserted_verdicts``
    passes iff its price cone's ``P * P`` is at most ``threshold``.
    """
    stacked = values.ndim == 3
    live = np.arange(len(values)) if stacked else None
    diverged = np.zeros(len(values), dtype=bool) if stacked else False
    work, through = values, np.empty_like(values)  # through: walks via pivot k, rewritten each step
    diagonal = work.diagonal(0, -2, -1)  # a view: it follows the in-place relaxation
    for k in range(values.shape[-1] + 1):
        # after pivot k - 1; at k = 0, before any pivot.  fmax skips a NaN, as a comparison does
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
            # mode="clip" writes straight into out; the default mode would buffer the copy
            np.take(work, keep, axis=0, out=through[:live.size], mode="clip")
            work, through = through[:live.size], work[:live.size]
            diagonal = work.diagonal(0, -2, -1)
        if k < values.shape[-1]:
            np.einsum("...i,...j->...ij", work[..., :, k], work[..., k, :], out=through)
            np.maximum(work, through, out=work)
    return diverged


def maxtimes_closure(matrix, *, tol: float = 0.0) -> FloatArray | None:
    """Floyd-Warshall closure in the (max, *) semiring over walks with >= 1 edge.

    Returns the closure as a read-only array, or ``None`` once it diverges:
    divergence is declared as soon as a diagonal entry exceeds ``1 + tol``
    (plus the float-rounding slack) at any relaxation stage, because a cycle
    with product above one lets walk products grow without bound.  Runs in
    O(T^3) multiply-compare steps otherwise, through :func:`_relax`, the
    pivot loop the stacked verdicts of ``axioms._verdicts`` run too.  Checks
    ``tol`` and the matrix, then closes a private copy through
    :func:`_closure`, the kernel internal callers with a checked matrix call
    directly.
    """
    validate_level(tol=tol)
    values, low = _as_square(matrix)
    if low < 0.0:
        raise ValueError("max-times closure requires a nonnegative matrix")
    return _closure(values, tol)


def _closure(values: FloatArray, tol: float) -> FloatArray | None:
    """:func:`maxtimes_closure` of a private, finite, nonnegative float matrix, closed in place.

    Trusts its input: no copy, no scan.  ``values`` becomes the read-only
    closure, or is left mid-relaxation when ``None`` reports divergence.
    """
    if _relax(values, (1.0 + tol) * (1.0 + FLOAT_SLACK)):
        return None
    values.flags.writeable = False
    return values


def _maxmin_closure(out: np.ndarray) -> np.ndarray:
    """Warshall closure in place in the (max, min) semiring, of one matrix or a stack ``[..., T, T]``.

    Entry ``[t, s]`` becomes the largest least edge of any walk from ``t`` to
    ``s`` with at least one edge: reachability on booleans.  Max and min only
    select entries, so no value is rounded.
    """
    for k in range(out.shape[-1]):
        np.maximum(out, np.minimum(out[..., :, k, np.newaxis], out[..., np.newaxis, k, :]), out=out)
    return out


def boolean_closure(rel) -> BooleanRelation:
    """Warshall transitive closure of a boolean relation (reflexivity not forced).

    Also takes a stack ``[..., T, T]`` of relations and closes each one.
    """
    out = np.array(rel, dtype=bool)
    if out.ndim < 2 or out.shape[-1] != out.shape[-2]:
        raise ValueError(f"relation must be square, got shape {out.shape}")
    return _maxmin_closure(out)


def _karp_table(log_weights: FloatArray) -> FloatArray:
    """Karp's table: ``d[k, v]`` is the heaviest walk of exactly ``k`` edges from vertex 0 to ``v``.

    Row ``k`` takes, for each target ``v``, the maximum over its incoming
    edges of ``d[k - 1, u] + w[u, v]``.  The incoming edges are read as rows
    of the transposed weights, a band of targets at a time that stays in a
    core's cache; each entry is the same addition and the same maximum as
    reducing a whole column of ``d[k - 1][:, None] + w``, so the table is
    bit-identical to that.
    """
    n = log_weights.shape[0]
    d = np.full((n + 1, n), -np.inf)
    d[0, 0] = 0.0
    into = np.ascontiguousarray(log_weights.T)  # into[v, u]: the edge u -> v
    band = max(1, _KARP_BAND_BYTES // (8 * n))
    candidates = np.empty((min(band, n), n))
    for k in range(1, n + 1):
        for lo in range(0, n, band):
            rows = into[lo:lo + band]
            part = candidates[:len(rows)]
            np.add(rows, d[k - 1], out=part)
            part.max(axis=1, out=d[k, lo:lo + band])
    return d


def _karp_max_mean(log_weights: FloatArray) -> float:
    """Karp's maximum mean cycle on a complete digraph given log edge weights.

    Over the finite entries of :func:`_karp_table`, the answer is
    ``max_v min_k (d[n, v] - d[k, v]) / (n - k)``.  The final scan is one
    array expression over the whole table: each ratio is the same
    subtraction and division as an entry-by-entry loop, and min and max do
    not depend on the order they are taken in, so the result is
    bit-identical to it.
    """
    n = log_weights.shape[0]
    d = _karp_table(log_weights)
    finite = np.isfinite(d[:n])
    with np.errstate(invalid="ignore"):  # -inf - -inf where d[n, v] is unreachable
        ratios = (d[n] - d[:n]) / np.arange(n, 0, -1)[:, np.newaxis]
    worst = np.where(finite, ratios, np.inf).min(axis=0)
    reached = np.isfinite(d[n]) & finite.any(axis=0)
    return float(worst[reached].max()) if reached.any() else -np.inf


def max_cycle_geomean(matrix) -> float:
    """Maximal geometric mean of edge products over admissible cycles.

    Admissible cycles ``(t_1, ..., t_k, t_1)`` have ``k >= 2`` and no two
    cyclically adjacent equal indices, which rules out self-loops.  This is
    an exact maximum-mean-cycle search on logarithms restricted to
    off-diagonal edges.
    """
    arr, low = _as_square(matrix)
    if low <= 0.0:
        raise ValueError("cycle geomean requires a strictly positive matrix")
    n = arr.shape[0]
    if n < 2:
        raise NoAdmissibleCycleError(f"no admissible cycle of length >= 2 in a {n}x{n} matrix")
    log_weights = np.log(arr)
    np.fill_diagonal(log_weights, -np.inf)
    mean = _karp_max_mean(log_weights)
    if not np.isfinite(mean):
        raise NoAdmissibleCycleError("no cycle reachable in cycle search")
    return float(np.exp(mean))


def _canonical_rotation(cycle: tuple[int, ...]) -> tuple[int, ...]:
    pivot = cycle.index(min(cycle))
    return cycle[pivot:] + cycle[:pivot]


def maxtimes_product(left: FloatArray, right: FloatArray) -> FloatArray:
    """Max-times matrix product ``out[i, j] = max_m left[i, m] * right[m, j]``.

    The ``(i, m, j)`` products are formed over blocks of the middle index
    into one preallocated cube within a fixed byte budget, so memory is
    O(T^2) at any size while small matrices still go through in a single
    block.  Each block is one ``einsum`` with no summed index: every entry
    is the single product ``left[i, m] * right[m, j]`` of two nonnegative
    floats added to the output's initial +0, which leaves it unchanged, so
    it is the same float multiplication as in the full cube.  A maximum does
    not depend on the order it is taken in, so the result is bit-identical
    to reducing the whole cube at once.  ``fmax`` skips the NaN of an
    overflowed walk times a missing step (``inf * 0``), and is ``max``
    elsewhere.  Unlike ``np.multiply``, ``einsum`` raises no overflow
    warning, nor an invalid-value warning for that NaN.
    """
    rows, inner = left.shape
    cols = right.shape[1]
    block = max(1, min(inner, _PRODUCT_BLOCK_BYTES // (8 * rows * cols)))
    cube = np.empty((rows, block, cols))
    out = None
    for lo in range(0, inner, block):
        width = min(block, inner - lo)
        products = cube[:, :width]
        np.einsum("im,mj->imj", left[:, lo:lo + width], right[lo:lo + width], out=products)
        part = np.fmax.reduce(products, axis=1)
        out = part if out is None else np.fmax(out, part, out=out)
    return out


def _diagonal_product(left: FloatArray, right: FloatArray) -> FloatArray:
    """The diagonal of ``maxtimes_product(left, right)``, bit for bit, at O(T^2)."""
    return np.fmax.reduce(left * right.T, axis=1)


def _lift(base, last: int, advance):
    """Least ``k <= last`` at which some walk of at most ``k`` steps violates, by binary lifting.

    ``base`` holds the walks of at most one step, none of which may violate.
    ``advance(x, y)`` composes the walks of ``x`` then ``y``: it returns
    whether some composed walk violates, and the composed walks, which are
    read only when none does (so it may skip them then).
    Violation must be monotone in the number of steps, as it is for walks
    padded with steps that stay put.  The walks of at most ``2**i`` steps are
    squared until a square would violate; the least ``k`` is then found by
    descending through the squares kept, so it takes O(log last) products
    and holds at most ``log2(last) + 2`` of them.  Returns ``(k, walks of at
    most k - 1 steps)``, or ``None`` if no walk of at most ``last`` steps
    violates.
    """
    squares = [base]  # squares[i]: the walks of at most 2**i steps
    while True:
        violated, square = advance(squares[-1], squares[-1])
        if violated:
            break
        if 2 ** len(squares) >= last:
            return None
        squares.append(square)
    reach = squares.pop()
    low = 2 ** len(squares)  # no walk of at most low steps violates
    for i in reversed(range(len(squares))):
        violated, longer = advance(reach, squares[i])
        if not violated:
            reach, low = longer, low + 2 ** i
    return (low + 1, reach) if low < last else None


def _start_rows(steps: FloatArray, start: int, k: int) -> list[FloatArray]:
    """Row ``start`` of the first ``k - 1`` max-times powers of ``steps``, one vector-matrix step each.

    Each step forms its products with one ``einsum`` into a reused T x T
    buffer, with no summed index: every entry is the single product of two
    nonnegative floats added to the output's initial +0, which leaves it
    unchanged.  So each row is bit-identical to the same row of the power
    built by :func:`maxtimes_product`: the same multiplications, the same
    maximum.  Unlike ``np.multiply``, ``einsum`` raises no overflow warning.
    """
    rows = [steps[start]]
    products = np.empty_like(steps)
    for _ in range(k - 2):
        np.einsum("m,mj->mj", rows[-1], steps, out=products)
        rows.append(np.fmax.reduce(products, axis=0))
    return rows


def _search_by_length(steps: FloatArray, bound: float, last: int):
    """Least ``k`` in ``2..last`` whose k-th max-times power of ``steps`` has a diagonal entry above ``bound``.

    Returns ``k``, the smallest such entry's index and its :func:`_start_rows`,
    or ``None``.  Each length costs one diagonal, at O(T^2); the power
    itself is carried one step further only when the search goes on.
    """
    power = steps
    for k in range(2, last + 1):
        starts = np.flatnonzero(_diagonal_product(power, steps) > bound)
        if starts.size:
            start = int(starts[0])
            return k, start, _start_rows(steps, start, k)
        if k < last:
            power = maxtimes_product(power, steps)
    return None


def _search_by_lifting(steps: FloatArray, bound: float):
    """What ``_search_by_length(steps, bound, n)`` returns, through O(log n) products instead of n.

    Powers of ``max(steps, I)`` hold the best walk of at most j steps, whose
    products are multiplied in another order than the exact-length powers'.
    Two orders of one product of at most n factors differ by a relative
    ``2 n u`` at most (u = 2**-53), as long as no partial product under- or
    overflows, so the lifting runs at ``bound * (1 - 4 n u)``: it finds a
    length no greater than the exact search's, and every index that search
    could start from among its candidates.  Candidates are confirmed in
    increasing order by the exact recurrence from their start rows, so the
    answer is the exact search's, bit for bit.  If none confirms (a cycle
    within rounding of ``bound``), if the lifting finds no length at all, or
    if the lowered threshold is not above one (a walk that stays put would
    pass it), the exact search runs in full; so ``None`` is always the exact
    search's answer, and a matrix with no cycle above ``bound`` costs that
    search in full.  What the lifting cannot rule out: a cycle whose partial
    products under- or overflow in one order but not in the other may be
    missed below the lifted length, whose confirmed cycle is then longer
    than the exact search's.
    """
    n = len(steps)
    threshold = bound * (1.0 - n * 2.0 ** -51)
    if not threshold > 1.0:
        return _search_by_length(steps, bound, n)
    lift = steps.copy()
    np.fill_diagonal(lift, 1.0)

    def advance(left, right):
        if (_diagonal_product(left, right) > threshold).any():
            return True, None
        return False, maxtimes_product(left, right)

    found = _lift(lift, n, advance)
    if found is None:  # no cycle, or one lost to an under- or overflowing product
        return _search_by_length(steps, bound, n)
    k, reach = found
    for start in np.flatnonzero(_diagonal_product(reach, lift) > threshold):
        rows = _start_rows(steps, int(start), k)
        if np.fmax.reduce(rows[-1] * steps[:, start]) > bound:
            return k, int(start), rows
    return _search_by_length(steps, bound, n)


def shortest_cycle_above(matrix, bound: float) -> tuple[int, ...] | None:
    """Shortest closed walk (no adjacent repeats) whose edge product exceeds ``bound``.

    Uses exact-length max-product dynamic programming; any violating cycle
    decomposes into simple ones, so searching lengths up to T suffices.
    Returns ``None`` when no such walk exists.

    Tie-breaks: the length ``k`` is the least one at which some diagonal
    entry of the k-th max-times power exceeds ``bound``, and the walk starts
    from the smallest such index.  Walking back from it, each predecessor is
    the first ``argmax`` of the start row of the shorter power times the step
    column, skipping a NaN (an overflowed walk times a missing step), and
    the cycle is returned rotated to start at its smallest index.

    Cost: lengths up to ``_LIFT_AFTER`` are tried one at a time, each by the
    diagonal of the next power alone, at O(T^2); the power is carried on
    only when the search goes on, so ``k = 2`` takes no matrix product.
    Longer cycles are found by binary lifting (:func:`_search_by_lifting`) in
    O(log T) products, O(T^3 log T) in all, with the same answer as long as
    no partial walk product under- or overflows (see there); a matrix above
    the cutoff with no such cycle costs the step-by-step search, O(T^4).
    The start rows of the shorter powers are then rebuilt, one
    vector-matrix step each.  Memory stays O(T^2): at most
    ``ceil(log2(T)) + 3`` matrices.  Checks the bound, which must be finite
    (a NaN or infinite bound raises ``ValueError`` rather than read as "no
    violating cycle"), and the matrix, then searches a private copy through
    :func:`_shortest_cycle`, the kernel internal callers with a checked
    matrix call directly.
    """
    if not math.isfinite(bound):
        raise ValueError(f"bound must be finite, got {bound!r}")
    steps, low = _as_square(matrix)
    if low < 0.0:
        raise ValueError("cycle search requires a nonnegative matrix")
    return _shortest_cycle(steps, bound)


def _shortest_cycle(steps: FloatArray, bound: float) -> tuple[int, ...] | None:
    """:func:`shortest_cycle_above` of a private, finite, nonnegative float matrix.

    Trusts its input: no copy, no scan.  Zeroes the diagonal of ``steps``
    in place.
    """
    n = steps.shape[0]
    if n < 2:
        return None
    np.fill_diagonal(steps, 0.0)  # forbid self-steps; adjacency stays distinct
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing walks; inf * 0: one times a missing step
        found = _search_by_length(steps, bound, min(n, _LIFT_AFTER))
        if found is None and n > _LIFT_AFTER:
            found = _search_by_lifting(steps, bound)
        if found is None:
            return None
        k, start, rows = found  # rows[j - 1]: start row of the j-th power
        walk = [start]
        target = start
        for j in range(k - 1, 0, -1):
            scores = rows[j - 1] * steps[:, target]
            target = int(scores.argmax())
            if math.isnan(scores[target]):  # argmax stops at a NaN; skip them, as the products do
                target = int(np.fmax(scores, 0.0).argmax())
            walk.append(target)
    walk.reverse()  # a rotation of (start, v1, ..., v_{k-1})
    return _canonical_rotation(tuple(walk))
