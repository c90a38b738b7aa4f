"""Idempotent (max, *) matrix closures and cycle searches on positive matrices.

The closure of a nonnegative matrix in the semiring with ``a + b := max(a, b)``
and ``a * b := ab`` collects, for every ordered pair ``(t, s)``, the maximal
edge-weight product over all walks from ``t`` to ``s`` with at least one edge.
A cycle whose product exceeds one makes the closure blow up; the closure
routine detects that and reports divergence instead of garbage values.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]
BooleanRelation = NDArray[np.bool_]

# Multiplicative guard absorbing IEEE rounding of cycle products that are
# mathematically equal to the boundary (e.g. telescoping single-good cycles,
# which evaluate to 1 +/- a few ulp).  User-facing tolerances stack on top.
FLOAT_SLACK = 1e-12

# Raw tuple budget for the brute-force cycle enumerator.
DEFAULT_CYCLE_BUDGET = 2_000_000

# Bytes of float products one block of a max-times matrix product may hold.
_PRODUCT_BLOCK_BYTES = 32 * 2 ** 20


class NoAdmissibleCycleError(ValueError):
    """The matrix has no cycle satisfying the requested length constraints."""


class OracleBudgetError(RuntimeError):
    """Brute-force enumeration would exceed its tuple budget."""


def _as_square(matrix, name: str = "matrix") -> FloatArray:
    arr = np.array(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


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
    diverged.  Each pivot step is the same elementwise multiply and maximum
    for a single matrix and for every trial of a stack, so a trial's verdict
    does not depend on the stack it runs in.  The input must be finite and
    nonnegative: :func:`maxtimes_closure` checks that, and ``axioms._verdicts``
    builds its stacks that way.
    """
    stacked = values.ndim == 3
    live = np.arange(len(values)) if stacked else None
    diverged = np.zeros(len(values), dtype=bool) if stacked else False
    work, through = values, np.empty_like(values)  # through: walks via pivot k, rewritten each step
    diagonal = work.diagonal(0, -2, -1)  # a view: it follows the in-place relaxation
    for k in range(values.shape[-1] + 1):
        above = diagonal > threshold  # after pivot k - 1; at k = 0, before any pivot
        if above.any():
            if not stacked:
                return True
            keep = ~above.any(axis=1)
            diverged[live[~keep]] = True
            live = live[keep]
            if not live.size:
                break
            # mode="clip" writes straight into out; the default mode would buffer the copy
            np.take(work, np.flatnonzero(keep), axis=0, out=through[:live.size], mode="clip")
            work, through = through[:live.size], work[:live.size]
            diagonal = work.diagonal(0, -2, -1)
        if k < values.shape[-1]:
            np.multiply(work[..., :, k, np.newaxis], work[..., np.newaxis, k, :], out=through)
            np.maximum(work, through, out=work)
    return diverged


def maxtimes_closure(matrix, *, tol: float = 0.0) -> FloatArray | None:
    """Floyd-Warshall closure in the (max, *) semiring over walks with >= 1 edge.

    Returns the closure as a read-only array, or ``None`` once it diverges:
    divergence is declared as soon as a diagonal entry exceeds ``1 + tol``
    (plus the float-rounding slack) at any relaxation stage, because a cycle
    with product above one lets walk products grow without bound.  Runs in
    O(T^3) multiply-compare steps otherwise, through :func:`_relax`, the
    pivot loop the stacked verdicts of ``axioms._verdicts`` run too.
    """
    values = _as_square(matrix)
    if (values < 0.0).any():
        raise ValueError("max-times closure requires a nonnegative matrix")
    if _relax(values, (1.0 + tol) * (1.0 + FLOAT_SLACK)):
        return None
    values.flags.writeable = False
    return values


def boolean_closure(rel) -> BooleanRelation:
    """Warshall transitive closure of a boolean relation (reflexivity not forced).

    Also takes a stack ``[..., T, T]`` of relations and closes each one.
    """
    out = np.array(rel, dtype=bool)
    if out.ndim < 2 or out.shape[-1] != out.shape[-2]:
        raise ValueError(f"relation must be square, got shape {out.shape}")
    for k in range(out.shape[-1]):
        out |= out[..., :, k, np.newaxis] & out[..., np.newaxis, k, :]
    return out


def _karp_max_mean(log_weights: FloatArray) -> float:
    """Karp's maximum mean cycle on a complete digraph given log edge weights.

    ``d[k, v]`` is the heaviest walk of exactly ``k`` edges from vertex 0 to
    ``v``; the answer is ``max_v min_k (d[n, v] - d[k, v]) / (n - k)`` over
    the finite entries.  The final scan is one array expression over the
    whole table: each ratio is the same subtraction and division as an
    entry-by-entry loop, and min and max do not depend on the order they
    are taken in, so the result is bit-identical to it.
    """
    n = log_weights.shape[0]
    d = np.full((n + 1, n), -np.inf)
    d[0, 0] = 0.0
    candidates = np.empty_like(log_weights)
    for k in range(1, n + 1):
        np.add(d[k - 1][:, np.newaxis], log_weights, out=candidates)
        candidates.max(axis=0, out=d[k])
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
    arr = _as_square(matrix)
    if np.any(arr <= 0.0):
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
    arr = _as_square(matrix)
    if np.any(arr <= 0.0):
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


def maxtimes_product(left: FloatArray, right: FloatArray) -> FloatArray:
    """Max-times matrix product ``out[i, j] = max_m left[i, m] * right[m, j]``.

    The ``(i, m, j)`` products are formed over blocks of the middle index
    whose cube stays within a fixed byte budget, so memory is O(T^2) at any
    size while small matrices still go through in a single block.  Every
    product is the same float multiplication as in the full cube and a
    maximum does not depend on the order it is taken in, so the result is
    bit-identical to reducing the whole cube at once.
    """
    rows, inner = left.shape
    cols = right.shape[1]
    block = max(1, _PRODUCT_BLOCK_BYTES // (8 * rows * cols))
    out = None
    for lo in range(0, inner, block):
        part = (left[:, lo:lo + block, np.newaxis] * right[np.newaxis, lo:lo + block, :]).max(axis=1)
        out = part if out is None else np.maximum(out, part, out=out)
    return out


def shortest_cycle_above(matrix, bound: float, *, max_len: int | None = None) -> tuple[int, ...] | None:
    """Shortest closed walk (no adjacent repeats) whose edge product exceeds ``bound``.

    Uses exact-length max-product dynamic programming; any violating cycle
    decomposes into simple ones, so searching lengths up to T suffices.
    Returns ``None`` when no such walk exists.

    Tie-breaks: the length ``k`` is the least one at which some diagonal
    entry of the k-th max-times power exceeds ``bound``, and the walk starts
    from the smallest such index.  Walking back from it, each predecessor is
    the first ``argmax`` of the start row of the shorter power times the step
    column, and the cycle is returned rotated to start at its smallest index.

    Memory stays O(T^2): only the current power is kept, each step goes
    through :func:`maxtimes_product`, and the start row of each shorter power
    is rebuilt (one vector-matrix step each) once a violating length is found.
    """
    arr = _as_square(matrix)
    if np.any(arr < 0.0):
        raise ValueError("cycle search requires a nonnegative matrix")
    n = arr.shape[0]
    if n < 2:
        return None
    if max_len is None:
        max_len = n
    steps = arr  # already a private copy
    np.fill_diagonal(steps, 0.0)  # forbid self-steps; adjacency stays distinct
    power = steps
    for k in range(2, max_len + 1):
        power = maxtimes_product(power, steps)
        diag = np.diagonal(power)
        if np.any(diag > bound):
            start = int(np.flatnonzero(diag > bound)[0])
            rows = [steps[start, :]]  # rows[j - 1]: start row of the j-th power
            for _ in range(k - 2):
                rows.append((rows[-1][:, np.newaxis] * steps).max(axis=0))
            walk = [start]
            target = start
            for j in range(k - 1, 0, -1):
                scores = rows[j - 1] * steps[:, target]
                target = int(np.argmax(scores))
                walk.append(target)
            walk.reverse()  # a rotation of (start, v1, ..., v_{k-1})
            return _canonical_rotation(tuple(walk))
    return None
