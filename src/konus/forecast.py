"""Forecasting sets for a new observation and Monte Carlo measures of their size.

Given a panel passing the homotheticity test at level omega and a new price
vector, the admissible demand vectors form a polyhedral cone cut out by one
linear inequality per observed period.  The cone coefficients come from the
omega-discounted closure of the Paasche matrix.  The size of the acyclicity-
and homotheticity-based forecasting sets is measured by the fraction of
random unit price vectors that keep the panel consistent; the trials run in
batches, each on its own ``(seed, trial)`` substream, so the counts are
bit-identical for any batch size.  The appendix-2 counterexample fixture,
whose homothetic forecasting set sits strictly inside the acyclic support
set, lives here with its inclusion check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from ._mc import batch_size, count_trials, trial_rng
from .axioms import _garp_satisfied, _harp_verdict, _verdicts, check_harp
from .afriat import InfeasibleAxiomError
from .core import FloatArray, TradeStatistics, cross_value_matrix, trade_statistics, validate_level
from .semiring import maxtimes_closure

VERTEX_ENUMERATION_MAX_DIM = 4
# Square subsystems that vertex enumeration ranks, solves and tests together.
_VERTEX_STACK = 1024


@dataclass(frozen=True, eq=False)
class ForecastCone:
    """Linear description of the demand vectors consistent with homotheticity.

    Membership is ``gamma[s] * <P^s, x> >= <price_new, x>`` for every period
    ``s``.  The observed prices are carried along so the cone is
    self-contained for membership tests and polytope emission.
    """

    omega: float
    price_new: FloatArray
    gamma: FloatArray
    prices: FloatArray  # observed price rows backing the inequalities


@dataclass(frozen=True, eq=False)
class LawOfDemandEstimate:
    """Step-function matrix ``D`` and its max-times path maxima ``Delta``.

    ``path_matrix`` is ``None`` when a cycle of ``D`` has product above one;
    the outer estimate is then empty.
    """

    omega: float
    step_matrix: FloatArray
    path_matrix: FloatArray | None


@dataclass(frozen=True)
class SizeReport:
    """Monte Carlo estimate of a forecasting set's size."""

    axiom: str
    trials: int
    hits: int
    seed: int

    @property
    def fraction(self) -> float:
        return self.hits / self.trials


@dataclass(frozen=True)
class LinearConstraint:
    """One row ``coeffs . x  <sense>  rhs`` with sense ``>=`` or ``==``."""

    coeffs: tuple[float, ...]
    sense: str
    rhs: float
    label: str = ""


@dataclass(frozen=True)
class PolytopeDescription:
    variables: tuple[str, ...]
    constraints: tuple[LinearConstraint, ...]


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


def gamma_coefficients(ts: TradeStatistics, omega: float, price_new) -> ForecastCone:
    """Cone coefficients ``gamma[s] = min_t omega^2 / closure[t, s] * <price_new, X^t> / px[t, t]``.

    ``closure`` is :func:`omega_closure`, read off the closure that decided
    the homotheticity verdict: that one leaves out the self-loops, whose
    weight ``1 / omega <= 1`` can raise only the diagonal, so restoring the
    diagonal to at least ``1 / omega`` gives it bit for bit.
    """
    price_new = _admissible_price(price_new, ts.num_goods)
    verdict, closure = _harp_verdict(ts, omega, 0.0)
    if not verdict.satisfied:
        raise InfeasibleAxiomError(
            f"homotheticity fails at omega={omega}; the forecasting cone is undefined",
            verdict.witness,
        )
    if omega < 1.0:
        raise ValueError("omega must be at least 1")
    paths = closure.copy()
    np.fill_diagonal(paths, np.maximum(paths.diagonal(), 1.0 / omega))
    new_values = ts.quantities @ price_new           # <price_new, X^t>
    numerators = omega * omega * new_values / ts.expenditures()
    gamma = (numerators[:, np.newaxis] / paths).min(axis=0)
    return ForecastCone(omega=omega, price_new=price_new, gamma=gamma, prices=ts.prices)


def _admissible_price(price_new, m: int) -> FloatArray:
    arr = np.asarray(price_new, dtype=float)
    if arr.shape != (m,):
        raise ValueError(f"new price must have {m} coordinates")
    if not (arr.min() > 0.0 and arr.max() < math.inf):  # a NaN fails both comparisons
        raise ValueError("new price must be finite and strictly positive")
    return arr


def _admissible_bundle(x, m: int) -> FloatArray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (m,):
        raise ValueError(f"bundle must have {m} coordinates")
    if not (arr.min() >= 0.0 and 0.0 < arr.max() < math.inf):  # a NaN fails both comparisons
        raise ValueError("bundle must be finite, nonnegative and nonzero")
    return arr


def _admissible_expenditure(value: float) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"expenditure must be finite and positive, got {value!r}")
    return float(value)


def kh_membership(cone: ForecastCone, ts: TradeStatistics, x, *, tol: float = 0.0) -> bool:
    """True iff all cone inequalities hold for the candidate demand vector."""
    validate_level(tol=tol)
    arr = _admissible_bundle(x, ts.num_goods)
    lhs = cone.gamma * (ts.prices @ arr)
    rhs = float(cone.price_new @ arr)
    return bool(np.all(lhs >= rhs - tol))


def kg_membership(ts: TradeStatistics, omega: float, price_new, x, *, tol: float = 0.0) -> bool:
    """True iff appending ``(price_new, x)`` keeps the panel acyclicity-consistent."""
    validate_level(omega, tol)
    arr = _admissible_bundle(x, ts.num_goods)
    extended = ts.extended(price_new, arr)
    return _garp_satisfied(cross_value_matrix(extended), omega, tol)


def kh_polytope(cone: ForecastCone, x_new: float) -> PolytopeDescription:
    """Constraint list for the cone sliced at new-period expenditure ``x_new``.

    Emits the per-period inequalities ``gamma[s] <P^s, x> - <price_new, x> >= 0``,
    the budget equality ``<price_new, x> = x_new``, and nonnegativity rows.
    """
    _admissible_expenditure(x_new)
    T, m = cone.prices.shape
    variables = tuple(f"x{i + 1}" for i in range(m))
    rows = [
        LinearConstraint(
            coeffs=tuple(float(v) for v in cone.gamma[s] * cone.prices[s] - cone.price_new),
            sense=">=",
            rhs=0.0,
            label=f"period_{s + 1}",
        )
        for s in range(T)
    ]
    rows.append(LinearConstraint(
        coeffs=tuple(float(v) for v in cone.price_new), sense="==", rhs=float(x_new),
        label="budget",
    ))
    for i in range(m):
        coeffs = [0.0] * m
        coeffs[i] = 1.0
        rows.append(LinearConstraint(coeffs=tuple(coeffs), sense=">=", rhs=0.0,
                                     label=f"nonneg_{variables[i]}"))
    return PolytopeDescription(variables=variables, constraints=tuple(rows))


def enumerate_vertices(poly: PolytopeDescription, *, tol: float = 1e-9) -> FloatArray:
    """Brute-force vertex enumeration for low-dimensional constraint lists.

    Solves every square subsystem built from the equalities plus a choice of
    inequalities, keeps feasible solutions, and deduplicates.  Subsystems are
    ranked, solved and tested in stacks of a fixed size, taken in the order
    of ``itertools.combinations``; every stacked step is the same per-matrix
    computation as solving them one at a time, so vertex order and
    deduplication do not change, and memory stays one stack at any size.
    Only supported up to dimension four; larger polytopes stay symbolic.
    """
    validate_level(tol=tol)
    m = len(poly.variables)
    if m > VERTEX_ENUMERATION_MAX_DIM:
        raise ValueError(
            f"vertex enumeration supports at most {VERTEX_ENUMERATION_MAX_DIM} dimensions, got {m}"
        )
    eq_rows = [c for c in poly.constraints if c.sense == "=="]
    ineq_rows = [c for c in poly.constraints if c.sense == ">="]
    a_eq = np.array([c.coeffs for c in eq_rows], dtype=float).reshape(len(eq_rows), m)
    b_eq = np.array([c.rhs for c in eq_rows], dtype=float)
    a_in = np.array([c.coeffs for c in ineq_rows], dtype=float).reshape(len(ineq_rows), m)
    b_in = np.array([c.rhs for c in ineq_rows], dtype=float)
    need = m - len(eq_rows)
    vertices: list[np.ndarray] = []
    subsets = combinations(range(len(ineq_rows)), need)
    while chosen := list(islice(subsets, _VERTEX_STACK)):
        chosen = np.array(chosen, dtype=int).reshape(len(chosen), need)
        a = np.concatenate([np.broadcast_to(a_eq, (len(chosen), *a_eq.shape)), a_in[chosen]], axis=1)
        b = np.concatenate([np.broadcast_to(b_eq, (len(chosen), len(b_eq))), b_in[chosen]], axis=1)
        full = np.linalg.matrix_rank(a, tol=1e-12) == m
        if not full.any():
            continue
        points = np.linalg.solve(a[full], b[full][:, :, np.newaxis])[:, :, 0]
        lhs_in = (a_in @ points[:, :, np.newaxis])[:, :, 0]
        lhs_eq = (a_eq @ points[:, :, np.newaxis])[:, :, 0]
        scale = 1.0 + np.abs(b_in) + np.abs(lhs_in)
        feasible = np.all(lhs_in >= b_in - tol * scale, axis=1) & np.all(
            np.abs(lhs_eq - b_eq) <= tol * (1.0 + np.abs(b_eq)), axis=1
        )
        vertices.extend(points[feasible])
    unique: list[np.ndarray] = []
    for v in vertices:
        if not any(np.allclose(v, u, atol=10 * tol, rtol=0.0) for u in unique):
            unique.append(v)
    unique.sort(key=lambda v: tuple(np.round(v, 9)))
    return np.array(unique, dtype=float).reshape(len(unique), m)


def _step(values: np.ndarray) -> np.ndarray:
    """Unit step: one on strictly positive arguments, zero otherwise (zero at zero)."""
    return (values > 0.0).astype(float)


def law_of_demand_estimate(ts: TradeStatistics, omega: float) -> LawOfDemandEstimate:
    """Step matrix ``D`` and its path maxima ``Delta`` for the demand-law outer set.

    ``D[s, t] = max(px[t, t] / (omega px[s, t]), step(px[s, s] / px[s, t] - omega))``.
    ``Delta`` collects max-times products of the walks of ``D`` with at
    least one edge, the single-edge walk included.
    """
    validate_level(omega)
    px = cross_value_matrix(ts)
    diag = px.diagonal()
    ratio = diag[np.newaxis, :].T / px  # px[s, s] / px[s, t]
    step_matrix = np.maximum(diag[np.newaxis, :] / (omega * px), _step(ratio - omega))
    return LawOfDemandEstimate(omega=omega, step_matrix=step_matrix,
                               path_matrix=maxtimes_closure(step_matrix))


def law_of_demand_outer(
    ts: TradeStatistics,
    omega: float,
    price_new,
    x,
    expenditure: float | None = None,
    *,
    tol: float = 0.0,
) -> bool:
    """Necessary condition for the extension to respect the law of demand.

    Evaluates, for every period pair ``(s, t)``, the product of the two
    step-style brackets linking the new observation to periods ``s`` and ``t``
    against ``1 / Delta`` of the return path ``t -> s``, which is exactly
    cycle consistency of the extended step matrix.  True is necessary, not
    sufficient, for demand-law-consistent extensions.
    """
    validate_level(omega, tol)
    if omega < 1.0:
        raise ValueError("omega must be at least 1")
    price_new = _admissible_price(price_new, ts.num_goods)
    arr = _admissible_bundle(x, ts.num_goods)
    spend_new = float(price_new @ arr) if expenditure is None else _admissible_expenditure(expenditure)
    verdict = check_harp(ts, omega)
    if not verdict.satisfied:
        raise InfeasibleAxiomError(
            f"homotheticity fails at omega={omega}", verdict.witness
        )
    estimate = law_of_demand_estimate(ts, omega)
    if estimate.path_matrix is None:
        return False
    px = cross_value_matrix(ts)
    diag = px.diagonal()
    obs_at_new = ts.prices @ arr          # <P^s, x>
    new_at_obs = ts.quantities @ price_new  # <price_new, X^t>
    into_new = np.maximum(spend_new / (omega * obs_at_new), _step(diag / obs_at_new - 1.0))
    out_of_new = np.maximum(diag / (omega * new_at_obs), _step(spend_new / (omega * new_at_obs) - 1.0))
    products = into_new[:, np.newaxis] * out_of_new[np.newaxis, :] * estimate.path_matrix.T
    return bool(np.all(products <= 1.0 + tol + 1e-12))


def sample_positive_sphere(m: int, rng: np.random.Generator) -> FloatArray:
    """Uniform draw from the unit Euclidean sphere's nonnegative orthant."""
    if m < 1:
        raise ValueError("dimension must be at least 1")
    while True:
        draw = np.abs(rng.standard_normal(m))
        norm = float(np.linalg.norm(draw))
        if norm > 0.0:
            return draw / norm


def _size_batch(ts: TradeStatistics, base_px: FloatArray, seed: int, trials: range) -> np.ndarray:
    """``(garp_ok, harp_ok)`` rows of the size trials in ``trials``.

    Each trial redraws the last period's price and tests both axioms at
    level one.
    """
    prices = [sample_positive_sphere(ts.num_goods, trial_rng(seed, b)) for b in trials]
    px = np.repeat(base_px[np.newaxis], len(prices), axis=0)
    px[:, -1, :] = [ts.quantities @ price for price in prices]
    garp_ok, harp_ok = _verdicts(px)
    # homotheticity implies acyclicity; enforce the implication against
    # rounding at the cycle-product boundary so paired dominance is exact
    return np.column_stack([garp_ok | harp_ok, harp_ok])


def forecast_size_paired(ts: TradeStatistics, trials: int, seed: int) -> tuple[SizeReport, SizeReport]:
    """Size of the acyclicity- and homotheticity-based forecasting sets, paired.

    Each trial replaces the last period's price by a random unit vector and
    tests both axioms at level one on the same draw.  Per-trial substreams
    depend only on ``(seed, trial)``, so results are bit-identical for any
    batch size and the homothetic fraction never exceeds the acyclic one.
    """
    if trials < 1:
        raise ValueError("trial count must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    base_px = cross_value_matrix(ts)
    garp_hits, harp_hits = count_trials(
        lambda batch: _size_batch(ts, base_px, seed, batch), trials,
        batch_size(ts.num_periods, ts.num_goods))
    return (
        SizeReport(axiom="garp", trials=trials, hits=garp_hits, seed=seed),
        SizeReport(axiom="harp", trials=trials, hits=harp_hits, seed=seed),
    )


def forecast_size(ts: TradeStatistics, axiom: str, trials: int, seed: int) -> SizeReport:
    """Single-axiom size measure; shares price draws with the paired variant."""
    key = axiom.lower()
    if key not in ("garp", "harp"):
        raise ValueError(f"unknown axiom {axiom!r}; expected 'garp' or 'harp'")
    garp_report, harp_report = forecast_size_paired(ts, trials, seed)
    return garp_report if key == "garp" else harp_report


# ---------------------------------------------------------------------------
# counterexample fixture: three ray Engel curves over three goods


@dataclass(frozen=True)
class CounterexampleFixture:
    """Three-good fixture with ray Engel curves and a fourth evaluation budget.

    Demand directions put weight one on the own good and ``epsilon`` on the
    others; the base panel passes both axioms for every ``epsilon`` below one.
    The forecasting exercise evaluates demand at the unit price vector with
    expenditure two, where the homothetic forecasting set is a strict subset
    of the acyclicity-based support set built from intersection demands.
    """

    epsilon: float = 0.0
    prices: tuple[tuple[float, ...], ...] = ((2.0, 1.0, 4.0), (2.0, 1.0, 2.0), (2.0, 2.0, 1.0))
    price_new: tuple[float, ...] = (1.0, 1.0, 1.0)
    expenditure_new: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")

    def directions(self) -> np.ndarray:
        m = len(self.prices[0])
        return np.where(np.eye(m, dtype=bool), 1.0, self.epsilon)

    def demand(self, period: int, expenditure: float) -> np.ndarray:
        """Ray Engel curve: demand is the direction scaled by expenditure."""
        return self.directions()[period] * expenditure

    def statistics(self) -> TradeStatistics:
        """Base panel with unit-parameter demands."""
        return trade_statistics(np.asarray(self.prices, dtype=float), self.directions())

    def intersection_statistics(self) -> TradeStatistics:
        """Panel with each demand scaled to cross the new budget plane."""
        levels = intersection_demands(self)
        quantities = self.directions() * levels[:, np.newaxis]
        return trade_statistics(np.asarray(self.prices, dtype=float), quantities)


def intersection_demands(fix: CounterexampleFixture) -> np.ndarray:
    """Expenditure levels at which each Engel curve meets the new budget plane.

    Solves ``<price_new, direction_t * level> = expenditure_new`` per period;
    linear because the curves are rays.
    """
    price_new = np.asarray(fix.price_new, dtype=float)
    inner = fix.directions() @ price_new
    if np.any(inner <= 0.0):
        raise ValueError("degenerate demand direction: zero inner product with the new price")
    return fix.expenditure_new / inner


def check_inclusion(fix: CounterexampleFixture, cone: ForecastCone, vertices: np.ndarray) -> str:
    """Verify the homothetic set sits strictly inside the acyclic support set.

    ``cone`` and ``vertices`` are the fixture's homothetic cone and the
    vertices of its slice at the new expenditure.
    """
    base = fix.statistics()
    support = fix.intersection_statistics()
    price_new = np.asarray(fix.price_new, dtype=float)
    rng = np.random.default_rng(0)
    inside = [v for v in vertices]
    for _ in range(200):  # random points of the homothetic slice
        weights = rng.dirichlet(np.ones(len(vertices)))
        inside.append(weights @ vertices)
    for point in inside:
        if not kg_membership(support, 1.0, price_new, point):
            return "inclusion FAILED: a homothetic forecast point left the support set"
    strict = _strict_inclusion_witness(fix, cone, base, support, price_new)
    if strict is None:
        return "inclusion holds but no strict witness found"
    return ("homothetic forecasting set is strictly contained in the acyclic support set; "
            f"witness in support set but not homothetic: {np.round(strict, 6).tolist()}")


def _strict_inclusion_witness(fix, cone, base, support, price_new):
    rng = np.random.default_rng(1)
    for _ in range(2000):
        draw = rng.dirichlet(np.ones(base.num_goods)) * fix.expenditure_new
        point = draw / float(price_new @ draw) * fix.expenditure_new
        if kg_membership(support, 1.0, price_new, point) and not kh_membership(cone, base, point):
            return point
    return None
