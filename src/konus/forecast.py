"""Forecasting sets for a new observation and Monte Carlo measures of their size.

Given a panel passing the homotheticity test at level omega and a new price
vector, the admissible demand vectors form a polyhedral cone cut out by one
linear inequality per observed period.  The cone coefficients come from the
omega-discounted closure of the Paasche matrix, the one that decided the
homotheticity verdict.  The size of the acyclicity- and homotheticity-based
forecasting sets is measured by the fraction of random unit price vectors
that keep the panel consistent.  A trial redraws only the last period's
price p and is decided from its new row of cross values alone, against
the closures of the other periods, computed once per run.  Acyclicity
makes the comparisons of the full test.  Homotheticity is the dual of the
cone above, the paper's linear inequalities with the last bundle q_n
fixed: the trial passes iff ``P * P <= 1 + FLOAT_SLACK``, where
``P = max_b p.q_n / (kappa_b p.q_b)``, squared as the full closure's last
pivot squares it; the two may differ only within about ``4 (T + 1)`` ulp
of that threshold.  The new rows come from ``core._cross_values``, and may
round a few ulp away from the row ``cross_value_matrix`` computes.  Trial
b draws its price from ``np.random.default_rng((seed, b))``, bit for bit;
``_mc.trial_streams`` derives these a batch at a time and yields one
reused generator, so each trial's price is drawn before the next trial's
state is set.  The counts are bit-identical for any batch size.  The
appendix-2 counterexample fixture, whose homothetic forecasting set sits
strictly inside the acyclic support set, lives here with its inclusion
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import ClassVar

import numpy as np

from ._mc import batch_size, count_trials, trial_streams
from .axioms import (
    _Insertion,
    _garp_satisfied,
    _harp_verdict,
    _inserted_verdicts,
    _insertion_base,
)
from .afriat import InfeasibleAxiomError
from .core import (
    FloatArray,
    TradeStatistics,
    _cross_values,
    _with_new_period,
    cross_value_matrix,
    trade_statistics,
    validate_level,
)

VERTEX_ENUMERATION_MAX_DIM = 4
# Relative slack of the feasibility test in vertex enumeration; ten times it merges vertices.
VERTEX_TOL = 1e-9
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


def gamma_coefficients(ts: TradeStatistics, omega: float, price_new) -> ForecastCone:
    """Cone coefficients ``gamma[s] = min_t omega^2 / closure[t, s] * <price_new, X^t> / px[t, t]``.

    ``closure`` is the max-times closure of the omega-discounted Paasche
    matrix, diagonal included: a walk with ``k`` intermediate indices
    contributes ``omega ** -(k + 1)`` times its Paasche product.  It is read
    off the closure that decided the homotheticity verdict: that one leaves
    out the self-loops, whose weight ``1 / omega <= 1`` can raise only the
    diagonal, so restoring the diagonal to at least ``1 / omega`` gives it
    bit for bit.
    """
    validate_level(omega)
    if omega < 1.0:
        raise ValueError("omega must be at least 1")
    price_new = _admissible_price(price_new, ts.num_goods)
    verdict, closure = _harp_verdict(ts, omega, 0.0)
    if not verdict.satisfied:
        raise InfeasibleAxiomError(
            f"homotheticity fails at omega={omega}; the forecasting cone is undefined",
            verdict.witness,
        )
    paths = closure.copy()
    np.fill_diagonal(paths, np.maximum(paths.diagonal(), 1.0 / omega))
    new_values = _cross_values(price_new[np.newaxis], ts.quantities)[0]  # <price_new, X^t>
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
    return bool((lhs >= rhs - tol).all())


def kg_membership(ts: TradeStatistics, omega: float, price_new, x, *, tol: float = 0.0) -> bool:
    """True iff appending ``(price_new, x)`` keeps the panel acyclicity-consistent.

    The acyclicity test on ``cross_value_matrix(ts.extended(price_new, x))``,
    with the same errors, without building that panel: the admissibility
    checks leave nothing for its row checks to refuse, so only the stacked
    prices and bundles are formed, and their cross values are the same
    ``core._cross_values`` product.
    """
    validate_level(omega, tol)
    price_new = _admissible_price(price_new, ts.num_goods)
    arr = _admissible_bundle(x, ts.num_goods)
    _with_new_period(ts.period_ids)
    prices = np.concatenate((ts.prices, price_new[np.newaxis]))
    quantities = np.concatenate((ts.quantities, arr[np.newaxis]))
    return _garp_satisfied(_cross_values(prices, quantities), omega, tol)


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


def enumerate_vertices(poly: PolytopeDescription) -> FloatArray:
    """Brute-force vertex enumeration for low-dimensional constraint lists.

    Solves every square subsystem built from the equalities plus a choice of
    inequalities, keeps feasible solutions, and deduplicates.  Subsystems are
    ranked, solved and tested in stacks of a fixed size, taken in the order
    of ``itertools.combinations``; every stacked step is the same per-matrix
    computation as solving them one at a time, so vertex order and
    deduplication do not change, and memory stays one stack at any size.
    Only supported up to dimension four; larger polytopes stay symbolic.
    """
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
        feasible = np.all(lhs_in >= b_in - VERTEX_TOL * scale, axis=1) & np.all(
            np.abs(lhs_eq - b_eq) <= VERTEX_TOL * (1.0 + np.abs(b_eq)), axis=1
        )
        vertices.extend(points[feasible])
    unique: list[np.ndarray] = []
    for v in vertices:
        if not any(np.allclose(v, u, atol=10 * VERTEX_TOL, rtol=0.0) for u in unique):
            unique.append(v)
    unique.sort(key=lambda v: tuple(np.round(v, 9)))
    return np.array(unique, dtype=float).reshape(len(unique), m)


def sample_positive_sphere(m: int, rng: np.random.Generator) -> FloatArray:
    """Uniform draw from the unit Euclidean sphere's nonnegative orthant."""
    if m < 1:
        raise ValueError("dimension must be at least 1")
    while True:
        draw = np.abs(rng.standard_normal(m))
        norm = float(np.linalg.norm(draw))
        if norm > 0.0:
            return draw / norm


def _size_batch(ts: TradeStatistics, base: _Insertion, seed: int, trials: range) -> np.ndarray:
    """``(garp_ok, harp_ok)`` rows of the size trials in ``trials``.

    Each trial redraws the last period's price p and tests both axioms at
    level one on its new row alone, through the closures of the first T - 1
    periods that ``base`` holds (``axioms._inserted_verdicts``): the
    comparisons of the full acyclicity test, and the price cone's
    ``P * P <= 1 + FLOAT_SLACK`` for homotheticity, which can differ from
    the full closure's verdict only within about ``4 (T + 1)`` ulp of that
    threshold.  One ``core._cross_values`` call forms every new row of the
    batch, which may round a few ulp away from the full panel's row.
    """
    prices = np.empty((len(trials), 1, ts.num_goods))
    for price, rng in zip(prices, trial_streams((seed,), trials)):
        price[0] = sample_positive_sphere(ts.num_goods, rng)
    garp_ok, harp_ok = _inserted_verdicts(base, _cross_values(prices, ts.quantities)[:, 0])
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
    base = _insertion_base(cross_value_matrix(ts))
    # per trial: its price, its new row, and the cone's and the acyclicity test's temporaries
    garp_hits, harp_hits = count_trials(
        lambda batch: _size_batch(ts, base, seed, batch), trials,
        batch_size(ts.num_goods + 4 * ts.num_periods))
    return (
        SizeReport(axiom="garp", trials=trials, hits=garp_hits, seed=seed),
        SizeReport(axiom="harp", trials=trials, hits=harp_hits, seed=seed),
    )


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
    prices: ClassVar[tuple[tuple[float, ...], ...]] = ((2.0, 1.0, 4.0), (2.0, 1.0, 2.0), (2.0, 2.0, 1.0))
    price_new: ClassVar[tuple[float, ...]] = (1.0, 1.0, 1.0)
    expenditure_new: ClassVar[float] = 2.0

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
    linear because the curves are rays.  The new price is all ones and each
    direction has a one on the diagonal, so every inner product is at least one.
    """
    price_new = np.asarray(fix.price_new, dtype=float)
    inner = fix.directions() @ price_new
    return fix.expenditure_new / inner


def check_inclusion(fix: CounterexampleFixture, cone: ForecastCone, vertices: np.ndarray) -> str:
    """Verify the homothetic set sits strictly inside the acyclic support set.

    ``cone`` and ``vertices`` are the fixture's homothetic cone and the
    vertices of its slice at the new expenditure.  Rounding alone can push a
    vertex on the support set's boundary out, so the homothetic points are
    tested at the vertices' own slack, ``VERTEX_TOL`` times the expenditure.
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
        if not kg_membership(support, 1.0, price_new, point, tol=VERTEX_TOL * fix.expenditure_new):
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
