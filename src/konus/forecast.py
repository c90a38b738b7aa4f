"""Forecasting sets for a new observation and Monte Carlo measures of their size.

Given a panel passing the homotheticity test at level omega and a new price
vector, the admissible demand vectors form a polyhedral cone cut out by one
linear inequality per observed period.  The cone coefficients come from the
omega-discounted closure of the Paasche matrix.  The size of the acyclicity-
and homotheticity-based forecasting sets is measured by the fraction of
random unit price vectors that keep the panel consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from ._mc import map_trials, trial_rng
from .axioms import _garp_satisfied, _garp_violations, _harp_satisfied_from_paasche, check_harp
from .afriat import InfeasibleAxiomError
from .core import (
    FloatArray,
    PaascheMatrix,
    TradeStatistics,
    cross_value_matrix,
    paasche_matrix,
    validate_level,
)
from .semiring import ClosureMatrix, maxtimes_closure, maxtimes_product

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

    ``diverged`` marks a cycle of ``D`` with product above one, in which case
    the outer estimate is empty.
    """

    omega: float
    step_matrix: FloatArray
    path_matrix: FloatArray
    diverged: bool


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


def omega_closure(paasche: PaascheMatrix, omega: float) -> ClosureMatrix:
    """Max-times closure of the omega-discounted Paasche matrix, diagonal included.

    A walk with ``k`` intermediate indices contributes
    ``omega ** -(k + 1)`` times its Paasche product, so the closure collects
    the discounted path maxima needed by the cone coefficients.
    """
    validate_level(omega)
    if omega < 1.0:
        raise ValueError("omega must be at least 1")
    return maxtimes_closure(paasche.values / omega)


def gamma_coefficients(ts: TradeStatistics, omega: float, price_new) -> ForecastCone:
    """Cone coefficients ``gamma[s] = min_t omega^2 / closure[t, s] * <price_new, X^t> / px[t, t]``."""
    price_new = np.asarray(price_new, dtype=float)
    if price_new.shape != (ts.num_goods,):
        raise ValueError(f"new price must have {ts.num_goods} coordinates")
    if np.any(price_new <= 0.0):
        raise ValueError("new price must be strictly positive")
    verdict = check_harp(ts, omega)
    if not verdict.satisfied:
        raise InfeasibleAxiomError(
            f"homotheticity fails at omega={omega}; the forecasting cone is undefined",
            verdict.witness,
        )
    paasche = paasche_matrix(cross_value_matrix(ts))
    closure = omega_closure(paasche, omega)
    new_values = ts.quantities @ price_new           # <price_new, X^t>
    numerators = omega * omega * new_values / ts.expenditures()
    gamma = (numerators[:, np.newaxis] / closure.values).min(axis=0)
    return ForecastCone(omega=omega, price_new=price_new, gamma=gamma, prices=ts.prices)


def _admissible_bundle(x, m: int) -> FloatArray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (m,):
        raise ValueError(f"bundle must have {m} coordinates")
    if np.any(arr < 0.0) or not np.any(arr > 0.0):
        raise ValueError("bundle must be nonnegative and nonzero")
    return arr


def kh_membership(cone: ForecastCone, ts: TradeStatistics, x, *, tol: float = 0.0) -> bool:
    """True iff all cone inequalities hold for the candidate demand vector."""
    arr = _admissible_bundle(x, ts.num_goods)
    lhs = cone.gamma * (ts.prices @ arr)
    rhs = float(cone.price_new @ arr)
    return bool(np.all(lhs >= rhs - tol))


def kg_membership(ts: TradeStatistics, omega: float, price_new, x, *, tol: float = 0.0) -> bool:
    """True iff appending ``(price_new, x)`` keeps the panel acyclicity-consistent."""
    validate_level(omega, tol)
    arr = _admissible_bundle(x, ts.num_goods)
    extended = ts.extended(price_new, arr)
    return _garp_satisfied(cross_value_matrix(extended).px, omega, tol)


def kh_polytope(cone: ForecastCone, x_new: float) -> PolytopeDescription:
    """Constraint list for the cone sliced at new-period expenditure ``x_new``.

    Emits the per-period inequalities ``gamma[s] <P^s, x> - <price_new, x> >= 0``,
    the budget equality ``<price_new, x> = x_new``, and nonnegativity rows.
    """
    if not (math.isfinite(x_new) and x_new > 0.0):
        raise ValueError(f"expenditure must be finite and positive, got {x_new!r}")
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


def law_of_demand_estimate(ts: TradeStatistics, omega: float,
                           *, include_direct_edge: bool = True) -> LawOfDemandEstimate:
    """Step matrix ``D`` and its path maxima ``Delta`` for the demand-law outer set.

    ``D[s, t] = max(px[t, t] / (omega px[s, t]), step(px[s, s] / px[s, t] - omega))``.
    ``Delta`` collects max-times walk products of ``D``; with
    ``include_direct_edge`` the single-edge walk counts (the default, which
    can only tighten the outer estimate), otherwise walks need at least one
    intermediate index.
    """
    validate_level(omega)
    px = cross_value_matrix(ts).px
    diag = px.diagonal()
    ratio = diag[np.newaxis, :].T / px  # px[s, s] / px[s, t]
    step_matrix = np.maximum(diag[np.newaxis, :] / (omega * px), _step(ratio - omega))
    closure = maxtimes_closure(step_matrix)
    if closure.diverged:
        return LawOfDemandEstimate(omega=omega, step_matrix=step_matrix,
                                   path_matrix=closure.values, diverged=True)
    if include_direct_edge:
        path = closure.values
    else:
        # at least one intermediate: one step followed by any walk
        path = maxtimes_product(step_matrix, closure.values)
    return LawOfDemandEstimate(omega=omega, step_matrix=step_matrix,
                               path_matrix=path, diverged=False)


def law_of_demand_outer(
    ts: TradeStatistics,
    omega: float,
    price_new,
    x,
    expenditure: float | None = None,
    *,
    include_direct_edge: bool = True,
    forward_delta: bool = False,
    tol: float = 0.0,
) -> bool:
    """Necessary condition for the extension to respect the law of demand.

    Evaluates, for every period pair ``(s, t)``, the product of the two
    step-style brackets linking the new observation to periods ``s`` and ``t``
    against ``1 / Delta``.  The default pairs the bound with the return path
    ``t -> s``, which is exactly cycle consistency of the extended step
    matrix; ``forward_delta`` switches to the forward path ``s -> t`` variant.
    True is necessary, not sufficient, for demand-law-consistent extensions.
    """
    validate_level(omega, tol)
    if omega < 1.0:
        raise ValueError("omega must be at least 1")
    verdict = check_harp(ts, omega)
    if not verdict.satisfied:
        raise InfeasibleAxiomError(
            f"homotheticity fails at omega={omega}", verdict.witness
        )
    price_new = np.asarray(price_new, dtype=float)
    arr = _admissible_bundle(x, ts.num_goods)
    estimate = law_of_demand_estimate(ts, omega, include_direct_edge=include_direct_edge)
    if estimate.diverged:
        return False
    px = cross_value_matrix(ts).px
    diag = px.diagonal()
    spend_new = float(price_new @ arr) if expenditure is None else float(expenditure)
    obs_at_new = ts.prices @ arr          # <P^s, x>
    new_at_obs = ts.quantities @ price_new  # <price_new, X^t>
    into_new = np.maximum(spend_new / (omega * obs_at_new), _step(diag / obs_at_new - 1.0))
    out_of_new = np.maximum(diag / (omega * new_at_obs), _step(spend_new / (omega * new_at_obs) - 1.0))
    delta = estimate.path_matrix if forward_delta else estimate.path_matrix.T
    products = into_new[:, np.newaxis] * out_of_new[np.newaxis, :] * delta
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


def _size_trial(ts: TradeStatistics, base_px: FloatArray, seed: int, trial: int) -> tuple[bool, bool]:
    """One size trial: redraw the last period price, test both axioms at level one."""
    price = sample_positive_sphere(ts.num_goods, trial_rng(seed, trial))
    px = base_px.copy()
    px[-1, :] = ts.quantities @ price
    _, bad = _garp_violations(px, 1.0, 0.0)
    garp_ok = not bool(bad.any())
    paasche = px.diagonal()[np.newaxis, :] / px
    harp_ok = _harp_satisfied_from_paasche(paasche, 1.0, 0.0)
    # homotheticity implies acyclicity; enforce the implication against
    # rounding at the cycle-product boundary so paired dominance is exact
    garp_ok = garp_ok or harp_ok
    return garp_ok, harp_ok


def forecast_size_paired(ts: TradeStatistics, trials: int, seed: int,
                         *, workers: int = 1) -> tuple[SizeReport, SizeReport]:
    """Size of the acyclicity- and homotheticity-based forecasting sets, paired.

    Each trial replaces the last period's price by a random unit vector and
    tests both axioms at level one on the same draw.  Per-trial substreams
    depend only on ``(seed, trial)``, so results are bit-identical for any
    worker count and the homothetic fraction never exceeds the acyclic one.
    """
    if trials < 1:
        raise ValueError("trial count must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    base_px = np.array(cross_value_matrix(ts).px)
    outcomes = map_trials(lambda b: _size_trial(ts, base_px, seed, b), trials, workers)
    garp_hits = sum(1 for g, _ in outcomes if g)
    harp_hits = sum(1 for _, h in outcomes if h)
    return (
        SizeReport(axiom="garp", trials=trials, hits=garp_hits, seed=seed),
        SizeReport(axiom="harp", trials=trials, hits=harp_hits, seed=seed),
    )


def forecast_size(ts: TradeStatistics, axiom: str, trials: int, seed: int,
                  *, workers: int = 1) -> SizeReport:
    """Single-axiom size measure; shares price draws with the paired variant."""
    key = axiom.lower()
    if key not in ("garp", "harp"):
        raise ValueError(f"unknown axiom {axiom!r}; expected 'garp' or 'harp'")
    garp_report, harp_report = forecast_size_paired(ts, trials, seed, workers=workers)
    return garp_report if key == "garp" else harp_report
