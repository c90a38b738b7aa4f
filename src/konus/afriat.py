"""Certificates of rationalizability and the utility / index evaluators they induce.

Passing the homotheticity test yields positive multipliers ``lam`` with
``omega * lam[t] * px[t, s] >= lam[s] * px[s, s]`` for all ``t != s``; passing
the acyclicity test yields utility levels and multipliers ``(U, lam)`` with
``U[t] <= U[s] + lam[s] * (omega * px[s, t] - px[s, s])``.  Both constructions
are verified against their inequality systems before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axioms import GarpWitness, HarpWitness, _harp_verdict, _relation, check_garp
from .core import FloatArray, TradeStatistics, cross_value_matrix
from .semiring import boolean_closure

CERTIFICATE_RTOL = 1e-9


class InfeasibleAxiomError(RuntimeError):
    """Raised when a certificate is requested for data failing the axiom."""

    def __init__(self, message: str, witness: GarpWitness | HarpWitness | None = None):
        super().__init__(message)
        self.witness = witness


class CertificateError(RuntimeError):
    """Internal check failed: a constructed certificate violates its system."""


@dataclass(frozen=True, eq=False)
class HarpMultipliers:
    """Positive multipliers normalised to ``lam[0] == 1`` certifying homotheticity."""

    lam: FloatArray
    omega: float


@dataclass(frozen=True, eq=False)
class AfriatSolution:
    """Utility levels and positive multipliers certifying the acyclicity system."""

    utilities: FloatArray
    lam: FloatArray
    omega: float


@dataclass(frozen=True, eq=False)
class IndexSeries:
    """Consumption and price index series with the exact product identity.

    ``consumption[t] * price[t]`` reproduces the period expenditure bit for
    bit; ``price[t]`` equals the reciprocal multiplier to better than 1e-10
    relative (usually to the last ulp).
    """

    consumption: FloatArray  # F
    price: FloatArray        # Q


def verify_harp_multipliers(lm: HarpMultipliers, ts: TradeStatistics,
                            rtol: float = CERTIFICATE_RTOL) -> None:
    """Check all T^2 off-diagonal inequalities of the homothetic system."""
    px = cross_value_matrix(ts)
    lam = lm.lam
    lhs = lm.omega * lam[:, np.newaxis] * px
    rhs = (lam * px.diagonal())[np.newaxis, :]
    ok = lhs >= rhs * (1.0 - rtol)
    np.fill_diagonal(ok, True)
    if not np.all(ok):
        t, s = np.argwhere(~ok)[0]
        raise CertificateError(
            f"multiplier system violated at pair ({t}, {s}): {lhs[t, s]} < {rhs[t, s]}"
        )


def verify_afriat_solution(sol: AfriatSolution, ts: TradeStatistics,
                           rtol: float = CERTIFICATE_RTOL) -> None:
    """Check all T^2 off-diagonal inequalities of the acyclicity system."""
    px = cross_value_matrix(ts)
    u, lam = sol.utilities, sol.lam
    rhs = u[np.newaxis, :] + lam[np.newaxis, :] * (sol.omega * px.T - px.diagonal()[np.newaxis, :])
    # rhs[t, s] bounds u[t]; slack scales with the magnitudes involved
    scale = np.maximum(np.abs(u[:, np.newaxis]), np.abs(rhs)) + 1.0
    ok = u[:, np.newaxis] <= rhs + rtol * scale
    np.fill_diagonal(ok, True)
    if not np.all(ok):
        t, s = np.argwhere(~ok)[0]
        raise CertificateError(
            f"utility system violated at pair ({t}, {s}): {u[t]} > {rhs[t, s]}"
        )
    if not np.all(lam > 0.0):
        raise CertificateError("multipliers must be strictly positive")


def solve_harp_multipliers(ts: TradeStatistics, omega: float = 1.0, *,
                           tol: float = 0.0) -> HarpMultipliers:
    """Multipliers from row maxima of the omega-scaled Paasche closure.

    Requires the homotheticity test to pass at level omega; raises
    :class:`InfeasibleAxiomError` with the violating cycle otherwise.  The
    multipliers are read off the same closure the verdict was decided on, so
    one O(T^3) closure serves both.  The output is normalised so the first
    period's multiplier is one, making the dual price index a
    base-period-one series.
    """
    verdict, closure = _harp_verdict(ts, omega, tol)
    if not verdict.satisfied:
        raise InfeasibleAxiomError(
            f"homotheticity fails at omega={omega}; no multipliers exist", verdict.witness
        )
    lam = np.maximum(1.0, closure.max(axis=1))
    lam = lam / lam[0]
    lm = HarpMultipliers(lam=lam, omega=omega)
    verify_harp_multipliers(lm, ts)
    return lm


def solve_afriat_numbers(ts: TradeStatistics, omega: float = 1.0, *,
                         tol: float = 0.0) -> AfriatSolution:
    """Utility levels and multipliers via the iterative maximal-class algorithm.

    Repeatedly peels off a maximal equivalence class of the level-omega
    relation restricted to the unprocessed periods, read off one transitive
    closure of the whole relation in O(T^3), assigning the class its
    utility by a min formula over processed periods and its multiplier by the
    dual max formula.  Tie-breaking is lowest index first; the contract is
    feasibility of the output, not specific values.
    """
    verdict = check_garp(ts, omega, tol=tol)
    if not verdict.satisfied:
        raise InfeasibleAxiomError(
            f"acyclicity fails at omega={omega}; no utility numbers exist", verdict.witness
        )
    px = cross_value_matrix(ts)
    T = px.shape[0]
    utilities = np.zeros(T)
    lam = np.zeros(T)
    remaining: list[int] = list(range(T))
    processed: list[int] = []
    reach = boolean_closure(_relation(px, omega, tol))
    while remaining:
        # A peeled class is maximal, so no walk between two remaining periods
        # passes through it: restricting the closure closes the restriction.
        closure = reach[np.ix_(remaining, remaining)]
        maximal = None
        for pos, cand in enumerate(remaining):
            reaches_cand = closure[:, pos]
            if np.all(~reaches_cand | closure[pos, :]):
                maximal = pos
                break
        if maximal is None:  # pragma: no cover - impossible once the axiom holds
            raise CertificateError("no maximal element found; relation not consistent")
        clazz = [remaining[p] for p in np.flatnonzero(closure[:, maximal])]
        if remaining[maximal] not in clazz:
            clazz.append(remaining[maximal])
        clazz.sort()
        if not processed:
            for t in clazz:
                utilities[t] = 1.0
                lam[t] = 1.0
        else:
            prev = np.asarray(processed, dtype=int)
            members = np.asarray(clazz, dtype=int)
            # candidate utility bounds from every processed period tau and member t
            bounds = utilities[prev][np.newaxis, :] + lam[prev][np.newaxis, :] * (
                omega * px[np.ix_(prev, members)].T - px.diagonal()[prev][np.newaxis, :]
            )
            u_new = min(float(bounds.min()), float(utilities[prev].min()))
            denom = omega * px[np.ix_(members, prev)] - px.diagonal()[members][:, np.newaxis]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = (utilities[prev][np.newaxis, :] - u_new) / denom
            ratios = np.where(denom > 0.0, ratios, -np.inf)
            lam_new = max(1.0, float(ratios.max()))
            for t in clazz:
                utilities[t] = u_new
                lam[t] = lam_new
        processed.extend(clazz)
        remaining = [t for t in remaining if t not in clazz]
    sol = AfriatSolution(utilities=utilities, lam=lam, omega=omega)
    verify_afriat_solution(sol, ts)
    return sol


def eval_harp_utility(lm: HarpMultipliers, ts: TradeStatistics, bundle) -> float:
    """Homothetic utility ``min_s lam[s] * <P^s, x>``; degree-one homogeneous."""
    x = np.asarray(bundle, dtype=float)
    if x.shape != (ts.num_goods,):
        raise ValueError(f"bundle must have {ts.num_goods} coordinates")
    if np.any(x < 0.0):
        raise ValueError("bundle must be nonnegative")
    return float(np.min(lm.lam * (ts.prices @ x)))


def eval_garp_utility(sol: AfriatSolution, ts: TradeStatistics, bundle) -> float:
    """Piecewise-linear concave utility ``min_s {U[s] + lam[s] (<P^s, x> - px[s, s])}``.

    A genuine rationalizer only for solutions at omega one; for omega above
    one it is exposed as a diagnostic with the same formula.
    """
    x = np.asarray(bundle, dtype=float)
    if x.shape != (ts.num_goods,):
        raise ValueError(f"bundle must have {ts.num_goods} coordinates")
    if np.any(x < 0.0):
        raise ValueError("bundle must be nonnegative")
    spend = ts.prices @ x
    own = ts.expenditures()
    return float(np.min(sol.utilities + sol.lam * (spend - own)))


def _exact_index_pair(lam_t: float, expenditure: float) -> tuple[float, float]:
    """Floats ``(f, q)`` with ``f ~ lam * e``, ``q ~ 1 / lam`` and ``f * q == e`` exactly.

    Rounding the two factors independently can make the exact product
    unreachable, so the reciprocal is walked outward one ulp at a time until
    the rounded quotient (or an ulp neighbour) multiplies back to the
    expenditure bit for bit.  Degenerate float phases can need thousands of
    steps; the deviation from the true reciprocal stays below 1e-10 relative,
    far inside the certificate tolerance.
    """
    q0 = 1.0 / lam_t
    for direction in (np.inf, 0.0):
        q = q0
        for _ in range(65536):
            f0 = expenditure / q
            for f in (f0, np.nextafter(f0, np.inf), np.nextafter(f0, 0.0)):
                if f * q == expenditure:
                    return float(f), float(q)
            q = np.nextafter(q, direction)
    return float(expenditure / q0), float(q0)  # pragma: no cover - not reached in practice


def konus_divisia_series(ts: TradeStatistics, lm: HarpMultipliers) -> IndexSeries:
    """Consumption index ``lam[t] * px[t, t]`` and its reciprocal price index.

    The product ``consumption[t] * price[t]`` reproduces the period
    expenditure exactly; to make that possible in floating point, the price
    index may sit a hair (at most ~1e-10 relative) off the true reciprocal
    multiplier.  With the ``lam[0] == 1`` normalisation the price series
    starts at exactly one.
    """
    spend = ts.expenditures()
    if lm.lam.shape != spend.shape:
        raise ValueError("multipliers do not match the statistics")
    consumption = np.empty_like(spend)
    price = np.empty_like(spend)
    for t in range(price.shape[0]):
        consumption[t], price[t] = _exact_index_pair(lm.lam[t], spend[t])
    return IndexSeries(consumption=consumption, price=price)
