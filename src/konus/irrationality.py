"""Irrationality indices: the least efficiency level restoring each axiom.

The homothetic index is the maximal cycle geometric mean of the Paasche
matrix, computed exactly.  The acyclicity index is the infimum of the levels
at which the acyclicity test passes; since the feasible set can be open, the
index is reported together with an attainment flag.  Both a breakpoint method
(exact) and a bisection cross-check are provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axioms import GarpWitness, HarpWitness, _garp_satisfied, check_garp, check_harp
from .core import FloatArray, TradeStatistics, cross_value_matrix, paasche_from_statistics, validate_level
from .semiring import max_cycle_geomean

# Level reported for a single observation, where no admissible cycle exists
# and every positive level is consistent with homotheticity.
SINGLE_PERIOD_HARP_INDEX = 1.0


@dataclass(frozen=True)
class IrrationalityReport:
    omega_g: float
    attained_g: bool
    omega_h: float
    garp_witness: GarpWitness | None
    harp_witness: HarpWitness | None


def harp_irrationality(ts: TradeStatistics) -> float:
    """Maximal cycle geometric mean of the Paasche matrix.

    The homotheticity test passes at level omega iff omega is at least this
    value, and the infimum is always attained.  For a single period the
    conventional value one is returned.
    """
    if ts.num_periods < 2:
        return SINGLE_PERIOD_HARP_INDEX
    return max_cycle_geomean(paasche_from_statistics(ts))


def _garp_breakpoints(px: FloatArray) -> np.ndarray:
    """Off-diagonal ratios ``px[t, t] / px[t, s]``: the only levels where the relation changes."""
    ratios = px.diagonal()[:, np.newaxis] / px
    mask = ~np.eye(px.shape[0], dtype=bool)
    return np.unique(ratios[mask])


def garp_irrationality(ts: TradeStatistics, *, tol: float = 0.0) -> tuple[float, bool]:
    """Infimum of the levels at which the acyclicity test passes, with attainment.

    Verdicts are constant between consecutive breakpoints and monotone in the
    level, so a bisection over the breakpoints for the least interval whose
    midpoint passes, then one probe of the breakpoint that opens it, decides
    the infimum and its attainment exactly.  Past the last breakpoint the
    relation is empty, so that interval (probed halfway to ``b + 1``) passes.  A
    single observation passes vacuously at every positive level, reported
    as infimum zero, not attained.  Probes are verdict-only.
    """
    validate_level(tol=tol)
    if ts.num_periods < 2:
        return 0.0, False
    px = cross_value_matrix(ts)
    points = _garp_breakpoints(px)
    midpoints = (points + np.append(points[1:], points[-1] + 1.0)) / 2.0
    lo, hi = -1, len(points) - 1  # midpoints[hi] passes; midpoints[lo] fails where lo >= 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _garp_satisfied(px, float(midpoints[mid]), tol):
            hi = mid
        else:
            lo = mid
    value = float(points[hi])
    return value, _garp_satisfied(px, value, tol)


def garp_irrationality_bisection(ts: TradeStatistics, *, tol: float = 1e-9) -> float:
    """Bisection estimate of the acyclicity index, kept as an independent cross-check."""
    validate_level(tol=tol)
    if ts.num_periods < 2:
        return 0.0
    px = cross_value_matrix(ts)
    points = _garp_breakpoints(px)
    lo, hi = float(points[0]), float(points[-1]) + 1.0
    if _garp_satisfied(px, lo, 0.0):
        return lo
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):  # adjacent floats: the bracket cannot narrow further
            break
        if _garp_satisfied(px, mid, 0.0):
            hi = mid
        else:
            lo = mid
    return hi


def irrationality_report(ts: TradeStatistics) -> IrrationalityReport:
    """Both indices plus violation witnesses probed just below the critical levels."""
    omega_h = harp_irrationality(ts)
    omega_g, attained = garp_irrationality(ts)
    harp_witness: HarpWitness | None = None
    garp_witness: GarpWitness | None = None
    if ts.num_periods >= 2:
        probe = check_harp(ts, omega_h * (1.0 - 1e-9))
        if not probe.satisfied:
            harp_witness = probe.witness  # a cycle attaining (up to 1e-9) the critical level
        level = omega_g if not attained else omega_g * (1.0 - 1e-9)
        if level > 0.0:
            probe_g = check_garp(ts, level)
            if not probe_g.satisfied:
                garp_witness = probe_g.witness
    return IrrationalityReport(
        omega_g=omega_g,
        attained_g=attained,
        omega_h=omega_h,
        garp_witness=garp_witness,
        harp_witness=harp_witness,
    )
