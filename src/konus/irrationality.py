"""Irrationality indices: the least efficiency level restoring each axiom.

The homothetic index is the maximal cycle geometric mean of the Paasche
matrix, computed exactly.  The acyclicity index is the infimum of the levels
at which the acyclicity test passes; since the feasible set can be open, the
index is reported together with an attainment flag.  The infimum is read
exactly off one (max, min) closure of the level ratios, and attainment off
one verdict at it.  Neither index builds a witness: a caller who wants a
cycle or chain at the critical level asks :func:`~konus.check_harp` or
:func:`~konus.check_garp` just below it.
"""

from __future__ import annotations

import numpy as np

from .axioms import _garp_satisfied, _harp_index
from .core import TradeStatistics, cross_value_matrix
from .semiring import _warshall


def harp_irrationality(ts: TradeStatistics) -> float:
    """Maximal cycle geometric mean of the Paasche matrix.

    The homotheticity test passes at level omega iff omega is at least this
    value, and the infimum is always attained.  For a single period the
    conventional value one is returned.
    """
    return _harp_index(cross_value_matrix(ts))[0]


def garp_irrationality(ts: TradeStatistics) -> tuple[float, bool]:
    """Infimum of the levels at which the acyclicity test passes, with attainment.

    At level omega, ``t`` reaches ``s`` iff omega is at most ``B[t, s]``, the
    (max, min) closure of the ratios ``r[t, s] = px[t, t] / px[t, s]``, and
    the closing comparison fails iff omega is below ``r[s, t]``: the infimum
    is the largest ``min(B[t, s], r[s, t])``, and one verdict at it decides
    attainment.  A single observation passes at every positive level,
    reported as infimum zero, not attained.
    """
    if ts.num_periods < 2:
        return 0.0, False
    px = cross_value_matrix(ts)
    ratios = px.diagonal()[:, np.newaxis] / px
    np.fill_diagonal(ratios, 0.0)  # no self-edges; it also zeroes the diagonal of the minimum below
    value = float(np.minimum(_warshall(ratios.copy(), np.maximum, np.minimum), ratios.T).max())
    return value, _garp_satisfied(px, value, 0.0)
