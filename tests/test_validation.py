"""Every entry point taking an efficiency level or a slack rejects invalid values."""

import math

import pytest

from konus import (
    brute_force_harp,
    check_garp,
    check_harp,
    gamma_coefficients,
    garp_irrationality,
    garp_irrationality_bisection,
    kg_membership,
    law_of_demand_estimate,
    law_of_demand_outer,
    solve_afriat_numbers,
    solve_harp_multipliers,
)
from konus.core import validate_level

NAN, INF = math.nan, math.inf
BAD_OMEGAS = [NAN, INF, -INF, 0.0, -1.0]
BAD_TOLS = [NAN, INF, -1.0, -1e-300]

PRICE, BUNDLE = [1.0, 1.0], [1.0, 1.0]

LEVEL_AND_SLACK = [
    lambda ts, omega, tol: check_garp(ts, omega, tol=tol),
    lambda ts, omega, tol: check_harp(ts, omega, tol=tol),
    lambda ts, omega, tol: brute_force_harp(ts, omega, tol=tol),
    lambda ts, omega, tol: solve_harp_multipliers(ts, omega, tol=tol),
    lambda ts, omega, tol: solve_afriat_numbers(ts, omega, tol=tol),
    lambda ts, omega, tol: kg_membership(ts, omega, PRICE, BUNDLE, tol=tol),
    lambda ts, omega, tol: law_of_demand_outer(ts, omega, PRICE, BUNDLE, tol=tol),
]
LEVEL_ONLY = [
    lambda ts, omega: gamma_coefficients(ts, omega, PRICE),
    lambda ts, omega: law_of_demand_estimate(ts, omega),
]
SLACK_ONLY = [
    lambda ts, tol: garp_irrationality(ts, tol=tol),
    lambda ts, tol: garp_irrationality_bisection(ts, tol=tol),
]


@pytest.mark.parametrize("omega", BAD_OMEGAS)
def test_invalid_level_is_rejected(two_period_panel, omega):
    for call in LEVEL_AND_SLACK:
        with pytest.raises(ValueError, match="omega must be finite and positive"):
            call(two_period_panel, omega, 0.0)
    for call in LEVEL_ONLY:
        with pytest.raises(ValueError, match="omega must be finite and positive"):
            call(two_period_panel, omega)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_invalid_slack_is_rejected(two_period_panel, tol):
    for call in LEVEL_AND_SLACK:
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            call(two_period_panel, 1.0, tol)
    for call in SLACK_ONLY:
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            call(two_period_panel, tol)


def test_valid_levels_pass():
    validate_level(1.0, 0.0)
    validate_level(1e-300, 1e300)
    validate_level(tol=0.5)
