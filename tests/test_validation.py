"""Every entry point taking an efficiency level, a slack, a new price, a bundle or an
expenditure rejects invalid values."""

import math

import pytest

from konus import (
    check_garp,
    check_harp,
    cross_value_matrix,
    gamma_coefficients,
    kg_membership,
    kh_membership,
    kh_polytope,
    maxtimes_closure,
    paasche_matrix,
    solve_afriat_numbers,
    solve_harp_multipliers,
)
from konus.core import validate_level

from conftest import brute_force_harp, garp_irrationality_bisection, omega_closure

NAN, INF = math.nan, math.inf
BAD_OMEGAS = [NAN, INF, -INF, 0.0, -1.0]
BAD_TOLS = [NAN, INF, -1.0, -1e-300]
BAD_VECTORS = [[NAN, 1.0], [INF, 1.0], [NAN, NAN]]
BAD_EXPENDITURES = [NAN, INF, -INF, 0.0, -1.0]

PRICE, BUNDLE = [1.0, 1.0], [1.0, 1.0]
WIDE = 2.0  # a level above the two-period panel's homotheticity index sqrt(1.25), so its cone exists

LEVEL_AND_SLACK = [
    lambda ts, omega, tol: check_garp(ts, omega, tol=tol),
    lambda ts, omega, tol: check_harp(ts, omega, tol=tol),
    lambda ts, omega, tol: brute_force_harp(ts, omega, tol=tol),
    lambda ts, omega, tol: solve_harp_multipliers(ts, omega, tol=tol),
    lambda ts, omega, tol: solve_afriat_numbers(ts, omega, tol=tol),
    lambda ts, omega, tol: kg_membership(ts, omega, PRICE, BUNDLE, tol=tol),
]
LEVEL_ONLY = [
    lambda ts, omega: gamma_coefficients(ts, omega, PRICE),
]
SLACK_ONLY = [
    lambda ts, tol: garp_irrationality_bisection(ts, tol=tol),
    lambda ts, tol: maxtimes_closure(paasche_matrix(cross_value_matrix(ts)), tol=tol),
    lambda ts, tol: kh_membership(gamma_coefficients(ts, WIDE, PRICE), ts, BUNDLE, tol=tol),
]
NEW_PRICE_ENTRY_POINTS = [
    lambda ts, price: gamma_coefficients(ts, WIDE, price),
    lambda ts, price: kg_membership(ts, WIDE, price, BUNDLE),
]
BUNDLE_ENTRY_POINTS = [
    lambda ts, x: kh_membership(gamma_coefficients(ts, WIDE, PRICE), ts, x),
    lambda ts, x: kg_membership(ts, WIDE, PRICE, x),
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


@pytest.mark.parametrize("omega", BAD_OMEGAS)
def test_omega_closure_names_an_invalid_level(two_period_panel, omega):
    paasche = paasche_matrix(cross_value_matrix(two_period_panel))
    with pytest.raises(ValueError, match="omega must be finite and positive"):
        omega_closure(paasche, omega)


@pytest.mark.parametrize("expenditure", BAD_EXPENDITURES)
def test_kh_polytope_rejects_invalid_expenditure(appendix_panel, expenditure):
    cone = gamma_coefficients(appendix_panel, 1.0, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="expenditure must be finite and positive"):
        kh_polytope(cone, expenditure)


@pytest.mark.parametrize("vector", BAD_VECTORS)
def test_non_finite_vectors_are_rejected(two_period_panel, vector):
    for call in NEW_PRICE_ENTRY_POINTS:
        with pytest.raises(ValueError, match="new price must be finite and strictly positive"):
            call(two_period_panel, vector)
    for call in BUNDLE_ENTRY_POINTS:
        with pytest.raises(ValueError, match="bundle must be finite, nonnegative and nonzero"):
            call(two_period_panel, vector)


@pytest.mark.parametrize("price", [[1.0], [1.0, 1.0, 1.0]])
def test_new_price_of_the_wrong_length_is_rejected(two_period_panel, price):
    for call in NEW_PRICE_ENTRY_POINTS:
        with pytest.raises(ValueError, match="new price must have 2 coordinates"):
            call(two_period_panel, price)
