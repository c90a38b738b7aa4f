"""Irrationality indices: exact values, attainment, and method agreement."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra.numpy import arrays

from konus import (
    check_garp,
    check_harp,
    cobb_douglas_statistics,
    cross_value_matrix,
    garp_irrationality,
    harp_irrationality,
    random_statistics,
    trade_statistics,
)

from conftest import (
    _garp_breakpoints,
    garp_irrationality_bisection,
    garp_irrationality_breakpoints,
    random_panel,
)
from test_witnesses import FINE, panels


def test_harp_index_two_period(two_period_panel):
    assert harp_irrationality(two_period_panel) == pytest.approx(np.sqrt(1.25), abs=1e-9)


def test_harp_index_appendix(appendix_panel):
    assert harp_irrationality(appendix_panel) == pytest.approx(1.0, abs=1e-12)


def test_harp_index_single_good_telescopes():
    rng = np.random.default_rng(7)
    for _ in range(20):
        T = int(rng.integers(2, 7))
        ts = trade_statistics(
            np.exp(rng.normal(0, 1, size=(T, 1))), np.exp(rng.normal(0, 1, size=(T, 1)))
        )
        assert harp_irrationality(ts) == pytest.approx(1.0, abs=1e-12)


def test_harp_index_single_period_convention():
    assert harp_irrationality(trade_statistics([[5.0]], [[2.0]])) == 1.0


def test_garp_index_two_period(two_period_panel):
    value, attained = garp_irrationality(two_period_panel)
    assert value == pytest.approx(0.75, abs=1e-12)
    assert not attained
    assert not check_garp(two_period_panel, 0.75).satisfied
    assert check_garp(two_period_panel, 0.75 + 1e-9).satisfied


def test_garp_index_appendix(appendix_panel):
    value, _ = garp_irrationality(appendix_panel)
    assert value <= 1.0
    assert check_garp(appendix_panel, 1.0).satisfied


def test_garp_index_single_period_convention():
    assert garp_irrationality(trade_statistics([[5.0]], [[2.0]])) == (0.0, False)


def test_indices_bracket_the_axiom_verdicts():
    rng = np.random.default_rng(11)
    for _ in range(60):
        ts = random_panel(rng)
        omega_h = harp_irrationality(ts)
        assert check_harp(ts, omega_h + 1e-9).satisfied
        if ts.num_periods >= 2:
            assert not check_harp(ts, omega_h * (1 - 1e-9) - 1e-9).satisfied
        value, attained = garp_irrationality(ts)
        assert check_garp(ts, value + 1e-9).satisfied
        assert check_garp(ts, value).satisfied == attained
        if value > 1e-9:
            assert not check_garp(ts, value - 1e-9).satisfied


def test_garp_index_below_harp_index():
    # relaxed homotheticity implies relaxed acyclicity at the same level,
    # so the acyclic index can never exceed the homothetic one
    rng = np.random.default_rng(13)
    for _ in range(60):
        ts = random_panel(rng)
        value, _ = garp_irrationality(ts)
        assert value <= harp_irrationality(ts) + 1e-12


def test_breakpoint_and_bisection_agree():
    rng = np.random.default_rng(17)
    for _ in range(60):
        ts = random_panel(rng)
        value, _ = garp_irrationality(ts)
        assert garp_irrationality_bisection(ts, tol=1e-10) == pytest.approx(value, abs=1e-9)


def test_report_two_period(two_period_panel):
    assert harp_irrationality(two_period_panel) == pytest.approx(np.sqrt(1.25), abs=1e-9)
    omega_g, attained_g = garp_irrationality(two_period_panel)
    assert omega_g == pytest.approx(0.75, abs=1e-12)
    assert not attained_g


def test_report_single_period():
    ts = trade_statistics([[5.0]], [[2.0]])
    assert harp_irrationality(ts) == 1.0 and garp_irrationality(ts)[0] == 0.0


def test_bisection_with_zero_tolerance_stops_at_adjacent_floats():
    rng = np.random.default_rng(13)
    for _ in range(10):
        ts = random_panel(rng)
        value = garp_irrationality_bisection(ts, tol=0.0)
        omega_g, _ = garp_irrationality(ts)
        assert value == pytest.approx(omega_g, rel=1e-12)


@given(panels(max_periods=12))
def test_each_axiom_passes_at_its_attained_index(ts):
    assert check_harp(ts, harp_irrationality(ts)).satisfied
    omega_g, attained = garp_irrationality(ts)
    if attained:
        assert check_garp(ts, omega_g).satisfied
    else:
        assert not check_garp(ts, omega_g).satisfied


@st.composite
def index_panels(draw):
    """Panels of 1..12 periods: random, Cobb-Douglas or small-integer rows (exact ties), with
    some periods repeated and their quantities rescaled by 1 (a duplicate), 1/2, 2 or 3."""
    T = draw(st.integers(1, 12))
    distinct = draw(st.integers(1, T))
    m = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "cobb-douglas", "integers"]))
    if kind == "cobb-douglas":
        base = cobb_douglas_statistics(distinct, m, seed=draw(st.integers(0, 2 ** 16)))
        prices, quantities = base.prices, base.quantities
    else:
        elements = FINE if kind == "random" else st.sampled_from([1.0, 2.0, 3.0])
        prices = draw(arrays(float, (distinct, m), elements=elements))
        quantities = draw(arrays(float, (distinct, m), elements=elements))
    extra = T - distinct
    rows = list(range(distinct)) + draw(st.lists(st.integers(0, distinct - 1), min_size=extra, max_size=extra))
    scales = [1.0] * distinct + draw(st.lists(st.sampled_from([1.0, 0.5, 2.0, 3.0]), min_size=extra, max_size=extra))
    order = draw(st.permutations(range(T)))
    quantities = quantities[rows] * np.asarray(scales)[:, np.newaxis]
    return trade_statistics(prices[rows][order], quantities[order])


@given(st.one_of(index_panels(), panels(max_periods=12)))
def test_garp_index_matches_breakpoint_bisection_bitwise(ts):
    if ts.num_periods > 1:
        # the oracle's midpoint of two adjacent floats is one of them: see the test below
        points = _garp_breakpoints(cross_value_matrix(ts))
        assume(not (np.nextafter(points[:-1], np.inf) == points[1:]).any())
    assert garp_irrationality(ts) == garp_irrationality_breakpoints(ts)


def test_garp_index_where_two_breakpoints_are_adjacent_floats():
    # Breakpoints 1 - 2**-53, 1 and 1 + 2**-52.  The last two periods relate both ways up to level 1,
    # so the test fails below 1 and passes at it.  The bisection probes the interval between the
    # first two breakpoints at their midpoint, which rounds to 1 and passes, so it reports the
    # float below 1, not attained: the infimum of the passing floats is 1, and it is attained.
    ts = trade_statistics([[1.0], [1.0], [1.0]], [[0.20000000000000004], [0.2], [0.2]])
    below = float(np.nextafter(1.0, 0.0))
    assert garp_irrationality(ts) == (1.0, True)
    assert check_garp(ts, 1.0).satisfied and not check_garp(ts, below).satisfied
    assert garp_irrationality_breakpoints(ts) == (below, False)


def test_garp_index_matches_breakpoint_bisection_at_400_periods():
    ts = random_statistics(400, 20, seed=4)
    assert garp_irrationality(ts) == garp_irrationality_breakpoints(ts)
