"""Irrationality indices: exact values, attainment, and method agreement."""

import numpy as np
import pytest
from hypothesis import given

from konus import (
    check_garp,
    check_harp,
    garp_irrationality,
    harp_irrationality,
    irrationality_report,
    trade_statistics,
)

from conftest import garp_irrationality_bisection, random_panel
from test_witnesses import panels


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
    report = irrationality_report(two_period_panel)
    assert report.omega_h == pytest.approx(np.sqrt(1.25), abs=1e-9)
    assert report.omega_g == pytest.approx(0.75, abs=1e-12)
    assert not report.attained_g
    assert report.harp_witness is not None and report.harp_witness.cycle == (0, 1)
    assert report.garp_witness is not None


def test_report_single_period():
    report = irrationality_report(trade_statistics([[5.0]], [[2.0]]))
    assert report.omega_h == 1.0 and report.omega_g == 0.0
    assert report.harp_witness is None and report.garp_witness is None


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
