"""The closure-based homotheticity test, its index and the forecasting cone against oracles.

Cycle oracles enumerate every index tuple, so panels stop at seven periods:
eight would take 8**8 tuples, beyond the default oracle budget.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from konus import (
    brute_force_cycle_geomean,
    InfeasibleAxiomError,
    brute_force_harp,
    check_harp,
    cobb_douglas_statistics,
    gamma_coefficients,
    harp_irrationality,
    paasche_from_statistics,
    random_statistics,
    rescale_quantities,
    trade_statistics,
)

from conftest import count_closures, gamma_by_omega_closure
from test_witnesses import FINE, GRID, panels

SCALES = st.sampled_from([1.0, 0.5, 2.0, 3.0])


@st.composite
def copied_panels(draw, max_periods=7):
    """Panels of 2..7 periods over 1..4 goods whose rows repeat earlier ones, as is or rescaled.

    One good gives a telescoping panel, where every cycle product is one
    up to rounding; a rescaled copy has the same Paasche rows as its source.
    """
    T = draw(st.integers(2, max_periods))
    distinct = draw(st.integers(1, T))
    m = draw(st.integers(1, 4))
    elements = GRID if draw(st.booleans()) else FINE
    prices = draw(arrays(float, (distinct, m), elements=elements))
    quantities = draw(arrays(float, (distinct, m), elements=elements))
    repeats = draw(st.lists(st.integers(0, distinct - 1), min_size=T - distinct, max_size=T - distinct))
    order = draw(st.permutations(list(range(distinct)) + repeats))
    scale = draw(arrays(float, T, elements=SCALES))
    return trade_statistics(prices[order], quantities[order] * scale[:, np.newaxis])


small_panels = st.one_of(copied_panels(), panels(max_periods=7))


@given(small_panels, st.sampled_from(["index", "below", "one", "above"]))
def test_check_harp_matches_brute_force(ts, where):
    omega_h = harp_irrationality(ts)
    omega = {"index": omega_h, "below": omega_h * (1.0 - 1e-9), "one": 1.0, "above": omega_h * 1.01}[where]
    verdict, oracle = check_harp(ts, omega), brute_force_harp(ts, omega)
    assert verdict.satisfied == oracle.satisfied
    if where != "one":
        assert verdict.satisfied == (where != "below")
    if not oracle.satisfied:
        cycle = verdict.witness.cycle
        assert len(cycle) == len(oracle.witness.cycle)  # both are shortest violating cycles
        paasche = paasche_from_statistics(ts)
        product = 1.0
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            product *= paasche[a, b]
        assert product == verdict.witness.product
        assert product > omega ** len(cycle)


@given(small_panels)
def test_harp_index_matches_brute_force_geomean(ts):
    value, _ = brute_force_cycle_geomean(paasche_from_statistics(ts))
    omega_h = harp_irrationality(ts)
    assert omega_h == pytest.approx(value, rel=1e-12)
    for level in (omega_h, value):
        assert check_harp(ts, level).satisfied
        assert not check_harp(ts, level * (1.0 - 1e-9)).satisfied
        assert not brute_force_harp(ts, level * (1.0 - 1e-9)).satisfied


@given(small_panels, st.data())
def test_rescaled_panel_keeps_index_and_verdicts(ts, data):
    mu = data.draw(arrays(float, ts.num_periods, elements=SCALES | st.floats(0.1, 10.0)))
    rescaled = rescale_quantities(ts, mu)
    omega_h = harp_irrationality(ts)
    assert harp_irrationality(rescaled) == pytest.approx(omega_h, rel=1e-12)
    assert check_harp(rescaled, omega_h).satisfied
    assert not check_harp(rescaled, omega_h * (1.0 - 1e-9)).satisfied


@given(st.one_of(copied_panels(max_periods=11), panels(max_periods=11)),
       st.sampled_from([1.0, 1.0 + 1e-9, 1.01, 1.3, 2.0]), st.data())
def test_gamma_matches_separate_closure_bitwise(ts, factor, data):
    omega = max(1.0, harp_irrationality(ts)) * factor
    price_new = data.draw(arrays(float, ts.num_goods, elements=st.floats(0.2, 5.0)))
    cone = gamma_coefficients(ts, omega, price_new)
    assert cone.gamma.tobytes() == gamma_by_omega_closure(ts, omega, price_new).tobytes()


def test_gamma_builds_one_closure(monkeypatch):
    calls = count_closures(monkeypatch)
    for seed in range(3):
        gamma_coefficients(cobb_douglas_statistics(40, 4, seed=seed), 1.0, [1.0, 2.0, 1.0, 0.5])
    with pytest.raises(InfeasibleAxiomError):
        gamma_coefficients(random_statistics(40, 4, seed=1), 1.0, [1.0, 2.0, 1.0, 0.5])
    assert calls == [40] * 4
