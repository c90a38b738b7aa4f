"""Certificate constructions, their inequality systems, and index evaluators."""

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from konus import (
    AfriatSolution,
    CertificateError,
    InfeasibleAxiomError,
    check_garp,
    check_harp,
    cross_value_matrix,
    eval_garp_utility,
    eval_harp_utility,
    garp_irrationality,
    harp_irrationality,
    konus_divisia_series,
    paasche_matrix,
    solve_afriat_numbers,
    solve_harp_multipliers,
    trade_statistics,
    verify_afriat_solution,
    verify_harp_multipliers,
)

from conftest import afriat_numbers_by_class_closures, closure_by_outer, count_closures, random_panel
from test_witnesses import panels as witness_panels


def test_multipliers_appendix(appendix_panel):
    lm = solve_harp_multipliers(appendix_panel, 1.0)
    np.testing.assert_array_equal(lm.lam, [1.0, 1.0, 1.0])


def test_multipliers_single_period():
    ts = trade_statistics([[5.0]], [[2.0]])
    np.testing.assert_array_equal(solve_harp_multipliers(ts).lam, [1.0])


def test_multipliers_single_good_telescopes():
    ts = trade_statistics([[1.0], [2.0], [4.0]], [[3.0], [1.0], [0.5]])
    lm = solve_harp_multipliers(ts, 1.0)
    np.testing.assert_allclose(lm.lam, [1.0, 0.5, 0.25], rtol=1e-12)


def test_multipliers_infeasible(two_period_panel):
    with pytest.raises(InfeasibleAxiomError) as err:
        solve_harp_multipliers(two_period_panel, 1.0)
    assert err.value.witness is not None
    assert err.value.witness.cycle == (0, 1)


def test_multipliers_sound_on_random_panels():
    rng = np.random.default_rng(101)
    produced = 0
    for _ in range(150):
        ts = random_panel(rng)
        omega = float(rng.uniform(0.95, 1.4))
        if not check_harp(ts, omega).satisfied:
            continue
        lm = solve_harp_multipliers(ts, omega)
        verify_harp_multipliers(lm, ts)  # raises on violation
        assert lm.lam[0] == 1.0
        assert np.all(lm.lam > 0.0)
        produced += 1
    assert produced > 20


def test_afriat_appendix(appendix_panel):
    sol = solve_afriat_numbers(appendix_panel, 1.0)
    np.testing.assert_array_equal(sol.utilities, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(sol.lam, [1.0, 1.0, 1.0])


def test_afriat_single_period():
    sol = solve_afriat_numbers(trade_statistics([[5.0]], [[2.0]]))
    np.testing.assert_array_equal(sol.utilities, [1.0])
    np.testing.assert_array_equal(sol.lam, [1.0])


def test_afriat_two_period_feasible(two_period_panel):
    sol = solve_afriat_numbers(two_period_panel, 1.0)
    verify_afriat_solution(sol, two_period_panel)


def test_afriat_infeasible(two_period_panel):
    with pytest.raises(InfeasibleAxiomError):
        solve_afriat_numbers(two_period_panel, 0.75)


def test_afriat_sound_on_random_panels():
    rng = np.random.default_rng(103)
    produced = 0
    for _ in range(150):
        ts = random_panel(rng)
        omega = float(rng.uniform(0.8, 1.4))
        if not check_garp(ts, omega).satisfied:
            continue
        sol = solve_afriat_numbers(ts, omega)
        verify_afriat_solution(sol, ts)
        produced += 1
    assert produced > 30


def test_harp_utility_at_observations():
    rng = np.random.default_rng(107)
    for _ in range(40):
        ts = random_panel(rng)
        if not check_harp(ts, 1.0).satisfied:
            continue
        lm = solve_harp_multipliers(ts, 1.0)
        spend = ts.expenditures()
        for t in range(ts.num_periods):
            value = eval_harp_utility(lm, ts, ts.quantities[t])
            assert value == pytest.approx(lm.lam[t] * spend[t], rel=1e-12)


def test_harp_utility_zero_bundle(appendix_panel):
    lm = solve_harp_multipliers(appendix_panel, 1.0)
    assert eval_harp_utility(lm, appendix_panel, np.zeros(3)) == 0.0


def test_harp_utility_flat_bundle(appendix_panel):
    lm = solve_harp_multipliers(appendix_panel, 1.0)
    assert eval_harp_utility(lm, appendix_panel, np.ones(3)) == 5.0


def test_harp_utility_homogeneous(appendix_panel):
    rng = np.random.default_rng(109)
    lm = solve_harp_multipliers(appendix_panel, 1.0)
    for _ in range(50):
        x = rng.uniform(0.0, 3.0, size=3)
        alpha = float(rng.uniform(0.1, 10.0))
        assert eval_harp_utility(lm, appendix_panel, alpha * x) == pytest.approx(
            alpha * eval_harp_utility(lm, appendix_panel, x), rel=1e-12
        )


def test_garp_utility_at_first_observation(appendix_panel):
    sol = solve_afriat_numbers(appendix_panel, 1.0)
    assert eval_garp_utility(sol, appendix_panel, [1.0, 0.0, 0.0]) == 1.0


def test_garp_utility_zero_bundle(appendix_panel):
    sol = solve_afriat_numbers(appendix_panel, 1.0)
    px = cross_value_matrix(appendix_panel)
    expected = min(sol.utilities[s] - sol.lam[s] * px[s, s] for s in range(3))
    assert eval_garp_utility(sol, appendix_panel, np.zeros(3)) == pytest.approx(expected)


def test_garp_utility_monotone(appendix_panel):
    rng = np.random.default_rng(113)
    sol = solve_afriat_numbers(appendix_panel, 1.0)
    for _ in range(50):
        x = rng.uniform(0.0, 2.0, size=3)
        y = x + rng.uniform(0.0, 1.0, size=3)
        assert eval_garp_utility(sol, appendix_panel, x) <= eval_garp_utility(
            sol, appendix_panel, y
        ) + 1e-12


def test_observed_bundles_maximal_in_budget():
    # both recovered utilities rank each observation above everything affordable at its budget
    rng = np.random.default_rng(127)
    panels = 0
    for _ in range(60):
        ts = random_panel(rng, m=3)
        if not check_harp(ts, 1.0).satisfied:
            continue
        panels += 1
        lm = solve_harp_multipliers(ts, 1.0)
        sol = solve_afriat_numbers(ts, 1.0)
        spend = ts.expenditures()
        for t in range(ts.num_periods):
            for _ in range(50):
                x = rng.uniform(0.0, 2.0, size=ts.num_goods)
                cost = float(ts.prices[t] @ x)
                if cost <= 0.0:
                    continue
                x = x * (spend[t] / cost) * rng.uniform(0.2, 1.0)  # inside the budget
                assert eval_harp_utility(lm, ts, x) <= eval_harp_utility(
                    lm, ts, ts.quantities[t]
                ) * (1 + 1e-12)
                assert eval_garp_utility(sol, ts, x) <= eval_garp_utility(
                    sol, ts, ts.quantities[t]
                ) + 1e-12
    assert panels > 10


def test_observed_bundles_maximal_dense_sweep(appendix_panel):
    # a thousand random budget points per period on one panel
    rng = np.random.default_rng(139)
    lm = solve_harp_multipliers(appendix_panel, 1.0)
    sol = solve_afriat_numbers(appendix_panel, 1.0)
    spend = appendix_panel.expenditures()
    for t in range(appendix_panel.num_periods):
        own_harp = eval_harp_utility(lm, appendix_panel, appendix_panel.quantities[t])
        own_garp = eval_garp_utility(sol, appendix_panel, appendix_panel.quantities[t])
        for _ in range(1000):
            x = rng.dirichlet(np.ones(3)) * spend[t] * rng.uniform(0.0, 1.0)
            x = x / max(float(appendix_panel.prices[t] @ x), 1e-12) * spend[t] * rng.uniform(0.0, 1.0)
            assert eval_harp_utility(lm, appendix_panel, x) <= own_harp * (1 + 1e-12)
            assert eval_garp_utility(sol, appendix_panel, x) <= own_garp + 1e-12


def test_index_series_appendix(appendix_panel):
    lm = solve_harp_multipliers(appendix_panel, 1.0)
    series = konus_divisia_series(appendix_panel, lm)
    np.testing.assert_array_equal(series.consumption, [2.0, 1.0, 1.0])
    np.testing.assert_array_equal(series.price, [1.0, 1.0, 1.0])


def test_index_series_single_good_proportional():
    prices = [[1.0], [2.0], [4.0]]
    quantities = [[3.0], [1.0], [0.5]]
    ts = trade_statistics(prices, quantities)
    lm = solve_harp_multipliers(ts, 1.0)
    series = konus_divisia_series(ts, lm)
    np.testing.assert_allclose(series.price / series.price[0],
                               np.asarray(prices).ravel() / prices[0][0], rtol=1e-10)
    np.testing.assert_allclose(series.consumption / series.consumption[0],
                               np.asarray(quantities).ravel() / quantities[0][0], rtol=1e-10)


def test_index_series_base_period_and_euler_identity():
    rng = np.random.default_rng(131)
    panels = 0
    for _ in range(80):
        ts = random_panel(rng)
        if not check_harp(ts, 1.0).satisfied:
            continue
        panels += 1
        lm = solve_harp_multipliers(ts, 1.0)
        series = konus_divisia_series(ts, lm)
        assert series.price[0] == 1.0
        spend = ts.expenditures()
        for t in range(ts.num_periods):
            assert series.consumption[t] * series.price[t] == spend[t]  # exact product
            assert series.price[t] == pytest.approx(1.0 / lm.lam[t], rel=1e-10)
    assert panels > 15


@given(witness_panels(max_periods=12), st.floats(1.0, 1.5), st.sampled_from([0.0, 1e-9]))
def test_multipliers_match_two_closure_path_bitwise(ts, slack, tol):
    # the multipliers read off the verdict's closure equal those of a second, separate closure
    omega = harp_irrationality(ts) * slack
    lm = solve_harp_multipliers(ts, omega, tol=tol)
    assert check_harp(ts, omega, tol=tol).satisfied
    scaled = paasche_matrix(cross_value_matrix(ts)) / omega
    np.fill_diagonal(scaled, 0.0)
    values, diverged = closure_by_outer(scaled, tol=tol)
    assert not diverged
    lam = np.maximum(1.0, values.max(axis=1))
    assert lm.lam.tobytes() == (lam / lam[0]).tobytes()


def test_multipliers_build_one_closure(monkeypatch):
    calls = count_closures(monkeypatch)
    for seed in range(4):
        ts = random_panel(np.random.default_rng(seed), T=6, m=3)
        omega = harp_irrationality(ts)
        solve_harp_multipliers(ts, omega)
        with pytest.raises(InfeasibleAxiomError):
            solve_harp_multipliers(ts, omega * 0.9)
    assert calls == [6] * 8


@given(witness_panels(max_periods=12), st.sampled_from([1.0, 1.0 + 1e-9]) | st.floats(1.0, 1.5),
       st.sampled_from([0.0, 1e-9]))
# a cycle of indifference 0 -> 1 -> 2 -> 0 whose class only the closure finds, below a fourth period
@example(trade_statistics([[1, 1, 2, 3], [2, 1, 1, 3], [1, 2, 1, 3], [1, 1, 1, 1]], np.eye(4)), 1.0, 0.0)
def test_afriat_numbers_match_per_class_closures_bitwise(ts, slack, tol):
    # one closure restricted at each step gives the numbers of a fresh closure per peeled class
    omega = garp_irrationality(ts)[0] * slack
    assume(check_garp(ts, omega, tol=tol).satisfied)
    utilities, lam = afriat_numbers_by_class_closures(ts, omega, tol)
    try:
        sol = solve_afriat_numbers(ts, omega, tol=tol)
    except CertificateError:
        with pytest.raises(CertificateError):
            verify_afriat_solution(AfriatSolution(utilities=utilities, lam=lam, omega=omega), ts)
        return
    assert sol.utilities.tobytes() == utilities.tobytes()
    assert sol.lam.tobytes() == lam.tobytes()
