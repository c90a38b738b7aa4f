"""Certificate constructions, their inequality systems, and index evaluators."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from konus import (
    AfriatSolution,
    CertificateError,
    HarpMultipliers,
    InfeasibleAxiomError,
    check_garp,
    check_harp,
    cobb_douglas_statistics,
    cross_value_matrix,
    eval_garp_utility,
    eval_harp_utility,
    garp_irrationality,
    harp_irrationality,
    konus_divisia_series,
    paasche_matrix,
    random_statistics,
    solve_afriat_numbers,
    solve_harp_multipliers,
    trade_statistics,
    verify_afriat_solution,
    verify_harp_multipliers,
)

from conftest import (
    afriat_numbers_by_class_closures,
    closure_by_outer,
    count_closures,
    longest_walks_by_loops,
    random_panel,
)
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


def test_multiplier_check_names_a_violated_pair_past_the_first_row():
    ts = cobb_douglas_statistics(5, 3, seed=2)
    lam = solve_harp_multipliers(ts).lam.copy()
    lam[1] *= 1e-6  # period 1's inequality against period 0 now fails; row 0 still holds
    px = cross_value_matrix(ts)
    with pytest.raises(CertificateError) as raised:
        verify_harp_multipliers(HarpMultipliers(lam=lam, omega=1.0), ts)
    lhs, rhs = 1.0 * lam[1] * px[1, 0], lam[0] * px[0, 0]
    assert str(raised.value) == f"multiplier system violated at pair (1, 0): {lhs} < {rhs}"


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


@pytest.mark.parametrize("bundle, message", [
    ([1.0, 1.0], "bundle must have 3 coordinates"),
    ([np.nan, 1.0, 1.0], "bundle must be finite"),
    ([np.inf, 1.0, 1.0], "bundle must be finite"),
    ([1.0, -np.inf, 1.0], "bundle must be finite"),
    ([-1.0, 1.0, 1.0], "bundle must be nonnegative"),
])
def test_utility_evaluators_reject_invalid_bundles(appendix_panel, bundle, message):
    lm = solve_harp_multipliers(appendix_panel, 1.0)
    sol = solve_afriat_numbers(appendix_panel, 1.0)
    for evaluate in (lambda x: eval_harp_utility(lm, appendix_panel, x),
                     lambda x: eval_garp_utility(sol, appendix_panel, x)):
        with pytest.raises(ValueError) as caught:
            evaluate(bundle)
        assert str(caught.value) == message


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


def paasche_logs(ts):
    """The log weights Karp's table of a panel is built on: ``log C``, diagonal excluded."""
    logs = np.log(paasche_matrix(cross_value_matrix(ts)))
    np.fill_diagonal(logs, -np.inf)
    return logs


def closure_multipliers(ts, omega, tol):
    """The multipliers of the closure path: row maxima of the omega-scaled Paasche closure."""
    scaled = paasche_matrix(cross_value_matrix(ts)) / omega
    np.fill_diagonal(scaled, 0.0)
    values, diverged = closure_by_outer(scaled, tol=tol)
    assert not diverged
    lam = np.maximum(1.0, values.max(axis=1))
    return lam / lam[0]


def solve_counting_closures(ts, omega, tol):
    """``solve_harp_multipliers`` and the number of max-times closures it built."""
    with pytest.MonkeyPatch.context() as patch:
        calls = count_closures(patch)
        lm = solve_harp_multipliers(ts, omega, tol=tol)
    return lm, len(calls)


@given(witness_panels(max_periods=12), st.floats(1.0, 1.5), st.sampled_from([0.0, 1e-9]))
def test_certified_multipliers_match_loop_oracle_bitwise(ts, slack, tol):
    # at or above the index, Karp's table certifies these panels, and the multipliers are its longest
    # walks out of each period, bit for bit those of the entry-by-entry oracle
    omega = harp_irrationality(ts) * slack
    lm, closures = solve_counting_closures(ts, omega, tol)
    assert closures == 0
    lam = np.maximum(1.0, longest_walks_by_loops(paasche_logs(ts), math.log(omega)))
    assert lm.lam.tobytes() == (lam / lam[0]).tobytes()


@given(witness_panels(max_periods=10))
def test_uncertified_multipliers_are_the_longest_walks_bitwise(ts):
    # just below the index the table cannot certify; the tolerance covers the closure's squaring of
    # cycles a hair above one, so the closure decides the verdict, and the multipliers are still the
    # table's longest walks, bit for bit those of the entry-by-entry oracle
    omega = harp_irrationality(ts) * (1.0 - 1e-12)
    lm, closures = solve_counting_closures(ts, omega, 1e-6)
    assert closures == 1
    lam = np.maximum(1.0, longest_walks_by_loops(paasche_logs(ts), math.log(omega)))
    assert lm.lam.tobytes() == (lam / lam[0]).tobytes()


@given(witness_panels(max_periods=12), st.floats(1.0, 1.5), st.sampled_from([0.0, 1e-9]))
@example(cobb_douglas_statistics(40, 6, 2), 1.001, 0.0)
@example(cobb_douglas_statistics(40, 6, 2), 1.3, 0.0)
def test_certified_multipliers_agree_with_closure_row_maxima(ts, slack, tol):
    # the bound of afriat._harp_certificate: 4 n^2 eps (1 + max|log C| + |log omega|), relative
    omega = harp_irrationality(ts) * slack
    lm, closures = solve_counting_closures(ts, omega, tol)
    assert closures == 0
    logs = paasche_logs(ts)
    n = ts.num_periods
    bound = 4 * n * n * np.finfo(float).eps * (1.0 + np.abs(logs[np.isfinite(logs)]).max(initial=0.0)
                                               + abs(math.log(omega)))
    expected = closure_multipliers(ts, omega, tol)
    assert np.all(np.abs(lm.lam / expected - 1.0) <= bound)


def test_multipliers_build_one_table(monkeypatch):
    tables = count_closures(monkeypatch, "_karp_table")
    closures = count_closures(monkeypatch)
    for seed in range(4):
        ts = random_panel(np.random.default_rng(seed), T=6, m=3)
        omega = harp_irrationality(ts)
        tables.clear()  # the index's own table
        solve_harp_multipliers(ts, omega)
        assert (tables, closures) == ([6], [])  # certified: the table alone
        tables.clear()
        with pytest.raises(InfeasibleAxiomError):
            solve_harp_multipliers(ts, omega * 0.9)
        assert (tables, closures) == ([6], [6])  # failing: the closure decides, and the search runs
        tables.clear()
        closures.clear()


def test_multipliers_within_tol_only_raise_infeasibility():
    # a positive tol admits cycles a hair above omega**k, for which no multipliers exist: the
    # request is infeasible, with the cycle of the test at tol 0, not an internal certificate error
    rng = np.random.default_rng(2027)
    for _ in range(40):
        ts = random_panel(rng, max_T=12)
        omega = harp_irrationality(ts) * (1.0 - 1e-8)
        assert check_harp(ts, omega, tol=1e-6).satisfied
        with pytest.raises(InfeasibleAxiomError) as raised:
            solve_harp_multipliers(ts, omega, tol=1e-6)
        assert str(raised.value) == f"homotheticity holds only within tol=1e-06; no multipliers exist at omega={omega}"
        assert raised.value.witness == check_harp(ts, omega).witness is not None
        with pytest.raises(InfeasibleAxiomError, match="^homotheticity fails at omega="):
            solve_harp_multipliers(ts, omega * (1.0 - 1e-5), tol=1e-6)


def test_afriat_numbers_build_one_boolean_closure(monkeypatch):
    calls = count_closures(monkeypatch, "boolean_closure")
    ts = cobb_douglas_statistics(40, 5, seed=4)
    solve_afriat_numbers(ts)
    assert calls == [40]
    calls.clear()
    failing = random_statistics(40, 5, seed=1)
    with pytest.raises(InfeasibleAxiomError) as raised:
        solve_afriat_numbers(failing)
    assert calls == [40]
    assert str(raised.value) == "acyclicity fails at omega=1.0; no utility numbers exist"
    assert raised.value.witness == check_garp(failing).witness


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
