"""Forecasting cones, polytope slices, and size measures."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from konus import (
    InfeasibleAxiomError,
    TradeDataError,
    check_harp,
    cobb_douglas_statistics,
    cross_value_matrix,
    enumerate_vertices,
    forecast_size_paired,
    gamma_coefficients,
    kg_membership,
    kh_membership,
    kh_polytope,
    maxtimes_closure,
    paasche_matrix,
    random_statistics,
    sample_positive_sphere,
    trade_statistics,
)
from konus.axioms import HarpWitness, _garp_satisfied
from konus.forecast import CounterexampleFixture
from konus.semiring import FLOAT_SLACK

from conftest import (
    BATCH_SIZES,
    batches_of,
    count_closures,
    omega_closure,
    random_panel,
    shortest_cycle_by_cube,
)
from test_core import panels_and_new_rows

UNIT_PRICE = np.array([1.0, 1.0, 1.0])


def harp_panel(rng, T, m):
    """Random panel conditioned to pass homotheticity at level one."""
    while True:
        ts = random_panel(rng, T=T, m=m)
        if check_harp(ts, 1.0).satisfied:
            return ts


def test_omega_closure_matches_plain_closure_at_level_one(appendix_panel):
    paasche = paasche_matrix(cross_value_matrix(appendix_panel))
    closure = omega_closure(paasche, 1.0)
    np.testing.assert_allclose(closure, maxtimes_closure(paasche))
    np.testing.assert_allclose(closure, [[1, 1, 0.5], [1, 1, 0.5], [1, 1, 1]])


def test_omega_closure_vanishes_for_large_level(appendix_panel):
    paasche = paasche_matrix(cross_value_matrix(appendix_panel))
    assert np.all(omega_closure(paasche, 1e6) < 1e-5)


def test_omega_closure_trivial_panel():
    closure = omega_closure(np.array([[1.0]]), 2.0)
    np.testing.assert_array_equal(closure, [[0.5]])


def test_gamma_appendix(appendix_panel):
    cone = gamma_coefficients(appendix_panel, 1.0, UNIT_PRICE)
    np.testing.assert_allclose(cone.gamma, [0.5, 0.5, 1.0])


def test_gamma_appendix_half(appendix_panel_half):
    cone = gamma_coefficients(appendix_panel_half, 1.0, UNIT_PRICE)
    np.testing.assert_allclose(cone.gamma, [4.0 / 9.0, 16.0 / 27.0, 2.0 / 3.0], rtol=1e-12)


def test_gamma_self_price_contains_own_demand():
    rng = np.random.default_rng(3)
    for _ in range(20):
        ts = harp_panel(rng, T=4, m=3)
        cone = gamma_coefficients(ts, 1.0, ts.prices[-1])
        assert kh_membership(cone, ts, ts.quantities[-1], tol=1e-9)


def test_gamma_scales_with_new_price(appendix_panel):
    cone = gamma_coefficients(appendix_panel, 1.0, UNIT_PRICE)
    scaled = gamma_coefficients(appendix_panel, 1.0, 3.0 * UNIT_PRICE)
    np.testing.assert_allclose(scaled.gamma, 3.0 * cone.gamma, rtol=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(0.01, 2.0, size=3)
        assert kh_membership(cone, appendix_panel, x) == kh_membership(scaled, appendix_panel, x)


def test_gamma_requires_consistency(two_period_panel):
    with pytest.raises(InfeasibleAxiomError):
        gamma_coefficients(two_period_panel, 1.0, np.array([1.0, 1.0]))


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
def test_gamma_refuses_an_overflowing_new_cross_value():
    # <price_new, X^1> = 1e310 overflows; the cone coefficient would be inf
    ts = trade_statistics([[1.0, 1.0]], [[1e10, 1.0]])
    with pytest.raises(TradeDataError, match="^cross-value matrix must be finite$"):
        gamma_coefficients(ts, 1.0, [1e300, 1.0])


def test_gamma_rejects_omega_below_one_before_any_closure(monkeypatch):
    ts = random_statistics(8, 3, seed=2)
    assert not check_harp(ts, 0.5).satisfied
    calls = count_closures(monkeypatch)
    with pytest.raises(ValueError, match="omega must be at least 1"):
        gamma_coefficients(ts, 0.5, np.array([1.0, 1.0, 1.0]))
    assert calls == []


def test_gamma_positive():
    rng = np.random.default_rng(7)
    for _ in range(20):
        ts = harp_panel(rng, T=4, m=3)
        price = np.exp(rng.normal(0, 1, size=3))
        assert np.all(gamma_coefficients(ts, 1.0, price).gamma > 0.0)


def test_kh_membership_appendix(appendix_panel):
    cone = gamma_coefficients(appendix_panel, 1.0, UNIT_PRICE)
    assert kh_membership(cone, appendix_panel, [1.0, 0.0, 1.0])
    assert not kh_membership(cone, appendix_panel, [0.5, 1.0, 0.5])


def test_kh_membership_rejects_zero(appendix_panel):
    cone = gamma_coefficients(appendix_panel, 1.0, UNIT_PRICE)
    with pytest.raises(ValueError):
        kh_membership(cone, appendix_panel, np.zeros(3))


def test_kg_membership_intersection_setup():
    fix = CounterexampleFixture(0.0)
    support = fix.intersection_statistics()
    np.testing.assert_array_equal(support.quantities, 2.0 * np.eye(3))
    assert kg_membership(support, 1.0, UNIT_PRICE, [0.5, 1.0, 0.5])
    assert kg_membership(support, 1.0, UNIT_PRICE, [1.0, 0.0, 1.0])


def test_kg_membership_vacuous_for_expensive_bundle(appendix_panel):
    # a bundle too costly to relate to anything forms no relation edges
    assert kg_membership(appendix_panel, 1.0, UNIT_PRICE, [100.0, 100.0, 100.0])


@st.composite
def memberships(draw):
    """A panel of 1..6 periods over 1..4 goods, a new observation, and a level.

    The level may sit exactly on a relation boundary of the extended panel,
    ``px[t, t] / px[t, s]``, where the comparison turns on the last bit.
    """
    ts, price, bundle = draw(panels_and_new_rows())
    kind = draw(st.sampled_from(["boundary", "one", "any"]))
    if kind == "boundary":
        px = cross_value_matrix(ts.extended(price, bundle))
        t, s = draw(st.permutations(range(ts.num_periods + 1)))[:2]
        omega = float(px[t, t] / px[t, s])
    else:
        omega = 1.0 if kind == "one" else draw(st.floats(0.5, 2.0))
    return ts, omega, price, bundle


@given(memberships(), st.sampled_from([0.0, 1e-9]))
def test_kg_membership_is_the_acyclicity_test_of_the_extended_panel(case, tol):
    ts, omega, price, bundle = case
    expected = _garp_satisfied(cross_value_matrix(ts.extended(price, bundle)), omega, tol)
    assert kg_membership(ts, omega, price, bundle, tol=tol) is expected


NAN = float("nan")
BAD_PRICE = "new price must be finite and strictly positive"
BAD_BUNDLE = "bundle must be finite, nonnegative and nonzero"


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
@pytest.mark.parametrize("period_ids, price, bundle, error, message", [
    (None, [NAN, 1.0, 1.0], [1.0, 1.0, 1.0], ValueError, BAD_PRICE),
    (None, [1.0, -1.0, 1.0], [1.0, 1.0, 1.0], ValueError, BAD_PRICE),
    (None, [1.0, 0.0, 1.0], [1.0, 1.0, 1.0], ValueError, BAD_PRICE),
    (None, [1.0, 1.0], [1.0, 1.0, 1.0], ValueError, "new price must have 3 coordinates"),
    (None, [1.0, 1.0, 1.0], [1.0, NAN, 1.0], ValueError, BAD_BUNDLE),
    (None, [1.0, 1.0, 1.0], [1.0, -1.0, 1.0], ValueError, BAD_BUNDLE),
    (None, [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], ValueError, BAD_BUNDLE),
    (None, [1.0, 1.0, 1.0], [[1.0, 1.0, 1.0]], ValueError, "bundle must have 3 coordinates"),
    (None, [1e300, 1.0, 1.0], [1e300, 0.0, 0.0], TradeDataError, "cross-value matrix must be finite"),
    (("a", "new", "b"), [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], TradeDataError, "duplicate period id 'new'"),
])
def test_kg_membership_refuses_what_the_extended_panel_refuses(appendix_panel, period_ids, price, bundle,
                                                               error, message):
    ts = trade_statistics(appendix_panel.prices, appendix_panel.quantities, period_ids=period_ids)
    with pytest.raises(ValueError) as caught:
        kg_membership(ts, 1.0, price, bundle)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_strict_inclusion_of_homothetic_set():
    fix = CounterexampleFixture(0.0)
    base = fix.statistics()
    cone = gamma_coefficients(base, 1.0, UNIT_PRICE)
    support = fix.intersection_statistics()
    point = np.array([0.5, 1.0, 0.5])
    assert kg_membership(support, 1.0, UNIT_PRICE, point)
    assert not kh_membership(cone, base, point)


def test_polytope_appendix_segment(appendix_panel):
    cone = gamma_coefficients(appendix_panel, 1.0, UNIT_PRICE)
    poly = kh_polytope(cone, 2.0)
    vertices = enumerate_vertices(poly)
    np.testing.assert_allclose(
        vertices, [[0.0, 0.0, 2.0], [2.0, 0.0, 0.0]], atol=1e-9
    )


def test_polytope_appendix_half(appendix_panel_half):
    cone = gamma_coefficients(appendix_panel_half, 1.0, UNIT_PRICE)
    poly = kh_polytope(cone, 2.0)
    vertices = enumerate_vertices(poly)
    expected = np.array([
        [0.375, 0.625, 1.0],
        [0.8125, 0.625, 0.5625],
        [1.0, 0.0, 1.0],
        [1.75, 0.0, 0.25],
    ])
    np.testing.assert_allclose(vertices, expected, atol=1e-9)
    assert vertices[:, 1].max() == pytest.approx(0.625, abs=1e-9)  # binding bound


def test_polytope_scaling(appendix_panel):
    cone = gamma_coefficients(appendix_panel, 1.0, UNIT_PRICE)
    doubled = enumerate_vertices(kh_polytope(cone, 4.0))
    np.testing.assert_allclose(doubled, 2.0 * enumerate_vertices(kh_polytope(cone, 2.0)),
                               atol=1e-9)


def test_polytope_rejects_high_dimension():
    rng = np.random.default_rng(9)
    ts = harp_panel(rng, T=3, m=5)
    cone = gamma_coefficients(ts, 1.0, np.ones(5))
    with pytest.raises(ValueError, match="at most 4"):
        enumerate_vertices(kh_polytope(cone, 1.0))


def test_cone_membership_matches_extended_axiom_check():
    # quick version of the exactness sweep (the acceptance suite runs it at scale)
    rng = np.random.default_rng(80)
    for _ in range(10):
        ts = harp_panel(rng, T=4, m=3)
        price = np.exp(rng.normal(0, 0.5, size=3))
        cone = gamma_coefficients(ts, 1.0, price)
        for _ in range(300):
            x = rng.dirichlet(np.ones(3)) * float(rng.uniform(0.2, 5.0))
            direct = kh_membership(cone, ts, x)
            extended = check_harp(ts.extended(price, x), 1.0).satisfied
            assert direct == extended


def test_extended_axiom_check_builds_one_closure_and_the_cube_witness(monkeypatch):
    calls = count_closures(monkeypatch)
    rng = np.random.default_rng(11)
    outcomes = {True: 0, False: 0}
    for _ in range(60):
        T, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        ts = random_panel(rng, T=T, m=m)
        price = np.exp(rng.normal(0.0, 0.5, size=m))
        for _ in range(10):
            extended = ts.extended(price, rng.dirichlet(np.ones(m)) * float(rng.uniform(0.2, 5.0)))
            calls.clear()
            verdict = check_harp(extended, 1.0)
            assert calls == [T + 1]
            outcomes[verdict.satisfied] += 1
            if verdict.satisfied:
                continue
            paasche = paasche_matrix(cross_value_matrix(extended))
            steps = paasche.copy()
            np.fill_diagonal(steps, 0.0)
            cycle = shortest_cycle_by_cube(steps, 1.0 + FLOAT_SLACK)
            product = 1.0
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                product *= paasche[a, b]
            assert verdict.witness == HarpWitness(cycle=cycle, product=product, omega=1.0)
    assert min(outcomes.values()) > 100


def test_cone_monotone_in_level():
    rng = np.random.default_rng(81)
    for _ in range(10):
        ts = harp_panel(rng, T=4, m=3)
        price = np.exp(rng.normal(0, 0.5, size=3))
        lo = gamma_coefficients(ts, 1.0, price)
        hi = gamma_coefficients(ts, 1.2, price)
        for _ in range(200):
            x = rng.dirichlet(np.ones(3)) * float(rng.uniform(0.2, 5.0))
            if kh_membership(lo, ts, x):
                assert kh_membership(hi, ts, x, tol=1e-12)


def test_homothetic_set_inside_acyclic_set():
    rng = np.random.default_rng(82)
    for _ in range(10):
        ts = harp_panel(rng, T=4, m=3)
        price = np.exp(rng.normal(0, 0.5, size=3))
        cone = gamma_coefficients(ts, 1.0, price)
        for _ in range(200):
            x = rng.dirichlet(np.ones(3)) * float(rng.uniform(0.2, 5.0))
            if kh_membership(cone, ts, x):
                assert kg_membership(ts, 1.0, price, x, tol=1e-12)


@pytest.mark.parametrize("T, m", [(10, 3), (20, 4), (40, 4), (40, 20)])
def test_held_out_observation_lies_in_both_forecasting_sets(T, m):
    # a homothetic consumer's last choice is a consistent extension of the
    # periods before it, so both sets must admit it, with no slack
    checked = 0
    for seed in range(10):
        ts = cobb_douglas_statistics(T, m, seed)
        if not check_harp(ts, 1.0).satisfied:
            continue
        checked += 1
        base = trade_statistics(ts.prices[:-1], ts.quantities[:-1])
        price, x = ts.prices[-1], ts.quantities[-1]
        assert kh_membership(gamma_coefficients(base, 1.0, price), base, x, tol=0.0)
        assert kg_membership(base, 1.0, price, x, tol=0.0)
    assert checked == 10


def test_sphere_sample_properties():
    rng = np.random.default_rng(19)
    for m in (1, 2, 5):
        for _ in range(200):
            draw = sample_positive_sphere(m, rng)
            assert np.all(draw >= 0.0)
            assert np.linalg.norm(draw) == pytest.approx(1.0, abs=1e-12)
    assert sample_positive_sphere(1, rng)[0] == 1.0


def test_sphere_sample_coordinate_symmetry():
    rng = np.random.default_rng(23)
    draws = np.array([sample_positive_sphere(2, rng) for _ in range(100_000)])
    means = draws.mean(axis=0)
    assert abs(means[0] - means[1]) <= 0.01 * means.mean()


def test_size_single_period_is_one():
    ts = trade_statistics([[5.0]], [[2.0]])
    garp_report, harp_report = forecast_size_paired(ts, 500, seed=3)
    assert garp_report.fraction == 1.0
    assert harp_report.fraction == 1.0


def test_size_dominance_and_determinism():
    rng = np.random.default_rng(29)
    ts = harp_panel(rng, T=5, m=4)
    reports = []
    for size in BATCH_SIZES:
        with batches_of(size):
            reports.append(forecast_size_paired(ts, 1500, seed=11))
    for garp_report, harp_report in reports:
        assert harp_report.hits <= garp_report.hits
    assert reports[0] == reports[1] == reports[2]


def test_size_trial_fast_path_matches_naive_reconstruction():
    # the per-trial row update of the cross-value matrix must agree with
    # rebuilding the panel from scratch and running the public checks
    from conftest import size_trial

    from konus import check_garp, cross_value_matrix, sample_positive_sphere

    rng = np.random.default_rng(37)
    ts = harp_panel(rng, T=4, m=3)
    base_px = cross_value_matrix(ts)
    for trial in range(100):
        garp_ok, harp_ok = size_trial(ts, base_px, seed=77, trial=trial)
        price = sample_positive_sphere(ts.num_goods, np.random.default_rng((77, trial)))
        prices = np.array(ts.prices)
        prices[-1] = price
        rebuilt = trade_statistics(prices, ts.quantities)
        assert harp_ok == check_harp(rebuilt, 1.0).satisfied
        assert garp_ok == (check_garp(rebuilt, 1.0).satisfied or harp_ok)


def test_size_appendix_regression_lock(appendix_panel):
    garp_report, harp_report = forecast_size_paired(appendix_panel, 20_000, seed=0)
    assert garp_report.hits == 20_000      # the acyclic forecasting set is trivial here
    assert harp_report.hits == 8147        # locked on first run; binomial SE ~ 0.0035
