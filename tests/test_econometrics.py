"""Autoregression fitting, price simulation, power estimation, and group curves."""

import numpy as np
import pytest

from konus import (
    check_garp,
    check_harp,
    cobb_douglas_statistics,
    fit_ar,
    fit_price_models,
    log_relatives,
    power_estimate,
    random_group_probability,
    random_statistics,
    simulate_price_paths,
    trade_statistics,
)
from konus.econometrics import VARIANCE_FLOOR

from conftest import BATCH_SIZES, batches_of


def simulate_ar1(seed, n=500, beta0=0.02, beta1=0.6, sigma=0.05, burn=100):
    rng = np.random.default_rng(seed)
    z = np.zeros(n + burn)
    for t in range(1, n + burn):
        z[t] = beta0 + beta1 * z[t - 1] + rng.normal(0.0, sigma)
    return z[burn:]


def test_fit_constant_series():
    model = fit_ar([0.1, 0.1, 0.1, 0.1])
    assert model.order == 0
    assert model.beta[0] == pytest.approx(0.1, abs=1e-12)
    assert model.sigma2 == VARIANCE_FLOOR


def test_fit_recovers_ar1_coefficients():
    model = fit_ar(simulate_ar1(seed=12))
    assert model.order >= 1
    assert abs(model.beta[0] - 0.02) <= 3 * model.stderr[0]
    assert abs(model.beta[1] - 0.6) <= 3 * model.stderr[1]


def test_fit_white_noise_prefers_order_zero():
    picks = [fit_ar(np.random.default_rng((5, i)).normal(0, 1, 400)).order for i in range(20)]
    assert sum(1 for p in picks if p == 0) > 10


def test_fit_short_series():
    with pytest.raises(ValueError, match="too short"):
        fit_ar([0.1])
    # max_order reduced to fit a three-point series
    model = fit_ar([0.1, 0.2, 0.15], max_order=2)
    assert model.order <= 1


def test_fit_sigma_floor_positive():
    model = fit_ar(np.linspace(0.0, 1.0, 10))
    assert model.sigma2 >= VARIANCE_FLOOR


def test_simulation_anchors_first_period():
    ts = cobb_douglas_statistics(8, 3, seed=5)
    models = fit_price_models(ts)
    sim = simulate_price_paths(ts, models, np.random.default_rng(0))
    np.testing.assert_array_equal(sim[0], ts.prices[0])
    assert np.all(sim > 0.0)


def test_simulation_degenerate_noise_reproduces_prices():
    # constant log relatives fit exactly; floored noise leaves prices in place
    prices = np.array([[1.0, 2.0], [1.1, 2.2], [1.21, 2.42], [1.331, 2.662]])
    quantities = np.ones_like(prices)
    ts = trade_statistics(prices, quantities)
    models = fit_price_models(ts)
    assert all(m.sigma2 == VARIANCE_FLOOR for m in models)
    sim = simulate_price_paths(ts, models, np.random.default_rng(1))
    np.testing.assert_allclose(sim, prices, rtol=1e-5)


def test_simulation_mean_matches_intercept():
    # order-zero model: simulated log relatives average to the intercept
    prices = np.exp(np.cumsum(np.full((40, 1), 0.05), axis=0))
    ts = trade_statistics(prices, np.ones_like(prices))
    model = fit_price_models(ts, max_order=0)[0]
    rng = np.random.default_rng(3)
    draws = []
    for _ in range(2000):
        sim = simulate_price_paths(ts, [model], rng)
        draws.extend(np.log(sim[1:, 0] / sim[:-1, 0]))
    assert np.mean(draws) == pytest.approx(model.beta[0], abs=1e-4)


def test_simulation_copies_observed_initial_relatives():
    ts = cobb_douglas_statistics(10, 2, seed=9)
    models = fit_price_models(ts)
    sim = simulate_price_paths(ts, models, np.random.default_rng(2))
    rel_obs = log_relatives(ts)
    rel_sim = np.log(sim[1:] / sim[:-1])
    for i, model in enumerate(models):
        np.testing.assert_allclose(rel_sim[: model.order, i], rel_obs[: model.order, i], rtol=1e-12)


def test_fitted_model_roundtrips_through_simulation():
    # refitting data generated from a fitted model recovers its coefficients
    base = fit_ar(simulate_ar1(seed=99))
    assert base.order >= 1
    hits = 0
    for trial in range(30):
        rng = np.random.default_rng((3, trial))
        z = np.zeros(600)
        for t in range(base.order, 600):
            mean = base.beta[0]
            for lag in range(1, base.order + 1):
                mean += base.beta[lag] * z[t - lag]
            z[t] = mean + rng.normal(0.0, np.sqrt(base.sigma2))
        refit = fit_ar(z[100:])
        if refit.order < base.order:
            continue
        # shared coefficients round-trip even when AIC picks a longer lag
        if all(abs(refit.beta[i] - base.beta[i]) <= 3 * refit.stderr[i]
               for i in range(base.order + 1)):
            hits += 1
    assert hits >= 27


def test_power_single_good_is_zero():
    ts = cobb_douglas_statistics(8, 1, seed=9)
    report = power_estimate(ts, 300, seed=1)
    assert report.w_hat_g == 0.0 and report.w_hat_h == 0.0


def test_power_dominance_and_worker_determinism():
    ts = cobb_douglas_statistics(8, 4, seed=7)
    reports = []
    for size in BATCH_SIZES:
        with batches_of(size):
            reports.append(power_estimate(ts, 600, seed=2))
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].harp_rejections >= reports[0].garp_rejections


def test_power_homothetic_panel_regression():
    # locked on first run; the homothetic test rejects far more often
    ts = cobb_douglas_statistics(10, 6, seed=0)
    assert check_harp(ts, 1.0).satisfied
    report = power_estimate(ts, 2000, seed=0)
    assert report.harp_rejections == 1936
    assert report.garp_rejections == 252
    assert report.w_hat_h > report.w_hat_g + 0.5


def test_power_requires_enough_periods():
    ts = cobb_douglas_statistics(2, 3, seed=1)
    with pytest.raises(ValueError, match="three periods"):
        power_estimate(ts, 10, seed=0)


def test_groups_full_size_matches_direct_verdict():
    ts = cobb_douglas_statistics(5, 4, seed=13)
    curve = random_group_probability(ts, [4], 100, seed=5)
    direct = check_harp(ts, 1.0).satisfied
    assert curve.samples == (1,)
    assert curve.p_harp[0] == (1.0 if direct else 0.0)


def test_groups_reject_single_good():
    ts = cobb_douglas_statistics(5, 4, seed=13)
    with pytest.raises(ValueError, match="out of range"):
        random_group_probability(ts, [1], 10, seed=0)


def test_groups_ordering_and_determinism():
    ts = random_statistics(4, 7, seed=3)
    curves = []
    for size in (*BATCH_SIZES, 5):  # every size has 21 or 35 groups: only 5 splits them
        with batches_of(size):
            curves.append(random_group_probability(ts, [2, 3, 4], 120, seed=9))
    assert curves[0] == curves[1] == curves[2] == curves[3]
    for pg, ph in zip(curves[0].p_garp, curves[0].p_harp):
        assert ph <= pg


def test_groups_exhaustive_matches_manual_enumeration():
    from itertools import combinations

    from konus import GroupSelection, restrict_to_group

    ts = random_statistics(4, 5, seed=21)
    curve = random_group_probability(ts, [2], 1000, seed=0)  # 10 groups, enumerated
    assert curve.samples == (10,)
    harp_hits = 0
    for pair in combinations(range(5), 2):
        sub = restrict_to_group(ts, GroupSelection(indices=pair))
        harp_hits += check_harp(sub, 1.0).satisfied
    assert curve.p_harp[0] == pytest.approx(harp_hits / 10.0)


def test_groups_skip_invalid_restrictions():
    prices = np.ones((2, 3))
    quantities = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    ts = trade_statistics(prices, quantities)
    curve = random_group_probability(ts, [2], 100, seed=0)  # exhaustive: 3 groups
    assert curve.samples == (2,)   # the group without the first good is invalid
    assert curve.skipped == (1,)


def test_groups_without_a_valid_group_raise_value_error(appendix_panel):
    # exhaustive branch: every pair of goods leaves some period with no demand
    with pytest.raises(ValueError, match="no valid groups of size 2"):
        random_group_probability(appendix_panel, [2], 40, seed=1)
    # sampled branch: three periods each buy one good, so no pair covers them all
    ts = trade_statistics(np.ones((3, 5)), np.eye(3, 5))
    with pytest.raises(ValueError, match="could not draw enough valid groups of size 2 "
                                         "within the resample cap 3"):
        random_group_probability(ts, [2], 5, seed=1, resample_cap=3)


def test_group_curve_shape_on_noisy_consistent_panel():
    # on a consistent panel with mild demand noise, nearly every random group
    # passes the acyclicity test while small groups rarely pass the
    # homotheticity test; values locked on first run (seeded, exhaustive at
    # the extreme sizes)
    from conftest import near_homothetic_panel

    rng = np.random.default_rng(4242)
    ts = near_homothetic_panel(rng, T=10, m=24, noise=0.25)
    assert check_harp(ts, 1.0).satisfied
    curve = random_group_probability(ts, [2, 4, 8, 16, 24], 300, seed=4242)
    assert curve.samples == (276, 300, 300, 300, 1)  # pairs and full group enumerated
    assert min(curve.p_garp) > 0.9
    np.testing.assert_allclose(curve.p_harp, (0.0036231884057971015, 49 / 300, 0.91, 1.0, 1.0),
                               rtol=1e-12)
    assert curve.p_harp[0] < 0.01 < 0.95 < curve.p_harp[-1]


def test_generators_shapes_and_consistency():
    ts = cobb_douglas_statistics(6, 5, seed=31)
    assert ts.num_periods == 6 and ts.num_goods == 5
    assert check_harp(ts, 1.0).satisfied and check_garp(ts, 1.0).satisfied
    loose = random_statistics(6, 5, seed=31)
    assert loose.num_periods == 6 and loose.num_goods == 5
