"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance and budget is pinned here; the randomized sweeps use
fixed seeds and are bit-reproducible.
"""

import time

import numpy as np
import pytest

from konus import (
    boolean_closure,
    check_garp,
    check_harp,
    cobb_douglas_statistics,
    cross_value_matrix,
    enumerate_vertices,
    fit_ar,
    forecast_size_paired,
    gamma_coefficients,
    garp_irrationality,
    harp_irrationality,
    kg_membership,
    kh_membership,
    kh_polytope,
    maxtimes_closure,
    paasche_matrix,
    power_estimate,
    rescale_quantities,
    solve_afriat_numbers,
    solve_harp_multipliers,
    trade_statistics,
    verify_afriat_solution,
    verify_harp_multipliers,
)
from konus.afriat import CERTIFICATE_RTOL
from konus.forecast import CounterexampleFixture, intersection_demands
from konus.hierarchy import TreeNode, build_hierarchy

from conftest import (
    BATCH_SIZES,
    batches_of,
    brute_force_harp,
    closure_by_paths,
    garp_irrationality_bisection,
    near_homothetic_panel,
    omega_closure,
    random_panel,
)

UNIT_PRICE = np.array([1.0, 1.0, 1.0])


def _passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_counterexample_reproduction():
    started = time.perf_counter()
    fix = CounterexampleFixture(0.0)
    ts = fix.statistics()
    assert check_garp(ts, 1.0).satisfied
    assert check_harp(ts, 1.0).satisfied

    # reflexive direct relation and its transitive closure, frozen expectations
    px = cross_value_matrix(ts)
    relation = px.diagonal()[:, np.newaxis] >= px
    expected = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=bool)
    np.testing.assert_array_equal(relation, expected)
    np.testing.assert_array_equal(boolean_closure(relation), expected)

    # the homothetic forecasting slice is exactly the expected segment
    cone = gamma_coefficients(ts, 1.0, UNIT_PRICE)
    vertices = enumerate_vertices(kh_polytope(cone, fix.expenditure_new))
    np.testing.assert_allclose(vertices, [[0.0, 0.0, 2.0], [2.0, 0.0, 0.0]], atol=1e-9)

    # strict inclusion: the witness lies in the acyclic support set but not in the slice
    np.testing.assert_allclose(intersection_demands(fix), [2.0, 2.0, 2.0])
    support = fix.intersection_statistics()
    witness = np.array([0.5, 1.0, 0.5])
    assert kg_membership(support, 1.0, UNIT_PRICE, witness)
    assert not kh_membership(cone, ts, witness)
    for vertex in vertices:
        assert kg_membership(support, 1.0, UNIT_PRICE, vertex)

    # epsilon one half: the emitted polytope matches the reference inequality
    # list (same vertex set), including the binding second-good bound
    fix_half = CounterexampleFixture(0.5)
    ts_half = fix_half.statistics()
    cone_half = gamma_coefficients(ts_half, 1.0, UNIT_PRICE)
    vertices_half = enumerate_vertices(kh_polytope(cone_half, 2.0))
    reference = np.array([
        [0.375, 0.625, 1.0],
        [0.8125, 0.625, 0.5625],
        [1.0, 0.0, 1.0],
        [1.75, 0.0, 0.25],
    ])
    np.testing.assert_allclose(vertices_half, reference, atol=1e-9)
    assert vertices_half[:, 1].max() == pytest.approx(0.625, abs=1e-9)

    # interior/exterior grid agreement with the reference support-set
    # description; a dyadic grid keeps every cross value exact, and boundary
    # points are skipped (the region is the closure of a strict-preference
    # set, so its edges are not themselves members)
    support_half = fix_half.intersection_statistics()
    step = 1.0 / 32.0
    for i in range(1, 64):
        for j in range(1, 64):
            x1, x2 = i * step, j * step
            x3 = 2.0 - x1 - x2
            if x3 <= 0.0:
                continue
            point = np.array([x1, x2, x3])
            on_boundary = (
                x1 == 1.75 - 1.5 * x2 or x2 == 1.0 or x1 + x2 == 1.0
            )
            if on_boundary:
                continue
            in_reference = (
                x1 < 1.75 - 1.5 * x2 and x2 < 1.0 and x1 + x2 > 1.0
            )
            member = kg_membership(support_half, 1.0, UNIT_PRICE, point)
            assert member == in_reference, (x1, x2)
    # strict inclusion persists at epsilon one half
    interior_witness = np.array([0.25, 0.9, 0.85])
    assert kg_membership(support_half, 1.0, UNIT_PRICE, interior_witness)
    assert not kh_membership(cone_half, ts_half, interior_witness)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed(1, f"counterexample reproduction ({elapsed:.2f}s)")


def test_criterion_02_closure_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    for i in range(500):
        T = int(rng.integers(1, 7))
        matrix = np.exp(rng.normal(-0.2, 0.7, size=(T, T)))
        closure = maxtimes_closure(matrix)
        oracle_values, oracle_diverged = closure_by_paths(matrix)
        assert (closure is None) == oracle_diverged, f"divergence flag mismatch at case {i}"
        if closure is not None:
            np.testing.assert_allclose(closure, oracle_values, rtol=1e-12)
        # discounted closure against the same oracle on the scaled matrix
        ts = random_panel(rng, T=max(T, 2), m=3)
        paasche = paasche_matrix(cross_value_matrix(ts))
        omega = float(rng.uniform(1.0, 1.8))
        scaled = paasche / omega
        discounted = omega_closure(paasche, omega)
        oracle_values, oracle_diverged = closure_by_paths(scaled)
        assert (discounted is None) == oracle_diverged
        if discounted is not None:
            np.testing.assert_allclose(discounted, oracle_values, rtol=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _passed(2, f"closure oracle equivalence, 500 cases ({elapsed:.1f}s)")


def test_criterion_03_axiom_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    disagreements = 0
    for _ in range(500):
        ts = random_panel(rng, max_T=6, max_m=5)
        omega_h = harp_irrationality(ts)
        levels = [0.9, 1.0, 1.1]
        if ts.num_periods >= 2:
            levels += [omega_h - 1e-6, omega_h + 1e-6]
        for omega in levels:
            if omega <= 0.0:
                continue
            fast = check_harp(ts, omega).satisfied
            slow = brute_force_harp(ts, omega).satisfied
            disagreements += fast != slow
    assert disagreements == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _passed(3, f"axiom oracle equivalence, 500 cases ({elapsed:.1f}s)")


def test_criterion_04_certificate_soundness():
    assert CERTIFICATE_RTOL == 1e-9
    rng = np.random.default_rng(404)
    harp_certificates = garp_certificates = 0
    for _ in range(500):
        ts = random_panel(rng, max_T=6, max_m=5)
        for omega in (0.9, 1.0, 1.1):
            if check_harp(ts, omega).satisfied:
                lm = solve_harp_multipliers(ts, omega)
                verify_harp_multipliers(lm, ts)
                harp_certificates += 1
            if check_garp(ts, omega).satisfied:
                sol = solve_afriat_numbers(ts, omega)
                verify_afriat_solution(sol, ts)
                garp_certificates += 1
    assert harp_certificates > 100 and garp_certificates > 200
    _passed(4, f"certificate soundness ({harp_certificates} homothetic, {garp_certificates} acyclic)")


def test_criterion_05_forecast_cone_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    disagreements = 0
    for _ in range(50):
        while True:
            ts = random_panel(rng, T=int(rng.integers(2, 6)), m=int(rng.integers(2, 5)))
            if check_harp(ts, 1.0).satisfied:
                break
        price = np.exp(rng.normal(0.0, 0.5, size=ts.num_goods))
        cone = gamma_coefficients(ts, 1.0, price)
        for _ in range(10_000):
            x = rng.dirichlet(np.ones(ts.num_goods)) * float(rng.uniform(0.2, 5.0))
            direct = kh_membership(cone, ts, x)
            extended = check_harp(ts.extended(price, x), 1.0).satisfied
            disagreements += direct != extended
    assert disagreements == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _passed(5, f"forecast cone exactness, 50 x 10^4 checks ({elapsed:.1f}s)")


def test_criterion_06_scale_invariance():
    rng = np.random.default_rng(606)
    rescale_checks = implication_checks = 0
    for _ in range(100):
        ts = random_panel(rng)
        omega = float(rng.uniform(0.9, 1.3))
        base = check_harp(ts, omega).satisfied
        for _ in range(100):
            mu = np.exp(rng.normal(0.0, 1.0, size=ts.num_periods))
            scaled = rescale_quantities(ts, mu)
            assert check_harp(scaled, omega).satisfied == base
            rescale_checks += 1
            if base:
                assert check_garp(scaled, omega).satisfied
                implication_checks += 1
    assert rescale_checks == 10_000 and implication_checks > 1000
    _passed(6, f"scale invariance, {rescale_checks} rescalings")


def test_criterion_07_gerschenkron_property():
    rng = np.random.default_rng(707)
    passing = 0
    for _ in range(400):
        ts = random_panel(rng)
        if ts.num_periods < 2 or not check_harp(ts, 1.0).satisfied:
            continue
        passing += 1
        px = cross_value_matrix(ts)
        T = ts.num_periods
        for a in range(T):
            for b in range(a + 1, T):
                laspeyres_paasche_gap = px[a, b] * px[b, a] - px[a, a] * px[b, b]
                assert laspeyres_paasche_gap >= -1e-12 * px[a, a] * px[b, b]
    assert passing > 40
    _passed(7, f"Laspeyres >= Paasche on {passing} consistent panels")


def test_criterion_08_irrationality_indices():
    two = trade_statistics([[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [2.0, 1.0]])
    assert harp_irrationality(two) == pytest.approx(np.sqrt(1.25), abs=1e-9)
    value, attained = garp_irrationality(two)
    assert value == pytest.approx(0.75, abs=1e-9)
    assert attained is False
    rng = np.random.default_rng(808)
    for _ in range(200):
        ts = random_panel(rng)
        exact, _ = garp_irrationality(ts)
        estimate = garp_irrationality_bisection(ts, tol=1e-10)
        assert estimate == pytest.approx(exact, abs=1e-9)
    _passed(8, "irrationality indices and method agreement")


def test_criterion_09_monte_carlo_dominance_and_determinism():
    started = time.perf_counter()
    ts = cobb_douglas_statistics(10, 10, seed=909)
    size_reports, power_reports = [], []
    for size in BATCH_SIZES:
        with batches_of(size):
            size_reports.append(forecast_size_paired(ts, 10_000, seed=909))
            power_reports.append(power_estimate(ts, 10_000, seed=909))
    for garp_report, harp_report in size_reports:
        assert harp_report.hits <= garp_report.hits
    assert size_reports[0] == size_reports[1] == size_reports[2]
    for report in power_reports:
        assert report.harp_rejections >= report.garp_rejections
    assert power_reports[0] == power_reports[1] == power_reports[2]
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _passed(9, f"Monte Carlo dominance and batch determinism ({elapsed:.1f}s)")


def test_criterion_10_autoregression_recovery():
    beta0_true, beta1_true, sigma_true = 0.02, 0.6, 0.05
    order_one = recovered = 0
    for trial in range(100):
        rng = np.random.default_rng((0, trial))
        z = np.zeros(600)
        for t in range(1, 600):
            z[t] = beta0_true + beta1_true * z[t - 1] + rng.normal(0.0, sigma_true)
        model = fit_ar(z[100:])
        if model.order == 1:
            order_one += 1
        if model.order >= 1:
            recovered += (
                abs(model.beta[0] - beta0_true) <= 3 * model.stderr[0]
                and abs(model.beta[1] - beta1_true) <= 3 * model.stderr[1]
            )
    assert recovered >= 95
    assert order_one >= 80
    _passed(10, f"autoregression recovery ({recovered}/100 within 3 SE, {order_one}/100 order one)")


def test_criterion_11_hierarchy_consistency():
    rng = np.random.default_rng(1111)
    qualifying = 0
    draws = 0
    while qualifying < 500:
        draws += 1
        assert draws < 20_000, "generator failed to produce qualifying instances"
        T = int(rng.integers(2, 6))
        ts = near_homothetic_panel(rng, T, 4, noise=0.2)
        tree = TreeNode(
            "root", (TreeNode("a", (), ("g1", "g2")), TreeNode("b", (), ("g3", "g4"))), ()
        )
        report = build_hierarchy(ts, tree)
        if report.root.status != "ok" or not report.root.implies_flat_harp:
            continue
        qualifying += 1
        assert check_harp(ts, 1.0).satisfied  # flat union passes as well
        for node in report.nodes:
            assert node.series is not None
            assert node.series.price[0] == 1.0
            spend = node.statistics.expenditures()
            for t in range(node.statistics.num_periods):
                assert node.series.consumption[t] * node.series.price[t] == spend[t]
    _passed(11, f"hierarchy consistency, 500 qualifying instances in {draws} draws")


def test_criterion_12_performance_sanity():
    for T, m in ((27, 106), (10, 196)):
        ts = cobb_douglas_statistics(T, m, seed=1212)
        started = time.perf_counter()
        verdict = check_harp(ts, 1.0)
        assert verdict.satisfied
        lm = solve_harp_multipliers(ts, 1.0)
        elapsed = time.perf_counter() - started
        assert lm.lam.shape == (T,)
        assert elapsed < 1.0
    _passed(12, "performance sanity at survey scale")
