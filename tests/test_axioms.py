"""Axiom verdicts, witnesses, and agreement with the brute-force oracle."""

import numpy as np
import pytest

from konus import (
    GarpWitness,
    HarpWitness,
    brute_force_harp,
    check_garp,
    check_harp,
    cross_value_matrix,
    harp_irrationality,
    rescale_quantities,
    trade_statistics,
)
from konus.semiring import OracleBudgetError

from conftest import random_panel


def recheck_garp_witness(ts, witness: GarpWitness) -> None:
    """A witness must re-verify as a genuine violation from raw cross values."""
    px = cross_value_matrix(ts)
    for a, b in zip(witness.chain, witness.chain[1:]):
        assert px[a, a] >= witness.omega * px[a, b]
    s, t = witness.comparison
    assert px[s, s] > witness.omega * px[s, t]


def recheck_harp_witness(ts, witness: HarpWitness) -> None:
    px = cross_value_matrix(ts)
    paasche = px.diagonal()[np.newaxis, :] / px
    cycle = witness.cycle
    assert len(cycle) >= 2
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert a != b
    product = 1.0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        product *= paasche[a, b]
    assert product == pytest.approx(witness.product, rel=1e-12)
    assert product > witness.omega ** len(cycle)


def test_garp_appendix(appendix_panel):
    assert check_garp(appendix_panel, 1.0).satisfied


def test_garp_two_period(two_period_panel):
    verdict = check_garp(two_period_panel, 1.0)
    assert verdict.satisfied
    # only the second bundle is revealed preferred to the first
    px = cross_value_matrix(two_period_panel)
    assert px[1, 1] >= px[1, 0] and not px[0, 0] >= px[0, 1]


def test_garp_two_period_violated_at_lower_level(two_period_panel):
    verdict = check_garp(two_period_panel, 0.75)
    assert not verdict.satisfied
    assert isinstance(verdict.witness, GarpWitness)
    assert verdict.witness.chain == (0, 1)
    recheck_garp_witness(two_period_panel, verdict.witness)


def test_harp_appendix(appendix_panel):
    assert check_harp(appendix_panel, 1.0).satisfied


def test_harp_two_period(two_period_panel):
    verdict = check_harp(two_period_panel, 1.0)
    assert not verdict.satisfied
    assert isinstance(verdict.witness, HarpWitness)
    assert verdict.witness.cycle == (0, 1)
    assert verdict.witness.product == pytest.approx(1.25, rel=1e-12)
    recheck_harp_witness(two_period_panel, verdict.witness)


def test_harp_two_period_relaxed(two_period_panel):
    assert check_harp(two_period_panel, 1.12).satisfied  # 1.25 <= 1.12^2


def test_brute_force_appendix(appendix_panel):
    assert brute_force_harp(appendix_panel, 1.0, max_len=3).satisfied


def test_brute_force_two_period(two_period_panel):
    verdict = brute_force_harp(two_period_panel, 1.0)
    assert not verdict.satisfied
    assert verdict.witness.cycle == (0, 1)


def test_brute_force_single_period():
    ts = trade_statistics([[5.0]], [[2.0]])
    assert brute_force_harp(ts, 1.0).satisfied


def test_brute_force_budget_error():
    # a consistent panel forces the enumeration through every length
    from konus import cobb_douglas_statistics

    ts = cobb_douglas_statistics(9, 3, seed=2)
    with pytest.raises(OracleBudgetError):
        brute_force_harp(ts, 1.0, budget=500)


def test_brute_force_singleton_reading(two_period_panel):
    # under the literal reading, levels below one always fail via the 1-cycle
    assert not brute_force_harp(two_period_panel, 0.99, include_singletons=True).satisfied
    single_free = brute_force_harp(two_period_panel, 1.3, include_singletons=True)
    assert single_free.satisfied


def test_garp_monotone_in_level():
    rng = np.random.default_rng(41)
    grid = [0.6, 0.8, 1.0, 1.2, 1.5]
    for _ in range(40):
        ts = random_panel(rng)
        verdicts = [check_garp(ts, w).satisfied for w in grid]
        assert verdicts == sorted(verdicts)  # once satisfied, stays satisfied


def test_harp_monotone_in_level():
    rng = np.random.default_rng(43)
    grid = [0.6, 0.8, 1.0, 1.2, 1.5]
    for _ in range(40):
        ts = random_panel(rng)
        verdicts = [check_harp(ts, w).satisfied for w in grid]
        assert verdicts == sorted(verdicts)


def test_harp_implies_garp():
    rng = np.random.default_rng(47)
    hits = 0
    for _ in range(120):
        ts = random_panel(rng)
        for omega in (0.9, 1.0, 1.1):
            if check_harp(ts, omega).satisfied:
                hits += 1
                assert check_garp(ts, omega).satisfied
    assert hits > 10  # the implication was actually exercised


def test_harp_scale_invariance_and_rescaled_garp():
    rng = np.random.default_rng(53)
    for _ in range(40):
        ts = random_panel(rng)
        omega = float(rng.uniform(0.9, 1.3))
        base = check_harp(ts, omega).satisfied
        for _ in range(5):
            mu = np.exp(rng.normal(0.0, 1.0, size=ts.num_periods))
            scaled = rescale_quantities(ts, mu)
            assert check_harp(scaled, omega).satisfied == base
            if base:
                assert check_garp(scaled, omega).satisfied


def test_gerschenkron_inequality_under_homotheticity():
    rng = np.random.default_rng(59)
    checked = 0
    for _ in range(200):
        ts = random_panel(rng)
        if not check_harp(ts, 1.0).satisfied:
            continue
        checked += 1
        px = cross_value_matrix(ts)
        T = ts.num_periods
        for a in range(T):
            for b in range(T):
                if a != b:
                    assert px[a, b] * px[b, a] >= px[a, a] * px[b, b] * (1 - 1e-12)
    assert checked > 10


def test_harp_agrees_with_brute_force():
    rng = np.random.default_rng(61)
    for _ in range(150):
        ts = random_panel(rng)
        omega_h = harp_irrationality(ts)
        for omega in (0.9, 1.0, 1.1, omega_h - 1e-6, omega_h + 1e-6):
            if omega <= 0:
                continue
            assert check_harp(ts, omega).satisfied == brute_force_harp(ts, omega).satisfied


def test_garp_witness_is_shortest():
    rng = np.random.default_rng(67)
    for _ in range(60):
        ts = random_panel(rng)
        verdict = check_garp(ts, 0.85)
        if verdict.satisfied:
            continue
        recheck_garp_witness(ts, verdict.witness)


def test_harp_witness_rechecks():
    rng = np.random.default_rng(71)
    for _ in range(60):
        ts = random_panel(rng)
        verdict = check_harp(ts, 1.0)
        if not verdict.satisfied:
            recheck_harp_witness(ts, verdict.witness)


def test_omega_must_be_positive(two_period_panel):
    with pytest.raises(ValueError):
        check_garp(two_period_panel, 0.0)
    with pytest.raises(ValueError):
        check_harp(two_period_panel, -1.0)
