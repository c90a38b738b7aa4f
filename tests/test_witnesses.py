"""Witness recovery against the per-pair and full-cube oracles, and its memory bound."""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from konus import (
    check_garp,
    check_harp,
    cross_value_matrix,
    garp_irrationality,
    harp_irrationality,
    law_of_demand_estimate,
    paasche_matrix,
    random_statistics,
    trade_statistics,
)
from konus import semiring
from konus.axioms import _garp_violations
from konus.semiring import FLOAT_SLACK, maxtimes_closure, maxtimes_product, shortest_cycle_above

from conftest import garp_chain_by_pairs, shortest_cycle_by_cube
from test_axioms import recheck_garp_witness, recheck_harp_witness

# A coarse grid makes equal cross values, ties between chains and exact breakpoints common.
GRID = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])
FINE = st.floats(0.2, 5.0)
# Own-good cross values: at level one, 0.8 and 1.0 relate a pair, 0.8 also fails the closing comparison.
SPARSE = st.sampled_from([1.25, 0.8, 1.0] + [1.25] * 5)


@st.composite
def panels(draw, max_periods=10):
    """Panels of 2..10 periods whose rows may repeat earlier observations exactly.

    Half of them buy one unit of a good of their own, so the cross values are
    the price matrix itself: a sparse relation with a planted cycle, which
    gives long chains and cycles.
    """
    T = draw(st.integers(2, max_periods))
    distinct = draw(st.integers(1, T))
    if draw(st.booleans()):
        prices = draw(arrays(float, (distinct, distinct), elements=SPARSE))
        cycle = draw(st.permutations(range(distinct)))[:distinct - draw(st.integers(0, distinct - 1))]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):  # a planted violating cycle
            prices[a, b] = 1.0
        prices[cycle[-1], cycle[0]] = 0.8
        np.fill_diagonal(prices, 1.0)
        quantities = np.eye(distinct)
    else:
        m = draw(st.integers(1, 4))
        elements = GRID if draw(st.booleans()) else FINE
        prices = draw(arrays(float, (distinct, m), elements=elements))
        quantities = draw(arrays(float, (distinct, m), elements=elements))
    repeats = draw(st.lists(st.integers(0, distinct - 1), min_size=T - distinct, max_size=T - distinct))
    order = draw(st.permutations(list(range(distinct)) + repeats))
    return trade_statistics(prices[order], quantities[order])


@st.composite
def panels_and_levels(draw):
    """A panel and a level: a breakpoint of its relation, one just below an index, or any."""
    ts = draw(panels())
    kind = draw(st.sampled_from(["breakpoint", "garp index", "harp index", "any"]))
    if kind == "breakpoint":
        px = cross_value_matrix(ts).px
        t, s = draw(st.permutations(range(ts.num_periods)))[:2]
        return ts, float(px[t, t] / px[t, s])
    if kind == "garp index":  # the last failing breakpoint: critical chains are the long ones
        px = cross_value_matrix(ts).px
        points = np.unique((px.diagonal()[:, np.newaxis] / px)[~np.eye(ts.num_periods, dtype=bool)])
        omega_g, attained = garp_irrationality(ts)
        below = points[points < omega_g] if attained else points[points <= omega_g]
        return ts, float(below[-1]) if below.size else omega_g
    if kind == "harp index":
        return ts, harp_irrationality(ts) * (1.0 - 1e-9)
    return ts, draw(st.floats(0.5, 1.5))


@st.composite
def nonnegative_matrices(draw, max_order=10):
    T = draw(st.integers(2, max_order))
    elements = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 3.0)
    return draw(arrays(float, (T, T), elements=elements))


def small_blocks(rows, cols, width):
    """Patch the product budget so each block of a rows x cols product holds ``width`` middle indices."""
    return mock.patch.object(semiring, "_PRODUCT_BLOCK_BYTES", 8 * rows * cols * width)


@given(panels_and_levels(), st.sampled_from([0.0, 1e-9]))
def test_garp_witness_matches_per_pair_oracle(case, tol):
    ts, omega = case
    verdict = check_garp(ts, omega, tol=tol)
    rel, bad = _garp_violations(cross_value_matrix(ts).px, omega, tol)
    expected = garp_chain_by_pairs(rel, bad)
    if expected is None:
        assert verdict.satisfied
        return
    assert verdict.witness.chain == expected
    assert verdict.witness.comparison == (expected[-1], expected[0])
    recheck_garp_witness(ts, verdict.witness)


@given(panels_and_levels())
def test_harp_witness_matches_cube_oracle(case):
    ts, omega = case
    verdict = check_harp(ts, omega)
    if verdict.satisfied:
        return
    scaled = paasche_matrix(cross_value_matrix(ts)).values / omega
    np.fill_diagonal(scaled, 0.0)
    assert verdict.witness.cycle == shortest_cycle_by_cube(scaled, 1.0 + FLOAT_SLACK)
    recheck_harp_witness(ts, verdict.witness)


@given(nonnegative_matrices(), st.data())
def test_shortest_cycle_matches_cube_oracle(matrix, data):
    T = matrix.shape[0]
    max_len = data.draw(st.none() | st.integers(2, T), label="max_len")
    bound = data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="bound")
    expected = shortest_cycle_by_cube(matrix, bound, max_len)
    assert shortest_cycle_above(matrix, bound, max_len=max_len) == expected
    width = data.draw(st.integers(1, T), label="block width")
    with small_blocks(T, T, width):
        assert shortest_cycle_above(matrix, bound, max_len=max_len) == expected


@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8), st.data())
def test_maxtimes_product_is_bitwise_the_cube_maximum(rows, inner, cols, data):
    elements = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 3.0)
    left = data.draw(arrays(float, (rows, inner), elements=elements), label="left")
    right = data.draw(arrays(float, (inner, cols), elements=elements), label="right")
    expected = (left[:, :, np.newaxis] * right[np.newaxis, :, :]).max(axis=1)
    assert np.array_equal(maxtimes_product(left, right), expected)
    width = data.draw(st.integers(1, inner), label="block width")
    with small_blocks(rows, cols, width):
        assert np.array_equal(maxtimes_product(left, right), expected)


def test_law_of_demand_paths_without_direct_edge_match_the_cube():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(40):
        T, m = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        ts = trade_statistics(np.exp(rng.normal(0, 0.3, (T, m))), np.exp(rng.normal(0, 0.3, (T, m))))
        estimate = law_of_demand_estimate(ts, 1.5, include_direct_edge=False)
        if estimate.diverged:
            continue
        checked += 1
        closure = maxtimes_closure(estimate.step_matrix).values
        cube = (estimate.step_matrix[:, :, np.newaxis] * closure[np.newaxis, :, :]).max(axis=1)
        assert np.array_equal(estimate.path_matrix, cube)
    assert checked > 10


def test_t1000_failing_panel_gets_both_witnesses_under_100_mb():
    ts = random_statistics(1000, 50, 1)
    tracemalloc.start()
    try:
        garp = check_garp(ts)
        harp = check_harp(ts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not garp.satisfied and not harp.satisfied
    recheck_garp_witness(ts, garp.witness)
    recheck_harp_witness(ts, harp.witness)
    assert peak < 100 * 2 ** 20


def test_garp_witness_prefers_fewer_links_over_a_smaller_source():
    # own-good panel, so px is the price matrix: 0 -> 1 -> 2 closes against 0,
    # while the later pair 2 <-> 3 violates directly
    px = np.array([
        [1.0, 1.0, 1.25, 1.25],
        [1.25, 1.0, 1.0, 1.25],
        [0.8, 1.25, 1.0, 0.8],
        [1.25, 1.25, 0.8, 1.0],
    ])
    ts = trade_statistics(px, np.eye(4))
    witness = check_garp(ts, 1.0).witness
    assert witness.chain == (2, 3)
    rel, bad = _garp_violations(px, 1.0, 0.0)
    assert garp_chain_by_pairs(rel, bad) == (2, 3)
