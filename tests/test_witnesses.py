"""Witness recovery against the per-pair and full-cube oracles, and its memory bound."""

import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from konus import (
    check_garp,
    check_harp,
    cross_value_matrix,
    garp_irrationality,
    harp_irrationality,
    paasche_matrix,
    random_statistics,
    trade_statistics,
)
from konus import semiring
from konus.axioms import _garp_violations, _harp_verdict, _scaled_paasche
from konus.semiring import FLOAT_SLACK, maxtimes_closure, maxtimes_product, shortest_cycle_above

from conftest import count_closures, garp_chain_by_pairs, planted_cycle_panel, shortest_cycle_by_cube
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
def planted_panels(draw, max_periods=16):
    """Own-good panels like ``conftest.planted_cycle_panel``, of 2..16 periods in a drawn order.

    Every link of the planted cycle costs one and its closing link 0.8, and
    every other price is above one, so the only violations are full-length:
    a HARP cycle through all periods and a GARP chain of T - 1 links.  At a
    price of 1.25 an off-cycle step closes cycles whose Paasche product is
    exactly one.  Panels above the search cutoff find their witnesses by
    lifting.
    """
    T = draw(st.integers(2, max_periods))
    prices = draw(arrays(float, (T, T), elements=st.sampled_from([1.25, 2.0, 5.0])))
    cycle = draw(st.permutations(range(T)))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        prices[a, b] = 1.0
    prices[cycle[-1], cycle[0]] = 0.8
    np.fill_diagonal(prices, 1.0)
    return trade_statistics(prices, np.eye(T))


@st.composite
def panels_and_levels(draw):
    """A panel (planted ones too) and a level: a breakpoint of its relation, one just below an index, or any."""
    ts = draw(panels() | planted_panels())
    kind = draw(st.sampled_from(["breakpoint", "garp index", "harp index", "any"]))
    if kind == "breakpoint":
        px = cross_value_matrix(ts)
        t, s = draw(st.permutations(range(ts.num_periods)))[:2]
        return ts, float(px[t, t] / px[t, s])
    if kind == "garp index":  # the last failing breakpoint: critical chains are the long ones
        px = cross_value_matrix(ts)
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
    rel, _, bad = _garp_violations(cross_value_matrix(ts), omega, tol)
    expected = garp_chain_by_pairs(rel, bad)
    if expected is None:
        assert verdict.satisfied
        return
    assert verdict.witness.chain == expected
    assert verdict.witness.comparison == (expected[-1], expected[0])
    recheck_garp_witness(ts, verdict.witness)


@given(panels_and_levels(), st.sampled_from([0.0, 1e-9, 0.05]))
def test_harp_verdict_is_the_public_closure_then_search_bit_for_bit(case, tol):
    # check_harp hands its checked matrix to the trusted kernels; the checking wrappers must agree
    ts, omega = case
    px = cross_value_matrix(ts)
    scaled = _scaled_paasche(px, omega)
    closure = maxtimes_closure(scaled, tol=tol)
    verdict = check_harp(ts, omega, tol=tol)
    assert verdict.satisfied is (closure is not None)
    if closure is not None:
        got = _harp_verdict(ts, omega, tol)[1]
        assert got.tobytes() == closure.tobytes() and not got.flags.writeable
        return
    cycle = shortest_cycle_above(scaled, (1.0 + tol) * (1.0 + FLOAT_SLACK))
    product = 1.0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        product *= px[b, b] / px[a, b]
    assert verdict.witness.cycle == cycle
    assert verdict.witness.product == product and verdict.witness.omega == omega


@given(panels_and_levels())
def test_harp_witness_matches_cube_oracle(case):
    ts, omega = case
    verdict = check_harp(ts, omega)
    if verdict.satisfied:
        return
    scaled = paasche_matrix(cross_value_matrix(ts)) / omega
    np.fill_diagonal(scaled, 0.0)
    assert verdict.witness.cycle == shortest_cycle_by_cube(scaled, 1.0 + FLOAT_SLACK)
    recheck_harp_witness(ts, verdict.witness)


@given(nonnegative_matrices(), st.data())
def test_shortest_cycle_matches_cube_oracle(matrix, data):
    T = matrix.shape[0]
    bound = data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="bound")
    expected = shortest_cycle_by_cube(matrix, bound)
    assert shortest_cycle_above(matrix, bound) == expected
    width = data.draw(st.integers(1, T), label="block width")
    with small_blocks(T, T, width):
        assert shortest_cycle_above(matrix, bound) == expected


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


@given(planted_panels())
def test_planted_panels_get_full_length_witnesses(ts):
    T = ts.num_periods
    garp, harp = check_garp(ts), check_harp(ts)
    assert len(garp.witness.chain) == T and len(harp.witness.cycle) == T
    rel, _, bad = _garp_violations(cross_value_matrix(ts), 1.0, 0.0)
    assert garp.witness.chain == garp_chain_by_pairs(rel, bad)
    scaled = paasche_matrix(cross_value_matrix(ts))
    np.fill_diagonal(scaled, 0.0)
    assert harp.witness.cycle == shortest_cycle_by_cube(scaled, 1.0 + FLOAT_SLACK)


def test_planted_t300_panel_gets_both_witnesses_within_10_s():
    ts = planted_cycle_panel(300)
    start = time.perf_counter()
    garp = check_garp(ts)
    harp = check_harp(ts)
    elapsed = time.perf_counter() - start
    assert garp.witness.chain == tuple(range(300))
    assert harp.witness.cycle == tuple(range(300))
    recheck_garp_witness(ts, garp.witness)
    recheck_harp_witness(ts, harp.witness)
    assert elapsed < 10.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the cube oracle's, and overflow
def test_cycle_lost_to_underflow_by_lifting_is_found_step_by_step():
    # The only cycle runs 0 -> 1 -> ... -> 7 -> 0 with product 2.  Multiplied left to right from
    # period 0, no partial product leaves the normal range; but in every rotation the pairwise
    # order of the squares multiplies 1e-30 * 1e-300 (periods 2 to 4) first, which underflows to
    # zero, so lifting sees no cycle above the bound and the step-by-step search must run.  (A
    # block of the cycle that underflows leaves a rest that overflows: from period 5 on, the
    # left-to-right products reach inf, and inf times a missing edge is NaN, which the products
    # skip; both only touch starts later than period 0.)
    weights = [1e100, 1e100, 1e-30, 1e-300, 1e-30, 2e60, 1e50, 1e50]
    matrix = np.zeros((8, 8))
    for a, weight in enumerate(weights):
        matrix[a, (a + 1) % 8] = weight
    bound = 1.0 + FLOAT_SLACK
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        found = shortest_cycle_above(matrix, bound)
    assert found == shortest_cycle_by_cube(matrix, bound) == tuple(range(8))
    assert [str(w.message) for w in caught if "invalid value" in str(w.message)] == []


def test_overflowing_walk_times_a_missing_step_is_no_walk():
    # a^2 is [[inf, 0], [0, inf]]: each diagonal walk overflows.  Each entry of a^3 has one walk
    # times a zero step (inf * 0 = NaN) and one real walk, whose value it must keep
    a = np.array([[0.0, 1e200], [1e200, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):  # as shortest_cycle_above holds it
        square = maxtimes_product(a, a)
        cube = maxtimes_product(square, a)
        diagonal = semiring._diagonal_product(square, a)
    np.testing.assert_array_equal(square, [[np.inf, 0.0], [0.0, np.inf]])
    np.testing.assert_array_equal(cube, [[0.0, np.inf], [np.inf, 0.0]])
    np.testing.assert_array_equal(diagonal, [0.0, 0.0])


def test_overflowing_witness_product_warns_nothing():
    # both Paasche entries are 1e200, so the walk products, the walk-back scores and the witness's
    # own product overflow to inf; the search silences that and still returns the witness
    ts = trade_statistics([[1.0, 1e-200], [1e-200, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        witness = check_harp(ts).witness
    assert witness.cycle == (0, 1)
    assert witness.product == np.inf


def test_two_cycle_witness_takes_no_matrix_product(monkeypatch):
    ts = random_statistics(100, 10, 1)
    products = count_closures(monkeypatch, "maxtimes_product")
    witness = check_harp(ts).witness
    assert len(witness.cycle) == 2
    assert products == []
    recheck_harp_witness(ts, witness)


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
    rel, _, bad = _garp_violations(px, 1.0, 0.0)
    assert garp_chain_by_pairs(rel, bad) == (2, 3)
