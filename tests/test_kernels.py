"""The loop-free report kernels against the loops they replaced, bit for bit."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from konus import (
    check_harp,
    cobb_douglas_statistics,
    cross_value_matrix,
    enumerate_vertices,
    gamma_coefficients,
    harp_irrationality,
    kh_polytope,
    max_cycle_geomean,
    paasche_matrix,
)
from konus import forecast
from konus.forecast import VERTEX_ENUMERATION_MAX_DIM, LinearConstraint, PolytopeDescription
from konus import semiring
from konus.semiring import _karp_table, _table_max_mean, maxtimes_closure

from conftest import (
    closure_by_outer,
    karp_max_mean_by_loop,
    karp_table_by_columns,
    maxtimes_product_by_multiply,
    relax_by_multiply,
    start_rows_by_multiply,
    vertices_by_subsets,
)
from test_witnesses import panels


def _duplicate(matrix, copies):
    """Repeat rows and columns of a square matrix as duplicated observations would."""
    order = list(range(matrix.shape[0])) + copies
    return matrix[np.ix_(order, order)]


@st.composite
def log_weight_tables(draw):
    """Log edge weights of order 1..12: a -inf diagonal, more -inf edges, repeated vertices."""
    distinct = draw(st.integers(1, 12))
    weights = draw(arrays(float, (distinct, distinct),
                          elements=st.one_of(st.floats(-3.0, 3.0), st.just(-np.inf))))
    copies = draw(st.lists(st.integers(0, distinct - 1), max_size=12 - distinct))
    weights = _duplicate(weights, copies)
    np.fill_diagonal(weights, -np.inf)
    return weights


@st.composite
def closure_inputs(draw):
    """Nonnegative matrices of order 1..12 with zeros and repeated observations, and a slack."""
    distinct = draw(st.integers(1, 12))
    values = draw(arrays(float, (distinct, distinct),
                         elements=st.sampled_from([0.0, 0.25, 0.5, 0.8, 1.0, 1.25]) | st.floats(0.0, 1.1)))
    copies = draw(st.lists(st.integers(0, distinct - 1), max_size=12 - distinct))
    values = _duplicate(values, copies)
    if draw(st.booleans()):
        np.fill_diagonal(values, 0.0)
    return values, draw(st.sampled_from([0.0, 1e-9, 0.05]))


@given(log_weight_tables())
def test_karp_scan_matches_loop_bitwise(weights):
    assert np.float64(_table_max_mean(_karp_table(weights))).tobytes() == np.float64(
        karp_max_mean_by_loop(weights)).tobytes()


@given(log_weight_tables(), st.data())
def test_karp_table_matches_column_reduction_bitwise(weights, data):
    expected = karp_table_by_columns(weights)
    assert _karp_table(weights).tobytes() == expected.tobytes()
    band = data.draw(st.integers(1, len(weights)), label="band rows")
    with mock.patch.object(semiring, "_KARP_BAND_BYTES", 8 * len(weights) * band):
        assert _karp_table(weights).tobytes() == expected.tobytes()


def test_karp_table_matches_column_reduction_bitwise_over_many_bands():
    rng = np.random.default_rng(3)
    weights = rng.normal(0.0, 1.0, (300, 300))
    weights[rng.random((300, 300)) < 0.3] = -np.inf
    np.fill_diagonal(weights, -np.inf)
    assert _karp_table(weights).tobytes() == karp_table_by_columns(weights).tobytes()


@given(panels(max_periods=12))
def test_cycle_geomean_matches_loop_bitwise_on_panels(ts):
    paasche = paasche_matrix(cross_value_matrix(ts))
    weights = np.log(paasche)
    np.fill_diagonal(weights, -np.inf)
    assert max_cycle_geomean(paasche) == float(np.exp(karp_max_mean_by_loop(weights)))


@given(closure_inputs())
def test_closure_matches_outer_loop_bitwise(case):
    matrix, tol = case
    closure = maxtimes_closure(matrix, tol=tol)
    values, diverged = closure_by_outer(matrix, tol=tol)
    assert (closure is None) == diverged
    if closure is not None:
        assert closure.tobytes() == values.tobytes()


# The least subnormal, a product that underflows, ties at one and just above it, and 1e200 and
# 1e300, whose products overflow; mixed with uniform values
edge_entries = st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1.0 + 1e-12, 1e200, 1e300]) | st.floats(0.0, 2.0)


def _same_bits(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


@st.composite
def relax_inputs(draw):
    """A matrix of order 1..12, or a stack of 1..4 of them, of edge entries."""
    T = draw(st.integers(1, 12))
    trials = draw(st.none() | st.integers(1, 4))
    return draw(arrays(float, (T, T) if trials is None else (trials, T, T), elements=edge_entries))


# 0 -> 1 -> 0 overflows at pivot 0, and pivot 1 meets the missing step 1 -> 2: inf * 0 is NaN
_OVERFLOW_THEN_ZERO = np.array([[0.0, 1e300, 0.0], [1e300, 0.0, 0.0], [0.0, 0.0, 0.0]])


@given(relax_inputs(), st.sampled_from([1.0 + 1e-12, 1.05, 1e250, np.inf]))
@example(_OVERFLOW_THEN_ZERO, np.inf)
@example(np.stack([_OVERFLOW_THEN_ZERO, np.eye(3), _OVERFLOW_THEN_ZERO * 1e-300]), np.inf)
@example(np.stack([_OVERFLOW_THEN_ZERO, np.eye(3), _OVERFLOW_THEN_ZERO * 1e-300]), 1.0 + 1e-12)
def test_relax_matches_multiply_form_bitwise(values, threshold):
    # an infinite threshold never diverges, so overflowed walks meet zero steps and make NaNs
    values = values.copy()
    expected = values.copy()
    with np.errstate(all="ignore"):
        expected_diverged = relax_by_multiply(expected, threshold)
    diverged = semiring._relax(values, threshold)
    assert np.array_equal(diverged, expected_diverged)
    assert _same_bits(values, expected)


@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12), st.data())
def test_maxtimes_product_matches_multiply_form_bitwise(rows, inner, cols, data):
    # the left factor is a power: it may hold walks that overflowed already
    left = data.draw(arrays(float, (rows, inner), elements=edge_entries | st.just(np.inf)), label="left")
    right = data.draw(arrays(float, (inner, cols), elements=edge_entries), label="right")
    width = data.draw(st.integers(1, inner), label="block width")
    with mock.patch.object(semiring, "_PRODUCT_BLOCK_BYTES", 8 * rows * cols * width):
        with np.errstate(all="ignore"):
            expected = maxtimes_product_by_multiply(left, right)
        assert _same_bits(semiring.maxtimes_product(left, right), expected)


@given(st.integers(1, 12), st.data())
def test_start_rows_match_multiply_form_bitwise(T, data):
    steps = data.draw(arrays(float, (T, T), elements=edge_entries), label="steps")
    start = data.draw(st.integers(0, T - 1), label="start")
    k = data.draw(st.integers(2, T + 2), label="k")
    with np.errstate(all="ignore"):
        expected = start_rows_by_multiply(steps, start, k)
    rows = semiring._start_rows(steps, start, k)
    assert len(rows) == len(expected)
    assert all(_same_bits(row, oracle) for row, oracle in zip(rows, expected))


@given(panels(max_periods=12), st.floats(1.0, 1.5), st.data())
def test_vertices_match_subset_loop_bitwise_on_forecast_polytopes(ts, slack, data):
    omega = max(1.0, harp_irrationality(ts)) * slack
    if not 2 <= ts.num_goods <= VERTEX_ENUMERATION_MAX_DIM or not check_harp(ts, omega).satisfied:
        return
    price_new = data.draw(arrays(float, ts.num_goods, elements=st.floats(0.2, 5.0)))
    cone = gamma_coefficients(ts, omega, price_new)
    poly = kh_polytope(cone, data.draw(st.floats(0.5, 4.0)))
    assert enumerate_vertices(poly).tobytes() == vertices_by_subsets(poly).tobytes()


@st.composite
def polytopes(draw):
    """Constraint lists of dimension 1..4 with 0..2 equalities and repeated rows."""
    m = draw(st.integers(1, 4))
    n_eq = draw(st.integers(0, min(2, m)))
    n_in = draw(st.integers(0, 8))
    coeffs = st.sampled_from([-1.0, 0.0, 1.0, 2.0]) | st.floats(-3.0, 3.0)
    rows = draw(arrays(float, (n_eq + n_in, m), elements=coeffs))
    rhs = draw(arrays(float, n_eq + n_in, elements=st.sampled_from([0.0, 1.0]) | st.floats(-2.0, 2.0)))
    if n_in > 1 and draw(st.booleans()):  # a repeated inequality makes singular subsystems
        rows[-1], rhs[-1] = rows[-2], rhs[-2]
    constraints = tuple(
        LinearConstraint(coeffs=tuple(float(v) for v in rows[i]), sense="==" if i < n_eq else ">=",
                         rhs=float(rhs[i]))
        for i in range(n_eq + n_in)
    )
    return PolytopeDescription(variables=tuple(f"x{i + 1}" for i in range(m)), constraints=constraints)


@given(polytopes(), st.sampled_from([1, 2, 5, None]))
def test_vertices_match_subset_loop_bitwise_on_random_polytopes(poly, stack):
    with mock.patch.object(forecast, "_VERTEX_STACK", stack or forecast._VERTEX_STACK):
        assert enumerate_vertices(poly).tobytes() == vertices_by_subsets(poly).tobytes()


@pytest.mark.parametrize("stack", [1, 7, None])
def test_vertices_match_subset_loop_across_stacks(monkeypatch, stack):
    # a T=40, m=4 cone has 13,244 square subsystems, so the default stack size is crossed too
    if stack is not None:
        monkeypatch.setattr(forecast, "_VERTEX_STACK", stack)
    for seed in range(3):
        ts = cobb_douglas_statistics(40 if stack is None else 9, 4, seed=seed)
        poly = kh_polytope(gamma_coefficients(ts, 1.0, [1.0, 2.0, 1.0, 0.5]), 2.0)
        assert enumerate_vertices(poly).tobytes() == vertices_by_subsets(poly).tobytes()
