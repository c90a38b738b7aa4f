"""The loop-free report kernels against the loops they replaced, bit for bit."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
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
from konus.semiring import _karp_max_mean, _karp_table, maxtimes_closure

from conftest import closure_by_outer, karp_max_mean_by_loop, karp_table_by_columns, vertices_by_subsets
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
    assert np.float64(_karp_max_mean(weights)).tobytes() == np.float64(
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
