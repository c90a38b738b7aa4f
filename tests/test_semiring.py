"""Max-times closures, boolean closures, and cycle geomean searches."""

import numpy as np
import pytest

from konus import (
    NoAdmissibleCycleError,
    boolean_closure,
    max_cycle_geomean,
    maxtimes_closure,
)
from konus.semiring import shortest_cycle_above

from conftest import OracleBudgetError, brute_force_cycle_geomean, closure_by_paths


def test_closure_appendix_matrix():
    closure = maxtimes_closure([[1, 1, 0.25], [1, 1, 0.5], [1, 0.5, 1]])
    assert closure is not None
    np.testing.assert_allclose(closure, [[1, 1, 0.5], [1, 1, 0.5], [1, 1, 1]])


def test_closure_single_self_loop():
    closure = maxtimes_closure([[0.5]])
    assert closure is not None
    np.testing.assert_array_equal(closure, [[0.5]])


def test_closure_divergence():
    assert maxtimes_closure([[1, 2], [1, 1]]) is None


def test_closure_rejects_negative_entries():
    with pytest.raises(ValueError, match="nonnegative"):
        maxtimes_closure([[1.0, -0.1], [0.5, 1.0]])


def test_closure_matches_path_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(200):
        T = int(rng.integers(1, 7))
        matrix = np.exp(rng.normal(-0.3, 0.7, size=(T, T)))
        closure = maxtimes_closure(matrix)
        oracle_values, oracle_diverged = closure_by_paths(matrix)
        assert (closure is None) == oracle_diverged
        if closure is not None:
            np.testing.assert_allclose(closure, oracle_values, rtol=1e-12)


def test_closure_idempotent():
    rng = np.random.default_rng(13)
    for _ in range(50):
        T = int(rng.integers(2, 7))
        matrix = np.exp(rng.normal(-0.8, 0.5, size=(T, T)))
        closure = maxtimes_closure(matrix)
        if closure is None:
            continue
        again = maxtimes_closure(closure)
        assert again is not None
        np.testing.assert_allclose(again, closure, rtol=1e-12)


def test_closure_monotone():
    rng = np.random.default_rng(17)
    for _ in range(50):
        T = int(rng.integers(2, 7))
        small = np.exp(rng.normal(-1.0, 0.4, size=(T, T)))
        large = small * np.exp(rng.uniform(0.0, 0.2, size=(T, T)))
        a, b = maxtimes_closure(small), maxtimes_closure(large)
        if a is None or b is None:
            continue
        assert np.all(a <= b * (1 + 1e-12))


def test_boolean_closure_appendix_relation():
    rel = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=bool)
    np.testing.assert_array_equal(boolean_closure(rel), rel)


def test_boolean_closure_identity():
    eye = np.eye(4, dtype=bool)
    np.testing.assert_array_equal(boolean_closure(eye), eye)


def test_boolean_closure_adds_transitive_edge():
    rel = np.zeros((3, 3), dtype=bool)
    rel[0, 1] = rel[1, 2] = True
    out = boolean_closure(rel)
    assert out[0, 2]
    assert not out[2, 0]


def test_geomean_two_cycle():
    value = max_cycle_geomean([[1.0, 1.25], [1.0, 1.0]])
    assert value == pytest.approx(np.sqrt(1.25), abs=1e-12)


def test_geomean_appendix():
    value = max_cycle_geomean([[1, 1, 0.25], [1, 1, 0.5], [1, 0.5, 1]])
    assert value == pytest.approx(1.0, abs=1e-12)


def test_geomean_flat_matrix():
    assert max_cycle_geomean(np.ones((4, 4))) == pytest.approx(1.0, abs=1e-12)


def test_geomean_requires_two_periods():
    with pytest.raises(NoAdmissibleCycleError):
        max_cycle_geomean([[0.5]])


def test_geomean_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(100):
        T = int(rng.integers(2, 7))
        matrix = np.exp(rng.normal(0.0, 0.6, size=(T, T)))
        fast = max_cycle_geomean(matrix)
        slow, cycle = brute_force_cycle_geomean(matrix)
        assert fast == pytest.approx(slow, rel=1e-11)
        assert len(cycle) >= 2
        # the reported cycle attains the reported value
        prod = 1.0
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            prod *= matrix[a, b]
        assert prod ** (1.0 / len(cycle)) == pytest.approx(slow, rel=1e-11)


def test_geomean_min_len_constrains_brute_force():
    matrix = np.array([[1.0, 2.0, 0.1], [2.0, 1.0, 0.1], [0.1, 0.1, 1.0]])
    unrestricted, cycle = brute_force_cycle_geomean(matrix)
    assert cycle == (0, 1)
    constrained, cycle3 = brute_force_cycle_geomean(matrix, min_len=3)
    assert len(cycle3) >= 3
    assert constrained < unrestricted


def test_geomean_singleton_switch():
    matrix = np.array([[0.9, 0.5], [0.5, 0.9]])
    value, cycle = brute_force_cycle_geomean(matrix, include_singletons=True)
    assert cycle == (0,)
    assert value == pytest.approx(0.9)
    value2, _ = brute_force_cycle_geomean(matrix)
    assert value2 == pytest.approx(0.5)


def test_brute_force_budget():
    matrix = np.ones((9, 9))
    with pytest.raises(OracleBudgetError, match="oracle too large"):
        brute_force_cycle_geomean(matrix, budget=1000)


def test_geomean_boundary_matches_closure_divergence():
    rng = np.random.default_rng(31)
    for _ in range(100):
        T = int(rng.integers(2, 7))
        matrix = np.exp(rng.normal(0.0, 0.4, size=(T, T)))
        off_diag = matrix.copy()
        np.fill_diagonal(off_diag, 0.0)
        closure = maxtimes_closure(off_diag)
        fine = closure is not None and np.all(np.diagonal(closure) <= 1 + 1e-12)
        assert (max_cycle_geomean(matrix) <= 1 + 1e-12) == fine


def test_shortest_cycle_above_finds_minimal_length():
    # the only short violation is the 2-cycle (0, 1)
    matrix = np.array([[0.0, 2.0, 0.1], [1.0, 0.0, 0.1], [0.1, 0.1, 0.0]])
    assert shortest_cycle_above(matrix, 1.0) == (0, 1)
    # no violation
    assert shortest_cycle_above(matrix * 0.1, 1.0) is None


@pytest.mark.parametrize("bound", [np.nan, np.inf, -np.inf])
def test_shortest_cycle_above_refuses_a_non_finite_bound(bound):
    # None would read as "no violating cycle", an answer for a bound that has none
    with pytest.raises(ValueError, match="bound must be finite"):
        shortest_cycle_above(np.array([[0.0, 2.0], [2.0, 0.0]]), bound)


def test_shortest_cycle_above_longer_cycle():
    matrix = np.array([
        [0.0, 1.5, 0.1],
        [0.1, 0.0, 1.5],
        [1.5, 0.1, 0.0],
    ])
    cycle = shortest_cycle_above(matrix, 1.0)
    assert cycle == (0, 1, 2)
